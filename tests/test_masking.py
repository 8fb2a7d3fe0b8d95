import io
import re
from collections import Counter
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamask import (
    AnnotatedDocument,
    DataError,
    Document,
    Label,
    MaskPolicy,
    NeSpan,
    NeTag,
    ResolveMode,
    index_dump,
    mask_corpus,
    mask_text,
)
from diamask.wikidata import resolve_person_label

from helpers import make_sample_annotated, modi_dump_lines

SNAPSHOT = date(2020, 12, 28)


@pytest.fixture(scope="module")
def modi_index():
    return index_dump(io.StringIO("\n".join(modi_dump_lines()) + "\n"), SNAPSHOT)


@pytest.fixture()
def sample():
    return make_sample_annotated()


SAMPLE_TEXT = (
    "18 states including US UK and Australia request PM Modi "
    "to head a task force to stop coronavirus"
)

EXPECTED = {
    MaskPolicy.NO_MASK: SAMPLE_TEXT,
    MaskPolicy.NE_DEL: (
        "18 states including and request PM to head a task force to stop coronavirus"
    ),
    MaskPolicy.BASIC_NER: (
        "18 states including LOC LOC and LOC request PM PER "
        "to head a task force to stop coronavirus"
    ),
    MaskPolicy.WIKID: (
        "18 states including US UK and Australia request PM Q22337580 "
        "to head a task force to stop coronavirus"
    ),
    MaskPolicy.WIKID_DEL: (
        "18 states including and request PM Q22337580 "
        "to head a task force to stop coronavirus"
    ),
    MaskPolicy.WIKID_NER: (
        "18 states including LOC LOC and LOC request PM Q22337580 "
        "to head a task force to stop coronavirus"
    ),
}

EXPECTED_USAGE = {
    MaskPolicy.NO_MASK: {},
    MaskPolicy.NE_DEL: {},
    MaskPolicy.BASIC_NER: {"LOC": 3, "PER": 1},
    MaskPolicy.WIKID: {"Q22337580": 1},
    MaskPolicy.WIKID_DEL: {"Q22337580": 1},
    MaskPolicy.WIKID_NER: {"LOC": 3, "Q22337580": 1},
}


def ann(text, *spans):
    doc = Document(id="d", text=text, label=Label.REAL)
    built = []
    for surface, tag in spans:
        start = text.index(surface)
        built.append(NeSpan(start=start, end=start + len(surface), tag=tag, surface=surface))
    built.sort(key=lambda s: s.start)
    return AnnotatedDocument(document=doc, spans=tuple(built))


class TestMaskPolicy:
    def test_parse(self):
        assert MaskPolicy.parse("wikid-del") is MaskPolicy.WIKID_DEL

    def test_parse_lists_known_policies(self):
        with pytest.raises(DataError, match="no-mask.*wikid-ner"):
            MaskPolicy.parse("redact")

    def test_display_names(self):
        assert [p.display_name for p in MaskPolicy] == [
            "No Mask",
            "NE Del",
            "Basic NER",
            "WikiD",
            "WikiD+Del",
            "WikiD+NER",
        ]

    def test_index_requirement(self):
        needs = {p for p in MaskPolicy if p.requires_index}
        assert needs == {MaskPolicy.WIKID, MaskPolicy.WIKID_DEL, MaskPolicy.WIKID_NER}


class TestWorkedExample:
    @pytest.mark.parametrize("policy", list(MaskPolicy), ids=lambda p: p.value)
    def test_masked_text_is_byte_exact(self, policy, sample, modi_index):
        assert mask_text(sample, policy, modi_index) == EXPECTED[policy]

    @pytest.mark.parametrize("policy", list(MaskPolicy), ids=lambda p: p.value)
    def test_usage_multiset(self, policy, sample, modi_index):
        _, usage = mask_corpus([sample], policy, modi_index)
        assert usage == Counter(EXPECTED_USAGE[policy])


class TestWhitespaceHandling:
    def test_preexisting_runs_survive_replacement(self, modi_index):
        doc = ann("x  y US z", ("US", NeTag.LOC))
        assert mask_text(doc, MaskPolicy.BASIC_NER, modi_index) == "x  y LOC z"

    def test_preexisting_runs_survive_away_from_deletions(self):
        doc = ann("x  y US z", ("US", NeTag.LOC))
        assert mask_text(doc, MaskPolicy.NE_DEL) == "x  y z"

    def test_deletion_at_text_start(self):
        assert mask_text(ann("US attacks", ("US", NeTag.LOC)), MaskPolicy.NE_DEL) == "attacks"

    def test_deletion_at_text_end(self):
        assert mask_text(ann("attack US", ("US", NeTag.LOC)), MaskPolicy.NE_DEL) == "attack"

    def test_deleting_everything_yields_empty_text(self):
        doc = ann("US UK", ("US", NeTag.LOC), ("UK", NeTag.LOC))
        assert mask_text(doc, MaskPolicy.NE_DEL) == ""

    def test_deletion_before_punctuation_keeps_single_space(self):
        doc = ann("met Modi, leader", ("Modi", NeTag.PER))
        assert mask_text(doc, MaskPolicy.NE_DEL) == "met , leader"

    def test_deletions_in_one_run_leave_other_runs_alone(self):
        # both deletions sit in one whitespace run, which becomes one space;
        # the double space after "a", which no deletion touches, stays
        doc = ann("a  bc X      Y     z", ("X", NeTag.ORG), ("Y", NeTag.ORG))
        assert mask_text(doc, MaskPolicy.NE_DEL) == "a  bc z"

    def test_deletion_flush_against_letters_adds_no_space(self):
        doc = ann("xUSy", ("US", NeTag.LOC))
        assert mask_text(doc, MaskPolicy.NE_DEL) == "xy"

    @pytest.mark.parametrize("text, want", [("xUVy", "xy"), ("xU Vy", "x y")])
    def test_deletion_next_to_a_deletion(self, text, want):
        # the segment between the two deletions strips to nothing, so its
        # whitespace, if any, decides the one join left
        assert mask_text(ann(text, ("U", NeTag.ORG), ("V", NeTag.ORG)), MaskPolicy.NE_DEL) == want

    def test_whitespace_after_a_deletion_alone_gives_one_space(self):
        assert mask_text(ann("xUS  y", ("US", NeTag.LOC)), MaskPolicy.NE_DEL) == "x y"

    def test_edges_are_stripped_only_after_an_edit(self):
        untouched = ann(" padded ")
        assert mask_text(untouched, MaskPolicy.NE_DEL) == " padded "
        edited = ann(" padded US ", ("US", NeTag.LOC))
        assert mask_text(edited, MaskPolicy.NE_DEL) == "padded"

    def test_edges_are_stripped_after_a_replacement(self):
        edited = ann(" padded US ", ("US", NeTag.LOC))
        assert mask_text(edited, MaskPolicy.BASIC_NER) == "padded LOC"

    def test_no_mask_never_touches_text(self, modi_index):
        doc = ann("  US  ", ("US", NeTag.LOC))
        assert mask_text(doc, MaskPolicy.NO_MASK) == "  US  "


class TestResolution:
    def test_unresolvable_person_falls_back_to_generic_token(self, modi_index):
        doc = ann("with Cleopatra tonight", ("Cleopatra", NeTag.PER))
        corpus, usage = mask_corpus([doc], MaskPolicy.WIKID, modi_index)
        assert corpus.documents[0].text == "with PER tonight"
        assert usage == Counter({"PER": 1})

    def test_masked_surfaces_do_not_survive(self, sample, modi_index):
        for policy in (MaskPolicy.NE_DEL, MaskPolicy.BASIC_NER, MaskPolicy.WIKID_DEL):
            masked = mask_text(sample, policy, modi_index)
            assert "Modi" not in masked
            assert "Australia" not in masked

    def test_missing_index_is_an_error(self, sample):
        """A fault of the call: raised as it is, for a corpus of no documents too."""
        for policy in (MaskPolicy.WIKID, MaskPolicy.WIKID_DEL, MaskPolicy.WIKID_NER):
            message = f"^policy {policy.value!r} requires an entity index$"
            with pytest.raises(DataError, match=message):
                mask_text(sample, policy, None)
            for docs in ([sample], []):
                with pytest.raises(DataError, match=message):
                    mask_corpus(docs, policy, None)

    def test_masking_without_spans_is_identity(self, modi_index):
        doc = ann("nothing notable here")
        for policy in MaskPolicy:
            index = modi_index if policy.requires_index else None
            assert mask_text(doc, policy, index) == "nothing notable here"


class TestMaskCorpus:
    def corpus(self, modi_index):
        docs = [
            make_sample_annotated(),
            ann("Obama met Modi", ("Obama", NeTag.PER), ("Modi", NeTag.PER)),
        ]
        fixed = []
        for i, d in enumerate(docs):
            src = d.document
            fixed.append(
                AnnotatedDocument(
                    document=Document(
                        id=f"doc-{i}",
                        text=src.text,
                        label=src.label,
                        date=date(2020, 1, 1 + i),
                        source="unit",
                    ),
                    spans=d.spans,
                )
            )
        return fixed

    def test_documents_keep_identity_fields(self, modi_index):
        docs = self.corpus(modi_index)
        corpus, _ = mask_corpus(docs, MaskPolicy.BASIC_NER)
        assert [d.id for d in corpus] == ["doc-0", "doc-1"]
        assert [d.label for d in corpus] == [Label.FAKE, Label.REAL]
        assert [d.date for d in corpus] == [date(2020, 1, 1), date(2020, 1, 2)]
        assert all(d.source == "unit" for d in corpus)

    def test_usage_aggregates_across_documents(self, modi_index):
        docs = self.corpus(modi_index)
        _, usage = mask_corpus(docs, MaskPolicy.WIKID, modi_index)
        assert usage == Counter({"Q22337580": 2, "Q11696": 1})

    def test_corpus_name_defaults_to_policy(self, modi_index):
        docs = self.corpus(modi_index)
        corpus, _ = mask_corpus(docs, MaskPolicy.NE_DEL)
        assert corpus.name == "ne-del"
        corpus, _ = mask_corpus(docs, MaskPolicy.NE_DEL, name="custom")
        assert corpus.name == "custom"


WORDS = ("alpha", "beta", "gamma", "delta", "US", "Modi", "Obama", "epsilon")
TAGS = (NeTag.PER, NeTag.LOC, NeTag.ORG, NeTag.MISC)
_QID_OR_TAG = re.compile(r"^(Q\d+|PER|LOC|ORG|MISC)$")


@given(
    words=st.lists(st.sampled_from(WORDS), min_size=1, max_size=10),
    mask_positions=st.sets(st.integers(min_value=0, max_value=9), max_size=5),
    policy=st.sampled_from(list(MaskPolicy)),
)
def test_word_aligned_masking_invariants(words, mask_positions, policy):
    index = index_dump(io.StringIO("\n".join(modi_dump_lines()) + "\n"), SNAPSHOT)
    text = " ".join(words)
    spans = []
    offset = 0
    for i, word in enumerate(words):
        if i in mask_positions:
            spans.append(
                NeSpan(start=offset, end=offset + len(word), tag=TAGS[i % 4], surface=word)
            )
        offset += len(word) + 1
    doc = AnnotatedDocument(
        document=Document(id="d", text=text, label=Label.REAL), spans=tuple(spans)
    )
    masked = mask_text(doc, policy, index)
    if policy is MaskPolicy.NO_MASK or not spans:
        assert masked == text
    else:
        assert "  " not in masked
        assert masked == masked.strip()
    _, usage = mask_corpus([doc], policy, index)
    for token in usage:
        assert _QID_OR_TAG.match(token)


# -- mask_text and mask_corpus against the branch chain they replaced


_KEEP, _DELETE = object(), object()


def reference_span_action(span, policy, index, resolve_mode):
    """What masking spliced in for one span before the rule table: _KEEP,
    _DELETE, or a replacement, one branch per policy."""
    if policy is MaskPolicy.NO_MASK:
        return _KEEP
    if policy is MaskPolicy.NE_DEL:
        return _DELETE
    if policy is MaskPolicy.BASIC_NER:
        return span.tag.value
    assert index is not None
    if span.tag is NeTag.PER:
        return resolve_person_label(index, span.surface, resolve_mode).token
    if policy is MaskPolicy.WIKID:
        return _KEEP
    if policy is MaskPolicy.WIKID_DEL:
        return _DELETE
    return span.tag.value  # wikid-ner


def reference_join(text, points):
    """text with each maximal whitespace run [a, b) that holds a deletion
    point j, a <= j <= b, made one space."""
    pieces, cursor = [], 0
    for run in re.finditer(r"\s+", text):
        a, b = run.span()
        if any(a <= j <= b for j in points):
            pieces += (text[cursor:a], " ")
            cursor = b
    pieces.append(text[cursor:])
    return "".join(pieces)


def reference_mask(doc, policy, index, resolve_mode):
    """Masking as it was before the rule table, with the spacing rule of the
    masking module's docstring: (masked text, tokens spliced in)."""
    text = doc.document.text
    pieces, junctions, emitted = [], [], []
    out_len = 0
    edited = False
    cursor = 0
    for span in doc.spans:
        chunk = text[cursor:span.start]
        pieces.append(chunk)
        out_len += len(chunk)
        action = reference_span_action(span, policy, index, resolve_mode)
        if action is _KEEP:
            pieces.append(span.surface)
            out_len += len(span.surface)
        elif action is _DELETE:
            junctions.append(out_len)
            edited = True
        else:
            pieces.append(action)
            out_len += len(action)
            emitted.append(action)
            edited = True
        cursor = span.end
    pieces.append(text[cursor:])
    masked = "".join(pieces)
    if edited:
        masked = reference_join(masked, junctions).strip()
    return masked, emitted


MODI_INDEX = index_dump(io.StringIO("\n".join(modi_dump_lines()) + "\n"), SNAPSHOT)
# whitespace runs, punctuation, a double-spaced word pair and nothing at all
# (so spans can touch)
GAPS = ("", "", " ", "   ", "      ", "\t", " \n ", ",", ", ", " . ", "'s ", " (", ") ", "said",
        "a  b")
SURFACES = {
    # "Wren Nobody" shares no token with the index, so it takes the PER fallback
    NeTag.PER: ("Modi", "Narendra Modi", "MODI", "Barack Obama", "Douglas Adams", "Wren Nobody"),
    NeTag.LOC: ("US", "New Delhi"),
    NeTag.ORG: ("UN",),
    NeTag.MISC: ("Olympics",),
}
SPAN = st.sampled_from(list(NeTag)).flatmap(
    lambda tag: st.sampled_from(SURFACES[tag]).map(lambda surface: (surface, tag))
)


@st.composite
def spliced_docs(draw):
    """A document of gaps and spans in any order: spans at either edge, next to
    each other, and next to punctuation and whitespace runs."""
    text, spans = "", []
    for part in draw(st.lists(st.one_of(st.sampled_from(GAPS), SPAN), max_size=12)):
        if isinstance(part, str):
            text += part
        else:
            surface, tag = part
            spans.append(NeSpan(start=len(text), end=len(text) + len(surface), tag=tag,
                                surface=surface))
            text += surface
    return AnnotatedDocument(document=Document(id="d", text=text, label=Label.REAL),
                             spans=tuple(spans))


@given(spliced_docs(), st.sampled_from(list(MaskPolicy)), st.sampled_from(list(ResolveMode)))
@settings(max_examples=300)
def test_masking_matches_the_reference(doc, policy, mode):
    text, emitted = reference_mask(doc, policy, MODI_INDEX, mode)
    assert mask_text(doc, policy, MODI_INDEX, mode) == text
    corpus, usage = mask_corpus([doc], policy, MODI_INDEX, mode)
    assert corpus.documents[0].text == text
    assert usage == Counter(emitted)
