import json
import logging
import re
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamask import (
    AnnotatedDocument,
    Corpus,
    DataError,
    Document,
    Gazetteer,
    Label,
    NeSpan,
    NeTag,
    load_annotations,
    load_gazetteer,
    tag_with_gazetteer,
    write_annotations,
)
from diamask.annotate import _FOLD_MARKS, _WORD_RE, resolve_overlaps

from helpers import json_text


def doc(doc_id, text):
    return Document(id=doc_id, text=text, label=Label.REAL)


TEXT = "abcdefghijklmnop"


def span(start, end, tag=NeTag.PER, text=TEXT):
    return NeSpan(start=start, end=end, tag=tag, surface=text[start:end])


class TestNeTag:
    def test_parse(self):
        assert NeTag.parse("PER") is NeTag.PER
        assert NeTag.parse("MISC") is NeTag.MISC

    def test_parse_lists_inventory_on_error(self):
        with pytest.raises(DataError, match="PER/LOC/ORG/MISC"):
            NeTag.parse("GPE")


class TestNeSpan:
    def test_offsets_must_be_ordered_and_non_negative(self):
        for start, end in ((3, 3), (5, 2), (-1, 4)):
            with pytest.raises(DataError):
                NeSpan(start=start, end=end, tag=NeTag.PER, surface="x")


class TestAnnotatedDocument:
    def test_accepts_sorted_disjoint_spans(self):
        ann = AnnotatedDocument(document=doc("d", TEXT), spans=(span(0, 3), span(5, 8)))
        assert len(ann.spans) == 2

    def test_rejects_span_past_text_end(self):
        with pytest.raises(DataError, match="exceeds"):
            AnnotatedDocument(
                document=doc("d", "abc"),
                spans=(NeSpan(start=0, end=9, tag=NeTag.PER, surface="abc!!!"),),
            )

    def test_rejects_surface_mismatch(self):
        with pytest.raises(DataError, match="'d'"):
            AnnotatedDocument(
                document=doc("d", TEXT),
                spans=(NeSpan(start=0, end=3, tag=NeTag.PER, surface="zzz"),),
            )

    def test_rejects_overlapping_spans(self):
        with pytest.raises(DataError, match="overlap"):
            AnnotatedDocument(document=doc("d", TEXT), spans=(span(0, 5), span(3, 8)))

    def test_rejects_unsorted_spans(self):
        with pytest.raises(DataError, match="overlapping or unsorted"):
            AnnotatedDocument(document=doc("d", TEXT), spans=(span(5, 8), span(0, 3)))


class TestResolveOverlaps:
    def test_longest_span_wins(self):
        kept, dropped = resolve_overlaps([span(0, 4), span(0, 9, NeTag.LOC)])
        assert [(s.start, s.end) for s in kept] == [(0, 9)]
        assert dropped == 1

    def test_leftmost_wins_on_equal_length(self):
        kept, dropped = resolve_overlaps([span(5, 15, NeTag.LOC), span(0, 10)])
        assert [(s.start, s.end) for s in kept] == [(0, 10)]
        assert kept[0].tag is NeTag.PER
        assert dropped == 1

    def test_disjoint_spans_are_kept_and_sorted(self):
        kept, dropped = resolve_overlaps([span(8, 12), span(0, 3)])
        assert [(s.start, s.end) for s in kept] == [(0, 3), (8, 12)]
        assert dropped == 0


class TestLoadAnnotations:
    def write(self, tmp_path, records):
        path = tmp_path / "spans.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        return path

    def corpus(self):
        return Corpus(name="c", documents=(doc("d1", TEXT), doc("d2", "qqq www")))

    def record(self, doc_id, *spans):
        return {
            "doc_id": doc_id,
            "spans": [
                {"start": s, "end": e, "tag": t, "text": TEXT[s:e]} for s, e, t in spans
            ],
        }

    def test_pairs_every_document_in_corpus_order(self, tmp_path):
        path = self.write(tmp_path, [self.record("d1", (0, 3, "PER"))])
        annotated = load_annotations(self.corpus(), path)
        assert [a.document.id for a in annotated] == ["d1", "d2"]
        assert [(s.start, s.end) for s in annotated[0].spans] == [(0, 3)]
        assert annotated[1].spans == ()

    def test_duplicate_records_merge(self, tmp_path):
        path = self.write(
            tmp_path,
            [self.record("d1", (0, 3, "PER")), self.record("d1", (5, 8, "LOC"))],
        )
        annotated = load_annotations(self.corpus(), path)
        assert [(s.start, s.end) for s in annotated[0].spans] == [(0, 3), (5, 8)]

    def test_unknown_document_is_an_error(self, tmp_path):
        path = self.write(tmp_path, [self.record("ghost", (0, 3, "PER"))])
        with pytest.raises(DataError, match="line 1.*ghost"):
            load_annotations(self.corpus(), path)

    def test_missing_span_field_is_an_error(self, tmp_path):
        path = self.write(
            tmp_path, [{"doc_id": "d1", "spans": [{"start": 0, "end": 3, "tag": "PER"}]}]
        )
        with pytest.raises(DataError, match="missing field 'text'"):
            load_annotations(self.corpus(), path)

    def test_unknown_tag_is_an_error(self, tmp_path):
        path = self.write(tmp_path, [self.record("d1", (0, 3, "GPE"))])
        with pytest.raises(DataError, match="GPE"):
            load_annotations(self.corpus(), path)

    def test_surface_mismatch_is_an_error(self, tmp_path):
        record = {
            "doc_id": "d1",
            "spans": [{"start": 0, "end": 3, "tag": "PER", "text": "zzz"}],
        }
        path = self.write(tmp_path, [record])
        with pytest.raises(DataError, match="'abc'.*'zzz'"):
            load_annotations(self.corpus(), path)

    def test_overlaps_resolved_with_warning(self, tmp_path, caplog):
        path = self.write(
            tmp_path, [self.record("d1", (0, 10, "PER"), (5, 15, "LOC"))]
        )
        with caplog.at_level(logging.WARNING, logger="diamask.annotate"):
            annotated = load_annotations(self.corpus(), path)
        assert [(s.start, s.end) for s in annotated[0].spans] == [(0, 10)]
        assert "discarded 1" in caplog.text

    def test_empty_file_yields_empty_span_lists(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text("")
        annotated = load_annotations(self.corpus(), path)
        assert all(a.spans == () for a in annotated)

    def test_round_trip(self, tmp_path):
        original = [
            AnnotatedDocument(
                document=doc("d1", TEXT),
                spans=(span(0, 3), span(5, 8, NeTag.ORG)),
            ),
            AnnotatedDocument(document=doc("d2", "qqq www"), spans=()),
        ]
        path = tmp_path / "spans.jsonl"
        write_annotations(original, path)
        loaded = load_annotations(self.corpus(), path)
        assert [a.spans for a in loaded] == [a.spans for a in original]


def reference_record(ann):
    """The record write_annotations writes for ann, which json.dumps turns into its line."""
    return {
        "doc_id": ann.document.id,
        "spans": [
            {"start": s.start, "end": s.end, "tag": s.tag.value, "text": s.surface}
            for s in ann.spans
        ],
    }


@st.composite
def annotated_documents(draw):
    """Annotated documents with distinct ids, each with 0 or more spans: pairs of
    distinct sorted cut points in its text."""
    out = []
    for doc_id in draw(st.lists(json_text.filter(bool), unique=True, max_size=4)):
        text = draw(json_text)
        cuts = sorted(draw(st.lists(st.integers(0, len(text)), unique=True, max_size=8)))
        spans = tuple(
            NeSpan(start=start, end=end, tag=draw(st.sampled_from(NeTag)), surface=text[start:end])
            for start, end in zip(cuts[::2], cuts[1::2])
        )
        out.append(AnnotatedDocument(document=doc(doc_id, text), spans=spans))
    return out


@st.composite
def accepted_annotations(draw):
    """Annotated documents of every shape AnnotatedDocument takes, with distinct
    ids: cut points may repeat, so a span may end where the next one starts."""
    out = []
    for doc_id in draw(st.lists(json_text.filter(bool), unique=True, max_size=4)):
        text = draw(json_text)
        cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=8)))
        spans = tuple(
            NeSpan(start=start, end=end, tag=draw(st.sampled_from(NeTag)), surface=text[start:end])
            for start, end in zip(cuts[::2], cuts[1::2])
            if start < end
        )
        out.append(AnnotatedDocument(document=doc(doc_id, text), spans=spans))
    return out


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("write")


class TestWriteAnnotations:
    @given(annotated_documents())
    @settings(max_examples=300)
    def test_write(self, scratch, docs):
        write_annotations(docs, scratch / "spans.jsonl")
        reference = "".join(json.dumps(reference_record(a), ensure_ascii=False) + "\n" for a in docs)
        assert (scratch / "spans.jsonl").read_bytes() == reference.encode("utf-8")
        corpus = Corpus(name="c", documents=tuple(a.document for a in docs))
        assert load_annotations(corpus, scratch / "spans.jsonl") == docs

    @given(accepted_annotations())
    def test_round_trip(self, scratch, docs):
        """Every list of AnnotatedDocuments loads back as written, and writes
        again to the same bytes."""
        path = scratch / "round-trip.jsonl"
        write_annotations(docs, path)
        saved = path.read_bytes()
        loaded = load_annotations(Corpus(name="c", documents=tuple(a.document for a in docs)), path)
        assert loaded == docs
        write_annotations(loaded, path)
        assert path.read_bytes() == saved

    def test_strings_are_escaped_as_json_dumps_escapes_them(self, tmp_path):
        text = 'say "Zoë"\n\u2028 back\\slash \U0001d518'
        docs = [AnnotatedDocument(document=doc('d "1"\t', text),
                                  spans=(span(4, 9, text=text), span(12, 22, NeTag.LOC, text)))]
        write_annotations(docs, tmp_path / "spans.jsonl")
        # split, not splitlines: the line holds U+2028, which JSON writes as it is
        assert (tmp_path / "spans.jsonl").read_text(encoding="utf-8").split("\n") == [
            json.dumps(reference_record(docs[0]), ensure_ascii=False),
            "",
        ]

    # Document refuses an id or text that is not a string, and NeSpan an offset that is
    # not an int; a span's surface must equal its slice of the text, so no span surface
    # reaches the writer as bytes
    @pytest.mark.parametrize("doc_id, start, end, text, message", [
        (5, 1, 3, TEXT, "id must be a non-empty string, got 5"),
        ("d1", True, 3, TEXT, "span offsets must be integers, got [True, 3)"),
        ("d1", 0, True, TEXT, "span offsets must be integers, got [0, True)"),
        ("d1", 0, 2, TEXT.encode(), "text must be a string (document 'd1')"),
    ], ids=["id", "start", "end", "text"])
    def test_a_value_load_annotations_would_reject_is_an_error(
        self, tmp_path, doc_id, start, end, text, message
    ):
        path = tmp_path / "spans.jsonl"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            docs = [
                AnnotatedDocument(document=doc("d0", TEXT), spans=(span(0, 2),)),
                AnnotatedDocument(document=doc(doc_id, text), spans=(span(start, end, text=text),)),
            ]
            write_annotations(docs, path)
        assert not path.exists()  # checked before anything is written


class TestGazetteer:
    def test_from_pairs_normalizes_keys(self):
        gaz = Gazetteer.from_pairs([("Barack   Obama", NeTag.PER)])
        assert gaz.entries == {"barack obama": NeTag.PER}

    def test_empty_name_is_rejected(self):
        with pytest.raises(DataError):
            Gazetteer.from_pairs([("   ", NeTag.PER)])

    def test_max_tokens(self):
        gaz = Gazetteer.from_pairs([("a", NeTag.PER), ("b c d", NeTag.ORG)])
        assert gaz.max_tokens == 3
        assert Gazetteer.from_pairs([]).max_tokens == 0

    def test_load_tsv(self, tmp_path):
        path = tmp_path / "names.tsv"
        path.write_text(
            "# people of interest\n"
            "Barack Obama\tPER\n"
            "\n"
            "New York\tLOC\n"
        )
        gaz = load_gazetteer(path)
        assert gaz.entries == {"barack obama": NeTag.PER, "new york": NeTag.LOC}

    def test_load_tsv_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "names.tsv"
        path.write_text("just one column\n")
        with pytest.raises(DataError, match="line 1"):
            load_gazetteer(path)
        path.write_text("name\tGPE\n")
        with pytest.raises(DataError, match="GPE"):
            load_gazetteer(path)

    # "e\u0302" is e and a combining circumflex, a mark no word casefolds to
    @pytest.mark.parametrize("name, token", [("U.S.", "u.s."), ("AT&T Inc", "at&t"), ("-Jo", "-jo"),
                                             ("Jo--Ann", "jo--ann"), ("#1", "#1"), ("Jose\u0302", "jose\u0302")])
    def test_a_name_no_word_can_match_is_rejected(self, name, token):
        with pytest.raises(DataError, match=f"^gazetteer name {re.escape(repr(name))} can never "
                                            f"match: {re.escape(repr(token))} is not one word$"):
            Gazetteer.from_pairs([(name, NeTag.ORG)])

    def test_a_name_some_words_match_is_kept(self):
        # "İ" casefolds to "i" and a combining dot above, which is no word character
        names = ["U.S", "o'brien", "covid-19", "İstanbul", "Straße", "x_y", "١٢"]
        gazetteer = Gazetteer.from_pairs([(name, NeTag.LOC) for name in names])
        text = " ".join(names) + "."
        assert [s.surface for s in tag_with_gazetteer(doc("d", text), gazetteer).spans] == names

    def test_casefolded_word_characters_are_word_characters_and_fold_marks(self):
        # what _gazetteer_key's rule rests on: every word character casefolds to at
        # least one word character, and to no other character but _FOLD_MARKS
        word = re.compile(r"\w").fullmatch
        marks = set()
        for code in range(sys.maxunicode + 1):
            if word(char := chr(code)):
                folded = char.casefold()
                assert any(map(word, folded)), hex(code)
                marks.update(ord(c) for c in folded if not word(c))
        assert marks == set(_FOLD_MARKS)
        assert {unicodedata.category(chr(mark)) for mark in marks} == {"Mn"}
        assert _WORD_RE.pattern == r"\w+(?:['\-.]\w+)*"  # a word is \w runs joined by ' - .


class TestTagWithGazetteer:
    GAZ = Gazetteer.from_pairs(
        [
            ("Barack Obama", NeTag.PER),
            ("new york", NeTag.LOC),
            ("new york times", NeTag.ORG),
            ("o'brien", NeTag.PER),
            ("modi", NeTag.PER),
        ]
    )

    def test_sentence_final_punctuation_stays_outside(self):
        ann = tag_with_gazetteer(doc("d", "I met Barack Obama."), self.GAZ)
        assert [(s.start, s.end, s.surface, s.tag) for s in ann.spans] == [
            (6, 18, "Barack Obama", NeTag.PER)
        ]

    def test_matching_is_case_insensitive(self):
        ann = tag_with_gazetteer(doc("d", "BARACK OBAMA spoke"), self.GAZ)
        assert [s.surface for s in ann.spans] == ["BARACK OBAMA"]

    def test_longest_window_wins(self):
        ann = tag_with_gazetteer(doc("d", "the New York Times building"), self.GAZ)
        assert [(s.surface, s.tag) for s in ann.spans] == [
            ("New York Times", NeTag.ORG)
        ]

    def test_scanning_resumes_after_match(self):
        gaz = Gazetteer.from_pairs([("a b", NeTag.PER), ("b c", NeTag.LOC)])
        ann = tag_with_gazetteer(doc("d", "a b c"), gaz)
        assert [s.surface for s in ann.spans] == ["a b"]

    def test_internal_apostrophe_is_one_word(self):
        ann = tag_with_gazetteer(doc("d", "Met O'Brien today."), self.GAZ)
        assert [s.surface for s in ann.spans] == ["O'Brien"]

    def test_every_occurrence_is_tagged(self):
        ann = tag_with_gazetteer(doc("d", "Modi praised Modi"), self.GAZ)
        assert [(s.start, s.surface) for s in ann.spans] == [(0, "Modi"), (13, "Modi")]

    def test_no_matches_yields_no_spans(self):
        ann = tag_with_gazetteer(doc("d", "nothing to see"), self.GAZ)
        assert ann.spans == ()
        assert ann.document.text == "nothing to see"

    def test_partial_name_does_not_match(self):
        ann = tag_with_gazetteer(doc("d", "Barack went home"), self.GAZ)
        assert ann.spans == ()

    @given(
        words=st.lists(st.sampled_from(("alpha", "beta", "gamma", "delta")), min_size=1, max_size=12),
        names=st.sets(
            st.sampled_from(
                ("alpha", "beta", "alpha beta", "gamma delta", "delta gamma")
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_output_is_always_a_valid_annotation(self, words, names):
        gaz = Gazetteer.from_pairs([(name, NeTag.MISC) for name in names])
        document = doc("d", " ".join(words))
        ann = tag_with_gazetteer(document, gaz)
        prev_end = 0
        for s in ann.spans:
            assert s.start >= prev_end
            assert document.text[s.start : s.end] == s.surface
            assert " ".join(s.surface.casefold().split()) in gaz.entries
            prev_end = s.end


# -- the tagger gives what trying every window at every word gave ------------


def reference_tag(document, gazetteer):
    """tag_with_gazetteer's spans, each window's key casefolded and looked up in turn."""
    words = [(m.start(), m.end(), m.group(0)) for m in _WORD_RE.finditer(document.text)]
    spans = []
    i = 0
    while i < len(words):
        match_len, match_tag = 0, None
        for k in range(min(gazetteer.max_tokens, len(words) - i), 0, -1):
            key = " ".join(w[2].casefold() for w in words[i : i + k])
            if key in gazetteer.entries:
                match_len, match_tag = k, gazetteer.entries[key]
                break
        if match_tag is None:
            i += 1
            continue
        start, end = words[i][0], words[i + match_len - 1][1]
        spans.append(NeSpan(start=start, end=end, tag=match_tag, surface=document.text[start:end]))
        i += match_len
    return tuple(spans)


# Words that casefold alike ("ß", "SS", "ss") or to more than one character
# ("İ"), and separators that end a word or join two into one ("al-bo").
WORDS = ("al", "Al", "AL", "bo", "ß", "SS", "ss", "İ", "i̇", "x", "covid-19")
SEPARATORS = (" ", "  ", ", ", ". ", "-", "'", "\n", "!", " ")
names = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)


class TestTaggerMatchesReference:
    @given(
        st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(SEPARATORS)), max_size=16),
        # several keys of one head word: "al", "al bo", "al bo x", ...
        st.lists(st.tuples(names, st.sampled_from(NeTag)), max_size=8),
    )
    @settings(max_examples=300)
    def test_same_spans(self, pieces, pairs):
        gazetteer = Gazetteer.from_pairs(pairs)
        document = doc("d", "".join(word + sep for word, sep in pieces))
        assert tag_with_gazetteer(document, gazetteer).spans == reference_tag(document, gazetteer)

    def test_heads_are_the_keys_first_tokens(self):
        gazetteer = Gazetteer.from_pairs(
            [("Al Bo", NeTag.PER), ("al", NeTag.MISC), ("al bo x", NeTag.ORG), ("Straße", NeTag.LOC)]
        )
        assert gazetteer.heads == {"al", "strasse"}
        assert Gazetteer.from_pairs([]).heads == frozenset()
