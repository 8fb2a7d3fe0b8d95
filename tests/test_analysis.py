import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamask import (
    Corpus,
    DataError,
    Document,
    Label,
    LmiEntry,
    LmiTable,
    compute_lmi,
    export_lmi_table,
    extract_ngrams,
    tokenize,
)
from diamask.analysis import _LABEL_ORDER, LMI_TSV_HEADER

from helpers import lmi_oracle, random_corpus


class TestTokenize:
    def test_casefolds_and_splits(self):
        assert tokenize("RT @user Check url") == ["rt", "@user", "check", "url"]

    def test_edge_punctuation_rules(self):
        text = 'No. 1 covid-19 (hello!!) "end." @x!! #tag, ...'
        assert tokenize(text) == ["no.", "1", "covid-19", "hello", "end.", "@x", "#tag"]

    def test_internal_marks_survive(self):
        assert tokenize("clinton's covid-19 u.s.") == ["clinton's", "covid-19", "u.s."]

    def test_single_trailing_dot_after_alphanumeric_is_kept(self):
        assert tokenize("Gov. Smith wow...") == ["gov.", "smith", "wow."]

    def test_bare_punctuation_chunks_vanish(self):
        assert tokenize("!!! ... @ # --") == []

    def test_empty_text(self):
        assert tokenize("") == []

    @given(st.text(max_size=80))
    def test_tokens_are_normalized(self, text):
        for tok in tokenize(text):
            assert tok
            assert tok == tok.casefold()
            assert not tok[0].isspace() and not tok[-1].isspace()

    @given(st.text(max_size=80))
    def test_retokenizing_output_is_stable(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


class TestExtractNgrams:
    def test_bigrams_in_order(self):
        assert extract_ngrams(["rt", "@user", "check", "url"], 2) == [
            "rt @user",
            "@user check",
            "check url",
        ]

    def test_short_sequences_yield_nothing(self):
        assert extract_ngrams([], 1) == []
        assert extract_ngrams(["a"], 2) == []

    def test_n_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            extract_ngrams(["a"], 0)

    @given(
        tokens=st.lists(st.sampled_from("abcde"), max_size=20),
        n=st.integers(min_value=1, max_value=5),
    )
    def test_count_and_width(self, tokens, n):
        grams = extract_ngrams(tokens, n)
        assert len(grams) == max(0, len(tokens) - n + 1)
        assert all(len(g.split(" ")) == n for g in grams)


def corpus_from(fake_texts, real_texts):
    docs = [
        Document(id=f"f{i}", text=t, label=Label.FAKE) for i, t in enumerate(fake_texts)
    ] + [
        Document(id=f"r{i}", text=t, label=Label.REAL) for i, t in enumerate(real_texts)
    ]
    return Corpus(name="fixture", documents=tuple(docs))


FIXTURE = corpus_from(["a b x", "a b y", "a b"], ["a b q w e", "m n"])


def entry(table, phrase, label):
    matches = [e for e in table.entries if e.phrase == phrase and e.label is label]
    assert len(matches) == 1, f"expected exactly one entry for {phrase!r}/{label}"
    return matches[0]


class TestComputeLmi:
    def test_hand_worked_fixture(self):
        # 10 bigram occurrences total, 5 per label; "a b" appears 4 times,
        # 3 of them in fake documents.
        table = compute_lmi(FIXTURE, n=2, min_count=0)
        assert table.total_phrases == 10
        assert table.p_label[Label.FAKE] == 0.5
        e = entry(table, "a b", Label.FAKE)
        assert (e.count_wl, e.count_w, e.p_l_given_w) == (3, 4, 0.75)
        assert e.lmi == pytest.approx(0.3 * math.log(1.5), abs=1e-15)
        e = entry(table, "a b", Label.REAL)
        assert e.lmi == pytest.approx(0.1 * math.log(0.5), abs=1e-15)
        assert e.lmi < 0

    def test_occurrences_counted_not_documents(self):
        corpus = corpus_from(["spam spam spam spam"], ["ham bacon"])
        table = compute_lmi(corpus, n=2, min_count=0)
        assert entry(table, "spam spam", Label.FAKE).count_wl == 3

    def test_independent_phrase_scores_zero(self):
        corpus = corpus_from(["a b"], ["a b"])
        table = compute_lmi(corpus, n=2, min_count=0)
        assert entry(table, "a b", Label.FAKE).lmi == 0.0
        assert entry(table, "a b", Label.REAL).lmi == 0.0

    def test_min_count_filters_on_total_phrase_count(self):
        corpus = corpus_from(["z z z z z z"], ["y y y y y"])
        table = compute_lmi(corpus, n=2, min_count=5)
        assert {e.phrase for e in table.entries} == {"z z"}
        table = compute_lmi(corpus, n=2, min_count=4)
        assert {e.phrase for e in table.entries} == {"z z", "y y"}

    def test_default_min_count_is_five(self):
        table = compute_lmi(FIXTURE, n=2)
        assert table.entries == ()

    def test_groups_by_label_real_first_then_score_then_phrase(self):
        corpus = corpus_from(["p q", "r s"], ["t u"])
        table = compute_lmi(corpus, n=2, min_count=0)
        assert [(e.label, e.phrase) for e in table.entries] == [
            (Label.REAL, "t u"),
            (Label.FAKE, "p q"),
            (Label.FAKE, "r s"),
        ]
        assert table.entries[1].lmi == table.entries[2].lmi

    def test_no_phrases_raises(self):
        corpus = corpus_from(["one"], ["two"])
        with pytest.raises(DataError, match="no phrases"):
            compute_lmi(corpus, n=2)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            compute_lmi(FIXTURE, n=0)
        with pytest.raises(ValueError):
            compute_lmi(FIXTURE, n=2, min_count=-1)

    def test_joint_probabilities_sum_to_one(self):
        table = compute_lmi(FIXTURE, n=2, min_count=0)
        total = sum(e.count_wl / table.total_phrases for e in table.entries)
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000), n=st.sampled_from((1, 2, 3)))
    @settings(max_examples=60)
    def test_matches_enumeration_oracle(self, seed, n):
        corpus = random_corpus(random.Random(seed), max_docs=12, max_tokens=25)
        expected, total = lmi_oracle(corpus, n)
        if total == 0:
            with pytest.raises(DataError):
                compute_lmi(corpus, n=n, min_count=0)
            return
        table = compute_lmi(corpus, n=n, min_count=0)
        assert table.total_phrases == total
        got = {(e.phrase, e.label): e for e in table.entries}
        assert set(got) == set(expected)
        for key, (c_wl, c_w, p_lw, lmi) in expected.items():
            e = got[key]
            assert (e.count_wl, e.count_w) == (c_wl, c_w)
            assert e.p_l_given_w == pytest.approx(p_lw, abs=1e-12)
            assert e.lmi == pytest.approx(lmi, abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_sign_matches_integer_cross_product(self, seed):
        # lmi > 0 iff p(l|w) > p(l) iff count_wl * total > count_w * count_l.
        corpus = random_corpus(random.Random(seed), max_docs=12, max_tokens=25)
        _, total = lmi_oracle(corpus, 2)
        if total == 0:
            return
        table = compute_lmi(corpus, n=2, min_count=0)
        label_totals = {
            label: round(table.p_label[label] * table.total_phrases) for label in Label
        }
        for e in table.entries:
            lhs = e.count_wl * table.total_phrases
            rhs = e.count_w * label_totals[e.label]
            if lhs > rhs:
                assert e.lmi > 0
            elif lhs < rhs:
                assert e.lmi < 0
            else:
                assert e.lmi == 0.0


def manual_table(entries):
    return LmiTable(
        n=2,
        total_phrases=10,
        p_label={Label.REAL: 0.5, Label.FAKE: 0.5},
        entries=tuple(entries),
    )


class TestExport:
    def test_tsv_layout_and_scaling(self):
        table = manual_table(
            [LmiEntry("covid hoax", Label.FAKE, 3, 4, 0.75, 0.000218)]
        )
        out = export_lmi_table(table, top_k=5, fmt="tsv")
        lines = out.splitlines()
        assert lines[0] == LMI_TSV_HEADER
        assert lines[1] == "covid hoax\tfake\t3\t4\t0.75\t218"

    def test_probability_rounds_to_two_decimals(self):
        table = manual_table([LmiEntry("x y", Label.REAL, 2, 3, 2 / 3, 0.0001)])
        out = export_lmi_table(table, fmt="tsv")
        assert "\t0.67\t" in out.splitlines()[1]

    def test_top_k_truncates_per_label(self):
        entries = [
            LmiEntry(f"f{i} f{i}", Label.FAKE, 2, 2, 1.0, 0.01 - i * 0.001)
            for i in range(3)
        ] + [LmiEntry("r r", Label.REAL, 2, 2, 1.0, 0.02)]
        out = export_lmi_table(manual_table(entries), top_k=2, fmt="tsv")
        lines = out.splitlines()
        assert len(lines) == 1 + 1 + 2  # header, one real row, two fake rows
        assert lines[1].startswith("r r\t")

    def test_text_format_mentions_labels(self):
        table = manual_table([LmiEntry("a b", Label.FAKE, 3, 4, 0.75, 0.000218)])
        out = export_lmi_table(table, fmt="text")
        assert "-- fake --" in out
        assert "218" in out

    def test_rejects_bad_arguments(self):
        table = manual_table([])
        with pytest.raises(DataError):
            export_lmi_table(table, top_k=0)
        with pytest.raises(DataError):
            export_lmi_table(table, fmt="csv")

    def test_round_trips_through_compute(self):
        table = compute_lmi(FIXTURE, n=2, min_count=0)
        out = export_lmi_table(table, top_k=3, fmt="tsv")
        assert out.startswith(LMI_TSV_HEADER)
        assert out.endswith("\n")


# -- the text kernels give what their plain forms gave ------------------------


def reference_clean_token(raw):
    """_clean_token as it was before tokenize's isalnum shortcut."""
    sigil = ""
    if raw[:1] in ("@", "#"):
        sigil, raw = raw[0], raw[1:]
    start = 0
    while start < len(raw) and not raw[start].isalnum():
        start += 1
    end = len(raw)
    while end > start:
        ch = raw[end - 1]
        if ch.isalnum():
            break
        if ch == "." and end - 1 > start and raw[end - 2].isalnum():
            break
        end -= 1
    core = raw[start:end]
    return sigil + core if core else ""


def reference_tokenize(text):
    """Every chunk through reference_clean_token, the empty results dropped."""
    return [tok for tok in map(reference_clean_token, text.casefold().split()) if tok]


def reference_extract_ngrams(tokens, n):
    return [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def reference_lmi(corpus, n, min_count):
    """compute_lmi counting one (phrase, label) pair at a time in Python."""
    count_wl, count_w, count_l = Counter(), Counter(), Counter()
    for doc in corpus:
        grams = reference_extract_ngrams(reference_tokenize(doc.text), n)
        count_l[doc.label] += len(grams)
        for gram in grams:
            count_wl[(gram, doc.label)] += 1
            count_w[gram] += 1
    total = sum(count_l.values())
    if total == 0:
        raise DataError("no phrases")
    p_label = {label: count_l.get(label, 0) / total for label in Label}
    entries = []
    for (phrase, label), c_wl in count_wl.items():
        c_w = count_w[phrase]
        if c_w < min_count:
            continue
        p_lw = c_wl / c_w
        lmi = (c_wl / total) * math.log(p_lw / p_label[label])
        entries.append(LmiEntry(phrase, label, c_wl, c_w, p_lw, lmi))
    entries.sort(key=lambda e: (_LABEL_ORDER[e.label], -e.lmi, e.phrase))
    return LmiTable(n=n, total_phrases=total, p_label=p_label, entries=tuple(entries))


# Pieces that reach every branch of the edge rules: sigils, edge marks, a kept
# trailing '.', internal marks, alphanumerics outside ASCII ("ß" casefolds to
# "ss", "İ" to "i" plus a combining dot that is not alphanumeric, "²" and "٣"
# are numeric), a combining accent, and whitespace other than a space.
PIECES = ("@", "#", ".", "...", "no.", "u.s.", "'", "-", "covid-19", "clinton's", "(", ")!",
          '"', "a", "B", "7", "ß", "²", "İ", "٣", "ﬁ", "Σ", "e\u0301", "\u00a0", "\u3000")
chunks = st.lists(st.one_of(st.sampled_from(PIECES), st.text(max_size=3)), max_size=5).map("".join)
edge_text = st.one_of(
    st.text(max_size=40),
    st.builds(str.join, st.sampled_from((" ", "\t", "\n  ")), st.lists(chunks, max_size=12)),
)


class TestKernelsMatchReference:
    @given(edge_text)
    @settings(max_examples=300)
    def test_tokenize(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @given(st.lists(st.sampled_from(("a", "b", "c d", "ß")), max_size=8), st.integers(1, 10))
    def test_extract_ngrams(self, tokens, n):
        assert extract_ngrams(tokens, n) == reference_extract_ngrams(tokens, n)

    def test_huge_n_is_no_phrase(self):
        assert extract_ngrams(["a", "b"], 10**12) == []


class TestLmiMatchesReference:
    @given(
        st.lists(st.tuples(edge_text, st.sampled_from(Label)), min_size=1, max_size=8),
        st.integers(1, 4),
        st.integers(0, 3),
    )
    @settings(max_examples=150)
    def test_every_entry_and_probability(self, docs, n, min_count):
        corpus = Corpus(name="c", documents=tuple(
            Document(id=f"d{i}", text=text, label=label) for i, (text, label) in enumerate(docs)
        ))
        try:
            expected = reference_lmi(corpus, n, min_count)
        except DataError:
            with pytest.raises(DataError, match="no phrases"):
                compute_lmi(corpus, n, min_count=min_count)
            return
        table = compute_lmi(corpus, n, min_count=min_count)
        assert table == expected
        # == takes -0.0 for 0.0; the table's floats must have the same bits
        assert [(e.p_l_given_w.hex(), e.lmi.hex()) for e in table.entries] == [
            (e.p_l_given_w.hex(), e.lmi.hex()) for e in expected.entries
        ]
