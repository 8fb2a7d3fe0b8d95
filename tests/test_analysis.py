import math
import random

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
from diamask.analysis import LMI_TSV_HEADER

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
