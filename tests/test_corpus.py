import json
import math
import random
import re
from datetime import date
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamask import (
    Corpus,
    DataError,
    Document,
    Label,
    SplitMode,
    SplitSpec,
    load_corpus,
    save_corpus,
    split_by_time,
    split_random,
)
from diamask.corpus import iso_date

from helpers import json_text, random_corpus


def write_jsonl(path, records):
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


class TestLabel:
    def test_parse_is_case_insensitive(self):
        assert Label.parse("fake") is Label.FAKE
        assert Label.parse("FAKE") is Label.FAKE
        assert Label.parse("Real") is Label.REAL

    def test_parse_rejects_unknown(self):
        with pytest.raises(DataError, match="label"):
            Label.parse("satire")


class TestDocument:
    def test_rejects_empty_id(self):
        with pytest.raises(DataError):
            Document(id="", text="x", label=Label.REAL)

    @pytest.mark.parametrize("text", [b"Jane Roe spoke", None, 5])
    def test_rejects_a_text_that_is_not_a_string(self, text):
        # else a bytes text gets as far as masking's splice, which dies with a TypeError
        with pytest.raises(DataError, match=r"^text must be a string \(document 'd'\)$"):
            Document(id="d", text=text, label=Label.REAL)

    def test_optional_fields_default_to_none(self):
        doc = Document(id="d1", text="x", label=Label.REAL)
        assert doc.date is None
        assert doc.source is None


class TestCorpus:
    def test_rejects_duplicate_ids(self):
        docs = (
            Document(id="d1", text="x", label=Label.REAL),
            Document(id="d1", text="y", label=Label.FAKE),
        )
        with pytest.raises(DataError, match="d1"):
            Corpus(name="c", documents=docs)

    def test_labels_follow_document_order(self):
        docs = (
            Document(id="d1", text="x", label=Label.REAL),
            Document(id="d2", text="y", label=Label.FAKE),
            Document(id="d3", text="z", label=Label.FAKE),
        )
        corpus = Corpus(name="c", documents=docs)
        assert corpus.labels() == [Label.REAL, Label.FAKE, Label.FAKE]

    def test_iteration_preserves_order(self):
        docs = tuple(
            Document(id=f"d{i}", text="x", label=Label.REAL) for i in range(5)
        )
        assert [d.id for d in Corpus(name="c", documents=docs)] == [
            "d0",
            "d1",
            "d2",
            "d3",
            "d4",
        ]


class TestLoadCorpus:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "news.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "text": "first story", "label": "FAKE"},
                {
                    "id": "b",
                    "text": "second story",
                    "label": "real",
                    "date": "2020-03-01",
                    "source": "wire",
                },
            ],
        )
        corpus = load_corpus(path)
        assert corpus.name == "news"
        assert [d.id for d in corpus] == ["a", "b"]
        assert corpus.documents[0].label is Label.FAKE
        assert corpus.documents[1].date == date(2020, 3, 1)
        assert corpus.documents[1].source == "wire"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "text": "x", "label": "real"}\n\n\n')
        assert len(load_corpus(path).documents) == 1

    def test_unknown_keys_are_ignored(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a", "text": "x", "label": "real", "extra": 9}])
        assert load_corpus(path).documents[0].id == "a"

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "text": "x", "label": "real"}\n{oops\n')
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_missing_label_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a", "text": "x"}])
        with pytest.raises(DataError, match="line 1"):
            load_corpus(path)

    def test_duplicate_id_is_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "text": "x", "label": "real"},
                {"id": "a", "text": "y", "label": "fake"},
            ],
        )
        with pytest.raises(DataError, match="a"):
            load_corpus(path)

    def test_empty_text_is_a_document(self, tmp_path):
        # masking can delete a whole document, e.g. ne-del on a bare name
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a", "text": "", "label": "real"}])
        assert load_corpus(path).documents[0].text == ""

    def test_bad_date_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a", "text": "x", "label": "real", "date": "03/01/2020"}])
        with pytest.raises(DataError, match="line 1"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "raw",
        ["20200101", "2020-W01-1", "2020-1-01", "2020-01-01T00:00", " 2020-01-01",
         "2020-01-01\n", "\u0662020-01-01", "2020-02-30", "", 20200101],
    )
    def test_iso_date_accepts_only_yyyy_mm_dd(self, raw):
        with pytest.raises(ValueError):
            iso_date(raw)

    def test_iso_date_parses_yyyy_mm_dd(self):
        assert iso_date("2020-02-29") == date(2020, 2, 29)

    def test_explicit_name_overrides_stem(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a", "text": "x", "label": "real"}])
        assert load_corpus(path, name="politifact").name == "politifact"

    def test_round_trip(self, tmp_path):
        docs = (
            Document(id="a", text="x y", label=Label.FAKE, date=date(2019, 7, 2)),
            Document(id="b", text="z", label=Label.REAL, source="feed"),
        )
        original = Corpus(name="c", documents=docs)
        path = tmp_path / "c.jsonl"
        save_corpus(original, path)
        assert load_corpus(path).documents == original.documents


def reference_record(doc):
    """The record save_corpus writes for doc, which json.dumps turns into its line."""
    record = {"id": doc.id, "text": doc.text, "label": doc.label.value}
    if doc.date is not None:
        record["date"] = doc.date.isoformat()
    if doc.source is not None:
        record["source"] = doc.source
    return record


@st.composite
def documents(draw):
    """Documents of every shape save_corpus takes, with distinct ids."""
    ids = draw(st.lists(json_text.filter(bool), unique=True, max_size=4))
    return tuple(
        Document(id=doc_id, text=draw(json_text), label=draw(st.sampled_from(Label)),
                 date=draw(st.none() | st.dates()), source=draw(st.none() | json_text))
        for doc_id in ids
    )


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("save")


class TestSaveCorpus:
    @given(documents())
    @settings(max_examples=300)
    def test_save(self, scratch, docs):
        save_corpus(Corpus(name="c", documents=docs), scratch / "c.jsonl")
        reference = "".join(json.dumps(reference_record(d), ensure_ascii=False) + "\n" for d in docs)
        assert (scratch / "c.jsonl").read_bytes() == reference.encode("utf-8")
        assert load_corpus(scratch / "c.jsonl").documents == docs

    @given(documents())
    def test_round_trip(self, scratch, docs):
        """Every corpus of Documents loads back as saved, and saves again to the same bytes."""
        path = scratch / "round-trip.jsonl"
        save_corpus(Corpus(name="c", documents=docs), path)
        saved = path.read_bytes()
        loaded = load_corpus(path)
        assert loaded.documents == docs
        save_corpus(loaded, path)
        assert path.read_bytes() == saved

    def test_strings_are_escaped_and_absent_fields_left_out(self, tmp_path):
        docs = (
            Document(id='a "b"', text="back\\slash\ttab\nnew \u2028 Zoë \x7f \U0001d518",
                     label=Label.FAKE, date=date(2019, 7, 2), source="feed\x00"),
            Document(id="c", text="", label=Label.REAL),
        )
        save_corpus(Corpus(name="c", documents=docs), tmp_path / "c.jsonl")
        # split, not splitlines: a line holds U+2028, which JSON writes as it is
        assert (tmp_path / "c.jsonl").read_text(encoding="utf-8").split("\n") == [
            json.dumps(reference_record(docs[0]), ensure_ascii=False),
            '{"id": "c", "text": "", "label": "real"}',
            "",
        ]

    @pytest.mark.parametrize("field, value, message", [
        ("id", 5, "id must be a non-empty string, got 5"),
        ("text", None, "text must be a string (document 'd1')"),
        ("source", 5, "source must be a string or null (document 'd1')"),
    ], ids=["id", "text", "source"])
    def test_a_value_load_corpus_would_reject_is_an_error(self, tmp_path, field, value, message):
        good = Document(id="d0", text="x", label=Label.REAL)
        path = tmp_path / "c.jsonl"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            # each value is refused by Document itself
            bad = Document(**{"id": "d1", "text": "y", "label": Label.FAKE, field: value})
            save_corpus(Corpus(name="c", documents=(good, bad)), path)
        assert not path.exists()  # checked before anything is written


class TestSplitSpec:
    def test_fraction_must_be_strictly_inside_unit_interval(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DataError):
                SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=bad, seed=1)

    def test_time_mode_requires_boundary(self):
        with pytest.raises(DataError, match="boundary"):
            SplitSpec(mode=SplitMode.TIME_BASED, train_fraction=0.8, seed=1)


def corpus_of(n, dated=False):
    docs = tuple(
        Document(
            id=f"d{i}",
            text=f"tok{i}",
            label=Label.FAKE if i % 2 else Label.REAL,
            date=date(2014 + (i % 4), 6, 1) if dated else None,
        )
        for i in range(n)
    )
    return Corpus(name="c", documents=docs)


class TestSplitRandom:
    def test_sizes_follow_floored_fraction(self):
        spec = SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.8, seed=3)
        train, test = split_random(corpus_of(10), spec)
        assert (len(train.documents), len(test.documents)) == (8, 2)
        train, test = split_random(corpus_of(5), spec)
        assert (len(train.documents), len(test.documents)) == (4, 1)

    def test_fraction_is_interpreted_as_decimal_not_binary_float(self):
        # floor(0.7 * 10) must be 7 even though float 0.7 * 10 < 7.
        spec = SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.7, seed=3)
        train, _ = split_random(corpus_of(10), spec)
        assert len(train.documents) == 7

    def test_partition_is_disjoint_and_complete(self):
        corpus = corpus_of(17)
        spec = SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.6, seed=9)
        train, test = split_random(corpus, spec)
        train_ids = {d.id for d in train}
        test_ids = {d.id for d in test}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {d.id for d in corpus}

    def test_same_seed_reproduces_split(self):
        corpus = corpus_of(30)
        spec = SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.8, seed=5)
        first = split_random(corpus, spec)
        second = split_random(corpus, spec)
        assert [d.id for d in first[0]] == [d.id for d in second[0]]
        assert [d.id for d in first[1]] == [d.id for d in second[1]]

    def test_different_seed_changes_split(self):
        corpus = corpus_of(30)
        ids = []
        for seed in (1, 2):
            spec = SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.8, seed=seed)
            train, _ = split_random(corpus, spec)
            ids.append([d.id for d in train])
        assert ids[0] != ids[1]

    def test_split_names_extend_corpus_name(self):
        spec = SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.8, seed=1)
        train, test = split_random(corpus_of(10), spec)
        assert train.name == "c:train"
        assert test.name == "c:test"

    def test_empty_corpus_is_rejected(self):
        spec = SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.8, seed=1)
        with pytest.raises(DataError):
            split_random(Corpus(name="c", documents=()), spec)

    def test_wrong_mode_is_rejected(self):
        spec = SplitSpec(
            mode=SplitMode.TIME_BASED,
            train_fraction=0.8,
            seed=1,
            boundary_date=date(2015, 12, 31),
        )
        with pytest.raises(DataError, match="mode"):
            split_random(corpus_of(10), spec)

    @given(
        n=st.integers(min_value=2, max_value=60),
        fraction=st.sampled_from((0.1, 0.25, 0.5, 0.7, 0.8, 0.9)),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_partition_and_floor(self, n, fraction, seed):
        corpus = corpus_of(n)
        spec = SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=fraction, seed=seed)
        expected_train = math.floor(Fraction(str(fraction)) * n)
        train, test = split_random(corpus, spec)
        assert len(train.documents) == expected_train
        assert len(train.documents) + len(test.documents) == n
        assert {d.id for d in train}.isdisjoint(d.id for d in test)

    def test_random_corpus_round_trip_under_split(self):
        rng = random.Random(77)
        corpus = random_corpus(rng, max_docs=25)
        if len(corpus.documents) < 2:
            return
        spec = SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.5, seed=4)
        train, test = split_random(corpus, spec)
        merged = {d.id: d for d in (*train.documents, *test.documents)}
        assert merged == {d.id: d for d in corpus}


class TestSplitByTime:
    def test_boundary_is_inclusive_for_training(self):
        corpus = corpus_of(8, dated=True)  # years 2014..2017 cycling
        spec = SplitSpec(
            mode=SplitMode.TIME_BASED,
            train_fraction=0.8,
            seed=1,
            boundary_date=date(2015, 12, 31),
        )
        train, test = split_by_time(corpus, spec)
        assert all(d.date.year <= 2015 for d in train)
        assert all(d.date.year >= 2016 for d in test)
        assert len(train.documents) + len(test.documents) == 8

    def test_document_order_is_preserved(self):
        corpus = corpus_of(8, dated=True)
        spec = SplitSpec(
            mode=SplitMode.TIME_BASED,
            train_fraction=0.8,
            seed=1,
            boundary_date=date(2015, 12, 31),
        )
        train, test = split_by_time(corpus, spec)
        original = [d.id for d in corpus]
        assert [d.id for d in train] == [i for i in original if i in {d.id for d in train}]
        assert [d.id for d in test] == [i for i in original if i in {d.id for d in test}]

    def test_date_exactly_on_boundary_goes_to_train(self):
        docs = (
            Document(id="a", text="x", label=Label.REAL, date=date(2015, 12, 31)),
            Document(id="b", text="y", label=Label.FAKE, date=date(2016, 1, 1)),
        )
        spec = SplitSpec(
            mode=SplitMode.TIME_BASED,
            train_fraction=0.8,
            seed=1,
            boundary_date=date(2015, 12, 31),
        )
        train, test = split_by_time(Corpus(name="c", documents=docs), spec)
        assert [d.id for d in train] == ["a"]
        assert [d.id for d in test] == ["b"]

    def test_undated_documents_are_named_in_error(self):
        docs = (
            Document(id="a", text="x", label=Label.REAL, date=date(2015, 1, 1)),
            Document(id="nodate-1", text="y", label=Label.FAKE),
            Document(id="nodate-2", text="z", label=Label.REAL),
        )
        spec = SplitSpec(
            mode=SplitMode.TIME_BASED,
            train_fraction=0.8,
            seed=1,
            boundary_date=date(2015, 12, 31),
        )
        with pytest.raises(DataError, match="nodate-1.*nodate-2"):
            split_by_time(Corpus(name="c", documents=docs), spec)

    def test_wrong_mode_is_rejected(self):
        spec = SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.8, seed=1)
        with pytest.raises(DataError, match="^split_by_time requires mode 'time', got 'random'$"):
            split_by_time(corpus_of(10, dated=True), spec)


@pytest.mark.parametrize("spec, split", [
    (SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.7, seed=5), split_random),
    (SplitSpec(mode=SplitMode.TIME_BASED, boundary_date=date(2015, 12, 31)), split_by_time),
])
def test_apply_splits_as_its_mode_says(spec, split):
    corpus = corpus_of(10, dated=True)
    assert spec.apply(corpus) == split(corpus, spec)
