import gzip
import io
import json
import logging
import os
import re
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diamask import (
    DataError,
    EntityIndex,
    EntityRecord,
    ResolveMode,
    RoleProperty,
    Statement,
    coverage_rate,
    index_dump,
    load_index,
    lookup_by_name,
    resolve_person_label,
    save_index,
    top_labels,
)
from diamask.wikidata import FALLBACK_PERSON_TOKEN, qid_sort_key

from helpers import entity_line, make_entity, modi_dump_lines

SNAPSHOT = date(2020, 12, 28)


def index_of(lines, **kwargs):
    return index_dump(io.StringIO("\n".join(lines) + "\n"), SNAPSHOT, **kwargs)


@pytest.fixture()
def modi_index():
    return index_of(modi_dump_lines())


class TestQidSortKey:
    def test_numeric_then_textual(self):
        tokens = ["Q10", "PER", "Q9", "ORG"]
        assert sorted(tokens, key=qid_sort_key) == ["Q9", "Q10", "ORG", "PER"]


class TestStatement:
    def test_start_after_end_is_rejected(self):
        with pytest.raises(DataError):
            Statement(
                property=RoleProperty.POSITION_HELD,
                value_qid="Q1",
                start_date=date(2020, 1, 1),
                end_date=date(2010, 1, 1),
            )

    def test_valid_at_respects_open_ranges(self):
        s = Statement(
            property=RoleProperty.POSITION_HELD,
            value_qid="Q1",
            start_date=date(2014, 5, 26),
            end_date=None,
        )
        assert not s.valid_at(date(2014, 5, 25))
        assert s.valid_at(date(2014, 5, 26))
        assert s.valid_at(date(2030, 1, 1))
        undated = Statement(
            property=RoleProperty.POSITION_HELD,
            value_qid="Q1",
            start_date=None,
            end_date=None,
        )
        assert undated.valid_at(date(1900, 1, 1))


class TestIndexDump:
    def test_retains_entities_with_role_statements(self, modi_index):
        assert set(modi_index.records) == {"Q1165", "Q76", "Q42"}
        assert modi_index.snapshot_date == SNAPSHOT
        assert modi_index.malformed_lines == 0

    def test_statement_extraction_preserves_dump_order(self, modi_index):
        statements = modi_index.records["Q1165"].statements
        assert [(s.property, s.value_qid) for s in statements] == [
            (RoleProperty.POSITION_HELD, "Q22337580"),
            (RoleProperty.POSITION_HELD, "Q192045"),
            (RoleProperty.OCCUPATION, "Q82955"),
        ]
        assert statements[0].start_date == date(2001, 10, 7)
        assert statements[0].end_date == date(2014, 5, 26)
        assert statements[1].end_date is None

    def test_entity_without_role_statements_is_dropped(self):
        index = index_of([entity_line(make_entity("Q7", "Nobody"))])
        assert len(index) == 0

    def test_entity_without_english_label_is_dropped(self):
        index = index_of([entity_line(make_entity("Q8", None, occupations=("Q2",)))])
        assert len(index) == 0

    def test_person_only_requires_instance_of_human(self):
        lines = [
            entity_line(make_entity("Q9", "Acme Corp", occupations=("Q2",), human=False)),
            entity_line(make_entity("Q10", "Jane Roe", occupations=("Q2",))),
        ]
        assert set(index_of(lines).records) == {"Q9", "Q10"}
        assert set(index_of(lines, person_only=True).records) == {"Q10"}

    def test_non_item_entities_are_skipped_silently(self):
        entity = make_entity("Q9", "Jane Roe", occupations=("Q2",))
        entity["type"] = "property"
        index = index_of([entity_line(entity)])
        assert len(index) == 0
        assert index.malformed_lines == 0

    def test_zeroed_month_and_day_clamp_to_january_first(self):
        entity = make_entity("Q9", "Jane Roe", positions=(("Q3", "2009-00-00", None),))
        index = index_of([entity_line(entity)])
        assert index.records["Q9"].statements[0].start_date == date(2009, 1, 1)

    def test_start_after_end_qualifiers_leave_statement_undated(self):
        entity = make_entity(
            "Q9", "Jane Roe", positions=(("Q3", "2020-01-01", "2010-01-01"),)
        )
        index = index_of([entity_line(entity)])
        statement = index.records["Q9"].statements[0]
        assert statement.start_date is None
        assert statement.end_date is None

    def test_bce_dates_are_unusable(self):
        entity = make_entity("Q9", "Julius", positions=(("Q3",),))
        claim = entity["claims"]["P39"][0]
        claim["qualifiers"] = {
            "P580": [
                {
                    "snaktype": "value",
                    "property": "P580",
                    "datavalue": {
                        "value": {"time": "-0044-03-15T00:00:00Z", "precision": 11},
                        "type": "time",
                    },
                }
            ]
        }
        index = index_of([entity_line(entity)])
        assert index.records["Q9"].statements[0].start_date is None

    def test_malformed_lines_are_counted_and_skipped(self):
        lines = [
            entity_line(make_entity("Q9", "Jane Roe", occupations=("Q2",))),
            "{broken",
            "42",
            json.dumps({"id": "X5"}),
        ]
        index = index_of(lines)
        assert set(index.records) == {"Q9"}
        assert index.malformed_lines == 3

    def test_entities_with_fields_of_another_json_type_are_counted_and_skipped(self):
        good = make_entity("Q9", "Jane Roe", occupations=("Q2",))
        lines = [
            entity_line({**good, "claims": 5}),
            entity_line({**good, "claims": {"P106": 5}}),
            entity_line({**good, "claims": {"P106": [5]}}),
            entity_line({**good, "labels": 5}),
            entity_line({**good, "aliases": {"en": 5}}),
            entity_line({**good, "sitelinks": 3}),
            entity_line(good),
        ]
        index = index_of(lines)
        assert set(index.records) == {"Q9"}
        assert index.malformed_lines == 6
        person = index_of([entity_line({**good, "claims": {"P31": 5}}), entity_line(good)],
                          person_only=True)
        assert set(person.records) == {"Q9"}
        assert person.malformed_lines == 1

    def test_sitelinks_that_are_not_an_object_make_a_malformed_line(self):
        # len() of a string or a list is not a sitelink count
        good = make_entity("Q9", "Jane Roe", occupations=("Q2",))
        lines = [entity_line({**good, "sitelinks": "abc"}),
                 entity_line({**good, "sitelinks": ["enwiki"]}),
                 entity_line({**good, "id": "Q8"})]
        index = index_of(lines)
        assert set(index.records) == {"Q8"}
        assert index.malformed_lines == 2

    def test_strict_mode_raises_with_line_number(self):
        lines = [
            entity_line(make_entity("Q9", "Jane Roe", occupations=("Q2",))),
            "{broken",
        ]
        with pytest.raises(DataError, match="line 2"):
            index_of(lines, strict=True)

    def test_wrapped_array_form_is_tolerated(self):
        body = ",\n".join(modi_dump_lines())
        index = index_dump(io.StringIO(f"[\n{body}\n]\n"), SNAPSHOT)
        assert len(index) == 3
        assert index.malformed_lines == 0

    def test_gzipped_dump_by_path(self, tmp_path):
        path = tmp_path / "dump.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("\n".join(modi_dump_lines()) + "\n")
        index = index_dump(path, SNAPSHOT)
        assert set(index.records) == {"Q1165", "Q76", "Q42"}

    def test_plain_file_by_path(self, tmp_path):
        path = tmp_path / "dump.json"
        path.write_text("\n".join(modi_dump_lines()) + "\n", encoding="utf-8")
        assert len(index_dump(path, SNAPSHOT)) == 3

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_non_seekable_pipe(self, compress):
        data = ("\n".join(modi_dump_lines()) + "\n").encode("utf-8")
        if compress:
            data = gzip.compress(data)
        read_fd, write_fd = os.pipe()
        # a few KB fits the pipe buffer, so one write completes unblocked
        assert os.write(write_fd, data) == len(data)
        os.close(write_fd)
        try:
            # the path of a pipe, as the CLI gets /dev/stdin
            index = index_dump(f"/dev/fd/{read_fd}", SNAPSHOT)
        finally:
            os.close(read_fd)
        assert set(index.records) == {"Q1165", "Q76", "Q42"}

    def test_empty_dump_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="diamask.wikidata"):
            index = index_of([""])
        assert len(index) == 0
        assert "empty index" in caplog.text


class TestSaveLoad:
    def test_round_trip(self, tmp_path, modi_index):
        path = tmp_path / "entities.idx"
        save_index(modi_index, path)
        loaded = load_index(path)
        assert loaded.snapshot_date == modi_index.snapshot_date
        assert loaded.records == modi_index.records
        assert lookup_by_name(loaded, "Modi") == lookup_by_name(modi_index, "Modi")
        assert loaded.malformed_lines == 0

    def test_header_and_numeric_record_order(self, tmp_path, modi_index):
        path = tmp_path / "entities.idx"
        save_index(modi_index, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header == {
            "format_version": 1,
            "snapshot_date": "2020-12-28",
            "record_count": 3,
        }
        assert [json.loads(l)["qid"] for l in lines[1:]] == ["Q42", "Q76", "Q1165"]

    def test_missing_header_is_rejected(self, tmp_path):
        path = tmp_path / "entities.idx"
        path.write_text("")
        with pytest.raises(DataError, match="header"):
            load_index(path)

    def test_header_is_the_first_non_blank_line(self, tmp_path, modi_index):
        path = tmp_path / "entities.idx"
        save_index(modi_index, path)
        path.write_text("\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        assert set(load_index(path).records) == set(modi_index.records)

    def test_non_object_header_is_rejected(self, tmp_path):
        path = tmp_path / "entities.idx"
        path.write_text("[1]\n")
        with pytest.raises(DataError, match="malformed index header"):
            load_index(path)

    def test_unsupported_version_is_rejected(self, tmp_path):
        path = tmp_path / "entities.idx"
        path.write_text(
            json.dumps(
                {"format_version": 99, "snapshot_date": "2020-12-28", "record_count": 0}
            )
            + "\n"
        )
        with pytest.raises(DataError, match="version"):
            load_index(path)

    def test_record_count_mismatch_is_rejected(self, tmp_path, modi_index):
        path = tmp_path / "entities.idx"
        save_index(modi_index, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataError, match="promises 3"):
            load_index(path)

    def test_malformed_record_names_line(self, tmp_path, modi_index):
        path = tmp_path / "entities.idx"
        save_index(modi_index, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = '{"qid": "Q1"}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 3"):
            load_index(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("qid", "X"),
            ("qid", 76),
            ("sitelinks", "7"),
            ("sitelinks", -1),
            ("sitelinks", True),
            ("sitelinks", 1.5),
            ("label", ""),
            ("label", None),
            ("aliases", "Modi"),
            ("aliases", ["Modi", 3]),
            ("statements", [{"property": "P39", "value": 5, "start": None, "end": None}]),
            ("statements", [{"property": "P39", "value": "Q2", "start": "2020-01-01",
                             "end": "2010-01-01"}]),
        ],
    )
    def test_bad_record_field_names_line(self, tmp_path, modi_index, field, value):
        path = tmp_path / "entities.idx"
        save_index(modi_index, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        record[field] = value
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))} line 3: malformed index record$"):
            load_index(path)


class TestLookup:
    def test_exact_full_name(self, modi_index):
        assert lookup_by_name(modi_index, "Narendra Modi") == ["Q1165"]

    def test_normalization_is_forgiving(self, modi_index):
        assert lookup_by_name(modi_index, "  narendra   MODI ") == ["Q1165"]

    def test_alias_counts_as_exact(self, modi_index):
        assert lookup_by_name(modi_index, "Modi") == ["Q1165"]

    def test_token_fallback(self, modi_index):
        assert lookup_by_name(modi_index, "obama") == ["Q76"]

    def test_exact_match_suppresses_token_candidates(self):
        lines = [
            entity_line(make_entity("Q10", "Smith", occupations=("Q2",), sitelinks=1)),
            entity_line(make_entity("Q11", "John Smith", occupations=("Q2",), sitelinks=99)),
        ]
        index = index_of(lines)
        assert lookup_by_name(index, "Smith") == ["Q10"]

    def test_token_candidates_order_by_sitelinks_then_numeric_qid(self):
        lines = [
            entity_line(make_entity("Q9", "Jo Smith", occupations=("Q2",), sitelinks=5)),
            entity_line(make_entity("Q11", "John Smith", occupations=("Q2",), sitelinks=5)),
            entity_line(make_entity("Q12", "Ann Smith", occupations=("Q2",), sitelinks=9)),
        ]
        index = index_of(lines)
        assert lookup_by_name(index, "smith") == ["Q12", "Q9", "Q11"]

    def test_unknown_surface(self, modi_index):
        assert lookup_by_name(modi_index, "Cleopatra") == []
        assert lookup_by_name(modi_index, "   ") == []


class TestResolve:
    def test_dump_order_prefers_first_position_held(self, modi_index):
        resolved = resolve_person_label(modi_index, "Modi")
        assert resolved.token == "Q22337580"
        assert resolved.source is RoleProperty.POSITION_HELD

    def test_dump_order_falls_back_to_occupation(self, modi_index):
        resolved = resolve_person_label(modi_index, "Douglas Adams")
        assert resolved.token == "Q36180"
        assert resolved.source is RoleProperty.OCCUPATION

    def test_unknown_person_gets_generic_token(self, modi_index):
        resolved = resolve_person_label(modi_index, "Cleopatra")
        assert resolved.token == FALLBACK_PERSON_TOKEN
        assert resolved.source is None

    def test_temporal_prefers_position_valid_at_snapshot(self, modi_index):
        resolved = resolve_person_label(modi_index, "Modi", ResolveMode.TEMPORAL)
        assert resolved.token == "Q192045"
        assert resolved.source is RoleProperty.POSITION_HELD

    def test_temporal_latest_start_wins(self):
        entity = make_entity(
            "Q9",
            "Jane Roe",
            positions=(("Q100", "2015-01-01", None), ("Q200", "2018-06-01", None)),
        )
        index = index_of([entity_line(entity)])
        assert resolve_person_label(index, "Jane Roe", ResolveMode.TEMPORAL).token == "Q200"

    def test_temporal_equal_starts_break_by_dump_order(self):
        entity = make_entity(
            "Q9",
            "Jane Roe",
            positions=(("Q100", "2015-01-01", None), ("Q200", "2015-01-01", None)),
        )
        index = index_of([entity_line(entity)])
        assert resolve_person_label(index, "Jane Roe", ResolveMode.TEMPORAL).token == "Q100"

    def test_temporal_undated_position_is_always_valid(self):
        entity = make_entity("Q9", "Jane Roe", positions=(("Q100",),))
        index = index_of([entity_line(entity)])
        assert resolve_person_label(index, "Jane Roe", ResolveMode.TEMPORAL).token == "Q100"

    def test_temporal_expired_positions_fall_back_to_dump_order_cascade(self):
        # All P39 ranges end before the snapshot: the cascade still prefers
        # the first-listed position over the occupation.
        entity = make_entity(
            "Q9",
            "Jane Roe",
            positions=(("Q100", "2001-01-01", "2010-01-01"),),
            occupations=("Q33999",),
        )
        index = index_of([entity_line(entity)])
        resolved = resolve_person_label(index, "Jane Roe", ResolveMode.TEMPORAL)
        assert resolved.token == "Q100"
        assert resolved.source is RoleProperty.POSITION_HELD


class TestCoverage:
    def test_identical_sets_are_fully_covered(self):
        assert coverage_rate(["Q1", "Q2"], ["Q2", "Q1"]) == 100.0

    def test_half_overlap(self):
        a = ["Q1", "Q2", "Q3", "Q4"]
        b = ["Q3", "Q4", "Q9", "Q10"]
        assert coverage_rate(a, b) == 50.0

    def test_disjoint_sets(self):
        assert coverage_rate(["Q1"], ["Q2"]) == 0.0

    def test_inputs_are_treated_as_sets(self):
        assert coverage_rate(["Q1", "Q1", "Q2"], ["Q1"]) == 50.0

    def test_empty_first_set_is_an_error(self):
        with pytest.raises(DataError):
            coverage_rate([], ["Q1"])

    def test_asymmetry(self):
        assert coverage_rate(["Q1"], ["Q1", "Q2"]) == 100.0
        assert coverage_rate(["Q1", "Q2"], ["Q1"]) == 50.0


class TestTopLabels:
    def index_with_labels(self):
        lines = [
            entity_line(
                make_entity(
                    "Q11696",
                    "President of the United States",
                    occupations=("Q2",),
                    human=False,
                )
            )
        ]
        return index_of(lines)

    def test_renders_known_tokens_with_labels(self):
        index = self.index_with_labels()
        usage = ["Q11696", "Q11696", "Q11696", "PER"]
        assert top_labels(usage, index, 2) == [
            ("President of the United States", 3),
            ("PER", 1),
        ]

    def test_count_ties_break_by_numeric_qid(self):
        index = EntityIndex(snapshot_date=SNAPSHOT)
        assert top_labels(["Q10", "Q9"], index, 2) == [("Q9", 1), ("Q10", 1)]

    def test_k_must_be_positive(self):
        with pytest.raises(DataError):
            top_labels(["Q1"], EntityIndex(snapshot_date=SNAPSHOT), 0)

    def test_k_larger_than_vocabulary(self):
        index = EntityIndex(snapshot_date=SNAPSHOT)
        assert top_labels(["Q1"], index, 10) == [("Q1", 1)]


def person(qid, label, aliases=(), sitelinks=1, occupation="Q2"):
    return EntityRecord(
        qid=qid,
        primary_label=label,
        aliases=tuple(aliases),
        statements=(
            Statement(
                property=RoleProperty.OCCUPATION,
                value_qid=occupation,
                start_date=None,
                end_date=None,
            ),
        ),
        sitelink_count=sitelinks,
    )


class TestEntityIndexAdd:
    def test_add_is_idempotent_per_bucket(self):
        index = EntityIndex(snapshot_date=SNAPSHOT)
        index.add(person("Q9", "Jane Roe", aliases=("Jane", "Jane Roe")))
        assert index.by_name["jane roe"] == ["Q9"]
        assert index.by_token["jane"] == ["Q9"]

    def test_re_add_drops_the_old_names(self):
        index = EntityIndex(snapshot_date=SNAPSHOT)
        index.add(person("Q9", "Old Name", aliases=("Oldie",)))
        index.add(person("Q10", "Bo Name", occupation="Q4"))
        assert resolve_person_label(index, "Old Name").token == "Q2"
        index.add(person("Q9", "New Person", occupation="Q3"))
        assert lookup_by_name(index, "old") == []
        assert lookup_by_name(index, "Oldie") == []
        # no exact match any more; only Q10 still shares the token "name"
        assert lookup_by_name(index, "Old Name") == ["Q10"]
        assert lookup_by_name(index, "New Person") == ["Q9"]
        assert resolve_person_label(index, "Old Name").token == "Q4"
        assert resolve_person_label(index, "Oldie").token == FALLBACK_PERSON_TOKEN
        assert resolve_person_label(index, "new person").token == "Q3"
        assert "old" not in index.by_token and "oldie" not in index.by_name

    def test_add_after_resolve_changes_the_answer(self):
        index = EntityIndex(snapshot_date=SNAPSHOT)
        index.add(person("Q9", "Jane Roe", sitelinks=1, occupation="Q2"))
        assert resolve_person_label(index, "Roe").token == "Q2"
        index.add(person("Q8", "Ann Roe", sitelinks=5, occupation="Q3"))
        assert resolve_person_label(index, "Roe").token == "Q3"
        assert resolve_person_label(index, "Jane Roe").token == "Q2"


# -- property: lookup and memoized resolve against reference models --------

_TOKENS = ("ann", "Ann", "bo", "cy", "dee")
_NAMES = st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=3).map(" ".join)
_DATES = st.sampled_from([None, date(2019, 1, 1), date(2020, 6, 1), date(2021, 6, 1)])


@st.composite
def _statements(draw):
    out = []
    for _ in range(draw(st.integers(0, 3))):
        start, end = draw(_DATES), draw(_DATES)
        if start and end and start > end:
            start, end = end, start
        out.append(
            Statement(
                property=draw(st.sampled_from(list(RoleProperty))),
                value_qid=draw(st.sampled_from(["Q100", "Q101", "Q102"])),
                start_date=start,
                end_date=end,
            )
        )
    return tuple(out)


@st.composite
def _records(draw):
    label = draw(_NAMES)
    aliases = draw(st.lists(st.one_of(st.just(label), _NAMES), max_size=3))
    return EntityRecord(
        qid=f"Q{draw(st.integers(1, 6))}",  # small range: re-adds are common
        primary_label=label,
        aliases=tuple(aliases),
        statements=draw(_statements()),
        sitelink_count=draw(st.integers(0, 2)),  # narrow range: ties are common
    )


def _norm(name):
    return " ".join(name.casefold().split())


def reference_lookup(records, surface):
    """Exact normalized name first, else the token union, by scanning records."""
    key = _norm(surface)
    if not key:
        return []
    names = {q: {_norm(n) for n in (r.primary_label, *r.aliases)} for q, r in records.items()}
    hits = [q for q in records if key in names[q]]
    if not hits:
        wanted = set(key.split(" "))
        hits = [q for q in records if wanted & {t for n in names[q] for t in n.split(" ")}]
    return sorted(hits, key=lambda q: (-records[q].sitelink_count, qid_sort_key(q)))


def fresh_resolve(records, surface, mode):
    index = EntityIndex(snapshot_date=SNAPSHOT)
    for record in records.values():
        index.add(record)
    return resolve_person_label(index, surface, mode)


@given(
    records=st.lists(_records(), min_size=1, max_size=8),
    surfaces=st.lists(st.one_of(_NAMES, _NAMES.map(lambda n: f"  {n.upper()} ")), max_size=4),
)
def test_lookup_and_memoized_resolve_match_reference(records, surfaces):
    index = EntityIndex(snapshot_date=SNAPSHOT)
    model: dict[str, EntityRecord] = {}
    for record in records:
        index.add(record)
        model[record.qid] = record
        for surface in surfaces:
            assert lookup_by_name(index, surface) == reference_lookup(model, surface)
            for mode in ResolveMode:
                expected = fresh_resolve(model, surface, mode)
                assert resolve_person_label(index, surface, mode) == expected
                assert resolve_person_label(index, surface, mode) == expected
