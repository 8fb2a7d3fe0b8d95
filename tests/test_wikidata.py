import copy
import gzip
import io
import itertools
import json
import logging
import os
import random
import re
from datetime import date

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diamask import (
    DataError,
    EntityIndex,
    EntityRecord,
    ResolvedLabel,
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
from diamask import wikidata
from diamask.corpus import iso_date
from diamask.errors import OBJECT
from diamask.wikidata import FALLBACK_PERSON_TOKEN, _parse_time_value, qid_sort_key

from helpers import entity_line, make_entity, modi_dump_lines, mutated

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

    def test_non_ascii_digit_qualifiers_leave_statement_undated(self):
        # "\d" would read the Arabic-Indic digits of "٢٠٠٩" as the year 2009
        entity = make_entity("Q9", "Jane Roe", positions=(("Q3", "٢٠٠٩-01-20"),))
        index = index_of([entity_line(entity)])
        assert index.records["Q9"].statements[0].start_date is None
        assert _parse_time_value("+٢٠٠٩-01-20T00:00:00Z") is None

    def test_qualifiers_of_another_json_type_make_a_malformed_line(self):
        # only an absent key skips the date lookups; [] and null are no qualifier object
        good = make_entity("Q9", "Jane Roe", positions=(("Q3",),))
        lines = []
        for qualifiers in ([], None, {}):
            entity = copy.deepcopy(good)
            entity["claims"]["P39"][0]["qualifiers"] = qualifiers
            lines.append(entity_line(entity))
        index = index_of(lines)
        assert index.malformed_lines == 2
        assert index.records["Q9"].statements == (Statement(RoleProperty.POSITION_HELD, "Q3", None, None),)

    def test_equal_statements_are_one_object_within_one_build(self):
        lines = [entity_line(make_entity(f"Q{n}", f"Jane Roe{n}", positions=(("Q3", "2009-01-20"),),
                                         occupations=("Q2",))) for n in (8, 9)]
        first, second = index_of(lines), index_of(lines)
        a, b = first.records["Q8"].statements, first.records["Q9"].statements
        assert a == b and all(x is y for x, y in zip(a, b))
        # the table lives for one call: another build makes its own statements
        assert second.records["Q8"].statements == a
        assert not any(x is y for x, y in zip(second.records["Q8"].statements, a))

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

    def test_equal_statements_load_as_one_object(self, tmp_path):
        index = EntityIndex(snapshot_date=SNAPSHOT)
        for qid in ("Q1", "Q3", "Q5"):
            index.add(person(qid, "Jane Roe", occupation="Q9" if qid == "Q5" else "Q2"))
        save_index(index, tmp_path / "entities.idx")
        loaded = load_index(tmp_path / "entities.idx")
        first, second, other = (loaded.records[q].statements[0] for q in ("Q1", "Q3", "Q5"))
        assert loaded.records == index.records
        assert first is second and first is not other

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

    def test_qids_of_one_number_load_in_the_order_saved(self, tmp_path):
        # "Q7" and "Q07" are two QIDs of one number; save_index's sort keeps them
        # in insertion order, and load_index must take back either order
        for qids in (["Q07", "Q7", "Q8"], ["Q7", "Q07", "Q8"]):
            index = EntityIndex(snapshot_date=date(2020, 12, 28))
            for qid in qids:
                index.add(person(qid, f"name {qid}"))
            path = tmp_path / "entities.idx"
            save_index(index, path)
            saved = path.read_bytes()
            assert list(load_index(path).records) == qids
            save_index(load_index(path), path)
            assert path.read_bytes() == saved

    @pytest.mark.parametrize("count", [True, -1, 2.0])
    def test_a_sitelink_count_load_index_would_reject_is_an_error(self, tmp_path, count):
        index = EntityIndex(snapshot_date=SNAPSHOT)
        path = tmp_path / "entities.idx"
        with pytest.raises(DataError, match=f"record 'Q1': bad sitelink count {count!r}"):
            index.add(EntityRecord("Q1", "Jane Roe", (), (), count))  # refused by EntityRecord
            save_index(index, path)
        assert not path.exists()  # checked before anything is written

    def test_names_are_escaped_as_json_dumps_escapes_them(self, tmp_path):
        names = ('Jane "JR" Roe', "back\\slash", "tab\there", "new\nline", "Zoë \u2028 Ω \x7f")
        index = EntityIndex(snapshot_date=SNAPSHOT)
        index.add(person("Q1", names[0], aliases=names[1:]))
        path = tmp_path / "entities.idx"
        save_index(index, path)
        statement = {"property": "P106", "value": "Q2", "start": None, "end": None}
        want = {"qid": "Q1", "label": names[0], "aliases": list(names[1:]), "sitelinks": 1,
                "statements": [statement]}
        # split, not splitlines: the line holds U+2028, which JSON writes as it is
        assert path.read_text(encoding="utf-8").split("\n")[1] == json.dumps(want, ensure_ascii=False)
        assert load_index(path).records == index.records

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

    def test_unranked_candidates_keep_posting_order_once_each(self):
        index = EntityIndex(snapshot_date=SNAPSHOT)
        index.add(person("Q12", "Ann Smith", sitelinks=9))
        index.add(person("Q9", "Jo Smith Jones", sitelinks=5))
        index.add(person("Q11", "Al Jones", sitelinks=5))
        got = lookup_by_name(index, "Smith Jones", ranked=False)
        assert got == ["Q12", "Q9", "Q11"]  # Q9 holds both tokens
        got.clear()
        exact = lookup_by_name(index, "al jones", ranked=False)
        exact.append("Q12")
        assert index.by_token["smith"] == ["Q12", "Q9"] and index.by_name["al jones"] == ["Q11"]

    def test_unknown_surface(self, modi_index):
        assert lookup_by_name(modi_index, "Cleopatra") == []
        assert lookup_by_name(modi_index, "   ") == []

    def test_one_token_fallback_over_a_long_posting_list_matches_reference(self):
        """A bare surname's candidates are its whole posting list: ties on
        sitelinks break by numeric QID, and the map's own list keeps its order."""
        order = list(range(1, 301))
        random.Random(7).shuffle(order)
        index = EntityIndex(snapshot_date=SNAPSHOT)
        for number in order:  # each QID twice in its record's names, once in the posting list
            index.add(person(f"Q{number}", f"Ann{number} Smith", aliases=(f"Bo{number} Smith",),
                             sitelinks=number % 3))
        posting = list(index.by_token["smith"])
        assert "smith" not in index.by_name and len(posting) == 300
        got = lookup_by_name(index, "  SMITH ")
        assert got == reference_lookup(index.records, "smith")
        assert got[:3] == ["Q2", "Q5", "Q8"]
        assert index.by_token["smith"] == posting


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


    def test_one_lookup_fills_both_modes(self, monkeypatch):
        """K distinct surfaces resolved cold under one mode make K lookups and
        derive K label pairs; resolving them again, under either mode, makes
        neither."""
        lookups, derived = [], []
        labels = wikidata._labels

        def counted_lookup(index, surface, **kwargs):
            lookups.append(surface)
            return lookup_by_name(index, surface, **kwargs)

        def counted_labels(statements, snapshot):
            derived.append(statements)
            return labels(statements, snapshot)

        monkeypatch.setattr(wikidata, "lookup_by_name", counted_lookup)
        monkeypatch.setattr(wikidata, "_labels", counted_labels)
        # "modi" is a surface of its own: the memo is keyed by the surface as written
        surfaces = ["Modi", "Cleopatra", "Douglas Adams", "modi"]
        for first in ResolveMode:
            index = index_of(modi_dump_lines())
            second = next(mode for mode in ResolveMode if mode is not first)
            lookups.clear()
            derived.clear()
            for surface in surfaces:
                resolve_person_label(index, surface, first)
            assert lookups == surfaces and len(derived) == len(surfaces)
            for mode in (second, first, second):
                for surface in surfaces:
                    resolve_person_label(index, surface, mode)
            assert lookups == surfaces and len(derived) == len(surfaces)

    @pytest.mark.parametrize("surface, token, source", [
        ("Jane Roe", "Q36180", RoleProperty.OCCUPATION),
        ("Cleopatra", FALLBACK_PERSON_TOKEN, None),
    ], ids=["occupation-only", "per-fallback"])
    def test_temporal_without_a_valid_position_is_the_dump_order_label(
            self, surface, token, source):
        """With no position held valid at the snapshot, TEMPORAL gives the
        DUMP_ORDER label, the same object, whichever mode resolves first: an
        occupation-only record's first occupation, and for a surface no record
        holds, the PER fallback."""
        line = entity_line(make_entity("Q9", "Jane Roe", occupations=("Q36180", "Q33999")))
        for first in ResolveMode:
            index = index_of([line])
            second = next(mode for mode in ResolveMode if mode is not first)
            label = resolve_person_label(index, surface, first)
            assert (label.token, label.source) == (token, source)
            assert resolve_person_label(index, surface, second) is label

    @pytest.mark.parametrize("first", list(ResolveMode), ids=lambda mode: f"{mode.value}-first")
    def test_each_mode_gets_its_own_label(self, first):
        """Modes whose labels differ keep them apart, whichever resolves first."""
        entity = make_entity(
            "Q9",
            "Jane Roe",
            positions=(("Q100", "2001-01-01", "2010-01-01"), ("Q200", "2018-06-01", None)),
            occupations=("Q33999",),
        )
        index = index_of([entity_line(entity)])
        want = {ResolveMode.DUMP_ORDER: "Q100", ResolveMode.TEMPORAL: "Q200"}
        second = next(mode for mode in ResolveMode if mode is not first)
        for mode in (first, second, first, second):  # a miss, then memo hits
            assert resolve_person_label(index, "Jane Roe", mode).token == want[mode]
            assert resolve_person_label(index, "jane roe", mode).token == want[mode]

    def test_sitelink_tie_goes_to_the_lower_qid_number(self):
        """A token fallback whose top sitelink count Q9 and Q11 share resolves to
        Q9: numeric order, where string order would put "Q11" first."""
        index = EntityIndex(snapshot_date=SNAPSHOT)
        # posting order Q12, Q11, Q9: neither the first posting nor the fewest sitelinks wins
        index.add(person("Q12", "Al Smith", sitelinks=1, occupation="Q3"))
        index.add(person("Q11", "John Smith", sitelinks=5, occupation="Q4"))
        index.add(person("Q9", "Jo Smith", sitelinks=5, occupation="Q5"))
        assert "smith" not in index.by_name and index.by_token["smith"] == ["Q12", "Q11", "Q9"]
        assert lookup_by_name(index, "Smith")[0] == "Q9"
        for mode in ResolveMode:
            assert resolve_person_label(index, "Smith", mode).token == "Q5"

    def test_exact_bucket_of_one_qid_resolves_to_it(self):
        """A full name only one record holds resolves to that record's role,
        though another record comes first and has more sitelinks."""
        index = EntityIndex(snapshot_date=SNAPSHOT)
        index.add(person("Q7", "Ann Roe", sitelinks=9, occupation="Q3"))
        index.add(person("Q8", "Jane Roe", sitelinks=1, occupation="Q4"))
        assert index.by_name["jane roe"] == ["Q8"]
        for mode in ResolveMode:
            assert resolve_person_label(index, "Jane Roe", mode).token == "Q4"


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
# few QIDs, so re-adds are common; as strings "Q10" < "Q9", unlike their numbers
_QIDS = st.sampled_from(["Q2", "Q9", "Q10", "Q11", "Q20", "Q100"])


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
def _records(draw, names=_NAMES, qids=_QIDS):
    label = draw(names)
    aliases = draw(st.lists(st.one_of(st.just(label), names), max_size=3))
    return EntityRecord(
        qid=draw(qids),
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


def reference_resolve(records, surface, mode):
    """The label of reference_lookup's first candidate, by the rules README
    states: under TEMPORAL, of the positions held valid at the snapshot, the
    one with the newest start, the first listed among equal starts; else, or
    when none is valid, the first position held, then the first occupation,
    then PER."""
    candidates = reference_lookup(records, surface)
    statements = records[candidates[0]].statements if candidates else ()
    if mode is ResolveMode.TEMPORAL:
        valid = [s for s in statements if s.property is RoleProperty.POSITION_HELD
                 and (s.start_date or date.min) <= SNAPSHOT <= (s.end_date or date.max)]
        if valid:
            newest = max(s.start_date or date.min for s in valid)
            first = next(s for s in valid if (s.start_date or date.min) == newest)
            return ResolvedLabel(first.value_qid, RoleProperty.POSITION_HELD)
    for prop in (RoleProperty.POSITION_HELD, RoleProperty.OCCUPATION):
        for s in statements:
            if s.property is prop:
                return ResolvedLabel(s.value_qid, prop)
    return ResolvedLabel(FALLBACK_PERSON_TOKEN, None)


_SURFACES = st.lists(st.one_of(_NAMES, _NAMES.map(lambda n: f"  {n.upper()} ")), max_size=4)


@given(records=st.lists(_records(), min_size=1, max_size=8), surfaces=_SURFACES)
def test_lookup_and_memoized_resolve_match_reference(records, surfaces):
    index = EntityIndex(snapshot_date=SNAPSHOT)
    model: dict[str, EntityRecord] = {}
    for record in records:
        index.add(record)
        model[record.qid] = record
        for surface in surfaces:
            assert lookup_by_name(index, surface) == reference_lookup(model, surface)
            for mode in ResolveMode:
                expected = reference_resolve(model, surface, mode)
                assert resolve_person_label(index, surface, mode) == expected
                assert resolve_person_label(index, surface, mode) == expected


# "Q010" and "Q10" share a number, so only candidate order tells them apart
@given(records=st.lists(_records(qids=st.sampled_from(["Q2", "Q9", "Q10", "Q010", "Q11"])),
                        min_size=1, max_size=8),
       surfaces=_SURFACES)
def test_top_candidate_is_lookups_first(records, surfaces):
    index = EntityIndex(snapshot_date=SNAPSHOT)
    for record in records:
        index.add(record)
        for surface in surfaces:
            ranked = lookup_by_name(index, surface)
            unranked = lookup_by_name(index, surface, ranked=False)
            assert sorted(unranked) == sorted(ranked)
            want = (ranked or [None])[0]
            assert wikidata._top_candidate(index.records, unranked) == want


# -- the index kernels give what the plain record path gave ----------------
#
# The reference_* functions are the record path as it was before its per-record
# shortcuts: Enum calls for the property, a separate pass over statement QIDs,
# each claim's qualifiers read once per date, each time value parsed anew, a new
# Statement for each claim, lookup maps kept up to date on every add, and each
# record written through json.dumps. They take a QID as "Q" and ASCII
# digits, in full (_QID), as the library does: "^Q\d+$" also let through a
# final "\n" and any Unicode digit, such as "Q٣".

_QID = re.compile(r"Q[0-9]+")


def reference_qualifier_date(claim, prop):
    for snak in claim.get("qualifiers", {}).get(prop, []):
        if snak.get("snaktype") != "value":
            continue
        dv = snak.get("datavalue", {})
        if dv.get("type") != "time":
            continue
        raw = dv.get("value", {}).get("time")
        parsed = _parse_time_value(raw) if isinstance(raw, str) else None
        if parsed is not None:
            return parsed
    return None


def reference_claim_target(claim):
    snak = claim.get("mainsnak", {})
    if snak.get("snaktype") != "value":
        return None
    dv = snak.get("datavalue", {})
    if dv.get("type") != "wikibase-entityid":
        return None
    target = dv.get("value", {}).get("id")
    if isinstance(target, str) and _QID.fullmatch(target):
        return target
    return None


def reference_is_human(claims):
    return any(reference_claim_target(c) == "Q5" for c in claims.get("P31", []))


def reference_extract_record(entity):
    claims = entity.get("claims", {})
    statements = []
    for prop in RoleProperty:
        for claim in claims.get(prop.value, []):
            target = reference_claim_target(claim)
            if target is None:
                continue
            start = reference_qualifier_date(claim, "P580")
            end = reference_qualifier_date(claim, "P582")
            if start and end and start > end:
                start = end = None
            statements.append(
                Statement(property=prop, value_qid=target, start_date=start, end_date=end)
            )
    if not statements:
        return None
    label_obj = entity.get("labels", {}).get("en")
    label = label_obj.get("value") if isinstance(label_obj, dict) else None
    if not label or not isinstance(label, str):
        return None
    aliases = tuple(
        a["value"]
        for a in entity.get("aliases", {}).get("en", [])
        if isinstance(a, dict) and isinstance(a.get("value"), str) and a["value"]
    )
    return EntityRecord(
        qid=entity["id"],
        primary_label=label,
        aliases=aliases,
        statements=tuple(statements),
        sitelink_count=len(OBJECT(entity.get("sitelinks", {}))),
    )


class ReferencePostingIndex:
    """EntityIndex's maps as add kept them before they were derived: each add
    withdraws the postings of the record it replaces, then appends the QID to
    the lists of the new record's names. lookup_by_name and
    wikidata._top_statements read only records and the maps, so they run on it."""

    def __init__(self):
        self.snapshot_date = SNAPSHOT
        self.records, self.by_name, self.by_token = {}, {}, {}
        # where lookup_by_name reads the maps
        self._derived = wikidata._Derived(self.by_name, self.by_token)

    def add(self, record):
        qid = record.qid
        old = self.records.get(qid)
        if old is not None:
            self._unpost(old)
        self.records[qid] = record
        for name in (record.primary_label, *record.aliases):
            key = _norm(name)
            if not key:
                continue
            bucket = self.by_name.get(key)
            if not bucket:
                self.by_name[key] = [qid]
            elif bucket[-1] != qid:
                bucket.append(qid)
            for token in key.split(" "):
                bucket = self.by_token.get(token)
                if not bucket:
                    self.by_token[token] = [qid]
                elif bucket[-1] != qid:
                    bucket.append(qid)

    def _unpost(self, record):
        names = {_norm(n) for n in (record.primary_label, *record.aliases)} - {""}
        tokens = {token for name in names for token in name.split(" ")}
        for postings, keys in ((self.by_name, names), (self.by_token, tokens)):
            for key in keys:
                bucket = postings[key]
                bucket.remove(record.qid)
                if not bucket:
                    del postings[key]


def reference_load_index(path):
    """load_index's record loop, after a header taken as it is."""
    # split("\n"): a label may hold a line separator such as U+0085, which JSON leaves as it is
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n") if line]
    header = lines[0]
    index = EntityIndex(snapshot_date=date.fromisoformat(header["snapshot_date"]))
    last = -1
    for lineno, raw in enumerate(lines[1:], start=2):  # the files below have no blank line
        try:
            qid, label, aliases = raw["qid"], raw["label"], raw["aliases"]
            sitelinks = raw["sitelinks"]
            if not isinstance(raw["statements"], list):
                raise TypeError("statements")
            # save_index writes these keys and no other
            if set(raw) != {"qid", "label", "aliases", "sitelinks", "statements"}:
                raise ValueError("record keys")
            for s in raw["statements"]:
                if set(s) != {"property", "value", "start", "end"}:
                    raise ValueError("statement keys")
            statements = tuple(
                Statement(
                    property=RoleProperty(s["property"]),
                    value_qid=s["value"],
                    start_date=None if s["start"] is None else iso_date(s["start"]),
                    end_date=None if s["end"] is None else iso_date(s["end"]),
                )
                for s in raw["statements"]
            )
            if not (
                _QID.fullmatch(qid)
                and type(sitelinks) is int
                and sitelinks >= 0
                and isinstance(label, str)
                and label
                and isinstance(aliases, list)
                and all(isinstance(a, str) for a in aliases)
                and all(_QID.fullmatch(s.value_qid) for s in statements)
            ):
                raise ValueError("bad record fields")
            record = EntityRecord(
                qid=qid,
                primary_label=label,
                aliases=tuple(aliases),
                statements=statements,
                sitelink_count=sitelinks,
            )
        except (KeyError, ValueError, TypeError, DataError):
            raise DataError(f"{path} line {lineno}: malformed index record") from None
        number = int(qid[1:])
        if number <= last:
            if qid in index.records:
                raise DataError(f"{path} line {lineno}: duplicate record {qid!r}")
            if number < last:
                raise DataError(f"{path} line {lineno}: record {qid!r} out of QID order")
        last = number
        index.add(record)
    if len(index.records) != header["record_count"]:
        raise DataError(
            f"{path}: header promises {header['record_count']} records, found {len(index.records)}"
        )
    return index


def reference_record_to_json(record):
    return {
        "qid": record.qid,
        "label": record.primary_label,
        "aliases": list(record.aliases),
        "sitelinks": record.sitelink_count,
        "statements": [
            {
                "property": s.property.value,
                "value": s.value_qid,
                "start": s.start_date.isoformat() if s.start_date else None,
                "end": s.end_date.isoformat() if s.end_date else None,
            }
            for s in record.statements
        ],
    }


def reference_save_index(index, path):
    """save_index as json.dumps(..., ensure_ascii=False) of each record's object."""
    header = {
        "format_version": 1,
        "snapshot_date": index.snapshot_date.isoformat(),
        "record_count": len(index.records),
    }
    records = (index.records[qid] for qid in sorted(index.records, key=qid_sort_key))
    objects = itertools.chain([header], map(reference_record_to_json, records))
    lines = "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objects)
    path.write_bytes(lines.encode("utf-8"))


_QIDS = st.sampled_from(["Q1", "Q2", "Q5", "Q10"])
_ISO_DAYS = st.sampled_from([None, "1999-12-31", "2009-01-20", "2017-01-20"])
# values of the right JSON type that the build must skip or count as malformed
_DUMP_WRONG = {
    "id": st.sampled_from(["Q", "Q5", "P31", "q1", "Q1x", "Q01", "Q1\n", "Q٣"]),
    "type": st.sampled_from(["property", "item", "time", "wikibase-entityid"]),
    "snaktype": st.sampled_from(["novalue", "somevalue"]),
    "time": st.sampled_from(["+1990-00-00T00:00:00Z", "-0044-03-15T00:00:00Z",
                             "+2009-02-30T00:00:00Z", "+0000-01-01T00:00:00Z", "2009-01-20"]),
    "value": st.sampled_from(["", "Jo"]),
}


def _claim(target, start=None, end=None):
    """A claim holding only the keys the build reads, the dates as qualifiers."""
    claim = {"mainsnak": {"snaktype": "value",
                          "datavalue": {"type": "wikibase-entityid", "value": {"id": target}}}}
    qualifiers = {
        pid: [{"snaktype": "value", "datavalue": {"type": "time", "value": {"time": f"+{day}T00:00:00Z"}}}]
        for pid, day in (("P580", start), ("P582", end))
        if day
    }
    if qualifiers:
        claim["qualifiers"] = qualifiers
    return claim


@st.composite
def _entity(draw):
    """A dump entity holding only the keys the build reads."""
    claims = {"P31": [_claim(draw(st.sampled_from(["Q5", "Q6"])))]}
    for pid in ("P39", "P106"):
        claims[pid] = [_claim(draw(_QIDS), draw(_ISO_DAYS), draw(_ISO_DAYS))
                       for _ in range(draw(st.integers(0, 2)))]
    aliases = draw(st.lists(st.sampled_from(["", "Jo", "J. Roe"]), max_size=2))
    return {
        "id": draw(st.sampled_from(["Q1", "Q2", "Q3", "Q04"])),
        "type": "item",
        "claims": claims,
        "labels": {"en": {"value": draw(st.sampled_from(["Jane Roe", "Jo Ann Roe"]))}},
        "aliases": {"en": [{"value": alias} for alias in aliases]},
        "sitelinks": {"enwiki": {}} if draw(st.booleans()) else {},
    }


@st.composite
def _dump_lines(draw):
    lines = [json.dumps(draw(mutated(entity, _DUMP_WRONG))) + draw(st.sampled_from(["", ","]))
             for entity in draw(st.lists(_entity(), min_size=1, max_size=4))]
    extras = st.sampled_from(["", "[", "]", "not json", "5", '{"id": 5}'])
    for extra in draw(st.lists(extras, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return lines


def _build_or_error(lines, **flags):
    try:
        return index_dump(io.StringIO("\n".join(lines) + "\n"), SNAPSHOT, **flags)
    except DataError as exc:
        return str(exc)


def _load_or_error(load, path):
    try:
        return load(path)
    except DataError as exc:
        return str(exc)


def _same_index(got, want):
    """Both are the same error message, or indexes with the same content."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.snapshot_date == want.snapshot_date
    assert list(got.records.items()) == list(want.records.items())
    assert got.malformed_lines == want.malformed_lines
    assert got.by_name == want.by_name and got.by_token == want.by_token


_DAYS = st.sampled_from([None, date(1999, 12, 31), date(2009, 1, 20), date(2017, 1, 20)])
_LABELS = st.text(st.characters(blacklist_categories=["Cs"]), min_size=1, max_size=8)


@st.composite
def _saved_records(draw):
    """Records as save_index writes them: unique QIDs, statements with ordered
    dates (at least one, for a mutation to reach)."""
    records = []
    for number in sorted(draw(st.sets(st.integers(1, 30), min_size=1, max_size=5))):
        statements = []
        for _ in range(draw(st.integers(1, 3))):
            start, end = draw(_DAYS), draw(_DAYS)
            if start and end and start > end:
                start, end = end, start
            statements.append(Statement(draw(st.sampled_from(list(RoleProperty))), draw(_QIDS),
                                        start, end))
        label = draw(_LABELS)
        aliases = draw(st.lists(st.one_of(st.just(label), st.just(""), _LABELS), max_size=3))
        records.append(EntityRecord(f"Q{number}", label, tuple(aliases), tuple(statements),
                                    draw(st.integers(0, 3))))
    return records


_ANY_TEXT = st.text(st.characters(blacklist_categories=["Cs"]), max_size=12)
_ANY_DAYS = st.one_of(st.none(), st.dates(min_value=date(1, 1, 1), max_value=date(9999, 12, 31)))


@st.composite
def _written_records(draw):
    """Records of every shape the writer takes: QIDs (some spelled with leading
    zeros) in any order, any non-empty labels and any aliases outside the
    surrogates, empty aliases, statement values that are QIDs, dates from
    year 1 to 9999, 0-3 statements."""
    qids = draw(st.lists(st.tuples(st.integers(0, 10**12), st.integers(0, 2)).map(
        lambda nz: "Q" + "0" * nz[1] + str(nz[0])), unique=True, max_size=5))
    records = []
    for qid in qids:
        statements = []
        for _ in range(draw(st.integers(0, 3))):
            start, end = draw(_ANY_DAYS), draw(_ANY_DAYS)
            if start and end and start > end:
                start, end = end, start
            value = draw(st.from_regex(r"Q[0-9]+", fullmatch=True))
            statements.append(Statement(draw(st.sampled_from(list(RoleProperty))), value, start, end))
        aliases = draw(st.lists(st.one_of(st.just(""), _ANY_TEXT), max_size=3))
        label = draw(_ANY_TEXT.filter(bool))
        records.append(EntityRecord(qid, label, tuple(aliases), tuple(statements),
                                    draw(st.integers(0, 2**70))))
    return records


def _saved(records, path):
    index = EntityIndex(snapshot_date=SNAPSHOT)
    for record in records:
        index.add(record)
    save_index(index, path)
    return path.read_text(encoding="utf-8").split("\n")[:-1]


# values of the right JSON type that load_index must reject, or that make dates inverted
_INDEX_WRONG = {
    "qid": st.sampled_from(["Q", "q1", "Q2x", "Q٣", "Q01", "Q0", "Q1\n"]),
    "label": st.sampled_from(["", " "]),
    "sitelinks": st.sampled_from([-1, 0, 7]),
    "property": st.sampled_from(["P40", "P31", "p39", " P39"]),
    "value": st.sampled_from(["Q", "q1", "Q2x", "P39", "Q2\n", "Q٣"]),
    "start": st.sampled_from(["2020-13-01", "20200101", "1999-12-31", "2009-01-20", "2017-01-20"]),
    "end": st.sampled_from(["2020-13-01", "20200101", "1999-12-31", "2009-01-20", "2017-01-20"]),
}


def _json_values(path):
    """Each line's JSON value, told apart by type as well (true is not 1, 1.0 is not 1).

    save_index(load_index(x)) needs no normalization to match x here: load_index
    takes only YYYY-MM-DD dates, integer counts, statements in a list, records in
    the order save_index writes them, and no key besides those save_index writes."""
    return [json.dumps(json.loads(line), sort_keys=True)
            for line in path.read_text(encoding="utf-8").split("\n") if line]


@pytest.fixture(scope="module")
def scratch_index(tmp_path_factory):
    return tmp_path_factory.mktemp("kernels") / "entities.idx"


class TestIndexKernelsMatchReference:
    @given(_dump_lines(), st.booleans(), st.booleans())
    @settings(max_examples=500)
    # a claim target of other digits: int() would read "Q٣" as Q3
    @example([entity_line(make_entity("Q1", "Jane Roe", occupations=("Q٣",)))], False, False)
    def test_build(self, lines, person_only, strict):
        got = _build_or_error(lines, person_only=person_only, strict=strict)
        # the reference builds each statement and parses each date anew; sharing
        # either changes no record's value
        with mock.patch.multiple(
            wikidata, _is_human=reference_is_human,
            _extract_record=lambda entity, shared, dates: reference_extract_record(entity),
        ):
            want = _build_or_error(lines, person_only=person_only, strict=strict)
        _same_index(got, want)

    @given(_saved_records(), st.data())
    @settings(max_examples=300)
    def test_load(self, scratch_index, records, data):
        header, *lines = _saved(records, scratch_index)
        at = data.draw(st.integers(0, len(lines) - 1))  # one broken line hides no other
        lines[at] = json.dumps(data.draw(mutated(json.loads(lines[at]), _INDEX_WRONG, (1,))),
                               ensure_ascii=False)
        if data.draw(st.integers(0, 3)) == 3:  # a key save_index never writes, anywhere in a line
            at = data.draw(st.integers(0, len(lines) - 1))
            record = json.loads(lines[at])
            statements = record.get("statements")
            objects = [record, *(s for s in statements if isinstance(s, dict))] \
                if isinstance(statements, list) else [record]
            data.draw(st.sampled_from(objects))["note"] = data.draw(st.sampled_from([None, 5, "x"]))
            lines[at] = json.dumps(record, ensure_ascii=False)
        if data.draw(st.booleans()):  # repeat a line further down
            at = data.draw(st.integers(0, len(lines) - 1))
            lines.insert(data.draw(st.integers(at, len(lines))), lines[at])
        if data.draw(st.booleans()):  # swap two lines
            i, j = data.draw(st.integers(0, len(lines) - 1)), data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        scratch_index.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        got = _load_or_error(load_index, scratch_index)
        _same_index(got, _load_or_error(reference_load_index, scratch_index))
        if not isinstance(got, str):  # a file load_index accepts is one save_index could write
            resaved = scratch_index.with_name("resaved.idx")
            save_index(got, resaved)
            assert _json_values(resaved) == _json_values(scratch_index)

    @pytest.mark.parametrize("qid, value", [("Q٣", "Q2"), ("Q1", "Q٣")], ids=["qid", "value"])
    def test_load_other_digits(self, tmp_path, qid, value):
        """A record or statement QID of other digits is malformed: int() would read "Q٣" as Q3."""
        header = {"format_version": 1, "snapshot_date": "2020-12-28", "record_count": 1}
        record = {"qid": qid, "label": "Jane Roe", "aliases": [], "sitelinks": 1,
                  "statements": [{"property": "P39", "value": value, "start": None, "end": None}]}
        path = tmp_path / "other-digits.idx"
        path.write_text(f"{json.dumps(header)}\n{json.dumps(record, ensure_ascii=False)}\n",
                        encoding="utf-8")
        got = _load_or_error(load_index, path)
        assert got == _load_or_error(reference_load_index, path) == f"{path} line 2: malformed index record"

    @given(_written_records(), st.dates())
    @settings(max_examples=300)
    def test_save(self, scratch_index, records, snapshot):
        index = EntityIndex(snapshot_date=snapshot)
        for record in records:
            index.add(record)
        save_index(index, scratch_index)
        reference = scratch_index.with_name("reference.idx")
        reference_save_index(index, reference)
        assert scratch_index.read_bytes() == reference.read_bytes()

    @given(_written_records(), st.dates())
    def test_every_index_round_trips(self, scratch_index, records, snapshot):
        """Every index of EntityRecords loads back as saved, and saves again to the same bytes."""
        index = EntityIndex(snapshot_date=snapshot)
        for record in records:
            index.add(record)
        save_index(index, scratch_index)
        saved = scratch_index.read_bytes()
        loaded = load_index(scratch_index)
        assert loaded == index
        save_index(loaded, scratch_index)
        assert scratch_index.read_bytes() == saved

    @given(_saved_records())
    def test_round_trip(self, scratch_index, records):
        _saved(records, scratch_index)
        saved = scratch_index.read_bytes()
        loaded = load_index(scratch_index)
        assert list(loaded.records.values()) == records
        save_index(loaded, scratch_index)
        assert scratch_index.read_bytes() == saved

    @given(st.lists(st.one_of(
        _records(st.one_of(_NAMES, st.sampled_from([" ", "\t \n"]))).map(lambda r: ("add", r)),
        st.one_of(_NAMES, _NAMES.map(lambda n: f"  {n.upper()} "), st.just(" ")).map(
            lambda surface: ("ask", surface)),
    ), min_size=1, max_size=12))
    @settings(max_examples=300)
    def test_maps(self, steps):
        """Maps derived on first read answer as the maps kept up to date on every add."""
        index, reference = EntityIndex(snapshot_date=SNAPSHOT), ReferencePostingIndex()

        def postings(maps):  # each key's QIDs; sorted, so a QID held twice shows
            return {key: sorted(qids) for key, qids in maps.items()}

        for kind, value in steps:
            if kind == "add":
                index.add(value)
                reference.add(value)
                continue
            assert lookup_by_name(index, value) == lookup_by_name(reference, value)
            labels = wikidata._labels(wikidata._top_statements(reference, value),
                                      reference.snapshot_date)
            for mode, label in zip((ResolveMode.DUMP_ORDER, ResolveMode.TEMPORAL), labels):
                assert resolve_person_label(index, value, mode) == label
            assert postings(index.by_name) == postings(reference.by_name)
            assert postings(index.by_token) == postings(reference.by_token)
        assert postings(index.by_name) == postings(reference.by_name)
        assert postings(index.by_token) == postings(reference.by_token)

    def test_dates(self):
        """Repeated time strings, rejected ones among them, give the reference's
        records, and each distinct string is parsed once per build."""
        times = ["+2009-02-30T00:00:00Z", "-0044-03-15T00:00:00Z", "+1990-00-00T00:00:00Z",
                 20090120, "+2017-01-20T00:00:00Z", "+2009-01-20T00:00:00Z"]

        def qualifier(*raws):
            return [{"snaktype": "value", "datavalue": {"type": "time", "value": {"time": raw}}}
                    for raw in raws]

        entities = []
        for number, (a, b) in enumerate(itertools.product(times, repeat=2), start=1):
            claim = _claim("Q2")
            claim["qualifiers"] = {"P580": qualifier(a, b), "P582": qualifier(b)}
            other = _claim("Q3")
            other["qualifiers"] = {"P580": qualifier(a), "P582": qualifier(a, b)}
            entities.append({"id": f"Q{number}", "claims": {"P39": [claim], "P106": [other]},
                             "labels": {"en": {"value": "Jane Roe"}}})
        lines = [json.dumps(entity) for entity in entities]
        with mock.patch.object(wikidata, "_parse_time_value", wraps=_parse_time_value) as parse:
            got = index_of(lines)
            assert parse.call_count == len({raw for raw in times if isinstance(raw, str)})
            index_of(lines)  # the table lives for one call
            assert parse.call_count == 2 * len({raw for raw in times if isinstance(raw, str)})
        want = {entity["id"]: reference_extract_record(entity) for entity in entities}
        assert got.records == want
        assert {s.start_date for r in want.values() for s in r.statements} >= {
            None, date(1990, 1, 1), date(2009, 1, 20), date(2017, 1, 20)}

    @given(st.lists(_entity(), min_size=1, max_size=4))
    def test_loaded_index_looks_up_as_built(self, scratch_index, entities):
        built = index_of([json.dumps(entity) for entity in entities])
        save_index(built, scratch_index)
        loaded = load_index(scratch_index)
        assert built._derived is None and loaded._derived is not None  # only a load derives at once
        keys = {*built.by_name, *built.by_token, *loaded.by_name, *loaded.by_token}
        for key in keys:
            assert lookup_by_name(loaded, key) == lookup_by_name(built, key)
