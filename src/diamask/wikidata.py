"""Snapshot-dated entity index over a Wikidata JSON dump.

Only two claim properties matter here: P39 (position held) and P106
(occupation). An entity is retained when it carries at least one of them;
with person_only set it must additionally be an instance (P31) of human
(Q5). A record's statements keep dump order (all P39 claims as listed,
then all P106 claims); resolution breaks ties by that order. Labels and
aliases are casefolded into two lookup maps, one keyed by the full
normalized name and one by each individual name token, so both
"narendra modi" and the bare "modi" can reach the same record.

Everything an EntityIndex derives from its records sits in one private
slot: the two maps, and resolve_person_label's memo, which holds both
modes' labels per surface as written. EntityIndex.add inserts the record
and drops the slot, so a resolve always reflects the records present at
the time. The first read after an add derives the slot again: it builds
both maps in one pass over the records, each posting list holding a QID
once, and starts the memo empty. So a build that only saves or counts the
index never makes them. load_index derives the slot before it returns, as a
loaded index is there to resolve names. Posting order carries no meaning:
lookup_by_name sorts its candidates by sitelink count descending, then
numeric QID. Resolution needs only the first of them, the top candidate, so
it asks lookup_by_name for the candidates unranked and finds that one in
one pass: the most sitelinks, then the lowest numeric QID. A lone candidate
is taken as it is. Only the choice of statement depends on the mode, so a
memo miss looks the surface up once and derives both modes' labels from
the top candidate's statements; a hit picks the mode's label by identity,
so no mode is hashed.

The dump is read as newline-delimited JSON entities, optionally gzipped.
The wrapped-array form is tolerated: '[' and ']' lines are skipped and a
trailing ',' per line is dropped. Indexing is a single streaming pass;
nothing is buffered beyond the retained records.

The serialized index is a single UTF-8 NDJSON file: the first non-blank
line is a header object {"format_version", "snapshot_date", "record_count"},
read through errors.fields, followed by exactly record_count record objects
sorted by numeric QID. A record or statement holding a key that save_index
does not write is malformed, as a save after the load would drop it; records
are not read through errors.fields, which costs too much per record, but
counted against their five keys (statements their four), and their values
checked by Statement and EntityRecord. Lookup maps are rebuilt on load.

Build, save and load run once per record or statement, so they skip work
that leaves no trace. Each shortcut is exact:
- The property goes through plain maps of RoleProperty's own members, not
  RoleProperty(pid) or prop.value, which run Enum code. A pid the map lacks
  raises KeyError, which load_index reports as "malformed index record", as
  it would the Enum's ValueError.
- EntityRecord checks its fields in one expression and walks no empty
  alias list; load_index reports a value it refuses as a malformed record.
- The map build creates a posting list with its first QID in it, so a key
  already present costs no empty list, and no list in the maps is empty.
- The map build casefolds and splits each name once: the by_name key joins
  the tokens, and by_token takes the same tokens, which is
  _normalize(name).split(" ") as no token holds a space.
- index_dump reads a claim's qualifiers once for both dates; a second read
  of the same key would give the same object, or the same error. A claim
  with no "qualifiers" key skips both lookups, which would read an empty
  object and find no date. The key's absence is told by a sentinel's
  identity, so a present [] or null still makes the line malformed.
- One index_dump or load_index call builds each distinct statement once: a
  dict local to the call maps (pid, target, start, end) to the Statement
  first built for it. A Statement is frozen, so sharing one changes no value
  or equality. load_index keys the dict by the raw JSON values, after the
  key-count check: equal values are equal strings or null, which the first
  build has checked, and an unhashable one is malformed.
- One index_dump call parses each distinct qualifier time string once: a
  dict local to the call maps the raw "time" string to what
  _parse_time_value gives for it, a None included. That function is given
  nothing but the string, so the table changes no date.
- save_index writes each record line from one template, which is what
  json.dumps(record_object, ensure_ascii=False) writes. Every string goes
  through json.encoder.encode_basestring, the function that encoder applies
  to a str. A date's isoformat holds only digits and "-", so it needs no
  escape. Separators and key order are the encoder's defaults and the
  object's order. A count is written by int's str, as the encoder writes an
  int, which EntityRecord ensures it is. Records sort by int(q[1:]), which
  is qid_sort_key's order for every QID _QID_RE admits.
"""

from __future__ import annotations

import gzip
import io
import itertools
import json
import logging
import operator
import re
from collections import Counter
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from datetime import date as Date
from enum import Enum
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator

from .corpus import iso_date
from .errors import (INTEGER, LIST, OBJECT, DataError, decode_json, fields, json_lines,
                     numbered_lines, prefixed, write_output)

__all__ = [
    "RoleProperty",
    "Statement",
    "EntityRecord",
    "EntityIndex",
    "ResolveMode",
    "ResolvedLabel",
    "index_dump",
    "save_index",
    "load_index",
    "lookup_by_name",
    "resolve_person_label",
    "coverage_rate",
    "top_labels",
]

log = logging.getLogger(__name__)

FORMAT_VERSION = 1


def _record_count(raw: object) -> int:
    if INTEGER(raw) < 0:
        raise ValueError(f"expected an integer >= 0, got {raw}")
    return raw


# the index header's keys, every one required
_HEADER_FIELDS = {
    "format_version": INTEGER, "snapshot_date": iso_date, "record_count": _record_count
}

HUMAN_QID = "Q5"
INSTANCE_OF = "P31"

FALLBACK_PERSON_TOKEN = "PER"


class RoleProperty(Enum):
    POSITION_HELD = "P39"
    OCCUPATION = "P106"

    # Enum.__hash__ is a Python function (hash of the member name), and save_index
    # looks one up per statement. Members are singletons that compare by identity,
    # so the identity hash agrees with ==; no output iterates a set of them.
    __hash__ = object.__hash__


# in place of RoleProperty(pid) and prop.value (see the module docstring);
# _ROLE_BY_PID keeps the Enum's order, P39 first
_ROLE_BY_PID = {prop.value: prop for prop in RoleProperty}
_PID_BY_ROLE = {prop: pid for pid, prop in _ROLE_BY_PID.items()}


# a date field's types: a datetime is a date, but saves as no YYYY-MM-DD
_DAY = (Date, type(None))


class ResolveMode(Enum):
    DUMP_ORDER = "dump-order"
    TEMPORAL = "temporal"


# resolve_person_label compares the mode with it on every memo hit; a module
# global reads faster than a member read from the Enum class
_TEMPORAL = ResolveMode.TEMPORAL


@dataclass(frozen=True)
class Statement:
    """A role claim; its dates are dates (not datetimes) or None."""

    property: RoleProperty
    value_qid: str
    start_date: Date | None
    end_date: Date | None

    def __post_init__(self) -> None:
        value, start, end = self.value_qid, self.start_date, self.end_date
        if not (isinstance(self.property, RoleProperty) and isinstance(value, str)
                and _QID_RE.fullmatch(value) and type(start) in _DAY and type(end) in _DAY):
            raise DataError(f"bad statement {self!r}")
        if start and end and start > end:
            raise DataError(f"statement {value}: start {start} after end {end}")

    def valid_at(self, when: Date) -> bool:
        if self.start_date is not None and self.start_date > when:
            return False
        if self.end_date is not None and self.end_date < when:
            return False
        return True


@dataclass(frozen=True)
class EntityRecord:
    """An indexed entity; its sitelink count is an int >= 0, and True is not one."""

    qid: str
    primary_label: str
    aliases: tuple[str, ...]
    statements: tuple[Statement, ...]
    sitelink_count: int

    def __post_init__(self) -> None:
        qid, label, aliases = self.qid, self.primary_label, self.aliases
        statements, count = self.statements, self.sitelink_count
        # one expression, as index_dump and load_index build a record per line
        if not (type(count) is int and count >= 0
                and isinstance(qid, str) and _QID_RE.fullmatch(qid)
                and isinstance(label, str) and label
                and type(aliases) is tuple and type(statements) is tuple
                and (not aliases or all(map(_IS_STR, aliases)))
                and all(map(_IS_STATEMENT, statements))):
            fault = "bad QID, label, aliases or statements"
            if type(count) is not int or count < 0:
                fault = f"bad sitelink count {count!r}"
            raise DataError(f"record {qid!r}: {fault}")


# isinstance(item, str) and isinstance(item, Statement), bound once: EntityRecord
# checks each alias and statement of every record, and map() calls these without
# a generator
_IS_STR, _IS_STATEMENT = str.__instancecheck__, Statement.__instancecheck__


@dataclass(slots=True)
class _Derived:
    """What an EntityIndex derives from its records (see the module docstring)."""

    by_name: dict[str, list[str]]
    by_token: dict[str, list[str]]
    # resolve_person_label's (DUMP_ORDER, TEMPORAL) labels per surface as written
    resolved: dict[str, tuple[ResolvedLabel, ResolvedLabel]] = field(default_factory=dict)


@dataclass
class EntityIndex:
    """Records by QID, and what is derived from them: the lookup maps, where
    by_name maps a normalized full name, by_token each of its tokens, to the
    QIDs holding it, and the resolve memo. The maps are read-only
    properties. All of it is derived on its first read and dropped by each
    add; none of it is a constructor argument, and equality ignores it."""

    snapshot_date: Date
    records: dict[str, EntityRecord] = field(default_factory=dict)
    malformed_lines: int = 0
    # everything derived from records as of the last add, or None until the next read
    _derived: _Derived | None = field(default=None, init=False, compare=False, repr=False)

    def add(self, record: EntityRecord) -> None:
        """Insert a record, replacing any earlier one with the same QID, which
        has the form Q<digits>, as EntityRecord ensures."""
        self.records[record.qid] = record
        self._derived = None

    @property
    def by_name(self) -> dict[str, list[str]]:
        return (self._derived or self._derive()).by_name

    @property
    def by_token(self) -> dict[str, list[str]]:
        return (self._derived or self._derive()).by_token

    def _derive(self) -> _Derived:
        by_name: dict[str, list[str]] = {}
        by_token: dict[str, list[str]] = {}
        # a QID is appended only while its own record is walked, so a key
        # repeated within the record finds it at the end of the list
        for qid, record in self.records.items():
            for name in (record.primary_label, *record.aliases):
                tokens = name.casefold().split()  # _normalize(name).split(" ")
                if not tokens:
                    continue
                key = " ".join(tokens)
                bucket = by_name.get(key)
                if bucket is None:
                    by_name[key] = [qid]
                elif bucket[-1] != qid:
                    bucket.append(qid)
                for token in tokens:
                    bucket = by_token.get(token)
                    if bucket is None:
                        by_token[token] = [qid]
                    elif bucket[-1] != qid:
                        bucket.append(qid)
        self._derived = _Derived(by_name, by_token)
        return self._derived

    def __len__(self) -> int:
        return len(self.records)


def _normalize(name: str) -> str:
    return " ".join(name.casefold().split())


# used with fullmatch: "$" would also match before a final "\n", and "\d" any
# Unicode decimal digit, which int() reads as another spelling of a number
_QID_RE = re.compile(r"Q[0-9]+")
# Wikidata time values look like "+2009-01-20T00:00:00Z", in ASCII digits;
# low-precision values zero out month/day.
_TIME_RE = re.compile(r"^\+([0-9]{1,16})-([0-9]{2})-([0-9]{2})T")


def qid_sort_key(token: str) -> tuple[int, object]:
    """QIDs order numerically; anything else sorts after them, textually."""
    if _QID_RE.fullmatch(token):
        return (0, int(token[1:]))
    return (1, token)


def _parse_time_value(raw: str) -> Date | None:
    m = _TIME_RE.match(raw)
    if not m:
        return None  # BCE or otherwise unusable
    year, month, day = int(m.group(1)), int(m.group(2)), int(m.group(3))
    try:  # a day past the month's end, year 0 and years past 9999 raise
        return Date(year, max(month, 1), max(day, 1))
    except ValueError:
        return None


def _qualifier_date(qualifiers: dict, prop: str, dates: dict[str, Date | None]) -> Date | None:
    """The first usable date among the qualifier's time values. dates maps
    each raw "time" string to its _parse_time_value, and gains the ones
    parsed here."""
    for snak in qualifiers.get(prop, []):
        if snak.get("snaktype") != "value":
            continue
        dv = snak.get("datavalue", {})
        if dv.get("type") != "time":
            continue
        raw = dv.get("value", {}).get("time")
        if not isinstance(raw, str):
            continue
        try:
            parsed = dates[raw]
        except KeyError:
            parsed = dates[raw] = _parse_time_value(raw)
        if parsed is not None:
            return parsed
    return None


def _claim_target(claim: dict) -> str | None:
    snak = claim.get("mainsnak", {})
    if snak.get("snaktype") != "value":
        return None
    dv = snak.get("datavalue", {})
    if dv.get("type") != "wikibase-entityid":
        return None
    target = dv.get("value", {}).get("id")
    if isinstance(target, str) and _QID_RE.fullmatch(target):
        return target
    return None


def _is_human(claims: dict) -> bool:
    for claim in claims.get(INSTANCE_OF, []):
        if _claim_target(claim) == HUMAN_QID:
            return True
    return False


# what a claim without a "qualifiers" key reads; a present [] or null is malformed
_NO_QUALIFIERS = object()


def _extract_record(entity: dict, shared: dict, dates: dict) -> EntityRecord | None:
    """Build an EntityRecord, or None when the entity is not indexable
    (no P39/P106 targets, or no English label to match surfaces against).
    shared maps (pid, target, start, end) to the Statement built for it
    before, and gains each one built here; dates is _qualifier_date's table."""
    claims = entity.get("claims", {})
    statements: list[Statement] = []
    for pid, prop in _ROLE_BY_PID.items():
        for claim in claims.get(pid, []):
            target = _claim_target(claim)
            if target is None:
                continue
            qualifiers = claim.get("qualifiers", _NO_QUALIFIERS)
            if qualifiers is _NO_QUALIFIERS:
                start = end = None
            else:
                start = _qualifier_date(qualifiers, "P580", dates)
                end = _qualifier_date(qualifiers, "P582", dates)
                if start and end and start > end:
                    start = end = None  # dump noise; keep the statement undated
            key = (pid, target, start, end)
            statement = shared.get(key)
            if statement is None:
                statement = shared[key] = Statement(prop, target, start, end)
            statements.append(statement)
    if not statements:
        return None
    label_obj = entity.get("labels", {}).get("en")
    label = label_obj.get("value") if isinstance(label_obj, dict) else None
    if not label or not isinstance(label, str):
        return None  # nothing to match surfaces against
    aliases = tuple(
        a["value"]
        for a in entity.get("aliases", {}).get("en", [])
        if isinstance(a, dict) and isinstance(a.get("value"), str) and a["value"]
    )
    return EntityRecord(
        entity["id"], label, aliases, tuple(statements), len(OBJECT(entity.get("sitelinks", {})))
    )


@contextmanager
def _open_dump(source: str | Path | io.TextIOBase) -> Iterator[Iterable[str]]:
    """The dump's lines; a stream the caller passed in is left open."""
    if isinstance(source, io.TextIOBase):
        yield source
        return
    with open(source, "rb") as raw:
        # peek, not read + seek: pipes such as /dev/stdin cannot seek
        gzipped = raw.peek(2)[:2] == b"\x1f\x8b"
        stream = gzip.GzipFile(fileobj=raw) if gzipped else raw
        with io.TextIOWrapper(stream, encoding="utf-8") as text:
            yield text


def index_dump(
    source: str | Path | io.TextIOBase,
    snapshot_date: Date,
    *,
    person_only: bool = False,
    strict: bool = False,
) -> EntityIndex:
    """Stream a dump into an EntityIndex. source is a path (a plain or gzip
    file, or a pipe such as /dev/stdin) or a text stream.

    Retains entities with at least one P39/P106 item target and an English
    label; person_only additionally requires P31 = Q5. A malformed line (bad
    JSON, no QID, or a field read here, such as claims or labels, of another
    JSON type) is counted on index.malformed_lines and skipped, or raises
    DataError under strict. An empty result is valid but logged as a warning.
    """
    records: dict[str, EntityRecord] = {}
    malformed = 0
    where = source if isinstance(source, (str, Path)) else "dump"
    shared: dict[tuple, Statement] = {}  # equal statements, one object (see _extract_record)
    dates: dict[str, Date | None] = {}  # raw qualifier time -> its date (see _qualifier_date)
    with _open_dump(source) as lines:
        for lineno, line in numbered_lines(lines, where):
            line = line.strip()
            if not line or line in ("[", "]"):
                continue
            line = line.rstrip(",")
            try:
                entity = decode_json(line, where, lineno)
                if not isinstance(entity, dict):
                    raise DataError(f"{where} line {lineno}: not a JSON object")
                qid = entity.get("id")
                if not isinstance(qid, str) or not _QID_RE.fullmatch(qid):
                    raise DataError(f"{where} line {lineno}: bad entity id {qid!r}")
                if entity.get("type") not in (None, "item"):
                    continue
                try:  # a field these steps read may have another JSON type
                    if person_only and not _is_human(entity.get("claims", {})):
                        continue
                    record = _extract_record(entity, shared, dates)
                except (AttributeError, TypeError):
                    raise DataError(f"{where} line {lineno}: malformed entity") from None
            except DataError:
                if strict:
                    raise
                malformed += 1
                continue
            if record is not None:
                records[record.qid] = record  # a repeated QID keeps its last record, as add does
    if not records:
        log.warning("dump produced an empty index (snapshot %s)", snapshot_date)
    return EntityIndex(snapshot_date, records, malformed_lines=malformed)


def _json_date(day: Date | None) -> str:
    return "null" if day is None else f'"{day.isoformat()}"'


def _record_line(record: EntityRecord) -> str:
    """The line json.dumps(..., ensure_ascii=False) writes for the record's
    object (see the module docstring)."""
    statements = ", ".join([
        f'{{"property": "{_PID_BY_ROLE[s.property]}", "value": {encode_basestring(s.value_qid)}, '
        f'"start": {_json_date(s.start_date)}, "end": {_json_date(s.end_date)}}}'
        for s in record.statements
    ])
    return (
        f'{{"qid": {encode_basestring(record.qid)}, '
        f'"label": {encode_basestring(record.primary_label)}, '
        f'"aliases": [{", ".join(map(encode_basestring, record.aliases))}], '
        f'"sitelinks": {record.sitelink_count}, "statements": [{statements}]}}\n'
    )


def save_index(index: EntityIndex, path: str | Path) -> None:
    """Write the versioned single-file index format (see module docstring),
    which load_index reads back for every EntityRecord."""
    # every indexed QID matches _QID_RE, so int(q[1:]) is qid_sort_key's order
    records = [index.records[qid] for qid in sorted(index.records, key=lambda q: int(q[1:]))]
    header = {
        "format_version": FORMAT_VERSION,
        "snapshot_date": index.snapshot_date.isoformat(),
        "record_count": len(index.records),
    }
    lines = map(_record_line, records)  # streamed: the file is never one string
    write_output(path, itertools.chain([json.dumps(header, ensure_ascii=False) + "\n"], lines))


def _load_statement(raw: dict, shared: dict) -> Statement:
    """A saved statement; KeyError, ValueError, TypeError or DataError if it is
    none that save_index writes. shared maps the four values read here to the
    Statement built for them before, and gains each one built here."""
    if len(raw) != 4:  # a key besides the four read here
        raise ValueError("unknown statement key")
    key = (raw["property"], raw["value"], raw["start"], raw["end"])
    statement = shared.get(key)  # TypeError on an unhashable value
    if statement is None:
        pid, value, start, end = key
        statement = shared[key] = Statement(
            _ROLE_BY_PID[pid],
            value,
            None if start is None else iso_date(start),
            None if end is None else iso_date(end),
        )
    return statement


def load_index(path: str | Path) -> EntityIndex:
    path = Path(path)
    with closing(json_lines(path)) as lines:  # an early exit closes the file at once
        _, header = next(lines, (0, None))
        # a version that equals 1 but is no integer (true, 1.0) is left to fields
        version = header.get("format_version") if isinstance(header, dict) else FORMAT_VERSION
        if version != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported index format version {version!r}")
        with prefixed(f"{path}: malformed index header"):
            header = fields(header, _HEADER_FIELDS)
        expected = header["record_count"]
        records: dict[str, EntityRecord] = {}
        shared: dict[tuple, Statement] = {}  # equal statements, one object (see _load_statement)
        last = -1
        for lineno, raw in lines:
            try:
                if len(raw) != 5:  # a key besides the five read here
                    raise ValueError("unknown record key")
                # LIST: "" or {} would iterate as no statements, which save_index writes as []
                statements = tuple([_load_statement(s, shared) for s in LIST(raw["statements"])])
                record = EntityRecord(raw["qid"], raw["label"], tuple(LIST(raw["aliases"])),
                                      statements, raw["sitelinks"])
            except (KeyError, ValueError, TypeError, DataError):
                raise DataError(f"{path} line {lineno}: malformed index record") from None
            qid = record.qid
            # save_index writes records by rising numeric QID; only a record that does not
            # rise can repeat a QID, which the insert below would let replace the earlier record
            number = int(qid[1:])
            if number <= last:
                if qid in records:
                    raise DataError(f"{path} line {lineno}: duplicate record {qid!r}")
                if number < last:  # an equal number is a leading-zero spelling ("Q01")
                    raise DataError(f"{path} line {lineno}: record {qid!r} out of QID order")
            last = number
            records[qid] = record
    if len(records) != expected:
        raise DataError(f"{path}: header promises {expected} records, found {len(records)}")
    index = EntityIndex(header["snapshot_date"], records)
    index._derive()  # a loaded index is there to resolve names
    return index


def lookup_by_name(index: EntityIndex, surface: str, *, ranked: bool = True) -> list[str]:
    """Candidate QIDs for a surface form.

    Exact normalized full-name match is tried first; only when it yields
    nothing does the per-token map contribute (union over the surface's
    tokens, each QID once). Candidates are ordered by sitelink count
    descending, numeric QID ascending; with ranked=False they keep posting
    order, for a caller that needs only the first (_top_candidate). Unknown
    surfaces return an empty list.
    """
    key = _normalize(surface)
    if not key:
        return []
    derived = index._derived or index._derive()  # as the properties read it
    candidates = derived.by_name.get(key)
    if not candidates:
        by_token = derived.by_token
        candidates = dict.fromkeys(
            itertools.chain.from_iterable(by_token.get(token, ()) for token in key.split(" "))
        )
    # copies either way, so the map's own list keeps its order
    if not ranked:
        return list(candidates)
    records = index.records
    # every indexed QID matches _QID_RE, so int(q[1:]) is qid_sort_key's order
    return sorted(candidates, key=lambda q: (-records[q].sitelink_count, int(q[1:])))


_SITELINKS = operator.attrgetter("sitelink_count")


def _top_candidate(records: dict[str, EntityRecord], candidates: list[str]) -> str | None:
    """The first of the candidates as lookup_by_name ranks them, found in one
    pass; None when there are none. It is the candidate with the most
    sitelinks, and among those the lowest QID number, the first such in
    candidate order as the stable sort keeps it. A lone candidate is the top
    one, with no key computed."""
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        return None
    counts = list(map(_SITELINKS, map(records.__getitem__, candidates)))
    most = max(counts)
    ties = itertools.compress(candidates, map(operator.eq, counts, itertools.repeat(most)))
    return min(ties, key=lambda q: int(q[1:]))


@dataclass(frozen=True)
class ResolvedLabel:
    """A role token and the property it came from; source None is the PER fallback."""

    token: str
    source: RoleProperty | None


def resolve_person_label(
    index: EntityIndex,
    surface: str,
    mode: ResolveMode = ResolveMode.DUMP_ORDER,
) -> ResolvedLabel:
    """Map a person surface form to a role token.

    The top lookup candidate, lookup_by_name's first element, supplies the
    statements; one pass over the candidates finds it: the most sitelinks,
    then the lowest numeric QID. DUMP_ORDER takes the first-listed position
    held (P39), else the first-listed occupation (P106). TEMPORAL prefers the
    position held that is valid at the index's snapshot date (open-ended
    ranges count; the latest start wins, dump order breaking ties) and falls
    back to the DUMP_ORDER label when none is valid. Unresolvable surfaces
    yield the generic person token. The lookup does not depend on the mode,
    so the index memoizes both modes' labels per surface as written: the
    first resolve of a surface, under either mode, looks it up once and
    derives both, and every later one, under either mode, is a memo hit.
    """
    derived = index._derived or index._derive()
    labels = derived.resolved.get(surface)
    if labels is None:
        labels = derived.resolved[surface] = _labels(_top_statements(index, surface),
                                                     index.snapshot_date)
    return labels[mode is _TEMPORAL]


def _top_statements(index: EntityIndex, surface: str) -> tuple[Statement, ...]:
    """The statements of the surface's top lookup candidate; () when it has none."""
    records = index.records
    top = _top_candidate(records, lookup_by_name(index, surface, ranked=False))
    return () if top is None else records[top].statements


_PER_LABEL = ResolvedLabel(token=FALLBACK_PERSON_TOKEN, source=None)


def _labels(statements: tuple[Statement, ...], snapshot: Date) -> tuple[ResolvedLabel, ResolvedLabel]:
    """The (DUMP_ORDER, TEMPORAL) labels of a top candidate's statements. With
    no position held valid at the snapshot, TEMPORAL's label is DUMP_ORDER's,
    the same object."""
    held = [s for s in statements if s.property is RoleProperty.POSITION_HELD]
    first = held or [s for s in statements if s.property is RoleProperty.OCCUPATION]
    dump_order = ResolvedLabel(first[0].value_qid, first[0].property) if first else _PER_LABEL
    valid = [s for s in held if s.valid_at(snapshot)]
    if not valid:
        return dump_order, dump_order
    # max keeps the first of equal starts: dump order breaks ties
    latest = max(valid, key=lambda s: s.start_date or Date.min)
    return dump_order, ResolvedLabel(latest.value_qid, RoleProperty.POSITION_HELD)


def coverage_rate(labels_a: Iterable[str], labels_b: Iterable[str]) -> float:
    """Percentage of a's unique labels that also occur in b:
    100 * |a intersect b| / |a|. Empty a is an error."""
    set_a = set(labels_a)
    if not set_a:
        raise DataError("first label set is empty")
    set_b = set(labels_b)
    return 100.0 * len(set_a & set_b) / len(set_a)


def top_labels(
    tokens: Iterable[str], index: EntityIndex | None, k: int
) -> list[tuple[str, int]]:
    """The k most frequent tokens in a usage multiset (an iterable of tokens
    or a token -> count mapping), rendered with the index's human-readable
    labels where available (none without an index). Count ties break by
    numeric QID ascending."""
    if k < 1:
        raise DataError(f"top_labels: k must be >= 1, got {k}")
    counts = Counter(tokens)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], qid_sort_key(kv[0])))
    records = index.records if index is not None else {}
    out = []
    for token, count in ranked[:k]:
        record = records.get(token)
        out.append((record.primary_label if record else token, count))
    return out
