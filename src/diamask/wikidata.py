"""Snapshot-dated entity index over a Wikidata JSON dump.

Only two claim properties matter here: P39 (position held) and P106
(occupation). An entity is retained when it carries at least one of them;
with person_only set it must additionally be an instance (P31) of human
(Q5). A record's statements keep dump order (all P39 claims as listed,
then all P106 claims); resolution breaks ties by that order. Labels and
aliases are casefolded into two lookup maps, one keyed by the full
normalized name and one by each individual name token, so both
"narendra modi" and the bare "modi" can reach the same record.

Each posting list holds a QID once, in the order the records were added;
adding a record appends to the lists of its own names and never scans a
shared list, so building or loading is linear in the number of postings.
Re-adding a QID first withdraws the postings of the record it replaces.
Posting order carries no meaning: lookup_by_name sorts its candidates by
sitelink count descending, then numeric QID. resolve_person_label memoizes
its answer on the index per (normalized surface, mode); every add clears
that memo, so a resolve always reflects the records present at the time.

The dump is read as newline-delimited JSON entities, optionally gzipped.
The wrapped-array form is tolerated: '[' and ']' lines are skipped and a
trailing ',' per line is dropped. Indexing is a single streaming pass;
nothing is buffered beyond the retained records.

The serialized index is a single UTF-8 NDJSON file: the first non-blank
line is a header object {"format_version", "snapshot_date", "record_count"},
followed by exactly record_count record objects sorted by numeric QID.
Lookup maps are derived data and are rebuilt on load.
"""

from __future__ import annotations

import gzip
import io
import itertools
import logging
import re
from collections import Counter
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from datetime import date as Date
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from .corpus import iso_date
from .errors import OBJECT, DataError, decode_json, json_lines, numbered_lines, write_json_lines

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

HUMAN_QID = "Q5"
INSTANCE_OF = "P31"

FALLBACK_PERSON_TOKEN = "PER"


class RoleProperty(Enum):
    POSITION_HELD = "P39"
    OCCUPATION = "P106"


class ResolveMode(Enum):
    DUMP_ORDER = "dump-order"
    TEMPORAL = "temporal"


@dataclass(frozen=True)
class Statement:
    property: RoleProperty
    value_qid: str
    start_date: Date | None
    end_date: Date | None

    def __post_init__(self) -> None:
        if self.start_date and self.end_date and self.start_date > self.end_date:
            raise DataError(
                f"statement {self.value_qid}: start {self.start_date} after end {self.end_date}"
            )

    def valid_at(self, when: Date) -> bool:
        if self.start_date is not None and self.start_date > when:
            return False
        if self.end_date is not None and self.end_date < when:
            return False
        return True


@dataclass(frozen=True)
class EntityRecord:
    qid: str
    primary_label: str
    aliases: tuple[str, ...]
    statements: tuple[Statement, ...]
    sitelink_count: int


@dataclass
class EntityIndex:
    snapshot_date: Date
    records: dict[str, EntityRecord] = field(default_factory=dict)
    by_name: dict[str, list[str]] = field(default_factory=dict)
    by_token: dict[str, list[str]] = field(default_factory=dict)
    malformed_lines: int = 0
    # resolve_person_label results per (normalized surface, mode); add clears it
    _resolved: dict[tuple[str, ResolveMode], ResolvedLabel] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def add(self, record: EntityRecord) -> None:
        """Insert a record, replacing any earlier one with the same QID.

        The QID must have the form Q<digits>, as index_dump and load_index
        ensure. It is appended once to the posting list of each distinct
        name key and token of this record; shared lists are never scanned.
        """
        qid = record.qid
        old = self.records.get(qid)
        if old is not None:
            self._unpost(old)
        self.records[qid] = record
        # A QID is appended only during its own add, so a key repeated
        # within this record finds it at the end of the list.
        for name in (record.primary_label, *record.aliases):
            key = _normalize(name)
            if not key:
                continue
            bucket = self.by_name.setdefault(key, [])
            if not bucket or bucket[-1] != qid:
                bucket.append(qid)
            for token in key.split(" "):
                tbucket = self.by_token.setdefault(token, [])
                if not tbucket or tbucket[-1] != qid:
                    tbucket.append(qid)
        self._resolved.clear()

    def _unpost(self, record: EntityRecord) -> None:
        names = {_normalize(n) for n in (record.primary_label, *record.aliases)} - {""}
        tokens = {token for name in names for token in name.split(" ")}
        for postings, keys in ((self.by_name, names), (self.by_token, tokens)):
            for key in keys:
                bucket = postings[key]
                bucket.remove(record.qid)
                if not bucket:
                    del postings[key]

    def __len__(self) -> int:
        return len(self.records)


def _normalize(name: str) -> str:
    return " ".join(name.casefold().split())


_QID_RE = re.compile(r"^Q\d+$")
# Wikidata time values look like "+2009-01-20T00:00:00Z"; low-precision
# values zero out month/day.
_TIME_RE = re.compile(r"^\+(\d{1,16})-(\d{2})-(\d{2})T")


def qid_sort_key(token: str) -> tuple[int, object]:
    """QIDs order numerically; anything else sorts after them, textually."""
    if _QID_RE.match(token):
        return (0, int(token[1:]))
    return (1, token)


def _parse_time_value(value: dict) -> Date | None:
    raw = value.get("time")
    if not isinstance(raw, str):
        return None
    m = _TIME_RE.match(raw)
    if not m:
        return None  # BCE or otherwise unusable
    year, month, day = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if year < 1:
        return None
    try:
        return Date(year, max(month, 1), max(day, 1))
    except ValueError:
        return None


def _qualifier_date(claim: dict, prop: str) -> Date | None:
    for snak in claim.get("qualifiers", {}).get(prop, []):
        if snak.get("snaktype") != "value":
            continue
        dv = snak.get("datavalue", {})
        if dv.get("type") != "time":
            continue
        parsed = _parse_time_value(dv.get("value", {}))
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
    if isinstance(target, str) and _QID_RE.match(target):
        return target
    return None


def _is_human(claims: dict) -> bool:
    return any(_claim_target(c) == HUMAN_QID for c in claims.get(INSTANCE_OF, []))


def _extract_record(entity: dict) -> EntityRecord | None:
    """Build an EntityRecord, or None when the entity is not indexable
    (no P39/P106 targets, or no English label to match surfaces against)."""
    claims = entity.get("claims", {})
    statements: list[Statement] = []
    for prop in RoleProperty:
        for claim in claims.get(prop.value, []):
            target = _claim_target(claim)
            if target is None:
                continue
            start = _qualifier_date(claim, "P580")
            end = _qualifier_date(claim, "P582")
            if start and end and start > end:
                start = end = None  # dump noise; keep the statement undated
            statements.append(
                Statement(
                    property=prop,
                    value_qid=target,
                    start_date=start,
                    end_date=end,
                )
            )
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
        qid=entity["id"],
        primary_label=label,
        aliases=aliases,
        statements=tuple(statements),
        sitelink_count=len(OBJECT(entity.get("sitelinks", {}))),
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
    index = EntityIndex(snapshot_date=snapshot_date)
    where = source if isinstance(source, (str, Path)) else "dump"
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
                if not isinstance(qid, str) or not _QID_RE.match(qid):
                    raise DataError(f"{where} line {lineno}: bad entity id {qid!r}")
                if entity.get("type") not in (None, "item"):
                    continue
                try:  # a field these steps read may have another JSON type
                    if person_only and not _is_human(entity.get("claims", {})):
                        continue
                    record = _extract_record(entity)
                except (AttributeError, TypeError):
                    raise DataError(f"{where} line {lineno}: malformed entity") from None
            except DataError:
                if strict:
                    raise
                index.malformed_lines += 1
                continue
            if record is not None:
                index.add(record)
    if not index.records:
        log.warning("dump produced an empty index (snapshot %s)", snapshot_date)
    return index


def _record_to_json(record: EntityRecord) -> dict:
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


def save_index(index: EntityIndex, path: str | Path) -> None:
    """Write the versioned single-file index format (see module docstring)."""
    header = {
        "format_version": FORMAT_VERSION,
        "snapshot_date": index.snapshot_date.isoformat(),
        "record_count": len(index.records),
    }
    records = (index.records[qid] for qid in sorted(index.records, key=qid_sort_key))
    write_json_lines(path, itertools.chain([header], map(_record_to_json, records)))


def load_index(path: str | Path) -> EntityIndex:
    path = Path(path)
    with closing(json_lines(path)) as lines:  # an early exit closes the file at once
        _, header = next(lines, (0, None))
        if not isinstance(header, dict):
            raise DataError(f"{path}: missing or malformed index header")
        version = header.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:  # not true or 1.0
            raise DataError(
                f"{path}: unsupported index format version {version!r}"
            )
        try:
            snapshot = iso_date(header["snapshot_date"])
            expected = header["record_count"]
            if type(expected) is not int or expected < 0:
                raise ValueError("record_count must be an integer >= 0")
        except (KeyError, ValueError, TypeError):
            raise DataError(f"{path}: malformed index header fields") from None
        index = EntityIndex(snapshot_date=snapshot)
        for lineno, raw in lines:
            try:
                qid, label, aliases = raw["qid"], raw["label"], raw["aliases"]
                sitelinks = raw["sitelinks"]
                statements = tuple(
                    Statement(
                        property=RoleProperty(s["property"]),
                        value_qid=s["value"],
                        start_date=None if s["start"] is None else iso_date(s["start"]),
                        end_date=None if s["end"] is None else iso_date(s["end"]),
                    )
                    for s in raw["statements"]
                )
                # _QID_RE.match raises TypeError on a non-string, as wanted
                if not (
                    _QID_RE.match(qid)
                    and type(sitelinks) is int
                    and sitelinks >= 0
                    and isinstance(label, str)
                    and label
                    and isinstance(aliases, list)
                    and all(isinstance(a, str) for a in aliases)
                    and all(_QID_RE.match(s.value_qid) for s in statements)
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
            if qid in index.records:  # index.add would replace the earlier record
                raise DataError(f"{path} line {lineno}: duplicate record {qid!r}")
            index.add(record)
    if len(index.records) != expected:
        raise DataError(
            f"{path}: header promises {expected} records, found {len(index.records)}"
        )
    return index


def lookup_by_name(index: EntityIndex, surface: str) -> list[str]:
    """Candidate QIDs for a surface form.

    Exact normalized full-name match is tried first; only when it yields
    nothing does the per-token map contribute (union over the surface's
    tokens). Candidates are ordered by sitelink count descending, numeric
    QID ascending. Unknown surfaces return an empty list.
    """
    key = _normalize(surface)
    if not key:
        return []
    candidates = list(index.by_name.get(key, ()))
    if not candidates:
        candidates = list(
            dict.fromkeys(q for token in key.split(" ") for q in index.by_token.get(token, ()))
        )
    records = index.records
    # every indexed QID matches _QID_RE, so int(q[1:]) is qid_sort_key's order
    candidates.sort(key=lambda q: (-records[q].sitelink_count, int(q[1:])))
    return candidates


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

    The top lookup candidate supplies the statements. DUMP_ORDER takes the
    first-listed position held (P39), else the first-listed occupation
    (P106). TEMPORAL prefers the position held that is valid at the index's
    snapshot date (open-ended ranges count; the latest start wins, dump
    order breaking ties) and falls back to the full DUMP_ORDER cascade when
    none is valid. Unresolvable surfaces yield the generic person token.
    Results are memoized on the index per normalized surface and mode.
    """
    key = (_normalize(surface), mode)
    resolved = index._resolved.get(key)
    if resolved is None:
        resolved = index._resolved[key] = _resolve(index, key[0], mode)
    return resolved


def _resolve(index: EntityIndex, surface: str, mode: ResolveMode) -> ResolvedLabel:
    candidates = lookup_by_name(index, surface)
    if not candidates:
        return ResolvedLabel(token=FALLBACK_PERSON_TOKEN, source=None)
    statements = index.records[candidates[0]].statements
    if mode is ResolveMode.TEMPORAL:
        valid = [
            s
            for s in statements
            if s.property is RoleProperty.POSITION_HELD and s.valid_at(index.snapshot_date)
        ]
        if valid:
            # max keeps the first of equal starts: dump order breaks ties
            latest = max(valid, key=lambda s: s.start_date or Date.min)
            return ResolvedLabel(token=latest.value_qid, source=RoleProperty.POSITION_HELD)
        # fall through to dump-order behavior
    for prop in (RoleProperty.POSITION_HELD, RoleProperty.OCCUPATION):
        for s in statements:
            if s.property is prop:
                return ResolvedLabel(token=s.value_qid, source=prop)
    return ResolvedLabel(token=FALLBACK_PERSON_TOKEN, source=None)


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
