"""Named-entity spans over corpus documents.

Spans use end-exclusive character offsets into the original document text.
The on-disk annotation format is JSON Lines, one record per document:

    {"doc_id": "...", "spans": [{"start": 0, "end": 4, "tag": "PER",
                                 "text": "..."}]}

The tag inventory is fixed (PER/LOC/ORG/MISC); unknown tags are an error.
A small exact-match gazetteer tagger is included so the pipeline works
without any statistical NER system.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Corpus, Document
from .errors import DataError, numbered_lines
from .wikidata import _normalize

__all__ = [
    "NeTag",
    "NeSpan",
    "AnnotatedDocument",
    "Gazetteer",
    "load_annotations",
    "write_annotations",
    "tag_with_gazetteer",
    "load_gazetteer",
]

log = logging.getLogger(__name__)


class NeTag(Enum):
    PER = "PER"
    LOC = "LOC"
    ORG = "ORG"
    MISC = "MISC"

    @classmethod
    def parse(cls, raw: str) -> "NeTag":
        try:
            return cls(raw)
        except ValueError:
            known = "/".join(t.value for t in cls)
            raise DataError(f"unknown entity tag {raw!r}; expected one of {known}") from None


@dataclass(frozen=True)
class NeSpan:
    start: int
    end: int
    tag: NeTag
    surface: str

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.end):
            raise DataError(f"bad span offsets [{self.start}, {self.end})")

    def check_against(self, text: str, doc_id: str) -> None:
        if self.end > len(text):
            raise DataError(
                f"document {doc_id!r}: span [{self.start}, {self.end}) exceeds text length {len(text)}"
            )
        actual = text[self.start : self.end]
        if actual != self.surface:
            raise DataError(
                f"document {doc_id!r}: span [{self.start}, {self.end}) reads {actual!r}, "
                f"annotation says {self.surface!r}"
            )


@dataclass(frozen=True)
class AnnotatedDocument:
    """A document plus its entity spans, sorted by start and non-overlapping."""

    document: Document
    spans: tuple[NeSpan, ...]

    def __post_init__(self) -> None:
        prev_end = 0
        for span in self.spans:
            span.check_against(self.document.text, self.document.id)
            if span.start < prev_end:
                raise DataError(
                    f"document {self.document.id!r}: overlapping or unsorted span "
                    f"[{span.start}, {span.end})"
                )
            prev_end = span.end


def resolve_overlaps(spans: Iterable[NeSpan]) -> tuple[list[NeSpan], int]:
    """Keep the longest span at each conflict, then the leftmost.

    Returns the surviving spans sorted by start, plus the number discarded.
    """
    ordered = sorted(spans, key=lambda s: (-(s.end - s.start), s.start, s.end, s.tag.value))
    kept: list[NeSpan] = []
    dropped = 0
    for span in ordered:
        if any(span.start < other.end and other.start < span.end for other in kept):
            dropped += 1
            continue
        kept.append(span)
    kept.sort(key=lambda s: s.start)
    return kept, dropped


def load_annotations(corpus: Corpus, path: str | Path) -> list[AnnotatedDocument]:
    """Pair every corpus document with its annotated spans.

    Documents absent from the file get an empty span list. Records naming a
    document id not in the corpus are an error, as are out-of-range offsets,
    surface mismatches, and unknown tags. Overlapping spans are resolved by
    keeping the longest (leftmost on ties); the total number discarded is
    logged as a warning.
    """
    path = Path(path)
    by_doc: dict[str, list[NeSpan]] = {}
    known_ids = {doc.id for doc in corpus}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in numbered_lines(fh, path):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {lineno}: malformed JSON ({exc.msg})") from None
            if not isinstance(record, dict) or not isinstance(record.get("doc_id"), str):
                raise DataError(f"line {lineno}: expected an object with a string 'doc_id'")
            doc_id = record["doc_id"]
            if doc_id not in known_ids:
                raise DataError(f"line {lineno}: unknown document id {doc_id!r}")
            spans = by_doc.setdefault(doc_id, [])
            raw_spans = record.get("spans", [])
            if not (isinstance(raw_spans, list) and all(isinstance(r, dict) for r in raw_spans)):
                raise DataError(f"line {lineno}: spans for {doc_id!r} must be a list of objects")
            for raw in raw_spans:
                for field in ("start", "end", "tag", "text"):
                    if field not in raw:
                        raise DataError(
                            f"line {lineno}: span for {doc_id!r} missing field {field!r}"
                        )
                if type(raw["start"]) is not int or type(raw["end"]) is not int:
                    raise DataError(f"line {lineno}: span offsets for {doc_id!r} must be integers")
                spans.append(
                    NeSpan(
                        start=raw["start"],
                        end=raw["end"],
                        tag=NeTag.parse(raw["tag"]),
                        surface=raw["text"],
                    )
                )
    out: list[AnnotatedDocument] = []
    total_dropped = 0
    for doc in corpus:
        spans = by_doc.get(doc.id, [])
        for span in spans:
            span.check_against(doc.text, doc.id)
        kept, dropped = resolve_overlaps(spans)
        total_dropped += dropped
        out.append(AnnotatedDocument(document=doc, spans=tuple(kept)))
    if total_dropped:
        log.warning("%s: discarded %d overlapping span(s)", path, total_dropped)
    return out


def write_annotations(docs: Sequence[AnnotatedDocument], path: str | Path) -> None:
    """Write annotations in the format read by load_annotations."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for ann in docs:
            record = {
                "doc_id": ann.document.id,
                "spans": [
                    {"start": s.start, "end": s.end, "tag": s.tag.value, "text": s.surface}
                    for s in ann.spans
                ],
            }
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")


@dataclass(frozen=True)
class Gazetteer:
    """Case-insensitive name -> tag table; keys are casefolded and
    whitespace-collapsed."""

    entries: dict[str, NeTag]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, NeTag]]) -> "Gazetteer":
        entries: dict[str, NeTag] = {}
        for name, tag in pairs:
            key = _normalize(name)
            if not key:
                raise DataError("gazetteer entry with empty name")
            entries[key] = tag
        return cls(entries=entries)

    @cached_property
    def max_tokens(self) -> int:
        return max((key.count(" ") + 1 for key in self.entries), default=0)


def load_gazetteer(path: str | Path) -> Gazetteer:
    """Read a TSV gazetteer: one `name<TAB>tag` per line, '#' comments allowed."""
    pairs = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in numbered_lines(fh, path):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"line {lineno}: expected 'name<TAB>tag'")
            pairs.append((parts[0], NeTag.parse(parts[1])))
    return Gazetteer.from_pairs(pairs)


# Word runs for boundary detection: alphanumerics glued by single internal
# marks, so "covid-19" and "o'brien" are single candidates while a sentence-
# final '.' stays outside the span.
_WORD_RE = re.compile(r"\w+(?:['\-.]\w+)*")


def tag_with_gazetteer(document: Document, gazetteer: Gazetteer) -> AnnotatedDocument:
    """Greedy longest-match tagging over word boundaries.

    The text is scanned left to right; at each word the longest window of
    consecutive words whose normalized join is a gazetteer key becomes a
    span, and scanning resumes after it. Matching is case-insensitive and
    whitespace-insensitive; the stored surface is the original slice. The
    input document is not modified.
    """
    words = [(m.start(), m.end(), m.group(0)) for m in _WORD_RE.finditer(document.text)]
    max_tokens = gazetteer.max_tokens
    spans: list[NeSpan] = []
    i = 0
    while i < len(words):
        match_len = 0
        match_tag: NeTag | None = None
        limit = min(max_tokens, len(words) - i)
        for k in range(limit, 0, -1):
            window = words[i : i + k]
            key = " ".join(w[2].casefold() for w in window)
            tag = gazetteer.entries.get(key)
            if tag is not None:
                match_len, match_tag = k, tag
                break
        if match_tag is None:
            i += 1
            continue
        start = words[i][0]
        end = words[i + match_len - 1][1]
        spans.append(
            NeSpan(start=start, end=end, tag=match_tag, surface=document.text[start:end])
        )
        i += match_len
    return AnnotatedDocument(document=document, spans=tuple(spans))
