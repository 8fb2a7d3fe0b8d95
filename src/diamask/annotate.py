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

import logging
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Corpus, Document
from .errors import DataError, json_lines, numbered_lines, prefixed, write_output
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

    # Enum.__hash__ is a Python function (hash of the member name), and
    # write_annotations looks one up per span. Members are singletons that compare
    # by identity, so the identity hash agrees with ==; no output iterates a set of them.
    __hash__ = object.__hash__


# each tag's value as a JSON string
_TAG_JSON = {tag: f'"{tag.value}"' for tag in NeTag}


@dataclass(frozen=True)
class NeSpan:
    start: int
    end: int
    tag: NeTag
    surface: str

    def __post_init__(self) -> None:
        if type(self.start) is not int or type(self.end) is not int:
            raise DataError(f"span offsets must be integers, got [{self.start!r}, {self.end!r})")
        if not (0 <= self.start < self.end):
            raise DataError(f"bad span offsets [{self.start}, {self.end})")
        if not isinstance(self.tag, NeTag):
            raise DataError(f"span tag must be an NeTag, got {self.tag!r}")

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
    docs = {doc.id: doc for doc in corpus}
    for lineno, record in json_lines(path):
        with prefixed(f"{path} line {lineno}"):
            if not isinstance(record, dict) or not isinstance(record.get("doc_id"), str):
                raise DataError("expected an object with a string 'doc_id'")
            doc_id = record["doc_id"]
            if doc_id not in docs:
                raise DataError(f"unknown document id {doc_id!r}")
            spans = by_doc.setdefault(doc_id, [])
            raw_spans = record.get("spans", [])
            if not isinstance(raw_spans, list) or any(type(r) is not dict for r in raw_spans):
                raise DataError(f"spans for {doc_id!r} must be a list of objects")
            for raw in raw_spans:
                for field in ("start", "end", "tag", "text"):
                    if field not in raw:
                        raise DataError(f"span for {doc_id!r} missing field {field!r}")
                span = NeSpan(raw["start"], raw["end"], NeTag.parse(raw["tag"]), raw["text"])
                span.check_against(docs[doc_id].text, doc_id)
                spans.append(span)
    out: list[AnnotatedDocument] = []
    total_dropped = 0
    for doc in corpus:
        kept, dropped = resolve_overlaps(by_doc.get(doc.id, []))
        total_dropped += dropped
        out.append(AnnotatedDocument(document=doc, spans=tuple(kept)))
    if total_dropped:
        log.warning("%s: discarded %d overlapping span(s)", path, total_dropped)
    return out


def _annotation_line(ann: AnnotatedDocument) -> str:
    """The line json.dumps(record, ensure_ascii=False) writes for the document's
    record. Every string goes through encode_basestring, the function that
    encoder applies to a str, and an offset, an int, is written by its str, as
    the encoder writes one; a tag's value holds nothing to escape."""
    spans = ", ".join([
        f'{{"start": {s.start}, "end": {s.end}, "tag": {_TAG_JSON[s.tag]}, '
        f'"text": {encode_basestring(s.surface)}}}'
        for s in ann.spans
    ])
    return f'{{"doc_id": {encode_basestring(ann.document.id)}, "spans": [{spans}]}}\n'


def write_annotations(docs: Sequence[AnnotatedDocument], path: str | Path) -> None:
    """Write annotations in the format read by load_annotations, which reads
    back every AnnotatedDocument: a span's text is a string, as it equals its
    slice of the document's text."""
    write_output(path, map(_annotation_line, docs))  # streamed: the file is never one string


@dataclass(frozen=True)
class Gazetteer:
    """Case-insensitive name -> tag table; keys are casefolded and
    whitespace-collapsed."""

    entries: dict[str, NeTag]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, NeTag]]) -> "Gazetteer":
        return cls(entries={_gazetteer_key(name): tag for name, tag in pairs})

    @cached_property
    def max_tokens(self) -> int:
        return max((key.count(" ") + 1 for key in self.entries), default=0)

    @cached_property
    def heads(self) -> frozenset[str]:
        """The first token of every key: a window of words can match a key only
        if its first word, casefolded, is one of these."""
        return frozenset(key.split(" ", 1)[0] for key in self.entries)


# The only characters other than word characters that casefolding a word
# character gives: nine combining marks (category Mn), as a test checks over
# every code point. A translate table that drops them.
_FOLD_MARKS = dict.fromkeys(map(ord, "\u0300\u0301\u0307\u0308\u030a\u030c\u0313\u0331\u0342"))


def _gazetteer_key(name: str) -> str:
    """name's lookup key, if tagging can ever match it.

    Tagging joins casefolded _WORD_RE words, and each such word, with
    _FOLD_MARKS dropped, is again one _WORD_RE word; so a key token that,
    with them dropped, is not one word can never match.
    """
    key = _normalize(name)
    if not key:
        raise DataError("gazetteer entry with empty name")
    for token in key.split(" "):
        if not _WORD_RE.fullmatch(token.translate(_FOLD_MARKS)):
            raise DataError(f"gazetteer name {name!r} can never match: {token!r} is not one word")
    return key


def load_gazetteer(path: str | Path) -> Gazetteer:
    """Read a TSV gazetteer: one `name<TAB>tag` per line, '#' comments allowed."""
    entries: dict[str, NeTag] = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in numbered_lines(fh, path):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            with prefixed(f"{path} line {lineno}"):
                parts = line.split("\t")
                if len(parts) != 2:
                    raise DataError("expected 'name<TAB>tag'")
                entries[_gazetteer_key(parts[0])] = NeTag.parse(parts[1])
    return Gazetteer(entries=entries)


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

    Each word is casefolded once, and windows are tried only at a word in
    gazetteer.heads. That skips no match: a word holds no whitespace and no
    code point casefolds to whitespace, so a window's first word is the first
    token of its joined key.
    """
    text = document.text
    bounds = [(m.start(), m.end()) for m in _WORD_RE.finditer(text)]
    folded = [text[start:end].casefold() for start, end in bounds]
    entries, heads, max_tokens = gazetteer.entries, gazetteer.heads, gazetteer.max_tokens
    spans: list[NeSpan] = []
    i = 0
    while i < len(folded):
        match_len = 0
        match_tag: NeTag | None = None
        if folded[i] in heads:
            for k in range(min(max_tokens, len(folded) - i), 0, -1):
                tag = entries.get(" ".join(folded[i : i + k]))
                if tag is not None:
                    match_len, match_tag = k, tag
                    break
        if match_tag is None:
            i += 1
            continue
        start = bounds[i][0]
        end = bounds[i + match_len - 1][1]
        spans.append(NeSpan(start=start, end=end, tag=match_tag, surface=text[start:end]))
        i += match_len
    return AnnotatedDocument(document=document, spans=tuple(spans))
