"""Labeled document corpora: loading, serialization, and train/test splits.

The on-disk format is JSON Lines, one object per document:

    {"id": "...", "text": "...", "label": "real"|"fake",
     "date": "YYYY-MM-DD", "source": "..."}

`date` and `source` are optional. Unknown keys are ignored on load.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from datetime import date as Date
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterator

from .errors import (INTEGER, DataError, bad, json_lines, number, prefixed, setting, shown,
                     write_output)

__all__ = [
    "Label",
    "Document",
    "Corpus",
    "SplitMode",
    "SplitSpec",
    "load_corpus",
    "save_corpus",
    "split_random",
    "split_by_time",
]


class Label(Enum):
    REAL = "real"
    FAKE = "fake"

    # Enum.__hash__ is a Python function (hash of the member name), and run_matrix
    # hashes tuples of thousands of gold labels as dict keys. Members are singletons
    # that compare by identity, so the identity hash agrees with ==; no output
    # iterates a set of labels, whose order would follow it.
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, raw: str) -> "Label":
        """Parse a label case-insensitively ("FAKE" -> Label.FAKE)."""
        try:
            return cls(raw.strip().lower())
        except (ValueError, AttributeError):
            raise DataError(f"unknown label {raw!r}; expected 'real' or 'fake'") from None


@dataclass(frozen=True)
class Document:
    """A corpus record; its date is a date (not a datetime) or None."""

    id: str
    text: str
    label: Label
    date: Date | None = None
    source: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise DataError(f"id must be a non-empty string, got {self.id!r}")
        if not isinstance(self.text, str):
            raise DataError(f"text must be a string (document {self.id!r})")
        if not isinstance(self.label, Label):
            raise DataError(f"label must be a Label, got {self.label!r} (document {self.id!r})")
        if type(self.date) not in (Date, type(None)):
            raise DataError(f"date must be a date, got {self.date!r} (document {self.id!r})")
        if self.source is not None and not isinstance(self.source, str):
            raise DataError(f"source must be a string or null (document {self.id!r})")


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of documents with pairwise distinct ids."""

    name: str
    documents: tuple[Document, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for doc in self.documents:
            if doc.id in seen:
                raise DataError(f"duplicate document id {doc.id!r} in corpus {self.name!r}")
            seen.add(doc.id)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def labels(self) -> list[Label]:
        return [doc.label for doc in self.documents]


class SplitMode(Enum):
    RANDOM_HOLDOUT = "random"
    TIME_BASED = "time"


@dataclass(frozen=True)
class SplitSpec:
    mode: SplitMode
    train_fraction: float = 0.8
    boundary_date: Date | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.mode, SplitMode):
            raise bad("mode", f"expected a SplitMode, got {shown(self.mode)}")
        fraction = setting("train_fraction", self.train_fraction, number)
        if type(self.boundary_date) not in (Date, type(None)):
            raise bad("boundary_date", f"expected a date, got {shown(self.boundary_date)}")
        setting("seed", self.seed, INTEGER)
        if not (0.0 < fraction < 1.0):
            raise DataError(f"train_fraction must be in (0, 1), got {fraction}")
        object.__setattr__(self, "train_fraction", fraction)
        if self.mode is SplitMode.TIME_BASED and self.boundary_date is None:
            raise DataError("time-based split requires a boundary_date")

    def apply(self, corpus: Corpus) -> tuple[Corpus, Corpus]:
        """(train, test) of corpus: split_random or split_by_time, as mode says."""
        split = split_random if self.mode is SplitMode.RANDOM_HOLDOUT else split_by_time
        return split(corpus, self)


_ISO_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_date(raw: object) -> Date:
    """Parse a YYYY-MM-DD string, else raise ValueError. Unlike date.fromisoformat
    on Python 3.11+, rejects "20200101" and "2020-W01-1" on every Python."""
    if not isinstance(raw, str) or not _ISO_DATE_RE.fullmatch(raw):
        raise ValueError(f"not a YYYY-MM-DD date: {raw!r}")
    return Date.fromisoformat(raw)


def load_corpus(path: str | Path, *, name: str | None = None) -> Corpus:
    """Load a JSON Lines corpus, preserving document order.

    Every record needs id, text, and label; text may be empty, as masking
    can make it. Labels parse case-insensitively. Malformed lines, missing
    fields, values Document refuses, and duplicate ids raise DataError naming
    the file and line.
    """
    path = Path(path)
    docs: list[Document] = []
    seen: set[str] = set()
    for lineno, record in json_lines(path):
        with prefixed(path, lineno):
            if not isinstance(record, dict):
                raise DataError("expected a JSON object")
            for field in ("id", "text", "label"):
                if field not in record:
                    raise DataError(f"missing field {field!r}")
            label = Label.parse(record["label"])
            try:
                doc_date = None if record.get("date") is None else iso_date(record["date"])
            except ValueError as exc:
                raise DataError(str(exc)) from None
            doc = Document(record["id"], record["text"], label, doc_date, record.get("source"))
            if doc.id in seen:
                raise DataError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
            docs.append(doc)
    return Corpus(name=name or path.stem, documents=tuple(docs))


# each label's value as a JSON string; Label hashes by identity
_LABEL_JSON = {label: f'"{label.value}"' for label in Label}


def _document_line(doc: Document) -> str:
    """The line json.dumps(record, ensure_ascii=False) writes for the document's
    record, which leaves out a date or source that is None. Every string goes
    through encode_basestring, the function that encoder applies to a str; a
    label's value and a date's isoformat hold nothing to escape."""
    day, source = doc.date, doc.source
    dated = "" if day is None else f', "date": "{day.isoformat()}"'
    sourced = "" if source is None else f', "source": {encode_basestring(source)}'
    return (
        f'{{"id": {encode_basestring(doc.id)}, "text": {encode_basestring(doc.text)}, '
        f'"label": {_LABEL_JSON[doc.label]}{dated}{sourced}}}\n'
    )


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the JSON Lines format loaded by load_corpus, which
    reads back every Document."""
    write_output(path, map(_document_line, corpus))  # streamed: the file is never one string


def split_random(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus]:
    """Seeded random holdout split.

    Documents are shuffled with a Fisher-Yates shuffle driven by a Mersenne
    Twister seeded with spec.seed (random.Random.shuffle, reproducible across
    runs and platforms), then prefix-split: train takes the first
    floor(train_fraction * N) documents, test the rest. The split is
    unstratified; stratified sampling would be an additional flag, not a
    change to this default.
    """
    if spec.mode is not SplitMode.RANDOM_HOLDOUT:
        raise DataError(f"split_random requires mode 'random', got {spec.mode.value!r}")
    n = len(corpus)
    if n == 0:
        raise DataError("cannot split an empty corpus")
    # Fraction(str(...)) keeps decimal inputs exact: 0.7 * 10 must floor to 7.
    train_n = math.floor(Fraction(str(spec.train_fraction)) * n)
    shuffled = list(corpus.documents)
    random.Random(spec.seed).shuffle(shuffled)
    train = Corpus(name=f"{corpus.name}:train", documents=tuple(shuffled[:train_n]))
    test = Corpus(name=f"{corpus.name}:test", documents=tuple(shuffled[train_n:]))
    return train, test


def split_by_time(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus]:
    """Chronological split: train takes documents dated on or before the
    boundary, test the rest. Corpus order is preserved on both sides.
    Undated documents are an error (all offending ids are listed).
    """
    if spec.mode is not SplitMode.TIME_BASED:
        raise DataError(f"split_by_time requires mode 'time', got {spec.mode.value!r}")
    if len(corpus) == 0:
        raise DataError("cannot split an empty corpus")
    undated = [doc.id for doc in corpus if doc.date is None]
    if undated:
        raise DataError(f"documents without a date cannot be time-split: {', '.join(undated)}")
    boundary = spec.boundary_date
    assert boundary is not None  # guaranteed by SplitSpec validation
    train_docs = tuple(doc for doc in corpus if doc.date <= boundary)
    test_docs = tuple(doc for doc in corpus if doc.date > boundary)
    train = Corpus(name=f"{corpus.name}:train", documents=train_docs)
    test = Corpus(name=f"{corpus.name}:test", documents=test_docs)
    return train, test
