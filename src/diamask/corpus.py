"""Labeled document corpora: loading, serialization, and train/test splits.

The on-disk format is JSON Lines, one object per document:

    {"id": "...", "text": "...", "label": "real"|"fake",
     "date": "YYYY-MM-DD", "source": "..."}

`date` and `source` are optional. Unknown keys are ignored on load.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from datetime import date as Date
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .errors import DataError, numbered_lines

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

    @classmethod
    def parse(cls, raw: str) -> "Label":
        """Parse a label case-insensitively ("FAKE" -> Label.FAKE)."""
        try:
            return cls(raw.strip().lower())
        except (ValueError, AttributeError):
            raise DataError(f"unknown label {raw!r}; expected 'real' or 'fake'") from None

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    label: Label
    date: Date | None = None
    source: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise DataError("document id must be non-empty")


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
        if not (0.0 < self.train_fraction < 1.0):
            raise DataError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.mode is SplitMode.TIME_BASED and self.boundary_date is None:
            raise DataError("time-based split requires a boundary_date")


_ISO_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_date(raw: object) -> Date:
    """Parse a YYYY-MM-DD string, else raise ValueError. Unlike date.fromisoformat
    on Python 3.11+, rejects "20200101" and "2020-W01-1" on every Python."""
    if not isinstance(raw, str) or not _ISO_DATE_RE.fullmatch(raw):
        raise ValueError(f"not a YYYY-MM-DD date: {raw!r}")
    return Date.fromisoformat(raw)


def load_corpus(
    path: str | Path,
    *,
    allow_empty_text: bool = False,
    name: str | None = None,
) -> Corpus:
    """Load a JSON Lines corpus, preserving document order.

    Every record needs id, text, and label. Labels parse case-insensitively.
    Empty text is rejected unless allow_empty_text is set. Malformed lines,
    missing fields, and duplicate ids raise DataError with the line number.
    """
    path = Path(path)
    docs: list[Document] = []
    seen: set[str] = set()
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in numbered_lines(fh, path):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {lineno}: malformed JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise DataError(f"line {lineno}: expected a JSON object")
            for field in ("id", "text", "label"):
                if field not in record:
                    raise DataError(f"line {lineno}: missing field {field!r}")
            doc_id = record["id"]
            if not isinstance(doc_id, str) or not doc_id:
                raise DataError(f"line {lineno}: id must be a non-empty string")
            if doc_id in seen:
                raise DataError(f"line {lineno}: duplicate document id {doc_id!r}")
            seen.add(doc_id)
            text = record["text"]
            if not isinstance(text, str):
                raise DataError(f"line {lineno}: text must be a string")
            if not text and not allow_empty_text:
                raise DataError(f"line {lineno}: empty text for document {doc_id!r}")
            try:
                label = Label.parse(record["label"])
                doc_date = None if record.get("date") is None else iso_date(record["date"])
            except (DataError, ValueError) as exc:
                raise DataError(f"line {lineno}: {exc}") from None
            if not isinstance(record.get("source"), (str, type(None))):
                raise DataError(f"line {lineno}: source must be a string or null")
            docs.append(
                Document(
                    id=doc_id,
                    text=text,
                    label=label,
                    date=doc_date,
                    source=record.get("source"),
                )
            )
    return Corpus(name=name or path.stem, documents=tuple(docs))


def document_to_record(doc: Document) -> dict:
    record: dict = {"id": doc.id, "text": doc.text, "label": doc.label.value}
    if doc.date is not None:
        record["date"] = doc.date.isoformat()
    if doc.source is not None:
        record["source"] = doc.source
    return record


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the JSON Lines format loaded by load_corpus."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for doc in corpus:
            fh.write(json.dumps(document_to_record(doc), ensure_ascii=False))
            fh.write("\n")


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
