"""Phrase/label association scoring.

Ranks n-grams by how strongly they co-occur with one class label, using
local mutual information:

    lmi(w, l) = p(w, l) * log(p(l | w) / p(l))

with p(w, l) = count(w, l) / P, p(l | w) = count(w, l) / count(w) and
p(l) = count(l) / P, where P is the total number of n-gram occurrences in
the corpus and count(l) the number of occurrences inside documents carrying
label l. Occurrences are counted, not document frequencies: a phrase
appearing three times in one document contributes three.

High-lmi phrases for a label are the vocabulary a bag-of-ngrams classifier
will lean on for that label; scanning the top of the table is the quickest
way to spot dataset-specific or period-specific artifacts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import Corpus, Label
from .errors import DataError

__all__ = [
    "tokenize",
    "extract_ngrams",
    "LmiEntry",
    "LmiTable",
    "compute_lmi",
    "export_lmi_table",
]

_SIGILS = ("@", "#")

LMI_TSV_HEADER = "phrase\tlabel\tcount_wl\tcount_w\tp_l_given_w\tlmi_scaled"


def _clean_token(raw: str) -> str:
    """Strip edge punctuation from one whitespace-delimited chunk.

    Kept: a leading '@' or '#' sigil, all internal marks ("covid-19",
    "clinton's"), and a single trailing '.' directly after an alphanumeric
    ("no.", "gov."). Everything else non-alphanumeric is stripped from both
    edges. Returns "" when nothing survives.
    """
    sigil = ""
    if raw[:1] in _SIGILS:
        sigil, raw = raw[0], raw[1:]
    start = 0
    while start < len(raw) and not raw[start].isalnum():
        start += 1
    end = len(raw)
    while end > start:
        ch = raw[end - 1]
        if ch.isalnum():
            break
        if ch == "." and end - 1 > start and raw[end - 2].isalnum():
            break
        end -= 1
    core = raw[start:end]
    if not core:
        return ""
    return sigil + core


def tokenize(text: str) -> list[str]:
    """Casefold, split on whitespace, and normalize each chunk.

    See _clean_token for the edge-punctuation rules; empty results are
    dropped, so every returned token is non-empty and casefolded. A chunk
    for which str.isalnum() holds is its own token without a call to
    _clean_token: isalnum is true exactly when the chunk is non-empty and
    every character passes _clean_token's per-character isalnum test, so
    nothing is stripped and no sigil is split off.
    """
    tokens = []
    for raw in text.casefold().split():
        if raw.isalnum():
            tokens.append(raw)
        elif tok := _clean_token(raw):
            tokens.append(tok)
    return tokens


def extract_ngrams(tokens: list[str], n: int) -> list[str]:
    """All contiguous n-token windows, in order, joined by single spaces.

    Returns len(tokens) - n + 1 phrases (empty list when the sequence is
    shorter than n). zip over the n shifted copies of tokens stops at the
    shortest, tokens[n - 1:], so it yields exactly those windows in order.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > len(tokens):
        return []
    return list(map(" ".join, zip(*[tokens[i:] for i in range(n)])))


@dataclass(frozen=True)
class LmiEntry:
    phrase: str
    label: Label
    count_wl: int
    count_w: int
    p_l_given_w: float
    lmi: float


@dataclass(frozen=True)
class LmiTable:
    n: int
    total_phrases: int
    p_label: dict[Label, float]
    entries: tuple[LmiEntry, ...]

    def entries_for(self, label: Label) -> list[LmiEntry]:
        return [e for e in self.entries if e.label is label]


_LABEL_ORDER = {Label.REAL: 0, Label.FAKE: 1}


def compute_lmi(
    corpus: Corpus,
    n: int = 2,
    *,
    min_count: int = 5,
) -> LmiTable:
    """Score every observed (n-gram, label) pair by local mutual information.

    Only pairs with at least one occurrence are emitted; phrases whose total
    count across labels is below min_count are excluded (default 5, the
    conventional floor for association scores on noisy text). The logarithm
    is natural.

    Entries are grouped by label (real first), each group sorted by lmi
    descending with ties broken lexicographically by phrase.

    Occurrences are counted per label, one Counter each, filled in C by
    Counter.update; count(w) and count(l) are sums of those counters. A
    phrase appears once per label, so the sort key is total and the table
    does not depend on the order in which entries are built.

    Raises DataError("no phrases") when no document yields a single n-gram.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if min_count < 0:
        raise ValueError(f"min_count must be >= 0, got {min_count}")
    grams_of: dict[Label, Counter[str]] = {label: Counter() for label in Label}
    for doc in corpus:
        grams_of[doc.label].update(extract_ngrams(tokenize(doc.text), n))
    count_l = {label: grams.total() for label, grams in grams_of.items()}
    total = sum(count_l.values())
    if total == 0:
        raise DataError("no phrases: every document tokenizes to fewer than n tokens")
    p_label = {label: count_l[label] / total for label in Label}
    count_w: Counter[str] = Counter()
    for grams in grams_of.values():
        count_w.update(grams)
    entries = []
    for label, grams in grams_of.items():
        for phrase, c_wl in grams.items():
            c_w = count_w[phrase]
            if c_w < min_count:
                continue
            p_lw = c_wl / c_w
            lmi = (c_wl / total) * math.log(p_lw / p_label[label])
            entries.append(
                LmiEntry(
                    phrase=phrase,
                    label=label,
                    count_wl=c_wl,
                    count_w=c_w,
                    p_l_given_w=p_lw,
                    lmi=lmi,
                )
            )
    entries.sort(key=lambda e: (_LABEL_ORDER[e.label], -e.lmi, e.phrase))
    return LmiTable(n=n, total_phrases=total, p_label=p_label, entries=tuple(entries))


_LMI_SCALE = 1e6


def _format_scaled(lmi: float) -> str:
    return format(lmi * _LMI_SCALE, ".6g")


def export_lmi_table(
    table: LmiTable,
    *,
    top_k: int = 10,
    fmt: str = "tsv",
) -> str:
    """Render the top_k entries per label.

    fmt "tsv" emits the machine-readable table (header
    phrase/label/count_wl/count_w/p_l_given_w/lmi_scaled); fmt "text" emits
    an aligned human-readable listing. Scores are multiplied by 10^6 (so
    0.000218 prints as 218) and p(l|w) is rounded to two decimals in both
    renderings.
    """
    if top_k < 1:
        raise DataError(f"top_k must be >= 1, got {top_k}")
    if fmt not in ("tsv", "text"):
        raise DataError(f"unknown export format {fmt!r}; expected 'tsv' or 'text'")
    rows: list[LmiEntry] = []
    for label in Label:
        rows.extend(table.entries_for(label)[:top_k])
    if fmt == "tsv":
        lines = [LMI_TSV_HEADER]
        for e in rows:
            lines.append(
                f"{e.phrase}\t{e.label.value}\t{e.count_wl}\t{e.count_w}"
                f"\t{e.p_l_given_w:.2f}\t{_format_scaled(e.lmi)}"
            )
        return "\n".join(lines) + "\n"
    width = max((len(e.phrase) for e in rows), default=6)
    lines = [f"top {top_k} {table.n}-grams per label (lmi x {_LMI_SCALE:g})"]
    for label in Label:
        label_rows = [e for e in rows if e.label is label]
        if not label_rows:
            continue
        lines.append(f"-- {label.value} --")
        for e in label_rows:
            lines.append(
                f"{e.phrase:<{width}}  lmi={_format_scaled(e.lmi):>10}"
                f"  p(l|w)={e.p_l_given_w:.2f}  count={e.count_wl}/{e.count_w}"
            )
    return "\n".join(lines) + "\n"
