"""Output checks. Each check reads the files a run wrote and compares them
with what the generator put in; none compares report bytes, so a change
that only reorders float sums passes as long as every number still holds.

A `Tally` counts attempted and failed checks; each failure keeps a line of
detail for the run's stderr.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

POLICIES = ("no-mask", "ne-del", "basic-ner", "wikid", "wikid-del", "wikid-ner")
TRAIN_FRACTION = Fraction("0.8")
REPAIR_MARGIN = 0.2
REL_TOL = 1e-9


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def mcnemar_p(b: int, c: int) -> float:
    """Two-sided McNemar p-value: exact binomial below 25 discordant pairs,
    continuity-corrected chi-square (1 df) otherwise."""
    n = b + c
    if n < 25:
        return min(1.0, sum(math.comb(n, k) for k in range(min(b, c) + 1)) / 2 ** (n - 1))
    stat = (abs(b - c) - 1.0) ** 2 / n
    return math.erfc(math.sqrt(stat / 2.0))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def check_report(t: Tally, out: Path, sizes: dict[str, int], repair: bool) -> None:
    """The experiment report: every (train, test, policy) cell present with
    the right n_test, McNemar p-values that follow from b and c, a text grid
    that agrees with the JSON and, for `repair`, the paper's result: mean
    cross-period WikiD accuracy beats No Mask by at least REPAIR_MARGIN."""
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        text = (out / "report.txt").read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        t.check(False, f"report unreadable: {exc}")
        return
    names = list(sizes)
    cells = {(c["train"], c["test"], c["policy"]): c for c in report.get("cells", [])}
    t.check(
        len(report.get("cells", [])) == len(names) ** 2 * len(POLICIES)
        and set(cells) == {(a, b, p) for a in names for b in names for p in POLICIES},
        f"report cells {len(report.get('cells', []))}, expected {len(names) ** 2 * len(POLICIES)}",
    )
    m = len(POLICIES) - 1
    for (train, test, policy), cell in sorted(cells.items()):
        n = sizes[test]
        n_test = n - math.floor(TRAIN_FRACTION * n) if train == test else n
        t.check(cell["n_test"] == n_test, f"{train}/{test}/{policy}: n_test {cell['n_test']} != {n_test}")
        t.check(0.0 <= cell["accuracy"] <= 1.0, f"{train}/{test}/{policy}: accuracy {cell['accuracy']}")
        mc = cell["mcnemar"]
        if policy == "no-mask":
            t.check(mc is None, f"{train}/{test}/no-mask carries a McNemar test")
            continue
        if not t.check(mc is not None, f"{train}/{test}/{policy}: no McNemar test"):
            continue
        p = mcnemar_p(mc["b"], mc["c"])
        t.check(mc["b"] + mc["c"] <= n_test, f"{train}/{test}/{policy}: b + c > n_test")
        t.check(_close(mc["p_raw"], p), f"{train}/{test}/{policy}: p_raw {mc['p_raw']} != {p}")
        t.check(
            _close(mc["p_adjusted"], min(1.0, m * p)) and mc["m"] == m,
            f"{train}/{test}/{policy}: p_adjusted {mc['p_adjusted']} != {min(1.0, m * p)}",
        )
    grid = _parse_grid(text)
    for (train, test, policy), cell in cells.items():
        star = "*" if cell["mcnemar"] is not None and cell["mcnemar"]["p_adjusted"] < 0.05 else ""
        want = f"{cell['accuracy']:.3f}{star}"
        got = grid.get((train, test, policy))
        t.check(got == want, f"text grid {train}/{test}/{policy}: {got!r} != {want!r}")
    if repair:
        cross = [(a, b) for a in names for b in names if a != b]
        raw = sum(cells[(a, b, "no-mask")]["accuracy"] for a, b in cross) / len(cross)
        fixed = sum(cells[(a, b, "wikid")]["accuracy"] for a, b in cross) / len(cross)
        t.check(
            fixed >= raw + REPAIR_MARGIN,
            f"cross-period WikiD accuracy {fixed:.3f} not >= No Mask {raw:.3f} + {REPAIR_MARGIN}",
        )


_DISPLAY = {
    "No Mask": "no-mask",
    "NE Del": "ne-del",
    "Basic NER": "basic-ner",
    "WikiD": "wikid",
    "WikiD+Del": "wikid-del",
    "WikiD+NER": "wikid-ner",
}


def _parse_grid(text: str) -> dict[tuple[str, str, str], str]:
    """(train, test, policy) -> cell text from the accuracy grid."""
    grid = {}
    train = None
    tests: list[str] = []
    for line in text.splitlines():
        if line.startswith("train="):
            head, *tests = line.split()
            train = head[len("train="):]
        elif line.startswith("  ") and train is not None:
            label = line.split()
            values = label[-len(tests):]
            policy = _DISPLAY.get(" ".join(label[: -len(tests)]))
            for test, value in zip(tests, values):
                grid[(train, test, policy)] = value
    return grid


def check_audit(t: Tally, work: Path, out: Path, datasets: list[str], facts: dict, expected: dict) -> None:
    """LMI counted every bigram the generator wrote, and the gazetteer
    tagger found exactly the spans the generator inserted."""
    phrases = facts.get("total_phrases", {})
    for n in datasets:
        t.check(
            phrases.get(n) == expected["bigrams"][n],
            f"{n}: LMI total_phrases {phrases.get(n)} != {expected['bigrams'][n]} bigrams",
        )
        try:
            t.check((out / f"{n}.lmi.tsv").read_text(encoding="utf-8").startswith("phrase\tlabel\t"),
                    f"{n}: LMI table has no header")
            tagged = _read_jsonl(out / f"{n}.tagged.jsonl")
            inserted = _read_jsonl(work / f"{n}.ann.jsonl")
        except (OSError, ValueError) as exc:
            t.check(False, f"{n}: audit output unreadable: {exc}")
            continue
        t.check(tagged == inserted, f"{n}: tagged spans differ from the inserted spans")


def check_index(t: Tally, out: Path, facts: dict, expected: dict) -> None:
    """The built index kept every retainable entity and counted every
    malformed dump line."""
    t.check(facts.get("records") == expected["retained"],
            f"index records {facts.get('records')} != {expected['retained']} retained")
    t.check(facts.get("malformed_lines") == expected["malformed"],
            f"malformed_lines {facts.get('malformed_lines')} != {expected['malformed']} injected")
    try:
        lines = (out / "built.idx").read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
    except (OSError, ValueError, IndexError) as exc:
        t.check(False, f"saved index unreadable: {exc}")
        return
    t.check(header.get("record_count") == expected["retained"] == len(lines) - 1,
            f"saved index holds {len(lines) - 1} records, header {header.get('record_count')}, "
            f"expected {expected['retained']}")


def masked_text(text: str, spans: list[dict], tokens: list) -> str:
    """WikiD output for one document: each person span becomes its role
    token, every other span stays verbatim (no deletions, so no spacing
    changes)."""
    pieces = []
    cursor = 0
    for span, token in zip(spans, tokens):
        pieces.append(text[cursor : span["start"]])
        pieces.append(span["text"] if token is None else token)
        cursor = span["end"]
    pieces.append(text[cursor:])
    return "".join(pieces)


def check_mask(t: Tally, work: Path, out: Path, datasets: list[str], expected: dict) -> None:
    """Every person span was masked to the role the reference resolver
    predicts (unique names to their first-listed role, unknown names to
    PER), in both resolve modes; ids, labels and order are unchanged."""
    for n in datasets:
        corpus = _read_jsonl(work / f"{n}.jsonl")
        spans = _read_jsonl(work / f"{n}.ann.jsonl")
        for mode, per_dataset in expected["mask"].items():
            path = out / f"{n}.wikid.{mode}.jsonl"
            try:
                masked = _read_jsonl(path)
            except (OSError, ValueError) as exc:
                t.check(False, f"{path.name} unreadable: {exc}")
                continue
            if not t.check(len(masked) == len(corpus), f"{path.name}: {len(masked)} docs, expected {len(corpus)}"):
                continue
            bad = [
                doc["id"]
                for doc, got, ann, tokens in zip(corpus, masked, spans, per_dataset[n])
                if got["id"] != doc["id"]
                or got["label"] != doc["label"]
                or got["text"] != masked_text(doc["text"], ann["spans"], tokens)
            ]
            t.check(not bad, f"{path.name}: {len(bad)} documents masked wrongly, first {bad[:3]}")


def check_determinism(t: Tally, hashes: list[dict[str, str]]) -> None:
    """Every iteration of the run wrote byte-identical outputs."""
    if not hashes:
        return
    first = hashes[0]
    for i, h in enumerate(hashes[1:], start=1):
        for name in sorted(set(first) | set(h)):
            t.check(h.get(name) == first.get(name), f"iteration {i}: {name} differs from iteration 0")


def check_all(work: Path, datasets: list[str], expected: dict, iterations: list[dict], repair: bool) -> Tally:
    t = Tally()
    out = work / "out"
    facts = iterations[-1]["facts"] if iterations else {}
    sizes = {n: sum(1 for _ in (work / f"{n}.jsonl").open(encoding="utf-8")) for n in datasets}
    check_audit(t, work, out, datasets, facts, expected)
    check_index(t, out, facts, expected)
    check_mask(t, work, out, datasets, expected)
    check_report(t, out, sizes, repair)
    check_determinism(t, [it["hashes"] for it in iterations])
    return t
