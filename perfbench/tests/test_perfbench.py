"""Tests of the benchmark itself: generators are pure, every check fires on
a corrupted output, the tracer reports every per-layer metric, and the
command meets its output contract.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402

SMALL = {
    "matrix": {"n_docs": 100, "persons": 4, "background": 40, "padding": 30},
    "longdoc": {"n_docs": 12, "tokens": 120, "persons": 60, "per_spans": 5, "other_spans": 5, "padding": 30},
    "index": {"entities_n": 600, "n_docs": 30},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _digest(work: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_pure(tmp_path: Path, name: str) -> None:
    a = gen.generate(name, tmp_path / "a", 7, **SMALL[name])
    b = gen.generate(name, tmp_path / "b", 7, **SMALL[name])
    c = gen.generate(name, tmp_path / "c", 8, **SMALL[name])
    assert _digest(tmp_path / "a") == _digest(tmp_path / "b")
    assert _digest(tmp_path / "a") != _digest(tmp_path / "c")
    assert a.properties == b.properties
    assert a.properties["docs"] > 0 and a.properties["retained_entities"] > 0


def test_zipf_top_share_is_exact() -> None:
    import random

    vocab = [f"w{i}" for i in range(300)]
    for seed in (1, 2):
        draws = gen.zipf_tokens(random.Random(seed), vocab, 1000, 0.2)
        assert draws.count("w0") == 200


@pytest.fixture(scope="module")
def ran(tmp_path_factory) -> dict:
    """One clean iteration of each workload at small size."""
    dm, _ = workload.import_diamask(ROOT)
    out = {}
    for name, sizes in SMALL.items():
        work = tmp_path_factory.mktemp(name)
        inputs = run.prepare(name, 3, work, **sizes)
        pipe = workload.Pipeline(dm, work, inputs.datasets, 3)
        rec = workload.run_iteration(pipe)
        rec["hashes"] = workload.hash_outputs(pipe.out)
        out[name] = (work, inputs, rec)
    return out


def _check(work: Path, inputs, rec: dict, name: str, iterations: list | None = None) -> checks.Tally:
    return checks.check_all(work, inputs.datasets, inputs.expected, iterations or [rec], run.REPAIR[name])


def _copy(tmp_path: Path, work: Path) -> Path:
    dest = tmp_path / "work"
    shutil.copytree(work, dest)
    return dest


@pytest.mark.parametrize("name", sorted(SMALL))
def test_clean_outputs_pass(ran, name: str) -> None:
    work, inputs, rec = ran[name]
    tally = _check(work, inputs, rec, name)
    assert tally.failed == 0, tally.failures
    assert tally.attempted > 20


def test_corrupt_report_fails(ran, tmp_path: Path) -> None:
    work, inputs, rec = ran["matrix"]
    work = _copy(tmp_path, work)
    path = work / "out" / "report.json"
    report = json.loads(path.read_text())
    cell = next(c for c in report["cells"] if c["mcnemar"] is not None)
    cell["mcnemar"]["p_raw"] *= 1.5
    report["cells"][0]["n_test"] += 1
    path.write_text(json.dumps(report))
    tally = _check(work, inputs, rec, "matrix")
    assert tally.failed >= 2
    assert any("p_raw" in f for f in tally.failures)
    assert any("n_test" in f for f in tally.failures)


def test_missing_repair_fails(ran, tmp_path: Path) -> None:
    work, inputs, rec = ran["matrix"]
    work = _copy(tmp_path, work)
    path = work / "out" / "report.json"
    report = json.loads(path.read_text())
    for cell in report["cells"]:
        if cell["policy"] == "wikid" and cell["train"] != cell["test"]:
            cell["accuracy"] = 0.0
    path.write_text(json.dumps(report))
    tally = _check(work, inputs, rec, "matrix")
    assert any("WikiD" in f for f in tally.failures)


def test_corrupt_mask_output_fails(ran, tmp_path: Path) -> None:
    work, inputs, rec = ran["index"]
    work = _copy(tmp_path, work)
    path = work / "out" / f"{inputs.datasets[0]}.wikid.dump-order.jsonl"
    lines = path.read_text().splitlines()
    doc = json.loads(lines[0])
    doc["text"] = doc["text"].replace("Q", "Q9", 1) if "Q" in doc["text"] else doc["text"] + " x"
    lines[0] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    tally = _check(work, inputs, rec, "index")
    assert tally.failed == 1
    assert "masked wrongly" in tally.failures[0]


def test_corrupt_index_fails(ran, tmp_path: Path) -> None:
    work, inputs, rec = ran["index"]
    work = _copy(tmp_path, work)
    path = work / "out" / "built.idx"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    facts = dict(rec["facts"], malformed_lines=rec["facts"]["malformed_lines"] + 1)
    tally = _check(work, inputs, dict(rec, facts=facts), "index")
    assert tally.failed == 2


def test_wrong_tagging_and_lmi_fail(ran, tmp_path: Path) -> None:
    work, inputs, rec = ran["longdoc"]
    work = _copy(tmp_path, work)
    path = work / "out" / f"{inputs.datasets[0]}.tagged.jsonl"
    lines = path.read_text().splitlines()
    ann = json.loads(lines[0])
    ann["spans"].pop()
    lines[0] = json.dumps(ann)
    path.write_text("\n".join(lines) + "\n")
    phrases = dict(rec["facts"]["total_phrases"])
    phrases[inputs.datasets[1]] -= 1
    tally = _check(work, inputs, dict(rec, facts=dict(rec["facts"], total_phrases=phrases)), "longdoc")
    assert tally.failed == 2


def test_nondeterministic_output_fails(ran) -> None:
    work, inputs, rec = ran["matrix"]
    other = dict(rec, hashes=dict(rec["hashes"], **{"report.json": "0" * 64}))
    tally = _check(work, inputs, rec, "matrix", iterations=[rec, rec, other])
    assert tally.failed == 1
    assert "report.json" in tally.failures[0]


def test_mcnemar_reference_branches() -> None:
    assert checks.mcnemar_p(0, 0) == 1.0
    assert checks.mcnemar_p(0, 10) == pytest.approx(2 / 1024)
    assert checks.mcnemar_p(20, 20) == pytest.approx(0.8744, abs=1e-4)


def test_tracer_reports_every_layer_metric_and_restores(ran) -> None:
    work, inputs, _ = ran["index"]
    dm, _ = workload.import_diamask(ROOT)
    original = dm.masking.mask_corpus
    tracer = tracing.Tracer({str(work / "dump.ndjson"): workload.count_lines(work / "dump.ndjson")})
    tracer.install()
    try:
        assert dm.experiment.mask_corpus is not original
        assert dm.experiment.mask_corpus is dm.masking.mask_corpus
        workload.run_iteration(workload.Pipeline(dm, work, inputs.datasets, 3, tracer))
    finally:
        tracer.uninstall()
    assert dm.masking.mask_corpus is original and dm.experiment.mask_corpus is original
    metrics = tracer.metrics()
    derived = {"wikidata.build_growth", "trace.overhead_s"}
    assert set(metrics) | derived == {m["name"] for m in SPEC["per_layer"]}
    for name in ("corpus.docs", "wikidata.resolve_calls", "experiment.bucket_calls", "masking.docs_masked"):
        assert metrics[name] > 0, name
    assert metrics["wikidata.malformed_lines"] == inputs.expected["malformed"]
    assert metrics["wikidata.max_posting"] == inputs.expected["max_posting"]
    assert 0 < metrics["wikidata.token_fallback_ratio"] < 1
    assert 0 < metrics["wikidata.per_fallback_ratio"] < 1
    assert metrics["corpus.load_s"] > 0 and metrics["masking.mask_self_s"] > 0


def test_self_time_subtracts_children_and_hot_calls() -> None:
    t = tracing.Tracer()
    t.spans.extend([
        (0, "outer", 0.0, 10.0, -1, 1.0),
        (1, "inner", 2.0, 5.0, 0, 0.5),
    ])
    total, self_s = t.span_times()
    assert total == {"outer": 10.0, "inner": 3.0}
    assert self_s == {"outer": 6.0, "inner": 2.5}


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace: str) -> None:
    proc = _run(["--workload", "matrix", "--seed", "2", "--seconds", "0.1", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        if trace == "0":
            assert got["value"] > 0, m["name"]


def test_command_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(["--workload", "index", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
