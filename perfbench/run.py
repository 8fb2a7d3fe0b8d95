"""diamask benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The run generates the workload's inputs
from --seed under perfbench/.work/, builds their entity index with the
checkout's diamask, measures set-up time in SETUP_PROBES fresh processes,
then runs the pipeline in one measured process (workload.py) for --seconds,
checks every output against the generator's expectations and prints, as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the run's
iterations); with --trace 1 they are the per-layer ones from the traced
iterations. The line before it describes the inputs and, per metric, the
sample count, median and maximum. `attempted` counts pipeline stages run
plus output checks made, and `failed` those that failed; failed/attempted is
the run's error rate.

Exits 1 without a result line when the checkout has no diamask to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workload import STAGES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("matrix", "longdoc", "index")
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150
UNITS = {"_s": "s", "_us": "us", "_mb": "MB", "_ratio": "ratio", "_mean": "count", "growth": "ratio"}
# the matrix workload reproduces the paper's cross-period repair
REPAIR = {"matrix": True, "longdoc": False, "index": False}


def unit(name: str) -> str:
    for suffix, u in UNITS.items():
        if name.endswith(suffix):
            return u
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # A fixed threshold turns off glibc's sliding mmap threshold. With the
    # sliding threshold, whether a freed 8 MB weight vector stays resident
    # depends on allocation history, and peak RSS jumped between 55 and 63 MB
    # from run to run of the same workload.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--root", str(ROOT), *args],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )


def prepare(workload: str, seed: int, work: Path, **sizes):
    """Generate the inputs and build their index with the checkout's diamask.
    `sizes` override the generator's defaults (the tests run small inputs)."""
    sys.path.insert(0, str(ROOT / "src"))
    import gen
    from diamask import wikidata

    shutil.rmtree(work, ignore_errors=True)
    inputs = gen.generate(workload, work, seed, **sizes)
    index = wikidata.index_dump(work / "dump.ndjson", gen.SNAPSHOT, person_only=True)
    wikidata.save_index(index, work / "index.idx")
    return inputs


def stage_times(it: dict) -> dict[str, float]:
    """An iteration's stage times, normalized to the reference host speed
    with the calibrations taken just before and after each stage."""
    return {stage: speed.normalize(it["stages"][stage], *it["brackets"][stage]) for stage in STAGES}


def summarize(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values), "max": max(values)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "diamask" / "__init__.py").is_file():
        print(f"error: no diamask package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    started = time.monotonic()
    work = HERE / ".work" / args.workload
    try:
        inputs = prepare(args.workload, args.seed, work)
    except ImportError as exc:
        print(f"error: cannot import diamask: {exc}", file=sys.stderr)
        return 1
    common = ["--work", str(work), "--datasets", ",".join(inputs.datasets), "--seed", str(args.seed)]

    setup = []
    try:
        for _ in range(SETUP_PROBES):
            probe = run_child([*common, "--setup-only"], timeout=60)
            if probe.returncode != 0:
                print(f"{probe.stderr}\nerror: set-up failed", file=sys.stderr)
                return 1
            sample = json.loads(probe.stdout.strip().splitlines()[-1])
            setup.append((sample["setup_s"], *sample["calib"]))
        budget = CHILD_TIMEOUT_S - (time.monotonic() - started)
        proc = run_child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], budget)
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result_path = work / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        print(f"{proc.stderr}\nerror: the measured process did not finish", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))
    iterations = result["iterations"]

    import checks

    tally = checks.check_all(work, inputs.datasets, inputs.expected, iterations, REPAIR[args.workload])
    attempted = tally.attempted + len(STAGES) * len(iterations)
    failed = tally.failed
    if result["error"] is not None:
        attempted += 1
        failed += 1
        print(f"{result['error']['stage']} failed:\n{result['error']['traceback']}", file=sys.stderr)
    for line in tally.failures:
        print(f"check failed: {line}", file=sys.stderr)

    samples: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    plain = [it for it in iterations if not it["traced"] and not it["warmup"]]
    traced = [it for it in iterations if it["traced"] and not it["warmup"]]
    if args.trace == 0:
        samples["setup_s"] = [speed.normalize(*probe) for probe in setup]
        raw["setup_s"] = [probe[0] for probe in setup]
        samples["wall_s"] = [sum(stage_times(it).values()) for it in plain]
        raw["wall_s"] = [it["wall_s"] for it in plain]
        for stage in STAGES:
            samples[stage] = [stage_times(it)[stage] for it in plain]
            raw[stage] = [it["stages"][stage] for it in plain]
    else:
        for it in traced:
            for name, value in it["layers"].items():
                samples.setdefault(name, []).append(value)
        if plain and traced:
            overhead = statistics.median(
                sum(stage_times(it).values()) for it in traced
            ) - statistics.median(sum(stage_times(it).values()) for it in plain)
            samples["trace.overhead_s"] = [overhead]
        if "build_growth" in result:
            samples["wikidata.build_growth"] = [result["build_growth"]]
    metrics = {
        name: {"value": statistics.median(values), "unit": unit(name)}
        for name, values in samples.items()
        if values
    }
    if args.trace == 0:
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": inputs.properties,
        "iterations": {"plain": len(plain), "traced": len(traced)},
        "samples": {name: summarize(values) for name, values in samples.items() if values},
        "raw_samples": {name: summarize(values) for name, values in raw.items() if values},
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
