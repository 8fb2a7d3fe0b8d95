"""The measured process: drives diamask on one workload's generated inputs.

Run by run.py, one process per run, single-threaded and closed-loop: each
operation starts when the previous one has returned. It calls the public
functions the CLI handlers call, in the same order, and writes every output
to a file.

One iteration is one pass of the pipeline on fresh objects:

    setup       load_corpus, load_annotations (each dataset), load_gazetteer
    audit       compute_lmi + export_lmi_table, tag_with_gazetteer +
                write_annotations (each dataset)                 -> audit_s
    index build index_dump(dump) + save_index                    -> index_build_s
    index load  load_index(the index just saved)                 -> index_load_s
    mask        mask_corpus + save_corpus under WikiD, both resolve
                modes, with the index just loaded (each dataset)  -> mask_s
    experiment  run_matrix over every dataset and all six policies with
                that index, random split, ood_full, then
                to_json/to_text                                  -> experiment_s

Every step is bracketed by host-speed calibrations (speed.py), so run.py
can normalize each step's time. After one warm-up iteration, iterations
repeat until --seconds have passed (at least MIN_ITERATIONS). With
--trace 1, iterations alternate untraced and traced; per-layer metrics come
from the traced ones and the difference of the two wall-time medians is the
tracing overhead.

`--setup-only` imports diamask, runs the setup loads and loads the prepared
index (index.idx in the work directory) once, then exits; run.py starts
several of these to measure set-up time with a cold import each time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from gen import SNAPSHOT
from speed import calibrate

perf_counter = time.perf_counter
MIN_ITERATIONS = 3


def import_diamask(root: Path):
    """Import diamask from the checkout's src/, never from anywhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import diamask
    import diamask.analysis
    import diamask.annotate
    import diamask.corpus
    import diamask.experiment
    import diamask.masking
    import diamask.wikidata

    elapsed = perf_counter() - t0
    if not Path(diamask.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"diamask imported from {diamask.__file__}, not from {src}")
    return diamask, elapsed


class Pipeline:
    def __init__(self, dm, work: Path, datasets: list[str], seed: int, tracer=None) -> None:
        self.dm = dm
        self.work = work
        self.out = work / "out"
        self.out.mkdir(exist_ok=True)
        self.datasets = datasets
        self.seed = seed
        self.tracer = tracer

    def _stage(self, name: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(f"stage.{name}")

    def setup(self) -> dict:
        dm, w = self.dm, self.work
        with self._stage("setup"):
            corpora = {n: dm.corpus.load_corpus(w / f"{n}.jsonl", name=n) for n in self.datasets}
            annotated = {
                n: dm.annotate.load_annotations(corpora[n], w / f"{n}.ann.jsonl") for n in self.datasets
            }
            gazetteer = dm.annotate.load_gazetteer(w / "gazetteer.tsv")
        return {"corpora": corpora, "annotated": annotated, "gazetteer": gazetteer}

    def audit(self, inp: dict) -> dict:
        dm, out = self.dm, self.out
        facts = {}
        with self._stage("audit"):
            for n, corpus in inp["corpora"].items():
                table = dm.analysis.compute_lmi(corpus, n=2)
                rendered = dm.analysis.export_lmi_table(table, top_k=20, fmt="tsv")
                (out / f"{n}.lmi.tsv").write_text(rendered, encoding="utf-8")
                facts[n] = table.total_phrases
                tagged = [dm.annotate.tag_with_gazetteer(doc, inp["gazetteer"]) for doc in corpus]
                dm.annotate.write_annotations(tagged, out / f"{n}.tagged.jsonl")
        return {"total_phrases": facts}

    def index_build(self, inp: dict) -> dict:
        dm = self.dm
        with self._stage("index_build"):
            index = dm.wikidata.index_dump(
                self.work / "dump.ndjson", SNAPSHOT, person_only=True, strict=False
            )
            dm.wikidata.save_index(index, self.out / "built.idx")
        return {"records": len(index), "malformed_lines": index.malformed_lines}

    def index_load(self, inp: dict) -> dict:
        with self._stage("index_load"):
            inp["built"] = self.dm.wikidata.load_index(self.out / "built.idx")
        return {}

    def mask(self, inp: dict) -> dict:
        dm = self.dm
        with self._stage("mask"):
            for mode in dm.wikidata.ResolveMode:
                for n, docs in inp["annotated"].items():
                    masked, _ = dm.masking.mask_corpus(
                        docs, dm.masking.MaskPolicy.WIKID, inp["built"], mode, name=n
                    )
                    dm.corpus.save_corpus(masked, self.out / f"{n}.wikid.{mode.value}.jsonl")
        return {}

    def experiment(self, inp: dict) -> dict:
        dm = self.dm
        ex = dm.experiment
        with self._stage("experiment"):
            bundles = [ex.DatasetBundle(name=n, docs=tuple(d)) for n, d in inp["annotated"].items()]
            split = dm.corpus.SplitSpec(
                mode=dm.corpus.SplitMode.RANDOM_HOLDOUT, train_fraction=0.8, seed=self.seed
            )
            report = ex.run_matrix(
                bundles,
                list(dm.masking.MaskPolicy),
                {n: inp["built"] for n in self.datasets},
                split,
                resolve_mode=dm.wikidata.ResolveMode.DUMP_ORDER,
                ood_full=True,
            )
            (self.out / "report.json").write_text(report.to_json(), encoding="utf-8")
            (self.out / "report.txt").write_text(report.to_text(), encoding="utf-8")
        return {}


def hash_outputs(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


STAGES = ("audit_s", "index_build_s", "index_load_s", "mask_s", "experiment_s")


def run_iteration(pipe: Pipeline) -> dict:
    """One pass of the pipeline. Raises on the first failing operation, with
    the stage name attached. Each timed step is bracketed by host-speed
    calibrations (see speed.py), kept as `brackets[step] = (before, after)`.
    A full collection first puts the cyclic garbage collector in the same
    state every time, so its pauses fall at the same points in every
    iteration instead of in a different stage each time."""
    gc.collect()
    rec: dict = {"stages": {}, "facts": {}, "brackets": {}}
    before = calibrate()
    t0 = perf_counter()
    inp = pipe.setup()
    rec["setup_s"] = perf_counter() - t0
    after = calibrate()
    rec["brackets"]["setup_s"] = (before, after)
    for stage in STAGES:
        before = after
        t0 = perf_counter()
        try:
            facts = getattr(pipe, stage.removesuffix("_s"))(inp)
        except Exception as exc:
            exc.stage = stage
            raise
        rec["stages"][stage] = perf_counter() - t0
        after = calibrate()
        rec["brackets"][stage] = (before, after)
        rec["facts"].update(facts)
    rec["wall_s"] = sum(rec["stages"].values())
    return rec


def build_growth(dm, work: Path, reps: int = 3) -> float:
    """index_dump time on the full dump over time on its first quarter."""
    times = {}
    for name in ("dump_quarter.ndjson", "dump.ndjson"):
        samples = []
        for _ in range(reps):
            t0 = perf_counter()
            dm.wikidata.index_dump(work / name, SNAPSHOT, person_only=True)
            samples.append(perf_counter() - t0)
        times[name] = sorted(samples)[len(samples) // 2]
    return times["dump.ndjson"] / times["dump_quarter.ndjson"]


def count_lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--datasets", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    datasets = args.datasets.split(",")

    before = calibrate()
    dm, import_s = import_diamask(args.root)
    if args.setup_only:
        pipe = Pipeline(dm, args.work, datasets, args.seed)
        t0 = perf_counter()
        pipe.setup()
        dm.wikidata.load_index(args.work / "index.idx")
        setup_s = import_s + perf_counter() - t0
        print(json.dumps({"setup_s": setup_s, "calib": [before, calibrate()]}))
        return 0

    from tracing import Tracer

    dump = args.work / "dump.ndjson"
    tracer = Tracer({str(dump): count_lines(dump)})
    plain = Pipeline(dm, args.work, datasets, args.seed)
    traced = Pipeline(dm, args.work, datasets, args.seed, tracer)
    result: dict = {"iterations": [], "error": None}
    deadline = perf_counter() + args.seconds
    i = -1  # iteration -1 warms up: its outputs are checked, its times are not kept
    while i < MIN_ITERATIONS * (2 if args.trace else 1) or perf_counter() < deadline:
        use_trace = bool(args.trace) and i >= 0 and i % 2 == 1
        try:
            if use_trace:
                tracer.reset()
                tracer.install()
                try:
                    rec = run_iteration(traced)
                finally:
                    tracer.uninstall()
                rec["layers"] = tracer.metrics()
            else:
                rec = run_iteration(plain)
        except Exception as exc:
            result["error"] = {"stage": getattr(exc, "stage", "setup_s"), "traceback": traceback.format_exc()}
            break
        rec["traced"] = use_trace
        rec["warmup"] = i < 0
        rec["hashes"] = hash_outputs(plain.out)
        result["iterations"].append(rec)
        i += 1
    if args.trace and result["error"] is None:
        (args.work / "spans.jsonl").write_text(
            "".join(json.dumps(s) + "\n" for s in tracer.spans), encoding="utf-8"
        )
        result["build_growth"] = build_growth(dm, args.work)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
