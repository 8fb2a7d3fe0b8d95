"""In-memory tracing of the diamask pipeline from outside the package.

`Tracer.install` replaces public functions at the module attributes the
pipeline calls through (every `diamask.*` module attribute bound to the
same function object, so `diamask.experiment.mask_corpus` and
`diamask.masking.mask_corpus` are both wrapped) and `uninstall` puts the
originals back.

Boundary functions (loaders, index functions, mask_corpus, train, evaluate,
featurize, ...) record spans `(id, name, start, end, parent, hot_s)`. The
per-item hot functions (FeatureSpace.bucket, resolve_person_label,
lookup_by_name, tag_with_gazetteer) only count calls and add up time; the
time of the outermost hot call is charged to the enclosing span as `hot_s`,
so a span's self time is its duration minus its child spans minus `hot_s`.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

perf_counter = time.perf_counter

# (module, attribute, span name); attribute "Class.method" wraps a method
SPANS = (
    ("diamask.corpus", "load_corpus", "corpus.load"),
    ("diamask.corpus", "save_corpus", "corpus.save"),
    ("diamask.corpus", "split_random", "corpus.split"),
    ("diamask.corpus", "split_by_time", "corpus.split"),
    ("diamask.annotate", "load_annotations", "annotate.load"),
    ("diamask.annotate", "load_gazetteer", "annotate.load"),
    ("diamask.annotate", "write_annotations", "annotate.write"),
    ("diamask.analysis", "compute_lmi", "analysis.lmi"),
    ("diamask.analysis", "export_lmi_table", "analysis.lmi"),
    ("diamask.wikidata", "index_dump", "wikidata.index_dump"),
    ("diamask.wikidata", "save_index", "wikidata.save"),
    ("diamask.wikidata", "load_index", "wikidata.load"),
    ("diamask.masking", "mask_corpus", "masking.mask_corpus"),
    ("diamask.experiment", "run_matrix", "experiment.run_matrix"),
    ("diamask.experiment", "train", "experiment.train"),
    ("diamask.experiment", "evaluate", "experiment.evaluate"),
    ("diamask.experiment", "featurize", "experiment.featurize"),
    ("diamask.experiment", "mcnemar", "experiment.mcnemar"),
    ("diamask.experiment", "MatrixReport.to_json", "experiment.render"),
    ("diamask.experiment", "MatrixReport.to_text", "experiment.render"),
)

HOT = (
    ("diamask.experiment", "FeatureSpace.bucket", "experiment.bucket"),
    ("diamask.wikidata", "resolve_person_label", "wikidata.resolve"),
    ("diamask.wikidata", "lookup_by_name", "wikidata.lookup"),
    ("diamask.annotate", "tag_with_gazetteer", "annotate.tag"),
)


@dataclass
class Hot:
    calls: int = 0
    total_s: float = 0.0
    keys: set = field(default_factory=set)
    durations: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def _normalize(name: str) -> str:
    return " ".join(name.casefold().split())


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self, dump_lines: dict[str, int] | None = None) -> None:
        self.dump_lines = dump_lines or {}
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, list]] = []
        self.hot: dict[str, Hot] = {}
        self.counts: dict[str, float] = {}
        self.sets: dict[str, set] = {}
        self.hot_depth = 0
        self._next_id = 0
        self._names: dict[int, tuple[object, set]] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.hot.clear()
        self.counts.clear()
        self.sets.clear()
        self._names.clear()
        self.hot_depth = 0

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @contextmanager
    def span(self, name: str):
        frame = [0.0]
        parent = self.stack[-1][0] if self.stack else -1
        sid = self._next_id
        self._next_id += 1
        self.stack.append((sid, frame))
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans.append((sid, name, t0, t1, parent, frame[0]))

    def _wrap_span(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        def wrapped(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _wrap_hot(self, name: str, fn):
        tracer = self
        observe = _HOT_OBSERVERS.get(name)

        def wrapped(*args, **kwargs):
            outer = tracer.hot_depth == 0
            tracer.hot_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.hot_depth -= 1
            stats = tracer.hot.get(name)
            if stats is None:
                stats = tracer.hot[name] = Hot()
            stats.calls += 1
            stats.total_s += dt
            if outer and tracer.stack:
                tracer.stack[-1][1][0] += dt
            if observe is not None:
                observe(tracer, stats, args, kwargs, result, dt)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for targets, wrap in ((SPANS, self._wrap_span), (HOT, self._wrap_hot)):
            for module_name, attr, name in targets:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name, None)
                    original = owner.__dict__.get(meth) if owner is not None else None
                    if original is None:
                        continue
                    self._patch(owner, meth, wrap(name, original))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapped = wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name == "diamask" or mod_name.startswith("diamask.")) and mod is not None:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- deriving metrics --------------------------------------------------

    def span_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name."""
        child: dict[int, float] = {}
        for sid, _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for sid, name, t0, t1, _, hot_s in self.spans:
            dur = t1 - t0
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child.get(sid, 0.0) - hot_s
        return total, self_s

    def metrics(self) -> dict[str, float]:
        total, self_s = self.span_times()
        c = self.counts
        hot = self.hot

        def h(name: str) -> Hot:
            return hot.get(name) or Hot()

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        resolve, lookup, bucket, tag = (
            h("wikidata.resolve"),
            h("wikidata.lookup"),
            h("experiment.bucket"),
            h("annotate.tag"),
        )
        lat = sorted(d * 1e6 for d in resolve.durations)
        feat_calls = c.get("featurize_calls", 0)
        return {
            "corpus.load_s": total.get("corpus.load", 0.0),
            "corpus.docs": c.get("docs_loaded", 0),
            "corpus.split_s": total.get("corpus.split", 0.0),
            "corpus.save_s": total.get("corpus.save", 0.0),
            "annotate.load_s": total.get("annotate.load", 0.0),
            "annotate.tag_s": tag.total_s,
            "annotate.tag_calls": tag.calls,
            "annotate.spans": tag.extra.get("spans", 0),
            "annotate.gazetteer_entries": c.get("gazetteer_entries", 0),
            "analysis.lmi_s": total.get("analysis.lmi", 0.0),
            "analysis.ngrams": c.get("ngrams", 0),
            "wikidata.index_dump_s": total.get("wikidata.index_dump", 0.0),
            "wikidata.dump_lines": c.get("dump_lines", 0),
            "wikidata.records": c.get("records", 0),
            "wikidata.retained_ratio": ratio(c.get("records", 0), c.get("dump_lines", 0)),
            "wikidata.malformed_lines": c.get("malformed_lines", 0),
            "wikidata.max_posting": c.get("max_posting", 0),
            "wikidata.save_s": total.get("wikidata.save", 0.0),
            "wikidata.load_s": total.get("wikidata.load", 0.0),
            "wikidata.resolve_calls": resolve.calls,
            "wikidata.resolve_s": resolve.total_s,
            "wikidata.resolve_p50_us": percentile(lat, 0.50),
            "wikidata.resolve_p99_us": percentile(lat, 0.99),
            "wikidata.resolve_unique_ratio": ratio(len(resolve.keys), resolve.calls),
            "wikidata.lookup_candidates_mean": ratio(lookup.extra.get("candidates", 0), lookup.calls),
            "wikidata.token_fallback_ratio": ratio(lookup.extra.get("token_fallback", 0), lookup.calls),
            "wikidata.per_fallback_ratio": ratio(resolve.extra.get("per", 0), resolve.calls),
            "masking.mask_corpus_calls": c.get("mask_calls", 0),
            "masking.docs_masked": c.get("docs_masked", 0),
            "masking.mask_self_s": self_s.get("masking.mask_corpus", 0.0),
            "masking.unique_doc_ratio": ratio(len(self.sets.get("masked_docs", ())), c.get("docs_masked", 0)),
            "experiment.featurize_calls": feat_calls,
            "experiment.featurize_s": total.get("experiment.featurize", 0.0),
            "experiment.featurize_unique_ratio": ratio(len(self.sets.get("texts", ())), feat_calls),
            "experiment.bucket_calls": bucket.calls,
            "experiment.bucket_s": bucket.total_s,
            "experiment.bucket_unique_ratio": ratio(len(bucket.keys), bucket.calls),
            "experiment.train_self_s": self_s.get("experiment.train", 0.0),
            "experiment.sgd_updates": c.get("sgd_updates", 0),
            "experiment.evaluate_self_s": self_s.get("experiment.evaluate", 0.0),
            "experiment.predict_calls": c.get("predict_calls", 0),
            "experiment.mcnemar_s": total.get("experiment.mcnemar", 0.0),
            "experiment.render_s": total.get("experiment.render", 0.0),
        }

    def index_names(self, index) -> set | dict:
        """The normalized full names an index can match exactly."""
        by_name = getattr(index, "by_name", None)
        if isinstance(by_name, dict):
            return by_name
        cached = self._names.get(id(index))
        if cached is None or cached[0] is not index:
            names = {
                _normalize(n)
                for r in index.records.values()
                for n in (r.primary_label, *r.aliases)
            }
            cached = self._names[id(index)] = (index, names)
        return cached[1]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


def max_posting(index) -> int:
    """Most records sharing one normalized name token."""
    counts: dict[str, int] = {}
    for r in index.records.values():
        tokens = set()
        for n in (r.primary_label, *r.aliases):
            tokens.update(_normalize(n).split(" "))
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
    return max(counts.values(), default=0)


# -- observers: run after the wrapped call, outside its span ---------------


def _obs_load_corpus(t: Tracer, args, kwargs, result) -> None:
    t.count("docs_loaded", len(result))


def _obs_load_gazetteer(t: Tracer, args, kwargs, result) -> None:
    # shared by load_annotations (a list) and load_gazetteer (a Gazetteer)
    entries = getattr(result, "entries", None)
    if entries is not None:
        t.count("gazetteer_entries", len(entries))


def _obs_lmi(t: Tracer, args, kwargs, result) -> None:
    total = getattr(result, "total_phrases", None)
    if total is not None:
        t.count("ngrams", total)


def _obs_index_dump(t: Tracer, args, kwargs, result) -> None:
    source = str(_arg(args, kwargs, 0, "source"))
    t.count("dump_lines", t.dump_lines.get(source, 0))
    t.count("records", len(result))
    t.count("malformed_lines", result.malformed_lines)
    t.count("max_posting", max_posting(result))


def _obs_mask_corpus(t: Tracer, args, kwargs, result) -> None:
    docs = _arg(args, kwargs, 0, "docs")
    policy = _arg(args, kwargs, 1, "policy")
    t.count("mask_calls")
    t.count("docs_masked", len(docs))
    seen = t.sets.setdefault("masked_docs", set())
    for ann in docs:
        seen.add((ann.document.id, ann.document.text, policy))


def _obs_train(t: Tracer, args, kwargs, result) -> None:
    corpus = _arg(args, kwargs, 0, "corpus")
    config = _arg(args, kwargs, 2, "config")
    epochs = config.epochs if config is not None else result.config.epochs
    t.count("sgd_updates", epochs * len(corpus))


def _obs_evaluate(t: Tracer, args, kwargs, result) -> None:
    t.count("predict_calls", len(_arg(args, kwargs, 1, "test")))


def _obs_featurize(t: Tracer, args, kwargs, result) -> None:
    t.count("featurize_calls")
    t.sets.setdefault("texts", set()).add(_arg(args, kwargs, 0, "text"))


_OBSERVERS = {
    "corpus.load": _obs_load_corpus,
    "annotate.load": _obs_load_gazetteer,
    "analysis.lmi": _obs_lmi,
    "wikidata.index_dump": _obs_index_dump,
    "masking.mask_corpus": _obs_mask_corpus,
    "experiment.train": _obs_train,
    "experiment.evaluate": _obs_evaluate,
    "experiment.featurize": _obs_featurize,
}


def _obs_bucket(t, stats: Hot, args, kwargs, result, dt) -> None:
    stats.keys.add(args[1] if len(args) > 1 else kwargs.get("phrase"))


def _obs_resolve(t, stats: Hot, args, kwargs, result, dt) -> None:
    surface = _arg(args, kwargs, 1, "surface")
    mode = _arg(args, kwargs, 2, "mode")
    stats.keys.add((surface, getattr(mode, "value", mode)))
    stats.durations.append(dt)
    if result.token == "PER":
        stats.extra["per"] = stats.extra.get("per", 0) + 1


def _obs_lookup(t: Tracer, stats: Hot, args, kwargs, result, dt) -> None:
    index = _arg(args, kwargs, 0, "index")
    key = _normalize(_arg(args, kwargs, 1, "surface"))
    stats.extra["candidates"] = stats.extra.get("candidates", 0) + len(result)
    if key and key not in t.index_names(index):
        stats.extra["token_fallback"] = stats.extra.get("token_fallback", 0) + 1


def _obs_tag(t: Tracer, stats: Hot, args, kwargs, result, dt) -> None:
    stats.extra["spans"] = stats.extra.get("spans", 0) + len(result.spans)


_HOT_OBSERVERS = {
    "experiment.bucket": _obs_bucket,
    "wikidata.resolve": _obs_resolve,
    "wikidata.lookup": _obs_lookup,
    "annotate.tag": _obs_tag,
}
