"""Classifier, paired significance testing, and the evaluation matrix.

The classifier is intentionally simple and fully deterministic: hashed
bag-of-ngrams features (keyed blake2b, so results do not depend on process
hash salting) into a logistic regression trained by plain SGD with a seeded
per-epoch shuffle. Bitwise reproducibility for a fixed seed is part of the
contract; it is what makes byte-identical experiment reruns possible.

Paired comparisons between two models on the same test set use McNemar's
test on the discordant counts b (baseline right, contender wrong) and c
(the reverse): the exact two-sided binomial when b + c < 25, otherwise the
continuity-corrected chi-square with one degree of freedom. Multiple
comparisons against the same baseline are Bonferroni-adjusted.

A featurized document (a row) is the bucket -> count dict featurize returns,
from masking to scoring. A row's score has one definition, _score: its terms
(weight * count, in the row's order) added left to right from -0.0, then the
bias. Training and evaluation both sum in that one order; where the weights are
Python floats, each term is added as it is made, in one pass over the row. No
score is summed by BLAS, whose order depends on the CPU, so models and reports
have the same bytes on every machine.
A model's weights are a bucket -> weight map holding only the buckets its
training rows (or its file) name: the bucket space is a hash range, not a
parameter vector, and a bucket missing from the map weighs 0.0.

_fit runs SGD in one of two arms, picked once per fit by the mean bucket
count of the training rows. Below _NUMPY_ROW (40) buckets, w is a Python list
of floats and each row a list of (column, count) pairs. At or above it, w and
each row's columns and counts are numpy arrays, so that an update gathers and
writes a row's weights in one operation each. An update costs the same on both
at 36-40 buckets (measured at _NUMPY_ROW). The benchmark's matrix and index rows
hold 7-18 buckets on average, its longdoc rows 400-480. Only the numpy arm imports
numpy, so a run that trains on no long rows never loads it. Scoring a row is one
pass over its dict, as the list arm's update is.

The step commands (split, train, eval) and run_matrix take one path through
each step: a corpus is split by SplitSpec.apply, texts become rows through
_rows (each distinct text featurized once), rows and labels become a model
through _fit, which always takes its SGD order (_sgd_order), and a model
scores rows through _evaluate_rows.

run_matrix ties it together: each dataset is split and its gold labels read
once; under each policy its documents are masked to text alone (mask_text,
no replacement log), then for every (training dataset, policy) pair it trains
and evaluates in-domain and on every other dataset, and scores each masked
policy against the no-mask baseline per cell. The same texts give the same
rows, and the same rows and labels the same model and predictions, so one
rule shares the work: each (training slice, scored slice) pair, a slice being
masked texts and gold labels, is evaluated once per call, whichever policies
and datasets meet it. That covers a policy that masks every dataset as an
earlier one did (the WikiD family on a corpus with person spans only), which
fits nothing, and datasets whose training slices are alike under a policy
(mirrored periods once their persons are masked), which share one model.
Masked texts are featurized on first need, once per policy. The SGD order
depends only on the training size and the config, so every fit of one size
in a call takes the same order, shuffled once.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import random
from dataclasses import dataclass, replace
from datetime import date as Date, timedelta
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .analysis import extract_ngrams, tokenize
from .annotate import AnnotatedDocument, NeSpan, NeTag
from .corpus import Corpus, Document, Label, SplitSpec
from .errors import DataError, fields, json_file, prefixed, write_json_lines
from .errors import INTEGER, LIST, OBJECT, STRING, finite, number  # converters for fields
# mask_corpus is unused here; perfbench's tracer test reads diamask.experiment.mask_corpus
from .masking import MaskPolicy, mask_corpus, mask_text  # noqa: F401
from .wikidata import (
    EntityIndex,
    EntityRecord,
    ResolveMode,
    RoleProperty,
    Statement,
    qid_sort_key,
)

__all__ = [
    "FeatureSpace",
    "featurize",
    "TrainConfig",
    "Model",
    "train",
    "evaluate",
    "EvalCell",
    "save_model",
    "load_model",
    "McNemarResult",
    "mcnemar",
    "DatasetBundle",
    "MatrixCell",
    "MatrixReport",
    "run_matrix",
    "SyntheticData",
    "synth_diachronic_corpus",
]

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# features


@dataclass(frozen=True)
class FeatureSpace:
    """Hashed n-gram feature space: orders to extract, a power-of-two bucket
    count (at most 2**63, as bucket ids are stored as int64), and the 64-bit
    key for the hash."""

    orders: tuple[int, ...] = (1, 2)
    dimensions: int = 2**20
    hash_seed: int = 0

    def __post_init__(self) -> None:
        orders = tuple(sorted(set(self.orders)))
        if not orders or orders[0] < 1:
            raise DataError(f"n-gram orders must be >= 1, got {self.orders}")
        object.__setattr__(self, "orders", orders)
        if not 2 <= self.dimensions <= 2**63 or self.dimensions & (self.dimensions - 1):
            raise DataError(
                f"dimensions must be a power of two in [2, 2**63], got {self.dimensions}"
            )
        if not (0 <= self.hash_seed < 2**64):
            raise DataError("hash_seed must fit in 64 bits")

    def bucket(self, phrase: str) -> int:
        digest = hashlib.blake2b(
            phrase.encode("utf-8"),
            digest_size=8,
            key=self.hash_seed.to_bytes(8, "little"),
        ).digest()
        return int.from_bytes(digest, "big") & (self.dimensions - 1)


# FeatureSpace's fields as the experiment config and a model file hold them
FEATURE_FIELDS = {"orders": lambda raw: tuple(map(INTEGER, LIST(raw))),
                  "dimensions": INTEGER, "hash_seed": INTEGER}


def featurize(text: str, space: FeatureSpace) -> dict[int, int]:
    """Sparse bucket -> occurrence-count vector for one text. Empty text (or
    text shorter than every order) gives the zero vector."""
    return _bucket_counts(text, space, {})


def _bucket_counts(text: str, space: FeatureSpace, memo: dict[str, int]) -> dict[int, int]:
    """featurize, with phrase -> bucket looked up in `memo` (filled on a miss).
    Buckets appear in the order their first n-gram does, orders ascending."""
    tokens = tokenize(text)
    vec: dict[int, int] = {}
    for n in space.orders:
        for gram in extract_ngrams(tokens, n):
            idx = memo.get(gram)
            if idx is None:
                idx = memo[gram] = space.bucket(gram)
            vec[idx] = vec.get(idx, 0) + 1
    return vec


def _rows(
    texts: Sequence[str],
    row_of: dict[str, dict[int, int]],
    space: FeatureSpace,
    memo: dict[str, int],
) -> list[dict[int, int]]:
    """The rows of texts, each featurized on its first need and kept in row_of."""
    for text in texts:
        if text not in row_of:
            row_of[text] = _bucket_counts(text, space, memo)
    return [row_of[text] for text in texts]


def _score(bias: float, terms: Iterable[float]) -> float:
    """A row's score: its terms added one at a time, left to right, from -0.0
    (the identity of float addition, so an empty row scores exactly its bias),
    then the bias. _score_row and _sgd_lists make this sum in one pass, adding
    each term as they make it. np.add.accumulate also adds strictly left to
    right, each sum from the one before, so its last element is this total
    (-0.0 + x is x), which is what _sgd_numpy passes here. Not sum()
    (compensated from Python 3.12 on), reduceat or np.sum (pairwise) or a dot
    product (its order depends on the CPU's BLAS kernel)."""
    total = -0.0
    for term in terms:
        total += term
    return bias + total


def _score_row(weights: Mapping[int, float], bias: float, row: Mapping[int, int]) -> float:
    """A featurized row's _score under weights, in one pass; a bucket they lack adds 0.0."""
    total = -0.0
    for b, c in row.items():
        total += weights.get(b, 0.0) * c
    return bias + total


# ---------------------------------------------------------------------------
# logistic regression


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 0.1
    l2: float = 1e-6
    seed: int = 7

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise DataError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise DataError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise DataError(f"l2 must be finite and >= 0, got {self.l2}")


# TrainConfig's fields as the experiment config and a model file hold them
TRAIN_FIELDS = {"epochs": INTEGER, "learning_rate": number, "l2": number, "seed": INTEGER}


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass
class Model:
    """Trained logistic model. Scores point toward the fake label: the
    predicted label is fake iff sigmoid(score) > 0.5, ties toward real.
    weights maps bucket -> weight; a bucket it does not hold weighs 0.0."""

    space: FeatureSpace
    config: TrainConfig
    train_set: str
    weights: dict[int, float]
    bias: float

    def predict(self, text: str) -> Label:
        return self._predict_row(featurize(text, self.space))

    def _predict_row(self, row: Mapping[int, int]) -> Label:
        score = _score_row(self.weights, self.bias, row)
        if not math.isfinite(score):
            # finite weights can still overflow: 1e308 * 2 is inf, and inf + -inf is nan
            raise DataError(f"a document scores {score}, not a finite number")
        return Label.FAKE if _sigmoid(score) > 0.5 else Label.REAL


def train(
    corpus: Corpus,
    space: FeatureSpace = FeatureSpace(),
    config: TrainConfig = TrainConfig(),
) -> Model:
    """SGD logistic regression over hashed n-gram counts.

    Per-sample updates in a seeded shuffled order (reshuffled every epoch
    from one PRNG stream), fixed learning rate, L2 applied to the touched
    coordinates of each update. Single-threaded and bitwise deterministic
    for a fixed seed, on any CPU. A corpus with only one label is an error.
    The corpus is featurized and fitted as run_matrix does a training slice
    (_rows, then _fit with _sgd_order), so both give the same weights.
    """
    rows = _rows([doc.text for doc in corpus], {}, space, {})
    return _fit(rows, corpus.labels(), corpus.name, space, config, _sgd_order(len(rows), config))


# A training set whose rows average at least this many buckets trains on numpy
# arrays, a shorter one on Python lists. Per SGD update (400 rows of n buckets,
# 10 epochs, best of 7; 2-core Xeon, Python 3.11, 3 runs), lists cost 1.0-1.7 us
# against numpy's 5.3-10.0 at n = 4, 2.3-4.0 against 5.7-10.4 at 12, 5.4-9.4
# against 6.4-11.5 at 32, 6.0-10.8 against 6.3-11.7 at 36, 7.0-12.1 against
# 6.5-11.9 at 40, and 56-88 against 17-27 at 256.
_NUMPY_ROW = 40


def _fit(
    rows: Sequence[Mapping[int, int]],
    labels: Sequence[Label],
    name: str,
    space: FeatureSpace,
    config: TrainConfig,
    order: Iterable[int],
) -> Model:
    """train on featurized rows (labels[r] is row r's label), over their own buckets only;
    a bucket gets the next column of w where it first appears. Both SGD arms make the
    same floating-point operations in the same order, so they give the same bits.
    order is _sgd_order(len(rows), config): train draws it per call, and run_matrix
    once per training size, for all the fits of that size."""
    if len(labels) == 0:
        raise DataError("cannot train on an empty corpus")
    if len(set(labels)) < 2:
        raise DataError("training corpus must contain both labels")
    ys = [1.0 if label is Label.FAKE else 0.0 for label in labels]
    col_of: dict[int, int] = {}  # bucket -> column of w
    sgd = _sgd_numpy if sum(map(len, rows)) >= _NUMPY_ROW * len(rows) else _sgd_lists
    w, bias = sgd(rows, col_of, ys, config, order)
    # an overflow shows as a weight or bias that is not finite
    if not (math.isfinite(bias) and all(map(math.isfinite, w))):
        raise DataError(
            "training diverged: a weight or the bias is not finite "
            f"(learning_rate {config.learning_rate}, l2 {config.l2})"
        )
    weights = dict(zip(col_of, w))
    return Model(space=space, config=config, train_set=name, weights=weights, bias=bias)


def _columns(row: Mapping[int, int], col_of: dict[int, int]) -> list[int]:
    """The columns of w that row's buckets take; a bucket new to col_of takes the next one."""
    return [col_of.setdefault(b, len(col_of)) for b in row]


def _sgd_order(n: int, config: TrainConfig) -> Iterator[int]:
    """Row indices in update order: every epoch reshuffles them from one seeded PRNG stream."""
    order = list(range(n))
    rng = random.Random(config.seed)
    for _ in range(config.epochs):
        rng.shuffle(order)
        yield from order


def _sgd_lists(
    rows: Sequence[Mapping[int, int]], col_of: dict[int, int], ys: list[float],
    config: TrainConfig, order: Iterable[int],
) -> tuple[list[float], float]:
    """_fit's SGD on Python floats: w is a list, and each row a list of (column, count) pairs.
    An update sums its row's _score in one pass."""
    feats = [list(zip(_columns(row, col_of), map(float, row.values()))) for row in rows]
    w = [0.0] * len(col_of)
    bias = 0.0
    lr, l2 = config.learning_rate, config.l2
    for i in order:
        pairs = feats[i]
        total = -0.0
        for c, k in pairs:
            total += w[c] * k
        g = _sigmoid(bias + total) - ys[i]
        for c, k in pairs:
            wc = w[c]
            w[c] = wc - lr * (g * k + l2 * wc)
        bias -= lr * g
    return w, bias


def _sgd_numpy(
    rows: Sequence[Mapping[int, int]], col_of: dict[int, int], ys: list[float],
    config: TrainConfig, order: Iterable[int],
) -> tuple[list[float], float]:
    """_sgd_lists on numpy arrays: an update gathers and writes a row's weights in one
    operation each. Its terms are a numpy array, not Python floats, so they are summed
    in a second step: np.add.accumulate's last element is _score's left-to-right sum
    from -0.0, the total _sgd_lists makes in one pass."""
    import numpy as np  # only here, so that a run that never takes this arm never loads it

    feats = [
        (
            np.array(_columns(row, col_of), dtype=np.int64),
            np.array(list(row.values()), dtype=np.float64),
        )
        for row in rows
    ]
    w = np.zeros(len(col_of))
    bias = 0.0
    lr, l2 = config.learning_rate, config.l2
    # _fit checks for the overflow these warnings would report
    with np.errstate(over="ignore", invalid="ignore"):
        for i in order:
            col, cnt = feats[i]
            wi = w[col]
            # [-1:] is empty for an empty row, which then scores its bias as _score's does
            g = _sigmoid(_score(bias, np.add.accumulate(wi * cnt)[-1:].tolist())) - ys[i]
            w[col] = wi - lr * (g * cnt + l2 * wi)
            bias -= lr * g
    return w.tolist(), bias


@dataclass(frozen=True)
class EvalCell:
    train_set: str
    test_set: str
    accuracy: float
    predictions: tuple[Label, ...]
    gold: tuple[Label, ...]

    @property
    def n(self) -> int:
        return len(self.gold)


def evaluate(model: Model, test: Corpus) -> EvalCell:
    """Accuracy and per-document predictions on a test corpus (order
    preserved). An empty test set is an error."""
    rows = _rows([doc.text for doc in test], {}, model.space, {})
    return _evaluate_rows(model, rows, test.labels(), test.name)


def _evaluate_rows(
    model: Model,
    rows: Sequence[Mapping[int, int]],
    gold: Sequence[Label],
    test_set: str,
) -> EvalCell:
    """evaluate on featurized rows, gold[r] being row r's gold label."""
    if len(gold) == 0:
        raise DataError("cannot evaluate on an empty corpus")
    predictions = tuple(map(model._predict_row, rows))
    gold = tuple(gold)
    correct = sum(p is g for p, g in zip(predictions, gold))
    return EvalCell(
        train_set=model.train_set,
        test_set=test_set,
        accuracy=correct / len(gold),
        predictions=predictions,
        gold=gold,
    )


MODEL_FORMAT_VERSION = 1


def save_model(model: Model, path: str | Path) -> None:
    """Single JSON object. weights lists the model's nonzero weights by
    ascending bucket; a bucket it omits weighs 0.0, as one missing from
    model.weights does, so this is lossless."""
    obj = {
        "format_version": MODEL_FORMAT_VERSION,
        "space": {name: getattr(model.space, name) for name in FEATURE_FIELDS},
        "config": {name: getattr(model.config, name) for name in TRAIN_FIELDS},
        "train_set": model.train_set,
        "bias": model.bias,
        "weights": {str(b): w for b, w in sorted(model.weights.items()) if w},
    }
    write_json_lines(path, [obj])


def _bucket(key: str) -> int:
    if not (key.isascii() and key.isdigit()):
        raise ValueError(f"bucket {key!r} is not an integer")
    if key[0] == "0" and key != "0":  # save_model writes none: "01" would be bucket "1" too
        raise ValueError(f"bucket {key!r} has a leading zero")
    return int(key)


def _weight(raw: object) -> float:
    value = finite(raw)
    if not value:  # save_model drops it: a bucket the file omits weighs 0.0
        raise ValueError(f"expected a nonzero weight, got {json.dumps(raw)}")
    return value


def _model_space(raw: object) -> FeatureSpace:
    space = FeatureSpace(**fields(raw, FEATURE_FIELDS))
    if list(space.orders) != raw["orders"]:  # FeatureSpace sorts them, and drops repeats
        raise DataError(f"bad 'orders' (expected ascending distinct orders, got {raw['orders']})")
    return space


# a model file's fields, every one required
_MODEL_FIELDS = {
    "format_version": INTEGER,
    "space": _model_space,
    "config": lambda raw: TrainConfig(**fields(raw, TRAIN_FIELDS)),
    "train_set": STRING,
    "bias": finite,
    "weights": lambda raw: {_bucket(key): _weight(value) for key, value in OBJECT(raw).items()},
}


def load_model(path: str | Path) -> Model:
    obj = json_file(path)
    if not isinstance(obj, dict) or obj.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported model format")
    with prefixed(path):
        values = fields(obj, _MODEL_FIELDS)
        del values["format_version"]
        model = Model(**values)
        last, dimensions = max(model.weights, default=0), model.space.dimensions
        if last >= dimensions:
            raise DataError(f"bad 'weights' (bucket '{last}' is not below {dimensions})")
    return model


# ---------------------------------------------------------------------------
# McNemar


@dataclass(frozen=True)
class McNemarResult:
    b: int
    c: int
    statistic: float | None
    p_raw: float
    p_adjusted: float
    m: int

    @property
    def significant(self) -> bool:
        return self.p_adjusted < 0.05


def mcnemar(baseline: EvalCell, contender: EvalCell, m: int = 1) -> McNemarResult:
    """Two-sided McNemar test between two prediction sets on one test set.

    Exact binomial branch when b + c < 25:
        p = min(1, 2 * sum_{k<=min(b,c)} C(b+c, k) * 0.5^(b+c))
    otherwise the continuity-corrected chi-square statistic
        (|b - c| - 1)^2 / (b + c)
    with 1 df, whose tail probability is erfc(sqrt(statistic / 2)).
    p_adjusted = min(1, m * p_raw) (Bonferroni over m comparisons).
    """
    if m < 1:
        raise DataError(f"m must be >= 1, got {m}")
    if baseline.test_set != contender.test_set:
        raise DataError(
            f"mismatched test sets: {baseline.test_set!r} vs {contender.test_set!r}"
        )
    if baseline.gold != contender.gold:
        raise DataError("test sets differ in length, order, or labels")
    b = c = 0
    for gold, pb, pc in zip(baseline.gold, baseline.predictions, contender.predictions):
        base_right = pb is gold
        cont_right = pc is gold
        if base_right and not cont_right:
            b += 1
        elif cont_right and not base_right:
            c += 1
    n = b + c
    if n < 25:
        tail = sum(math.comb(n, k) for k in range(min(b, c) + 1))
        p_raw = min(1.0, 2.0 * tail * 0.5**n)
        statistic = None
    else:
        statistic = (abs(b - c) - 1.0) ** 2 / n
        p_raw = math.erfc(math.sqrt(statistic / 2.0))
    return McNemarResult(
        b=b, c=c, statistic=statistic, p_raw=p_raw, p_adjusted=min(1.0, m * p_raw), m=m
    )


# ---------------------------------------------------------------------------
# evaluation matrix


@dataclass(frozen=True)
class DatasetBundle:
    """A named dataset ready for the matrix: annotated documents (spans may
    be empty) in corpus order."""

    name: str
    docs: tuple[AnnotatedDocument, ...]

    def corpus(self) -> Corpus:
        return Corpus(name=self.name, documents=tuple(d.document for d in self.docs))


@dataclass(frozen=True)
class MatrixCell:
    train_set: str
    test_set: str
    policy: MaskPolicy
    accuracy: float
    n_test: int
    mcnemar: McNemarResult | None

    @property
    def in_domain(self) -> bool:
        return self.train_set == self.test_set

    @property
    def starred(self) -> bool:
        return self.mcnemar is not None and self.mcnemar.significant


@dataclass(frozen=True)
class MatrixReport:
    datasets: tuple[str, ...]
    policies: tuple[MaskPolicy, ...]
    split: SplitSpec
    m: int
    ood_full: bool
    cells: tuple[MatrixCell, ...]

    @cached_property
    def _by_key(self) -> dict[tuple[str, str, MaskPolicy], MatrixCell]:
        return {(c.train_set, c.test_set, c.policy): c for c in self.cells}

    def cell(self, train_set: str, test_set: str, policy: MaskPolicy) -> MatrixCell:
        return self._by_key[(train_set, test_set, policy)]

    def to_json(self) -> str:
        obj = {
            "datasets": list(self.datasets),
            "policies": [p.value for p in self.policies],
            "split": {
                "mode": self.split.mode.value,
                "train_fraction": self.split.train_fraction,
                "boundary_date": (
                    self.split.boundary_date.isoformat() if self.split.boundary_date else None
                ),
                "seed": self.split.seed,
            },
            "bonferroni_m": self.m,
            "ood_full": self.ood_full,
            "cells": [
                {
                    "train": cell.train_set,
                    "test": cell.test_set,
                    "policy": cell.policy.value,
                    "in_domain": cell.in_domain,
                    "accuracy": cell.accuracy,
                    "n_test": cell.n_test,
                    "mcnemar": (
                        None
                        if cell.mcnemar is None
                        # vars keeps McNemarResult's field order, the order __init__ sets them
                        else {**vars(cell.mcnemar), "significant": cell.mcnemar.significant}
                    ),
                }
                for cell in self.cells
            ],
        }
        return json.dumps(obj, ensure_ascii=False, indent=2) + "\n"

    def to_text(self) -> str:
        """Accuracy grid, one block per training set, one column per test
        set; '*' marks adjusted p < 0.05 against the no-mask baseline."""
        name_w = max(len(p.display_name) for p in self.policies)
        col_w = max(10, max(len(d) for d in self.datasets) + 2)
        lines = [
            "accuracy grid"
            + (
                f" (* = adjusted p < 0.05 vs {MaskPolicy.NO_MASK.display_name}, m = {self.m})"
                if self.m > 1 or len(self.policies) > 1
                else ""
            )
        ]
        for train_name in self.datasets:
            lines.append("")
            header = f"train={train_name}".ljust(name_w + 2)
            header += "".join(f"{d:>{col_w}}" for d in self.datasets)
            lines.append(header)
            for policy in self.policies:
                row = f"  {policy.display_name:<{name_w}}"
                for test_name in self.datasets:
                    cell = self.cell(train_name, test_name, policy)
                    mark = "*" if cell.starred else ""
                    row += f"{cell.accuracy:.3f}{mark}".rjust(col_w)
                lines.append(row)
        return "\n".join(lines) + "\n"


def _check_matrix(
    names: list[str], policies: Sequence[MaskPolicy], indexed: Sequence[str]
) -> None:
    """The checks across a matrix's entries, which read no file: given the
    dataset names, the policies and the names of the datasets that have an
    entity index."""
    if not names:
        raise DataError("datasets must not be empty")
    if not policies:
        raise DataError("policies must not be empty")
    if len(set(names)) != len(names):
        raise DataError(f"dataset names must be unique, got {names}")
    if len(set(policies)) != len(policies):
        raise DataError("policies must be unique")
    if any(p.requires_index for p in policies):
        for name in names:
            if name not in indexed:
                raise DataError(f"dataset {name!r} has no entity index but a policy needs one")


def _split_rows(
    bundle: DatasetBundle, split: SplitSpec
) -> tuple[tuple[list[int], tuple[Label, ...]], ...]:
    """(positions in bundle.docs, gold labels) of the split's train side and
    test side, each in split order, and of the whole dataset. A side that
    would be empty is an error naming the dataset and the side."""
    corpus = bundle.corpus()
    with prefixed(f"dataset {bundle.name!r}"):
        sides = split.apply(corpus)
        for side, kind in zip(sides, ("training", "test")):
            if not len(side):
                raise DataError(f"the {kind} side of the split is empty")
    row_of = {doc.id: r for r, doc in enumerate(corpus)}
    return tuple(
        ([row_of[doc.id] for doc in side], tuple(side.labels()))
        for side in (*sides, corpus)
    )


# a dataset's masked texts and gold labels on one side of its split, in split order
_Slice = tuple[tuple[str, ...], tuple[Label, ...]]


def run_matrix(
    datasets: Sequence[DatasetBundle],
    policies: Sequence[MaskPolicy],
    indexes: Mapping[str, EntityIndex | None],
    split: SplitSpec,
    *,
    space: FeatureSpace = FeatureSpace(),
    config: TrainConfig = TrainConfig(),
    resolve_mode: ResolveMode = ResolveMode.DUMP_ORDER,
    ood_full: bool = False,
) -> MatrixReport:
    """Full evaluation matrix over datasets x policies.

    Every dataset is split once. For every policy, each dataset is masked to
    text alone (always with its own index). For every (train dataset, policy)
    a model is trained on the training slice, then evaluated on the in-domain
    test slice and on every other dataset's test slice (or its full slice when
    ood_full is set), all under the same policy.

    Equal slices (masked texts and gold labels) give equal rows, models and
    predictions, so each (training slice, scored slice) pair is evaluated once
    per call, and every cell of that pair, under any policy, takes its result;
    reports keep their bytes. Each slice is hashed once per (policy, dataset),
    to a small integer, and the cache is keyed by pairs of those. Within a
    policy, datasets with one training slice share one model, fitted on the
    group's first new pair and named after (and, on an error, failing as) the
    first of them. A masked text is featurized on its first need. One policy's
    rows and one model are alive at a time, so a training slice met again with
    a new scored slice is fitted again; a policy with no new pair featurizes,
    fits and evaluates nothing. Each policy that reuses a cell logs at info
    level how many it reuses and how many models it fits. Fits of one training
    size share one SGD order, drawn once per call (not cached across calls, so
    each call costs what a one-shot run does).
    Every masked policy is McNemar-tested against the no-mask baseline
    within its (train, test) cell, Bonferroni-adjusted for
    m = len(policies) - 1 comparisons. Output ordering and content are
    deterministic.
    """
    names = [b.name for b in datasets]
    _check_matrix(names, policies, [n for n in names if indexes.get(n) is not None])
    m = max(1, len(policies) - 1)
    # name -> (positions, gold labels) of its train, test and full slices
    slices = {b.name: _split_rows(b, split) for b in datasets}
    memo: dict[str, int] = {}  # phrase -> bucket, for this call's space only
    sgd_orders: dict[int, list[int]] = {}  # training size -> _sgd_order, for this call's config
    slice_ids: dict[_Slice, int] = {}  # each distinct slice -> a small integer, for this call
    evals: dict[tuple[int, int], EvalCell] = {}  # (training, scored) slice ids -> their cell
    results: dict[tuple[str, str, MaskPolicy], EvalCell] = {}
    for policy in policies:
        # name -> its train, test and full slices under this policy
        masked: dict[str, list[_Slice]] = {}
        ids: dict[str, list[int]] = {}  # name -> the ids of its train, test and full slices
        for b in datasets:
            texts = [mask_text(doc, policy, indexes.get(b.name), resolve_mode) for doc in b.docs]
            masked[b.name] = [(tuple(texts[r] for r in sel), gold) for sel, gold in slices[b.name]]
            ids[b.name] = [slice_ids.setdefault(s, len(slice_ids)) for s in masked[b.name]]
        row_of: dict[str, dict[int, int]] = {}  # masked text -> its row, under this policy only
        # a training slice's id -> the datasets that train on it, in dataset order
        trained_on: dict[int, list[str]] = {}
        for name in names:
            trained_on.setdefault(ids[name][0], []).append(name)
        known, fits = len(evals), 0
        for train_id, members in trained_on.items():
            train = masked[members[0]][0]
            model = None  # fitted on the group's first new pair
            for train_name in members:
                for eval_name in names:
                    side = 2 if ood_full and eval_name != train_name else 1
                    key = (train_id, ids[eval_name][side])
                    cell = evals.get(key)
                    if cell is None:
                        if model is None:
                            n = len(train[1])
                            if n not in sgd_orders:
                                sgd_orders[n] = list(_sgd_order(n, config))
                            with prefixed(f"dataset {members[0]!r}"):
                                model = _fit(_rows(train[0], row_of, space, memo), train[1],
                                             members[0], space, config, sgd_orders[n])
                            fits += 1
                        scored = masked[eval_name][side]
                        cell = evals[key] = _evaluate_rows(
                            model, _rows(scored[0], row_of, space, memo), scored[1], eval_name
                        )
                    results[(train_name, eval_name, policy)] = replace(
                        cell, train_set=train_name, test_set=eval_name
                    )
        reused = len(names) ** 2 - (len(evals) - known)
        if reused:
            log.info("policy %s reuses %d of its %d cells and fits %d model%s", policy.value,
                     reused, len(names) ** 2, fits, "" if fits == 1 else "s")
    has_baseline = MaskPolicy.NO_MASK in policies and len(policies) > 1
    cells = []
    for train_name in names:
        for test_name in names:
            for policy in policies:
                ev = results[(train_name, test_name, policy)]
                test_result = None
                if has_baseline and policy is not MaskPolicy.NO_MASK:
                    baseline = results[(train_name, test_name, MaskPolicy.NO_MASK)]
                    test_result = mcnemar(baseline, ev, m)
                cells.append(
                    MatrixCell(
                        train_set=train_name,
                        test_set=test_name,
                        policy=policy,
                        accuracy=ev.accuracy,
                        n_test=ev.n,
                        mcnemar=test_result,
                    )
                )
    return MatrixReport(
        datasets=tuple(names),
        policies=tuple(policies),
        split=split,
        m=m,
        ood_full=ood_full,
        cells=tuple(cells),
    )


# ---------------------------------------------------------------------------
# synthetic diachronic corpus


@dataclass(frozen=True)
class SyntheticData:
    corpus_a: Corpus
    corpus_b: Corpus
    annotated_a: tuple[AnnotatedDocument, ...]
    annotated_b: tuple[AnnotatedDocument, ...]
    index: EntityIndex


_FILLERS = (
    "officials",
    "said",
    "report",
    "measures",
    "meeting",
    "public",
    "response",
    "plan",
    "sources",
    "media",
    "statement",
    "decision",
)

_BEATS = (
    "budget",
    "summit",
    "tribunal",
    "campaign",
    "survey",
    "ceasefire",
    "tariffs",
    "vaccine",
    "drought",
    "merger",
    "strike",
    "audit",
)

_SYNTH_SNAPSHOT = Date(2020, 12, 28)
_PERSON_LABEL_CORRELATION = 0.9


def _role_leanings(role_qids: Sequence[str]) -> dict[str, Label]:
    """Alternate fake/real over the sorted unique role QIDs."""
    ordered = sorted(set(role_qids), key=qid_sort_key)
    return {
        qid: (Label.FAKE if i % 2 == 0 else Label.REAL) for i, qid in enumerate(ordered)
    }


def _beat_word(pair_index: int) -> str:
    base = _BEATS[pair_index % len(_BEATS)]
    if pair_index < len(_BEATS):
        return base
    return f"{base}{pair_index // len(_BEATS)}"


def _person_record(qid: str, name: str, role_qid: str) -> EntityRecord:
    return EntityRecord(
        qid=qid,
        primary_label=name,
        aliases=(),
        statements=(
            Statement(
                property=RoleProperty.POSITION_HELD,
                value_qid=role_qid,
                start_date=None,
                end_date=None,
            ),
        ),
        sitelink_count=5,
    )


def synth_diachronic_corpus(
    seed: int,
    n_docs: int,
    period_a_persons: Sequence[str],
    period_b_persons: Sequence[str],
    role_map: Mapping[str, str],
) -> SyntheticData:
    """Two mirrored single-period corpora exhibiting person-identity bias.

    Each document mentions one person (twice) plus a role-stable "beat"
    word and neutral filler words; its label follows the person's role
    leaning with probability 0.9. Periods share everything except the
    person surfaces: period B repeats period A's document skeletons with
    the counterpart person swapped in, so after replacing person spans
    with role tokens the two periods' token distributions are identical by
    construction. n_docs is the size of each period (at least 100) and
    counterpart persons (paired by position) must share a role QID while
    their names must not collide across periods.

    The returned entity index covers every person with an unqualified
    position-held statement pointing at their role QID.
    """
    if n_docs < 100:
        raise DataError(f"n_docs must be >= 100, got {n_docs}")
    if len(period_a_persons) != len(period_b_persons) or not period_a_persons:
        raise DataError("period person lists must be non-empty and the same length")
    pairs = list(zip(period_a_persons, period_b_persons))
    seen_a = {name.casefold() for name in period_a_persons}
    seen_b = {name.casefold() for name in period_b_persons}
    overlap = seen_a & seen_b
    if overlap:
        raise DataError(f"person names overlap across periods: {sorted(overlap)}")
    if len(seen_a) != len(pairs) or len(seen_b) != len(pairs):
        raise DataError("person names must be unique within each period")
    roles = []
    for name_a, name_b in pairs:
        for name in (name_a, name_b):
            if name not in role_map:
                raise DataError(f"role_map is missing person {name!r}")
        if role_map[name_a] != role_map[name_b]:
            raise DataError(
                f"counterparts {name_a!r} and {name_b!r} must share a role QID, "
                f"got {role_map[name_a]!r} vs {role_map[name_b]!r}"
            )
        roles.append(role_map[name_a])
    leanings = _role_leanings(roles)

    index = EntityIndex(snapshot_date=_SYNTH_SNAPSHOT)
    for i, (name_a, name_b) in enumerate(pairs):
        index.add(_person_record(f"Q{900001 + i}", name_a, roles[i]))
        index.add(_person_record(f"Q{950001 + i}", name_b, roles[i]))

    rng = random.Random(seed)
    skeletons = []
    for _ in range(n_docs):
        pair_i = rng.randrange(len(pairs))
        label = leanings[roles[pair_i]]
        if rng.random() >= _PERSON_LABEL_CORRELATION:
            label = Label.REAL if label is Label.FAKE else Label.FAKE
        fillers = [rng.choice(_FILLERS) for _ in range(3)]
        skeletons.append((pair_i, label, fillers))

    def build_period(
        period: str, person_of: Sequence[str], start: Date
    ) -> tuple[Corpus, tuple[AnnotatedDocument, ...]]:
        docs = []
        annotated = []
        for k, (pair_i, label, f) in enumerate(skeletons):
            name = person_of[pair_i]
            beat = _beat_word(pair_i)
            head = f"{f[0]} {beat} "
            mid = f" {f[1]} "
            first_start = len(head)
            second_start = len(head) + len(name) + len(mid)
            text = f"{head}{name}{mid}{name} {f[2]}"
            doc = Document(
                id=f"{period}-{k:05d}",
                text=text,
                label=label,
                date=start + timedelta(days=k % 330),
                source=f"synth-{period}",
            )
            spans = (
                NeSpan(start=first_start, end=first_start + len(name), tag=NeTag.PER, surface=name),
                NeSpan(
                    start=second_start, end=second_start + len(name), tag=NeTag.PER, surface=name
                ),
            )
            docs.append(doc)
            annotated.append(AnnotatedDocument(document=doc, spans=spans))
        corpus = Corpus(name=f"period-{period}", documents=tuple(docs))
        return corpus, tuple(annotated)

    corpus_a, annotated_a = build_period("a", [p[0] for p in pairs], Date(2015, 1, 1))
    corpus_b, annotated_b = build_period("b", [p[1] for p in pairs], Date(2020, 1, 1))
    return SyntheticData(
        corpus_a=corpus_a,
        corpus_b=corpus_b,
        annotated_a=annotated_a,
        annotated_b=annotated_b,
        index=index,
    )
