import copy
import hashlib
import json
import logging
import math
import pickle
import random
from collections import Counter
from dataclasses import asdict, replace
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamask import (
    AnnotatedDocument,
    Corpus,
    DataError,
    DatasetBundle,
    Document,
    EvalCell,
    FeatureSpace,
    Label,
    MaskPolicy,
    Model,
    NeSpan,
    NeTag,
    SplitMode,
    SplitSpec,
    TrainConfig,
    evaluate,
    featurize,
    load_model,
    mcnemar,
    resolve_person_label,
    run_matrix,
    save_model,
    split_random,
    synth_diachronic_corpus,
    train,
)
from diamask import experiment
from diamask.analysis import extract_ngrams, tokenize
from diamask.experiment import _evaluate_rows, _fit, _score_row, _sgd_order
from diamask.masking import mask_corpus

from helpers import (
    SYNTH_A,
    SYNTH_B,
    SYNTH_ROLE_MAP,
    chi2_tail_1df,
    exact_mcnemar_p,
    json_text,
    mutated,
)

SMALL_SPACE = FeatureSpace(dimensions=2**16)


def keyed_bucket(phrase, seed, dimensions):
    """A phrase's bucket, recomputed from scratch: BLAKE2b keyed by the seed's 8
    little-endian bytes, 8-byte digest read big-endian, masked to the table size."""
    digest = hashlib.blake2b(
        phrase.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "big") & (dimensions - 1)


def weight_bits(model):
    """bucket -> the weight's exact bits, which tell 0.0 from -0.0."""
    return {bucket: value.hex() for bucket, value in model.weights.items()}


class TestFeatureSpace:
    def test_defaults(self):
        space = FeatureSpace()
        assert space.orders == (1, 2)
        assert space.dimensions == 2**20

    def test_orders_are_sorted_and_deduplicated(self):
        assert FeatureSpace(orders=(2, 1, 2)).orders == (1, 2)

    def test_rejects_bad_orders(self):
        with pytest.raises(DataError):
            FeatureSpace(orders=())
        with pytest.raises(DataError):
            FeatureSpace(orders=(0, 1))

    def test_rejects_non_power_of_two_dimensions(self):
        # bucket ids are int64, so 2**63 is the largest bucket count
        for bad in (0, 1, 3, 100, 2**20 + 1, 2**64):
            with pytest.raises(DataError):
                FeatureSpace(dimensions=bad)
        assert FeatureSpace(dimensions=2).dimensions == 2
        assert FeatureSpace(dimensions=2**63).dimensions == 2**63

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(DataError):
            FeatureSpace(hash_seed=-1)
        with pytest.raises(DataError):
            FeatureSpace(hash_seed=2**64)

    def test_bucket_matches_independent_keyed_hash(self):
        for seed in (0, 7, 2**63, 2**64 - 1):
            space = FeatureSpace(dimensions=2**12, hash_seed=seed)
            for phrase in ("covid", "covid hoax", "task force", "", "café", "日本 語", "\U0001F600"):
                assert space.bucket(phrase) == keyed_bucket(phrase, seed, 2**12)

    @given(seed=st.integers(0, 2**64 - 1), phrase=st.text(),
           dimensions=st.integers(1, 63).map(lambda k: 2**k))
    def test_bucket_is_the_keyed_hash_for_every_seed_and_text(self, seed, phrase, dimensions):
        space = FeatureSpace(dimensions=dimensions, hash_seed=seed)
        assert space.bucket(phrase) == keyed_bucket(phrase, seed, dimensions)

    def test_bucketing_leaves_the_keyed_state_as_it_was(self):
        # every phrase hashes from a copy of the keyed state, never the state itself
        space = FeatureSpace(dimensions=2**63, hash_seed=99)
        first = space.bucket("covid")
        space.bucket("hoax")
        assert space.bucket("covid") == first == keyed_bucket("covid", 99, 2**63)

    def test_is_a_plain_value(self):
        space = FeatureSpace(orders=(2, 1), dimensions=2**10, hash_seed=2**64 - 1)
        twin = FeatureSpace(orders=(1, 2), dimensions=2**10, hash_seed=2**64 - 1)
        assert space == twin and hash(space) == hash(twin)
        assert space != replace(space, hash_seed=0)
        assert repr(space) == "FeatureSpace(orders=(1, 2), dimensions=1024, hash_seed=18446744073709551615)"
        assert asdict(space) == {"orders": (1, 2), "dimensions": 1024, "hash_seed": 2**64 - 1}
        for copied in (copy.copy(space), copy.deepcopy(space), pickle.loads(pickle.dumps(space))):
            assert copied == space
            assert copied.bucket("covid hoax") == keyed_bucket("covid hoax", 2**64 - 1, 2**10)

    def test_bucket_depends_on_seed(self):
        a = FeatureSpace(hash_seed=1)
        b = FeatureSpace(hash_seed=2)
        phrases = [f"w{i}" for i in range(32)]
        assert any(a.bucket(p) != b.bucket(p) for p in phrases)


class TestFeaturize:
    def test_empty_text_gives_zero_vector(self):
        assert featurize("", FeatureSpace()) == {}

    def test_counts_unigrams_and_bigrams(self):
        space = FeatureSpace()
        vec = featurize("a b", space)
        buckets = {space.bucket(g) for g in ("a", "b", "a b")}
        assert len(buckets) == 3  # no collisions among these three
        assert set(vec) == buckets
        assert all(count == 1 for count in vec.values())

    def test_repetition_accumulates(self):
        space = FeatureSpace(orders=(1,))
        vec = featurize("go go go", space)
        assert vec == {space.bucket("go"): 3}

    def test_matches_hand_built_vector(self):
        space = FeatureSpace(orders=(1, 2), dimensions=2**14, hash_seed=12345)
        text = "covid hoax spreading"
        expected: dict[int, int] = {}
        for gram in ("covid", "hoax", "spreading", "covid hoax", "hoax spreading"):
            idx = keyed_bucket(gram, 12345, 2**14)
            expected[idx] = expected.get(idx, 0) + 1
        assert featurize(text, space) == expected

    @given(text=st.text(alphabet="abAé ,.'\n", max_size=40),
           orders=st.sets(st.sampled_from((1, 2, 3)), min_size=1),
           dimensions=st.integers(1, 20).map(lambda k: 2**k),
           seed=st.integers(0, 2**64 - 1))
    def test_row_is_the_grams_in_order_of_first_appearance(self, text, orders, dimensions, seed):
        # Key order is the row's column order in training and its left-to-right
        # score, so compare item lists, not dicts; small tables make buckets collide.
        space = FeatureSpace(orders=tuple(orders), dimensions=dimensions, hash_seed=seed)
        expected: dict[int, int] = {}
        for n in sorted(orders):
            for gram in extract_ngrams(tokenize(text), n):
                idx = keyed_bucket(gram, seed, dimensions)
                expected[idx] = expected.get(idx, 0) + 1
        assert list(featurize(text, space).items()) == list(expected.items())

    @given(st.lists(st.sampled_from("abcdef"), max_size=30))
    def test_total_count_equals_gram_count(self, tokens):
        space = FeatureSpace(orders=(1, 2))
        text = " ".join(tokens)
        expected = len(tokens) + max(0, len(tokens) - 1)
        assert sum(featurize(text, space).values()) == expected


def labeled_corpus(fake_texts, real_texts, name="c"):
    docs = [
        Document(id=f"f{i}", text=t, label=Label.FAKE) for i, t in enumerate(fake_texts)
    ] + [
        Document(id=f"r{i}", text=t, label=Label.REAL) for i, t in enumerate(real_texts)
    ]
    return Corpus(name=name, documents=tuple(docs))


SEPARABLE = labeled_corpus(
    ["zzz bad hoax", "zzz fabricated claim"],
    ["qqq verified story", "qqq sourced report"],
)


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert (config.epochs, config.learning_rate, config.l2, config.seed) == (
            10,
            0.1,
            1e-6,
            7,
        )

    def test_validation(self):
        with pytest.raises(DataError):
            TrainConfig(epochs=0)
        with pytest.raises(DataError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(DataError):
            TrainConfig(l2=-1e-9)

    def test_learning_rate_and_l2_are_stored_as_floats(self, tmp_path):
        # a model file holds what the config holds, so integers would save as 1 and 0
        config = TrainConfig(learning_rate=1, l2=0)
        assert (config.learning_rate, config.l2) == (1.0, 0.0)
        assert type(config.learning_rate) is float and type(config.l2) is float
        assert config == TrainConfig(learning_rate=1.0, l2=0.0)
        save_model(Model(FeatureSpace(dimensions=16), config, "t", {}, 0.0), tmp_path / "m.json")
        saved = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))["config"]
        assert json.dumps(saved) == '{"epochs": 10, "learning_rate": 1.0, "l2": 0.0, "seed": 7}'


class TestTrain:
    def test_separable_corpus_reaches_perfect_training_accuracy(self):
        model = train(SEPARABLE, SMALL_SPACE)
        assert evaluate(model, SEPARABLE).accuracy == 1.0

    def test_training_is_bitwise_deterministic(self):
        a = train(SEPARABLE, SMALL_SPACE)
        b = train(SEPARABLE, SMALL_SPACE)
        assert weight_bits(a) == weight_bits(b)
        assert a.bias.hex() == b.bias.hex()

    def test_seed_changes_the_result(self):
        corpus = labeled_corpus(
            [f"shared w{i % 3} bad" for i in range(10)],
            [f"shared w{i % 3} good" for i in range(10)],
        )
        a = train(corpus, SMALL_SPACE, TrainConfig(seed=7))
        b = train(corpus, SMALL_SPACE, TrainConfig(seed=8))
        assert (weight_bits(a), a.bias.hex()) != (weight_bits(b), b.bias.hex())

    def test_label_skew_moves_the_decision(self):
        corpus = labeled_corpus(["alpha"] * 18, ["alpha"] * 2)
        model = train(corpus, SMALL_SPACE)
        assert model.predict("alpha") is Label.FAKE

    def test_single_label_corpus_is_rejected(self):
        corpus = labeled_corpus(["a b"], [])
        with pytest.raises(DataError, match="both labels"):
            train(corpus, SMALL_SPACE)

    def test_empty_corpus_is_rejected(self):
        with pytest.raises(DataError, match="empty"):
            train(Corpus(name="c", documents=()), SMALL_SPACE)

    def test_train_set_name_is_recorded(self):
        assert train(SEPARABLE, SMALL_SPACE).train_set == "c"


class TestPredictAndEvaluate:
    def test_score_ties_resolve_to_real(self):
        model = Model(
            space=SMALL_SPACE,
            config=TrainConfig(),
            train_set="t",
            weights={},
            bias=0.0,
        )
        assert model.predict("whatever text") is Label.REAL

    def test_zero_model_is_perfect_on_all_real_test_set(self):
        model = Model(
            space=SMALL_SPACE,
            config=TrainConfig(),
            train_set="t",
            weights={},
            bias=0.0,
        )
        test = labeled_corpus([], ["x", "y", "z"], name="all-real")
        cell = evaluate(model, test)
        assert cell.accuracy == 1.0
        assert cell.predictions == (Label.REAL,) * 3

    def test_evaluate_preserves_document_order(self):
        model = train(SEPARABLE, SMALL_SPACE)
        test = labeled_corpus(["zzz news"], ["qqq news"], name="t2")
        cell = evaluate(model, test)
        assert cell.gold == (Label.FAKE, Label.REAL)
        assert cell.predictions == (Label.FAKE, Label.REAL)
        assert cell.n == 2
        assert cell.test_set == "t2"
        assert cell.train_set == "c"

    def test_empty_test_set_is_rejected(self):
        model = train(SEPARABLE, SMALL_SPACE)
        with pytest.raises(DataError, match="empty"):
            evaluate(model, Corpus(name="e", documents=()))


def reference_score(weights, bias, vec):
    """The plain scalar sum: weight * count left to right from -0.0, then the
    bias; a bucket without a weight adds a 0.0 term."""
    s = -0.0
    for idx, cnt in vec.items():
        s += weights.get(idx, 0.0) * cnt
    return bias + s


SCORER_DIMENSIONS = 64
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# -0.0 is the sum's start, and weights near the float range overflow: a row of them sums
# to inf, -inf, nan or a finite number by the order of its terms; so both pin the order
scorer_weights = finite | st.floats(allow_nan=False) | st.sampled_from([math.inf, -math.inf, -0.0])
scorer_biases = finite | st.just(-0.0)


@st.composite
def feature_rows(draw):
    n_rows = draw(st.integers(0, 12))
    rows = []
    for _ in range(n_rows):
        n = draw(st.integers(0, 60))
        keys = draw(
            st.lists(
                st.integers(0, SCORER_DIMENSIONS - 1), min_size=n, max_size=n, unique=True
            )
        )
        counts = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        rows.append(dict(zip(keys, counts)))
    return rows


class TestRowScorer:
    @given(
        st.dictionaries(st.integers(0, SCORER_DIMENSIONS - 1), scorer_weights),
        scorer_biases,
        feature_rows(),
    )
    @settings(max_examples=200)
    def test_matches_left_to_right_sum_bit_for_bit(self, weights, bias, rows):
        # .hex() tells 0.0 from -0.0 and reads 'nan' for every nan
        expected = [reference_score(weights, bias, vec).hex() for vec in rows]
        scores = [_score_row(weights, bias, vec) for vec in rows]
        assert [s.hex() for s in scores] == expected
        for vec, score in zip(rows, scores):
            if not vec:
                assert score.hex() == float(bias).hex()

    def test_terms_add_left_to_right_before_the_bias(self):
        # left to right, 1e16 swallows the 1.0 and -1e16 cancels it: 0.0, then the bias.
        # Right to left keeps the 1.0 (1.5); the bias first rounds 1e16 + 1.5 up (2.0)
        weights = {0: 1.0, 1: 1e16, 2: -1e16}
        assert _score_row(weights, 0.5, {0: 1, 1: 1, 2: 1}) == 0.5


def reference_fit(rows, labels, config):
    """Scalar SGD: dict weights, the same seeded shuffle, and each score summed
    as weight * count left to right from -0.0, then the bias."""
    lr, l2 = config.learning_rate, config.l2
    w, bias = {}, 0.0
    order = list(range(len(rows)))
    rng = random.Random(config.seed)
    for _ in range(config.epochs):
        rng.shuffle(order)
        for i in order:
            total = -0.0
            for idx, cnt in rows[i].items():
                total += w.get(idx, 0.0) * cnt
            z = bias + total
            p = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
            g = p - (1.0 if labels[i] is Label.FAKE else 0.0)
            for idx, cnt in rows[i].items():
                wi = w.get(idx, 0.0)
                w[idx] = wi - lr * (g * cnt + l2 * wi)
            bias -= lr * g
    return w, bias


FIT_DIMENSIONS = 2**10
NUMPY_ROW = experiment._NUMPY_ROW


@st.composite
def long_rows(draw):
    """2-8 rows of NUMPY_ROW-500 distinct buckets with counts 3-9, and both labels; the
    mean bucket count is at least NUMPY_ROW, so _fit trains them on its numpy arm."""
    n_rows = draw(st.integers(2, 8))
    rows = [
        draw(st.dictionaries(st.integers(0, FIT_DIMENSIONS - 1), st.integers(3, 9),
                             min_size=NUMPY_ROW, max_size=500))
        for _ in range(n_rows)
    ]
    labels = [Label.FAKE, Label.REAL] + draw(
        st.lists(st.sampled_from(Label), min_size=n_rows - 2, max_size=n_rows - 2)
    )
    draw(st.randoms(use_true_random=False)).shuffle(labels)
    return rows, labels


class TestFitMatchesScalarTrainer:
    @given(
        long_rows(),
        st.integers(1, 3),
        st.sampled_from([0.5, 0.1, 0.003]),
        st.sampled_from([0.0, 1e-6, 0.01]),
        st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_weight_and_the_bias_bit_for_bit(self, data, epochs, lr, l2, seed):
        rows, labels = data
        assert sum(map(len, rows)) >= NUMPY_ROW * len(rows)
        config = TrainConfig(epochs=epochs, learning_rate=lr, l2=l2, seed=seed)
        model = _fit(rows, labels, "t", FeatureSpace(dimensions=FIT_DIMENSIONS), config,
                     _sgd_order(len(rows), config))
        w, bias = reference_fit(rows, labels, config)
        assert weight_bits(model) == {idx: value.hex() for idx, value in w.items()}
        assert model.bias.hex() == bias.hex()


ARMS = ("_sgd_lists", "_sgd_numpy")


def fit_recording_arm(rows, labels, config, called):
    """_fit's model on rows; the names of the SGD arms it calls are appended to called."""
    with pytest.MonkeyPatch.context() as mp:
        for arm in ARMS:
            real = getattr(experiment, arm)
            mp.setattr(experiment, arm,
                       lambda *a, arm=arm, real=real: called.append(arm) or real(*a))
        return _fit(rows, labels, "t", FeatureSpace(dimensions=FIT_DIMENSIONS), config,
                    _sgd_order(len(rows), config))


@st.composite
def rows_of(draw, sizes):
    """Rows of the drawn sizes of distinct buckets with counts 1-9, one empty row among
    them, and both labels."""
    rows = [
        draw(st.dictionaries(st.integers(0, FIT_DIMENSIONS - 1), st.integers(1, 9),
                             min_size=size, max_size=size))
        for size in draw(sizes)
    ]
    rows.insert(draw(st.integers(0, len(rows))), {})
    labels = [Label.FAKE, Label.REAL] + draw(
        st.lists(st.sampled_from(Label), min_size=len(rows) - 2, max_size=len(rows) - 2)
    )
    draw(st.randoms(use_true_random=False)).shuffle(labels)
    return rows, labels


# rows below the threshold even without the empty row, and rows whose mean with it is above
SHORT_ROWS = rows_of(st.lists(st.integers(0, NUMPY_ROW - 1), min_size=1, max_size=40))
LONG_ROWS = rows_of(st.lists(st.integers(2 * NUMPY_ROW, 300), min_size=1, max_size=6))


def assert_fit_matches_reference(rows, labels, config, arm):
    called = []
    model = fit_recording_arm(rows, labels, config, called)
    assert called == [arm]
    w, bias = reference_fit(rows, labels, config)
    assert weight_bits(model) == {idx: value.hex() for idx, value in w.items()}
    assert model.bias.hex() == bias.hex()


class TestFitArms:
    """Both SGD arms of _fit give reference_fit's bits; the mean bucket count picks one."""

    @given(SHORT_ROWS, st.integers(1, 3), st.sampled_from([0.5, 0.1, 0.003]),
           st.sampled_from([0.0, 1e-6, 0.01]), st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_short_rows_train_on_lists(self, data, epochs, lr, l2, seed):
        rows, labels = data
        assert sum(map(len, rows)) < NUMPY_ROW * len(rows)
        config = TrainConfig(epochs=epochs, learning_rate=lr, l2=l2, seed=seed)
        assert_fit_matches_reference(rows, labels, config, "_sgd_lists")

    @given(LONG_ROWS, st.integers(1, 3), st.sampled_from([0.5, 0.1, 0.003]),
           st.sampled_from([0.0, 1e-6, 0.01]), st.integers(0, 2**32))
    @settings(max_examples=30)
    def test_long_rows_train_on_numpy(self, data, epochs, lr, l2, seed):
        rows, labels = data
        assert sum(map(len, rows)) >= NUMPY_ROW * len(rows)
        config = TrainConfig(epochs=epochs, learning_rate=lr, l2=l2, seed=seed)
        assert_fit_matches_reference(rows, labels, config, "_sgd_numpy")

    @pytest.mark.parametrize("extra, arm", [(0, "_sgd_numpy"), (-1, "_sgd_lists")])
    def test_a_mean_at_the_threshold_trains_on_numpy_and_below_it_on_lists(self, extra, arm):
        # an empty row and a row of 2 * NUMPY_ROW + extra buckets
        rows = [{}, {b: 1 + b % 3 for b in range(2 * NUMPY_ROW + extra)}]
        config = TrainConfig(epochs=3, learning_rate=0.5, seed=1)
        assert_fit_matches_reference(rows, [Label.FAKE, Label.REAL], config, arm)

    @pytest.mark.parametrize("size, arm", [(2, "_sgd_lists"), (NUMPY_ROW, "_sgd_numpy")])
    def test_divergence_is_the_same_error_in_each_arm(self, size, arm):
        rows = [{b: 2 for b in range(size)}, {b: 3 for b in range(1, size + 1)}]
        config = TrainConfig(learning_rate=1e300)
        called = []
        with pytest.raises(DataError) as raised:
            fit_recording_arm(rows, [Label.FAKE, Label.REAL], config, called)
        assert called == [arm]
        assert str(raised.value) == (
            "training diverged: a weight or the bias is not finite (learning_rate 1e+300, l2 1e-06)"
        )


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _models(draw):
    """Models of every shape save_model takes, over 16 buckets."""
    space = FeatureSpace(orders=tuple(draw(st.sets(st.integers(1, 3), min_size=1))),
                         dimensions=16, hash_seed=draw(st.integers(0, 2**64 - 1)))
    config = TrainConfig(epochs=draw(st.integers(1, 20)),
                         learning_rate=draw(_FINITE.filter(lambda x: x > 0)),
                         l2=draw(_FINITE.filter(lambda x: x >= 0)), seed=draw(st.integers(0, 2**32)))
    weights = draw(st.dictionaries(st.integers(0, 15), _FINITE.filter(bool), min_size=1, max_size=5))
    return Model(space=space, config=config,
                 train_set=draw(st.text(st.characters(blacklist_categories=["Cs"]), max_size=6)),
                 weights=weights, bias=draw(_FINITE))


@st.composite
def _accepted_models(draw):
    """Models built from every FeatureSpace and TrainConfig the classes take:
    orders in any order and repeated, any power-of-two dimensions, learning_rate
    and l2 drawn as integers as well as floats. Weights are nonzero, as
    save_model drops a zero weight, which weighs what a missing one does."""
    dimensions = 2 ** draw(st.integers(1, 63))
    space = FeatureSpace(orders=tuple(draw(st.lists(st.integers(1, 5), min_size=1))),
                         dimensions=dimensions, hash_seed=draw(st.integers(0, 2**64 - 1)))
    config = TrainConfig(
        epochs=draw(st.integers(1, 10**6)),
        learning_rate=draw(st.integers(1, 10**6) | _FINITE.filter(lambda x: x > 0)),
        l2=draw(st.integers(0, 10**6) | _FINITE.filter(lambda x: x >= 0)),
        seed=draw(st.integers(-(2**64), 2**64)),
    )
    buckets = st.integers(0, dimensions - 1)
    weights = draw(st.dictionaries(buckets, _FINITE.filter(bool), max_size=5))
    return Model(space=space, config=config, train_set=draw(json_text), weights=weights,
                 bias=draw(_FINITE))


# values of the right JSON type that load_model must reject
_MODEL_WRONG = {
    "format_version": st.sampled_from([0, 2, 1.0]),
    "orders": st.sampled_from([[2, 1], [1, 1], [0]]),
    "dimensions": st.sampled_from([1, 3, 8, 2**64]),
    "hash_seed": st.sampled_from([-1, 2**64]),
    "epochs": st.just(0),
    "learning_rate": st.sampled_from([0, -0.5]),
    "l2": st.just(-1e-6),
    "bias": st.just(1e309),
    **{str(b): st.sampled_from([0, -0.0]) for b in range(16)},  # a weight
}


def _model_values(path):
    """A model file's JSON value, told apart by type (true is not 1), except
    that the numbers load_model reads as floats (bias, weights, learning_rate
    and l2) are made floats, as an integer there loads and saves as the equal
    float. Key order aside, that is the only normalization save_model(
    load_model(x)) needs to match x: load_model takes no zero weight, no bucket
    with a leading zero, orders only ascending and distinct, and no key besides
    those save_model writes."""
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["bias"] = float(obj["bias"])
    obj["weights"] = {key: float(value) for key, value in obj["weights"].items()}
    for name in ("learning_rate", "l2"):
        obj["config"][name] = float(obj["config"][name])
    return json.dumps(obj, sort_keys=True)


@pytest.fixture(scope="module")
def scratch_model(tmp_path_factory):
    return tmp_path_factory.mktemp("models") / "model.json"


class TestModelSerialization:
    @given(_models(), st.data())
    @settings(max_examples=500)
    def test_a_model_file_loads_only_as_save_model_writes_it(self, scratch_model, model, data):
        save_model(model, scratch_model)
        obj = json.loads(scratch_model.read_text(encoding="utf-8"))
        if data.draw(st.integers(0, 3)) == 3:  # the same bucket, with a leading zero
            key = data.draw(st.sampled_from(sorted(obj["weights"])))
            obj["weights"]["0" + key] = obj["weights"].pop(key)
        else:
            obj = data.draw(mutated(obj, _MODEL_WRONG, (1,)))
        scratch_model.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
        try:
            loaded = load_model(scratch_model)
        except DataError:
            return
        resaved = scratch_model.with_name("resaved.json")
        save_model(loaded, resaved)
        assert _model_values(resaved) == _model_values(scratch_model)

    @given(_accepted_models())
    def test_every_model_round_trips(self, scratch_model, model):
        """A model loads back as saved, and saves again to the same bytes."""
        save_model(model, scratch_model)
        saved = scratch_model.read_bytes()
        loaded = load_model(scratch_model)
        assert loaded == model
        save_model(loaded, scratch_model)
        assert scratch_model.read_bytes() == saved

    def test_round_trip_preserves_predictions_and_weights(self, tmp_path):
        model = train(SEPARABLE, SMALL_SPACE)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        nonzero = {bucket: value.hex() for bucket, value in model.weights.items() if value}
        assert weight_bits(loaded) == nonzero
        assert loaded.bias == model.bias
        assert loaded.train_set == model.train_set
        assert loaded.space == model.space
        assert loaded.config == model.config
        for text in ("zzz anything", "qqq anything", "unseen words"):
            assert loaded.predict(text) is model.predict(text)

    def test_weights_are_stored_sparsely(self, tmp_path):
        model = train(SEPARABLE, SMALL_SPACE)
        path = tmp_path / "model.json"
        save_model(model, path)
        obj = json.loads(path.read_text())
        assert len(obj["weights"]) == sum(1 for value in model.weights.values() if value)
        assert len(obj["weights"]) < SMALL_SPACE.dimensions

    def test_zero_weights_are_dropped_and_buckets_ascend(self, tmp_path):
        model = Model(
            space=FeatureSpace(dimensions=16),
            config=TrainConfig(),
            train_set="t",
            weights={9: 0.5, 2: -0.0, 11: 0.0, 1: -2.0, 10: 3.0},
            bias=0.0,
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        weights = json.loads(path.read_text())["weights"]
        assert list(weights.items()) == [("1", -2.0), ("9", 0.5), ("10", 3.0)]

    def test_model_at_2_to_the_40_dimensions_round_trips(self, tmp_path):
        space = FeatureSpace(dimensions=2**40)
        model = train(SEPARABLE, space)
        assert all(0 <= bucket < 2**40 for bucket in model.weights)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.space == space
        texts = ("zzz anything", "qqq anything", "unseen words")
        assert [loaded.predict(t) for t in texts] == [model.predict(t) for t in texts]
        assert evaluate(loaded, SEPARABLE).accuracy == 1.0

    def test_saving_twice_is_byte_identical(self, tmp_path):
        model = train(SEPARABLE, SMALL_SPACE)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_file_is_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="malformed"):
            load_model(path)

    def test_unsupported_version_is_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(DataError, match="format"):
            load_model(path)

    @pytest.mark.parametrize(
        "key", ["-1", "4", "1.5", "one", "01"],
        ids=["negative", "too-large", "fraction", "word", "leading-zero"],
    )
    def test_bad_weight_bucket_is_rejected(self, tmp_path, key):
        model = Model(
            space=FeatureSpace(dimensions=4),
            config=TrainConfig(),
            train_set="t",
            weights={},
            bias=0.0,
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        obj = json.loads(path.read_text())
        obj["weights"] = {"0": 1.0, key: 2.5}
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError) as excinfo:
            load_model(path)
        assert str(path) in str(excinfo.value)
        assert repr(key) in str(excinfo.value)


def make_cells(b, c, both_right=5, test_set="shared"):
    """EvalCell pair with the given discordant counts over all-real gold."""
    gold, base, cont = [], [], []
    for _ in range(both_right):
        gold.append(Label.REAL), base.append(Label.REAL), cont.append(Label.REAL)
    for _ in range(b):  # baseline right, contender wrong
        gold.append(Label.REAL), base.append(Label.REAL), cont.append(Label.FAKE)
    for _ in range(c):  # contender right, baseline wrong
        gold.append(Label.REAL), base.append(Label.FAKE), cont.append(Label.REAL)
    n = len(gold)

    def cell(preds):
        correct = sum(p is g for p, g in zip(preds, gold))
        return EvalCell(
            train_set="t",
            test_set=test_set,
            accuracy=correct / n,
            predictions=tuple(preds),
            gold=tuple(gold),
        )

    return cell(base), cell(cont)


class TestMcNemar:
    def test_exact_branch_small_counts(self):
        baseline, contender = make_cells(1, 9)
        result = mcnemar(baseline, contender)
        assert result.b == 1 and result.c == 9
        assert result.statistic is None
        assert result.p_raw == 22 / 1024
        assert result.p_adjusted == 22 / 1024

    def test_bonferroni_multiplies_and_caps(self):
        baseline, contender = make_cells(1, 9)
        assert mcnemar(baseline, contender, m=5).p_adjusted == 5 * 22 / 1024
        baseline, contender = make_cells(4, 6)
        result = mcnemar(baseline, contender, m=5)
        assert result.p_adjusted == 1.0  # min() cap

    def test_no_discordant_pairs_means_no_evidence(self):
        baseline, contender = make_cells(0, 0)
        result = mcnemar(baseline, contender)
        assert result.p_raw == 1.0
        assert not result.significant

    def test_symmetry(self):
        baseline, contender = make_cells(3, 7)
        assert mcnemar(baseline, contender).p_raw == mcnemar(contender, baseline).p_raw

    def test_chi_square_branch_matches_closed_form(self):
        baseline, contender = make_cells(15, 40)
        result = mcnemar(baseline, contender)
        assert result.statistic == pytest.approx(576 / 55, abs=1e-12)
        assert result.p_raw == pytest.approx(
            math.erfc(math.sqrt((576 / 55) / 2)), abs=1e-15
        )
        assert result.significant

    def test_chi_square_branch_matches_quadrature_oracle(self):
        baseline, contender = make_cells(15, 40)
        result = mcnemar(baseline, contender)
        assert result.p_raw == pytest.approx(chi2_tail_1df(result.statistic), abs=1e-3)

    def test_branches_agree_near_the_boundary(self):
        # n = 24 runs exact, n = 25 runs chi-square; the two estimates
        # should be close where they meet.
        for b, c in ((12, 13), (11, 14), (10, 15)):
            baseline, contender = make_cells(b, c)
            chi_p = mcnemar(baseline, contender).p_raw
            assert chi_p == pytest.approx(exact_mcnemar_p(b, c), abs=0.01)
        baseline, contender = make_cells(12, 12)
        result = mcnemar(baseline, contender)
        assert result.statistic is None
        assert result.p_raw == exact_mcnemar_p(12, 12)

    @given(
        b=st.integers(min_value=0, max_value=12),
        c=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=50)
    def test_exact_branch_matches_binomial_oracle(self, b, c):
        baseline, contender = make_cells(b, c)
        result = mcnemar(baseline, contender)
        assert result.statistic is None
        assert result.p_raw == exact_mcnemar_p(b, c)

    @given(
        b=st.integers(min_value=0, max_value=30),
        c=st.integers(min_value=0, max_value=30),
        m=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=50)
    def test_p_values_are_probabilities(self, b, c, m):
        baseline, contender = make_cells(b, c)
        result = mcnemar(baseline, contender, m=m)
        assert 0.0 < result.p_raw <= 1.0
        assert result.p_adjusted == min(1.0, m * result.p_raw)

    def test_mismatched_test_sets_are_rejected(self):
        baseline, _ = make_cells(1, 2, test_set="s1")
        _, contender = make_cells(1, 2, test_set="s2")
        with pytest.raises(DataError, match="mismatched"):
            mcnemar(baseline, contender)

    def test_mismatched_gold_is_rejected(self):
        baseline, _ = make_cells(1, 2, both_right=5)
        _, contender = make_cells(1, 2, both_right=6)
        with pytest.raises(DataError):
            mcnemar(baseline, contender)

    def test_m_must_be_positive(self):
        baseline, contender = make_cells(1, 2)
        with pytest.raises(DataError):
            mcnemar(baseline, contender, m=0)


def small_world(seed=5, n_docs=100, n_persons=4):
    data = synth_diachronic_corpus(
        seed=seed,
        n_docs=n_docs,
        period_a_persons=SYNTH_A[:n_persons],
        period_b_persons=SYNTH_B[:n_persons],
        role_map=SYNTH_ROLE_MAP,
    )
    bundles = [
        DatasetBundle(name="a", docs=data.annotated_a),
        DatasetBundle(name="b", docs=data.annotated_b),
    ]
    indexes = {"a": data.index, "b": data.index}
    return data, bundles, indexes


SPLIT = SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.8, seed=3)


def mixed_world(seed=11):
    """small_world with a LOC and an ORG span appended to every document,
    each leaning toward the document's label, and an unindexed person (the
    PER fallback) appended to some, so all six policies mask differently."""
    _, bundles, indexes = small_world(seed=seed)
    rng = random.Random(seed)
    extra = {
        NeTag.LOC: {Label.FAKE: "Oslo", Label.REAL: "Lima"},
        NeTag.ORG: {Label.FAKE: "Acme Corp", Label.REAL: "Globex"},
    }

    def extend(ann):
        doc, spans, text = ann.document, list(ann.spans), ann.document.text
        appended = [(tag, names[doc.label if rng.random() < 0.8 else rng.choice(list(Label))])
                    for tag, names in extra.items()]
        if rng.random() < 0.3:
            appended.append((NeTag.PER, "Zed Nobody"))
        for tag, surface in appended:
            text += " near "
            spans.append(NeSpan(start=len(text), end=len(text) + len(surface), tag=tag,
                                surface=surface))
            text += surface
        return AnnotatedDocument(document=replace(doc, text=text), spans=tuple(spans))

    bundles = [DatasetBundle(name=b.name, docs=tuple(map(extend, b.docs))) for b in bundles]
    return bundles, indexes


WIKID_FAMILY = (MaskPolicy.WIKID, MaskPolicy.WIKID_DEL, MaskPolicy.WIKID_NER)


def reference_matrix(bundles, indexes, policies, ood_full=False):
    """(train, eval, policy) -> the cell public train and evaluate give on
    mask_corpus output, and policy -> the masked texts of each dataset."""
    expected, texts = {}, {}
    for policy in policies:
        masked = {
            b.name: mask_corpus(b.docs, policy, indexes[b.name], name=b.name)[0]
            for b in bundles
        }
        texts[policy] = tuple(tuple(doc.text for doc in c) for c in masked.values())
        sides = {name: split_random(c, SPLIT) for name, c in masked.items()}
        for train_name, (train_c, _) in sides.items():
            model = train(train_c, SMALL_SPACE)
            for eval_name, (_, test_c) in sides.items():
                full = ood_full and eval_name != train_name
                ev = evaluate(model, masked[eval_name] if full else test_c)
                expected[(train_name, eval_name, policy)] = ev
    return expected, texts


def assert_cells_match(report, expected):
    for cell in report.cells:
        ev = expected[(cell.train_set, cell.test_set, cell.policy)]
        assert (cell.accuracy, cell.n_test) == (ev.accuracy, ev.n)
        if cell.policy is MaskPolicy.NO_MASK:
            continue
        base = expected[(cell.train_set, cell.test_set, MaskPolicy.NO_MASK)]
        pairs = list(zip(ev.gold, base.predictions, ev.predictions))
        b = sum(pb is g and pc is not g for g, pb, pc in pairs)
        c = sum(pc is g and pb is not g for g, pb, pc in pairs)
        assert (cell.mcnemar.b, cell.mcnemar.c) == (b, c)


def unindexed_world():
    """small_world plus a dataset c that repeats a's documents with persons the
    index does not hold: NE Del and Basic NER mask c as they mask a, while the
    WikiD family gives c's persons the PER fallback where a's get their roles."""
    _, bundles, indexes = small_world()
    # no token of these names is in the index, so no token fallback resolves them
    nobodies = ("Wren Nobody", "Xavi Nobody", "Yuri Nobody", "Zoe Nobody")
    roles = {**SYNTH_ROLE_MAP, **{n: SYNTH_ROLE_MAP[a] for a, n in zip(SYNTH_A, nobodies)}}
    c = synth_diachronic_corpus(seed=5, n_docs=100, period_a_persons=SYNTH_A[:4],
                                period_b_persons=nobodies, role_map=roles)
    bundles.append(DatasetBundle(name="c", docs=c.annotated_b))
    return bundles, {**indexes, "c": indexes["a"]}


def distinct_fits(bundles, indexes, policies):
    """The fits a matrix needs: the distinct (every dataset's masked texts, a
    training slice's texts and labels) over the policies and datasets."""
    keys = set()
    for policy in policies:
        masked = [mask_corpus(b.docs, policy, indexes[b.name], name=b.name)[0] for b in bundles]
        every = tuple(tuple(doc.text for doc in c) for c in masked)
        for c in masked:
            side = split_random(c, SPLIT)[0]
            keys.add((every, tuple(doc.text for doc in side), tuple(side.labels())))
    return keys


def distinct_evals(bundles, indexes, policies, ood_full=False):
    """The evaluations a matrix needs: the distinct (training slice, scored
    slice) pairs over the policies, a slice being its masked texts and labels."""
    keys = set()
    for policy in policies:
        masked = [mask_corpus(b.docs, policy, indexes[b.name], name=b.name)[0] for b in bundles]
        sides = [split_random(c, SPLIT) for c in masked]
        for i, (train_c, _) in enumerate(sides):
            for j, (full_c, (_, test_c)) in enumerate(zip(masked, sides)):
                scored = full_c if ood_full and i != j else test_c
                keys.add(tuple((tuple(doc.text for doc in c), tuple(c.labels()))
                               for c in (train_c, scored)))
    return keys


def reuses(policy, reused, cells, fits):
    return f"policy {policy.value} reuses {reused} of its {cells} cells and fits {fits} model" + (
        "" if fits == 1 else "s")


def count_fits(monkeypatch):
    """The list of training set names of the _fit calls made from here on."""
    calls = []

    def counted(rows, labels, name, *args, **kwargs):
        calls.append(name)
        return _fit(rows, labels, name, *args, **kwargs)

    monkeypatch.setattr(experiment, "_fit", counted)
    return calls


def count_evals(monkeypatch):
    """The list of test set names of the _evaluate_rows calls made from here on."""
    calls = []

    def counted(model, rows, gold, test_set):
        calls.append(test_set)
        return _evaluate_rows(model, rows, gold, test_set)

    monkeypatch.setattr(experiment, "_evaluate_rows", counted)
    return calls


class TestRunMatrix:
    @pytest.mark.parametrize("ood_full", [False, True])
    def test_cells_match_train_and_evaluate_on_masked_corpora(self, ood_full):
        bundles, indexes = mixed_world()
        policies = tuple(MaskPolicy)
        report = run_matrix(
            bundles, policies, indexes, SPLIT, space=SMALL_SPACE, ood_full=ood_full
        )
        expected, texts = reference_matrix(bundles, indexes, policies, ood_full)
        # every policy, the WikiD family included, masks this data differently
        assert len(set(texts.values())) == len(policies)
        assert_cells_match(report, expected)

    def test_policies_that_mask_every_dataset_alike_share_their_cells(self, monkeypatch, caplog):
        _, bundles, indexes = small_world()
        policies = tuple(MaskPolicy)
        expected, texts = reference_matrix(bundles, indexes, policies)
        # person spans only: the WikiD family masks every dataset alike
        assert len({texts[p] for p in WIKID_FAMILY}) == 1
        assert len(set(texts.values())) == 4
        fits = count_fits(monkeypatch)
        with caplog.at_level(logging.INFO, logger="diamask.experiment"):
            report = run_matrix(bundles, policies, indexes, SPLIT, space=SMALL_SPACE)
        # no-mask trains a and b apart; every other masking gives b a's training slice
        assert len(fits) == len(distinct_fits(bundles, indexes, policies)) == 5
        assert_cells_match(report, expected)
        for train_name in ("a", "b"):
            for test_name in ("a", "b"):
                family = {
                    (c.accuracy, c.n_test, c.mcnemar)
                    for c in (report.cell(train_name, test_name, p) for p in WIKID_FAMILY)
                }
                assert len(family) == 1
        # b's training slice and both test slices are a's under every policy but no-mask,
        # and the WikiD family's later policies find all their cells made by wikid
        assert [r.getMessage() for r in caplog.records] == [
            *(reuses(p, 3, 4, 1) for p in policies[1:4]),
            *(reuses(p, 4, 4, 0) for p in WIKID_FAMILY[1:]),
        ]

    def test_policies_that_mask_one_dataset_alike_share_its_in_domain_cell(
        self, monkeypatch, caplog
    ):
        _, bundles, indexes = small_world()
        mixed, _ = mixed_world()
        # a has person spans only; b also has LOC and ORG spans
        bundles = [bundles[0], mixed[1]]
        policies = tuple(MaskPolicy)
        expected, texts = reference_matrix(bundles, indexes, policies)
        assert len({texts[p][0] for p in WIKID_FAMILY}) == 1
        assert len({texts[p][1] for p in WIKID_FAMILY}) == 3
        fits = count_fits(monkeypatch)
        with caplog.at_level(logging.INFO, logger="diamask.experiment"):
            report = run_matrix(bundles, policies, indexes, SPLIT, space=SMALL_SPACE)
        assert len(fits) == len(distinct_fits(bundles, indexes, policies)) == len(policies) * 2
        assert_cells_match(report, expected)
        # a's model still scores b's slice, which the family masks apart, but
        # its in-domain cell is wikid's
        assert [r.getMessage() for r in caplog.records] == [
            reuses(p, 1, 4, 2) for p in WIKID_FAMILY[1:]
        ]

    @pytest.mark.parametrize("ood_full", [False, True])
    def test_datasets_alike_under_some_policies_share_their_models_there(
        self, monkeypatch, caplog, ood_full
    ):
        bundles, indexes = unindexed_world()
        policies = tuple(MaskPolicy)
        expected, texts = reference_matrix(bundles, indexes, policies, ood_full)
        # c is a under NE Del and Basic NER, and apart from a and b under the rest
        for p in policies:
            assert (texts[p][2] == texts[p][0]) is (p in (MaskPolicy.NE_DEL, MaskPolicy.BASIC_NER))
        fits = count_fits(monkeypatch)
        with caplog.at_level(logging.INFO, logger="diamask.experiment"):
            report = run_matrix(
                bundles, policies, indexes, SPLIT, space=SMALL_SPACE, ood_full=ood_full
            )
        # no-mask trains three models, NE Del and Basic NER one each, the WikiD family two
        assert len(fits) == len(distinct_fits(bundles, indexes, policies)) == 7
        keys = [(c.train_set, c.test_set, c.policy) for c in report.cells]
        assert len(keys) == len(expected) and set(keys) == set(expected)
        assert_cells_match(report, expected)
        # under NE Del and Basic NER every test slice is alike, and so is every
        # full slice; under wikid, c's slices are its Basic NER slices
        shared = 7 if ood_full else 8
        assert [r.getMessage() for r in caplog.records] == [
            reuses(MaskPolicy.NE_DEL, shared, 9, 1),
            reuses(MaskPolicy.BASIC_NER, shared, 9, 1),
            reuses(MaskPolicy.WIKID, shared - 2, 9, 2),
            *(reuses(p, 9, 9, 0) for p in WIKID_FAMILY[1:]),
        ]

    @pytest.mark.parametrize("ood_full", [False, True])
    def test_each_training_and_scored_slice_pair_is_evaluated_once(self, monkeypatch, ood_full):
        bundles, indexes = unindexed_world()
        policies = tuple(MaskPolicy)
        evals, fits = count_evals(monkeypatch), count_fits(monkeypatch)
        run_matrix(bundles, policies, indexes, SPLIT, space=SMALL_SPACE, ood_full=ood_full)
        # c's WikiD slices are its Basic NER slices, so wikid meets Basic NER's
        # (training slice, test slice) pair again
        assert len(evals) == len(distinct_evals(bundles, indexes, policies, ood_full))
        assert len(evals) == (17 if ood_full else 14)
        assert len(fits) == 7

    def test_fits_of_one_training_size_shuffle_one_sgd_order(self, monkeypatch):
        bundles, indexes = unindexed_world()
        shuffled = []  # the length of every list a random.Random shuffles
        real = random.Random.shuffle
        monkeypatch.setattr(random.Random, "shuffle",
                            lambda rng, x: shuffled.append(len(x)) or real(rng, x))
        fits = count_fits(monkeypatch)
        run_matrix(bundles, tuple(MaskPolicy), indexes, SPLIT, space=SMALL_SPACE)
        # each random split shuffles its dataset's 100 documents once; the seven fits,
        # each on 80 rows, share one SGD order, which reshuffles once per epoch
        assert len(fits) == 7
        assert Counter(shuffled) == {100: len(bundles), 80: TrainConfig().epochs}

    def test_a_shared_fit_fails_as_the_first_dataset_of_its_group(self):
        _, bundles, indexes = small_world()
        # every document real, and b listed first: under NE Del a trains on b's slice
        one_label = [
            DatasetBundle(name=b.name, docs=tuple(
                replace(ann, document=replace(ann.document, label=Label.REAL)) for ann in b.docs))
            for b in reversed(bundles)
        ]
        with pytest.raises(DataError) as raised:
            run_matrix(one_label, (MaskPolicy.NE_DEL,), indexes, SPLIT, space=SMALL_SPACE)
        assert str(raised.value) == "dataset 'b': training corpus must contain both labels"

    def test_shape_and_ordering(self):
        _, bundles, indexes = small_world()
        report = run_matrix(
            bundles, (MaskPolicy.NO_MASK, MaskPolicy.WIKID), indexes, SPLIT, space=SMALL_SPACE
        )
        assert report.datasets == ("a", "b")
        assert len(report.cells) == 8
        keys = [(c.train_set, c.test_set, c.policy) for c in report.cells]
        assert keys == [
            (t, e, p)
            for t in ("a", "b")
            for e in ("a", "b")
            for p in (MaskPolicy.NO_MASK, MaskPolicy.WIKID)
        ]

    def test_baseline_comparison_is_attached_to_masked_cells_only(self):
        _, bundles, indexes = small_world()
        report = run_matrix(
            bundles, (MaskPolicy.NO_MASK, MaskPolicy.WIKID), indexes, SPLIT, space=SMALL_SPACE
        )
        for cell in report.cells:
            if cell.policy is MaskPolicy.NO_MASK:
                assert cell.mcnemar is None
            else:
                assert cell.mcnemar is not None
                assert cell.mcnemar.m == 1

    def test_bonferroni_m_counts_masked_policies(self):
        _, bundles, indexes = small_world()
        policies = (MaskPolicy.NO_MASK, MaskPolicy.WIKID, MaskPolicy.NE_DEL)
        report = run_matrix(bundles, policies, indexes, SPLIT, space=SMALL_SPACE)
        assert report.m == 2
        for cell in report.cells:
            if cell.mcnemar is not None:
                assert cell.mcnemar.m == 2

    def test_no_baseline_means_no_tests(self):
        _, bundles, indexes = small_world()
        report = run_matrix(bundles, (MaskPolicy.WIKID,), indexes, SPLIT, space=SMALL_SPACE)
        assert all(cell.mcnemar is None for cell in report.cells)

    def test_in_domain_uses_test_split_and_ood_full_uses_whole_corpus(self):
        _, bundles, indexes = small_world(n_docs=100)
        report = run_matrix(
            bundles, (MaskPolicy.NO_MASK,), indexes, SPLIT, space=SMALL_SPACE
        )
        assert report.cell("a", "a", MaskPolicy.NO_MASK).n_test == 20
        assert report.cell("a", "b", MaskPolicy.NO_MASK).n_test == 20
        full = run_matrix(
            bundles, (MaskPolicy.NO_MASK,), indexes, SPLIT, space=SMALL_SPACE, ood_full=True
        )
        assert full.cell("a", "a", MaskPolicy.NO_MASK).n_test == 20
        assert full.cell("a", "b", MaskPolicy.NO_MASK).n_test == 100
        assert full.ood_full

    def test_in_domain_flag(self):
        _, bundles, indexes = small_world()
        report = run_matrix(bundles, (MaskPolicy.NO_MASK,), indexes, SPLIT, space=SMALL_SPACE)
        assert report.cell("a", "a", MaskPolicy.NO_MASK).in_domain
        assert not report.cell("a", "b", MaskPolicy.NO_MASK).in_domain

    def test_report_is_deterministic(self):
        _, bundles, indexes = small_world()
        policies = (MaskPolicy.NO_MASK, MaskPolicy.WIKID)
        a = run_matrix(bundles, policies, indexes, SPLIT, space=SMALL_SPACE)
        b = run_matrix(bundles, policies, indexes, SPLIT, space=SMALL_SPACE)
        assert a.to_json() == b.to_json()

    def test_json_round_trips_and_text_renders(self):
        _, bundles, indexes = small_world()
        report = run_matrix(
            bundles, (MaskPolicy.NO_MASK, MaskPolicy.WIKID), indexes, SPLIT, space=SMALL_SPACE
        )
        obj = json.loads(report.to_json())
        assert obj["datasets"] == ["a", "b"]
        assert obj["bonferroni_m"] == 1
        assert len(obj["cells"]) == 8
        text = report.to_text()
        assert "train=a" in text and "train=b" in text
        assert "No Mask" in text and "WikiD" in text

    def test_cell_lookup_raises_on_unknown_key(self):
        _, bundles, indexes = small_world()
        report = run_matrix(bundles, (MaskPolicy.NO_MASK,), indexes, SPLIT, space=SMALL_SPACE)
        with pytest.raises(KeyError):
            report.cell("a", "z", MaskPolicy.NO_MASK)
        with pytest.raises(KeyError):
            report.cell("a", "b", MaskPolicy.WIKID)

    def test_missing_index_is_rejected_when_needed(self):
        _, bundles, _ = small_world()
        with pytest.raises(DataError, match="'a'"):
            run_matrix(
                bundles,
                (MaskPolicy.WIKID,),
                {"a": None, "b": None},
                SPLIT,
                space=SMALL_SPACE,
            )
        # deletion policies never need one
        report = run_matrix(
            bundles, (MaskPolicy.NE_DEL,), {"a": None, "b": None}, SPLIT, space=SMALL_SPACE
        )
        assert len(report.cells) == 4

    def test_input_validation(self):
        _, bundles, indexes = small_world()
        with pytest.raises(DataError):
            run_matrix([], (MaskPolicy.NO_MASK,), indexes, SPLIT)
        with pytest.raises(DataError):
            run_matrix(bundles, (), indexes, SPLIT)
        with pytest.raises(DataError, match="unique"):
            run_matrix(
                [bundles[0], bundles[0]], (MaskPolicy.NO_MASK,), indexes, SPLIT
            )
        with pytest.raises(DataError, match="unique"):
            run_matrix(
                bundles, (MaskPolicy.NO_MASK, MaskPolicy.NO_MASK), indexes, SPLIT
            )


class TestSynthCorpus:
    def test_validation(self):
        with pytest.raises(DataError, match="n_docs"):
            synth_diachronic_corpus(1, 99, SYNTH_A, SYNTH_B, SYNTH_ROLE_MAP)
        with pytest.raises(DataError, match="same length"):
            synth_diachronic_corpus(1, 100, SYNTH_A[:3], SYNTH_B[:2], SYNTH_ROLE_MAP)
        with pytest.raises(DataError, match="overlap"):
            synth_diachronic_corpus(1, 100, SYNTH_A[:2], (SYNTH_A[0], "X Y"), SYNTH_ROLE_MAP)
        with pytest.raises(DataError, match="missing person"):
            synth_diachronic_corpus(1, 100, ("Unmapped Person",), SYNTH_B[:1], SYNTH_ROLE_MAP)
        bad_roles = dict(SYNTH_ROLE_MAP)
        bad_roles[SYNTH_B[0]] = "Q999"
        with pytest.raises(DataError, match="share a role"):
            synth_diachronic_corpus(1, 100, SYNTH_A[:1], SYNTH_B[:1], bad_roles)
        with pytest.raises(DataError, match="unique within"):
            synth_diachronic_corpus(
                1,
                100,
                (SYNTH_A[0], SYNTH_A[0].upper()),
                SYNTH_B[:2],
                SYNTH_ROLE_MAP,
            )

    def test_deterministic_per_seed(self):
        a1, _, _ = small_world(seed=9)
        a2, _, _ = small_world(seed=9)
        assert a1.corpus_a.documents == a2.corpus_a.documents
        assert a1.corpus_b.documents == a2.corpus_b.documents
        b, _, _ = small_world(seed=10)
        assert a1.corpus_a.documents != b.corpus_a.documents

    def test_document_scaffolding(self):
        data, _, _ = small_world(seed=5, n_docs=120)
        for corpus, period, start_year in (
            (data.corpus_a, "a", 2015),
            (data.corpus_b, "b", 2020),
        ):
            assert corpus.name == f"period-{period}"
            assert len(corpus) == 120
            assert corpus.documents[0].id == f"{period}-00000"
            assert corpus.documents[0].date == date(start_year, 1, 1)
            assert all(d.source == f"synth-{period}" for d in corpus)
        assert set(data.corpus_a.labels()) == {Label.REAL, Label.FAKE}

    def test_each_document_mentions_its_person_twice(self):
        data, _, _ = small_world()
        persons = set(SYNTH_A[:4])
        for ann in data.annotated_a:
            assert len(ann.spans) == 2
            surfaces = {s.surface for s in ann.spans}
            assert len(surfaces) == 1
            assert surfaces <= persons
            assert all(s.tag is NeTag.PER for s in ann.spans)

    def test_index_resolves_every_person_to_their_role(self):
        data, _, _ = small_world()
        for name in (*SYNTH_A[:4], *SYNTH_B[:4]):
            assert resolve_person_label(data.index, name).token == SYNTH_ROLE_MAP[name]
        assert len(data.index.records) == 8

    def test_periods_are_mirrored_after_role_masking(self):
        data, _, _ = small_world()
        masked_a, usage_a = mask_corpus(data.annotated_a, MaskPolicy.WIKID, data.index)
        masked_b, usage_b = mask_corpus(data.annotated_b, MaskPolicy.WIKID, data.index)
        assert [d.text for d in masked_a] == [d.text for d in masked_b]
        assert [d.label for d in masked_a] == [d.label for d in masked_b]
        assert usage_a == usage_b

    def test_person_label_correlation_close_to_design_value(self):
        data, _, _ = small_world(seed=1, n_docs=1000, n_persons=8)
        by_person: dict[str, list[Label]] = {}
        for ann in data.annotated_a:
            by_person.setdefault(ann.spans[0].surface, []).append(ann.document.label)
        agree = total = 0
        for labels in by_person.values():
            majority = max(set(labels), key=labels.count)
            agree += sum(l is majority for l in labels)
            total += len(labels)
        assert 0.85 <= agree / total <= 0.95

    def test_unmasked_person_cues_mislead_across_periods(self):
        # Quick one-seed smoke of the headline effect; the acceptance
        # suite sweeps seeds with tight thresholds.
        data, bundles, indexes = small_world(seed=1, n_docs=1000, n_persons=8)
        report = run_matrix(
            bundles,
            (MaskPolicy.NO_MASK, MaskPolicy.WIKID),
            indexes,
            SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.8, seed=1),
            ood_full=True,
        )
        in_domain = report.cell("a", "a", MaskPolicy.NO_MASK).accuracy
        cross_raw = report.cell("a", "b", MaskPolicy.NO_MASK).accuracy
        cross_masked = report.cell("a", "b", MaskPolicy.WIKID).accuracy
        assert in_domain >= 0.80
        assert cross_raw <= 0.55
        assert cross_masked >= 0.80
        assert cross_masked > cross_raw
        assert report.cell("a", "b", MaskPolicy.WIKID).starred
