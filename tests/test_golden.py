"""Golden byte gate for the determinism contract.

Each test pins the SHA-256 of an output that must stay byte-identical
across refactors and CPUs: the experiment reports, a saved model and a saved
index, all built from one fixed synthetic config, and a model trained on long
rows with `diamask eval`'s report of that model on its own corpus, which
holds every document's prediction. Comparing two runs of the same code cannot
catch a change that reorders float sums, nor can one kind of CPU; these
hashes, checked under several BLAS kernels, can.

A change to any of these bytes must be deliberate: update the hash in the
same change and say why in CHANGES.md.
"""

import hashlib
import random
from datetime import date

import pytest

from diamask import (
    Corpus,
    DatasetBundle,
    Document,
    FeatureSpace,
    Label,
    MaskPolicy,
    SplitMode,
    SplitSpec,
    TrainConfig,
    run_matrix,
    save_corpus,
    save_index,
    save_model,
    synth_diachronic_corpus,
    train,
)
from diamask.cli import dispatch

from helpers import SYNTH_A, SYNTH_B, SYNTH_ROLE_MAP

ALL_POLICIES = tuple(MaskPolicy)

GOLDEN = {
    "random_ood_full.json": "7b60700f98e767bbc2a36d3818b9ef70c458cf37f8458bc42d702a4e3a5d2db1",
    "random_ood_full.txt": "0dd16679cb1de9f03663c1e54801a3b26de65b72ea7487728dc6332846c640b7",
    "time.json": "e3d7572a84973383287ef5e9e4848e8bb0093ba68c2c36d92e0df25b9bafb343",
    "time.txt": "a1788c6622a2be06406721b205cf4cff97ba0afa8513c8dc622742e9b6f6ae77",
    "model.json": "b355bc19af42b339c315cf030b7cf01326ed781fd051fba2374f42d61d6fcaf1",
    "index.idx": "0596f121947b11ab88f0178f674c7d2b060de8e967c718a759ca6d6cc551a8b9",
    "long_model.json": "7de7724249e52277e7a6a989eaa8a1b4548384ee8619031c6dbe59ffb751540e",
    "long_eval.json": "d8283066b7e1899c693187dcc3d128cea99a7dd6f524483093a375fc7775268f",
}


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def data():
    return synth_diachronic_corpus(
        seed=11,
        n_docs=120,
        period_a_persons=SYNTH_A[:6],
        period_b_persons=SYNTH_B[:6],
        role_map=SYNTH_ROLE_MAP,
    )


def test_random_split_with_ood_full_reports(data):
    bundles = [
        DatasetBundle(name="period-a", docs=data.annotated_a),
        DatasetBundle(name="period-b", docs=data.annotated_b),
    ]
    indexes = {"period-a": data.index, "period-b": data.index}
    spec = SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.8, seed=4)
    report = run_matrix(bundles, ALL_POLICIES, indexes, spec, ood_full=True)
    assert sha256(report.to_json()) == GOLDEN["random_ood_full.json"]
    assert sha256(report.to_text()) == GOLDEN["random_ood_full.txt"]


def test_time_split_reports(data):
    # Both datasets mix the two periods, so one boundary between them gives
    # every dataset a period-A training side and a period-B test side.
    mixed = data.annotated_a + data.annotated_b
    bundles = [
        DatasetBundle(name="even", docs=mixed[0::2]),
        DatasetBundle(name="odd", docs=mixed[1::2]),
    ]
    indexes = {"even": data.index, "odd": data.index}
    spec = SplitSpec(mode=SplitMode.TIME_BASED, boundary_date=date(2018, 1, 1))
    report = run_matrix(bundles, ALL_POLICIES, indexes, spec, ood_full=False)
    assert sha256(report.to_json()) == GOLDEN["time.json"]
    assert sha256(report.to_text()) == GOLDEN["time.txt"]


def test_saved_model_bytes(data, tmp_path):
    model = train(data.corpus_a, FeatureSpace(hash_seed=3), TrainConfig(seed=5))
    path = tmp_path / "model.json"
    save_model(model, path)
    assert sha256(path.read_bytes()) == GOLDEN["model.json"]


def test_saved_index_bytes(data, tmp_path):
    path = tmp_path / "index.idx"
    save_index(data.index, path)
    assert sha256(path.read_bytes()) == GOLDEN["index.idx"]


@pytest.fixture(scope="module")
def long_corpus():
    # 300-token documents over 40 words: most unigrams occur 3 or more times
    # in a row, where a dot product's summation order shows in the weights.
    rng = random.Random(13)
    words = [f"w{k}" for k in range(40)]
    docs = tuple(
        Document(
            id=f"d{i:02d}",
            text=" ".join(rng.choice(words[:30] if i % 2 else words[10:]) for _ in range(300)),
            label=Label.FAKE if i % 2 else Label.REAL,
        )
        for i in range(24)
    )
    return Corpus(name="long", documents=docs)


def test_saved_long_row_model_bytes(long_corpus, tmp_path):
    model = train(long_corpus, FeatureSpace(hash_seed=3), TrainConfig(seed=5))
    path = tmp_path / "model.json"
    save_model(model, path)
    assert sha256(path.read_bytes()) == GOLDEN["long_model.json"]


def test_eval_report_of_long_row_model(long_corpus, tmp_path):
    model_path, corpus_path = tmp_path / "model.json", tmp_path / "long.jsonl"
    out = tmp_path / "eval.json"
    save_model(train(long_corpus, FeatureSpace(hash_seed=3), TrainConfig(seed=5)), model_path)
    save_corpus(long_corpus, corpus_path)
    argv = ["eval", "--model", str(model_path), "--corpus", str(corpus_path), "--output", str(out)]
    assert dispatch(argv) == 0
    assert sha256(out.read_bytes()) == GOLDEN["long_eval.json"]
