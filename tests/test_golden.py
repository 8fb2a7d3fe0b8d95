"""Golden byte gate for the determinism contract.

Each test pins the SHA-256 of an output that must stay byte-identical
across refactors and CPUs: the experiment reports, a saved model and a saved
index, all built from one fixed synthetic config, a model trained on long
rows with `diamask eval`'s report of that model on its own corpus, which
holds every document's prediction, and the `lmi` and `tag` outputs of
`cli.dispatch` on the synthetic corpora with punctuation and mixed case
around their words, and its `index-wikidata` (plain and gzip'd dump, with
and without --person-only) and `coverage --top-k` outputs on a dump whose
names hold quotes, backslashes, control characters and line separators, and
its `experiment --config` reports on two mirrored periods and a third dataset
that also holds LOC and ORG spans, its `mask` corpus and usage report under
every policy on the tagged, punctuated corpus, and its `ingest`, `split`
(random and time), `train` (every flag off its default) and `eval` outputs
on that corpus. Comparing two runs of the same code cannot
catch a change that reorders float sums, nor can one kind of CPU; these
hashes, checked under several BLAS kernels, can.

A change to any of these bytes must be deliberate: update the hash in the
same change and say why in CHANGES.md.
"""

import gzip
import hashlib
import json
import random
from dataclasses import replace
from datetime import date

import pytest

from diamask import (
    AnnotatedDocument,
    Corpus,
    DatasetBundle,
    Document,
    FeatureSpace,
    Label,
    MaskPolicy,
    NeSpan,
    NeTag,
    SplitMode,
    SplitSpec,
    TrainConfig,
    run_matrix,
    save_corpus,
    save_index,
    save_model,
    synth_diachronic_corpus,
    train,
    write_annotations,
)
from diamask.cli import dispatch

from helpers import SYNTH_A, SYNTH_B, SYNTH_ROLE_MAP, entity_line, make_entity

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


CLI_GOLDEN = {
    "lmi.tsv": "33345689b3380fc2056bc8089ce05b27eeb18739266dd5e5eeb4dba87fe31244",
    "lmi.txt": "65eb39f015c6776e756af7d0dcd4de19a8db9f524ea4038140471cf64de1e1a9",
    "tags.jsonl": "b7f1162d42fec68121d480f5f212623038538fb72b74bd420554ccf2cde42496",
    # the plain and the gzip'd dump hold the same entities, so each pair is one hash
    "index.idx": "29d0f0e1a0908c1cc7af3d2f2956952dc83075497a00d4300eb475d9bd45eb24",
    "index_gz.idx": "29d0f0e1a0908c1cc7af3d2f2956952dc83075497a00d4300eb475d9bd45eb24",
    "index_person.idx": "f4c9b49db65320bcd36364bfbb8b0e44d419bbcc69ce53314e99e42f8bbfa6a8",
    "index_gz_person.idx": "f4c9b49db65320bcd36364bfbb8b0e44d419bbcc69ce53314e99e42f8bbfa6a8",
    "coverage.tsv": "057dea955d2d38150f0ffc99ddbd104a33700ea4bc13b76906b85d4ffaa88424",
    "experiment.json": "1d12d0f9ecd599fb4deb3e70796ebff05787d57e0cc896e038c49ec8bd3702b7",
    "experiment.txt": "4b3cb9f11e702a66588dd170777b4378c2f08c05de9c9efc08a120457451bc02",
    "mask_ne-del.jsonl": "7ca594f9444c5fc1d99bfead6421bd0c80135bb95e265923a7f04f7bdba2cbef",
    "mask_ne-del_usage.tsv": "49ae4b7592978656021c2243843cfb3b4dfa16bd8d626c08ff9e861d5a57539c",
    "mask_basic-ner.jsonl": "2b5e76c32e202253e268695dcf33f8dc869120f8f0207aed9b8b85814575144c",
    "mask_basic-ner_usage.tsv": "5a1852a207b937b76e58841568cbd465ba179e110876151cb0da553a5c291800",
    "mask_wikid-ner.jsonl": "eaac673025b7a1becd5a4109dfbfb72729e528f93cf68b47ece8a77e584b794e",
    "mask_wikid-ner_usage.tsv": "07d2c0042e0d969485bba312cfac090d8996c14dd8cdba6497ec0245f5b2aa1a",
    "mask_no-mask.jsonl": "4848dc93fa5a4a3d6410f9fc7d513d571973dcdc0ccc2cb8f4eef24f1c30647e",
    "mask_no-mask_usage.tsv": "49ae4b7592978656021c2243843cfb3b4dfa16bd8d626c08ff9e861d5a57539c",
    "mask_wikid.jsonl": "25a1ed1c690bff9289db8d66949e027226f297aae1163d7fb423e2be80fed231",
    "mask_wikid_usage.tsv": "fe4aa602e06eaef811c991f65e2f5bd98606301834d9a3155e023e861654fc72",
    "mask_wikid-del.jsonl": "b780fb70b7d60285c69e6d5f93251626c91321836c57a2859a941d9acbaf7cce",
    "mask_wikid-del_usage.tsv": "fe4aa602e06eaef811c991f65e2f5bd98606301834d9a3155e023e861654fc72",
    "mask_wikid_temporal.jsonl": "cc22f787d0de936273637dcb4e14797cb10d57a3a12380b8ca4c145db37e8abb",
    # ingest re-emits the corpus as mask under no-mask does: one hash
    "ingest.jsonl": "4848dc93fa5a4a3d6410f9fc7d513d571973dcdc0ccc2cb8f4eef24f1c30647e",
    "split_random_train.jsonl": "7005399d4e47b3be5dbe80eb9ece2703f0887003c70dab757e287c7a01a775fc",
    "split_random_test.jsonl": "741d70644a1bac6bfd23a9aac3312f160241a7960f73b09cd0e2c4009b587e05",
    "split_time_train.jsonl": "845e249702b06270cfc05f544e456d9d2578245a771e5f84a835540513a78bf3",
    "split_time_test.jsonl": "68b117351940c474f1588c44179b26bd7d6d2aad8207a72496953a21cf9e8200",
    "train_model.json": "3d59726707a338b58bf7aabc01ba25521b013c7095c287eb5247a8958eeadb39",
    "eval.json": "d6869a327b54a72fc53fccd41da4d7906306e4f8e147c7cde66044bcf130c230",
}

# Marks around the synthetic texts' words, so that the tokenizer's edge rules
# (sigils, a kept trailing '.', stripped runs) and the tagger's word
# boundaries show in the bytes; "" is most likely, so phrases still repeat.
_PREFIXES = ("",) * 6 + ("@", "#", '"', "(", "¡")
_SUFFIXES = ("",) * 6 + (".", ",", "!", "...", ")", "'s", "-19", "²")
_EXTRA_WORDS = ("no.", "u.s.", "Straße", "İstanbul", "x²", "café!", "--", "GOV.", "@", "ß")
# Person names of both periods, their shared first names, a three-word key
# no text holds, and keys the extra words and a casefold reach.
_GAZETTEER = (
    [(name, "PER") for name in SYNTH_A[:6] + SYNTH_B[:6]]
    + [(name.split()[0], "MISC") for name in SYNTH_A[:6]]
    + [("Alan Pryce Junior", "PER"), ("strasse", "LOC"), ("İstanbul", "LOC"), ("u.s", "LOC"),
       ("budget summit", "ORG"), ("BUDGET", "MISC")]
)


def _punctuated(doc, rng):
    words = []
    for word in doc.text.split():
        if rng.random() < 0.1:
            word = word.upper()
        words.append(rng.choice(_PREFIXES) + word + rng.choice(_SUFFIXES))
        if rng.random() < 0.15:
            words.append(rng.choice(_EXTRA_WORDS))
    return replace(doc, text=" ".join(words))


# Names the index writer must escape, or must keep as they are: a quote, a
# backslash, control characters, line separators JSON leaves unescaped
# (U+2028, U+0085), an astral character and a non-ASCII letter.
_HARD_NAMES = ('Jo "JJ" Roe', "C:\\dir\\Ann", "Tab\tBell\x07Nul\x00Esc\x1b Del\x7f",
               "Line\u2028Sep", "Next\x85Line", "Astral \U0001d538 Roe", "Zoë Ångström")


def _dump_lines():
    """Dump lines for index-wikidata: the synthetic persons with dated roles,
    the hard names as labels and aliases, non-human entities, entities the
    build skips or counts as malformed, a re-added QID, and QIDs whose text
    order is not their numeric order."""
    rng = random.Random(23)
    days = (None, "1999-12-31", "2009-01-20", "2017-01-20", "1990-00-00")
    entities = []
    for i, name in enumerate(SYNTH_A + SYNTH_B):
        role = SYNTH_ROLE_MAP[name]
        positions = [(role, rng.choice(days), rng.choice(days)) for _ in range(rng.randint(0, 3))]
        entities.append(make_entity(f"Q{rng.randint(1, 10**rng.randint(1, 7))}", name,
                                    aliases=tuple(rng.sample(_HARD_NAMES, rng.randint(0, 2))),
                                    positions=tuple(positions),
                                    occupations=(f"Q{200 + i}",) * rng.randint(0, 2),
                                    sitelinks=rng.randint(0, 4), human=i % 5 != 0))
    for i, name in enumerate(_HARD_NAMES):
        entities.append(make_entity(f"Q{9 + 10**i}", name, aliases=_HARD_NAMES[i + 1:i + 3] + ("",),
                                    positions=(("Q300", "2001-02-03", None),), sitelinks=i))
    entities += [
        make_entity("Q7", "Seven Roe", occupations=("Q301",)),
        make_entity("Q07", "Leading Zero", occupations=("Q302",)),
        make_entity("Q11", "No Role"),
        make_entity("Q12", None, occupations=("Q303",)),
        make_entity("Q10", "Re Added", occupations=("Q304",), sitelinks=2),
    ]
    lines = [entity_line(e) if i % 2 else json.dumps(e) for i, e in enumerate(entities)]
    lines += ['{"id": "P39", "type": "property"}', "not json", '{"id": 5}', '{"id": "Q13", "claims": []}']
    return lines


def _temporal_dump_lines():
    """Dump lines for mask's temporal row: the tagged persons, each holding
    dated positions. One in three held its first-listed position from 2001 to
    2005 and has held another since 2010; one in three holds three open-ended
    positions, the last two from the same later start; and one in three held
    a position that ended in 2005 and has an occupation. At the snapshot,
    temporal resolution takes the since-2010 one and the first of the later
    two, and falls back to dump order where no position is still held."""
    entities = []
    for i, name in enumerate(SYNTH_A[:6] + SYNTH_B[:6]):
        early, late = f"Q{100 + i}", f"Q{200 + i}"
        positions, occupations = {
            0: (((early, "2001-01-01", "2005-12-31"), (late, "2010-01-01", None)), ()),
            1: (((early, "2005-06-01", None), (late, "2012-03-04", None),
                 (f"Q{250 + i}", "2012-03-04", None)), ()),
            2: (((early, "2001-01-01", "2005-12-31"),), (f"Q{300 + i}",)),
        }[i % 3]
        entities.append(make_entity(f"Q{1000 + i}", name, positions=positions,
                                    occupations=occupations))
    return [entity_line(e) for e in entities]


def _with_places(docs, rng):
    """docs under new ids, each with a LOC and an ORG span appended that lean
    toward its label, and an unindexed person (the PER fallback) appended to
    some: the masking policies then mask them all differently."""
    names = {NeTag.LOC: {Label.FAKE: "Oslo", Label.REAL: "Lima"},
             NeTag.ORG: {Label.FAKE: "Acme Corp", Label.REAL: "Globex"}}
    out = []
    for ann in docs:
        doc, spans, text = ann.document, list(ann.spans), ann.document.text
        appended = [(tag, by_label[doc.label if rng.random() < 0.8 else rng.choice(list(Label))])
                    for tag, by_label in names.items()]
        if rng.random() < 0.3:
            appended.append((NeTag.PER, "Zed Nobody"))
        for tag, surface in appended:
            text += " near "
            spans.append(NeSpan(start=len(text), end=len(text) + len(surface), tag=tag,
                                surface=surface))
            text += surface
        doc = replace(doc, id="c" + doc.id[1:], text=text, source="synth-c")
        out.append(AnnotatedDocument(document=doc, spans=tuple(spans)))
    return out


def _experiment_config(data, tmp):
    """An experiment config over three datasets: the mirrored periods, which
    every policy but no-mask masks to the same texts (so their models and
    evaluations are shared), and the periods' persons with places and
    organizations around them, which no other dataset matches."""
    index = tmp / "synth.idx"
    save_index(data.index, index)
    annotated = {"period-a": data.annotated_a, "period-b": data.annotated_b,
                 "places": _with_places(data.annotated_a, random.Random(29))}
    datasets = []
    for name, docs in annotated.items():
        corpus, annotations = tmp / f"{name}.jsonl", tmp / f"{name}.ann.jsonl"
        save_corpus(Corpus(name=name, documents=tuple(a.document for a in docs)), corpus)
        write_annotations(docs, annotations)
        datasets.append({"name": name, "corpus": str(corpus), "annotations": str(annotations),
                         "index": str(index)})
    config = tmp / "experiment_config.json"
    config.write_text(json.dumps({
        "datasets": datasets,
        "split": {"mode": "random", "train_fraction": 0.75, "seed": 6},
        "features": {"dimensions": 2**18, "hash_seed": 3},
        "training": {"epochs": 6, "seed": 2},
        "ood_full": True,
    }), encoding="utf-8")
    return config


@pytest.fixture(scope="module")
def cli_outputs(data, tmp_path_factory):
    """The lmi (TSV and text) and tag outputs of the CLI on both synthetic
    periods; index-wikidata on a dump (plain, and gzip'd in the wrapped-array
    form), with and without --person-only; coverage over two usage reports,
    labeled through the index; mask's corpus and usage report under every
    policy on the tagged corpus (only the wikid ones read, and are given, the
    index), and its corpus under wikid in both resolve
    modes through an index of persons whose roles changed over time;
    experiment's JSON and text reports; and ingest, split in both modes (the
    period-A documents are dated 2015, the period-B ones 2020), train on the
    random split's train side and eval of that model on its test side."""
    rng = random.Random(17)
    docs = tuple(_punctuated(doc, rng) for doc in data.corpus_a.documents + data.corpus_b.documents)
    tmp = tmp_path_factory.mktemp("cli")
    corpus, gazetteer = tmp / "corpus.jsonl", tmp / "gazetteer.tsv"
    save_corpus(Corpus(name="both", documents=docs), corpus)
    gazetteer.write_text("".join(f"{name}\t{tag}\n" for name, tag in _GAZETTEER), encoding="utf-8")
    dump, dump_gz = tmp / "dump.ndjson", tmp / "dump.json.gz"
    lines = _dump_lines()
    dump.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    dump_gz.write_bytes(gzip.compress(
        "[\n{}\n]\n".format(",\n".join(lines)).encode("utf-8"), mtime=0))
    usage_a, usage_b = tmp / "usage_a.tsv", tmp / "usage_b.tsv"
    # QIDs of records with hard names, so that the listing shows their labels
    usage_a.write_text("token\tcount\nQ300\t4\nQ19\t4\nQ109\t2\nPER\t9\nQ7\t1\nQ1000009\t3\n",
                       encoding="utf-8")
    usage_b.write_text("token\tcount\nQ1009\t3\nQ300\t1\nQ10009\t7\nQ100009\t3\n", encoding="utf-8")
    snapshot = ["--snapshot-date", "2020-12-28"]
    runs = {
        "index.idx": ["index-wikidata", "--dump", str(dump), *snapshot],
        "index_person.idx": ["index-wikidata", "--dump", str(dump), *snapshot, "--person-only"],
        "index_gz.idx": ["index-wikidata", "--dump", str(dump_gz), *snapshot],
        "index_gz_person.idx": ["index-wikidata", "--dump", str(dump_gz), *snapshot, "--person-only"],
        "coverage.tsv": ["coverage", "--usage", f"a={usage_a}", "--usage", f"b={usage_b}",
                         "--top-k", "3", "--index", str(tmp / "index.idx")],
        "lmi.tsv": ["lmi", "--corpus", str(corpus)],
        "lmi.txt": ["lmi", "--corpus", str(corpus), "--n", "1", "--top", "15",
                    "--min-count", "3", "--format", "text"],
        "tags.jsonl": ["tag", "--corpus", str(corpus), "--gazetteer", str(gazetteer)],
        "ingest.jsonl": ["ingest", "--input", str(corpus)],
    }
    for name, argv in runs.items():
        assert dispatch([*argv, "--output", str(tmp / name)]) == 0
    # the tagged spans lie next to punctuation and line ends; wikid-ner resolves
    # the indexed persons and gives the others, and MISC and LOC, their tags
    mask = ["mask", "--corpus", str(corpus), "--annotations", str(tmp / "tags.jsonl")]
    for policy in ALL_POLICIES:
        index = ["--index", str(tmp / "index.idx")] if policy.requires_index else []
        assert dispatch([*mask, "--policy", policy.value, *index,
                         "--output", str(tmp / f"mask_{policy.value}.jsonl"),
                         "--usage-report", str(tmp / f"mask_{policy.value}_usage.tsv")]) == 0
    # persons whose roles changed over time: temporal and dump order differ
    temporal_dump = tmp / "temporal_dump.ndjson"
    temporal_dump.write_text("".join(f"{line}\n" for line in _temporal_dump_lines()),
                             encoding="utf-8")
    assert dispatch(["index-wikidata", "--dump", str(temporal_dump), *snapshot,
                     "--output", str(tmp / "temporal.idx")]) == 0
    for mode in ("temporal", "dump-order"):
        assert dispatch([*mask, "--policy", "wikid", "--index", str(tmp / "temporal.idx"),
                         "--resolve-mode", mode,
                         "--output", str(tmp / f"mask_wikid_{mode}.jsonl")]) == 0
    assert dispatch(["experiment", "--config", str(_experiment_config(data, tmp)),
                     "--output-json", str(tmp / "experiment.json"),
                     "--output-text", str(tmp / "experiment.txt")]) == 0
    for mode, flags in (("random", ["--train-fraction", "0.75", "--seed", "5"]),
                        ("time", ["--boundary-date", "2018-01-01"])):
        assert dispatch(["split", "--corpus", str(corpus), "--mode", mode, *flags,
                         "--train-output", str(tmp / f"split_{mode}_train.jsonl"),
                         "--test-output", str(tmp / f"split_{mode}_test.jsonl")]) == 0
    assert dispatch(["train", "--corpus", str(tmp / "split_random_train.jsonl"),
                     "--epochs", "4", "--learning-rate", "0.05", "--l2", "1e-5", "--seed", "3",
                     "--orders", "1,3", "--dimensions", "65536", "--hash-seed", "9",
                     "--output", str(tmp / "train_model.json")]) == 0
    assert dispatch(["eval", "--model", str(tmp / "train_model.json"),
                     "--corpus", str(tmp / "split_random_test.jsonl"),
                     "--output", str(tmp / "eval.json")]) == 0
    return tmp


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_output_bytes(cli_outputs, name):
    assert sha256((cli_outputs / name).read_bytes()) == CLI_GOLDEN[name]


def test_temporal_mask_row_differs_from_dump_order(cli_outputs):
    temporal = (cli_outputs / "mask_wikid_temporal.jsonl").read_bytes()
    assert temporal != (cli_outputs / "mask_wikid_dump-order.jsonl").read_bytes()
