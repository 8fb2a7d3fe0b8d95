import json
import logging
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from diamask import (
    DataError,
    DatasetBundle,
    FeatureSpace,
    MaskPolicy,
    ResolveMode,
    SplitMode,
    SplitSpec,
    TrainConfig,
    evaluate,
    load_annotations,
    load_corpus,
    load_index,
    load_model,
    mask_corpus,
    run_matrix,
    save_corpus,
    save_model,
    split_random,
    synth_diachronic_corpus,
    train,
    write_annotations,
)
from diamask.cli import _parse_experiment_config, build_parser, dispatch

from helpers import SYNTH_A, SYNTH_B, SYNTH_ROLE_MAP, entity_line, make_entity, modi_dump_lines


@pytest.fixture(autouse=True)
def _fresh_logging():
    # dispatch() calls logging.basicConfig; drop the handler afterwards so
    # every test reconfigures against its own captured stderr.
    yield
    root = logging.getLogger()
    for handler in list(root.handlers):
        root.removeHandler(handler)
        handler.close()


def write_corpus_file(path, records):
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return str(path)


@pytest.fixture()
def tiny_corpus(tmp_path):
    return write_corpus_file(
        tmp_path / "tiny.jsonl",
        [
            {"id": "f0", "text": "a b x", "label": "fake"},
            {"id": "f1", "text": "a b y", "label": "fake"},
            {"id": "f2", "text": "a b", "label": "fake"},
            {"id": "r0", "text": "a b q w e", "label": "real"},
            {"id": "r1", "text": "m n", "label": "real"},
        ],
    )


@pytest.fixture()
def world(tmp_path):
    """Synthetic two-period world written to disk for pipeline tests."""
    data = synth_diachronic_corpus(
        seed=11,
        n_docs=100,
        period_a_persons=SYNTH_A[:4],
        period_b_persons=SYNTH_B[:4],
        role_map=SYNTH_ROLE_MAP,
    )
    paths = {}
    paths["corpus_a"] = tmp_path / "corpus_a.jsonl"
    paths["corpus_b"] = tmp_path / "corpus_b.jsonl"
    save_corpus(data.corpus_a, paths["corpus_a"])
    save_corpus(data.corpus_b, paths["corpus_b"])
    paths["ann_a"] = tmp_path / "ann_a.jsonl"
    paths["ann_b"] = tmp_path / "ann_b.jsonl"
    write_annotations(data.annotated_a, paths["ann_a"])
    write_annotations(data.annotated_b, paths["ann_b"])
    paths["gazetteer"] = tmp_path / "persons.tsv"
    names = list(SYNTH_A[:4]) + list(SYNTH_B[:4])
    paths["gazetteer"].write_text(
        "".join(f"{name}\tPER\n" for name in names), encoding="utf-8"
    )
    paths["dump"] = tmp_path / "dump.jsonl"
    lines = [
        entity_line(
            make_entity(
                f"Q{900001 + i}",
                name,
                positions=((SYNTH_ROLE_MAP[name],),),
                sitelinks=5,
            )
        )
        for i, name in enumerate(names)
    ]
    paths["dump"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths["index"] = tmp_path / "entities.idx"
    code = dispatch(
        [
            "index-wikidata",
            "--dump",
            str(paths["dump"]),
            "--snapshot-date",
            "2020-12-28",
            "--output",
            str(paths["index"]),
        ]
    )
    assert code == 0
    paths["data"] = data
    paths["dir"] = tmp_path
    return paths


class TestExitCodes:
    def test_no_arguments_is_a_usage_error(self):
        assert dispatch([]) == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        assert dispatch(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "SUBCOMMAND" in capsys.readouterr().out

    def test_missing_input_file_is_a_data_error(self, capsys):
        assert dispatch(["ingest", "--input", "/nope/x.jsonl", "--output", "-"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_corpus_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{oops\n")
        assert dispatch(["ingest", "--input", str(path), "--output", "-"]) == 1
        assert "line 1" in capsys.readouterr().err


class TestIngest:
    def test_reemits_canonical_jsonl(self, tiny_corpus, tmp_path):
        out = tmp_path / "out.jsonl"
        assert dispatch(["ingest", "--input", tiny_corpus, "--output", str(out)]) == 0
        loaded = load_corpus(out)
        assert [d.id for d in loaded] == ["f0", "f1", "f2", "r0", "r1"]

    def test_stdout_output(self, tiny_corpus, capsys):
        assert dispatch(["ingest", "--input", tiny_corpus, "--output", "-"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0]) == {"id": "f0", "text": "a b x", "label": "fake"}

    def test_verbose_logs_to_stderr(self, tiny_corpus):
        # In-process pytest owns the root logger, so exercise -v end to end.
        proc = subprocess.run(
            [sys.executable, "-m", "diamask", "-v", "ingest", "--input", tiny_corpus, "--output", "-"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "ingested 5 documents" in proc.stderr
        assert "ingested" not in proc.stdout

    def test_quiet_by_default(self, tiny_corpus):
        proc = subprocess.run(
            [sys.executable, "-m", "diamask", "ingest", "--input", tiny_corpus, "--output", "-"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_empty_text_is_ingested(self, tmp_path, capsys):
        path = write_corpus_file(
            tmp_path / "c.jsonl", [{"id": "a", "text": "", "label": "real"}]
        )
        assert dispatch(["ingest", "--input", path, "--output", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["text"] == ""

    @pytest.mark.parametrize("flag", [["--allow-empty-text"], ["--name", "x"]])
    def test_takes_no_options(self, tiny_corpus, flag):
        assert dispatch(["ingest", "--input", tiny_corpus, *flag, "--output", "-"]) == 2


class TestLmi:
    def test_writes_tsv_with_header(self, tiny_corpus, tmp_path):
        out = tmp_path / "lmi.tsv"
        code = dispatch(
            ["lmi", "--corpus", tiny_corpus, "--min-count", "0", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "phrase\tlabel\tcount_wl\tcount_w\tp_l_given_w\tlmi_scaled"
        assert any(line.startswith("a b\tfake\t3\t4\t0.75\t") for line in lines)

    def test_reruns_are_byte_identical(self, tiny_corpus, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        args = ["lmi", "--corpus", tiny_corpus, "--min-count", "0"]
        assert dispatch(args + ["--output", str(a)]) == 0
        assert dispatch(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_text_format(self, tiny_corpus, capsys):
        code = dispatch(
            ["lmi", "--corpus", tiny_corpus, "--min-count", "0", "--format", "text"]
        )
        assert code == 0
        assert "-- fake --" in capsys.readouterr().out


class TestTag:
    def test_tags_and_writes_annotations(self, tmp_path):
        corpus_path = write_corpus_file(
            tmp_path / "c.jsonl",
            [{"id": "d1", "text": "I met Barack Obama.", "label": "real"}],
        )
        gaz = tmp_path / "g.tsv"
        gaz.write_text("Barack Obama\tPER\n")
        out = tmp_path / "spans.jsonl"
        code = dispatch(
            ["tag", "--corpus", corpus_path, "--gazetteer", str(gaz), "--output", str(out)]
        )
        assert code == 0
        annotated = load_annotations(load_corpus(corpus_path), out)
        assert [(s.start, s.end, s.surface) for s in annotated[0].spans] == [
            (6, 18, "Barack Obama")
        ]

    def test_bad_gazetteer_is_a_data_error(self, tmp_path, tiny_corpus):
        gaz = tmp_path / "g.tsv"
        gaz.write_text("only one column\n")
        assert (
            dispatch(
                ["tag", "--corpus", tiny_corpus, "--gazetteer", str(gaz), "--output", "-"]
            )
            == 1
        )


class TestIndexWikidata:
    def test_builds_loadable_index(self, tmp_path, capsys):
        dump = tmp_path / "dump.jsonl"
        dump.write_text("\n".join(modi_dump_lines()) + "\n")
        out = tmp_path / "entities.idx"
        code = dispatch(
            [
                "index-wikidata",
                "--dump",
                str(dump),
                "--snapshot-date",
                "2020-12-28",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert "indexed 3 entities" in capsys.readouterr().err
        index = load_index(out)
        assert set(index.records) == {"Q1165", "Q76", "Q42"}

    def test_malformed_lines_reported(self, tmp_path, capsys):
        dump = tmp_path / "dump.jsonl"
        dump.write_text(modi_dump_lines()[0] + "\n{broken\n")
        out = tmp_path / "entities.idx"
        args = [
            "index-wikidata",
            "--dump",
            str(dump),
            "--snapshot-date",
            "2020-12-28",
            "--output",
            str(out),
        ]
        assert dispatch(args) == 0
        assert "1 malformed line(s)" in capsys.readouterr().err
        assert dispatch(args + ["--strict"]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_person_only_filter(self, tmp_path, capsys):
        dump = tmp_path / "dump.jsonl"
        dump.write_text(
            entity_line(make_entity("Q9", "Acme Corp", occupations=("Q2",), human=False))
            + "\n"
            + entity_line(make_entity("Q10", "Jane Roe", occupations=("Q2",)))
            + "\n"
        )
        out = tmp_path / "entities.idx"
        code = dispatch(
            [
                "index-wikidata",
                "--dump",
                str(dump),
                "--snapshot-date",
                "2020-12-28",
                "--person-only",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert set(load_index(out).records) == {"Q10"}

    @pytest.mark.parametrize("raw", ["20201228", "2020-W53-1"])
    def test_non_iso_snapshot_date_is_a_usage_error(self, raw, capsys):
        code = dispatch(["index-wikidata", "--dump", "x", "--snapshot-date", raw, "--output", "y"])
        assert code == 2
        assert "--snapshot-date" in capsys.readouterr().err

    def test_bad_snapshot_date_is_a_usage_error(self, tmp_path):
        code = dispatch(
            [
                "index-wikidata",
                "--dump",
                "x",
                "--snapshot-date",
                "12/28/2020",
                "--output",
                "y",
            ]
        )
        assert code == 2


class TestMask:
    def test_wikid_without_index_is_a_usage_error(self, world, capsys):
        code = dispatch(
            [
                "mask",
                "--corpus",
                str(world["corpus_a"]),
                "--annotations",
                str(world["ann_a"]),
                "--policy",
                "wikid",
                "--output",
                "-",
            ]
        )
        assert code == 2
        assert "--index" in capsys.readouterr().err

    def test_unknown_policy_is_a_usage_error(self, world):
        code = dispatch(
            [
                "mask",
                "--corpus",
                str(world["corpus_a"]),
                "--policy",
                "redact",
                "--output",
                "-",
            ]
        )
        assert code == 2

    def test_masks_and_reports_usage(self, world):
        out = world["dir"] / "masked_a.jsonl"
        usage = world["dir"] / "usage_a.tsv"
        code = dispatch(
            [
                "mask",
                "--corpus",
                str(world["corpus_a"]),
                "--annotations",
                str(world["ann_a"]),
                "--policy",
                "wikid",
                "--index",
                str(world["index"]),
                "--output",
                str(out),
                "--usage-report",
                str(usage),
            ]
        )
        assert code == 0
        masked = load_corpus(out)
        roles = {SYNTH_ROLE_MAP[n] for n in SYNTH_A[:4]}
        for doc in masked:
            assert any(role in doc.text for role in roles)
            assert not any(name in doc.text for name in SYNTH_A[:4])
        lines = usage.read_text().splitlines()
        assert lines[0] == "token\tcount"
        counts = [int(line.split("\t")[1]) for line in lines[1:]]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == 200  # two mentions per document

    def test_no_annotations_means_no_spans(self, world):
        out = world["dir"] / "masked_plain.jsonl"
        code = dispatch(
            [
                "mask",
                "--corpus",
                str(world["corpus_a"]),
                "--policy",
                "basic-ner",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        original = load_corpus(world["corpus_a"])
        masked = load_corpus(out)
        assert [d.text for d in masked] == [d.text for d in original]


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("diamask ")]
    parsed = [build_parser().parse_args(argv) for argv in commands]
    assert {args.command for args in parsed} == {
        "ingest", "lmi", "tag", "index-wikidata", "mask",
        "split", "train", "eval", "experiment", "coverage",
    }


class TestSplit:
    def test_random_split_sizes_and_determinism(self, world):
        train1 = world["dir"] / "train1.jsonl"
        test1 = world["dir"] / "test1.jsonl"
        train2 = world["dir"] / "train2.jsonl"
        test2 = world["dir"] / "test2.jsonl"
        base = [
            "split",
            "--corpus",
            str(world["corpus_a"]),
            "--mode",
            "random",
            "--train-fraction",
            "0.8",
            "--seed",
            "3",
        ]
        assert dispatch(base + ["--train-output", str(train1), "--test-output", str(test1)]) == 0
        assert dispatch(base + ["--train-output", str(train2), "--test-output", str(test2)]) == 0
        assert len(load_corpus(train1)) == 80
        assert len(load_corpus(test1)) == 20
        assert train1.read_bytes() == train2.read_bytes()
        assert test1.read_bytes() == test2.read_bytes()

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--strict"]])
    def test_seed_and_strict_are_not_global_flags(self, world, capsys, flag):
        argv = flag + [
            "split",
            "--corpus",
            str(world["corpus_a"]),
            "--mode",
            "random",
            "--train-output",
            "-",
            "--test-output",
            "-",
        ]
        assert dispatch(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "diamask: error:" in err

    def test_time_mode_requires_boundary(self, world, capsys):
        code = dispatch(
            [
                "split",
                "--corpus",
                str(world["corpus_a"]),
                "--mode",
                "time",
                "--train-output",
                "-",
                "--test-output",
                "-",
            ]
        )
        assert code == 2
        assert "--boundary-date" in capsys.readouterr().err

    def test_time_mode_splits_on_boundary(self, world):
        train = world["dir"] / "tt.jsonl"
        test = world["dir"] / "te.jsonl"
        code = dispatch(
            [
                "split",
                "--corpus",
                str(world["corpus_a"]),
                "--mode",
                "time",
                "--boundary-date",
                "2015-02-15",
                "--train-output",
                str(train),
                "--test-output",
                str(test),
            ]
        )
        assert code == 0
        from datetime import date

        assert all(d.date <= date(2015, 2, 15) for d in load_corpus(train))
        assert all(d.date > date(2015, 2, 15) for d in load_corpus(test))

    def test_bad_fraction_is_a_data_error(self, world):
        code = dispatch(
            [
                "split",
                "--corpus",
                str(world["corpus_a"]),
                "--mode",
                "random",
                "--train-fraction",
                "1.5",
                "--train-output",
                "-",
                "--test-output",
                "-",
            ]
        )
        assert code == 1


class TestTrainEval:
    def test_train_then_eval(self, tmp_path):
        corpus = write_corpus_file(
            tmp_path / "sep.jsonl",
            [
                {"id": "f0", "text": "zzz bad hoax", "label": "fake"},
                {"id": "f1", "text": "zzz fabricated claim", "label": "fake"},
                {"id": "r0", "text": "qqq verified story", "label": "real"},
                {"id": "r1", "text": "qqq sourced report", "label": "real"},
            ],
        )
        model_path = tmp_path / "model.json"
        code = dispatch(
            ["train", "--corpus", corpus, "--output", str(model_path), "--dimensions", "65536"]
        )
        assert code == 0
        model = load_model(model_path)
        assert model.space.dimensions == 65536
        report_path = tmp_path / "report.json"
        code = dispatch(
            ["eval", "--model", str(model_path), "--corpus", corpus, "--output", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["accuracy"] == 1.0
        assert report["n"] == 4
        assert {p["id"] for p in report["predictions"]} == {"f0", "f1", "r0", "r1"}
        assert all(p["gold"] == p["predicted"] for p in report["predictions"])

    def test_train_and_eval_at_2_to_the_40_dimensions(self, tmp_path, tiny_corpus):
        model_path = tmp_path / "model.json"
        argv = ["train", "--corpus", tiny_corpus, "--output", str(model_path)]
        assert dispatch([*argv, "--dimensions", str(2**40)]) == 0
        assert load_model(model_path).space.dimensions == 2**40
        report_path = tmp_path / "report.json"
        argv = ["eval", "--model", str(model_path), "--corpus", tiny_corpus]
        assert dispatch([*argv, "--output", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["n"] > 0

    def test_dimensions_past_2_to_the_63_are_a_data_error(self, tmp_path, tiny_corpus, capsys):
        argv = ["train", "--corpus", tiny_corpus, "--output", str(tmp_path / "model.json")]
        assert dispatch([*argv, "--dimensions", str(2**64)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert "dimensions must be a power of two in [2, 2**63]" in err

    def test_single_label_corpus_fails_training(self, tmp_path, capsys):
        corpus = write_corpus_file(
            tmp_path / "one.jsonl",
            [{"id": "f0", "text": "x", "label": "fake"}],
        )
        assert dispatch(["train", "--corpus", corpus, "--output", "-"]) == 1
        assert "both labels" in capsys.readouterr().err

    def test_orders_flag(self, tmp_path, tiny_corpus, capsys):
        model_path = tmp_path / "model.json"
        argv = ["train", "--corpus", tiny_corpus, "--output", str(model_path), "--orders"]
        assert dispatch([*argv, "1,x"]) == 2
        assert "not a comma-separated int list: '1,x'" in capsys.readouterr().err
        assert not model_path.exists()
        assert dispatch([*argv, "1"]) == 0
        assert json.loads(model_path.read_text())["space"]["orders"] == [1]

    def test_missing_model_is_a_data_error(self, tiny_corpus):
        assert dispatch(["eval", "--model", "/nope/m.json", "--corpus", tiny_corpus]) == 1

    def test_training_on_short_rows_never_loads_numpy(self, tmp_path, tiny_corpus):
        # in a fresh process: pytest's own has numpy loaded already
        argv = ["train", "--corpus", tiny_corpus, "--output", str(tmp_path / "model.json")]
        script = ("import sys\nfrom diamask.cli import dispatch\n"
                  "code = dispatch(sys.argv[1:])\nsys.exit(code or 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")


class TestPipelineComposition:
    def test_stepwise_cli_matches_run_matrix_cell(self, world):
        d = world["dir"]
        tagged = d / "tagged.jsonl"
        code = dispatch(
            [
                "tag",
                "--corpus",
                str(world["corpus_a"]),
                "--gazetteer",
                str(world["gazetteer"]),
                "--output",
                str(tagged),
            ]
        )
        assert code == 0

        masked = d / "masked.jsonl"
        code = dispatch(
            [
                "mask",
                "--corpus",
                str(world["corpus_a"]),
                "--annotations",
                str(tagged),
                "--policy",
                "wikid",
                "--index",
                str(world["index"]),
                "--output",
                str(masked),
            ]
        )
        assert code == 0

        train_path, test_path = d / "tr.jsonl", d / "te2.jsonl"
        code = dispatch(
            [
                "split",
                "--corpus",
                str(masked),
                "--mode",
                "random",
                "--train-fraction",
                "0.8",
                "--seed",
                "3",
                "--train-output",
                str(train_path),
                "--test-output",
                str(test_path),
            ]
        )
        assert code == 0

        model_path = d / "model.json"
        assert dispatch(["train", "--corpus", str(train_path), "--output", str(model_path)]) == 0
        report_path = d / "eval.json"
        code = dispatch(
            ["eval", "--model", str(model_path), "--corpus", str(test_path), "--output", str(report_path)]
        )
        assert code == 0
        cli_report = json.loads(report_path.read_text())

        # The same experiment run through the library must agree exactly.
        corpus = load_corpus(world["corpus_a"], name="a")
        annotated = tuple(load_annotations(corpus, tagged))
        index = load_index(world["index"])
        spec = SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.8, seed=3)
        lib_masked, _ = mask_corpus(annotated, MaskPolicy.WIKID, index=index)
        lib_train, lib_test = split_random(lib_masked, spec)
        lib_eval = evaluate(train(lib_train), lib_test)
        assert cli_report["accuracy"] == lib_eval.accuracy
        cli_predicted = {p["id"]: p["predicted"] for p in cli_report["predictions"]}
        lib_predicted = {
            doc.id: pred.value for doc, pred in zip(lib_test, lib_eval.predictions)
        }
        assert cli_predicted == lib_predicted

        # run_matrix splits before masking; same seed, ids, and index must
        # still land on the identical in-domain cell.
        bundle = DatasetBundle(name="a", docs=annotated)
        matrix = run_matrix([bundle], (MaskPolicy.WIKID,), {"a": index}, spec)
        cell = matrix.cell("a", "a", MaskPolicy.WIKID)
        assert cli_report["accuracy"] == cell.accuracy
        assert cli_report["n"] == cell.n_test

        # The gazetteer reproduces the generator's gold spans exactly.
        gold = {a.document.id: a.spans for a in world["data"].annotated_a}
        assert {a.document.id: a.spans for a in annotated} == gold

    def test_deleting_a_whole_document_leaves_a_usable_corpus(self, tmp_path, capsys):
        corpus = write_corpus_file(tmp_path / "c.jsonl", [
            {"id": "d1", "text": "Jane Roe", "label": "real"},
            {"id": "d2", "text": "Jane Roe spoke today", "label": "real"},
            {"id": "d3", "text": "a fake story", "label": "fake"},
            {"id": "d4", "text": "another fake story", "label": "fake"},
        ])
        spans = tmp_path / "spans.jsonl"
        spans.write_text(
            '{"doc_id": "d1", "spans": [{"start": 0, "end": 8, "tag": "PER", "text": "Jane Roe"}]}\n'
        )
        gazetteer = tmp_path / "persons.tsv"
        gazetteer.write_text("Jane Roe\tPER\n")
        masked, model = tmp_path / "m.jsonl", tmp_path / "model.json"
        assert dispatch(["mask", "--corpus", corpus, "--annotations", str(spans),
                         "--policy", "ne-del", "--output", str(masked)]) == 0
        assert load_corpus(masked).documents[0].text == ""
        for argv in (
            ["split", "--corpus", str(masked), "--mode", "random",
             "--train-output", str(tmp_path / "tr.jsonl"), "--test-output", str(tmp_path / "te.jsonl")],
            ["train", "--corpus", str(masked), "--output", str(model)],
            ["eval", "--model", str(model), "--corpus", str(masked), "--output", "-"],
            ["lmi", "--corpus", str(masked), "--min-count", "0", "--output", "-"],
            ["tag", "--corpus", str(masked), "--gazetteer", str(gazetteer),
             "--output", str(tmp_path / "tagged.jsonl")],
        ):
            assert dispatch(argv) == 0, (argv, capsys.readouterr().err)


def experiment_config(world, **overrides):
    config = {
        "datasets": [
            {
                "name": "a",
                "corpus": str(world["corpus_a"]),
                "annotations": str(world["ann_a"]),
                "index": str(world["index"]),
            },
            {
                "name": "b",
                "corpus": str(world["corpus_b"]),
                "annotations": str(world["ann_b"]),
                "index": str(world["index"]),
            },
        ],
        "policies": ["no-mask", "wikid"],
        "split": {"mode": "random", "train_fraction": 0.8, "seed": 3},
        "features": {"dimensions": 65536},
        "ood_full": True,
    }
    config.update(overrides)
    path = world["dir"] / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestExperiment:
    def test_runs_matrix_and_writes_both_renderings(self, world, capsys):
        config = experiment_config(world)
        out_json = world["dir"] / "report.json"
        out_text = world["dir"] / "report.txt"
        code = dispatch(
            [
                "experiment",
                "--config",
                str(config),
                "--output-json",
                str(out_json),
                "--output-text",
                str(out_text),
            ]
        )
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["datasets"] == ["a", "b"]
        assert len(report["cells"]) == 8
        assert report["ood_full"] is True
        text = out_text.read_text()
        assert "train=a" in text and "WikiD" in text

    def test_text_goes_to_stdout_by_default(self, world, capsys):
        config = experiment_config(world, policies=["no-mask"])
        assert dispatch(["experiment", "--config", str(config)]) == 0
        assert "train=a" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, world):
        config = experiment_config(world)
        a, b = world["dir"] / "r1.json", world["dir"] / "r2.json"
        for out in (a, b):
            code = dispatch(
                ["experiment", "--config", str(config), "--output-json", str(out)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verbose_names_reused_policies_on_stderr_only(self, world):
        # In-process pytest owns the root logger, so exercise -v end to end.
        config = experiment_config(world, policies=["no-mask", "wikid", "wikid-del"])
        quiet, verbose = (
            subprocess.run(
                [sys.executable, "-m", "diamask", *flags, "experiment", "--config", str(config)],
                capture_output=True,
                text=True,
            )
            for flags in ([], ["-v"])
        )
        assert quiet.returncode == verbose.returncode == 0
        assert quiet.stderr == ""
        assert verbose.stdout == quiet.stdout
        reused = "policy wikid-del masks every dataset as wikid does; its cells are reused"
        assert reused in verbose.stderr

    def test_missing_datasets_key_is_a_data_error(self, world, capsys):
        config = world["dir"] / "bad.json"
        config.write_text("{}")
        assert dispatch(["experiment", "--config", str(config)]) == 1
        assert "datasets" in capsys.readouterr().err

    def test_malformed_config_is_a_data_error(self, world):
        config = world["dir"] / "bad.json"
        config.write_text("{nope")
        assert dispatch(["experiment", "--config", str(config)]) == 1

    def test_an_index_shared_by_datasets_is_read_once(self, world, monkeypatch):
        # both datasets name the same index file, as in README's example config
        calls = []

        def counting_load_index(path):
            calls.append(path)
            return load_index(path)

        monkeypatch.setattr("diamask.cli.load_index", counting_load_index)
        config = experiment_config(world, policies=["no-mask", "wikid"])
        assert dispatch(["experiment", "--config", str(config)]) == 0
        assert calls == [str(world["index"])]

    def test_config_is_checked_before_any_input_is_read(self, world, capsys):
        config = experiment_config(
            world,
            datasets=[{"name": "a", "corpus": str(world["dir"] / "missing.jsonl")}],
            split={"mode": "bogus"},
        )
        assert dispatch(["experiment", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: experiment config {config}: split: bad 'mode'")


def test_readme_experiment_config_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```json\n(\{\n  \"datasets\".*?)^```", readme,
                          flags=re.DOTALL | re.MULTILINE)
    datasets, policies, split, options = _parse_experiment_config(json.loads(block))
    assert datasets == [
        ("period-a", "a.spans.jsonl", "a.jsonl", "entities.idx"),
        ("period-b", "b.spans.jsonl", "b.jsonl", "entities.idx"),
    ]
    assert [p.value for p in policies] == [
        "no-mask", "ne-del", "basic-ner", "wikid", "wikid-del", "wikid-ner",
    ]
    assert split == SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.8, seed=7)
    assert options == {
        "space": FeatureSpace(orders=(1, 2), dimensions=1048576, hash_seed=0),
        "config": TrainConfig(epochs=10, learning_rate=0.1, l2=1e-6, seed=7),
        "resolve_mode": ResolveMode.DUMP_ORDER,
        "ood_full": False,
    }


def test_readme_model_example_loads_and_saves_back(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r'^```json\n(\{"format_version": 1, "space".*?)^```', readme,
                          flags=re.DOTALL | re.MULTILINE)
    example = json.loads(block)
    path = tmp_path / "model.json"
    path.write_text(block, encoding="utf-8")
    model = load_model(path)
    assert model.space == FeatureSpace(orders=(1, 2), dimensions=1048576, hash_seed=0)
    assert model.config == TrainConfig(epochs=10, learning_rate=0.1, l2=1e-6, seed=7)
    assert (model.train_set, model.bias, model.weights) == ("train", 0.01, {6241: 0.4403})
    save_model(model, tmp_path / "saved.json")
    saved = json.loads((tmp_path / "saved.json").read_text(encoding="utf-8"))
    for section in ("space", "config"):  # the same values, in the same order
        assert list(saved[section].items()) == list(example[section].items())
        for name in example[section]:  # and every one of them required
            rest = {key: value for key, value in example[section].items() if key != name}
            path.write_text(json.dumps({**example, section: rest}), encoding="utf-8")
            with pytest.raises(DataError) as excinfo:
                load_model(path)
            assert str(excinfo.value) == f"{path}: {section}: missing '{name}'"


class TestCoverage:
    def write_usage(self, path, rows):
        path.write_text(
            "token\tcount\n" + "".join(f"{t}\t{c}\n" for t, c in rows), encoding="utf-8"
        )
        return str(path)

    def test_matrix_with_qid_filtering(self, tmp_path, capsys):
        a = self.write_usage(tmp_path / "a.tsv", [("Q101", 3), ("Q102", 2), ("PER", 1)])
        b = self.write_usage(tmp_path / "b.tsv", [("Q101", 1), ("Q103", 4), ("LOC", 9)])
        code = dispatch(["coverage", "--usage", f"a={a}", "--usage", f"b={b}"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "dataset\ta\tb"
        assert lines[1] == "a\t100.0\t50.0"
        assert lines[2] == "b\t50.0\t100.0"

    def test_top_k_listing(self, tmp_path, capsys):
        a = self.write_usage(tmp_path / "a.tsv", [("Q101", 3), ("Q102", 2)])
        b = self.write_usage(tmp_path / "b.tsv", [("Q101", 1)])
        code = dispatch(
            ["coverage", "--usage", f"a={a}", "--usage", f"b={b}", "--top-k", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "a\tQ101\t3" in out
        assert "b\tQ101\t1" in out

    def test_single_usage_without_top_k_is_a_usage_error(self, tmp_path, capsys):
        a = self.write_usage(tmp_path / "a.tsv", [("Q101", 3)])
        assert dispatch(["coverage", "--usage", f"a={a}"]) == 2
        assert "--usage" in capsys.readouterr().err

    def test_index_without_top_k_is_a_usage_error(self, tmp_path, capsys):
        a = self.write_usage(tmp_path / "a.tsv", [("Q101", 3)])
        code = dispatch(
            ["coverage", "--usage", f"a={a}", "--usage", f"b={a}", "--index", "nonexist.idx"]
        )
        assert code == 2
        assert "--top-k" in capsys.readouterr().err

    def test_bad_name_path_syntax_is_a_usage_error(self, tmp_path):
        a = self.write_usage(tmp_path / "a.tsv", [("Q101", 3)])
        assert dispatch(["coverage", "--usage", a, "--usage", f"b={a}"]) == 2

    def test_bad_count_is_a_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("token\tcount\nQ101\tmany\n")
        code = dispatch(
            ["coverage", "--usage", f"a={bad}", "--usage", f"b={bad}"]
        )
        assert code == 1


# -- outputs: "-" prints exactly the bytes a path gets -----------------------

_MASK = ["mask", "--corpus", "{corpus_a}", "--annotations", "{ann_a}", "--policy", "wikid",
         "--index", "{index}"]
_SPLIT = ["split", "--corpus", "{corpus_a}", "--mode", "random"]
_RUN_EXPERIMENT = ["experiment", "--config", "{config}"]


@pytest.fixture()
def outputs_world(world):
    """world plus a usage report, a model and an experiment config."""
    paths = {**world, "usage": world["dir"] / "usage.tsv", "model": world["dir"] / "model.json",
             "config": experiment_config(world)}
    for argv in (
        _MASK + ["--output", "{dir}/masked.jsonl", "--usage-report", "{usage}"],
        ["train", "--corpus", "{corpus_a}", "--output", "{model}"],
    ):
        assert dispatch([arg.format(**paths) for arg in argv]) == 0
    return paths


OUTPUT_FLAGS = [
    pytest.param(["ingest", "--input", "{corpus_a}", "--output", "{out}"], id="ingest"),
    pytest.param(["lmi", "--corpus", "{corpus_a}", "--format", "text", "--output", "{out}"],
                 id="lmi"),
    pytest.param(["tag", "--corpus", "{corpus_a}", "--gazetteer", "{gazetteer}",
                  "--output", "{out}"], id="tag"),
    pytest.param(["index-wikidata", "--dump", "{dump}", "--snapshot-date", "2020-12-28",
                  "--output", "{out}"], id="index-wikidata"),
    pytest.param(_MASK + ["--output", "{out}", "--usage-report", "{dir}/u.tsv"], id="mask-output"),
    pytest.param(_MASK + ["--output", "{dir}/m.jsonl", "--usage-report", "{out}"],
                 id="mask-usage-report"),
    pytest.param(_SPLIT + ["--train-output", "{out}", "--test-output", "{dir}/te.jsonl"],
                 id="split-train-output"),
    pytest.param(_SPLIT + ["--train-output", "{dir}/tr.jsonl", "--test-output", "{out}"],
                 id="split-test-output"),
    pytest.param(["train", "--corpus", "{corpus_a}", "--output", "{out}"], id="train"),
    pytest.param(["eval", "--model", "{model}", "--corpus", "{corpus_b}", "--output", "{out}"],
                 id="eval"),
    pytest.param(_RUN_EXPERIMENT + ["--output-json", "{out}", "--output-text", "{dir}/r.txt"],
                 id="experiment-output-json"),
    pytest.param(_RUN_EXPERIMENT + ["--output-json", "{dir}/r.json", "--output-text", "{out}"],
                 id="experiment-output-text"),
    pytest.param(["coverage", "--usage", "a={usage}", "--usage", "b={usage}", "--top-k", "2",
                  "--index", "{index}", "--output", "{out}"], id="coverage"),
]


@pytest.mark.parametrize("argv", OUTPUT_FLAGS)
def test_dash_prints_the_bytes_a_path_gets(outputs_world, tmp_path, monkeypatch, capsysbinary,
                                           argv):
    out = tmp_path / "out"
    assert dispatch([arg.format(out=out, **outputs_world) for arg in argv]) == 0
    written = out.read_bytes()
    capsysbinary.readouterr()
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert dispatch([arg.format(out="-", **outputs_world) for arg in argv]) == 0
    assert capsysbinary.readouterr().out == written
    assert not (cwd / "-").exists()


def test_dash_is_utf8_whatever_the_terminal_encoding(tmp_path):
    corpus = write_corpus_file(
        tmp_path / "c.jsonl", [{"id": "d1", "text": "Zoë Ñúñez — 東京", "label": "real"}]
    )
    out = tmp_path / "out.jsonl"
    assert dispatch(["ingest", "--input", corpus, "--output", str(out)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "diamask", "ingest", "--input", corpus, "--output", "-"],
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "ascii"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_bytes()


COUNT_FLAGS = [
    pytest.param(["lmi", "--corpus", "{f}", "--n", "0"], "--n", id="lmi-zero-n"),
    pytest.param(["lmi", "--corpus", "{f}", "--top", "0"], "--top", id="lmi-zero-top"),
    pytest.param(["lmi", "--corpus", "{f}", "--min-count", "-1"], "--min-count",
                 id="lmi-negative-min-count"),
    pytest.param(["coverage", "--usage", "a={f}", "--top-k", "-1"], "--top-k",
                 id="coverage-negative-top-k-without-index"),
    pytest.param(["coverage", "--usage", "a={f}", "--top-k", "0"], "--top-k",
                 id="coverage-zero-top-k"),
    pytest.param(["coverage", "--usage", "a={f}", "--usage", "b={f}", "--top-k", "0"], "--top-k",
                 id="coverage-zero-top-k-two-reports"),
]


@pytest.mark.parametrize("argv, flag", COUNT_FLAGS)
def test_bad_count_flag_is_a_usage_error(tiny_corpus, capsys, argv, flag):
    # no file is read: argparse rejects the value, naming the flag
    code = dispatch([arg.format(f=tiny_corpus) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert f"argument {flag}: must be >= " in err

# -- hostile input: one `error:` line and exit 1, never a traceback ----------

def _index_file(snapshot_date="2020-12-28", record_count=1, format_version=1, **statement):
    header = {"format_version": format_version, "snapshot_date": snapshot_date,
              "record_count": record_count}
    return json.dumps(header) + "\n" + _index_record("Q1", **statement)


def _index_record(qid, label="Jane Roe", **statement):
    """An index record line: qid, called label, holds position Q2 with the statement fields."""
    statement = {"property": "P39", "value": "Q2", "start": None, "end": None, **statement}
    record = {"qid": qid, "label": label, "aliases": [], "sitelinks": 1, "statements": [statement]}
    return json.dumps(record) + "\n"


def _config(**fields):
    return json.dumps({"datasets": [], "split": {"mode": "random"}, **fields})


def _model(space=None, config=None, **fields):
    model = {"format_version": 1, "space": {"orders": [1, 2], "dimensions": 16, "hash_seed": 0},
             "config": {"epochs": 1, "learning_rate": 0.1, "l2": 0.0, "seed": 7},
             "train_set": "t", "bias": 0.0, "weights": {"3": 1.5}, **fields}
    model["space"].update(space or {})
    model["config"].update(config or {})
    return json.dumps(model)


def _dataset(corpus="{corpus}", **split):
    """A config whose one dataset 'x' reads corpus, unmasked, under the given split."""
    return _config(datasets=[{"name": "x", "corpus": corpus}], policies=["no-mask"], split=split)


def _dump_entity(**fields):
    """A dump line of an indexable entity, Q1 ("Jane Roe", occupation Q2), with fields replaced."""
    entity = make_entity("Q1", "Jane Roe", occupations=("Q2",), sitelinks=1)
    return entity_line({**entity, **fields}) + "\n"


def _span(**fields):
    span = {"start": 0, "end": 8, "tag": "PER", "text": "Jane Roe", **fields}
    return json.dumps({"doc_id": "d1", "spans": [span]}) + "\n"


_EXPERIMENT = ["experiment", "--config", "{f}"]
_MASK_ANNOTATED = ["mask", "--corpus", "{corpus}", "--annotations", "{f}", "--policy", "no-mask",
                   "--output", "-"]
_MASK_INDEXED = ["mask", "--corpus", "{corpus}", "--policy", "wikid", "--index", "{f}",
                 "--output", "-"]
_EVAL = ["eval", "--model", "{f}", "--corpus", "{corpus}"]
_INGEST = ["ingest", "--input", "{f}", "--output", "-"]
_TOP_LABELS = ["coverage", "--usage", "a={f}", "--top-k", "1"]
_TAG = ["tag", "--corpus", "{corpus}", "--gazetteer", "{f}", "--output", "{corpus}.out"]
_INDEX_DUMP = ["index-wikidata", "--dump", "{f}", "--snapshot-date", "2020-12-28",
               "--output", "{corpus}.idx"]
_TRAIN = ["train", "--corpus", "{f}", "--output", "{corpus}.model"]
_TWO_LABELS = ('{"id": "a", "text": "x y", "label": "real"}\n'
               '{"id": "b", "text": "x z", "label": "fake"}\n')
# two real documents dated 2020, then a fake one dated 2021
_DATED = "".join(
    json.dumps({"id": doc_id, "text": text, "label": label, "date": day}) + "\n"
    for doc_id, text, label, day in [("e1", "a b", "real", "2020-01-01"),
                                      ("e2", "a c", "real", "2020-02-01"),
                                      ("e3", "a d", "fake", "2021-01-01")]
)

# (file contents, argv, what the error line must name); in text contents,
# {corpus} and {dated} stand for the paths of a one-document undated corpus
# and of _DATED
HOSTILE = [
    pytest.param("[1]", _EXPERIMENT, "hostile: expected a JSON object", id="config-not-an-object"),
    pytest.param(_config(datasets=5), _EXPERIMENT, "hostile: bad 'datasets'",
                 id="config-datasets-not-a-list"),
    pytest.param(_config(datasets=["c"]), _EXPERIMENT, "hostile: datasets[0]",
                 id="config-dataset-a-string"),
    pytest.param(_config(split="random"), _EXPERIMENT, "hostile: split",
                 id="config-split-a-string"),
    pytest.param(_config(split={"mode": "bogus"}), _EXPERIMENT, "split: bad 'mode'",
                 id="config-split-mode"),
    pytest.param(_config(split={"mode": "time", "boundary_date": "2020-13-01"}), _EXPERIMENT,
                 "split: bad 'boundary_date'", id="config-boundary-date"),
    pytest.param(_config(split={"mode": "time", "boundary_date": "20200101"}), _EXPERIMENT,
                 "split: bad 'boundary_date'", id="config-compact-boundary-date"),
    pytest.param(_config(split={"mode": "random", "train_fraction": [0.8]}), _EXPERIMENT,
                 "split: bad 'train_fraction'", id="config-train-fraction"),
    pytest.param(_config(resolve_mode="sideways"), _EXPERIMENT, "hostile: bad 'resolve_mode'",
                 id="config-resolve-mode"),
    pytest.param(_config(policies=5), _EXPERIMENT, "hostile: bad 'policies'",
                 id="config-policies-not-a-list"),
    pytest.param(_config(features={"orders": ["x"]}), _EXPERIMENT, "features: bad 'orders'",
                 id="config-orders"),
    pytest.param(_config(features={"dimensions": 1e400}), _EXPERIMENT,
                 "features: bad 'dimensions'", id="config-dimensions"),
    pytest.param(_config(features={"dimensions": 2**64}), _EXPERIMENT,
                 "features: dimensions must be a power of two in [2, 2**63]",
                 id="config-dimensions-2-to-64"),
    pytest.param(_config(split={"mode": "random", "train_fraction": 1.5}), _EXPERIMENT,
                 "hostile: split: train_fraction must be in (0, 1), got 1.5",
                 id="config-train-fraction-out-of-range"),
    pytest.param(_config(training={"epochs": 0}), _EXPERIMENT,
                 "hostile: training: epochs must be >= 1, got 0", id="config-epochs-zero"),
    pytest.param(_config(training={"learning_rate": float("nan")}), _EXPERIMENT,
                 "hostile: training: learning_rate must be finite and > 0, got nan",
                 id="config-learning-rate-nan"),
    pytest.param(_config(training={"l2": float("inf")}), _EXPERIMENT,
                 "hostile: training: l2 must be finite and >= 0, got inf", id="config-l2-infinite"),
    pytest.param(_config(ood_full="false"), _EXPERIMENT,
                 'hostile: bad \'ood_full\' (expected true or false, got "false")',
                 id="config-ood-full-a-string"),
    pytest.param(_config(features={"dimensions": 1024.9}), _EXPERIMENT,
                 "features: bad 'dimensions' (expected an integer, got 1024.9)",
                 id="config-dimensions-a-float"),
    pytest.param(_config(features={"orders": "12"}), _EXPERIMENT,
                 "features: bad 'orders' (expected a list, got \"12\")",
                 id="config-orders-a-string"),
    pytest.param(_config(training={"epochs": True}), _EXPERIMENT,
                 "training: bad 'epochs' (expected an integer, got true)",
                 id="config-epochs-a-bool"),
    pytest.param(_config(split={"mode": "random", "seed": 1.7}), _EXPERIMENT,
                 "split: bad 'seed' (expected an integer, got 1.7)", id="config-seed-a-float"),
    pytest.param(_config(datasets=[{"name": 5, "corpus": "{corpus}"}]), _EXPERIMENT,
                 "datasets[0]: bad 'name' (expected a string, got 5)",
                 id="config-name-a-number"),
    pytest.param(_config(datasets=[{"name": "a", "corpus": ""}]), _EXPERIMENT,
                 "hostile: datasets[0]: bad 'corpus' (expected a non-empty string, got \"\")",
                 id="config-empty-corpus-path"),
    pytest.param(_config(datasets=[{"name": "a", "corpus": "{corpus}", "index": "{corpus}.idx"}]),
                 _EXPERIMENT, "hostile: datasets[0]: [Errno 2] No such file or directory",
                 id="config-missing-index"),
    pytest.param(_config(), _EXPERIMENT, "hostile: datasets must not be empty",
                 id="config-no-datasets"),
    pytest.param(_config(datasets=[{"name": "a", "corpus": "{corpus}"}] * 2), _EXPERIMENT,
                 "hostile: dataset names must be unique, got ['a', 'a']",
                 id="config-duplicate-dataset-names"),
    # the matrix's checks across entries come before any input file is read
    pytest.param(_config(datasets=[{"name": "a", "corpus": "nonexist.jsonl"}], policies=[]),
                 _EXPERIMENT, "hostile: policies must not be empty",
                 id="config-no-policies-missing-corpus"),
    pytest.param(_config(datasets=[{"name": "a", "corpus": "nonexist.jsonl"}]), _EXPERIMENT,
                 "hostile: dataset 'a' has no entity index but a policy needs one",
                 id="config-no-index-missing-corpus"),
    pytest.param(_dataset(mode="time", boundary_date="2020-06-01"), _EXPERIMENT,
                 "dataset 'x': documents without a date cannot be time-split: d1",
                 id="matrix-time-split-undated"),
    pytest.param(_dataset(mode="random", train_fraction=0.5), _EXPERIMENT,
                 "dataset 'x': the training side of the split is empty",
                 id="matrix-empty-training-side"),
    pytest.param(_dataset("{dated}", mode="time", boundary_date="2099-01-01"), _EXPERIMENT,
                 "dataset 'x': the test side of the split is empty", id="matrix-empty-test-side"),
    pytest.param(_dataset("{dated}", mode="time", boundary_date="2020-06-01"), _EXPERIMENT,
                 "dataset 'x': training corpus must contain both labels",
                 id="matrix-one-label-training-side"),
    pytest.param(_TWO_LABELS, [*_TRAIN, "--learning-rate", "1e300"], "training diverged",
                 id="train-diverging"),
    pytest.param(_TWO_LABELS, [*_TRAIN, "--learning-rate", "nan"],
                 "learning_rate must be finite and > 0, got nan", id="train-learning-rate-nan"),
    pytest.param(_TWO_LABELS, [*_TRAIN, "--l2", "inf"], "l2 must be finite and >= 0, got inf",
                 id="train-l2-infinite"),
    pytest.param("", _TRAIN, "hostile: cannot train on an empty corpus",
                 id="train-empty-corpus"),
    pytest.param('{"id": "a", "text": "x y", "label": "real"}\n', _TRAIN,
                 "hostile: training corpus must contain both labels",
                 id="train-one-label-corpus"),
    pytest.param("", ["split", "--corpus", "{f}", "--mode", "random", "--train-output", "-",
                      "--test-output", "-"],
                 "hostile: cannot split an empty corpus", id="split-empty-corpus"),
    pytest.param(_config(training=[1]), _EXPERIMENT, "hostile: training",
                 id="config-training-not-an-object"),
    # a key no table holds is an error in every object of the config and the model
    pytest.param(_config(ood_ful=True), _EXPERIMENT, "hostile: unknown key 'ood_ful'",
                 id="config-unknown-key"),
    pytest.param(_config(datasets=[{"name": "a", "corpus": "{corpus}",
                                    "annotation": "a.spans.jsonl"}]), _EXPERIMENT,
                 "hostile: datasets[0]: unknown key 'annotation'", id="config-dataset-unknown-key"),
    pytest.param(_config(split={"mode": "random", "boundry": 1}), _EXPERIMENT,
                 "hostile: split: unknown key 'boundry'", id="config-split-unknown-key"),
    pytest.param(_config(features={"dimension": 1024}), _EXPERIMENT,
                 "hostile: features: unknown key 'dimension'", id="config-features-unknown-key"),
    pytest.param(_config(training={"epoch": 1, "learning_rat": 5}), _EXPERIMENT,
                 "hostile: training: unknown key 'epoch'", id="config-training-unknown-key"),
    pytest.param(_model(trainset="t"), _EVAL, "hostile: unknown key 'trainset'",
                 id="model-unknown-key"),
    pytest.param(_model(space={"hash": 0}), _EVAL, "hostile: space: unknown key 'hash'",
                 id="model-space-unknown-key"),
    pytest.param(_model(config={"epoch": 1}), _EVAL, "hostile: config: unknown key 'epoch'",
                 id="model-config-unknown-key"),
    # every model field is required; an absent training field took its default
    pytest.param(_model().replace(', "seed": 7', ""), _EVAL, "hostile: config: missing 'seed'",
                 id="model-config-field-missing"),
    pytest.param(_model().replace(', "bias": 0.0', ""), _EVAL, "hostile: missing 'bias'",
                 id="model-field-missing"),
    pytest.param(_model(space={"dimensions": 2**64}), _EVAL,
                 "hostile: space: dimensions must be a power of two in [2, 2**63]",
                 id="model-dimensions-2-to-64"),
    pytest.param(_model(weights={"3": 10**400}), _EVAL,
                 "hostile: bad 'weights' (int too large to convert to float)",
                 id="model-weight-beyond-float"),
    pytest.param(_model(bias=10**400), _EVAL,
                 "hostile: bad 'bias' (int too large to convert to float)",
                 id="model-bias-beyond-float"),
    pytest.param(_model(weights=[1]), _EVAL,
                 "hostile: bad 'weights' (expected a JSON object, got [1])",
                 id="model-weights-a-list"),
    pytest.param(_model(weights={"3": "1.5"}), _EVAL,
                 "hostile: bad 'weights' (expected a number, got \"1.5\")",
                 id="model-weight-a-string"),
    pytest.param(_model(weights={"3": True}), _EVAL,
                 "hostile: bad 'weights' (expected a number, got true)",
                 id="model-weight-a-bool"),
    pytest.param(_model(bias="0.5"), _EVAL, "hostile: bad 'bias' (expected a number, got \"0.5\")",
                 id="model-bias-a-string"),
    pytest.param(_model(weights={"3": float("nan")}), _EVAL,
                 "hostile: bad 'weights' (expected a finite number, got NaN)",
                 id="model-weight-nan"),
    pytest.param(_model(bias=float("inf")), _EVAL,
                 "hostile: bad 'bias' (expected a finite number, got Infinity)",
                 id="model-bias-infinity"),
    pytest.param(_model(config={"learning_rate": float("nan")}), _EVAL,
                 "hostile: config: learning_rate must be finite and > 0, got nan",
                 id="model-learning-rate-nan"),
    # every model field has its JSON type; a float or a bool is not an integer
    *(pytest.param(_model(space=space, config=config), _EVAL, f"hostile: {message}",
                   id=f"model-{name}")
      for name, space, config, message in [
          ("hash-seed-a-float", {"hash_seed": 1.5}, None,
           "space: bad 'hash_seed' (expected an integer, got 1.5)"),
          ("order-a-float", {"orders": [1.5]}, None,
           "space: bad 'orders' (expected an integer, got 1.5)"),
          ("order-a-bool", {"orders": [True]}, None,
           "space: bad 'orders' (expected an integer, got true)"),
          ("epochs-a-bool", None, {"epochs": True},
           "config: bad 'epochs' (expected an integer, got true)"),
          ("epochs-a-float", None, {"epochs": 2.5},
           "config: bad 'epochs' (expected an integer, got 2.5)"),
          ("seed-a-string", None, {"seed": "x"},
           'config: bad \'seed\' (expected an integer, got "x")'),
          ("learning-rate-a-bool", None, {"learning_rate": True},
           "config: bad 'learning_rate' (expected a number, got true)"),
      ]),
    pytest.param('{"format_version": 1,\n "space": {oops}\n}', _EVAL,
                 "hostile line 2: malformed JSON (Expecting property name",
                 id="model-malformed-json"),
    pytest.param('{"datasets": [],\n\n "split": }', _EXPERIMENT,
                 "hostile line 3: malformed JSON (Expecting value)", id="config-malformed-json"),
    pytest.param(_model(train_set=5), _EVAL, "hostile: bad 'train_set' (expected a string, got 5)",
                 id="model-train-set-not-a-string"),
    # every field finite, but the corpus document's score is not: at 2 dimensions
    # "Jane Roe spoke." has counts {1: 3, 0: 2}, so its terms are inf and -inf
    pytest.param(_model(space={"dimensions": 2}, weights={"1": 1e308, "0": -1e308}), _EVAL,
                 "hostile: a document scores nan, not a finite number", id="model-scores-nan"),
    pytest.param(_model(weights={str(b): 1e308 for b in range(16)}), _EVAL,
                 "hostile: a document scores inf, not a finite number", id="model-scores-inf"),
    pytest.param(_model(), ["eval", "--model", "{f}", "--corpus", "/dev/null"],
                 "error: /dev/null: cannot evaluate on an empty corpus", id="eval-empty-corpus"),
    pytest.param(_span(start="0"), _MASK_ANNOTATED, "hostile line 1:", id="span-string-offset"),
    pytest.param(_span(end=True), _MASK_ANNOTATED, "hostile line 1:", id="span-bool-offset"),
    pytest.param('{"doc_id": "d1", "spans": ["start end tag text"]}\n', _MASK_ANNOTATED,
                 "hostile line 1:", id="span-not-an-object"),
    pytest.param('{"doc_id": "d1", "spans": 5}\n', _MASK_ANNOTATED, "hostile line 1:",
                 id="spans-not-a-list"),
    pytest.param('{"doc_id": ["d1"]}\n', _MASK_ANNOTATED, "hostile line 1:",
                 id="doc-id-not-a-string"),
    pytest.param('{"doc_id": "d1", "spans": []}\nnot json\n', _MASK_ANNOTATED,
                 "hostile line 2: malformed JSON", id="annotations-malformed-json"),
    pytest.param('{"doc_id": "d1", "spans": []}\n' + _span(tag="XYZ"), _MASK_ANNOTATED,
                 "hostile line 2: unknown entity tag 'XYZ'", id="span-unknown-tag"),
    pytest.param(_span(start=3, end=1), _MASK_ANNOTATED, "hostile line 1: bad span offsets [3, 1)",
                 id="span-start-after-end"),
    pytest.param(_span(end=99), _MASK_ANNOTATED, "hostile line 1:", id="span-past-text-end"),
    pytest.param(_span(text="John Doe"), _MASK_ANNOTATED, "hostile line 1:",
                 id="span-surface-mismatch"),
    pytest.param("[1]\n", _INGEST, "hostile line 1: expected a JSON object",
                 id="corpus-record-not-an-object"),
    pytest.param('{"id": "", "text": "x", "label": "real"}\n', _INGEST,
                 "hostile line 1: id must be a non-empty string", id="corpus-empty-id"),
    pytest.param('{"id": "a", "text": 5, "label": "real"}\n', _INGEST,
                 "hostile line 1: text must be a string", id="corpus-text-not-a-string"),
    pytest.param('{"id": "a", "text": "x", "label": "real", "source": 5}\n', _INGEST,
                 "hostile line 1: source must be a string or null",
                 id="corpus-source-not-a-string"),
    pytest.param('{"id": "a", "text": "x", "label": "real", "date": "20200101"}\n', _INGEST,
                 "hostile line 1:", id="corpus-compact-date"),
    pytest.param('{"id": "a", "text": "x", "label": "real", "date": "2020-W01-1"}\n', _INGEST,
                 "hostile line 1:", id="corpus-week-date"),
    pytest.param('{"id": "a", "text": "x", "label": "bogus"}\n', _INGEST,
                 "hostile line 1: unknown label 'bogus'", id="corpus-unknown-label"),
    pytest.param("Jane Roe\tPER\nJohn\tXYZ\n", _TAG, "hostile line 2: unknown entity tag 'XYZ'",
                 id="gazetteer-unknown-tag"),
    pytest.param("Jane Roe\tPER\n \tPER\n", _TAG,
                 "hostile line 2: gazetteer entry with empty name", id="gazetteer-empty-name"),
    pytest.param('{"id": "Q1"}\nnot json\n', [*_INDEX_DUMP, "--strict"],
                 "hostile line 2: malformed JSON (Expecting value)",
                 id="dump-strict-malformed-line"),
    # a dump entity whose fields have another JSON type is a malformed line
    *(pytest.param(_dump_entity(**fields), [*_INDEX_DUMP, *flags, "--strict"],
                   "hostile line 1: malformed entity", id=f"dump-strict-{name}")
      for name, fields, flags in [
          ("claims-a-number", {"claims": 5}, []),
          ("claim-list-a-number", {"claims": {"P106": 5}}, []),
          ("labels-a-number", {"labels": 5}, []),
          ("sitelinks-a-number", {"sitelinks": 3}, []),
          ("sitelinks-a-string", {"sitelinks": "abc"}, []),
          ("sitelinks-a-list", {"sitelinks": ["enwiki"]}, []),
          ("instance-of-a-number", {"claims": {"P31": 5}}, ["--person-only"]),
      ]),
    pytest.param(_index_file(value=5), _MASK_INDEXED, "hostile line 2: malformed index record",
                 id="index-statement-value-not-a-qid"),
    pytest.param(_index_file(start="20200101"), _MASK_INDEXED,
                 "hostile line 2: malformed index record", id="index-compact-statement-date"),
    pytest.param(_index_file(snapshot_date="20201228"), _MASK_INDEXED,
                 "hostile: malformed index header", id="index-compact-snapshot-date"),
    *(pytest.param(_index_file(record_count=count), _MASK_INDEXED,
                   "hostile: malformed index header fields", id=f"index-record-count-{name}")
      for name, count in [("a-bool", True), ("a-float", 1.9), ("a-string", "1"), ("negative", -1)]),
    *(pytest.param(_index_file(format_version=version), _MASK_INDEXED,
                   f"hostile: unsupported index format version {text}",
                   id=f"index-format-version-{name}")
      for name, version, text in [("a-bool", True, "True"), ("a-float", 1.0, "1.0")]),
    # the header counts 2 records, and Q1's second record would replace its first
    pytest.param(_index_file(record_count=2) + _index_record("Q2") + _index_record("Q1", "Jo Doe"),
                 _MASK_INDEXED, "hostile line 4: duplicate record 'Q1'", id="index-duplicate-qid"),
    pytest.param("[" * 100_000, _INGEST, "hostile line 1: malformed JSON (nested too deeply)",
                 id="corpus-nested-too-deeply"),
    pytest.param('{"id": "a", "text": "x", "label": "real"}\n{"n": ' + "1" * 5000 + "}\n", _INGEST,
                 "hostile line 2: malformed JSON (integer too long)", id="corpus-integer-too-long"),
    # neither of these reasons gives a position, so in a file of many lines no line is named
    pytest.param('{"format_version": 1,\n "bias": ' + "1" * 5000 + "\n}\n", _EVAL,
                 "hostile: malformed JSON (integer too long)", id="model-integer-too-long"),
    pytest.param("[\n" + "[" * 100_000, _EXPERIMENT, "hostile: malformed JSON (nested too deeply)",
                 id="config-nested-too-deeply"),
    pytest.param("token\tcount\nQ1\n", _TOP_LABELS,
                 "hostile line 2: expected 'token<TAB>count'", id="usage-no-count"),
    pytest.param("token\tcount\nQ1\t0\n", _TOP_LABELS, "hostile line 2", id="usage-zero-count"),
    pytest.param("token\tcount\nQ1\t-2\n", _TOP_LABELS, "hostile line 2",
                 id="usage-negative-count"),
    pytest.param("token\tcount\nPER\t2\n", ["coverage", "--usage", "a={f}", "--usage", "b={f}"],
                 "hostile: first label set is empty", id="coverage-no-role-qid"),
    # bytes rows are written as they are: a byte that is not UTF-8, a cut gzip stream
    pytest.param(b'{"id": "a", "text": "x", "label": "real"}\n{"id": "b", "text": "\xff"}\n',
                 _INGEST, "hostile line 2: not UTF-8", id="corpus-not-utf8"),
    pytest.param(b'{"doc_id": "d1", "spans": []}\n\n{"doc_id": "\xff"}\n', _MASK_ANNOTATED,
                 "hostile line 3: not UTF-8", id="annotations-not-utf8"),
    pytest.param(_index_file().encode().replace(b"Jane", b"J\xffne"), _MASK_INDEXED,
                 "hostile line 2: not UTF-8", id="index-not-utf8"),
    pytest.param(b"Jane Roe\tPER\n\xff\tLOC\n", _TAG, "hostile line 2: not UTF-8",
                 id="gazetteer-not-utf8"),
    pytest.param(b"token\tcount\nQ\xff\t2\n", _TOP_LABELS, "hostile line 2: not UTF-8",
                 id="usage-not-utf8"),
    pytest.param(b'{"format_version": 1,\n "train_set": "\xff"}\n', _EVAL,
                 "hostile line 2: not UTF-8", id="model-not-utf8"),
    pytest.param(b'{"datasets": [],\n\n "split": "\xff"}', _EXPERIMENT,
                 "hostile line 3: not UTF-8", id="config-not-utf8"),
    pytest.param(b'{"id": "Q1"}\n\xff\n', _INDEX_DUMP, "hostile line 2: not UTF-8",
                 id="dump-not-utf8"),
    pytest.param(bytes.fromhex("1f8b0800"), _INDEX_DUMP,
                 "hostile line 1: compressed data ends early", id="dump-truncated-gzip"),
]


@pytest.mark.parametrize("contents, argv, names", HOSTILE)
def test_hostile_input_exits_1_with_one_error_line(tmp_path, capsys, contents, argv, names):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "d1", "text": "Jane Roe spoke.", "label": "real"}\n')
    dated = tmp_path / "dated.jsonl"
    dated.write_text(_DATED)
    hostile = tmp_path / "hostile"
    if isinstance(contents, bytes):
        hostile.write_bytes(contents)
    else:
        contents = contents.replace("{corpus}", str(corpus)).replace("{dated}", str(dated))
        hostile.write_text(contents, encoding="utf-8")
    code = dispatch([arg.format(f=hostile, corpus=corpus) for arg in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert names in err


def test_bad_byte_past_the_first_chunk_names_its_line(tmp_path, capsys):
    # a text file decodes 8 KiB ahead of the line it hands out
    lines = [b'{"id": "d%03d", "text": "x", "label": "real"}\n' % i for i in range(700)]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b"".join(lines) + b'{"id": "bad", "text": "\xff", "label": "real"}\n')
    assert corpus.stat().st_size > 3 * 8192
    assert dispatch(["ingest", "--input", str(corpus), "--output", "-"]) == 1
    assert capsys.readouterr().err == f"error: {corpus} line 701: not UTF-8 (byte 0xff)\n"


@pytest.mark.parametrize("n_lines", [3, 701])
@pytest.mark.parametrize("newline", [b"\r", b"\r\n"], ids=["cr", "crlf"])
def test_bad_byte_after_cr_line_ends_names_its_line(tmp_path, capsys, newline, n_lines):
    # text files are read with universal newlines: \r\n, \r and \n each end a line
    lines = [b'{"id": "d%03d", "text": "x", "label": "real"}' % i for i in range(n_lines - 1)]
    lines.append(b'{"id": "bad", "text": "\xff", "label": "real"}')
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(newline.join(lines) + newline)
    assert dispatch(["ingest", "--input", str(corpus), "--output", "-"]) == 1
    assert capsys.readouterr().err == f"error: {corpus} line {n_lines}: not UTF-8 (byte 0xff)\n"


# -- JSON string escapes: a lone surrogate is an error line, a pair one character

def _indented(text):
    """A one-line JSON value, one member per line."""
    return json.dumps(json.loads(text), indent=1)


# line 2 holds Q3, whose label carries the string under test
_DUMP = "".join(entity_line(make_entity(qid, label, occupations=("Q2",))) + "\n"
                for qid, label in [("Q1", "Jane Roe"), ("Q3", "Jane @S@")])

# (argv, file contents); in the contents @S@ stands for the string's JSON
# escapes, in argv {out} for the command's output, {corpus} for a dated
# four-document corpus and {usage} for a usage report naming Q1
JSON_INPUTS = [
    pytest.param(["ingest", "--input", "{f}", "--output", "{out}"],
                 '{"id": "a", "text": "x", "label": "real"}\n'
                 '{"id": "b", "text": "Jane @S@", "label": "fake"}\n', id="corpus"),
    pytest.param(["mask", "--corpus", "{corpus}", "--annotations", "{f}", "--policy", "no-mask",
                  "--output", "{out}"],
                 '{"doc_id": "d1", "spans": []}\n' + _span(end=6, text="Jane @S@"),
                 id="annotations"),
    pytest.param(["coverage", "--usage", "a={usage}", "--index", "{f}", "--top-k", "1",
                  "--output", "{out}"],
                 _index_file().replace("Jane Roe", "Jane @S@"), id="index"),
    pytest.param(["index-wikidata", "--dump", "{f}", "--snapshot-date", "2020-12-28", "--strict",
                  "--output", "{out}"], _DUMP, id="dump-strict"),
    pytest.param(["eval", "--model", "{f}", "--corpus", "{corpus}", "--output", "{out}"],
                 _indented(_model(train_set="Jane @S@")), id="model"),
    pytest.param(["experiment", "--config", "{f}", "--output-json", "{out}"],
                 _indented(_config(datasets=[{"name": "Jane @S@", "corpus": "{corpus}"}],
                                   policies=["no-mask"],
                                   split={"mode": "time", "boundary_date": "2020-06-01"})),
                 id="config"),
]


def _json_input(tmp_path, argv, contents, escapes):
    """Write the inputs of a JSON_INPUTS case with @S@ spelled as escapes;
    returns the file under test, the output path and the argv."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"d{i}", "text": text, "label": label, "date": day},
                   ensure_ascii=False) + "\n"
        for i, (text, label, day) in enumerate([("Jane 😀 spoke.", "real", "2020-01-01"),
                                                ("a b", "fake", "2020-02-01"),
                                                ("a c", "real", "2021-01-01"),
                                                ("a d", "fake", "2021-02-01")], start=1)
    ), encoding="utf-8")
    usage = tmp_path / "usage.tsv"
    usage.write_text("token\tcount\nQ1\t2\n")
    tested, out = tmp_path / "tested", tmp_path / "out"
    tested.write_text(contents.replace("@S@", escapes).replace("{corpus}", str(corpus)))
    return tested, out, [arg.format(f=tested, out=out, corpus=corpus, usage=usage) for arg in argv]


@pytest.mark.parametrize("argv, contents", JSON_INPUTS)
def test_lone_surrogate_is_an_error_line_and_a_pair_one_character(tmp_path, capsys, argv,
                                                                  contents):
    tested, out, lone = _json_input(tmp_path, argv, contents, "\\ud800")
    line = contents[: contents.index("@S@")].count("\n") + 1
    assert dispatch(lone) == 1
    assert capsys.readouterr().err == (
        f"error: {tested} line {line}: lone surrogate \\ud800 in a string\n"
    )
    assert not out.exists()
    _, _, pair = _json_input(tmp_path, argv, contents, "\\ud83d\\ude00")
    assert dispatch(pair) == 0
    assert "Jane 😀".encode() in out.read_bytes()


def test_lone_surrogate_dump_line_is_malformed_without_strict(tmp_path, capsys):
    dump, out = tmp_path / "dump.jsonl", tmp_path / "entities.idx"
    dump.write_text(_DUMP.replace("@S@", "\\udc00"))
    assert dispatch(["index-wikidata", "--dump", str(dump), "--snapshot-date", "2020-12-28",
                     "--output", str(out)]) == 0
    assert "1 malformed line(s)" in capsys.readouterr().err
    assert set(load_index(out).records) == {"Q1"}
