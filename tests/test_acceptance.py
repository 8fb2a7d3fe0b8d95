"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS or FAIL
line so the suite can be read as a checklist:

    python3 -m pytest tests/test_acceptance.py -s
"""

import io
import json
import random
import time
from contextlib import contextmanager
from datetime import date

import pytest

from diamask import (
    DataError,
    DatasetBundle,
    MaskPolicy,
    SplitMode,
    SplitSpec,
    compute_lmi,
    coverage_rate,
    index_dump,
    lookup_by_name,
    mask_text,
    mcnemar,
    resolve_person_label,
    run_matrix,
    save_corpus,
    synth_diachronic_corpus,
    top_labels,
    write_annotations,
)
from diamask.cli import dispatch

from helpers import (
    PINNED_SEEDS,
    SYNTH_A,
    SYNTH_B,
    SYNTH_ROLE_MAP,
    chi2_tail_1df,
    entity_line,
    lmi_oracle,
    make_entity,
    make_sample_annotated,
    modi_dump_lines,
    random_corpus,
)

ALL_POLICIES = (
    MaskPolicy.NO_MASK,
    MaskPolicy.NE_DEL,
    MaskPolicy.BASIC_NER,
    MaskPolicy.WIKID,
    MaskPolicy.WIKID_DEL,
    MaskPolicy.WIKID_NER,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL: criterion {number} - {description}")
        raise
    print(f"PASS: criterion {number} - {description}")


@pytest.fixture(scope="module")
def diachronic_sweep():
    """Five pinned seeds, all six policies, full cross-period evaluation."""
    reports = {}
    started = time.perf_counter()
    for seed in PINNED_SEEDS:
        data = synth_diachronic_corpus(
            seed=seed,
            n_docs=1000,
            period_a_persons=SYNTH_A,
            period_b_persons=SYNTH_B,
            role_map=SYNTH_ROLE_MAP,
        )
        bundles = [
            DatasetBundle(name="period-a", docs=tuple(data.annotated_a)),
            DatasetBundle(name="period-b", docs=tuple(data.annotated_b)),
        ]
        indexes = {"period-a": data.index, "period-b": data.index}
        spec = SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction=0.8, seed=seed)
        reports[seed] = run_matrix(
            bundles, ALL_POLICIES, indexes, spec, ood_full=True
        )
    elapsed = time.perf_counter() - started
    return reports, elapsed


def cross_cells(report, policy):
    return (
        report.cell("period-a", "period-b", policy),
        report.cell("period-b", "period-a", policy),
    )


def test_criterion_1_lmi_matches_brute_force_oracle():
    with criterion(1, "compute_lmi matches a brute-force oracle on 200 random corpora"):
        rng = random.Random(20260814)
        started = time.perf_counter()
        for case in range(200):
            corpus = random_corpus(rng, max_docs=30, max_tokens=50)
            n = 1 + case % 3
            expected, total = lmi_oracle(corpus, n)
            if total == 0:
                with pytest.raises(DataError):
                    compute_lmi(corpus, n=n, min_count=0)
                continue
            table = compute_lmi(corpus, n=n, min_count=0)
            got = {(e.phrase, e.label): e for e in table.entries}
            assert set(got) == set(expected)
            for key, (count_wl, count_w, p_l_given_w, lmi) in expected.items():
                entry = got[key]
                assert entry.count_wl == count_wl
                assert entry.count_w == count_w
                assert entry.p_l_given_w == pytest.approx(p_l_given_w, abs=1e-12)
                assert entry.lmi == pytest.approx(lmi, abs=1e-12)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_2_masking_fixture_is_byte_exact():
    expected = {
        MaskPolicy.NE_DEL: (
            "18 states including and request PM "
            "to head a task force to stop coronavirus"
        ),
        MaskPolicy.BASIC_NER: (
            "18 states including LOC LOC and LOC request PM PER "
            "to head a task force to stop coronavirus"
        ),
        MaskPolicy.WIKID: (
            "18 states including US UK and Australia request PM Q22337580 "
            "to head a task force to stop coronavirus"
        ),
        MaskPolicy.WIKID_DEL: (
            "18 states including and request PM Q22337580 "
            "to head a task force to stop coronavirus"
        ),
        MaskPolicy.WIKID_NER: (
            "18 states including LOC LOC and LOC request PM Q22337580 "
            "to head a task force to stop coronavirus"
        ),
    }
    with criterion(2, "all five masking policies reproduce the worked example byte for byte"):
        started = time.perf_counter()
        annotated = make_sample_annotated()
        index = index_dump(io.StringIO("\n".join(modi_dump_lines())), date(2020, 12, 28))
        for policy, want in expected.items():
            assert mask_text(annotated, policy, index=index) == want, policy.value
        untouched = mask_text(annotated, MaskPolicy.NO_MASK, index=index)
        assert untouched == annotated.document.text
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0


def test_criterion_3_lmi_sign_and_ordering_properties():
    with criterion(3, "lmi sign tracks p(l|w) vs p(l) and ordering survives a log-base change"):
        rng = random.Random(99)
        for case in range(60):
            corpus = random_corpus(rng, max_docs=20, max_tokens=40)
            n = 1 + case % 3
            table = compute_lmi(corpus, n=n, min_count=0)
            expected, total = lmi_oracle(corpus, n)
            label_total = {}
            for (phrase, label), (count_wl, _, _, _) in expected.items():
                label_total[label] = label_total.get(label, 0) + count_wl
            for entry in table.entries:
                # integer cross-product: p(l|w) > p(l) without any division
                lhs = entry.count_wl * total
                rhs = entry.count_w * label_total[entry.label]
                if lhs > rhs:
                    assert entry.lmi > 0
                elif lhs < rhs:
                    assert entry.lmi < 0
                else:
                    assert entry.lmi == pytest.approx(0.0, abs=1e-15)


def make_eval_pair(b: int, c: int):
    """Two prediction columns over all-real gold with the given discordance."""
    from diamask import EvalCell, Label

    n = b + c + 10
    gold = tuple([Label.REAL] * n)
    base_preds = []
    cont_preds = []
    for i in range(n):
        if i < b:  # baseline right, contender wrong
            base_preds.append(Label.REAL)
            cont_preds.append(Label.FAKE)
        elif i < b + c:  # baseline wrong, contender right
            base_preds.append(Label.FAKE)
            cont_preds.append(Label.REAL)
        else:
            base_preds.append(Label.REAL)
            cont_preds.append(Label.REAL)
    baseline = EvalCell("t", "shared", 0.0, tuple(base_preds), gold)
    contender = EvalCell("t", "shared", 0.0, tuple(cont_preds), gold)
    return baseline, contender


def test_criterion_4_mcnemar_exact_and_asymptotic_branches():
    with criterion(4, "mcnemar exact and chi-square branches match independent oracles"):
        result = mcnemar(*make_eval_pair(1, 9))
        assert result.statistic is None
        assert result.p_raw == 22 / 1024
        assert abs(result.p_raw - 0.02148) < 5e-6

        degenerate = mcnemar(*make_eval_pair(0, 0))
        assert degenerate.p_raw == 1.0

        chi = mcnemar(*make_eval_pair(15, 40))
        assert chi.statistic == 576 / 55
        assert chi.p_raw == pytest.approx(chi2_tail_1df(576 / 55), abs=1e-3)

        # Bonferroni: p_adjusted = min(1, m * p_raw), so 0.03 maps to 0.15 at m=5.
        for b, c in [(1, 9), (15, 40), (3, 4), (0, 0)]:
            adjusted = mcnemar(*make_eval_pair(b, c), m=5)
            assert adjusted.p_adjusted == min(1.0, 5 * adjusted.p_raw)
        assert min(1.0, 5 * 0.03) == 0.15
        assert mcnemar(*make_eval_pair(1, 9), m=5).p_adjusted == 5 * (22 / 1024)


def test_criterion_5_masking_repairs_cross_period_accuracy(diachronic_sweep):
    reports, elapsed = diachronic_sweep
    with criterion(5, "entity masking recovers cross-period accuracy on pinned synthetic seeds"):
        significant_seeds = 0
        for seed, report in reports.items():
            for raw, masked in zip(
                cross_cells(report, MaskPolicy.NO_MASK),
                cross_cells(report, MaskPolicy.WIKID),
            ):
                assert raw.accuracy <= 0.60, f"seed {seed}: NoMask cross {raw.accuracy}"
                assert masked.accuracy >= 0.75, f"seed {seed}: WikiD cross {masked.accuracy}"
                assert masked.accuracy - raw.accuracy >= 0.15, f"seed {seed}"
            if all(cell.starred for cell in cross_cells(report, MaskPolicy.WIKID)):
                significant_seeds += 1
        assert significant_seeds >= 4, f"only {significant_seeds}/5 seeds significant"
        assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_criterion_6_masking_keeps_in_period_accuracy(diachronic_sweep):
    reports, _ = diachronic_sweep
    with criterion(6, "every policy stays within 0.05 of NoMask accuracy in-period"):
        for seed, report in reports.items():
            for dataset in ("period-a", "period-b"):
                baseline = report.cell(dataset, dataset, MaskPolicy.NO_MASK).accuracy
                for policy in ALL_POLICIES:
                    acc = report.cell(dataset, dataset, policy).accuracy
                    assert abs(acc - baseline) <= 0.05, (
                        f"seed {seed} {dataset} {policy.value}: {acc} vs {baseline}"
                    )


def test_criterion_7_coverage_statistics():
    with criterion(7, "coverage rate and top-label fixtures evaluate exactly"):
        assert coverage_rate(["Q1", "Q2", "Q3"], ["Q3", "Q1", "Q2"]) == 100.0
        assert coverage_rate(["Q1", "Q2", "Q3", "Q4"], ["Q1", "Q2", "Q9"]) == 50.0
        with pytest.raises(DataError):
            coverage_rate([], ["Q1"])

        index = index_dump(io.StringIO("\n".join(modi_dump_lines())), date(2020, 12, 28))
        tokens = ["Q22337580"] * 3 + ["Q1165"] * 3 + ["Q42"] * 2 + ["PER"] * 2
        assert top_labels(tokens, index, 4) == [
            ("Narendra Modi", 3),
            ("Q22337580", 3),
            ("Douglas Adams", 2),
            ("PER", 2),
        ]


def test_criterion_8_experiment_reruns_are_byte_identical(tmp_path):
    with criterion(8, "two identical experiment runs emit byte-identical reports"):
        data = synth_diachronic_corpus(
            seed=13,
            n_docs=100,
            period_a_persons=SYNTH_A[:4],
            period_b_persons=SYNTH_B[:4],
            role_map=SYNTH_ROLE_MAP,
        )
        datasets = []
        for name, corpus, annotated in [
            ("period-a", data.corpus_a, data.annotated_a),
            ("period-b", data.corpus_b, data.annotated_b),
        ]:
            corpus_path = tmp_path / f"{name}.jsonl"
            ann_path = tmp_path / f"{name}.spans.jsonl"
            save_corpus(corpus, corpus_path)
            write_annotations(annotated, ann_path)
            datasets.append(
                {
                    "name": name,
                    "corpus": str(corpus_path),
                    "annotations": str(ann_path),
                    "index": str(tmp_path / "entities.idx"),
                }
            )
        dump_path = tmp_path / "dump.jsonl"
        lines = [
            entity_line(
                make_entity(
                    record.qid,
                    record.primary_label,
                    positions=((record.statements[0].value_qid,),),
                    sitelinks=5,
                )
            )
            for record in data.index.records.values()
        ]
        dump_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = dispatch(
            [
                "index-wikidata",
                "--dump",
                str(dump_path),
                "--snapshot-date",
                "2020-12-28",
                "--output",
                str(tmp_path / "entities.idx"),
            ]
        )
        assert code == 0

        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "datasets": datasets,
                    "policies": ["no-mask", "basic-ner", "wikid"],
                    "split": {"mode": "random", "train_fraction": 0.8, "seed": 7},
                    "features": {"dimensions": 65536},
                    "ood_full": True,
                }
            ),
            encoding="utf-8",
        )
        outputs = []
        for run in ("first", "second"):
            json_path = tmp_path / f"{run}.json"
            text_path = tmp_path / f"{run}.txt"
            code = dispatch(
                [
                    "experiment",
                    "--config",
                    str(config_path),
                    "--output-json",
                    str(json_path),
                    "--output-text",
                    str(text_path),
                ]
            )
            assert code == 0
            outputs.append((json_path.read_bytes(), text_path.read_bytes()))
        assert outputs[0] == outputs[1]


def test_criterion_9_dump_indexing_at_small_scale(tmp_path):
    with criterion(9, "a 1000-entity dump indexes quickly with hand-checkable lookups"):
        lines = []
        for i in range(1, 1001):
            lines.append(
                entity_line(
                    make_entity(
                        f"Q{i}",
                        f"Person {i:04d}",
                        aliases=(f"P{i:04d}",),
                        positions=((f"Q{100 + i % 10}",),),
                        occupations=("Q82955",) if i % 2 == 0 else (),
                        sitelinks=i % 7,
                    )
                )
            )
        clean = tmp_path / "clean.jsonl"
        clean.write_text("\n".join(lines) + "\n", encoding="utf-8")

        started = time.perf_counter()
        index = index_dump(clean, date(2020, 12, 28))
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"indexing took {elapsed:.2f}s"
        assert len(index.records) == 1000
        assert index.malformed_lines == 0

        assert lookup_by_name(index, "Person 0042") == ["Q42"]
        assert lookup_by_name(index, "p0007") == ["Q7"]
        assert lookup_by_name(index, "0042") == ["Q42"]
        by_token = lookup_by_name(index, "person")
        expected = [
            f"Q{i}" for i in sorted(range(1, 1001), key=lambda i: (-(i % 7), i))
        ]
        assert by_token == expected
        assert by_token[0] == "Q6"
        assert resolve_person_label(index, "Person 0042").token == "Q102"
        assert resolve_person_label(index, "Person 0999").token == "Q109"

        dirty = tmp_path / "dirty.jsonl"
        dirty.write_text(
            "\n".join(lines[:500] + ["{broken", '"a string"', '{"type": "item"}'] + lines[500:])
            + "\n",
            encoding="utf-8",
        )
        tolerant = index_dump(dirty, date(2020, 12, 28))
        assert len(tolerant.records) == 1000
        assert tolerant.malformed_lines == 3
        with pytest.raises(DataError, match="line 501"):
            index_dump(dirty, date(2020, 12, 28), strict=True)
