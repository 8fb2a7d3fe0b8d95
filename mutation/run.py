"""Mutation table: each row breaks one rule of the code and names the tests
that must catch it.

A row is a file, a snippet that must occur in it exactly once, the snippet's
replacement, and the pytest node ids that must fail once it is applied. The
runner copies src/, tests/ and pyproject.toml to a temporary directory,
checks that every named test passes there, then applies each row on its own
and runs its tests. It exits 1 if a row no longer applies (its snippet is
missing or not unique), names a test that does not pass unmutated, or
survives (some named test still passes).

    python3 mutation/run.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
ANNOTATE = "src/diamask/annotate.py"
CORPUS = "src/diamask/corpus.py"
ERRORS = "src/diamask/errors.py"
EXPERIMENT = "src/diamask/experiment.py"
MASKING = "src/diamask/masking.py"
WIKIDATA = "src/diamask/wikidata.py"
WHITESPACE = "tests/test_masking.py::TestWhitespaceHandling::"
WORKED = "tests/test_masking.py::TestWorkedExample::"
KERNELS = "tests/test_wikidata.py::TestIndexKernelsMatchReference::"
RESOLVE = "tests/test_wikidata.py::TestResolve::"
ADD = "tests/test_wikidata.py::TestEntityIndexAdd::"
SAVE_CORPUS = "tests/test_corpus.py::TestSaveCorpus::"
WRITE_ANNOTATIONS = "tests/test_annotate.py::TestWriteAnnotations::"
SPACE = "tests/test_experiment.py::TestFeatureSpace::"
TRAIN_CONFIG = "tests/test_experiment.py::TestTrainConfig::"
MODEL_FILE = "tests/test_experiment.py::TestModelSerialization::"
REFUSED = "tests/test_constructors.py::test_a_value_no_loader_reads_back_is_refused_when_built"
HOSTILE = "tests/test_cli.py::test_hostile_input_exits_1_with_one_error_line"
ROW_ORDER = "tests/test_experiment.py::TestFeaturize::test_row_is_the_grams_in_order_of_first_appearance"
TAGGER = "tests/test_annotate.py::TestTagWithGazetteer::"
PREFIXED = "tests/test_errors.py::test_prefixed_names_where_and_the_line"


class Row(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


ROWS = (
    Row("_splice: whitespace after a cut alone gives one space", MASKING,
        '" " if space or segment[0].isspace() else ""', '" " if space else ""',
        (WHITESPACE + "test_whitespace_after_a_deletion_alone_gives_one_space",)),
    Row("_splice: a whitespace-only segment passes its space to the next cut", MASKING,
        'space = space or segment != ""', "space = space",
        (WHITESPACE + "test_deletion_next_to_a_deletion[xU Vy-x y]",)),
    Row("_splice: whitespace before a cut gives one space", MASKING,
        "space = segment[-1].isspace()", "space = False",
        (WHITESPACE + "test_deletion_before_punctuation_keeps_single_space",)),
    Row("_splice: the edges are stripped after an edit", MASKING,
        "masked = masked.strip()", "masked = masked",
        (WHITESPACE + "test_edges_are_stripped_after_a_replacement",)),
    Row("_RULES: WikiD+Del deletes the spans that are not persons", MASKING,
        '("WikiD+Del", _ROLE, _DELETE)', '("WikiD+Del", _ROLE, _TAG)',
        (WORKED + "test_masked_text_is_byte_exact[wikid-del]",
         WORKED + "test_usage_multiset[wikid-del]")),
    Row("_parse_time_value: a zeroed month is January", WIKIDATA,
        "Date(year, max(month, 1), max(day, 1))", "Date(year, month, max(day, 1))",
        ("tests/test_wikidata.py::TestIndexDump::test_zeroed_month_and_day_clamp_to_january_first",)),
    Row("_parse_time_value: a date out of range is no date", WIKIDATA,
        "    except ValueError:\n        return None\n\n\ndef _qualifier_date(",
        "    finally:\n        pass\n\n\ndef _qualifier_date(",
        (KERNELS + "test_dates",)),
    Row("decode_json: only JSON whitespace may follow the value", ERRORS,
        'exact = not text[end:].strip(" \\t\\n\\r")', "exact = True",
        ("tests/test_errors.py::test_json_loads_errors_keep_their_message[number-then-number]",
         "tests/test_errors.py::test_json_loads_errors_keep_their_message[object-then-word]")),
    Row("_derive: by_token takes the casefolded tokens of the name", WIKIDATA,
        "for token in tokens:", "for token in name.split():",
        ("tests/test_wikidata.py::TestLookup::test_token_fallback",
         "tests/test_golden.py::test_cli_output_bytes[mask_wikid.jsonl]")),
    Row("load_index: a repeated QID is an error, not a replacement", WIKIDATA,
        "if qid in records:", "if False:",
        ("tests/test_cli.py::test_hostile_input_exits_1_with_one_error_line[index-duplicate-qid]",)),
    Row("_QID_RE: a QID's digits are ASCII", WIKIDATA,
        'r"Q[0-9]+"', 'r"Q\\d+"',
        (KERNELS + "test_build", KERNELS + "test_load_other_digits[qid]",
         KERNELS + "test_load_other_digits[value]")),
    Row("_sgd_order: every epoch reshuffles the rows", EXPERIMENT,
        "    for _ in range(config.epochs):\n        rng.shuffle(order)\n        yield from order\n",
        "    rng.shuffle(order)\n    for _ in range(config.epochs):\n        yield from order\n",
        ("tests/test_golden.py::test_saved_model_bytes",
         "tests/test_golden.py::test_saved_long_row_model_bytes")),
    Row("resolve_person_label: a surface resolved before, under either mode, is a memo hit",
        WIKIDATA, "labels = derived.resolved.get(surface)", "labels = None",
        (RESOLVE + "test_one_lookup_fills_both_modes",)),
    Row("_labels: with no valid position held, TEMPORAL's label is DUMP_ORDER's", WIKIDATA,
        "return dump_order, dump_order", "return dump_order, _PER_LABEL",
        (RESOLVE + "test_temporal_without_a_valid_position_is_the_dump_order_label"
         "[occupation-only]",
         RESOLVE + "test_temporal_expired_positions_fall_back_to_dump_order_cascade")),
    Row("resolve_person_label: each mode reads its own label of the pair", WIKIDATA,
        "labels[mode is _TEMPORAL]", "labels[0]",
        (RESOLVE + "test_each_mode_gets_its_own_label[dump-order-first]",
         RESOLVE + "test_each_mode_gets_its_own_label[temporal-first]")),
    Row("EntityIndex.add: an add drops everything derived from the records", WIKIDATA,
        "self._derived = None", "pass",
        (ADD + "test_add_after_resolve_changes_the_answer", ADD + "test_re_add_drops_the_old_names")),
    Row("_top_candidate: the most sitelinks win", WIKIDATA,
        "most = max(counts)", "most = min(counts)",
        (RESOLVE + "test_sitelink_tie_goes_to_the_lower_qid_number",)),
    Row("_top_candidate: a sitelink tie goes to the lowest QID number, not the first string",
        WIKIDATA, "min(ties, key=lambda q: int(q[1:]))", "min(ties)",
        (RESOLVE + "test_sitelink_tie_goes_to_the_lower_qid_number",)),
    Row("_top_candidate: a lone candidate is the top one", WIKIDATA,
        "        return candidates[0]\n", "        return next(iter(records))\n",
        (RESOLVE + "test_exact_bucket_of_one_qid_resolves_to_it",)),
    Row("_top_candidate: the shortcut takes a lone candidate only", WIKIDATA,
        "if len(candidates) == 1:", "if len(candidates) >= 1:",
        (RESOLVE + "test_sitelink_tie_goes_to_the_lower_qid_number",)),
    Row("_score_row: a row's terms add left to right, then the bias", EXPERIMENT,
        "for b, c in row.items():", "for b, c in reversed(row.items()):",
        ("tests/test_experiment.py::TestRowScorer::test_terms_add_left_to_right_before_the_bias",)),
    Row("_sgd_numpy: a row's terms add left to right, as _score_row adds them", EXPERIMENT,
        "np.add.accumulate(wi * cnt)", "np.add.accumulate((wi * cnt)[::-1])",
        ("tests/test_golden.py::test_saved_long_row_model_bytes",)),
    Row("_record_line: a label is written through encode_basestring", WIKIDATA,
        "f'\"label\": {encode_basestring(record.primary_label)}, '",
        "f'\"label\": \"{record.primary_label}\", '",
        ("tests/test_wikidata.py::TestSaveLoad::test_names_are_escaped_as_json_dumps_escapes_them",)),
    Row("_document_line: a text is written through encode_basestring", CORPUS,
        '"text": {encode_basestring(doc.text)}', '"text": "{doc.text}"',
        (SAVE_CORPUS + "test_strings_are_escaped_and_absent_fields_left_out",)),
    Row("_document_line: an undated document's line has no \"date\" key", CORPUS,
        'dated = "" if day is None else', "dated = ', \"date\": null' if day is None else",
        (SAVE_CORPUS + "test_strings_are_escaped_and_absent_fields_left_out",)),
    Row("mask_corpus: a WikiD policy with no index is refused before any document", MASKING,
        "    _require_index(policy, index)\n    masked_docs", "    masked_docs",
        ("tests/test_masking.py::TestResolution::test_missing_index_is_an_error",)),
    Row("NeSpan: a span offset must be an int, and True is not one", ANNOTATE,
        "if type(self.start) is not int or type(self.end) is not int:", "if False:",
        (WRITE_ANNOTATIONS + "test_a_value_load_annotations_would_reject_is_an_error[start]",
         WRITE_ANNOTATIONS + "test_a_value_load_annotations_would_reject_is_an_error[end]",
         REFUSED + "[span-start-a-string]")),
    Row("FeatureSpace: a hash_seed must be an int, and True is not one", EXPERIMENT,
        'setting("hash_seed", self.hash_seed, INTEGER)', "pass",
        (REFUSED + "[space-hash-seed-a-bool]",)),
    Row("TrainConfig: learning_rate and l2 are stored as floats", EXPERIMENT,
        '        object.__setattr__(self, "learning_rate", learning_rate)\n'
        '        object.__setattr__(self, "l2", l2)\n', "",
        (TRAIN_CONFIG + "test_learning_rate_and_l2_are_stored_as_floats",)),
    Row("Model: an int weight is stored as a float", EXPERIMENT,
        '{b: setting("weights", w, finite) for b, w', '{b: setting("weights", w, finite) and w for b, w',
        (MODEL_FILE + "test_integer_bias_and_weights_are_stored_as_floats",)),
    Row("EntityRecord: a QID is Q and digits", WIKIDATA,
        "and _QID_RE.fullmatch(qid)", "and True",
        (REFUSED + "[record-qid-not-digits]", REFUSED + "[record-qid-not-q]",
         HOSTILE + "[index-qid-ends-in-a-newline]")),
    Row("Document: a label must be a Label", CORPUS,
        "if not isinstance(self.label, Label):", "if False:",
        (REFUSED + "[document-label-a-string]",)),
    Row("FeatureSpace: the state every bucket copies is keyed by hash_seed", EXPERIMENT,
        'digest_size=8, key=self.hash_seed.to_bytes(8, "little"))', "digest_size=8)",
        (SPACE + "test_bucket_matches_independent_keyed_hash",
         SPACE + "test_bucket_is_the_keyed_hash_for_every_seed_and_text", ROW_ORDER)),
    Row("FeatureSpace.bucket: a phrase updates a copy of the keyed state, not the state",
        EXPERIMENT, "state = self._keyed.copy()", "state = self._keyed",
        (SPACE + "test_bucket_matches_independent_keyed_hash",
         SPACE + "test_bucketing_leaves_the_keyed_state_as_it_was", ROW_ORDER)),
    Row("_bucket_counts: only order 1 reads the tokens as its grams", EXPERIMENT,
        "for gram in tokens if n == 1 else extract_ngrams(tokens, n):", "for gram in tokens:",
        ("tests/test_experiment.py::TestFeaturize::test_matches_hand_built_vector", ROW_ORDER)),
    Row("tag_with_gazetteer: a head word inside the last span is not tried", ANNOTATE,
        "        if i < resume:\n            continue\n", "",
        (TAGGER + "test_a_head_inside_a_span_is_not_tried",
         "tests/test_annotate.py::TestTaggerMatchesReference::test_same_spans")),
    Row("_gazetteer_key: only an ASCII token skips dropping _FOLD_MARKS", ANNOTATE,
        "token if token.isascii() else token.translate(_FOLD_MARKS)", "token",
        ("tests/test_annotate.py::TestGazetteer::test_a_name_some_words_match_is_kept",
         "tests/test_annotate.py::TestTaggerMatchesReference::test_same_spans")),
    Row("prefixed: a record's error names its line", ERRORS,
        'else f"{self.where} line {self.lineno}"', "else self.where",
        (PREFIXED + "[line-data-error]", PREFIXED + "[line-os-error]",
         HOSTILE + "[corpus-unknown-label]", HOSTILE + "[span-unknown-tag]",
         HOSTILE + "[gazetteer-unknown-tag]", HOSTILE + "[usage-no-count]")),
)


def _run_pytest(copy: Path, tests: tuple[str, ...], report: Path) -> tuple[int, int]:
    """(tests run, tests that failed or errored) for the node ids given."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}",
         *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=300,
    )
    if not report.exists():
        return 0, 0
    suite = ET.parse(report).getroot()
    suite = suite if suite.tag == "testsuite" else suite.find("testsuite")
    return int(suite.get("tests")), int(suite.get("failures")) + int(suite.get("errors"))


def run(rows: tuple[Row, ...] = ROWS) -> bool:
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "repo")
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(REPO / part, copy / part, ignore=skip)
        shutil.copy(REPO / "pyproject.toml", copy)
        report = Path(tmp, "report.xml")
        every_test = tuple(dict.fromkeys(t for row in rows for t in row.tests))
        ran, failed = _run_pytest(copy, every_test, report)
        if (ran, failed) != (len(every_test), 0):
            print(f"error: unmutated, {ran} of {len(every_test)} named tests ran and {failed} failed")
            return False
        for row in rows:
            target = copy / row.path
            original = target.read_text(encoding="utf-8")
            count = original.count(row.snippet)
            if count != 1:
                print(f"DOES NOT APPLY ({count} matches in {row.path}): {row.name}")
                ok = False
                continue
            target.write_text(original.replace(row.snippet, row.replacement), encoding="utf-8")
            report.unlink(missing_ok=True)
            try:
                ran, failed = _run_pytest(copy, row.tests, report)
            finally:
                target.write_text(original, encoding="utf-8")
            killed = failed == ran == len(row.tests)
            print(f"{'killed' if killed else 'SURVIVED'}: {row.name}")
            ok = ok and killed
    return ok


if __name__ == "__main__":
    sys.exit(0 if run() else 1)
