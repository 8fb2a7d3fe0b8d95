"""Command-line interface.

Exit codes: 0 on success, 1 on domain errors (bad input data or impossible
requests), 2 on usage errors (unknown/missing flags, unparseable flag
values). Diagnostics go to stderr; data goes to files or stdout ('-' means
stdout wherever an output path is taken, and gets the file's UTF-8 bytes).
Subcommands never modify their input files, and a rerun with identical
inputs and seeds produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections import Counter
from pathlib import Path
from typing import Callable

from .analysis import compute_lmi, export_lmi_table
from .annotate import AnnotatedDocument, load_annotations, load_gazetteer, tag_with_gazetteer, write_annotations
from .corpus import (
    Corpus,
    SplitMode,
    SplitSpec,
    iso_date,
    load_corpus,
    save_corpus,
)
from .errors import DataError, fields, json_file, numbered_lines, prefixed, write_output
from .errors import BOOLEAN, LIST, STRING, as_is  # converters for fields
from .experiment import (
    FEATURE_FIELDS,
    TRAIN_FIELDS,
    DatasetBundle,
    FeatureSpace,
    TrainConfig,
    evaluate,
    load_model,
    run_matrix,
    save_model,
    train,
)
from .masking import MaskPolicy, mask_corpus
from .wikidata import (
    ResolveMode,
    coverage_rate,
    index_dump,
    load_index,
    save_index,
    top_labels,
)
from .experiment import _check_matrix  # the matrix's checks, run before any file is read
from .wikidata import _QID_RE  # QID shape, shared with the library

log = logging.getLogger("diamask")


class _UsageError(Exception):
    """Flag-level problem detected after argparse (exit status 2)."""


def _orders(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {raw!r}") from None


def _at_least(low: int) -> Callable[[str], int]:
    """argparse type: an integer no smaller than low."""

    def count(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return count


def _refuse_unread(reader: str, given: dict[str, object], error: type[Exception]) -> None:
    """Raise error(`<reader> does not read <names>`) if a setting of given (its
    name -> its value, None when not given) is given: reader reads none of them."""
    unread = [name for name, value in given.items() if value is not None]
    if unread:
        raise error(f"{reader} does not read {', '.join(unread)}")


# split mode -> the SplitSpec fields its split reads
_SPLIT_READS = {
    SplitMode.RANDOM_HOLDOUT: ("train_fraction", "seed"),
    SplitMode.TIME_BASED: ("boundary_date",),
}


def _split_spec(
    mode: SplitMode, given: dict[str, object], error: type[Exception], spell: Callable[[str], str]
) -> SplitSpec:
    """SplitSpec of mode and given (a field's name -> its value, None when not
    given, so that the class default stands). A field given that mode's split
    does not read raises error, naming the field as spell spells it."""
    unread = {spell(n): v for n, v in given.items() if n not in _SPLIT_READS[mode]}
    _refuse_unread(f"a {mode.value} split", unread, error)
    return SplitSpec(mode=mode, **{n: v for n, v in given.items() if v is not None})


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_ingest(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.input)
    save_corpus(corpus, args.output)
    log.info("ingested %d documents from %s", len(corpus), args.input)
    return 0


def _cmd_lmi(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    table = compute_lmi(corpus, n=args.n, min_count=args.min_count)
    write_output(args.output, [export_lmi_table(table, top_k=args.top, fmt=args.format)])
    return 0


def _cmd_tag(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    gazetteer = load_gazetteer(args.gazetteer)
    annotated = [tag_with_gazetteer(doc, gazetteer) for doc in corpus]
    write_annotations(annotated, args.output)
    total = sum(len(a.spans) for a in annotated)
    log.info("tagged %d spans across %d documents", total, len(corpus))
    return 0


def _cmd_index_wikidata(args: argparse.Namespace) -> int:
    index = index_dump(
        args.dump, args.snapshot_date, person_only=args.person_only, strict=args.strict
    )
    save_index(index, args.output)
    print(
        f"indexed {len(index)} entities (snapshot {index.snapshot_date}, "
        f"{index.malformed_lines} malformed line(s) skipped)",
        file=sys.stderr,
    )
    return 0


def _load_annotated(
    corpus_path: str, annotations_path: str | None, name: str | None = None
) -> tuple[Corpus, list[AnnotatedDocument]]:
    corpus = load_corpus(corpus_path, name=name)
    if annotations_path is None:
        return corpus, [AnnotatedDocument(document=doc, spans=()) for doc in corpus]
    return corpus, load_annotations(corpus, annotations_path)


def _cmd_mask(args: argparse.Namespace) -> int:
    policy = MaskPolicy(args.policy)
    if not policy.requires_index:
        given = {"--index": args.index, "--resolve-mode": args.resolve_mode}
        _refuse_unread(f"policy {policy.value!r}", given, _UsageError)
    elif not args.index:  # an empty path names no index
        raise _UsageError(f"--index is required for policy {policy.value!r}")
    corpus, annotated = _load_annotated(args.corpus, args.annotations)
    index = load_index(args.index) if args.index else None
    mode = ResolveMode(args.resolve_mode or ResolveMode.DUMP_ORDER.value)
    masked, usage = mask_corpus(annotated, policy, index, mode, name=corpus.name)
    save_corpus(masked, args.output)
    if args.usage_report:
        _write_usage(args.usage_report, usage)
    log.info("masked %d documents with %s", len(masked), policy.value)
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    mode = SplitMode(args.mode)
    if mode is SplitMode.TIME_BASED and args.boundary_date is None:
        raise _UsageError("--boundary-date is required for --mode time")
    # a settings flag's dest is its field's name (test_step_flags_are_settings_fields)
    given = {n: getattr(args, n) for n in _SPLIT_FIELDS if n != "mode"}
    spec = _split_spec(mode, given, _UsageError, lambda n: "--" + n.replace("_", "-"))
    corpus = load_corpus(args.corpus)
    with prefixed(args.corpus):
        train_c, test_c = spec.apply(corpus)
    save_corpus(train_c, args.train_output)
    save_corpus(test_c, args.test_output)
    log.info("split %d documents into %d train / %d test", len(corpus), len(train_c), len(test_c))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    # a settings flag's dest is its field's name (test_step_flags_are_settings_fields)
    space = FeatureSpace(**{n: getattr(args, n) for n in FEATURE_FIELDS})
    config = TrainConfig(**{n: getattr(args, n) for n in TRAIN_FIELDS})
    with prefixed(args.corpus):
        model = train(corpus, space, config)
    save_model(model, args.output)
    log.info("trained on %d documents", len(corpus))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    corpus = load_corpus(args.corpus)
    if not len(corpus):
        raise DataError(f"{args.corpus}: cannot evaluate on an empty corpus")
    with prefixed(args.model):  # a model whose weights overflow on a document
        cell = evaluate(model, corpus)
    payload = {
        "train_set": cell.train_set,
        "test_set": cell.test_set,
        "accuracy": cell.accuracy,
        "n": cell.n,
        "predictions": [
            {"id": doc.id, "gold": gold.value, "predicted": pred.value}
            for doc, gold, pred in zip(corpus, cell.gold, cell.predictions)
        ],
    }
    write_output(args.output, [json.dumps(payload, ensure_ascii=False, indent=2) + "\n"])
    return 0


def _path(raw: object) -> str:
    if not STRING(raw):
        raise ValueError('expected a non-empty string, got ""')
    return raw


# an experiment config's fields, one table per object; an empty annotations or
# index path means none, as an absent one does. SplitSpec checks the split's values
_DATASET_FIELDS = {
    "name": STRING, "annotations": lambda raw: STRING(raw) or None,
    "corpus": _path, "index": lambda raw: STRING(raw) or None,
}
_SPLIT_FIELDS = {
    "mode": SplitMode, "train_fraction": as_is,
    "boundary_date": lambda raw: iso_date(raw) if raw else None, "seed": as_is,
}


def _split_section(raw: object) -> SplitSpec:
    """The config's split: a field absent or null is not given (_split_spec)."""
    given = fields(raw, _SPLIT_FIELDS, dict.fromkeys(_SPLIT_FIELDS.keys() - {"mode"}))
    return _split_spec(given.pop("mode"), given, DataError, repr)


# a settings section's absent field takes its class's default (a class attribute)
_CONFIG_FIELDS = {
    "datasets": LIST,
    "policies": lambda raw: [MaskPolicy.parse(v) for v in LIST(raw)],
    "split": _split_section,
    "features": lambda raw: FeatureSpace(**fields(raw, FEATURE_FIELDS, vars(FeatureSpace))),
    "training": lambda raw: TrainConfig(**fields(raw, TRAIN_FIELDS, vars(TrainConfig))),
    "resolve_mode": ResolveMode,
    "ood_full": BOOLEAN,
}


def _parse_experiment_config(config: object) -> tuple[list, list, SplitSpec, dict]:
    """Check every value of an experiment config, reading no file. Returns
    (name, annotations, corpus, index) per dataset, the policies, the split
    and run_matrix's keyword arguments. Only a matrix with a WikiD policy
    reads resolve_mode and the datasets' indexes."""
    values = fields(config, _CONFIG_FIELDS, {
        "policies": list(MaskPolicy), "features": FeatureSpace(), "training": TrainConfig(),
        "resolve_mode": None, "ood_full": False,
    })
    datasets = []
    for i, entry in enumerate(values["datasets"]):
        with prefixed(f"datasets[{i}]"):
            dataset = fields(entry, _DATASET_FIELDS, {"annotations": None, "index": None})
        datasets.append(tuple(dataset.values()))  # in _DATASET_FIELDS order
    if not any(p.requires_index for p in values["policies"]):
        given = {"'resolve_mode'": values["resolve_mode"]}
        given |= {f"datasets[{i}] 'index'": index for i, (*_, index) in enumerate(datasets)}
        _refuse_unread("a matrix with no WikiD policy", given, DataError)
    return datasets, values["policies"], values["split"], {
        "space": values["features"], "config": values["training"],
        "resolve_mode": values["resolve_mode"] or ResolveMode.DUMP_ORDER,
        "ood_full": values["ood_full"],
    }


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = json_file(args.config)
    with prefixed(f"experiment config {args.config}"):
        datasets, policies, split, options = _parse_experiment_config(config)
        _check_matrix(
            [name for name, *_ in datasets], policies,
            [name for name, _, _, index in datasets if index],
        )
        bundles = []
        loaded = {None: None}  # index path -> its index, each path read once
        for i, (name, annotations, corpus, index) in enumerate(datasets):
            with prefixed(f"datasets[{i}]"):
                _, annotated = _load_annotated(corpus, annotations, name)
                if index not in loaded:
                    loaded[index] = load_index(index)
            bundles.append(DatasetBundle(name=name, docs=tuple(annotated)))
        indexes = {name: loaded[index] for name, _, _, index in datasets}
        report = run_matrix(bundles, policies, indexes, split, **options)
    if args.output_json:
        write_output(args.output_json, [report.to_json()])
    if args.output_text or not args.output_json:
        write_output(args.output_text or "-", [report.to_text()])
    return 0


def _write_usage(dest: str, usage: Counter[str]) -> None:
    """mask --usage-report's file: a header, then token<TAB>count by falling count."""
    ranked = top_labels(usage, None, len(usage)) if usage else []
    write_output(dest, ["token\tcount\n", *(f"{t}\t{c}\n" for t, c in ranked)])


def _read_usage(path: str) -> Counter[str]:
    counts: Counter[str] = Counter()
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in numbered_lines(fh, path):
            line = line.rstrip("\n")
            if not line or (lineno == 1 and line.startswith("token\t")):
                continue
            with prefixed(path, lineno):
                parts = line.split("\t")
                if len(parts) != 2:
                    raise DataError("expected 'token<TAB>count'")
                token, count = parts
                # as mask writes it: positive, ASCII digits, no leading zero ("01" reads 1)
                if not (count.isascii() and count.isdigit()) or count[0] == "0":
                    raise DataError(f"bad count {count!r}")
                counts[token] += int(count)
    return counts


def _cmd_coverage(args: argparse.Namespace) -> int:
    if len(args.usage) < 2 and not (len(args.usage) == 1 and args.top_k is not None):
        raise _UsageError("--usage must be given at least twice (NAME=PATH each)")
    if args.index is not None and args.top_k is None:
        raise _UsageError("--index labels the --top-k listing, so it needs --top-k")
    named: list[tuple[str, str, dict[str, int]]] = []
    for spec in args.usage:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise _UsageError(f"--usage expects NAME=PATH, got {spec!r}")
        # Usage reports may contain PER/LOC/ORG/MISC placeholders; coverage
        # is over role QIDs only.
        tokens = {t: c for t, c in _read_usage(path).items() if _QID_RE.fullmatch(t)}
        named.append((name, path, tokens))
    lines = []
    if len(named) >= 2:
        lines.append("# coverage matrix (% of row's unique labels present in column)")
        lines.append("dataset\t" + "\t".join(name for name, _, _ in named))
        for name_a, path_a, tokens_a in named:
            row = [name_a]
            with prefixed(path_a):  # a report with no role QID
                for _, _, tokens_b in named:
                    row.append(f"{coverage_rate(tokens_a, tokens_b):.1f}")
            lines.append("\t".join(row))
    if args.top_k is not None:
        index = load_index(args.index) if args.index else None
        if lines:
            lines.append("")
        lines.append(f"# top {args.top_k} labels per dataset")
        for name, _, counts in named:
            for label, count in top_labels(counts, index, args.top_k):
                lines.append(f"{name}\t{label}\t{count}")
    write_output(args.output, ["\n".join(lines) + "\n"])
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamask",
        description="Audit phrase/label bias in labeled corpora and mask named entities "
        "against it using a snapshotted Wikidata role index.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level diagnostics")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("ingest", help="load, validate, and re-emit a corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="output path, or - for stdout")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("lmi", help="rank phrase/label associations by local mutual information")
    p.add_argument("--corpus", required=True)
    p.add_argument("--n", type=_at_least(1), default=2, help="n-gram order (default 2)")
    p.add_argument("--top", type=_at_least(1), default=10, help="entries per label (default 10)")
    p.add_argument(
        "--min-count", type=_at_least(0), default=5, help="minimum phrase count (default 5)"
    )
    p.add_argument("--format", choices=("tsv", "text"), default="tsv")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_lmi)

    p = sub.add_parser("tag", help="annotate entities with an exact-match gazetteer")
    p.add_argument("--corpus", required=True)
    p.add_argument("--gazetteer", required=True, help="TSV file: name<TAB>tag per line")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_tag)

    p = sub.add_parser("index-wikidata", help="build an entity index from a JSON dump")
    p.add_argument("--dump", required=True, help="NDJSON entity dump, optionally .gz")
    p.add_argument("--snapshot-date", required=True, type=iso_date)
    p.add_argument("--output", required=True)
    p.add_argument(
        "--person-only", action="store_true", help="keep only instance-of-human entities"
    )
    p.add_argument(
        "--strict", action="store_true", help="fail on malformed dump lines instead of skipping"
    )
    p.set_defaults(func=_cmd_index_wikidata)

    p = sub.add_parser("mask", help="apply a masking policy to an annotated corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--annotations", default=None, help="span file (default: no spans)")
    p.add_argument("--policy", required=True, choices=[pol.value for pol in MaskPolicy])
    # only a wikid policy reads --index and --resolve-mode, and any other refuses them
    p.add_argument("--index", default=None, help="wikid policies only, and required there")
    p.add_argument(
        "--resolve-mode",
        choices=[m.value for m in ResolveMode],
        help=f"wikid policies only (default {ResolveMode.DUMP_ORDER.value})",
    )
    p.add_argument("--output", required=True)
    p.add_argument("--usage-report", default=None, help="write replacement-token counts (TSV)")
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("split", help="split a corpus into train and test")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=[m.value for m in SplitMode], required=True)
    # a flag not given is None, and one its mode does not read is refused (_split_spec)
    p.add_argument("--train-fraction", type=float,
                   help=f"--mode random only (default {SplitSpec.train_fraction})")
    p.add_argument("--boundary-date", type=iso_date,
                   help="--mode time only, and required there: the last training date")
    p.add_argument("--seed", type=int, help=f"--mode random only (default {SplitSpec.seed})")
    p.add_argument("--train-output", required=True)
    p.add_argument("--test-output", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train the hashed n-gram logistic classifier")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True, help="model file")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--l2", type=float, default=TrainConfig.l2)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument(
        "--orders", type=_orders, default=FeatureSpace.orders, help="n-gram orders, e.g. 1,2"
    )
    p.add_argument("--dimensions", type=int, default=FeatureSpace.dimensions)
    p.add_argument("--hash-seed", type=int, default=FeatureSpace.hash_seed)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model on a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("experiment", help="run the dataset x policy evaluation matrix")
    p.add_argument("--config", required=True, help="JSON experiment config (see README)")
    p.add_argument("--output-json", default=None)
    p.add_argument("--output-text", default=None, help="default: stdout")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("coverage", help="role-label overlap between mask usage reports")
    p.add_argument(
        "--usage",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="usage report from `mask --usage-report`; repeat per dataset",
    )
    p.add_argument("--top-k", type=_at_least(1), default=None, help="also list the top labels")
    p.add_argument("--index", default=None, help="entity index for human-readable labels")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_coverage)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Parse and run one invocation; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
