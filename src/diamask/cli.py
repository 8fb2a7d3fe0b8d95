"""Command-line interface.

Exit codes: 0 on success, 1 on domain errors (bad input data or impossible
requests), 2 on usage errors (unknown/missing flags, unparseable flag
values). Diagnostics go to stderr; data goes to files or stdout ('-' means
stdout wherever an output path is taken). Subcommands never modify their
input files, and a rerun with identical inputs and seeds produces
byte-identical outputs.
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
    document_to_record,
    iso_date,
    load_corpus,
    save_corpus,
    split_by_time,
    split_random,
)
from .errors import DataError, at_line, not_utf8, numbered_lines, prefixed
from .experiment import (
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
    qid_sort_key,
    save_index,
    top_labels,
)
from .wikidata import _QID_RE  # QID shape, shared with the library

log = logging.getLogger("diamask")


class _UsageError(Exception):
    """Flag-level problem detected after argparse (exit status 2)."""


def _orders(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {raw!r}") from None


def _write_output(dest: str, payload: str) -> None:
    if dest == "-":
        sys.stdout.write(payload)
    else:
        Path(dest).write_text(payload, encoding="utf-8")


def _emit_corpus(corpus: Corpus, dest: str) -> None:
    if dest == "-":
        for doc in corpus:
            sys.stdout.write(json.dumps(document_to_record(doc), ensure_ascii=False) + "\n")
    else:
        save_corpus(corpus, dest)


def _resolve_seed(args: argparse.Namespace, fallback: int) -> int:
    if getattr(args, "sub_seed", None) is not None:
        return args.sub_seed
    if args.seed is not None:
        return args.seed
    return fallback


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_ingest(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.input, allow_empty_text=args.allow_empty_text, name=args.name)
    _emit_corpus(corpus, args.output)
    log.info("ingested %d documents from %s", len(corpus), args.input)
    return 0


def _cmd_lmi(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    table = compute_lmi(corpus, n=args.n, min_count=args.min_count)
    rendered = export_lmi_table(table, top_k=args.top, scale=args.scale, fmt=args.format)
    _write_output(args.output, rendered)
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
    if policy.requires_index and args.index is None:
        raise _UsageError(f"--index is required for policy {policy.value!r}")
    corpus, annotated = _load_annotated(args.corpus, args.annotations)
    index = load_index(args.index) if args.index else None
    masked, usage = mask_corpus(
        annotated, policy, index, ResolveMode(args.resolve_mode), name=corpus.name
    )
    _emit_corpus(masked, args.output)
    if args.usage_report:
        lines = ["token\tcount"]
        for token, count in sorted(usage.items(), key=lambda kv: (-kv[1], qid_sort_key(kv[0]))):
            lines.append(f"{token}\t{count}")
        _write_output(args.usage_report, "\n".join(lines) + "\n")
    log.info("masked %d documents with %s", len(masked), policy.value)
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    mode = SplitMode(args.mode)
    if mode is SplitMode.TIME_BASED and args.boundary_date is None:
        raise _UsageError("--boundary-date is required for --mode time")
    spec = SplitSpec(
        mode=mode,
        train_fraction=args.train_fraction,
        boundary_date=args.boundary_date,
        seed=_resolve_seed(args, fallback=0),
    )
    if mode is SplitMode.RANDOM_HOLDOUT:
        train_c, test_c = split_random(corpus, spec)
    else:
        train_c, test_c = split_by_time(corpus, spec)
    _emit_corpus(train_c, args.train_output)
    _emit_corpus(test_c, args.test_output)
    log.info("split %d documents into %d train / %d test", len(corpus), len(train_c), len(test_c))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    space = FeatureSpace(
        orders=args.orders, dimensions=args.dimensions, hash_seed=args.hash_seed
    )
    config = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        l2=args.l2,
        seed=_resolve_seed(args, fallback=TrainConfig().seed),
    )
    model = train(corpus, space, config)
    save_model(model, args.output)
    log.info("trained on %d documents", len(corpus))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    corpus = load_corpus(args.corpus)
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
    _write_output(args.output, json.dumps(payload, ensure_ascii=False, indent=2) + "\n")
    return 0


_REQUIRED = object()


def _field(
    where: str, container: object, key: str, convert: Callable = lambda raw: raw, default=_REQUIRED
) -> object:
    """convert(container[key]), or default if the key is absent or null. Any
    problem raises DataError naming where (config file and section) and key."""
    if not isinstance(container, dict):
        raise DataError(f"{where}: expected a JSON object")
    raw = container.get(key)
    if raw is None:
        if default is _REQUIRED:
            raise DataError(f"{where}: missing {key!r}")
        return default
    try:
        return convert(raw)
    except (ValueError, TypeError, OverflowError, DataError) as exc:
        raise DataError(f"{where}: bad {key!r} ({exc})") from None


def _build(where: str, make: Callable, **fields: object) -> object:
    """make(**fields), with a DataError it raises (a value out of range)
    naming where (config file and section)."""
    with prefixed(where):
        return make(**fields)


def _cmd_experiment(args: argparse.Namespace) -> int:
    where = f"experiment config {args.config}"
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: malformed JSON ({exc.msg})") from None
    except UnicodeDecodeError as exc:
        raise not_utf8(where, exc) from None
    bundles = []
    indexes = {}
    for i, entry in enumerate(_field(where, config, "datasets", tuple)):
        at = f"{where}: datasets[{i}]"
        name = _field(at, entry, "name", str)
        # an empty annotations or index path means none, as an absent one does
        annotations = _field(at, entry, "annotations", str, None) or None
        _, annotated = _load_annotated(_field(at, entry, "corpus", str), annotations, name)
        bundles.append(DatasetBundle(name=name, docs=tuple(annotated)))
        index = _field(at, entry, "index", str, None)
        indexes[name] = load_index(index) if index else None
    policies = _field(
        where, config, "policies", lambda raw: [MaskPolicy.parse(v) for v in raw], list(MaskPolicy)
    )
    split_cfg = _field(where, config, "split")
    at = f"{where}: split"
    split = _build(
        at,
        SplitSpec,
        mode=_field(at, split_cfg, "mode", SplitMode),
        train_fraction=_field(at, split_cfg, "train_fraction", float, 0.8),
        boundary_date=_field(
            at, split_cfg, "boundary_date", lambda raw: iso_date(raw) if raw else None, None
        ),
        seed=_field(at, split_cfg, "seed", int, 0),
    )
    feat_cfg = _field(where, config, "features", default={})
    at = f"{where}: features"
    space = _build(
        at,
        FeatureSpace,
        orders=_field(at, feat_cfg, "orders", lambda raw: tuple(map(int, raw)), (1, 2)),
        dimensions=_field(at, feat_cfg, "dimensions", int, FeatureSpace().dimensions),
        hash_seed=_field(at, feat_cfg, "hash_seed", int, 0),
    )
    train_cfg = _field(where, config, "training", default={})
    at = f"{where}: training"
    tconfig = _build(
        at,
        TrainConfig,
        epochs=_field(at, train_cfg, "epochs", int, TrainConfig().epochs),
        learning_rate=_field(at, train_cfg, "learning_rate", float, TrainConfig().learning_rate),
        l2=_field(at, train_cfg, "l2", float, TrainConfig().l2),
        seed=_field(at, train_cfg, "seed", int, TrainConfig().seed),
    )
    report = run_matrix(
        bundles,
        policies,
        indexes,
        split,
        space=space,
        config=tconfig,
        resolve_mode=_field(where, config, "resolve_mode", ResolveMode, ResolveMode.DUMP_ORDER),
        ood_full=_field(where, config, "ood_full", bool, False),
    )
    if args.output_json:
        _write_output(args.output_json, report.to_json())
    if args.output_text or not args.output_json:
        _write_output(args.output_text or "-", report.to_text())
    return 0


def _read_usage(path: str) -> Counter[str]:
    counts: Counter[str] = Counter()
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in numbered_lines(fh, path):
            line = line.rstrip("\n")
            if not line or (lineno == 1 and line.startswith("token\t")):
                continue
            with at_line(path, lineno):
                parts = line.split("\t")
                if len(parts) != 2:
                    raise DataError("expected 'token<TAB>count'")
                try:
                    count = int(parts[1])
                except ValueError:
                    raise DataError(f"bad count {parts[1]!r}") from None
                if count < 1:
                    raise DataError(f"count must be positive, got {count}")
                counts[parts[0]] += count
    return counts


def _cmd_coverage(args: argparse.Namespace) -> int:
    if len(args.usage) < 2 and not (len(args.usage) == 1 and args.top_k is not None):
        raise _UsageError("--usage must be given at least twice (NAME=PATH each)")
    named: list[tuple[str, dict[str, int]]] = []
    for spec in args.usage:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise _UsageError(f"--usage expects NAME=PATH, got {spec!r}")
        # Usage reports may contain PER/LOC/ORG/MISC placeholders; coverage
        # is over role QIDs only.
        named.append((name, {t: c for t, c in _read_usage(path).items() if _QID_RE.match(t)}))
    lines = []
    if len(named) >= 2:
        lines.append("# coverage matrix (% of row's unique labels present in column)")
        lines.append("dataset\t" + "\t".join(name for name, _ in named))
        for name_a, tokens_a in named:
            row = [name_a]
            for _, tokens_b in named:
                row.append(f"{coverage_rate(tokens_a, tokens_b):.1f}")
            lines.append("\t".join(row))
    if args.top_k is not None:
        index = load_index(args.index) if args.index else None
        if lines:
            lines.append("")
        lines.append(f"# top {args.top_k} labels per dataset")
        for name, counts in named:
            for label, count in top_labels(counts, index, args.top_k):
                lines.append(f"{name}\t{label}\t{count}")
    _write_output(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamask",
        description="Audit phrase/label bias in labeled corpora and mask named entities "
        "against it using a snapshotted Wikidata role index.",
    )
    parser.add_argument("--seed", type=int, default=None, help="default seed for seeded stages")
    parser.add_argument(
        "--strict", action="store_true", help="fail on malformed dump lines instead of skipping"
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level diagnostics")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("ingest", help="load, validate, and re-emit a corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="output path, or - for stdout")
    p.add_argument("--allow-empty-text", action="store_true")
    p.add_argument("--name", default=None, help="corpus name (default: input file stem)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("lmi", help="rank phrase/label associations by local mutual information")
    p.add_argument("--corpus", required=True)
    p.add_argument("--n", type=int, default=2, help="n-gram order (default 2)")
    p.add_argument("--top", type=int, default=10, help="entries per label (default 10)")
    p.add_argument("--min-count", type=int, default=5, help="minimum phrase count (default 5)")
    p.add_argument("--scale", type=float, default=1e6, help="score multiplier (default 1e6)")
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
    p.set_defaults(func=_cmd_index_wikidata)

    p = sub.add_parser("mask", help="apply a masking policy to an annotated corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--annotations", default=None, help="span file (default: no spans)")
    p.add_argument("--policy", required=True, choices=[pol.value for pol in MaskPolicy])
    p.add_argument("--index", default=None, help="entity index (required for wikid policies)")
    p.add_argument(
        "--resolve-mode",
        choices=[m.value for m in ResolveMode],
        default=ResolveMode.DUMP_ORDER.value,
    )
    p.add_argument("--output", required=True)
    p.add_argument("--usage-report", default=None, help="write replacement-token counts (TSV)")
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("split", help="split a corpus into train and test")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=[m.value for m in SplitMode], required=True)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--boundary-date", type=iso_date, default=None)
    p.add_argument("--seed", dest="sub_seed", type=int, default=None)
    p.add_argument("--train-output", required=True)
    p.add_argument("--test-output", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train the hashed n-gram logistic classifier")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True, help="model file")
    p.add_argument("--epochs", type=int, default=TrainConfig().epochs)
    p.add_argument("--learning-rate", type=float, default=TrainConfig().learning_rate)
    p.add_argument("--l2", type=float, default=TrainConfig().l2)
    p.add_argument("--seed", dest="sub_seed", type=int, default=None)
    p.add_argument("--orders", type=_orders, default=(1, 2), help="n-gram orders, e.g. 1,2")
    p.add_argument("--dimensions", type=int, default=FeatureSpace().dimensions)
    p.add_argument("--hash-seed", type=int, default=0)
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
    p.add_argument("--top-k", type=int, default=None, help="also list the top labels")
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
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
