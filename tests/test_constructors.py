"""The refusal table: each value here is one a public record or settings class
refuses when it is built, with a DataError, so no writer ever sees it. Without
the check, its writer would die with a traceback, write a file its loader
refuses, or the class would raise a TypeError or accept it silently."""

import re
from datetime import date, datetime

import pytest

from diamask import (
    AnnotatedDocument,
    Corpus,
    DataError,
    Document,
    EntityIndex,
    EntityRecord,
    FeatureSpace,
    Label,
    NeSpan,
    NeTag,
    RoleProperty,
    SplitMode,
    SplitSpec,
    Statement,
    TrainConfig,
    save_corpus,
    save_index,
    save_model,
    train,
    write_annotations,
)

TEXT = "Jane Roe spoke"
CORPUS = Corpus(name="c", documents=(
    Document(id="f", text="zzz hoax", label=Label.FAKE),
    Document(id="r", text="qqq report", label=Label.REAL),
))


def document(**changes):
    return Document(**{"id": "d1", "text": TEXT, "label": Label.REAL, **changes})


def span(**changes):
    return NeSpan(**{"start": 0, "end": 8, "tag": NeTag.PER, "surface": "Jane Roe", **changes})


def statement(**changes):
    return Statement(**{"property": RoleProperty.OCCUPATION, "value_qid": "Q2",
                        "start_date": None, "end_date": None, **changes})


def record(**changes):
    return EntityRecord(**{"qid": "Q1", "primary_label": "Jane Roe", "aliases": (),
                           "statements": (), "sitelink_count": 1, **changes})


def settings(**changes):
    return {"space": FeatureSpace(dimensions=16), "config": TrainConfig(epochs=1), **changes}


def write_document(doc, path):
    save_corpus(Corpus(name="c", documents=(doc,)), path)


def write_span(ne_span, path):
    write_annotations([AnnotatedDocument(document=document(), spans=(ne_span,))], path)


def write_record(entity, path):
    index = EntityIndex(snapshot_date=date(2020, 12, 28))
    index.add(entity)
    save_index(index, path)


def write_statement(claim, path):
    write_record(record(statements=(claim,)), path)


def write_model(given, path):
    save_model(train(CORPUS, given["space"], given["config"]), path)


def write_split(spec, path):
    save_corpus(spec.apply(CORPUS)[0], path)


# id, what builds the value, how it would be written, and the refusal's message
REFUSED = [
    # the writer would die with a traceback
    ("document-label-a-string", lambda: document(label="real"), write_document,
     "label must be a Label, got 'real' (document 'd1')"),
    ("document-date-a-string", lambda: document(date="2020-01-01"), write_document,
     "date must be a date, got '2020-01-01' (document 'd1')"),
    ("span-tag-a-string", lambda: span(tag="PER"), write_span,
     "span tag must be an NeTag, got 'PER'"),
    ("record-qid-not-digits", lambda: record(qid="Qa"), write_record,
     "record 'Qa': bad QID, label, aliases or statements"),
    ("record-alias-a-number", lambda: record(aliases=(5,)), write_record,
     "record 'Q1': bad QID, label, aliases or statements"),
    ("statement-property-a-string", lambda: statement(property="P106"), write_statement,
     "bad statement Statement(property='P106'"),
    # the file would save, and its loader refuse it
    ("space-hash-seed-a-bool", lambda: settings(space=FeatureSpace(hash_seed=True)), write_model,
     "bad 'hash_seed' (expected an integer, got true)"),
    ("space-order-a-bool", lambda: settings(space=FeatureSpace(orders=(True,))), write_model,
     "bad 'orders' (expected an integer, got true)"),
    ("config-epochs-a-bool", lambda: settings(config=TrainConfig(epochs=True)), write_model,
     "bad 'epochs' (expected an integer, got true)"),
    ("config-seed-a-bool", lambda: settings(config=TrainConfig(seed=False)), write_model,
     "bad 'seed' (expected an integer, got false)"),
    ("config-seed-a-float", lambda: settings(config=TrainConfig(seed=1.5)), write_model,
     "bad 'seed' (expected an integer, got 1.5)"),
    ("document-date-a-datetime", lambda: document(date=datetime(2020, 1, 1)), write_document,
     "date must be a date, got datetime.datetime(2020, 1, 1, 0, 0) (document 'd1')"),
    ("record-label-empty", lambda: record(primary_label=""), write_record,
     "record 'Q1': bad QID, label, aliases or statements"),
    ("record-qid-not-q", lambda: record(qid="X1"), write_record,
     "record 'X1': bad QID, label, aliases or statements"),
    ("statement-value-not-a-qid", lambda: statement(value_qid="bogus"), write_statement,
     "bad statement Statement(property=<RoleProperty.OCCUPATION: 'P106'>, value_qid='bogus'"),
    ("statement-start-a-datetime", lambda: statement(start_date=datetime(2020, 1, 1)),
     write_statement, "start_date=datetime.datetime(2020, 1, 1, 0, 0)"),
    # the class would raise a TypeError, not a DataError
    ("span-start-a-string", lambda: span(start="0", end=3), write_span,
     "span offsets must be integers, got ['0', 3)"),
    ("space-dimensions-a-float", lambda: settings(space=FeatureSpace(dimensions=16.0)),
     write_model, "bad 'dimensions' (expected an integer, got 16.0)"),
    ("config-learning-rate-a-string", lambda: settings(config=TrainConfig(learning_rate="0.1")),
     write_model, "bad 'learning_rate' (expected a number, got \"0.1\")"),
    ("split-train-fraction-a-string",
     lambda: SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, train_fraction="0.5"), write_split,
     "bad 'train_fraction' (expected a number, got \"0.5\")"),
    ("config-epochs-a-float", lambda: settings(config=TrainConfig(epochs=2.5)), write_model,
     "bad 'epochs' (expected an integer, got 2.5)"),
    # the class would accept it silently
    ("split-seed-a-bool", lambda: SplitSpec(mode=SplitMode.RANDOM_HOLDOUT, seed=True),
     write_split, "bad 'seed' (expected an integer, got true)"),
    ("split-boundary-date-a-string",
     lambda: SplitSpec(mode=SplitMode.TIME_BASED, boundary_date="2020-01-01"), write_split,
     "bad 'boundary_date' (expected a date, got \"2020-01-01\")"),
]


@pytest.mark.parametrize("build, write, message", [pytest.param(*case[1:], id=case[0])
                                                   for case in REFUSED])
def test_a_value_no_loader_reads_back_is_refused_when_built(tmp_path, build, write, message):
    path = tmp_path / "out"
    built = []
    with pytest.raises(DataError, match=re.escape(message)):
        built.append(build())
        write(built[0], path)
    assert not built  # refused by the class, before any writer runs
    assert not path.exists()
