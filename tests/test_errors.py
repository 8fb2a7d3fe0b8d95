"""errors.decode_json: json.loads's value or error, and a string UTF-8 cannot
encode is an error naming its line; errors.prefixed; errors.shown; and a
writer given a string UTF-8 cannot encode."""

import json
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamask.annotate import AnnotatedDocument, NeSpan, NeTag, write_annotations
from diamask.corpus import Corpus, Document, Label, save_corpus
from diamask.errors import _SURROGATE_ESCAPE, DataError, decode_json, json_file, prefixed, shown
from diamask.experiment import FeatureSpace, Model, TrainConfig, load_model, save_model
from diamask.wikidata import EntityIndex, EntityRecord, load_index, save_index


@pytest.mark.parametrize("text", [
    '"\\uD800"',  # hex digits in either case
    '"\\udc00"',  # a low half alone
    '"\\ud800\\u0041"',  # a high half followed by another escape
    '"\\ud800\\ud83d\\ude00"',  # a high half, then a whole pair
    '"\\ud83d\\ude00\\ude00"',  # a whole pair, then a low half
    '"\\\\\\ud800"',  # an escaped backslash, then a high half
    '"\\\\ud800\\udc00"',  # a backslash and "ud800", then a low half
    '{"\\ud800": 1}',  # a key is a string too
    '["\\\\", "\\ud800"]',  # after a string ending in an escaped backslash
])
def test_lone_surrogate_is_an_error(text):
    with pytest.raises(DataError, match=r"^f line 4: lone surrogate \\u"):
        decode_json(text, "f", 4)


@pytest.mark.parametrize("text, value", [
    ('"\\ud83d\\ude00"', "\U0001f600"),
    ('"\\uD83D\\uDE00"', "\U0001f600"),
    ('"\\\\ud800"', "\\ud800"),  # a backslash and "ud800"
    ('"\\\\\\\\ud800"', "\\\\ud800"),  # two backslashes and "ud800"
    ('"\\\\\\ud83d\\ude00"', "\\\U0001f600"),
    ('"\\u00e9\\u4e2d\\ue000"', "é中"),  # no surrogate: BMP and private use
])
def test_pair_and_other_escapes_decode(text, value):
    assert decode_json(text, "f") == value


def test_lone_surrogate_names_its_line_in_text_of_many_lines():
    text = '{"a": "\\\\ud800",\n "b": "\\ud83d\\ude00",\n "c": "\\udfff"}'
    with pytest.raises(DataError, match=r"^f line 3: lone surrogate \\udfff in a string$"):
        decode_json(text, "f")


# -- decode_json against its json.loads definition ----------------------------

def reference_decode_json(text: str, where: object, lineno: int = 1) -> object:
    """decode_json as a plain json.loads, then the lone-surrogate scan."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{where} line {lineno + exc.lineno - 1}: malformed JSON ({exc.msg})") from None
    except (ValueError, RecursionError) as exc:
        at = where if "\n" in text.rstrip() else f"{where} line {lineno}"
        reason = "nested too deeply" if isinstance(exc, RecursionError) else "integer too long"
        raise DataError(f"{at}: malformed JSON ({reason})") from None
    if "\\" in text:
        for match in _SURROGATE_ESCAPE.finditer(text):
            if len(match[1]) == 5:
                line = lineno + text.count("\n", 0, match.start())
                raise DataError(f"{where} line {line}: lone surrogate \\{match[1].lower()} in a string")
    return value


def _exact(value):
    """value with the type of every part spelled out: True is not 1, 1.0 is not
    1, -0.0 is not 0.0, NaN equals NaN and key order counts."""
    if isinstance(value, dict):
        return "dict", [(key, _exact(item)) for key, item in value.items()]
    if isinstance(value, list):
        return "list", [_exact(item) for item in value]
    if isinstance(value, float):
        return "float", repr(value)
    return type(value).__name__, value


def _outcome(decode, text):
    try:
        return "value", _exact(decode(text, "f", 3))
    except DataError as exc:
        return "error", str(exc)


# strings with lone and paired surrogates among other characters
_STRINGS = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=4)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _STRINGS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_STRINGS, inner, max_size=3),
    max_leaves=8,
)
# dumps of a value: NaN and Infinity among the floats, a surrogate as an escape
# or as itself, many lines under an indent
_DUMPED = st.builds(lambda value, indent, ascii: json.dumps(value, indent=indent, ensure_ascii=ascii),
                    _VALUES, st.sampled_from([None, 0, 2]), st.booleans())
_JSON_SPACE = st.text(st.sampled_from(" \t\n\r"), max_size=3)
# also other whitespace, which str.strip and str.split strip and JSON does not
_SPACE = _JSON_SPACE | st.text(st.sampled_from(" \t\n\r\x85\xa0\u2028\u3000"), max_size=3)
_PIECES = st.sampled_from([
    "1", "2", "{}", "[]", "x", "[1", "2]", "\ufeff", "NaN", "-Infinity", "1e400",
    '"\\ud800"', '"\\udc00"', '"\\ud83d\\ude00"', '"\\\\ud800"', '"\\', "\n", ",",
    "9" * 5000, "[" * 5000,  # int()'s digit limit, and nesting too deep
])


@given(st.tuples(_SPACE, _DUMPED, _SPACE).map("".join))
@settings(max_examples=150)
def test_a_value_with_whitespace_around_it_decodes_as_json_loads_does(text):
    assert _outcome(decode_json, text) == _outcome(reference_decode_json, text)


@given(st.one_of(
    st.tuples(_DUMPED, _SPACE, _DUMPED | _PIECES).map("".join),  # data after a value
    _DUMPED.map("\ufeff".__add__),  # a leading BOM
    st.lists(_DUMPED | _PIECES | _SPACE, max_size=6).map("".join),  # values and fragments
    st.lists(_DUMPED, min_size=2, max_size=4).map("\n".join),  # one value per line
))
@settings(max_examples=150)
def test_other_text_decodes_or_fails_as_json_loads_does(text):
    assert _outcome(decode_json, text) == _outcome(reference_decode_json, text)


@pytest.mark.parametrize("text, message", [
    pytest.param("1 2", "f line 4: malformed JSON (Extra data)", id="number-then-number"),
    pytest.param("{} x", "f line 4: malformed JSON (Extra data)", id="object-then-word"),
    pytest.param('{"a": 1}\n\n[]', "f line 6: malformed JSON (Extra data)", id="later-line"),
    pytest.param("\ufeff{}", "f line 4: malformed JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))",
                 id="bom"),
    pytest.param("[" * 100_000, "f line 4: malformed JSON (nested too deeply)", id="nesting"),
])
def test_json_loads_errors_keep_their_message(text, message):
    with pytest.raises(DataError) as caught:
        decode_json(text, "f", 4)
    assert str(caught.value) == message


def test_saved_files_are_parsed_once(tmp_path, monkeypatch):
    """A model file (one value and "\\n") and an index (one value per line)
    decode without json.loads, which decode_json calls only as a fallback."""
    model = Model(FeatureSpace(dimensions=16), TrainConfig(), "t", {3: 1.5, 7: -0.25}, 0.5)
    save_model(model, tmp_path / "model.json")
    index = EntityIndex(snapshot_date=date(2020, 12, 28))
    index.add(EntityRecord("Q1", "Jane Roe", ("J. Roe",), (), 2))
    save_index(index, tmp_path / "index.idx")

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(json, "loads", refuse)
    assert load_model(tmp_path / "model.json") == model
    assert json_file(tmp_path / "model.json")["weights"] == {"3": 1.5, "7": -0.25}
    assert load_index(tmp_path / "index.idx") == index


# -- prefixed -------------------------------------------------------------------

@pytest.mark.parametrize("raised", [DataError("bad value"), FileNotFoundError("bad value")],
                         ids=["data-error", "os-error"])
@pytest.mark.parametrize("lineno, message", [(7, "f.jsonl line 7: bad value"), (None, "f.jsonl: bad value")],
                         ids=["line", "no-line"])
def test_prefixed_names_where_and_the_line(raised, lineno, message):
    with pytest.raises(DataError) as caught:
        with prefixed("f.jsonl", lineno):
            raise raised
    assert type(caught.value) is DataError and str(caught.value) == message
    assert caught.value.__cause__ is None and caught.value.__suppress_context__


@pytest.mark.parametrize("raised", [ValueError("x"), KeyError("x"), KeyboardInterrupt()],
                         ids=["value-error", "key-error", "keyboard-interrupt"])
def test_prefixed_passes_other_exceptions_through(raised):
    with pytest.raises(type(raised)) as caught:
        with prefixed("f.jsonl", 7):
            raise raised
    assert caught.value is raised


class CountedWhere:
    """A where that counts how often it is formatted."""

    def __init__(self):
        self.calls = 0

    def __format__(self, spec):
        self.calls += 1
        return "f.jsonl"

    def __str__(self):
        return format(self)

    __repr__ = __str__


def test_prefixed_formats_where_only_when_it_raises():
    where = CountedWhere()
    for lineno in (1, 2, None):
        with prefixed(where, lineno):
            pass
    assert where.calls == 0
    with pytest.raises(DataError, match="^f.jsonl line 3: bad value$"):
        with prefixed(where, 3):
            raise DataError("bad value")
    assert where.calls == 1


# -- a lone surrogate, which UTF-8 cannot encode, is a DataError from its writer --

def _write_document(text, path):
    save_corpus(Corpus("c", (Document("d", text, Label.REAL),)), path)


def _write_span(text, path):
    document = Document("d", text, Label.REAL)
    write_annotations([AnnotatedDocument(document, (NeSpan(0, len(text), NeTag.PER, text),))], path)


def _write_record(text, path):
    index = EntityIndex(snapshot_date=date(2020, 12, 28))
    index.add(EntityRecord("Q1", "Jane Roe", (text,), (), 2))
    save_index(index, path)


def _write_model(text, path):
    save_model(Model(FeatureSpace(dimensions=16), TrainConfig(), text, {}, 0.0), path)


@pytest.mark.parametrize("write", [_write_document, _write_span, _write_record, _write_model],
                         ids=["save_corpus", "write_annotations", "save_index", "save_model"])
@pytest.mark.parametrize("text, code", [("a\ud800b", "D800"), ("\udfff", "DFFF")])
def test_a_lone_surrogate_is_an_error_naming_the_file_and_code_point(tmp_path, write, text, code):
    path = tmp_path / "x.jsonl"
    with pytest.raises(DataError) as caught:
        write(text, path)
    assert str(caught.value) == f"{path}: cannot write U+{code} (a lone surrogate) as UTF-8"
    assert caught.value.__suppress_context__


@pytest.mark.parametrize("value, text", [
    (True, "true"), (1.5, "1.5"), ("x", '"x"'), (float("nan"), "NaN"), (b"x", "b'x'"),
    (10**5000, "<int too long to show>"), ([1, 10**5000], "<list too long to show>"),
], ids=["bool", "float", "string", "nan", "bytes", "int-too-long-for-str", "list-holding-one"])
def test_shown_is_json_else_the_repr_else_a_bounded_text(value, text):
    assert shown(value) == text
