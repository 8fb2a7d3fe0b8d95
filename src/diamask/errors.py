"""Error type shared across the package, and the one way to read a text
input and to write an output.

DataError marks problems with input data (bad records, impossible requests),
as opposed to programming errors, which stay plain ValueError/TypeError. The
CLI maps DataError to exit status 1 and usage problems to exit status 2.

numbered_lines numbers the lines of a text file, naming the line of a byte
that is not UTF-8. This is the one place JSON is decoded: decode_json gives
json.loads's value or error, parsing a value with only JSON whitespace after
it once and any other text through json.loads itself, then checks that every
string encodes as UTF-8; json_lines applies it to each non-blank line of a
JSON Lines file, and json_file to a file holding one value. A loader wraps
each record in prefixed(f"{path} line N"), so every record error names the
file and line. A record's class checks its values, so a loader only turns
JSON into the types the class takes, and a writer writes what it is given.

fields is the one way to read a decoded JSON object of settings (the
experiment config, a model file and each object in them): a table maps each
key it may hold to a converter that checks the value's JSON type, or to
as_is where the value's class checks it through setting, so a value built
in code gets the same `bad '<name>' (<reason>)` error as one read from a file.

write_output writes text as UTF-8 to a file, or to stdout when the path is
"-", so both get the same bytes whatever the terminal's encoding. Every
writer goes through it. save_corpus, write_annotations and save_index, which
write a line per record, build each line from a template of their own, the
line json.dumps(record, ensure_ascii=False) gives.
"""

from __future__ import annotations

import json
import math
import re
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping


class DataError(Exception):
    """Invalid or inconsistent input data."""


def numbered_lines(lines: Iterable[str], where: object) -> Iterator[tuple[int, str]]:
    """enumerate(lines, start=1) over a text file, except that a byte that is
    not UTF-8, or compressed data that ends early, raises DataError naming
    where and the line."""
    it = iter(lines)
    lineno = 0
    while True:
        try:
            line = next(it)
        except StopIteration:
            return
        except UnicodeDecodeError as exc:
            # A text file decodes a chunk ahead of the lines it hands out; the
            # chunk starts on the line after the last one handed out. As with
            # universal newlines, each of CR LF, a bare CR and LF ends a line.
            head = exc.object[: exc.start]
            line = lineno + 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise DataError(f"{where} line {line}: not UTF-8 (byte 0x{exc.object[exc.start]:02x})") from None
        except EOFError:
            raise DataError(f"{where} line {lineno + 1}: compressed data ends early") from None
        lineno += 1
        yield lineno, line


# group 1: the \u escape of a surrogate half, with the low half after a high one if any.
# In text json.loads accepts, a run of "\" pairs up from its start: only an odd one ends in \u.
_SURROGATE_ESCAPE = re.compile(r"\\(?<!\\\\)(?:\\\\)*(u[dD](?:[89abAB]..(?:\\u[dD][c-fC-F]..)?|[c-fC-F]..))")


# json.loads(text) is _default_decoder.decode(text): a BOM check, then this
# decoder's raw_decode after leading whitespace, then a check that only JSON
# whitespace follows the value. The decoder keeps no state between calls.
_RAW_DECODE = json.JSONDecoder().raw_decode


def decode_json(text: str, where: object, lineno: int = 1) -> object:
    """json.loads(text), where text is where's lines from line lineno on, else
    DataError `<where> line N: malformed JSON (<reason>)` or, for an unpaired
    \\ud800-\\udfff escape (a string UTF-8 cannot encode), `lone surrogate`.

    A value that starts the text with only JSON whitespace after it is
    json.loads's value, parsed once; any other text (leading whitespace, a
    BOM, data after the value, an error) goes to json.loads itself."""
    try:
        value, end = _RAW_DECODE(text)
        exact = not text[end:].strip(" \t\n\r")  # only JSON whitespace after the value
    except (ValueError, RecursionError):
        exact = False
    if not exact:  # json.loads decodes the text once more, or says what is wrong with it
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"{where} line {lineno + exc.lineno - 1}: malformed JSON ({exc.msg})") from None
        except (ValueError, RecursionError) as exc:  # int()'s digit limit, or nesting: no position
            at = where if "\n" in text.rstrip() else f"{where} line {lineno}"
            reason = "nested too deeply" if isinstance(exc, RecursionError) else "integer too long"
            raise DataError(f"{at}: malformed JSON ({reason})") from None
    if "\\" in text:  # a quick scan, as most text holds no escape at all
        for match in _SURROGATE_ESCAPE.finditer(text):
            if len(match[1]) == 5:  # one half, without the other
                line = lineno + text.count("\n", 0, match.start())
                raise DataError(f"{where} line {line}: lone surrogate \\{match[1].lower()} in a string")
    return value


def json_lines(path: str | Path) -> Iterator[tuple[int, object]]:
    """(line number, decode_json of the line) for each non-blank line of a
    UTF-8 JSON Lines file."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in numbered_lines(fh, path):
            line = line.strip()
            if line:
                yield lineno, decode_json(line, path, lineno)


def json_file(path: str | Path) -> object:
    """decode_json of a UTF-8 file holding one JSON value."""
    with open(path, encoding="utf-8") as fh:
        return decode_json("".join(line for _, line in numbered_lines(fh, path)), path)


def fields(obj: object, table: Mapping[str, Callable], defaults: Mapping | None = None) -> dict:
    """{name: convert(obj[name])} for each name -> convert of table, from a JSON
    object holding no key that table lacks. A field absent or null takes
    defaults[name]; without defaults (a model file) every field is required. A
    value convert rejects is `bad '<name>' (<reason>)`; a DataError from convert
    (a nested object, a settings class) is prefixed `<name>: `."""
    if not isinstance(obj, dict):
        raise DataError("expected a JSON object")
    for key in obj:
        if key not in table:
            raise DataError(f"unknown key {key!r}")
    values = {}
    for name, convert in table.items():
        raw = obj.get(name)
        if raw is None:
            if defaults is None or name not in defaults:
                raise DataError(f"missing {name!r}")
            values[name] = defaults[name]
            continue
        try:
            values[name] = convert(raw)
        except (ValueError, TypeError, OverflowError) as exc:
            raise bad(name, exc) from None
        except DataError as exc:
            raise DataError(f"{name}: {exc}") from None
    return values


def bad(name: str, reason: object) -> DataError:
    """The error for a setting's bad value: `bad '<name>' (<reason>)`."""
    return DataError(f"bad {name!r} ({reason})")


def setting(name: str, value: object, convert: Callable[[object], object]) -> object:
    """convert(value) for a settings class's field name, as fields converts one
    read from a file, else bad(name, <what convert raised>)."""
    try:
        return convert(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise bad(name, exc) from None


def shown(value: object) -> str:
    """value as JSON writes it (true, 1.5, "x"), or its repr if it is no JSON value."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def _expect(kind: str, *types: type) -> Callable[[object], object]:
    """A fields converter passing through a value of one of the JSON types
    given and rejecting any other. The type must match exactly, so true is
    not an integer and 1.0 is not one either."""

    def check(raw: object) -> object:
        if type(raw) not in types:
            raise TypeError(f"expected {kind}, got {shown(raw)}")
        return raw

    return check


def as_is(raw: object) -> object:
    """A fields converter passing any value through, for a field its class checks."""
    return raw


STRING = _expect("a string", str)
INTEGER = _expect("an integer", int)
BOOLEAN = _expect("true or false", bool)
LIST = _expect("a list", list)
OBJECT = _expect("a JSON object", dict)
_NUMBER = _expect("a number", int, float)


def number(raw: object) -> float:
    """A fields converter: a JSON number, an integer or a float, as a float."""
    return float(_NUMBER(raw))


def finite(raw: object) -> float:
    """number, except NaN and Infinity: json.loads reads these tokens, JSON has none."""
    value = number(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {shown(raw)}")
    return value


def write_output(dest: str | Path, chunks: Iterable[str]) -> None:
    """Write the chunks as UTF-8 to the file dest, or to stdout if dest is "-"."""
    if dest == "-":
        sys.stdout.flush()  # text already printed goes out first
    with nullcontext(sys.stdout.buffer) if dest == "-" else open(dest, "wb") as out:
        out.writelines(chunk.encode("utf-8") for chunk in chunks)
        out.flush()  # stdout is not closed here


@contextmanager
def prefixed(where: object) -> Iterator[None]:
    """Re-raise a DataError or OSError from inside as a DataError prefixed
    `<where>: `."""
    try:
        yield
    except (DataError, OSError) as exc:
        raise DataError(f"{where}: {exc}") from None
