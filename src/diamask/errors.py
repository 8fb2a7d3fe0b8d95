"""Error type shared across the package, and the one way to read a text
input and to write an output.

DataError marks problems with input data (bad records, impossible requests),
as opposed to programming errors, which stay plain ValueError/TypeError. The
CLI maps DataError to exit status 1 and usage problems to exit status 2.

numbered_lines numbers the lines of a text file, naming the line of a byte
that is not UTF-8; json_lines decodes the non-blank lines of a JSON Lines
file on top of it. A loader wraps each record in prefixed(f"{path} line N"),
so every record error names the file and the line.

write_output writes text as UTF-8 to a file, or to stdout when the path is
"-", so both get the same bytes whatever the terminal's encoding;
write_json_lines writes one JSON record per line through it.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterable, Iterator


class DataError(Exception):
    """Invalid or inconsistent input data."""


def not_utf8(where: object, exc: UnicodeDecodeError, lines_before: int = 0) -> DataError:
    """DataError naming the line of exc's bad byte, given that the bytes
    exc was decoding start on line lines_before + 1. As in a file read with
    universal newlines, each of CR LF, a bare CR and LF ends one line."""
    head = exc.object[: exc.start]
    line = lines_before + 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    return DataError(f"{where} line {line}: not UTF-8 (byte 0x{exc.object[exc.start]:02x})")


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
            # A text file decodes a chunk ahead of the lines it hands out;
            # the chunk starts on the line after the last one handed out.
            raise not_utf8(where, exc, lineno) from None
        except EOFError:
            raise DataError(f"{where} line {lineno + 1}: compressed data ends early") from None
        lineno += 1
        yield lineno, line


def json_lines(path: str | Path) -> Iterator[tuple[int, object]]:
    """(line number, decoded value) for each non-blank line of a UTF-8 JSON
    Lines file. A line that is not JSON raises DataError
    `<path> line N: malformed JSON (<reason>)`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in numbered_lines(fh, path):
            line = line.strip()
            if not line:
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path} line {lineno}: malformed JSON ({exc.msg})") from None
            yield lineno, value


def write_output(dest: str | Path, chunks: Iterable[str]) -> None:
    """Write the chunks as UTF-8 to the file dest, or to stdout if dest is "-"."""
    if dest == "-":
        sys.stdout.flush()  # text already printed goes out first
    with nullcontext(sys.stdout.buffer) if dest == "-" else open(dest, "wb") as out:
        out.writelines(chunk.encode("utf-8") for chunk in chunks)
        out.flush()  # stdout is not closed here


def write_json_lines(dest: str | Path, records: Iterable[object]) -> None:
    """write_output of each record as one line of JSON, non-ASCII kept as is."""
    write_output(dest, (json.dumps(record, ensure_ascii=False) + "\n" for record in records))


@contextmanager
def prefixed(where: object) -> Iterator[None]:
    """Re-raise a DataError or OSError from inside as a DataError prefixed
    `<where>: `."""
    try:
        yield
    except (DataError, OSError) as exc:
        raise DataError(f"{where}: {exc}") from None
