"""Error type shared across the package.

DataError marks problems with input data (bad records, impossible requests),
as opposed to programming errors, which stay plain ValueError/TypeError. The
CLI maps DataError to exit status 1 and usage problems to exit status 2.
"""

from __future__ import annotations

from contextlib import contextmanager
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


@contextmanager
def at_line(where: object, lineno: int) -> Iterator[None]:
    """Prefix a DataError raised inside with where and the line, as
    numbered_lines does: `<where> line <lineno>: `."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{where} line {lineno}: {exc}") from None


@contextmanager
def prefixed(where: object) -> Iterator[None]:
    """Re-raise a DataError or OSError from inside as a DataError prefixed
    `<where>: `. (at_line formats its own prefix, as it wraps every record.)"""
    try:
        yield
    except (DataError, OSError) as exc:
        raise DataError(f"{where}: {exc}") from None
