"""Outputs are byte-identical per Python minor version and Unicode database
version: tokenize, the gazetteer tagger and lookup_by_name read the
interpreter's Unicode tables. Each row is a letter that one Unicode version
assigned; on an interpreter whose tables predate it, the code point is
unassigned (category Cn), so it is no letter, no word character and has no
case. Each test asserts what the running interpreter's
unicodedata.unidata_version implies, so every CI leg checks its own side."""

import unicodedata
from datetime import date

import pytest

from diamask import (Document, EntityIndex, EntityRecord, Label, RoleProperty, Statement,
                     lookup_by_name, tokenize)
from diamask.annotate import Gazetteer, NeTag, tag_with_gazetteer

UNIDATA = tuple(int(part) for part in unicodedata.unidata_version.split(".")[:2])

# (letter, the Unicode version that assigned it, its casefold there)
NEW_LETTERS = [
    pytest.param("\U00010570", (14, 0), "\U00010597", id="14.0-vithkuqi-capital-a"),
    pytest.param("\U00011F04", (15, 0), "\U00011F04", id="15.0-kawi-letter-a"),
    pytest.param("\U0002EBF0", (15, 1), "\U0002EBF0", id="15.1-cjk-extension-i"),
]


@pytest.mark.parametrize("letter, since, folded", NEW_LETTERS)
def test_tokenize(letter, since, folded):
    got = tokenize(f"{letter}{letter} news")
    assert got == ([folded * 2, "news"] if UNIDATA >= since else ["news"])


@pytest.mark.parametrize("letter, since, folded", NEW_LETTERS)
def test_gazetteer_tagger(letter, since, folded):
    """A letter glued to a name makes one word with it; an unassigned code
    point splits the words, so the name around it matches."""
    gazetteer = Gazetteer.from_pairs([("Jane Roe", NeTag.PER)])
    text = f"Jane{letter} Roe spoke"
    spans = tag_with_gazetteer(Document("d1", text, Label.REAL), gazetteer).spans
    if UNIDATA >= since:
        assert spans == ()
    else:
        assert [(s.start, s.end, s.surface) for s in spans] == [(0, 9, text[:9])]


@pytest.mark.parametrize("letter, since, folded", NEW_LETTERS)
def test_lookup_by_name(letter, since, folded):
    """An index name holding the casefolded letter is found by the letter as
    written where the tables fold it to that, through the token fallback.
    No version makes it whitespace, so it is one token either way."""
    role = Statement(RoleProperty.OCCUPATION, "Q2", None, None)
    index = EntityIndex(snapshot_date=date(2020, 12, 28))
    index.add(EntityRecord("Q1", f"Ann {folded}", (), (role,), 1))
    found = UNIDATA >= since or letter == folded
    assert lookup_by_name(index, letter) == (["Q1"] if found else [])
