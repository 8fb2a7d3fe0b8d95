"""errors.decode_json: a string UTF-8 cannot encode is an error naming its line."""

import pytest

from diamask.errors import DataError, decode_json


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
