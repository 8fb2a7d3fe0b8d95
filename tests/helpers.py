"""Shared fixtures and independent oracles for the test suite.

The oracles here recompute expected values from first principles (explicit
enumeration, closed-form sums, numerical quadrature) so the library is
checked against an implementation that shares as little code with it as
possible.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import operator
import random

from hypothesis import strategies as st

from diamask.analysis import tokenize
from diamask.corpus import Corpus, Document, Label


# ---------------------------------------------------------------------------
# association-score oracle


def lmi_oracle(corpus: Corpus, n: int):
    """Brute-force (phrase, label) scores: enumerate every n-gram occurrence
    and evaluate p(w,l) * log(p(l|w) / p(l)) directly.

    Returns ({(phrase, label): (count_wl, count_w, p_l_given_w, lmi)}, total).
    """
    occurrences: list[tuple[str, Label]] = []
    for doc in corpus:
        toks = tokenize(doc.text)
        for i in range(len(toks) - n + 1):
            occurrences.append((" ".join(toks[i : i + n]), doc.label))
    total = len(occurrences)
    phrase_counts: dict[str, int] = {}
    label_counts: dict[Label, int] = {}
    pair_counts: dict[tuple[str, Label], int] = {}
    for phrase, label in occurrences:
        phrase_counts[phrase] = phrase_counts.get(phrase, 0) + 1
        label_counts[label] = label_counts.get(label, 0) + 1
        pair_counts[(phrase, label)] = pair_counts.get((phrase, label), 0) + 1
    out = {}
    for (phrase, label), c_wl in pair_counts.items():
        c_w = phrase_counts[phrase]
        p_wl = c_wl / total
        p_lw = c_wl / c_w
        p_l = label_counts[label] / total
        out[(phrase, label)] = (c_wl, c_w, p_lw, p_wl * math.log(p_lw / p_l))
    return out, total


_VOCAB = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l")


def random_corpus(rng: random.Random, max_docs: int = 30, max_tokens: int = 50) -> Corpus:
    """Small random corpus over a tight vocabulary (phrases repeat often)."""
    n_docs = rng.randint(1, max_docs)
    docs = []
    for i in range(n_docs):
        n_tokens = rng.randint(1, max_tokens)
        text = " ".join(rng.choice(_VOCAB) for _ in range(n_tokens))
        label = Label.FAKE if rng.random() < 0.5 else Label.REAL
        docs.append(Document(id=f"d{i}", text=text, label=label))
    return Corpus(name="random", documents=tuple(docs))


# ---------------------------------------------------------------------------
# chi-square tail oracle


def chi2_tail_1df(s: float, span: float = 80.0, steps: int = 200_001) -> float:
    """Upper tail of the 1-df chi-square at s, by Simpson quadrature of the
    density exp(-x/2) / sqrt(2 pi x) over [s, s + span]."""
    if s <= 0:
        return 1.0

    def density(x: float) -> float:
        return math.exp(-x / 2.0) / math.sqrt(2.0 * math.pi * x)

    h = span / (steps - 1)
    acc = density(s) + density(s + span)
    for i in range(1, steps - 1):
        acc += density(s + i * h) * (4.0 if i % 2 else 2.0)
    return acc * h / 3.0


def exact_mcnemar_p(b: int, c: int) -> float:
    """The two-sided exact binomial expression, computed independently."""
    n = b + c
    tail = sum(math.comb(n, k) for k in range(min(b, c) + 1))
    return min(1.0, 2.0 * tail / 2.0**n)


# ---------------------------------------------------------------------------
# dump-line builders (standard dump entity layout)


def _time_value(iso: str) -> dict:
    return {
        "value": {
            "time": f"+{iso}T00:00:00Z",
            "timezone": 0,
            "before": 0,
            "after": 0,
            "precision": 11,
            "calendarmodel": "http://www.wikidata.org/entity/Q1985727",
        },
        "type": "time",
    }


def make_claim(prop: str, target: str, start: str | None = None, end: str | None = None) -> dict:
    claim = {
        "mainsnak": {
            "snaktype": "value",
            "property": prop,
            "datavalue": {
                "value": {"entity-type": "item", "numeric-id": int(target[1:]), "id": target},
                "type": "wikibase-entityid",
            },
        },
        "type": "statement",
        "rank": "normal",
    }
    qualifiers = {}
    if start:
        qualifiers["P580"] = [
            {"snaktype": "value", "property": "P580", "datavalue": _time_value(start)}
        ]
    if end:
        qualifiers["P582"] = [
            {"snaktype": "value", "property": "P582", "datavalue": _time_value(end)}
        ]
    if qualifiers:
        claim["qualifiers"] = qualifiers
    return claim


def make_entity(
    qid: str,
    label: str | None,
    aliases: tuple[str, ...] = (),
    positions: tuple = (),
    occupations: tuple[str, ...] = (),
    sitelinks: int = 0,
    human: bool = True,
) -> dict:
    """positions: tuple of (target,) or (target, start, end) tuples."""
    claims: dict = {}
    if human:
        claims["P31"] = [make_claim("P31", "Q5")]
    p39 = []
    for entry in positions:
        target, start, end = (tuple(entry) + (None, None))[:3]
        p39.append(make_claim("P39", target, start, end))
    if p39:
        claims["P39"] = p39
    p106 = [make_claim("P106", target) for target in occupations]
    if p106:
        claims["P106"] = p106
    entity: dict = {"type": "item", "id": qid, "claims": claims}
    if label is not None:
        entity["labels"] = {"en": {"language": "en", "value": label}}
    if aliases:
        entity["aliases"] = {
            "en": [{"language": "en", "value": alias} for alias in aliases]
        }
    entity["sitelinks"] = {f"s{i}wiki": {"site": f"s{i}wiki", "title": label or qid} for i in range(sitelinks)}
    return entity


def entity_line(entity: dict) -> str:
    return json.dumps(entity, ensure_ascii=False)


def modi_dump_lines() -> list[str]:
    """Three-entity fixture: a politician whose first-listed position is
    Q22337580, plus two decoys."""
    return [
        entity_line(
            make_entity(
                "Q1165",
                "Narendra Modi",
                aliases=("Modi",),
                positions=(("Q22337580", "2001-10-07", "2014-05-26"), ("Q192045", "2014-05-26", None)),
                occupations=("Q82955",),
                sitelinks=50,
            )
        ),
        entity_line(
            make_entity(
                "Q76",
                "Barack Obama",
                positions=(("Q11696", "2009-01-20", "2017-01-20"),),
                occupations=("Q82955",),
                sitelinks=100,
            )
        ),
        entity_line(
            make_entity("Q42", "Douglas Adams", occupations=("Q36180",), sitelinks=90)
        ),
    ]


# ---------------------------------------------------------------------------
# diachronic fixture: period-B persons reuse given names of opposite-leaning
# period-A persons (full names stay disjoint), which makes the unmasked
# cross-period model actively wrong rather than merely uninformed.

SYNTH_A = (
    "Alan Pryce",
    "Bella Novak",
    "Carl Osei",
    "Dora Lindt",
    "Evan Mora",
    "Fiona Abe",
    "Gary Holt",
    "Hana Riggs",
)

SYNTH_B = (
    "Bella Quist",
    "Alan Verne",
    "Dora Feld",
    "Carl Ibarra",
    "Fiona Stam",
    "Evan Kovic",
    "Hana Obi",
    "Gary Lund",
)

SYNTH_ROLES = tuple(f"Q{101 + i}" for i in range(8))

SYNTH_ROLE_MAP = {name: SYNTH_ROLES[i] for i, name in enumerate(SYNTH_A)}
SYNTH_ROLE_MAP.update({name: SYNTH_ROLES[i] for i, name in enumerate(SYNTH_B)})

PINNED_SEEDS = (1, 2, 3, 4, 5)


def make_sample_annotated():
    """The worked masking example: one sentence, three location spans, one
    person span that the modi fixture resolves to Q22337580."""
    from diamask.annotate import AnnotatedDocument, NeSpan, NeTag

    text = (
        "18 states including US UK and Australia request PM Modi "
        "to head a task force to stop coronavirus"
    )
    doc = Document(id="sample-1", text=text, label=Label.FAKE)

    def span(surface: str, tag: NeTag) -> NeSpan:
        start = text.index(surface)
        return NeSpan(start=start, end=start + len(surface), tag=tag, surface=surface)

    spans = (
        span("US", NeTag.LOC),
        span("UK", NeTag.LOC),
        span("Australia", NeTag.LOC),
        span("Modi", NeTag.PER),
    )
    return AnnotatedDocument(document=doc, spans=spans)


# ---------------------------------------------------------------------------
# mutated JSON values, for the loaders' properties


def _paths(value, path=()):
    """The path of value and of every part of it, as keys and list positions."""
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
    else:
        items = ()
    for key, item in items:
        yield from _paths(item, (*path, key))


# a value of another JSON type than any key holds in a valid file
_RETYPED = st.sampled_from([None, True, 0, -1, 2.5, "", "x", [], [None], {}])
# in place of an object or list: what reading it with `or {}` would let through
_FALSY = st.sampled_from([None, False, 0, "", []])


@st.composite
def mutated(draw, value, wrong, counts=(0, 1, 2, 3)):
    """A copy of value with some of its parts (one of counts), at any depth,
    dropped or replaced: by a value of another JSON type, or by one that
    wrong, which maps a key to a strategy, gives for that key (a falsy one for
    an object or list that wrong does not name). Each key (or list position)
    is as likely to be picked as any other, however often it occurs."""
    value = copy.deepcopy(value)
    # uniform picks: Hypothesis's own choices favor the first items by far, and
    # a true random source (st.randoms(use_true_random=True)) makes a replay
    # draw differently, which Hypothesis reports as FlakyStrategyDefinition
    pick = random.Random(draw(st.integers(0, 2**64 - 1))).choice
    for _ in range(pick(counts)):
        paths = list(_paths(value))[1:]
        if not paths:
            break
        key = pick(sorted({path[-1] for path in paths}, key=str))
        *head, last = pick([path for path in paths if path[-1] == key])
        parent = functools.reduce(operator.getitem, head, value)
        how = pick(["drop", "retype", "wrong"])
        if how == "drop":
            del parent[last]
        else:
            wrong_here = wrong.get(last, _FALSY if isinstance(parent[last], (dict, list)) else _RETYPED)
            # a copy: sampled_from hands out one object, which a later pick could
            # mutate, in this example and in every one after it
            parent[last] = copy.deepcopy(draw(wrong_here if how == "wrong" else _RETYPED))
    return value


# ---------------------------------------------------------------------------
# strings for the JSON Lines writers' properties

# what JSON escapes ('"', '\\', every control character), what it writes as it
# is although some readers do not (U+2028, U+2029, DEL), and letters outside
# the BMP; any other character outside the surrogates, which UTF-8 cannot encode
json_text = st.text(st.one_of(
    st.sampled_from('"\\\x00\x08\t\n\x0c\r\x1f\x7f\u2028\u2029\U0001d518\U00020000'),
    st.characters(blacklist_categories=("Cs",)),
))
