"""Seeded input generators for the benchmark workloads.

Every generator is pure: it draws only from `random.Random(seed)` and writes
its files in a fixed order, so one seed always gives byte-identical inputs.
Sizes and proportions are fixed per workload (counts are assigned exactly
and then shuffled), so the work a run does barely changes between seeds and
only which names, labels and positions are drawn does.

Each workload gets the same kinds of file, so every stage of the pipeline
runs on every workload and the input shape decides which stage dominates:

    <dataset>.jsonl       corpus (diamask JSON Lines format)
    <dataset>.ann.jsonl   entity spans inserted by the generator
    gazetteer.tsv         name<TAB>tag for every name the generator can emit
    dump.ndjson           Wikidata-style entity dump (array-wrapped NDJSON)
    dump_quarter.ndjson   the first quarter of the dump's entities

`expected.json` holds what the checks compare against: bigram counts, the
dump's retained and malformed counts, and the role token each person span
must be masked to under both resolve modes. `resolve_reference` is an
independent model of the index's lookup rules used to compute those tokens.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import date as Date
from pathlib import Path

SNAPSHOT = Date(2020, 12, 28)
DUMP_ORDER = "dump-order"
TEMPORAL = "temporal"
MODES = (DUMP_ORDER, TEMPORAL)
FALLBACK = "PER"

_CONSONANTS = "bdfghklmnprstvz"
_VOWELS = "aeiou"


def word_pool(rng: random.Random, n: int) -> list[str]:
    """n distinct lowercase pseudo-words of two to three syllables.

    Callers partition one pool into disjoint vocabularies (fillers, first
    names, surnames, places...), so no word of one kind can be mistaken for
    another by the tagger or the index.
    """
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        k = 2 if rng.random() < 0.5 else 3
        w = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(k))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def exact_counts(weights: list[float], total: int) -> list[int]:
    """Split `total` items over `weights` by largest remainder, so the
    commonest item always gets the same share whatever the seed."""
    s = sum(weights)
    raw = [w * total / s for w in weights]
    counts = [int(x) for x in raw]
    order = sorted(range(len(raw)), key=lambda i: (counts[i] - raw[i], i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def zipf_tokens(rng: random.Random, vocab: list[str], n: int, top_share: float) -> list[str]:
    """n draws from `vocab` whose rank-k frequency falls as 1/k^s, with s
    chosen so the commonest word takes `top_share` of the draws."""
    lo, hi = 0.0, 4.0
    for _ in range(60):
        s = (lo + hi) / 2
        weights = [1.0 / (k**s) for k in range(1, len(vocab) + 1)]
        if weights[0] / sum(weights) < top_share:
            lo = s
        else:
            hi = s
    counts = exact_counts(weights, n)
    out = [tok for tok, c in zip(vocab, counts) for _ in range(c)]
    rng.shuffle(out)
    return out


def normalize(name: str) -> str:
    return " ".join(name.casefold().split())


# ---------------------------------------------------------------------------
# entities and the dump


@dataclass
class Entity:
    """One dump entity as the generator sees it; `retained` says whether a
    person-only index build keeps it."""

    qid: int
    label: str | None
    aliases: tuple[str, ...] = ()
    human: bool = True
    # (property, role qid, start iso or None, end iso or None), dump order
    claims: tuple[tuple[str, str, str | None, str | None], ...] = ()
    sitelinks: int = 0

    @property
    def retained(self) -> bool:
        return self.human and bool(self.claims) and bool(self.label)


def _item(qid: str) -> dict:
    return {"entity-type": "item", "numeric-id": int(qid[1:]), "id": qid}


def _time(iso: str) -> dict:
    return {
        "time": f"+{iso}T00:00:00Z",
        "timezone": 0,
        "before": 0,
        "after": 0,
        "precision": 11,
        "calendarmodel": "http://www.wikidata.org/entity/Q1985727",
    }


def _claim(prop: str, target: str, start: str | None = None, end: str | None = None) -> dict:
    claim: dict = {
        "mainsnak": {
            "snaktype": "value",
            "property": prop,
            "datavalue": {"value": _item(target), "type": "wikibase-entityid"},
        },
        "type": "statement",
        "rank": "normal",
    }
    qualifiers = {}
    for qprop, iso in (("P580", start), ("P582", end)):
        if iso:
            qualifiers[qprop] = [
                {
                    "snaktype": "value",
                    "property": qprop,
                    "datavalue": {"value": _time(iso), "type": "time"},
                }
            ]
    if qualifiers:
        claim["qualifiers"] = qualifiers
    return claim


def entity_json(e: Entity) -> dict:
    qid = f"Q{e.qid}"
    claims: dict = {"P31": [_claim("P31", "Q5" if e.human else "Q515")]}
    for prop, target, start, end in e.claims:
        claims.setdefault(prop, []).append(_claim(prop, target, start, end))
    obj: dict = {"type": "item", "id": qid}
    if e.label:
        obj["labels"] = {"en": {"language": "en", "value": e.label}}
    else:
        obj["labels"] = {"de": {"language": "de", "value": f"Eintrag {e.qid}"}}
    if e.aliases:
        obj["aliases"] = {"en": [{"language": "en", "value": a} for a in e.aliases]}
    obj["claims"] = claims
    obj["sitelinks"] = {
        f"x{k}wiki": {"site": f"x{k}wiki", "title": e.label or qid} for k in range(e.sitelinks)
    }
    return obj


_MALFORMED = (
    '{"type": "item", "id": "Q',  # truncated line
    '["not", "an", "entity"]',
    '{"type": "item", "id": "P-17", "claims": {}}',
    '{"type": "item", "claims": {}}',
)


def write_dump(path: Path, entities: list[Entity], malformed_at: set[int], rng: random.Random) -> int:
    """Array-wrapped NDJSON as the Wikidata dumps ship it. A malformed line
    is written before each entity position in `malformed_at`. Returns the
    number of malformed lines written."""
    bad = 0
    with path.open("w", encoding="utf-8") as fh:
        fh.write("[\n")
        for i, e in enumerate(entities):
            if i in malformed_at:
                fh.write(rng.choice(_MALFORMED) + ",\n")
                bad += 1
            fh.write(json.dumps(entity_json(e), ensure_ascii=False) + ",\n")
        fh.write("]\n")
    return bad


def resolve_reference(entities: list[Entity]):
    """Return resolve(surface, mode) -> role token, modelling the index:
    exact normalized name (label or alias) first, else the union of the
    per-token postings; the top candidate has the most sitelinks, then the
    lowest numeric QID. DUMP_ORDER takes the first position held (P39), else
    the first occupation (P106). TEMPORAL takes the P39 valid at the
    snapshot with the latest start (dump order breaks ties), else falls back
    to DUMP_ORDER."""
    by_name: dict[str, set[int]] = {}
    by_token: dict[str, set[int]] = {}
    records = {e.qid: e for e in entities if e.retained}
    for e in records.values():
        for name in (e.label, *e.aliases):
            key = normalize(name)
            by_name.setdefault(key, set()).add(e.qid)
            for tok in key.split(" "):
                by_token.setdefault(tok, set()).add(e.qid)
    snap = SNAPSHOT.isoformat()

    def role(e: Entity, mode: str) -> str:
        if mode == TEMPORAL:
            valid = [
                (start or "", -i, target)
                for i, (prop, target, start, end) in enumerate(e.claims)
                if prop == "P39" and (start or "") <= snap and (end is None or end >= snap)
            ]
            if valid:
                return max(valid)[2]
        for want in ("P39", "P106"):
            for prop, target, _, _ in e.claims:
                if prop == want:
                    return target
        return FALLBACK

    def resolve(surface: str, mode: str) -> str:
        key = normalize(surface)
        cands = by_name.get(key) or set().union(*(by_token.get(t, set()) for t in key.split(" ")))
        if not cands:
            return FALLBACK
        top = min(cands, key=lambda q: (-records[q].sitelinks, q))
        return role(records[top], mode)

    return resolve


# ---------------------------------------------------------------------------
# documents


@dataclass
class Doc:
    id: str
    label: str
    date: str
    pieces: list  # str (plain text) or (surface, tag)

    def render(self) -> tuple[str, list[list]]:
        text = ""
        spans = []
        for i, piece in enumerate(self.pieces):
            if i:
                text += " "
            if isinstance(piece, str):
                text += piece
            else:
                surface, tag = piece
                spans.append([len(text), len(text) + len(surface), tag, surface])
                text += surface
        return text, spans


@dataclass
class Workload:
    """Everything a run needs to know about its generated inputs."""

    datasets: list[str]
    expected: dict = field(default_factory=dict)
    properties: dict = field(default_factory=dict)


def _write_corpus(work: Path, name: str, docs: list[Doc], resolve, expected: dict) -> tuple[int, int, int]:
    tokens = spans_n = bigrams = 0
    masked = {mode: [] for mode in MODES}
    with (work / f"{name}.jsonl").open("w", encoding="utf-8") as fc, (
        work / f"{name}.ann.jsonl"
    ).open("w", encoding="utf-8") as fa:
        for d in docs:
            text, spans = d.render()
            rec = {"id": d.id, "text": text, "label": d.label, "date": d.date, "source": name}
            fc.write(json.dumps(rec, ensure_ascii=False) + "\n")
            ann = {
                "doc_id": d.id,
                "spans": [{"start": s, "end": e, "tag": t, "text": x} for s, e, t, x in spans],
            }
            fa.write(json.dumps(ann, ensure_ascii=False) + "\n")
            n_tok = len(text.split())
            tokens += n_tok
            bigrams += max(0, n_tok - 1)
            spans_n += len(spans)
            for mode in MODES:
                masked[mode].append([resolve(x, mode) if t == "PER" else None for _, _, t, x in spans])
    expected["bigrams"][name] = bigrams
    for mode in MODES:
        expected["mask"][mode][name] = masked[mode]
    return len(docs), tokens, spans_n


def _finish(work: Path, rng: random.Random, datasets: dict[str, list[Doc]], entities: list[Entity],
            gazetteer: list[tuple[str, str]], malformed: int, extra_props: dict) -> Workload:
    """Write every file of a workload and collect its expectations."""
    resolve = resolve_reference(entities)
    expected: dict = {"bigrams": {}, "mask": {m: {} for m in MODES}}
    n_docs = n_tokens = n_spans = 0
    for name, docs in datasets.items():
        d, t, s = _write_corpus(work, name, docs, resolve, expected)
        n_docs, n_tokens, n_spans = n_docs + d, n_tokens + t, n_spans + s
    with (work / "gazetteer.tsv").open("w", encoding="utf-8") as fh:
        fh.write("# name\ttag\n")
        for name, tag in gazetteer:
            fh.write(f"{name}\t{tag}\n")
    positions = set(rng.sample(range(len(entities)), malformed))
    expected["malformed"] = write_dump(work / "dump.ndjson", entities, positions, rng)
    quarter = len(entities) // 4
    write_dump(work / "dump_quarter.ndjson", entities[:quarter], {p for p in positions if p < quarter}, rng)
    expected["retained"] = sum(e.retained for e in entities)
    token_counts: dict[str, int] = {}
    for e in entities:
        if e.retained:
            for tok in set(normalize(" ".join((e.label, *e.aliases))).split(" ")):
                token_counts[tok] = token_counts.get(tok, 0) + 1
    expected["max_posting"] = max(token_counts.values())
    props = {
        "datasets": len(datasets),
        "docs": n_docs,
        "tokens_per_doc": round(n_tokens / n_docs, 2),
        "spans_per_doc": round(n_spans / n_docs, 2),
        "entities": len(entities),
        "retained_entities": expected["retained"],
        "malformed_lines": expected["malformed"],
        "top_token_share": round(expected["max_posting"] / expected["retained"], 4),
        **extra_props,
    }
    (work / "expected.json").write_text(json.dumps(expected) + "\n", encoding="utf-8")
    return Workload(datasets=list(datasets), expected=expected, properties=props)


def _padding(rng: random.Random, words: list[str], n: int, next_qid) -> list[Entity]:
    """Dump entities a person-only build must skip: non-humans with roles,
    humans without a role claim, humans without an English label."""
    out = []
    for i in range(n):
        name = f"{rng.choice(words).title()} {rng.choice(words).title()}"
        kind = i % 3
        if kind == 0:
            out.append(Entity(next_qid(), name, human=False, claims=(("P39", "Q30185", None, None),),
                              sitelinks=rng.randrange(1, 30)))
        elif kind == 1:
            out.append(Entity(next_qid(), name, sitelinks=rng.randrange(0, 10)))
        else:
            out.append(Entity(next_qid(), None, claims=(("P106", "Q82955", None, None),),
                              sitelinks=rng.randrange(0, 5)))
    return out


def _qids(rng: random.Random, start: int):
    state = [start]

    def next_qid() -> int:
        state[0] += rng.randrange(1, 9)
        return state[0]

    return next_qid


# ---------------------------------------------------------------------------
# workloads


def gen_matrix(work: Path, seed: int, n_docs: int = 400, persons: int = 8, background: int = 2000,
               padding: int = 600) -> Workload:
    """The paper's experiment: three mirrored periods of short documents.

    Two calls of `synth_diachronic_corpus` with the same seed and the same
    period-A names give identical skeletons; the second call's period B,
    with fresh names on the same roles, becomes period C. The index also
    holds `background` persons the corpus never mentions, on name tokens of
    their own, as a real index would.
    """
    from diamask.experiment import synth_diachronic_corpus

    rng = random.Random(seed)
    words = word_pool(rng, 4 * persons + 200 + 300 + 900)
    first, last, pad = words[:persons], words[persons : 4 * persons], words[4 * persons :][:200]
    bg_first, bg_last = words[-1200:-900], words[-900:]
    # Later periods reuse period A's first names on roles of the opposite
    # label leaning (leanings alternate over the role order), so a model that
    # memorised names is misled across periods, as in the paper.
    shifts = (0, 1, 3)
    names = [
        f"{first[(i + shift) % persons].title()} {last[p * persons + i].title()}"
        for p, shift in enumerate(shifts)
        for i in range(persons)
    ]
    a, b, c = names[:persons], names[persons : 2 * persons], names[2 * persons :]
    roles = [f"Q{40000 + 97 * i + rng.randrange(90)}" for i in range(persons)]
    role_map = {n: roles[i % persons] for i, n in enumerate(names)}
    ab = synth_diachronic_corpus(seed, n_docs, a, b, role_map)
    ac = synth_diachronic_corpus(seed, n_docs, a, c, role_map)
    datasets = {}
    for name, prefix, annotated in (
        ("period-a", "a", ab.annotated_a),
        ("period-b", "b", ab.annotated_b),
        ("period-c", "c", ac.annotated_b),
    ):
        docs = []
        for k, ann in enumerate(annotated):
            d = ann.document
            pieces: list = []
            cursor = 0
            for s in ann.spans:
                pieces.extend(d.text[cursor : s.start].split())
                pieces.append((s.surface, s.tag.value))
                cursor = s.end
            pieces.extend(d.text[cursor:].split())
            doc = Doc(f"{prefix}-{k:05d}", d.label.value, d.date.isoformat(), pieces)
            if doc.render()[0] != d.text:
                raise ValueError(f"{doc.id}: cannot rebuild the synthetic text from its spans")
            docs.append(doc)
        datasets[name] = docs
    next_qid = _qids(rng, 900000)
    people = [Entity(next_qid(), n, claims=(("P39", role_map[n], None, None),), sitelinks=5) for n in names]
    entities = _padding(rng, pad, padding, next_qid) + people
    entities += _people(rng, background, bg_first, bg_last, 0.02, next_qid)
    rng.shuffle(entities)
    gazetteer = [(n, "PER") for n in names]
    return _finish(work, rng, datasets, entities, gazetteer, malformed=padding // 50, extra_props={})


def _people(rng: random.Random, n: int, first: list[str], last: list[str], top_share: float,
            next_qid, alias_share: float = 0.15) -> list[Entity]:
    """n retained persons with Zipf-skewed first names, role claims in dump
    order (P39 before P106), some dated P39 terms and some aliases."""
    firsts = zipf_tokens(rng, first, n, top_share)
    lasts = zipf_tokens(rng, last, n, 0.08)
    out = []
    for i in range(n):
        kind = i % 4
        r = [f"Q{30000 + rng.randrange(4000)}" for _ in range(3)]
        if kind == 0:
            claims = (("P39", r[0], None, None),)
        elif kind == 1:
            claims = (("P106", r[0], None, None),)
        elif kind == 2:
            claims = (("P39", r[0], None, None), ("P106", r[1], None, None))
        else:
            # a finished term listed first, then the term held at the snapshot
            claims = (
                ("P39", r[0], "2009-01-20", "2017-01-20"),
                ("P39", r[1], "2017-01-20", None),
                ("P106", r[2], None, None),
            )
        aliases = ()
        if i % round(1 / alias_share) == 1:
            aliases = (f"{rng.choice(first).title()} {lasts[i].title()}",)
        out.append(Entity(next_qid(), f"{firsts[i].title()} {lasts[i].title()}", aliases,
                          claims=claims, sitelinks=rng.randrange(0, 40)))
    rng.shuffle(out)
    return out


def gen_longdoc(work: Path, seed: int, n_docs: int = 40, tokens: int = 300, persons: int = 3000,
                per_spans: int = 12, other_spans: int = 13, padding: int = 600) -> Workload:
    """Two periods of long documents, each with about 25 entity spans: about
    half are full names of indexed persons, the rest places, organisations
    and other names from a gazetteer."""
    rng = random.Random(seed)
    words = word_pool(rng, 3000 + 600 + 2400 + 3 * 200 + 300)
    fillers, first, last = words[:3000], words[3000:3600], words[3600:6000]
    others = {
        "LOC": words[6000:6200],
        "ORG": words[6200:6400],
        "MISC": words[6400:6600],
    }
    pad = words[6600:]
    next_qid = _qids(rng, 1_000_000)
    people = _people(rng, persons, first, last, 0.05, next_qid)
    leaning = {e.qid: ("fake" if rng.random() < 0.5 else "real") for e in people}
    by_lean = {lab: [e for e in people if leaning[e.qid] == lab] for lab in ("fake", "real")}
    gaz = [(e.label, "PER") for e in people]
    other_names = {tag: [w.title() for w in ws] for tag, ws in others.items()}
    for tag, ws in other_names.items():
        gaz.extend((w, tag) for w in ws)
    filler_weights = [1.0 / k for k in range(1, len(fillers) + 1)]
    datasets = {}
    for p, (name, year) in enumerate((("period-a", 2016), ("period-b", 2020))):
        docs = []
        for k in range(n_docs):
            label = "fake" if rng.random() < 0.5 else "real"
            ents: list = []
            for _ in range(per_spans):
                lean = label if rng.random() < 0.7 else ("real" if label == "fake" else "fake")
                ents.append((rng.choice(by_lean[lean]).label, "PER"))
            tags = ["LOC", "ORG", "MISC"]
            for j in range(other_spans):
                ents.append((rng.choice(other_names[tags[j % 3]]), tags[j % 3]))
            rng.shuffle(ents)
            n_fill = tokens - sum(len(s.split()) for s, _ in ents)
            # one filler between consecutive spans keeps every span a separate match
            gaps = exact_counts([1.0] * (len(ents) + 1), n_fill - (len(ents) - 1))
            pieces: list = []
            for i, g in enumerate(gaps):
                pieces.extend(rng.choices(fillers, filler_weights, k=g + (1 if 0 < i < len(ents) else 0)))
                if i < len(ents):
                    pieces.append(ents[i])
            docs.append(Doc(f"{name[-1]}-{k:05d}", label, f"{year}-{1 + k % 12:02d}-15", pieces))
        datasets[name] = docs
    entities = _padding(rng, pad, padding, next_qid) + people
    rng.shuffle(entities)
    return _finish(work, rng, datasets, entities, gaz, malformed=padding // 50, extra_props={})


def gen_index(work: Path, seed: int, entities_n: int = 16000, n_docs: int = 80,
              top_share: float = 0.2) -> Workload:
    """A Wikidata-scale dump whose name tokens are Zipf-skewed, plus a short
    document corpus whose person mentions are half full names, about a third
    bare first names or surnames (the token fallback) and the rest names
    the index does not know."""
    rng = random.Random(seed)
    words = word_pool(rng, 1200 + 3000 + 300 + 400 + 300)
    first, last = words[:1200], words[1200:4200]
    unknown, fillers, pad = words[4200:4500], words[4500:4900], words[4900:]
    next_qid = _qids(rng, 2_000_000)
    n_pad = entities_n // 6
    people = _people(rng, entities_n - n_pad, first, last, top_share, next_qid)
    entities = _padding(rng, pad, n_pad, next_qid) + people
    rng.shuffle(entities)
    # Mentions in exact proportions: 50% full names, 35% bare tokens (half
    # first names, half surnames), 15% unknown names. Bare tokens are a
    # systematic sample over people ordered by how common their token is, so
    # every seed gets the same mix of long and short posting lists.
    mentions_per_doc = 2
    total = 2 * n_docs * mentions_per_doc
    n_full, n_token = total // 2, total * 35 // 100
    surfaces = [rng.choice(people).label for _ in range(n_full)]
    for part, vocab in ((0, first), (1, last)):
        rank = {w.title(): r for r, w in enumerate(vocab)}
        ordered = sorted(people, key=lambda e: (rank[e.label.split()[part]], e.qid))
        k = n_token // 2 if part == 0 else n_token - n_token // 2
        step = len(ordered) / k
        offset = rng.random() * step
        surfaces += [ordered[int(offset + j * step)].label.split()[part] for j in range(k)]
    while len(surfaces) < total:
        surfaces.append(f"{rng.choice(unknown).title()} {rng.choice(unknown).title()}")
    rng.shuffle(surfaces)
    gaz = sorted({(s, "PER") for s in surfaces})
    it = iter(surfaces)
    datasets = {}
    for name, year in (("period-a", 2016), ("period-b", 2020)):
        docs = []
        for k in range(n_docs):
            pieces: list = [rng.choice(fillers), rng.choice(fillers)]
            for _ in range(mentions_per_doc):
                pieces.extend([(next(it), "PER"), rng.choice(fillers), rng.choice(fillers)])
            label = "fake" if rng.random() < 0.5 else "real"
            docs.append(Doc(f"{name[-1]}-{k:05d}", label, f"{year}-{1 + k % 12:02d}-15", pieces))
        datasets[name] = docs
    return _finish(work, rng, datasets, entities, gaz, malformed=entities_n // 100,
                   extra_props={"token_mention_share": n_token / total,
                                "unknown_mention_share": (total - n_full - n_token) / total})


GENERATORS = {"matrix": gen_matrix, "longdoc": gen_longdoc, "index": gen_index}


def generate(workload: str, work: Path, seed: int, **sizes) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](work, seed, **sizes)
