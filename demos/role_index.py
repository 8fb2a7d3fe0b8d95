"""Build a role index from Wikidata dump lines and resolve people to roles.

Shows name lookup ranking, dump-order vs temporal resolution, how the
snapshot date changes the resolved role, and coverage statistics between
two datasets' replacement tokens.
"""

import io
import json
from datetime import date

from diamask import (
    ResolveMode,
    coverage_rate,
    index_dump,
    lookup_by_name,
    resolve_person_label,
    top_labels,
)


def time_value(iso: str) -> dict:
    return {"value": {"time": f"+{iso}T00:00:00Z", "precision": 11}, "type": "time"}


def claim(prop: str, target: str, start: str | None = None, end: str | None = None) -> dict:
    c: dict = {
        "mainsnak": {
            "snaktype": "value",
            "property": prop,
            "datavalue": {"value": {"id": target}, "type": "wikibase-entityid"},
        },
        "type": "statement",
    }
    qualifiers = {}
    if start:
        qualifiers["P580"] = [
            {"snaktype": "value", "property": "P580", "datavalue": time_value(start)}
        ]
    if end:
        qualifiers["P582"] = [
            {"snaktype": "value", "property": "P582", "datavalue": time_value(end)}
        ]
    if qualifiers:
        c["qualifiers"] = qualifiers
    return c


def person(qid: str, name: str, claims: dict, sitelinks: int, aliases: tuple = ()) -> str:
    entity = {
        "type": "item",
        "id": qid,
        "labels": {"en": {"language": "en", "value": name}},
        "aliases": {"en": [{"language": "en", "value": a} for a in aliases]},
        "claims": {"P31": [claim("P31", "Q5")], **claims},
        "sitelinks": {f"s{i}wiki": {"title": name} for i in range(sitelinks)},
    }
    return json.dumps(entity)


# Q30185 mayor, Q13217683 senator, Q212238 governor, Q82955 politician
DUMP = [
    person(
        "Q2001",
        "Jordan Blake",
        {"P39": [claim("P39", "Q212238", "2011-01-03", "2019-01-03"),
                 claim("P39", "Q13217683", "2019-01-03")]},
        sitelinks=40,
    ),
    person(
        "Q2002",
        "Jordan Blake",  # same name, different person: a mayor somewhere
        {"P39": [claim("P39", "Q30185", "2015-06-01")]},
        sitelinks=3,
    ),
    person(
        "Q2003",
        "Maria Santos-Blake",
        {"P106": [claim("P106", "Q82955")]},
        sitelinks=12,
        aliases=("M. Santos",),
    ),
]


def main() -> None:
    index = index_dump(io.StringIO("\n".join(DUMP)), snapshot_date=date(2021, 6, 1))
    print(f"indexed {len(index.records)} people, snapshot {index.snapshot_date}")
    print()

    print("=== lookup: exact name beats token match, sitelinks rank ties ===")
    for surface in ("Jordan Blake", "M. Santos", "blake"):
        qids = lookup_by_name(index, surface)
        names = [f"{q} ({index.records[q].primary_label})" for q in qids]
        print(f"  {surface!r:<18} -> {names}")
    print()

    print("=== dump-order vs temporal resolution ===")
    for mode in ResolveMode:
        resolved = resolve_person_label(index, "Jordan Blake", mode)
        source = resolved.source.value if resolved.source else "fallback"
        print(f"  {mode.value:<12} -> {resolved.token}  (source: {source})")
    print("dump-order keeps the first listed position (governor, Q212238);")
    print("temporal picks the one held on the snapshot date (senator, Q13217683)")
    print()

    print("=== the snapshot date is part of the index ===")
    for snapshot in (date(2015, 6, 1), date(2021, 6, 1)):
        idx = index_dump(io.StringIO("\n".join(DUMP)), snapshot_date=snapshot)
        token = resolve_person_label(idx, "Jordan Blake", ResolveMode.TEMPORAL).token
        print(f"  snapshot {snapshot}: Jordan Blake -> {token}")
    print()

    print("=== coverage between two datasets' replacement tokens ===")
    usage_2016 = ["Q212238"] * 5 + ["Q30185"] * 2 + ["Q82955"] * 1
    usage_2020 = ["Q13217683"] * 6 + ["Q30185"] * 3
    ab = coverage_rate(usage_2016, usage_2020)
    ba = coverage_rate(usage_2020, usage_2016)
    print(f"  2016 labels seen in 2020: {ab:.1f}%")
    print(f"  2020 labels seen in 2016: {ba:.1f}%")
    print(f"  top 2016 roles: {top_labels(usage_2016, index, 2)}")
    print("low overlap means a classifier can still key on period-specific")
    print("roles even after masking; worth checking before trusting a run")


if __name__ == "__main__":
    main()
