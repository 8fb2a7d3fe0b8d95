"""Apply every masking policy to one annotated sentence.

Builds a three-person entity index by hand so the Wikidata policies can
replace the person mention with a role QID instead of a generic tag, then
shows which statement that role came from under each resolve mode.
"""

from datetime import date

from diamask import (
    AnnotatedDocument,
    Document,
    EntityIndex,
    EntityRecord,
    Label,
    MaskPolicy,
    NeSpan,
    NeTag,
    ResolveMode,
    RoleProperty,
    Statement,
    mask_text,
    resolve_person_label,
)

TEXT = (
    "18 states including US UK and Australia request PM Modi "
    "to head a task force to stop coronavirus"
)


def build_index() -> EntityIndex:
    index = EntityIndex(snapshot_date=date(2020, 12, 28))
    index.add(
        EntityRecord(
            qid="Q1165",
            primary_label="Narendra Modi",
            aliases=("Modi",),
            statements=(
                # Chief Minister of Gujarat until 2014, then Prime Minister.
                Statement(RoleProperty.POSITION_HELD, "Q22337580",
                          date(2001, 10, 7), date(2014, 5, 26)),
                Statement(RoleProperty.POSITION_HELD, "Q192045",
                          date(2014, 5, 26), None),
                Statement(RoleProperty.OCCUPATION, "Q82955", None, None),
            ),
            sitelink_count=50,
        )
    )
    index.add(
        EntityRecord(
            qid="Q76",
            primary_label="Barack Obama",
            aliases=(),
            statements=(
                Statement(RoleProperty.POSITION_HELD, "Q11696",
                          date(2009, 1, 20), date(2017, 1, 20)),
                Statement(RoleProperty.OCCUPATION, "Q82955", None, None),
            ),
            sitelink_count=100,
        )
    )
    index.add(
        EntityRecord(
            qid="Q42",
            primary_label="Douglas Adams",
            aliases=(),
            statements=(Statement(RoleProperty.OCCUPATION, "Q36180", None, None),),
            sitelink_count=90,
        )
    )
    return index


def annotate() -> AnnotatedDocument:
    doc = Document("sample-1", TEXT, Label.FAKE, date(2020, 3, 14), "demo")
    spans = tuple(
        NeSpan(TEXT.index(surface), TEXT.index(surface) + len(surface), tag, surface)
        for surface, tag in [
            ("US", NeTag.LOC),
            ("UK", NeTag.LOC),
            ("Australia", NeTag.LOC),
            ("Modi", NeTag.PER),
        ]
    )
    return AnnotatedDocument(doc, spans)


def main() -> None:
    annotated = annotate()
    index = build_index()
    print(f"input: {TEXT}")
    print(f"spans: {[(s.surface, s.tag.value) for s in annotated.spans]}")
    print()
    for policy in MaskPolicy:
        print(f"{policy.display_name:<10} {mask_text(annotated, policy, index=index)}")
    print()

    # Each resolve mode picks the statement of Modi's record that gives the role.
    for mode in ResolveMode:
        label = resolve_person_label(index, "Modi", mode)
        print(f"{mode.value:<10} 'Modi' -> {label.token} from {label.source.value}")
    print()
    print("the Q22337580 token is 'Chief Minister of Gujarat': dump-order")
    print("resolution takes the first position statement as written, even")
    print("though a later one (Q192045, Prime Minister) had taken over;")
    print("temporal resolution takes the position held on the index's")
    print("snapshot date")


if __name__ == "__main__":
    main()
