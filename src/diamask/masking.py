"""Entity masking policies.

Six policies trade off how much entity identity survives in the text. Each
is one row of _RULES: its display name, what a person span becomes and what
any other span becomes. A span is kept, deleted, replaced by its tag name
(PER/LOC/ORG/MISC) or, for persons under the WikiD family, replaced by the
role QID resolved from an entity index. No Mask keeps every span.

Masking is two steps: _tokens picks each span's token from the table, and
_splice puts the tokens into the text. There are two entry points:
mask_text masks one document to its text, and mask_corpus masks a corpus and
counts the tokens it spliced in. The whitespace run around a deleted span,
through any other deletion in it, becomes one space; a deletion with no
whitespace beside it joins its neighbours directly. _splice makes these
joins in one pass over the segments between deletions, so its cost is linear
in the text. After any edit the edges are trimmed. All other spacing is kept
byte for byte, and a document with no spans always comes back unchanged.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Sequence

from .annotate import AnnotatedDocument, NeTag
from .corpus import Corpus, Document
from .errors import DataError
from .wikidata import EntityIndex, ResolveMode, resolve_person_label

__all__ = ["MaskPolicy", "mask_corpus", "mask_text"]


class MaskPolicy(Enum):
    NO_MASK = "no-mask"
    NE_DEL = "ne-del"
    BASIC_NER = "basic-ner"
    WIKID = "wikid"
    WIKID_DEL = "wikid-del"
    WIKID_NER = "wikid-ner"

    @classmethod
    def parse(cls, raw: str) -> "MaskPolicy":
        try:
            return cls(raw)
        except ValueError:
            known = ", ".join(p.value for p in cls)
            raise DataError(f"unknown mask policy {raw!r}; expected one of: {known}") from None

    @property
    def requires_index(self) -> bool:
        return _RULES[self][1] == _ROLE

    @property
    def display_name(self) -> str:
        return _RULES[self][0]


# what a span becomes: itself, nothing, its tag, or its person's role
_KEEP, _DELETE, _TAG, _ROLE = "keep", "delete", "tag", "role"

# policy -> (display name, rule for a PER span, rule for any other span)
_RULES = {
    MaskPolicy.NO_MASK: ("No Mask", _KEEP, _KEEP),
    MaskPolicy.NE_DEL: ("NE Del", _DELETE, _DELETE),
    MaskPolicy.BASIC_NER: ("Basic NER", _TAG, _TAG),
    MaskPolicy.WIKID: ("WikiD", _ROLE, _KEEP),
    MaskPolicy.WIKID_DEL: ("WikiD+Del", _ROLE, _DELETE),
    MaskPolicy.WIKID_NER: ("WikiD+NER", _ROLE, _TAG),
}


def _require_index(policy: MaskPolicy, index: EntityIndex | None) -> None:
    """A WikiD policy cannot mask without an index, whatever the documents."""
    if index is None and policy.requires_index:
        raise DataError(f"policy {policy.value!r} requires an entity index")


def _tokens(
    doc: AnnotatedDocument,
    policy: MaskPolicy,
    index: EntityIndex | None,
    resolve_mode: ResolveMode,
) -> list[str | None]:
    """One entry per span: None keeps it, "" deletes it, and any other string
    is the token spliced in for it (no tag or role token is empty)."""
    _, per_rule, other_rule = _RULES[policy]
    tokens: list[str | None] = []
    for span in doc.spans:
        rule = per_rule if span.tag is NeTag.PER else other_rule
        if rule == _KEEP:
            tokens.append(None)
        elif rule == _DELETE:
            tokens.append("")
        elif rule == _TAG:
            tokens.append(span.tag.value)
        else:
            tokens.append(resolve_person_label(index, span.surface, resolve_mode).token)
    return tokens


def _splice(doc: AnnotatedDocument, tokens: list[str | None]) -> str:
    """doc's text with each span's token spliced in, left to right.

    Deleted spans cut the spliced text into segments. Each segment, stripped,
    joins the one before it through one space if either side of the cut had
    whitespace to strip, and directly if neither had. A segment that strips to
    nothing lies inside one cut, so its whitespace counts for that cut.
    """
    text = doc.document.text
    segments: list[str] = []  # the spliced text, cut at each deleted span
    pieces: list[str] = []
    cursor = 0
    for span, token in zip(doc.spans, tokens):
        pieces.append(text[cursor:span.start])
        if token == "":
            segments.append("".join(pieces))
            pieces = []
        else:
            pieces.append(span.surface if token is None else token)
        cursor = span.end
    pieces.append(text[cursor:])
    segments.append("".join(pieces))
    masked = segments[0]
    if len(segments) > 1:
        joined: list[str] = []
        space = False  # whether either side of the current cut had whitespace
        for segment in segments:
            core = segment.strip()
            if not core:
                space = space or segment != ""
                continue
            if joined:
                joined.append(" " if space or segment[0].isspace() else "")
            joined.append(core)
            space = segment[-1].isspace()
        masked = "".join(joined)
    if tokens.count(None) < len(tokens):  # some span was edited
        masked = masked.strip()
    return masked


def mask_text(
    doc: AnnotatedDocument,
    policy: MaskPolicy,
    index: EntityIndex | None = None,
    resolve_mode: ResolveMode = ResolveMode.DUMP_ORDER,
) -> str:
    """Mask one document to its text.

    WikiD-family policies need an entity index; person spans that resolve
    to nothing still get the generic "PER" token.
    """
    _require_index(policy, index)
    return _splice(doc, _tokens(doc, policy, index, resolve_mode))


def mask_corpus(
    docs: Sequence[AnnotatedDocument],
    policy: MaskPolicy,
    index: EntityIndex | None = None,
    resolve_mode: ResolveMode = ResolveMode.DUMP_ORDER,
    name: str | None = None,
) -> tuple[Corpus, Counter[str]]:
    """Mask every document, preserving ids, labels, dates, and order.

    Returns the masked corpus and the usage multiset counting every
    replacement token emitted across the corpus (empty for no-mask and
    pure deletions). A WikiD-family policy with no index is a DataError,
    an empty corpus included.
    """
    _require_index(policy, index)
    masked_docs: list[Document] = []
    usage: Counter[str] = Counter()
    for ann in docs:
        tokens = _tokens(ann, policy, index, resolve_mode)
        usage.update(filter(None, tokens))  # neither kept (None) nor deleted ("")
        src = ann.document
        masked_docs.append(
            Document(id=src.id, text=_splice(ann, tokens), label=src.label, date=src.date,
                     source=src.source)
        )
    return Corpus(name=name or policy.value, documents=tuple(masked_docs)), usage
