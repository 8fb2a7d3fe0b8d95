"""Entity masking policies.

Six policies trade off how much entity identity survives in the text:

  no-mask    leave the text untouched (baseline)
  ne-del     delete every entity span
  basic-ner  replace every span with its tag name (PER/LOC/ORG/MISC)
  wikid      replace person spans with their resolved role QID token,
             leave other spans verbatim
  wikid-del  person spans -> role QID, all other spans deleted
  wikid-ner  person spans -> role QID, all other spans -> tag name

Replacement tokens are bare strings spliced into the text. After any edit,
whitespace runs created by deletions collapse to a single space and edge
whitespace is trimmed; spacing elsewhere is preserved byte for byte. A
document with no spans always comes back unchanged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .annotate import AnnotatedDocument, NeSpan, NeTag
from .corpus import Corpus, Document
from .errors import DataError
from .wikidata import EntityIndex, ResolveMode, resolve_person_label

__all__ = [
    "MaskPolicy",
    "MaskedDocument",
    "apply_mask",
    "mask_corpus",
]


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
        return self in (MaskPolicy.WIKID, MaskPolicy.WIKID_DEL, MaskPolicy.WIKID_NER)

    @property
    def display_name(self) -> str:
        return _DISPLAY_NAMES[self]


_DISPLAY_NAMES = {
    MaskPolicy.NO_MASK: "No Mask",
    MaskPolicy.NE_DEL: "NE Del",
    MaskPolicy.BASIC_NER: "Basic NER",
    MaskPolicy.WIKID: "WikiD",
    MaskPolicy.WIKID_DEL: "WikiD+Del",
    MaskPolicy.WIKID_NER: "WikiD+NER",
}

# span action markers
_KEEP = "keep"
_DELETE = "delete"


@dataclass(frozen=True)
class MaskedDocument:
    original_id: str
    policy: MaskPolicy
    text: str
    replacements: tuple[tuple[NeSpan, str | None], ...]

    def emitted_tokens(self) -> list[str]:
        return [token for _, token in self.replacements if token is not None]


def _span_action(
    span: NeSpan,
    policy: MaskPolicy,
    index: EntityIndex | None,
    resolve_mode: ResolveMode,
) -> str:
    """What to splice in for one span: _KEEP, _DELETE, or a replacement."""
    if policy is MaskPolicy.NO_MASK:
        return _KEEP
    if policy is MaskPolicy.NE_DEL:
        return _DELETE
    if policy is MaskPolicy.BASIC_NER:
        return span.tag.value
    assert index is not None
    if span.tag is NeTag.PER:
        return resolve_person_label(index, span.surface, resolve_mode).token
    if policy is MaskPolicy.WIKID:
        return _KEEP
    if policy is MaskPolicy.WIKID_DEL:
        return _DELETE
    return span.tag.value  # wikid-ner


def _collapse_junctions(text: str, junctions: list[int]) -> str:
    """Collapse the whitespace run around each deletion point to one space.

    Junction positions index into `text`; they are processed left to right
    with a running offset so earlier collapses keep later positions valid.
    Only whitespace touching a deletion point is affected.
    """
    delta = 0
    for j in junctions:
        j = min(max(j - delta, 0), len(text))
        a = j
        while a > 0 and text[a - 1].isspace():
            a -= 1
        b = j
        while b < len(text) and text[b].isspace():
            b += 1
        if b > a:
            text = text[:a] + " " + text[b:]
            delta += (b - a) - 1
    return text


def apply_mask(
    doc: AnnotatedDocument,
    policy: MaskPolicy,
    index: EntityIndex | None = None,
    resolve_mode: ResolveMode = ResolveMode.DUMP_ORDER,
) -> MaskedDocument:
    """Mask one document.

    Spans are processed left to right. The replacement log pairs every input
    span with the token spliced in for it (None for spans kept verbatim or
    deleted), so len(replacements) == len(spans) always. WikiD-family
    policies need an entity index; person spans that resolve to nothing
    still get the generic "PER" token.
    """
    if policy.requires_index and index is None:
        raise DataError(f"policy {policy.value!r} requires an entity index")
    text = doc.document.text
    pieces: list[str] = []
    out_len = 0
    junctions: list[int] = []
    replacements: list[tuple[NeSpan, str | None]] = []
    edited = False
    cursor = 0
    for span in doc.spans:
        chunk = text[cursor:span.start]
        pieces.append(chunk)
        out_len += len(chunk)
        action = _span_action(span, policy, index, resolve_mode)
        if action == _KEEP:
            pieces.append(span.surface)
            out_len += len(span.surface)
            replacements.append((span, None))
        elif action == _DELETE:
            junctions.append(out_len)
            replacements.append((span, None))
            edited = True
        else:
            pieces.append(action)
            out_len += len(action)
            replacements.append((span, action))
            edited = True
        cursor = span.end
    pieces.append(text[cursor:])
    masked = "".join(pieces)
    if edited:
        masked = _collapse_junctions(masked, junctions).strip()
    return MaskedDocument(
        original_id=doc.document.id,
        policy=policy,
        text=masked,
        replacements=tuple(replacements),
    )


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
    pure deletions).
    """
    masked_docs: list[Document] = []
    usage: Counter[str] = Counter()
    for ann in docs:
        try:
            masked = apply_mask(ann, policy, index, resolve_mode)
        except DataError as exc:
            raise DataError(f"document {ann.document.id!r}: {exc}") from None
        usage.update(masked.emitted_tokens())
        src = ann.document
        masked_docs.append(
            Document(id=src.id, text=masked.text, label=src.label, date=src.date, source=src.source)
        )
    return Corpus(name=name or policy.value, documents=tuple(masked_docs)), usage
