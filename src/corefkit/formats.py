"""Plaintext and JSON interchange formats, output repair, reconstruction.

Plaintext stores each document as a single line of space-separated
tokens.  A token's surface is what precedes its first ``|``; its items
are the comma-separated pieces after its last ``|``: ``[eN`` opens a
mention, ``eN]`` closes it, ``[eN]`` is a single-token mention;
unannotated tokens omit the ``|``.  Every other piece is rejected: the
strict reader raises on it and the cleaner drops it.
Empty nodes are rendered with a ``##`` prefix and placed directly after
their syntactic parent (falling back to their anchor token when the
parent is not a surface token of the sentence).

The JSON format is a list of documents, each an object with exactly
four fields: doc_id, tokens, clusters_token_offsets (0-based inclusive
[start, end] pairs) and clusters_text_mentions.  Empty nodes appear in
``tokens`` with the same ``##`` prefix and placement.

Both formats are span-bracketed, so discontinuous mentions are reduced
to the contiguous segment containing the head, with a warning.

The cleaner repairs noisy generated output against a reference whose
FORMs the writer accepts: it drops unmatched closing brackets, closes
unmatched openers at the end of the sentence in which they opened,
taking each ``##`` token's sentence from the readers' placement so that
every line it writes converts back, and re-anchors all annotations onto
the reference token sequence through a word-level minimum-edit-distance
alignment (empty nodes are excluded from the alignment and re-inserted
afterwards).
"""

from __future__ import annotations

import math
import re
import unicodedata
import warnings
from array import array
from dataclasses import dataclass
from typing import NamedTuple, NoReturn, Sequence

from .brackets import CLOSE, OPEN, SINGLE, find_crossing, item_order, pair_items
from .errors import (CleanRefusedError, JsonFormatError, PlaintextError, TokenMismatchError,
                     apply_each)
from .model import (
    Document,
    Entity,
    Mention,
    Node,
    NodeId,
    Sentence,
    make_mention,
    sort_entity_mentions,
    surface_difference,
)

_NORMALIZED_EID = re.compile(r"e\d+")
_ITEM = re.compile(r"(\[?)(e\d+)(\]?)")
_ITEM_MARKS = {OPEN: ("[", ""), CLOSE: ("", "]"), SINGLE: ("[", "]")}  # before and after the id
_ITEM_KINDS = {marks: kind for kind, marks in _ITEM_MARKS.items()}

EMPTY_PREFIX = "##"
# FORMs that would not read back: plaintext splits tokens at ASCII
# whitespace and annotations at "|"; both formats mark empty nodes "##".
# Each rule is a pattern for one FORM and one for all of a document's
# FORMs joined and enclosed by "\0", which there stands for a FORM's ends
_PLAIN_UNWRITABLE = (re.compile(r"[ \t\n\r\f\v|]|\A(?:##|\Z)"),
                     re.compile(r"[ \t\n\r\f\v|]|\0(?:##|\0)"))
_PLAIN_TOKEN = re.compile(r"[^ \t\n\r\f\v]+")  # as the cleaner reads them
_JSON_UNWRITABLE = (re.compile(r"\A##"), re.compile(r"\0##"))


class AnnotationItem(NamedTuple):
    """A ``(kind, eid, part)`` bracket item; plaintext marks no parts."""

    kind: str  # "open" | "close" | "open_close"
    entity_id: str
    part: None = None

    def render(self) -> str:
        before, after = _ITEM_MARKS[self.kind]
        return before + self.entity_id + after


@dataclass(slots=True)
class PlainToken:
    surface: str
    annotations: tuple[AnnotationItem, ...] = ()
    is_empty: bool = False

    def render(self) -> str:
        surface = EMPTY_PREFIX + self.surface if self.is_empty else self.surface
        if not self.annotations:
            return surface
        return surface + "|" + ",".join(item.render() for item in self.annotations)


@dataclass
class PlainDoc:
    tokens: list[PlainToken]

    def render(self) -> str:
        return " ".join(token.render() for token in self.tokens)


# ---------------------------------------------------------------------------
# Document layout: plaintext token order for a CoNLL-U document.

@dataclass
class _Layout:
    surfaces: list[str]
    is_empty: list[bool]
    node_ids: list[NodeId]


def _placement_anchor(node: Node) -> int:
    """Major id of the token the empty node is rendered after."""
    parent = node.parent
    if parent is not None and parent.minor == 0:
        return parent.major
    return node.id.major


def _build_layout(document: Document) -> _Layout:
    """The token order both formats write and read: each empty node after
    the token _placement_anchor names, or first in its sentence for 0."""
    nodes: list[Node] = []
    for sentence in document.sentences:
        by_anchor: dict[int, list[Node]] = {}
        for node in sentence.nodes:
            if node.is_empty:
                by_anchor.setdefault(_placement_anchor(node), []).append(node)
        for group in by_anchor.values():
            group.sort(key=lambda n: (n.id.major, n.id.minor))
        nodes += by_anchor.get(0, ())
        for token in sentence.nodes:
            if not token.is_empty:
                nodes.append(token)
                nodes += by_anchor.get(token.id.major, ())
    node_ids = [node.id for node in nodes]
    return _Layout([node.form for node in nodes], [nid.minor > 0 for nid in node_ids], node_ids)


def _read_nodes(layout: _Layout, is_empty: list[bool]) -> list[NodeId]:
    """The node each token of a written document reads as: the k-th ``##``
    token after a surface token (or before the first) is the layout's k-th
    empty node there.  A further one gets the id of the surface token
    before it, or (first sentence, 0, 0) at the document start: it is a
    new empty node of that token's sentence."""
    first = next((nid.sentence_index for nid in layout.node_ids if not nid.is_empty), 0)
    ids, at, anchor = [], 0, NodeId(first, 0, 0)
    for empty in is_empty:
        if not empty:
            while layout.is_empty[at]:  # layout empties that no token took
                at += 1
            anchor = layout.node_ids[at]
        elif at == len(layout.is_empty) or not layout.is_empty[at]:
            ids.append(anchor)
            continue
        ids.append(layout.node_ids[at])
        at += 1
    return ids


def _normalized_ids(entities: list[Entity]) -> dict[str, str]:
    if all(_NORMALIZED_EID.fullmatch(e.id) for e in entities):
        return {e.id: e.id for e in entities}
    return {e.id: f"e{i + 1}" for i, e in enumerate(entities)}


def _mention_segment(mention: Mention, layout: _Layout,
                     position_of: dict[NodeId, int]) -> tuple[int, int]:
    """Plaintext [start, end] positions of a mention.

    Empty tokens relocated into the middle of a span are swallowed by the
    brackets (the format cannot skip them).  A span interrupted by a
    surface token it does not contain is discontinuous there and gets
    reduced to the run containing the head, with a warning.
    """
    positions = sorted(position_of[nid] for nid in mention.span)
    runs: list[list[int]] = []
    for pos in positions:
        if runs and all(layout.is_empty[q] for q in range(runs[-1][-1] + 1, pos)):
            runs[-1].append(pos)
        else:
            runs.append([pos])
    if len(runs) == 1:
        return runs[0][0], runs[0][-1]
    head_pos = position_of[mention.head]
    run = next(r for r in runs if r[0] <= head_pos <= r[-1])
    warnings.warn(
        f"mention of entity '{mention.entity_id}' is not contiguous in the "
        "token stream; reduced to the segment containing its head",
        stacklevel=4,
    )
    return run[0], run[-1]


def _annotate(tokens: list[PlainToken], spans: list[tuple[str, int, int, None]]) -> None:
    """Give the tokens the canonical items of (eid, start, end, None) spans."""
    for pos, items in item_order(spans).items():
        tokens[pos].annotations = tuple([AnnotationItem(*item) for item in items])


def _writable_layout(document: Document, unwritable: tuple[re.Pattern, re.Pattern],
                     error: type[ValueError]) -> _Layout:
    """The document's layout; raises ``error`` on the first FORM that the
    one-FORM pattern of ``unwritable`` finds.  The all-FORMs pattern first
    searches every FORM at once; a hit there may be no single FORM's."""
    layout = _build_layout(document)
    form_rule, document_rule = unwritable
    if not document_rule.search("\0" + "\0".join(layout.surfaces) + "\0"):
        return layout
    for form, nid in zip(layout.surfaces, layout.node_ids):
        if form_rule.search(form):
            raise error(f"document '{document.doc_id}': FORM {form!r} of node "
                        f"{nid.conllu_id()} in sentence {nid.sentence_index + 1} cannot be written")
    return layout


def _entity_segments(document: Document, entities: list[Entity], layout: _Layout,
                     error: type[ValueError]) -> list[list[tuple[int, int]]]:
    """Each entity's [start, end] mention segments in the layout; raises
    ``error`` when two mentions of one entity cross."""
    position_of = {nid: pos for pos, nid in enumerate(layout.node_ids)}
    segments = []
    for entity in entities:
        eid_spans = []
        for mention in entity.mentions:  # a loop keeps the warning's stacklevel
            eid_spans.append(_mention_segment(mention, layout, position_of))
        if find_crossing(eid_spans):
            raise error(
                f"document '{document.doc_id}': mentions of entity '{entity.id}' cross; "
                "the bracket format cannot represent them"
            )
        segments.append(eid_spans)
    return segments


def to_plaintext(document: Document, entities: list[Entity]) -> PlainDoc:
    """Render one document (one output line) with bracket annotations.
    Raises PlaintextError on a FORM the format cannot hold, and on two
    crossing mentions of one entity."""
    layout = _writable_layout(document, _PLAIN_UNWRITABLE, PlaintextError)
    tokens = [PlainToken(surface, (), empty)
              for surface, empty in zip(layout.surfaces, layout.is_empty)]
    ids = _normalized_ids(entities)
    segments = _entity_segments(document, entities, layout, PlaintextError)
    _annotate(tokens, [(ids[entity.id], start, end, None)
                       for entity, eid_spans in zip(entities, segments)
                       for start, end in eid_spans])
    return PlainDoc(tokens)


def corpus_to_plaintext(corpus) -> str:
    """One line per document, terminated with a newline.  ``corpus`` is a
    Corpus or a stream of ``(document, entities)`` pairs; the first error
    of a document is raised once the stream ends (see errors.apply_each)."""
    lines = []
    apply_each(lambda pair: lines.append(to_plaintext(*pair).render()), corpus)
    return "\n".join(lines) + "\n" if lines else ""


def _parse_item(text: str) -> AnnotationItem | None:
    match = _ITEM.fullmatch(text)
    kind = match and _ITEM_KINDS.get((match[1], match[3]))
    return AnnotationItem(kind, match[2]) if kind else None


def _split_token(raw: str) -> tuple[str, tuple[AnnotationItem, ...], bool, list[str]]:
    """(surface less its ``##`` prefix, items, whether it is an empty node,
    rejected pieces) of a token, in the grammar of both readers."""
    surface, sep, suffix = raw.partition("|")
    items, rejected = [], []
    if sep:
        *rejected, suffix = suffix.split("|")
        for piece in suffix.split(","):
            item = _parse_item(piece)
            if item is None:
                rejected.append(piece)
            else:
                items.append(item)
    is_empty = surface.startswith(EMPTY_PREFIX)
    return (surface[len(EMPTY_PREFIX):] if is_empty else surface), tuple(items), is_empty, rejected


def from_plaintext(line: str) -> PlainDoc:
    """Strictly parse one plaintext document line.

    Raises PlaintextError (with the token index) on a rejected piece,
    unbalanced brackets, or empty tokens.
    """
    tokens: list[PlainToken] = []
    for index, raw in enumerate(line.rstrip("\n").split(" ")):
        if not raw:
            raise PlaintextError("empty token (double or trailing space)", index)
        surface, items, is_empty, rejected = _split_token(raw)
        if rejected:
            raise PlaintextError(f"malformed annotation item '{rejected[0]}'", index)
        if not surface:
            raise PlaintextError("empty token surface", index)
        tokens.append(PlainToken(surface, items, is_empty))

    _, unmatched, unclosed = pair_items(enumerate(token.annotations for token in tokens))
    if unmatched:
        eid, index, _, _ = unmatched[0]
        raise PlaintextError(f"closing bracket for '{eid}' without an opener", index)
    if unclosed:
        eid, index, _, _ = unclosed[0]
        raise PlaintextError(f"opening bracket for '{eid}' is never closed", index)
    return PlainDoc(tokens)


def plain_mentions(doc: PlainDoc) -> list[tuple[str, int, int]]:
    """(entity id, start, end) spans decoded from the bracket items."""
    spans = pair_items(enumerate(token.annotations for token in doc.tokens))[0]
    return [(eid, start, end) for eid, start, end, _ in spans]


# ---------------------------------------------------------------------------
# JSON format.

@dataclass
class JsonDoc:
    doc_id: str
    tokens: list[str]
    clusters_token_offsets: list[list[list[int]]]
    clusters_text_mentions: list[list[str]]

    def to_value(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "tokens": list(self.tokens),
            "clusters_token_offsets": [
                [list(pair) for pair in cluster] for cluster in self.clusters_token_offsets
            ],
            "clusters_text_mentions": [list(c) for c in self.clusters_text_mentions],
        }


class _CheckedJsonDoc(JsonDoc):
    """A JsonDoc that json_doc_from_value has validated."""


def validate_json_doc(doc: JsonDoc) -> None:
    """Raise JsonFormatError, naming the document, unless every field has
    its type (a hand-built JsonDoc may use tuples for lists), each
    mention text is the text of its offsets, and no two mentions of a
    cluster cross."""
    def fail(message: str) -> NoReturn:
        raise JsonFormatError(f"document '{doc.doc_id}': {message}")

    if not isinstance(doc.doc_id, str):
        raise JsonFormatError(f"document id {doc.doc_id!r} is not a string")
    tokens, offsets, texts = doc.tokens, doc.clusters_token_offsets, doc.clusters_text_mentions
    if not (isinstance(tokens, (list, tuple)) and all(isinstance(t, str) for t in tokens)):
        fail("tokens must be a list of strings")
    if not (isinstance(offsets, (list, tuple)) and isinstance(texts, (list, tuple))
            and all(isinstance(c, (list, tuple)) for c in (*offsets, *texts))):
        fail("clusters_token_offsets and clusters_text_mentions must be lists of lists")
    if len(offsets) != len(texts):
        fail("cluster lists differ in length")
    n = len(tokens)
    for ci, (cluster_offsets, cluster_texts) in enumerate(zip(offsets, texts)):
        if len(cluster_offsets) != len(cluster_texts):
            fail(f"cluster {ci} offset/text lengths differ")
        for pair, text in zip(cluster_offsets, cluster_texts):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(type(x) is int for x in pair)):
                fail(f"offsets {pair!r} in cluster {ci} are not a pair of integers")
            start, end = pair
            if not (0 <= start <= end < n):
                fail(f"offsets [{start}, {end}] out of bounds (n={n})")
            expected = " ".join(tokens[start:end + 1])
            if text != expected:
                fail(f"mention text '{text}' does not match tokens '{expected}' "
                     f"at [{start}, {end}]")
        crossing = find_crossing(cluster_offsets)
        if crossing:
            (s1, e1), (s2, e2) = crossing
            fail(f"mentions [{s1}, {e1}] and [{s2}, {e2}] of cluster {ci} cross; "
                 "the bracket format cannot represent them")


def to_json(document: Document, entities: list[Entity]) -> JsonDoc:
    """One document's JSON value.  Raises JsonFormatError on a FORM that
    starts with ``##``, and on two crossing mentions of one entity."""
    layout = _writable_layout(document, _JSON_UNWRITABLE, JsonFormatError)
    rendered = [
        EMPTY_PREFIX + surface if empty else surface
        for surface, empty in zip(layout.surfaces, layout.is_empty)
    ]
    segments = _entity_segments(document, entities, layout, JsonFormatError)
    offsets = [[[start, end] for start, end in eid_spans] for eid_spans in segments]
    texts = [[" ".join(rendered[start:end + 1]) for start, end in eid_spans]
             for eid_spans in segments]
    return JsonDoc(document.doc_id, rendered, offsets, texts)


def corpus_to_json(corpus) -> list[dict]:
    """Each document's JSON value; ``corpus`` is read as by
    ``corpus_to_plaintext``."""
    values = []
    apply_each(lambda pair: values.append(to_json(*pair).to_value()), corpus)
    return values


def json_doc_from_value(value: dict) -> JsonDoc:
    """Validated JsonDoc of one decoded JSON document; it shares the lists
    of ``value``.  Raises JsonFormatError on malformed input."""
    if not isinstance(value, dict):
        raise JsonFormatError(f"a JSON document must be an object, not {type(value).__name__}")
    required = ("doc_id", "tokens", "clusters_token_offsets", "clusters_text_mentions")
    missing = [key for key in required if key not in value]
    if missing:
        raise JsonFormatError(f"JSON document is missing fields: {missing}")
    doc = _CheckedJsonDoc(*(value[key] for key in required))
    validate_json_doc(doc)
    return doc


def reconstruct_from_json(doc: JsonDoc, skeleton: Document) -> tuple[Document, list[Entity]]:
    """Project JSON clusters onto the skeleton document as entities e1,
    e2, ...; ``doc`` is validated unless json_doc_from_value built it.
    A mention across a sentence boundary raises JsonFormatError."""
    if not isinstance(doc, _CheckedJsonDoc):
        validate_json_doc(doc)
    tokens = [
        PlainToken(raw[len(EMPTY_PREFIX):], (), True) if raw.startswith(EMPTY_PREFIX)
        else PlainToken(raw)
        for raw in doc.tokens
    ]
    spans = [
        (f"e{ci + 1}", start, end)
        for ci, cluster in enumerate(doc.clusters_token_offsets)
        for start, end in cluster
    ]
    return _reconstruct(skeleton, tokens, spans, JsonFormatError)


# ---------------------------------------------------------------------------
# Word-level edit-distance alignment (diagonal transition).
#
# Ukkonen (1985) and Landau & Vishkin (1989): for each cost d, keep the
# furthest row reached on every diagonal k = j - i.  Along a diagonal the
# Levenshtein table never decreases, so D(i, j) <= d exactly when the
# furthest row of diagonal j - i at cost d is at least i.  That turns the
# traceback into O(1) lookups, and the whole alignment costs
# O(n + m + D^2) time in practice and O(D^2) memory for cost D: the
# fronts hold about D^2 rows in 32-bit cells, about 4 D^2 bytes.

_UNREACHED = -(1 << 31)  # the least 32-bit cell; rows run from -1 to n


def _nfc(token: str) -> str:
    return token if token.isascii() else unicodedata.normalize("NFC", token)


def _bag_lower_bound(src: list[int], ref: list[int]) -> int:
    from collections import Counter

    diff = Counter(src)
    diff.subtract(Counter(ref))
    l1 = sum(abs(v) for v in diff.values())
    return max(abs(len(src) - len(ref)), (l1 + 1) // 2)


def _core_alignment(src: list[int], ref: list[int], max_cost: int) -> tuple[int, array]:
    """Minimum edit distance between lists of non-negative token ids, and
    the ref index each src token aligns with, -1 for a deleted one.

    Walking back from (n, m), ties prefer a deletion, then a diagonal
    step, then an insertion, so the rightmost token of an ambiguous run
    is dropped and substitutions pair the leftmost candidates.  Raises
    CleanRefusedError as soon as the cost is known to exceed max_cost,
    and up front when n or m is too large for 32-bit cells.
    """
    n, m = len(src), len(ref)
    if max(n, m) >= 1 << 31:
        raise CleanRefusedError(
            f"{max(n, m)} tokens are too many to align (at most {(1 << 31) - 1})")
    delta = m - n
    # ids are non-negative, so these ends stop every slide at row n or column m
    src_end, ref_end = src + [-1], ref + [-2]
    # fronts[d] holds the furthest rows of diagonals lows[d], lows[d] + 1,
    # ... at cost d, padded with two _UNREACHED cells on each side.  A
    # diagonal further than max_cost - d from delta cannot reach (n, m)
    # within max_cost, so no path the traceback can take crosses it there,
    # and it is left out.  The start is a virtual front for cost -1 whose
    # substitution step puts diagonal 0 at row 0.
    fronts: list[array] = []
    lows: list[int] = []
    prev = array("i", [_UNREACHED, _UNREACHED, -1, _UNREACHED, _UNREACHED])
    prev_lo = 0
    d = 0
    while True:
        slack = max_cost - d
        lo = max(-d, -n, delta - slack)
        hi = min(d, m, delta + slack)
        if lo > hi:  # no diagonal left; always so once d > max_cost
            raise CleanRefusedError(
                f"alignment cost exceeds {max_cost} for {m} reference tokens; "
                "this looks like the wrong document"
            )
        cur = [_UNREACHED, _UNREACHED]
        at = lo - prev_lo + 1  # where diagonal lo - 1 sits in prev
        # rows at cost d - 1 on diagonals k - 1 (insertion), k
        # (substitution) and k + 1 (deletion)
        for k, left, mid, right in zip(range(lo, hi + 1), prev[at:], prev[at + 1:],
                                       prev[at + 2:]):
            i = mid + 1
            if right >= i:
                i = right + 1
            if left > i:
                i = left
            if i > n:
                i = n
            if i + k > m:
                i = m - k
            j = i + k
            while src_end[i] == ref_end[j]:
                i += 1
                j += 1
            cur.append(i)
        cur += (_UNREACHED, _UNREACHED)
        prev = array("i", cur)
        prev_lo = lo
        fronts.append(prev)
        lows.append(lo)
        if lo <= delta <= hi and prev[delta - lo + 2] >= n:
            break
        d += 1

    # Walk back holding D(i, j) = d.  With k = j - i, cost d - 1 reaches
    # (i - 1, j) when diagonal k + 1 gets to row i - 1, and (i - 1, j - 1)
    # when diagonal k does.
    cost = d
    targets = array("i", [-1]) * n
    i, j = n, m
    while i > 0 or j > 0:
        if d > 0:
            at = j - i - lows[d - 1] + 2
            sub_row, del_row = fronts[d - 1][at], fronts[d - 1][at + 1]
        else:
            sub_row = del_row = _UNREACHED
        # matched diagonal steps keep d; a tying deletion goes first
        while i > 0 and j > 0 and del_row < i - 1 and src[i - 1] == ref[j - 1]:
            i -= 1
            j -= 1
            targets[i] = j
        if i > 0 and del_row >= i - 1:
            i -= 1
        elif i > 0 and j > 0 and sub_row >= i - 1:  # the loop stopped at a mismatch
            i -= 1
            j -= 1
            targets[i] = j
        elif j > 0:
            j -= 1
        else:  # the matched steps reached (0, 0)
            break
        d -= 1
    return cost, targets


def _word_alignment(src_tokens: list[str], ref_tokens: list[str],
                    max_cost: int) -> tuple[int, array]:
    """Minimum edit distance and the ref index of each src token (-1:
    deleted), or CleanRefusedError past max_cost."""
    vocab: dict[str, int] = {}
    src = [vocab.setdefault(t, len(vocab)) for t in src_tokens]
    ref = [vocab.setdefault(t, len(vocab)) for t in ref_tokens]
    bound = _bag_lower_bound(src, ref)
    if bound > max_cost:
        raise CleanRefusedError(
            f"alignment cost is at least {bound} for {len(ref)} reference tokens "
            f"(limit {max_cost}); this looks like the wrong document"
        )
    # shared prefixes and suffixes align to themselves and never change
    # the optimal cost, so only the core goes through the DP
    prefix = 0
    while prefix < len(src) and prefix < len(ref) and src[prefix] == ref[prefix]:
        prefix += 1
    suffix = 0
    while suffix < len(src) - prefix and suffix < len(ref) - prefix \
            and src[-1 - suffix] == ref[-1 - suffix]:
        suffix += 1
    cost, core = _core_alignment(src[prefix:len(src) - suffix], ref[prefix:len(ref) - suffix],
                                 max_cost)
    targets = array("i", range(prefix))
    targets.extend(j + prefix if j >= 0 else j for j in core)
    targets.extend(range(len(ref) - suffix, len(ref)))
    return cost, targets


# ---------------------------------------------------------------------------
# Output cleaner.

def _tolerant_tokens(noisy: str) -> tuple[list[PlainToken], tuple[AnnotationItem, ...]]:
    """The tokens of a noisy line, and the items of a line without any.
    The items of a bare ``|...`` or ``##|...`` piece join the token
    before, or the next at the line start."""
    tokens: list[PlainToken] = []
    lead: tuple[AnnotationItem, ...] = ()
    for raw in _PLAIN_TOKEN.findall(noisy):
        surface, items, is_empty, _ = _split_token(raw)  # rejected pieces are dropped
        if surface:
            tokens.append(PlainToken(surface, lead + items, is_empty))
            lead = ()
        elif tokens:
            tokens[-1].annotations += items
        else:
            lead += items
    return tokens, lead


def _anchored_items(noisy: str, ref_forms: list[str], max_cost_ratio: float
                    ) -> tuple[dict[int, list[AnnotationItem]], dict[int | None, list[PlainToken]]]:
    """The noisy items re-anchored on the reference surface tokens: the
    items of each reference position that gets any, and the noisy ``##``
    tokens after each position (None: before the first).

    A surface token's items go to the reference position it aligns with;
    those of a dropped one, like the ``##`` tokens after it, to the
    position of the nearest aligned surface token before it, or to the
    first position at the document start, as do the items of a line
    without a token.  Nothing of the noisy line but these items and
    ``##`` tokens outlives the call."""
    noisy_tokens, leftover = _tolerant_tokens(noisy)
    surfaces = [_nfc(t.surface) for t in noisy_tokens if not t.is_empty]
    # no alignment costs more than n + m, so a larger limit changes nothing
    # and is capped there before it can overflow
    limit = min(max_cost_ratio * max(len(ref_forms), 1), len(ref_forms) + len(surfaces))
    _, targets = _word_alignment(surfaces, [_nfc(form) for form in ref_forms],
                                 max(1, int(limit)))
    targets = iter(targets)  # each surface token's, in order

    items_at: dict[int, list[AnnotationItem]] = {0: list(leftover)} if leftover else {}
    empties_at: dict[int | None, list[PlainToken]] = {}
    last: int | None = None  # the nearest aligned reference position so far
    for token in noisy_tokens:
        if token.is_empty:
            empties_at.setdefault(last, []).append(token)
            continue
        target = next(targets)
        if target >= 0:
            last = target
        if token.annotations:
            items_at.setdefault(0 if last is None else last, []).extend(token.annotations)
    return items_at, empties_at


def clean_output(reference: Document, noisy: str, *,
                 max_cost_ratio: float = 0.5) -> PlainDoc:
    """Repair a noisy plaintext document against its reference.

    The result carries the reference surface tokens exactly, with the
    noisy annotations re-anchored and all brackets balanced; ``##``
    tokens from the noisy output are re-inserted after their preceding
    surface token, and an opener left open closes at the last token of
    its sentence, as the readers place the tokens.  Raises PlaintextError
    on a reference FORM to_plaintext refuses, CleanRefusedError when the
    word-level alignment cost exceeds ``max_cost_ratio`` times the
    reference length, and ValueError unless that ratio is finite and
    greater than 0.
    """
    if not (math.isfinite(max_cost_ratio) and max_cost_ratio > 0):
        raise ValueError(f"max_cost_ratio must be finite and greater than 0, got {max_cost_ratio}")
    layout = _writable_layout(reference, _PLAIN_UNWRITABLE, PlaintextError)
    ref_forms = [form for form, empty in zip(layout.surfaces, layout.is_empty) if not empty]
    items_at, empties_at = _anchored_items(noisy, ref_forms, max_cost_ratio)

    out_tokens: list[PlainToken] = []
    out_items: list[Sequence[AnnotationItem]] = []

    def emit_empties(at: int | None) -> None:
        for token in empties_at.get(at, ()):
            out_tokens.append(PlainToken(_nfc(token.surface), (), True))
            out_items.append(token.annotations)

    emit_empties(None)
    for j, form in enumerate(ref_forms):
        out_tokens.append(PlainToken(form))
        out_items.append(items_at.get(j, ()))
        emit_empties(j)

    # unmatched closers are dropped; openers left open close where the
    # sentence the readers give the tokens changes
    read = _read_nodes(layout, [t.is_empty for t in out_tokens])
    sentence_ends = [pos for pos in range(len(read) - 1)
                     if read[pos].sentence_index != read[pos + 1].sentence_index]
    spans, _, unclosed = pair_items(enumerate(out_items), sentence_ends)
    _annotate(out_tokens, spans + unclosed)
    return PlainDoc(out_tokens)


# ---------------------------------------------------------------------------
# Reconstruction back to CoNLL-U.

def reconstruct_conllu(input_doc: Document, cleaned: PlainDoc) -> tuple[Document, list[Entity]]:
    """Project cleaned plaintext annotations back onto a CoNLL-U document.

    The cleaned surface tokens (empty nodes excluded) must equal the
    input document's surface tokens, else TokenMismatchError.  The k-th
    ``##`` token after a surface token (or before the first) is the k-th
    empty node the writer places there; any further ones are inserted as
    children of the token they follow, with an unlabeled relation.
    Heads are re-derived from the dependency tree.  A mention across a
    sentence boundary raises PlaintextError.
    """
    return _reconstruct(input_doc, cleaned.tokens, plain_mentions(cleaned), PlaintextError)


def _reconstruct(input_doc: Document, tokens: list[PlainToken],
                 spans: list[tuple[str, int, int]],
                 error: type[ValueError]) -> tuple[Document, list[Entity]]:
    """Entities of (eid, start, end) spans over tokens, on input_doc;
    raises ``error`` on a span across a sentence boundary."""
    forms, cleaned = input_doc.surface_forms(), [t.surface for t in tokens if not t.is_empty]
    if cleaned != forms:
        raise TokenMismatchError(
            f"document '{input_doc.doc_id}': cleaned tokens do not match the input "
            f"document (input vs cleaned: {surface_difference(forms, cleaned)}); "
            "run clean_output first"
        )

    node_at = _read_nodes(_build_layout(input_doc), [t.is_empty for t in tokens])
    new_after: dict[NodeId, list[int]] = {}  # surface id (major 0: document start) -> positions
    for pos, nid in enumerate(node_at):
        if tokens[pos].is_empty and not nid.is_empty:
            new_after.setdefault(nid, []).append(pos)
    # (sentence, major, minor) of the node after which new empties go
    inserts: dict[tuple[int, int, int], list[Node]] = {}
    for anchor, positions in new_after.items():
        # children of the token before them, or roots at the document start
        sent_index, major = anchor.sentence_index, anchor.major
        base = max((n.id.minor for n in input_doc.sentences[sent_index].nodes
                    if n.id.major == major), default=0)
        added = inserts[sent_index, major, base] = []
        for minor, pos in enumerate(positions, start=base + 1):
            nid = node_at[pos] = NodeId(sent_index, major, minor)
            added.append(Node(id=nid, form=tokens[pos].surface,
                              parent=anchor if major else None, deprel="_"))

    new_sentences: list[Sentence] = []
    for sent_index, sentence in enumerate(input_doc.sentences):
        new_nodes: list[Node] = list(inserts.get((sent_index, 0, 0), []))
        for node in sentence.nodes:
            new_nodes.append(node)
            key = (sent_index, node.id.major, node.id.minor)
            new_nodes.extend(inserts.get(key, []))
        new_sentences.append(Sentence(new_nodes, sentence.mwt_ranges, sentence.sent_id))

    document = Document(input_doc.doc_id, new_sentences)
    grouped: dict[str, list] = {}
    for eid, start, end in spans:
        span = node_at[start:end + 1]
        if len({nid.sentence_index for nid in span}) > 1:
            raise error(f"document '{input_doc.doc_id}': the mention of '{eid}' over "
                        f"tokens {start}-{end} crosses a sentence boundary")
        grouped.setdefault(eid, []).append(span)
    entities = [
        Entity(eid, sort_entity_mentions([make_mention(eid, span, document) for span in spans]))
        for eid, spans in grouped.items()
    ]
    return document, entities
