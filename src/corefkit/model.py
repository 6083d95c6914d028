"""Object model for CoNLL-U corpora carrying coreference annotations.

Nodes, sentences and documents mirror the CoNLL-U structure, including
empty nodes (decimal ids such as ``3.1``, used for zero anaphora) and
multiword-token ranges.  A sentence numbers its regular tokens 1..n in
order (the parser refuses any other numbering), so a node's major is its
word position in the sentence.  Mentions and entities form the coreference
layer on top; mention heads are derived from the dependency tree.  A
parsed input is a list of ``(Document, entities)`` pairs.

All values are treated as immutable after construction, so corpora can
be shared freely across parallel workers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple


class NodeId(NamedTuple):
    """Position of a node within a document.

    ``minor == 0`` marks a regular (surface) token; ``minor >= 1`` marks
    an empty node anchored after token ``major`` (rendered ``major.minor``).
    Within a sentence, ids are unique and ordered lexicographically.  A
    named tuple: it compares, hashes and pickles as the plain tuple
    ``(sentence_index, major, minor)``, all in C.  A parsed sentence holds
    one NodeId object per node: the node's ``id``, every ``parent``
    pointing at it and every mention span share it.
    """

    sentence_index: int
    major: int
    minor: int = 0

    @property
    def is_empty(self) -> bool:
        return self.minor > 0

    def conllu_id(self) -> str:
        return f"{self.major}.{self.minor}" if self.minor else str(self.major)

    def __str__(self) -> str:
        return f"{self.sentence_index}:{self.conllu_id()}"


class _EmptyColumn(dict):
    """An empty dict that refuses additions.  Every empty FEATS or MISC
    column of a parsed corpus is this one object, so sharing it is safe."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("the empty FEATS/MISC value of a parsed node is shared and read-only")

    __setitem__ = setdefault = update = __ior__ = _refuse

    def __reduce__(self):
        return "EMPTY_COLUMN"


EMPTY_COLUMN = _EmptyColumn()


@dataclass(slots=True)
class Node:
    """One CoNLL-U node (surface token or empty node).

    ``parent`` is None for the root.  For empty nodes the parent/deprel
    pair comes from the first item of the DEPS column.  A parsed node's
    empty ``feats`` or ``misc`` is the shared, read-only EMPTY_COLUMN.
    """

    id: NodeId
    form: str
    lemma: str = "_"
    upos: str = "_"
    xpos: str = "_"
    feats: dict[str, str] = field(default_factory=dict)
    parent: NodeId | None = None
    deprel: str = "_"
    misc: dict[str, str | None] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return self.id.minor > 0


@dataclass
class Sentence:
    """Ordered node list plus multiword-token ranges.

    ``mwt_ranges`` holds (first major, last major, surface form) triples;
    ranges never overlap and cover only regular tokens.  Lookups go
    through one position dict keyed by node id, built on first use;
    parsing does not build it.
    """

    nodes: list[Node]
    mwt_ranges: list[tuple[int, int, str]] = field(default_factory=list)
    sent_id: str = ""
    _positions: dict[NodeId, int] | None = field(
        default=None, init=False, repr=False, compare=False)

    def _index(self) -> dict[NodeId, int]:
        if self._positions is None:
            self._positions = {n.id: i for i, n in enumerate(self.nodes)}
        return self._positions

    def node(self, nid: NodeId) -> Node:
        return self.nodes[self._index()[nid]]

    def position(self, nid: NodeId) -> int:
        """Index of the node in serialization order."""
        return self._index()[nid]


@dataclass
class Document:
    doc_id: str
    sentences: list[Sentence]

    def node(self, nid: NodeId) -> Node:
        return self.sentences[nid.sentence_index].node(nid)

    def surface_forms(self) -> list[str]:
        """Forms of all regular tokens in document order."""
        return [n.form for s in self.sentences for n in s.nodes if not n.is_empty]


def surface_difference(forms: list[str], others: list[str]) -> str:
    """Where two unequal surface token lists first differ: the 1-based token
    index and both forms, or both counts when one is a prefix of the other."""
    for k, (form, other) in enumerate(zip(forms, others)):
        if form != other:
            return f"surface token {k + 1} differs ('{form}' vs '{other}')"
    return f"surface token counts differ ({len(forms)} vs {len(others)})"


class _MentionFields(NamedTuple):
    entity_id: str
    span: tuple[NodeId, ...]
    head: NodeId
    is_zero: bool


class Mention(_MentionFields):
    """A coreference mention: an ordered, possibly discontinuous span.

    The head is the span node whose parent lies outside the span; a
    mention is a zero mention iff its head is an empty node.  A named tuple,
    as NodeId is; the parser builds it with ``tuple.__new__``, skipping the
    constructor's checks, as it takes each head from its span.
    """

    __slots__ = ()

    def __new__(cls, entity_id: str, span: tuple[NodeId, ...], head: NodeId, is_zero: bool):
        if not span:
            raise ValueError("mention span must be non-empty")
        if head not in span:
            raise ValueError(f"mention head {head} not in span")
        return super().__new__(cls, entity_id, span, head, is_zero)

    @property
    def start(self) -> NodeId:
        return self.span[0]

    @property
    def end(self) -> NodeId:
        return self.span[-1]

    def surface_length(self) -> int:
        """Number of regular tokens in the span (0 for pure-zero mentions)."""
        return sum(1 for n in self.span if not n.is_empty)

    def contains_empty(self) -> bool:
        return any(n.is_empty for n in self.span)


@dataclass
class Entity:
    """A cluster of mentions referring to one referent.

    Mentions are ordered by document position of their first span node.
    A singleton has exactly one mention.
    """

    id: str
    mentions: list[Mention]

    @property
    def is_singleton(self) -> bool:
        return len(self.mentions) == 1


def make_mention(entity_id: str, span, document: Document) -> Mention:
    """Build a mention with a derived head over nodes of one sentence of
    ``document``; an empty span or one across sentences is refused."""
    span_t = tuple(sorted(set(span)))
    if len({nid.sentence_index for nid in span_t}) != 1:
        raise ValueError(f"mention span [{' '.join(map(str, span_t))}] is empty or crosses "
                         "a sentence boundary")
    head = derive_head(span_t, document.sentences[span_t[0].sentence_index])
    return Mention(entity_id, span_t, head, head.is_empty)


def sort_entity_mentions(mentions: list[Mention]) -> list[Mention]:
    return sorted(mentions, key=lambda m: (m.span[0], m.span[-1]))


def lazy_depths(nodes: list[Node], index: dict[NodeId, int] | None = None):
    """A function giving the steps from the node at a position of ``nodes``
    to the sentence root.  A node on a cycle or above a parent that is not
    in the sentence gets ``len(nodes) + 1``, past any real tree, so it loses
    every tie-break.  ``index`` maps node ids to positions; without it one
    is built on the first call.  A walk stops at a node already measured,
    so a sentence costs linear time at most, and none where no span asks."""
    bad = len(nodes) + 1
    known: dict[int, int | None] = {}  # position -> depth; None while on the walk

    def depth(start: int) -> int:
        nonlocal index
        if index is None:
            index = {n.id: i for i, n in enumerate(nodes)}
        walk = []
        pos = start
        while pos is not None and pos >= 0 and pos not in known:
            known[pos] = None
            walk.append(pos)
            parent = nodes[pos].parent
            pos = -1 if parent is None else index.get(parent)
        if pos is None:
            steps = bad  # dangling parent
        elif pos < 0:
            steps = -1  # the walk reached a root
        else:
            steps = known[pos]
            if steps is None:
                steps = bad  # a cycle
        for pos in reversed(walk):
            if steps < bad:
                steps += 1
            known[pos] = steps
        return known[start]
    return depth


def head_position(ordered, nodes: list[Node], depth) -> int:
    """The head rule over sentence positions.

    ``ordered`` holds a span's positions in ``nodes``, in node-id order.
    The head is the span node whose parent lies outside the span; among
    several candidates the smallest tree depth wins, then the earliest.
    ``depth(position)`` (see ``lazy_depths``) is called only when two or
    more candidates remain.  A span where every parent points inside
    (malformed input) falls back to its earliest node with a warning.
    """
    members = {nodes[p].id for p in ordered}
    candidates = [p for p in ordered if nodes[p].parent not in members]
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        warnings.warn(
            "span has no node with an external parent; falling back to its "
            "earliest node",
            stacklevel=3,
        )
        return ordered[0]
    return min(candidates, key=depth)


def derive_head(span, sentence: Sentence) -> NodeId:
    """Pick the span node whose parent lies outside the span (see
    ``head_position``); ties break on the earliest (major, minor)."""
    span_t = sorted(set(span))
    if not span_t:
        raise ValueError("cannot derive a head for an empty span")
    nodes, index = sentence.nodes, sentence._index()
    ordered = [index[nid] for nid in span_t]
    return nodes[head_position(ordered, nodes, lazy_depths(nodes, index))].id


def word_offsets(document: Document) -> list[int]:
    """The number of surface words before each sentence of ``document``,
    then the document's word count.  Since a sentence numbers its regular
    tokens 1..n, node ``nid`` follows ``offsets[nid.sentence_index] +
    nid.major`` words: a token is that word, and an empty node counts at
    its anchor (major 0: the last word before its sentence)."""
    return list(accumulate((sum(not n.is_empty for n in s.nodes) for s in document.sentences),
                           initial=0))


def contiguous_segments(span, sentence: Sentence) -> list[list[NodeId]]:
    """Split a span into runs that are contiguous in sentence node order."""
    ordered = sorted(set(span))
    segments: list[list[NodeId]] = []
    previous = None
    for nid in ordered:
        pos = sentence.position(nid)
        if previous is not None and pos == previous + 1:
            segments[-1].append(nid)
        else:
            segments.append([nid])
        previous = pos
    return segments


def mention_has_gap(mention: Mention, document: Document) -> bool:
    sentence = document.sentences[mention.start.sentence_index]
    return len(contiguous_segments(mention.span, sentence)) > 1


def mention_is_treelet(mention: Mention, document: Document) -> bool:
    """True iff the span forms a connected subgraph of the dependency tree.

    In a tree this holds exactly when one span node has its parent
    outside the span.
    """
    sentence = document.sentences[mention.start.sentence_index]
    members = set(mention.span)
    external = 0
    for nid in mention.span:
        parent = sentence.node(nid).parent
        if parent is None or parent not in members:
            external += 1
    return external == 1
