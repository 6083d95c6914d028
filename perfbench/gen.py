"""Seeded synthetic corpora for the corefkit benchmark.

Everything here is plain Python over the standard library: the
generator writes CoNLL-U and plaintext itself, so it neither imports
corefkit nor depends on the test-suite helpers.

Shape of a generated corpus:

- a Zipf vocabulary of a few thousand types (exponent 1.07);
- sentences of 8-24 tokens over a random dependency tree;
- empty nodes (zeros) anchored after, and attached to, a token; every
  gold zero is a mention.  An ordinary sentence draws its zero count from
  a Poisson distribution around the dataset's rate, with no cap; a share
  of dense sentences carries 7-10 zeros (see ``DENSE_ZERO_SHARE``);
- about 135 mentions per 1k words, sentence-internal and laminar
  (nested or disjoint); mentions of one entity never overlap;
- entities grown by preferential attachment, so a long document has
  entities whose mentions span the whole text.

A predicted file keeps the gold surface tokens and perturbs the rest:
empty nodes are kept, relabelled, moved to another token, dropped or
added; mention boundaries shift by one token (so head, exact and
partial matching differ); mentions are dropped or added; clusters are
merged, split and mentions moved between them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

UPOS = ["NOUN", "PRON", "PROPN", "VERB", "ADJ", "DET", "ADV", "ADP", "NUM", "AUX"]
DEPRELS = ["nsubj", "obj", "obl", "nmod", "det", "amod", "advmod", "case", "conj"]
ZERO_DEPRELS = ["nsubj", "obj", "iobj"]
ZERO_FORM = "Zpro"
SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]

# mention span lengths (tokens) and their weights
SPAN_LENGTHS = [1, 2, 3, 4, 6]
SPAN_WEIGHTS = [45, 25, 15, 10, 5]
SURFACE_MENTIONS_PER_WORD = 0.110  # plus zeros: 128-142 mentions per 1k words

# Zeros per sentence.  These are assumptions, not figures measured on a
# treebank: an ordinary sentence has Poisson(zero rate) zeros, and the
# DENSE_ZERO_SHARE of sentences that are dense pro-drop ones have 7-10.
# Dense sentences exceed the 6 zeros up to which matching enumerates
# every assignment, so the benchmark also runs its assignment solver.
DENSE_ZERO_SHARE = 0.015
DENSE_ZEROS = (7, 10)
ADDED_PRED_ZEROS = 0.08  # mean spurious zeros per predicted sentence


@dataclass
class Sent:
    forms: list[str]
    upos: list[str]
    heads: list[int]  # 1-based parent token, 0 for the root
    deprels: list[str]
    empties: list[list] = field(default_factory=list)  # [anchor, deprel], anchor 1-based


@dataclass
class Doc:
    doc_id: str
    sents: list[Sent]
    # each entity is a list of mentions (sent, "s", first token, last token)
    # or (sent, "z", empty index, empty index); token indices are 0-based
    entities: list[list[tuple]]

    @property
    def words(self) -> int:
        return sum(len(s.forms) for s in self.sents)


class Vocab:
    def __init__(self, rng: random.Random, size: int = 4000):
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < size:
            word = "".join(rng.choice(SYLLABLES) for _ in range(rng.choice((1, 2, 2, 3, 3, 4))))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        self.cum = list(itertools.accumulate(1.0 / r ** 1.07 for r in range(1, size + 1)))

    def sample(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum, k=k)


def _poisson(rng: random.Random, mean: float) -> int:
    limit, k, p = math.exp(-mean), 0, rng.random()
    while p > limit:
        k += 1
        p *= rng.random()
    return k


def _extent(mention: tuple) -> tuple[int, int]:
    """Half-token extent used for the same-entity overlap rule: token t
    covers 2t; a zero anchored after token t (1-based) sits at 2t - 1."""
    _, kind, a, b = mention
    return (2 * a, 2 * b) if kind == "s" else (a, a)


def _zero_extent(sent: Sent, k: int) -> int:
    return 2 * (sent.empties[k][0] - 1) + 1


def _overlaps(x: tuple[int, int], y: tuple[int, int]) -> bool:
    return x[0] <= y[1] and y[0] <= x[1]


def _laminar(span: tuple[int, int], others) -> bool:
    a, b = span
    for c, d in others:
        if (a, b) == (c, d):
            return False
        if a < c <= b < d or c < a <= d < b:
            return False
    return True


class _EntityPool:
    """Preferential attachment with a per-sentence overlap guard."""

    def __init__(self, rng: random.Random, p_new: float):
        self.rng = rng
        self.p_new = p_new
        self.entities: list[list[tuple]] = []
        self.extents: list[dict[int, list[tuple[int, int]]]] = []
        self.ballot: list[int] = []  # one ticket per mention, for preferential choice

    def _fits(self, e: int, sent_index: int, extent: tuple[int, int]) -> bool:
        return not any(_overlaps(extent, x) for x in self.extents[e].get(sent_index, ()))

    def add(self, mention: tuple, extent: tuple[int, int], p_new: float | None = None) -> None:
        p = self.p_new if p_new is None else p_new
        e = None
        if self.ballot and self.rng.random() >= p:
            e = self.rng.choice(self.ballot)
            if not self._fits(e, mention[0], extent):
                e = None
        if e is None:
            e = len(self.entities)
            self.entities.append([])
            self.extents.append({})
        self.entities[e].append(mention)
        self.extents[e].setdefault(mention[0], []).append(extent)
        self.ballot.append(e)


def gen_gold(rng: random.Random, vocab: Vocab, doc_id: str, n_words: int,
             zero_rate: float, p_new: float = 0.35) -> Doc:
    sents: list[Sent] = []
    pool = _EntityPool(rng, p_new)
    remaining = n_words
    while remaining > 0:
        length = min(rng.randint(8, 24), remaining)
        remaining -= length
        si = len(sents)
        heads = [0] + [rng.randint(1, i) for i in range(1, length)]
        sent = Sent(vocab.sample(rng, length), rng.choices(UPOS, k=length), heads,
                    ["root"] + rng.choices(DEPRELS, k=length - 1))
        if zero_rate and rng.random() < DENSE_ZERO_SHARE:
            n_zeros = rng.randint(*DENSE_ZEROS)
        else:
            n_zeros = _poisson(rng, zero_rate)
        sent.empties = sorted(([rng.randint(1, length), rng.choice(ZERO_DEPRELS)]
                               for _ in range(n_zeros)), key=lambda e: e[0])
        sents.append(sent)

        spans: list[tuple[int, int]] = []
        # a near-fixed mention count keeps the quadratic matching work
        # of a seed close to that of any other seed
        for _ in range(int(SURFACE_MENTIONS_PER_WORD * length + rng.random())):
            for _attempt in range(4):
                a = rng.randrange(length)
                b = min(length - 1, a + rng.choices(SPAN_LENGTHS, SPAN_WEIGHTS)[0] - 1)
                if _laminar((a, b), spans):
                    spans.append((a, b))
                    break
        mentions = [(si, "s", a, b) for a, b in spans]
        mentions += [(si, "z", k, k) for k in range(len(sent.empties))]
        mentions.sort(key=lambda m: (_zero_extent(sent, m[2]) if m[1] == "z" else 2 * m[2]))
        for m in mentions:
            if m[1] == "z":
                x = _zero_extent(sent, m[2])
                pool.add(m, (x, x), p_new=0.1)  # zeros mostly refer back
            else:
                pool.add(m, _extent(m))
    return Doc(doc_id, sents, pool.entities)


def gen_pred(rng: random.Random, gold: Doc) -> Doc:
    """A system output over the same surface tokens."""
    sents: list[Sent] = []
    zero_map: list[dict[int, int]] = []  # per sentence: gold empty -> pred empty
    for sent in gold.sents:
        length = len(sent.forms)
        staged = []  # (anchor, deprel, gold index or None)
        for k, (anchor, deprel) in enumerate(sent.empties):
            r = rng.random()
            if r < 0.60:
                staged.append((anchor, deprel, k))
            elif r < 0.75:
                staged.append((anchor, rng.choice([d for d in ZERO_DEPRELS if d != deprel]), k))
            elif r < 0.85:
                moved = anchor + rng.choice((-2, -1, 1, 2))
                staged.append((min(max(moved, 1), length), deprel, k))
            # else dropped
        for _ in range(_poisson(rng, ADDED_PRED_ZEROS)):
            staged.append((rng.randint(1, length), rng.choice(ZERO_DEPRELS), None))
        staged.sort(key=lambda e: e[0])
        sents.append(Sent(sent.forms, sent.upos, sent.heads, sent.deprels,
                          [[anchor, deprel] for anchor, deprel, _ in staged]))
        zero_map.append({g: j for j, (_, _, g) in enumerate(staged) if g is not None})

    def extent(m: tuple) -> tuple[int, int]:
        if m[1] == "z":
            x = _zero_extent(sents[m[0]], m[2])
            return x, x
        return _extent(m)

    # surviving mentions per gold entity, with boundary shifts
    spans_by_sent: dict[int, list[tuple[int, int]]] = {}
    for entity in gold.entities:
        for si, kind, a, b in entity:
            if kind == "s":
                spans_by_sent.setdefault(si, []).append((a, b))
    entities: list[list[tuple]] = []
    for entity in gold.entities:
        kept = []
        for si, kind, a, b in entity:
            if kind == "z":
                if a in zero_map[si]:
                    j = zero_map[si][a]
                    kept.append((si, "z", j, j))
                continue
            r = rng.random()
            if r < 0.08:
                continue
            if r < 0.23:
                length = len(sents[si].forms)
                na, nb = a, b
                side = rng.randrange(4)
                if side == 0:
                    na = max(0, a - 1)
                elif side == 1 and a < b:
                    na = a + 1
                elif side == 2 and a < b:
                    nb = b - 1
                else:
                    nb = min(length - 1, b + 1)
                others = [s for s in spans_by_sent[si] if s != (a, b)]
                if _laminar((na, nb), others):
                    spans_by_sent[si] = others + [(na, nb)]
                    a, b = na, nb
            kept.append((si, "s", a, b))
        if kept:
            entities.append(kept)

    def fits(entity: list[tuple], m: tuple) -> bool:
        x = extent(m)
        return not any(o[0] == m[0] and _overlaps(x, extent(o)) for o in entity)

    # cluster errors: move mentions, split and merge entities
    for e in range(len(entities)):
        for m in list(entities[e]):
            if len(entities[e]) > 1 and rng.random() < 0.04:
                target = rng.randrange(len(entities))
                if target != e and fits(entities[target], m):
                    entities[e].remove(m)
                    entities[target].append(m)
    for e in range(len(entities)):
        if len(entities[e]) >= 4 and rng.random() < 0.10:
            cut = rng.randint(1, len(entities[e]) - 1)
            entities.append(entities[e][cut:])
            entities[e] = entities[e][:cut]
    merged: set[int] = set()
    for e in range(len(entities)):
        if e in merged or rng.random() >= 0.05:
            continue
        target = rng.randrange(len(entities))
        if target == e or target in merged:
            continue
        if all(fits(entities[target], m) for m in entities[e]):
            entities[target].extend(entities[e])
            entities[e] = []
            merged.add(e)
    entities = [sorted(ent, key=lambda m: (m[0], extent(m)[0])) for ent in entities if ent]

    # spurious mentions: added surface spans and the added zeros
    for si, sent in enumerate(sents):
        length = len(sent.forms)
        mapped = set(zero_map[si].values())
        extra = [(si, "z", j, j) for j in range(len(sent.empties)) if j not in mapped]
        if rng.random() < 0.12:
            a = rng.randrange(length)
            b = min(length - 1, a + rng.choices(SPAN_LENGTHS, SPAN_WEIGHTS)[0] - 1)
            if _laminar((a, b), spans_by_sent.get(si, [])):
                spans_by_sent.setdefault(si, []).append((a, b))
                extra.append((si, "s", a, b))
        for m in extra:
            target = rng.randrange(len(entities)) if entities and rng.random() < 0.5 else None
            if target is not None and fits(entities[target], m):
                entities[target].append(m)
            else:
                entities.append([m])
    return Doc(gold.doc_id, sents, entities)


# ---------------------------------------------------------------------------
# Rendering.

def _node_order(sent: Sent) -> tuple[list[int], list[int]]:
    """Node positions of tokens and of empty nodes in CoNLL-U order.

    Empty nodes follow their anchor token, which is also their parent,
    so this is also the plaintext layout order."""
    token_pos, empty_pos = [0] * len(sent.forms), [0] * len(sent.empties)
    by_anchor: dict[int, list[int]] = {}
    for k, (anchor, _) in enumerate(sent.empties):
        by_anchor.setdefault(anchor, []).append(k)
    pos = 0
    for t in range(len(sent.forms)):
        token_pos[t] = pos
        pos += 1
        for k in by_anchor.get(t + 1, ()):
            empty_pos[k] = pos
            pos += 1
    return token_pos, empty_pos


def _span_positions(doc: Doc) -> list[list[tuple[str, int, int]]]:
    """Per sentence: (entity id, first node position, last node position)."""
    orders = [_node_order(s) for s in doc.sents]
    out: list[list[tuple[str, int, int]]] = [[] for _ in doc.sents]
    for e, entity in enumerate(doc.entities):
        eid = f"e{e + 1}"
        for si, kind, a, b in entity:
            token_pos, empty_pos = orders[si]
            if kind == "s":
                out[si].append((eid, token_pos[a], token_pos[b]))
            else:
                out[si].append((eid, empty_pos[a], empty_pos[a]))
    return out


def _bracket_items(spans, n_nodes: int, opener: str, closer: str, single: str):
    """Per-node item lists: closers (inner first), singles, openers (longer first)."""
    closes: dict[int, list] = {}
    singles: dict[int, list] = {}
    opens: dict[int, list] = {}
    for eid, start, end in spans:
        if start == end:
            singles.setdefault(start, []).append(eid)
        else:
            opens.setdefault(start, []).append((-end, eid))
            closes.setdefault(end, []).append((-start, eid))
    items: list[list[str]] = [[] for _ in range(n_nodes)]
    for pos in range(n_nodes):
        items[pos] += [closer.format(eid) for _, eid in sorted(closes.get(pos, []))]
        items[pos] += [single.format(eid) for eid in sorted(singles.get(pos, []))]
        items[pos] += [opener.format(eid) for _, eid in sorted(opens.get(pos, []))]
    return items


def render_conllu(docs: list[Doc], coref: bool = True) -> str:
    """CoNLL-U text; ``coref=False`` gives the participant input variant
    (no empty nodes, no Entity annotations)."""
    out: list[str] = []
    for doc in docs:
        out.append(f"# newdoc id = {doc.doc_id}")
        spans = _span_positions(doc) if coref else None
        for si, sent in enumerate(doc.sents):
            out.append(f"# sent_id = {doc.doc_id}-s{si + 1}")
            n_nodes = len(sent.forms) + (len(sent.empties) if coref else 0)
            items = (_bracket_items(spans[si], n_nodes, "({}", "{})", "({})")
                     if coref else [[] for _ in range(n_nodes)])
            by_anchor: dict[int, list[int]] = {}
            if coref:
                for k, (anchor, _) in enumerate(sent.empties):
                    by_anchor.setdefault(anchor, []).append(k)
            pos = 0
            for t, form in enumerate(sent.forms):
                misc = "Entity=" + "".join(items[pos]) if items[pos] else "_"
                out.append(f"{t + 1}\t{form}\t{form}\t{sent.upos[t]}\t_\t_\t"
                           f"{sent.heads[t]}\t{sent.deprels[t]}\t_\t{misc}")
                pos += 1
                for minor, k in enumerate(by_anchor.get(t + 1, ()), start=1):
                    deprel = sent.empties[k][1]
                    misc = "Entity=" + "".join(items[pos]) if items[pos] else "_"
                    out.append(f"{t + 1}.{minor}\t{ZERO_FORM}\t{ZERO_FORM}\t_\t_\t_\t_\t_\t"
                               f"{t + 1}:{deprel}\t{misc}")
                    pos += 1
            out.append("")
    return "\n".join(out) + "\n"


def plaintext_tokens(doc: Doc) -> list[tuple[str, list[str], bool]]:
    """(surface, annotation items, is empty) in plaintext layout order."""
    spans = _span_positions(doc)
    tokens: list[tuple[str, list[str], bool]] = []
    for si, sent in enumerate(doc.sents):
        n_nodes = len(sent.forms) + len(sent.empties)
        items = _bracket_items(spans[si], n_nodes, "[{}", "{}]", "[{}]")
        by_anchor: dict[int, list[int]] = {}
        for k, (anchor, _) in enumerate(sent.empties):
            by_anchor.setdefault(anchor, []).append(k)
        pos = 0
        for t, form in enumerate(sent.forms):
            tokens.append((form, items[pos], False))
            pos += 1
            for _ in by_anchor.get(t + 1, ()):
                tokens.append((ZERO_FORM, items[pos], True))
                pos += 1
    return tokens


def render_plain(tokens) -> str:
    return " ".join(("##" if empty else "") + surface + ("|" + ",".join(items) if items else "")
                    for surface, items, empty in tokens)


def add_noise(rng: random.Random, vocab: Vocab, tokens, rate: float):
    """Word-level edits on surface tokens: substitutions, deletions (which
    also lose the token's brackets) and insertions.  Returns the noisy
    tokens and the number of edits."""
    noisy = []
    edits = 0
    for surface, items, empty in tokens:
        if empty or rng.random() >= rate:
            noisy.append((surface, items, empty))
            continue
        edits += 1
        op = rng.random()
        if op < 0.5:
            word = surface
            while word == surface:
                word = vocab.sample(rng, 1)[0]
            noisy.append((word, items, False))
        elif op < 0.75:
            continue
        else:
            noisy.append((surface, items, False))
            noisy.append((vocab.sample(rng, 1)[0], [], False))
    return noisy, edits


def gold_clusters(doc: Doc):
    """Cluster multiset key: each cluster as a sorted tuple of
    (sentence, first node id, last node id) spans."""
    keys = []
    for entity in doc.entities:
        spans = []
        for si, kind, a, b in entity:
            sent = doc.sents[si]
            if kind == "s":
                spans.append((si, str(a + 1), str(b + 1)))
            else:
                anchor = sent.empties[a][0]
                minor = 1 + sum(1 for k in range(a) if sent.empties[k][0] == anchor)
                nid = f"{anchor}.{minor}"
                spans.append((si, nid, nid))
        keys.append(tuple(sorted(spans)))
    return keys
