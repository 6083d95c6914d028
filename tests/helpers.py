"""Shared fixture builders and random generators for the test suite."""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import strategies as st

from corefkit.model import (
    Corpus,
    Document,
    Entity,
    NodeId,
    Node,
    Sentence,
    make_mention,
    sort_entity_mentions,
)

UPOS_POOL = ["NOUN", "PRON", "PROPN", "VERB", "ADJ", "DET", "ADV", "NUM"]
DEPREL_POOL = ["nsubj", "obj", "obl", "nmod", "det", "amod", "advmod", "root"]
ZERO_DEPRELS = ["nsubj", "obj", "expl"]
WORDS = [
    "the", "a", "old", "river", "boat", "captain", "storm", "night", "star",
    "runs", "sees", "holds", "turns", "red", "deep", "harbor", "wind", "sail",
    "rope", "deck", "maps", "coast", "tide", "moon", "cliff", "spray",
]


def sent(si: int, tokens, empties=(), sent_id: str = "", mwt=()) -> Sentence:
    """tokens: (form, parent_major, deprel, upos); empties:
    (anchor_major, minor, form, parent_major, deprel) with parent 0 = root."""
    nodes = {}
    for major, (form, parent, deprel, upos) in enumerate(tokens, start=1):
        nodes[(major, 0)] = Node(
            id=NodeId(si, major), form=form, lemma=form, upos=upos,
            parent=NodeId(si, parent) if parent else None, deprel=deprel,
        )
    for anchor, minor, form, parent, deprel in empties:
        nodes[(anchor, minor)] = Node(
            id=NodeId(si, anchor, minor), form=form, lemma=form, upos="_",
            parent=NodeId(si, parent) if parent else None, deprel=deprel,
        )
    ordered = [nodes[key] for key in sorted(nodes)]
    return Sentence(ordered, list(mwt), sent_id or f"s{si + 1}")


def doc(doc_id: str, *sentences: Sentence) -> Document:
    return Document(doc_id, list(sentences))


def ent(eid: str, document: Document, *spans) -> Entity:
    """spans: iterables of (sentence, major) or (sentence, major, minor)."""
    mentions = []
    for span in spans:
        ids = [NodeId(*pos) if len(pos) == 3 else NodeId(pos[0], pos[1], 0)
               for pos in span]
        mentions.append(make_mention(eid, ids, document))
    return Entity(eid, sort_entity_mentions(mentions))


def canonical_clusters(entities: list[Entity]) -> Counter:
    """Multiset of clusters, each a sorted tuple of span keys; entity ids
    are deliberately ignored (scores are id-rename invariant)."""
    keys = []
    for entity in entities:
        spans = tuple(sorted(
            tuple((n.sentence_index, n.major, n.minor) for n in m.span)
            for m in entity.mentions
        ))
        keys.append(spans)
    return Counter(keys)


# ---------------------------------------------------------------------------
# Random generation.

def random_sentence(rng: random.Random, si: int, n_tokens: int,
                    n_empties: int = 0, empty_parent_mode: str = "random") -> Sentence:
    tokens = []
    for major in range(1, n_tokens + 1):
        parent = 0 if major == 1 else rng.randrange(0, major)
        deprel = "root" if parent == 0 else rng.choice(DEPREL_POOL[:-1])
        tokens.append((rng.choice(WORDS), parent, deprel, rng.choice(UPOS_POOL)))
    empties = []
    anchors = rng.sample(range(1, n_tokens + 1), min(n_empties, n_tokens))
    for anchor in sorted(anchors):
        if empty_parent_mode == "anchor":
            parent = anchor
        else:
            parent = rng.randrange(1, n_tokens + 1)
        empties.append((anchor, 1, "Z" + rng.choice(WORDS), parent,
                        rng.choice(ZERO_DEPRELS)))
    return sent(si, tokens, empties)


def random_document(rng: random.Random, doc_id: str, n_sents: int,
                    tokens_per_sent=(4, 9), empties_per_sent=(0, 2),
                    empty_parent_mode: str = "random") -> Document:
    sentences = [
        random_sentence(
            rng, si, rng.randint(*tokens_per_sent),
            rng.randint(*empties_per_sent), empty_parent_mode,
        )
        for si in range(n_sents)
    ]
    return Document(doc_id, sentences)


def _candidate_spans(document: Document, contiguous_tokens_only: bool = True):
    """Sentence-internal spans: token runs not crossing an empty node,
    plus every single empty node."""
    spans = []
    for si, sentence in enumerate(document.sentences):
        positions = {n.id: pos for pos, n in enumerate(sentence.nodes)}
        tokens = [n for n in sentence.nodes if not n.is_empty]
        for start in range(len(tokens)):
            for end in range(start, min(start + 4, len(tokens))):
                run = tokens[start:end + 1]
                run_positions = [positions[n.id] for n in run]
                if run_positions[-1] - run_positions[0] == len(run) - 1:
                    spans.append(tuple(n.id for n in run))
        for node in sentence.nodes:
            if node.is_empty:
                spans.append((node.id,))
    return spans


def _span_key(span):
    first, last = span[0], span[-1]
    return first.sentence_index, (first.major, first.minor), (last.major, last.minor)


def _crossing(a, b) -> bool:
    sa, a1, a2 = _span_key(a)
    sb, b1, b2 = _span_key(b)
    if sa != sb:
        return False
    (s1, e1), (s2, e2) = sorted([(a1, a2), (b1, b2)])
    return s1 < s2 <= e1 < e2


def random_entities(rng: random.Random, document: Document, n_entities: int,
                    mentions_per_entity=(1, 4), prefix: str = "e") -> list[Entity]:
    spans = _candidate_spans(document)
    rng.shuffle(spans)
    entities = []
    cursor = 0
    for k in range(n_entities):
        want = rng.randint(*mentions_per_entity)
        chosen = []
        seen = set()
        while len(chosen) < want and cursor < len(spans):
            span = spans[cursor]
            cursor += 1
            if span in seen:
                continue
            # same-entity crossing spans are not representable in brackets
            if any(_crossing(span, other) for other in chosen):
                continue
            seen.add(span)
            chosen.append(span)
        if not chosen:
            break
        eid = f"{prefix}{k + 1}"
        entities.append(Entity(eid, sort_entity_mentions(
            [make_mention(eid, span, document) for span in chosen]
        )))
    return entities


def random_gold(rng: random.Random, n_docs: int = 3, n_sents=(2, 4),
                entities_per_doc=(2, 5), empty_parent_mode: str = "random") -> Corpus:
    documents = []
    entities = []
    for d in range(n_docs):
        document = random_document(rng, f"doc{d + 1}", rng.randint(*n_sents),
                                   empty_parent_mode=empty_parent_mode)
        documents.append(document)
        entities.append(random_entities(rng, document,
                                        rng.randint(*entities_per_doc)))
    return Corpus(documents, entities)


def recluster(rng: random.Random, corpus: Corpus, keep_mentions: float = 0.85,
              extra_mentions: int = 2, n_clusters=(2, 6)) -> Corpus:
    """A prediction over the same documents: mentions mostly reused (some
    dropped, some invented), clustering reshuffled."""
    pred_entities = []
    for document, doc_entities in corpus:
        mentions = [m.span for e in doc_entities for m in e.mentions
                    if rng.random() < keep_mentions]
        pool = [s for s in _candidate_spans(document)
                if s not in set(mentions)]
        rng.shuffle(pool)
        mentions.extend(pool[:rng.randint(0, extra_mentions)])
        rng.shuffle(mentions)
        k = min(len(mentions), rng.randint(*n_clusters))
        clusters = [[] for _ in range(max(k, 1))]
        for i, span in enumerate(mentions):
            for shift in range(max(k, 1)):
                target = clusters[(i + shift) % max(k, 1)]
                if not any(_crossing(span, other) for other in target):
                    target.append(span)
                    break
        doc_pred = []
        for ci, spans in enumerate(c for c in clusters if c):
            eid = f"p{ci + 1}"
            doc_pred.append(Entity(eid, sort_entity_mentions(
                [make_mention(eid, span, document) for span in spans]
            )))
        pred_entities.append(doc_pred)
    return Corpus(corpus.documents, pred_entities)


def zeroful_corpus(seed: int) -> Corpus:
    """Random corpus plus one document guaranteed to hold an anaphoric
    zero, so no metric is degenerate under the identity law."""
    corpus = random_gold(random.Random(seed), n_docs=2)
    anchor_doc = doc(
        "zdoc",
        sent(0, [("spk", 2, "nsubj", "NOUN"), ("talks", 0, "root", "VERB"),
                 ("now", 2, "advmod", "ADV")],
             empties=[(3, 1, "Z", 2, "nsubj")]),
    )
    zero_entity = ent("ze", anchor_doc, [(0, 1)], [(0, 3, 1)])
    filler = ent("zf", anchor_doc, [(0, 2)], [(0, 3)])
    return Corpus(corpus.documents + [anchor_doc],
                  corpus.entities + [[zero_entity, filler]])


def heads_only(corpus: Corpus, prefix: str = "h") -> Corpus:
    """Same clustering, every mention reduced to its head node."""
    pred_entities = []
    for document, doc_entities in corpus:
        doc_pred = []
        for k, entity in enumerate(doc_entities):
            eid = f"{prefix}{k + 1}"
            doc_pred.append(Entity(eid, sort_entity_mentions([
                make_mention(eid, (m.head,), document) for m in entity.mentions
            ])))
        pred_entities.append(doc_pred)
    return Corpus(corpus.documents, pred_entities)


COLUMN_KEYS = ["Case", "Number", "Gender", "SpaceAfter", "Translit", "Mood"]
COLUMN_VALUES = ["Nom", "Sing", "Plur", "No", "Masc", "a:b", ""]


@st.composite
def rich_corpora(draw) -> Corpus:
    """random_gold corpora whose nodes also carry XPOS, FEATS and MISC
    values (MISC keys without a value among them) and whose sentences
    may carry a multiword-token range."""
    rng = random.Random(draw(st.integers(0, 2**31)))
    corpus = random_gold(rng, n_docs=draw(st.integers(1, 3)))
    keys, values = st.sampled_from(COLUMN_KEYS), st.sampled_from(COLUMN_VALUES)
    for document in corpus.documents:
        for sentence in document.sentences:
            for node in sentence.nodes:
                node.xpos = draw(st.sampled_from(["_", "NN", "VBZ"]))
                node.feats = draw(st.dictionaries(keys, values, max_size=3))
                node.misc = draw(st.dictionaries(keys, st.none() | values, max_size=2))
            words = sum(1 for n in sentence.nodes if not n.is_empty)
            if words >= 2 and draw(st.booleans()):
                first = draw(st.integers(1, words - 1))
                sentence.mwt_ranges = [(first, draw(st.integers(first + 1, words)), "mw")]
    return corpus
