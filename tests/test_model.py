import gc
import pickle
import random
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from corefkit.conllu import parse_conllu, serialize_conllu
from corefkit.model import (
    EMPTY_COLUMN,
    Node,
    NodeId,
    Sentence,
    derive_head,
    make_mention,
    mention_has_gap,
    mention_is_treelet,
    word_offsets,
)

from helpers import doc, ent, random_document, random_gold, rich_corpora, sent, zeroful_corpus
from oracles import oracle_derive_head


def test_node_id_ordering_and_rendering():
    a, b, c = NodeId(0, 3), NodeId(0, 3, 1), NodeId(0, 4)
    assert a < b < c
    assert not a.is_empty and b.is_empty
    assert a.conllu_id() == "3"
    assert b.conllu_id() == "3.1"


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(0, 3)),
                min_size=1, max_size=12))
def test_node_id_hashes_and_orders_as_its_plain_tuple(triples):
    ids = [NodeId(*t) for t in triples]
    for nid, t in zip(ids, triples):
        # the hash the frozen dataclass computed, so sets and dicts keyed
        # by node ids iterate in the same order as before
        assert hash(nid) == hash(t) == hash((nid.sentence_index, nid.major, nid.minor))
        assert nid == t and str(nid) == f"{t[0]}:{nid.conllu_id()}"
    assert [tuple(n) for n in sorted(ids)] == sorted(triples)
    assert list(set(ids)) == list(set(triples))
    assert NodeId(1, 2) == NodeId(1, 2, 0) == (1, 2, 0)


def test_derive_head_single_node():
    s = sent(0, [("w", 0, "root", "NOUN")])
    assert derive_head([NodeId(0, 1)], s) == NodeId(0, 1)


def test_derive_head_the_red_car():
    s = sent(0, [
        ("the", 3, "det", "DET"),
        ("red", 3, "amod", "ADJ"),
        ("car", 4, "nsubj", "NOUN"),
        ("stops", 0, "root", "VERB"),
    ])
    assert derive_head([NodeId(0, 1), NodeId(0, 2), NodeId(0, 3)], s) == NodeId(0, 3)


def test_derive_head_prefers_smaller_depth():
    # 1 <- 2 <- 3 <- 4 and 5 <- 1: span {4, 5} has externals at depths 3 and 1
    s = sent(0, [
        ("a", 0, "root", "NOUN"),
        ("b", 1, "nmod", "NOUN"),
        ("c", 2, "nmod", "NOUN"),
        ("d", 3, "nmod", "NOUN"),
        ("e", 1, "nmod", "NOUN"),
    ])
    span = [NodeId(0, 4), NodeId(0, 5)]
    assert derive_head(span, s) == NodeId(0, 5)
    # gapped span with externals at depths 2 and 3 picks the depth-2 node
    span = [NodeId(0, 3), NodeId(0, 4)]
    assert derive_head(span, s) == NodeId(0, 3)


def test_derive_head_position_tie_break():
    s = sent(0, [
        ("r", 0, "root", "VERB"),
        ("x", 1, "obj", "NOUN"),
        ("y", 1, "obl", "NOUN"),
    ])
    assert derive_head([NodeId(0, 2), NodeId(0, 3)], s) == NodeId(0, 2)


def test_derive_head_no_external_parent_warns():
    s = sent(0, [("a", 2, "dep", "X"), ("b", 1, "dep", "X")])
    with pytest.warns(UserWarning):
        assert derive_head([NodeId(0, 1), NodeId(0, 2)], s) == NodeId(0, 1)


def test_derive_head_matches_oracle_on_random_spans():
    rng = random.Random(7)
    for _ in range(150):
        document = random_document(rng, "d", 1, (3, 8), (0, 2))
        sentence = document.sentences[0]
        nodes = [n.id for n in sentence.nodes]
        size = rng.randint(1, len(nodes))
        span = rng.sample(nodes, size)
        got = derive_head(span, sentence)
        assert got in set(span)
        assert got == oracle_derive_head(span, sentence)


def draw_node_keys(draw) -> list[tuple[int, int]]:
    """(major, minor) of a sentence's nodes in order: 1-7 tokens, and up
    to two empty nodes before the first token and after each token."""
    n_tokens = draw(st.integers(1, 7))
    return [(major, minor) for major in range(n_tokens + 1)
            for minor in range(int(major == 0), draw(st.integers(0, 2)) + 1)]


@st.composite
def malformed_trees(draw):
    """A hand-built sentence 0 whose parents are drawn at random: roots,
    self-loops, cycles, and dangling parents (a missing token, a missing
    empty node, a node of another sentence), with empty nodes before the
    first token and after any other; plus a random span over it."""
    ids = [NodeId(0, major, minor) for major, minor in draw_node_keys(draw)]
    dangling = [NodeId(0, ids[-1].major + 1), NodeId(0, 1, 9), NodeId(1, 1)]
    parents = draw(st.lists(st.sampled_from([None, *ids, *dangling]),
                            min_size=len(ids), max_size=len(ids)))
    sentence = Sentence([Node(nid, "w", parent=parent) for nid, parent in zip(ids, parents)])
    span = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids), unique=True))
    return sentence, span


@settings(max_examples=300, deadline=None)
@given(malformed_trees())
def test_derive_head_matches_oracle_on_malformed_trees(case):
    sentence, span = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = derive_head(span, sentence)
    assert got == oracle_derive_head(span, sentence)
    # the fallback, and only it, warns
    members = set(span)
    assert bool(caught) == all(sentence.node(nid).parent in members for nid in span)


@st.composite
def cyclic_conllu(draw):
    """One CoNLL-U sentence whose HEAD and DEPS parents form any graph over
    existing nodes (self-loops, cycles, several roots or none), with empty
    nodes and one entity per random contiguous span of nodes."""
    ids = [NodeId(0, major, minor).conllu_id() for major, minor in draw_node_keys(draw)]
    parents = draw(st.lists(st.sampled_from(["0", *ids]), min_size=len(ids), max_size=len(ids)))
    items = [["", "", ""] for _ in ids]  # closers, singles, openers
    for k in range(draw(st.integers(1, 4))):
        a = draw(st.integers(0, len(ids) - 1))
        b = draw(st.integers(a, len(ids) - 1))
        if a == b:
            items[a][1] += f"(e{k})"
        else:
            items[a][2] += f"(e{k}"
            items[b][0] = f"e{k})" + items[b][0]
    lines = ["# newdoc id = d1", "# sent_id = s1"]
    for cid, parent, node_items in zip(ids, parents, items):
        value = "".join(node_items)
        misc = f"Entity={value}" if value else "_"
        if "." in cid:
            deps = "_" if parent == "0" else f"{parent}:dep"
            lines.append(f"{cid}\tZ\t_\t_\t_\t_\t_\t_\t{deps}\t{misc}")
        else:
            lines.append(f"{cid}\tw\t_\t_\t_\t_\t{parent}\tdep\t_\t{misc}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(cyclic_conllu())
def test_parsed_heads_match_oracle_on_cyclic_trees(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        corpus = parse_conllu(text)
    sentence = corpus.documents[0].sentences[0]
    mentions = [m for e in corpus.entities[0] for m in e.mentions]
    assert mentions
    for mention in mentions:
        assert mention.head == oracle_derive_head(mention.span, sentence)
        assert mention.is_zero == mention.head.is_empty


def test_word_offsets_count_regular_tokens_before_each_sentence():
    d = doc("d1", sent(0, [("a", 0, "root", "X")] + [("w", 1, "dep", "X")] * 4,
                       empties=[(3, 1, "Z", 1, "nsubj")]),
            sent(1, [("a", 0, "root", "X"), ("b", 1, "dep", "X")],
                 empties=[(0, 1, "Z0", 1, "nsubj"), (1, 1, "Z1", 1, "nsubj"),
                          (1, 2, "Z2", 1, "obj")]))
    offsets = word_offsets(d)
    assert offsets == [0, 5, 7] and offsets[-1] == d.word_count()
    # a token is the word it numbers; an empty node counts at the word before it
    words = 0
    for node in (n for s in d.sentences for n in s.nodes):
        words += not node.is_empty
        assert offsets[node.id.sentence_index] + node.id.major == words


def test_mention_geometry():
    d = doc("d1", sent(0, [
        ("a", 0, "root", "VERB"),
        ("b", 1, "nsubj", "NOUN"),
        ("c", 1, "obj", "NOUN"),
        ("d", 3, "nmod", "NOUN"),
    ]))
    gapped = make_mention("e1", [NodeId(0, 2), NodeId(0, 4)], d)
    assert mention_has_gap(gapped, d)
    assert not mention_is_treelet(gapped, d)
    treelet = make_mention("e1", [NodeId(0, 3), NodeId(0, 4)], d)
    assert not mention_has_gap(treelet, d)
    assert mention_is_treelet(treelet, d)


def test_make_mention_flags_zero():
    d = doc("d1", sent(0, [("a", 0, "root", "VERB")],
                       empties=[(1, 1, "Z", 1, "nsubj")]))
    zero = make_mention("e1", [NodeId(0, 1, 1)], d)
    assert zero.is_zero and zero.surface_length() == 0
    surface = make_mention("e1", [NodeId(0, 1)], d)
    assert not surface.is_zero and surface.surface_length() == 1


def test_entity_helper_orders_mentions():
    d = doc("d1", sent(0, [("a", 0, "root", "VERB"), ("b", 1, "obj", "NOUN"),
                           ("c", 1, "obl", "NOUN")]))
    e = ent("e1", d, [(0, 3)], [(0, 1)])
    assert [m.start.major for m in e.mentions] == [1, 3]


def test_parse_retains_under_320_bytes_per_word():
    # 903 B/word before nodes were slotted and ids, strings and empty
    # FEATS/MISC values shared; about 296 since; about 290 since parsing
    # stopped building each sentence's position dict (NodeId, now a
    # tuple, takes 16 B more per node)
    corpus = random_gold(random.Random(2024), n_docs=40, n_sents=(10, 20))
    data = serialize_conllu(corpus).encode("utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = parse_conllu(data)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    words = parsed.word_count()
    assert words == corpus.word_count() > 3_000
    assert retained / words < 320


@settings(max_examples=40, deadline=None)
@given(rich_corpora())
def test_parsed_nodes_share_ids_and_strings(corpus):
    parsed = parse_conllu(serialize_conllu(corpus))
    strings: dict[str, str] = {}
    for document, doc_entities in parsed:
        for sentence in document.sentences:
            own = {node.id: node.id for node in sentence.nodes}
            for node in sentence.nodes:
                assert node.parent is None or node.parent is own[node.parent]
                for text in (node.form, node.lemma, node.upos, node.xpos, node.deprel):
                    assert strings.setdefault(text, text) is text
        for entity in doc_entities:
            for mention in entity.mentions:
                for nid in (*mention.span, mention.head):
                    assert nid is document.node(nid).id


def test_parsed_corpus_survives_pickle():
    corpus = parse_conllu(serialize_conllu(zeroful_corpus(3)))
    back = pickle.loads(pickle.dumps(corpus))
    assert back == corpus
    assert serialize_conllu(back) == serialize_conllu(corpus)
    sentence = back.documents[0].sentences[0]
    child = next(n for n in sentence.nodes if n.parent is not None)
    assert child.parent is sentence.node(child.parent).id
    assert sentence.nodes[0].feats is EMPTY_COLUMN


def test_nodes_take_no_ad_hoc_attributes_and_empty_columns_are_read_only():
    node = parse_conllu(serialize_conllu(zeroful_corpus(3))).documents[0].sentences[0].nodes[0]
    with pytest.raises(AttributeError):
        node.note = "x"
    with pytest.raises((AttributeError, TypeError)):  # TypeError on Python 3.11
        node.id.note = "x"
    assert node.feats == {} and node.misc == {}
    with pytest.raises(TypeError):
        node.feats["Case"] = "Nom"
    with pytest.raises(TypeError):
        node.misc.setdefault("SpaceAfter", "No")
    assert EMPTY_COLUMN == {}
