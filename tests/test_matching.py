import random

import pytest
from hypothesis import given, settings, strategies as st

from corefkit.matching import (
    MatchRegime,
    MentionAlignment,
    TokenMismatchError,
    align_zeros,
    build_alignment,
    match_surface,
    solve_assignment,
)
from corefkit.model import Entity, Mention, NodeId, make_mention, sort_entity_mentions

from helpers import doc, ent, random_gold, recluster, sent
from oracles import oracle_assignment, oracle_best_matching_weight, oracle_partial_pairs


def flat_doc(n_tokens: int, si: int = 0):
    return doc("d1", sent(si, [("w0", 0, "root", "VERB")]
                          + [(f"w{k}", 1, "obj", "NOUN") for k in range(1, n_tokens)]))


def mention(document, majors, eid="e1", si=0):
    return make_mention(eid, [NodeId(si, m) for m in majors], document)


def test_head_match_pairs_head_sharing_mentions():
    d = doc("d1", sent(0, [
        ("a", 0, "root", "VERB"), ("b", 4, "x", "X"), ("c", 4, "x", "X"),
        ("d", 1, "obj", "NOUN"), ("e", 4, "x", "X"),
    ]))
    gold = [mention(d, [3, 4, 5])]
    pred = [mention(d, [4])]
    assert gold[0].head == NodeId(0, 4) == pred[0].head
    aligned = match_surface(gold, pred, MatchRegime.HEAD)
    assert aligned.pairs == [(0, 0)]
    exact = match_surface(gold, pred, MatchRegime.EXACT)
    assert exact.pairs == [] and len(exact.gold) == len(exact.pred) == 1


def test_head_collision_resolved_by_exact_span_then_overlap():
    d = doc("d1", sent(0, [
        ("r", 0, "root", "VERB"),
        ("x", 7, "a", "X"), ("y", 7, "a", "X"),  # fillers
        ("p", 7, "a", "X"), ("q", 7, "a", "X"),
        ("u", 7, "a", "X"),
        ("h", 1, "obj", "NOUN"),
        ("v", 7, "a", "X"),
    ]))
    gold = [mention(d, [7]), mention(d, [6, 7, 8])]
    pred = [mention(d, [6, 7, 8]), mention(d, [7])]
    aligned = match_surface(gold, pred, MatchRegime.HEAD)
    # brute force over both bijections: equal spans must pair
    assert sorted(aligned.pairs) == [(0, 1), (1, 0)]


def test_partial_match_requires_subset_containing_gold_head():
    d = doc("d1", sent(0, [
        ("a", 2, "det", "DET"), ("b", 0, "root", "NOUN"),
        ("c", 2, "nmod", "NOUN"), ("d", 2, "obl", "NOUN"),
    ]))
    gold = [mention(d, [1, 2, 3])]
    inside_with_head = [mention(d, [1, 2])]
    inside_without_head = [mention(d, [1])]
    outside = [mention(d, [2, 3, 4])]
    assert match_surface(gold, inside_with_head, MatchRegime.PARTIAL).pairs == [(0, 0)]
    assert match_surface(gold, inside_without_head, MatchRegime.PARTIAL).pairs == []
    assert match_surface(gold, outside, MatchRegime.PARTIAL).pairs == []


def test_partial_match_prefers_larger_overlap():
    d = doc("d1", sent(0, [
        ("a", 2, "det", "DET"), ("b", 0, "root", "NOUN"), ("c", 2, "nmod", "NOUN"),
    ]))
    gold = [mention(d, [1, 2, 3])]
    pred = [mention(d, [2]), mention(d, [1, 2, 3])]
    aligned = match_surface(gold, pred, MatchRegime.PARTIAL)
    assert aligned.pairs == [(0, 1)]


# two sentences of six tokens, with empty nodes after tokens 2 and 5
NODES = [NodeId(si, major, minor) for si in (0, 1) for major in range(1, 7)
         for minor in ((0, 1, 2) if major in (2, 5) else (0,))]


@st.composite
def surface_mentions(draw, inside=None):
    """A mention over any nodes of NODES, or over a subset of ``inside``
    when given; spans may skip nodes and may hold empty nodes, the head
    is a token."""
    pool = NODES if inside is None else sorted(inside)
    span = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    tokens = [n for n in span if not n.is_empty]
    if not tokens:
        tokens = [draw(st.sampled_from([n for n in pool if not n.is_empty]))]
        span += tokens
    return Mention("e", tuple(sorted(span)), draw(st.sampled_from(tokens)), False)


@st.composite
def partial_cases(draw):
    gold = draw(st.lists(surface_mentions(), max_size=8))
    pred = []
    for _ in range(draw(st.integers(0, 10))):
        if gold and draw(st.booleans()):  # often inside a gold span
            pred.append(draw(surface_mentions(inside=draw(st.sampled_from(gold)).span)))
        else:
            pred.append(draw(surface_mentions()))
    return gold, draw(st.permutations(pred))


@settings(max_examples=300, deadline=None)
@given(partial_cases())
def test_partial_node_index_equals_brute_force_scan(case):
    gold, pred = case
    assert match_surface(gold, pred, MatchRegime.PARTIAL).pairs == \
        oracle_partial_pairs(gold, pred)


def test_exact_match_symmetry_is_a_transpose():
    rng = random.Random(11)
    corpus = random_gold(rng, n_docs=1)
    pred = recluster(rng, corpus)
    gold_mentions = [m for e in corpus[0][1] for m in e.mentions if not m.is_zero]
    pred_mentions = [m for e in pred[0][1] for m in e.mentions if not m.is_zero]
    forward = match_surface(gold_mentions, pred_mentions, MatchRegime.EXACT)
    backward = match_surface(pred_mentions, gold_mentions, MatchRegime.EXACT)
    assert sorted((p, g) for g, p in forward.pairs) == sorted(backward.pairs)


def test_every_exact_pair_is_a_head_pair():
    rng = random.Random(13)
    for _ in range(20):
        corpus = random_gold(rng, n_docs=1)
        pred = recluster(rng, corpus)
        gold_mentions = [m for e in corpus[0][1] for m in e.mentions if not m.is_zero]
        pred_mentions = [m for e in pred[0][1] for m in e.mentions if not m.is_zero]
        exact = match_surface(gold_mentions, pred_mentions, MatchRegime.EXACT)
        head = match_surface(gold_mentions, pred_mentions, MatchRegime.HEAD)
        exact_pairs = {(gold_mentions[g].span, pred_mentions[p].span)
                       for g, p in exact.pairs}
        head_pairs = {(gold_mentions[g].span, pred_mentions[p].span)
                      for g, p in head.pairs}
        assert exact_pairs <= head_pairs


def zero_doc(doc_id, parents_deprels, n_tokens=8):
    """One sentence of n_tokens, plus one empty node per (anchor, parent,
    deprel) triple."""
    tokens = [("w0", 0, "root", "VERB")] + \
        [(f"w{k}", 1, "obj", "NOUN") for k in range(1, n_tokens)]
    empties = [
        (anchor, minor, f"Z{k}", parent, deprel)
        for k, (anchor, minor, parent, deprel) in enumerate(parents_deprels)
    ]
    return doc(doc_id, sent(0, tokens, empties))


def zero_mentions(document, eid="z"):
    mentions = []
    for node in document.sentences[0].nodes:
        if node.is_empty:
            mentions.append(make_mention(eid, [node.id], document))
    return mentions


def test_zero_alignment_weights():
    gold_doc = zero_doc("d1", [(3, 1, 5, "nsubj")])
    # same parent and label: weight 2
    pred_doc = zero_doc("d1", [(4, 1, 5, "nsubj")])
    aligned = align_zeros(zero_mentions(gold_doc), zero_mentions(pred_doc),
                          gold_doc, pred_doc)
    assert aligned.pairs == [(0, 0)]
    # correct parent, missing label: still matched (weight 1)
    pred_doc = zero_doc("d1", [(4, 1, 5, "_")])
    aligned = align_zeros(zero_mentions(gold_doc), zero_mentions(pred_doc),
                          gold_doc, pred_doc)
    assert aligned.pairs == [(0, 0)]
    # wrong parent: zero weight, never matched
    pred_doc = zero_doc("d1", [(3, 1, 6, "nsubj")])
    aligned = align_zeros(zero_mentions(gold_doc), zero_mentions(pred_doc),
                          gold_doc, pred_doc)
    assert aligned.pairs == []


def test_zero_alignment_tie_breaks_on_position():
    gold_doc = zero_doc("d1", [(2, 1, 5, "nsubj"), (5, 1, 5, "nsubj")])
    pred_doc = zero_doc("d1", [(3, 1, 5, "nsubj"), (5, 1, 5, "nsubj")])
    aligned = align_zeros(zero_mentions(gold_doc), zero_mentions(pred_doc),
                          gold_doc, pred_doc)
    assert aligned.pairs == [(0, 0), (1, 1)]


def _random_zero_case(rng, max_each=6):
    n_tokens = 8
    def side(count):
        specs = []
        anchors = rng.sample(range(1, n_tokens), min(count, n_tokens - 1))
        for anchor in anchors:
            specs.append((anchor, 1, rng.randrange(1, n_tokens),
                          rng.choice(["nsubj", "obj", "_"])))
        return specs
    gold_doc = zero_doc("d1", side(rng.randint(0, max_each)))
    pred_doc = zero_doc("d1", side(rng.randint(0, max_each)))
    return gold_doc, pred_doc


def _oracle_weights(gold_doc, pred_doc):
    def profile(document):
        out = []
        for node in document.sentences[0].nodes:
            if node.is_empty:
                out.append((node.parent.major if node.parent else None, node.deprel))
        return out
    gold, pred = profile(gold_doc), profile(pred_doc)
    matrix = []
    for gp, gl in gold:
        row = []
        for pp, pl in pred:
            w = 0.0
            if gp is not None and gp == pp:
                w = 2.0 if gl == pl else 1.0
            row.append(w)
        matrix.append(row)
    return matrix


def test_zero_alignment_is_optimal_against_enumeration():
    rng = random.Random(29)
    for _ in range(250):
        gold_doc, pred_doc = _random_zero_case(rng)
        gold = zero_mentions(gold_doc)
        pred = zero_mentions(pred_doc)
        aligned = align_zeros(gold, pred, gold_doc, pred_doc)
        matrix = _oracle_weights(gold_doc, pred_doc)
        got = sum(matrix[g][p] for g, p in aligned.pairs)
        best = oracle_best_matching_weight(matrix) if matrix and matrix[0] else 0.0
        assert got == best
        assert all(matrix[g][p] > 0 for g, p in aligned.pairs)


def test_large_sentence_uses_assignment_solver_and_stays_optimal():
    rng = random.Random(31)
    for _ in range(10):
        n = 7  # beyond the exhaustive limit
        gold_doc = zero_doc("d1", [(k, 1, rng.randrange(1, 10), rng.choice(["nsubj", "obj"]))
                                   for k in range(1, n + 1)], n_tokens=12)
        pred_doc = zero_doc("d1", [(k, 1, rng.randrange(1, 10), rng.choice(["nsubj", "obj"]))
                                   for k in range(1, n + 1)], n_tokens=12)
        gold, pred = zero_mentions(gold_doc), zero_mentions(pred_doc)
        aligned = align_zeros(gold, pred, gold_doc, pred_doc)
        matrix = _oracle_weights(gold_doc, pred_doc)
        got = sum(matrix[g][p] for g, p in aligned.pairs)
        assert got == oracle_best_matching_weight(matrix)


@pytest.mark.parametrize("extra", range(7))
def test_zero_pairs_do_not_depend_on_unrelated_zeros(extra):
    """Zeros on another parent cannot move a pair: the predicted zero
    takes the label-agreeing gold zero 5.1 (weight 2) over the nearer 1.1
    (weight 1), also from 5 extra zeros on, where the gold side exceeds
    the exhaustive limit and the assignment solver decides."""
    slots = [(1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]
    gold_doc = zero_doc("d1", [(1, 1, 2, "b"), (5, 1, 2, "a")]
                        + [(anchor, minor, 6, "a") for anchor, minor in slots[:extra]],
                        n_tokens=6)
    pred_doc = zero_doc("d1", [(1, 1, 2, "a")], n_tokens=6)
    gold = zero_mentions(gold_doc)
    aligned = align_zeros(gold, zero_mentions(pred_doc), gold_doc, pred_doc)
    assert [(gold[g].head, p) for g, p in aligned.pairs] == [(NodeId(0, 5, 1), 0)]


# few distinct costs, so equal-cost choices abound; -2/3 and -0.4 sum inexactly
TIE_COSTS = [-2.0, -1.0, -2 / 3, -0.4, -0.1, 0.0, 0.3, 1.0]


@st.composite
def sparse_tables(draw):
    """(rows, n_cols, background) of up to 40 x 40, wide or tall, with up
    to three distinct stored costs and empty rows and columns."""
    n_rows, n_cols = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    costs = draw(st.lists(st.sampled_from(TIE_COSTS), min_size=1, max_size=3, unique=True))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    empty_rows = set(rng.sample(range(n_rows), rng.randint(0, n_rows // 3)))
    empty_cols = set(rng.sample(range(n_cols), rng.randint(0, n_cols // 3)))
    rows = [{j: rng.choice(costs) for j in range(n_cols)
             if j not in empty_cols and rng.random() < density}
            if i not in empty_rows else {} for i in range(n_rows)]
    return rows, n_cols, draw(st.sampled_from([0.0, 1e9]))


@settings(max_examples=500, deadline=None)
@given(sparse_tables())
def test_solve_assignment_returns_scipys_choice_on_the_dense_table(table):
    assert solve_assignment(*table) == oracle_assignment(*table)


def test_build_alignment_identity_and_union():
    rng = random.Random(37)
    corpus = random_gold(rng, n_docs=1)
    document, entities = corpus[0]
    aligned = build_alignment(document, entities, document, entities)
    assert len(aligned.pairs) == len(aligned.gold) == len(aligned.pred)
    for g, p in aligned.pairs:
        assert aligned.gold[g].span == aligned.pred[p].span

    pred = recluster(rng, corpus)
    combined = build_alignment(document, entities, document, pred[0][1])
    # union oracle: recompute the two sub-alignments independently
    gold_mentions = [m for e in entities for m in e.mentions]
    pred_mentions = [m for e in pred[0][1] for m in e.mentions]
    surface = match_surface([m for m in gold_mentions if not m.is_zero],
                            [m for m in pred_mentions if not m.is_zero])
    zeros = align_zeros([m for m in gold_mentions if m.is_zero],
                        [m for m in pred_mentions if m.is_zero],
                        document, document)
    expected = {
        (gold_mentions.index(surface.gold[g]), pred_mentions.index(surface.pred[p]))
        for g, p in surface.pairs
    } | {
        (gold_mentions.index(zeros.gold[g]), pred_mentions.index(zeros.pred[p]))
        for g, p in zeros.pairs
    }
    assert set(combined.pairs) == expected


def test_gold_zeros_without_predictions_stay_unmatched():
    gold_doc = zero_doc("d1", [(3, 1, 5, "nsubj")])
    gold_entities = [Entity("e1", sort_entity_mentions(
        [make_mention("e1", [NodeId(0, 2)], gold_doc),
         make_mention("e1", [NodeId(0, 3, 1)], gold_doc)]))]
    pred_doc = doc("d1", sent(0, [("w0", 0, "root", "VERB")]
                              + [(f"w{k}", 1, "obj", "NOUN") for k in range(1, 8)]))
    pred_entities = [ent("p1", pred_doc, [(0, 2)], [(0, 4)])]
    aligned = build_alignment(gold_doc, gold_entities, pred_doc, pred_entities)
    paired = {g for g, _ in aligned.pairs}
    assert any(m.is_zero for g, m in enumerate(aligned.gold) if g not in paired)


def test_token_mismatch_suggests_cleaner():
    a = doc("d1", sent(0, [("x", 0, "root", "X")]))
    b = doc("d1", sent(0, [("y", 0, "root", "X")]))
    with pytest.raises(TokenMismatchError, match="cleaner"):
        build_alignment(a, [], b, [])


@pytest.mark.parametrize("pred_tokens, message", [
    (["x", "z"], "surface token 2 differs ('y' vs 'z')"),
    (["x"], "surface token counts differ (2 vs 1)"),
    (["x", "y", "w"], "surface token counts differ (2 vs 3)"),
])
def test_token_mismatch_names_the_first_difference(pred_tokens, message):
    def one_sentence(forms):
        return doc("d1", sent(0, [(forms[0], 0, "root", "X")]
                              + [(form, 1, "dep", "X") for form in forms[1:]]))

    with pytest.raises(TokenMismatchError) as err:
        build_alignment(one_sentence(["x", "y"]), [], one_sentence(pred_tokens), [])
    assert str(err.value) == f"document 'd1': {message}; run the output cleaner first"


def test_alignment_injectivity_validated():
    d = flat_doc(4)
    m1, m2 = mention(d, [1]), mention(d, [2])
    with pytest.raises(ValueError):
        MentionAlignment([m1], [m2, m2], [(0, 0), (0, 1)])
