import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from corefkit.matching import MatchRegime, MentionAlignment
from corefkit.metrics import (
    PRF,
    SINGLETONS_EXCLUDED,
    SINGLETONS_INCLUDED,
    MetricId,
    OverlapTable,
    _Totals,
    _zero_counts,
    aggregate,
    evaluate_corpus,
    pair_documents,
    prepare_document,
    remap_partitions,
    render_records,
    render_score_table,
    score_bcubed,
    score_blanc,
    score_ceaf_e,
    score_conll,
    score_lea,
    score_md_h,
    score_mor,
    score_muc,
    score_zero_anaphora,
)
from corefkit.model import Corpus, Entity, NodeId, make_mention, sort_entity_mentions

from helpers import doc, random_gold, recluster, sent, zeroful_corpus
from oracles import (
    drop_singletons,
    oracle_b3,
    oracle_blanc,
    oracle_ceafe,
    oracle_ceafe_total_dense,
    oracle_cluster_counts,
    oracle_lea,
    oracle_muc,
    oracle_zero_counts,
)

APPROX = 1e-9


def flat_doc(n_tokens=12):
    return doc("d1", sent(0, [("w0", 0, "root", "VERB")]
                          + [(f"w{k}", 1, "obj", "NOUN") for k in range(1, n_tokens)]))


def build_case(document, gold_partition, pred_partition):
    """Partitions are lists of lists of token majors; single-token
    mentions matched by identical span (exact regime semantics)."""
    def entities(partition, prefix):
        out = []
        for k, block in enumerate(partition):
            eid = f"{prefix}{k + 1}"
            out.append(Entity(eid, sort_entity_mentions([
                make_mention(eid, [NodeId(0, major)], document) for major in block
            ])))
        return out

    gold_entities = entities(gold_partition, "g")
    pred_entities = entities(pred_partition, "p")
    gold_mentions = [m for e in gold_entities for m in e.mentions]
    pred_mentions = [m for e in pred_entities for m in e.mentions]
    gold_by_span = {m.span: i for i, m in enumerate(gold_mentions)}
    pairs = [(gold_by_span[m.span], j) for j, m in enumerate(pred_mentions)
             if m.span in gold_by_span]
    alignment = MentionAlignment(gold_mentions, pred_mentions, pairs)
    return gold_entities, pred_entities, alignment


def test_muc_hand_examples():
    d = flat_doc()
    gold_entities, pred_entities, alignment = build_case(d, [[1, 2, 3]], [[1, 2], [3]])
    prf = score_muc(gold_entities, pred_entities, alignment, SINGLETONS_INCLUDED)
    assert prf == PRF(0.5, 1.0, pytest.approx(2 / 3))

    gold_entities, pred_entities, alignment = build_case(
        d, [[1, 2], [3, 4]], [[1, 3], [2, 4]]
    )
    prf = score_muc(gold_entities, pred_entities, alignment, SINGLETONS_INCLUDED)
    assert prf.f1 == 0.0


def test_muc_identity():
    d = flat_doc()
    g, p, a = build_case(d, [[1, 2, 3], [4, 5]], [[1, 2, 3], [4, 5]])
    assert score_muc(g, p, a, SINGLETONS_EXCLUDED) == PRF(1.0, 1.0, 1.0)


def test_muc_all_singletons_degenerate():
    d = flat_doc()
    g, p, a = build_case(d, [[1], [2]], [[1], [2]])
    assert score_muc(g, p, a, SINGLETONS_INCLUDED) == PRF(0.0, 0.0, 0.0)


def test_b3_hand_examples():
    d = flat_doc()
    g, p, a = build_case(d, [[1, 2, 3, 4]], [[1, 2], [3, 4]])
    prf = score_bcubed(g, p, a, SINGLETONS_INCLUDED)
    assert prf == PRF(0.5, 1.0, pytest.approx(2 / 3))

    g, p, a = build_case(d, [[1, 2, 3, 4]], [[1], [2], [3], [4]])
    prf = score_bcubed(g, p, a, SINGLETONS_INCLUDED)
    assert prf.precision == 1.0 and prf.recall == 0.25


def test_ceafe_hand_examples():
    d = flat_doc()
    g, p, a = build_case(d, [[1, 2], [3]], [[1, 3], [2]])
    prf = score_ceaf_e(g, p, a, SINGLETONS_INCLUDED)
    # exhaustive over both bijections: best total phi4 = 2/3 + 2/3
    assert prf.recall == pytest.approx((2 / 3 + 2 / 3) / 2)
    assert prf.precision == pytest.approx((2 / 3 + 2 / 3) / 2)

    g, p, a = build_case(d, [[1, 2, 3, 4]], [[1, 2], [3, 4]])
    prf = score_ceaf_e(g, p, a, SINGLETONS_INCLUDED)
    phi = 2 * 2 / (4 + 2)
    assert prf.recall == pytest.approx(phi)
    assert prf.precision == pytest.approx(phi / 2)


def test_conll_is_the_component_mean():
    muc = PRF(0.5, 0.7, 0.6)
    b3 = PRF(0.6, 0.8, 0.7)
    ceafe = PRF(0.7, 0.9, 0.8)
    prf = score_conll(muc, b3, ceafe)
    assert prf.f1 == pytest.approx(0.7, abs=1e-12)
    assert score_conll(PRF(1, 1, 1), PRF(1, 1, 1), PRF(1, 1, 1)).f1 == 1.0
    assert score_conll(PRF(0, 0, 0), PRF(0, 0, 0), PRF(0, 0, 0)).f1 == 0.0


def test_blanc_hand_example():
    d = flat_doc()
    g, p, a = build_case(d, [[1, 2], [3]], [[1], [2], [3]])
    prf = score_blanc(g, p, a, SINGLETONS_INCLUDED)
    r, pr, f = oracle_blanc(
        [frozenset({("g", 0), ("g", 1)}), frozenset({("g", 2)})],
        [frozenset({("g", 0)}), frozenset({("g", 1)}), frozenset({("g", 2)})],
    )
    assert prf.recall == pytest.approx(r)
    assert prf.precision == pytest.approx(pr)
    assert prf.f1 == pytest.approx(f)
    # coref links empty on the predicted side only: that class scores 0
    assert prf == PRF(pytest.approx(0.5), pytest.approx(1 / 3), pytest.approx(0.4))


def test_blanc_single_link_class():
    d = flat_doc()
    # all singletons on both sides: only non-coref links exist
    g, p, a = build_case(d, [[1], [2]], [[1], [2]])
    prf = score_blanc(g, p, a, SINGLETONS_INCLUDED)
    assert prf == PRF(1.0, 1.0, 1.0)


def test_lea_hand_example():
    d = flat_doc()
    g, p, a = build_case(d, [[1, 2, 3]], [[1, 2], [3]])
    excluded = score_lea(g, p, a, SINGLETONS_EXCLUDED)
    assert excluded.recall == pytest.approx(1 / 3)
    assert excluded.precision == pytest.approx(1.0)

    g, p, a = build_case(d, [[1, 2]], [[1], [2]])
    assert score_lea(g, p, a, SINGLETONS_EXCLUDED).f1 == 0.0


def test_lea_singleton_convention_only_when_included():
    d = flat_doc()
    g, p, a = build_case(d, [[1], [2, 3]], [[1], [2, 3]])
    included = score_lea(g, p, a, SINGLETONS_INCLUDED)
    assert included == PRF(1.0, 1.0, 1.0)
    excluded = score_lea(g, p, a, SINGLETONS_EXCLUDED)
    assert excluded == PRF(1.0, 1.0, 1.0)


def test_mor_and_mdh():
    d = flat_doc()
    gold = [make_mention("g1", [NodeId(0, 1), NodeId(0, 2), NodeId(0, 3)], d)]
    pred = [make_mention("p1", [gold[0].head], d)]
    alignment = MentionAlignment(gold, pred, [(0, 0)])
    mor = score_mor(gold, pred, alignment)
    assert mor.recall == pytest.approx(1 / 3)
    assert mor.precision == pytest.approx(1 / 3)
    mdh = score_md_h(gold, pred)
    assert mdh == PRF(1.0, 1.0, 1.0)
    assert mor.recall < mdh.recall

    none = MentionAlignment(gold, pred, [])
    assert score_mor(gold, pred, none) == PRF(0.0, 0.0, 0.0)


def test_mdh_counts_spurious_heads():
    d = flat_doc()
    gold = [make_mention("g", [NodeId(0, k)], d) for k in (1, 2, 3)]
    pred = gold + [make_mention("p", [NodeId(0, 9)], d)]
    prf = score_md_h(gold, pred)
    assert prf.recall == 1.0
    assert prf.precision == pytest.approx(3 / 4)


def test_zero_score_examples():
    text_doc = doc("d1", sent(0, [("v", 0, "root", "VERB"), ("n", 1, "nsubj", "NOUN")],
                              empties=[(2, 1, "Z", 1, "obj")]))
    surface = make_mention("e1", [NodeId(0, 2)], text_doc)
    zero = make_mention("e1", [NodeId(0, 2, 1)], text_doc)
    gold_entities = [Entity("e1", sort_entity_mentions([surface, zero]))]

    p_surface = make_mention("p1", [NodeId(0, 2)], text_doc)
    p_zero = make_mention("p1", [NodeId(0, 2, 1)], text_doc)

    # perfect prediction
    pred_entities = [Entity("p1", sort_entity_mentions([p_surface, p_zero]))]
    alignment = MentionAlignment([surface, zero], [p_surface, p_zero], [(0, 0), (1, 1)])
    assert score_zero_anaphora(gold_entities, pred_entities, alignment) == PRF(1.0, 1.0, 1.0)

    # zero aligned but clustered alone: unresolved, and not counted in
    # precision's denominator (singleton predicted entity)
    pred_entities = [Entity("p1", [p_surface]), Entity("p2", [p_zero])]
    alignment = MentionAlignment([surface, zero], [p_surface, p_zero], [(0, 0), (1, 1)])
    prf = score_zero_anaphora(gold_entities, pred_entities, alignment)
    assert prf.recall == 0.0 and prf.precision == 0.0

    # zero aligned, clustered with a wrong (non-antecedent) mention
    other = make_mention("p1", [NodeId(0, 1)], text_doc)
    pred_entities = [Entity("p1", sort_entity_mentions([other, p_zero]))]
    alignment = MentionAlignment([surface, zero], [other, p_zero], [(1, 1)])
    prf = score_zero_anaphora(gold_entities, pred_entities, alignment)
    assert prf.recall == 0.0 and prf.precision == 0.0


def _with_zeros_repeated(corpus: Corpus, copies: int) -> Corpus:
    """The corpus with each zero listed ``copies`` times in its entity."""
    return Corpus(corpus.documents, [
        [Entity(e.id, [x for m in e.mentions for x in [m] * (copies if m.is_zero else 1)])
         for e in doc_entities]
        for doc_entities in corpus.entities
    ])


def _with_zeros_shared(corpus: Corpus) -> Corpus:
    """The corpus with one more entity per document, holding the zeros of
    the others, so a zero belongs to two entities."""
    return Corpus(corpus.documents, [
        doc_entities + [Entity("shared", [m for e in doc_entities for m in e.mentions
                                          if m.is_zero])]
        for doc_entities in corpus.entities
    ])


def test_zero_counts_equal_the_quadratic_oracle():
    rng = random.Random(29)
    pairs = []
    for seed in range(8):
        gold = zeroful_corpus(seed)
        pred = recluster(rng, gold, keep_mentions=0.95)
        pairs += [(gold, gold), (gold, pred), (pred, gold)]
        for variant in (_with_zeros_repeated(gold, 2), _with_zeros_repeated(gold, 3),
                        _with_zeros_shared(gold)):
            pairs += [(variant, gold), (gold, variant), (variant, variant), (variant, pred)]
        other = random_gold(rng, n_docs=2)
        pairs.append((other, recluster(rng, other)))
    totals = [0, 0, 0, 0]
    for regime in MatchRegime:
        for mode in (SINGLETONS_INCLUDED, SINGLETONS_EXCLUDED):
            for gold, pred in pairs:
                for gold_doc, gold_entities, pred_doc, pred_entities in pair_documents(gold, pred):
                    scoring = prepare_document(gold_doc, gold_entities, pred_doc, pred_entities,
                                               regime=regime, singleton_mode=mode)
                    args = (scoring.gold_entities, scoring.pred_entities, scoring.alignment)
                    counts = _zero_counts(*args)
                    assert counts == oracle_zero_counts(*args), (regime, mode, gold_doc.doc_id)
                    totals = [t + c for t, c in zip(totals, counts)]
    correct, anaphoric, _, predicted = totals
    assert 0 < correct < anaphoric and predicted > 0

def _oracle_case(rng):
    """Random single-token partitions plus the matched-element map."""
    tokens = list(range(1, 13))
    rng.shuffle(tokens)
    n_gold = rng.randint(2, 8)
    n_pred = rng.randint(2, 8)
    gold_positions = tokens[:n_gold]
    extra = [t for t in tokens if t not in gold_positions]
    pred_positions = rng.sample(gold_positions, rng.randint(1, n_gold)) \
        + extra[:rng.randint(0, 2)]

    def partition(elements, max_blocks=5):
        k = rng.randint(1, min(max_blocks, len(elements)))
        blocks = [[] for _ in range(k)]
        for i, element in enumerate(elements):
            blocks[rng.randrange(k)].append(element)
        return [b for b in blocks if b]

    return partition(gold_positions), partition(pred_positions)


def test_cluster_metrics_match_oracles_on_random_cases():
    rng = random.Random(99)
    d = flat_doc(13)
    for _ in range(60):
        gold_part, pred_part = _oracle_case(rng)
        for mode in (SINGLETONS_INCLUDED, SINGLETONS_EXCLUDED):
            g, p, a = build_case(d, gold_part, pred_part)
            got = {
                "muc": score_muc(g, p, a, mode),
                "b3": score_bcubed(g, p, a, mode),
                "ceafe": score_ceaf_e(g, p, a, mode),
                "blanc": score_blanc(g, p, a, mode),
                "lea": score_lea(g, p, a, mode),
            }
            gold_blocks = [frozenset(b) for b in gold_part]
            pred_blocks = [frozenset(b) for b in pred_part]
            if mode == SINGLETONS_EXCLUDED:
                gold_blocks = drop_singletons(gold_blocks)
                pred_blocks = drop_singletons(pred_blocks)
            matchable = {e for b in gold_blocks for e in b}
            gold_clusters = [frozenset(("g", e) for e in b) for b in gold_blocks]
            pred_clusters = [
                frozenset(("g", e) if e in matchable else ("p", e) for e in b)
                for b in pred_blocks
            ]
            expected = {
                "muc": oracle_muc(gold_clusters, pred_clusters),
                "b3": oracle_b3(gold_clusters, pred_clusters),
                "ceafe": oracle_ceafe(gold_clusters, pred_clusters),
                "blanc": oracle_blanc(gold_clusters, pred_clusters),
                "lea": oracle_lea(gold_clusters, pred_clusters,
                                  mode == SINGLETONS_INCLUDED),
            }
            for name in got:
                r, pr, f = expected[name]
                assert abs(got[name].recall - r) < APPROX, (name, mode)
                assert abs(got[name].precision - pr) < APPROX, (name, mode)
                assert abs(got[name].f1 - f) < APPROX, (name, mode)


@st.composite
def partition_cases(draw):
    """Gold and predicted partitions of token positions, either side
    possibly empty; some predicted positions have no gold mention."""
    n_gold = draw(st.integers(0, 10))
    gold_positions = list(range(1, n_gold + 1))
    matched = draw(st.lists(st.sampled_from(gold_positions), unique=True)) if n_gold else []
    unmatched = list(range(n_gold + 1, n_gold + 1 + draw(st.integers(0, 4))))
    pred_positions = draw(st.permutations(matched + unmatched))

    def partition(elements):
        blocks: dict[int, list[int]] = {}
        for element in elements:
            blocks.setdefault(draw(st.integers(0, 4)), []).append(element)
        return list(blocks.values())

    return partition(gold_positions), partition(pred_positions)


@settings(max_examples=300, deadline=None)
@given(partition_cases(), st.sampled_from([SINGLETONS_INCLUDED, SINGLETONS_EXCLUDED]))
def test_overlap_table_counts_equal_dense_loops_exactly(case, mode):
    gold_part, pred_part = case
    g, p, a = build_case(flat_doc(16), gold_part, pred_part)
    gold_clusters, pred_clusters = remap_partitions(g, p, a, mode)
    table = OverlapTable(gold_clusters, pred_clusters)
    got = {"muc": table.muc(), "b3": table.b3(), "lea": table.lea(mode),
           "ceaf_e": table.ceaf_e(), "blanc": table.blanc()}
    # == on floats: the same terms in the same order, not approximately
    assert got == oracle_cluster_counts(gold_clusters, pred_clusters,
                                        mode == SINGLETONS_INCLUDED)


@st.composite
def cluster_tables(draw):
    """Gold and predicted clusters of up to 60 elements in up to 30 blocks a
    side, so many clusters share a size and CEAF-e's assignment has ties;
    some elements are on one side only."""
    n = draw(st.integers(0, 60))
    blocks = st.integers(0, draw(st.integers(0, 29)))
    gold: dict[int, set[int]] = {}
    pred: dict[int, set[int]] = {}
    for element in range(n):
        side = draw(st.sampled_from(["both", "both", "gold", "pred"]))
        if side != "pred":
            gold.setdefault(draw(blocks), set()).add(element)
        if side != "gold":
            pred.setdefault(draw(blocks), set()).add(element)
    return [frozenset(c) for c in gold.values()], [frozenset(c) for c in pred.values()]


@settings(max_examples=300, deadline=None)
@given(cluster_tables())
def test_ceafe_total_equals_the_dense_table_to_the_bit(case):
    gold, pred = case
    total, _, _, _ = OverlapTable([sorted(c) for c in gold], [sorted(c) for c in pred]).ceaf_e()
    assert total.hex() == oracle_ceafe_total_dense(gold, pred).hex()


def test_ceafe_without_overlap_is_positive_zero():
    # -0.0 would print as -0.00
    recall_num, _, precision_num, _ = OverlapTable([[0], [1, 2]], [[3], [4]]).ceaf_e()
    assert (math.copysign(1, recall_num), math.copysign(1, precision_num)) == (1, 1)
    assert f"{100 * recall_num:.2f}" == "0.00"


def _has_anaphoric_zero(corpus: Corpus) -> bool:
    return any(
        m.is_zero and k > 0
        for doc_entities in corpus.entities
        for e in doc_entities
        for k, m in enumerate(e.mentions)
    )


def test_identity_and_permutation_laws_on_random_corpora():
    rng = random.Random(3)
    for seed in range(5):
        corpus = random_gold(random.Random(seed), n_docs=2)
        renamed = Corpus(corpus.documents, [
            [Entity(f"x{k}", e.mentions) for k, e in enumerate(doc_entities)]
            for doc_entities in corpus.entities
        ])
        for mode in (SINGLETONS_INCLUDED, SINGLETONS_EXCLUDED):
            scores = evaluate_corpus(corpus, renamed, singleton_mode=mode)
            for metric, prf in scores.items():
                if metric is MetricId.ZERO_SCORE and not _has_anaphoric_zero(corpus):
                    assert prf.f1 == 0.0  # degenerate 0/0 reported as 0
                else:
                    assert prf.f1 == 1.0, (metric, mode)
        pred = recluster(rng, corpus)
        base = evaluate_corpus(corpus, pred)
        renamed_scores = evaluate_corpus(corpus, Corpus(pred.documents, [
            [Entity(f"q{k}", e.mentions) for k, e in enumerate(doc_entities)]
            for doc_entities in pred.entities
        ]))
        for metric in base:
            assert base[metric] == renamed_scores[metric]
            prf = base[metric]
            assert 0.0 <= prf.recall <= 1.0
            assert 0.0 <= prf.precision <= 1.0
            assert 0.0 <= prf.f1 <= 1.0


def test_conll_linearity():
    rng = random.Random(17)
    corpus = random_gold(rng, n_docs=2)
    pred = recluster(rng, corpus)
    scores = evaluate_corpus(corpus, pred)
    mean = (scores[MetricId.MUC].f1 + scores[MetricId.B3].f1
            + scores[MetricId.CEAF_E].f1) / 3
    assert abs(scores[MetricId.CONLL].f1 - mean) < 1e-12


def test_singleton_sensitivity():
    rng = random.Random(23)
    corpus = random_gold(rng, n_docs=1, entities_per_doc=(3, 5))
    pred = recluster(rng, corpus)
    base = evaluate_corpus(corpus, pred, singleton_mode=SINGLETONS_EXCLUDED)

    document = corpus.documents[0]
    extra = Entity("extra_single",
                   [make_mention("extra_single", [document.sentences[0].nodes[0].id],
                                 document)])
    gold_plus = Corpus(corpus.documents, [corpus.entities[0] + [extra]])
    pred_plus = Corpus(pred.documents, [pred.entities[0] + [Entity("xp", extra.mentions)]])
    with_singleton = evaluate_corpus(gold_plus, pred_plus,
                                     singleton_mode=SINGLETONS_EXCLUDED)
    for metric in base:
        assert base[metric] == with_singleton[metric], metric


def test_aggregate_macro_mean_and_missing_metric():
    a = {MetricId.CONLL: PRF(0.5, 0.7, 0.6)}
    b = {MetricId.CONLL: PRF(0.7, 0.9, 0.8)}
    report = aggregate({"d1": a, "d2": b})
    assert report.macro[MetricId.CONLL].f1 == pytest.approx(0.7)
    assert report.macro[MetricId.CONLL].recall == pytest.approx(0.6)
    with pytest.raises(ValueError, match="d2.*conll|conll.*d2"):
        aggregate({"d1": a, "d2": {}})
    with pytest.raises(ValueError):
        aggregate({})


def test_render_table_and_records():
    report = aggregate({"demo": {MetricId.CONLL: PRF(0.5, 0.7, 0.583333)}})
    table = render_score_table(report)
    lines = table.strip().split("\n")
    assert lines[0] == "dataset\tconll"
    assert lines[1].startswith("demo\t50.00 / 70.00 / 58.33")
    assert lines[2].startswith("macro\t")
    records = render_records(report)
    assert '"metric": "conll"' in records
    assert '"scope": "macro"' in records


@pytest.mark.parametrize("side", ["gold", "pred"])
def test_a_document_id_that_repeats_on_one_side_is_refused(side):
    """Documents pair by id, so a repeated id would leave one of its
    documents unpaired; a parsed input refuses it as a duplicate."""
    corpus = random_gold(random.Random(2), n_docs=2)
    twice = Corpus(corpus.documents + corpus.documents[:1], corpus.entities + corpus.entities[:1])
    gold, pred = (twice, corpus) if side == "gold" else (corpus, twice)
    with pytest.raises(ValueError, match="a document id repeats within gold or prediction"):
        evaluate_corpus(gold, pred)


def test_scoring_one_document_at_a_time_onto_running_totals_gives_the_corpus_scores():
    rng = random.Random(7)
    gold = random_gold(rng, n_docs=4)
    pred = recluster(rng, gold)
    for regime in MatchRegime:
        for mode in (SINGLETONS_EXCLUDED, SINGLETONS_INCLUDED):
            totals = _Totals(conll_only=False)
            for g, p in zip(gold, pred):
                assert evaluate_corpus(Corpus(*map(list, zip(g))), Corpus(*map(list, zip(p))),
                                       regime=regime, singleton_mode=mode, totals=totals) is None
            assert totals.scores() == evaluate_corpus(gold, pred, regime=regime,
                                                      singleton_mode=mode)
