"""Acceptance suite: one test per contract criterion, each printing a
PASS line (visible with pytest -s or in the captured output on failure).

Every expected value is either computed by an independent brute-force
oracle in oracles.py, derived by hand in a fixture small enough to
check on paper, or forced by an exact mathematical law.
"""

import random
import time
import warnings

import pytest

from corefkit.analysis import (
    corpus_stats,
    long_range_curve,
    p95_range,
    sample_split,
    upos_factorized_score,
)
from corefkit.formats import (
    clean_output,
    from_plaintext,
    plain_mentions,
    reconstruct_conllu,
    reconstruct_from_json,
    to_json,
    to_plaintext,
)
from corefkit.matching import MatchRegime, align_zeros
from corefkit.metrics import (
    SINGLETONS_EXCLUDED,
    SINGLETONS_INCLUDED,
    MetricId,
    MentionAlignment,
    evaluate_corpus,
    score_bcubed,
    score_blanc,
    score_ceaf_e,
    score_lea,
    score_muc,
)
from corefkit.model import (
    Document,
    Entity,
    NodeId,
    make_mention,
    sort_entity_mentions,
    word_offsets,
)

from helpers import (
    Pairs,
    canonical_clusters,
    doc,
    ent,
    random_gold,
    recluster,
    sent,
    zeroful_corpus,
)
from oracles import (
    drop_singletons,
    oracle_b3,
    oracle_best_matching_weight,
    oracle_blanc,
    oracle_ceafe,
    oracle_lea,
    oracle_muc,
    oracle_nearest_rank_p95,
)
from test_analysis import stats_fixture
from test_matching import _oracle_weights, _random_zero_case, zero_mentions

TOL = 1e-9


def ok(message: str) -> None:
    print(f"ACCEPTANCE PASS: {message}")


def flat_doc(n_tokens=14):
    return doc("d1", sent(0, [("w0", 0, "root", "VERB")]
                          + [(f"w{k}", 1, "obj", "NOUN") for k in range(1, n_tokens)]))


# ---------------------------------------------------------------------------
# 1. Metric oracle suite.

def _partition(rng, elements, max_blocks=5):
    k = rng.randint(1, min(max_blocks, len(elements)))
    blocks = [[] for _ in range(k)]
    for i, element in enumerate(elements):
        blocks[rng.randrange(k)].append(element)
    return [b for b in blocks if b]


def test_metric_oracle_suite_200_documents():
    rng = random.Random(20_26)
    document = flat_doc(14)
    started = time.perf_counter()
    checked = 0
    for _ in range(200):
        tokens = list(range(1, 13))
        rng.shuffle(tokens)
        n_gold = rng.randint(2, 8)
        gold_positions = tokens[:n_gold]
        extras = [t for t in tokens if t not in gold_positions]
        pred_positions = rng.sample(gold_positions, rng.randint(1, n_gold)) \
            + extras[:rng.randint(0, 2)]
        gold_part = _partition(rng, gold_positions)
        pred_part = _partition(rng, pred_positions)

        def build(partition, prefix):
            out = []
            for k, block in enumerate(partition):
                eid = f"{prefix}{k + 1}"
                out.append(Entity(eid, sort_entity_mentions([
                    make_mention(eid, [NodeId(0, major)], document)
                    for major in block
                ])))
            return out

        gold_entities = build(gold_part, "g")
        pred_entities = build(pred_part, "p")
        gold_mentions = [m for e in gold_entities for m in e.mentions]
        pred_mentions = [m for e in pred_entities for m in e.mentions]
        by_span = {m.span: i for i, m in enumerate(gold_mentions)}
        alignment = MentionAlignment(
            gold_mentions, pred_mentions,
            [(by_span[m.span], j) for j, m in enumerate(pred_mentions)
             if m.span in by_span],
        )

        for mode in (SINGLETONS_INCLUDED, SINGLETONS_EXCLUDED):
            got = {
                "muc": score_muc(gold_entities, pred_entities, alignment, mode),
                "b3": score_bcubed(gold_entities, pred_entities, alignment, mode),
                "ceaf_e": score_ceaf_e(gold_entities, pred_entities, alignment, mode),
                "blanc": score_blanc(gold_entities, pred_entities, alignment, mode),
                "lea": score_lea(gold_entities, pred_entities, alignment, mode),
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
                "ceaf_e": oracle_ceafe(gold_clusters, pred_clusters),
                "blanc": oracle_blanc(gold_clusters, pred_clusters),
                "lea": oracle_lea(gold_clusters, pred_clusters,
                                  mode == SINGLETONS_INCLUDED),
            }
            for name, prf in got.items():
                r, p, f = expected[name]
                assert abs(prf.recall - r) < TOL, (name, mode)
                assert abs(prf.precision - p) < TOL, (name, mode)
                assert abs(prf.f1 - f) < TOL, (name, mode)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"
    ok(f"metric oracle suite: {checked} scores over 200 documents match "
       f"brute force within 1e-9 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Identity and zero laws.

def test_identity_and_zero_laws():
    for seed in (0, 1, 2):
        gold = zeroful_corpus(seed)
        renamed = [
            (document, [Entity(f"x{k}", e.mentions) for k, e in enumerate(doc_entities)])
            for document, doc_entities in gold
        ]
        for mode in (SINGLETONS_INCLUDED, SINGLETONS_EXCLUDED):
            scores = evaluate_corpus(gold, renamed, singleton_mode=mode)
            for metric, prf in scores.items():
                assert prf.f1 == 1.0, (metric, mode)
                assert prf.recall == 1.0 and prf.precision == 1.0

    # disjoint clusterings have MUC F1 = 0
    d = flat_doc()
    def cluster(prefix, blocks):
        out = []
        for k, block in enumerate(blocks):
            eid = f"{prefix}{k}"
            out.append(ent(eid, d, *[[(0, m)] for m in block]))
        return out
    gold = [(d, cluster("g", [[1, 2], [3, 4]]))]
    pred = [(d, cluster("p", [[1, 3], [2, 4]]))]
    scores = evaluate_corpus(gold, pred, regime=MatchRegime.EXACT,
                             singleton_mode=SINGLETONS_INCLUDED)
    assert scores[MetricId.MUC].f1 == 0.0

    # CoNLL F1 is the mean of the three constituent F1s to 1e-12
    rng = random.Random(77)
    for seed in range(5):
        gold = zeroful_corpus(seed + 50)
        pred = recluster(rng, gold)
        scores = evaluate_corpus(gold, pred)
        mean = (scores[MetricId.MUC].f1 + scores[MetricId.B3].f1
                + scores[MetricId.CEAF_E].f1) / 3
        assert abs(scores[MetricId.CONLL].f1 - mean) < 1e-12
    ok("identity law (all metrics = 1.0 exactly), disjoint MUC = 0, "
       "CoNLL linearity at 1e-12")


# ---------------------------------------------------------------------------
# 3. Head-only system reproduces the matching-regime column semantics.

def multiword_corpus(seed: int) -> Pairs:
    rng = random.Random(seed)
    documents, entities = [], []
    lengths = [3, 2, 4, 1, 3, 2, 3, 1, 2, 3]
    for d in range(3):
        sentences = []
        for si in range(4):
            sentences.append(sent(si, [("t0", 0, "root", "VERB")]
                                  + [(f"t{k}", 1, "obj", "NOUN")
                                     for k in range(1, 14)]))
        document = Document(f"doc{d + 1}", sentences)
        documents.append(document)
        doc_entities = []
        spans = []
        for si in range(4):
            cursor = 1
            li = rng.randrange(len(lengths))
            while cursor + lengths[li] - 1 <= 14:
                span = [NodeId(si, cursor + off) for off in range(lengths[li])]
                spans.append(span)
                cursor += lengths[li] + 1
                li = (li + 1) % len(lengths)
        rng.shuffle(spans)
        for k in range(0, len(spans) - 1, 2):
            eid = f"e{k}"
            doc_entities.append(Entity(eid, sort_entity_mentions([
                make_mention(eid, span, document) for span in spans[k:k + 2]
            ])))
        entities.append(doc_entities)
    return list(zip(documents, entities))


def test_head_only_system_regime_columns():
    gold = multiword_corpus(9)
    pred = []
    for document, doc_entities in gold:
        preds = []
        for k, entity in enumerate(doc_entities):
            eid = f"h{k}"
            preds.append(Entity(eid, sort_entity_mentions([
                make_mention(eid, (m.head,), document) for m in entity.mentions
            ])))
        pred.append((document, preds))

    multiword_share = sum(
        1 for _, de in gold for e in de for m in e.mentions
        if m.surface_length() > 1
    ) / sum(len(e.mentions) for _, de in gold for e in de)
    assert multiword_share > 0.7  # precondition for a visible exact-match drop

    head = evaluate_corpus(gold, pred, regime=MatchRegime.HEAD)
    partial = evaluate_corpus(gold, pred, regime=MatchRegime.PARTIAL)
    exact = evaluate_corpus(gold, pred, regime=MatchRegime.EXACT)

    assert head[MetricId.CONLL].f1 == pytest.approx(1.0, abs=TOL)
    assert abs(head[MetricId.CONLL].f1 - partial[MetricId.CONLL].f1) < 0.02
    drop = 100 * (head[MetricId.CONLL].f1 - exact[MetricId.CONLL].f1)
    assert drop >= 20.0, f"exact-match drop was only {drop:.1f} points"

    mor = head[MetricId.MOR]
    mdh = head[MetricId.MD_H]
    assert mdh.recall == pytest.approx(1.0, abs=TOL)
    assert mor.recall < mdh.recall - 0.2
    ok(f"head-only system: head == partial CoNLL, exact drops {drop:.1f} "
       f"points, MOR recall {mor.recall:.2f} well below MD-h recall {mdh.recall:.2f}")


# ---------------------------------------------------------------------------
# 4. Zero alignment optimality.

def test_zero_alignment_optimality_1000_cases():
    rng = random.Random(4242)
    for _ in range(1000):
        gold_doc, pred_doc = _random_zero_case(rng, max_each=6)
        gold = zero_mentions(gold_doc)
        pred = zero_mentions(pred_doc)
        aligned = align_zeros(gold, pred, gold_doc, pred_doc)
        matrix = _oracle_weights(gold_doc, pred_doc)
        got = sum(matrix[g][p] for g, p in aligned.pairs)
        best = oracle_best_matching_weight(matrix) if matrix and matrix[0] else 0.0
        assert got == best  # exact equality
    ok("zero alignment equals the exhaustive-enumeration maximum on "
       "1000 random sentences (<=6 x <=6)")


# ---------------------------------------------------------------------------
# 5. Format round trips.

def test_format_round_trip_over_50_documents():
    rng = random.Random(5050)
    corpus = random_gold(rng, n_docs=50, n_sents=(2, 4),
                         entities_per_doc=(3, 6), empty_parent_mode="anchor")
    some_zero = any(m.is_zero for _, de in corpus for e in de for m in e.mentions)
    some_singleton = any(e.is_singleton for _, de in corpus for e in de)
    nested = 0
    for _, doc_entities in corpus:
        spans = [(m.start, m.end) for e in doc_entities for m in e.mentions]
        nested += sum(
            1 for a in spans for b in spans
            if a != b and a[0] <= b[0] and b[1] <= a[1]
        )
    assert some_zero and some_singleton and nested > 0

    for document, doc_entities in corpus:
        line = to_plaintext(document, doc_entities).render()
        _, text_back = reconstruct_conllu(document, from_plaintext(line))
        assert canonical_clusters(text_back) == canonical_clusters(doc_entities), \
            f"plaintext round trip lost clusters in {document.doc_id}"
        _, json_back = reconstruct_from_json(to_json(document, doc_entities), document)
        assert canonical_clusters(json_back) == canonical_clusters(doc_entities), \
            f"JSON round trip lost clusters in {document.doc_id}"
    ok("plaintext and JSON round trips preserve all (cluster, span) "
       "multisets over 50 documents (100%)")


# ---------------------------------------------------------------------------
# 6. Cleaner recovery under random corruption.

def _corrupt(rng, tokens, spans, k):
    """Apply k token edits plus dropped closers; returns the noisy token
    list and the set of span indices touched by the corruption."""
    current = list(tokens)
    origin = list(range(len(tokens)))  # original position per current token
    touched = set()

    def touch_position(pos):
        for index, (eid, start, end) in enumerate(spans):
            if start <= pos <= end:
                touched.add(index)

    for _ in range(k):
        op = rng.choice(["ins", "del", "sub", "drop_closer"])
        if op == "ins":
            at = rng.randrange(len(current) + 1)
            current.insert(at, rng.choice(["lorem", "ipsum", "dolor"]))
            origin.insert(at, None)
        elif op == "del" and len(current) > 1:
            at = rng.randrange(len(current))
            if origin[at] is not None:
                touch_position(origin[at])
                if tokens[origin[at]].startswith("##"):
                    # co-anchored zeros shift together when one disappears
                    for probe in range(origin[at] + 1, len(tokens)):
                        if not tokens[probe].startswith("##"):
                            break
                        touch_position(probe)
            current.pop(at)
            origin.pop(at)
        elif op == "sub":
            at = rng.randrange(len(current))
            if origin[at] is not None:
                touch_position(origin[at])
            suffix = current[at].partition("|")[2]
            current[at] = "garble" + ("|" + suffix if suffix else "")
        else:
            closers = [
                (index, item)
                for index, token in enumerate(current)
                for item in token.partition("|")[2].split(",")
                if item.endswith("]") and not item.startswith("[")
            ]
            if not closers:
                continue
            at, item = rng.choice(closers)
            surface, _, suffix = current[at].partition("|")
            items = [x for x in suffix.split(",") if x]
            items.remove(item)
            current[at] = surface + ("|" + ",".join(items) if items else "")
            if origin[at] is not None:
                eid = item[:-1]
                for index, (seid, start, end) in enumerate(spans):
                    if seid == eid and end == origin[at]:
                        touched.add(index)
    return current, touched


def test_cleaner_recovery_under_corruption():
    rng = random.Random(6006)
    total_untouched = 0
    preserved = 0
    for k in range(1, 11):
        for _ in range(3):
            corpus = random_gold(random.Random(1000 + 31 * k), n_docs=1,
                                 n_sents=(3, 5), entities_per_doc=(3, 6),
                                 empty_parent_mode="anchor")
            document, doc_entities = corpus[0]
            line = to_plaintext(document, doc_entities).render()
            tokens = line.split(" ")
            spans = plain_mentions(from_plaintext(line))
            noisy_tokens, touched = _corrupt(rng, tokens, spans, k)
            cleaned = clean_output(document, " ".join(noisy_tokens))
            surface = [t.surface for t in cleaned.tokens if not t.is_empty]
            assert surface == document.surface_forms()  # (a) exact tokens, 100%

            _, rebuilt = reconstruct_conllu(document, cleaned)
            rebuilt_pairs = {
                (e.id, m.span) for e in rebuilt for m in e.mentions
            }
            original = {
                (e.id, m.span): index
                for index, (e, m) in enumerate(
                    (e, m) for e in doc_entities for m in e.mentions
                )
            }
            plain_index = {
                (eid, start, end): i for i, (eid, start, end) in enumerate(spans)
            }
            for span_index, (eid, start, end) in enumerate(spans):
                if span_index in touched:
                    continue
                total_untouched += 1
                # locate the original mention through its plaintext span
                matches = [
                    (e.id, m.span) for e in doc_entities for m in e.mentions
                    if e.id == eid
                ]
                if any(pair in rebuilt_pairs for pair in matches):
                    preserved += 1
    assert total_untouched > 100
    rate = preserved / total_untouched
    assert rate >= 0.95, f"only {100 * rate:.1f}% of untouched mentions preserved"

    # timing: one 10k-token document with 10 corruptions cleans in < 1 s
    big = doc("big", *[
        sent(si, [("alpha", 0, "root", "NOUN")]
             + [(rng.choice(["beta", "gamma", "delta", "epsilon"]), 1, "dep", "NOUN")
                for _ in range(19)])
        for si in range(500)
    ])
    entities = [ent(f"e{k}", big, [(s, 2), (s, 3)], [(s, 7)])
                for k, s in enumerate(range(0, 500, 7))]
    line = to_plaintext(big, entities).render()
    tokens = line.split(" ")
    spans = plain_mentions(from_plaintext(line))
    noisy_tokens, _ = _corrupt(rng, tokens, spans, 10)
    noisy = " ".join(noisy_tokens)
    started = time.perf_counter()
    cleaned = clean_output(big, noisy)
    elapsed = time.perf_counter() - started
    assert [t.surface for t in cleaned.tokens if not t.is_empty] \
        == big.surface_forms()
    assert elapsed < 1.0, f"cleaning a 10k-token document took {elapsed:.2f}s"
    ok(f"cleaner recovery: exact tokens on every run, {100 * rate:.1f}% of "
       f"untouched mentions preserved, 10k-token repair in {elapsed * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# 7. Sampler contract.

def test_sampler_contract_20_datasets():
    rng = random.Random(7007)
    for case in range(20):
        n_docs = rng.randint(1, 7)
        documents, entities = [], []
        for k in range(n_docs):
            words = rng.choice([3_000, 6_000, 9_000, 12_000, 27_000])
            sentences = [
                sent(si, [("w", 0, "root", "NOUN")] + [("w", 1, "dep", "NOUN")] * 99)
                for si in range(words // 100)
            ]
            documents.append(Document(f"doc{k + 1}", sentences))
            entities.append([])
        corpus = list(zip(documents, entities))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            once = sample_split(corpus, cap_words=25_000, seed=case)
            again = sample_split(corpus, cap_words=25_000, seed=case)
        assert [d.doc_id for d, _ in once] == [d.doc_id for d, _ in again]
        source = {d.doc_id: d for d, _ in corpus}
        for document, _ in once:
            assert document is source[document.doc_id]  # whole documents
        if len(once) == 1 and word_offsets(once[0][0])[-1] > 25_000:
            pass  # documented single-oversized-document case
        else:
            assert sum(word_offsets(d)[-1] for d, _ in once) <= 25_000
        assert len(once) >= 1
    ok("sampler: 20 datasets respect the 25k cap (oversized-single-document "
       "case aside), keep documents whole, and are seed-deterministic")


# ---------------------------------------------------------------------------
# 8. Statistics fixture.

def test_statistics_fixture_reproduces_reference_columns():
    stats = corpus_stats(stats_fixture())
    assert (stats.docs, stats.sentences, stats.words, stats.empty_nodes) \
        == (2, 4, 20, 3)
    entities = stats.entities
    assert (entities.total, entities.max_length) == (3, 3)
    assert entities.per_1k_words == pytest.approx(150.0)
    assert entities.avg_length == pytest.approx(7 / 3)
    assert entities.p95_range == 9
    mentions = stats.mentions
    assert (mentions.total, mentions.max_length) == (7, 2)
    assert mentions.per_1k_words == pytest.approx(350.0)
    assert mentions.avg_length == pytest.approx(8 / 7)

    d = doc("p95", sent(0, [("w", 0, "root", "NOUN")]
                        + [("w", 1, "dep", "NOUN")] * 249))
    offsets = word_offsets(d)
    entities_20 = [
        ent(f"e{k}", d, [(0, 1)], [(0, 1 + 10 * k)]) for k in range(1, 21)
    ]
    assert p95_range(entities_20, offsets) == 190
    assert oracle_nearest_rank_p95(range(10, 201, 10)) == 190
    ok("statistics fixture reproduces every reference column exactly; "
       "p95 of ranges 10..200 is 190 under nearest rank")


# ---------------------------------------------------------------------------
# 9. UPOS factorization consistency.

def test_upos_factorization_consistency():
    rng = random.Random(9009)
    base = random_gold(rng, n_docs=2, empty_parent_mode="anchor")
    for document, _ in base:
        for sentence in document.sentences:
            for node in sentence.nodes:
                node.upos = "NOUN"
    pred = recluster(rng, base)
    plain = evaluate_corpus(base, pred)[MetricId.CONLL]
    for level in ("entity", "mention"):
        factored = upos_factorized_score(base, pred, "NOUN", level=level)
        assert abs(factored.f1 - plain.f1) < TOL
        assert abs(factored.recall - plain.recall) < TOL
        assert abs(factored.precision - plain.precision) < TOL

    from corefkit.analysis import head_upos_tags

    def prefilter(corpus, tag):
        out = []
        for document, doc_entities in corpus:
            kept = []
            for e in doc_entities:
                ms = [m for m in e.mentions if tag in head_upos_tags(m, document)]
                if ms:
                    kept.append(Entity(e.id, ms))
            out.append((document, kept))
        return out

    agreements = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(20):
            gold = random_gold(random.Random(seed), n_docs=1)
            pred = recluster(random.Random(seed + 999), gold)
            got = upos_factorized_score(gold, pred, "NOUN", level="mention")
            expected = evaluate_corpus(prefilter(gold, "NOUN"), prefilter(pred, "NOUN"),
                                       singleton_mode=SINGLETONS_EXCLUDED)[MetricId.CONLL]
            assert abs(got.f1 - expected.f1) < TOL
            assert abs(got.recall - expected.recall) < TOL
            assert abs(got.precision - expected.precision) < TOL
            agreements += 1
    assert agreements == 20
    ok("UPOS factorization: universal tag equals the plain primary score "
       "at 1e-9; 20 mention-level fixtures match the pre-filtered oracle")


# ---------------------------------------------------------------------------
# 10. Long-range curve sanity.

def test_long_range_curve_sanity():
    rng = random.Random(1010)
    documents, entities = [], []
    for k in range(4):
        d = doc(f"doc{k + 1}", sent(0, [("w", 0, "root", "NOUN")]
                                    + [("w", 1, "dep", "NOUN")] * 299))
        documents.append(d)
        entities.append([
            ent("e1", d, [(0, 2)], [(0, 250)]),
            ent("e2", d, [(0, 5)], [(0, 200)]),
            ent("e3", d, [(0, 7)], [(0, 9)]),
        ])
    gold = list(zip(documents, entities))
    pred = recluster(rng, gold)

    points = long_range_curve(gold, pred, window_tokens=10_000, min_p95=100)
    assert len(points) == 1
    per_doc = []
    for k in range(4):
        sub_gold = [gold[k]]
        sub_pred = [pred[k]]
        per_doc.append(evaluate_corpus(sub_gold, sub_pred)[MetricId.CONLL].f1)
    assert abs(points[0].mean_conll_f1 - sum(per_doc) / len(per_doc)) < TOL

    by_gap = long_range_curve(gold, pred, window_tokens=10_000, min_p95=100,
                              sort_key="max_adjacent_gap")
    assert abs(by_gap[0].mean_conll_f1 - points[0].mean_conll_f1) < TOL
    ok("long-range curve: single window equals the unweighted per-document "
       "mean at 1e-9; scores invariant under the sort-key switch")
