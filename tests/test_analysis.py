import random

import pytest

from corefkit.analysis import (
    corpus_stats,
    derive_input_variant,
    entity_range,
    head_upos_tags,
    long_range_curve,
    max_adjacent_gap,
    p95_range,
    render_corpus_stats_table,
    sample_split,
    upos_factorized_score,
)
from corefkit.conllu import parse_conllu, serialize_conllu
from corefkit.metrics import MetricId, SINGLETONS_EXCLUDED, evaluate_corpus
from corefkit.model import (
    EMPTY_COLUMN,
    Entity,
    NodeId,
    make_mention,
    sort_entity_mentions,
    word_offsets,
)

from helpers import Pairs, doc, ent, heads_only, random_gold, recluster, sent
from oracles import oracle_nearest_rank_p95


def long_flat_doc(doc_id, n_tokens, si_count=1):
    sentences = []
    per = n_tokens // si_count
    for si in range(si_count):
        sentences.append(sent(si, [("w", 0, "root", "NOUN")]
                              + [("w", 1, "dep", "NOUN")] * (per - 1)))
    return doc(doc_id, *sentences)


def entity_at(document, word_majors, eid="e1", si=0):
    return ent(eid, document, *[[(si, m)] for m in word_majors])


def test_entity_range_examples():
    d = long_flat_doc("d1", 300)
    offsets = word_offsets(d)
    assert entity_range(entity_at(d, [10]), offsets) == 0
    assert entity_range(entity_at(d, [10, 250]), offsets) == 240


def test_entity_range_uses_zero_anchor():
    d = doc("d1", sent(0, [("w", 0, "root", "NOUN")]
                       + [("w", 1, "dep", "NOUN")] * 39,
                       empties=[(30, 1, "Z", 1, "nsubj")]))
    offsets = word_offsets(d)
    e = Entity("e1", sort_entity_mentions([
        make_mention("e1", [NodeId(0, 12)], d),
        make_mention("e1", [NodeId(0, 30, 1)], d),
    ]))
    assert entity_range(e, offsets) == 18


def test_entity_range_monotonicity():
    d = long_flat_doc("d1", 100)
    offsets = word_offsets(d)
    rng = random.Random(3)
    for _ in range(50):
        majors = rng.sample(range(1, 101), rng.randint(1, 5))
        e = entity_at(d, majors)
        base = entity_range(e, offsets)
        later = rng.randint(1, 100)
        extended = entity_at(d, majors + [later])
        assert entity_range(extended, offsets) >= base


def test_p95_nearest_rank():
    d = long_flat_doc("d1", 250)
    offsets = word_offsets(d)
    entities = [entity_at(d, [1, 1 + 10 * k], eid=f"e{k}") for k in range(1, 21)]
    ranges = sorted(entity_range(e, offsets) for e in entities)
    assert ranges == list(range(10, 201, 10))
    assert p95_range(entities, offsets) == 190
    assert p95_range(entities, offsets) == oracle_nearest_rank_p95(ranges)

    single = [entity_at(d, [5, 17])]
    assert p95_range(single, offsets) == 12
    singletons = [entity_at(d, [3]), entity_at(d, [9])]
    assert p95_range(singletons, offsets) is None


def stats_fixture():
    d1 = doc(
        "d1",
        sent(0, [
            ("t1", 2, "det", "DET"), ("t2", 3, "nsubj", "NOUN"),
            ("t3", 0, "root", "VERB"), ("t4", 3, "obj", "NOUN"),
            ("t5", 3, "advmod", "ADV"), ("t6", 3, "obl", "NOUN"),
        ], empties=[(2, 1, "Z", 3, "nsubj")]),
        sent(1, [
            ("u1", 2, "det", "DET"), ("u2", 0, "root", "NOUN"),
            ("u3", 2, "nmod", "PROPN"), ("u4", 2, "nmod", "NOUN"),
        ]),
    )
    d2 = doc(
        "d2",
        sent(0, [
            ("v1", 0, "root", "NOUN"), ("v2", 1, "dep", "X"),
            ("v3", 1, "dep", "X"), ("v4", 1, "dep", "X"), ("v5", 1, "dep", "X"),
        ]),
        sent(1, [
            ("x1", 2, "det", "DET"), ("x2", 0, "root", "VERB"),
            ("x3", 2, "obj", "NOUN"), ("x4", 3, "nmod", "NOUN"),
            ("x5", 3, "nmod", "PRON"),
        ], empties=[(3, 1, "Z1", 2, "nsubj"), (3, 2, "Z2", 2, "obj")]),
    )
    e1 = ent("e1", d1, [(0, 1), (0, 2)], [(0, 4)], [(1, 2)])
    e2 = ent("e2", d1, [(0, 2, 1)], [(1, 3), (1, 4)])
    e3 = ent("e3", d1, [(0, 6)])
    e4 = ent("e4", d2, [(0, 1)], [(1, 5)])
    e5 = ent("e5", d2, [(1, 3, 1)])
    return [(d1, [e1, e2, e3]), (d2, [e4, e5])]


def test_corpus_stats_fixture_exact_numbers():
    stats = corpus_stats(stats_fixture())
    assert stats.docs == 2
    assert stats.sentences == 4
    assert stats.words == 20
    assert stats.empty_nodes == 3

    entities = stats.entities  # excluding singletons
    assert entities.total == 3
    assert entities.per_1k_words == pytest.approx(150.0)
    assert entities.max_length == 3
    assert entities.avg_length == pytest.approx(7 / 3)
    assert entities.p95_range == 9
    assert entities.length_histogram == {"1": 0, "2": 2, "3": 1, "4": 0, "5+": 0}

    mentions = stats.mentions  # of non-singleton entities
    assert mentions.total == 7
    assert mentions.per_1k_words == pytest.approx(350.0)
    assert mentions.max_length == 2
    assert mentions.avg_length == pytest.approx(8 / 7)
    assert mentions.length_histogram == {"0": 1, "1": 4, "2": 2, "3": 0, "4": 0, "5+": 0}
    assert mentions.pct_with_empty == pytest.approx(100 / 7)
    assert mentions.pct_with_gap == pytest.approx(0.0)
    assert mentions.pct_non_treelet == pytest.approx(100 / 7)
    assert mentions.head_upos_distribution == pytest.approx({
        "NOUN": 400 / 7, "_": 100 / 7, "PROPN": 100 / 7, "PRON": 100 / 7,
    })

    with_singletons = stats.entities_with_singletons
    assert with_singletons.total == 5
    assert with_singletons.per_1k_words == pytest.approx(250.0)
    assert with_singletons.avg_length == pytest.approx(1.8)
    assert with_singletons.max_length == 3
    assert with_singletons.p95_range == 9
    assert with_singletons.length_histogram == {"1": 2, "2": 2, "3": 1, "4": 0, "5+": 0}

    singles = stats.singleton_mentions
    assert singles.total == 2
    assert singles.per_1k_words == pytest.approx(100.0)
    assert singles.avg_length == pytest.approx(0.5)
    assert singles.length_histogram == {"0": 1, "1": 1, "2": 0, "3": 0, "4": 0, "5+": 0}


def test_per_1k_and_histogram_examples():
    d = long_flat_doc("d1", 1000)
    entities = [entity_at(d, [k, k + 1], eid=f"e{k}") for k in (5, 105, 205)]
    stats = corpus_stats([(d, entities)])
    assert stats.entities.per_1k_words == pytest.approx(3.0)

    d2 = long_flat_doc("d2", 50)
    fixture = [
        ent("a", d2, [(0, 1)], [(0, 5)], [(0, 9)]),
        ent("b", d2, [(0, 20)], [(0, 30)]),
    ]
    stats2 = corpus_stats([(d2, fixture)])
    assert stats2.entities.avg_length == pytest.approx(2.5)
    assert stats2.entities.length_histogram == {"1": 0, "2": 1, "3": 1, "4": 0, "5+": 0}


def test_system_stats_of_head_only_prediction():
    corpus = random_gold(random.Random(61), n_docs=2)
    stats = corpus_stats(heads_only(corpus))
    assert stats.mentions.max_length <= 1
    assert stats.mentions.avg_length <= 1.0


def test_head_upos_tags_include_flat_children():
    d = doc("d1", sent(0, [
        ("Mr.", 0, "root", "NOUN"),
        ("Brown", 1, "flat", "PROPN"),
        ("smiles", 1, "parataxis", "VERB"),
    ]))
    m = make_mention("e1", [NodeId(0, 1), NodeId(0, 2)], d)
    assert head_upos_tags(m, d) == {"NOUN", "PROPN"}


def test_upos_factorization_with_universal_tag_equals_plain_score():
    rng = random.Random(71)
    base = random_gold(rng, n_docs=2, empty_parent_mode="anchor")
    # force every head tag to NOUN so the tag covers all mentions
    for document, _ in base:
        for sentence in document.sentences:
            for node in sentence.nodes:
                node.upos = "NOUN"
    pred = recluster(rng, base)
    plain = evaluate_corpus(base, pred)[MetricId.CONLL]
    for level in ("entity", "mention"):
        factored = upos_factorized_score(base, pred, "NOUN", level=level)
        assert factored.recall == pytest.approx(plain.recall, abs=1e-9)
        assert factored.precision == pytest.approx(plain.precision, abs=1e-9)
        assert factored.f1 == pytest.approx(plain.f1, abs=1e-9)


def test_upos_factorization_absent_tag_is_degenerate():
    rng = random.Random(73)
    base = random_gold(rng, n_docs=1)
    pred = recluster(rng, base)
    with pytest.warns(UserWarning, match="ZZZ"):
        prf = upos_factorized_score(base, pred, "ZZZ")
    assert prf.f1 == 0.0


def _filter_oracle(corpus: Pairs, tag: str) -> Pairs:
    """Manually pre-filtered corpus: keep mentions with the head tag,
    drop entities that lost all mentions."""
    out = []
    for document, doc_entities in corpus:
        kept = []
        for e in doc_entities:
            mentions = [m for m in e.mentions if tag in head_upos_tags(m, document)]
            if mentions:
                kept.append(Entity(e.id, mentions))
        out.append((document, kept))
    return out


def test_upos_mention_factorization_matches_prefiltered_oracle():
    rng = random.Random(79)
    for seed in range(20):
        base = random_gold(random.Random(seed), n_docs=1)
        pred = recluster(rng, base)
        tag = "NOUN"
        got = upos_factorized_score(base, pred, tag, level="mention")
        assert upos_factorized_score(iter(base), iter(pred), tag,
                                     level="mention") == got
        oracle_scores = evaluate_corpus(_filter_oracle(base, tag),
                                        _filter_oracle(pred, tag),
                                        singleton_mode=SINGLETONS_EXCLUDED)
        expected = oracle_scores[MetricId.CONLL]
        assert got.f1 == pytest.approx(expected.f1, abs=1e-9)
        assert got.recall == pytest.approx(expected.recall, abs=1e-9)
        assert got.precision == pytest.approx(expected.precision, abs=1e-9)


def curve_corpus(doc_words, range_span=200):
    docs, ents = [], []
    for k, words in enumerate(doc_words):
        d = long_flat_doc(f"doc{k + 1}", words)
        docs.append(d)
        ents.append([
            entity_at(d, [1, 1 + range_span], eid="e1"),
            entity_at(d, [2, 2 + range_span], eid="e2"),
        ])
    return list(zip(docs, ents))


def test_curve_greedy_fill_is_a_tiling():
    gold = curve_corpus([300, 300, 300])
    points = long_range_curve(gold, gold, window_tokens=500, min_p95=100)
    # any two documents exceed the cap, so each gets its own window
    assert len(points) == 3
    assert all(p.window_tokens == 300 for p in points)
    assert all(p.mean_conll_f1 == pytest.approx(1.0) for p in points)

    merged = long_range_curve(gold, gold, window_tokens=900, min_p95=100)
    assert len(merged) == 1 and merged[0].window_tokens == 900


def test_curve_single_window_equals_mean_of_document_scores():
    rng = random.Random(83)
    gold = curve_corpus([260, 320, 280])
    pred = recluster(rng, gold)
    points = long_range_curve(gold, pred, window_tokens=10_000, min_p95=100)
    assert len(points) == 1
    per_doc = []
    for k in range(3):
        sub_gold = [gold[k]]
        sub_pred = [pred[k]]
        per_doc.append(evaluate_corpus(sub_gold, sub_pred)[MetricId.CONLL].f1)
    assert points[0].mean_conll_f1 == pytest.approx(sum(per_doc) / 3, abs=1e-9)


def test_curve_sort_key_changes_order_not_scores():
    rng = random.Random(89)
    gold = curve_corpus([260, 320, 280])
    pred = recluster(rng, gold)
    by_p95 = long_range_curve(gold, pred, window_tokens=10_000, min_p95=100,
                              sort_key="p95")
    by_gap = long_range_curve(gold, pred, window_tokens=10_000, min_p95=100,
                              sort_key="max_adjacent_gap")
    assert by_p95[0].mean_conll_f1 == pytest.approx(by_gap[0].mean_conll_f1)


def test_curve_excludes_short_range_documents():
    gold = curve_corpus([300], range_span=50)  # p95 range 50 <= min_p95
    assert long_range_curve(gold, gold, min_p95=100) == []


def test_max_adjacent_gap():
    d = long_flat_doc("d1", 100)
    offsets = word_offsets(d)
    e = entity_at(d, [5, 10, 40])
    assert max_adjacent_gap([e], offsets) == 30


def sampler_corpus(doc_words):
    docs, ents = [], []
    for k, words in enumerate(doc_words):
        docs.append(long_flat_doc(f"doc{k + 1}", words))
        ents.append([])
    return list(zip(docs, ents))


def test_sampler_three_docs_cap():
    corpus = sampler_corpus([10_000, 10_000, 10_000])
    sampled = sample_split(corpus, cap_words=25_000, seed=4)
    assert len(sampled) == 2
    assert sum(word_offsets(d)[-1] for d, _ in sampled) == 20_000
    # original document order preserved
    ids = [d.doc_id for d, _ in sampled]
    assert ids == sorted(ids, key=lambda x: int(x[3:]))


def test_sampler_exempt_is_identity():
    corpus = sampler_corpus([40_000])
    assert sample_split(corpus, exempt=True, seed=1) is corpus


def test_sampler_deterministic_and_whole_documents():
    corpus = sampler_corpus([7_000, 9_000, 11_000, 6_000, 14_000])
    a = sample_split(corpus, cap_words=25_000, seed=9)
    b = sample_split(corpus, cap_words=25_000, seed=9)
    assert [d.doc_id for d, _ in a] == [d.doc_id for d, _ in b]
    source_ids = {d.doc_id for d, _ in corpus}
    assert all(d.doc_id in source_ids for d, _ in a)
    assert sum(word_offsets(d)[-1] for d, _ in a) <= 25_000


def test_sampler_keeps_oversized_first_document_with_warning():
    corpus = sampler_corpus([30_000])
    with pytest.warns(UserWarning, match="cap"):
        sampled = sample_split(corpus, cap_words=25_000, seed=0)
    assert len(sampled) == 1


def test_stats_additivity_over_concatenation():
    a = random_gold(random.Random(1), n_docs=2)
    b = random_gold(random.Random(2), n_docs=2)
    for document, _ in b:  # distinct ids for the combined corpus
        document.doc_id = "b_" + document.doc_id
    combined = a + b
    sa, sb, sc = corpus_stats(a), corpus_stats(b), corpus_stats(combined)
    assert sc.docs == sa.docs + sb.docs
    assert sc.sentences == sa.sentences + sb.sentences
    assert sc.words == sa.words + sb.words
    assert sc.empty_nodes == sa.empty_nodes + sb.empty_nodes
    assert sc.entities.total == sa.entities.total + sb.entities.total
    assert sc.mentions.total == sa.mentions.total + sb.mentions.total
    assert sc.entities.max_length == max(sa.entities.max_length, sb.entities.max_length)
    if sc.entities.total:
        weighted = (sa.entities.avg_length * sa.entities.total
                    + sb.entities.avg_length * sb.entities.total) / sc.entities.total
        assert sc.entities.avg_length == pytest.approx(weighted)
    assert sc.entities.per_1k_words == pytest.approx(1000 * sc.entities.total / sc.words)


def test_render_corpus_table_formats():
    stats = corpus_stats(stats_fixture())
    table = render_corpus_stats_table({"fixture": stats})
    lines = table.strip().split("\n")
    assert lines[0].startswith("dataset\tdocs\tsents\twords\tempty_nodes")
    cells = lines[1].split("\t")
    assert cells[:5] == ["fixture", "2", "4", "20", "3"]
    assert cells[6] == "150"   # per-1k as integer
    assert cells[8] == "2.3"   # average to one decimal


def test_derive_input_variant_strips_gold_layers():
    gold = random_gold(random.Random(91), n_docs=2)
    stripped = derive_input_variant(gold)
    assert [d.doc_id for d, _ in stripped] == [d.doc_id for d, _ in gold]
    assert all(not entities for _, entities in stripped)
    assert all(not n.is_empty
               for d, _ in stripped for s in d.sentences for n in s.nodes)
    # surface tokens, dependencies and morphology are untouched
    assert stripped[0][0].surface_forms() == gold[0][0].surface_forms()
    rendered = serialize_conllu(stripped)
    assert "Entity=" not in rendered and "\t0.1\t" not in rendered


def _conllu_line(cid, form, head="0", deprel="root", deps="_", misc="_"):
    return f"{cid}\t{form}\t_\tNOUN\t_\t_\t{head}\t{deprel}\t{deps}\t{misc}\n"


def test_derive_input_variant_keeps_the_surface_and_leaves_gold_unchanged():
    text = ("# newdoc id = d1\n# sent_id = s1\n" + "1-2\txy\t_\t_\t_\t_\t_\t_\t_\t_\n"
            + _conllu_line("1", "x", misc="Entity=(e1")
            + _conllu_line("2", "y", "1", "dep", misc="Entity=e1)")
            + _conllu_line("2.1", "Z", "_", "_", deps="1:nsubj", misc="Entity=(e1)")
            + "\n# sent_id = s2\n" + _conllu_line("1", "w", misc="Entity=(e2)|SpaceAfter=No")
            + "\n# newdoc id = d2\n# sent_id = s1\n" + _conllu_line("1", "v") + "\n")
    gold = parse_conllu(text)
    variant = derive_input_variant(gold)
    assert [d.doc_id for d, _ in variant] == ["d1", "d2"]
    assert all(entities == [] for _, entities in variant)
    for (document, _), (gold_document, _) in zip(variant, gold):
        assert document.surface_forms() == gold_document.surface_forms()
        assert [(s.sent_id, s.mwt_ranges) for s in document.sentences] \
            == [(s.sent_id, s.mwt_ranges) for s in gold_document.sentences]
        assert not any(n.is_empty for s in document.sentences for n in s.nodes)
    rendered = serialize_conllu(variant)
    assert "Entity=" not in rendered and "1-2\txy" in rendered
    assert "SpaceAfter=No" in rendered
    back = parse_conllu(rendered)
    assert not any(n.is_empty for d, _ in back for s in d.sentences for n in s.nodes)
    assert all(entities == [] for _, entities in back)
    assert serialize_conllu(gold) == serialize_conllu(parse_conllu(text))  # gold unchanged


def test_derive_input_variant_refuses_a_sentence_of_empty_nodes_only():
    # without its zero, s2 would be written with no node and read back as
    # no sentence, and s3, with every node id in it, one index lower
    text = ("# newdoc id = d1\n# sent_id = s1\n" + _conllu_line("1", "a")
            + "\n# sent_id = s2\n" + _conllu_line("0.1", "Z", "_", "_", deps="0:root")
            + "\n# sent_id = s3\n" + _conllu_line("1", "c") + "\n")
    gold = parse_conllu(text)
    assert len(gold[0][0].sentences) == 3
    with pytest.raises(ValueError, match="document 'd1': sentence 's2' holds only empty nodes"):
        derive_input_variant(gold)
    unnamed = parse_conllu(text.replace("# sent_id = s2\n", ""))
    with pytest.raises(ValueError, match="document 'd1': sentence 2 holds only empty nodes"):
        derive_input_variant(unnamed)


def test_derive_input_variant_drops_bridging_and_split_antecedents():
    # both keys name gold entity ids, so they are coreference annotations too
    text = ("# newdoc id = d1\n"
            + _conllu_line("1", "x", misc="Entity=(e1)|SpaceAfter=No")
            + _conllu_line("2", "y", "1", "dep", misc="Bridge=e1<e2:part|Entity=(e2)")
            + _conllu_line("3", "z", "1", "dep", misc="Entity=(e3)|SplitAnte=e1<e3,e2<e3")
            + "\n")
    with pytest.warns(UserWarning, match="Bridge"):
        gold = parse_conllu(text)
    nodes = derive_input_variant(gold)[0][0].sentences[0].nodes
    assert [n.misc for n in nodes] == [{"SpaceAfter": "No"}, {}, {}]
    assert nodes[1].misc is EMPTY_COLUMN and nodes[2].misc is EMPTY_COLUMN
    rendered = serialize_conllu(derive_input_variant(gold))
    assert [line.split("\t")[9] for line in rendered.splitlines()[1:4]] \
        == ["SpaceAfter=No", "_", "_"]
    # the gold nodes keep their MISC
    assert [n.misc for n in gold[0][0].sentences[0].nodes] == [
        {"SpaceAfter": "No"}, {"Bridge": "e1<e2:part"}, {"SplitAnte": "e1<e3,e2<e3"}]
