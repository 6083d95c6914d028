import gc
import json
import random
import re
import time
import tracemalloc
import warnings
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from corefkit.brackets import find_crossing
from corefkit.conllu import ConlluError, parse_conllu, serialize_conllu
from corefkit.formats import (
    CleanRefusedError,
    JsonFormatError,
    PlaintextError,
    _build_layout,
    _core_alignment,
    _word_alignment,
    clean_output,
    corpus_to_json,
    corpus_to_plaintext,
    from_plaintext,
    json_doc_from_value,
    plain_mentions,
    reconstruct_conllu,
    reconstruct_from_json,
    to_json,
    to_plaintext,
)
from corefkit.model import Entity, NodeId, make_mention, sort_entity_mentions

from helpers import (canonical_clusters, doc, ent, random_document, random_entities,
                     random_gold, sent)
from oracles import oracle_alignment_ops, oracle_edit_distance


def simple_doc():
    return doc("d1", sent(0, [
        ("John", 2, "nsubj", "PROPN"),
        ("sees", 0, "root", "VERB"),
        ("the", 4, "det", "DET"),
        ("dog", 2, "obj", "NOUN"),
    ], empties=[(2, 1, "Zsub", 2, "nsubj")]))


def test_unannotated_tokens_render_bare():
    d = doc("d1", sent(0, [("w1", 0, "root", "X"), ("w2", 1, "a", "X"),
                           ("w3", 1, "a", "X")]))
    assert to_plaintext(d, []).render() == "w1 w2 w3"


def test_single_token_mention_brackets():
    d = doc("d1", sent(0, [("w", 0, "root", "NOUN")]))
    rendered = to_plaintext(d, [ent("e1", d, [(0, 1)])]).render()
    assert rendered == "w|[e1]"


def test_empty_node_follows_its_parent():
    # the empty node is anchored after token 1 but its parent is token 3
    d = doc("d1", sent(0, [
        ("a", 3, "x", "X"), ("b", 3, "x", "X"), ("c", 0, "root", "VERB"),
    ], empties=[(1, 1, "Z", 3, "nsubj")]))
    assert to_plaintext(d, []).render() == "a b c ##Z"


def test_empty_node_with_root_parent_falls_back_to_anchor():
    d = doc("d1", sent(0, [("a", 0, "root", "VERB"), ("b", 1, "obj", "NOUN")],
                       empties=[(1, 1, "Z", 0, "expl")]))
    assert to_plaintext(d, []).render() == "a ##Z b"


def test_from_plaintext_round_trip():
    corpus = random_gold(random.Random(2), n_docs=1)
    rendered = to_plaintext(*corpus[0]).render()
    again = from_plaintext(rendered)
    assert again.render() == rendered


def test_from_plaintext_errors_carry_token_index():
    with pytest.raises(PlaintextError, match="token 1"):
        from_plaintext("w1 w2|e9]")
    with pytest.raises(PlaintextError, match="token 1"):
        from_plaintext("w1  w2")
    with pytest.raises(PlaintextError, match="token 0"):
        from_plaintext("w|[bogus!]")
    with pytest.raises(PlaintextError, match="never closed"):
        from_plaintext("w|[e1 v")


def test_from_plaintext_reports_the_first_opened_entity_left_open():
    # e1 opened first in the line, so it is reported although its open
    # bracket at token 3 comes after e2's at token 2
    with pytest.raises(PlaintextError, match="token 3: opening bracket for 'e1'"):
        from_plaintext("a|[e1 b|e1] c|[e2 d|[e1")
    with pytest.raises(PlaintextError, match="token 2: closing bracket for 'e2'"):
        from_plaintext("a|[e1 b c|e2] d|[e1")


def test_nested_mentions_bracket_stack():
    plain = from_plaintext("a|[e1 b|[e2] c|e1]")
    spans = plain_mentions(plain)
    # bracket-stack oracle: replay with an explicit stack
    stack, expected = {}, []
    for index, token in enumerate("a|[e1 b|[e2] c|e1]".split(" ")):
        _, _, items = token.partition("|")
        for item in items.split(",") if items else []:
            if item.startswith("[") and item.endswith("]"):
                expected.append((item[1:-1], index, index))
            elif item.startswith("["):
                stack.setdefault(item[1:], []).append(index)
            else:
                expected.append((item[:-1], stack[item[:-1]].pop(), index))
    assert sorted(spans) == sorted(expected)
    assert sorted(spans) == [("e1", 0, 2), ("e2", 1, 1)]


def test_json_fields_and_text_consistency():
    d = simple_doc()
    entities = [ent("e1", d, [(0, 1)], [(0, 3), (0, 4)]), ent("e2", d, [(0, 2, 1)])]
    jdoc = to_json(d, entities)
    assert jdoc.doc_id == "d1"
    assert jdoc.tokens == ["John", "sees", "##Zsub", "the", "dog"]
    assert jdoc.clusters_token_offsets == [[[0, 0], [3, 4]], [[2, 2]]]
    assert jdoc.clusters_text_mentions == [["John", "the dog"], ["##Zsub"]]
    value = jdoc.to_value()
    assert set(value) == {"doc_id", "tokens", "clusters_token_offsets",
                          "clusters_text_mentions"}
    json_doc_from_value(json.loads(json.dumps(value)))  # validates


def test_json_validation_errors():
    d = simple_doc()
    value = to_json(d, [ent("e1", d, [(0, 1)])]).to_value()
    bad = json.loads(json.dumps(value))
    bad["clusters_token_offsets"][0][0] = [0, 99]
    with pytest.raises(ValueError, match="out of bounds"):
        json_doc_from_value(bad)
    bad = json.loads(json.dumps(value))
    bad["clusters_text_mentions"][0][0] = "wrong text"
    with pytest.raises(ValueError, match="does not match"):
        json_doc_from_value(bad)
    bad = json.loads(json.dumps(value))
    del bad["tokens"]
    with pytest.raises(ValueError, match="missing"):
        json_doc_from_value(bad)


def test_reconstruct_from_json_validates_a_hand_built_document():
    d = simple_doc()
    jdoc = to_json(d, [ent("e1", d, [(0, 1)])])
    jdoc.clusters_token_offsets[0][0] = [0, 99]
    with pytest.raises(JsonFormatError, match="document 'd1': offsets \\[0, 99\\] out of bounds"):
        reconstruct_from_json(jdoc, d)


def test_json_round_trip_preserves_clusters():
    corpus = random_gold(random.Random(8), n_docs=2, empty_parent_mode="anchor")
    for document, entities in corpus:
        jdoc = to_json(document, entities)
        _, back = reconstruct_from_json(jdoc, document)
        assert canonical_clusters(back) == canonical_clusters(entities)


def test_plaintext_round_trip_preserves_clusters_and_ids():
    corpus = random_gold(random.Random(9), n_docs=2, empty_parent_mode="anchor")
    for document, entities in corpus:
        line = to_plaintext(document, entities).render()
        rebuilt_doc, back = reconstruct_conllu(document, from_plaintext(line))
        assert canonical_clusters(back) == canonical_clusters(entities)
        assert {e.id for e in back} == {e.id for e in entities}
        assert serialize_conllu([(rebuilt_doc, back)]) \
            == serialize_conllu([(document, entities)])


def test_reconstruct_inserts_new_empties_after_their_parent():
    d = doc("d1", sent(0, [
        ("a", 0, "root", "VERB"), ("b", 1, "obj", "NOUN"),
        ("c", 1, "obl", "NOUN"), ("d", 1, "nmod", "NOUN"),
    ]))
    plain = from_plaintext("a b c d ##Z1|[e1] ##Z2")
    rebuilt, entities = reconstruct_conllu(d, plain)
    empties = [n for n in rebuilt.sentences[0].nodes if n.is_empty]
    assert [n.id for n in empties] == [NodeId(0, 4, 1), NodeId(0, 4, 2)]
    assert empties[0].parent == NodeId(0, 4)
    assert empties[0].deprel == "_"
    assert [n.form for n in empties] == ["Z1", "Z2"]
    (entity,) = entities
    assert entity.mentions[0].span == (NodeId(0, 4, 1),)
    assert entity.mentions[0].is_zero


def test_reconstruct_requires_matching_tokens():
    d = doc("d1", sent(0, [("a", 0, "root", "X")]))
    with pytest.raises(ValueError, match="clean_output"):
        reconstruct_conllu(d, from_plaintext("b"))


def test_reconstruct_maps_predicted_empties_onto_existing_ones():
    d = simple_doc()  # empty 2.1 with parent 2, placed after token 2
    line = to_plaintext(d, [ent("e1", d, [(0, 2, 1)])]).render()
    rebuilt, entities = reconstruct_conllu(d, from_plaintext(line))
    assert entities[0].mentions[0].span == (NodeId(0, 2, 1),)
    assert len([n for n in rebuilt.sentences[0].nodes if n.is_empty]) == 1


def test_to_plaintext_rejects_crossing_mentions_that_are_not_neighbours():
    d = doc("d1", sent(0, [(f"w{k}", 0 if k == 0 else 1, "dep", "X") for k in range(13)]))
    spans = [[(0, k + 1) for k in range(s, e + 1)] for s, e in [(0, 10), (1, 2), (3, 12)]]
    with pytest.raises(ValueError, match="entity 'e1' cross"):
        to_plaintext(d, [ent("e1", d, *spans)])


def test_cleaned_touching_mentions_convert_to_conllu():
    # closers come before openers on a token, so spans that share only
    # their boundary token pair back and are not a crossing
    d = doc("d1", sent(0, [("a", 0, "root", "X"), ("b", 1, "dep", "X"), ("c", 1, "dep", "X")]))
    cleaned = clean_output(d, "a|[e1 b|e1],[e1 c|e1]")
    assert cleaned.render() == "a|[e1 b|e1],[e1 c|e1]"
    rebuilt, entities = reconstruct_conllu(d, from_plaintext(cleaned.render()))
    back = parse_conllu(serialize_conllu([(rebuilt, entities)]))
    assert [[m.span for m in e.mentions] for e in back[0][1]] == [
        [(NodeId(0, 1), NodeId(0, 2)), (NodeId(0, 2), NodeId(0, 3))]
    ]


def test_discontinuous_mention_reduced_with_warning():
    d = doc("d1", sent(0, [
        ("a", 3, "dep", "NOUN"), ("b", 3, "dep", "NOUN"),
        ("c", 0, "root", "VERB"), ("d", 3, "nmod", "NOUN"),
    ]))
    gapped = ent("e1", d, [(0, 1), (0, 3), (0, 4)])  # head is c, in the long run
    with pytest.warns(UserWarning, match="contiguous"):
        line = to_plaintext(d, [gapped]).render()
    assert line == "a b c|[e1 d|e1]"


def test_relocated_empty_is_swallowed_by_covering_span():
    # the empty node's parent pulls it between b and c, inside the mention
    d = doc("d1", sent(0, [
        ("a", 0, "root", "VERB"), ("b", 1, "obj", "NOUN"), ("c", 2, "nmod", "NOUN"),
    ], empties=[(3, 1, "Z", 2, "nsubj")]))
    entities = [ent("e1", d, [(0, 2), (0, 3)])]
    line = to_plaintext(d, entities).render()
    assert line == "a b|[e1 ##Z c|e1]"
    _, back = reconstruct_conllu(d, from_plaintext(line))
    # documented loss: the bracket range swallows the relocated empty node
    assert back[0].mentions[0].span == (NodeId(0, 2), NodeId(0, 3), NodeId(0, 3, 1))


def _targets_cost(src, ref, targets) -> int:
    """Deletions, insertions and substitutions of an alignment given as
    each src token's ref index (-1: deleted), which must increase."""
    assert len(targets) == len(src)
    aligned = [(i, j) for i, j in enumerate(targets) if j >= 0]
    refs = [j for _, j in aligned]
    assert refs == sorted(set(refs)) and all(0 <= j < len(ref) for j in refs)
    return (len(src) - len(aligned) + len(ref) - len(aligned)
            + sum(src[i] != ref[j] for i, j in aligned))


def _source_projection(ops) -> list[int]:
    """Each source token's ref index in an ops list, -1 where it is deleted."""
    return [-1 if j is None else j for i, j in ops if i is not None]


def test_alignment_cost_matches_full_dp():
    rng = random.Random(21)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(200):
        src = [rng.choice(alphabet) for _ in range(rng.randint(0, 20))]
        ref = [rng.choice(alphabet) for _ in range(rng.randint(0, 20))]
        expected = oracle_edit_distance(src, ref)
        if expected > max(len(ref), 1) * 0.5 + 1:
            continue
        cost, targets = _word_alignment(src, ref, max_cost=40)
        assert cost == expected
        # the targets must be a monotone alignment of that cost
        assert _targets_cost(src, ref, targets) == expected


@st.composite
def token_pairs(draw):
    """Two token lists over 1-6 symbols: unrelated, or a few edits apart."""
    alphabet = "abcdef"[:draw(st.integers(1, 6))]
    tokens = st.lists(st.sampled_from(alphabet), max_size=40)
    src = draw(tokens)
    if draw(st.booleans()):
        return src, draw(tokens)
    ref = list(src)
    edits = st.tuples(st.sampled_from("ids"), st.integers(0, 40), st.sampled_from(alphabet))
    for op, pos, symbol in draw(st.lists(edits, max_size=8)):
        if op == "i":
            ref.insert(pos, symbol)
        elif ref:
            if op == "d":
                ref.pop(pos % len(ref))
            else:
                ref[pos % len(ref)] = symbol
    return src, ref[:40]


@settings(max_examples=400, deadline=None)
@given(token_pairs(), st.integers(0, 45))
def test_alignment_ops_match_full_table_oracle(pair, drawn_limit):
    # the pinned tie order decides where brackets of edited tokens land
    src, ref = pair
    ids: dict[str, int] = {}
    src_ids = [ids.setdefault(t, len(ids)) for t in src]
    ref_ids = [ids.setdefault(t, len(ids)) for t in ref]
    for align, pin in ((_word_alignment, True), (_core_alignment, False)):
        cost, ops = oracle_alignment_ops(src, ref, pin_shared_ends=pin)
        args = (src, ref) if pin else (src_ids, ref_ids)
        for max_cost in {drawn_limit, cost, cost - 1}:
            if max_cost < 0:
                continue
            if cost > max_cost:
                with pytest.raises(CleanRefusedError):
                    align(*args, max_cost)
            else:
                got_cost, targets = align(*args, max_cost)
                assert (got_cost, list(targets)) == (cost, _source_projection(ops))


def test_clean_heavy_noise_long_document():
    rng = random.Random(77)
    vocab = [f"w{k}" for k in range(60)]
    forms = [rng.choice(vocab) for _ in range(10_000)]
    d = doc("long", *[
        sent(si, [(forms[20 * si], 0, "root", "X")]
             + [(forms[20 * si + t], 1, "dep", "X") for t in range(1, 20)])
        for si in range(500)
    ])
    noisy = list(forms)
    for _ in range(1500):  # about 15 % edits
        pos = rng.randrange(len(noisy))
        op = rng.choice(["ins", "del", "sub"])
        if op == "ins":
            noisy.insert(pos, rng.choice(["xx", "yy"] + vocab))
        elif op == "del":
            noisy.pop(pos)
        else:
            noisy[pos] = rng.choice(["qq"] + vocab)
    started = time.perf_counter()
    cleaned = clean_output(d, " ".join(noisy))
    elapsed = time.perf_counter() - started
    assert [t.surface for t in cleaned.tokens] == forms
    assert elapsed < 10.0, f"cleaning took {elapsed:.2f}s"

    cost, targets = _word_alignment(noisy, forms, max_cost=5000)
    assert 0 < cost <= 1500
    assert cost == _targets_cost(noisy, forms, targets)


def test_clean_identity_on_valid_output():
    corpus = random_gold(random.Random(31), n_docs=1)
    document, entities = corpus[0]
    line = to_plaintext(document, entities).render()
    assert clean_output(document, line).render() == line


def test_clean_drops_hallucinated_token_keeping_span():
    d = doc("d1", sent(0, [
        ("a", 0, "root", "VERB"), ("b", 1, "obj", "NOUN"), ("c", 1, "obl", "NOUN"),
    ]))
    entities = [ent("e1", d, [(0, 1), (0, 2), (0, 3)])]
    line = to_plaintext(d, entities).render()
    assert line == "a|[e1 b c|e1]"
    cleaned = clean_output(d, "a|[e1 b HALLUCINATED c|e1]")
    assert cleaned.render() == line


def test_clean_closes_missing_bracket_at_sentence_end():
    d = doc("d1",
            sent(0, [("a", 0, "root", "VERB"), ("b", 1, "obj", "NOUN")]),
            sent(1, [("c", 0, "root", "VERB")]))
    cleaned = clean_output(d, "a|[e1 b c")
    assert cleaned.render() == "a|[e1 b|e1] c"


def test_clean_drops_unmatched_closer():
    d = doc("d1", sent(0, [("a", 0, "root", "VERB"), ("b", 1, "obj", "NOUN")]))
    cleaned = clean_output(d, "a b|e7]")
    assert cleaned.render() == "a b"


def test_clean_merges_annotations_of_deleted_tokens_backward():
    d = doc("d1", sent(0, [("a", 0, "root", "VERB"), ("b", 1, "obj", "NOUN")]))
    cleaned = clean_output(d, "a XXX|[e1] b")
    assert cleaned.render() == "a|[e1] b"


def test_clean_merges_document_initial_deletion_forward():
    d = doc("d1", sent(0, [("a", 0, "root", "VERB"), ("b", 1, "obj", "NOUN")]))
    cleaned = clean_output(d, "XXX|[e1] a b")
    assert cleaned.render() == "a|[e1] b"


@pytest.mark.parametrize("noisy, cleaned", [
    ("|[e1 x y|e1]", "x|[e1 y|e1]"),
    ("##|[e1] x y", "x|[e1] y"),
    ("|[e1]", "x|[e1]"),  # a line without a token: the items go to reference token 0
    ("##|[e1]", "x|[e1]"),
], ids=["bare", "bare-empty", "bare-only", "bare-empty-only"])
def test_clean_merges_a_bare_piece_at_the_line_start_forward(noisy, cleaned):
    words = [("x", 0, "root", "VERB"), ("y", 1, "obj", "NOUN")]
    d = doc("d1", sent(0, words[:len(cleaned.split(" "))]))
    assert clean_output(d, noisy).render() == cleaned
    assert clean_output(d, cleaned).render() == cleaned
    assert plain_mentions(from_plaintext(cleaned))


@st.composite
def noisy_lines(draw):
    """A reference of 1-6 surface tokens in one or two sentences, and a
    noisy line of it: tokens inserted, deleted and substituted, bare
    ``|...`` and ``##|...`` pieces and ``##`` tokens put in, each with
    0-3 items.  Returns the document, the line and the number of ``[eN``
    and ``[eN]`` items of each entity."""
    forms = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=6))
    split = draw(st.integers(1, len(forms)))
    parts = [part for part in (forms[:split], forms[split:]) if part]
    document = doc("d1", *[
        sent(si, [(form, 0, "root", "X") if k == 0 else (form, 1, "dep", "X")
                  for k, form in enumerate(part)])
        for si, part in enumerate(parts)
    ])
    words = list(forms)
    edits = st.tuples(st.sampled_from("ids"), st.integers(0, 6), st.sampled_from("abcx"))
    for op, pos, form in draw(st.lists(edits, max_size=4)):
        if op == "i":
            words.insert(pos % (len(words) + 1), form)
        elif words:
            if op == "d":
                words.pop(pos % len(words))
            else:
                words[pos % len(words)] = form
    pieces = st.tuples(st.integers(0, 8), st.sampled_from(["", "##", "##Z"]))
    for pos, piece in draw(st.lists(pieces, max_size=3)):
        words.insert(pos % (len(words) + 1), piece)
    items = st.lists(st.tuples(st.sampled_from(["[{}", "{}]", "[{}]"]),
                               st.sampled_from(["e1", "e2"])), max_size=3)
    tokens, opened = [], Counter()
    for word in words:
        drawn = [marks.format(eid) for marks, eid in draw(items)]
        opened.update(item[1:].rstrip("]") for item in drawn if item.startswith("["))
        tokens.append(word + "|" + ",".join(drawn) if drawn else word)
    return document, " ".join(token for token in tokens if token), opened


@settings(max_examples=300, deadline=None)
@given(noisy_lines())
def test_clean_keeps_one_mention_per_opener_and_single(case):
    # unmatched closers go, but every opener closes and every single stays
    document, line, opened = case
    try:
        cleaned = clean_output(document, line)
    except CleanRefusedError:
        return
    assert Counter(eid for eid, _, _ in plain_mentions(cleaned)) == opened


def test_clean_keeps_substituted_tokens_annotations():
    d = doc("d1", sent(0, [("a", 0, "root", "VERB"), ("b", 1, "obj", "NOUN")]))
    cleaned = clean_output(d, "a WRONG|[e1]")
    assert cleaned.render() == "a b|[e1]"


def test_clean_reinserts_empty_tokens_after_their_anchor():
    d = doc("d1", sent(0, [("a", 0, "root", "VERB"), ("b", 1, "obj", "NOUN")]))
    cleaned = clean_output(d, "a ##Z|[e1] EXTRA b")
    assert cleaned.render() == "a ##Z|[e1] b"


def test_clean_idempotence_and_exactness_on_random_corruptions():
    rng = random.Random(41)
    for seed in range(15):
        corpus = random_gold(random.Random(seed + 100), n_docs=1)
        document, entities = corpus[0]
        line = to_plaintext(document, entities).render()
        tokens = line.split(" ")
        for _ in range(rng.randint(1, 6)):
            op = rng.choice(["ins", "del", "sub"])
            pos = rng.randrange(len(tokens)) if tokens else 0
            if op == "ins":
                tokens.insert(pos, rng.choice(["xx", "yy", "zz"]))
            elif op == "del" and len(tokens) > 1:
                tokens.pop(pos)
            else:
                suffix = tokens[pos].partition("|")[2]
                tokens[pos] = "qq" + ("|" + suffix if suffix else "")
        noisy = " ".join(tokens)
        cleaned = clean_output(document, noisy)
        surface = [t.surface for t in cleaned.tokens if not t.is_empty]
        assert surface == document.surface_forms()
        again = clean_output(document, cleaned.render())
        assert again.render() == cleaned.render()
        from_plaintext(cleaned.render())  # strictly valid


# stray separators, brackets and item pieces a generator may leave in a token
STRAY = ["|", ",", "[", "]", "##", "[e1", "e1]", "[e2]", "e9", "|[e1", "|e1]", "|x"]


@st.composite
def noisy_plaintext(draw):
    """A document and its plaintext line with stray pieces put into its
    surface and ``##`` tokens, and new tokens carrying them."""
    corpus = random_gold(random.Random(draw(st.integers(0, 200))), n_docs=1)
    document = corpus[0][0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tokens = to_plaintext(document, corpus[0][1]).render().split(" ")
    for _ in range(draw(st.integers(1, 6))):
        pieces = "".join(draw(st.lists(st.sampled_from(STRAY), min_size=1, max_size=3)))
        pos = draw(st.integers(0, len(tokens)))
        if pos < len(tokens) and draw(st.booleans()):
            at = draw(st.integers(0, len(tokens[pos])))
            tokens[pos] = tokens[pos][:at] + pieces + tokens[pos][at:]
        else:
            tokens.insert(pos, draw(st.sampled_from(["x", "##Z"])) + pieces)
    return document, " ".join(tokens)


@settings(max_examples=50, deadline=None)
@given(noisy_plaintext())
def test_every_line_clean_writes_converts_and_cleans_to_itself(case):
    document, noisy = case
    line = clean_output(document, noisy, max_cost_ratio=1e9).render()  # never refused
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reconstruct_conllu(document, from_plaintext(line))
    assert clean_output(document, line).render() == line


def _traced_peak(work) -> tuple[int, object]:
    """Bytes ``work()`` allocates at its peak above what was allocated
    before it, and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = work()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def test_clean_holds_under_550_bytes_per_token():
    # about 920 B per token here while tokens had a __dict__ and a fresh
    # annotation list each, the layout a position dict, the cleaner a list
    # of items per reference token and the alignment's ops to its end;
    # about 375 since
    rng = random.Random(8)
    document = random_document(rng, "long", 1250)
    entities = random_entities(rng, document, 700)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tokens = to_plaintext(document, entities).render().split(" ")
    for _ in range(len(tokens) // 100):  # about 1 % edits
        pos = rng.randrange(len(tokens))
        op = rng.choice(["ins", "del", "sub"])
        if op == "ins":
            tokens.insert(pos, rng.choice(["xx", "yy", "zz"]))
        elif op == "del":
            tokens.pop(pos)
        else:
            tokens[pos] = "qq" + tokens[pos][len(tokens[pos].partition("|")[0]):]
    noisy = " ".join(tokens)
    peak, cleaned = _traced_peak(lambda: clean_output(document, noisy))
    assert 7_500 < len(cleaned.tokens) < 9_500
    assert sum(bool(t.annotations) for t in cleaned.tokens) > 1_000
    assert peak / len(cleaned.tokens) <= 550


def test_alignment_fronts_take_about_4_bytes_per_cell():
    # D = 500: every other reference token is one the source lacks; the
    # fronts hold about D^2 cells, in 8 bytes each before
    d = 500
    n = 2 * d
    src = list(range(n))
    ref = [n + k if k % 2 == 0 else k for k in range(n)]
    peak, (cost, targets) = _traced_peak(lambda: _core_alignment(src, ref, 2 * n))
    assert cost == d and len(targets) == n
    assert peak < 4.5 * d * d + 256 * n


def test_alignment_refuses_a_source_too_long_for_32_bit_rows():
    with pytest.raises(CleanRefusedError, match="too many to align"):
        _core_alignment(range(1 << 31), [], 10)


def test_clean_refuses_wrong_document():
    d = doc("d1", sent(0, [(f"w{k}", 0 if k == 0 else 1, "x", "X")
                           for k in range(30)]))
    with pytest.raises(CleanRefusedError):
        clean_output(d, " ".join(f"other{k}" for k in range(30)))


@pytest.mark.parametrize("ratio", [float("inf"), float("nan"), 0.0, -1.0])
def test_clean_rejects_bad_cost_ratio(ratio):
    d = doc("d1", sent(0, [("a", 0, "root", "X")]))
    with pytest.raises(ValueError, match="max_cost_ratio"):
        clean_output(d, "a", max_cost_ratio=ratio)


def test_clean_accepts_a_cost_ratio_too_large_to_multiply():
    d = doc("d1", sent(0, [("a", 0, "root", "X")]))
    assert clean_output(d, "b", max_cost_ratio=1e308).render() == "a"


def test_corpus_level_text_and_json_helpers():
    corpus = random_gold(random.Random(55), n_docs=3, empty_parent_mode="anchor")
    text = corpus_to_plaintext(corpus)
    assert len(text.strip().split("\n")) == 3
    values = corpus_to_json(corpus)
    assert [v["doc_id"] for v in values] == [d.doc_id for d, _ in corpus]
    for value, (document, entities) in zip(values, corpus):
        jdoc = json_doc_from_value(value)
        rebuilt, back = reconstruct_from_json(jdoc, document)
        assert canonical_clusters(back) == canonical_clusters(entities)


def test_a_sentence_holding_only_empty_nodes_reads_back():
    # the zero 1:0.1 sits between two ordinary sentences; both readers
    # must give the ## token back to it, not mint a node in sentence 0
    d = doc("d1",
            sent(0, [("a", 0, "root", "VERB"), ("b", 1, "obj", "NOUN")]),
            sent(1, [], empties=[(0, 1, "Z", 0, "nsubj")]),
            sent(2, [("c", 0, "root", "VERB")]))
    entities = [ent("e1", d, [(0, 2)], [(1, 0, 1)], [(2, 1)])]
    expected = serialize_conllu([(d, entities)])
    line = to_plaintext(d, entities).render()
    assert line == "a b|[e1] ##Z|[e1] c|[e1]"
    for rebuilt, back in (reconstruct_conllu(d, from_plaintext(line)),
                          reconstruct_from_json(to_json(d, entities), d)):
        assert serialize_conllu([(rebuilt, back)]) == expected


@st.composite
def documents_with_placed_empties(draw):
    """A document whose sentences may open with empty nodes, hold only
    empty nodes, or carry empty nodes whose parent is another token, with
    entities whose mentions are runs of the plaintext token order."""
    sentences = []
    for si in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 4))
        tokens = [(f"w{si}{k}", 0 if k == 1 else draw(st.integers(1, k - 1)), "dep", "X")
                  for k in range(1, n + 1)]
        anchors = sorted(draw(st.lists(st.integers(0, n), min_size=0 if n else 1, max_size=3)))
        empties = [(anchor, anchors[:k].count(anchor) + 1, f"Z{si}{k}",
                    draw(st.integers(0, n)), "nsubj")
                   for k, anchor in enumerate(anchors)]
        sentences.append(sent(si, tokens, empties))
    document = doc("d1", *sentences)
    layout = _build_layout(document)
    runs = {}  # sentence -> its layout positions, which are one run
    for pos, nid in enumerate(layout.node_ids):
        runs.setdefault(nid.sentence_index, []).append(pos)
    entities = []
    for _ in range(draw(st.integers(1, 3))):
        segments = []
        for _ in range(draw(st.integers(1, 3))):
            run = draw(st.sampled_from(sorted(runs.values())))
            start = draw(st.sampled_from(run))
            segment = (start, draw(st.sampled_from([p for p in run if p >= start])))
            if segment not in segments and not find_crossing(segments + [segment]):
                segments.append(segment)
        eid = f"e{len(entities) + 1}"
        entities.append(Entity(eid, sort_entity_mentions([
            make_mention(eid, layout.node_ids[start:end + 1], document)
            for start, end in segments])))
    return document, entities


@settings(max_examples=300, deadline=None)
@given(documents_with_placed_empties())
def test_both_formats_read_back_the_nodes_they_wrote(case):
    document, entities = case
    try:
        expected = serialize_conllu([(document, entities)])
    except ConlluError:
        assume(False)  # a mention set the CoNLL-U brackets cannot hold
    line = to_plaintext(document, entities).render()
    for rebuilt, back in (reconstruct_conllu(document, from_plaintext(line)),
                          reconstruct_from_json(to_json(document, entities), document)):
        assert serialize_conllu([(rebuilt, back)]) == expected


@pytest.mark.parametrize("form, plain_ok, json_ok", [
    ("a b", False, True), ("a|b", False, True), ("x|e1]", False, True),
    ("x|[e1]", False, True), ("|", False, True), ("", False, True),
    ("a\tb", False, True), ("a\u00a0b", True, True), ("a\u2028b", True, True),
    ("##x", False, False), ("x##", True, True), (("#", "#x"), True, True),
    ("x\0##", True, True),
])
def test_writers_refuse_forms_that_would_not_read_back(form, plain_ok, json_ok):
    """A tuple is several FORMs in a row.  The writers search all FORMs of
    a document at once, so a hit that no single FORM holds must not raise."""
    forms = form if isinstance(form, tuple) else (form,)
    d = doc("d1", sent(0, [("a", 0, "root", "X")] + [(f, 1, "dep", "X") for f in forms]))
    for writer, error, ok in ((to_plaintext, PlaintextError, plain_ok),
                              (to_json, JsonFormatError, json_ok)):
        if ok:
            writer(d, [])
        else:
            with pytest.raises(error, match=f"document 'd1': FORM {re.escape(repr(form))} "
                                            "of node 2 in sentence 1 cannot be written"):
                writer(d, [])
