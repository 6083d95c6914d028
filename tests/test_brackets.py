"""The bracket codec shared by CoNLL-U and plaintext: canonical item
order, the crossing check and the pairing decoder."""

from hypothesis import given, settings, strategies as st

from corefkit.brackets import CLOSE, OPEN, SINGLE, find_crossing, item_order
from corefkit.conllu import parse_conllu, serialize_conllu
from corefkit.formats import (
    clean_output,
    from_plaintext,
    plain_mentions,
    reconstruct_conllu,
    to_plaintext,
)

from helpers import canonical_clusters, doc, ent, sent
from oracles import oracle_bracket_repair, oracle_crossing

EIDS = ("e1", "e2", "e3")


def numbered_document(sizes):
    """One sentence per size, tokens w<sentence>_<k>, no empty nodes."""
    return doc("d1", *(
        sent(si, [(f"w{si}_{k}", 0 if k == 0 else 1, "root" if k == 0 else "dep", "X")
                  for k in range(n)])
        for si, n in enumerate(sizes)
    ))


@st.composite
def non_crossing_spans(draw):
    """Sentence sizes and (eid, sentence, start, end) spans, drawn densely
    so that nested, touching, adjacent, duplicate, single-token and
    same-start spans all occur; a span that would cross an earlier one
    of its entity is left out."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    raw = draw(st.lists(st.tuples(st.sampled_from(EIDS), st.integers(0, len(sizes) - 1),
                                  st.integers(0, 7), st.integers(0, 3)), max_size=14))
    spans = []
    for eid, si, start, length in raw:
        start = min(start, sizes[si] - 1)
        end = min(start + length, sizes[si] - 1)
        same = [(s, e) for x, y, s, e in spans if (x, y) == (eid, si)]
        if not oracle_crossing(same + [(start, end)]):
            spans.append((eid, si, start, end))
    return sizes, spans


@settings(max_examples=150, deadline=None)
@given(non_crossing_spans())
def test_non_crossing_spans_survive_both_syntaxes(case):
    sizes, spans = case
    document = numbered_document(sizes)
    entities = [
        ent(eid, document, *[[(si, k + 1) for k in range(s, e + 1)]
                             for x, si, s, e in spans if x == eid])
        for eid in EIDS if any(x == eid for x, *_ in spans)
    ]
    back = parse_conllu(serialize_conllu([(document, entities)]))
    assert canonical_clusters(back[0][1]) == canonical_clusters(entities)

    offsets = [sum(sizes[:si]) for si in range(len(sizes))]
    line = to_plaintext(document, entities).render()
    decoded = plain_mentions(from_plaintext(line))
    assert sorted(decoded) == sorted((eid, offsets[si] + s, offsets[si] + e)
                                     for eid, si, s, e in spans)


def test_item_order_is_canonical():
    # the pairing would accept other orders within a kind; this one keeps
    # the bytes of every writer stable
    spans = [("e2", 0, 3, None), ("e1", 0, 3, None), ("e1", 0, 5, None), ("e1", 3, 3, None),
             ("e1", 1, 3, None), ("e1", 3, 4, (1, 2)), ("e1", 3, 6, None), ("e1", 3, 4, None)]
    order = item_order(spans)
    assert sorted(order) == [0, 1, 3, 4, 5, 6]
    assert order[0] == [(OPEN, "e1", None), (OPEN, "e1", None), (OPEN, "e2", None)]
    assert order[3] == [(CLOSE, "e1", None), (CLOSE, "e1", None), (CLOSE, "e2", None),
                        (SINGLE, "e1", None),
                        (OPEN, "e1", None), (OPEN, "e1", None), (OPEN, "e1", (1, 2))]
    assert order[4] == [(CLOSE, "e1", (1, 2)), (CLOSE, "e1", None)]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 4)), max_size=10))
def test_find_crossing_matches_pairwise_oracle(raw):
    spans = [(start, start + length) for start, length in raw]
    found = find_crossing(spans)
    assert (found is not None) == oracle_crossing(spans)
    if found is not None:
        (s1, e1), (s2, e2) = found
        assert s1 < s2 < e1 < e2
        assert found[0] in spans and found[1] in spans


ITEM = st.tuples(st.sampled_from(["open", "close", "single"]), st.sampled_from(EIDS))
SYNTAX = {"open": "[{}", "close": "{}]", "single": "[{}]"}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=3).flatmap(
    lambda sizes: st.tuples(st.just(sizes), st.lists(
        st.lists(ITEM, max_size=3), min_size=sum(sizes), max_size=sum(sizes)))))
def test_cleaner_output_is_accepted_and_keeps_the_repaired_spans(case):
    """Any item sequence, balanced or not: the cleaned line parses
    strictly, decodes to the spans of the repair rule, and converts to
    CoNLL-U and back without loss."""
    sizes, items = case
    reference = numbered_document(sizes)
    noisy = " ".join(
        form + ("|" + ",".join(SYNTAX[kind].format(eid) for kind, eid in token_items)
                if token_items else "")
        for form, token_items in zip(reference.surface_forms(), items)
    )
    cleaned = from_plaintext(clean_output(reference, noisy).render())
    sentence_of = [si for si, n in enumerate(sizes) for _ in range(n)]
    assert sorted(plain_mentions(cleaned)) == sorted(oracle_bracket_repair(items, sentence_of))

    rebuilt, entities = reconstruct_conllu(reference, cleaned)
    back = parse_conllu(serialize_conllu([(rebuilt, entities)]))
    assert canonical_clusters(back[0][1]) == canonical_clusters(entities)


@st.composite
def noisy_lines_over_leading_empties(draw):
    """A reference whose sentences may open with empty nodes (0.1, 0.2),
    and its written tokens with extra ``##`` tokens anywhere and any items
    on every token."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    leads = draw(st.lists(st.integers(0, 2), min_size=len(sizes), max_size=len(sizes)))
    reference = doc("d1", *(
        sent(si, [(f"w{si}_{k}", 0 if k == 0 else 1, "root" if k == 0 else "dep", "X")
                  for k in range(n)],
             empties=[(0, m, f"Z{si}_{m}", 0, "nsubj") for m in range(1, lead + 1)])
        for si, (n, lead) in enumerate(zip(sizes, leads))
    ))
    tokens = []
    for si, (n, lead) in enumerate(zip(sizes, leads)):
        tokens += [f"##Z{si}_{m}" for m in range(1, lead + 1)]
        tokens += [f"w{si}_{k}" for k in range(n)]
    for at in sorted(draw(st.lists(st.integers(0, len(tokens)), max_size=4)), reverse=True):
        tokens.insert(at, "##N")
    items = draw(st.lists(st.lists(ITEM, max_size=2), min_size=len(tokens),
                          max_size=len(tokens)))
    return sizes, leads, reference, tokens, items


def readers_sentences(sizes, leads, tokens):
    """The sentence the readers give each token: the k-th ``##`` after a
    sentence's last token (or before the first token) is the next
    sentence's k-th leading empty node while it has one; any other ``##``
    is in the sentence of the token before it."""
    surface_sentence = [si for si, n in enumerate(sizes) for _ in range(n)]
    sentence_of, ordinal, k = [], -1, 0
    for token in tokens:
        if not token.startswith("##"):
            ordinal, k = ordinal + 1, 0
            sentence_of.append(surface_sentence[ordinal])
            continue
        before = surface_sentence[ordinal] if ordinal >= 0 else 0
        if ordinal < 0:
            opening = 0
        elif ordinal + 1 < len(surface_sentence) and surface_sentence[ordinal + 1] != before:
            opening = before + 1
        else:
            opening = None
        sentence_of.append(opening if opening is not None and k < leads[opening] else before)
        k += 1
    return sentence_of


@settings(max_examples=150, deadline=None)
@given(noisy_lines_over_leading_empties())
def test_cleaner_output_converts_where_sentences_open_with_empty_nodes(case):
    """Openers close where the readers' sentence changes, so every span of
    the cleaned line lies in one sentence and converts to CoNLL-U."""
    sizes, leads, reference, tokens, items = case
    noisy = " ".join(
        token + ("|" + ",".join(SYNTAX[kind].format(eid) for kind, eid in token_items)
                 if token_items else "")
        for token, token_items in zip(tokens, items)
    )
    cleaned = from_plaintext(clean_output(reference, noisy).render())
    assert [("##" if t.is_empty else "") + t.surface for t in cleaned.tokens] == tokens
    sentence_of = readers_sentences(sizes, leads, tokens)
    assert sorted(plain_mentions(cleaned)) == sorted(oracle_bracket_repair(items, sentence_of))

    rebuilt, entities = reconstruct_conllu(reference, cleaned)
    back = parse_conllu(serialize_conllu([(rebuilt, entities)]))
    assert canonical_clusters(back[0][1]) == canonical_clusters(entities)
