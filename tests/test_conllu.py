import io
import random
import re
import warnings
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from corefkit.brackets import item_order
from corefkit import conllu
from corefkit.conllu import ConlluError, iter_documents, parse_conllu, serialize_conllu
from corefkit.model import NodeId

from helpers import canonical_clusters, doc, ent, random_gold, rich_corpora, sent
from oracles import oracle_sentence_mentions

HEADER = "# newdoc id = d1\n# sent_id = s1\n"


def line(cid, form, head="0", deprel="root", deps="_", misc="_"):
    return f"{cid}\t{form}\t_\t_\t_\t_\t{head}\t{deprel}\t{deps}\t{misc}\n"


def test_two_token_sentence_no_annotations():
    corpus = parse_conllu(HEADER + line("1", "Hi") + line("2", "there", "1", "dep"))
    assert len(corpus) == 1
    assert len(corpus[0][0].sentences[0].nodes) == 2
    assert corpus[0][1] == []


def test_empty_node_id():
    corpus = parse_conllu(
        HEADER + line("1", "go") + line("1.1", "Z", head="_", deprel="_", deps="1:nsubj")
    )
    node = corpus[0][0].sentences[0].nodes[1]
    assert node.is_empty and node.id.minor == 1
    assert node.parent == NodeId(0, 1) and node.deprel == "nsubj"


def test_unclosed_entity_reports_its_id():
    # bracket-balance oracle: one opener, zero closers -> must error on e1
    text = HEADER + line("1", "a", misc="Entity=(e1") + line("2", "b", "1", "dep")
    with pytest.raises(ConlluError, match="e1"):
        parse_conllu(text)


def test_unmatched_closer_is_an_error():
    text = HEADER + line("1", "a", misc="Entity=e9)")
    with pytest.raises(ConlluError, match="e9"):
        parse_conllu(text)


def test_cross_sentence_mention_rejected():
    text = (HEADER + line("1", "a", misc="Entity=(e1") + "\n"
            + "# sent_id = s2\n" + line("1", "b", misc="Entity=e1)"))
    with pytest.raises(ConlluError, match="e1"):
        parse_conllu(text)


def test_serialize_rejects_crossing_mentions_that_are_not_neighbours():
    # sorted, neighbours [0,10]-[1,2] nest and [1,2]-[3,12] are disjoint,
    # but [0,10] and [3,12] cross
    d = doc("d1", sent(0, [(f"w{k}", 0 if k == 0 else 1, "dep", "X") for k in range(13)]))
    spans = [[(0, k + 1) for k in range(s, e + 1)] for s, e in [(0, 10), (1, 2), (3, 12)]]
    with pytest.raises(ConlluError, match=r"entity 'e1' cross \(spans \[0,10\] and \[3,12\]\)"):
        serialize_conllu([(d, [ent("e1", d, *spans)])])


@pytest.mark.parametrize("bad, message", [
    (line("7", "a"), "malformed ID|sequence"),
    (line("x", "a"), "malformed ID"),
    (line("1", "a", head="4", deprel="dep"), "nonexistent parent"),
])
def test_malformed_input_errors(bad, message):
    with pytest.raises(ConlluError, match=message):
        parse_conllu(HEADER + bad)


@pytest.mark.parametrize("bad, message", [
    (line("\u00b2", "a"), "line 3: malformed ID field '\u00b2'"),
    (line("1", "a") + line("2", "b", head="\u00b2", deprel="dep"),
     "line 4: malformed head reference '\u00b2'"),
    (line("1\u00b2", "a"), "line 3: malformed ID field '1\u00b2'"),
    (line("1", "a") + line("1.\u00b2", "z", head="_", deprel="_", deps="1:dep"),
     "line 4: malformed ID field '1.\u00b2'"),
])
def test_superscript_digits_are_not_ids(bad, message):
    # "\u00b2" passes str.isdigit but not str.isdecimal, and int() refuses it
    with pytest.raises(ConlluError) as err:
        parse_conllu(HEADER + bad)
    assert str(err.value) == message


def test_arabic_indic_digits_read_as_ids_and_heads():
    # \d and str.isdecimal accept every decimal digit (Unicode Nd)
    text = (HEADER + line("\u0661", "a") + line("\u0662", "b", head="\u0663", deprel="dep")
            + line("\u0663", "c", head="\u0661", deprel="dep")
            + line("\u0663.\u0661", "z", head="_", deprel="_", deps="\u0662:dep"))
    sentence = parse_conllu(text)[0][0].sentences[0]
    one, two, three = NodeId(0, 1), NodeId(0, 2), NodeId(0, 3)
    assert [(n.id, n.parent) for n in sentence.nodes] == [
        (one, None), (two, three), (three, one), (NodeId(0, 3, 1), two)]


def test_duplicate_sent_id_rejected():
    text = (HEADER + line("1", "a") + "\n# sent_id = s1\n" + line("1", "b"))
    with pytest.raises(ConlluError, match="duplicate sent_id"):
        parse_conllu(text)


def test_error_carries_line_number():
    with pytest.raises(ConlluError) as err:
        parse_conllu(HEADER + line("1", "a") + line("9", "b"))
    assert err.value.line == 4


def test_entity_decoding_single_open_close():
    text = (HEADER
            + line("1", "the", "2", "det", misc="Entity=(e1")
            + line("2", "dog", "0", "root", misc="Entity=e1)(e2)"))
    corpus = parse_conllu(text)
    spans = {
        e.id: [tuple(n.major for n in m.span) for m in e.mentions]
        for e in corpus[0][1]
    }
    assert spans == {"e1": [(1, 2)], "e2": [(2,)]}


def test_discontinuous_mention_part_notation():
    text = (HEADER
            + line("1", "a", misc="Entity=(e1[1/2")
            + line("2", "b", "1", "dep", misc="Entity=e1[1/2])")
            + line("3", "c", "1", "dep")
            + line("4", "d", "1", "dep", misc="Entity=(e1[2/2")
            + line("5", "e", "1", "dep", misc="Entity=e1[2/2])"))
    corpus = parse_conllu(text)
    (entity,) = corpus[0][1]
    assert [n.major for n in entity.mentions[0].span] == [1, 2, 4, 5]
    # re-parse equality oracle: serialization uses part notation and decodes back
    rendered = serialize_conllu(corpus)
    assert "[1/2" in rendered and "[2/2" in rendered
    again = parse_conllu(rendered)
    assert canonical_clusters(again[0][1]) == canonical_clusters(corpus[0][1])


def test_entity_subfields_ignored_with_warning():
    text = (HEADER
            + line("1", "a", misc="Entity=(e1-person-2")
            + line("2", "b", "1", "dep", misc="Entity=e1)"))
    corpus = parse_conllu(text)
    assert corpus[0][1][0].id == "e1"


def test_feats_and_misc_sorted_canonically():
    text = HEADER + "1\tw\t_\t_\t_\tB=2|A=1\t0\troot\t_\tZk=1|Ak=2\n"
    out = serialize_conllu(parse_conllu(text))
    assert "A=1|B=2" in out
    assert "Ak=2|Zk=1" in out


def test_multiword_token_ranges_roundtrip():
    text = (HEADER
            + "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
            + line("1", "de", "3", "case")
            + line("2", "el", "3", "det")
            + line("3", "mar", "0", "root"))
    corpus = parse_conllu(text)
    assert corpus[0][0].sentences[0].mwt_ranges == [(1, 2, "del")]
    assert "1-2\tdel" in serialize_conllu(corpus)


def test_content_before_newdoc_synthesizes_doc_id():
    with pytest.warns(UserWarning, match="newdoc"):
        corpus = parse_conllu(line("1", "a"))
    assert corpus[0][0].doc_id == "doc_1"


def test_nonidentity_annotations_warn_but_are_kept_in_misc():
    text = HEADER + line("1", "a", misc="Bridge=e1<e2")
    with pytest.warns(UserWarning, match="Bridge"):
        corpus = parse_conllu(text)
    assert corpus[0][0].sentences[0].nodes[0].misc["Bridge"] == "e1<e2"


def test_nested_same_entity_mentions_roundtrip():
    text = (HEADER
            + line("1", "a", misc="Entity=(e1(e1")
            + line("2", "b", "1", "dep", misc="Entity=e1)")
            + line("3", "c", "1", "dep", misc="Entity=e1)"))
    corpus = parse_conllu(text)
    spans = sorted(tuple(n.major for n in m.span)
                   for e in corpus[0][1] for m in e.mentions)
    assert spans == [(1, 2), (1, 2, 3)]
    again = parse_conllu(serialize_conllu(corpus))
    assert canonical_clusters(again[0][1]) == canonical_clusters(corpus[0][1])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_roundtrip_is_byte_stable_after_canonicalization(seed):
    rng = random.Random(seed)
    corpus = random_gold(rng, n_docs=rng.randint(1, 3))
    once = serialize_conllu(corpus)
    reparsed = parse_conllu(once)
    assert serialize_conllu(reparsed) == once


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_entity_multiset_is_a_reparse_fixpoint(seed):
    rng = random.Random(seed)
    corpus = random_gold(rng, n_docs=2)
    reparsed = parse_conllu(serialize_conllu(corpus))
    for doc_index in range(2):
        gold_pairs = Counter(
            (e.id, tuple((n.sentence_index, n.major, n.minor) for n in m.span))
            for e in corpus[doc_index][1] for m in e.mentions
        )
        got_pairs = Counter(
            (e.id, tuple((n.sentence_index, n.major, n.minor) for n in m.span))
            for e in reparsed[doc_index][1] for m in e.mentions
        )
        assert got_pairs == gold_pairs


def test_parse_serialize_preserves_fields():
    rng = random.Random(5)
    corpus = random_gold(rng, n_docs=2)
    reparsed = parse_conllu(serialize_conllu(corpus))
    for (da, _), (db, _) in zip(corpus, reparsed):
        assert da.doc_id == db.doc_id
        for sa, sb in zip(da.sentences, db.sentences):
            assert sa.sent_id == sb.sent_id
            assert sa.mwt_ranges == sb.mwt_ranges
            for na, nb in zip(sa.nodes, sb.nodes):
                assert (na.id, na.form, na.lemma, na.upos, na.xpos) == \
                       (nb.id, nb.form, nb.lemma, nb.upos, nb.xpos)
                assert (na.parent, na.deprel, na.feats, na.misc) == \
                       (nb.parent, nb.deprel, nb.feats, nb.misc)


@settings(max_examples=60, deadline=None)
@given(rich_corpora())
def test_serialize_parse_is_a_fixpoint_with_every_column(corpus):
    once = serialize_conllu(corpus)
    assert serialize_conllu(parse_conllu(once)) == once
    # a streamed reading gives the parsed pairs, and serializes to the same bytes
    assert parse_conllu(once) == list(iter_documents(once))
    assert serialize_conllu(iter_documents(once)) == once


def test_serialize_rejects_interleaved_discontinuous_mentions():
    # part 2/2 at 5 would join the first pending mention, {2}, not {3}
    d = doc("d1", sent(0, [("w", 0, "root", "X")] + [("w", 1, "dep", "X")] * 6))
    e1 = ent("e1", d, [(0, 2), (0, 6)], [(0, 3), (0, 5)])
    with pytest.raises(ConlluError, match="entity 'e1'"):
        serialize_conllu([(d, [e1])])


@st.composite
def discontinuous_mentions(draw):
    """A sentence length and (eid, positions) mentions over it, often
    discontinuous, nested, interleaved or sharing segments."""
    size = draw(st.integers(2, 8))
    mentions = draw(st.lists(
        st.tuples(st.sampled_from(("e1", "e2")),
                  st.frozensets(st.integers(1, size), min_size=1, max_size=4)),
        min_size=1, max_size=5))
    return size, mentions


@settings(max_examples=300, deadline=None)
@given(discontinuous_mentions())
def test_discontinuous_mentions_read_back_or_the_writer_raises(case):
    size, mentions = case
    d = doc("d1", sent(0, [("w", 0, "root", "X")] + [("w", 1, "dep", "X")] * (size - 1)))
    written = {eid: Counter(tuple(sorted(m)) for e, m in mentions if e == eid)
               for eid, _ in mentions}
    entities = [ent(eid, d, *([(0, k) for k in span] for span in spans.elements()))
                for eid, spans in written.items()]
    try:
        text = serialize_conllu([(d, entities)])
    except ConlluError:
        return
    read = {e.id: Counter(tuple(n.major for n in m.span) for m in e.mentions)
            for e in parse_conllu(text)[0][1]}
    assert read == written


NEXT_SENTENCE = "\n# sent_id = s2\n" + line("1", "z")


@pytest.mark.parametrize("body, error_line, message", [
    (line("1", "a") + line("2", "b", "1", "dep", misc="Entity=e1)"),
     4, "closing bracket for entity 'e1' has no matching opener"),
    (line("1", "a", misc="Entity=(e1") + line("2", "b", "1", "dep") + NEXT_SENTENCE,
     5, "entity 'e1' opened at line 3 has no closing bracket before the end of the sentence"),
    (line("1", "a", misc="Entity=(e1") + line("2", "b", "1", "dep", misc="Entity=(e1"),
     4, "entity 'e1' opened at line 4 has no closing bracket before the end of the sentence"),
    (line("1", "a", misc="Entity=(e1[1/2") + line("2", "b", "1", "dep", misc="Entity=e1)"),
     4, "entity 'e1' closes part None but part (1, 2) is open"),
    (line("1", "a", misc="Entity=(e1") + line("2", "b", "1", "dep", misc="Entity=e1[1/2])"),
     4, "entity 'e1' closes part (1, 2) but part None is open"),
    (line("1", "a", misc="Entity=(e1[2/2])"),
     3, "entity 'e1' part 2/2 arrived without part 1/2"),
    (line("1", "a", misc="Entity=(e1[1/3") + line("2", "b", "1", "dep", misc="Entity=e1[1/3])")
     + line("3", "c", "1", "dep", misc="Entity=(e1[3/3])"),
     5, "entity 'e1' part 3/3 arrived without part 2/3"),
    (line("1", "a", misc="Entity=(e1[1/2])") + line("2", "b", "1", "dep") + NEXT_SENTENCE,
     5, "discontinuous mention of entity 'e1' is missing part 2/2 at the end of the sentence"),
    (line("1", "a", misc="Entity=(e1[1/2])") + line("2", "b", "1", "dep"),
     4, "discontinuous mention of entity 'e1' is missing part 2/2 at the end of the sentence"),
    (line("1", "a", misc="Entity=(e1[0/0])"), 3, "malformed part 0/0 of entity 'e1'"),
    (line("1", "a", misc="Entity=(e1[2/1])"), 3, "malformed part 2/1 of entity 'e1'"),
    (line("1", "a", misc="Entity=(e1") + line("2", "b", "1", "dep", misc="Entity=e1[0/2])"),
     4, "malformed part 0/2 of entity 'e1'"),
])
def test_bracket_errors_keep_their_message_and_line(body, error_line, message):
    with pytest.raises(ConlluError) as err:
        parse_conllu(HEADER + body)
    assert err.value.line == error_line
    assert str(err.value) == f"line {error_line}: {message}"


def test_identical_spans_of_one_entity_with_different_parts_read_back():
    # (e1 and (e1[1/2 open on token 2; their closers on token 4 must come
    # in reverse opener order for the reader to pair them
    d = doc("d1", sent(0, [("w", 0, "root", "X")] + [("w", 1, "dep", "X")] * 6))
    e1 = ent("e1", d, [(0, 2), (0, 3), (0, 4)], [(0, 2), (0, 3), (0, 4), (0, 6)])
    text = serialize_conllu([(d, [e1])])
    assert "Entity=e1[1/2])e1)" in text
    (back,) = parse_conllu(text)[0][1]
    assert sorted(tuple(n.major for n in m.span) for m in back.mentions) == [(2, 3, 4), (2, 3, 4, 6)]


def test_lines_end_at_newline_only():
    # U+2028 is a line break to str.splitlines, not to CoNLL-U
    text = HEADER + line("1", "a") + line("2", "c\u2028d", "1", "dep") + line("4", "e")
    with pytest.raises(ConlluError) as err:
        parse_conllu(text)
    assert err.value.line == 5
    corpus = parse_conllu(HEADER + line("1", "a") + line("2", "c\u2028d", "1", "dep"))
    assert corpus[0][0].surface_forms() == ["a", "c\u2028d"]


# The decoder test writes random mentions of three entities (nested,
# crossing, and discontinuous in [k/n] parts) as bracket items, then
# corrupts some: an item dropped, added or given another part, or a
# malformed piece put in.
_MALFORMED = ["(", ")", "e1", "e2[1/2", "(e1[1/2)", "[1/2])", "-x)", "(e1]", "e1-x", "(-)"]


def _render_item(kind, eid, part):
    tag = eid if part is None else f"{eid}[{part[0]}/{part[1]}"
    if kind == "open":
        return "(" + tag
    tag += "" if part is None else "]"
    return tag + ")" if kind == "close" else "(" + tag + ")"


@st.composite
def _entity_values(draw, size):
    """Entity values of one sentence's ``size`` nodes, by position."""
    spans = []
    for _ in range(draw(st.integers(0, 4))):
        eid = draw(st.sampled_from(["e1", "e2", "e3"]))
        starts = sorted(draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3)))
        for k, start in enumerate(starts, start=1):
            part = (k, len(starts)) if len(starts) > 1 else None
            spans.append((eid, start, draw(st.integers(start, size - 1)), part))
    items = {pos: [_render_item(*item) for item in position_items]
             for pos, position_items in item_order(spans).items()}
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        pos = draw(st.integers(0, size - 1))
        at = items.setdefault(pos, [])
        change = draw(st.sampled_from(["drop", "add", "part", "malformed"]))
        if change == "drop" and at:
            at.pop(draw(st.integers(0, len(at) - 1)))
        elif change == "part" and at:
            k = draw(st.integers(0, len(at) - 1))
            at[k] = at[k].replace("[1/", "[2/", 1) if "[" in at[k] else at[k].replace(")", "[1/2])")
        else:
            piece = draw(st.sampled_from(_MALFORMED)) if change == "malformed" else _render_item(
                draw(st.sampled_from(["open", "close", "single"])),
                draw(st.sampled_from(["e1", "e2-new"])),
                draw(st.sampled_from([None, (1, 2), (2, 2), (0, 2), (3, 2)])))
            at.insert(draw(st.integers(0, len(at))), piece)
    return ["".join(items.get(pos, [])) for pos in range(size)]


@st.composite
def _annotated_document(draw):
    """CoNLL-U text of one document, and the same text without Entity."""
    lines, bare = ["# newdoc id = d1"], ["# newdoc id = d1"]
    for s_index in range(draw(st.integers(1, 3))):
        lines.append(f"# sent_id = s{s_index}")
        bare.append(lines[-1])
        n = draw(st.integers(1, 6))
        rows = []
        empty_after = draw(st.integers(0, n))  # 0: no empty node
        for major in range(1, n + 1):
            head = str(draw(st.integers(0, n)))  # a head may point at itself
            rows.append([str(major), "w", "_", "_", "_", "_", head, "dep", "_"])
            if major == empty_after:
                rows.append([f"{major}.1", "z", "_", "_", "_", "_", "_", "_",
                             f"{draw(st.integers(1, n))}:dep"])
        for row, value in zip(rows, draw(_entity_values(len(rows)))):
            lines.append("\t".join(row + ["Entity=" + value if value else "_"]))
            bare.append("\t".join(row + ["_"]))
        lines.append("")
        bare.append("")
    return "\n".join(lines) + "\n", "\n".join(bare) + "\n"


def _oracle_entities(text, sentences):
    """The document's entities as ``(eid, [(eid, span, head, is_zero)])``
    by the oracle decoder, with each entity's mentions in span order."""
    grouped, values, position, s_index = {}, [], 0, 0
    for line_no, row in enumerate(text.split("\n"), start=1):
        if row.startswith("#"):
            continue
        if not row:
            if position:
                for mention in oracle_sentence_mentions(values, sentences[s_index], line_no):
                    grouped.setdefault(mention[0], []).append(mention)
                s_index += 1
            values, position = [], 0
            continue
        misc = row.split("\t")[9]
        if misc.startswith("Entity=") and misc != "Entity=":
            values.append((misc[len("Entity="):], position, line_no))
        position += 1
    return [(eid, sorted(ms, key=lambda m: (m[1][0], m[1][-1]))) for eid, ms in grouped.items()]


@settings(max_examples=500, deadline=None)
@given(_annotated_document())
def test_mention_decoding_matches_the_oracle(case):
    text, bare = case
    sentences = parse_conllu(bare)[0][0].sentences
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # spans whose every parent points inside
        try:
            expected = _oracle_entities(text, sentences)
        except ConlluError as exc:
            with pytest.raises(ConlluError) as err:
                parse_conllu(text)
            assert (str(err.value), err.value.line) == (str(exc), exc.line)
            return
        entities = parse_conllu(text)[0][1]
    assert [(e.id, [(m.entity_id, m.span, m.head, m.is_zero) for m in e.mentions])
            for e in entities] == expected


# iter_documents reads a file a block at a time.  The streamed reading
# must give parse_conllu's corpus, or its first error with the same
# message and line, on inputs of several documents from the generators
# above, some with a duplicate id or an invalid UTF-8 byte put in, whatever
# the block size.

@st.composite
def _conllu_inputs(draw):
    if draw(st.booleans()):
        text = serialize_conllu(draw(rich_corpora()))
    else:
        texts = [draw(_annotated_document())[0] for _ in range(draw(st.integers(1, 3)))]
        ids = draw(st.lists(st.sampled_from(("d1", "d2", "d3")), min_size=len(texts),
                            max_size=len(texts)))
        text = "".join(t.replace("# newdoc id = d1", f"# newdoc id = {i}")
                       for t, i in zip(texts, ids))
    data = text.encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from((b"\xff", b"\xe2\x82", b"\xef\xbb\xbf"))) \
            + data[at:]
    return data


def _read(parse):
    """The corpus ``parse()`` gives, or the message and line it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return parse()
        except ConlluError as exc:
            return str(exc), exc.line


@settings(max_examples=200, deadline=None)
@given(_conllu_inputs(), st.integers(1, 80), st.booleans())
# a duplicate id on line 4 and an unterminated invalid last line: the
# invalid byte is the first error of both readings
@example(("# newdoc id = d1\n1\tw\t_\t_\t_\t_\t0\tdep\t_\t_\n\n" * 2).encode() + b"\xff",
         16, True)
def test_streamed_documents_are_the_parsed_corpus(data, block, binary):
    expected = _read(lambda: parse_conllu(data))
    try:  # a text file object where asked and the input decodes, else a binary one
        file = io.BytesIO(data) if binary else io.StringIO(data.decode("utf-8"), newline="")
    except UnicodeDecodeError:
        file = io.BytesIO(data)
    with mock.patch.object(conllu, "_BLOCK", block):
        assert _read(lambda: list(iter_documents(file))) == expected
        assert _read(lambda: parse_conllu(data)) == expected
    if not isinstance(expected, tuple):
        assert _read(lambda: parse_conllu(data.decode("utf-8"))) == expected



def test_parse_conllu_returns_the_pairs_iter_documents_yields():
    text = "".join(f"# newdoc id = d{k}\n# sent_id = s1\n" + line("1", "a", misc=f"Entity=(e{k})")
                   + line("2", "b", "1", "dep") + "\n" for k in range(1, 4))
    pairs = parse_conllu(text)
    assert isinstance(pairs, list) and [d.doc_id for d, _ in pairs] == ["d1", "d2", "d3"]
    assert pairs == list(iter_documents(text))

def test_invalid_utf8_is_reported_before_an_earlier_parse_error():
    data = (HEADER + line("1", "a") + "not a conllu line\n" + "\n# newdoc id = d2\n"
            + line("1", "b")).encode() + b"\xff\n"
    message = re.escape("line 8: invalid UTF-8 (invalid start byte) at byte 114")
    with pytest.raises(ConlluError, match=message):
        parse_conllu(data)
    with mock.patch.object(conllu, "_BLOCK", 16), pytest.raises(ConlluError, match=message):
        list(iter_documents(io.BytesIO(data)))
    with mock.patch.object(conllu, "_BLOCK", 16), pytest.raises(ConlluError, match=message):
        parse_conllu(io.BytesIO(data))


def test_iter_documents_yields_each_document_before_reading_the_next():
    text = "".join(f"# newdoc id = d{k}\n# sent_id = s1\n" + line("1", "w" * 40) + "\n"
                   for k in range(1, 6))
    file = io.BytesIO(text.encode())
    with mock.patch.object(conllu, "_BLOCK", 32):
        documents = iter_documents(file)
        first, _ = next(documents)
        assert first.doc_id == "d1" and file.tell() < len(text) // 2
        assert [d.doc_id for d, _ in documents] == ["d2", "d3", "d4", "d5"]


def test_a_leading_byte_order_mark_is_dropped_however_the_input_is_read():
    text = HEADER + line("1", "a")
    expected = parse_conllu(text)
    assert parse_conllu("\ufeff" + text) == expected
    assert parse_conllu(("\ufeff" + text).encode()) == expected
    with mock.patch.object(conllu, "_BLOCK", 2):  # the mark's 3 bytes span two blocks
        assert list(iter_documents(io.BytesIO(("\ufeff" + text).encode()))) == expected
    with pytest.raises(ConlluError, match="line 2: "):  # only a mark that starts the input
        parse_conllu(HEADER.replace("\n", "\n\ufeff", 1) + line("1", "a"))


# iter_documents parses each document with its own parse_conllu call.

def test_parse_conllu_numbers_lines_from_first_line():
    with pytest.raises(ConlluError, match="line 9: malformed ID field 'x'"):
        parse_conllu(HEADER + line("x", "a"), first_line=7)


def test_a_sentence_left_open_at_a_newdoc_closes_at_its_line_in_either_reading():
    text = HEADER + line("1-2", "ab") + line("1", "a") + "# newdoc id = d2\n" \
        + "# sent_id = s1\n" + line("1", "b")
    message = re.escape("line 5: multiword token range extends past the last token (2)")
    with pytest.raises(ConlluError, match=message):
        parse_conllu(text)
    with pytest.raises(ConlluError, match=message):
        list(iter_documents(io.BytesIO(text.encode())))


def test_iter_documents_warns_once_for_the_skipped_annotations_of_every_document():
    text = "".join(f"# newdoc id = d{k}\n# sent_id = s1\n" + line("1", "a", misc="Bridge=e1<e2")
                   + "\n" for k in (1, 2, 3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert [d.doc_id for d, _ in iter_documents(io.BytesIO(text.encode()))] \
            == ["d1", "d2", "d3"]
    assert [str(w.message) for w in caught] \
        == ["skipped 3 non-identity anaphora annotations (Bridge/SplitAnte)"]
