"""Walk through the CoNLL-U object model.

Parses a two-document corpus carrying entity annotations in MISC,
including an empty node (a zero mention), inspects the decoded
mentions and derived heads, and shows that serialization is a stable
canonical round trip.
"""

from corefkit import parse_conllu, serialize_conllu
from corefkit.model import word_offsets

SAMPLE = """\
# newdoc id = letters-01
# sent_id = s1
1	Maria	Maria	PROPN	_	_	2	nsubj	_	Entity=(e1)
2	wrote	write	VERB	_	_	0	root	_	_
3	a	a	DET	_	_	4	det	_	Entity=(e2
4	letter	letter	NOUN	_	_	2	obj	_	Entity=e2)
5	yesterday	yesterday	ADV	_	_	2	advmod	_	_

# sent_id = s2
1	Sent	send	VERB	_	_	0	root	_	_
1.1	she	she	PRON	_	_	_	_	1:nsubj	Entity=(e1)
2	it	it	PRON	_	_	1	obj	_	Entity=(e2)
3	today	today	ADV	_	_	1	advmod	_	_

# newdoc id = letters-02
# sent_id = s1
1	The	the	DET	_	_	2	det	_	Entity=(e7
2	reply	reply	NOUN	_	_	3	nsubj	_	Entity=e7)
3	arrived	arrive	VERB	_	_	0	root	_	_
"""


def main() -> None:
    corpus = parse_conllu(SAMPLE)
    print(f"documents: {[d.doc_id for d, _ in corpus]}")

    for document, entities in corpus:
        print(f"\n== {document.doc_id} ==")
        for sentence in document.sentences:
            surface = " ".join(
                ("*" + n.form + "*") if n.is_empty else n.form for n in sentence.nodes
            )
            print(f"  [{sentence.sent_id}] {surface}")
        for entity in entities:
            print(f"  entity {entity.id}" + (" (singleton)" if entity.is_singleton else ""))
            for mention in entity.mentions:
                forms = " ".join(document.node(n).form for n in mention.span)
                kind = "zero" if mention.is_zero else "surface"
                print(f"    {kind:7s} span={forms!r} head={mention.head.conllu_id()}")

    # Word offsets count the surface tokens before each sentence (empty
    # nodes are not words); a node is offsets[sentence] + major words into
    # its document, so a zero counts at the word it follows.
    print()
    for document, _ in corpus:
        offsets = word_offsets(document)
        print(f"{document.doc_id}: {offsets[-1]} words, sentence offsets {offsets[:-1]}")
        for sentence in document.sentences:
            for node in [n for n in sentence.nodes if n.is_empty]:
                word = offsets[node.id.sentence_index] + node.id.major
                print(f"  the zero '{node.form}' counts at word {word}")

    # The canonicalized form is a fixpoint: parse(serialize(x)) == x.
    once = serialize_conllu(corpus)
    twice = serialize_conllu(parse_conllu(once))
    print(f"\nround trip byte-stable: {once == twice}")


if __name__ == "__main__":
    main()
