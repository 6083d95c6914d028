"""Walk through the CoNLL-U object model.

Parses a two-document corpus carrying entity annotations in MISC,
including an empty node (a zero mention), inspects the decoded
mentions and derived heads, and shows that serialization is a stable
canonical round trip.
"""

from corefkit import parse_conllu, serialize_conllu
from corefkit.model import document_word_index

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
    print(f"documents: {[d.doc_id for d in corpus.documents]}")

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

    # Word ordinals count surface tokens only, from 1 in each document;
    # empty nodes sit between them.
    print()
    for document in corpus.documents:
        ordinals, words = document_word_index(document)
        print(f"{document.doc_id}: {words} words (empty nodes not counted)")
        for sentence in document.sentences:
            for node in sentence.empty_nodes:
                print(f"  ordinal of the zero '{node.form}': {ordinals[node.id]}")

    # The canonicalized form is a fixpoint: parse(serialize(x)) == x.
    once = serialize_conllu(corpus)
    twice = serialize_conllu(parse_conllu(once))
    print(f"\nround trip byte-stable: {once == twice}")


if __name__ == "__main__":
    main()
