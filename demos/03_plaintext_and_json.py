"""Convert between CoNLL-U and the plaintext / JSON interchange formats.

Plaintext puts each document on one line with bracket annotations after
a `|`; empty nodes get a `##` prefix and move directly after their
syntactic parent.  JSON carries four fields per document with 0-based
inclusive token offsets.  Both conversions are reversible back onto the
CoNLL-U skeleton.
"""

import json

from corefkit import (
    from_plaintext,
    json_doc_from_value,
    parse_conllu,
    reconstruct_conllu,
    reconstruct_from_json,
    serialize_conllu,
    to_json,
    to_plaintext,
)

SAMPLE = """\
# newdoc id = voyage
# sent_id = s1
1	The	the	DET	_	_	2	det	_	Entity=(e1
2	crew	crew	NOUN	_	_	3	nsubj	_	Entity=e1)
3	cheered	cheer	VERB	_	_	0	root	_	_
3.1	they	they	PRON	_	_	_	_	3:nsubj	Entity=(e1)

# sent_id = s2
1	Landfall	landfall	NOUN	_	_	0	root	_	Entity=(e2)
2	at	at	ADP	_	_	3	case	_	_
3	last	last	NOUN	_	_	1	nmod	_	_
"""


def main() -> None:
    corpus = parse_conllu(SAMPLE)
    document, entities = corpus[0]

    line = to_plaintext(document, entities).render()
    print("plaintext:")
    print(f"  {line}")

    rebuilt_doc, rebuilt_entities = reconstruct_conllu(document, from_plaintext(line))
    same = serialize_conllu([(rebuilt_doc, rebuilt_entities)]) \
        == serialize_conllu(corpus)
    print(f"reconstructed CoNLL-U identical: {same}")

    jdoc = to_json(document, entities)
    print("\nJSON document:")
    print(json.dumps(jdoc.to_value(), indent=1))

    # the JSON value survives a serialization cycle and projects back
    value = json.loads(json.dumps(jdoc.to_value()))
    _, back = reconstruct_from_json(json_doc_from_value(value), document)
    clusters = sorted(
        sorted(tuple(n.conllu_id() for n in m.span) for m in e.mentions)
        for e in back
    )
    print(f"\nclusters after the JSON round trip: {clusters}")


if __name__ == "__main__":
    main()
