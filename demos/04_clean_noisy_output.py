"""Repair a noisy generated annotation line against its reference.

Text generators asked to echo a document with bracket annotations tend
to hallucinate tokens, drop words, rewrite spellings, and lose closing
brackets.  The cleaner re-anchors everything onto the authoritative
token sequence via word-level edit distance (empty `##` tokens are kept
out of the alignment and re-inserted) and force-closes any unclosed
mention at the end of the sentence where it opened.
"""

from corefkit import clean_output, parse_conllu, reconstruct_conllu, to_plaintext

REFERENCE = """\
# newdoc id = tale
# sent_id = s1
1	A	a	DET	_	_	2	det	_	Entity=(e1
2	stranger	stranger	NOUN	_	_	3	nsubj	_	Entity=e1)
3	arrived	arrive	VERB	_	_	0	root	_	_
3.1	he	he	PRON	_	_	_	_	3:nsubj	Entity=(e1)

# sent_id = s2
1	The	the	DET	_	_	2	det	_	Entity=(e2
2	town	town	NOUN	_	_	3	nsubj	_	Entity=e2)
3	watched	watch	VERB	_	_	0	root	_	_
4	him	he	PRON	_	_	3	obj	_	Entity=(e1)
"""


def main() -> None:
    corpus = parse_conllu(REFERENCE)
    document, entities = corpus[0]
    valid = to_plaintext(document, entities).render()
    print("valid output:")
    print(f"  {valid}")

    # Token-level noise only: a misspelling, a hallucinated token, and a
    # dropped word.  The edit-distance alignment undoes all of it.
    noisy = valid.replace("arrived", "arived")
    noisy = noisy.replace("The|[e2", "Suddenly The|[e2")
    noisy = noisy.replace(" watched", "")
    print("\ntoken noise only:")
    print(f"  {noisy}")
    cleaned = clean_output(document, noisy)
    print(f"  -> {cleaned.render()}")
    print(f"  fully recovered: {cleaned.render() == valid}")

    # Now also destroy a mention boundary.  The closer after "stranger"
    # is gone for good, so the repair closes the mention at the end of
    # the sentence in which it opened.
    noisy = noisy.replace("stranger|e1]", "stranger")
    print("\ntoken noise plus a dropped closing bracket:")
    print(f"  {noisy}")
    cleaned = clean_output(document, noisy)
    print(f"  -> {cleaned.render()}")
    surface = [t.surface for t in cleaned.tokens if not t.is_empty]
    print(f"  token sequence equals the reference: {surface == document.surface_forms()}")

    # After cleaning, projection back onto CoNLL-U is always safe.
    _, recovered = reconstruct_conllu(document, cleaned)
    print(f"  recovered {sum(len(e.mentions) for e in recovered)} mentions in "
          f"{len(recovered)} entities")

    # A wrong reference is refused rather than silently mangled.
    try:
        clean_output(document, "completely unrelated text about sea shells")
    except Exception as error:
        print(f"\nwrong document refused: {type(error).__name__}: {error}")


if __name__ == "__main__":
    main()
