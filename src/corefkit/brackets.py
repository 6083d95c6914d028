"""Bracket rules shared by the CoNLL-U ``Entity`` codec and plaintext.

A span is an opener on its first token and a closer on its last, or one
single item; one stack per entity id pairs them again.  That gives back
the written spans when each token's items follow ``item_order`` and no
two spans of one entity cross (``find_crossing``).  Spans are ``(eid,
start, end, part)`` over token positions; ``part`` is the ``(k, n)``
mark of a discontinuous CoNLL-U segment, or None.
"""

OPEN, CLOSE, SINGLE = "open", "close", "open_close"


def item_order(spans) -> dict[int, list[tuple[str, str, tuple[int, int] | None]]]:
    """Canonical ``(kind, eid, part)`` items of each position that carries any.

    Closers come first, inner ones first (later start); then singles;
    then openers, longer ones first (later end); ties are broken by eid,
    then part.  Closers must precede openers for spans that touch to pair
    back; the rest makes the output canonical.
    """
    by_position: dict[int, list[tuple]] = {}
    for eid, start, end, part in spans:
        tie = (eid, part or (0, 0))
        if start == end:
            by_position.setdefault(start, []).append((1, 0, tie, SINGLE, eid, part))
        else:
            by_position.setdefault(end, []).append((0, -start, tie, CLOSE, eid, part))
            by_position.setdefault(start, []).append((2, -end, tie, OPEN, eid, part))
    return {pos: [item[3:] for item in sorted(items)] for pos, items in by_position.items()}


def find_crossing(spans) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """A pair ``(s1, e1), (s2, e2)`` with s1 < s2 < e1 < e2 among one
    entity's ``(start, end)`` spans, or None.

    The closer at e1 would pair with the opener at s2.  Spans that only
    touch (e1 = s2) pair back, as closers precede openers on a token.
    A stack of the spans still open finds any crossing in O(k log k).
    """
    open_spans: list[tuple[int, int]] = []  # nested, outermost at the bottom
    for start, end in sorted(spans, key=lambda span: (span[0], -span[1])):
        while open_spans and open_spans[-1][1] <= start:
            open_spans.pop()
        if open_spans and open_spans[-1][1] < end:
            return open_spans[-1], (start, end)
        open_spans.append((start, end))
    return None


def pair_items(token_items, sentence_ends):
    """Pair plaintext items with one stack per entity id.

    ``token_items[pos]`` lists the items (with ``kind`` and
    ``entity_id``) of token ``pos``; the last token and each position in
    ``sentence_ends`` end a sentence.  Returns (spans, unmatched,
    unclosed): the ``(eid, start, end)`` spans in the order they close,
    the ``(eid, pos)`` closers without an opener, and the ``(eid, start,
    end)`` openers still open at the sentence end ``end``, innermost
    first, entity by entity in the order the entities first opened.
    """
    spans: list[tuple[str, int, int]] = []
    unmatched: list[tuple[str, int]] = []
    unclosed: list[tuple[str, int, int]] = []
    stacks: dict[str, list[int]] = {}  # non-empty stacks only
    first_open: dict[str, int] = {}  # eid -> rank of its first opener
    ends = set(sentence_ends)
    ends.add(len(token_items) - 1)
    for pos, items in enumerate(token_items):
        for item in items:
            eid = item.entity_id
            if item.kind == OPEN:
                first_open.setdefault(eid, len(first_open))
                stacks.setdefault(eid, []).append(pos)
            elif item.kind == CLOSE:
                stack = stacks.get(eid)
                if stack:
                    spans.append((eid, stack.pop(), pos))
                    if not stack:
                        del stacks[eid]
                else:
                    unmatched.append((eid, pos))
            else:
                spans.append((eid, pos, pos))
        if stacks and pos in ends:
            for eid in sorted(stacks, key=first_open.__getitem__):
                unclosed.extend((eid, start, pos) for start in reversed(stacks[eid]))
            stacks.clear()
    return spans, unmatched, unclosed
