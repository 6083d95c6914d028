"""The bracket codec shared by CoNLL-U ``Entity`` values and plaintext.

A span is an opener on its first token and a closer on its last, or one
single item; one stack per entity id pairs them again.  That gives back
the written spans when each token's items follow ``item_order`` and no
two spans of one entity cross (``find_crossing``).  Spans are ``(eid,
start, end, part)`` over token positions; items are ``(kind, eid,
part)``.  ``part`` is the ``(k, n)`` mark of segment k of a CoNLL-U
mention in n discontinuous segments, or None (always, in plaintext);
``join_parts`` joins the segments into mentions.
"""

OPEN, CLOSE, SINGLE = "open", "close", "open_close"


def item_order(spans) -> dict[int, list[tuple[str, str, tuple[int, int] | None]]]:
    """Canonical ``(kind, eid, part)`` items of each position that carries any.

    Closers come first, inner ones first (later start); then singles;
    then openers, longer ones first (later end); ties are broken by eid,
    then part, except that one entity's identical spans close in reverse
    opener order (parts descending, None last).  Closers must precede
    openers for spans that touch to pair back, and identical spans must
    close in reverse for their parts to pair back; the rest makes the
    output canonical.
    """
    by_position: dict[int, list[tuple]] = {}
    for eid, start, end, part in spans:
        k, n = part or (0, 0)
        if start == end:
            by_position.setdefault(start, []).append((1, 0, eid, k, n, SINGLE, eid, part))
        else:
            by_position.setdefault(end, []).append((0, -start, eid, -k, -n, CLOSE, eid, part))
            by_position.setdefault(start, []).append((2, -end, eid, k, n, OPEN, eid, part))
    return {pos: [item[5:] for item in sorted(items)] for pos, items in by_position.items()}


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


def pair_items(positioned_items, sentence_ends=()):
    """Pair ``(kind, eid, part)`` items with one stack per entity id.

    ``positioned_items`` yields ``(pos, items)`` in increasing ``pos``;
    each position in ``sentence_ends``, and the last position, ends a
    sentence.  A closer pairs with the entity's innermost open opener
    when their parts agree.  Returns (spans, unmatched, unclosed): the
    ``(eid, start, end, part)`` spans in the order they close; the
    ``(eid, pos, part, opener)`` closers that pair with nothing, where
    ``opener`` is the ``(start, part)`` of that innermost opener, or None
    when none is open; and the ``(eid, start, end, part)`` openers still
    open at the sentence end ``end``, innermost first, entity by entity
    in the order the entities first opened.
    """
    spans: list[tuple] = []
    unmatched: list[tuple] = []
    unclosed: list[tuple] = []
    stacks: dict[str, list[tuple]] = {}  # eid -> (start, part) openers; non-empty only
    first_open: dict[str, int] = {}  # eid -> rank of its first opener
    ends = set(sentence_ends)
    pos = -1
    for pos, items in positioned_items:
        for kind, eid, part in items:
            if kind == OPEN:
                first_open.setdefault(eid, len(first_open))
                stacks.setdefault(eid, []).append((pos, part))
            elif kind == CLOSE:
                stack = stacks.get(eid)
                if not stack or stack[-1][1] != part:
                    unmatched.append((eid, pos, part, stack[-1] if stack else None))
                    continue
                spans.append((eid, stack.pop()[0], pos, part))
                if not stack:
                    del stacks[eid]
            else:
                spans.append((eid, pos, pos, part))
        if stacks and pos in ends:
            _close_stacks(stacks, first_open, pos, unclosed)
    if stacks:
        _close_stacks(stacks, first_open, pos, unclosed)
    return spans, unmatched, unclosed


def _close_stacks(stacks, first_open, end: int, unclosed: list) -> None:
    """Move the openers still open at sentence end ``end`` to ``unclosed``."""
    for eid in sorted(stacks, key=first_open.__getitem__):
        unclosed.extend((eid, start, end, part) for start, part in reversed(stacks[eid]))
    stacks.clear()


def join_parts(spans):
    """Join the ``[k/n]`` segments among ``spans``, taken in the order
    they close, into mentions.

    A span without a part, or with part 1/1, is a mention of its own;
    part 1/n starts a pending mention, and part k/n joins the first
    pending mention of that entity with the same n that waits for part
    k.  Returns (mentions, orphans, missing): the ``(eid, positions)``
    mentions in the order they complete, ``positions`` ascending (the
    span's ``range``, or a sorted list for joined segments); the ``(eid,
    end, part)`` segments no pending mention waits for; and the ``(eid,
    part)`` parts that pending mentions still wait for.
    """
    mentions: list[tuple] = []
    orphans: list[tuple] = []
    pending: dict[str, list[list]] = {}  # eid -> [next k, n, positions]; non-empty only
    for eid, start, end, part in spans:
        if part is None or part == (1, 1):
            mentions.append((eid, range(start, end + 1)))
            continue
        k, n = part
        if k == 1:
            pending.setdefault(eid, []).append([2, n, set(range(start, end + 1))])
            continue
        entries = pending.get(eid, ())
        entry = next((entry for entry in entries if entry[0] == k and entry[1] == n), None)
        if entry is None:
            orphans.append((eid, end, part))
            continue
        entry[2].update(range(start, end + 1))
        entry[0] = k + 1
        if k == n:
            entries.remove(entry)
            if not entries:
                del pending[eid]
            mentions.append((eid, sorted(entry[2])))
    missing = [(eid, (k, n)) for eid, entries in pending.items() for k, n, _ in entries]
    return mentions, orphans, missing
