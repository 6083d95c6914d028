"""Independent brute-force reference implementations.

Everything here is written from the textbook definitions, separately
from the package code, so the tests are genuine dual-route checks.
Cluster arguments are lists of frozensets of hashable elements.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
from scipy.optimize import linear_sum_assignment

from corefkit.errors import ConlluError


def prf(rn, rd, pn, pd):
    r = rn / rd if rd else 0.0
    p = pn / pd if pd else 0.0
    f = 2 * r * p / (r + p) if r + p else 0.0
    return r, p, f


def oracle_muc(gold, pred):
    def score(keys, responses):
        num = den = 0
        for key in keys:
            parts = set()
            loose = 0
            for element in key:
                owners = [i for i, r in enumerate(responses) if element in r]
                if owners:
                    parts.add(owners[0])
                else:
                    loose += 1
            num += len(key) - len(parts) - loose
            den += len(key) - 1
        return num, den

    rn, rd = score(gold, pred)
    pn, pd = score(pred, gold)
    return prf(rn, rd, pn, pd)


def oracle_b3(gold, pred):
    def score(keys, responses):
        num = 0.0
        total = 0
        for key in keys:
            for element in key:
                total += 1
                owner = next((r for r in responses if element in r), None)
                if owner is not None:
                    num += len(key & owner) / len(key)
        return num, total

    rn, rd = score(gold, pred)
    pn, pd = score(pred, gold)
    return prf(rn, rd, pn, pd)


def oracle_ceafe(gold, pred):
    if not gold or not pred:
        return prf(0, len(gold), 0, len(pred))

    def phi4(a, b):
        return 2 * len(a & b) / (len(a) + len(b))

    small, large, transposed = (gold, pred, False) if len(gold) <= len(pred) \
        else (pred, gold, True)
    best = 0.0
    for perm in itertools.permutations(range(len(large)), len(small)):
        best = max(best, sum(phi4(small[i], large[j]) for i, j in enumerate(perm)))
    return prf(best, len(gold), best, len(pred))


def oracle_cluster_counts(gold, pred, singletons_included: bool):
    """Per-document (numerator, denominator) counts of MUC, B3, CEAF-e
    and LEA, and the six BLANC link counts, from loops over every gold x
    predicted cluster pair (the dense form the sparse table replaces).
    Floats are added in cluster-index order."""
    def muc(keys, responses):
        element_to_cluster = {e: ci for ci, cluster in enumerate(responses) for e in cluster}
        num = den = 0.0
        for key in keys:
            touched = {element_to_cluster[e] for e in key if e in element_to_cluster}
            missing = sum(1 for e in key if e not in element_to_cluster)
            num += len(key) - (len(touched) + missing)
            den += len(key) - 1
        return num, den

    def b3(keys, responses):
        num = 0.0
        den = 0
        for key in keys:
            den += len(key)
            for response in responses:
                overlap = len(key & response)
                if overlap:
                    num += overlap * overlap / len(key)
        return num, den

    def lea(keys, responses):
        num = den = 0.0
        for key in keys:
            den += len(key)
            if len(key) >= 2:
                resolved = sum(len(key & r) * (len(key & r) - 1) / 2
                               for r in responses) / (len(key) * (len(key) - 1) / 2)
            elif len(key) == 1 and singletons_included:
                resolved = 1.0 if any(key & r for r in responses) else 0.0
            else:
                continue
            num += len(key) * resolved
        return num, den

    def ceafe():
        if not gold or not pred:
            return 0.0, len(gold), 0.0, len(pred)
        phi4 = np.array([[2 * len(g & p) / (len(g) + len(p)) for p in pred] for g in gold])
        rows, cols = linear_sum_assignment(-phi4)
        total = float(phi4[rows, cols].sum())
        return total, len(gold), total, len(pred)

    def pairs(n):
        return n * (n - 1) / 2

    gold_elements = frozenset(e for c in gold for e in c)
    pred_elements = frozenset(e for c in pred for e in c)
    common = gold_elements & pred_elements
    coref_gold = sum(pairs(len(c)) for c in gold)
    coref_pred = sum(pairs(len(c)) for c in pred)
    coref_both = sum(pairs(len(g & p)) for g in gold for p in pred if g & p)
    noncoref_both = (pairs(len(common)) - sum(pairs(len(c & common)) for c in gold)
                     - sum(pairs(len(c & common)) for c in pred) + coref_both)
    both = {name: side(gold, pred) + side(pred, gold)
            for name, side in (("muc", muc), ("b3", b3), ("lea", lea))}
    return {**both, "ceaf_e": ceafe(),
            "blanc": (coref_both, coref_gold, coref_pred, noncoref_both,
                      pairs(len(gold_elements)) - coref_gold,
                      pairs(len(pred_elements)) - coref_pred)}


def oracle_partial_pairs(gold, pred):
    """Partial-regime pairs from a scan of every gold x predicted mention
    pair: a predicted span inside the gold span that holds the gold head
    is a candidate.  Candidates are taken greedily: exact spans first,
    then larger spans, then earlier gold, then earlier predicted index."""
    candidates = []
    for i, g in enumerate(gold):
        for j, p in enumerate(pred):
            gspan, pspan = set(g.span), set(p.span)
            if pspan <= gspan and g.head in pspan:
                candidates.append((gspan != pspan, -len(pspan), i, j))
    used_gold, used_pred, pairs = set(), set(), []
    for _, _, i, j in sorted(candidates):
        if i not in used_gold and j not in used_pred:
            used_gold.add(i)
            used_pred.add(j)
            pairs.append((i, j))
    return sorted(pairs)


def _links(clusters):
    pairs = set()
    for cluster in clusters:
        for a, b in itertools.combinations(sorted(cluster, key=repr), 2):
            pairs.add(frozenset((a, b)))
    return pairs


def _non_links(clusters):
    elements = sorted({e for c in clusters for e in c}, key=repr)
    coref = _links(clusters)
    return {
        frozenset((a, b))
        for a, b in itertools.combinations(elements, 2)
    } - coref


def oracle_blanc(gold, pred):
    cg, cp = _links(gold), _links(pred)
    ng, np_ = _non_links(gold), _non_links(pred)
    rc, pc, fc = prf(len(cg & cp), len(cg), len(cg & cp), len(cp))
    rn, pn, fn = prf(len(ng & np_), len(ng), len(ng & np_), len(np_))
    coref_present = bool(cg or cp)
    noncoref_present = bool(ng or np_)
    if coref_present and noncoref_present:
        return (rc + rn) / 2, (pc + pn) / 2, (fc + fn) / 2
    if coref_present:
        return rc, pc, fc
    if noncoref_present:
        return rn, pn, fn
    return 0.0, 0.0, 0.0


def oracle_lea(gold, pred, singletons_included: bool):
    def score(keys, responses):
        num = den = 0.0
        response_links = _links(responses)
        response_elements = {e for r in responses for e in r}
        for key in keys:
            den += len(key)
            if len(key) == 1:
                if singletons_included:
                    element = next(iter(key))
                    num += 1.0 if element in response_elements else 0.0
                continue
            key_links = _links([key])
            resolved = len(key_links & response_links)
            num += len(key) * resolved / len(key_links)
        return num, den

    rn, rd = score(gold, pred)
    pn, pd = score(pred, gold)
    return prf(rn, rd, pn, pd)


def oracle_conll(muc_f1, b3_f1, ceafe_f1):
    return (muc_f1 + b3_f1 + ceafe_f1) / 3


def _levenshtein_table(a, b):
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d


def oracle_edit_distance(a, b):
    """Plain full-matrix Levenshtein distance."""
    return _levenshtein_table(a, b)[len(a)][len(b)]


def oracle_alignment_ops(a, b, pin_shared_ends=True):
    """Levenshtein cost and ops, walked back from (n, m) over the full table.

    Ops are (a index, b index) pairs with None for a deletion or an
    insertion.  At each cell the walk takes a deletion if it is optimal,
    otherwise a diagonal step if it is optimal, otherwise an insertion.
    With pin_shared_ends, the longest shared prefix, and then the longest
    shared suffix of the rest, first align token to token (as the
    cleaner does), and the walk covers only the middle.
    """
    prefix = suffix = 0
    if pin_shared_ends:
        while prefix < min(len(a), len(b)) and a[prefix] == b[prefix]:
            prefix += 1
        while suffix < min(len(a), len(b)) - prefix and a[-1 - suffix] == b[-1 - suffix]:
            suffix += 1
    core_a, core_b = a[prefix:len(a) - suffix], b[prefix:len(b) - suffix]
    d = _levenshtein_table(core_a, core_b)
    ops = []
    i, j = len(core_a), len(core_b)
    while i > 0 or j > 0:
        if i > 0 and d[i - 1][j] + 1 == d[i][j]:
            i -= 1
            ops.append((prefix + i, None))
        elif i > 0 and j > 0 and d[i - 1][j - 1] + (core_a[i - 1] != core_b[j - 1]) == d[i][j]:
            i, j = i - 1, j - 1
            ops.append((prefix + i, prefix + j))
        else:
            j -= 1
            ops.append((None, prefix + j))
    ops.reverse()
    ops[:0] = [(k, k) for k in range(prefix)]
    ops += [(len(a) - suffix + k, len(b) - suffix + k) for k in range(suffix)]
    return d[-1][-1], ops


def oracle_crossing(spans):
    """Whether any two (start, end) spans cross, s1 < s2 < e1 < e2,
    trying every ordered pair."""
    return any(s1 < s2 < e1 < e2 for s1, e1 in spans for s2, e2 in spans)


def oracle_bracket_repair(items, sentence_of):
    """(eid, start, end) spans of the cleaner's bracket repair, replayed
    token by token: ``items[pos]`` lists (kind, eid) with kind "open",
    "close" or "single".  A closer pairs with the latest opener of its
    eid or is dropped; at the last token of a sentence every opener
    still open closes there."""
    open_at = {}
    spans = []
    for pos, token_items in enumerate(items):
        for kind, eid in token_items:
            if kind == "open":
                open_at.setdefault(eid, []).append(pos)
            elif kind == "single":
                spans.append((eid, pos, pos))
            elif open_at.get(eid):
                spans.append((eid, open_at[eid].pop(), pos))
        if pos + 1 == len(items) or sentence_of[pos + 1] != sentence_of[pos]:
            for eid, starts in open_at.items():
                spans += [(eid, start, pos) for start in starts]
            open_at = {}
    return spans


def oracle_best_matching_weight(weight):
    """Maximum total weight over all injective gold-to-pred matchings."""
    n = len(weight)
    m = len(weight[0]) if n else 0
    best = 0.0
    small = min(n, m)
    if small == 0:
        return 0.0
    if n <= m:
        for perm in itertools.permutations(range(m), n):
            best = max(best, sum(weight[i][perm[i]] for i in range(n)))
    else:
        for perm in itertools.permutations(range(n), m):
            best = max(best, sum(weight[perm[j]][j] for j in range(m)))
    return best


def oracle_assignment(rows, n_cols, background):
    """scipy's (rows, cols) on the dense table of a sparse one: ``rows[i]``
    maps a column to its cost, and every other cell costs ``background``."""
    cost = np.full((len(rows), n_cols), background)
    for i, row in enumerate(rows):
        for j, c in row.items():
            cost[i, j] = c
    picked_rows, picked_cols = linear_sum_assignment(cost)
    return picked_rows.tolist(), picked_cols.tolist()


def oracle_ceafe_total_dense(gold, pred):
    """CEAF-e's summed phi4 as the dense -phi4 table and numpy's sum of its
    chosen cells give it, to the bit."""
    cost = np.zeros((len(gold), len(pred)))
    for k, g in enumerate(gold):
        for r, p in enumerate(pred):
            if g & p:
                cost[k, r] = -2 * len(g & p) / (len(g) + len(p))
    rows, cols = linear_sum_assignment(cost)
    return 0.0 - float(cost[rows, cols].sum())


def oracle_derive_head(span, sentence):
    """External-parent scan with parent-chain depths, written separately."""
    members = set(span)

    def depth(nid):
        steps, current, seen = 0, nid, set()
        while True:
            node = sentence.node(current)
            if node.parent is None:
                return steps
            if current in seen:
                return 10 ** 6
            seen.add(current)
            current = node.parent
            if current not in {n.id for n in sentence.nodes}:
                return 10 ** 6
            steps += 1

    external = [
        nid for nid in sorted(members)
        if sentence.node(nid).parent is None or sentence.node(nid).parent not in members
    ]
    if not external:
        return sorted(members)[0]
    return sorted(external, key=lambda nid: (depth(nid), nid.major, nid.minor))[0]


def oracle_nearest_rank_p95(values):
    ordered = sorted(values)
    rank = max(1, math.ceil(0.95 * len(ordered)))
    return ordered[rank - 1]


def remap_for_oracle(gold_clusters_raw, pred_clusters_raw, matchable):
    """Element remap mirroring the toolkit contract, done independently:
    ``matchable`` maps a predicted raw element to its gold counterpart."""
    gold = [frozenset(("g", e) for e in c) for c in gold_clusters_raw]
    pred = [
        frozenset(("g", matchable[e]) if e in matchable else ("p", e) for e in c)
        for c in pred_clusters_raw
    ]
    return gold, pred


def drop_singletons(clusters):
    return [c for c in clusters if len(c) > 1]


def oracle_zero_counts(gold_entities, pred_entities, alignment):
    """The zero-anaphora counts (correct, anaphoric, correct, predicted
    zeros), rebuilding each zero's antecedent set from the mentions before
    it: quadratic in the length of a chain.

    A gold anaphoric zero is resolved iff it aligns to a predicted zero
    whose entity contains a predicted mention aligned to some gold
    mention that precedes the zero within the same gold entity.
    """
    gold_ix = {id(m): i for i, m in enumerate(alignment.gold)}
    pred_ix = {id(m): i for i, m in enumerate(alignment.pred)}
    gold_to_pred = {g: p for g, p in alignment.pairs}
    pred_to_gold = alignment.pred_to_gold()

    pred_entity_gold_indices: list[set[int]] = []
    pred_zero_total = 0
    for entity in pred_entities:
        aligned = set()
        for m in entity.mentions:
            j = pred_ix.get(id(m))
            if j is not None and j in pred_to_gold:
                aligned.add(pred_to_gold[j])
        pred_entity_gold_indices.append(aligned)
        if not entity.is_singleton:
            pred_zero_total += sum(1 for m in entity.mentions if m.is_zero)
    pred_index_to_entity = {}
    for ei, entity in enumerate(pred_entities):
        for m in entity.mentions:
            j = pred_ix.get(id(m))
            if j is not None:
                pred_index_to_entity[j] = ei

    correct = 0
    anaphoric = 0
    for entity in gold_entities:
        for k, mention in enumerate(entity.mentions):
            if not mention.is_zero or k == 0:
                continue
            anaphoric += 1
            g = gold_ix.get(id(mention))
            if g is None or g not in gold_to_pred:
                continue
            j = gold_to_pred[g]
            ei = pred_index_to_entity.get(j)
            if ei is None:
                continue
            antecedents = {gold_ix[id(x)] for x in entity.mentions[:k] if id(x) in gold_ix}
            if antecedents & (pred_entity_gold_indices[ei] - {g}):
                correct += 1
    return correct, anaphoric, correct, pred_zero_total


_ORACLE_ENTITY_ITEM_RE = re.compile(
    r"(\(?)(?:([A-Za-z0-9_]+)(?:-[^()\[\]]*)?(?:\[(\d+)/(\d+)(\]\))?|(\)))?)?")


def _oracle_entity_items(value, line):
    """The ("open" | "close" | "single", eid, part) items of one Entity
    value, as the parser read them before its mention build was cut."""
    items, pos = [], 0
    while pos < len(value):
        match = _ORACLE_ENTITY_ITEM_RE.match(value, pos)
        opener, eid, k, n, part_closed, closed = match.groups()
        pos = match.end()
        if eid is None:
            raise ConlluError(f"malformed entity id in Entity item near '{value[pos:pos + 12]}'",
                              line)
        part = (int(k), int(n)) if k else None
        if part and not 1 <= part[0] <= part[1]:
            raise ConlluError(f"malformed part {k}/{n} of entity '{eid}'", line)
        if opener:
            items.append(("single" if part_closed or closed else "open", eid, part))
        elif part_closed or closed:
            items.append(("close", eid, part))
        elif part:
            raise ConlluError(f"malformed closing item for entity '{eid}'", line)
        else:
            raise ConlluError(f"malformed Entity item near '{value[pos:pos + 12]}'", line)
    return items


def oracle_sentence_mentions(entity_values, sentence, end_line):
    """The ``(eid, span, head, is_zero)`` mentions of one parsed sentence,
    in the order they complete, from its ``(value, position, line)``
    Entity values; ``end_line`` ends the sentence.  Raises the first
    ConlluError reading the sentence meets.

    This is the parser's mention decoding before it was cut: openers
    pair with one stack per entity id, ``[k/n]`` segments join the first
    pending mention waiting for part k, and heads come from
    ``oracle_derive_head``.
    """
    malformed, positioned = None, []
    for value, position, line in entity_values:
        try:
            positioned.append((position, _oracle_entity_items(value, line)))
        except ConlluError as exc:
            malformed = exc
            break
    spans, unmatched, stacks, first_open = [], [], {}, {}
    for pos, items in positioned:
        for kind, eid, part in items:
            if kind == "open":
                first_open.setdefault(eid, len(first_open))
                stacks.setdefault(eid, []).append((pos, part))
            elif kind == "close":
                stack = stacks.get(eid)
                if not stack or stack[-1][1] != part:
                    unmatched.append((eid, pos, part, stack[-1] if stack else None))
                    continue
                spans.append((eid, stack.pop()[0], pos, part))
                if not stack:
                    del stacks[eid]
            else:
                spans.append((eid, pos, pos, part))
    unclosed = [(eid, start) for eid in sorted(stacks, key=first_open.__getitem__)
                for start, _ in reversed(stacks[eid])]

    mentions, orphans, pending = [], [], {}
    for eid, start, end, part in spans:
        k, n = part or (1, 1)
        positions = set(range(start, end + 1))
        if k == 1:
            if n == 1:
                mentions.append((eid, positions))
            else:
                pending.setdefault(eid, []).append([2, n, positions])
            continue
        entry = next((e for e in pending.get(eid, ()) if e[0] == k and e[1] == n), None)
        if entry is None:
            orphans.append((eid, end, part))
            continue
        entry[2] |= positions
        entry[0] = k + 1
        if k == n:
            pending[eid].remove(entry)
            if not pending[eid]:
                del pending[eid]
            mentions.append((eid, entry[2]))
    missing = [(eid, (k, n)) for eid, entries in pending.items() for k, n, _ in entries]

    line_of = {position: line for _, position, line in entity_values}
    if unmatched and not (orphans and orphans[0][1] < unmatched[0][1]):
        eid, pos, part, opener = unmatched[0]
        if opener is None:
            raise ConlluError(f"closing bracket for entity '{eid}' has no matching opener",
                              line_of[pos])
        raise ConlluError(f"entity '{eid}' closes part {part} but part {opener[1]} is open",
                          line_of[pos])
    if orphans:
        eid, pos, (k, n) = orphans[0]
        raise ConlluError(f"entity '{eid}' part {k}/{n} arrived without part {k - 1}/{n}",
                          line_of[pos])
    if malformed:
        raise malformed
    if unclosed:
        eid, start = unclosed[0]
        raise ConlluError(f"entity '{eid}' opened at line {line_of[start]} has no closing "
                          "bracket before the end of the sentence", end_line)
    if missing:
        eid, (k, n) = missing[0]
        raise ConlluError(f"discontinuous mention of entity '{eid}' is missing part {k}/{n} "
                          "at the end of the sentence", end_line)
    out = []
    for eid, positions in mentions:
        span = tuple(sentence.nodes[p].id for p in sorted(positions))
        head = oracle_derive_head(span, sentence)
        out.append((eid, span, head, head.minor > 0))
    return out
