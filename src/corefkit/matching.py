"""Gold/predicted mention matching.

Surface mentions are matched under one of three regimes (exact span,
partial span, shared head).  Zero mentions, whose surface positions are
unreliable by nature, are aligned per sentence by solving a maximum
weight one-to-one matching over dependency agreement.  solve_assignment,
the exact assignment solver, also serves CEAF-e in corefkit.metrics.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

from .errors import TokenMismatchError
from .model import Document, Entity, Mention, NodeId, surface_difference


class MatchRegime(str, enum.Enum):
    EXACT = "exact"
    PARTIAL = "partial"
    HEAD = "head"


@dataclass
class MentionAlignment:
    """One-to-one correspondence between gold and predicted mentions.

    ``pairs`` holds (gold index, predicted index) into the two mention
    lists; every mention occurs in at most one pair, and the pairs plus
    the unmatched sets partition each side.
    """

    gold: list[Mention]
    pred: list[Mention]
    pairs: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len({g for g, _ in self.pairs}) != len(self.pairs):
            raise ValueError("a gold mention occurs in two pairs")
        if len({p for _, p in self.pairs}) != len(self.pairs):
            raise ValueError("a predicted mention occurs in two pairs")

    @property
    def unmatched_gold(self) -> list[Mention]:
        used = {g for g, _ in self.pairs}
        return [m for i, m in enumerate(self.gold) if i not in used]

    @property
    def unmatched_pred(self) -> list[Mention]:
        used = {p for _, p in self.pairs}
        return [m for i, m in enumerate(self.pred) if i not in used]

    def pred_to_gold(self) -> dict[int, int]:
        return {p: g for g, p in self.pairs}


def _greedy(candidates: list[tuple]) -> list[tuple[int, int]]:
    """Pick pairs in candidate order, skipping already-used mentions.

    Candidates are (sort key..., gold index, pred index) tuples; the two
    indices must be the last elements.
    """
    pairs = []
    used_gold: set[int] = set()
    used_pred: set[int] = set()
    for cand in sorted(candidates):
        g, p = cand[-2], cand[-1]
        if g in used_gold or p in used_pred:
            continue
        used_gold.add(g)
        used_pred.add(p)
        pairs.append((g, p))
    pairs.sort()
    return pairs


def match_surface(gold: list[Mention], pred: list[Mention],
                  regime: MatchRegime = MatchRegime.HEAD) -> MentionAlignment:
    """Match non-zero mentions under the given regime.

    exact: identical span sets.  head: identical head node; when several
    mentions share a head, spans disambiguate (exact span first, then
    larger overlap, then shorter predicted span).  partial: predicted
    span is a subset of the gold span and contains the gold head,
    preferring larger overlap.
    """
    regime = MatchRegime(regime)
    candidates: list[tuple] = []
    if regime is MatchRegime.EXACT:
        by_span: dict[frozenset, list[int]] = {}
        for j, m in enumerate(pred):
            by_span.setdefault(frozenset(m.span), []).append(j)
        for i, m in enumerate(gold):
            for j in by_span.get(frozenset(m.span), []):
                candidates.append((i, j))
    elif regime is MatchRegime.HEAD:
        by_head: dict[NodeId, list[int]] = {}
        for j, m in enumerate(pred):
            by_head.setdefault(m.head, []).append(j)
        for i, m in enumerate(gold):
            gspan = set(m.span)
            for j in by_head.get(m.head, []):
                pspan = set(pred[j].span)
                exact = gspan == pspan
                overlap = len(gspan & pspan)
                candidates.append((not exact, -overlap, len(pspan), i, j))
    elif regime is MatchRegime.PARTIAL:
        # a candidate contains the gold head, so look up only those
        pred_spans = [set(m.span) for m in pred]
        by_node: dict[NodeId, list[int]] = {}
        for j, pspan in enumerate(pred_spans):
            for node in pspan:
                by_node.setdefault(node, []).append(j)
        for i, m in enumerate(gold):
            gspan = set(m.span)
            for j in by_node.get(m.head, []):
                pspan = pred_spans[j]
                if pspan <= gspan:
                    exact = gspan == pspan
                    candidates.append((not exact, -len(pspan), len(pspan), i, j))
    return MentionAlignment(gold, pred, _greedy(candidates))


_EXHAUSTIVE_LIMIT = 6


def _zero_profile(mention: Mention, document: Document) -> tuple[int | None, str, float]:
    """(parent major, deprel, surface position) of a zero mention's head node."""
    node = document.node(mention.head)
    parent_major = node.parent.major if node.parent is not None else None
    position = mention.head.major + mention.head.minor / (mention.head.minor + 1)
    return parent_major, node.deprel, position


def _pair_weight(gold_prof, pred_prof) -> float:
    """1.0 when both heads hang off the same parent token, 2.0 when the
    dependency label also agrees, else 0.0 (never matched)."""
    if gold_prof[0] is None or gold_prof[0] != pred_prof[0]:
        return 0.0
    return 2.0 if gold_prof[1] == pred_prof[1] else 1.0


def _match_sentence_exhaustive(weight, dpos, n_gold, n_pred):
    """Best matching by enumeration; ties minimize position drift, then
    prefer assignments that serve earlier gold mentions first."""
    best_key = None
    best: list[tuple[int, int]] = []
    sides_swapped = n_gold > n_pred
    small, large = (n_pred, n_gold) if sides_swapped else (n_gold, n_pred)
    for perm in itertools.permutations(range(large), small):
        pairs = []
        total = 0.0
        drift = 0.0
        for a, b in enumerate(perm):
            g, p = (b, a) if sides_swapped else (a, b)
            if weight[g][p] > 0:
                pairs.append((g, p))
                total += weight[g][p]
                drift += dpos[g][p]
        vector = tuple(dict(pairs).get(g, math.inf) for g in range(n_gold))
        key = (-total, drift, vector)
        if best_key is None or key < best_key:
            best_key = key
            best = pairs
    return sorted(best)


def solve_assignment(rows: list[dict[int, float]], n_cols: int,
                     background: float) -> tuple[list[int], list[int]]:
    """Minimum-cost one-to-one assignment on a sparse cost table.

    ``rows[i]`` maps a column to the cost of that cell; every other cell
    of the ``len(rows)`` x ``n_cols`` table costs ``background``, and all
    costs are finite.  Returns the (rows, cols) that
    scipy.optimize.linear_sum_assignment returns for the dense table:
    the same pairs, in row order, with its tie-breaking.  The work grows
    with the stored cells and the augmenting paths, not with the table.
    """
    n_rows = len(rows)
    if not n_rows or not n_cols:
        return [], []
    if n_cols < n_rows:  # as scipy: solve the transpose, then sort by row
        columns: list[dict[int, float]] = [{} for _ in range(n_cols)]
        for i, row in enumerate(rows):
            for j, c in row.items():
                columns[j][i] = c
        pairs = sorted((i, j) for j, i in enumerate(_augment_rows(columns, n_rows, background)))
        return [i for i, _ in pairs], [j for _, j in pairs]
    return list(range(n_rows)), _augment_rows(rows, n_cols, background)


def _augment_rows(rows: list[dict[int, float]], n: int, background: float) -> list[int]:
    """The column of each row, for at most ``n`` rows: scipy's
    rectangular_lsap (Crouse 2016, shortest augmenting paths), one
    augmentation per row, with its float operations in its order.

    An augmentation scans the remaining columns in the order of an array
    filled n-1 ... 0 whose removed entry takes the last entry's place.
    A column is *plain* while its dual is 0 and no row visited in the
    augmentation stores a cell in it: all plain columns share one
    shortest-path cost and predecessor, so they form one group, and only
    the other columns are tracked one by one.  A column's scan position
    is n-1-j unless a removal moved it.
    """
    inf = math.inf
    u = [0.0] * len(rows)
    v = [0.0] * n
    shifted: set[int] = set()  # columns whose dual is not 0; all are assigned
    row4col = [-1] * n
    col4row = [-1] * len(rows)
    # smallest free column >= j, path-compressed; a column never frees again
    next_free = list(range(n + 1))

    def free_from(j: int) -> int:
        root = j
        while next_free[root] != root:
            root = next_free[root]
        while next_free[j] != root:
            next_free[j], j = root, next_free[j]
        return root

    for cur in range(len(rows)):
        min_val = 0.0
        remaining = n
        col_at: dict[int, int] = {}  # scan position -> column, for moved columns
        pos_of: dict[int, int] = {}  # the inverse
        tracked = {j: [inf, -1] for j in shifted}  # remaining column -> [cost, predecessor]
        plain_cost, plain_pred = inf, -1
        settled: dict[int, tuple[float, int]] = {}  # scanned-out column -> (cost, predecessor)
        visited = [cur]
        i = cur
        while True:
            row, ui = rows[i], u[i]
            for j in row:
                if j not in tracked and j not in settled:
                    tracked[j] = [plain_cost, plain_pred]
            for j, entry in tracked.items():
                r = min_val + row.get(j, background) - ui - v[j]
                if r < entry[0]:
                    entry[0], entry[1] = r, i
            r = min_val + background - ui
            if r < plain_cost:
                plain_cost, plain_pred = r, i
            has_plain = remaining > len(tracked)

            # scipy takes, among the lowest costs, the last free column in
            # scan order, else the first column
            lowest = min((entry[0] for entry in tracked.values()), default=inf)
            if has_plain and plain_cost < lowest:
                lowest = plain_cost
            free_pos = first_pos = -1
            free_col = first_col = -1
            for j, (c, _) in tracked.items():
                if c == lowest:
                    pos = pos_of.get(j, n - 1 - j)
                    if row4col[j] < 0:
                        if pos > free_pos:
                            free_pos, free_col = pos, j
                    elif first_pos < 0 or pos < first_pos:
                        first_pos, first_col = pos, j
            if has_plain and plain_cost == lowest:
                for j, pos in pos_of.items():
                    if pos > free_pos and row4col[j] < 0 and j not in tracked:
                        free_pos, free_col = pos, j
                j = free_from(0)
                while j < n and (j in tracked or j in pos_of):
                    j = free_from(j + 1)
                if j < n and n - 1 - j > free_pos:
                    free_pos, free_col = n - 1 - j, j
                if free_pos < 0:
                    pos = 0
                    while col_at.get(pos, n - 1 - pos) in tracked:
                        pos += 1
                    if first_pos < 0 or pos < first_pos:
                        first_pos, first_col = pos, col_at.get(pos, n - 1 - pos)
            if lowest == inf:
                raise ValueError("the cost table admits no assignment")
            min_val = lowest
            j, pos = (free_col, free_pos) if free_pos >= 0 else (first_col, first_pos)
            entry = tracked.pop(j, None)
            settled[j] = (plain_cost, plain_pred) if entry is None else (entry[0], entry[1])
            remaining -= 1
            moved = col_at.pop(remaining, n - 1 - remaining)
            if pos != remaining:
                col_at[pos], pos_of[moved] = moved, pos
            pos_of.pop(j, None)
            if row4col[j] < 0:
                sink = j
                break
            i = row4col[j]
            visited.append(i)

        u[cur] += min_val
        for i in visited[1:]:
            u[i] += min_val - settled[col4row[i]][0]
        for j, (c, _) in settled.items():
            v[j] -= min_val - c
            if v[j]:
                shifted.add(j)
            else:
                shifted.discard(j)
        j = sink
        while True:
            i = settled[j][1]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
        next_free[sink] = sink + 1
    return col4row


def _match_sentence_assignment(weight, dpos, n_gold, n_pred):
    """Optimal assignment on negated weights, by solve_assignment.

    Position drift breaks weight ties through ``eps``: pair weights are
    1 or 2, so every total is a multiple of the smallest, ``min_step``,
    and two totals differ by 0 or by at least ``min_step``; eps times any
    matching's drift stays below min_step/2, which never reorders them.
    Zero-weight pairs are forbidden by a large cost and dropped from the
    result.
    """
    max_drift = sum(max(row) for row in dpos) + 1.0
    min_step = min((w for row in weight for w in row if w > 0), default=1.0)
    eps = min_step / (2.0 * max_drift)
    cost = [{p: -(weight[g][p] - eps * dpos[g][p]) for p in range(n_pred) if weight[g][p] > 0}
            for g in range(n_gold)]
    rows, cols = solve_assignment(cost, n_pred, background=1e9)
    return sorted((g, p) for g, p in zip(rows, cols) if weight[g][p] > 0)


def align_zeros(gold_zeros: list[Mention], pred_zeros: list[Mention],
                gold_doc: Document, pred_doc: Document) -> MentionAlignment:
    """Align zero mentions sentence by sentence.

    A pair weighs 1 when the heads share their parent token and 2 when
    the dependency label agrees too (see _pair_weight); zero-weight pairs
    are never matched.  Equal-weight matchings are broken by smaller summed
    surface-position difference, then by earliest gold order.  The
    documents supply parent/deprel lookups for the mention heads.
    """
    by_sentence: dict[int, tuple[list[int], list[int]]] = {}
    for i, m in enumerate(gold_zeros):
        if not m.is_zero:
            raise ValueError("align_zeros expects zero mentions only")
        by_sentence.setdefault(m.head.sentence_index, ([], []))[0].append(i)
    for j, m in enumerate(pred_zeros):
        if not m.is_zero:
            raise ValueError("align_zeros expects zero mentions only")
        by_sentence.setdefault(m.head.sentence_index, ([], []))[1].append(j)

    pairs: list[tuple[int, int]] = []
    for _, (gold_ids, pred_ids) in sorted(by_sentence.items()):
        if not gold_ids or not pred_ids:
            continue
        gold_prof = [_zero_profile(gold_zeros[i], gold_doc) for i in gold_ids]
        pred_prof = [_zero_profile(pred_zeros[j], pred_doc) for j in pred_ids]
        weight = [[_pair_weight(g, p) for p in pred_prof] for g in gold_prof]
        dpos = [[abs(g[2] - p[2]) for p in pred_prof] for g in gold_prof]
        if max(len(gold_ids), len(pred_ids)) <= _EXHAUSTIVE_LIMIT:
            local = _match_sentence_exhaustive(weight, dpos, len(gold_ids), len(pred_ids))
        else:
            local = _match_sentence_assignment(weight, dpos, len(gold_ids), len(pred_ids))
        pairs.extend((gold_ids[g], pred_ids[p]) for g, p in local)
    return MentionAlignment(gold_zeros, pred_zeros, sorted(pairs))


def check_same_surface(gold_doc: Document, pred_doc: Document) -> None:
    """Raise TokenMismatchError unless both documents share the surface tokens."""
    gold_forms = gold_doc.surface_forms()
    pred_forms = pred_doc.surface_forms()
    if gold_forms != pred_forms:
        raise TokenMismatchError(f"document '{gold_doc.doc_id}': "
                                 f"{surface_difference(gold_forms, pred_forms)}; "
                                 "run the output cleaner first")


def build_alignment(gold_doc: Document, gold_entities: list[Entity],
                    pred_doc: Document, pred_entities: list[Entity],
                    regime: MatchRegime = MatchRegime.HEAD,
                    check_surface: bool = True,
                    zero_cache: dict | None = None) -> MentionAlignment:
    """Combined alignment of one document pair: surface matcher on
    non-zero mentions, dependency-based matcher on zeros.  A caller that
    already ran check_same_surface on the pair passes ``check_surface=False``.
    Zero alignment does not depend on the regime: a ``zero_cache`` dict keeps
    the zero pairs by gold document id for calls on the same entities."""
    if check_surface:
        check_same_surface(gold_doc, pred_doc)
    gold = [m for e in gold_entities for m in e.mentions]
    pred = [m for e in pred_entities for m in e.mentions]
    gold_surface = [i for i, m in enumerate(gold) if not m.is_zero]
    pred_surface = [j for j, m in enumerate(pred) if not m.is_zero]
    gold_zero = [i for i, m in enumerate(gold) if m.is_zero]
    pred_zero = [j for j, m in enumerate(pred) if m.is_zero]

    surface = match_surface([gold[i] for i in gold_surface],
                            [pred[j] for j in pred_surface], regime)
    zero_pairs = None if zero_cache is None else zero_cache.get(gold_doc.doc_id)
    if zero_pairs is None:
        zeros = align_zeros([gold[i] for i in gold_zero],
                            [pred[j] for j in pred_zero], gold_doc, pred_doc)
        zero_pairs = [(gold_zero[g], pred_zero[p]) for g, p in zeros.pairs]
        if zero_cache is not None:
            zero_cache[gold_doc.doc_id] = zero_pairs
    pairs = [(gold_surface[g], pred_surface[p]) for g, p in surface.pairs]
    return MentionAlignment(gold, pred, sorted(pairs + zero_pairs))
