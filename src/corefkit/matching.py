"""Gold/predicted mention matching.

Surface mentions are matched under one of three regimes (exact span,
partial span, shared head).  Zero mentions, whose surface positions are
unreliable by nature, are aligned per sentence by solving a maximum
weight one-to-one matching over dependency agreement.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy  # scipy.optimize loads on first use, only where an assignment is solved

from .errors import TokenMismatchError
from .model import Document, Entity, Mention, NodeId


class MatchRegime(str, enum.Enum):
    EXACT = "exact"
    PARTIAL = "partial"
    HEAD = "head"


@dataclass(frozen=True)
class ZeroWeight:
    """Weights for zero-mention alignment.

    A candidate pair scores ``w_parent`` for agreeing on the parent token
    and additionally ``w_label_bonus`` when the dependency label agrees
    too, so labelled agreement is rewarded more while parent-only matches
    remain possible.
    """

    w_parent: float = 1.0
    w_label_bonus: float = 1.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(w) and w >= 0 for w in (self.w_parent, self.w_label_bonus)):
            raise ValueError("zero-alignment weights must be finite and non-negative")
        if self.w_parent + self.w_label_bonus <= 0:
            raise ValueError("at least one zero-alignment weight must be positive")


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


def _pair_weight(gold_prof, pred_prof, weights: ZeroWeight) -> float:
    same_parent = gold_prof[0] is not None and gold_prof[0] == pred_prof[0]
    if not same_parent:
        return 0.0
    weight = weights.w_parent
    if gold_prof[1] == pred_prof[1]:
        weight += weights.w_label_bonus
    return weight


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


def _match_sentence_assignment(weight, dpos, n_gold, n_pred):
    """Optimal assignment via the Hungarian method on negated weights.

    Position drift breaks weight ties through an epsilon small enough to
    never flip the total-weight ordering; zero-weight pairs are forbidden
    by a large cost and dropped from the result.
    """
    max_drift = sum(max(row) for row in dpos) + 1.0
    min_step = min((w for row in weight for w in row if w > 0), default=1.0)
    eps = min_step / (2.0 * max_drift)
    forbidden = 1e9
    cost = np.full((n_gold, n_pred), forbidden)
    for g in range(n_gold):
        for p in range(n_pred):
            if weight[g][p] > 0:
                cost[g, p] = -(weight[g][p] - eps * dpos[g][p])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return sorted(
        (int(g), int(p)) for g, p in zip(rows, cols) if weight[g][p] > 0
    )


def align_zeros(gold_zeros: list[Mention], pred_zeros: list[Mention],
                weights: ZeroWeight = ZeroWeight(),
                gold_doc: Document | None = None,
                pred_doc: Document | None = None) -> MentionAlignment:
    """Align zero mentions sentence by sentence.

    Pair weight rewards agreement on the head's parent token and, on top
    of that, on the dependency label; zero-weight pairs are never
    matched.  Equal-weight matchings are broken by smaller summed
    surface-position difference, then by earliest gold order.  The
    documents supply parent/deprel lookups for the mention heads.
    """
    if gold_doc is None or pred_doc is None:
        raise ValueError("align_zeros needs the gold and predicted documents for dependency lookups")
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
        weight = [[_pair_weight(g, p, weights) for p in pred_prof] for g in gold_prof]
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
    if gold_forms == pred_forms:
        return
    for k, (g, p) in enumerate(zip(gold_forms, pred_forms)):
        if g != p:
            raise TokenMismatchError(
                f"document '{gold_doc.doc_id}': surface token {k + 1} differs "
                f"('{g}' vs '{p}'); run the output cleaner first"
            )
    raise TokenMismatchError(
        f"document '{gold_doc.doc_id}': surface token counts differ "
        f"({len(gold_forms)} vs {len(pred_forms)}); run the output cleaner first"
    )


def build_alignment(gold_doc: Document, gold_entities: list[Entity],
                    pred_doc: Document, pred_entities: list[Entity],
                    regime: MatchRegime = MatchRegime.HEAD,
                    weights: ZeroWeight = ZeroWeight(),
                    check_surface: bool = True) -> MentionAlignment:
    """Combined alignment of one document pair: surface matcher on
    non-zero mentions, dependency-based matcher on zeros.  A caller that
    already ran check_same_surface on the pair passes ``check_surface=False``."""
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
    zeros = align_zeros([gold[i] for i in gold_zero],
                        [pred[j] for j in pred_zero],
                        weights, gold_doc, pred_doc)
    pairs = [(gold_surface[g], pred_surface[p]) for g, p in surface.pairs]
    pairs += [(gold_zero[g], pred_zero[p]) for g, p in zeros.pairs]
    return MentionAlignment(gold, pred, sorted(pairs))
