"""Coreference scores over a mention alignment and two entity partitions.

Matched predicted mentions are first remapped to their gold
counterparts; unmatched mentions stay distinct elements.  When
singletons are excluded, single-mention entities are removed from both
sides before scoring.  Scores accumulate numerators and denominators
over the documents of a dataset; the primary score is the unweighted
mean of the MUC, B-cubed and CEAF-e F1 values, macro-averaged over
datasets.

Degenerate 0/0 ratios are reported as 0 with a logged diagnostic, never
as an error.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import apply_each
from .matching import MatchRegime, MentionAlignment, build_alignment, solve_assignment
from .model import Document, Entity, Mention

SINGLETONS_INCLUDED = "included"
SINGLETONS_EXCLUDED = "excluded"


@dataclass(frozen=True)
class PRF:
    recall: float
    precision: float
    f1: float


def _prf(r_num: float, r_den: float, p_num: float, p_den: float, what: str = "") -> PRF:
    if r_den == 0 or p_den == 0:
        import logging  # here, as no ordinary score meets a degenerate ratio
        logging.getLogger(__name__).debug("degenerate denominator in %s (r=%s/%s, p=%s/%s)",
                                          what or "score", r_num, r_den, p_num, p_den)
    recall = r_num / r_den if r_den > 0 else 0.0
    precision = p_num / p_den if p_den > 0 else 0.0
    f1 = 2 * recall * precision / (recall + precision) if recall + precision > 0 else 0.0
    return PRF(recall, precision, f1)


class MetricId(str, enum.Enum):
    MUC = "muc"
    B3 = "b3"
    CEAF_E = "ceaf_e"
    BLANC = "blanc"
    LEA = "lea"
    CONLL = "conll"
    MOR = "mor"
    MD_H = "md_h"
    ZERO_SCORE = "zero_score"


METRIC_ORDER = [
    MetricId.MUC, MetricId.B3, MetricId.CEAF_E, MetricId.CONLL,
    MetricId.BLANC, MetricId.LEA, MetricId.MOR, MetricId.MD_H,
    MetricId.ZERO_SCORE,
]


@dataclass
class ScoreReport:
    """Per-dataset scores plus their unweighted macro average.  A metric
    is a MetricId, or a plain string naming a derived score."""

    per_dataset: dict[str, dict[MetricId | str, PRF]]
    macro: dict[MetricId | str, PRF]
    singleton_mode: str
    regime: MatchRegime


def filter_singletons(entities: list[Entity], singleton_mode: str) -> list[Entity]:
    if singleton_mode == SINGLETONS_INCLUDED:
        return list(entities)
    if singleton_mode == SINGLETONS_EXCLUDED:
        return [e for e in entities if not e.is_singleton]
    raise ValueError(f"unknown singleton mode '{singleton_mode}'")


def _index_by_identity(mentions: list[Mention]) -> dict[int, int]:
    return {id(m): i for i, m in enumerate(mentions)}


def remap_partitions(gold_entities: list[Entity], pred_entities: list[Entity],
                     alignment: MentionAlignment, singleton_mode: str | None = None):
    """Project both sides onto a shared element space.

    Gold mention i becomes element ("g", i); a matched predicted mention
    becomes its counterpart's element; an unmatched one stays a distinct
    ("p", j) element.  Returns (gold clusters, pred clusters) as lists of
    frozensets.  Singletons are filtered first when ``singleton_mode`` is
    given; entities from prepare_document are already filtered.
    """
    if singleton_mode is not None:
        gold_entities = filter_singletons(gold_entities, singleton_mode)
        pred_entities = filter_singletons(pred_entities, singleton_mode)
    gold_ix = _index_by_identity(alignment.gold)
    pred_ix = _index_by_identity(alignment.pred)
    pred_to_gold = alignment.pred_to_gold()

    def gold_element(m: Mention):
        i = gold_ix.get(id(m))
        if i is None:
            raise KeyError(f"gold mention {m} is not part of the alignment")
        return ("g", i)

    def pred_element(m: Mention):
        j = pred_ix.get(id(m))
        if j is None:
            raise KeyError(f"predicted mention {m} is not part of the alignment")
        g = pred_to_gold.get(j)
        return ("g", g) if g is not None else ("p", j)

    gold_clusters = [frozenset(gold_element(m) for m in e.mentions) for e in gold_entities]
    pred_clusters = [frozenset(pred_element(m) for m in e.mentions) for e in pred_entities]
    return gold_clusters, pred_clusters


# ---------------------------------------------------------------------------
# Per-document numerator/denominator counts, from one sparse overlap table.

def _pairs(n: int) -> float:
    return n * (n - 1) / 2


class OverlapTable:
    """Non-zero cells of the gold x predicted cluster overlap table.

    ``rows[k]`` holds (predicted index, overlap) for gold cluster k in
    predicted-index order, and ``cols[r]`` holds (gold index, overlap) for
    predicted cluster r in gold-index order.  Built in O(mentions) from
    remap_partitions' clusters.  Each metric adds its terms in the order
    of a loop over all K x R cluster pairs and skips only zero terms, so
    its floats equal that loop's exactly.
    """

    def __init__(self, gold_clusters, pred_clusters):
        owner = {e: k for k, cluster in enumerate(gold_clusters) for e in cluster}
        self.gold_sizes = [len(c) for c in gold_clusters]
        self.pred_sizes = [len(c) for c in pred_clusters]
        self.rows: list[list[tuple[int, int]]] = [[] for _ in gold_clusters]
        self.cols: list[list[tuple[int, int]]] = []
        for r, cluster in enumerate(pred_clusters):
            col = sorted(Counter(owner[e] for e in cluster if e in owner).items())
            self.cols.append(col)
            for k, c in col:
                self.rows[k].append((r, c))

    def _both(self, side):
        """(recall num, recall den, precision num, precision den) of a
        per-side count: gold keys against predicted responses, then the
        reverse."""
        return (*side(self.gold_sizes, self.rows), *side(self.pred_sizes, self.cols))

    def muc(self):
        # a key of n elements split into t touched parts and m missing
        # elements needs n - (t + m) = (overlap sum) - t links
        return self._both(lambda sizes, lines: (
            sum(sum(c for _, c in line) - len(line) for line in lines),
            sum(size - 1 for size in sizes)))

    def b3(self):
        def side(sizes, lines):
            num = 0.0
            for size, line in zip(sizes, lines):
                for _, c in line:
                    num += c * c / size
            return num, sum(sizes)
        return self._both(side)

    def lea(self, singleton_mode: str):
        # self-link convention, active only when singletons stay in play
        self_links = singleton_mode == SINGLETONS_INCLUDED

        def side(sizes, lines):
            num = 0.0
            for size, line in zip(sizes, lines):
                if size >= 2:
                    num += size * (sum(c * (c - 1) / 2 for _, c in line) / _pairs(size))
                elif size == 1 and self_links and line:
                    num += 1.0
            return num, sum(sizes)
        return self._both(side)

    def ceaf_e(self):
        n_gold, n_pred = len(self.gold_sizes), len(self.pred_sizes)
        # -phi4, negated exactly; a pair without overlap costs 0
        cost = [{r: -2 * c / (self.gold_sizes[k] + self.pred_sizes[r]) for r, c in line}
                for k, line in enumerate(self.rows)]
        rows, cols = solve_assignment(cost, n_pred, background=0.0)
        # numpy's pairwise sum of the chosen cells in row order, as the dense
        # table's cost[rows, cols].sum(); not -sum, which gives -0.0 for no overlap
        total = 0.0 - float(np.array([cost[k].get(r, 0.0) for k, r in zip(rows, cols)]).sum())
        return total, n_gold, total, n_pred

    def blanc(self):
        """Coreference-link and non-coreference-link counts, from cluster
        sizes and overlaps instead of the quadratic link sets."""
        coref_gold = sum(_pairs(size) for size in self.gold_sizes)
        coref_pred = sum(_pairs(size) for size in self.pred_sizes)
        coref_both = sum(_pairs(c) for line in self.rows for _, c in line)
        gold_common = [sum(c for _, c in line) for line in self.rows]
        pred_common = [sum(c for _, c in line) for line in self.cols]
        noncoref_gold = _pairs(sum(self.gold_sizes)) - coref_gold
        noncoref_pred = _pairs(sum(self.pred_sizes)) - coref_pred
        noncoref_both = (_pairs(sum(gold_common)) - sum(_pairs(n) for n in gold_common)
                         - sum(_pairs(n) for n in pred_common) + coref_both)
        return (coref_both, coref_gold, coref_pred,
                noncoref_both, noncoref_gold, noncoref_pred)


def _blanc_prf(counts) -> PRF:
    cb, cg, cp, nb, ng, np_ = counts
    coref_present = cg > 0 or cp > 0
    noncoref_present = ng > 0 or np_ > 0
    coref = _prf(cb, cg, cb, cp, "blanc coref links")
    noncoref = _prf(nb, ng, nb, np_, "blanc non-coref links")
    if coref_present and noncoref_present:
        return PRF((coref.recall + noncoref.recall) / 2,
                   (coref.precision + noncoref.precision) / 2,
                   (coref.f1 + noncoref.f1) / 2)
    if coref_present:
        return coref
    if noncoref_present:
        return noncoref
    import logging
    logging.getLogger(__name__).debug("degenerate BLANC: no links of either kind")
    return PRF(0.0, 0.0, 0.0)


def _span_jaccard(gold: Mention, pred: Mention) -> float:
    gspan = set(gold.span)
    pspan = set(pred.span)
    if gold.is_zero and pred.is_zero:
        # aligned zero heads denote the same referent slot
        pspan = (pspan - {pred.head}) | {gold.head}
    union = gspan | pspan
    if not union:
        return 0.0
    return len(gspan & pspan) / len(union)


def _mor_counts(gold_mentions, pred_mentions, alignment: MentionAlignment):
    gold_ix = _index_by_identity(alignment.gold)
    pred_ix = _index_by_identity(alignment.pred)
    live_gold = {gold_ix[id(m)] for m in gold_mentions if id(m) in gold_ix}
    live_pred = {pred_ix[id(m)] for m in pred_mentions if id(m) in pred_ix}
    total = 0.0
    for g, p in alignment.pairs:
        if g in live_gold and p in live_pred:
            total += _span_jaccard(alignment.gold[g], alignment.pred[p])
    return total, len(gold_mentions), total, len(pred_mentions)


def _mdh_counts(gold_mentions, pred_mentions):
    gold_heads = Counter(m.head for m in gold_mentions)
    pred_heads = Counter(m.head for m in pred_mentions)
    tp = sum((gold_heads & pred_heads).values())
    return tp, sum(gold_heads.values()), tp, sum(pred_heads.values())


def _zero_counts(gold_entities, pred_entities, alignment: MentionAlignment):
    """Anaphor-decomposable counts for zero mentions.

    A gold anaphoric zero is resolved iff it aligns to a predicted zero
    whose entity contains a predicted mention aligned to some gold
    mention that precedes the zero within the same gold entity.  Linear:
    a gold entity counts its earlier gold indices per predicted entity.
    """
    gold_ix = _index_by_identity(alignment.gold)
    pred_ix = _index_by_identity(alignment.pred)
    gold_to_pred = {g: p for g, p in alignment.pairs}
    pred_to_gold = alignment.pred_to_gold()

    holders: dict[int, set[int]] = {}  # gold index -> predicted entities aligned to it
    pred_index_to_entity = {}
    pred_zero_total = 0
    for ei, entity in enumerate(pred_entities):
        for m in entity.mentions:
            j = pred_ix.get(id(m))
            if j is not None:
                pred_index_to_entity[j] = ei
            if j in pred_to_gold:
                holders.setdefault(pred_to_gold[j], set()).add(ei)
        if not entity.is_singleton:
            pred_zero_total += sum(1 for m in entity.mentions if m.is_zero)

    correct = 0
    anaphoric = 0
    for entity in gold_entities:
        if not any(m.is_zero for m in entity.mentions):
            continue
        earlier: set[int] = set()
        held: Counter[int] = Counter()  # predicted entity -> how many of ``earlier`` it holds
        for k, mention in enumerate(entity.mentions):
            g = gold_ix.get(id(mention))
            if mention.is_zero and k:
                anaphoric += 1
                ei = pred_index_to_entity.get(gold_to_pred.get(g))
                if ei is not None:  # the zero is not its own antecedent
                    correct += held[ei] > (g in earlier and ei in holders[g])
            if g is not None and g not in earlier:
                earlier.add(g)
                held.update(holders.get(g, ()))
    return correct, anaphoric, correct, pred_zero_total


# ---------------------------------------------------------------------------
# Per-document PRF entry points.

def _table(gold_entities, pred_entities, alignment, singleton_mode) -> OverlapTable:
    return OverlapTable(*remap_partitions(gold_entities, pred_entities, alignment,
                                          singleton_mode))


def score_muc(gold_entities, pred_entities, alignment, singleton_mode=SINGLETONS_EXCLUDED) -> PRF:
    return _prf(*_table(gold_entities, pred_entities, alignment, singleton_mode).muc(),
                what="muc")


def score_bcubed(gold_entities, pred_entities, alignment, singleton_mode=SINGLETONS_EXCLUDED) -> PRF:
    return _prf(*_table(gold_entities, pred_entities, alignment, singleton_mode).b3(),
                what="b3")


def score_ceaf_e(gold_entities, pred_entities, alignment, singleton_mode=SINGLETONS_EXCLUDED) -> PRF:
    return _prf(*_table(gold_entities, pred_entities, alignment, singleton_mode).ceaf_e(),
                what="ceaf_e")


def score_blanc(gold_entities, pred_entities, alignment, singleton_mode=SINGLETONS_EXCLUDED) -> PRF:
    return _blanc_prf(_table(gold_entities, pred_entities, alignment, singleton_mode).blanc())


def score_lea(gold_entities, pred_entities, alignment, singleton_mode=SINGLETONS_EXCLUDED) -> PRF:
    return _prf(*_table(gold_entities, pred_entities, alignment,
                        singleton_mode).lea(singleton_mode), what="lea")


def score_conll(muc: PRF, b3: PRF, ceafe: PRF) -> PRF:
    """Unweighted mean of the three constituent scores, component-wise."""
    return PRF(
        (muc.recall + b3.recall + ceafe.recall) / 3,
        (muc.precision + b3.precision + ceafe.precision) / 3,
        (muc.f1 + b3.f1 + ceafe.f1) / 3,
    )


def score_mor(gold_mentions, pred_mentions, alignment) -> PRF:
    """Graded mention-detection score; clustering is ignored."""
    return _prf(*_mor_counts(gold_mentions, pred_mentions, alignment), what="mor")


def score_md_h(gold_mentions, pred_mentions) -> PRF:
    """Binary mention-detection score over head node multisets."""
    return _prf(*_mdh_counts(gold_mentions, pred_mentions), what="md_h")


def score_zero_anaphora(gold_entities, pred_entities, alignment) -> PRF:
    return _prf(*_zero_counts(gold_entities, pred_entities, alignment), what="zero_score")


# ---------------------------------------------------------------------------
# Dataset-level evaluation.

@dataclass
class DocumentScoring:
    """One document pair prepared for scoring."""

    gold_entities: list[Entity]
    pred_entities: list[Entity]
    alignment: MentionAlignment


def prepare_document(gold_doc: Document, gold_entities: list[Entity],
                     pred_doc: Document, pred_entities: list[Entity],
                     regime: MatchRegime = MatchRegime.HEAD,
                     singleton_mode: str = SINGLETONS_EXCLUDED,
                     check_surface: bool = True,
                     zero_cache: dict | None = None) -> DocumentScoring:
    """Filter singletons, then align the remaining mentions (see
    matching.build_alignment for ``check_surface`` and ``zero_cache``)."""
    gold_kept = filter_singletons(gold_entities, singleton_mode)
    pred_kept = filter_singletons(pred_entities, singleton_mode)
    alignment = build_alignment(gold_doc, gold_kept, pred_doc, pred_kept,
                                regime=regime, check_surface=check_surface,
                                zero_cache=zero_cache)
    return DocumentScoring(gold_kept, pred_kept, alignment)


def document_counts(doc: DocumentScoring, singleton_mode: str = SINGLETONS_EXCLUDED,
                    conll_only: bool = False) -> dict[MetricId, tuple]:
    """The numerators and denominators of one prepared document pair, per
    metric: MUC, B-cubed and CEAF-e, and without ``conll_only`` also LEA,
    MOR, MD-H, the zero score and BLANC's link counts."""
    table = OverlapTable(*remap_partitions(doc.gold_entities, doc.pred_entities,
                                           doc.alignment))
    counts = {MetricId.MUC: table.muc(), MetricId.B3: table.b3(),
              MetricId.CEAF_E: table.ceaf_e()}
    if not conll_only:
        gold_mentions = [m for e in doc.gold_entities for m in e.mentions]
        pred_mentions = [m for e in doc.pred_entities for m in e.mentions]
        counts[MetricId.LEA] = table.lea(singleton_mode)
        counts[MetricId.MOR] = _mor_counts(gold_mentions, pred_mentions, doc.alignment)
        counts[MetricId.MD_H] = _mdh_counts(gold_mentions, pred_mentions)
        counts[MetricId.ZERO_SCORE] = _zero_counts(doc.gold_entities, doc.pred_entities,
                                                   doc.alignment)
        counts[MetricId.BLANC] = table.blanc()
    return counts


class _Totals:
    """Per-metric sums of document counts, added in document order."""

    def __init__(self, conll_only: bool):
        metrics = [MetricId.MUC, MetricId.B3, MetricId.CEAF_E]
        if not conll_only:
            metrics += [MetricId.LEA, MetricId.MOR, MetricId.MD_H, MetricId.ZERO_SCORE,
                        MetricId.BLANC]
        self.sums = {metric: [0.0] * (6 if metric is MetricId.BLANC else 4)
                     for metric in metrics}

    def add(self, counts: dict[MetricId, tuple]) -> None:
        for metric, values in counts.items():
            total = self.sums[metric]
            for k, value in enumerate(values):
                total[k] += value

    def scores(self) -> dict[MetricId, PRF]:
        result = {metric: _prf(*counts, what=metric.value)
                  for metric, counts in self.sums.items() if metric is not MetricId.BLANC}
        if MetricId.BLANC in self.sums:
            result[MetricId.BLANC] = _blanc_prf(self.sums[MetricId.BLANC])
        result[MetricId.CONLL] = score_conll(result[MetricId.MUC], result[MetricId.B3],
                                             result[MetricId.CEAF_E])
        return {metric: result[metric] for metric in METRIC_ORDER if metric in result}


def pair_documents(gold, pred):
    """Zip gold and predicted documents by id, in gold order.

    Each side is a list or a stream of ``(document, entities)``
    pairs, such as ``conllu.iter_documents`` yields, and is read one
    document at a time.  A predicted document read before its gold
    partner waits for it, so predictions in gold order hold one document.
    Once gold is read to its end, the first error of reading pred is
    raised, then ValueError if an id repeats on one side (a parsed input
    refuses that itself) or the two sides hold different ids.
    """
    preds = iter(pred)
    waiting = {}  # predicted pairs read before their gold partner, by id
    gold_ids, pred_ids = [], []
    error = None
    for gold_doc, gold_entities in gold:
        doc_id = gold_doc.doc_id
        gold_ids.append(doc_id)
        while error is None and doc_id not in waiting:
            try:
                pair = next(preds, None)
            except ValueError as exc:  # raised once gold is read, as if pred were read after it
                error = exc
                break
            if pair is None:
                break
            pred_ids.append(pair[0].doc_id)
            waiting[pair[0].doc_id] = pair
        if error is None and doc_id in waiting:
            yield (gold_doc, gold_entities, *waiting.pop(doc_id))
        gold_doc = gold_entities = pair = None  # not alive while the next pair is read
    if error is None:
        try:
            pred_ids.extend(document.doc_id for document, _ in preds)
        except ValueError as exc:
            error = exc
    if error is not None:
        raise error
    gold_set, pred_set = set(gold_ids), set(pred_ids)
    if len(gold_set) < len(gold_ids) or len(pred_set) < len(pred_ids):
        raise ValueError("a document id repeats within gold or prediction")
    missing = [doc_id for doc_id in gold_ids if doc_id not in pred_set]
    extra = [doc_id for doc_id in pred_ids if doc_id not in gold_set]
    if missing or extra:
        raise ValueError(
            f"document ids differ between gold and prediction "
            f"(missing: {missing[:3]}, unexpected: {extra[:3]})"
        )


def evaluate_corpus(gold, pred,
                    regime: MatchRegime = MatchRegime.HEAD,
                    singleton_mode: str = SINGLETONS_EXCLUDED,
                    conll_only: bool = False,
                    check_surface: bool = True,
                    zero_cache: dict | None = None,
                    totals: _Totals | None = None) -> dict[MetricId, PRF] | None:
    """Score one dataset: all metrics for a gold/predicted corpus pair, or
    with ``conll_only`` just CoNLL and its three parts.  Either side may
    be streamed (see pair_documents).  With ``check_surface=False`` the
    document pairs' surface tokens are taken as already checked (see
    matching.check_same_surface); ``zero_cache`` is that of
    matching.build_alignment.  The counts are summed in gold order, onto
    ``totals`` where given: the running sum of earlier calls with the same
    settings, so a dataset can be scored a document at a time (the call
    then returns None; ``totals.scores()`` scores the sum).  The first
    error of a pair is raised once both sides are read (see
    errors.apply_each)."""
    running = totals is not None
    if not running:
        totals = _Totals(conll_only)

    def count(pair) -> None:
        doc = prepare_document(*pair, regime=regime, singleton_mode=singleton_mode,
                               check_surface=check_surface, zero_cache=zero_cache)
        totals.add(document_counts(doc, singleton_mode, conll_only))

    apply_each(count, pair_documents(gold, pred))
    return None if running else totals.scores()


def evaluate_settings(gold, pred, settings) -> list[dict[MetricId, PRF]]:
    """``evaluate_corpus`` under each ``(regime, singleton_mode,
    conll_only)`` setting, in one pass over the document pairs: each pair
    is scored by ``evaluate_corpus`` under every setting before the next
    pair is read, onto that setting's running sum, so its floats are
    those of its own ``evaluate_corpus``.  A pair's surface tokens are
    checked once and its zeros aligned once per singleton mode.  The first
    error of a pair is raised once both sides are read."""
    totals = [_Totals(conll_only) for _, _, conll_only in settings]

    def count(pair) -> None:
        gold_doc, gold_entities, pred_doc, pred_entities = pair
        gold_one, pred_one = [(gold_doc, gold_entities)], [(pred_doc, pred_entities)]
        zero_caches: dict[str, dict] = {}  # zero alignment does not depend on the regime
        for k, (regime, singleton_mode, conll_only) in enumerate(settings):
            evaluate_corpus(gold_one, pred_one, regime=regime, singleton_mode=singleton_mode,
                            conll_only=conll_only, check_surface=k == 0,
                            zero_cache=zero_caches.setdefault(singleton_mode, {}),
                            totals=totals[k])

    apply_each(count, pair_documents(gold, pred))
    return [total.scores() for total in totals]


def aggregate(per_dataset: dict[str, dict[MetricId | str, PRF]],
              singleton_mode: str = SINGLETONS_EXCLUDED,
              regime: MatchRegime = MatchRegime.HEAD) -> ScoreReport:
    """Unweighted macro average of every metric component across datasets."""
    if not per_dataset:
        raise ValueError("aggregate needs at least one dataset")
    metrics = list(next(iter(per_dataset.values())).keys())
    for name, scores in per_dataset.items():
        for metric in metrics:
            if metric not in scores:
                raise ValueError(f"dataset '{name}' is missing metric "
                                 f"'{getattr(metric, 'value', metric)}'")
    n = len(per_dataset)
    macro = {
        metric: PRF(
            sum(s[metric].recall for s in per_dataset.values()) / n,
            sum(s[metric].precision for s in per_dataset.values()) / n,
            sum(s[metric].f1 for s in per_dataset.values()) / n,
        )
        for metric in metrics
    }
    return ScoreReport(dict(per_dataset), macro, singleton_mode, regime)


# ---------------------------------------------------------------------------
# Rendering.

def _cell(prf: PRF) -> str:
    return f"{100 * prf.recall:.2f} / {100 * prf.precision:.2f} / {100 * prf.f1:.2f}"


def render_score_table(report: ScoreReport) -> str:
    """Tab-separated dataset x metric table, three numbers per cell, then
    the macro row.  Columns: the macro's metrics that every dataset has,
    in its order, each headed by its value (a plain string key: itself)."""
    metrics = [m for m in report.macro if all(m in s for s in report.per_dataset.values())]
    lines = ["\t".join(["dataset"] + [getattr(m, "value", m) for m in metrics])]
    for name, scores in report.per_dataset.items():
        lines.append("\t".join([name] + [_cell(scores[m]) for m in metrics]))
    lines.append("\t".join(["macro"] + [_cell(report.macro[m]) for m in metrics]))
    return "\n".join(lines) + "\n"


def render_records(report: ScoreReport) -> str:
    """Machine-readable JSON-lines stream, one record per score."""
    import json
    records = []
    for scope, name, scores in (
        [("dataset", n, s) for n, s in report.per_dataset.items()]
        + [("macro", "macro", report.macro)]
    ):
        for metric, prf in scores.items():
            records.append(json.dumps({
                "scope": scope,
                "dataset": name,
                "metric": metric.value,
                "regime": report.regime.value,
                "singletons": report.singleton_mode,
                "recall": prf.recall,
                "precision": prf.precision,
                "f1": prf.f1,
            }, ensure_ascii=False))
    return "\n".join(records) + "\n"
