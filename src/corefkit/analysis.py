"""Corpus and system-output statistics, factorized scores, range curves,
and reduced split sampling.

Entity range is the surface-word distance between the first and last
mention heads (zero heads count at their anchor word); the p95 range is
the nearest-rank 95th percentile over non-singleton entities, and a
dataset whose p95 range exceeds 1500 words counts as long-entity data.
Mention length counts surface words only, so pure-zero mentions have
length 0.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import apply_each
from .model import (
    Corpus,
    Document,
    Entity,
    Mention,
    Sentence,
    mention_has_gap,
    mention_is_treelet,
    word_offsets,
)

if TYPE_CHECKING:
    from .matching import MatchRegime

LONG_ENTITY_THRESHOLD = 1500


@dataclass
class EntityStats:
    total: int
    per_1k_words: float
    max_length: int
    avg_length: float
    p95_range: int | None
    length_histogram: dict[str, int]  # keys "1".."4", "5+"


@dataclass
class MentionStats:
    total: int
    per_1k_words: float
    max_length: int
    avg_length: float
    length_histogram: dict[str, int]  # keys "0".."4", "5+"
    pct_with_empty: float
    pct_with_gap: float
    pct_non_treelet: float
    head_upos_distribution: dict[str, float]  # percentages


@dataclass
class CorpusStats:
    """Counts plus entity/mention statistics for one dataset.

    ``entities``/``mentions`` exclude singleton entities; the
    singleton-inclusive entity view and the singleton-mention view are
    reported separately.
    """

    docs: int
    sentences: int
    words: int
    empty_nodes: int
    entities: EntityStats
    mentions: MentionStats
    entities_with_singletons: EntityStats
    singleton_mentions: MentionStats


@dataclass
class RangeCurvePoint:
    window_p95_range: float
    mean_conll_f1: float
    window_tokens: int


def entity_range(entity: Entity, offsets: list[int]) -> int:
    """Surface-word distance between the entity's extreme mention heads.

    ``offsets`` are the ``word_offsets`` of the entity's document; zero
    heads count at their anchor word.
    """
    words = [offsets[m.head.sentence_index] + m.head.major for m in entity.mentions]
    return max(words) - min(words)


def p95_range(entities: list[Entity], offsets: list[int]) -> int | None:
    """Nearest-rank 95th percentile of the ranges of the non-singleton
    entities (ascending sort, index ceil(0.95 n)).  None when no entity
    qualifies.  All entities live in the document of ``offsets``."""
    return _nearest_rank_p95([entity_range(e, offsets) for e in entities
                              if not e.is_singleton])


def head_upos_tags(mention: Mention, document: Document) -> set[str]:
    """UPOS of the mention head, plus the tags of its flat children."""
    sentence = document.sentences[mention.head.sentence_index]
    head_node = sentence.node(mention.head)
    tags = {head_node.upos}
    head_key = (mention.head.major, mention.head.minor)
    for node in sentence.nodes:
        if node.parent is not None and (node.parent.major, node.parent.minor) == head_key \
                and node.deprel.split(":")[0] == "flat":
            tags.add(node.upos)
    return tags


_ENTITY_BUCKETS = ("1", "2", "3", "4", "5+")  # mentions per entity
_MENTION_BUCKETS = ("0", "1", "2", "3", "4", "5+")  # surface words per mention


def _bucket(length: int, floor_key: int, cap: int = 5) -> str:
    if length >= cap:
        return f"{cap}+"
    return str(max(length, floor_key))


def _nearest_rank_p95(values: list[int]) -> int | None:
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(0.95 * len(ordered)))
    return ordered[rank - 1]


def entity_stats(sizes: list[tuple[int, int]], words: int) -> EntityStats:
    """Statistics over entities given as (mention count, range) pairs;
    each range comes from the entity's own document view."""
    lengths = [length for length, _ in sizes]
    histogram = dict.fromkeys(_ENTITY_BUCKETS, 0)
    for length in lengths:
        histogram[_bucket(length, 1)] += 1
    return EntityStats(
        total=len(sizes),
        per_1k_words=1000 * len(sizes) / words if words else 0.0,
        max_length=max(lengths, default=0),
        avg_length=sum(lengths) / len(lengths) if lengths else 0.0,
        p95_range=_nearest_rank_p95([r for _, r in sizes]),
        length_histogram=histogram,
    )


class _MentionCounts:
    """The counts behind MentionStats, taken one mention at a time."""

    def __init__(self):
        self.lengths: list[int] = []
        self.with_empty = self.with_gap = self.non_treelet = 0
        self.upos: dict[str, int] = {}

    def add(self, m: Mention, document: Document) -> None:
        self.lengths.append(m.surface_length())
        self.with_empty += m.contains_empty()
        self.with_gap += mention_has_gap(m, document)
        self.non_treelet += not mention_is_treelet(m, document)
        tag = document.sentences[m.head.sentence_index].node(m.head).upos
        self.upos[tag] = self.upos.get(tag, 0) + 1

    def stats(self, words: int) -> MentionStats:
        lengths, n = self.lengths, len(self.lengths)
        histogram = dict.fromkeys(_MENTION_BUCKETS, 0)
        for length in lengths:
            histogram[_bucket(length, 0)] += 1
        return MentionStats(
            total=n,
            per_1k_words=1000 * n / words if words else 0.0,
            max_length=max(lengths, default=0),
            avg_length=sum(lengths) / n if n else 0.0,
            length_histogram=histogram,
            pct_with_empty=100 * self.with_empty / n if n else 0.0,
            pct_with_gap=100 * self.with_gap / n if n else 0.0,
            pct_non_treelet=100 * self.non_treelet / n if n else 0.0,
            head_upos_distribution={
                tag: 100 * count / n for tag, count in sorted(self.upos.items())
            },
        )


def corpus_stats(corpus) -> CorpusStats:
    """Dataset-level statistics: document/sentence/word/empty-node counts
    plus entity and mention statistics, excluding singletons, with the
    singleton-inclusive variants alongside.  ``corpus`` is a Corpus or a
    stream of ``(document, entities)`` pairs, read one document at a
    time; only counts, sizes and ranges are kept."""
    docs = sentences = words = empty_nodes = 0
    sizes: list[tuple[bool, int, int]] = []  # (singleton?, mentions, range) per entity
    mentions, singleton_mentions = _MentionCounts(), _MentionCounts()

    def add(pair) -> None:
        nonlocal docs, sentences, words, empty_nodes
        document, doc_entities = pair
        offsets = word_offsets(document)
        docs += 1
        sentences += len(document.sentences)
        words += offsets[-1]
        empty_nodes += sum(1 for s in document.sentences for n in s.nodes if n.is_empty)
        for entity in doc_entities:
            sizes.append((entity.is_singleton, len(entity.mentions), entity_range(entity, offsets)))
            kept = singleton_mentions if entity.is_singleton else mentions
            for mention in entity.mentions:
                kept.add(mention, document)

    apply_each(add, corpus)  # so only the current document is held
    return CorpusStats(
        docs=docs,
        sentences=sentences,
        words=words,
        empty_nodes=empty_nodes,
        entities=entity_stats([(n, r) for singleton, n, r in sizes if not singleton], words),
        mentions=mentions.stats(words),
        entities_with_singletons=entity_stats([(n, r) for _, n, r in sizes], words),
        singleton_mentions=singleton_mentions.stats(words),
    )


def is_long_entity_dataset(stats: CorpusStats) -> bool:
    p95 = stats.entities.p95_range
    return p95 is not None and p95 > LONG_ENTITY_THRESHOLD


# ---------------------------------------------------------------------------
# UPOS-factorized scoring.

def upos_factorized_score(gold, pred, tag: str,
                          level: str = "entity",
                          regime: MatchRegime | str = "head") -> PRF:
    """Primary score restricted to a head UPOS tag.

    entity level: keep entities with at least one mention whose head
    UPOS (or a flat child's UPOS) equals the tag.  mention level: keep
    only such mentions; entities reduced to a single mention drop out of
    the singleton-excluded scoring.  Returns the head-match CoNLL score
    excluding singletons.  Either side is a Corpus or a stream, filtered
    and scored one document pair at a time as in ``evaluate_corpus``.  A
    tag in no mention head warns after the last pair and scores 0; the
    documents are paired and checked as for any other tag.
    """
    from .matching import MatchRegime
    from .metrics import SINGLETONS_EXCLUDED, MetricId, evaluate_corpus

    regime = MatchRegime(regime)

    def tag_matches(mention: Mention, document: Document) -> bool:
        return tag in head_upos_tags(mention, document)

    if level == "entity":
        keep_entity = lambda e, d: any(tag_matches(m, d) for m in e.mentions)
        keep_mention = lambda m, d: True
    elif level == "mention":
        keep_entity = lambda e, d: True
        keep_mention = tag_matches
    else:
        raise ValueError(f"unknown factorization level '{level}'")

    kept_any = False

    def filtered(source):
        nonlocal kept_any
        for document, doc_entities in source:
            kept: list[Entity] = []
            for entity in doc_entities:
                if not keep_entity(entity, document):
                    continue
                mentions = [m for m in entity.mentions if keep_mention(m, document)]
                if mentions:
                    kept.append(Entity(entity.id, mentions))
            kept_any = kept_any or bool(kept)
            yield document, kept
            document = doc_entities = kept = None  # not alive while the next pair is read

    scores = evaluate_corpus(filtered(gold), filtered(pred), regime=regime,
                             singleton_mode=SINGLETONS_EXCLUDED, conll_only=True)
    if not kept_any:
        warnings.warn(f"UPOS tag '{tag}' occurs in no mention head; degenerate score",
                      stacklevel=2)
    return scores[MetricId.CONLL]


# ---------------------------------------------------------------------------
# Long-range performance curve.

def max_adjacent_gap(entities: list[Entity], offsets: list[int]) -> int:
    """Largest surface-word distance between the heads of adjacent
    mentions of any of ``entities``, which live in the document of
    ``offsets``."""
    worst = 0
    for entity in entities:
        heads = [offsets[m.head.sentence_index] + m.head.major for m in entity.mentions]
        for a, b in zip(heads, heads[1:]):
            worst = max(worst, abs(b - a))
    return worst


def long_range_curve(gold, pred,
                     window_tokens: int = 50_000,
                     min_p95: int = 100,
                     sort_key: str = "p95",
                     regime: MatchRegime | str = "head") -> list[RangeCurvePoint]:
    """Per-document primary scores bucketed by entity range.

    Documents are paired by id as in ``evaluate_corpus``, so both
    corpora must hold the same ids; either may be streamed, and then only
    the current pair and a small record per document are held.  Documents
    whose gold p95 range exceeds ``min_p95`` are sorted ascending by
    ``sort_key`` ("p95" or "max_adjacent_gap") and tiled into disjoint
    windows of at most ``window_tokens`` words; each point reports the
    unweighted mean document CoNLL F1 and the mean sort-key value of its
    documents.
    """
    from .matching import MatchRegime
    from .metrics import SINGLETONS_EXCLUDED, MetricId, evaluate_corpus, pair_documents

    regime = MatchRegime(regime)

    if sort_key not in ("p95", "max_adjacent_gap"):
        raise ValueError(f"unknown sort key '{sort_key}'")

    qualifying = []

    def score(pair) -> None:
        document, doc_entities, pred_doc, pred_entities = pair
        offsets = word_offsets(document)
        p95 = p95_range(doc_entities, offsets)
        if p95 is None or p95 <= min_p95:
            return
        key = p95 if sort_key == "p95" else max_adjacent_gap(
            [e for e in doc_entities if not e.is_singleton], offsets
        )
        scores = evaluate_corpus(
            [(document, doc_entities)], [(pred_doc, pred_entities)],
            regime=regime, singleton_mode=SINGLETONS_EXCLUDED, conll_only=True,
        )
        qualifying.append((key, offsets[-1], scores[MetricId.CONLL].f1))

    apply_each(score, pair_documents(gold, pred))
    qualifying.sort(key=lambda item: item[0])  # stable: ties keep gold order
    points: list[RangeCurvePoint] = []
    window: list[tuple[int, int, float]] = []
    window_words = 0

    def flush() -> None:
        nonlocal window, window_words
        if window:
            points.append(RangeCurvePoint(
                window_p95_range=sum(item[0] for item in window) / len(window),
                mean_conll_f1=sum(item[2] for item in window) / len(window),
                window_tokens=window_words,
            ))
        window, window_words = [], 0

    for item in qualifying:
        words = item[1]
        if window and window_words + words > window_tokens:
            flush()
        window.append(item)
        window_words += words
    flush()
    return points


# ---------------------------------------------------------------------------
# Data variants and mini-split sampling.

def derive_input_variant(gold: Corpus) -> Corpus:
    """The participant-facing view of a gold corpus: gold empty nodes and
    all coreference annotations are removed.  Morphosyntax is kept as-is
    (re-prediction is a separate concern)."""
    documents = []
    for document in gold.documents:
        sentences = [
            Sentence([n for n in s.nodes if not n.is_empty], s.mwt_ranges, s.sent_id)
            for s in document.sentences
        ]
        documents.append(Document(document.doc_id, sentences))
    return Corpus(documents, [[] for _ in documents])


def sample_split(split: Corpus, cap_words: int = 25_000, exempt: bool = False,
                 seed: int = 0) -> Corpus:
    """Cap a split by random sampling of complete documents.

    Documents are shuffled with the seeded generator and included whole
    while the running word total stays within the cap; the output keeps
    the original document order.  Exempt splits pass through unchanged.
    A first sampled document that alone exceeds the cap is kept alone,
    with a warning, so the split is never empty.
    """
    if exempt:
        return split
    order = list(range(len(split.documents)))
    random.Random(seed).shuffle(order)
    chosen: set[int] = set()
    total = 0
    for doc_index in order:
        words = split.documents[doc_index].word_count()
        if total + words > cap_words:
            if not chosen:
                warnings.warn(
                    f"document '{split.documents[doc_index].doc_id}' alone exceeds "
                    f"the {cap_words}-word cap; keeping it as the whole split",
                    stacklevel=2,
                )
                chosen.add(doc_index)
            break
        chosen.add(doc_index)
        total += words
    kept = sorted(chosen)
    return Corpus(
        [split.documents[i] for i in kept],
        [split.entities[i] for i in kept],
    )


# ---------------------------------------------------------------------------
# Table rendering: tab-separated, a header row, every line ending in "\n";
# per-1k rates to integers, averages, percentages and mean ranges to 1
# decimal, scores as percentages to 2.  The statistics tables share the
# size and length-histogram columns.

def _tsv(header: list[str], rows) -> str:
    return "".join("\t".join(cells) + "\n" for cells in [header, *rows])


_ENTITY_SIZE = ["ent_count", "ent_per_1k", "ent_max_len", "ent_avg_len", "ent_p95_range"]
_MENTION_SIZE = ["men_count", "men_per_1k", "men_max_len", "men_avg_len"]


def _size_cells(stats: EntityStats | MentionStats) -> list[str]:
    """Count, per-1k rate, maximum and average length, and for entities
    the p95 range."""
    cells = [str(stats.total), f"{stats.per_1k_words:.0f}", str(stats.max_length),
             f"{stats.avg_length:.1f}"]
    if isinstance(stats, EntityStats):
        cells.append(str(stats.p95_range) if stats.p95_range is not None else "-")
    return cells


def _histogram_cells(stats: EntityStats | MentionStats, buckets: tuple[str, ...]) -> list[str]:
    """Each length bucket's share of the entities or mentions."""
    total = max(stats.total, 1)
    return [f"{100 * stats.length_histogram[bucket] / total:.1f}" for bucket in buckets]


def render_corpus_stats_table(rows: dict[str, CorpusStats]) -> str:
    header = ["dataset", "docs", "sents", "words", "empty_nodes", *_ENTITY_SIZE, *_MENTION_SIZE]
    return _tsv(header, ([name, str(stats.docs), str(stats.sentences), str(stats.words),
                          str(stats.empty_nodes), *_size_cells(stats.entities),
                          *_size_cells(stats.mentions)]
                         for name, stats in rows.items()))


def _system_table(size_columns: list[str], buckets: tuple[str, ...],
                  views: dict[str, EntityStats | MentionStats]) -> str:
    header = ["system", *size_columns, *[f"len{b.replace('+', 'plus')}_pct" for b in buckets]]
    return _tsv(header, ([name, *_size_cells(stats), *_histogram_cells(stats, buckets)]
                         for name, stats in views.items()))


def render_entity_stats_table(rows: dict[str, CorpusStats]) -> str:
    return _system_table(_ENTITY_SIZE, _ENTITY_BUCKETS,
                         {name: stats.entities_with_singletons for name, stats in rows.items()})


def render_mention_stats_table(rows: dict[str, CorpusStats]) -> str:
    return _system_table(_MENTION_SIZE, _MENTION_BUCKETS,
                         {name: stats.mentions for name, stats in rows.items()})


def render_singleton_stats_table(rows: dict[str, CorpusStats]) -> str:
    return _system_table(_MENTION_SIZE, _MENTION_BUCKETS,
                         {name: stats.singleton_mentions for name, stats in rows.items()})


_UPOS_COLUMNS = ["NOUN", "PRON", "PROPN", "DET", "ADJ", "VERB", "ADV", "NUM", "_"]


def render_mention_details_table(rows: dict[str, CorpusStats]) -> str:
    header = ["system", "w_empty_pct", "w_gap_pct", "non_tree_pct", *_UPOS_COLUMNS, "other"]
    table = []
    for name, stats in rows.items():
        mentions = stats.mentions
        distribution = mentions.head_upos_distribution
        other = sum(v for tag, v in distribution.items() if tag not in _UPOS_COLUMNS)
        values = [mentions.pct_with_empty, mentions.pct_with_gap, mentions.pct_non_treelet,
                  *[distribution.get(tag, 0.0) for tag in _UPOS_COLUMNS], other]
        table.append([name, *[f"{value:.1f}" for value in values]])
    return _tsv(header, table)


def render_curve_table(points: list[RangeCurvePoint]) -> str:
    return _tsv(["window_p95_range", "mean_conll_f1", "window_tokens"],
                ([f"{point.window_p95_range:.1f}", f"{100 * point.mean_conll_f1:.2f}",
                  str(point.window_tokens)] for point in points))


def render_upos_table(tag: str, level: str, prf: PRF) -> str:
    """The one-row table of ``analyze upos``."""
    return _tsv(["tag", "level", "recall", "precision", "f1"],
                [[tag, level, *(f"{100 * value:.2f}"
                                for value in (prf.recall, prf.precision, prf.f1))]])
