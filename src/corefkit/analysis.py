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

from .matching import MatchRegime, ZeroWeight
from .metrics import (
    SINGLETONS_EXCLUDED,
    MetricId,
    PRF,
    evaluate_corpus,
)
from .model import (
    Corpus,
    Document,
    Entity,
    Mention,
    Sentence,
    global_word_index,
    mention_has_gap,
    mention_is_treelet,
)

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


def entity_range(entity: Entity, word_view: dict) -> int:
    """Surface-word distance between the entity's extreme mention heads.

    ``word_view`` maps node ids of the entity's document to ordinals;
    zero heads count at their anchor word.
    """
    anchors = [int(math.floor(word_view[m.head])) for m in entity.mentions]
    return max(anchors) - min(anchors)


def p95_range(entities: list[Entity], word_view: dict,
              exclude_singletons: bool = True) -> int | None:
    """Nearest-rank 95th percentile of entity ranges (ascending sort,
    index ceil(0.95 n)).  None when no entity qualifies.  All entities
    must live in the document that ``word_view`` indexes."""
    return _nearest_rank_p95([entity_range(e, word_view) for e in entities
                              if not (exclude_singletons and e.is_singleton)])


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


def entity_stats(entities_with_ranges: list[tuple[Entity, int]], words: int) -> EntityStats:
    """Statistics over (entity, range) pairs; ranges must come from each
    entity's own document view."""
    lengths = [len(e.mentions) for e, _ in entities_with_ranges]
    histogram = {key: 0 for key in ("1", "2", "3", "4", "5+")}
    for length in lengths:
        histogram[_bucket(length, 1)] += 1
    return EntityStats(
        total=len(entities_with_ranges),
        per_1k_words=1000 * len(entities_with_ranges) / words if words else 0.0,
        max_length=max(lengths, default=0),
        avg_length=sum(lengths) / len(lengths) if lengths else 0.0,
        p95_range=_nearest_rank_p95([r for _, r in entities_with_ranges]),
        length_histogram=histogram,
    )


def mention_stats(mentions: list[Mention], document_of: dict[int, Document],
                  words: int) -> MentionStats:
    """Statistics over mentions; ``document_of`` maps id(mention) to its
    document for tree lookups."""
    lengths = [m.surface_length() for m in mentions]
    histogram = {key: 0 for key in ("0", "1", "2", "3", "4", "5+")}
    for length in lengths:
        histogram[_bucket(length, 0)] += 1
    n = len(mentions)
    with_empty = sum(1 for m in mentions if m.contains_empty())
    with_gap = 0
    non_treelet = 0
    upos_counts: dict[str, int] = {}
    for m in mentions:
        document = document_of[id(m)]
        if mention_has_gap(m, document):
            with_gap += 1
        if not mention_is_treelet(m, document):
            non_treelet += 1
        tag = document.sentences[m.head.sentence_index].node(m.head).upos
        upos_counts[tag] = upos_counts.get(tag, 0) + 1
    return MentionStats(
        total=n,
        per_1k_words=1000 * n / words if words else 0.0,
        max_length=max(lengths, default=0),
        avg_length=sum(lengths) / n if n else 0.0,
        length_histogram=histogram,
        pct_with_empty=100 * with_empty / n if n else 0.0,
        pct_with_gap=100 * with_gap / n if n else 0.0,
        pct_non_treelet=100 * non_treelet / n if n else 0.0,
        head_upos_distribution={
            tag: 100 * count / n for tag, count in sorted(upos_counts.items())
        },
    )


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Dataset-level statistics: document/sentence/word/empty-node counts
    plus entity and mention statistics, excluding singletons, with the
    singleton-inclusive variants alongside."""
    index = global_word_index(corpus)
    words = index.word_count
    docs = len(corpus.documents)
    sentences = sum(len(d.sentences) for d in corpus.documents)
    empty_nodes = sum(
        1 for d in corpus.documents for s in d.sentences for n in s.nodes if n.is_empty
    )

    document_of: dict[int, Document] = {}
    all_pairs: list[tuple[Entity, int]] = []
    for doc_index, (document, doc_entities) in enumerate(corpus.doc_pairs()):
        view = index.view(doc_index)
        for entity in doc_entities:
            all_pairs.append((entity, entity_range(entity, view)))
            for mention in entity.mentions:
                document_of[id(mention)] = document

    nonsingleton = [(e, r) for e, r in all_pairs if not e.is_singleton]
    ns_mentions = [m for e, _ in nonsingleton for m in e.mentions]
    s_mentions = [m for e, _ in all_pairs if e.is_singleton for m in e.mentions]
    return CorpusStats(
        docs=docs,
        sentences=sentences,
        words=words,
        empty_nodes=empty_nodes,
        entities=entity_stats(nonsingleton, words),
        mentions=mention_stats(ns_mentions, document_of, words),
        entities_with_singletons=entity_stats(all_pairs, words),
        singleton_mentions=mention_stats(s_mentions, document_of, words),
    )


def is_long_entity_dataset(stats: CorpusStats) -> bool:
    p95 = stats.entities.p95_range
    return p95 is not None and p95 > LONG_ENTITY_THRESHOLD


# ---------------------------------------------------------------------------
# UPOS-factorized scoring.

def _filter_corpus(corpus: Corpus, keep_entity, keep_mention) -> Corpus:
    filtered: list[list[Entity]] = []
    for document, doc_entities in corpus.doc_pairs():
        kept: list[Entity] = []
        for entity in doc_entities:
            if not keep_entity(entity, document):
                continue
            mentions = [m for m in entity.mentions if keep_mention(m, document)]
            if mentions:
                kept.append(Entity(entity.id, mentions))
        filtered.append(kept)
    return Corpus(corpus.documents, filtered)


def upos_factorized_score(gold: Corpus, pred: Corpus, tag: str,
                          level: str = "entity",
                          regime: MatchRegime = MatchRegime.HEAD,
                          weights: ZeroWeight = ZeroWeight()) -> PRF:
    """Primary score restricted to a head UPOS tag.

    entity level: keep entities with at least one mention whose head
    UPOS (or a flat child's UPOS) equals the tag.  mention level: keep
    only such mentions; entities reduced to a single mention drop out of
    the singleton-excluded scoring.  Returns the head-match CoNLL score
    excluding singletons.
    """
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

    gold_f = _filter_corpus(gold, keep_entity, keep_mention)
    pred_f = _filter_corpus(pred, keep_entity, keep_mention)
    if not any(gold_f.entities) and not any(pred_f.entities):
        warnings.warn(f"UPOS tag '{tag}' occurs in no mention head; degenerate score",
                      stacklevel=2)
        return PRF(0.0, 0.0, 0.0)
    scores = evaluate_corpus(gold_f, pred_f, regime=regime,
                             singleton_mode=SINGLETONS_EXCLUDED, weights=weights,
                             conll_only=True)
    return scores[MetricId.CONLL]


# ---------------------------------------------------------------------------
# Long-range performance curve.

def _single_document_corpus(corpus: Corpus, doc_index: int) -> Corpus:
    return Corpus([corpus.documents[doc_index]], [corpus.entities[doc_index]])


def max_adjacent_gap(entities: list[Entity], word_view: dict) -> int:
    """Largest surface-word distance between adjacent mentions of any
    non-singleton entity."""
    worst = 0
    for entity in entities:
        heads = [int(math.floor(word_view[m.head])) for m in entity.mentions]
        for a, b in zip(heads, heads[1:]):
            worst = max(worst, abs(b - a))
    return worst


def long_range_curve(gold: Corpus, pred: Corpus,
                     window_tokens: int = 50_000,
                     min_p95: int = 100,
                     sort_key: str = "p95",
                     regime: MatchRegime = MatchRegime.HEAD,
                     weights: ZeroWeight = ZeroWeight()) -> list[RangeCurvePoint]:
    """Per-document primary scores bucketed by entity range.

    Documents whose gold p95 range exceeds ``min_p95`` are sorted
    ascending by ``sort_key`` ("p95" or "max_adjacent_gap") and tiled
    into disjoint windows of at most ``window_tokens`` words; each point
    reports the unweighted mean document CoNLL F1 and the mean sort-key
    value of its documents.
    """
    if sort_key not in ("p95", "max_adjacent_gap"):
        raise ValueError(f"unknown sort key '{sort_key}'")
    index = global_word_index(gold)
    pred_by_id = {d.doc_id: i for i, d in enumerate(pred.documents)}

    qualifying = []
    for doc_index, (document, doc_entities) in enumerate(gold.doc_pairs()):
        view = index.view(doc_index)
        p95 = p95_range(doc_entities, view)
        if p95 is None or p95 <= min_p95:
            continue
        if document.doc_id not in pred_by_id:
            raise ValueError(f"prediction is missing document '{document.doc_id}'")
        key = p95 if sort_key == "p95" else max_adjacent_gap(
            [e for e in doc_entities if not e.is_singleton], view
        )
        scores = evaluate_corpus(
            _single_document_corpus(gold, doc_index),
            _single_document_corpus(pred, pred_by_id[document.doc_id]),
            regime=regime, singleton_mode=SINGLETONS_EXCLUDED, weights=weights,
            conll_only=True,
        )
        qualifying.append((key, doc_index, document.word_count(),
                           scores[MetricId.CONLL].f1))

    qualifying.sort(key=lambda item: (item[0], item[1]))
    points: list[RangeCurvePoint] = []
    window: list[tuple[int, int, int, float]] = []
    window_words = 0

    def flush() -> None:
        nonlocal window, window_words
        if window:
            points.append(RangeCurvePoint(
                window_p95_range=sum(item[0] for item in window) / len(window),
                mean_conll_f1=sum(item[3] for item in window) / len(window),
                window_tokens=window_words,
            ))
        window, window_words = [], 0

    for item in qualifying:
        words = item[2]
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
# Table rendering (tab-separated, header row; percentages to 1 decimal,
# per-1k rates to integers).

def _fmt_rate(value: float) -> str:
    return f"{value:.0f}"


def _fmt_avg(value: float) -> str:
    return f"{value:.1f}"


def _fmt_pct(value: float) -> str:
    return f"{value:.1f}"


def render_corpus_stats_table(rows: dict[str, CorpusStats]) -> str:
    header = [
        "dataset", "docs", "sents", "words", "empty_nodes",
        "ent_count", "ent_per_1k", "ent_max_len", "ent_avg_len", "ent_p95_range",
        "men_count", "men_per_1k", "men_max_len", "men_avg_len",
    ]
    lines = ["\t".join(header)]
    for name, stats in rows.items():
        entities, mentions = stats.entities, stats.mentions
        lines.append("\t".join([
            name, str(stats.docs), str(stats.sentences), str(stats.words),
            str(stats.empty_nodes),
            str(entities.total), _fmt_rate(entities.per_1k_words),
            str(entities.max_length), _fmt_avg(entities.avg_length),
            str(entities.p95_range) if entities.p95_range is not None else "-",
            str(mentions.total), _fmt_rate(mentions.per_1k_words),
            str(mentions.max_length), _fmt_avg(mentions.avg_length),
        ]))
    return "\n".join(lines) + "\n"


def render_entity_stats_table(rows: dict[str, CorpusStats]) -> str:
    header = ["system", "ent_count", "ent_per_1k", "ent_max_len", "ent_avg_len",
              "ent_p95_range", "len1_pct", "len2_pct", "len3_pct", "len4_pct",
              "len5plus_pct"]
    lines = ["\t".join(header)]
    for name, stats in rows.items():
        entities = stats.entities_with_singletons
        total = max(entities.total, 1)
        histogram = entities.length_histogram
        lines.append("\t".join([
            name, str(entities.total), _fmt_rate(entities.per_1k_words),
            str(entities.max_length), _fmt_avg(entities.avg_length),
            str(entities.p95_range) if entities.p95_range is not None else "-",
            *[_fmt_pct(100 * histogram[key] / total) for key in ("1", "2", "3", "4", "5+")],
        ]))
    return "\n".join(lines) + "\n"


def _render_mention_block(rows: dict[str, CorpusStats], singleton: bool) -> str:
    header = ["system", "men_count", "men_per_1k", "men_max_len", "men_avg_len",
              "len0_pct", "len1_pct", "len2_pct", "len3_pct", "len4_pct",
              "len5plus_pct"]
    lines = ["\t".join(header)]
    for name, stats in rows.items():
        mentions = stats.singleton_mentions if singleton else stats.mentions
        total = max(mentions.total, 1)
        histogram = mentions.length_histogram
        lines.append("\t".join([
            name, str(mentions.total), _fmt_rate(mentions.per_1k_words),
            str(mentions.max_length), _fmt_avg(mentions.avg_length),
            *[_fmt_pct(100 * histogram[key] / total)
              for key in ("0", "1", "2", "3", "4", "5+")],
        ]))
    return "\n".join(lines) + "\n"


def render_mention_stats_table(rows: dict[str, CorpusStats]) -> str:
    return _render_mention_block(rows, singleton=False)


def render_singleton_stats_table(rows: dict[str, CorpusStats]) -> str:
    return _render_mention_block(rows, singleton=True)


_UPOS_COLUMNS = ["NOUN", "PRON", "PROPN", "DET", "ADJ", "VERB", "ADV", "NUM", "_"]


def render_mention_details_table(rows: dict[str, CorpusStats]) -> str:
    header = ["system", "w_empty_pct", "w_gap_pct", "non_tree_pct"] \
        + _UPOS_COLUMNS + ["other"]
    lines = ["\t".join(header)]
    for name, stats in rows.items():
        mentions = stats.mentions
        distribution = mentions.head_upos_distribution
        other = sum(v for tag, v in distribution.items() if tag not in _UPOS_COLUMNS)
        lines.append("\t".join([
            name,
            _fmt_pct(mentions.pct_with_empty),
            _fmt_pct(mentions.pct_with_gap),
            _fmt_pct(mentions.pct_non_treelet),
            *[_fmt_pct(distribution.get(tag, 0.0)) for tag in _UPOS_COLUMNS],
            _fmt_pct(other),
        ]))
    return "\n".join(lines) + "\n"


def render_curve_table(points: list[RangeCurvePoint]) -> str:
    lines = ["\t".join(["window_p95_range", "mean_conll_f1", "window_tokens"])]
    for point in points:
        lines.append(
            f"{point.window_p95_range:.1f}\t{100 * point.mean_conll_f1:.2f}\t{point.window_tokens}"
        )
    return "\n".join(lines) + "\n"
