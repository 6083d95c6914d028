"""Toolkit for coreference-annotated CoNLL-U corpora with zero anaphora:
parsing, mention matching, cluster metrics, interchange formats, output
repair, and corpus analysis."""

from .analysis import (
    CorpusStats,
    EntityStats,
    MentionStats,
    RangeCurvePoint,
    corpus_stats,
    derive_input_variant,
    entity_range,
    head_upos_tags,
    long_range_curve,
    p95_range,
    sample_split,
    upos_factorized_score,
)
from .conllu import ConlluError, parse_conllu, serialize_conllu
from .formats import (
    AnnotationItem,
    CleanRefusedError,
    JsonDoc,
    JsonFormatError,
    PlainDoc,
    PlainToken,
    PlaintextError,
    clean_output,
    corpus_to_json,
    corpus_to_plaintext,
    from_json,
    from_plaintext,
    json_doc_from_value,
    reconstruct_conllu,
    reconstruct_from_json,
    to_json,
    to_plaintext,
)
from .matching import (
    MatchRegime,
    MentionAlignment,
    TokenMismatchError,
    ZeroWeight,
    align_zeros,
    build_alignment,
    match_surface,
)
from .metrics import (
    PRF,
    SINGLETONS_EXCLUDED,
    SINGLETONS_INCLUDED,
    MetricId,
    ScoreReport,
    aggregate,
    evaluate_corpus,
    evaluate_documents,
    render_records,
    render_score_table,
    score_bcubed,
    score_blanc,
    score_ceaf_e,
    score_conll,
    score_lea,
    score_md_h,
    score_mor,
    score_muc,
    score_zero_anaphora,
)
from .model import (
    Corpus,
    Document,
    Entity,
    Mention,
    Node,
    NodeId,
    Sentence,
    WordIndex,
    derive_head,
    global_word_index,
    make_mention,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
