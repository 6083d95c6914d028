"""Toolkit for coreference-annotated CoNLL-U corpora with zero anaphora:
parsing, mention matching, cluster metrics, interchange formats, output
repair, and corpus analysis.

A public name loads its submodule on first use (PEP 562), so ``import
corefkit`` loads none of them."""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("analysis", "brackets", "conllu", "formats", "matching", "metrics", "model")

# the public names each submodule defines
_NAMES = {
    "analysis": (
        "CorpusStats", "EntityStats", "MentionStats", "RangeCurvePoint", "corpus_stats",
        "derive_input_variant", "entity_range", "head_upos_tags", "long_range_curve",
        "p95_range", "sample_split", "upos_factorized_score",
    ),
    "conllu": ("parse_conllu", "serialize_conllu"),
    "errors": (
        "CleanRefusedError", "ConlluError", "JsonFormatError", "PlaintextError",
        "TokenMismatchError",
    ),
    "formats": (
        "AnnotationItem", "JsonDoc", "PlainDoc", "PlainToken", "clean_output",
        "corpus_to_json", "corpus_to_plaintext", "from_plaintext",
        "json_doc_from_value", "reconstruct_conllu", "reconstruct_from_json", "to_json",
        "to_plaintext",
    ),
    "matching": (
        "MatchRegime", "MentionAlignment", "align_zeros", "build_alignment", "match_surface",
    ),
    "metrics": (
        "PRF", "SINGLETONS_EXCLUDED", "SINGLETONS_INCLUDED", "MetricId", "ScoreReport",
        "aggregate", "evaluate_corpus", "render_records", "render_score_table",
        "score_bcubed", "score_blanc", "score_ceaf_e", "score_conll", "score_lea",
        "score_md_h", "score_mor", "score_muc", "score_zero_anaphora",
    ),
    "model": (
        "Corpus", "Document", "Entity", "Mention", "Node", "NodeId", "Sentence", "derive_head",
        "make_mention",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted([*_SUBMODULES, *_MODULE_OF])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
