"""In-process span tracing for the traced benchmark run.

``Tracer.installed()`` wraps the public functions of each corefkit
module at the names their callers look up (the defining module's global
and every ``from ... import`` copy), records one span per call and
restores the originals on exit.  Spans carry a name, start, end, parent
and run id, live in memory, and are summarised when the run ends.

A function that a later version no longer has is skipped; its metrics
then read 0.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

SCORE_FUNCTIONS = ("muc", "bcubed", "ceaf_e", "blanc", "lea", "mor", "md_h", "zero_anaphora")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    run: int  # a cycle of the traced run; negative for its score_* replay


class Tracer:
    def __init__(self, tiers: dict[str, tuple[str, int]]):
        self.tiers = tiers  # cleaned reference doc id -> ("light" or "heavy", edits)
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.stack: list[int] = []
        self.run = 0

    # -- span recording --------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, func, name, after=None):
        """Span around ``func``; ``after(args, kwargs, result, error)``
        may rename the span and record counts once the span is closed."""
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            result = error = None
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self.close(index)
                if after is not None:
                    renamed = after(args, kwargs, result, error)
                    if renamed:
                        self.spans[index].name = renamed
        return wrapper

    def _after_parse(self, args, kwargs, result, error):
        self.counts["conllu.parse_bytes"] += len(args[0])
        self.counts["conllu.parse_calls"] += 1

    def _after_serialize(self, args, kwargs, result, error):
        if result is not None:
            self.counts["conllu.serialize_bytes"] += len(result.encode("utf-8"))

    def _after_match(self, args, kwargs, result, error):
        regime = args[2] if len(args) > 2 else kwargs.get("regime", "head")
        regime = getattr(regime, "value", regime)
        if result is not None:
            self.counts[f"matching.pairs.{regime}"] += len(result.pairs)
        if regime == "partial":
            self.counts["matching.partial_candidates"] += len(args[0]) * len(args[1])
        return f"matching.match_surface.{regime}"

    def _after_zeros(self, args, kwargs, result, error):
        if result is not None:
            self.counts["matching.zero_pairs"] += len(result.pairs)
        for side in (args[0], args[1]):
            per_sentence = Counter(m.head.sentence_index for m in side)
            if per_sentence:
                self.maxima["matching.zero_max_side"] = max(
                    self.maxima["matching.zero_max_side"], max(per_sentence.values()))

    def _after_evaluate(self, args, kwargs, result, error):
        regime = kwargs.get("regime", args[2] if len(args) > 2 else "head")
        self.counts["metrics.evaluate_corpus_calls"] += 1
        return f"metrics.evaluate_corpus.{getattr(regime, 'value', regime)}"

    def _after_clean(self, args, kwargs, result, error):
        if error is not None:
            return "formats.clean_output.refused"
        noise, edits = self.tiers[args[0].doc_id]
        self.counts["formats.clean_edits"] += edits
        return f"formats.clean_output.{noise}"

    def _targets(self, cli, conllu, matching, metrics, formats, analysis):
        """(modules holding the name, attribute, span name, after hook)."""
        return [
            ((conllu, cli), "parse_conllu", "conllu.parse", self._after_parse),
            ((conllu, cli), "serialize_conllu", "conllu.serialize", self._after_serialize),
            ((matching,), "check_same_surface", "matching.check_same_surface", None),
            ((matching,), "match_surface", "matching.match_surface", self._after_match),
            ((matching,), "align_zeros", "matching.align_zeros", self._after_zeros),
            ((metrics, analysis), "evaluate_corpus", "metrics.evaluate_corpus",
             self._after_evaluate),
            ((metrics,), "remap_partitions", "metrics.remap_partitions", None),
            ((formats,), "to_plaintext", "formats.to_plaintext", None),
            ((formats,), "from_plaintext", "formats.from_plaintext", None),
            ((formats,), "reconstruct_conllu", "formats.reconstruct_conllu", None),
            ((formats,), "to_json", "formats.to_json", None),
            ((formats,), "json_doc_from_value", "formats.json_doc_from_value", None),
            ((formats,), "reconstruct_from_json", "formats.reconstruct_from_json", None),
            ((formats,), "clean_output", "formats.clean_output", self._after_clean),
            ((analysis,), "corpus_stats", "analysis.corpus_stats", None),
            ((analysis,), "long_range_curve", "analysis.long_range_curve", None),
            *(((metrics,), f"score_{f}", f"metrics.score_{f}", None) for f in SCORE_FUNCTIONS),
        ]

    @contextmanager
    def installed(self):
        from corefkit import analysis, cli, conllu, formats, matching, metrics

        saved = []
        for modules, attr, name, after in self._targets(cli, conllu, matching, metrics,
                                                          formats, analysis):
            original = getattr(modules[0], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, after)
            for module in modules:
                if getattr(module, attr, None) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    # -- summaries ---------------------------------------------------------

    def summary(self, run: int):
        """For one run id: self time per span name; per root span name the
        summed self time of the spans beneath it; and call counts of
        (root name, span name) pairs."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.run == run and span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        own: dict[str, float] = defaultdict(float)
        beneath: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, span in enumerate(self.spans):
            if span.run != run:
                continue
            self_time = span.end - span.start - child_time[index]
            own[span.name] += self_time
            root = index
            while self.spans[root].parent >= 0:
                root = self.spans[root].parent
            if root != index:
                beneath[self.spans[root].name] += self_time
                calls[self.spans[root].name, span.name] += 1
        return own, beneath, calls
