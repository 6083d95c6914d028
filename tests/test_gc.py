"""The model and every pipeline stage build no reference cycles, so they
leave nothing for the cyclic garbage collector.  A change that adds a
cycle fails here, instead of leaking in a process that pauses the
collector."""

import gc
import json
import random

import pytest

from corefkit import analysis, cli, formats, metrics
from corefkit.conllu import parse_conllu, serialize_conllu
from corefkit.matching import MatchRegime
from corefkit.model import Corpus

from helpers import random_gold, recluster, zeroful_corpus


def _one_noisy_token(line: str) -> str:
    tokens = line.split(" ")
    tokens.insert(len(tokens) // 2, "noise")
    return " ".join(tokens)


def _run_every_stage(seed: int) -> None:
    rng = random.Random(seed)
    source = random_gold(rng, n_docs=2, empty_parent_mode="anchor") if seed % 2 \
        else zeroful_corpus(seed)
    gold = parse_conllu(serialize_conllu(source))
    pred = parse_conllu(serialize_conllu(recluster(rng, source)))
    for regime in MatchRegime:
        for mode in (metrics.SINGLETONS_INCLUDED, metrics.SINGLETONS_EXCLUDED):
            metrics.evaluate_corpus(gold, pred, regime=regime, singleton_mode=mode)

    lines = formats.corpus_to_plaintext(gold).splitlines()
    values = json.loads(json.dumps(formats.corpus_to_json(gold)))
    rebuilt = []
    for document, line, value in zip(gold.documents, lines, values):
        rebuilt.append(formats.reconstruct_conllu(document, formats.from_plaintext(line)))
        rebuilt.append(formats.reconstruct_from_json(formats.json_doc_from_value(value),
                                                     document))
        cleaned = formats.clean_output(document, _one_noisy_token(line))
        rebuilt.append(formats.reconstruct_conllu(document, cleaned))
    serialize_conllu(Corpus([d for d, _ in rebuilt], [e for _, e in rebuilt]))

    analysis.corpus_stats(gold)
    analysis.long_range_curve(gold, pred, window_tokens=50, min_p95=0)


def test_parse_score_convert_clean_and_analysis_leave_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        for seed in range(6):
            _run_every_stage(seed)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_entrypoint_runs_main_with_the_collector_paused(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or 0)
    gc.enable()
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.entrypoint()
    finally:
        gc.enable()
    assert seen == [False] and exit_.value.code == 0


def test_main_leaves_the_callers_collector_as_it_found_it(tmp_path):
    source = tmp_path / "g.conllu"
    source.write_text(serialize_conllu(zeroful_corpus(3)), encoding="utf-8")
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert cli.main(["stats", str(source), "--out", str(tmp_path / "out")]) == 0
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
