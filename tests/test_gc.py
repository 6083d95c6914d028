"""The model and every pipeline stage build no reference cycles, so they
leave nothing for the cyclic garbage collector.  A change that adds a
cycle fails here, instead of leaking in a process that pauses the
collector."""

import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from corefkit import analysis, cli, formats, metrics
from corefkit.conllu import parse_conllu, serialize_conllu
from corefkit.matching import MatchRegime

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
    for (document, _), line, value in zip(gold, lines, values):
        rebuilt.append(formats.reconstruct_conllu(document, formats.from_plaintext(line)))
        rebuilt.append(formats.reconstruct_from_json(formats.json_doc_from_value(value),
                                                     document))
        cleaned = formats.clean_output(document, _one_noisy_token(line))
        rebuilt.append(formats.reconstruct_conllu(document, cleaned))
    serialize_conllu(rebuilt)

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
        gc.unfreeze()
        gc.enable()
    assert seen == [False] and exit_.value.code == 0


def test_main_leaves_the_callers_collector_as_it_found_it(tmp_path):
    source = tmp_path / "g.conllu"
    source.write_text(serialize_conllu(zeroful_corpus(3)), encoding="utf-8")
    frozen = gc.get_freeze_count()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert cli.main(["stats", str(source), "--out", str(tmp_path / "out")]) == 0
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
    finally:
        gc.enable()


# Runs the `corefkit` command as `python -m` does, with an exit hook
# registered first, so that it runs after every hook the command adds.
_EXIT_PROBE = """
import atexit, gc, runpy
atexit.register(lambda: print("at exit:", gc.get_freeze_count() > 0, gc.isenabled()))
runpy.run_module("corefkit.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("case, code", [("help", 0), ("stats", 0), ("malformed", 2)])
def test_the_command_exits_with_its_heap_frozen_and_the_collector_off(tmp_path, case, code):
    """Finalization collects even with the collector off; a frozen heap
    leaves it nothing to scan."""
    good, bad = tmp_path / "g.conllu", tmp_path / "bad.conllu"
    good.write_text(serialize_conllu(zeroful_corpus(3)), encoding="utf-8")
    bad.write_text("# newdoc id = d\nnot a conllu line\n", encoding="utf-8")
    argv = {"help": ["--help"],
            "stats": ["stats", str(good), "--out", str(tmp_path / "out")],
            "malformed": ["stats", str(bad), "--out", str(tmp_path / "out")]}[case]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", _EXIT_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    assert done.stdout.splitlines()[-1] == "at exit: True False"
