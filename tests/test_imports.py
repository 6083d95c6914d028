"""What each command imports.  ``import corefkit`` loads no submodule:
a public name loads its module on first use.  The CLI loads at start only
the module it maps exit codes with (errors), and numpy and scipy, whose
import times perfbench reports; each command loads the modules it runs,
so convert, clean, stats and sample do not load matching.  No command loads
scipy.optimize: the assignments of CEAF-e and of zero alignment are
solved by corefkit.matching.solve_assignment.  The process pool loads
only for score --jobs above 1.  metrics loads logging only to report a
degenerate ratio and json only to write score records.  One fresh
interpreter per case, because this test process has long loaded them
all."""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from corefkit.conllu import serialize_conllu
from corefkit.formats import corpus_to_json, corpus_to_plaintext

from helpers import doc, ent, recluster, sent, zeroful_corpus

ROOT = Path(__file__).resolve().parent.parent
LAZY = ("scipy.optimize", "concurrent.futures.process")
STDLIB = ("json", "logging")  # loaded where used, not with the module that uses them

# argv is None for a bare import of corefkit.cli and a module name for
# an import of that module; the last stdout line reports the exit code and
# which of LAZY, STDLIB, numpy, scipy and the corefkit modules are loaded.
# json, which reads argv, is unloaded before the run so that a load shows.
_PROBE = f"""
import json, sys
argv = json.loads(sys.argv[1])
for name in [m for m in sys.modules if m.partition(".")[0] == "json"]:
    del sys.modules[name]
del json
code = None
if argv is None:
    import corefkit.cli
elif isinstance(argv, str):
    __import__(argv)
else:
    from corefkit.cli import main
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
loaded = sorted(m for m in sys.modules if m in {LAZY + STDLIB!r}
                or m in ("numpy", "scipy") or m.startswith("corefkit"))
import json
print(json.dumps([code, loaded]))
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports")
    gold = zeroful_corpus(7)
    (path / "gold.conllu").write_text(serialize_conllu(gold), encoding="utf-8")
    (path / "pred.conllu").write_text(
        serialize_conllu(recluster(random.Random(8), gold)), encoding="utf-8")
    (path / "gold.txt").write_text(corpus_to_plaintext(gold), encoding="utf-8")
    (path / "gold.json").write_text(json.dumps(corpus_to_json(gold)), encoding="utf-8")
    # one sentence of 7 zeros on a side, so zero alignment solves an assignment
    tokens = [("w1", 0, "root", "VERB")] + [(f"w{k}", 1, "obj", "NOUN") for k in range(2, 9)]
    zeros = doc("z1", sent(0, tokens, [(1, k, f"Z{k}", 1, "nsubj") for k in range(1, 8)]))
    (path / "zeros.conllu").write_text(serialize_conllu([(zeros,
        [ent(f"e{k}", zeros, [(0, k + 1)], [(0, 1, k)]) for k in range(1, 8)])]),
        encoding="utf-8")
    (path / "manifest.txt").write_text("name = d\ngold = gold.conllu\npred = pred.conllu\n\n"
                                       "name = z\ngold = zeros.conllu\npred = zeros.conllu\n",
                                       encoding="utf-8")
    (path / "self.txt").write_text("name = d\ngold = gold.conllu\npred = gold.conllu\n",
                                   encoding="utf-8")
    return path


def _run(code: str, arg, cwd: Path):
    """The JSON value of the last stdout line of ``code`` run in a fresh
    interpreter with ``arg`` as JSON in its argv."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, json.dumps(arg)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _modules_after(argv, cwd: Path) -> list[str]:
    code, loaded = _run(_PROBE, argv, cwd)
    assert code in (None, 0)
    return loaded


def _loaded_after(argv, cwd: Path) -> list[str]:
    return [m for m in _modules_after(argv, cwd) if m in LAZY]


@pytest.mark.parametrize("argv", [
    None,
    ["--help"],
    ["score", "--manifest", "manifest.txt", "--out", "score"],
    ["convert", "to-text", "--in", "gold.conllu", "--out-file", "out.txt"],
    ["convert", "from-text", "--in", "gold.txt", "--skeleton", "gold.conllu",
     "--out-file", "from_text.conllu"],
    ["convert", "to-json", "--in", "gold.conllu", "--out-file", "out.json"],
    ["convert", "from-json", "--in", "gold.json", "--skeleton", "gold.conllu",
     "--out-file", "from_json.conllu"],
    ["clean", "--reference", "gold.conllu", "--in", "gold.txt", "--out-file", "clean.txt"],
    ["stats", "gold.conllu", "--out", "stats"],
    ["analyze", "long-range", "--gold", "gold.conllu", "--pred", "pred.conllu",
     "--min-p95", "0", "--out", "analyze"],
    ["analyze", "upos", "--gold", "gold.conllu", "--pred", "pred.conllu", "--tag", "NOUN",
     "--out", "analyze"],
], ids=["import", "help", "score", "to-text", "from-text", "to-json", "from-json", "clean",
        "stats", "analyze-long-range", "analyze-upos"])
def test_no_command_loads_scipy_optimize_or_the_process_pool(inputs, argv):
    assert _loaded_after(argv, inputs) == []


@pytest.mark.parametrize("module, loaded", [
    ("corefkit", ["corefkit"]),
    ("corefkit.formats", ["corefkit", "corefkit.brackets", "corefkit.errors",
                          "corefkit.formats", "corefkit.model"]),
])
def test_an_import_loads_only_what_the_module_uses_and_not_numpy(inputs, module, loaded):
    assert _modules_after(module, inputs) == loaded


@pytest.mark.parametrize("argv", [None, ["--help"]], ids=["import", "help"])
def test_the_cli_starts_with_errors_only(inputs, argv):
    loaded = _modules_after(argv, inputs)
    assert [m for m in loaded if m.startswith("corefkit")] == [
        "corefkit", "corefkit.cli", "corefkit.errors"]
    # and with numpy and scipy, only because perfbench's import.numpy_s and
    # import.scipy_s time them at CLI start and its tests require both above 0
    assert {"numpy", "scipy"} <= set(loaded)


def test_the_regime_choices_are_the_match_regimes():
    from corefkit.cli import REGIMES
    from corefkit.matching import MatchRegime
    assert list(REGIMES) == [r.value for r in MatchRegime]


@pytest.mark.parametrize("argv, unused", [
    (["convert", "to-text", "--in", "gold.conllu", "--out-file", "out.txt"],
     ("matching", "metrics", "analysis")),
    (["convert", "from-text", "--in", "gold.txt", "--skeleton", "gold.conllu",
      "--out-file", "from_text.conllu"], ("matching", "metrics", "analysis")),
    (["convert", "to-json", "--in", "gold.conllu", "--out-file", "out.json"],
     ("matching", "metrics", "analysis")),
    (["convert", "from-json", "--in", "gold.json", "--skeleton", "gold.conllu",
      "--out-file", "from_json.conllu"], ("matching", "metrics", "analysis")),
    (["clean", "--reference", "gold.conllu", "--in", "gold.txt", "--out-file", "clean.txt"],
     ("matching", "metrics", "analysis")),
    (["score", "--manifest", "manifest.txt", "--out", "score"], ("formats", "analysis")),
    # gold scored against itself meets no degenerate ratio (see zeroful_corpus)
    (["score", "--manifest", "self.txt", "--out", "self"], ("formats", "analysis", "logging")),
    (["stats", "gold.conllu", "--out", "stats"], ("formats", "metrics", "matching")),
    (["sample", "gold.conllu", "--cap-words", "50", "--seed", "1", "--out", "sample"],
     ("formats", "metrics", "matching")),
    (["analyze", "long-range", "--gold", "gold.conllu", "--pred", "pred.conllu",
      "--out", "analyze"], ("formats", "json", "logging")),
], ids=["to-text", "from-text", "to-json", "from-json", "clean", "score", "score-self",
        "stats", "sample", "analyze"])
def test_each_command_loads_only_the_modules_it_runs(inputs, argv, unused):
    loaded = _modules_after(argv, inputs)
    assert "corefkit.conllu" in loaded
    assert not {m if m in STDLIB else f"corefkit.{m}" for m in unused} & set(loaded)


# The public names of the package and the submodule defining each; the
# errors were defined in conllu, formats and matching before errors.py
PUBLIC = {
    "analysis": ["CorpusStats", "EntityStats", "MentionStats", "RangeCurvePoint",
                 "corpus_stats", "derive_input_variant", "entity_range", "head_upos_tags",
                 "long_range_curve", "p95_range", "sample_split", "upos_factorized_score"],
    "conllu": ["parse_conllu", "serialize_conllu"],
    "errors": ["CleanRefusedError", "ConlluError", "JsonFormatError", "PlaintextError",
               "TokenMismatchError"],
    "formats": ["AnnotationItem", "JsonDoc", "PlainDoc", "PlainToken", "clean_output",
                "corpus_to_json", "corpus_to_plaintext", "from_plaintext", "json_doc_from_value",
                "reconstruct_conllu", "reconstruct_from_json", "to_json", "to_plaintext"],
    "matching": ["MatchRegime", "MentionAlignment", "align_zeros", "build_alignment",
                 "match_surface"],
    "metrics": ["PRF", "SINGLETONS_EXCLUDED", "SINGLETONS_INCLUDED", "MetricId", "ScoreReport",
                "aggregate", "evaluate_corpus", "render_records", "render_score_table",
                "score_bcubed", "score_blanc", "score_ceaf_e", "score_conll", "score_lea",
                "score_md_h", "score_mor", "score_muc", "score_zero_anaphora"],
    "model": ["Document", "Entity", "Mention", "Node", "NodeId", "Sentence",
              "derive_head", "make_mention"],
}
SUBMODULES = ["analysis", "brackets", "conllu", "formats", "matching", "metrics", "model"]
MOVED_ERRORS = [("conllu", "ConlluError"), ("formats", "PlaintextError"),
                ("formats", "JsonFormatError"), ("formats", "CleanRefusedError"),
                ("matching", "TokenMismatchError"), ("formats", "TokenMismatchError")]

# the last stdout line: __all__, dir(), the names `import *` binds, the
# public names that are not their module's object, and the moved errors
# whose old path is another class than the one in corefkit.errors
_API_PROBE = """
import importlib, json, sys
public, submodules, moved = json.loads(sys.argv[1])
import corefkit
namespace = {}
exec("from corefkit import *", namespace)
def defined(module, name):
    return getattr(importlib.import_module("corefkit." + module), name)
print(json.dumps([
    corefkit.__all__,
    dir(corefkit),
    [name for name in namespace if name != "__builtins__"],
    [name for module, names in public.items() for name in names
     if namespace[name] is not defined(module, name)]
    + [name for name in submodules if namespace[name] is not sys.modules["corefkit." + name]],
    [[module, name] for module, name in moved
     if defined(module, name) is not defined("errors", name)],
]))
"""


def test_the_public_api_resolves_every_name_to_its_module(tmp_path):
    names, listed, bound, elsewhere, split = _run(
        _API_PROBE, [PUBLIC, SUBMODULES, MOVED_ERRORS], tmp_path)
    expected = {name for names in PUBLIC.values() for name in names} | set(SUBMODULES)
    assert len(expected) == 70
    assert len(names) == 70 and set(names) == expected
    assert expected <= set(listed)
    assert set(bound) == expected
    assert elsewhere == []
    assert split == []


@pytest.mark.parametrize("module", ["corefkit", "corefkit.model"])
def test_a_parsed_input_has_no_corpus_class(module):
    # a parsed input is a list of (document, entities) pairs
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(module), "Corpus")
