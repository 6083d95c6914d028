"""What each command imports: scipy.optimize loads on the first solved
assignment and the process pool only for score --jobs above 1, so the
commands that solve none start without them.  One fresh interpreter per
case, because this test process has long loaded both."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from corefkit.conllu import serialize_conllu
from corefkit.formats import corpus_to_json, corpus_to_plaintext

from helpers import recluster, zeroful_corpus

ROOT = Path(__file__).resolve().parent.parent
LAZY = ("scipy.optimize", "concurrent.futures.process")

# argv is None for a bare import; the last stdout line reports the exit
# code and which of LAZY are loaded
_PROBE = f"""
import json, sys
argv = json.loads(sys.argv[1])
code = None
if argv is None:
    import corefkit.cli
else:
    from corefkit.cli import main
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, [m for m in {LAZY!r} if m in sys.modules]]))
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
    (path / "manifest.txt").write_text("name = d\ngold = gold.conllu\npred = pred.conllu\n",
                                       encoding="utf-8")
    return path


def _loaded_after(argv, cwd: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code in (None, 0), done.stderr
    return loaded


@pytest.mark.parametrize("argv", [
    None,
    ["--help"],
    ["convert", "to-text", "--in", "gold.conllu", "--out-file", "out.txt"],
    ["convert", "from-text", "--in", "gold.txt", "--skeleton", "gold.conllu",
     "--out-file", "from_text.conllu"],
    ["convert", "to-json", "--in", "gold.conllu", "--out-file", "out.json"],
    ["convert", "from-json", "--in", "gold.json", "--skeleton", "gold.conllu",
     "--out-file", "from_json.conllu"],
    ["clean", "--reference", "gold.conllu", "--in", "gold.txt", "--out-file", "clean.txt"],
    ["stats", "gold.conllu", "--out", "stats"],
], ids=["import", "help", "to-text", "from-text", "to-json", "from-json", "clean",
        "stats"])
def test_commands_that_solve_no_assignment_load_neither(inputs, argv):
    assert _loaded_after(argv, inputs) == []


def test_score_loads_the_assignment_solver_only(inputs):
    assert _loaded_after(["score", "--manifest", "manifest.txt", "--out", "score"],
                         inputs) == ["scipy.optimize"]
