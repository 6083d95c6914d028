"""Fuzzing the command-line boundary: whatever bytes the inputs hold,
every command ends in a documented exit code (0 ok, 2 parse, 3 mismatch,
4 config) and never in a Python exception."""

import json
import random
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from corefkit.cli import EXIT_CONFIG, EXIT_MISMATCH, EXIT_OK, EXIT_PARSE, main
from corefkit.conllu import serialize_conllu
from corefkit.formats import corpus_to_json, corpus_to_plaintext

from helpers import recluster, zeroful_corpus

GOLD = zeroful_corpus(3)
PRED = recluster(random.Random(4), GOLD)
INPUTS = {
    "gold": serialize_conllu(GOLD).encode("utf-8"),
    "pred": serialize_conllu(PRED).encode("utf-8"),
    "text": corpus_to_plaintext(GOLD).encode("utf-8"),
    "json": (json.dumps(corpus_to_json(GOLD), ensure_ascii=False, indent=1) + "\n").encode(),
    "manifest": b"name = fuzz\ngold = {gold}\npred = {pred}\n",
}
# every command line, with {name} standing for the path of that input
COMMANDS = [
    ["score", "--manifest", "{manifest}"],
    ["convert", "to-text", "--in", "{gold}", "--out-file", "{out}/g.txt"],
    ["convert", "to-json", "--in", "{gold}", "--out-file", "{out}/g.json"],
    ["convert", "from-text", "--in", "{text}", "--skeleton", "{gold}",
     "--out-file", "{out}/t.conllu"],
    ["convert", "from-json", "--in", "{json}", "--skeleton", "{gold}",
     "--out-file", "{out}/j.conllu"],
    ["clean", "--reference", "{gold}", "--in", "{text}", "--out-file", "{out}/clean.txt"],
    ["stats", "{gold}"],
    ["stats", "--manifest", "{manifest}", "--mode", "system"],
    ["analyze", "long-range", "--gold", "{gold}", "--pred", "{pred}", "--min-p95", "0"],
    ["analyze", "upos", "--gold", "{gold}", "--pred", "{pred}", "--tag", "NOUN"],
    ["sample", "{gold}", "--cap-words", "20"],
    ["sample", "--manifest", "{manifest}", "--cap-words", "20"],
]
PIECES = [b"[", b"]", b"|", b"##", b",", b"=", b"-", b"_", b"#", b"0", b"1.1", b"99", b"\t",
          b" ", b"\n", b"\n\n", b"\r", b"\xff", b"{", b"}", b'"', b"(e1", b"e2)", b"[e1",
          b"e9]", b"Entity=", b"# newdoc id = x\n", b"gold", b"\xe2\x80\xa8"]
# (offset, bytes removed, bytes inserted), or (line, line, keep): copy or
# move a line to before another; offsets wrap at the input's length
EDITS = st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 3),
                           st.sampled_from(PIECES) | st.binary(max_size=4))
                 | st.tuples(st.integers(0, 1 << 20), st.integers(0, 1 << 20), st.booleans()),
                 min_size=1, max_size=4)


def mutate(data: bytes, edits) -> bytes:
    for a, b, change in edits:
        if isinstance(change, bytes):
            at = a % (len(data) + 1)
            data = data[:at] + change + data[at + b:]
            continue
        lines = data.split(b"\n")
        line = lines[a % len(lines)] if change else lines.pop(a % len(lines))
        lines.insert(b % (len(lines) + 1), line)
        data = b"\n".join(lines)
    return data


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(INPUTS)), EDITS)
@example("json", [(0, 1 << 20, b"[" * 100_000)])
def test_every_command_ends_in_a_documented_exit_code(target, edits):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        root = Path(tmp)
        paths = {name: str(root / name) for name in INPUTS}
        for name, data in INPUTS.items():
            data = data.replace(b"{gold}", paths["gold"].encode()) \
                       .replace(b"{pred}", paths["pred"].encode())
            Path(paths[name]).write_bytes(mutate(data, edits) if name == target else data)
        out = root / "out"
        for command in COMMANDS:
            argv = [arg.format(out=out, **paths) for arg in command]
            if command[0] not in ("convert", "clean"):
                argv += ["--out", str(out)]
            code = main(argv)
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_MISMATCH, EXIT_CONFIG), argv
