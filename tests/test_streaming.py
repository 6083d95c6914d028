"""Commands read their CoNLL-U inputs one document at a time
(conllu.iter_documents), yet write the bytes, exit codes and messages of
reading every input whole first:

1. an error in reading an input comes first; of two, the one in the input
   that is read first (gold before pred, skeleton before its plaintext);
2. then the checks that need every document: ids that differ, and the
   document count of from-text and clean;
3. then the first error of handling one document, in the order of the
   documents (JSON order for from-json), once every input is read.

The memory a streamed command holds does not grow with the document count.
"""

import json
import random
import tracemalloc
from pathlib import Path

import pytest

from corefkit.cli import EXIT_CONFIG, EXIT_MISMATCH, EXIT_OK, EXIT_PARSE, main
from corefkit.conllu import parse_conllu, serialize_conllu
from corefkit.formats import corpus_to_json, corpus_to_plaintext
from corefkit.model import Document

from helpers import Pairs, canonical_clusters, random_gold, recluster

BROKEN = "not a conllu line\n"  # appended, it ends the last document in a parse error


def _pair(n_docs: int, seed: int = 5) -> tuple[Pairs, Pairs]:
    gold = random_gold(random.Random(seed), n_docs=n_docs, empty_parent_mode="anchor")
    return gold, recluster(random.Random(seed + 1), gold)


def _blocks(text: str) -> list[str]:
    """Each document's part of serialized CoNLL-U text."""
    return ["# newdoc id = " + block for block in text.split("# newdoc id = ")[1:]]


def _retoken(text: str, doc_id: str, form: str = "DIFFERENT") -> str:
    """``text`` with the first token of document ``doc_id`` renamed."""
    out = []
    for block in _blocks(text):
        if block.startswith(f"# newdoc id = {doc_id}\n"):
            lines = block.split("\n")
            k = next(i for i, row in enumerate(lines) if row and not row.startswith("#"))
            columns = lines[k].split("\t")
            columns[1] = form
            lines[k] = "\t".join(columns)
            block = "\n".join(lines)
        out.append(block)
    return "".join(out)


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _manifest(tmp_path: Path, *datasets: tuple[Path, Path]) -> Path:
    return _write(tmp_path / "m.txt", "\n".join(
        f"name = d{k}\ngold = {gold}\npred = {pred}\n" for k, (gold, pred) in enumerate(datasets)))


def _run(capsys, *argv) -> tuple[int, str]:
    code = main([str(arg) for arg in argv])
    return code, capsys.readouterr().err


def _outputs(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# ---------------------------------------------------------------------------
# Same bytes whatever the order of the other input's documents

def test_score_and_analyze_with_shuffled_predictions_write_the_same_bytes(tmp_path, capsys):
    gold, pred = _pair(7)
    order = list(range(7))
    random.Random(3).shuffle(order)
    shuffled = [pred[i] for i in order]
    g = _write(tmp_path / "g.conllu", serialize_conllu(gold))
    runs = {}
    for name, corpus in (("in_order", pred), ("shuffled", shuffled)):
        p = _write(tmp_path / f"{name}.conllu", serialize_conllu(corpus))
        out = tmp_path / name
        assert _run(capsys, "score", "--manifest", _manifest(tmp_path, (g, p)),
                    "--out", out / "score") == (EXIT_OK, "")
        assert _run(capsys, "analyze", "long-range", "--gold", g, "--pred", p,
                    "--min-p95", "0", "--out", out / "analyze") == (EXIT_OK, "")
        assert _run(capsys, "analyze", "upos", "--gold", g, "--pred", p, "--tag", "NOUN",
                    "--out", out / "upos") == (EXIT_OK, "")
        runs[name] = (_outputs(out / "score"), _outputs(out / "analyze"),
                      _outputs(out / "upos"))
    assert runs["shuffled"] == runs["in_order"]
    assert len(runs["in_order"][1]["long_range_curve.tsv"].splitlines()) > 1
    assert runs["in_order"][2]["upos_entity_NOUN.tsv"].startswith(b"tag\t")


def test_from_json_with_shuffled_documents_writes_each_document_as_in_order(tmp_path, capsys):
    gold, _ = _pair(6)
    skeleton = _write(tmp_path / "g.conllu", serialize_conllu(gold))
    values = corpus_to_json(gold)
    order = list(range(6))
    random.Random(4).shuffle(order)
    outputs = {}
    for name, listed in (("in_order", values), ("shuffled", [values[i] for i in order])):
        source = _write(tmp_path / f"{name}.json", json.dumps(listed))
        out = tmp_path / f"{name}.conllu"
        assert _run(capsys, "convert", "from-json", "--in", source, "--skeleton", skeleton,
                    "--out-file", out) == (EXIT_OK, "")
        outputs[name] = out.read_text(encoding="utf-8")
    blocks = _blocks(outputs["in_order"])
    assert outputs["shuffled"] == "".join(blocks[i] for i in order)


# ---------------------------------------------------------------------------
# The order of errors, each rule shown with two faults in one run

def _faults(tmp_path: Path, case: str):
    """(argv, exit code, message start) of a run with two faults."""
    gold, pred = _pair(4)
    gold_text, pred_text = serialize_conllu(gold), serialize_conllu(pred)
    g = _write(tmp_path / "g.conllu", gold_text)
    plain = corpus_to_plaintext(gold)
    out = tmp_path / "out.txt"
    if case == "pred parse error beats a mismatch in document 1":
        p = _write(tmp_path / "p.conllu", _retoken(pred_text, "doc1") + BROKEN)
        return (["score", "--manifest", _manifest(tmp_path, (g, p)), "--out", tmp_path / "o"],
                EXIT_PARSE, f"corefkit: parse error: {p}: line ")
    if case == "analyze: pred parse error beats a mismatch in document 1":
        p = _write(tmp_path / "p.conllu", _retoken(pred_text, "doc1") + BROKEN)
        return (["analyze", "long-range", "--gold", g, "--pred", p, "--min-p95", "0",
                 "--out", tmp_path / "o"], EXIT_PARSE, f"corefkit: parse error: {p}: line ")
    if case == "upos: pred parse error beats a mismatch in document 1":
        p = _write(tmp_path / "p.conllu", _retoken(pred_text, "doc1") + BROKEN)
        return (["analyze", "upos", "--gold", g, "--pred", p, "--tag", "NOUN",
                 "--out", tmp_path / "o"], EXIT_PARSE, f"corefkit: parse error: {p}: line ")
    if case == "gold parse error at its end beats pred's in document 1":
        g = _write(tmp_path / "g.conllu", gold_text + BROKEN)
        p = _write(tmp_path / "p.conllu", "# newdoc id = doc1\n" + BROKEN)
        return (["score", "--manifest", _manifest(tmp_path, (g, p)), "--out", tmp_path / "o"],
                EXIT_PARSE, f"corefkit: parse error: {g}: line ")
    if case == "to-text: parse error beats an unwritable form in document 1":
        g = _write(tmp_path / "g.conllu", _retoken(gold_text, "doc1", "x|[e1]") + BROKEN)
        return (["convert", "to-text", "--in", g, "--out-file", out],
                EXIT_PARSE, f"corefkit: parse error: {g}: line ")
    if case == "clean: reference parse error beats a refused document 1":
        g = _write(tmp_path / "g.conllu", gold_text + BROKEN)
        noisy = _write(tmp_path / "n.txt", "\n".join(["zz " * 40] + plain.split("\n")[1:]))
        return (["clean", "--reference", g, "--in", noisy, "--out-file", out],
                EXIT_PARSE, f"corefkit: parse error: {g}: line ")
    if case == "from-text: skeleton parse error beats unreadable plaintext":
        g = _write(tmp_path / "g.conllu", gold_text + BROKEN)
        text = tmp_path / "g.txt"
        text.write_bytes(b"\xff" + plain.encode())
        return (["convert", "from-text", "--in", text, "--skeleton", g, "--out-file", out],
                EXIT_PARSE, f"corefkit: parse error: {g}: line ")
    if case == "from-json: skeleton parse error beats unreadable JSON":
        g = _write(tmp_path / "g.conllu", gold_text + BROKEN)
        source = _write(tmp_path / "g.json", "[{")
        return (["convert", "from-json", "--in", source, "--skeleton", g, "--out-file", out],
                EXIT_PARSE, f"corefkit: parse error: {g}: line ")
    if case == "ids that differ beat a mismatch in document 1":
        p = _write(tmp_path / "p.conllu", "".join(_blocks(_retoken(pred_text, "doc1"))[:-1]))
        return (["score", "--manifest", _manifest(tmp_path, (g, p)), "--out", tmp_path / "o"],
                EXIT_CONFIG, "corefkit: configuration error: document ids differ")
    if case == "from-text: the document count beats a malformed line 1":
        text = _write(tmp_path / "g.txt", "\n".join(["a  b"] + plain.split("\n")[1:-2]) + "\n")
        return (["convert", "from-text", "--in", text, "--skeleton", g, "--out-file", out],
                EXIT_MISMATCH, f"corefkit: {text} has 3 documents but the skeleton has 4")
    if case == "clean: the document count beats a refused document 1":
        noisy = _write(tmp_path / "n.txt", "\n".join(["zz " * 40] + plain.split("\n")[1:-2]))
        return (["clean", "--reference", g, "--in", noisy, "--out-file", out],
                EXIT_MISMATCH, f"corefkit: {noisy} has 3 documents but the reference has 4")
    if case == "a mismatch in dataset 1 beats a parse error in dataset 2":
        p = _write(tmp_path / "p.conllu", _retoken(pred_text, "doc4"))
        g2 = _write(tmp_path / "g2.conllu", gold_text + BROKEN)
        return (["score", "--manifest", _manifest(tmp_path, (g, p), (g2, g2)),
                 "--out", tmp_path / "o"], EXIT_MISMATCH, "corefkit: document 'doc4': ")
    if case == "of two mismatches, the earlier document's":
        p = _write(tmp_path / "p.conllu", _retoken(_retoken(pred_text, "doc4"), "doc2"))
        return (["analyze", "long-range", "--gold", g, "--pred", p, "--min-p95", "0",
                 "--out", tmp_path / "o"], EXIT_MISMATCH, "corefkit: document 'doc2': ")
    if case == "from-json: JSON document 1's error beats one found first in the skeleton":
        values = corpus_to_json(gold)
        values[3]["doc_id"] = "zz"  # the skeleton has no zz
        values[0]["tokens"][0] = "DIFFERENT"  # doc1, first in the skeleton
        source = _write(tmp_path / "g.json", json.dumps([values[3], values[0]]))
        return (["convert", "from-json", "--in", source, "--skeleton", g, "--out-file", out],
                EXIT_MISMATCH, "corefkit: skeleton has no document 'zz'")
    raise AssertionError(case)


@pytest.mark.parametrize("case", [
    "pred parse error beats a mismatch in document 1",
    "analyze: pred parse error beats a mismatch in document 1",
    "upos: pred parse error beats a mismatch in document 1",
    "gold parse error at its end beats pred's in document 1",
    "to-text: parse error beats an unwritable form in document 1",
    "clean: reference parse error beats a refused document 1",
    "from-text: skeleton parse error beats unreadable plaintext",
    "from-json: skeleton parse error beats unreadable JSON",
    "ids that differ beat a mismatch in document 1",
    "from-text: the document count beats a malformed line 1",
    "clean: the document count beats a refused document 1",
    "a mismatch in dataset 1 beats a parse error in dataset 2",
    "of two mismatches, the earlier document's",
    "from-json: JSON document 1's error beats one found first in the skeleton",
])
def test_errors_come_in_the_order_of_reading_each_input_whole(tmp_path, capsys, case):
    argv, code, message = _faults(tmp_path, case)
    before = sorted(tmp_path.rglob("*"))
    got, err = _run(capsys, *argv)
    assert (got, err[:len(message)]) == (code, message), err
    assert sorted(tmp_path.rglob("*")) == before  # nothing written


# ---------------------------------------------------------------------------
# Documents without sentences

@pytest.mark.parametrize("command", ["from-text", "clean"])
def test_documents_without_sentences_take_no_line_and_round_trip(tmp_path, capsys, command):
    gold, _ = _pair(2, seed=9)
    empty = {k: Document(f"empty{k}", []) for k in range(3)}
    corpus = [(empty[0], []), gold[0], (empty[1], []), gold[1], (empty[2], [])]
    skeleton = _write(tmp_path / "g.conllu", serialize_conllu(corpus))
    text = tmp_path / "g.txt"
    assert _run(capsys, "convert", "to-text", "--in", skeleton, "--out-file", text) \
        == (EXIT_OK, "")
    lines = text.read_text(encoding="utf-8").split("\n")
    assert [bool(line) for line in lines] == [False, True, False, True, False, False]
    out = tmp_path / "out"
    if command == "clean":
        assert _run(capsys, "clean", "--reference", skeleton, "--in", text,
                    "--out-file", out) == (EXIT_OK, "")
        assert out.read_text(encoding="utf-8") == text.read_text(encoding="utf-8")
        return
    assert _run(capsys, "convert", "from-text", "--in", text, "--skeleton", skeleton,
                "--out-file", out) == (EXIT_OK, "")
    back = parse_conllu(out.read_bytes())
    assert [d.doc_id for d, _ in back] == [d.doc_id for d, _ in corpus]
    assert [canonical_clusters(e) for _, e in back] == \
        [canonical_clusters(e) for _, e in corpus]


# ---------------------------------------------------------------------------
# Memory bounded by the largest document

def _copies(corpus: Pairs, n: int) -> str:
    """``n`` copies of the one document of ``corpus``, with ids doc1..docn."""
    text = serialize_conllu(corpus)
    return "".join(text.replace("# newdoc id = doc1\n", f"# newdoc id = doc{k}\n")
                   for k in range(1, n + 1))


def _peak(argv: list[str]) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_score_and_analyze_hold_one_document_pair_at_a_time(tmp_path):
    gold = random_gold(random.Random(11), n_docs=1, n_sents=(30, 30), entities_per_doc=(12, 12),
                       empty_parent_mode="anchor")
    pred = recluster(random.Random(12), gold)
    peaks = {}
    for n in (8, 64):
        g = _write(tmp_path / f"g{n}.conllu", _copies(gold, n))
        p = _write(tmp_path / f"p{n}.conllu", _copies(pred, n))
        commands = {
            "score": ["score", "--manifest", str(_manifest(tmp_path, (g, p))),
                      "--out", str(tmp_path / f"score{n}")],
            "analyze": ["analyze", "long-range", "--gold", str(g), "--pred", str(p),
                        "--min-p95", "0", "--out", str(tmp_path / f"analyze{n}")],
            "upos": ["analyze", "upos", "--gold", str(g), "--pred", str(p), "--tag", "NOUN",
                     "--out", str(tmp_path / f"upos{n}")],
        }
        for name, argv in commands.items():
            main(argv)  # loads the modules and warms the caches first
            peaks[name, n] = _peak(argv)
    for name in ("score", "analyze", "upos"):
        assert peaks[name, 64] <= 1.25 * peaks[name, 8], peaks
