import errno
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from corefkit import formats, matching
from corefkit.cli import (
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    main,
    parse_manifest,
)
from corefkit.conllu import parse_conllu, serialize_conllu
from corefkit.formats import corpus_to_plaintext
from corefkit.model import Corpus, Entity

from helpers import canonical_clusters, doc, ent, random_gold, recluster, sent, zeroful_corpus

warnings.simplefilter("ignore")


def write_corpus(path: Path, corpus: Corpus) -> None:
    path.write_text(serialize_conllu(corpus), encoding="utf-8")


def make_pair(seed: int, n_docs: int = 2):
    gold = random_gold(random.Random(seed), n_docs=n_docs, empty_parent_mode="anchor")
    pred = recluster(random.Random(seed + 1), gold)
    return gold, pred


def renamed_copy(corpus: Corpus) -> Corpus:
    return Corpus(corpus.documents, [
        [Entity(f"r{k}", e.mentions) for k, e in enumerate(doc_entities)]
        for doc_entities in corpus.entities
    ])


@pytest.fixture
def workspace(tmp_path):
    gold = zeroful_corpus(7)
    gold_a = tmp_path / "a.gold.conllu"
    pred_a = tmp_path / "a.pred.conllu"
    gold_b = tmp_path / "b.gold.conllu"
    pred_b = tmp_path / "b.pred.conllu"
    write_corpus(gold_a, gold)
    write_corpus(pred_a, renamed_copy(gold))  # perfect prediction
    gold2, pred2 = make_pair(19)
    write_corpus(gold_b, gold2)
    write_corpus(pred_b, pred2)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        f"name = alpha\ngold = {gold_a}\npred = {pred_a}\n\n"
        f"name = beta\ngold = {gold_b}\npred = {pred_b}\nexempt = true\n",
        encoding="utf-8",
    )
    return tmp_path, manifest


def test_manifest_parsing(workspace):
    _, manifest = workspace
    specs = parse_manifest(manifest)
    assert [s.name for s in specs] == ["alpha", "beta"]
    assert specs[1].exempt is True


def test_manifest_duplicate_names_rejected(tmp_path):
    manifest = tmp_path / "m.txt"
    manifest.write_text("name = x\ngold = g\n\nname = x\ngold = g\n")
    with pytest.raises(ValueError, match="unique"):
        parse_manifest(manifest)


@pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "sub/x", "{tmp}/abs", "x/"])
def test_manifest_name_that_is_not_a_plain_file_name_exits_4(workspace, capsys, name):
    tmp_path, _ = workspace
    name = name.format(tmp=tmp_path)
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"name = {name}\ngold = {tmp_path / 'a.gold.conllu'}\n",
                        encoding="utf-8")
    out = tmp_path / "mdir" / "sub" / "out"
    assert main(["sample", "--manifest", str(manifest), "--out", str(out)]) == EXIT_CONFIG
    assert f"manifest {manifest}: dataset name {name!r} is not a plain file name" \
        in capsys.readouterr().err
    assert not (tmp_path / "mdir").exists()


@pytest.mark.parametrize("line, problem", [
    ("exmpt = true", "unknown key 'exmpt'"),
    ("gold = {tmp}/b.gold.conllu", "repeated key 'gold'"),
])
def test_manifest_unknown_or_repeated_key_exits_4_before_reading(workspace, capsys, line,
                                                                 problem):
    tmp_path, _ = workspace
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"# datasets\nname = a\ngold = {tmp_path / 'a.gold.conllu'}\n"
                        f"{line.format(tmp=tmp_path)}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sample", "--manifest", str(manifest), "--out", str(out)]) == EXIT_CONFIG
    assert f"manifest {manifest}: line 4: {problem}" in capsys.readouterr().err
    assert not out.exists()


def test_score_perfect_prediction_reports_100(workspace):
    tmp_path, manifest = workspace
    out = tmp_path / "out"
    code = main(["score", "--manifest", str(manifest), "--out", str(out)])
    assert code == EXIT_OK
    table = (out / "scores.tsv").read_text()
    lines = table.strip().split("\n")
    alpha = next(l for l in lines if l.startswith("alpha\t"))
    for cell in alpha.split("\t")[1:]:
        assert cell == "100.00 / 100.00 / 100.00"

    records = (out / "scores.jsonl").read_text().strip().split("\n")
    payloads = [json.loads(r) for r in records]
    conll = [p for p in payloads if p["metric"] == "conll" and p["dataset"] == "alpha"]
    assert conll[0]["f1"] == 1.0

    # macro row is the mean of the two datasets
    beta_conll = next(p for p in payloads
                      if p["metric"] == "conll" and p["dataset"] == "beta")
    macro = next(p for p in payloads
                 if p["metric"] == "conll" and p["scope"] == "macro")
    assert macro["f1"] == pytest.approx((1.0 + beta_conll["f1"]) / 2)

    variants = (out / "conll_variants.tsv").read_text().strip().split("\n")
    assert variants[0] == "dataset\tconll_head_excl\tconll_partial_excl" \
                          "\tconll_exact_excl\tconll_head_incl"
    assert variants[-1].startswith("macro\t")


def test_score_outputs_are_deterministic(workspace):
    tmp_path, manifest = workspace
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["score", "--manifest", str(manifest), "--out", str(out1)])
    main(["score", "--manifest", str(manifest), "--out", str(out2)])
    for name in ("scores.tsv", "scores.jsonl", "conll_variants.tsv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_score_parallel_jobs_match_sequential(workspace):
    tmp_path, manifest = workspace
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["score", "--manifest", str(manifest), "--out", str(out1)])
    code = main(["score", "--manifest", str(manifest), "--out", str(out2),
                 "--jobs", "2"])
    assert code == EXIT_OK
    assert (out1 / "scores.tsv").read_bytes() == (out2 / "scores.tsv").read_bytes()


def test_score_jobs_start_no_more_workers_than_datasets(workspace, monkeypatch):
    """The pool forks all its workers up front, so a large --jobs on a
    small manifest must be cut to one worker per dataset."""
    import concurrent.futures
    sizes = []

    class RecordingPool:
        """Records its size and maps in-process, starting no worker."""
        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    tmp_path, manifest = workspace
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    single = tmp_path / "single.txt"
    single.write_text(manifest.read_text().split("\n\n")[0] + "\n", encoding="utf-8")
    for path in (manifest, single):
        out, sequential = tmp_path / f"{path.stem}-jobs", tmp_path / f"{path.stem}-seq"
        assert main(["score", "--manifest", str(path), "--out", str(out),
                     "--jobs", "4096"]) == EXIT_OK
        assert main(["score", "--manifest", str(path), "--out", str(sequential)]) == EXIT_OK
        assert (out / "scores.tsv").read_bytes() == (sequential / "scores.tsv").read_bytes()
    # two datasets: a pool of two; one dataset: scored in-process, no pool
    assert sizes == [2]


def test_score_token_mismatch_exits_3(tmp_path, capsys):
    gold, _ = make_pair(23, n_docs=1)
    mutated, _ = make_pair(23, n_docs=1)
    mutated.documents[0].sentences[0].nodes[0].form = "DIFFERENT"
    write_corpus(tmp_path / "g.conllu", gold)
    write_corpus(tmp_path / "p.conllu", mutated)
    manifest = tmp_path / "m.txt"
    manifest.write_text(
        f"name = x\ngold = {tmp_path / 'g.conllu'}\npred = {tmp_path / 'p.conllu'}\n")
    code = main(["score", "--manifest", str(manifest), "--out", str(tmp_path)])
    assert code == EXIT_MISMATCH
    assert "cleaner" in capsys.readouterr().err


def test_score_parse_failure_exits_2(tmp_path):
    bad = tmp_path / "bad.conllu"
    bad.write_text("# newdoc id = d\nnot a conllu line\n")
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"name = x\ngold = {bad}\npred = {bad}\n")
    assert main(["score", "--manifest", str(manifest), "--out", str(tmp_path)]) \
        == EXIT_PARSE


def test_score_parse_error_in_a_worker_exits_2(workspace):
    """An error raised in a --jobs worker is pickled back to the CLI
    process, which has not loaded the module that raised it."""
    tmp_path, manifest = workspace
    bad = tmp_path / "b.gold.conllu"
    bad.write_text("# newdoc id = d\n# sent_id = 1\n1\tx\n\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "corefkit.cli", "score", "--manifest", str(manifest),
         "--out", str(tmp_path / "out"), "--jobs", "2"],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_PARSE
    assert done.stderr.startswith(f"corefkit: parse error: {bad}: line 3: ")


NO_NEWDOC = "content before any '# newdoc id =' comment; synthesizing a document id"


@pytest.mark.parametrize("argv, expected", [
    (["stats", "{nodoc}", "--out", "{out}"], ["{nodoc}: " + NO_NEWDOC]),
    (["analyze", "upos", "--gold", "{nodoc}", "--pred", "{pred}", "--tag", "ADV",
      "--out", "{out}"],
     ["{nodoc}: " + NO_NEWDOC, "{pred}: " + NO_NEWDOC,
      "{nodoc}, {pred}: UPOS tag 'ADV' occurs in no mention head; degenerate score"]),
    (["sample", "{gold}", "--cap-words", "1", "--out", "{out}"],
     ["{gold}: document 'd1' alone exceeds the 1-word cap; keeping it as the whole split"]),
    (["convert", "to-text", "--in", "{nodoc}", "--out-file", "{out}"],
     ["{nodoc}: " + NO_NEWDOC]),  # named once, not once more by the command
], ids=["stats", "analyze-upos", "sample", "convert"])
def test_a_warning_is_one_line_naming_the_input(tmp_path, argv, expected):
    """As the `corefkit` process prints them: no source location of corefkit."""
    paths = {"nodoc": tmp_path / "nodoc.conllu", "pred": tmp_path / "p.conllu",
             "gold": tmp_path / "g.conllu", "out": tmp_path / "out"}
    for name in ("nodoc", "pred"):
        paths[name].write_text("1\tx\t_\tNOUN\t_\t_\t0\troot\t_\tEntity=(e1)\n\n",
                               encoding="utf-8")
    paths["gold"].write_text("# newdoc id = d1\n1\tx\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
                             "2\ty\t_\tVERB\t_\t_\t1\tdep\t_\t_\n\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "corefkit.cli", *(a.format(**paths) for a in argv)],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK
    assert done.stderr.splitlines() == [
        "corefkit: warning: " + line.format(**paths) for line in expected]
    assert ".py:" not in done.stderr


def test_missing_path_exits_4(tmp_path):
    manifest = tmp_path / "m.txt"
    manifest.write_text("name = x\ngold = /nonexistent\npred = /nonexistent\n")
    assert main(["score", "--manifest", str(manifest), "--out", str(tmp_path)]) \
        == EXIT_CONFIG
    assert main(["score", "--manifest", str(tmp_path / "missing.txt"),
                 "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["score", "--manifest", "{manifest}"],
    ["stats", "{missing}"],
    ["stats", "--manifest", "{manifest}", "--mode", "system"],
    ["analyze", "long-range", "--gold", "{gold}", "--pred", "{missing}"],
    ["analyze", "upos", "--gold", "{missing}", "--pred", "{gold}", "--tag", "NOUN"],
    ["sample", "{gold}", "{missing}"],
    ["sample", "--manifest", "{manifest}"],
], ids=["score", "stats", "stats-manifest", "analyze-long-range", "analyze-upos", "sample",
        "sample-manifest"])
def test_missing_input_exits_4_without_making_the_output_directory(tmp_path, capsys, argv):
    gold, missing = tmp_path / "g.conllu", tmp_path / "missing.conllu"
    write_corpus(gold, make_pair(47, n_docs=1)[0])
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"name = a\ngold = {gold}\npred = {gold}\n\n"
                        f"name = b\ngold = {missing}\npred = {missing}\n", encoding="utf-8")
    out = tmp_path / "out" / "sub"
    argv = [arg.format(gold=gold, missing=missing, manifest=manifest) for arg in argv]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert f"{missing} is not a readable file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tag", ["", ".", "..", "x/../../escaped", "{tmp}/abs", "NOUN/"])
def test_analyze_upos_tag_that_is_not_a_plain_file_name_exits_4(tmp_path, capsys, tag):
    gold = tmp_path / "g.conllu"
    write_corpus(gold, make_pair(47, n_docs=1)[0])
    tag = tag.format(tmp=tmp_path)
    out = tmp_path / "out" / "sub"
    assert main(["analyze", "upos", "--gold", str(gold), "--pred", str(gold), "--tag", tag,
                 "--out", str(out)]) == EXIT_CONFIG
    assert f"--tag {tag!r} is not a plain file name" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["g.conllu"]


def _inputs_that_fail_once_read(tmp_path: Path) -> dict[str, Path]:
    """Paths that pass every check made before reading: gold ``a`` with
    document doc1, ``other`` with doc1 renamed, a malformed ``bad``, and a
    manifest pairing ``a`` with ``other``."""
    paths = {name: tmp_path / f"{name}.conllu" for name in ("a", "other", "bad")}
    text = serialize_conllu(make_pair(47, n_docs=1)[0])
    assert "# newdoc id = doc1\n" in text
    paths["a"].write_text(text, encoding="utf-8")
    paths["other"].write_text(text.replace("# newdoc id = doc1\n", "# newdoc id = other\n"),
                              encoding="utf-8")
    paths["bad"].write_text("# newdoc id = d\nnot a conllu line\n", encoding="utf-8")
    paths["manifest"] = tmp_path / "m.txt"
    paths["manifest"].write_text(f"name = x\ngold = {paths['a']}\npred = {paths['other']}\n",
                                 encoding="utf-8")
    return paths


@pytest.mark.parametrize("argv, code, message", [
    (["score", "--manifest", "{manifest}"], EXIT_CONFIG, "document ids differ"),
    (["analyze", "long-range", "--gold", "{a}", "--pred", "{other}"], EXIT_CONFIG,
     "document ids differ"),
    (["stats", "{a}", "{bad}"], EXIT_PARSE, "parse error: {bad}: line 2"),
    (["sample", "{a}", "{bad}"], EXIT_PARSE, "parse error: {bad}: line 2"),
], ids=["score", "analyze-long-range", "stats", "sample"])
def test_a_run_that_fails_after_reading_its_inputs_leaves_no_output(tmp_path, capsys, argv,
                                                                     code, message):
    paths = _inputs_that_fail_once_read(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "out"
    assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == code
    assert message.format(**paths) in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before  # no --out, so no a.conllu in it either


OUT_CHECK_ARGV = {
    "score": ["score", "--manifest", "{manifest}"],
    "stats": ["stats", "{bad}"],
    "analyze-long-range": ["analyze", "long-range", "--gold", "{bad}", "--pred", "{bad}"],
    "analyze-upos": ["analyze", "upos", "--gold", "{bad}", "--pred", "{bad}", "--tag", "NOUN"],
    "sample": ["sample", "{bad}"],
}


@pytest.mark.parametrize("command", OUT_CHECK_ARGV)
@pytest.mark.parametrize("out, code", [("file", errno.EEXIST),
                                       ("file/sub/dir", errno.ENOTDIR)])
def test_an_out_that_is_or_lies_under_a_file_exits_4_before_any_input_is_read(
        tmp_path, capsys, command, out, code):
    """The inputs are malformed, so reading any of them would exit 2."""
    paths = _inputs_that_fail_once_read(tmp_path)
    paths["manifest"].write_text(f"name = x\ngold = {paths['bad']}\npred = {paths['bad']}\n",
                                 encoding="utf-8")
    (tmp_path / "file").write_text("kept\n", encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / out
    argv = [arg.format(**paths) for arg in OUT_CHECK_ARGV[command]]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert (f"configuration error: cannot create output directory {out}: "
            f"[Errno {code}] {os.strerror(code)}: '{out}'") in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"


def test_an_out_that_is_not_writable_exits_4_and_creates_nothing(tmp_path, capsys,
                                                                  monkeypatch):
    """A process running as root may write anywhere, so the test makes one
    directory read-only through ``os.access``, which the check consults."""
    paths = _inputs_that_fail_once_read(tmp_path)
    locked = tmp_path / "locked"
    locked.mkdir()
    access = os.access
    monkeypatch.setattr(os, "access",
                        lambda path, mode, **kw: Path(path) != locked and access(path, mode, **kw))
    for out, message in (
        (locked, f"output directory {locked} is not writable"),
        (locked / "a" / "b", f"cannot create output directory {locked / 'a' / 'b'}: "
                             f"[Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: "
                             f"'{locked / 'a'}'"),
    ):
        assert main(["stats", str(paths["bad"]), "--out", str(out)]) == EXIT_CONFIG
        assert f"configuration error: {message}\n" in capsys.readouterr().err
    assert not list(locked.iterdir())


def test_a_failed_write_exits_4_as_an_io_error(tmp_path, capsys):
    src, out_file = tmp_path / "g.conllu", tmp_path / "taken"
    write_corpus(src, make_pair(31, n_docs=1)[0])
    out_file.mkdir()
    assert main(["convert", "to-text", "--in", str(src), "--out-file", str(out_file)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("corefkit: i/o error: ")
    assert not list(out_file.iterdir())


@pytest.mark.parametrize("command", ["convert", "score"])
def test_a_write_that_fails_after_every_check_exits_4_as_an_io_error(workspace, capsys,
                                                                      monkeypatch, command):
    """A full disk, say: the outputs are computed, and writing one fails."""
    tmp_path, manifest = workspace
    argv = {"convert": ["convert", "to-text", "--in", str(tmp_path / "a.gold.conllu"),
                        "--out-file", str(tmp_path / "out" / "a.txt")],
            "score": ["score", "--manifest", str(manifest), "--out", str(tmp_path / "out")]}

    def full(path, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(Path, "write_text", full)
    assert main(argv[command]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"corefkit: i/o error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: ")


def test_convert_text_round_trip(tmp_path):
    gold, _ = make_pair(31, n_docs=2)
    src = tmp_path / "g.conllu"
    write_corpus(src, gold)
    text = tmp_path / "g.txt"
    back = tmp_path / "back.conllu"
    assert main(["convert", "to-text", "--in", str(src),
                 "--out-file", str(text)]) == EXIT_OK
    assert text.read_text() == corpus_to_plaintext(gold)
    assert main(["convert", "from-text", "--in", str(text), "--skeleton", str(src),
                 "--out-file", str(back)]) == EXIT_OK
    rebuilt = parse_conllu(back.read_bytes())
    for doc_index in range(2):
        assert canonical_clusters(rebuilt.entities[doc_index]) \
            == canonical_clusters(gold.entities[doc_index])


def test_convert_json_round_trip(tmp_path):
    gold, _ = make_pair(37, n_docs=2)
    src = tmp_path / "g.conllu"
    write_corpus(src, gold)
    jpath = tmp_path / "g.json"
    back = tmp_path / "back.conllu"
    assert main(["convert", "to-json", "--in", str(src),
                 "--out-file", str(jpath)]) == EXIT_OK
    values = json.loads(jpath.read_text())
    assert isinstance(values, list) and len(values) == 2
    assert set(values[0]) == {"doc_id", "tokens", "clusters_token_offsets",
                              "clusters_text_mentions"}
    assert main(["convert", "from-json", "--in", str(jpath), "--skeleton", str(src),
                 "--out-file", str(back)]) == EXIT_OK
    rebuilt = parse_conllu(back.read_bytes())
    for doc_index in range(2):
        assert canonical_clusters(rebuilt.entities[doc_index]) \
            == canonical_clusters(gold.entities[doc_index])


def test_convert_from_text_token_mismatch_exits_3(tmp_path, capsys):
    gold, _ = make_pair(31, n_docs=2)
    src = tmp_path / "g.conllu"
    write_corpus(src, gold)
    lines = corpus_to_plaintext(gold).splitlines()
    lines[1] = "EXTRA " + lines[1]
    text = tmp_path / "g.txt"
    text.write_text("\n".join(lines) + "\n")
    code = main(["convert", "from-text", "--in", str(text), "--skeleton", str(src),
                 "--out-file", str(tmp_path / "back.conllu")])
    assert code == EXIT_MISMATCH
    assert "do not match the input document" in capsys.readouterr().err


@pytest.mark.parametrize("edit, location", [
    (lambda line: "EXTRA " + line, "surface token 1 differs ('{first}' vs 'EXTRA')"),
    (lambda line: line + " EXTRA", "surface token counts differ ({n} vs {n_plus_1})"),
], ids=["first-token", "extra-last-token"])
def test_convert_from_text_token_mismatch_names_its_location(tmp_path, capsys, edit, location):
    gold, _ = make_pair(31, n_docs=2)
    src = tmp_path / "g.conllu"
    write_corpus(src, gold)
    lines = corpus_to_plaintext(gold).splitlines()
    lines[1] = edit(lines[1])
    text = tmp_path / "g.txt"
    text.write_text("\n".join(lines) + "\n")
    out = tmp_path / "back.conllu"
    assert main(["convert", "from-text", "--in", str(text), "--skeleton", str(src),
                 "--out-file", str(out)]) == EXIT_MISMATCH
    forms = gold.documents[1].surface_forms()
    location = location.format(first=forms[0], n=len(forms), n_plus_1=len(forms) + 1)
    assert capsys.readouterr().err == (
        f"corefkit: document '{gold.documents[1].doc_id}': cleaned tokens do not match the "
        f"input document (input vs cleaned: {location}); run clean_output first\n")
    assert not out.exists()


def _string_offsets(values):
    values[0]["clusters_token_offsets"][0][0] = ["0", "0"]


def _one_offset(values):
    values[0]["clusters_token_offsets"][0][0] = [0]


def _number_tokens(values):
    values[0]["tokens"] = 5


def _list_document(values):
    values[1] = ["not", "an", "object"]


def _repeated_id(values):
    values.append(values[0])


@pytest.mark.parametrize("corrupt, named", [
    (_string_offsets, "document 1: document 'doc1': offsets ['0', '0'] in cluster 0"),
    (_one_offset, "document 1: document 'doc1': offsets [0] in cluster 0"),
    (_number_tokens, "document 1: document 'doc1': tokens must be a list of strings"),
    (_list_document, "document 2: a JSON document must be an object, not list"),
    (_repeated_id, "document 3: duplicate document id 'doc1', as in document 1"),
])
def test_convert_from_json_malformed_document_exits_2(tmp_path, capsys, corrupt, named):
    gold, _ = make_pair(37, n_docs=2)
    src = tmp_path / "g.conllu"
    write_corpus(src, gold)
    values = json.loads(json.dumps(formats.corpus_to_json(gold)))
    corrupt(values)
    jpath = tmp_path / "g.json"
    jpath.write_text(json.dumps(values))
    code = main(["convert", "from-json", "--in", str(jpath), "--skeleton", str(src),
                 "--out-file", str(tmp_path / "back.conllu")])
    assert code == EXIT_PARSE
    assert f"corefkit: parse error: {jpath}, {named}" in capsys.readouterr().err
    assert not (tmp_path / "back.conllu").exists()


@pytest.mark.parametrize("text, message", [
    ('[{"doc_id": ', "Expecting value"),
    ('{"doc_id": "doc1"}', "JSON input must be a list of documents"),
])
def test_convert_from_json_unreadable_input_exits_2(tmp_path, capsys, text, message):
    gold, _ = make_pair(37, n_docs=1)
    src = tmp_path / "g.conllu"
    write_corpus(src, gold)
    jpath = tmp_path / "g.json"
    jpath.write_text(text)
    code = main(["convert", "from-json", "--in", str(jpath), "--skeleton", str(src),
                 "--out-file", str(tmp_path / "back.conllu")])
    assert code == EXIT_PARSE
    assert message in capsys.readouterr().err


def test_convert_from_json_validates_each_document_once(tmp_path, monkeypatch):
    gold, _ = make_pair(37, n_docs=2)
    src = tmp_path / "g.conllu"
    write_corpus(src, gold)
    jpath = tmp_path / "g.json"
    jpath.write_text(json.dumps(formats.corpus_to_json(gold)))
    validated = []
    original = formats.validate_json_doc
    monkeypatch.setattr(formats, "validate_json_doc",
                        lambda doc: validated.append(doc.doc_id) or original(doc))
    assert main(["convert", "from-json", "--in", str(jpath), "--skeleton", str(src),
                 "--out-file", str(tmp_path / "back.conllu")]) == EXIT_OK
    assert validated == [d.doc_id for d in gold.documents]


@pytest.mark.parametrize("kind", ["manifest", "from-text", "from-json"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, kind):
    src = tmp_path / "g.conllu"
    write_corpus(src, Corpus([doc("d1", sent(0, [("x", 0, "root", "X"), ("y", 1, "dep", "X")]))],
                             [[]]))
    text = {"manifest": f"name = alpha\ngold = {src}\n",
            "from-text": "x|[e1 y|e1]\n",
            "from-json": json.dumps([{"doc_id": "d1", "tokens": ["x", "y"],
                                      "clusters_token_offsets": [[[0, 1]]],
                                      "clusters_text_mentions": [["x y"]]}])}[kind]
    outputs = []
    for name, prefix in (("plain", ""), ("bom", "\ufeff")):
        inp, out = tmp_path / f"{name}.in", tmp_path / f"{name}.out"
        inp.write_text(prefix + text, encoding="utf-8")
        argv = (["stats", "--manifest", str(inp), "--out", str(out)] if kind == "manifest" else
                ["convert", kind, "--in", str(inp), "--skeleton", str(src), "--out-file", str(out)])
        assert main(argv) == EXIT_OK
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir()
                       else out.read_bytes())
    assert outputs[0] == outputs[1]


def test_clean_identity_via_cli(tmp_path):
    gold, _ = make_pair(41, n_docs=2)
    ref = tmp_path / "ref.conllu"
    write_corpus(ref, gold)
    noisy = tmp_path / "noisy.txt"
    noisy.write_text(corpus_to_plaintext(gold))
    out = tmp_path / "clean.txt"
    assert main(["clean", "--reference", str(ref), "--in", str(noisy),
                 "--out-file", str(out)]) == EXIT_OK
    assert out.read_text() == corpus_to_plaintext(gold)


@pytest.mark.parametrize("ratio", ["inf", "-inf", "nan", "0", "-1"])
def test_clean_rejects_bad_max_cost_ratio(tmp_path, capsys, ratio):
    gold, _ = make_pair(41, n_docs=1)
    ref = tmp_path / "ref.conllu"
    write_corpus(ref, gold)
    noisy = tmp_path / "noisy.txt"
    noisy.write_text(corpus_to_plaintext(gold))
    code = main(["clean", "--reference", str(ref), "--in", str(noisy),
                 "--out-file", str(tmp_path / "clean.txt"), f"--max-cost-ratio={ratio}"])
    assert code == EXIT_CONFIG
    assert "--max-cost-ratio" in capsys.readouterr().err
    assert not (tmp_path / "clean.txt").exists()


def test_stats_corpus_mode(tmp_path):
    gold, _ = make_pair(43, n_docs=2)
    src = tmp_path / "g.conllu"
    write_corpus(src, gold)
    assert main(["stats", str(src), "--out", str(tmp_path)]) == EXIT_OK
    table = (tmp_path / "stats_corpus.tsv").read_text().strip().split("\n")
    assert table[0].startswith("dataset\tdocs\tsents\twords")
    assert table[1].split("\t")[0] == "g"
    assert int(table[1].split("\t")[1]) == 2


def test_stats_system_mode(tmp_path):
    gold, pred = make_pair(47, n_docs=1)
    src = tmp_path / "p.conllu"
    write_corpus(src, pred)
    assert main(["stats", str(src), "--mode", "system", "--out", str(tmp_path)]) \
        == EXIT_OK
    for name in ("stats_entities.tsv", "stats_mentions.tsv",
                 "stats_singletons.tsv", "stats_details.tsv"):
        assert (tmp_path / name).exists()
    details = (tmp_path / "stats_details.tsv").read_text().strip().split("\n")
    assert details[0].split("\t")[:4] == ["system", "w_empty_pct", "w_gap_pct",
                                          "non_tree_pct"]


def test_sample_exempt_leaves_dataset_untouched(tmp_path):
    gold, _ = make_pair(53, n_docs=3)
    src = tmp_path / "split.conllu"
    write_corpus(src, gold)
    out = tmp_path / "sampled"
    assert main(["sample", str(src), "--cap-words", "10", "--exempt",
                 "--out", str(out)]) == EXIT_OK
    assert (out / "split.conllu").read_text() == src.read_text()


def test_sample_is_deterministic(tmp_path):
    gold, _ = make_pair(59, n_docs=4)
    src = tmp_path / "split.conllu"
    write_corpus(src, gold)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        assert main(["sample", str(src), "--cap-words", "40", "--seed", "11",
                     "--out", str(out)]) == EXIT_OK
    assert (out1 / "split.conllu").read_bytes() == (out2 / "split.conllu").read_bytes()
    sampled = parse_conllu((out1 / "split.conllu").read_bytes())
    assert sampled.word_count() <= 40 or len(sampled.documents) == 1


def test_analyze_long_range_and_upos(tmp_path):
    gold, pred = make_pair(61, n_docs=3)
    gpath, ppath = tmp_path / "g.conllu", tmp_path / "p.conllu"
    write_corpus(gpath, gold)
    write_corpus(ppath, pred)
    assert main(["analyze", "long-range", "--gold", str(gpath), "--pred", str(ppath),
                 "--min-p95", "0", "--window-tokens", "100",
                 "--out", str(tmp_path)]) == EXIT_OK
    curve = (tmp_path / "long_range_curve.tsv").read_text().strip().split("\n")
    assert curve[0] == "window_p95_range\tmean_conll_f1\twindow_tokens"

    assert main(["analyze", "upos", "--gold", str(gpath), "--pred", str(ppath),
                 "--tag", "NOUN", "--level", "entity",
                 "--out", str(tmp_path)]) == EXIT_OK
    upos = (tmp_path / "upos_entity_NOUN.tsv").read_text().strip().split("\n")
    assert upos[0] == "tag\tlevel\trecall\tprecision\tf1"
    assert upos[1].startswith("NOUN\tentity\t")


@pytest.mark.parametrize("argv", [
    ["long-range"], ["long-range", "--min-p95", "0"], ["upos", "--tag", "NOUN"],
], ids=["long-range", "long-range-min-p95-0", "upos"])
@pytest.mark.parametrize("side", ["pred", "gold"])
def test_analyze_pairs_documents_as_score_does_exit_4(tmp_path, capsys, argv, side):
    corpora = dict(zip(("gold", "pred"), make_pair(61, n_docs=3)))
    short = corpora[side]
    corpora[side] = Corpus(short.documents[:2], short.entities[:2])  # doc3 on one side only
    gpath, ppath = tmp_path / "g.conllu", tmp_path / "p.conllu"
    write_corpus(gpath, corpora["gold"])
    write_corpus(ppath, corpora["pred"])
    assert main(["analyze", *argv, "--gold", str(gpath), "--pred", str(ppath),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "document ids differ between gold and prediction" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.tsv"))


TABLES = ["scores.tsv", "conll_variants.tsv", "stats_corpus.tsv", "stats_entities.tsv",
          "stats_mentions.tsv", "stats_singletons.tsv", "stats_details.tsv",
          "long_range_curve.tsv", "upos_mention_PRON.tsv"]


@pytest.mark.parametrize("seed", range(6))
def test_every_table_ends_in_newline_with_a_cell_per_column(tmp_path, seed):
    rng = random.Random(seed)
    stanzas = []
    for k in range(rng.randint(1, 7)):
        gold = random_gold(rng, n_docs=rng.randint(1, 3), empty_parent_mode="anchor")
        gpath, ppath = tmp_path / f"g{k}.conllu", tmp_path / f"p{k}.conllu"
        write_corpus(gpath, gold)
        write_corpus(ppath, recluster(rng, gold))
        stanzas.append(f"name = set{k}\ngold = {gpath}\npred = {ppath}\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(stanzas), encoding="utf-8")
    out = str(tmp_path / "out")
    pair = ["--gold", str(tmp_path / "g0.conllu"), "--pred", str(tmp_path / "p0.conllu")]
    for argv in (["score", "--manifest", str(manifest)],
                 ["stats", "--manifest", str(manifest), "--mode", "corpus"],
                 ["stats", "--manifest", str(manifest), "--mode", "system"],
                 ["analyze", "long-range", *pair, "--min-p95", "0", "--window-tokens", "40"],
                 ["analyze", "upos", *pair, "--tag", "PRON", "--level", "mention"]):
        assert main(argv + ["--out", out]) == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "out").glob("*.tsv")) == sorted(TABLES)
    for name in TABLES:
        text = (tmp_path / "out" / name).read_text(encoding="utf-8")
        assert text.endswith("\n") and not text.endswith("\n\n"), name
        header, *rows = [line.split("\t") for line in text[:-1].split("\n")]
        assert rows, name
        assert all(len(row) == len(header) for row in rows), name


def test_unknown_flag_exits_4(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["score", "--nonsense"])
    assert err.value.code == EXIT_CONFIG


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_score_rejects_jobs_below_one(workspace, capsys, jobs):
    tmp_path, manifest = workspace
    code = main(["score", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                 f"--jobs={jobs}"])
    assert code == EXIT_CONFIG
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["score", "--manifest", "m.txt", "--seed", "1"],
    ["analyze", "long-range", "--gold", "g", "--pred", "p", "--seed", "1"],
    ["analyze", "long-range", "--gold", "g", "--pred", "p", "--jobs", "2"],
    ["analyze", "upos", "--gold", "g", "--pred", "p", "--tag", "NOUN",
     "--singletons", "include"],
])
def test_removed_ignored_flags_exit_4(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_CONFIG


def test_score_invalid_utf8_exits_2_naming_path_and_line(workspace, capsys):
    tmp_path, _ = workspace
    bad = tmp_path / "bad.conllu"
    bad.write_bytes(b"# newdoc id = d\n# sent_id = s1\n1\tw\xff\tw\tX\t_\t_\t0\troot\t_\t_\n")
    manifest = tmp_path / "bad.txt"
    manifest.write_text(f"name = x\ngold = {bad}\npred = {bad}\n")
    assert main(["score", "--manifest", str(manifest), "--out", str(tmp_path)]) == EXIT_PARSE
    assert f"corefkit: parse error: {bad}: line 3: invalid UTF-8" in capsys.readouterr().err


def test_convert_from_json_crossing_cluster_exits_2(tmp_path, capsys):
    gold, _ = make_pair(37, n_docs=2)
    src = tmp_path / "g.conllu"
    write_corpus(src, gold)
    values = json.loads(json.dumps(formats.corpus_to_json(gold)))
    tokens = values[0]["tokens"]
    values[0]["clusters_token_offsets"].append([[0, 2], [1, 3]])
    values[0]["clusters_text_mentions"].append([" ".join(tokens[0:3]), " ".join(tokens[1:4])])
    cluster = len(values[0]["clusters_token_offsets"]) - 1
    jpath = tmp_path / "g.json"
    jpath.write_text(json.dumps(values))
    code = main(["convert", "from-json", "--in", str(jpath), "--skeleton", str(src),
                 "--out-file", str(tmp_path / "back.conllu")])
    assert code == EXIT_PARSE
    assert (f"corefkit: parse error: {jpath}, document 1: document '{values[0]['doc_id']}': "
            f"mentions [0, 2] and [1, 3] of cluster {cluster} cross") in capsys.readouterr().err
    assert not (tmp_path / "back.conllu").exists()


def test_score_checks_each_document_pair_surface_once(workspace, monkeypatch):
    tmp_path, manifest = workspace
    checked = []
    original = matching.check_same_surface
    monkeypatch.setattr(matching, "check_same_surface",
                        lambda gold, pred: checked.append(gold.doc_id) or original(gold, pred))
    for singletons in ("exclude", "include"):
        checked.clear()
        assert main(["score", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                     "--singletons", singletons]) == EXIT_OK
        assert checked == [d.doc_id for spec in parse_manifest(manifest)
                           for d in parse_conllu(spec.gold.read_bytes()).documents]


@pytest.mark.parametrize("command", ["from-text", "from-json", "clean"])
def test_invalid_utf8_input_exits_2_naming_path_and_line(tmp_path, capsys, command):
    gold, _ = make_pair(43, n_docs=1)
    ref = tmp_path / "g.conllu"
    write_corpus(ref, gold)
    bad = tmp_path / "bad.in"
    bad.write_bytes(b'[\n"w\xff"]\n' if command == "from-json" else b"a b\nw\xff\n")
    out = tmp_path / "out"
    argv = (["clean", "--reference", str(ref)] if command == "clean"
            else ["convert", command, "--skeleton", str(ref)])
    assert main(argv + ["--in", str(bad), "--out-file", str(out)]) == EXIT_PARSE
    assert f"corefkit: parse error: {bad}: line 2: invalid UTF-8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["analyze", "long-range", "--window-tokens", "0"], "--window-tokens"),
    (["sample", "--cap-words", "0"], "--cap-words"),
    (["sample", "--cap-words", "-5"], "--cap-words"),
])
def test_size_flags_below_one_exit_4(tmp_path, capsys, argv, flag):
    gold, pred = make_pair(47, n_docs=2)
    gpath, ppath = tmp_path / "g.conllu", tmp_path / "p.conllu"
    write_corpus(gpath, gold)
    write_corpus(ppath, pred)
    inputs = ["--gold", str(gpath), "--pred", str(ppath)] if argv[0] == "analyze" else [str(gpath)]
    assert main(argv + inputs + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (["analyze", "upos", "--tag", "NOUN", "--window-tokens", "-2"], "--window-tokens"),
    (["analyze", "long-range", "--tag", "NOUN", "--level", "mention"], "--tag"),
    (["analyze", "upos", "--sort-key", "max_adjacent_gap", "--tag", "NOUN"], "--sort-key"),
    (["analyze", "upos"], "--tag"),
    (["convert", "to-text", "--skeleton", "{gold}"], "--skeleton"),
    (["convert", "to-json", "--skeleton", "{gold}"], "--skeleton"),
    (["convert", "from-text"], "--skeleton"),
], ids=["upos-window-tokens", "long-range-tag", "upos-sort-key", "upos-without-tag",
        "to-text-skeleton", "to-json-skeleton", "from-text-without-skeleton"])
def test_flags_the_mode_does_not_read_exit_4_before_any_output(tmp_path, capsys, argv, flag):
    gold, pred = make_pair(47, n_docs=2)
    gpath, ppath = tmp_path / "g.conllu", tmp_path / "p.conllu"
    write_corpus(gpath, gold)
    write_corpus(ppath, pred)
    out = tmp_path / "out"
    inputs = (["--gold", str(gpath), "--pred", str(ppath), "--out", str(out)]
              if argv[0] == "analyze" else ["--in", str(gpath), "--out-file", str(out)])
    with pytest.raises(SystemExit) as err:
        main([arg.format(gold=gpath) for arg in argv] + inputs)
    assert err.value.code == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["score", "long-range", "upos"])
@pytest.mark.parametrize("flag", ["--zero-parent-weight", "--zero-label-weight"])
@pytest.mark.parametrize("value", ["0.1", "1"])
def test_zero_weight_flags_are_unrecognized(workspace, capsys, command, flag, value):
    tmp_path, manifest = workspace
    spec = parse_manifest(manifest)[1]
    inputs = (["score", "--manifest", str(manifest)] if command == "score" else
              ["analyze", command, "--gold", str(spec.gold), "--pred", str(spec.pred)]
              + (["--tag", "NOUN"] if command == "upos" else []))
    with pytest.raises(SystemExit) as err:
        main(inputs + [flag, value, "--out", str(tmp_path / "out")])
    assert err.value.code == EXIT_CONFIG
    stderr = capsys.readouterr().err
    assert "unrecognized arguments" in stderr and flag in stderr
    assert not (tmp_path / "out").exists()


def test_analyze_rejects_negative_min_p95(tmp_path, capsys):
    gold, pred = make_pair(53, n_docs=2)
    gpath, ppath = tmp_path / "g.conllu", tmp_path / "p.conllu"
    write_corpus(gpath, gold)
    write_corpus(ppath, pred)
    assert main(["analyze", "long-range", "--gold", str(gpath), "--pred", str(ppath),
                 "--min-p95", "-1", "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "--min-p95 must be at least 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_manifest_with_invalid_utf8_exits_2_naming_path_and_line(workspace, capsys):
    tmp_path, manifest = workspace
    bad = tmp_path / "bad_manifest.txt"
    bad.write_bytes(manifest.read_bytes().replace(b"name = beta", b"name = b\xffta"))
    assert main(["score", "--manifest", str(bad), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    assert f"corefkit: parse error: {bad}: line 5: invalid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("cid, head, message", [
    ("\u00b2", "0", "line 2: malformed ID field '\u00b2'"),
    ("1", "\u00b2", "line 2: malformed head reference '\u00b2'"),
])
def test_convert_refuses_superscript_digit_ids_exit_2(tmp_path, capsys, cid, head, message):
    src, out = tmp_path / "g.conllu", tmp_path / "out.txt"
    src.write_text(f"# newdoc id = d1\n{cid}\ta\t_\t_\t_\t_\t{head}\troot\t_\t_\n",
                   encoding="utf-8")
    assert main(["convert", "to-text", "--in", str(src), "--out-file", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == f"corefkit: parse error: {src}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("direction", ["to-text", "to-json"])
def test_convert_refuses_crossing_mentions_exit_2(tmp_path, capsys, direction):
    # the zero 1.1 follows its parent w6, so {1.1, 5, 6} and {1.1, 6, 7}
    # are the crossing segments [4, 6] and [5, 7] in either format
    d = doc("d1", sent(0, [(f"w{k}", 0 if k == 1 else 1, "dep", "X") for k in range(1, 9)],
                       empties=[(1, 1, "Z", 6, "nsubj")]))
    src, out = tmp_path / "g.conllu", tmp_path / "out"
    write_corpus(src, Corpus([d], [[ent("e1", d, [(0, 1, 1), (0, 5), (0, 6)],
                                        [(0, 1, 1), (0, 6), (0, 7)])]]))
    assert main(["convert", direction, "--in", str(src), "--out-file", str(out)]) == EXIT_PARSE
    assert "document 'd1': mentions of entity 'e1' cross" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("form, direction", [("x|[e1]", "to-text"), ("##x", "to-json")])
def test_convert_refuses_forms_that_would_not_read_back_exit_2(tmp_path, capsys, form,
                                                               direction):
    d = doc("d1", sent(0, [("a", 0, "root", "X"), (form, 1, "dep", "X")]))
    src, out = tmp_path / "g.conllu", tmp_path / "out"
    write_corpus(src, Corpus([d], [[]]))
    assert main(["convert", direction, "--in", str(src), "--out-file", str(out)]) == EXIT_PARSE
    assert (f"document 'd1': FORM {form!r} of node 2 in sentence 1 cannot be written"
            in capsys.readouterr().err)
    assert not out.exists()


def test_plaintext_lines_end_at_newline_only(tmp_path):
    # U+2028 inside a FORM neither ends a plaintext line nor splits a token
    d = doc("d1", sent(0, [("a\u2028b", 0, "root", "NOUN"), ("c", 1, "dep", "X")]))
    d2 = doc("d2", sent(0, [("e", 0, "root", "X")]))
    gold = Corpus([d, d2], [[ent("e1", d, [(0, 1)], [(0, 2)])], [ent("e1", d2, [(0, 1)])]])
    src, text = tmp_path / "g.conllu", tmp_path / "g.txt"
    write_corpus(src, gold)
    assert main(["convert", "to-text", "--in", str(src), "--out-file", str(text)]) == EXIT_OK
    back, cleaned = tmp_path / "back.conllu", tmp_path / "clean.txt"
    assert main(["convert", "from-text", "--in", str(text), "--skeleton", str(src),
                 "--out-file", str(back)]) == EXIT_OK
    assert [canonical_clusters(e) for e in parse_conllu(back.read_bytes()).entities] \
        == [canonical_clusters(e) for e in gold.entities]
    assert main(["clean", "--reference", str(src), "--in", str(text),
                 "--out-file", str(cleaned)]) == EXIT_OK
    assert cleaned.read_text(encoding="utf-8") == text.read_text(encoding="utf-8")


@pytest.mark.parametrize("direction, text", [
    ("from-text", "a b|[e1 c|e1]\n"),
    ("from-json", json.dumps([{"doc_id": "d1", "tokens": ["a", "b", "c"],
                               "clusters_token_offsets": [[[1, 2]]],
                               "clusters_text_mentions": [["b c"]]}])),
], ids=["from-text", "from-json"])
def test_convert_refuses_a_span_across_sentences_exit_2(tmp_path, capsys, direction, text):
    d = doc("d1", sent(0, [("a", 0, "root", "X"), ("b", 1, "dep", "X")]),
            sent(1, [("c", 0, "root", "X")]))
    src, inp, out = tmp_path / "g.conllu", tmp_path / "in", tmp_path / "out"
    write_corpus(src, Corpus([d], [[]]))
    inp.write_text(text, encoding="utf-8")
    assert main(["convert", direction, "--in", str(inp), "--skeleton", str(src),
                 "--out-file", str(out)]) == EXIT_PARSE
    assert ("corefkit: parse error: document 'd1': the mention of 'e1' over tokens 1-2 "
            "crosses a sentence boundary") in capsys.readouterr().err
    assert not out.exists()


def test_clean_output_converts_when_a_sentence_opens_with_an_empty_node(tmp_path):
    # ##Z is the second sentence's 0.1, so the opener on "a" closes on "b"
    d = doc("d1", sent(0, [("a", 0, "root", "X"), ("b", 1, "dep", "X")]),
            sent(1, [("c", 0, "root", "X"), ("d", 1, "dep", "X")],
                 empties=[(0, 1, "Z", 0, "root")]))
    src, noisy = tmp_path / "g.conllu", tmp_path / "noisy.txt"
    cleaned, back = tmp_path / "clean.txt", tmp_path / "back.conllu"
    write_corpus(src, Corpus([d], [[]]))
    noisy.write_text("a|[e1 b ##Z c d\n", encoding="utf-8")
    assert main(["clean", "--reference", str(src), "--in", str(noisy),
                 "--out-file", str(cleaned)]) == EXIT_OK
    assert cleaned.read_text(encoding="utf-8") == "a|[e1 b|e1] ##Z c d\n"
    assert main(["convert", "from-text", "--in", str(cleaned), "--skeleton", str(src),
                 "--out-file", str(back)]) == EXIT_OK
    assert canonical_clusters(parse_conllu(back.read_bytes()).entities[0]) \
        == canonical_clusters([ent("e1", d, [(0, 1), (0, 2)])])


def test_convert_from_json_nested_too_deeply_exits_2(tmp_path, capsys):
    gold, _ = make_pair(67, n_docs=1)
    src, inp, out = tmp_path / "g.conllu", tmp_path / "deep.json", tmp_path / "out"
    write_corpus(src, gold)
    inp.write_text("[" * 100_000, encoding="utf-8")
    assert main(["convert", "from-json", "--in", str(inp), "--skeleton", str(src),
                 "--out-file", str(out)]) == EXIT_PARSE
    assert f"corefkit: parse error: {inp}: JSON nested too deeply" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["stats", "{gold}", "--manifest", "{manifest}"], "input paths or --manifest, not both"),
    (["sample", "{gold}", "--manifest", "{manifest}"], "input paths or --manifest, not both"),
    (["sample", "--manifest", "{manifest}", "--exempt"],
     "--exempt applies to input paths only, not to --manifest"),
], ids=["stats-paths-and-manifest", "sample-paths-and-manifest", "sample-manifest-exempt"])
def test_inputs_that_would_be_ignored_exit_4(workspace, capsys, argv, message):
    tmp_path, manifest = workspace
    argv = [arg.format(gold=tmp_path / "a.gold.conllu", manifest=manifest) for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stats_dataset_without_paths_exits_4(tmp_path, capsys):
    manifest = tmp_path / "m.txt"
    manifest.write_text("name = x\n", encoding="utf-8")
    assert main(["stats", "--manifest", str(manifest), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "dataset 'x' needs a gold path" in capsys.readouterr().err


def test_stats_system_mode_needs_the_pred_path_of_a_manifest_dataset(workspace, capsys):
    tmp_path, _ = workspace
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"name = x\ngold = {tmp_path / 'a.gold.conllu'}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["stats", "--manifest", str(manifest), "--mode", "system",
                 "--out", str(out)]) == EXIT_CONFIG
    assert "dataset 'x' needs a pred path" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("noisy, expected", [
    ("a ##Z|[e1]|e1]|e1] b", "a ##Z b"),
    ("a ##Z|[e1]|e1] b", "a ##Z b"),
    ("##Zpro|[e3]|x a b", "##Zpro a b"),
])
def test_clean_drops_pieces_outside_the_token_grammar_and_converts(tmp_path, noisy, expected):
    # a "##" token's surface ends at its first "|", so it reads back as written
    src, inp = tmp_path / "g.conllu", tmp_path / "noisy.txt"
    cleaned, back = tmp_path / "clean.txt", tmp_path / "back.conllu"
    write_corpus(src, Corpus([doc("d1", sent(0, [("a", 0, "root", "X"), ("b", 1, "dep", "X")]))],
                             [[]]))
    inp.write_text(noisy + "\n", encoding="utf-8")
    assert main(["clean", "--reference", str(src), "--in", str(inp),
                 "--out-file", str(cleaned)]) == EXIT_OK
    assert cleaned.read_text(encoding="utf-8") == expected + "\n"
    assert main(["convert", "from-text", "--in", str(cleaned), "--skeleton", str(src),
                 "--out-file", str(back)]) == EXIT_OK


def test_clean_refuses_a_reference_form_the_writer_refuses_exit_2(tmp_path, capsys):
    d = doc("d1", sent(0, [("a|b", 0, "root", "X"), ("c", 1, "dep", "X"),
                           ("##x", 1, "dep", "X")]))
    src, inp, out = tmp_path / "g.conllu", tmp_path / "noisy.txt", tmp_path / "clean.txt"
    write_corpus(src, Corpus([d], [[]]))
    inp.write_text("a|b|[e1 c|e1] ##x\n", encoding="utf-8")
    assert main(["clean", "--reference", str(src), "--in", str(inp),
                 "--out-file", str(out)]) == EXIT_PARSE
    assert ("corefkit: parse error: document 'd1': FORM 'a|b' of node 1 in sentence 1 "
            "cannot be written") in capsys.readouterr().err
    assert not out.exists()


def test_from_text_rejects_a_piece_between_two_bars_exit_2(tmp_path, capsys):
    src, inp, out = tmp_path / "g.conllu", tmp_path / "in.txt", tmp_path / "out"
    write_corpus(src, Corpus([doc("d1", sent(0, [("a", 0, "root", "X")]))], [[]]))
    inp.write_text("a|b|[e1]\n", encoding="utf-8")
    assert main(["convert", "from-text", "--in", str(inp), "--skeleton", str(src),
                 "--out-file", str(out)]) == EXIT_PARSE
    assert "token 0: malformed annotation item 'b'" in capsys.readouterr().err
    assert not out.exists()


def test_score_aligns_zeros_once_per_singleton_mode(workspace, monkeypatch):
    # the four passes (head, partial and exact without singletons, head with
    # them) share one zero alignment per singleton mode
    tmp_path, manifest = workspace
    aligned = []
    original = matching.align_zeros
    monkeypatch.setattr(matching, "align_zeros",
                        lambda *args: aligned.append(args[3].doc_id) or original(*args))
    doc_ids = [d.doc_id for spec in parse_manifest(manifest)
               for d in parse_conllu(spec.gold.read_bytes()).documents]
    for singletons in ("exclude", "include"):
        aligned.clear()
        assert main(["score", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                     "--singletons", singletons]) == EXIT_OK
        assert sorted(aligned) == sorted(doc_ids * 2)


@pytest.mark.parametrize("argv", [
    ["convert", "to-text", "--in", "{bad}"],
    ["convert", "to-json", "--in", "{bad}"],
    ["convert", "from-text", "--in", "{text}", "--skeleton", "{bad}"],
    ["convert", "from-json", "--in", "{text}", "--skeleton", "{bad}"],
    ["clean", "--reference", "{bad}", "--in", "{text}"],
])
def test_out_file_is_refused_before_the_input_is_read(tmp_path, capsys, argv):
    # the input would fail to parse (exit 2); the --out-file check comes first
    bad, text, taken, plain = (tmp_path / name for name in ("bad.conllu", "in.txt", "taken",
                                                            "plain"))
    bad.write_text("# newdoc id = d1\n1\ta\n", encoding="utf-8")
    text.write_text("a\n", encoding="utf-8")
    taken.mkdir()
    plain.write_text("", encoding="utf-8")
    argv = [arg.format(bad=bad, text=text) for arg in argv]
    assert main(argv + ["--out-file", str(taken)]) == EXIT_CONFIG
    assert f"corefkit: i/o error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: " \
           f"'{taken}'" in capsys.readouterr().err
    assert main(argv + ["--out-file", str(plain / "out.txt")]) == EXIT_CONFIG
    assert f"configuration error: cannot create output directory {plain}: " \
           in capsys.readouterr().err
    assert not list(taken.iterdir()) and plain.read_text() == ""


@pytest.mark.parametrize("command", ["stats", "sample"])
def test_positional_inputs_with_one_stem_exit_4(tmp_path, capsys, command):
    first, second = tmp_path / "x" / "a.conllu", tmp_path / "y" / "a.conllu"
    for path, seed in ((first, 3), (second, 4)):
        path.parent.mkdir()
        write_corpus(path, make_pair(seed, n_docs=1)[0])
    out = tmp_path / "out"
    assert main([command, str(first), str(second), "--out", str(out)]) == EXIT_CONFIG
    assert (f"configuration error: input paths {first} and {second} have the same name 'a'"
            in capsys.readouterr().err)
    assert not out.exists()
