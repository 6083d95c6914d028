#!/usr/bin/env python3
"""corefkit benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload short-docs --seed 1 --seconds 60 --trace 0

The benchmark writes seeded inputs for the workload under
``.bench_build/``, then repeats cycles of CLI commands over them until
``--seconds`` have passed.  Every output is checked.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs every command as its own ``python -m corefkit.cli``
process (closed loop, one command at a time, ``--jobs 1``) and reports
the end-to-end metrics.  ``--trace 1`` calls ``corefkit.cli.main``
in-process with spans around each module's public functions and reports
the per-layer metrics.  ``--size smoke`` shrinks every input for the
benchmark's own tests.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import SCORE_FUNCTIONS, Tracer  # noqa: E402

GROUPS = ("score", "convert", "clean", "stats", "analyze")
REGIMES = ("head", "exact", "partial")
FORMATS_FUNCTIONS = ("to_plaintext", "from_plaintext", "reconstruct_conllu", "to_json",
                     "json_doc_from_value", "reconstruct_from_json")
CLEAN_CLASSES = ("light", "heavy", "refused")

REPLAY_COUNTS = ("metrics.cluster_pairs", "metrics.nonzero_cells", "metrics.nonzero_share",
                 "metrics.ceafe_largest_component")

RUN_DEADLINE_S = 165  # the whole run, set-up included, ends well within 180 s
DIGESTS = HERE / "digests.json"


# ---------------------------------------------------------------------------
# Output checks.

_ITEM = re.compile(r"(\()?([A-Za-z0-9_]+)(?:-[^()\[\]]*)?(\[\d+/\d+)?(\]?\))?")


def conllu_clusters(path: str) -> Counter:
    """Multiset of (doc id, cluster) decoded from a CoNLL-U Entity column;
    a cluster is the sorted tuple of its (sentence, first id, last id)
    bracket segments.  Entity ids are ignored."""
    result: Counter = Counter()
    doc, sentence, in_sentence = None, -1, False
    spans: dict[str, list] = defaultdict(list)
    stacks: dict[tuple, list] = defaultdict(list)

    def flush():
        for segments in spans.values():
            result[doc, tuple(sorted(segments))] += 1
        spans.clear()
        if any(stacks.values()):
            raise ValueError(f"{path}: unclosed bracket in document {doc}")
        stacks.clear()

    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# newdoc id ="):
            if doc is not None:
                flush()
            doc, sentence, in_sentence = line.split("=", 1)[1].strip(), -1, False
        elif not line:
            in_sentence = False
        elif not line.startswith("#"):
            if not in_sentence:
                sentence, in_sentence = sentence + 1, True
            cols = line.split("\t")
            misc = [m for m in cols[9].split("|") if m.startswith("Entity=")]
            if "-" in cols[0] or not misc:
                continue
            for opener, eid, part, closer in _ITEM.findall(misc[0][len("Entity="):]):
                key = (eid, part.lstrip("["))
                if opener and closer:
                    spans[eid].append((sentence, cols[0], cols[0]))
                elif opener:
                    stacks[key].append(cols[0])
                else:
                    spans[eid].append((sentence, stacks[key].pop(), cols[0]))
    if doc is not None:
        flush()
    return result


def cleaned_surfaces(path: str) -> list[list[str]]:
    docs = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            docs.append([t.rpartition("|")[0] if "|" in t else t
                         for t in line.split(" ") if not t.startswith("##")])
    return docs


def check_conll(path: str) -> None:
    by_scope: dict[tuple, dict] = defaultdict(dict)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        by_scope[record["scope"], record["dataset"]][record["metric"]] = record
    for scope, scores in by_scope.items():
        for field in ("recall", "precision", "f1"):
            mean = sum(scores[m][field] for m in ("muc", "b3", "ceaf_e")) / 3
            if abs(scores["conll"][field] - mean) > 1e-9:
                raise ValueError(f"{scope}: conll {field} is not the mean of MUC, B3 and CEAF-e")


class Checker:
    """Exit codes, output checks and sha256 digests of every command."""

    def __init__(self, workload: workloads.Workload, recorded: dict | None):
        self.workload = workload
        self.first: dict[str, str] = {}
        self.recorded = recorded or {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def digest(self, path: str) -> str:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def rel(self, path: str) -> str:
        return Path(path).relative_to(self.workload.root).as_posix()

    def check(self, command: workloads.Command, code: int) -> None:
        self.attempted += 1
        if code != command.expect:
            self.fail(f"{command.name}: exit {code}, expected {command.expect}")
            return
        try:
            self._check_outputs(command)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.fail(f"{command.name}: {exc}")

    def _check_outputs(self, command: workloads.Command) -> None:
        fresh = False
        for path in command.outputs:
            key, digest = self.rel(path), self.digest(path)
            if key not in self.first:
                self.first[key], fresh = digest, True
                if key in self.recorded and self.recorded[key] != digest:
                    raise ValueError(f"{key} differs from the recorded digest")
            elif self.first[key] != digest:
                raise ValueError(f"{key} differs from its first run in this benchmark run")
        if not fresh or not command.check:
            return  # identical bytes already passed the checks below
        kind, path, *rest = command.check
        expected = self.workload.expected
        if kind == "conll":
            check_conll(path)
        elif kind == "clusters":
            if conllu_clusters(path) != expected[rest[0]]:
                raise ValueError(f"{self.rel(path)}: clusters differ from the gold clusters")
        elif kind == "surface":
            if cleaned_surfaces(path) != expected[rest[0]]:
                raise ValueError(f"{self.rel(path)}: cleaned surface differs from the reference")


# ---------------------------------------------------------------------------
# Untraced run: one CLI process per command.

def cli_env(hash_seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_cli(argv: list[str], env: dict, log: Path, timeout: float) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS (MB) of one CLI process."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "corefkit.cli", *argv],
                                stdout=out, stderr=out, env=env, cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024


def remove_outputs(command: workloads.Command) -> None:
    """Delete a command's outputs, so that one it fails to write is missing
    rather than left over from its previous run."""
    for path in command.outputs:
        Path(path).unlink(missing_ok=True)


def fits(start: float, need_s: float, seconds: float, deadline: float) -> bool:
    """Whether work of ``need_s`` seconds, started now, ends within
    ``seconds`` of ``start`` (and well before the run's deadline)."""
    now = time.monotonic()
    return now - start + need_s <= seconds and now + 1.5 * need_s < deadline


SETUP = workloads.Command("setup", ["--help"], units=0)


def schedule(wl):
    """The CLI processes of all cycles, in order, without end.  A cycle
    is ``--help`` and then one command of each group; a group of several
    commands (the four convert directions) takes them in turn, one per
    cycle, so that every group gets about as many samples as the others."""
    groups = [[c for c in wl.commands if c.group == g and c.timed] for g in GROUPS]
    for cycle in itertools.count():
        yield SETUP
        for group in groups:
            yield group[cycle % len(group)]


def measure_untraced(wl, seconds: float, deadline: float, checker: Checker) -> dict:
    """Cycles of CLI processes (see ``schedule``).  After the first full
    turn of every command, a command runs only if its last time still fits
    in ``seconds``, so the run ends as soon as one does not.  ``setup_s``
    is the median of its samples.  A command's time is the mean of its
    samples, which spread evenly over the run, and a group's rate is its
    units over the sum of those means."""
    log = wl.root / "cli.log"
    run_cli(SETUP.argv, cli_env(0), log, deadline - time.monotonic())  # compiles bytecode
    for probe in (c for c in wl.commands if not c.timed):
        remove_outputs(probe)
        code, _, _ = run_cli(probe.argv, cli_env(0), log, deadline - time.monotonic())
        checker.check(probe, code)
    times: dict[str, list[float]] = defaultdict(list)
    peaks: dict[str, list[float]] = defaultdict(list)
    timed = [c for c in wl.commands if c.timed]
    start = time.monotonic()
    for turn, command in enumerate(schedule(wl)):
        if all(times[c.name] for c in timed) and not fits(start, times[command.name][-1],
                                                          seconds, deadline):
            break
        remove_outputs(command)
        env = cli_env(turn + 1)  # a new hash seed for every process
        code, elapsed, rss = run_cli(command.argv, env, log, deadline - time.monotonic())
        checker.check(command, code)
        times[command.name].append(elapsed)
        peaks[command.name].append(rss)
    metrics = {"setup_s": statistics.median(times[SETUP.name]),
               "peak_rss_mb": max(statistics.median(p) for p in peaks.values())}
    for group in GROUPS:
        commands = [c for c in timed if c.group == group]
        rate = sum(c.units for c in commands) / sum(statistics.mean(times[c.name])
                                                    for c in commands)
        metrics[f"{group}_{'tokens' if group == 'clean' else 'words'}_per_s"] = rate
    print(f"commands run {turn}")
    for name, samples in times.items():
        print(f"samples {name}: " + " ".join(f"{t:.3f}" for t in samples))
    return metrics


# ---------------------------------------------------------------------------
# Traced run: corefkit.cli.main in-process.

def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import seconds of corefkit, and of scipy and numpy
    wherever they are first imported."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, raw = line.split("|")
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        rows.append((depth, raw.strip(), int(cumulative) / 1e6))
    def within(name: str, package: str) -> bool:
        return name == package or name.startswith(package + ".")

    sums = Counter()
    ancestors: list[str] = []
    for depth, name, cumulative in reversed(rows):  # parents print after their children
        del ancestors[depth:]
        for package in ("corefkit", "scipy", "numpy"):
            if within(name, package) and not any(within(a, package) for a in ancestors):
                sums[package] += cumulative
        ancestors.append(name)
    return {"import.total_s": sums["corefkit"], "import.scipy_s": sums["scipy"],
            "import.numpy_s": sums["numpy"]}


def import_times(samples: int = 3) -> dict[str, float]:
    runs = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import corefkit.cli"],
                              env=cli_env(0), capture_output=True, text=True, timeout=60,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"importing corefkit failed:\n{proc.stderr[-2000:]}")
        runs.append(parse_importtime(proc.stderr))
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def retained_bytes_per_word(path: str, words: int) -> float:
    import tracemalloc

    from corefkit.conllu import parse_conllu

    data = Path(path).read_bytes()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = parse_conllu(data)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del corpus
    return retained / words


def call_main(argv: list[str], log) -> int:
    from corefkit import cli

    with contextlib.redirect_stderr(log), contextlib.redirect_stdout(log):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # reported as a failed command, with its traceback in the log
            traceback.print_exc(file=log)
            return -1


def replay_scores(wl, tracer) -> dict[str, float]:
    """Self time of the public score_* functions on the workload's document
    pairs (head matching, singletons excluded), and the cluster-pair work
    behind them.  The calls are traced under their own run id; each
    score_* span excludes the remap_partitions span beneath it."""
    from corefkit import metrics
    from corefkit.conllu import parse_conllu

    counts = Counter()
    largest = 0
    docs = []
    for _, gold_path, pred_path in wl.datasets:
        gold = parse_conllu(Path(gold_path).read_bytes())
        pred = parse_conllu(Path(pred_path).read_bytes())
        for pair in metrics.pair_documents(gold, pred):
            doc = metrics.prepare_document(*pair)
            docs.append(doc)
            gold_clusters, pred_clusters = metrics.remap_partitions(
                doc.gold_entities, doc.pred_entities, doc.alignment,
                metrics.SINGLETONS_EXCLUDED)
            cells, component = overlap_graph(gold_clusters, pred_clusters)
            counts["cluster_pairs"] += len(gold_clusters) * len(pred_clusters)
            counts["nonzero_cells"] += cells
            largest = max(largest, component)
    cli_run = tracer.run
    tracer.run = -1 - cli_run  # the CLI's runs count up from 0
    try:
        with tracer.installed():
            for doc in docs:
                args = (doc.gold_entities, doc.pred_entities, doc.alignment)
                for name in ("muc", "bcubed", "ceaf_e", "blanc", "lea", "zero_anaphora"):
                    getattr(metrics, f"score_{name}")(*args)
                gold_mentions = [m for e in doc.gold_entities for m in e.mentions]
                pred_mentions = [m for e in doc.pred_entities for m in e.mentions]
                metrics.score_mor(gold_mentions, pred_mentions, doc.alignment)
                metrics.score_md_h(gold_mentions, pred_mentions)
        own, _, _ = tracer.summary(tracer.run)
    finally:
        tracer.run = cli_run
    result = {f"metrics.score_{name}_s": own[f"metrics.score_{name}"]
              for name in SCORE_FUNCTIONS}
    result["metrics.cluster_pairs"] = counts["cluster_pairs"]
    result["metrics.nonzero_cells"] = counts["nonzero_cells"]
    result["metrics.nonzero_share"] = counts["nonzero_cells"] / max(counts["cluster_pairs"], 1)
    result["metrics.ceafe_largest_component"] = largest
    return result


def overlap_graph(gold_clusters, pred_clusters) -> tuple[int, int]:
    """Non-zero cells of the gold x predicted overlap table, and the size
    (in clusters) of the largest connected component of its graph."""
    k = len(gold_clusters)
    parent = list(range(k + len(pred_clusters)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner = {e: g for g, cluster in enumerate(gold_clusters) for e in cluster}
    cells = set()
    for r, cluster in enumerate(pred_clusters):
        for e in cluster:
            g = owner.get(e)
            if g is not None:
                cells.add((g, r))
                parent[find(g)] = find(k + r)
    sizes = Counter(find(x) for x in range(len(parent)))
    return len(cells), max(sizes.values(), default=0)


def measure_traced(wl, seconds: float, deadline: float, checker: Checker) -> dict:
    sys.path.insert(0, str(SRC))

    start = time.monotonic()
    fixed = import_times()
    fixed["model.retained_bytes_per_word"] = retained_bytes_per_word(
        wl.gold, wl.counts["words"])
    tracer = Tracer(wl.tiers)
    per_cycle: list[dict] = []
    with open(wl.root / "cli.log", "w") as log:
        while True:
            tracer.run = len(per_cycle)
            tracer.counts.clear()
            tracer.maxima.clear()
            plain = Counter()
            for command in wl.commands:
                remove_outputs(command)
                t = time.perf_counter()
                call_main(command.argv, log)
                plain[command.group] += time.perf_counter() - t
                remove_outputs(command)
                with tracer.installed(), tracer.span(f"cli.{command.group}"):
                    code = call_main(command.argv, log)
                checker.check(command, code)
            cycle = layer_metrics(tracer, plain)
            try:
                cycle.update(replay_scores(wl, tracer))
            except (AttributeError, TypeError) as exc:  # the public scoring API changed
                print(f"score replay skipped: {exc!r}")
                cycle.update({f"metrics.score_{f}_s": 0.0 for f in SCORE_FUNCTIONS})
                cycle.update(dict.fromkeys(REPLAY_COUNTS, 0.0))
            per_cycle.append(cycle)
            if not fits(start, (time.monotonic() - start) / len(per_cycle), seconds, deadline):
                break
    metrics = {name: statistics.median(c[name] for c in per_cycle) for name in per_cycle[0]}
    metrics.update(fixed)
    print(f"cycles {len(per_cycle)}")
    return metrics


def layer_metrics(tracer, plain: Counter) -> dict[str, float]:
    own, beneath, calls = tracer.summary(tracer.run)
    counts = tracer.counts
    m: dict[str, float] = {}
    m["conllu.parse_s"] = own["conllu.parse"]
    m["conllu.parse_mb_per_s"] = counts["conllu.parse_bytes"] / 1e6 / max(own["conllu.parse"], 1e-9)
    m["conllu.serialize_s"] = own["conllu.serialize"]
    m["conllu.serialize_mb_per_s"] = (counts["conllu.serialize_bytes"] / 1e6
                                      / max(own["conllu.serialize"], 1e-9))
    m["matching.check_same_surface_s"] = own["matching.check_same_surface"]
    m["matching.align_zeros_s"] = own["matching.align_zeros"]
    for r in REGIMES:
        m[f"matching.match_surface_s.{r}"] = own[f"matching.match_surface.{r}"]
        m[f"matching.pairs.{r}"] = counts[f"matching.pairs.{r}"]
        m[f"metrics.evaluate_corpus_s.{r}"] = own[f"metrics.evaluate_corpus.{r}"]
    for name in ("matching.zero_pairs", "matching.partial_candidates", "formats.clean_edits"):
        m[name] = counts[name]
    m["matching.zero_max_side"] = tracer.maxima["matching.zero_max_side"]
    m["metrics.evaluate_corpus_calls"] = sum(calls["cli.score", f"metrics.evaluate_corpus.{r}"]
                                             for r in REGIMES)
    m["metrics.remap_partitions_s"] = own["metrics.remap_partitions"]
    for f in FORMATS_FUNCTIONS:
        m[f"formats.{f}_s"] = own[f"formats.{f}"]
    for c in CLEAN_CLASSES:
        m[f"formats.clean_output_s.{c}"] = own[f"formats.clean_output.{c}"]
    m["analysis.corpus_stats_s"] = own["analysis.corpus_stats"]
    m["analysis.long_range_curve_s"] = own["analysis.long_range_curve"]
    traced = 0.0
    for group in GROUPS:
        m[f"cli.{group}.self_s"] = own[f"cli.{group}"]
        m[f"cli.{group}.parse_calls"] = calls[f"cli.{group}", "conllu.parse"]
        traced += own[f"cli.{group}"] + beneath[f"cli.{group}"]
    m["cli.score.layer_share"] = beneath["cli.score"] / plain["score"]
    m["trace.overhead_share"] = (traced - sum(plain.values())) / sum(plain.values())
    return m


# ---------------------------------------------------------------------------

def stamp(wl, seed: int, size: str) -> dict:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    sha = "unknown"  # a checkout without .git has no commit to name
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"workload": wl.name, "seed": seed, "size": size, "git_sha": sha,
            "source_sha256": source.hexdigest(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "nproc": os.cpu_count(),
            **wl.counts}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    # on SIGTERM, unwind: kill the running CLI process and delete the work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "corefkit" / "cli.py").is_file():
        print(f"perfbench: no corefkit sources under {SRC}", file=sys.stderr)
        return 2

    setup_start = time.perf_counter()
    root = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        wl = workloads.build(args.workload, args.seed, root, args.size)
        print(f"generated {wl.name} seed {args.seed} in {time.perf_counter() - setup_start:.2f} s")
        print("stamp " + json.dumps(stamp(wl, args.seed, args.size), sort_keys=True))
        recorded = None
        if args.size == "full" and DIGESTS.is_file():
            recorded = json.loads(DIGESTS.read_text()).get(f"{args.workload}/{args.seed}")
        checker = Checker(wl, recorded)
        if args.trace:
            metrics = measure_traced(wl, args.seconds, deadline, checker)
        else:
            metrics = measure_untraced(wl, args.seconds, deadline, checker)
        print("digests " + json.dumps(checker.first, sort_keys=True))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    # the metric names and units are those BENCHMARK.json lists
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in listed["per_layer" if args.trace else "end_to_end"]}
    for error in checker.errors:
        print(f"FAILED {error}")
    print(f"error_rate {checker.failed / max(checker.attempted, 1):.4f} "
          f"({checker.failed} of {checker.attempted} commands)")
    for name, unit in wanted.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
