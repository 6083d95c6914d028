"""Command-line interface for batch evaluation pipelines.

Subcommands: score, convert, clean, stats, analyze, sample.  Exit codes
are pinned for pipeline use: 0 ok, 2 parse failure, 3 token mismatch
(run `clean` first), 4 configuration error.  Commands read and write
only the paths named in their configuration, and write nothing until
every output is computed; identical inputs and configuration yield
byte-identical outputs.

Datasets are listed in a flat manifest file: one ``key = value`` stanza
per dataset, stanzas separated by blank lines::

    name = demo_en
    gold = data/demo_en.gold.conllu
    pred = data/demo_en.pred.conllu
    exempt = false
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import gc
import math
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

# Unused here: the benchmark's import.numpy_s and import.scipy_s time these
# imports at CLI start, and its tests require both to be above 0.  They go
# when those metrics are retired.
import numpy as np  # noqa: F401
import scipy  # noqa: F401

from .errors import (CleanRefusedError, ConlluError, JsonFormatError, PlaintextError,
                     TokenMismatchError, apply_each)

if TYPE_CHECKING:
    from .matching import MatchRegime

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MISMATCH = 3
EXIT_CONFIG = 4


class ConfigError(ValueError):
    pass


class ManifestError(ValueError):
    """A manifest that is not valid UTF-8 (exit 2, as other unreadable input)."""


# the values of matching.MatchRegime, in its order, for --regime without
# loading matching at start
REGIMES = ("exact", "partial", "head")


class DatasetSpec(NamedTuple):
    name: str
    gold: Path | None
    pred: Path | None
    exempt: bool = False


def parse_manifest(path: Path) -> list[DatasetSpec]:
    specs: list[DatasetSpec] = []
    stanza: dict[str, str] = {}

    def flush() -> None:
        if not stanza:
            return
        if "name" not in stanza:
            raise ConfigError(f"manifest {path}: stanza without a 'name' key")
        name = stanza["name"]  # sample writes {name}.conllu, which must stay in --out
        if not _is_plain_file_name(name):
            raise ConfigError(f"manifest {path}: dataset name {name!r} is not a plain file name")
        exempt = stanza.get("exempt", "false").lower()
        if exempt not in ("true", "false"):
            raise ConfigError(f"manifest {path}: exempt must be true or false")
        specs.append(DatasetSpec(
            name=name,
            gold=Path(stanza["gold"]) if "gold" in stanza else None,
            pred=Path(stanza["pred"]) if "pred" in stanza else None,
            exempt=exempt == "true",
        ))
        stanza.clear()

    for number, line in enumerate(_read_lines(path, ManifestError), start=1):
        line = line.strip()
        if not line:
            flush()
            continue
        if line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"manifest {path}: expected 'key = value', got '{line}'")
        key = key.strip()
        if key not in DatasetSpec._fields:  # the manifest keys
            raise ConfigError(f"manifest {path}: line {number}: unknown key {key!r}")
        if key in stanza:
            raise ConfigError(f"manifest {path}: line {number}: repeated key {key!r}")
        stanza[key] = value.strip()
    flush()
    if not specs:
        raise ConfigError(f"manifest {path} lists no datasets")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"manifest {path}: dataset names are not unique")
    return specs


def _is_plain_file_name(name: str) -> bool:
    """Whether ``name`` names a file in the current directory, so an output
    path built from it stays in --out."""
    return name not in ("", ".", "..") and os.path.basename(name) == name


_reading: list = []  # the inputs being read, innermost last


@contextlib.contextmanager
def _naming(label):
    """A warning raised in the body is about the input ``label``, unless a
    nested ``_naming`` names another."""
    _reading.append(label)
    try:
        yield
    finally:
        _reading.pop()


def _documents(path: Path, whole: bool = False):
    """The ``(document, entities)`` pairs of a CoNLL-U input, read one
    document at a time, or with ``whole`` in one parse, which makes equal
    strings one object across documents; an error or a warning names the
    path."""
    from .conllu import iter_documents, parse_conllu
    try:
        with path.open("rb") as file:
            if whole:
                with _naming(path):
                    pairs = iter(parse_conllu(file))
            else:
                pairs = iter_documents(file)
            while True:
                with _naming(path):  # a document is parsed as it is taken
                    pair = next(pairs, None)
                if pair is None:
                    return
                yield pair
                del pair  # not alive while the next document is read
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ConlluError as exc:
        raise ConlluError(f"{path}: {exc}") from None


def _read_text(path: Path, error: type[ValueError]) -> str:
    """A plaintext, JSON or manifest input without a leading byte order
    mark; invalid UTF-8 raises ``error`` (exit 2) with the path and line,
    as CoNLL-U input does."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: invalid UTF-8 ({exc.reason}) "
                    f"at byte {exc.start}") from None


def _read_lines(path: Path, error: type[ValueError]) -> list[str]:
    """Lines of a text input.  They end at "\\n" only, as in CoNLL-U, so a
    token may hold U+2028 and the like; a trailing "\\r" is dropped."""
    return [line.rstrip("\r") for line in _read_text(path, error).split("\n")]


def _with_lines(documents, path: Path, role: str):
    """Pair the documents of a CoNLL-U stream with the non-blank lines of
    the plaintext input at ``path``: a document with sentences takes the
    next line, and one without sentences, which to-text writes as an
    empty line, takes none (its line is None).  Once the stream ends, an
    error in reading ``path`` is raised, then TokenMismatchError if the
    counts differ: the order of reading the stream first."""
    try:
        lines, error = [l for l in _read_lines(path, PlaintextError) if l.strip(" \t\f\v")], None
    except (PlaintextError, OSError) as exc:
        lines, error = [], exc
    taken = 0  # documents with sentences
    for document, _ in documents:
        if not document.sentences:
            yield document, None
        elif taken < len(lines):
            yield document, lines[taken]
        taken += bool(document.sentences)
        document = _ = None  # neither is alive while the next document is read
    if error is not None:
        raise error
    if taken != len(lines):
        raise TokenMismatchError(f"{path} has {len(lines)} documents but the {role} has {taken}")


def _read_json(path: Path) -> list:
    """The decoded list of a JSON input."""
    import json
    try:
        values = json.loads(_read_text(path, JsonFormatError))
    except json.JSONDecodeError as exc:
        raise JsonFormatError(f"{path}: {exc}") from None
    except RecursionError:
        raise JsonFormatError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(values, list):
        raise JsonFormatError(f"{path}: JSON input must be a list of documents")
    return values


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_out_dir(out_dir: Path) -> None:
    """Refuse, before any input is read, an --out that could not be made.
    It creates nothing: ``main`` makes --out when it writes."""
    def cannot_create(code: int, path: Path) -> ConfigError:  # with mkdir's own error
        return ConfigError(f"cannot create output directory {out_dir}: "
                           f"{OSError(code, os.strerror(code), str(path))}")

    existing, missing = out_dir, None  # nearest existing directory, and its missing child
    while not existing.is_dir() and existing != existing.parent:
        if os.path.lexists(existing):  # --out is, or lies under, a non-directory
            raise cannot_create(errno.ENOTDIR if missing else errno.EEXIST, out_dir)
        existing, missing = existing.parent, existing
    if missing is None and not os.access(out_dir, os.W_OK):
        raise ConfigError(f"output directory {out_dir} is not writable")
    if not os.access(existing, os.W_OK):
        raise cannot_create(errno.EACCES, missing)


def _check_out_file(out_file: Path) -> None:
    """Refuse, before any input is read, an --out-file that is a directory
    or whose directory could not be made."""
    if out_file.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out_file))
    _check_out_dir(out_file.parent)


# ---------------------------------------------------------------------------
# score

def _score_dataset(regime: MatchRegime, singleton_mode: str,
                   spec: DatasetSpec) -> tuple[dict, dict]:
    """Primary scores and the CoNLL variants of one dataset, from one pass
    over its document pairs.  Each distinct (regime, singletons) pair is
    evaluated once; the variants need only CoNLL."""
    from . import metrics
    from .matching import MatchRegime
    variants = {  # the columns of conll_variants.tsv, in order
        "conll_head_excl": (MatchRegime.HEAD, metrics.SINGLETONS_EXCLUDED),
        "conll_partial_excl": (MatchRegime.PARTIAL, metrics.SINGLETONS_EXCLUDED),
        "conll_exact_excl": (MatchRegime.EXACT, metrics.SINGLETONS_EXCLUDED),
        "conll_head_incl": (MatchRegime.HEAD, metrics.SINGLETONS_INCLUDED),
    }
    primary = (regime, singleton_mode)
    settings = [(*primary, False)] + [(*setting, True) for setting in variants.values()
                                      if setting != primary]
    scores = metrics.evaluate_settings(_documents(spec.gold), _documents(spec.pred), settings)
    by_setting = {(r, mode): result for (r, mode, _), result in zip(settings, scores)}
    return scores[0], {key: by_setting[setting][metrics.MetricId.CONLL]
                       for key, setting in variants.items()}


def cmd_score(args: argparse.Namespace) -> dict[Path, str]:
    from . import metrics
    from .matching import MatchRegime
    regime = MatchRegime(args.regime)
    singleton_mode = (metrics.SINGLETONS_INCLUDED if args.singletons == "include"
                      else metrics.SINGLETONS_EXCLUDED)
    datasets = parse_manifest(args.manifest)
    _require(args.jobs >= 1, f"--jobs must be at least 1, got {args.jobs}")
    for spec in datasets:
        _require(spec.gold is not None and spec.pred is not None,
                 f"dataset '{spec.name}' needs both gold and pred paths")
        _require(spec.gold.is_file(), f"gold path {spec.gold} is not a readable file")
        _require(spec.pred.is_file(), f"pred path {spec.pred} is not a readable file")
    _check_out_dir(args.out)

    score = functools.partial(_score_dataset, regime, singleton_mode)
    # the pool forks all its workers on the first map, so no more than there is work for
    jobs = min(args.jobs, len(datasets))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        # the workers, like the `corefkit` process, run without the cyclic GC
        with ProcessPoolExecutor(max_workers=jobs, initializer=gc.disable) as pool:
            results = list(pool.map(score, datasets))
    else:
        results = list(map(score, datasets))

    per_dataset = {spec.name: primary for spec, (primary, _) in zip(datasets, results)}
    report = metrics.aggregate(per_dataset, singleton_mode, regime)
    variants = metrics.aggregate({spec.name: v for spec, (_, v) in zip(datasets, results)})
    return {args.out / "scores.tsv": metrics.render_score_table(report),
            args.out / "scores.jsonl": metrics.render_records(report),
            args.out / "conll_variants.tsv": metrics.render_score_table(variants)}


# ---------------------------------------------------------------------------
# convert / clean

def cmd_convert(args: argparse.Namespace) -> dict[Path, str]:
    """Each direction reads its CoNLL-U input one document at a time."""
    from . import formats
    in_path = args.in_path
    _require(in_path.is_file(), f"input path {in_path} is not a readable file")
    if args.direction.startswith("from-"):
        _require(args.skeleton.is_file(),
                 f"skeleton path {args.skeleton} is not a readable file")
    _check_out_file(args.out_file)
    with _naming(in_path):
        if args.direction == "to-text":
            return {args.out_file: formats.corpus_to_plaintext(_documents(in_path))}
        if args.direction == "to-json":
            import json
            values = formats.corpus_to_json(_documents(in_path))
            return {args.out_file: json.dumps(values, ensure_ascii=False, indent=1) + "\n"}
        if args.direction == "from-text":
            return {args.out_file: _rebuild_from_text(in_path, args.skeleton)}
        return {args.out_file: _rebuild_from_json(in_path, args.skeleton)}


def _rebuild_from_text(in_path: Path, skeleton: Path) -> str:
    """The skeleton with the entities of the plaintext lines.  The first
    error of a document is raised once every input is read, one that
    reconstruction raises before one that serialization does."""
    from . import formats
    from .conllu import serialize_conllu
    texts, unwritable = [], []

    def rebuild(pair) -> None:
        document, line = pair
        rebuilt = (document, []) if line is None else formats.reconstruct_conllu(
            document, formats.from_plaintext(line))
        try:
            texts.append(serialize_conllu([rebuilt]))
        except ConlluError as exc:
            unwritable.append(exc)

    apply_each(rebuild, _with_lines(_documents(skeleton), in_path, "skeleton"))
    if unwritable:
        raise unwritable[0]
    return "".join(texts)


def _rebuild_from_json(in_path: Path, skeleton: Path) -> str:
    """The skeleton documents the JSON documents name, in JSON order, with
    their entities.  Once every input is read, the error of the first JSON
    document that fails is raised, one that serialization raises last."""
    from . import formats
    from .conllu import serialize_conllu
    try:
        values, error = _read_json(in_path), None
    except (JsonFormatError, OSError) as exc:
        values, error = [], exc
    failed, unwritable, texts = {}, {}, {}  # by JSON document number
    jdocs, numbers = {}, {}  # numbers: the JSON document naming each id
    for number, value in enumerate(values, start=1):
        try:
            jdoc = formats.json_doc_from_value(value)
            if jdoc.doc_id in numbers:
                raise JsonFormatError(f"duplicate document id '{jdoc.doc_id}', "
                                      f"as in document {numbers[jdoc.doc_id]}")
        except JsonFormatError as exc:
            failed[number] = JsonFormatError(f"{in_path}, document {number}: {exc}")
            continue
        jdocs[number], numbers[jdoc.doc_id] = jdoc, number

    def rebuild(pair) -> None:
        document, _ = pair
        number = numbers.pop(document.doc_id, None)
        if number is None:
            return
        try:
            rebuilt = formats.reconstruct_from_json(jdocs[number], document)
        except ValueError as exc:
            failed[number] = exc
            return
        try:
            texts[number] = serialize_conllu([rebuilt])
        except ConlluError as exc:
            unwritable[number] = exc

    apply_each(rebuild, _documents(skeleton))  # holds no error: rebuild keeps them all
    if error is not None:
        raise error
    for doc_id, number in numbers.items():
        failed[number] = TokenMismatchError(f"skeleton has no document '{doc_id}'")
    for errors in (failed, unwritable):
        if errors:
            raise errors[min(errors)]
    return "".join(texts[number] for number in sorted(texts))


def cmd_clean(args: argparse.Namespace) -> dict[Path, str]:
    """A reference document without sentences gives an empty line."""
    from . import formats
    ratio = args.max_cost_ratio
    _require(math.isfinite(ratio) and ratio > 0,
             f"--max-cost-ratio must be finite and greater than 0, got {ratio}")
    _require(args.reference.is_file(), f"reference path {args.reference} is not a readable file")
    _require(args.in_path.is_file(), f"input path {args.in_path} is not a readable file")
    _check_out_file(args.out_file)
    cleaned = []

    def clean(pair) -> None:
        document, line = pair
        cleaned.append("" if line is None else
                       formats.clean_output(document, line, max_cost_ratio=ratio).render())

    apply_each(clean, _with_lines(_documents(args.reference), args.in_path, "reference"))
    return {args.out_file: "\n".join(cleaned) + "\n"}


# ---------------------------------------------------------------------------
# stats / analyze / sample

def _input_specs(paths: list[Path], manifest: Path | None,
                 exempt: bool = False) -> list[DatasetSpec]:
    """The datasets of ``stats`` and ``sample``: input paths, each named by
    its stem, or a manifest."""
    if manifest is None:
        _require(bool(paths), "give input paths or --manifest")
        by_name: dict[str, Path] = {}
        for path in paths:  # a name keys a table row or an output file
            _require(path.stem not in by_name, f"input paths {by_name.get(path.stem)} and "
                     f"{path} have the same name '{path.stem}'")
            by_name[path.stem] = path
        return [DatasetSpec(name=p.stem, gold=p, pred=p, exempt=exempt) for p in paths]
    _require(not paths, "give input paths or --manifest, not both")
    _require(not exempt, "--exempt applies to input paths only, not to --manifest")
    return parse_manifest(manifest)


def cmd_stats(args: argparse.Namespace) -> dict[Path, str]:
    from . import analysis
    specs = _input_specs(args.paths, args.manifest)
    side = "pred" if args.mode == "system" else "gold"
    paths = {spec.name: getattr(spec, side) for spec in specs}
    for name, path in paths.items():
        _require(path is not None, f"dataset '{name}' needs a {side} path")
        _require(path.is_file(), f"stats input {path} is not a readable file")
    _check_out_dir(args.out)
    rows = {name: analysis.corpus_stats(_documents(path)) for name, path in paths.items()}
    if args.mode == "corpus":
        return {args.out / "stats_corpus.tsv": analysis.render_corpus_stats_table(rows)}
    return {args.out / "stats_entities.tsv": analysis.render_entity_stats_table(rows),
            args.out / "stats_mentions.tsv": analysis.render_mention_stats_table(rows),
            args.out / "stats_singletons.tsv": analysis.render_singleton_stats_table(rows),
            args.out / "stats_details.tsv": analysis.render_mention_details_table(rows)}


def cmd_analyze(args: argparse.Namespace) -> dict[Path, str]:
    """Both kinds score without singletons."""
    from . import analysis
    from .matching import MatchRegime
    regime = MatchRegime(args.regime)
    if args.kind == "long-range":
        _require(args.window_tokens >= 1,
                 f"--window-tokens must be at least 1, got {args.window_tokens}")
        _require(args.min_p95 >= 0, f"--min-p95 must be at least 0, got {args.min_p95}")
    else:  # the tag names the output file, which must stay in --out
        _require(_is_plain_file_name(args.tag), f"--tag {args.tag!r} is not a plain file name")
    _require(args.gold.is_file(), f"gold path {args.gold} is not a readable file")
    _require(args.pred.is_file(), f"pred path {args.pred} is not a readable file")
    _check_out_dir(args.out)
    if args.kind == "long-range":
        points = analysis.long_range_curve(
            _documents(args.gold), _documents(args.pred), window_tokens=args.window_tokens,
            min_p95=args.min_p95, sort_key=args.sort_key, regime=regime,
        )
        return {args.out / "long_range_curve.tsv": analysis.render_curve_table(points)}
    with _naming(f"{args.gold}, {args.pred}"):
        prf = analysis.upos_factorized_score(_documents(args.gold), _documents(args.pred),
                                             args.tag, level=args.level, regime=regime)
    return {args.out / f"upos_{args.level}_{args.tag}.tsv":
            analysis.render_upos_table(args.tag, args.level, prf)}


def cmd_sample(args: argparse.Namespace) -> dict[Path, str]:
    from . import analysis
    from .conllu import serialize_conllu
    from .model import Corpus
    specs = _input_specs(args.paths, args.manifest, args.exempt)
    _require(args.cap_words >= 1, f"--cap-words must be at least 1, got {args.cap_words}")
    for spec in specs:
        _require(spec.gold is not None, f"dataset '{spec.name}' needs a gold path to sample")
        _require(spec.gold.is_file(), f"path {spec.gold} is not a readable file")
    _check_out_dir(args.out)
    outputs = {}
    for spec in specs:
        with _naming(spec.gold):
            whole = Corpus.from_pairs(_documents(spec.gold, whole=True))
            sampled = analysis.sample_split(whole, cap_words=args.cap_words,
                                            exempt=spec.exempt, seed=args.seed)
        outputs[args.out / f"{spec.name}.conllu"] = serialize_conllu(sampled)
    return outputs


# ---------------------------------------------------------------------------
# argument handling

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config errors exit 4, not argparse's 2
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corefkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--regime", choices=REGIMES,
                       default="head")
        p.add_argument("--out", type=Path, default=Path("."), metavar="DIR")

    p_score = sub.add_parser("score", help="score predictions against gold data")
    p_score.add_argument("--manifest", type=Path, required=True)
    p_score.add_argument("--singletons", choices=["include", "exclude"], default="exclude")
    p_score.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1")
    common(p_score)
    p_score.set_defaults(run=cmd_score)

    p_convert = sub.add_parser("convert", help="convert between CoNLL-U, plaintext and JSON")
    directions = p_convert.add_subparsers(dest="direction", required=True)
    for direction in ("to-text", "from-text", "to-json", "from-json"):
        p = directions.add_parser(direction)
        p.add_argument("--in", dest="in_path", type=Path, required=True)
        if direction.startswith("from-"):
            p.add_argument("--skeleton", type=Path, required=True,
                           help="the input CoNLL-U file the output annotates")
        p.add_argument("--out-file", type=Path, required=True)
    p_convert.set_defaults(run=cmd_convert)

    p_clean = sub.add_parser("clean", help="repair noisy plaintext output")
    p_clean.add_argument("--reference", type=Path, required=True)
    p_clean.add_argument("--in", dest="in_path", type=Path, required=True)
    p_clean.add_argument("--out-file", type=Path, required=True)
    p_clean.add_argument("--max-cost-ratio", type=float, default=0.5)
    p_clean.set_defaults(run=cmd_clean)

    p_stats = sub.add_parser("stats", help="corpus or system statistics tables")
    p_stats.add_argument("paths", nargs="*", type=Path)
    p_stats.add_argument("--manifest", type=Path, default=None)
    p_stats.add_argument("--mode", choices=["corpus", "system"], default="corpus")
    p_stats.add_argument("--out", type=Path, default=Path("."), metavar="DIR")
    p_stats.set_defaults(run=cmd_stats)

    p_analyze = sub.add_parser("analyze", help="long-range curves and UPOS-factorized scores")
    kinds = p_analyze.add_subparsers(dest="kind", required=True)
    p_range = kinds.add_parser("long-range", help="CoNLL F1 by entity range")
    p_upos = kinds.add_parser("upos", help="CoNLL score restricted to a head UPOS tag")
    for p in (p_range, p_upos):
        p.add_argument("--gold", type=Path, required=True)
        p.add_argument("--pred", type=Path, required=True)
        common(p)
    p_range.add_argument("--window-tokens", type=int, default=50_000, metavar="N")
    p_range.add_argument("--min-p95", type=int, default=100, metavar="N")
    p_range.add_argument("--sort-key", choices=["p95", "max_adjacent_gap"], default="p95")
    p_upos.add_argument("--tag", required=True)
    p_upos.add_argument("--level", choices=["entity", "mention"], default="entity")
    p_analyze.set_defaults(run=cmd_analyze)

    p_sample = sub.add_parser("sample", help="cap splits by sampling complete documents")
    p_sample.add_argument("paths", nargs="*", type=Path)
    p_sample.add_argument("--manifest", type=Path, default=None)
    p_sample.add_argument("--cap-words", type=int, default=25_000, metavar="N")
    p_sample.add_argument("--exempt", action="store_true",
                          help="pass splits through unchanged (positional paths only)")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", type=Path, default=Path("."), metavar="DIR")
    p_sample.set_defaults(run=cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for path, text in args.run(args).items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
    except (ConlluError, PlaintextError, JsonFormatError, ManifestError) as exc:
        print(f"corefkit: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (TokenMismatchError, CleanRefusedError) as exc:
        print(f"corefkit: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        print(f"corefkit: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"corefkit: i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


_shown: set[str] = set()


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Write a warning once, as one line naming the input it is about."""
    where = f"{_reading[-1]}: " if _reading else ""
    text = f"corefkit: warning: {where}{message}\n"
    if text not in _shown:
        _shown.add(text)
        sys.stderr.write(text)  # in one write: --jobs workers share stderr


def entrypoint() -> None:
    """The `corefkit` command, with the cyclic GC paused: the model holds no
    reference cycles (tests/test_gc.py), so collections would only rescan
    every node.  Once ``main`` has returned or raised, the heap is frozen,
    because finalization runs a full collection even with the collector
    off.  ``main`` leaves the caller's collector as it found it.  A warning
    is one line that names the input, with no source location; the filter
    added after any given by -W or PYTHONWARNINGS passes every repeat to
    ``_show_warning``, so that one repeated for another input is shown."""
    gc.disable()
    warnings.showwarning = _show_warning
    warnings.simplefilter("always", append=True)
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entrypoint()
