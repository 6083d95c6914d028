"""The benchmark's workloads: seeded input files plus the CLI commands
that one cycle runs over them.

Both workloads run the same kinds of command, so that every end-to-end
and per-layer metric exists on each; the inputs differ in shape:

short-docs  4 datasets of short documents; ``clean`` over one document per
            edit tier (0.2 %, 2 %, 6 %, 12 %).
long-doc    one long document with the same word count; ``clean`` over it
            at 1 % edits (plus one short document at 6 %).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from gen import (Doc, Vocab, add_noise, gen_gold, gen_pred, gold_clusters, plaintext_tokens,
                 render_conllu, render_plain)

WORKLOADS = ("short-docs", "long-doc")

# Sizes of the full benchmark and of the smoke mode its tests run.
SIZES = {
    "full": {"docs": 4, "doc_words": 500, "aux_words": 600, "tier_tokens": (2000, 2400, 1500, 1500)},
    "smoke": {"docs": 1, "doc_words": 120, "aux_words": 150, "tier_tokens": (150, 150, 150, 150)},
}
# Mean zeros per ordinary sentence of each language-like dataset.  These
# are assumptions, not statistics of the CorefUD treebanks they are named
# after; gen.py adds the dense sentences on top.
DATASET_ZERO_RATES = {"cs-like": 0.40, "pl-like": 0.30, "ca-like": 0.20, "hu-like": 0.12}
# Edit rates of the cleaned documents.  The cleaner widens its alignment
# band in powers of two from 16, so the full-size documents are sized to
# put the expected edits (4, 48, 90, 180; long-doc 96 and 90) mid-band:
# a seed then does not flip the band width, and with it time and memory.
CLEAN_TIERS = (0.002, 0.02, 0.06, 0.12)  # short-docs, one document each
LIGHT_RATE = 0.012  # long-doc
HEAVY_RATE = 0.15   # long-doc's short extra document


@dataclass
class Command:
    name: str          # e.g. "convert.to-text"; the part before "." is the metric group
    argv: list[str]    # arguments after ``python -m corefkit.cli``
    units: int         # gold words (tokens for clean) this command processes
    expect: int = 0    # expected exit code
    outputs: list[str] = field(default_factory=list)  # files whose sha256 is checked
    check: tuple = ()  # extra output check: (kind, argument...)
    timed: bool = True  # False: a correctness probe, run once per untraced run, not timed

    @property
    def group(self) -> str:
        return self.name.split(".")[0]


@dataclass
class Workload:
    name: str
    root: Path
    commands: list[Command]
    counts: dict[str, int]
    tiers: dict[str, tuple[str, int]]  # cleaned reference doc id -> (light|heavy, edits)
    datasets: list[tuple[str, str, str]]  # (name, gold path, pred path) as in the manifest
    gold: str  # the gold file the convert commands read
    expected: dict = field(default_factory=dict)  # check data, keyed by check argument


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _manifest(root: Path, rows: list[tuple[str, str, str]]) -> str:
    stanzas = [f"name = {name}\ngold = {gold}\npred = {pred}\n" for name, gold, pred in rows]
    return _write(root / "manifest.txt", "\n".join(stanzas))


def _noisy_lines(rng, vocab, docs: list[Doc], rates: list[float]):
    """Noisy plaintext, one line per document, and the edits of each."""
    lines, edits = [], []
    for doc, rate in zip(docs, rates):
        noisy, n = add_noise(rng, vocab, plaintext_tokens(doc), rate)
        lines.append(render_plain(noisy))
        edits.append(n)
    return "\n".join(lines) + "\n", edits


def build(name: str, seed: int, root: Path, size: str = "full") -> Workload:
    """Write the workload's inputs under ``root`` and list its commands."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload '{name}'")
    p = SIZES[size]
    rng = random.Random(f"{name}/{seed}")
    vocab = Vocab(rng)
    root.mkdir(parents=True, exist_ok=True)
    out = root / "out"
    out.mkdir(exist_ok=True)
    words = len(DATASET_ZERO_RATES) * p["docs"] * p["doc_words"]
    zero_rates = list(DATASET_ZERO_RATES.values())

    # A wrong-document pair for the refused clean: the reference and the
    # noisy text come from two unrelated documents.
    wrong_ref = gen_gold(rng, vocab, "wrong-ref", p["aux_words"], 0.2)
    wrong_txt = gen_gold(rng, vocab, "wrong-txt", p["aux_words"], 0.2)
    wrong_in = _write(root / "wrong.input.conllu", render_conllu([wrong_ref], coref=False))
    wrong_noisy = _write(root / "wrong.noisy.txt", render_plain(plaintext_tokens(wrong_txt)) + "\n")
    refused = Command("clean.refused", ["clean", "--reference", wrong_in, "--in", wrong_noisy,
                                        "--out-file", str(out / "wrong.clean.txt")],
                      units=wrong_ref.words, expect=3, timed=False)

    if name == "short-docs":
        datasets = {
            ds: [gen_gold(rng, vocab, f"{ds}-d{d + 1}", p["doc_words"], rate)
                 for d in range(p["docs"])]
            for ds, rate in DATASET_ZERO_RATES.items()
        }
    else:
        mean_rate = sum(zero_rates) / len(zero_rates)
        datasets = {"long": [gen_gold(rng, vocab, "long-d1", words, mean_rate, p_new=0.3)]}
    preds = {ds: [gen_pred(rng, d) for d in docs] for ds, docs in datasets.items()}
    rows = []
    for ds, docs in datasets.items():
        gold = _write(root / f"{ds}.gold.conllu", render_conllu(docs))
        pred = _write(root / f"{ds}.pred.conllu", render_conllu(preds[ds]))
        rows.append((ds, gold, pred))
    manifest = _manifest(root, rows)
    gold_docs = [d for docs in datasets.values() for d in docs]
    pred_docs = [d for docs in preds.values() for d in docs]
    gold_all = _write(root / "all.gold.conllu", render_conllu(gold_docs))
    pred_all = _write(root / "all.pred.conllu", render_conllu(pred_docs))

    if name == "short-docs":
        # one document per edit tier, from few to many edits
        clean_docs = [gen_gold(rng, vocab, f"tier{k + 1}", tokens, zero_rates[k])
                      for k, tokens in enumerate(p["tier_tokens"])]
        rates = list(CLEAN_TIERS)
        clean_preds = [gen_pred(rng, d) for d in clean_docs]
    else:
        # the long document at light noise, plus one short heavy-noise document
        heavy = gen_gold(rng, vocab, "heavy-d1", p["aux_words"], 0.2)
        clean_docs = gold_docs + [heavy]
        rates = [LIGHT_RATE] * len(gold_docs) + [HEAVY_RATE]
        clean_preds = pred_docs + [gen_pred(rng, heavy)]
    reference = _write(root / "clean.input.conllu", render_conllu(clean_docs, coref=False))
    noisy_text, edits = _noisy_lines(rng, vocab, clean_preds, rates)
    noisy = _write(root / "clean.noisy.txt", noisy_text)
    clean_tokens = sum(d.words for d in clean_docs)

    commands = [
        Command("score", ["score", "--manifest", manifest, "--out", str(out / "score")],
                units=words, outputs=[str(out / "score" / f) for f in
                                      ("scores.tsv", "scores.jsonl", "conll_variants.tsv")],
                check=("conll", str(out / "score" / "scores.jsonl"))),
        Command("convert.to-text", ["convert", "to-text", "--in", gold_all,
                                    "--out-file", str(out / "gold.txt")],
                units=words, outputs=[str(out / "gold.txt")]),
        Command("convert.from-text", ["convert", "from-text", "--in", str(out / "gold.txt"),
                                      "--skeleton", gold_all,
                                      "--out-file", str(out / "gold.fromtext.conllu")],
                units=words, outputs=[str(out / "gold.fromtext.conllu")],
                check=("clusters", str(out / "gold.fromtext.conllu"), "gold")),
        Command("convert.to-json", ["convert", "to-json", "--in", gold_all,
                                    "--out-file", str(out / "gold.json")],
                units=words, outputs=[str(out / "gold.json")]),
        Command("convert.from-json", ["convert", "from-json", "--in", str(out / "gold.json"),
                                      "--skeleton", gold_all,
                                      "--out-file", str(out / "gold.fromjson.conllu")],
                units=words, outputs=[str(out / "gold.fromjson.conllu")],
                check=("clusters", str(out / "gold.fromjson.conllu"), "gold")),
        Command("clean", ["clean", "--reference", reference, "--in", noisy,
                          "--out-file", str(out / "clean.txt")],
                units=clean_tokens, outputs=[str(out / "clean.txt")],
                check=("surface", str(out / "clean.txt"), "clean")),
        refused,
        Command("stats", ["stats", "--manifest", manifest, "--mode", "system",
                          "--out", str(out / "stats")],
                units=words, outputs=[str(out / "stats" / f"stats_{t}.tsv") for t in
                                      ("entities", "mentions", "singletons", "details")]),
        Command("analyze", ["analyze", "long-range", "--gold", gold_all, "--pred", pred_all,
                            "--out", str(out / "analyze")],
                units=words, outputs=[str(out / "analyze" / "long_range_curve.tsv")]),
    ]
    expected = {"gold": Counter((d.doc_id, k) for d in gold_docs for k in gold_clusters(d)),
                "clean": [[f for s in d.sents for f in s.forms] for d in clean_docs]}
    tiers = {d.doc_id: ("light" if r <= LIGHT_RATE else "heavy", n)
             for d, r, n in zip(clean_docs, rates, edits)}
    counts = {"words": words, "clean_tokens": clean_tokens, "clean_edits": sum(edits),
              "documents": len(gold_docs)}
    return Workload(name, root, commands, counts, tiers, rows, gold_all, expected)
