"""Long-range analysis and split sampling.

Scores every document separately, tiles documents into token-capped
windows sorted by their p95 entity range, factorizes the primary score
by head UPOS, and finally caps a split by sampling whole documents with
a fixed seed.
"""

import random
import sys
import warnings
from pathlib import Path

from corefkit import (
    MetricId,
    evaluate_corpus,
    sample_split,
    upos_factorized_score,
)
from corefkit.analysis import long_range_curve, render_curve_table
from corefkit.model import word_offsets

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
from helpers import random_gold, recluster  # noqa: E402


def main() -> None:
    warnings.simplefilter("ignore")
    gold = random_gold(random.Random(7), n_docs=8, n_sents=(3, 5),
                       entities_per_doc=(3, 6))
    pred = recluster(random.Random(8), gold)

    overall = evaluate_corpus(gold, pred)[MetricId.CONLL]
    print(f"overall CoNLL F1: {100 * overall.f1:.2f}")

    print("\nper-window scores for documents with p95 range > 4 words,")
    print("tiled into windows of at most 60 words:")
    points = long_range_curve(gold, pred, window_tokens=60, min_p95=4)
    print(render_curve_table(points))

    for tag in ("NOUN", "PRON", "VERB"):
        prf = upos_factorized_score(gold, pred, tag, level="entity")
        print(f"entities with a {tag:5s} head: CoNLL F1 = {100 * prf.f1:6.2f}")

    total = sum(word_offsets(d)[-1] for d, _ in gold)
    sampled = sample_split(gold, cap_words=total // 2, seed=11)
    print(f"\nsampled split: {len(sampled)} of {len(gold)} documents, "
          f"{sum(word_offsets(d)[-1] for d, _ in sampled)} of {total} words")
    again = sample_split(gold, cap_words=total // 2, seed=11)
    print(f"same seed, same selection: "
          f"{[d.doc_id for d, _ in sampled] == [d.doc_id for d, _ in again]}")
    exempt = sample_split(gold, cap_words=total // 2, exempt=True, seed=11)
    print(f"exempt split untouched: {exempt is gold}")


if __name__ == "__main__":
    main()
