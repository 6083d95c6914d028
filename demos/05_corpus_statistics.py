"""Corpus-level statistics tables.

Builds two small synthetic datasets and prints the dataset overview
(documents, sentences, words, empty nodes, entity and mention figures
with the p95 entity range) plus the system-style breakdown with length
distributions, w/empty, w/gap, non-treelet shares and the head UPOS
distribution.
"""

import random

from corefkit import corpus_stats
from corefkit.analysis import (
    render_corpus_stats_table,
    render_entity_stats_table,
    render_mention_details_table,
    render_mention_stats_table,
)

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
from helpers import random_gold  # noqa: E402  (reuses the synthetic generator)


def main() -> None:
    compact = random_gold(random.Random(12), n_docs=4, entities_per_doc=(3, 6))
    sparse = random_gold(random.Random(34), n_docs=2, entities_per_doc=(2, 3))
    rows = {
        "compact": corpus_stats(compact),
        "sparse": corpus_stats(sparse),
    }

    print("dataset overview (singleton entities excluded, per the main table):")
    print(render_corpus_stats_table(rows))

    for name, stats in rows.items():
        print(f"{name}: p95 entity range = {stats.entities.p95_range}")

    print("\nentity view including singletons, with the length distribution:")
    print(render_entity_stats_table(rows))

    print("non-singleton mention lengths (0 = pure zero mentions):")
    print(render_mention_stats_table(rows))

    print("mention structure and head UPOS distribution:")
    print(render_mention_details_table(rows))


if __name__ == "__main__":
    main()
