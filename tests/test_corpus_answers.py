"""Hits and counters on the synthetic corpus equal a committed record.

``data/corpus_answers.json`` holds, for range, suffix-mode and k-NN
searches on the 1.1M-fragment corpus, each hit list's digest and the five
``SearchStats`` counters (see ``corpus_answers.py``, which wrote it).  A
change to the traversal or the scan that keeps the algorithm must keep
every case: the same hits, in the same k-NN order, found with the same
nodes, bins, fragments and residues.
"""

import json
from pathlib import Path

import pytest

from corpus_answers import answer, corpus_indexes, distance_matrix

RECORD = json.loads((Path(__file__).parent / "data" / "corpus_answers.json").read_text())


@pytest.fixture(scope="module")
def corpus():
    return corpus_indexes(), distance_matrix()


def test_record_covers_every_workload():
    kinds = {(c["index"], c["search"], c.get("k"), len(c["query"])) for c in RECORD}
    assert {k for _, _, k, _ in kinds} == {None, 10, 100}
    assert {n for ix, _, _, n in kinds if ix == "suffix"} == set(range(6, 13))
    assert sum(c["search"] == "range" and c["index"] == "fixed" for c in RECORD) == 40


def test_answers_and_counters_match_record(corpus):
    indexes, d = corpus
    changed = [c for c in RECORD if answer(indexes, d, c) != c]
    assert not changed, f"{len(changed)} of {len(RECORD)} cases differ, first {changed[0]}"
