"""Hits and counters on the synthetic corpus equal a committed record.

``data/corpus_answers.json`` holds, for range, suffix-mode and k-NN
searches on the 1.1M-fragment corpus, each hit list's digest and the five
``SearchStats`` counters (see ``corpus_answers.py``, which wrote it).  A
change to the traversal or the scan that keeps the algorithm must keep
every case: the same hits, in the same k-NN order, found with the same
nodes, bins, fragments and residues.  With the sweep's 32-bit ranks and
bounds kept in int64, every case must also come out as it does narrow.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import fsindex as fx
from conftest import wide_types
from corpus_answers import COUNTERS, answer, corpus_indexes, distance_matrix, run_case
from fsindex import search

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


def test_wide_types_give_the_same_answers(corpus):
    # the same hits in the same row order, and every counter, narrow and wide
    indexes, d = corpus
    q = fx.normalize(fx.distance_query(d, RECORD[0]["query"]))
    assert sweep_dtypes(indexes["fixed"], q) == {np.dtype(np.int32)}
    narrow = [run_case(indexes, d, case) for case in RECORD]
    with wide_types():
        assert sweep_dtypes(indexes["fixed"], q) == {np.dtype(np.int64)}
        wide = [run_case(indexes, d, case) for case in RECORD]
    for case, (hits, stats), (wide_hits, wide_stats) in zip(RECORD, narrow, wide):
        assert all(
            np.array_equal(getattr(hits, a), getattr(wide_hits, a)) for a in ("sids", "offs", "vals")
        ), case
        assert counters(stats) == counters(wide_stats), case


def sweep_dtypes(index, q) -> set:
    """The types of the ranks and bounds the sweep returns for ``q``'s
    lower-bound table, whose making picks them."""
    lbt = fx.lower_bound_table(q, index.scheme)
    ranks, bounds = search._sweep(lbt, index, 50, fx.SearchStats())
    return {ranks.dtype, bounds.dtype}


def counters(stats) -> list[int]:
    return [getattr(stats, c) for c in (*COUNTERS, "keys_scanned", "sweeps", "scan_chunks")]
