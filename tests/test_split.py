"""Phases split across CPUs: the same hits, order, counters and traces.

``split_small`` lowers ``search._MIN_PART`` to a few elements and fakes
three CPUs, so every sweep step, block conversion and scan of these small
indexes runs in two or three pieces, on threads, whatever machine runs
the tests.  Every result must equal the unsplit run's.
"""

import sys
import threading

import numpy as np
import pytest

import fsindex as fx
from conftest import split_small
from fsindex import search

COUNTERS = (
    "nodes_visited", "bins_scanned", "fragments_scanned", "residues_scanned", "hits",
    "sweeps", "scan_chunks", "keys_scanned",
)
PHASES = {"children", "spans", "scan"}  # the piece functions of the three split phases


def counters(stats) -> list[int]:
    return [getattr(stats, c) for c in COUNTERS]


def same_run(run, phases=PHASES, min_part=4):
    """The results of ``run()`` unsplit and split; asserts that each of
    ``phases`` ran in pieces, three at least once."""
    plain = run()
    with split_small(min_part) as calls:
        split = run()
    assert {name for name, parts in calls if parts > 1} >= phases
    assert max(parts for _, parts in calls) == 3
    return plain, split


@pytest.fixture(scope="module")
def blosum():
    s = fx.load_builtin_matrix("BLOSUM62")
    scheme = fx.parse_partition("TSAN,ILVM,KR,DEQ,WFYH,GPC", s.alphabet, 4)
    return s, fx.distance_from_score(s), scheme


@pytest.fixture(scope="module")
def db(blosum):
    rng = np.random.default_rng(5150)
    letters = blosum[0].alphabet.letters
    return fx.SequenceDB(records=tuple(
        (f"s{i}", "".join(letters[c] for c in rng.integers(0, len(letters), 60)))
        for i in range(60)
    ))


@pytest.fixture(scope="module")
def fixed(db, blosum):
    return fx.build(fx.extract_fragments(db, 4), blosum[2])


@pytest.fixture(scope="module")
def suffix(db, blosum):
    return fx.build(fx.extract_fragments(db, 4, suffix_mode=True), blosum[2])


@pytest.fixture(scope="module")
def redundant(db, blosum):
    """Every sequence of ``db`` two or three times, so that keys span
    several rows and the scan's pieces end on such keys."""
    copies = fx.SequenceDB(records=tuple(
        (f"{name}c{c}", seq) for i, (name, seq) in enumerate(db.records) for c in range(3 - i % 2)
    ))
    return {
        "fixed": fx.build(fx.extract_fragments(copies, 4), blosum[2]),
        "suffix": fx.build(fx.extract_fragments(copies, 4, suffix_mode=True), blosum[2]),
    }


def query(blosum, index, text, k=300):
    """The normalized distance query of ``text`` and its ``k``-NN radius."""
    f = fx.distance_query(blosum[1], text)
    q = fx.normalize(f)
    return q, fx.linear_scan_knn(index.dataset, f, k).values()[-1] - q.shift


@pytest.mark.parametrize("text, which", [
    ("WKLM", "fixed"), ("HEAG", "fixed"), ("WKLMPR", "suffix"), ("DWKLMG", "suffix"),
    ("WK", "suffix"), ("HEA", "suffix"),
])
def test_range_search(text, which, blosum, request):
    index = request.getfixturevalue(which)
    q, eps = query(blosum, index, text)
    # a short query's two steps have too few parents to split
    phases = PHASES - {"children"} if len(text) < 3 else PHASES
    (hits, stats), (same_hits, same) = same_run(lambda: fx.range_search(index, q, eps), phases)
    assert len(hits) > 0
    assert list(same_hits) == list(hits)
    assert counters(same) == counters(stats)


@pytest.mark.parametrize("text", ["WKLM", "CCYW"])
def test_traced_range_search(text, blosum, fixed):
    q, eps = query(blosum, fixed, text)

    def run():
        trace = fx.Tracer()
        hits, stats = fx.range_search(fixed, q, eps, trace=trace)
        return hits, stats, sorted(trace.scanned), sorted(trace.pruned)

    plain, split = same_run(run)
    assert list(split[0]) == list(plain[0])
    assert counters(split[1]) == counters(plain[1])
    assert split[2:] == plain[2:]
    assert plain[3]  # something was pruned


@pytest.mark.parametrize("k", [1, 10, 100])
def test_knn_search(k, blosum, fixed):
    q, _ = query(blosum, fixed, "WKLM")
    # split at four elements: at each k the last sweep accepts more new bins
    (hits, stats), (same_hits, same) = same_run(lambda: fx.knn_search(fixed, q, k), min_part=2)
    assert len(hits) == k
    assert list(same_hits) == list(hits)
    assert counters(same) == counters(stats)


def test_process_bin_and_flat_search(blosum, fixed):
    q, eps = query(blosum, fixed, "WKLM")
    sizes = np.diff(fixed.bins)
    u = int(fixed.scheme.ranks(fixed.letters[fixed.bins[np.argmax(sizes)]][None])[0])
    assert fixed.bin_size(u) >= 12  # three pieces of four rows
    (hits, stats), (same_hits, same) = same_run(
        lambda: fx.process_bin(fixed, u, q, eps + 10), {"scan"}
    )
    assert list(same_hits) == list(hits) and counters(same) == counters(stats)

    flat = fx.flat_build(fixed.dataset)
    (hits, stats), (same_hits, same) = same_run(
        lambda: fx.flat_search(flat, q, eps), {"scan"}
    )
    assert len(hits) > 0
    assert list(same_hits) == list(hits) and counters(same) == counters(stats)


@pytest.mark.parametrize("kind, text, which", [
    ("range", "WKLM", "fixed"), ("range", "HEAG", "fixed"), ("range", "WKLMPR", "suffix"),
    ("range", "WK", "suffix"), ("knn", "WKLM", "fixed"), ("flat", "HEAG", "fixed"),
])
def test_redundant_rows_cut_inside_runs(kind, text, which, blosum, redundant, monkeypatch):
    index = redundant[which]
    q, eps = query(blosum, index, text)
    flat = fx.flat_build(index.dataset)
    run = {
        "range": lambda: fx.range_search(index, q, eps),
        "knn": lambda: fx.knn_search(index, q, 100),
        "flat": lambda: fx.flat_search(flat, q, eps),
    }[kind]
    starts = []  # the first key of each kernel call
    kernel = search._scan_rows

    def spy(index_, qtab, idx, eval_len, eps_):
        if idx.size:
            starts.append(int(idx[0]))
        return kernel(index_, qtab, idx, eval_len, eps_)

    monkeypatch.setattr(search, "_scan_rows", spy)
    (hits, stats), (same_hits, same) = same_run(run, {"scan"}, min_part=2 if kind == "knn" else 4)
    assert len(hits) > 0
    assert list(same_hits) == list(hits)
    assert counters(same) == counters(stats)
    assert stats.keys_scanned < 0.75 * stats.fragments_scanned  # one evaluation per key
    scanned = flat if kind == "flat" else index
    sizes = np.diff(scanned.key_starts.astype(np.int64))
    assert any(k and sizes[k - 1] > 1 for k in starts)  # a piece began after a key of several rows


def test_piece_count_rule(monkeypatch):
    # the count function only: no thread starts
    monkeypatch.setattr(search, "_cpus", lambda: 1000)
    low = search._MIN_PART
    for size in [0, 1, low - 1, low, 2 * low - 1, 2 * low, 7 * low + 3, 999 * low, 10**4 * low]:
        parts = search._parts(size)
        assert 1 <= parts <= min(1000, max(1, size // low))
    assert search._parts(2 * low - 1) == 1 and search._parts(2 * low) == 2
    assert search._parts(10**4 * low) == 1000
    monkeypatch.setattr(search, "_cpus", lambda: 1)
    assert search._parts(10**4 * low) == 1
    monkeypatch.undo()
    assert 1 <= search._parts(10**4 * low) <= search._cpus()


def test_split_orders_pieces_and_reraises():
    with split_small(min_part=2, cpus=3):
        assert search._split(10, lambda lo, hi: (lo, hi)) == [(0, 3), (3, 6), (6, 10)]
        assert search._split(3, lambda lo, hi: (lo, hi)) == [(0, 3)]

        def work(lo, hi):
            if lo:
                raise ValueError(f"piece at {lo}")
            return lo

        before = threading.active_count()
        with pytest.raises(ValueError, match="piece at"):
            search._split(10, work)
        assert threading.active_count() == before


def test_split_starts_no_more_pieces_than_items():
    # a sweep step splits by cluster rows: heavy items, and few of them
    with split_small(min_part=2, cpus=3):
        assert search._split(2, lambda lo, hi: (lo, hi), per_item=10**6) == [(0, 1), (1, 2)]
        assert search._split(1, lambda lo, hi: (lo, hi), per_item=10**6) == [(0, 1)]
        assert search._split(0, lambda lo, hi: (lo, hi), per_item=10**6) == [(0, 0)]


def test_concurrent_split_searches(blosum, fixed):
    # searches sharing one index, each splitting its phases onto threads
    q, eps = query(blosum, fixed, "WKLM")
    want = list(fx.range_search(fixed, q, eps)[0])
    got = []

    def reader():
        for _ in range(5):
            got.append(list(fx.range_search(fixed, q, eps)[0]) == want)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with split_small():
            readers = [threading.Thread(target=reader) for _ in range(4)]
            for t in readers:
                t.start()
            for t in readers:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers)
    assert got == [True] * 20
