"""Property-based differential tests against the exhaustive oracles.

Indexes are random and mostly empty: fine per-position partitions (up to
six clusters of seven letters) over a few short sequences, some with letters
outside the alphabet, in fixed and suffix mode.  Every search must equal
``linear_scan_range``/``linear_scan_knn``, and a range search must scan
exactly the non-empty bins whose bound is within the radius.  A saved
index must load back to the same file, bins and answers.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

import fsindex as fx

ALPHA = fx.Alphabet("abcdefg")
COUNTERS = ("nodes_visited", "bins_scanned", "fragments_scanned", "residues_scanned", "hits")

# derandomized, without an example database: the same cases on every run
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def position_spec(draw) -> str:
    letters = draw(st.permutations(ALPHA.letters))
    k = draw(st.integers(2, len(ALPHA) - 1))  # the most a partition may have
    cuts = sorted(draw(st.sets(st.integers(1, len(ALPHA) - 1), min_size=k - 1, max_size=k - 1)))
    bounds = [0, *cuts, len(ALPHA)]
    return ",".join("".join(letters[a:b]) for a, b in zip(bounds, bounds[1:]))


@st.composite
def indexes(draw, suffix_mode=st.booleans()):
    m = draw(st.integers(2, 4))
    scheme = fx.parse_partition(";".join(draw(position_spec()) for _ in range(m)), ALPHA, m)
    seqs = draw(st.lists(st.text(ALPHA.letters + "x", min_size=1, max_size=12),
                         min_size=1, max_size=4))
    db = fx.SequenceDB(records=tuple((f"s{i}", s) for i, s in enumerate(seqs)))
    ds = fx.extract_fragments(db, m, alphabet=ALPHA, suffix_mode=draw(suffix_mode))
    return ds, fx.build(ds, scheme)


def pssm(draw, length: int) -> fx.QueryFunction:
    row = st.lists(st.integers(-6, 20), min_size=len(ALPHA), max_size=len(ALPHA))
    return fx.pssm_query(np.array(draw(st.lists(row, min_size=length, max_size=length))), ALPHA)


def rows(hits, shift: int) -> list:
    return sorted((r.seq_id, r.offset, v + shift) for r, v in hits)


@SETTINGS
@given(case=indexes(), data=st.data(), radius=st.integers(-3, 60))
def test_range_hits_and_counters(case, data, radius):
    ds, index = case
    f = pssm(data.draw, index.m)
    q = fx.normalize(f)
    eps = radius - q.shift
    hits, stats = fx.range_search(index, q, eps)
    assert rows(hits, q.shift) == rows(fx.linear_scan_range(ds, f, radius), 0)

    lbt = fx.lower_bound_table(q, index.scheme)
    bins = [
        u for u in range(index.n_bins)
        if index.bin_size(u) and lbt.bound_of(index.scheme.unrank(u)) <= eps
    ]
    assert stats.bins_scanned == len(bins)
    assert stats.fragments_scanned == sum(index.bin_size(u) for u in bins)

    traced_hits, traced = fx.range_search(index, q, eps, trace=fx.Tracer())
    assert rows(traced_hits, 0) == rows(hits, 0)
    assert [getattr(traced, c) for c in COUNTERS] == [getattr(stats, c) for c in COUNTERS]


@SETTINGS
@given(case=indexes(suffix_mode=st.just(True)), data=st.data(), radius=st.integers(-3, 80))
def test_longer_and_shorter_queries(case, data, radius):
    ds, index = case
    length = data.draw(st.sampled_from([n for n in range(1, index.m + 4) if n != index.m]))
    f = pssm(data.draw, length)
    q = fx.normalize(f)
    search = fx.long_query_search if length > index.m else fx.short_query_search
    hits, stats = search(index, q, radius - q.shift)
    assert rows(hits, q.shift) == rows(fx.linear_scan_range(ds, f, radius), 0)

    counters = [getattr(stats, c) for c in COUNTERS]
    for trace in (None, fx.Tracer()):
        same_hits, same = fx.range_search(index, q, radius - q.shift, trace=trace)
        assert rows(same_hits, 0) == rows(hits, 0)
        assert [getattr(same, c) for c in COUNTERS] == counters


@SETTINGS
@given(case=indexes(), data=st.data(), k=st.integers(1, 6))
def test_knn_lists(case, data, k):
    ds, index = case
    f = pssm(data.draw, index.m)
    q = fx.normalize(f)
    hits, _ = fx.knn_search(index, q, k)
    got = [(v + q.shift, r.seq_id, r.offset) for r, v in hits]
    want = [(v, r.seq_id, r.offset) for r, v in fx.linear_scan_knn(ds, f, k)]
    assert got == want


@SETTINGS
@given(case=indexes(), data=st.data(), radius=st.integers(-3, 60), k=st.integers(1, 6))
def test_save_load_search(case, data, radius, k):
    ds, index = case
    with tempfile.TemporaryDirectory() as tmp:
        first, again = os.path.join(tmp, "a.fsi"), os.path.join(tmp, "b.fsi")
        index.save(first)
        loaded = fx.load(first, ds.db)
        loaded.save(again)
        with open(first, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()

    ranks = index.scheme.ranks(ds.letter_matrix())
    sizes = np.bincount(ranks, minlength=index.n_bins)
    for ix in (index, loaded):
        assert [ix.bin_size(u) for u in range(ix.n_bins)] == sizes.tolist()
        assert ix.empty_bins() == int((sizes == 0).sum())
        for j, w in enumerate(index.scheme.radix_weights):
            bits = np.unpackbits(ix.levels[j].view(np.uint8), bitorder="little")
            assert np.flatnonzero(bits).tolist() == np.unique(ranks // w).tolist()

    q = fx.normalize(pssm(data.draw, index.m))
    for search in (lambda ix: fx.range_search(ix, q, radius - q.shift),
                   lambda ix: fx.knn_search(ix, q, k)):
        (hits, stats), (same_hits, same) = search(index), search(loaded)
        assert list(same_hits) == list(hits)
        assert [getattr(same, c) for c in COUNTERS] == [getattr(stats, c) for c in COUNTERS]
