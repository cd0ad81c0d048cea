"""Property-based differential tests against the exhaustive oracles.

Indexes are random and mostly empty: fine per-position partitions (up to
six clusters of seven letters) over a few short sequences, some with letters
outside the alphabet, in fixed and suffix mode.  Every search must equal
``linear_scan_range``/``linear_scan_knn``, which must in turn equal a
plain loop over the occurrences, and a range search must scan
exactly the non-empty bins whose bound is within the radius.  The
traversal must evaluate, scan and prune the nodes a recursive walk of the
implicit tree does.  A saved index must load back to the same file, bins
and answers.
"""

import os
import tempfile

import numpy as np
import pytest
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


def tree_walk(lbt, scheme, filled, depth: int, eps: int):
    """(bounds evaluated, scanned, pruned) of a recursive walk of the implicit
    tree: each child substitutes one non-root cluster at a position after its
    parent's last substitution.  ``filled`` holds every digit prefix of the
    non-empty bins."""
    root = tuple(lbt.root_digits)
    scanned, pruned = [], []
    evaluated = 1

    def visit(node, bound, first):
        nonlocal evaluated
        scanned.append((node, bound))
        for j in range(first, depth):
            children = [node[:j] + (r,) + node[j + 1:]
                        for r in range(scheme.sizes[j]) if r != root[j]]
            if bound + lbt.second_min[j] > eps:  # no child can be within the radius
                pruned.extend((c, lbt.bound_of(c)) for c in children)
                continue
            for c in children:
                evaluated += 1
                b = lbt.bound_of(c)
                if b <= eps and c[:j + 1] in filled:
                    visit(c, b, j + 1)
                else:
                    pruned.append((c, b))

    bound = lbt.bound_of(root)
    if bound <= eps:
        visit(root, bound, 0)
    else:
        pruned.append((root, bound))
    return evaluated, sorted(scanned), sorted(pruned)


@SETTINGS
@given(case=indexes(), data=st.data(), eps=st.integers(-2, 50))
def test_traversal_matches_tree_walk(case, data, eps):
    ds, index = case
    lengths = range(1, index.m + 3) if index.suffix_mode else [index.m]
    q = fx.normalize(pssm(data.draw, data.draw(st.sampled_from(lengths))))
    depth = min(q.m, index.m)
    filled = set()  # every digit prefix of every non-empty bin
    for u in np.unique(index.scheme.ranks(ds.letter_matrix())).tolist():
        digits = tuple(index.scheme.unrank(u))
        filled.update(digits[:j] for j in range(1, index.m + 1))
    lbt = fx.lower_bound_table(q, index.scheme, depth=depth)
    evaluated, scanned, pruned = tree_walk(lbt, index.scheme, filled, depth, eps)

    trace = fx.Tracer()
    _, stats = fx.range_search(index, q, eps, trace=trace)
    assert stats.nodes_visited == evaluated
    assert sorted(trace.scanned) == scanned
    assert sorted(trace.pruned) == pruned


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


@pytest.mark.parametrize("suffix_mode", [False, True])
@SETTINGS
@given(data=st.data(), radius=st.integers(-3, 80), k=st.integers(1, 6))
def test_oracles_match_plain_loop(suffix_mode, data, radius, k):
    # the oracles against code they share nothing with: one evaluation per
    # occurrence of its own text
    ds, _ = data.draw(indexes(suffix_mode=st.just(suffix_mode)))
    f = pssm(data.draw, data.draw(st.integers(1, ds.m + 3 if ds.suffix_mode else ds.m)))
    every = []
    for sid, off in zip(ds.sids.tolist(), ds.offs.tolist()):
        text = ds.fragment_text(sid, off, f.m)
        if len(text) == f.m and all(c in ALPHA for c in text):
            every.append((f.evaluate(text), sid, off))
    every.sort()
    assert rows(fx.linear_scan_range(ds, f, radius), 0) == sorted(
        (sid, off, v) for v, sid, off in every if v <= radius
    )
    assert [(v, r.seq_id, r.offset) for r, v in fx.linear_scan_knn(ds, f, k)] == every[:k]


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
