"""Property-based differential tests against the exhaustive oracles.

Indexes are random and mostly empty: fine per-position partitions (up to
six clusters of seven letters) over a few short sequences, most with a letter
outside the alphabet after a run of valid ones, in fixed and suffix mode.
Every search must equal ``linear_scan_range``/``linear_scan_knn``, which
must in turn equal a plain loop over the occurrences; k-NN at every
length up to the index's on suffix-mode indexes.  A range search,
at any query length, must scan exactly the non-empty bins whose bound is
within the radius and evaluate the residues the sequential scan of those
bins does.  So must searches with a PSSM whose bounds sum past 2**31,
which the sweep keeps in int64.  The traversal must evaluate, scan and
prune the nodes a recursive walk of the implicit tree does.  A saved
index must load back to the same file, bins and answers.  The build's
sorted run, on random alphabets of up to 255 letters and keys of more
than 64 bits, must equal Python's ``sorted``, and the radix sort under it
a stable sort of its key words (``np.lexsort``).  On datasets of repeated
sequences, the letters stored once per key must expand along the lcp to
the sorted run's letters, with no repeated key row within a bin, and each
key's record must hold the per-key arrays format 3 derived from the lcp.
A hit list's sequence ordinals and offsets, derived from its positions on
first use, must equal a binary search per position, and (value, position)
order must be (value, seq_id, offset) order.  Range and k-NN searches
with distance queries on random alphabets of 3 to 12 letters, each with
a random distance table, must equal the oracles too.
"""

import bisect

import dataclasses
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fsindex as fx
from fsindex import core, search
from conftest import reference_span_scan, row_letters

ALPHA = fx.Alphabet("abcdefg")
MAX_M = 4  # the longest fragments drawn
COUNTERS = ("nodes_visited", "bins_scanned", "fragments_scanned", "residues_scanned", "hits")

# derandomized, without an example database: the same cases on every run
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def position_spec(draw, alpha: fx.Alphabet = ALPHA) -> str:
    letters = draw(st.permutations(alpha.letters))
    k = draw(st.integers(2, len(alpha) - 1))  # the most a partition may have
    cuts = sorted(draw(st.sets(st.integers(1, len(alpha) - 1), min_size=k - 1, max_size=k - 1)))
    bounds = [0, *cuts, len(alpha)]
    return ",".join("".join(letters[a:b]) for a, b in zip(bounds, bounds[1:]))


@st.composite
def sequence(draw, alpha: fx.Alphabet = ALPHA) -> str:
    """A short sequence; in most, an invalid letter past a run of at least
    ``MAX_M`` valid ones, so that windows longer than the fragments often
    hold a clean key followed by a letter that drops them."""
    text = draw(st.text(alpha.letters + "x", min_size=1, max_size=12))
    if draw(st.integers(0, 3)):
        at = draw(st.integers(0, len(text)))
        run = draw(st.text(alpha.letters, min_size=MAX_M, max_size=MAX_M + 2))
        text = text[:at] + run + "x" + text[at:]
    return text


@st.composite
def indexes(draw, suffix_mode=st.booleans(), alpha: fx.Alphabet = ALPHA):
    m = draw(st.integers(2, MAX_M))
    scheme = fx.parse_partition(";".join(draw(position_spec(alpha)) for _ in range(m)), alpha, m)
    seqs = draw(st.lists(sequence(alpha), min_size=1, max_size=4))
    db = fx.SequenceDB(records=tuple((f"s{i}", s) for i, s in enumerate(seqs)))
    suffix = draw(suffix_mode)
    floor = draw(st.integers(1, m)) if suffix else 1  # above 1, the shortest tails are absent
    ds = fx.extract_fragments(db, m, alphabet=alpha, suffix_mode=suffix, floor=floor)
    return ds, fx.build(ds, scheme)


def pssm(draw, length: int) -> fx.QueryFunction:
    row = st.lists(st.integers(-6, 20), min_size=len(ALPHA), max_size=len(ALPHA))
    return fx.pssm_query(np.array(draw(st.lists(row, min_size=length, max_size=length))), ALPHA)


def rows(hits, shift: int) -> list:
    return sorted((r.seq_id, r.offset, v + shift) for r, v in hits)


def span_residues(index, q, eps: int, bins) -> int:
    """Residues the sequential scan evaluates over ``bins``, one span each."""
    return sum(reference_span_scan(index, *index.bin_slice(u), q, eps)[1] for u in bins)


@SETTINGS
@given(case=indexes(), data=st.data(), radius=st.integers(-3, 60))
def test_range_hits_and_counters(case, data, radius):
    ds, index = case
    f = pssm(data.draw, index.m)
    q = fx.normalize(f)
    if data.draw(st.booleans(), label="radius around the k-th value"):
        knn = fx.linear_scan_knn(ds, f, data.draw(st.integers(1, 12), label="k")).values()
        if knn:
            radius = knn[-1] + data.draw(st.integers(-1, 1), label="offset from the k-th value")
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
    assert stats.residues_scanned == span_residues(index, q, eps, bins)

    traced_hits, traced = fx.range_search(index, q, eps, trace=fx.Tracer())
    assert rows(traced_hits, 0) == rows(hits, 0)
    assert [getattr(traced, c) for c in COUNTERS] == [getattr(stats, c) for c in COUNTERS]


def parts(q, m: int, eps: int) -> list:
    """(start, normalized part query, part radius) of each part a query
    longer than ``m`` is cut into; a shorter query is its only part."""
    plan = search._part_plan(q.m, m, eps) if q.m > m else [(0, q.m, eps)]
    return [
        (lo, fx.NormalizedQuery(fx.QueryFunction(q.alphabet, q.base.tables[lo:hi]), 0), a)
        for lo, hi, a in plan
    ]


def checked_windows(ds, q, m: int, eps: int) -> set:
    """The windows a query longer than ``m`` checks in full, brute force:
    those its parts' hits propose, and for every part but the first, those
    whose part would start at a valid letter where no fragment starts;
    each lies inside its sequence and has all its letters valid."""
    stored = set(zip(ds.sids.tolist(), ds.offs.tolist()))
    out = set()
    for i, (lo, part, a) in enumerate(parts(q, m, eps)):
        starts = {(r.seq_id, r.offset) for r, _ in fx.linear_scan_range(ds, part.base, a)}
        if i:
            starts |= {
                (sid, off) for sid, (_, text) in enumerate(ds.db.records)
                for off, c in enumerate(text) if c in ALPHA and (sid, off) not in stored
            }
        out |= {
            (sid, off - lo) for sid, off in starts
            if off >= lo and off - lo + q.m <= len(ds.db.residues(sid))
            and all(c in ALPHA for c in ds.db.residues(sid)[off - lo:off - lo + q.m])
        }
    return out


@SETTINGS
@given(case=indexes(suffix_mode=st.just(True)), data=st.data(), radius=st.integers(-3, 80))
def test_longer_and_shorter_queries(case, data, radius):
    ds, index = case
    length = data.draw(st.sampled_from([n for n in range(1, index.m + 4) if n != index.m]))
    f = pssm(data.draw, length)
    q = fx.normalize(f)
    eps = radius - q.shift
    search_ = fx.long_query_search if length > index.m else fx.short_query_search
    hits, stats = search_(index, q, eps)
    assert rows(hits, q.shift) == rows(fx.linear_scan_range(ds, f, radius), 0)

    # each part is bounded on its own positions at its own radius; a longer
    # query then checks each candidate window in full: a fragment and q.m residues
    bins = fragments = residues = 0
    for _, part, a in parts(q, index.m, eps):
        lbt = fx.lower_bound_table(part, index.scheme, depth=part.m)
        part_bins = [
            u for u in range(index.n_bins)
            if index.bin_size(u) and lbt.bound_of(index.scheme.unrank(u)[:part.m]) <= a
        ]
        bins += len(part_bins)
        fragments += sum(index.bin_size(u) for u in part_bins)
        residues += span_residues(index, part, a, part_bins)
    if length > index.m:
        windows = len(checked_windows(ds, q, index.m, eps))
        fragments += windows
        residues += windows * length
    assert stats.bins_scanned == bins
    assert stats.fragments_scanned == fragments
    assert stats.residues_scanned == residues
    assert stats.sweeps == stats.scan_chunks == len(parts(q, index.m, eps))

    counters = [getattr(stats, c) for c in COUNTERS]
    for trace in (None, fx.Tracer()):
        same_hits, same = fx.range_search(index, q, eps, trace=trace)
        assert rows(same_hits, 0) == rows(hits, 0)
        assert [getattr(same, c) for c in COUNTERS] == counters


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), m=st.integers(1, 12), eps=st.integers(-3, 80))
def test_part_plan(data, m, eps):
    length = data.draw(st.integers(m + 1, 3 * m), label="query length")
    plan = search._part_plan(length, m, eps)
    assert len(plan) == max(2, -(-length // m))
    assert [lo for lo, _, _ in plan] == [0, *(hi for _, hi, _ in plan[:-1])]  # contiguous
    assert plan[-1][1] == length  # covering the query
    assert all(1 <= hi - lo <= m for lo, hi, _ in plan)
    assert sum(a + 1 for _, _, a in plan) > eps


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
    filled = set()  # every digit prefix of every non-empty bin
    for u in np.unique(index.scheme.ranks(ds.letter_matrix())).tolist():
        digits = tuple(index.scheme.unrank(u))
        filled.update(digits[:j] for j in range(1, index.m + 1))
    # one walk per part, at the part's depth and radius
    evaluated, scanned, pruned = 0, [], []
    for _, part, a in parts(q, index.m, eps):
        lbt = fx.lower_bound_table(part, index.scheme, depth=part.m)
        walk = tree_walk(lbt, index.scheme, filled, part.m, a)
        evaluated += walk[0]
        scanned += walk[1]
        pruned += walk[2]

    trace = fx.Tracer()
    _, stats = fx.range_search(index, q, eps, trace=trace)
    assert stats.nodes_visited == evaluated
    assert len(trace._searches) == len(parts(q, index.m, eps))  # one record per part
    assert sorted(trace.scanned) == sorted(scanned)
    assert sorted(trace.pruned) == sorted(pruned)


@SETTINGS
@given(case=indexes(), data=st.data(), k=st.integers(1, 6))
def test_knn_lists(case, data, k):
    ds, index = case
    f = pssm(data.draw, data.draw(st.integers(1, index.m)) if index.suffix_mode else index.m)
    q = fx.normalize(f)
    hits, _ = fx.knn_search(index, q, k)
    got = [(v + q.shift, r.seq_id, r.offset) for r, v in hits]
    want = [(v, r.seq_id, r.offset) for r, v in fx.linear_scan_knn(ds, f, k)]
    assert got == want


@SETTINGS
@given(case=indexes(), data=st.data(), k=st.integers(1, 6))
def test_knn_all_ties_and_one_scan_per_sweep(case, data, k):
    # every occurrence within the k-th value, bins whose bound equals it too
    ds, index = case
    f = pssm(data.draw, data.draw(st.integers(1, index.m)) if index.suffix_mode else index.m)
    q = fx.normalize(f)
    hits, stats = fx.knn_search(index, q, k, all_ties=True)
    assert stats.scan_chunks == stats.sweeps
    kth = max(fx.linear_scan_knn(ds, f, k).values(), default=0)  # no value: no fragment
    assert rows(hits, q.shift) == rows(fx.linear_scan_range(ds, f, kth), 0)


@pytest.mark.parametrize("suffix_mode", [False, True])
@SETTINGS
@given(data=st.data(), k=st.integers(1, 12))
def test_bounds_past_int32(suffix_mode, data, k):
    # every letter but one per position costs 2**31 more, so the bounds of
    # the non-root clusters sum past int32 and the sweep keeps them in int64
    ds, index = data.draw(indexes(suffix_mode=st.just(suffix_mode)))
    f = pssm(data.draw, index.m)
    cheap = data.draw(st.lists(st.integers(0, len(ALPHA) - 1), min_size=index.m, max_size=index.m))
    tables = f.tables + 2**31
    tables[np.arange(index.m), cheap] -= 2**31
    f = fx.pssm_query(tables, ALPHA)
    q = fx.normalize(f)
    assert fx.lower_bound_table(q, index.scheme).top >= 2**31

    hits, _ = fx.knn_search(index, q, k)
    knn = fx.linear_scan_knn(ds, f, k)
    assert [(v + q.shift, r.seq_id, r.offset) for r, v in hits] == [
        (v, r.seq_id, r.offset) for r, v in knn
    ]
    kth = max(knn.values(), default=0)
    radius = data.draw(st.sampled_from([kth - 1, kth, kth + 1, 2**62]), label="radius")
    hits, _ = fx.range_search(index, q, radius - q.shift)
    assert rows(hits, q.shift) == rows(fx.linear_scan_range(ds, f, radius), 0)


@st.composite
def distance_matrices(draw) -> fx.DistanceMatrix:
    """A random alphabet of 3 to 12 distinct letters (never the invalid
    "x") and a random table of non-negative integer distances over it, zero
    on the diagonal and not always symmetric."""
    letters = draw(st.permutations("abcdefghijklmnopqrstuvw"))[:draw(st.integers(3, 12))]
    n = len(letters)
    table = np.array(draw(st.lists(st.integers(0, 9), min_size=n * n, max_size=n * n)))
    table = table.reshape(n, n)
    np.fill_diagonal(table, 0)
    return fx.DistanceMatrix(fx.Alphabet("".join(letters)), table)


@pytest.mark.parametrize("suffix_mode", [False, True])
@SETTINGS
@given(data=st.data(), k=st.integers(1, 12))
def test_random_alphabets_and_distance_queries(suffix_mode, data, k):
    d = data.draw(distance_matrices())
    ds, index = data.draw(indexes(suffix_mode=st.just(suffix_mode), alpha=d.alphabet))

    def query(length: int) -> fx.QueryFunction:
        text = st.text(d.alphabet.letters, min_size=length, max_size=length)
        return fx.distance_query(d, data.draw(text, label="query"))

    f = query(index.m)
    q = fx.normalize(f)
    hits, _ = fx.knn_search(index, q, k)
    assert [(v + q.shift, r.seq_id, r.offset) for r, v in hits] == [
        (v, r.seq_id, r.offset) for r, v in fx.linear_scan_knn(ds, f, k)
    ]

    f = query(data.draw(st.integers(1, index.m + 2)) if suffix_mode else index.m)
    q = fx.normalize(f)
    kth = max(fx.linear_scan_knn(ds, f, k).values(), default=0)
    radius = kth + data.draw(st.integers(-1, 1), label="offset from the k-th value")
    hits, _ = fx.range_search(index, q, radius - q.shift)
    assert rows(hits, q.shift) == rows(fx.linear_scan_range(ds, f, radius), 0)


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


@st.composite
def sort_cases(draw):
    """A random alphabet of 3 to 255 letters in random code order, a random
    partition per position, and sequences over a few of its letters, so that
    keys tie; "wide" draws need a sort key of more than 64 bits."""
    wide = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(200, 255) if wide else st.integers(3, 40))
    m = draw(st.integers(9, 12) if wide else st.integers(1, 6))
    alpha = fx.Alphabet("".join(map(chr, rng.permutation(np.arange(1, 256))[:size])))
    clusters = []
    for _ in range(m):
        k = int(rng.integers(2, min(size - 1, 3 if wide else 6) + 1))
        cuts = np.sort(rng.choice(np.arange(1, size), k - 1, replace=False))
        letters = "".join(rng.permutation(list(alpha.letters)))
        clusters.append(tuple(letters[a:b] for a, b in zip([0, *cuts], [*cuts, size])))
    scheme = fx.PartitionScheme(alpha, tuple(clusters), spec_string="drawn")
    pool = rng.choice(list(alpha.letters), int(rng.integers(2, 5)))
    seqs = []
    for _ in range(draw(st.integers(1, 5))):
        seq = list(rng.choice(pool, int(rng.integers(1, 3 * m + 8))))
        if rng.integers(2):  # a letter outside latin-1 encodes as invalid
            seq[rng.integers(len(seq))] = "\u0100"
        seqs.append("".join(seq))
    db = fx.SequenceDB(records=tuple((f"s{i}", s) for i, s in enumerate(seqs)))
    suffix_mode = draw(st.booleans())
    floor = draw(st.integers(1, m)) if suffix_mode else 1
    ds = fx.extract_fragments(db, m, alphabet=alpha, suffix_mode=suffix_mode, floor=floor)
    if wide:
        bits = (scheme.n_bins - 1).bit_length() + sum(
            max(map(len, position)).bit_length() for position in clusters
        )
        assert bits > 64 and m * size.bit_length() > 64  # the index's key and the flat run's
    return ds, scheme


def reference_run(ds, scheme=None):
    """Order, lcp, and each bin's first row and rank from Python's ``sorted``
    on (bin rank, letters with the pad first, extraction index); without a
    scheme every rank is 0, and the lcp only stops at a difference or the
    key's end."""
    keys = []
    for sid, off in zip(ds.sids.tolist(), ds.offs.tolist()):
        text = ds.fragment_text(sid, off, ds.m)
        rank = 0 if scheme is None else sum(
            scheme.cluster_rank(j, c) * int(scheme.radix_weights[j]) for j, c in enumerate(text)
        )
        letters = [ds.alphabet.ordinal(c) + 1 for c in text] + [0] * (ds.m - len(text))
        keys.append((rank, letters, len(text)))
    order = sorted(range(ds.n), key=lambda i: (keys[i][0], keys[i][1], i))
    lcp, first, ranks = [0] * (ds.n + 1), [], []
    for r, i in enumerate(order):
        rank, letters, length = keys[i]
        if r == 0 or keys[order[r - 1]][0] != rank:
            first.append(r)
            ranks.append(rank)
            continue
        prev = keys[order[r - 1]][1]
        lcp[r] = min(next((j for j in range(ds.m) if prev[j] != letters[j]), ds.m), length)
    return order, lcp, first, np.array(ranks, dtype=np.int64)


@SETTINGS
@given(case=sort_cases())
def test_build_and_flat_run_match_sorted(case):
    ds, scheme = case
    index = fx.build(ds, scheme)
    index.audit()
    order, lcp, first, ranks = reference_run(ds, scheme)
    assert index.sids.tolist() == ds.sids[order].tolist()
    assert index.offs.tolist() == ds.offs[order].tolist()
    assert index.lcp.tolist() == lcp
    assert index.key_starts[index.bins].tolist() == first + [ds.n]
    for j, w in enumerate(scheme.radix_weights.tolist()):
        blocks = np.arange(scheme.n_bins // w)
        assert index.occupied(j, blocks).tolist() == np.isin(blocks, ranks // w).tolist()

    flat = fx.flat_build(ds)
    order, lcp, _, _ = reference_run(ds)
    assert flat.sids.tolist() == ds.sids[order].tolist()
    assert flat.offs.tolist() == ds.offs[order].tolist()
    assert flat.lcp.tolist() == lcp


@st.composite
def key_words(draw) -> np.ndarray:
    """(words, n) uint64 keys with many ties: 1-3 words, each drawn from a
    few values of up to 64 bits at any shift, some apart only in their
    lowest or highest bit; ``n`` is 0, 1, 2 or a power of two or one past
    it, where the bit count ``r`` of a row's place changes, and some words
    are ``64 - r`` or ``65 - r`` bits wide, one pass's digit or one more."""
    k = draw(st.integers(0, 12))
    n = draw(st.sampled_from([0, 1, 2, 2**k, 2**k + 1]))
    r = max(n - 1, 0).bit_length()
    keys = np.empty((draw(st.integers(1, 3)), n), dtype=np.uint64)
    for word in keys:
        bits = draw(st.integers(0, 64) | st.sampled_from([64 - r, min(65 - r, 64)]))
        shift = draw(st.integers(0, 64 - bits))
        base, top = draw(st.integers(0, 2**bits - 1)), 2**bits - 1
        flips = st.sampled_from([0, 1, 2**bits >> 1]) | st.integers(0, top)
        pool = [(base ^ f) & top for f in draw(st.lists(flips, min_size=1, max_size=4))]
        pool = np.array([v << shift for v in pool], dtype=np.uint64)
        word[:] = pool[np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, pool.size, n)]
    return keys


@SETTINGS
@given(keys=key_words())
def test_radix_order_is_a_stable_sort(keys):
    want = np.lexsort((np.arange(keys.shape[1]), *reversed(keys))).tolist()
    order = core._sorted_order(keys)
    assert order.dtype == np.intp
    assert order.tolist() == want
    with mock.patch.object(core, "_PIECE_ROWS", 3):  # the places added in many pieces
        assert core._sorted_order(keys).tolist() == want


@st.composite
def repeat_cases(draw):
    """Sequences drawn each 1 to 4 times, some copies with a point
    mutation or an invalid letter, so that keys repeat; fragments of up to
    12 letters in fixed or suffix mode at a random floor, and 2 or 3
    clusters per position."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 12))
    letters = np.array(list(ALPHA.letters + "x"))
    seqs = []
    for _ in range(draw(st.integers(1, 4))):
        pool = letters[:int(rng.integers(2, len(ALPHA) + 1))]
        base = rng.choice(pool, int(rng.integers(1, 3 * m + 6)))
        for _ in range(int(rng.integers(1, 5))):
            seq = base.copy()
            if rng.integers(3) == 0:
                seq[rng.integers(seq.size)] = rng.choice(letters)
            seqs.append("".join(seq))
    db = fx.SequenceDB(records=tuple((f"s{i}", s) for i, s in enumerate(seqs)))
    specs = []
    for _ in range(m):
        order = rng.permutation(list(ALPHA.letters))
        cuts = np.sort(rng.choice(np.arange(1, len(ALPHA)), int(rng.integers(1, 3)), replace=False))
        specs.append(",".join("".join(order[a:b]) for a, b in zip([0, *cuts], [*cuts, len(ALPHA)])))
    scheme = fx.parse_partition(";".join(specs), ALPHA, m)
    suffix_mode = draw(st.booleans())
    floor = draw(st.integers(1, m)) if suffix_mode else 1
    return fx.extract_fragments(db, m, alphabet=ALPHA, suffix_mode=suffix_mode, floor=floor), scheme


@SETTINGS
@given(case=repeat_cases())
def test_key_rows_expand_to_the_sorted_letters(case):
    ds, scheme = case
    index, flat = fx.build(ds, scheme), fx.flat_build(ds)
    index.audit()
    for run in (index, flat):
        want = dataclasses.replace(ds, pos=run.pos).letter_matrix()
        assert np.array_equal(row_letters(run), want)
        assert np.array_equal(run.key_starts[:-1], np.flatnonzero(run.lcp[:-1] < ds.m))
    # one key per distinct full-length key; a short suffix is a key of its own
    texts = [ds.fragment_text(int(s), int(o), ds.m) for s, o in zip(ds.sids, ds.offs)]
    full = {t for t in texts if len(t) == ds.m}
    assert index.n_keys == flat.key_starts.size - 1 == len(full) + len(texts) - sum(
        len(t) == ds.m for t in texts
    )
    # no two adjacent key rows of a bin are equal
    bin_of_key = np.repeat(np.arange(index.bins.size - 1), np.diff(index.bins.astype(np.int64)))
    same_bin = bin_of_key[1:] == bin_of_key[:-1]
    full_rows = (index.letters[1:] < len(ALPHA)).all(axis=1)
    repeated = (index.letters[1:] == index.letters[:-1]).all(axis=1)
    assert not (repeated & same_bin & full_rows).any()


def format_3_key_arrays(lcp: list, m: int) -> tuple[list, list, list, list]:
    """The per-key arrays format 3 derived from the lcp, by a plain loop:
    the key rows then n, their lcp then the last slot's, each key's gain
    and its row count, up to 255."""
    n = len(lcp) - 1
    starts = [i for i in range(n) if lcp[i] < m] + [n]
    key_lcp = [lcp[s] for s in starts]
    gain = [max(lcp[s + 1] - lcp[s], 0) for s in starts[:-1]]
    sizes = [min(b - a, 255) for a, b in zip(starts, starts[1:])]
    return starts, key_lcp, gain, sizes


@SETTINGS
@given(case=repeat_cases())
def test_key_records_hold_the_format_3_key_arrays(case):
    # letters, lcp, the next key's lcp, gain and rows capped at the pad code
    ds, scheme = case
    m, pad = ds.m, len(ALPHA)
    for run in (fx.build(ds, scheme), fx.flat_build(ds)):
        starts, key_lcp, gain, sizes = format_3_key_arrays(run.lcp.tolist(), m)
        rec = run.records
        assert rec.shape == (len(starts) - 1, m + 4) and run.key_starts.tolist() == starts
        assert np.array_equal(rec[:, :m], run.dataset.letter_matrix()[starts[:-1]])
        assert rec[:, m].tolist() == key_lcp[:-1] and rec[:, m + 1].tolist() == key_lcp[1:]
        assert rec[:, m + 2].tolist() == gain
        assert rec[:, m + 3].tolist() == [min(size, pad) for size in sizes]


@SETTINGS
@given(case=indexes(), data=st.data(), radius=st.integers(-3, 60))
def test_hit_references_derived_on_first_use(case, data, radius):
    ds, index = case
    f = pssm(data.draw, data.draw(st.integers(1, index.m + 3)) if ds.suffix_mode else index.m)
    q = fx.normalize(f)
    hits, _ = fx.range_search(index, q, radius - q.shift)
    assert "_refs" not in vars(hits)  # nothing derived yet
    starts = ds.starts.tolist()
    sids = [bisect.bisect_right(starts, p) - 1 for p in hits.pos.tolist()]
    assert hits.sids.tolist() == sids
    assert hits.offs.tolist() == [p - starts[s] for p, s in zip(hits.pos.tolist(), sids)]
    first = data.draw(st.integers(0, len(hits)), label="first")
    assert hits.triples(first) == hits.triples()[:first]


@SETTINGS
@given(case=indexes(), data=st.data(), k=st.integers(1, 12))
def test_value_and_position_order_is_the_knn_order(case, data, k):
    ds, _ = case
    f = pssm(data.draw, data.draw(st.integers(1, ds.m + 3 if ds.suffix_mode else ds.m)))
    every = fx.linear_scan_range(ds, f, 2**62)
    shuffle = np.array(data.draw(st.permutations(range(len(every))), label="hit order"), dtype=int)
    every = fx.HitList(every.pos[shuffle], every.vals[shuffle], every.starts)
    by_pos = every.sorted_by_value(k)
    assert sorted((v, s, o) for s, o, v in every.triples())[:k] == [
        (v, s, o) for s, o, v in by_pos.triples()
    ]
    assert by_pos.triples() == fx.linear_scan_knn(ds, f, k).triples()
