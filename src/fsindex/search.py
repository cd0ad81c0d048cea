"""Range and k-nearest-neighbour search over the fragment index.

The implicit search tree is never materialized: the root is the bin
whose per-position cluster lower bounds are minimal, and each child
substitutes one cluster at one position, at strictly increasing
positions along any path, so every bin is reached exactly once.  A node
is pruned when its bound exceeds the radius or when its subtree, a
contiguous block of bin ranks, holds no fragment; accepted bins are
scanned with shared-prefix (lcp) reuse and early rejection of partial
sums.  Pruning an empty subtree is exact: it holds no hits.

One traversal serves every search: a vectorized sweep over positions
at a fixed radius that returns the accepted nodes with their bounds,
step by step and within a step cluster by cluster (``_sweep``).
Range search scans every accepted node, in that order, and reports its
hits in the order it scans them; a query longer than the index is cut
into parts that are searched so, and the clean windows their hits
propose are then checked in full and reported in (sequence, offset)
order.  The dataset's ``clean_runs`` alone decides whether a long window
is clean, as it decides which fragments extraction keeps.  k-NN search
sweeps at a growing radius and after each sweep scans the bins no
earlier sweep accepted, in one call of the same kernel.  Both follow one
plan for a query at most as long as the index (``_plan``): a lower-bound
table over the query's own positions, and each accepted node scanned as
its subtree's block of bin ranks.  k-NN takes every length range search
takes up to the index's: its own on a fixed-mode index, 1 to it on a
suffix-mode one.  A ``Tracer`` keeps a range search's accepted nodes and
derives the pruned ones from them when read, empty subtrees among them,
so tracing adds no work to the search.  One block scan turns accepted
nodes into spans of key rows, and one span-scan kernel evaluates every
span, for the index, ``process_bin`` and the flat baseline, over at most
the rows' positions, from the key records alone.  The index stores each
distinct key's letters once, so the kernel evaluates each key once, and
a hit key's frag rows all hit.
Hits come back as a ``HitList`` of code positions and values, with no
Python object per hit; k-NN hits, the oracles' included, take the
(value, pos) order of ``sorted_by_value``, which is (value, seq_id,
offset) order.

A search runs on its calling thread and leaves the index as it found it,
so several threads may search one index at once.

Scan counters (bins/fragments/residues scanned) follow the reference
scan's cost model exactly; the vectorized implementation touches other
cells internally (more per key, and one key for all its rows) but
reports what the sequential algorithm would do.  ``keys_scanned`` counts
the scanned rows whose key over the query's positions differs from the
previous row's.  ``nodes_visited`` counts the bounds
the traversal evaluated, including those of children then dropped as
empty.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import FSIndex, _lap
from .ingest import FragmentRef, seq_refs
from .query import LowerBoundTable, NormalizedQuery, QueryFunction, lower_bound_table

INF_RADIUS = int(np.iinfo(np.int64).max)


@dataclass
class SearchStats:
    """Work counters and phase times for one search.

    ``sweeps`` counts the traversals run and ``scan_chunks`` the calls of
    the span-scan kernel: one each for a range search, one per sweep for
    a k-NN search and one per part for a query longer than the index,
    which sum every counter and time over them.  Such a query's check of
    its candidate windows counts one fragment and ``q.m`` residues per
    clean window (the others are not evaluated), its filter and
    de-duplication as ``spans`` and its evaluation as ``scan``.
    ``phases_ms`` holds the wall milliseconds of the phases the search ran,
    in the order they first ran: ``table`` (the lower-bound table),
    ``sweep``, ``spans`` (accepted nodes to spans of key rows), ``scan``
    (the span scan and its hits' code positions) and ``finish`` (the hit
    list, in k-NN order for k-NN); ``elapsed_ms`` also holds a k-NN
    search's bookkeeping between them.  ``keys_scanned`` counts the
    distinct keys among the scanned rows over the query's positions (the
    window check adds none).  The fields are in the order of ``fsindex
    search``'s stats object, which is ``dataclasses.asdict`` of them.
    """

    nodes_visited: int = 0
    bins_scanned: int = 0
    fragments_scanned: int = 0
    residues_scanned: int = 0
    keys_scanned: int = 0
    hits: int = 0
    elapsed_ms: float = 0.0
    sweeps: int = 0
    scan_chunks: int = 0
    phases_ms: dict[str, float] = field(default_factory=dict)


@dataclass(eq=False)
class HitList:
    """Search results as arrays: hit ``i`` is the fragment at code position
    ``pos[i]`` of a sequence set whose sequences start at ``starts``, with
    query value ``vals[i]``.  Its sequence ordinals and offsets (``sids``,
    ``offs``) are derived on first use, by one binary search over the
    starts per hit; the order of the positions is (seq_id, offset) order.
    Python objects per hit (pairs, values, triples, the multiset) are built
    when asked for."""

    pos: np.ndarray
    vals: np.ndarray
    starts: np.ndarray

    def __len__(self) -> int:
        return self.vals.size

    def __iter__(self):
        return iter(self.entries)

    @cached_property
    def _refs(self) -> tuple[np.ndarray, np.ndarray]:
        return seq_refs(self.starts, self.pos)

    @property
    def sids(self) -> np.ndarray:
        return self._refs[0]

    @property
    def offs(self) -> np.ndarray:
        return self._refs[1]

    @property
    def entries(self) -> list[tuple[FragmentRef, int]]:
        """(fragment reference, query value) pairs."""
        return [(FragmentRef(s, o), v) for s, o, v in self.triples()]

    def triples(self, first: int | None = None) -> list[tuple[int, int, int]]:
        """(seq_id, offset, value) of the first ``first`` hits (all by default)."""
        refs = self._refs if first is None else seq_refs(self.starts, self.pos[:first])
        return list(zip(*(a.tolist() for a in (*refs, self.vals[:first]))))

    def values(self) -> list[int]:
        return self.vals.tolist()

    def sorted_by_value(self, first: int | None = None) -> "HitList":
        """The hits in (value, pos) order, which is (value, seq_id, offset)
        order, the k-NN order of every search and oracle; the first
        ``first`` of them if given."""
        order = np.lexsort((self.pos, self.vals))[:first]
        return HitList(self.pos.take(order), self.vals.take(order), self.starts)

    def as_multiset(self) -> Counter:
        """(seq_id, offset, value) -> number of hits."""
        return Counter(self.triples())


class Tracer:
    """Records which implicit-tree nodes a range search scanned or pruned.

    A search hands over its lower-bound table and the sweep's accepted
    nodes, and ``scanned`` and ``pruned`` decode (digits, bound) pairs
    from them when read, so tracing adds no work to the search.  The
    scanned nodes are the accepted ones.  The pruned nodes are the
    children the sweep rejected, by their bound or as empty subtrees:
    at each position ``j``, every child of each accepted node whose last
    substitution lies before ``j`` (the root's included), less the
    accepted nodes that substitute at ``j``; the root alone when it was
    rejected.
    """

    def __init__(self):
        self._searches: list[tuple[LowerBoundTable, np.ndarray, np.ndarray]] = []

    def record(self, lbt: LowerBoundTable, ranks: np.ndarray, bounds: np.ndarray) -> None:
        """Add a search's accepted nodes, as ``_sweep`` returned them for
        ``lbt``; the arrays must not change after."""
        self._searches.append((lbt, ranks, bounds))

    @staticmethod
    def _pairs(lbt: LowerBoundTable, ranks: np.ndarray, bounds: np.ndarray) -> list:
        digits = lbt.scheme.digits_of(ranks, len(lbt.bounds))
        return list(zip(zip(*digits.T.tolist()), bounds.tolist()))  # one tuple per row

    @staticmethod
    def _rejected(
        lbt: LowerBoundTable, ranks: np.ndarray, bounds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        root = lbt.root_rank
        if ranks.size == 0:
            return np.array([root]), np.array([lbt.bound_of(lbt.root_digits)])
        kids, kid_bounds = [], []
        for j, (steps, cand_f) in enumerate(zip(lbt.child_steps, lbt.child_bounds)):
            w = int(lbt.scheme.radix_weights[j])
            # a node substituted last before j keeps the root's digits from j on
            block = w * lbt.bounds[j].size
            par = ranks % block == root % block
            kids.append((ranks[par] + (steps * w)[:, None]).ravel())  # one row per cluster
            kid_bounds.append((bounds[par] + cand_f[:, None]).ravel())
        kids, kid_bounds = np.concatenate(kids), np.concatenate(kid_bounds)
        out = ~np.isin(kids, ranks)
        return kids[out], kid_bounds[out]

    @property
    def scanned(self) -> list[tuple[tuple[int, ...], int]]:
        return [p for search in self._searches for p in self._pairs(*search)]

    @property
    def pruned(self) -> list[tuple[tuple[int, ...], int]]:
        return [
            p for lbt, r, b in self._searches
            for p in self._pairs(lbt, *self._rejected(lbt, r, b))
        ]

    def scanned_digits(self) -> set[tuple[int, ...]]:
        return {d for d, _ in self.scanned}

    def pruned_digits(self) -> set[tuple[int, ...]]:
        return {d for d, _ in self.pruned}


def _multi_arange(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, e) for each span, without a Python loop:
    output position ``i`` of span ``k`` holds ``i + (s_k - before_k)``,
    ``before_k`` the sizes of the spans before ``k``."""
    sizes = ends - starts
    before = np.cumsum(sizes) - sizes
    return np.arange(int(sizes.sum())) + np.repeat(starts - before, sizes)


def _query_table(q: NormalizedQuery) -> np.ndarray:
    """(m, |alphabet|+1) lookup with a zero column for the pad code."""
    t = q.base.tables
    return np.hstack([t, np.zeros((t.shape[0], 1), dtype=np.int64)])


def _scan_spans(
    index, q: NormalizedQuery, idx: np.ndarray, eps: int, stats: SearchStats,
) -> tuple[np.ndarray, np.ndarray]:
    """Cost-model scan of frag-array spans at a fixed radius, given as
    their key rows ``idx`` in scan order, for a query at most as long as
    the rows of ``index``, an ``FSIndex`` or a ``FlatIndex``.  Returns
    (code positions, values) of hits, in row order, and updates the
    fragment, residue and key counters exactly as the sequential bin scan
    would.
    """
    t = time.perf_counter()
    stats.scan_chunks += 1
    hit, vals, fragments, residues, keys = _scan_rows(index, _query_table(q), idx, q.m, eps)
    stats.fragments_scanned += fragments
    stats.residues_scanned += residues
    stats.keys_scanned += keys
    pos = index.pos.take(hit)
    _lap(stats.phases_ms, "scan", t)
    return pos, vals


def _scan_rows(
    index, qtab: np.ndarray, idx: np.ndarray, w: int, eps: int,
) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    """``_scan_spans`` on the key rows ``idx`` for a query of ``w <= m``
    positions, reading only ``index.records`` and ``index.key_starts``:
    the frag rows of their hits, in row order, their values, their frag
    rows' count, the residues the sequential scan reads on those rows and
    their keys, those whose first ``w`` letters differ from their
    predecessor's.

    Each key, a run of frag rows with equal letters, is evaluated once
    over its first ``w`` positions; it reaches position ``j`` when its
    letter there is not the pad code.  Its first row's lcp ``lo`` is below
    ``m``; every later row shares ``m`` positions with its predecessor and
    its successor, and its last row shares ``ln``, the next key's ``lo``,
    with its successor.  The sequential scan reads ``max(ln' - lo, 0)``
    residues of a key's rows up to their checkpoints, ``ln'`` being ``w``
    for a key of more than one row and ``ln`` for one row (each capped at
    ``w``): the key's gain, capped at ``w - lo`` when ``w < m``.  Only the
    last row's checkpoint can lie below ``w``.  One row gather reads each
    key's record, its letters, ``lo``, ``ln``, gain and row count,
    transposed to one row per field; a key's rows are counted from its
    record, and from ``key_starts`` at the cap (the pad code).  Position
    by position, each key's table value is added to its running sum, kept
    per position as ``cum[j]``, the key's value over its first ``j``
    positions; the checkpoint, at which the sequential scan rejects a row
    early, is the running sum at ``ln``, read with one gather.  An
    accepted last row reads ``w - ln`` more residues.  Tables are
    non-negative, so a key's rows hit all together or not at all, and a
    hit key expands to its frag rows.  The record fields stay uint8, as
    stored, widened to int64 only to index the checkpoints and to count
    the positions past them.
    """
    n = idx.size
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0, 0, 0
    pad, m = len(index.dataset.alphabet), index.letters.shape[1]
    rows = np.take(index.records, idx, axis=0).T.copy()
    lo, ln, gain, sizes = rows[m:]
    fragments = int(sizes.sum(dtype=np.int64))
    if sizes.max() == pad:  # keys of at least the cap's rows: their rows from the starts
        first, end = _key_rows(index, idx.compress(sizes == pad))
        fragments += int((end - first - pad).sum())

    keys = n  # every lo is below m
    # ln indexes the checkpoints: capped even at w = m, so a record whose
    # next-key lcp is past m (``load`` checks only the letters) stays in bounds
    np.minimum(ln, w, out=ln)
    if w < m:
        keys = int(np.count_nonzero(lo < w))
        # max(min(ln', w) - min(lo, w), 0) is the gain capped at w - min(lo, w)
        np.minimum(gain, w - np.minimum(lo, w, out=lo), out=gain)
    residues = int(gain.sum(dtype=np.int64))
    cum = np.empty((w + 1, n), dtype=np.int64)
    cum[0] = 0
    for j in range(w):
        np.add(cum[j], qtab[j].take(rows[j]), out=cum[j + 1])
    reach = rows[w - 1] < pad  # the key reaches w
    checkpoint = np.multiply(ln, n, dtype=np.int64)
    checkpoint += np.arange(n)
    accepted = reach & (cum.ravel().take(checkpoint) <= eps)
    residues += int((w - ln[accepted].astype(np.int64)).sum())
    vals = cum[w]
    hit = np.flatnonzero(accepted & (vals <= eps))
    first, end = _key_rows(index, idx.take(hit))
    hits = _multi_arange(first, end), np.repeat(vals.take(hit), end - first)
    return *hits, fragments, residues, keys


def _key_rows(index, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first frag row of each key row ``idx`` and the row past its last."""
    starts = index.key_starts
    return starts.take(idx).astype(np.int64), starts[1:].take(idx).astype(np.int64)


def _sweep(
    lbt: LowerBoundTable, index: FSIndex, eps: int, stats: SearchStats
) -> tuple[np.ndarray, np.ndarray]:
    """The accepted nodes at a fixed radius, by one sweep over positions.

    Substitutions are limited to the table's positions.  The root is
    accepted when its bound is within the radius.  A child substitutes
    one non-root cluster at a position after its parent's last
    substitution, so the nodes that may substitute at position ``j`` are
    exactly the root and the nodes accepted at earlier positions: step
    ``j`` of the sweep expands every node accepted so far and appends the
    accepted children to the frontier.  A child is accepted when its
    bound is within the radius and its subtree holds a fragment.  Every
    node in the frontier at step ``j`` keeps the root's digits from ``j``
    on, worth ``tail_j < w_j`` (``w_j`` the radix weight of ``j``), so
    the child with digit step ``s`` (``lbt.child_steps[j]``) of parent
    ``p`` roots the aligned block ``b = p // w_j + s`` of level ``j`` (one
    division per parent), bit ``b`` of the index's level-``j`` occupancy
    tells whether its subtree is empty, and its rank is
    ``b * w_j + tail_j``.  A parent whose bound plus the position's least
    non-root bound exceeds the radius is not expanded, and empty subtrees
    never are; a step that would not expand the root, the node of least
    bound, expands none and is skipped.

    A step's children are laid out one row per non-root cluster, with the
    parents along the row, so that numpy's inner loops run over the
    parents rather than over the handful of clusters; within a step the
    accepted children therefore come cluster by cluster, each cluster's
    in parent order.  ``stats.nodes_visited`` counts every bound
    evaluated, empty children's included: pruning lowers it only by the
    descendants of empty subtrees, which are never evaluated.

    Returns the accepted nodes' ranks (digits past the table's depth
    zero) and bounds, the root first, then the nodes accepted at each
    position in turn, in the types of the table's ``child_steps`` and
    ``child_bounds`` (int32 where they fit, chosen once per table); the
    radius is first capped at ``top``, which no bound exceeds.  A rejected
    root leaves none: no step expands a parent when the root, the node of
    least bound, is over the radius.
    """
    t = time.perf_counter()
    root, least = lbt.root_rank, lbt.bound_of(lbt.root_digits)
    stats.sweeps += 1
    stats.nodes_visited += 1
    eps = min(eps, lbt.top)  # no bound exceeds top: the same nodes, and eps fits the bounds
    rank_t, bound_t = lbt.child_steps[0].dtype, lbt.child_bounds[0].dtype
    accepted = int(least <= eps)  # the root, if within the radius
    ranks, bounds = np.full(accepted, root, dtype=rank_t), np.full(accepted, least, dtype=bound_t)
    for j, (steps, cand_f) in enumerate(zip(lbt.child_steps, lbt.child_bounds)):
        top = eps - lbt.second_min[j]  # the largest bound a parent may have
        if least > top:  # no parent: the root's bound is the least
            continue
        w = int(lbt.scheme.radix_weights[j])
        tail = root % w
        par = np.flatnonzero(bounds <= top)
        pb, pblk = bounds.take(par), ranks.take(par) // w
        stats.nodes_visited += par.size * cand_f.size
        e = pb + cand_f[:, None]  # one row per cluster, the parents along it
        blk = pblk + steps[:, None]
        ok = np.flatnonzero((e <= eps) & index.occupied(j, blk))
        new = blk.take(ok)
        new *= w
        new += tail
        ranks = np.concatenate([ranks, new])
        bounds = np.concatenate([bounds, e.take(ok)])
    _lap(stats.phases_ms, "sweep", t)
    return ranks, bounds


def _check_query(index: FSIndex, q: NormalizedQuery, longer: bool = False) -> None:
    """The one query rule of range, k-NN and bin searches: the index's
    alphabet, and the index's length on a fixed-mode index; any length up
    to it on a suffix-mode one, or longer when the search cuts a
    ``longer`` query into parts (``range_search`` alone does)."""
    if q.alphabet != index.alphabet:
        raise ValueError("query and index alphabets differ")
    if q.m > index.m and not longer:
        raise ValueError(f"length-{q.m} query on a length-{index.m} index: use range_search")
    if q.m != index.m and not index.suffix_mode:
        raise ValueError(f"length-{q.m} query on a length-{index.m} index needs suffix mode")


def _finish(
    index, pos: np.ndarray, vals: np.ndarray, stats: SearchStats, t0: float,
    first: int | None = None,
) -> tuple[HitList, SearchStats]:
    """Hits at code positions ``pos`` of the dataset of an ``FSIndex`` or
    ``FlatIndex``, in the order given; given ``first``, the first ``first``
    hits in k-NN order.  Ends the search begun at ``t0``."""
    t = time.perf_counter()
    hits = HitList(pos, vals, index.dataset.starts)
    hits = hits if first is None else hits.sorted_by_value(first)
    stats.hits = len(hits)
    stats.elapsed_ms = 1e3 * (_lap(stats.phases_ms, "finish", t) - t0)
    return hits, stats


def _scan_blocks(
    index: FSIndex, q: NormalizedQuery, ranks: np.ndarray, width: int, eps: int,
    stats: SearchStats,
) -> tuple[np.ndarray, np.ndarray]:
    """Scan the bins of the rank blocks ``[r, r + width)``, one per rank
    ``r``: each block is one contiguous span of key rows.  Counts the
    blocks' non-empty bins, a difference of two ranks over the occupancy
    bits, and returns the hits as ``_scan_spans`` does.  A block of one bin is kept
    only if its last-level bit is set, and then spans exactly the next
    bin.  The spans' key rows come in rank order."""
    t = time.perf_counter()
    if width == 1:
        # not a fork: a node accepted before the last position keeps the root's
        # later digits and only its block is known to be non-empty, so most are
        # empty bins; dropping them by their bits first costs a third of two counts
        first = index.nonempty_below(ranks.compress(index.occupied(index.m - 1, ranks)))
        last = first + 1
    else:
        first, last = index.nonempty_below(ranks), index.nonempty_below(ranks + width)
    stats.bins_scanned += int((last - first).sum())
    starts, ends = index.bins[first].astype(np.int64), index.bins[last].astype(np.int64)
    idx = _multi_arange(starts, ends)
    _lap(stats.phases_ms, "spans", t)
    return _scan_spans(index, q, idx, eps, stats)


def process_bin(
    index: FSIndex, u: int, q: NormalizedQuery, radius: int
) -> tuple[HitList, SearchStats]:
    """Scan a single bin: shared-prefix reuse plus early rejection.

    The cumulative-value array is reused up to each fragment's shared
    prefix with its predecessor; a fragment is abandoned once the partial
    sum at the prefix shared with its successor exceeds the radius.  The
    query takes the lengths ``knn_search`` takes: the index's on a
    fixed-mode index, up to it on a suffix-mode one; ``range_search``
    takes longer.
    """
    _check_query(index, q)
    if not 0 <= u < index.n_bins:
        raise ValueError(f"bin rank {u} out of range")
    t0 = time.perf_counter()
    stats = SearchStats()
    pos, vals = _scan_blocks(index, q, np.array([u], dtype=np.int64), 1, radius, stats)
    return _finish(index, pos, vals, stats, t0)


def range_search(
    index: FSIndex, q: NormalizedQuery, radius: int, trace: Tracer | None = None
) -> tuple[HitList, SearchStats]:
    """All occurrences whose (normalized) query value is <= ``radius``.

    A suffix-mode index takes a query of any length.  A shorter query's
    accepted node stands for its whole subtree, one block of consecutive
    bin ranks.  A longer query is cut into parts no longer than the index
    (``_part_plan``), each searched as a short query at its share of the
    radius; the clean windows its parts hit, and those whose later part
    has no stored fragment, are then checked in full (``_check_windows``).  A
    ``Tracer`` keeps one record per part.
    """
    _check_query(index, q, longer=True)
    t0 = time.perf_counter()
    stats = SearchStats()
    if q.m <= index.m:
        pos, vals = _search_short(index, q, radius, trace, stats)
    else:
        parts = []
        for lo, hi, eps in _part_plan(q.m, index.m, radius):
            part = NormalizedQuery(QueryFunction(q.alphabet, q.base.tables[lo:hi]), 0)
            parts.append((lo, _search_short(index, part, eps, trace, stats)[0]))
        pos, vals = _check_windows(index, q, parts, radius, stats)
    return _finish(index, pos, vals, stats, t0)


def _search_short(
    index: FSIndex, q: NormalizedQuery, radius: int, trace: Tracer | None,
    stats: SearchStats,
) -> tuple[np.ndarray, np.ndarray]:
    """Code positions and values of the hits of a query at most as long as
    the index, in row order: one sweep over its positions, then one scan
    of the accepted nodes' rank blocks.  Adds to ``stats``."""
    lbt, width = _plan(index, q, stats)
    node_ranks, node_bounds = _sweep(lbt, index, radius, stats)
    if trace is not None:
        trace.record(lbt, node_ranks, node_bounds)
    return _scan_blocks(index, q, node_ranks, width, radius, stats)


def _plan(index: FSIndex, q: NormalizedQuery, stats: SearchStats) -> tuple[LowerBoundTable, int]:
    """The plan of every search of a query at most as long as the index:
    the lower-bound table over the query's positions, timed as ``table``,
    and the width of an accepted node's rank block, the bins that share
    its first ``q.m`` digits (one bin at the index's length)."""
    t = time.perf_counter()
    lbt = lower_bound_table(q, index.scheme)
    _lap(stats.phases_ms, "table", t)
    return lbt, int(index.scheme.radix_weights[q.m - 1])


def _part_plan(length: int, m: int, eps: int) -> list[tuple[int, int, int]]:
    """(start, end, radius) of the parts of a query of ``length > m``
    positions: ``ceil(length / m)`` contiguous parts, at least two, of
    near-equal lengths (each at most ``m``), covering the query in order.

    The radii share ``eps + 1`` out in proportion to the part lengths: the
    ``a_i + 1`` sum to it, the least sum above ``eps``, the remainders
    going to the largest fractions (the first of equal ones).  A window's
    value is the sum of its parts' values, which are integers, so a window
    within ``eps`` has a part within its radius (pigeonhole).  The shares
    are Python integers, exact at any radius.
    """
    k = max(2, -(-length // m))
    cuts = [length * i // k for i in range(k + 1)]
    share = [(eps + 1 - k) * (b - a) for a, b in zip(cuts, cuts[1:])]  # sum: eps + 1 - k
    radii = [s // length for s in share]
    for i in sorted(range(k), key=lambda i: -(share[i] % length))[:eps + 1 - k - sum(radii)]:
        radii[i] += 1
    return list(zip(cuts, cuts[1:], radii))


def _check_windows(
    index: FSIndex, q: NormalizedQuery, parts: list[tuple[int, np.ndarray]], eps: int,
    stats: SearchStats,
) -> tuple[np.ndarray, np.ndarray]:
    """(code positions, values) of the windows within ``eps`` of a query
    longer than the index, in position order, from its parts' hits:
    ``(start, code positions)`` per part.

    A hit at offset ``o`` of the part that starts at query position ``s``
    proposes the window at ``o - s``.  The part's own fragment may be
    missing even where the window is clean: an invalid letter can follow
    the window within ``m`` letters of the part's start, or the tail can be
    shorter than the build's floor.  So every window whose later part
    starts at a valid letter where no fragment starts (``unstarted``) is a
    candidate too.  Only the clean candidates, those with ``q.m`` valid
    letters of one sequence from their start (``clean_runs``), are
    sorted, de-duplicated and evaluated in full, one gather of codes per
    position; each counts as one fragment and ``q.m`` residues.
    """
    t = time.perf_counter()
    ds, length = index.dataset, q.m
    pos = np.concatenate([
        (np.r_[hit, ds.unstarted] if i else hit).astype(np.int64, copy=False) - lo
        for i, (lo, hit) in enumerate(parts)
    ])
    pos = pos[pos >= 0]  # not before the first sequence
    pos = np.sort(pos[ds.clean_runs.take(pos) >= length])
    pos = pos[np.diff(pos, prepend=-1) != 0]
    t = _lap(stats.phases_ms, "spans", t)

    stats.fragments_scanned += pos.size
    stats.residues_scanned += pos.size * length
    vals = np.zeros(pos.size, dtype=np.int64)
    for j, table in enumerate(q.base.tables):  # a 2-D gather takes several times as long
        vals += table.take(ds.codes.take(pos + j))
    hit = np.flatnonzero(vals <= eps)
    _lap(stats.phases_ms, "scan", t)
    return pos.take(hit), vals.take(hit)


def long_query_search(
    index: FSIndex, q: NormalizedQuery, radius: int
) -> tuple[HitList, SearchStats]:
    """``range_search`` for a query at least as long as the index: cut
    into parts the tree can bound when longer, then the candidate windows
    checked in full."""
    if q.m < index.m:
        raise ValueError(f"query length {q.m} shorter than index length {index.m}")
    if not index.suffix_mode:
        raise ValueError("longer-than-index queries need a suffix-mode index")
    return range_search(index, q, radius)


def short_query_search(
    index: FSIndex, q: NormalizedQuery, radius: int
) -> tuple[HitList, SearchStats]:
    """``range_search`` for a query at most as long as the index."""
    if q.m > index.m:
        raise ValueError(f"query length {q.m} exceeds index length {index.m}")
    if not index.suffix_mode:
        raise ValueError("shorter-than-index queries need a suffix-mode index")
    return range_search(index, q, radius)


def knn_search(
    index: FSIndex, q: NormalizedQuery, k: int, all_ties: bool = False
) -> tuple[HitList, SearchStats]:
    """The ``k`` occurrences with smallest query values, best first.

    The query takes the lengths range search takes up to the index's: the
    index's length on a fixed-mode index, any from 1 to it on a
    suffix-mode one; a longer query raises a ``ValueError`` naming
    ``range_search``, which cuts it into parts.  The search follows range
    search's plan (``_plan``): the lower-bound table over the query's
    positions, and each accepted node scanned as its block of bin ranks.
    The sweep over positions runs at a candidate radius, starting at the
    root bound, and the blocks it accepts beyond the previous radius (all
    at first) are scanned in one call at the k-th value known so far
    (unbounded until ``k`` hits are known).  While fewer than ``k`` hits
    are known or the k-th value exceeds the radius, the radius grows by
    half, capped at the k-th value, and the sweep repeats.  Hits are
    ordered by (value, seq_id, offset), the order of ``linear_scan_knn``.
    ``all_ties`` returns every occurrence whose value is at most the k-th
    value.
    """
    _check_query(index, q)
    if k < 1:
        raise ValueError("k must be >= 1")
    t0 = time.perf_counter()
    stats = SearchStats()
    lbt, width = _plan(index, q, stats)
    radius = lbt.bound_of(lbt.root_digits)
    covered = -1  # every non-empty bin with bound <= covered has been scanned
    kth = INF_RADIUS
    pos, vals = index.pos[:0], np.zeros(0, dtype=np.int64)
    while True:
        ranks, bounds = _sweep(lbt, index, radius, stats)
        cp, cv = _scan_blocks(index, q, ranks[bounds > covered], width, kth, stats)
        pos, vals = np.concatenate([pos, cp]), np.concatenate([vals, cv])
        if vals.size >= k:
            kth = int(np.partition(vals, k - 1)[k - 1])
            keep = vals <= kth
            pos, vals = pos[keep], vals[keep]
        if kth <= radius or radius >= lbt.top:  # no bin's bound exceeds top
            break
        covered = radius
        radius = min(kth, lbt.top, radius + radius // 2 + 1)
    return _finish(index, pos, vals, stats, t0, pos.size if all_ties else k)
