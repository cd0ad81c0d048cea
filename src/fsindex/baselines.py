"""Ground-truth scans and comparison access methods.

``linear_scan_range``/``linear_scan_knn`` evaluate the query on every
occurrence whose window of the query's length is clean, at any query
length on a suffix-mode dataset, and define correctness for the index
searches.  ``FlatIndex`` is the suffix-array-style baseline: one
lexicographically sorted run of all fragments scanned with the same
shared-prefix machinery as a single huge bin.  ``fibre_range_query``
answers a distance query through the constant-self-score fibres, on
which the doubled symmetrized distance is a metric: each row is kept
within its own fibre's shifted radius.  Its agreement with the direct
scan is the correctness check for the weight/symmetrization algebra.
The oracles and the fibre weights and distances all come from one
window gather, ``_evaluate``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .alphabet import ScoreMatrix, check_quasi_metric, distance_from_score
from .ingest import FragmentDataset, FragmentRef
from .query import NormalizedQuery, QueryFunction
from .search import HitList, SearchStats, _finish, _scan_spans
from .core import _sorted_run


def _evaluate(ds: FragmentDataset, tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, values) of every occurrence whose window of ``len(tables)``
    letters lies inside its sequence and holds no invalid letter, the value
    being the sum of ``tables[i, letter_i]`` over that window.

    One row gather over the windows of the code array, with pad codes
    appended so the last sequence's windows stay in bounds; a window that
    runs past its own sequence is dropped by its length.
    """
    width, pad = len(tables), len(ds.alphabet)
    if width > ds.m and not ds.suffix_mode:
        raise ValueError("query longer than fixed-mode fragments")
    padded = np.concatenate([ds.codes, np.full(width, pad, dtype=np.uint8)])
    windows = sliding_window_view(padded, width)[ds.starts[ds.sids] + ds.offs]
    inside = ds.seq_lengths[ds.sids] - ds.offs >= width
    rows = np.flatnonzero(inside & (windows < pad).all(axis=1))
    return rows, tables[np.arange(width), windows[rows]].sum(axis=1)


def _hits(ds: FragmentDataset, rows: np.ndarray, vals: np.ndarray) -> HitList:
    refs = zip(ds.sids[rows].tolist(), ds.offs[rows].tolist())
    return HitList([(FragmentRef(s, o), v) for (s, o), v in zip(refs, vals.tolist())])


def linear_scan_range(ds: FragmentDataset, q: QueryFunction, radius: int) -> HitList:
    """Exhaustive oracle: full evaluation of every occurrence."""
    rows, vals = _evaluate(ds, q.tables)
    keep = vals <= radius
    return _hits(ds, rows[keep], vals[keep])


def linear_scan_knn(ds: FragmentDataset, q: QueryFunction, k: int) -> HitList:
    """Exhaustive k smallest values, ties broken by (seq_id, offset)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rows, vals = _evaluate(ds, q.tables)
    order = np.lexsort((ds.offs[rows], ds.sids[rows], vals))[:k]
    return _hits(ds, rows[order], vals[order])


@dataclass(frozen=True)
class FlatIndex:
    """All fragments in one lexicographic run, in the index's row layout."""

    dataset: FragmentDataset
    sids: np.ndarray     # (n,) uint32, sorted order
    offs: np.ndarray     # (n,) uint32, sorted order
    letters: np.ndarray  # (n, m) codes in sorted order
    lcp: np.ndarray      # (n+1,) uint8

    @property
    def n(self) -> int:
        return int(self.sids.size)


def flat_build(ds: FragmentDataset) -> FlatIndex:
    order, letters, lcp = _sorted_run(ds.letter_matrix(), len(ds.alphabet))
    return FlatIndex(
        dataset=ds, sids=ds.sids[order], offs=ds.offs[order], letters=letters, lcp=lcp
    )


def flat_search(
    flat: FlatIndex, q: NormalizedQuery, radius: int
) -> tuple[HitList, SearchStats]:
    """Scan the whole run as one span of the index's span-scan kernel:
    shared-prefix reuse plus early rejection, with the same cost model as
    the index's bin scans."""
    t0 = time.perf_counter()
    stats = SearchStats()
    ds = flat.dataset
    if q.m != ds.m:
        raise ValueError(f"query length {q.m} != fragment length {ds.m}")
    stats.bins_scanned = 1 if flat.n else 0
    idx, vals = _scan_spans(
        flat, q, np.array([0], dtype=np.int64), np.array([flat.n], dtype=np.int64),
        radius, stats,
    )
    return _finish(flat, idx, vals, stats, t0)


@dataclass(frozen=True)
class FibrePartition:
    """Dataset rows grouped by fragment self-score (the weight)."""

    dataset: FragmentDataset
    rows: np.ndarray     # evaluable occurrence rows, extraction order
    weights: np.ndarray  # per-row weight, aligned with ``rows``
    fibres: dict[int, np.ndarray]  # weight -> row indices

    def covers_exactly_once(self) -> bool:
        seen = np.sort(np.concatenate(list(self.fibres.values()))) if self.fibres else np.zeros(0, int)
        return bool(np.array_equal(seen, self.rows))


def fibre_partition(ds: FragmentDataset, s: ScoreMatrix) -> FibrePartition:
    diag = np.diagonal(s.values)
    rows, w = _evaluate(ds, np.broadcast_to(diag, (ds.m, diag.size)))
    order = np.argsort(w, kind="stable")
    zs, firsts = np.unique(w[order], return_index=True)
    fibres = dict(zip(zs.tolist(), np.split(rows[order], firsts[1:])))
    return FibrePartition(dataset=ds, rows=rows, weights=w, fibres=fibres)


def fibre_range_query(
    ds: FragmentDataset, s: ScoreMatrix, omega: str, radius: int
) -> HitList:
    """Distance ball via the fibre decomposition.

    Requires a symmetric score matrix whose derived distance passes the
    quasi-metric audit.  Each row of weight ``z`` is kept when its doubled
    symmetric distance ``2 rho = D + D^T`` to ``omega`` is within its own
    fibre's doubled shifted radius ``2 eps + (z - w(omega))``; its value is
    recovered from the weight identity ``2 d = 2 rho + w(omega) - z``.
    """
    if not s.is_symmetric:
        raise ValueError("fibre decomposition needs a symmetric score matrix")
    d = distance_from_score(s)
    report = check_quasi_metric(d)
    if not report.is_quasi_metric:
        raise ValueError("derived distance is not a quasi-metric")
    if len(omega) != ds.m:
        raise ValueError(f"query length {len(omega)} != fragment length {ds.m}")

    codes = ds.alphabet.encode(omega)
    w_omega = int(np.diagonal(s.values)[codes].sum())
    part = fibre_partition(ds, s)
    # the same rows as ``part.rows``: every clean window of m letters
    rows, rho2 = _evaluate(ds, (d.values + d.values.T)[codes])
    keep = rho2 <= 2 * radius + (part.weights - w_omega)
    return _hits(ds, rows[keep], (rho2 + w_omega - part.weights)[keep] // 2)
