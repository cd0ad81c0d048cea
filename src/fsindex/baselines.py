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
from .ingest import FragmentDataset
from .query import NormalizedQuery, QueryFunction
from .search import HitList, SearchStats, _finish, _scan_spans
from .core import KeyRows, _sorted_run


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
    windows = sliding_window_view(padded, width)[ds.pos]
    inside = ds.seq_lengths.take(ds.sids) - ds.offs >= width
    rows = np.flatnonzero(inside & (windows < pad).all(axis=1))
    return rows, tables[np.arange(width), windows[rows]].sum(axis=1)


def linear_scan_range(ds: FragmentDataset, q: QueryFunction, radius: int) -> HitList:
    """Exhaustive oracle: full evaluation of every occurrence."""
    rows, vals = _evaluate(ds, q.tables)
    keep = vals <= radius
    return HitList(ds.pos.take(rows[keep]), vals[keep], ds.starts)


def linear_scan_knn(ds: FragmentDataset, q: QueryFunction, k: int) -> HitList:
    """Exhaustive k smallest values, ties broken by (seq_id, offset)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rows, vals = _evaluate(ds, q.tables)
    return HitList(ds.pos.take(rows), vals, ds.starts).sorted_by_value(k)


FlatIndex = KeyRows  # the sorted run of ``flat_build``


def flat_build(ds: FragmentDataset) -> FlatIndex:
    """All fragments in one run sorted by their letters: the kind of sorted
    run ``build`` indexes, with no rank field in its keys."""
    return _sorted_run(ds)[0]


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
    pos, vals = _scan_spans(flat, q, np.arange(flat.key_starts.size - 1), radius, stats)
    return _finish(flat, pos, vals, stats, t0)


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
    diag = np.diagonal(s.values)
    w_omega = int(diag[codes].sum())
    # both gathers keep the same rows: every clean window of m letters
    _, weights = _evaluate(ds, np.broadcast_to(diag, (ds.m, diag.size)))
    rows, rho2 = _evaluate(ds, (d.values + d.values.T)[codes])
    keep = rho2 <= 2 * radius + (weights - w_omega)
    rows = rows[keep]
    return HitList(ds.pos.take(rows), (rho2 + w_omega - weights)[keep] // 2, ds.starts)
