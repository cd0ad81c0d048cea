"""Ground-truth scans and comparison access methods.

``linear_scan_range``/``linear_scan_knn`` evaluate the query on every
occurrence and define correctness for the index searches.  ``FlatIndex``
is the suffix-array-style baseline: one lexicographically sorted run of
all fragments scanned with the same shared-prefix machinery as a single
huge bin.  ``fibre_range_query`` answers a distance query by splitting
the dataset into constant-self-score fibres, on which the doubled
symmetrized distance is a metric, and running one metric range query per
fibre with a shifted radius; its agreement with the direct scan is the
correctness check for the weight/symmetrization algebra.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .alphabet import ScoreMatrix, check_quasi_metric, distance_from_score
from .ingest import FragmentDataset, FragmentRef
from .query import NormalizedQuery, QueryFunction
from .search import HitList, SearchStats, _finish, _scan_spans
from .core import _sorted_run


def _dataset_values(ds: FragmentDataset, q: QueryFunction) -> tuple[np.ndarray, np.ndarray]:
    """(row indices, values) of every occurrence long enough to evaluate."""
    letters = ds.letter_matrix()
    rows = np.flatnonzero(ds.key_lengths() >= q.m)
    if rows.size == 0:
        return rows, np.zeros(0, dtype=np.int64)
    qtab = np.hstack([q.tables, np.zeros((q.m, 1), dtype=np.int64)])
    vals = qtab[np.arange(q.m)[None, :], letters[rows, :q.m]].sum(axis=1)
    return rows, vals


def linear_scan_range(ds: FragmentDataset, q: QueryFunction, radius: int) -> HitList:
    """Exhaustive oracle: full evaluation of every occurrence."""
    if q.m > ds.m and not ds.suffix_mode:
        raise ValueError("query longer than fixed-mode fragments")
    if q.m > ds.m:
        return _linear_scan_long(ds, q, radius)
    rows, vals = _dataset_values(ds, q)
    keep = vals <= radius
    return HitList(
        [
            (FragmentRef(int(ds.sids[r]), int(ds.offs[r])), int(v))
            for r, v in zip(rows[keep], vals[keep])
        ]
    )


def _linear_scan_long(ds: FragmentDataset, q: QueryFunction, radius: int) -> HitList:
    """Oracle for queries longer than the dataset width: evaluate every
    occurrence whose full-length window exists and is clean."""
    pad = len(ds.alphabet)
    lens = ds.seq_lengths[ds.sids] - ds.offs
    rows = np.flatnonzero(lens >= q.m)
    out = []
    qtab = np.hstack([q.tables, np.zeros((q.m, 1), dtype=np.int64)])
    for r in rows:
        base = int(ds.starts[ds.sids[r]] + ds.offs[r])
        codes = ds.codes[base:base + q.m]
        if (codes >= pad).any():
            continue
        v = int(qtab[np.arange(q.m), codes].sum())
        if v <= radius:
            out.append((FragmentRef(int(ds.sids[r]), int(ds.offs[r])), v))
    return HitList(out)


def linear_scan_knn(ds: FragmentDataset, q: QueryFunction, k: int) -> HitList:
    """Exhaustive k smallest values, ties broken by (seq_id, offset)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rows, vals = _dataset_values(ds, q)
    order = np.lexsort((ds.offs[rows], ds.sids[rows], vals))[: min(k, rows.size)]
    return HitList(
        [
            (FragmentRef(int(ds.sids[rows[i]]), int(ds.offs[rows[i]])), int(vals[i]))
            for i in order
        ]
    )


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
    return _fibre_partition(ds, s, ds.letter_matrix())


def _fibre_partition(
    ds: FragmentDataset, s: ScoreMatrix, letters: np.ndarray
) -> FibrePartition:
    """``fibre_partition`` over the dataset's already built letter matrix."""
    rows = np.flatnonzero(ds.key_lengths() >= ds.m)
    diag = np.r_[np.diagonal(s.values), 0]
    w = diag[letters[:, :ds.m]].sum(axis=1)
    fibres = {
        int(z): rows[w[rows] == z] for z in np.unique(w[rows])
    }
    return FibrePartition(dataset=ds, rows=rows, weights=w[rows], fibres=fibres)


def fibre_range_query(
    ds: FragmentDataset, s: ScoreMatrix, omega: str, radius: int
) -> HitList:
    """Distance ball via the fibre decomposition.

    Requires a symmetric score matrix whose derived distance passes the
    quasi-metric audit.  Each fibre of constant weight ``z`` is scanned
    with the doubled symmetric distance ``2 rho = D + D^T`` against the
    doubled shifted radius ``2 eps + (z - w(omega))``; hit values are
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

    rho2 = d.values + d.values.T  # doubled metric symmetrization
    codes = ds.alphabet.encode(omega)
    w_omega = int(np.diagonal(s.values)[codes].sum())

    letters = ds.letter_matrix()
    part = _fibre_partition(ds, s, letters)
    rho2_ext = np.hstack([rho2, np.zeros((rho2.shape[0], 1), dtype=np.int64)])
    per_pos = rho2_ext[codes]  # (m, |alphabet|+1)

    out: list[tuple[FragmentRef, int]] = []
    for z, rows in sorted(part.fibres.items()):
        doubled_radius = 2 * radius + (z - w_omega)
        if doubled_radius < 0:
            continue  # the shifted metric ball is empty on this fibre
        vals2 = per_pos[np.arange(ds.m)[None, :], letters[rows, :ds.m]].sum(axis=1)
        keep = vals2 <= doubled_radius
        for r, v2 in zip(rows[keep], vals2[keep]):
            value = (int(v2) + w_omega - z) // 2
            out.append((FragmentRef(int(ds.sids[r]), int(ds.offs[r])), value))
    return HitList(out)
