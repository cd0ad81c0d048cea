"""Benchmark harness: per-query search statistics and their aggregates.

The standard protocol runs, for each query and each requested k, a k-NN
search to learn the radius that captures k neighbours, then a range
search at that radius; range-search counters are what the aggregate
rows summarize, with the k-NN bins-scanned ratio reported alongside.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field

from .alphabet import DistanceMatrix
from .baselines import flat_build, flat_search, linear_scan_range
from .core import FSIndex
from .query import distance_query, normalize
from .search import INF_RADIUS, SearchStats, knn_search, range_search

SCHEMA = "fsindex-bench/1"

TSV_COLUMNS = [
    "query", "k", "radius", "hits",
    "knn_bins", "knn_fragments", "knn_residues", "knn_ms",
    "range_bins", "range_fragments", "range_residues", "range_ms",
    "flat_residues", "flat_ms",
]


class OracleMismatch(AssertionError):
    """A bench cross-check against the exhaustive scan failed."""


@dataclass
class BenchRow:
    query: str
    k: int | None
    radius: int  # de-normalized radius used for the range search
    hits: int
    knn: SearchStats | None
    rng: SearchStats
    m: int
    flat: SearchStats | None = None

    def residues_pct(self) -> float:
        denom = self.rng.fragments_scanned * self.m
        return 100.0 * self.rng.residues_scanned / denom if denom else 0.0

    def access_overhead(self) -> float:
        return self.rng.fragments_scanned / self.hits if self.hits else math.nan

    def knn_bin_ratio(self) -> float:
        if self.knn is None or self.rng.bins_scanned == 0:
            return math.nan
        return self.knn.bins_scanned / self.rng.bins_scanned


@dataclass
class BenchReport:
    m: int
    rows: list[BenchRow] = field(default_factory=list)
    oracle_checked: bool = False
    elapsed: float = 0.0

    def aggregates(self) -> dict:
        rows = self.rows

        def dist(values):
            vals = [v for v in values if not (isinstance(v, float) and math.isnan(v))]
            if not vals:
                return {"mean": None, "median": None}
            return {
                "mean": float(statistics.fmean(vals)),
                "median": float(statistics.median(vals)),
            }

        out = {
            "schema": SCHEMA,
            "queries": len(rows),
            "fragment_length": self.m,
            "oracle_checked": self.oracle_checked,
            "elapsed_s": self.elapsed,
            "radius": dist([r.radius for r in rows]),
            "hits": dist([r.hits for r in rows]),
            "bins_scanned": dist([r.rng.bins_scanned for r in rows]),
            "fragments_scanned": dist([r.rng.fragments_scanned for r in rows]),
            "residues_scanned_pct": dist([r.residues_pct() for r in rows]),
            "access_overhead": dist([r.access_overhead() for r in rows]),
            "range_ms": dist([1e3 * r.rng.elapsed for r in rows]),
        }
        knn_rows = [r for r in rows if r.knn is not None]
        if knn_rows:
            out["knn_range_bin_ratio"] = dist([r.knn_bin_ratio() for r in knn_rows])
            out["knn_ms"] = dist([1e3 * r.knn.elapsed for r in knn_rows])
        flat_rows = [r for r in rows if r.flat is not None]
        if flat_rows:
            out["flat_residues"] = dist([r.flat.residues_scanned for r in flat_rows])
            out["flat_vs_index_residues"] = dist(
                [
                    r.flat.residues_scanned / r.rng.residues_scanned
                    if r.rng.residues_scanned
                    else math.nan
                    for r in flat_rows
                ]
            )
        return out

    def tsv_lines(self) -> list[str]:
        lines = ["\t".join(TSV_COLUMNS)]
        for r in self.rows:
            def fmt_stats(s: SearchStats | None) -> list[str]:
                if s is None:
                    return ["", "", "", ""]
                return [
                    str(s.bins_scanned),
                    str(s.fragments_scanned),
                    str(s.residues_scanned),
                    f"{1e3 * s.elapsed:.3f}",
                ]

            cells = [r.query, "" if r.k is None else str(r.k), str(r.radius), str(r.hits)]
            cells += fmt_stats(r.knn)
            cells += fmt_stats(r.rng)
            if r.flat is None:
                cells += ["", ""]
            else:
                cells += [str(r.flat.residues_scanned), f"{1e3 * r.flat.elapsed:.3f}"]
            lines.append("\t".join(cells))
        return lines

    def to_json(self) -> str:
        return json.dumps(self.aggregates(), indent=2, sort_keys=True)


def run_bench(
    index: FSIndex,
    queries: list[str],
    d: DistanceMatrix,
    k_list: list[int] | None = None,
    radius: int | None = None,
    check_oracle: bool = False,
    include_flat: bool = False,
) -> BenchReport:
    """Run the harness over ``queries``, each searched by its distance
    under ``d`` from the query fragment.  With ``k_list`` the
    k-NN-then-range protocol runs per k; with ``radius`` a plain
    fixed-radius range search runs instead.
    """
    if (k_list is None) == (radius is None):
        raise ValueError("give exactly one of k_list or radius")
    t0 = time.perf_counter()
    report = BenchReport(m=index.m)
    flat = flat_build(index.dataset) if include_flat else None
    for fragment in queries:
        f = distance_query(d, fragment)
        q = normalize(f)
        plans = [(k, None) for k in k_list] if k_list else [(None, radius)]
        for k, eps in plans:
            knn_stats = None
            if k is not None:
                khits, knn_stats = knn_search(index, q, k)
                base_radius = max(khits.values()) if len(khits) else INF_RADIUS
            else:
                base_radius = eps - q.shift
            hits, rng_stats = range_search(index, q, base_radius)
            row = BenchRow(
                query=fragment,
                k=k,
                radius=base_radius + q.shift if base_radius < INF_RADIUS else base_radius,
                hits=len(hits),
                knn=knn_stats,
                rng=rng_stats,
                m=index.m,
            )
            if check_oracle:
                expect = linear_scan_range(index.dataset, f, row.radius)
                got = {(r.seq_id, r.offset, v + q.shift) for r, v in hits}
                want = {(r.seq_id, r.offset, v) for r, v in expect}
                if got != want:
                    raise OracleMismatch(
                        f"query {fragment!r} k={k}: index returned {len(got)} hits, "
                        f"scan returned {len(want)}"
                    )
            if flat is not None:
                _, flat_stats = flat_search(flat, q, base_radius)
                row.flat = flat_stats
            report.rows.append(row)
    report.oracle_checked = check_oracle
    report.elapsed = time.perf_counter() - t0
    return report

