"""Exact similarity search over fixed-length protein fragments.

The index buckets fragments by a per-position reduced alphabet, sorts
each bucket lexicographically, and answers range and k-nearest-neighbour
queries under score-matrix distances and position-specific score
functions by pruning an implicit tree of buckets.
"""

from .alphabet import (
    Alphabet,
    DistanceMatrix,
    MatrixFormatError,
    PartitionFormatError,
    PartitionScheme,
    QuasiMetricReport,
    ScoreMatrix,
    STANDARD_ALPHABET,
    builtin_matrix_names,
    check_quasi_metric,
    distance_from_score,
    load_builtin_matrix,
    parse_partition,
    parse_score_matrix,
    symmetrize,
    weight,
)
from .core import FSIndex, IndexFormatError, bin_of, build, load
from .ingest import (
    FastaFormatError,
    FragmentDataset,
    FragmentRef,
    SequenceDB,
    dataset_manifest,
    extract_fragments,
    parse_fasta,
    sample_queries,
)
from .query import (
    LowerBoundTable,
    NormalizedQuery,
    QueryFunction,
    distance_query,
    lower_bound_table,
    normalize,
    parse_pssm,
    pssm_from_scores,
    pssm_query,
    similarity_threshold_to_radius,
)
from .search import (
    HitList,
    INF_RADIUS,
    SearchStats,
    Tracer,
    knn_search,
    long_query_search,
    process_bin,
    range_search,
    short_query_search,
)

__version__ = "0.1.0"

# the baselines are for tests and ``bench``; a search process never loads them
_BASELINES = (
    "FibrePartition", "FlatIndex", "fibre_partition", "fibre_range_query",
    "flat_build", "flat_search", "linear_scan_knn", "linear_scan_range",
)


def __getattr__(name: str):
    if name in _BASELINES:
        from . import baselines

        return getattr(baselines, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Alphabet", "DistanceMatrix", "MatrixFormatError", "PartitionFormatError",
    "PartitionScheme", "QuasiMetricReport", "ScoreMatrix", "STANDARD_ALPHABET",
    "builtin_matrix_names", "check_quasi_metric", "distance_from_score",
    "load_builtin_matrix", "parse_partition", "parse_score_matrix", "symmetrize",
    "weight",
    *_BASELINES,
    "FSIndex", "IndexFormatError", "bin_of", "build", "load",
    "FastaFormatError", "FragmentDataset", "FragmentRef", "SequenceDB",
    "dataset_manifest", "extract_fragments", "parse_fasta", "sample_queries",
    "LowerBoundTable", "NormalizedQuery", "QueryFunction", "distance_query",
    "lower_bound_table", "normalize", "parse_pssm", "pssm_from_scores",
    "pssm_query", "similarity_threshold_to_radius",
    "HitList", "INF_RADIUS", "SearchStats", "Tracer", "knn_search",
    "long_query_search", "process_bin", "range_search", "short_query_search",
]
