"""Position-wise query functions and their per-cluster lower bounds.

A query is an additive function over fragment positions: ``f(x) = sum_i
f_i(x_i)`` with one integer table per position.  Distance-from-a-point
queries and position-specific score tables are both expressed this way.
Searches run against a normalized form whose per-position minimum is
zero, which keeps prefix partial sums monotone and early rejection
sound even for tables with negative entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import Alphabet, DistanceMatrix, PartitionScheme, ScoreMatrix, weight


@dataclass(frozen=True)
class QueryFunction:
    """Additive position-wise query: one value per (position, letter)."""

    alphabet: Alphabet
    tables: np.ndarray  # (m, |alphabet|) int64, cost orientation (lower is better)

    def __post_init__(self):
        t = np.asarray(self.tables, dtype=np.int64)
        if t.ndim != 2 or t.shape[1] != len(self.alphabet):
            raise ValueError(
                f"query table shape {t.shape} incompatible with alphabet size "
                f"{len(self.alphabet)}"
            )
        t.flags.writeable = False
        object.__setattr__(self, "tables", t)

    @property
    def m(self) -> int:
        return self.tables.shape[0]

    def evaluate(self, fragment: str) -> int:
        if len(fragment) != self.m:
            raise ValueError(f"fragment length {len(fragment)} != query length {self.m}")
        codes = self.alphabet.encode(fragment)
        return int(self.tables[np.arange(self.m), codes].sum())


@dataclass(frozen=True)
class NormalizedQuery:
    """A query shifted so every position table has minimum zero.

    ``base(x) + shift == original(x)`` for every fragment ``x``; any
    radius converts the same way, so answer sets are unchanged.
    """

    base: QueryFunction
    shift: int

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def alphabet(self) -> Alphabet:
        return self.base.alphabet


def distance_query(d: DistanceMatrix, omega: str) -> QueryFunction:
    """Query retrieving fragments by distance from ``omega``: f_i(a) = D(omega_i, a)."""
    codes = d.alphabet.encode(omega)
    return QueryFunction(d.alphabet, d.values[codes])


def pssm_query(columns, alphabet: Alphabet) -> QueryFunction:
    """Query from a position-specific table in cost orientation (lower = better)."""
    return QueryFunction(alphabet, np.asarray(columns))


def pssm_from_scores(columns, alphabet: Alphabet) -> QueryFunction:
    """Convert a score-oriented position-specific table (higher = better)."""
    return QueryFunction(alphabet, -np.asarray(columns))


def parse_pssm(text: str, alphabet: Alphabet, orientation: str = "cost") -> QueryFunction:
    """Parse a position-specific table: a letter header row, then one
    whitespace-separated integer row per query position."""
    rows = [
        line.split()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if len(rows) < 2:
        raise ValueError("position-specific table needs a header and at least one row")
    header = rows[0]
    if sorted(header) != sorted(alphabet.letters):
        raise ValueError("table header must list each alphabet letter exactly once")
    cols = [header.index(c) for c in alphabet.letters]
    try:
        body = np.array([[int(v) for v in row] for row in rows[1:]], dtype=np.int64)
    except ValueError:
        raise ValueError("non-integer entry in position-specific table") from None
    if body.shape[1] != len(header):
        raise ValueError("table row width does not match header")
    body = body[:, cols]
    if orientation == "cost":
        return pssm_query(body, alphabet)
    if orientation == "score":
        return pssm_from_scores(body, alphabet)
    raise ValueError(f"unknown orientation {orientation!r}")


def similarity_threshold_to_radius(s: ScoreMatrix, omega: str, threshold: int) -> int:
    """Distance radius equivalent to a similarity cutoff.

    Retrieving ``{x : s(omega, x) >= t}`` equals the radius
    ``weight(omega) - t`` ball of the derived distance query.
    """
    return weight(s, omega) - threshold


def normalize(f: QueryFunction) -> NormalizedQuery:
    """Subtract each position's minimum so tables are non-negative."""
    mins = f.tables.min(axis=1)
    base = QueryFunction(f.alphabet, f.tables - mins[:, None])
    return NormalizedQuery(base=base, shift=int(mins.sum()))


@dataclass(frozen=True)
class LowerBoundTable:
    """Per-position cluster minima of a normalized query, and the root bin.

    ``bounds[i][r]`` is the least value of position ``i``'s table over
    cluster ``r``.  ``root_digits`` picks the argmin cluster per position
    (ties to the lowest rank), so the root bin minimizes the bin lower
    bound globally.  ``second_min[i]`` is the least bound among the
    non-root clusters (the traversal's per-position short circuit).  The
    children at position ``i`` of a node holding the root's cluster there
    substitute each non-root cluster: ``child_steps[i]`` lists its digit
    minus the root's and ``child_bounds[i]`` its bound, which the child
    adds to its parent's (the root's cluster bounds zero).  ``top`` is the
    largest bound of any bin, each position's largest cluster bound summed.
    The steps are int32 when the scheme has under 2**31 bins (a block of
    ranks ends at ``n_bins``), the child bounds when ``top`` is under
    2**31, else int64 (``_int_type``): the sweep's ranks and bounds take
    these types, cast once per table rather than per sweep step.
    """

    scheme: PartitionScheme
    bounds: tuple[np.ndarray, ...]
    root_digits: tuple[int, ...]
    second_min: tuple[int, ...]
    child_steps: tuple[np.ndarray, ...]
    child_bounds: tuple[np.ndarray, ...]
    top: int

    @property
    def root_rank(self) -> int:
        """The root bin's rank; digits past the table's depth are zero."""
        return sum(d * int(w) for d, w in zip(self.root_digits, self.scheme.radix_weights))

    def bound_of(self, digits) -> int:
        """Lower bound for the query over the bin with the given digits."""
        return int(sum(self.bounds[i][r] for i, r in enumerate(digits)))


def _int_type(largest: int) -> type:
    """int32 for values up to ``largest`` when it fits, else int64."""
    return np.int32 if largest < 2**31 else np.int64


def lower_bound_table(
    q: NormalizedQuery, scheme: PartitionScheme, depth: int | None = None
) -> LowerBoundTable:
    """Cluster minima over the first ``depth`` positions, by default the
    query's own: a table covers at most the query's and the scheme's
    positions, so a query longer than the scheme needs a ``depth``.
    """
    depth = q.m if depth is None else depth
    if not 1 <= depth <= min(q.m, scheme.m):
        raise ValueError(f"depth {depth} out of range for query {q.m} / scheme {scheme.m}")
    if q.alphabet != scheme.alphabet:
        raise ValueError("query and scheme alphabets differ")
    n, sizes = len(scheme.alphabet), scheme.sizes[:depth]
    # minima[i, r]: least entry of position i's table in cluster r; int64 max past its clusters
    minima = np.full((depth, int(sizes.max())), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(
        minima,
        (np.repeat(np.arange(depth), n), scheme.digit_table()[:depth, :n].ravel()),
        q.base.tables[:depth].ravel(),
    )
    root = minima.argmin(axis=1)  # argmin ties break to the lowest rank
    steps = np.arange(minima.shape[1]) - root[:, None]
    child = (steps != 0) & (steps < (sizes - root)[:, None])  # the non-root clusters
    top = int(minima.max(axis=1, where=child, initial=0).sum())
    steps = steps[child].astype(_int_type(scheme.n_bins), copy=False)
    child_bounds = minima[child].astype(_int_type(top), copy=False)
    minima.flags.writeable = steps.flags.writeable = child_bounds.flags.writeable = False
    ends = np.cumsum(sizes - 1).tolist()
    cuts = list(zip([0, *ends], ends))  # each position's slice of the children
    return LowerBoundTable(
        scheme=scheme,
        bounds=tuple(minima[i, :size] for i, size in enumerate(sizes)),
        root_digits=tuple(root.tolist()),
        second_min=tuple(np.sort(minima, axis=1)[:, 1].tolist()),
        child_steps=tuple(steps[a:b] for a, b in cuts),
        child_bounds=tuple(child_bounds[a:b] for a, b in cuts),
        top=top,
    )
