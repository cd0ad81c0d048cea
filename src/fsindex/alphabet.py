"""Alphabets, score matrices, derived distances and alphabet partitions.

Score matrices (BLOSUM-style integer tables) are turned into distance
tables via ``D(a, b) = S(a, a) - S(a, b)``.  For most matrices of the
BLOSUM family the result satisfies the quasi-metric axioms (separation
plus triangle inequality, without symmetry); :func:`check_quasi_metric`
audits this.  Alphabet partitions group letters into clusters per
fragment position and carry the mixed-radix machinery used to rank bins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

STANDARD_AA = "ARNDCQEGHILKMFPSTWYV"


class MatrixFormatError(ValueError):
    """Raised for malformed score-matrix input."""


class PartitionFormatError(ValueError):
    """Raised for malformed alphabet-partition specs."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of distinct single-character symbols."""

    letters: str

    def __post_init__(self):
        if len(self.letters) < 1:
            raise ValueError("alphabet must contain at least one letter")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"alphabet letters not distinct: {self.letters!r}")
        if any(len(c) != 1 for c in self.letters):
            raise ValueError("alphabet symbols must be single characters")
        object.__setattr__(
            self, "_ord", {c: i for i, c in enumerate(self.letters)}
        )

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __contains__(self, letter: str) -> bool:
        return letter in self._ord

    def ordinal(self, letter: str) -> int:
        try:
            return self._ord[letter]
        except KeyError:
            raise KeyError(f"letter {letter!r} not in alphabet {self.letters!r}")

    def encode(self, fragment: str) -> np.ndarray:
        """Letter codes of ``fragment`` as a uint8 array."""
        try:
            return np.array([self._ord[c] for c in fragment], dtype=np.uint8)
        except KeyError as exc:
            raise KeyError(f"letter {exc.args[0]!r} not in alphabet") from None

    def decode(self, codes) -> str:
        return "".join(self.letters[c] for c in codes)


STANDARD_ALPHABET = Alphabet(STANDARD_AA)


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-letter-pair similarity scores (integer units)."""

    alphabet: Alphabet
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        n = len(self.alphabet)
        if v.shape != (n, n):
            raise ValueError(f"score table shape {v.shape} != ({n}, {n})")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def score(self, a: str, b: str) -> int:
        return int(self.values[self.alphabet.ordinal(a), self.alphabet.ordinal(b)])

    @property
    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.values, self.values.T))


@dataclass(frozen=True)
class DistanceMatrix:
    """Non-negative per-letter-pair distances with a zero diagonal."""

    alphabet: Alphabet
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        n = len(self.alphabet)
        if v.shape != (n, n):
            raise ValueError(f"distance table shape {v.shape} != ({n}, {n})")
        if (v < 0).any():
            raise ValueError("distance entries must be non-negative")
        if np.diagonal(v).any():
            raise ValueError("distance diagonal must be zero")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def distance(self, a: str, b: str) -> int:
        return int(self.values[self.alphabet.ordinal(a), self.alphabet.ordinal(b)])

    @property
    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.values, self.values.T))


@dataclass(frozen=True)
class QuasiMetricReport:
    """Outcome of auditing a distance table against the quasi-metric axioms.

    ``triangle_violations`` lists triples ``(a, b, c, slack)`` where
    ``D(a,c) > D(a,b) + D(b,c)`` and ``slack`` is the (positive) excess.
    When the mirrored triple ``(c, b, a)`` fails by the same amount, as it
    always does for distances derived from a symmetric score matrix, only
    the orientation with ``a <= c`` (alphabet order) is recorded, so the
    count matches the usual one-per-configuration bookkeeping.
    """

    separation_ok: bool
    triangle_violations: list[tuple[str, str, str, int]]
    is_symmetric: bool

    @property
    def is_quasi_metric(self) -> bool:
        return self.separation_ok and not self.triangle_violations


def parse_score_matrix(text: str, alphabet: Alphabet | None = None) -> ScoreMatrix:
    """Parse a whitespace-separated score-matrix file.

    The expected layout is the one substitution matrices are distributed
    in: optional ``#`` comment lines, a header row of letters, then one
    labelled row per letter.  When ``alphabet`` is given, rows/columns for
    any other letters (ambiguity codes such as B, Z, X, ``*``) are dropped
    and every requested letter must be present.
    """
    rows: list[list[str]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line.split())
    if not rows:
        raise MatrixFormatError("empty matrix file")

    header = rows[0]
    if any(len(tok) != 1 for tok in header):
        raise MatrixFormatError(f"malformed header: {' '.join(header)!r}")
    if len(set(header)) != len(header):
        raise MatrixFormatError("duplicate letter in header")
    ncols = len(header)

    body = rows[1:]
    if len(body) != ncols:
        raise MatrixFormatError(f"expected {ncols} labelled rows, found {len(body)}")
    col_of = {c: i for i, c in enumerate(header)}
    full = np.zeros((ncols, ncols), dtype=np.int64)
    seen: set[str] = set()
    for row in body:
        label, *cells = row
        if label not in col_of or label in seen:
            raise MatrixFormatError(f"unexpected row label {label!r}")
        seen.add(label)
        if len(cells) != ncols:
            raise MatrixFormatError(
                f"row {label!r} has {len(cells)} entries, expected {ncols}"
            )
        try:
            full[col_of[label]] = [int(c) for c in cells]
        except ValueError:
            raise MatrixFormatError(f"non-integer entry in row {label!r}") from None

    if alphabet is None:
        alphabet = Alphabet("".join(header))
        return ScoreMatrix(alphabet, full)

    missing = [c for c in alphabet if c not in col_of]
    if missing:
        raise MatrixFormatError(f"matrix lacks requested letters: {''.join(missing)}")
    idx = np.array([col_of[c] for c in alphabet])
    return ScoreMatrix(alphabet, full[np.ix_(idx, idx)])


def load_builtin_matrix(name: str, alphabet: Alphabet | None = STANDARD_ALPHABET) -> ScoreMatrix:
    """Load one of the bundled standard substitution matrices (e.g. ``BLOSUM62``)."""
    ref = resources.files("fsindex.data.matrices").joinpath(name.upper())
    try:
        text = ref.read_text()
    except FileNotFoundError:
        raise KeyError(f"no bundled matrix named {name!r}") from None
    return parse_score_matrix(text, alphabet)


def builtin_matrix_names() -> list[str]:
    return sorted(
        p.name
        for p in resources.files("fsindex.data.matrices").iterdir()
        if p.is_file()
    )


def distance_from_score(s: ScoreMatrix) -> DistanceMatrix:
    """Distance table ``D(a, b) = S(a, a) - S(a, b)``.

    Fails if any entry would be negative, i.e. if some off-diagonal score
    exceeds the self-score of its row letter.
    """
    diag = np.diagonal(s.values)
    d = diag[:, None] - s.values
    if (d < 0).any():
        a, b = np.argwhere(d < 0)[0]
        la, lb = s.alphabet.letters[a], s.alphabet.letters[b]
        raise ValueError(
            f"S({la},{lb}) > S({la},{la}): score-to-distance transform undefined"
        )
    return DistanceMatrix(s.alphabet, d)


def check_quasi_metric(d: DistanceMatrix) -> QuasiMetricReport:
    """Audit separation and the triangle inequality over all ordered triples."""
    v = d.values  # non-negative with a zero diagonal, as a DistanceMatrix is
    letters = d.alphabet.letters

    both_zero = (v == 0) & (v.T == 0)
    off = ~np.eye(len(letters), dtype=bool)
    separation_ok = not (both_zero & off).any()

    # slack[a, b, c] = D(a,c) - D(a,b) - D(b,c)
    slack = v[:, None, :] - v[:, :, None] - v[None, :, :]
    viol = slack > 0
    violations: list[tuple[str, str, str, int]] = []
    for a, b, c in np.argwhere(viol):
        if a > c and viol[c, b, a]:
            continue  # mirrored orientation already recorded
        violations.append(
            (letters[a], letters[b], letters[c], int(slack[a, b, c]))
        )
    return QuasiMetricReport(
        separation_ok=separation_ok,
        triangle_violations=violations,
        is_symmetric=d.is_symmetric,
    )


def weight(s: ScoreMatrix, fragment: str) -> int:
    """Self-similarity of a fragment: the sum of diagonal scores of its letters."""
    codes = s.alphabet.encode(fragment)
    return int(np.diagonal(s.values)[codes].sum())


def symmetrize(d: DistanceMatrix, mode: str = "average") -> DistanceMatrix:
    """Symmetric distance from a possibly asymmetric one.

    ``average`` returns the doubled mean ``D + D^T`` (kept doubled so the
    table stays integral; halve at display time).  ``maximum`` returns the
    entrywise max of the two orientations.
    """
    if mode == "average":
        return DistanceMatrix(d.alphabet, d.values + d.values.T)
    if mode == "maximum":
        return DistanceMatrix(d.alphabet, np.maximum(d.values, d.values.T))
    raise ValueError(f"unknown symmetrization mode {mode!r}")


@dataclass(frozen=True)
class PartitionScheme:
    """Per-position letter clusterings and the mixed-radix bin ranking.

    Position ``i`` groups the alphabet into ``sizes[i]`` disjoint clusters;
    a fragment maps to the bin whose digits are its letters' cluster ranks.
    Bins are ranked most-significant-position-first: digit ``r`` at
    position ``i`` contributes ``r * radix_weights[i]`` where
    ``radix_weights[i]`` is the product of later positions' cluster counts.
    """

    alphabet: Alphabet
    clusters: tuple[tuple[str, ...], ...]  # clusters[i][r] = letters of cluster r
    spec_string: str = field(compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise PartitionFormatError("scheme needs at least one position")
        n_letters = len(self.alphabet)
        rank_of = np.zeros((self.m, n_letters + 1), dtype=np.uint8)
        for i, position in enumerate(self.clusters):
            seen: set[str] = set()
            if not 2 <= len(position) < n_letters:
                raise PartitionFormatError(
                    f"position {i}: need between 2 and {n_letters - 1} clusters, "
                    f"got {len(position)}"
                )
            for r, cluster in enumerate(position):
                for letter in cluster:
                    if letter not in self.alphabet:
                        raise PartitionFormatError(
                            f"position {i}: letter {letter!r} not in alphabet"
                        )
                    if letter in seen:
                        raise PartitionFormatError(
                            f"position {i}: letter {letter!r} appears twice"
                        )
                    seen.add(letter)
                    rank_of[i, self.alphabet.ordinal(letter)] = r
            if len(seen) != n_letters:
                missing = "".join(c for c in self.alphabet if c not in seen)
                raise PartitionFormatError(f"position {i}: letters {missing!r} missing")
        # trailing column: letters absent from a short fragment rank as 0
        sizes = np.array([len(p) for p in self.clusters], dtype=np.int64)
        weights = np.ones(self.m, dtype=np.int64)
        n_bins = 1
        for i in range(self.m - 1, -1, -1):
            weights[i] = n_bins
            n_bins *= int(sizes[i])
            if n_bins > 2**62:  # a Python int never wraps: only its size is checked
                raise PartitionFormatError("bin count overflows the index range")
        rank_of.flags.writeable = False
        weights.flags.writeable = False
        sizes.flags.writeable = False
        object.__setattr__(self, "_rank_of", rank_of)
        object.__setattr__(self, "radix_weights", weights)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "n_bins", n_bins)

    @property
    def m(self) -> int:
        return len(self.clusters)

    def cluster_rank(self, position: int, letter: str) -> int:
        return int(self._rank_of[position, self.alphabet.ordinal(letter)])

    def cluster_of(self, position: int, letter: str) -> str:
        return self.clusters[position][self.cluster_rank(position, letter)]

    def digits(self, fragment: str) -> tuple[int, ...]:
        if len(fragment) != self.m:
            raise ValueError(f"fragment length {len(fragment)} != {self.m}")
        return tuple(
            self.cluster_rank(i, c) for i, c in enumerate(fragment)
        )

    def digit_table(self) -> np.ndarray:
        """(m, len(alphabet)+1) table of cluster ranks; the extra trailing
        column ranks missing letters of short fragments as 0."""
        return self._rank_of

    def rank(self, digits) -> int:
        digits = np.asarray(digits, dtype=np.int64)
        if digits.shape != (self.m,):
            raise ValueError("expected one cluster digit per position")
        if (digits < 0).any() or (digits >= self.sizes).any():
            raise ValueError("cluster digit out of range")
        return int((digits * self.radix_weights).sum())

    def ranks(self, letters: np.ndarray) -> np.ndarray:
        """Bin ranks of the rows of an (n, m) letter-code matrix (pad ranks 0)."""
        table, weights = self._rank_of, self.radix_weights
        ranks = np.zeros(letters.shape[0], dtype=np.int64)
        for i in range(self.m):  # one expression: no n-long temporary outlives a step
            ranks += table[i, letters[:, i]].astype(np.int64) * int(weights[i])
        return ranks

    def digits_of(self, ranks: np.ndarray, depth: int) -> np.ndarray:
        """(n, depth) array: the first ``depth`` cluster digits of n bin ranks,
        computed as (depth, n) so that numpy's inner loops run over the ranks."""
        ranks = np.asarray(ranks, dtype=np.int64)
        return (ranks // self.radix_weights[:depth, None] % self.sizes[:depth, None]).T

    def unrank(self, u: int) -> tuple[int, ...]:
        if not 0 <= u < self.n_bins:
            raise ValueError(f"bin rank {u} out of range")
        return tuple(self.digits_of([u], self.m)[0].tolist())


def parse_partition(spec: str, alphabet: Alphabet, m: int) -> PartitionScheme:
    """Parse a partition spec such as ``"TSAN,ILVM,KR,DEQ,WFYH,GPC"``.

    Clusters are comma-separated; per-position specs are separated by
    semicolons or newlines.  A single position spec is replicated to all
    ``m`` positions; otherwise exactly ``m`` must be given.
    """
    if m < 1:
        raise PartitionFormatError("fragment length must be >= 1")
    position_specs = [p.strip() for p in spec.replace("\n", ";").split(";") if p.strip()]
    if not position_specs:
        raise PartitionFormatError("empty partition spec")
    if len(position_specs) == 1:
        position_specs = position_specs * m
    if len(position_specs) != m:
        raise PartitionFormatError(
            f"expected 1 or {m} position specs, got {len(position_specs)}"
        )
    clusters = tuple(
        tuple(c.strip() for c in pos.split(",") if c.strip())
        for pos in position_specs
    )
    canonical = ";".join(",".join(pos) for pos in clusters)
    return PartitionScheme(alphabet=alphabet, clusters=clusters, spec_string=canonical)
