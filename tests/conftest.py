"""Shared fixtures: the worked 4-letter example and reference oracles."""

from __future__ import annotations

import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest

import fsindex as fx
from fsindex import query

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# 4-letter worked example: score matrix and the distances it induces
TOY_MATRIX_TEXT = """\
   a  b  c  d
a  5 -3  2 -2
b -3  5 -4  3
c  2 -4  6 -4
d -2  3 -4  6
"""

TOY_D = np.array([
    [0, 8, 3, 7],
    [8, 0, 9, 2],
    [4, 10, 0, 10],
    [8, 3, 10, 0],
])


@pytest.fixture(scope="session")
def toy_s() -> fx.ScoreMatrix:
    return fx.parse_score_matrix(TOY_MATRIX_TEXT)


@pytest.fixture(scope="session")
def toy_alpha(toy_s) -> fx.Alphabet:
    return toy_s.alphabet


@pytest.fixture(scope="session")
def toy_d(toy_s) -> fx.DistanceMatrix:
    return fx.distance_from_score(toy_s)


@pytest.fixture(scope="session")
def toy_scheme(toy_alpha) -> fx.PartitionScheme:
    # alpha = {a, c} (rank 0), beta = {b, d} (rank 1) at all three positions
    return fx.parse_partition("ac,bd", toy_alpha, 3)


def all_fragments_db(alphabet: fx.Alphabet, m: int) -> fx.SequenceDB:
    records = tuple(
        (f"w{i}", "".join(p))
        for i, p in enumerate(itertools.product(alphabet.letters, repeat=m))
    )
    return fx.SequenceDB(records=records)


@pytest.fixture(scope="session")
def toy_cube(toy_alpha) -> fx.FragmentDataset:
    """Every fragment of length 3 over the 4-letter alphabet, once each."""
    return fx.extract_fragments(all_fragments_db(toy_alpha, 3), 3, alphabet=toy_alpha)


@pytest.fixture(scope="session")
def toy_index(toy_cube, toy_scheme) -> fx.FSIndex:
    return fx.build(toy_cube, toy_scheme)


def random_partition(rng, alphabet: fx.Alphabet, m: int, max_clusters: int = 6) -> fx.PartitionScheme:
    """Random surjective partition per position, 2..max_clusters clusters."""
    specs = []
    for _ in range(m):
        k = int(rng.integers(2, min(max_clusters, len(alphabet) - 1) + 1))
        letters = list(alphabet.letters)
        rng.shuffle(letters)
        groups = [[] for _ in range(k)]
        for i, c in enumerate(letters):
            groups[i % k].append(c)
        specs.append(",".join("".join(g) for g in groups))
    return fx.parse_partition(";".join(specs), alphabet, m)


def random_db(rng, alphabet: fx.Alphabet, n_seqs: int, min_len: int, max_len: int,
              bad_rate: float = 0.0) -> fx.SequenceDB:
    records = []
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len + 1))
        codes = rng.integers(0, len(alphabet), size=length)
        chars = [alphabet.letters[c] for c in codes]
        if bad_rate:
            for j in range(length):
                if rng.random() < bad_rate:
                    chars[j] = "x" if "x" not in alphabet else "!"
        records.append((f"r{i}", "".join(chars)))
    return fx.SequenceDB(records=tuple(records))


def random_query(rng, alphabet: fx.Alphabet, m: int, kind: str,
                 d: fx.DistanceMatrix | None = None) -> fx.QueryFunction:
    if kind == "distance":
        omega = "".join(alphabet.letters[c] for c in rng.integers(0, len(alphabet), m))
        return fx.distance_query(d, omega)
    table = rng.integers(-12, 25, size=(m, len(alphabet)))
    return fx.pssm_query(table, alphabet)


def row_letters(index) -> np.ndarray:
    """(n, m) letters of every frag row of an ``FSIndex`` or ``FlatIndex``,
    expanded along the lcp: a row whose lcp is ``m`` repeats its
    predecessor's letters, and every other row has its own key row."""
    m = index.letters.shape[1]
    return index.letters[np.cumsum(index.lcp[:-1] < m) - 1]


def reference_span_scan(index: fx.FSIndex, lo: int, hi: int,
                        q: fx.NormalizedQuery, eps: int) -> tuple[list, int]:
    """Literal sequential transcription of the bin-scan procedure.

    Returns (hits as (frag_row, value), residues evaluated).  Used as the
    cost-model oracle for the vectorized scanner.  It walks the frag rows
    ``lo`` to ``hi`` with their letters expanded (``row_letters``), for a
    query at most as long as the rows; a row whose occurrence is shorter
    than the query is skipped after the checkpoint.
    """
    m_eval = q.m
    qt = q.base.tables
    ds = index.dataset
    assert m_eval <= index.letters.shape[1], "a query at most as long as the rows"
    letters = row_letters(index)
    cd = [0] * (m_eval + 1)
    hits = []
    residues = 0
    for i in range(lo, hi):
        lcp_own = min(int(index.lcp[i]), m_eval)
        lcp_next = min(int(index.lcp[i + 1]), m_eval)
        row = letters[i]
        for j in range(lcp_own, lcp_next):
            cd[j + 1] = cd[j] + int(qt[j, row[j]])
            residues += 1
        sid, off = int(index.sids[i]), int(index.offs[i])
        valid = int(ds.seq_lengths[sid]) - off >= m_eval
        if valid and cd[lcp_next] <= eps:
            for j in range(lcp_next, m_eval):
                cd[j + 1] = cd[j] + int(qt[j, row[j]])
                residues += 1
            if cd[m_eval] <= eps:
                hits.append((i, cd[m_eval]))
    return hits, residues


def brute_force_values(ds: fx.FragmentDataset, f: fx.QueryFunction) -> dict:
    """(seq_id, offset) -> value over all occurrences evaluable at f.m."""
    out = {}
    klen = ds.key_lengths()
    for row in range(ds.n):
        if klen[row] < f.m:
            continue
        text = ds.fragment_text(int(ds.sids[row]), int(ds.offs[row]), f.m)
        out[(int(ds.sids[row]), int(ds.offs[row]))] = f.evaluate(text)
    return out


def hits_as_set(hits, shift: int = 0) -> set:
    return {(r.seq_id, r.offset, v + shift) for r, v in hits}


@contextlib.contextmanager
def wide_types():
    """Keep the arrays a search narrows to 32 bits (a lower-bound table's
    child steps and bounds, so the sweep's ranks and bounds) in int64,
    whatever their values."""
    with mock.patch.object(query, "_int_type", lambda largest: np.int64):
        yield
