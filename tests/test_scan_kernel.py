"""The span-scan kernel against a per-row evaluation of the rows it scans.

``search._scan_rows`` evaluates one row per run of equal keys when the runs
are few, and every row on its own otherwise.  Each case runs both ways (the
cut-over constants patched to force one) and must give, row for row, what
evaluating every row on its own gives: the same hit rows in row order, the
same values, residues and key count, however the rows are cut into pieces.
"""

import numpy as np
import pytest

import fsindex as fx
from fsindex import search

# (_RUN_SHARE, _RUN_FIXED) that force each way, and the defaults
WAYS = {"rows": (0.0, 0), "runs": (1.0, 0), "default": (search._RUN_SHARE, search._RUN_FIXED)}


def per_row(index, qtab, idx, eval_len, eps):
    """Each row on its own: its value over the first ``w`` positions, its
    checkpoint at the prefix it shares with its successor, and the residues
    the sequential scan reads on it; the key count of the rows whose first
    ``w`` letters differ from their predecessor's."""
    w = min(eval_len, index.letters.shape[1])
    pad = len(index.dataset.alphabet)
    hits, vals, residues, keys = [], [], 0, 0
    for pos, row in enumerate(idx.tolist()):
        own, nxt = min(int(index.lcp[row]), w), min(int(index.lcp[row + 1]), w)
        letters = index.letters[row]
        prefix = [0]
        for j in range(w):
            prefix.append(prefix[-1] + int(qtab[j, letters[j]]))
        accepted = int(letters[w - 1]) < pad and prefix[nxt] <= eps
        residues += max(nxt - own, 0) + (eval_len - nxt if accepted else 0)
        keys += own < w
        if accepted and prefix[w] <= eps:
            hits.append(pos)
            vals.append(prefix[w])
    return idx[np.array(hits, dtype=np.int64)], np.array(vals, dtype=np.int64), residues, keys


def force(monkeypatch, way):
    monkeypatch.setattr(search, "_RUN_SHARE", WAYS[way][0])
    monkeypatch.setattr(search, "_RUN_FIXED", WAYS[way][1])


def same(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2:] == want[2:]


def joined(pieces):
    return (
        np.concatenate([p[0] for p in pieces]), np.concatenate([p[1] for p in pieces]),
        sum(p[2] for p in pieces), sum(p[3] for p in pieces),
    )


@pytest.fixture(scope="module")
def blosum():
    s = fx.load_builtin_matrix("BLOSUM62")
    return s, fx.distance_from_score(s)


def families(alphabet, rng, bases, copies, length, mutation):
    """``bases`` random sequences, each also in ``copies - 1`` point-mutated
    copies."""
    letters = alphabet.letters
    records = []
    for b in range(bases):
        base = rng.integers(0, len(letters), length)
        for c in range(copies):
            seq = base.copy()
            if c:
                flips = rng.random(length) < mutation
                seq[flips] = rng.integers(0, len(letters), int(flips.sum()))
            records.append((f"b{b}c{c}", "".join(letters[i] for i in seq)))
    return fx.SequenceDB(records=tuple(records))


@pytest.fixture(scope="module")
def indexes(blosum):
    s = blosum[0]
    rng = np.random.default_rng(2718)
    redundant = families(s.alphabet, rng, 15, 4, 30, 0.05)
    unique = families(s.alphabet, rng, 40, 1, 40, 0.0)
    scheme = fx.parse_partition("TSAN,ILVM,KR,DEQ,WFYH,GPC", s.alphabet, 5)
    return {
        "redundant": fx.build(fx.extract_fragments(redundant, 5), scheme),
        "suffix": fx.build(fx.extract_fragments(redundant, 5, suffix_mode=True), scheme),
        "unique": fx.build(fx.extract_fragments(unique, 5), scheme),
    }


# (index, query, radius): None takes the query's 40-NN value
CASES = [
    ("redundant", "WKLMP", None),
    ("redundant", "HEAGD", fx.INF_RADIUS),  # the first k-NN scan: every key reaches
    ("suffix", "WKL", None),  # w < m: keys shorter than m, pad codes past them
    ("suffix", "HE", fx.INF_RADIUS),
    ("unique", "WKLMP", None),  # no repeats: every row is its own run
]


def scan_case(indexes, blosum, name, text, eps):
    index = indexes[name]
    f = fx.distance_query(blosum[1], text)
    q = fx.normalize(f)
    if eps is None:
        eps = fx.linear_scan_knn(index.dataset, f, 40).values()[-1] - q.shift
    return index, search._query_table(q), np.arange(index.n), q.m, eps


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("name, text, eps", CASES)
def test_kernel_equals_per_row(name, text, eps, way, indexes, blosum, monkeypatch):
    index, qtab, idx, length, eps = scan_case(indexes, blosum, name, text, eps)
    force(monkeypatch, way)
    want = per_row(index, qtab, idx, length, eps)
    assert want[0].size > 0
    same(search._scan_rows(index, qtab, idx, length, eps), want)
    # the data are what the case says: repeated keys, or none
    keys = want[3]
    if name == "unique":
        assert keys == index.n
    else:
        assert keys < 0.6 * index.n
        share, fixed = WAYS["default"]  # which evaluates these rows by run
        assert keys <= share * (index.n - fixed)


@pytest.mark.parametrize("way", ["rows", "runs"])
@pytest.mark.parametrize("name, text, eps", CASES)
def test_kernel_pieces_cut_at_every_offset(name, text, eps, way, indexes, blosum, monkeypatch):
    index, qtab, idx, length, eps = scan_case(indexes, blosum, name, text, eps)
    force(monkeypatch, way)
    want = per_row(index, qtab, idx, length, eps)
    inside = 0  # cuts that start a piece inside a run
    for cut in range(idx.size + 1):
        pieces = (idx[:cut], idx[cut:])
        same(joined([search._scan_rows(index, qtab, p, length, eps) for p in pieces]), want)
        inside += cut < idx.size and int(index.lcp[idx[cut]]) >= min(length, index.m)
    assert inside > 0 or name == "unique"


@pytest.mark.parametrize("way", ["rows", "runs"])
def test_kernel_on_every_third_bin(way, indexes, blosum, monkeypatch):
    # the rows of some bins, as a scan of accepted nodes reads them
    index, qtab, _, length, eps = scan_case(indexes, blosum, "redundant", "WKLMP", None)
    force(monkeypatch, way)
    idx = np.concatenate([np.arange(lo, hi) for lo, hi in zip(index.bins[:-1:3], index.bins[1::3])])
    same(search._scan_rows(index, qtab, idx, length, eps), per_row(index, qtab, idx, length, eps))
