"""The span-scan kernel against plain evaluations of the rows it scans.

``search._scan_rows`` takes key rows, evaluates each stored key once and
expands a hit key to its frag rows.  Each case compares it with a Python
reference that evaluates one of three units (``WAYS``): every frag row on
its own (``rows``); one row per run of frag rows whose letters agree over
the query's positions (``runs``); or one row per stored key, with the
kernel's counter formulas (``default``).  Each must give, row for row,
what the kernel gives: the same hit rows in row order, the same values,
fragment, residue and key counts, however the keys are cut into pieces.
"""

import numpy as np
import pytest

import fsindex as fx
from conftest import row_letters
from fsindex import search


def frag_rows(index, keys):
    """The frag rows of the key rows ``keys``, in order."""
    return np.concatenate([
        np.arange(index.key_starts[k], index.key_starts[k + 1]) for k in keys.tolist()
    ] + [np.zeros(0, dtype=np.int64)]).astype(np.int64)


def per_row(index, qtab, keys, eval_len, eps):
    """Each frag row on its own: its value over the first ``w`` positions,
    its checkpoint at the prefix it shares with its successor, and the
    residues the sequential scan reads on it; the key count of the rows
    whose first ``w`` letters differ from their predecessor's."""
    w = min(eval_len, index.letters.shape[1])
    pad = len(index.dataset.alphabet)
    letters_of = row_letters(index)
    idx = frag_rows(index, keys)
    hits, vals, residues, count = [], [], 0, 0
    for pos, row in enumerate(idx.tolist()):
        own, nxt = min(int(index.lcp[row]), w), min(int(index.lcp[row + 1]), w)
        letters = letters_of[row]
        prefix = [0]
        for j in range(w):
            prefix.append(prefix[-1] + int(qtab[j, letters[j]]))
        accepted = int(letters[w - 1]) < pad and prefix[nxt] <= eps
        residues += max(nxt - own, 0) + (eval_len - nxt if accepted else 0)
        count += own < w
        if accepted and prefix[w] <= eps:
            hits.append(pos)
            vals.append(prefix[w])
    hits = idx[np.array(hits, dtype=np.int64)], np.array(vals, dtype=np.int64)
    return *hits, idx.size, residues, count


def per_run(index, qtab, keys, eval_len, eps):
    """One row per run of frag rows whose first ``w`` letters agree (a run
    starts where the lcp is below ``w``, and at the first row): the run's
    value and reach from its first row; every row but the last shares
    ``w`` positions with its successor, so it is accepted with the run's
    value, and the last row's checkpoint is the run's prefix at its lcp
    with its successor."""
    w = min(eval_len, index.letters.shape[1])
    pad = len(index.dataset.alphabet)
    letters_of = row_letters(index)
    idx = frag_rows(index, keys).tolist()
    own = [min(int(index.lcp[r]), w) for r in idx]
    nxt = [min(int(index.lcp[r + 1]), w) for r in idx]
    starts = [i for i in range(len(idx)) if i == 0 or own[i] < w] + [len(idx)]
    hits, vals, count = [], [], sum(o < w for o in own)
    residues = sum(max(b - a, 0) for a, b in zip(own, nxt))
    for a, b in zip(starts, starts[1:]):
        letters = letters_of[idx[a]]
        prefix = [0]
        for j in range(w):
            prefix.append(prefix[-1] + int(qtab[j, letters[j]]))
        reach = int(letters[w - 1]) < pad
        for i in range(a, b):
            accepted = reach and prefix[nxt[i]] <= eps
            residues += eval_len - nxt[i] if accepted else 0
            if accepted and prefix[w] <= eps:
                hits.append(idx[i])
                vals.append(prefix[w])
    hits = np.array(hits, dtype=np.int64), np.array(vals, dtype=np.int64)
    return *hits, len(idx), residues, count


def per_key(index, qtab, keys, eval_len, eps):
    """One row per stored key: ``lo`` its first row's lcp, ``ln`` the next
    key's, ``ln'`` ``w`` for a key of several rows and ``ln`` otherwise
    (all capped at ``w``); residues ``max(ln' - lo, 0)`` plus ``eval_len -
    ln`` when accepted at ``ln``; a key counts when ``lo < w``; a hit key
    expands to its frag rows; its rows count as fragments."""
    w = min(eval_len, index.letters.shape[1])
    pad = len(index.dataset.alphabet)
    hits, vals, fragments, residues, count = [], [], 0, 0, 0
    for k in keys.tolist():
        first, end = int(index.key_starts[k]), int(index.key_starts[k + 1])
        fragments += end - first
        lo, ln = min(int(index.lcp[first]), w), min(int(index.lcp[end]), w)
        after = w if end - first > 1 else ln
        letters = index.letters[k]
        prefix = [0]
        for j in range(w):
            prefix.append(prefix[-1] + int(qtab[j, letters[j]]))
        accepted = int(letters[w - 1]) < pad and prefix[ln] <= eps
        residues += max(after - lo, 0) + (eval_len - ln if accepted else 0)
        count += lo < w
        if accepted and prefix[w] <= eps:
            hits.extend(range(first, end))
            vals.extend([prefix[w]] * (end - first))
    hits = np.array(hits, dtype=np.int64), np.array(vals, dtype=np.int64)
    return *hits, fragments, residues, count


WAYS = {"rows": per_row, "runs": per_run, "default": per_key}


def same(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2:] == want[2:]


def joined(pieces):
    return (
        np.concatenate([p[0] for p in pieces]), np.concatenate([p[1] for p in pieces]),
        *(sum(p[i] for p in pieces) for i in (2, 3, 4)),
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
    # one key of 296 rows: more than a key's stored row count holds
    poly = fx.SequenceDB(records=redundant.records + (("w", "W" * 300),))
    scheme = fx.parse_partition("TSAN,ILVM,KR,DEQ,WFYH,GPC", s.alphabet, 5)
    return {
        "poly": fx.build(fx.extract_fragments(poly, 5), scheme),
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
    ("unique", "WKLMP", None),  # no repeats: every row is its own key
    ("poly", "WWWWY", None),  # a hit key of 296 rows
]


def scan_case(indexes, blosum, name, text, eps):
    index = indexes[name]
    f = fx.distance_query(blosum[1], text)
    q = fx.normalize(f)
    if eps is None:
        eps = fx.linear_scan_knn(index.dataset, f, 40).values()[-1] - q.shift
    return index, search._query_table(q), np.arange(index.n_keys), q.m, eps


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("name, text, eps", CASES)
def test_kernel_equals_per_row(name, text, eps, way, indexes, blosum):
    index, qtab, idx, length, eps = scan_case(indexes, blosum, name, text, eps)
    want = WAYS[way](index, qtab, idx, length, eps)
    assert want[0].size > 0
    same(search._scan_rows(index, qtab, idx, length, eps), want)
    # the data are what the case says: repeated keys, or none
    keys = want[4]
    if name == "unique":
        assert keys == index.n_keys == index.n
    elif name == "poly":
        # row counts are capped at the pad code; this key's come from the starts
        cap = len(index.alphabet)
        assert index.records[:, -1].max() == cap and np.diff(index.key_starts).max() == 296
    else:
        assert keys < 0.6 * index.n
        assert index.n_keys < 0.6 * index.n  # stored once per key


@pytest.mark.parametrize("way", ["rows", "runs"])
@pytest.mark.parametrize("name, text, eps", CASES)
def test_kernel_pieces_cut_at_every_offset(name, text, eps, way, indexes, blosum):
    index, qtab, idx, length, eps = scan_case(indexes, blosum, name, text, eps)
    want = WAYS[way](index, qtab, idx, length, eps)
    after_repeats = 0  # cuts right after a key of several rows
    for cut in range(idx.size + 1):
        pieces = (idx[:cut], idx[cut:])
        same(joined([search._scan_rows(index, qtab, p, length, eps) for p in pieces]), want)
        after_repeats += cut > 0 and int(np.diff(index.key_starts[cut - 1:cut + 1])[0]) > 1
    assert after_repeats > 0 or name == "unique"


@pytest.mark.parametrize("way", ["rows", "runs"])
def test_kernel_on_every_third_bin(way, indexes, blosum):
    # the keys of some bins, as a scan of accepted nodes reads them
    index, qtab, _, length, eps = scan_case(indexes, blosum, "redundant", "WKLMP", None)
    idx = np.concatenate([np.arange(lo, hi) for lo, hi in zip(index.bins[:-1:3], index.bins[1::3])])
    same(search._scan_rows(index, qtab, idx, length, eps), WAYS[way](index, qtab, idx, length, eps))
