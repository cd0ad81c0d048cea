"""Reference answers by exhaustive evaluation, and the answer checks.

The fragment rows are enumerated from the corpus records directly, not
from the program's extraction, by the documented rule: fixed mode keeps
every clean width-``m`` window; suffix mode keeps every tail whose first
``min(length, m)`` letters are clean.  Each row keeps ``width`` letter
codes (past the sequence end: the pad code), stored as base-21 triples
so one query costs ``width / 3`` gathers over all rows.  Invalid letters
and the pad cost ``PAD_COST``, far above any radius, so a row shorter
than the query, or with an unclean letter inside it, never matches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAD_COST = 1000
_BASE = 21  # 20 letters plus the pad code


@dataclass(frozen=True)
class Answer:
    """What one query must return: its k-NN radius, the hits within it and
    the k smallest values."""

    radius: int           # k-th smallest value, original distance units
    hits: np.ndarray      # (h, 3) int64 rows of (seq_id, offset, value), sorted
    smallest: np.ndarray  # the k smallest values, ascending


class Reference:
    """Exhaustive evaluator of distance queries over every fragment row."""

    def __init__(self, sequences, letters: str, distance: np.ndarray,
                 m: int, suffix_mode: bool, width: int):
        pad = len(letters)
        if pad != _BASE - 1:
            raise ValueError("reference evaluation expects a 20-letter alphabet")
        lut = np.full(256, pad, dtype=np.uint8)
        for i, c in enumerate(letters):
            lut[ord(c)] = i
        blobs = [lut[np.frombuffer(s.encode("latin-1"), dtype=np.uint8)] for s in sequences]
        self.starts = np.zeros(len(blobs) + 1, dtype=np.int64)
        np.cumsum([b.size for b in blobs], out=self.starts[1:])
        self.codes = np.concatenate(blobs)
        self.distance = np.asarray(distance, dtype=np.int64)
        self.width = width

        bad = np.zeros(self.codes.size + 1, dtype=np.int64)
        np.cumsum(self.codes == pad, out=bad[1:])
        sids, offs = [], []
        for sid in range(len(blobs)):
            lo, length = int(self.starts[sid]), blobs[sid].size
            last = length - (1 if suffix_mode else m)
            off = np.arange(max(last + 1, 0), dtype=np.int64)
            span = np.minimum(m, length - off)
            off = off[bad[lo + off + span] == bad[lo + off]]
            sids.append(np.full(off.size, sid, dtype=np.int64))
            offs.append(off)
        self.sids = np.concatenate(sids)
        self.offs = np.concatenate(offs)

        base = self.starts[self.sids] + self.offs
        room = self.starts[self.sids + 1] - base
        n_triples = -(-width // 3)
        cols = np.full((3 * n_triples, self.sids.size), pad, dtype=np.uint16)
        for j in range(width):
            live = room > j
            cols[j, live] = self.codes[base[live] + j]
        self.triples = [
            (cols[3 * t] * _BASE + cols[3 * t + 1]) * _BASE + cols[3 * t + 2]
            for t in range(n_triples)
        ]

    @property
    def n(self) -> int:
        return int(self.sids.size)

    def values(self, query_codes: np.ndarray) -> np.ndarray:
        """Query value of every row (``>= PAD_COST`` where it cannot match)."""
        length = len(query_codes)
        if not 1 <= length <= self.width:
            raise ValueError(f"query length {length} outside 1..{self.width}")
        table = np.zeros((3 * len(self.triples), _BASE), dtype=np.int16)
        table[:length, :-1] = self.distance[query_codes]
        table[:length, -1] = PAD_COST
        out = None
        for t in range(-(-length // 3)):
            a, b, c = table[3 * t:3 * t + 3]
            cube = (a[:, None, None] + b[None, :, None] + c[None, None, :]).ravel()
            part = cube.take(self.triples[t])
            out = part if out is None else out + part
        return out

    def answer(self, query_codes: np.ndarray, k: int) -> Answer:
        vals = self.values(query_codes)
        smallest = np.sort(np.partition(vals, k - 1)[:k])
        radius = int(smallest[-1])
        if radius >= PAD_COST:
            raise ValueError(f"fewer than {k} rows can match the query")
        rows = np.flatnonzero(vals <= radius)
        hits = np.stack([self.sids[rows], self.offs[rows], vals[rows].astype(np.int64)], axis=1)
        return Answer(radius, hits, smallest.astype(np.int64))

    def direct_value(self, query_codes: np.ndarray, seq_id: int, offset: int) -> int | None:
        """Value of the window at (seq_id, offset), or None if it has none."""
        if not 0 <= seq_id < self.starts.size - 1 or offset < 0:
            return None
        lo = int(self.starts[seq_id]) + offset
        if lo + len(query_codes) > self.starts[seq_id + 1]:
            return None
        window = self.codes[lo:lo + len(query_codes)]
        if (window >= _BASE - 1).any():
            return None
        return int(self.distance[query_codes, window].sum())


def sorted_triples(rows) -> np.ndarray:
    """(seq_id, offset, value) rows as a (h, 3) array in lexicographic order."""
    arr = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return arr[np.lexsort(arr.T[::-1])]


def range_mismatch(got_rows, expected: Answer) -> str | None:
    """Compare reported (seq_id, offset, value) rows as a multiset."""
    got = sorted_triples(got_rows)
    if np.array_equal(got, expected.hits):
        return None
    return f"{len(got)} hits reported, {len(expected.hits)} expected (or values differ)"


def knn_mismatch(reference: Reference, query_codes, k: int, got_rows,
                 expected: Answer) -> str | None:
    """Compare k-NN rows by sorted values, then check each reported value
    directly; tie order among equal values is not fixed."""
    got = sorted_triples(got_rows)
    if not np.array_equal(np.sort(got[:, 2]), expected.smallest[:k]):
        return "k-NN values differ from the k smallest"
    if np.unique(got[:, :2], axis=0).shape[0] != got.shape[0]:
        return "k-NN reported one fragment twice"
    for sid, off, val in got:
        if reference.direct_value(query_codes, int(sid), int(off)) != val:
            return f"k-NN value {val} at ({sid}, {off}) disagrees with direct evaluation"
    return None
