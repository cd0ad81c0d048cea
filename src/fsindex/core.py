"""The fragment index: occupancy bits and per-bin sorted fragment positions.

Construction, ``_sorted_run``, sorts one packed unsigned key per
fragment into a sorted run (``KeyRows``): ``flat_build`` returns one, the
flat baseline, and ``build`` indexes one.  The key holds the bin rank's bits,
then per position the letter's ordinal within its cluster (1 up, in code
order; 0 for the pad) in the bit length of the position's largest
cluster.  Within a bin every letter at a position lies in that position's
cluster, so the key orders fragments as (rank, letters, pad first) does.
The key is a sum of per-position table values read straight from the
sequence codes; past 64 bits it takes further uint64 words.  A
least-significant-digit radix sort gives the order, equal keys in
extraction order: each pass sorts one digit of the key (at most ``64 -
bit_length(n - 1)`` bits) above each row's place, with numpy's unstable
sort (``_sorted_order``); the 1.1M-fragment length-9 key takes two.  Bins
start where the rank field changes, and a fragment's lcp is the first
ordinal field in which its key differs from its predecessor's, capped at
its key length.  A row whose lcp is ``m`` repeats its predecessor's
letters (an lcp of a sorted run marks every duplicate, as a suffix
array's does), so each distinct key is stored once, in sorted order.
``build`` reports the time of each of these phases if asked.  The arrays
that result:

* ``pos`` - each fragment's code position (the dataset's), ordered by
  (bin rank, fragment letters), as a suffix array orders text positions:
  uint32 up to 2^32 codes, uint64 above (``ingest.POS_LIMIT``);
* ``occupancy`` - per position ``j``, 64-bit words with a bit per aligned
  block of ``radix_weights[j]`` ranks, set when the block holds a
  fragment: the last level has a bit per bin;
* ``bins`` - offsets into the key rows of the non-empty bins, then the
  key count; a bin's entry is a rank over the last level's bits;
* ``records`` - one (m + 4)-byte record per key row, a fragment whose
  lcp is below ``m``, in frag order: the key's first ``m`` letter codes
  (a key shorter than ``m`` ends where its pad codes, ``len(alphabet)``,
  start), its lcp, the next key's lcp, by how much the lcp of the row
  after its first exceeds its own (its gain: ``m - lcp`` on a key of
  more rows) and its row count, capped at the pad code.  So every byte
  of a record is at most the pad code when ``m`` is, and one ``max`` over
  the block checks the letters.  A key whose count sits at the cap has
  its true row count stored after the records block, as u32.  The key
  starts (``key_starts``, not stored) are the running sum of the row
  counts, and a fragment's letters are those of the last key row at or
  before it;
* ``lcp`` - not stored: n+1 shared-prefix lengths between neighbouring
  fragments, derived from the records (a key's own lcp at its first row,
  ``m`` at every later row, 0 after the last fragment).  No scan reads
  it: ``audit()`` checks it and the cost-model tests read it.

The index is immutable after construction and safe to share across
concurrent searches.  ``save`` writes these arrays after a header;
``load`` maps that file read-only, keeps each array as a view of the map
and checks them without allocating anything of the file's size.
"""

from __future__ import annotations

import mmap
import os
import struct
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

# not hashlib's, which would also load OpenSSL's _hashlib: 3-4 ms of every cold search
from _blake2 import blake2b

import numpy as np

from .alphabet import Alphabet, PartitionScheme, parse_partition
from .ingest import FragmentDataset, SequenceDB, encode_db

MAGIC = b"FSIX"
FORMAT_VERSION = 5
# magic, version, m, n, keys, bins, non-empty bins, largest bin, alphabet
# and partition text bytes, suffix flag, bytes per position, digest of the
# encoded sequence set
_HEADER = struct.Struct("<4sIIQQQQQIIBB32s")
# the arrays after the header, in file order, the first 8-byte aligned;
# positions take the header's width.  The true row counts of the keys whose
# count byte sits at the cap, "<u4", end the file
_ARRAYS = (("occupancy", "<u8"), ("bins", "<u4"), ("pos", None), ("records", "<u1"))
_FIELDS = 4  # record bytes after a key's letters: lcp, next key's lcp, gain, rows


class IndexFormatError(ValueError):
    """Raised when an index file is malformed or mismatched."""


def bin_of(scheme: PartitionScheme, fragment: str) -> int:
    """Bin rank of a fragment: the mixed-radix value of its cluster digits."""
    return scheme.rank(scheme.digits(fragment))


def _raw_lcp(rows: np.ndarray) -> np.ndarray:
    """Shared-prefix length of each row with its predecessor (row 0 -> 0):
    the first position where the two differ, the row width if none."""
    n, m = rows.shape
    out = np.zeros(n, dtype=np.int64)
    if n > 1:
        stop = rows[1:] != rows[:-1]
        out[1:] = np.where(stop.any(axis=1), stop.argmax(axis=1), m)
    return out


_PIECE_ROWS = 1 << 16  # rows per piece of the keys' packing and sort


def _cluster_ordinals(scheme: PartitionScheme) -> np.ndarray:
    """(m, |alphabet|+1) uint64: each letter's 1-based place, in code order,
    within its cluster at each position; 0 in the pad column."""
    out = np.zeros((scheme.m, len(scheme.alphabet) + 1), dtype=np.uint64)
    for j, position in enumerate(scheme.clusters):
        for cluster in position:
            out[j, sorted(map(scheme.alphabet.ordinal, cluster))] = np.arange(1, len(cluster) + 1)
    return out


def _key_tables(
    ordinals: np.ndarray, scheme: PartitionScheme | None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Lay out the sort key's fields, most significant first, in 64-bit
    words, no field across two words: given a scheme the bin rank in
    ``bit_length(n_bins - 1)`` bits, then each position's ordinal in the
    ``bit_length`` of its largest.  Returns (words, m, |alphabet|+1) uint64
    tables, whose sum over a fragment's letters is its key, and each word's
    field floors (``1 << shift``) in ascending order."""
    widths = [int(row.max()).bit_length() for row in ordinals]
    if scheme is not None:
        widths.insert(0, (scheme.n_bins - 1).bit_length())
    place, word, used = [], -1, 64  # (word, shift) of each field
    for width in widths:
        if used + width > 64:
            word, used = word + 1, 0
        used += width
        place.append((word, 64 - used))
    floors = [np.array(sorted(1 << s for v, s in place if v == w), dtype=np.uint64)
              for w in range(word + 1)]
    tables = np.zeros((word + 1, *ordinals.shape), dtype=np.uint64)
    if scheme is not None:
        w, shift = place.pop(0)
        rank = scheme.digit_table() * scheme.radix_weights[:, None]
        tables[w] += rank.astype(np.uint64) << np.uint64(shift)
    for j, (w, shift) in enumerate(place):
        tables[w, j] += ordinals[j] << np.uint64(shift)
    return tables, floors


def _packed_keys(ds: FragmentDataset, tables: np.ndarray, klen: np.ndarray | None) -> np.ndarray:
    """(words, n) uint64 keys: per fragment the sum of ``tables[:, j, code]``
    over its first ``m`` codes, a suffix's codes past its key length
    ``klen`` counting as the pad, read from the code array a pass of rows at
    a time into buffers reused by every pass.  The gathers write with
    ``mode="clip"``: their indices are in bounds, and ``"raise"`` would copy
    ``out`` first."""
    n, m, pad = ds.n, ds.m, len(ds.alphabet)
    live = tables.any(axis=2)  # the positions with a field in each word
    keys = np.zeros((len(tables), n), dtype=np.uint64)
    padded = np.concatenate([ds.codes, np.full(m, pad, dtype=np.uint8)])
    size = min(n, _PIECE_ROWS)
    codes, part = np.empty(size, dtype=np.uint8), np.empty(size, dtype=np.uint64)
    for a in range(0, n, _PIECE_ROWS):
        b = min(a + _PIECE_ROWS, n)
        pos, k = ds.pos[a:b], b - a
        for j in range(m):
            padded[j:].take(pos, out=codes[:k], mode="clip")
            if klen is not None:
                codes[:k][klen[a:b] <= j] = pad
            for w in np.flatnonzero(live[:, j]):
                keys[w, a:b] += tables[w, j].take(codes[:k], out=part[:k], mode="clip")
    return keys


def _sorted_order(keys: np.ndarray) -> np.ndarray:
    """The row order that sorts (words, n) uint64 keys, the first word most
    significant, with equal keys in row order.

    A least-significant-digit radix sort (Knuth, TAOCP vol. 3, 5.2.5)
    whose passes are numpy's unstable sorts, several times faster than its
    stable ones on uint64.  The digits cover each word's bits from its
    lowest to its highest set bit, the last word first, each at most
    ``64 - r`` bits, ``r = bit_length(n - 1)``.  A pass writes each row's
    digit, in the previous pass's order, above the row's place in that
    order (the low ``r`` bits) into one reused buffer, sorts the buffer
    and reads the places back.  The values are distinct, so equal digits
    keep the previous order, and the passes compose to a stable sort.  The
    places are added ``_PIECE_ROWS`` at a time: an n-long array of them
    raised the process's peak RSS by ~6 MB on the 1.1M-fragment corpus."""
    n = keys.shape[1]
    r = max(n - 1, 0).bit_length()
    buf = np.empty(n, dtype=np.uint64)
    order = None  # the rows in the order of the passes so far
    for word in keys[::-1]:
        span = int(np.bitwise_or.reduce(word))  # the bits set in any row
        lo, hi = max((span & -span).bit_length() - 1, 0), span.bit_length()
        for a in range(lo, hi, 64 - r):
            if order is None:
                np.right_shift(word, np.uint64(a), out=buf)
            else:
                word.take(order, out=buf, mode="clip")  # "raise" would copy buf first
                buf >>= np.uint64(a)
            buf &= np.uint64((1 << min(64 - r, hi - a)) - 1)
            buf <<= np.uint64(r)
            for b in range(0, n, _PIECE_ROWS):
                piece = buf[b:b + _PIECE_ROWS]
                piece |= np.arange(b, b + piece.size, dtype=np.uint64)
            buf.sort()
            buf &= np.uint64((1 << r) - 1)
            before = buf.view(np.int64)  # the place each row had before the pass
            order = before.copy() if order is None else order.take(before)
    return np.arange(n) if order is None else order


def _lap(phases: dict | None, name: str, since: float) -> float:
    """Add the milliseconds since ``since`` to ``phases[name]``, if a
    dict is given; returns the clock."""
    now = time.perf_counter()
    if phases is not None:
        phases[name] = phases.get(name, 0.0) + 1e3 * (now - since)
    return now


def _first_difference(keys: np.ndarray, order: np.ndarray, floors: list) -> np.ndarray:
    """For each row of the sorted run after the first, the first key field
    in which it differs from its predecessor, the field count if none: in
    the first word where the two differ, the fields whose floor is above
    their xor."""
    end, field = 0, None
    for key, floor in zip(keys, floors):
        ranked = key.take(order)
        xor = ranked[1:] ^ ranked[:-1]
        del ranked
        end += floor.size
        if field is None:
            field = np.searchsorted(floor, xor, side="right")
            np.subtract(end, field, out=field)
        else:  # rows equal in every earlier word
            tie = np.flatnonzero(field == end - floor.size)
            field[tie] = end - np.searchsorted(floor, xor[tie], side="right")
    return field


def _sorted_run(
    ds: FragmentDataset, scheme: PartitionScheme | None = None, phases: dict | None = None
) -> tuple[KeyRows, tuple[np.ndarray, np.ndarray]]:
    """Sort the fragments by (bin rank, letters with the pad first), or by
    letters alone without a scheme, equal keys in extraction order; returns
    the run and the first rows and int64 values of its runs of equal
    leading key fields: given a scheme, the bins' first rows and ranks.

    Each fragment gets one packed key (``_key_tables``, ``_packed_keys``);
    the flat run's one cluster per position is the whole alphabet.  A row's
    lcp is the first position field in which its key differs from its
    predecessor's (``_first_difference``), capped at its key length; a rank
    difference gives 0, as do the first row and the slot after the last.
    Each suffix's key length is taken once: it ends the packed key, and in
    sorted order caps the lcp and pads the key records.  ``phases``
    (``build``) gets the milliseconds of each phase."""
    n, m = ds.n, ds.m
    if m > np.iinfo(np.uint8).max:
        raise ValueError(f"fragment length {m} exceeds the uint8 lcp limit 255")
    t = time.perf_counter()
    if scheme is None:
        pad = len(ds.alphabet)
        ordinals = np.tile(np.r_[1:pad + 1, 0].astype(np.uint64), (m, 1))
    else:
        ordinals = _cluster_ordinals(scheme)
    tables, floors = _key_tables(ordinals, scheme)
    # the key lengths, uint8 like the lcp (m <= 255); a fixed-mode key is m long
    klen = ds.key_lengths().astype(np.uint8) if ds.suffix_mode else None
    keys = _packed_keys(ds, tables, klen)
    t = _lap(phases, "keys", t)
    order = _sorted_order(keys)
    t = _lap(phases, "sort", t)
    field = _first_difference(keys, order, floors)
    first = np.flatnonzero(np.r_[n > 0, field == 0])
    lead = (keys[0].take(order.take(first)) // floors[0][-1]).astype(np.int64)
    del keys
    lcp = np.zeros(n + 1, dtype=np.uint8)
    # the lcp per first differing field: 0 for the rank, j for position j, m for none
    lcp_of = np.r_[[0] * (scheme is not None), 0:m + 1].astype(np.uint8)
    lcp[1:n] = lcp_of.take(field)
    if klen is not None:
        klen = klen.take(order)
        np.minimum(klen, lcp[:n], out=lcp[:n])
    t = _lap(phases, "lcp", t)
    run = replace(ds, pos=ds.pos.take(order))
    run.pos.flags.writeable = False
    del order, field  # n-long; freed before the letters are gathered
    # a key is a run of rows with equal letters: it starts at each row whose lcp is below m
    starts = np.flatnonzero(np.r_[lcp[:n] < m, True]).astype(np.uint32)
    firsts = replace(run, pos=run.pos.take(starts[:-1]))
    records = firsts.letter_matrix(None if klen is None else klen.take(starts[:-1]), _FIELDS)
    _key_fields(records, lcp, starts, len(ds.alphabet))
    _lap(phases, "letters", t)
    return KeyRows(dataset=run, records=records, key_starts=starts), (first, lead)


def _key_fields(records: np.ndarray, lcp: np.ndarray, starts: np.ndarray, pad: int) -> None:
    """Write each key's fields after its letters in ``records``, from the
    lcp and the key starts: its lcp; the next key's (the last slot's, 0,
    after the last key); by how much the lcp of the row after its first
    exceeds its own, if it does (``m - lcp`` on a key of more rows); and
    its row count, capped at ``pad``."""
    m = records.shape[1] - _FIELDS
    first, end = starts[:-1], starts[1:]
    own = lcp.take(first)
    records[:, m] = own
    records[:, m + 1] = lcp.take(end)
    after = lcp.take(first + 1)
    np.maximum(after, own, out=after)
    records[:, m + 2] = after - own
    records[:, m + 3] = np.minimum(end - first, pad)


def _level_words(scheme: PartitionScheme) -> list[int]:
    """64-bit words per occupancy level: one bit per block, one spare."""
    return [scheme.n_bins // int(w) // 64 + 1 for w in scheme.radix_weights]


_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)  # bit b of a word, by b


def _occupancy(scheme: PartitionScheme, filled: np.ndarray) -> np.ndarray:
    """Every level's bits for the ascending non-empty bin ranks ``filled``,
    concatenated.  Each level's distinct blocks come from the next level's,
    and each word is set once, the or of its blocks' bits (read from a
    64-entry table): no temporary holds a byte per bit."""
    sizes = _level_words(scheme)
    words = np.zeros(sum(sizes), dtype=np.uint64)
    starts, weights = np.cumsum([0, *sizes]).tolist(), [*map(int, scheme.radix_weights), 1]
    blocks = filled
    for j in reversed(range(scheme.m) if blocks.size else ()):
        blocks = blocks // (weights[j] // weights[j + 1])
        blocks = blocks.compress(np.r_[True, blocks[1:] != blocks[:-1]])  # distinct, ascending
        word = blocks >> 6
        head = np.flatnonzero(np.r_[True, word[1:] != word[:-1]])  # each word's first block
        words[starts[j] + word.take(head)] = np.bitwise_or.reduceat(_BITS.take(blocks & 63), head)
    return words.astype("<u8", copy=False)


def _set_bits(words: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.unpackbits(words.view(np.uint8), bitorder="little"))


def _sequence_digest(codes: np.ndarray, starts: np.ndarray) -> bytes:
    """blake2b of an encoded sequence set: sequence boundaries, then codes."""
    digest = blake2b(starts.astype("<i8", copy=False), digest_size=32)
    digest.update(np.ascontiguousarray(codes))
    return digest.digest()


@dataclass(frozen=True, kw_only=True)
class KeyRows:
    """A sorted run of fragments, as ``_sorted_run`` makes it: its
    dataset's fragments in frag order, a record per key (``records``) and
    the key starts.  ``flat_build`` returns one, the flat baseline; an
    ``FSIndex`` extends the one ``build`` indexes.  The references (its
    dataset's, derived once and cached there), letters and lcp are read
    from those."""

    dataset: FragmentDataset  # its fragments in frag order: the positions
    records: np.ndarray  # (keys, m + 4) uint8, frag order: letters (pad = |alphabet|), fields
    key_starts: np.ndarray  # (keys + 1,) uint32, the key rows, then n; derived, not stored

    @property
    def pos(self) -> np.ndarray:
        return self.dataset.pos

    @property
    def sids(self) -> np.ndarray:
        return self.dataset.sids

    @property
    def offs(self) -> np.ndarray:
        return self.dataset.offs

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def n_keys(self) -> int:
        return int(self.records.shape[0])

    @property
    def letters(self) -> np.ndarray:
        """(keys, m) codes of the key rows: a view of the records."""
        return self.records[:, :-_FIELDS]

    @cached_property
    def lcp(self) -> np.ndarray:
        """(n+1,) uint8, read-only: each row's shared prefix with its
        predecessor, from the records: a key's own lcp at its first row,
        ``m`` at every later row (it repeats its predecessor's letters) and
        0 after the last."""
        m = self.dataset.m
        lcp = np.full(self.n + 1, m, dtype=np.uint8)
        lcp[self.key_starts] = np.append(self.records[:, m], 0)
        lcp.flags.writeable = False
        return lcp


@dataclass(frozen=True, kw_only=True)
class FSIndex(KeyRows):
    """Immutable search index over a fragment dataset: a sorted run by
    (bin rank, letters), its occupancy bits and its bin offsets."""

    scheme: PartitionScheme
    occupancy: np.ndarray  # "<u8" words, the levels' bitmaps in position order
    bins: np.ndarray     # (non-empty bins + 1,) uint32 offsets into the key rows
    # derived: each level's view of ``occupancy``; the set bits before each last-level word
    levels: tuple = field(init=False, repr=False, compare=False)
    _counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.occupancy, self.bins, self.pos, self.records, self.key_starts):
            arr.flags.writeable = False
        cuts = np.cumsum([0, *_level_words(self.scheme)])
        levels = tuple(self.occupancy[a:b] for a, b in zip(cuts, cuts[1:]))
        # summed in place: one int64 array, no second copy of the counts
        counts = np.zeros(levels[-1].size + 1, dtype=np.int64)
        np.bitwise_count(levels[-1], out=counts[1:])
        np.cumsum(counts, out=counts)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "_counts", counts)

    @property
    def m(self) -> int:
        return self.scheme.m

    @property
    def n_bins(self) -> int:
        return self.scheme.n_bins

    @property
    def alphabet(self) -> Alphabet:
        return self.dataset.alphabet

    @property
    def suffix_mode(self) -> bool:
        return self.dataset.suffix_mode

    def occupied(self, level: int, blocks: np.ndarray) -> np.ndarray:
        """Whether each aligned block of ``radix_weights[level]`` ranks holds a fragment.
        The words are little-endian, so bit ``b`` is bit ``b & 7`` of byte ``b >> 3``."""
        found = self.levels[level].view(np.uint8).take(blocks >> 3)
        found >>= blocks.astype(np.uint8) & 7  # a uint8 shift: cheaper than a second gather
        found &= 1
        return found.view(bool)

    def nonempty_below(self, ranks) -> np.ndarray:
        """Non-empty bins ranked below each of ``ranks`` (0..N), the index
        into ``bins`` of the rank's frag offset: a count per word plus a popcount."""
        word = ranks >> 6
        mask = (np.uint64(1) << (ranks & 63).astype(np.uint64)) - np.uint64(1)
        return self._counts.take(word) + np.bitwise_count(self.levels[-1].take(word) & mask)

    def bin_slice(self, u: int) -> tuple[int, int]:
        """The frag rows of bin ``u``."""
        if not 0 <= u < self.n_bins:
            raise ValueError(f"bin rank {u} out of range")
        lo, hi = self.key_starts[self.bins[self.nonempty_below(np.array([u, u + 1]))]]
        return int(lo), int(hi)

    def bin_size(self, u: int) -> int:
        lo, hi = self.bin_slice(u)
        return hi - lo

    def empty_bins(self) -> int:
        return self.n_bins - (self.bins.size - 1)

    def audit(self) -> None:
        """Verify every structural invariant; raises AssertionError on failure."""
        n, m = self.n, self.m
        bins, lcp, starts = self.bins, self.lcp, self.key_starts
        assert [lv.size for lv in self.levels] == _level_words(self.scheme)
        filled = _set_bits(self.levels[-1])
        assert starts.shape == (self.n_keys + 1,) and starts[0] == 0 and starts[-1] == n, \
            "key starts must span the fragments"
        assert (np.diff(starts.astype(np.int64)) > 0).all(), "every key must hold a row"
        assert self.records.shape == (self.n_keys, m + _FIELDS)
        fields = self.records.copy()
        _key_fields(fields, lcp, starts, len(self.alphabet))
        assert np.array_equal(self.records, fields), "key fields not derived from the lcp"
        assert bins.shape == (filled.size + 1,), "one bin offset per occupied bin"
        assert bins[0] == 0 and bins[-1] == self.n_keys, "bin offsets must span the key rows"
        assert (np.diff(bins.astype(np.int64)) > 0).all(), "occupied bins must hold fragments"
        sizes = np.diff(starts.take(bins).astype(np.int64))
        for j, w in enumerate(self.scheme.radix_weights):
            blocks = np.unique(filled // int(w))
            assert np.array_equal(_set_bits(self.levels[j]), blocks), f"level {j} bits wrong"
        if n == 0:
            return
        # each fragment's letters: its key row's, which repeats no row of its own
        letters = np.repeat(self.letters, np.diff(starts.astype(np.int64)), axis=0)
        ranks = self.scheme.ranks(letters)
        # each fragment must sit inside the bin of its own rank
        assert np.array_equal(ranks, np.repeat(filled, sizes)), "fragment in the wrong bin"
        # key lengths from the sequence set, not from the letters
        pad, ds = len(self.alphabet), self.dataset
        key_len = np.minimum(ds.seq_lengths.take(ds.sids) - ds.offs, m)
        # each position starts a fragment the extraction rule admits, once
        admits = ds.clean_runs.take(self.pos) >= (key_len if self.suffix_mode else m)
        assert admits.all(), "position starts no fragment"
        assert np.unique(self.pos).size == n, "position stored twice"
        assert np.array_equal(
            letters == pad, np.arange(m)[None, :] >= key_len[:, None]
        ), "letters not padded exactly past each key"
        own = ds.letter_matrix(key_len)
        assert np.array_equal(letters, own), "letters differ from the sequence set"
        keys = np.where(letters == pad, np.uint8(0), letters + np.uint8(1))  # pad first
        raw = _raw_lcp(keys)
        capped = np.minimum(raw, np.minimum(np.r_[key_len[:1], key_len[:-1]], key_len))
        bin_first = np.zeros(n, dtype=bool)
        bin_first[starts.take(bins[:-1])] = True
        # lexicographic order within each bin: neighbours are equal keys
        # or first differ where the predecessor's sort key is smaller (a
        # shorter key's pad sorts first)
        idx = np.flatnonzero(~bin_first)
        if idx.size:
            r = raw[idx]
            pos = np.minimum(r, m - 1)
            ok = (r == m) | (keys[idx - 1, pos] < keys[idx, pos])
            assert ok.all(), "bin not in lexicographic order"
        expect_lcp = np.where(bin_first, 0, capped)
        assert np.array_equal(lcp[:n], expect_lcp), "lcp values incorrect"

    # -- serialization ----------------------------------------------------

    def save(self, path) -> int:
        """Write the index file, replacing any old one whole; returns the byte count."""
        alpha = self.alphabet.letters.encode()
        spec = self.scheme.spec_string.encode()
        largest = int(np.diff(self.key_starts.take(self.bins).astype(np.int64)).max(initial=0))
        # the true row counts of the keys whose count byte sits at the cap
        capped = np.diff(self.key_starts)[self.records[:, -1] == len(self.alphabet)]
        head = _HEADER.pack(
            MAGIC, FORMAT_VERSION, self.m, self.n, self.n_keys, self.n_bins, self.bins.size - 1,
            largest, len(alpha), len(spec), 1 if self.suffix_mode else 0, self.pos.itemsize,
            _sequence_digest(self.dataset.codes, self.dataset.starts),
        ) + alpha + spec
        parts = [head, bytes(-len(head) % 8)]
        for name, t in _ARRAYS:
            arr = getattr(self, name)
            parts.append(arr.astype(t or arr.dtype.newbyteorder("<"), copy=False))
        parts.append(capped.astype("<u4", copy=False))
        # written beside the target, then renamed over it: a failed write
        # leaves any previous file whole
        tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
        try:
            with open(tmp, "xb") as fh:
                fh.writelines(parts)
                size = fh.tell()
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return size


def build(
    dataset: FragmentDataset, scheme: PartitionScheme, phases: dict | None = None
) -> FSIndex:
    """Construct the index: one radix sort of the packed (bin rank, letters)
    keys, bins and lcp read from the sorted keys, then the occupancy bits.  The
    index extends the sorted run (``KeyRows``): its dataset in frag order.

    ``phases``, if given, gets the wall milliseconds of each phase: key
    packing with the key lengths (``keys``), ``sort``, the first
    differences and lcp (``lcp``), the sorted positions and key records
    (``letters``) and ``occupancy``."""
    if scheme.alphabet != dataset.alphabet:
        raise ValueError("dataset and scheme alphabets differ")
    if scheme.m != dataset.m:
        raise ValueError(f"scheme length {scheme.m} != dataset length {dataset.m}")
    n, n_bins = dataset.n, scheme.n_bins
    # a bit per bin at the last level; refuse absurd schemes before allocating
    if n_bins > 1 << 34:
        raise ValueError(f"{n_bins} bins exceed the in-memory budget of 2^34")
    if n > np.iinfo(np.uint32).max:
        raise ValueError(f"{n} fragments exceed the uint32 bin offsets")

    run, (first, ranks) = _sorted_run(dataset, scheme, phases)
    t = time.perf_counter()
    occupancy = _occupancy(scheme, ranks)
    # every bin's first row starts a key (its lcp is 0): its place among the key rows
    mark = np.zeros(n, dtype=bool)
    mark[first] = True
    bins = np.append(np.flatnonzero(mark.take(run.key_starts[:-1])), run.n_keys).astype(np.uint32)
    _lap(phases, "occupancy", t)
    return FSIndex(**vars(run), scheme=scheme, occupancy=occupancy, bins=bins)


def _read_exact(fh, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise IndexFormatError("truncated index file")
    return data


def _read_header(fh) -> dict:
    """Parse and check an index file's header, leaving ``fh`` at its end."""
    raw = fh.read(_HEADER.size)
    if raw[:4] != MAGIC:
        raise IndexFormatError("not an index file (bad magic)")
    if len(raw) < 8:
        raise IndexFormatError("truncated index file")
    version = int.from_bytes(raw[4:8], "little")
    if version != FORMAT_VERSION:
        raise IndexFormatError(
            f"index format version {version} is not read by this fsindex, which reads "
            f"version {FORMAT_VERSION}: rebuild the index with `fsindex build`"
        )
    if len(raw) != _HEADER.size:
        raise IndexFormatError("truncated index file")
    (_, _, m, n, keys, n_bins, nonempty, largest, alpha_len, spec_len, suffix_flag, width,
     digest) = _HEADER.unpack(raw)
    if width not in (4, 8):
        raise IndexFormatError(f"positions of {width} bytes: 4 or 8 expected")
    return {
        "version": version, "fragment_length": m, "fragments": n, "keys": keys, "bins": n_bins,
        "empty_bins": n_bins - nonempty, "largest_bin": largest,
        "mean_bin_size": float(n / n_bins) if n_bins else 0.0,
        "suffix_mode": bool(suffix_flag), "position_bytes": width,
        "sequence_digest": digest.hex(),
        "alphabet": _read_exact(fh, alpha_len).decode(),
        "partition": _read_exact(fh, spec_len).decode(),
    }


def read_index_header(path) -> dict:
    """The header's fields and the file's size, read from the header only."""
    with open(path, "rb", buffering=0) as fh:
        return dict(_read_header(fh), file_bytes=os.fstat(fh.fileno()).st_size)


def load(path, db: SequenceDB, phases: dict | None = None) -> FSIndex:
    """Load an index file; ``db`` must be the sequence set it was built from.

    ``phases``, if given, gets the wall milliseconds of each phase: the
    header, the map and the letter check (``map``), the key starts from
    the records' row counts, with their checks, and the bin offsets' check
    (``key_starts``), encoding the sequence set (``encode``), its
    ``digest`` and the check that every position lies within the codes
    (``positions``)."""
    # Header from the open file, then a read-only map of it: every array is a view
    # of the map, the occupancy words 8-byte aligned.  ``save`` renames a new file
    # over the path, so the mapped file stays whole while any of its arrays lives.
    clock = time.perf_counter()
    with open(path, "rb", buffering=0) as fh:
        info = _read_header(fh)
        m, n, keys, n_bins = (info[k] for k in ("fragment_length", "fragments", "keys", "bins"))
        nonempty = n_bins - info["empty_bins"]
        alphabet = Alphabet(info["alphabet"])
        scheme = parse_partition(info["partition"], alphabet, m)
        if scheme.n_bins != n_bins:
            raise IndexFormatError("bin count disagrees with partition spec")

        at = fh.tell() + -fh.tell() % 8
        types = [dtype or f"<u{info['position_bytes']}" for _, dtype in _ARRAYS]
        counts = (sum(_level_words(scheme)), nonempty + 1, n, keys * (m + _FIELDS))
        size = at + sum(np.dtype(dtype).itemsize * c for dtype, c in zip(types, counts))
        # the records block, then the capped row counts, end the file
        tail = os.fstat(fh.fileno()).st_size - size + counts[-1]
        block = f"records block of {tail} bytes is not {keys} keys x {m + _FIELDS} bytes"
        if tail < 0:
            raise IndexFormatError("index arrays truncated")
        if tail < counts[-1]:
            raise IndexFormatError(f"{block} (truncated)")
        blob = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    arrays = {}
    for (name, _), dtype, count in zip(_ARRAYS, types, counts):
        arrays[name] = np.frombuffer(blob, dtype=dtype, count=count, offset=at)
        at += arrays[name].nbytes
    records = arrays["records"] = arrays["records"].reshape(keys, m + _FIELDS)
    pos, bins = arrays.pop("pos"), arrays["bins"]
    pad = len(alphabet)
    # every other byte is at most the pad code when m is: one max over the block first
    if keys and records.max() > pad and records[:, :m].max() > pad:
        raise IndexFormatError("letter code past the pad code")
    clock = _lap(phases, "map", clock)
    # the key starts: 0, then the running sum of the row counts, those at the cap put back
    starts = arrays["key_starts"] = np.zeros(keys + 1, dtype=np.uint32)
    sizes = starts[1:]
    sizes[:] = records[:, -1]
    capped = np.flatnonzero(sizes == pad)
    if tail != counts[-1] + 4 * capped.size:
        raise IndexFormatError(f"{block} and {capped.size} capped row counts x 4 bytes")
    sizes[capped] = np.frombuffer(blob, dtype="<u4", count=capped.size, offset=at)
    if (sizes.take(capped) < pad).any():
        raise IndexFormatError(f"a capped row count below the cap {pad}")
    if (held := np.count_nonzero(sizes)) != keys:
        raise IndexFormatError(f"header key count {keys} differs from the {held} records with rows")
    if (total := starts.sum(dtype=np.int64)) != n:
        raise IndexFormatError(f"row counts sum to {total}, not {n}")
    np.cumsum(starts, out=starts)
    if bins[0] != 0 or bins[-1] != keys or (bins[1:] <= bins[:-1]).any():
        raise IndexFormatError("bin offsets not increasing from 0 to the key count")
    clock = _lap(phases, "key_starts", clock)

    codes, seq_starts = encode_db(db, alphabet)
    clock = _lap(phases, "encode", clock)
    if _sequence_digest(codes, seq_starts).hex() != info["sequence_digest"]:
        raise IndexFormatError("index built from a different sequence set")
    clock = _lap(phases, "digest", clock)
    if n and pos.max() >= codes.size:
        raise IndexFormatError(f"fragment position past the {codes.size} residues")
    _lap(phases, "positions", clock)
    # rejected windows are unknown post hoc; the manifest comes from extraction
    dataset = FragmentDataset(
        db=db, alphabet=alphabet, m=m, suffix_mode=info["suffix_mode"], pos=pos,
        rejected=0, codes=codes, starts=seq_starts,
    )
    index = FSIndex(dataset=dataset, scheme=scheme, **arrays)
    if index._counts[-1] != nonempty:
        raise IndexFormatError("occupancy bits disagree with the bin count")
    return index
