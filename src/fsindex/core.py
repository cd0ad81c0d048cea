"""The fragment index: occupancy bits and per-bin sorted fragment references.

Construction, ``_sorted_run``, which the flat baseline shares, sorts one
packed unsigned key per fragment.  The key holds the bin rank's bits,
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
its key length.  The letters are gathered once, in sorted order.
``build`` reports the time of each of these phases if asked.  The arrays
that result:

* ``frag`` - fragment references ordered by (bin rank, fragment letters);
* ``occupancy`` - per position ``j``, 64-bit words with a bit per aligned
  block of ``radix_weights[j]`` ranks, set when the block holds a
  fragment: the last level has a bit per bin;
* ``bins`` - offsets into ``frag`` of the non-empty bins, then ``n``; a
  bin's entry is a rank over the last level's bits;
* ``lcp``  - n+1 shared-prefix lengths between neighbouring fragments,
  forced to 0 at every bin's first slot and after the last fragment, so
  a bin scan never reuses state it did not compute;
* ``letters`` - each fragment's first ``m`` letter codes in frag order; a
  key shorter than ``m`` ends where its pad codes (``len(alphabet)``) start.

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

import numpy as np

from .alphabet import Alphabet, PartitionScheme, parse_partition
from .ingest import FragmentDataset, SequenceDB, encode_db

try:  # hashlib would also load OpenSSL's _hashlib, 3-4 ms of every cold search
    from _blake2 import blake2b
except ImportError:  # interpreters built without it
    from hashlib import blake2b

MAGIC = b"FSIX"
FORMAT_VERSION = 2
# magic, version, m, n, bins, non-empty bins, largest bin, alphabet and
# partition text bytes, suffix flag, digest of the encoded sequence set
_HEADER = struct.Struct("<4sIIQQQQIIB32s")
# the arrays after the header, in file order; the first starts 8-byte aligned
_ARRAYS = (("occupancy", "<u8"), ("bins", "<u4"), ("sids", "<u4"), ("offs", "<u4"),
           ("lcp", "<u1"), ("letters", "<u1"))


class IndexFormatError(ValueError):
    """Raised when an index file is malformed or mismatched."""


def bin_of(scheme: PartitionScheme, fragment: str) -> int:
    """Bin rank of a fragment: the mixed-radix value of its cluster digits."""
    return scheme.rank(scheme.digits(fragment))


def _sort_keys(letters: np.ndarray, pad: int) -> np.ndarray:
    """Letter codes shifted so the pad code of short suffixes sorts first.
    Every letter code is below the pad, which is at most 255, so ``code + 1``
    still fits in uint8."""
    return np.where(letters == pad, np.uint8(0), letters + np.uint8(1))


def _raw_lcp(rows: np.ndarray) -> np.ndarray:
    """Shared-prefix length of each row with its predecessor (row 0 -> 0):
    the first position where the two differ, the row width if none."""
    n, m = rows.shape
    out = np.zeros(n, dtype=np.int64)
    if n > 1:
        stop = rows[1:] != rows[:-1]
        out[1:] = np.where(stop.any(axis=1), stop.argmax(axis=1), m)
    return out


_KEY_ROWS = 1 << 16  # rows per piece when packing and sorting keys: the temporaries stay small
_CHECK_ROWS = 1 << 16  # fragments per piece of the load's offset check


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


def _packed_keys(ds: FragmentDataset, tables: np.ndarray) -> np.ndarray:
    """(words, n) uint64 keys: per fragment the sum of ``tables[:, j, code]``
    over its first ``m`` codes, read from the code array a pass of rows at a
    time; a suffix's codes past its end count as the pad."""
    n, m, pad = ds.n, ds.m, len(ds.alphabet)
    live = tables.any(axis=2)  # the positions with a field in each word
    keys = np.zeros((len(tables), n), dtype=np.uint64)
    padded = np.concatenate([ds.codes, np.full(m, pad, dtype=np.uint8)])
    for a in range(0, n, _KEY_ROWS):
        rows = slice(a, a + _KEY_ROWS)
        sids, offs = ds.sids[rows], ds.offs[rows]
        pos = ds.starts[sids] + offs
        room = ds.seq_lengths[sids] - offs  # letters left in the sequence
        for j in range(m):
            codes = padded[j:].take(pos)
            if ds.suffix_mode:
                codes[room <= j] = pad
            for w in np.flatnonzero(live[:, j]):
                keys[w, rows] += tables[w, j].take(codes)
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
    places are added ``_KEY_ROWS`` at a time: an n-long array of them
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
            for b in range(0, n, _KEY_ROWS):
                piece = buf[b:b + _KEY_ROWS]
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


def _sorted_keys(
    ds: FragmentDataset, scheme: PartitionScheme | None, phases: dict | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pack and sort the keys.  Returns the order, each sorted row's first
    differing field (``_first_difference``), and the first row of each run
    of equal leading fields with that field's value."""
    t = time.perf_counter()
    if scheme is None:
        pad = len(ds.alphabet)
        ordinals = np.tile(np.r_[1:pad + 1, 0].astype(np.uint64), (ds.m, 1))
    else:
        ordinals = _cluster_ordinals(scheme)
    tables, floors = _key_tables(ordinals, scheme)
    keys = _packed_keys(ds, tables)
    t = _lap(phases, "keys", t)
    order = _sorted_order(keys)
    t = _lap(phases, "sort", t)
    field = _first_difference(keys, order, floors)
    first = np.flatnonzero(np.r_[ds.n > 0, field == 0])
    lead = keys[0].take(order.take(first)) // floors[0][-1]
    _lap(phases, "lcp", t)
    return order, field, first, lead.astype(np.int64)


def _sorted_run(
    ds: FragmentDataset, scheme: PartitionScheme | None = None, phases: dict | None = None
) -> tuple[FragmentDataset, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort the fragments by (bin rank, letters with the pad first), or by
    letters alone without a scheme, equal keys in extraction order.

    Each fragment gets one packed key (``_key_tables``, ``_packed_keys``);
    the flat run's one cluster per position is the whole alphabet.  Returns
    the sorted dataset, its (n, m) letters, its (n+1,) uint8 lcp, and the
    first row of each run of equal leading key fields with that field's
    value: given a scheme, each bin's first row and rank.  A row's lcp is
    the first position field in which its key differs from its
    predecessor's, capped at its key length; a rank difference gives 0,
    as do the first row and the slot after the last.  ``phases`` (``build``)
    gets the milliseconds of each phase."""
    n, m = ds.n, ds.m
    if m > np.iinfo(np.uint8).max:
        raise ValueError(f"fragment length {m} exceeds the uint8 lcp limit 255")
    order, field, first, lead = _sorted_keys(ds, scheme, phases)
    t = time.perf_counter()
    run = replace(ds, sids=ds.sids[order], offs=ds.offs[order])
    t = _lap(phases, "letters", t)
    lcp = np.zeros(n + 1, dtype=np.uint8)
    # the lcp per first differing field: 0 for the rank, j for position j, m for none
    lcp_of = np.r_[[0] * (scheme is not None), 0:m + 1].astype(np.uint8)
    lcp[1:n] = lcp_of.take(field)
    del order, field  # n-long; freed before the letters are gathered
    t = _lap(phases, "lcp", t)
    # uint8 like the lcp (m <= 255), not an n-long int64 held through the letter gather
    klen = run.key_lengths().astype(np.uint8) if ds.suffix_mode else None
    letters = run.letter_matrix(klen)
    if ds.suffix_mode:
        lcp[:n] = np.minimum(klen, lcp[:n], out=klen)
    _lap(phases, "letters", t)
    return run, letters, lcp, first, lead


def _level_words(scheme: PartitionScheme) -> list[int]:
    """64-bit words per occupancy level: one bit per block, one spare."""
    return [scheme.n_bins // int(w) // 64 + 1 for w in scheme.radix_weights]


def _occupancy(scheme: PartitionScheme, filled: np.ndarray) -> np.ndarray:
    """Every level's bits for the ascending non-empty bin ranks ``filled``,
    concatenated.  Each level's distinct blocks come from the next level's,
    and each word is set once: no temporary holds a byte per bit."""
    sizes = _level_words(scheme)
    words = np.zeros(sum(sizes), dtype=np.uint64)
    starts, weights = np.cumsum([0, *sizes]).tolist(), [*map(int, scheme.radix_weights), 1]
    blocks = filled.astype(np.uint64)
    for j in reversed(range(scheme.m) if blocks.size else ()):
        blocks = blocks // (weights[j] // weights[j + 1])
        blocks = blocks[np.r_[True, blocks[1:] != blocks[:-1]]]  # distinct, ascending
        word = blocks >> 6
        last = np.flatnonzero(np.r_[word[1:] != word[:-1], True])  # each word's last block
        # a word's bits are distinct, so their sum is their or; wrapped sums subtract exactly
        total = np.cumsum(np.uint64(1) << (blocks & 63))[last]
        words[starts[j] + word[last]] = np.diff(total, prepend=np.uint64(0))
    return words.astype("<u8", copy=False)


def _set_bits(words: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.unpackbits(words.view(np.uint8), bitorder="little"))


def _sequence_digest(codes: np.ndarray, starts: np.ndarray) -> bytes:
    """blake2b of an encoded sequence set: sequence boundaries, then codes."""
    digest = blake2b(starts.astype("<i8", copy=False), digest_size=32)
    digest.update(np.ascontiguousarray(codes))
    return digest.digest()


@dataclass(frozen=True)
class FSIndex:
    """Immutable search index over a fragment dataset."""

    dataset: FragmentDataset  # its fragments in frag order: the sids and offs below
    scheme: PartitionScheme
    occupancy: np.ndarray  # "<u8" words, the levels' bitmaps in position order
    bins: np.ndarray     # (non-empty bins + 1,) uint32 offsets into the frag arrays
    sids: np.ndarray     # (n,) uint32, frag order
    offs: np.ndarray     # (n,) uint32, frag order
    lcp: np.ndarray      # (n+1,) uint8
    letters: np.ndarray  # (n, m) uint8 codes, frag order; pad = |alphabet|
    # derived: each level's view of ``occupancy``; the set bits before each last-level word
    levels: tuple = field(init=False, repr=False, compare=False)
    _counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.occupancy, self.bins, self.sids, self.offs, self.lcp, self.letters):
            arr.flags.writeable = False
        cuts = np.cumsum([0, *_level_words(self.scheme)])
        levels = tuple(self.occupancy[a:b] for a, b in zip(cuts, cuts[1:]))
        counts = np.cumsum(np.bitwise_count(levels[-1]), dtype=np.int64)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "_counts", np.r_[0, counts])

    @property
    def m(self) -> int:
        return self.scheme.m

    @property
    def n(self) -> int:
        return int(self.sids.shape[0])

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
        lo, hi = self.bins[self.nonempty_below(np.array([u, u + 1]))]
        return int(lo), int(hi)

    def bin_size(self, u: int) -> int:
        lo, hi = self.bin_slice(u)
        return hi - lo

    def empty_bins(self) -> int:
        return self.n_bins - (self.bins.size - 1)

    def audit(self) -> None:
        """Verify every structural invariant; raises AssertionError on failure."""
        n, m = self.n, self.m
        bins, lcp = self.bins, self.lcp
        assert [lv.size for lv in self.levels] == _level_words(self.scheme)
        filled = _set_bits(self.levels[-1])
        assert bins.shape == (filled.size + 1,), "one bin offset per occupied bin"
        assert bins[0] == 0 and bins[-1] == n, "bin offsets must span the frag array"
        sizes = np.diff(bins.astype(np.int64))
        assert (sizes > 0).all(), "occupied bins must hold fragments"
        for j, w in enumerate(self.scheme.radix_weights):
            blocks = np.unique(filled // int(w))
            assert np.array_equal(_set_bits(self.levels[j]), blocks), f"level {j} bits wrong"
        assert lcp.shape == (n + 1,)
        assert lcp[0] == 0 and lcp[n] == 0
        if n == 0:
            return
        ranks = self.scheme.ranks(self.letters)
        # each fragment must sit inside the bin of its own rank
        assert np.array_equal(ranks, np.repeat(filled, sizes)), "fragment in the wrong bin"
        # key lengths from the sequence set, not from the letters
        pad = len(self.alphabet)
        key_len = np.minimum(self.dataset.seq_lengths[self.sids] - self.offs, m)
        assert np.array_equal(
            self.letters == pad, np.arange(m)[None, :] >= key_len[:, None]
        ), "letters not padded exactly past each key"
        own = replace(self.dataset, sids=self.sids, offs=self.offs).letter_matrix()
        assert np.array_equal(self.letters, own), "letters differ from the sequence set"
        keys = _sort_keys(self.letters, pad)
        raw = _raw_lcp(keys)
        capped = np.minimum(raw, np.minimum(np.r_[key_len[:1], key_len[:-1]], key_len))
        bin_first = np.zeros(n, dtype=bool)
        bin_first[bins[:-1]] = True
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
        largest = int(np.diff(self.bins.astype(np.int64)).max(initial=0))
        head = _HEADER.pack(
            MAGIC, FORMAT_VERSION, self.m, self.n, self.n_bins, self.bins.size - 1,
            largest, len(alpha), len(spec), 1 if self.suffix_mode else 0,
            _sequence_digest(self.dataset.codes, self.dataset.starts),
        ) + alpha + spec
        parts = [head, bytes(-len(head) % 8)]
        parts += [getattr(self, name).astype(t, copy=False) for name, t in _ARRAYS]
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
    index keeps the sorted run as its dataset, as ``load`` does.

    ``phases``, if given, gets the wall milliseconds of each phase: key
    packing (``keys``), ``sort``, the first differences and lcp (``lcp``),
    the sorted references, key lengths and letters (``letters``) and
    ``occupancy``."""
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

    run, letters, lcp, first, ranks = _sorted_run(dataset, scheme, phases)
    t = time.perf_counter()
    occupancy = _occupancy(scheme, ranks)
    _lap(phases, "occupancy", t)
    return FSIndex(
        dataset=run, scheme=scheme, occupancy=occupancy,
        bins=np.append(first, n).astype(np.uint32), sids=run.sids, offs=run.offs, lcp=lcp,
        letters=letters,
    )


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
    if len(raw) != _HEADER.size:
        raise IndexFormatError("truncated index file")
    _, version, m, n, n_bins, nonempty, largest, alpha_len, spec_len, suffix_flag, digest = (
        _HEADER.unpack(raw)
    )
    if version != FORMAT_VERSION:
        raise IndexFormatError(f"unsupported index version {version}")
    return {
        "version": version, "fragment_length": m, "fragments": n, "bins": n_bins,
        "empty_bins": n_bins - nonempty, "largest_bin": largest,
        "mean_bin_size": float(n / n_bins) if n_bins else 0.0,
        "suffix_mode": bool(suffix_flag), "sequence_digest": digest.hex(),
        "alphabet": _read_exact(fh, alpha_len).decode(),
        "partition": _read_exact(fh, spec_len).decode(),
    }


def read_index_header(path) -> dict:
    """The header's fields and the file's size, read from the header only."""
    with open(path, "rb", buffering=0) as fh:
        return dict(_read_header(fh), file_bytes=os.fstat(fh.fileno()).st_size)


def load(path, db: SequenceDB) -> FSIndex:
    """Load an index file; ``db`` must be the sequence set it was built from."""
    # Header from the open file, then a read-only map of it: every array is a view
    # of the map, the occupancy words 8-byte aligned.  ``save`` renames a new file
    # over the path, so the mapped file stays whole while any of its arrays lives.
    with open(path, "rb", buffering=0) as fh:
        info = _read_header(fh)
        m, n, n_bins = info["fragment_length"], info["fragments"], info["bins"]
        nonempty = n_bins - info["empty_bins"]
        alphabet = Alphabet(info["alphabet"])
        scheme = parse_partition(info["partition"], alphabet, m)
        if scheme.n_bins != n_bins:
            raise IndexFormatError("bin count disagrees with partition spec")

        pos = fh.tell() + -fh.tell() % 8
        counts = (sum(_level_words(scheme)), nonempty + 1, n, n, n + 1, n * m)
        size = pos + sum(np.dtype(t).itemsize * c for (_, t), c in zip(_ARRAYS, counts))
        if os.fstat(fh.fileno()).st_size != size:
            raise IndexFormatError("index arrays truncated or oversized")
        blob = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    arrays = {}
    for (name, dtype), count in zip(_ARRAYS, counts):
        arrays[name] = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
        pos += arrays[name].nbytes
    arrays["letters"] = arrays["letters"].reshape(n, m)
    sids, offs, bins = arrays["sids"], arrays["offs"], arrays["bins"]
    if n and arrays["letters"].max() > len(alphabet):
        raise IndexFormatError("letter code past the pad code")
    if arrays["lcp"].max() > m:
        raise IndexFormatError("shared prefix longer than the fragments")
    if bins[0] != 0 or bins[-1] != n or (bins[1:] <= bins[:-1]).any():
        raise IndexFormatError("bin offsets not increasing from 0 to the fragment count")

    codes, starts = encode_db(db, alphabet)
    if _sequence_digest(codes, starts).hex() != info["sequence_digest"]:
        raise IndexFormatError("index built from a different sequence set")
    if n and sids.max() >= len(db):
        raise IndexFormatError("fragment reference outside the sequence set")
    if n and _offset_past_end(offs, sids, starts):
        raise IndexFormatError("fragment offset outside its sequence")
    # rejected windows are unknown post hoc; the manifest comes from extraction
    dataset = FragmentDataset(
        db=db, alphabet=alphabet, m=m, suffix_mode=info["suffix_mode"], sids=sids,
        offs=offs, rejected=0, codes=codes, starts=starts,
    )
    index = FSIndex(dataset=dataset, scheme=scheme, **arrays)
    if index._counts[-1] != nonempty:
        raise IndexFormatError("occupancy bits disagree with the bin count")
    return index


def _offset_past_end(offs: np.ndarray, sids: np.ndarray, starts: np.ndarray) -> bool:
    """Whether an offset passes its sequence's last letter, compared as
    uint32 a piece of rows at a time: offsets are uint32, so clipping the
    last letters' offsets to that range keeps every answer."""
    last = np.minimum(np.diff(starts) - 1, np.iinfo(np.uint32).max).astype(np.uint32)
    buf = np.empty(min(offs.size, _CHECK_ROWS), dtype=np.uint32)
    for a in range(0, offs.size, _CHECK_ROWS):
        piece = offs[a:a + _CHECK_ROWS]
        if (piece > last.take(sids[a:a + _CHECK_ROWS], out=buf[:piece.size])).any():
            return True
    return False
