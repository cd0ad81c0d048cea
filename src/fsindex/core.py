"""The fragment index: occupancy bits and per-bin sorted fragment references.

Construction is one stable lexicographic sort grouped by bin rank and a
shared-prefix (lcp) pass, ``_sorted_run``, which the flat baseline
shares; bins start where the sorted ranks change.  The arrays that result:

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
concurrent searches.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .alphabet import Alphabet, PartitionScheme, parse_partition
from .ingest import FragmentDataset, SequenceDB, encode_db

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


def _raw_lcp(rows: np.ndarray, pad: int | None = None) -> np.ndarray:
    """Shared-prefix length of each row with its predecessor (row 0 -> 0):
    the first position where the two differ or, given ``pad``, hold the
    pad code; the row width if none."""
    n, m = rows.shape
    out = np.zeros(n, dtype=np.int64)
    if n > 1:
        stop = rows[1:] != rows[:-1]
        if pad is not None:
            stop |= rows[1:] == pad
        out[1:] = np.where(stop.any(axis=1), stop.argmax(axis=1), m)
    return out


def _sorted_run(
    letters: np.ndarray, pad: int, ranks: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort rows lexicographically, the pad code first, grouped by
    ``ranks`` when given.  Returns the order, the sorted rows and their
    (n+1,) uint8 lcp: each row's shared key prefix with its predecessor,
    0 for the first row and after the last."""
    n, m = letters.shape
    if m > np.iinfo(np.uint8).max:
        raise ValueError(f"fragment length {m} exceeds the uint8 lcp limit 255")
    keys = _sort_keys(letters, pad)
    cols = tuple(keys[:, j] for j in range(m - 1, -1, -1))
    order = np.lexsort(cols if ranks is None else cols + (ranks,))
    del keys
    letters = letters[order]
    lcp = np.zeros(n + 1, dtype=np.uint8)
    lcp[:n] = _raw_lcp(letters, pad)
    return order, letters, lcp


_BIT = np.left_shift(np.uint8(1), np.arange(8, dtype=np.uint8))  # each bit of a byte


def _level_words(scheme: PartitionScheme) -> list[int]:
    """64-bit words per occupancy level: one bit per block, one spare."""
    return [scheme.n_bins // int(w) // 64 + 1 for w in scheme.radix_weights]


def _occupancy(scheme: PartitionScheme, filled: np.ndarray) -> np.ndarray:
    """Every level's bits for the non-empty bin ranks ``filled``, concatenated."""
    sizes = _level_words(scheme)
    bits = np.zeros(64 * sum(sizes), dtype=bool)
    for start, w in zip(np.cumsum([0, *sizes]), scheme.radix_weights):
        bits[64 * start + filled // int(w)] = True
    return np.packbits(bits, bitorder="little").view("<u8")


def _set_bits(words: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.unpackbits(words.view(np.uint8), bitorder="little"))


def _sequence_digest(codes: np.ndarray, starts: np.ndarray) -> bytes:
    """blake2b of an encoded sequence set: sequence boundaries, then codes."""
    data = starts.astype("<i8").tobytes() + codes.tobytes()
    return hashlib.blake2b(data, digest_size=32).digest()


@dataclass(frozen=True)
class FSIndex:
    """Immutable search index over a fragment dataset."""

    dataset: FragmentDataset
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
        level_bytes = self.levels[level].view(np.uint8)
        return level_bytes.take(blocks >> 3) & _BIT.take(blocks & 7) != 0

    def nonempty_below(self, ranks) -> np.ndarray:
        """Non-empty bins ranked below each of ``ranks`` (0..N), the index
        into ``bins`` of the rank's frag offset: a count per word plus a popcount."""
        word = ranks >> 6
        mask = (np.uint64(1) << (ranks & 63).astype(np.uint64)) - np.uint64(1)
        return self._counts[word] + np.bitwise_count(self.levels[-1][word] & mask)

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


def build(dataset: FragmentDataset, scheme: PartitionScheme) -> FSIndex:
    """Construct the index: sort by (bin rank, letters), lcp, occupancy bits."""
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

    letters = dataset.letter_matrix()
    ranks = scheme.ranks(letters)
    order, letters, lcp = _sorted_run(letters, len(dataset.alphabet), ranks)
    ranks = ranks[order]
    first = np.flatnonzero(np.diff(ranks, prepend=-1))  # each occupied bin's first row
    lcp[first] = 0  # every bin starts a fresh scan
    return FSIndex(
        dataset=dataset, scheme=scheme, occupancy=_occupancy(scheme, ranks[first]),
        bins=np.append(first, n).astype(np.uint32), sids=dataset.sids[order],
        offs=dataset.offs[order], lcp=lcp, letters=letters,
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
    # One unbuffered read of the whole file; every array stays a read-only
    # view of its bytes, the occupancy words 8-byte aligned as in the file.
    with open(path, "rb", buffering=0) as fh:
        blob = fh.read()
    head = io.BytesIO(blob)
    info = _read_header(head)
    m, n, n_bins = info["fragment_length"], info["fragments"], info["bins"]
    nonempty = n_bins - info["empty_bins"]
    alphabet = Alphabet(info["alphabet"])
    scheme = parse_partition(info["partition"], alphabet, m)
    if scheme.n_bins != n_bins:
        raise IndexFormatError("bin count disagrees with partition spec")

    pos = head.tell() + -head.tell() % 8
    counts = (sum(_level_words(scheme)), nonempty + 1, n, n, n + 1, n * m)
    if len(blob) != pos + sum(np.dtype(t).itemsize * c for (_, t), c in zip(_ARRAYS, counts)):
        raise IndexFormatError("index arrays truncated or oversized")
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
    if n and (sids >= len(db)).any():
        raise IndexFormatError("fragment reference outside the sequence set")
    if n and (offs >= np.diff(starts)[sids]).any():
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
