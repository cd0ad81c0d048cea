"""The fragment index: bin-bucketed, per-bin sorted fragment references.

Construction is counting sort over bin ranks followed by one stable
lexicographic sort and a shared-prefix (lcp) pass, ``_sorted_run``, which
the flat baseline shares.  The arrays that result:

* ``frag`` - fragment references ordered by (bin rank, fragment letters);
* ``bin``  - N+1 offsets into ``frag``, one per bin rank plus a sentinel;
* ``lcp``  - n+1 shared-prefix lengths between neighbouring fragments,
  forced to 0 at every bin's first slot and after the last fragment, so
  a bin scan never reuses state it did not compute;
* ``letters`` - each fragment's first ``m`` letter codes in frag order; a
  key shorter than ``m`` ends where its pad codes (``len(alphabet)``) start.

The index is immutable after construction and safe to share across
concurrent searches.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .alphabet import Alphabet, PartitionScheme, parse_partition
from .ingest import FragmentDataset, SequenceDB, encode_db

MAGIC = b"FSIX"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIQQB")  # magic, version, m, n, bins, suffix flag


class IndexFormatError(ValueError):
    """Raised when an index file is malformed or mismatched."""


def bin_of(scheme: PartitionScheme, fragment: str) -> int:
    """Bin rank of a fragment: the mixed-radix value of its cluster digits."""
    return scheme.rank(scheme.digits(fragment))


def _sort_keys(letters: np.ndarray, pad: int) -> np.ndarray:
    """Letter codes shifted so the pad code of short suffixes sorts first."""
    return np.where(letters == pad, 0, letters.astype(np.int16) + 1)


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


@dataclass(frozen=True)
class FSIndex:
    """Immutable search index over a fragment dataset."""

    dataset: FragmentDataset
    scheme: PartitionScheme
    bins: np.ndarray     # (N+1,) int64 offsets into the frag arrays
    sids: np.ndarray     # (n,) uint32, frag order
    offs: np.ndarray     # (n,) uint32, frag order
    lcp: np.ndarray      # (n+1,) uint8
    letters: np.ndarray  # (n, m) uint8 codes, frag order; pad = |alphabet|

    def __post_init__(self):
        for arr in (self.bins, self.sids, self.offs, self.lcp, self.letters):
            arr.flags.writeable = False

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

    def bin_slice(self, u: int) -> tuple[int, int]:
        return int(self.bins[u]), int(self.bins[u + 1])

    def bin_size(self, u: int) -> int:
        return int(self.bins[u + 1] - self.bins[u])

    def empty_bins(self) -> int:
        return int((np.diff(self.bins) == 0).sum())

    def audit(self) -> None:
        """Verify every structural invariant; raises AssertionError on failure."""
        n, m = self.n, self.m
        bins, lcp = self.bins, self.lcp
        assert bins.shape == (self.n_bins + 1,)
        assert bins[0] == 0 and bins[-1] == n, "bin offsets must span the frag array"
        assert (np.diff(bins) >= 0).all(), "bin offsets must be non-decreasing"
        assert lcp.shape == (n + 1,)
        assert lcp[0] == 0 and lcp[n] == 0
        if n == 0:
            return
        ranks = self.scheme.ranks(self.letters)
        # each fragment must sit inside the bin of its own rank
        expected = np.repeat(
            np.arange(self.n_bins), np.diff(bins).astype(np.int64)
        )
        assert np.array_equal(ranks, expected), "fragment in the wrong bin"
        # key lengths from the sequence set, not from the letters
        pad = len(self.alphabet)
        key_len = np.minimum(self.dataset.seq_lengths[self.sids] - self.offs, m)
        assert np.array_equal(
            self.letters == pad, np.arange(m)[None, :] >= key_len[:, None]
        ), "letters not padded exactly past each key"
        keys = _sort_keys(self.letters, pad)
        raw = _raw_lcp(keys)
        capped = np.minimum(raw, np.minimum(np.r_[key_len[:1], key_len[:-1]], key_len))
        bin_first = np.zeros(n, dtype=bool)
        starts = bins[:-1][np.diff(bins) > 0]
        bin_first[starts] = True
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
        header = _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            self.m,
            self.n,
            self.n_bins,
            1 if self.suffix_mode else 0,
        )
        alpha = self.alphabet.letters.encode()
        spec = self.scheme.spec_string.encode()
        packed = (self.sids.astype(np.uint64) << np.uint64(32)) | self.offs.astype(
            np.uint64
        )
        parts = [
            header,
            struct.pack("<I", len(alpha)), alpha,
            struct.pack("<I", len(spec)), spec,
            self.bins.astype("<i8", copy=False),
            packed.astype("<u8", copy=False),
            self.lcp.astype("<u1", copy=False),
        ]
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
    """Construct the index: count bin sizes, place fragments, sort, lcp."""
    if scheme.alphabet != dataset.alphabet:
        raise ValueError("dataset and scheme alphabets differ")
    if scheme.m != dataset.m:
        raise ValueError(f"scheme length {scheme.m} != dataset length {dataset.m}")
    n, n_bins = dataset.n, scheme.n_bins
    # N int64 counters; refuse absurd schemes before allocating
    if n_bins > 1 << 34:
        raise MemoryError(f"{n_bins} bins exceed the in-memory budget")

    letters = dataset.letter_matrix()
    ranks = scheme.ranks(letters)
    bins = np.zeros(n_bins + 1, dtype=np.int64)
    np.cumsum(np.bincount(ranks, minlength=n_bins), out=bins[1:])
    order, letters, lcp = _sorted_run(letters, len(dataset.alphabet), ranks)
    lcp[bins[:-1]] = 0  # every bin starts a fresh scan
    return FSIndex(
        dataset=dataset,
        scheme=scheme,
        bins=bins,
        sids=dataset.sids[order],
        offs=dataset.offs[order],
        lcp=lcp,
        letters=letters,
    )


def _read_exact(fh, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise IndexFormatError("truncated index file")
    return data


def _read_text(fh) -> str:
    (size,) = struct.unpack("<I", _read_exact(fh, 4))
    return _read_exact(fh, size).decode()


def _read_header(fh) -> dict:
    """Parse and check an index file's header, leaving ``fh`` at the bin table."""
    magic, version, m, n, n_bins, suffix_flag = _HEADER.unpack(
        _read_exact(fh, _HEADER.size)
    )
    if magic != MAGIC:
        raise IndexFormatError("not an index file (bad magic)")
    if version != FORMAT_VERSION:
        raise IndexFormatError(f"unsupported index version {version}")
    return {
        "version": version,
        "fragment_length": m,
        "fragments": n,
        "bins": n_bins,
        "suffix_mode": bool(suffix_flag),
        "alphabet": _read_text(fh),
        "partition": _read_text(fh),
    }


def read_index_header(path) -> dict:
    """Header fields plus bin-occupancy numbers, read from the header and
    the bin table only."""
    with open(path, "rb") as fh:
        info = _read_header(fh)
        n, n_bins = info["fragments"], info["bins"]
        bins = np.frombuffer(_read_exact(fh, (n_bins + 1) * 8), dtype="<i8")
        file_bytes = os.fstat(fh.fileno()).st_size
    sizes = np.diff(bins)
    info.update(
        empty_bins=int((sizes == 0).sum()),
        largest_bin=int(sizes.max()) if sizes.size else 0,
        mean_bin_size=float(n / n_bins) if n_bins else 0.0,
        file_bytes=file_bytes,
    )
    return info


def load(path, db: SequenceDB) -> FSIndex:
    """Load an index file; ``db`` must be the sequence set it was built from."""
    # Unbuffered: after the small header reads, a buffered reader's
    # read() of the rest copies it in chunks, twice as slow as readall().
    with open(path, "rb", buffering=0) as fh:
        info = _read_header(fh)
        blob = fh.read()
    m, n, n_bins = info["fragment_length"], info["fragments"], info["bins"]
    suffix_mode = info["suffix_mode"]
    alphabet = Alphabet(info["alphabet"])
    scheme = parse_partition(info["partition"], alphabet, m)
    if scheme.n_bins != n_bins:
        raise IndexFormatError("bin count disagrees with partition spec")

    need = (n_bins + 1) * 8 + n * 8 + (n + 1)
    if len(blob) != need:
        raise IndexFormatError("index arrays truncated or oversized")
    # bins and lcp stay read-only views of the file's bytes; each packed
    # reference is (offset, seq_id) as little-endian uint32 halves
    bins = np.frombuffer(blob, dtype="<i8", count=n_bins + 1)
    pos = (n_bins + 1) * 8
    refs = np.frombuffer(blob, dtype="<u4", count=2 * n, offset=pos).reshape(n, 2)
    offs = refs[:, 0].astype(np.uint32)
    sids = refs[:, 1].astype(np.uint32)
    lcp = np.frombuffer(blob, dtype="<u1", count=n + 1, offset=pos + n * 8)

    codes, starts = encode_db(db, alphabet)
    if n and (sids >= len(db)).any():
        raise IndexFormatError("fragment reference outside the sequence set")
    if n and (offs >= np.diff(starts)[sids]).any():
        raise IndexFormatError("fragment offset outside its sequence")
    dataset = FragmentDataset(
        db=db,
        alphabet=alphabet,
        m=m,
        suffix_mode=suffix_mode,
        sids=sids,
        offs=offs,
        rejected=0,  # unknown post hoc; manifest comes from extraction
        codes=codes,
        starts=starts,
    )
    return FSIndex(
        dataset=dataset,
        scheme=scheme,
        bins=bins,
        sids=sids,
        offs=offs,
        lcp=lcp,
        letters=dataset.letter_matrix(),  # the dataset's rows are in frag order
    )
