"""Sequence ingestion: FASTA parsing, window extraction, query sampling.

Windows containing any letter outside the working alphabet (ambiguity
codes such as X, B, Z, and anything else non-standard) are rejected; a
single bad letter invalidates exactly the windows covering it.  In
suffix mode every tail of a sequence down to a configurable floor is
kept, addressed by its first ``m`` letters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .alphabet import Alphabet, STANDARD_ALPHABET

# code arrays of at most this many codes take uint32 fragment positions, longer ones uint64
POS_LIMIT = 1 << 32

# lowercase ASCII letters to uppercase, for ``str.translate``: every other character stays
_ASCII_UPPER = {c: c - 32 for c in range(ord("a"), ord("z") + 1)}

# where a header line starts, past the text's first line: a newline, optional whitespace, ">"
_HEADER = re.compile(r"\n\s*>")


class FastaFormatError(ValueError):
    """Raised for malformed FASTA input."""


class FragmentRef(NamedTuple):
    """One fragment occurrence: sequence ordinal plus start offset."""

    seq_id: int
    offset: int


@dataclass(frozen=True)
class SequenceDB:
    """Parsed sequence records: (identifier, residue string) pairs."""

    records: tuple[tuple[str, str], ...]

    def __post_init__(self):
        seen = set()
        for ident, residues in self.records:
            if ident in seen:
                raise FastaFormatError(f"duplicate sequence identifier {ident!r}")
            seen.add(ident)
            if not residues:
                raise FastaFormatError(f"sequence {ident!r} is empty")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def total_residues(self) -> int:
        return sum(len(r) for _, r in self.records)

    def identifier(self, seq_id: int) -> str:
        return self.records[seq_id][0]

    def residues(self, seq_id: int) -> str:
        return self.records[seq_id][1]


def parse_fasta(source) -> SequenceDB:
    """Parse FASTA text (a string or text stream) into a SequenceDB.

    A header line starts with ``>`` after optional whitespace, and the
    identifier is its first whitespace-delimited token.  A record's body is
    every line up to the next header, so bodies may wrap; whitespace
    anywhere in a body is dropped, and its ASCII letters are uppercased.
    Any other character stays one residue as it is (``str.upper`` would
    turn "ß" into "SS").  A stream is read whole; the text is split once
    at its header lines, and each record is cleaned in one pass.
    """
    # a stream's text is not kept: it is freed once split
    pieces = _HEADER.split(source if isinstance(source, str) else source.read())
    lead = pieces[0].lstrip()  # the first record, when the text starts with a header
    if lead and not lead.startswith(">"):
        raise FastaFormatError("sequence data before first FASTA header")
    pieces[:1] = [lead[1:]] if lead else []
    if not pieces:
        raise FastaFormatError("no FASTA records found")
    pieces.reverse()  # popped from the end, so each piece is freed once cleaned
    records: list[tuple[str, str]] = []
    while pieces:
        header, _, body = pieces.pop().partition("\n")
        ident = header.split(None, 1)
        if not ident:
            raise FastaFormatError("empty FASTA header")
        body = "".join(body.split())
        records.append((ident[0], body.upper() if body.isascii() else body.translate(_ASCII_UPPER)))
    return SequenceDB(records=tuple(records))


class CodePositions:
    """Fragments as code positions ``pos`` in sequences that start at
    ``starts``, as a suffix array's entries are text positions.  Their
    sequence ordinals and offsets (``sids``, ``offs``) are derived once,
    on first use, by one binary search over ``starts`` per position, and
    then cached read-only: 16 bytes (two int64) per position."""

    pos: np.ndarray
    starts: np.ndarray

    @cached_property
    def _refs(self) -> tuple[np.ndarray, np.ndarray]:
        sids = np.searchsorted(self.starts, self.pos, side="right") - 1
        offs = self.pos.astype(np.int64) - self.starts.take(sids)
        sids.flags.writeable = offs.flags.writeable = False
        return sids, offs

    @property
    def sids(self) -> np.ndarray:
        """(n,) sequence ordinals, read-only."""
        return self._refs[0]

    @property
    def offs(self) -> np.ndarray:
        """(n,) offsets within their sequences, read-only."""
        return self._refs[1]


@dataclass(frozen=True)
class FragmentDataset(CodePositions):
    """All valid fragment occurrences of a SequenceDB.

    In fixed mode each fragment is a clean width-``m`` window.  In suffix
    mode each fragment is a sequence tail (at least the extraction
    floor long) whose first ``min(length, m)`` letters are clean; longer
    tails may extend past ``m`` (used by longer-than-index queries).

    A fragment is its code position, as a suffix array's entry is a text
    position: its sequence ordinal and offset (``sids``, ``offs``) are
    derived once, on first use, and then cached (``CodePositions``): 16
    bytes per fragment.
    """

    db: SequenceDB
    alphabet: Alphabet
    m: int
    suffix_mode: bool
    pos: np.ndarray  # (n,) code positions, extraction order: uint32, or uint64 past POS_LIMIT
    rejected: int
    codes: np.ndarray  # concatenated residue codes; invalid letters = len(alphabet)
    starts: np.ndarray  # (len(db)+1,) int64 offsets into codes

    @property
    def n(self) -> int:
        return int(self.pos.shape[0])

    @property
    def seq_lengths(self) -> np.ndarray:
        return np.diff(self.starts)

    def fragment_text(self, seq_id: int, offset: int, length: int | None = None) -> str:
        seq = self.db.residues(seq_id)
        end = len(seq) if length is None else offset + length
        return seq[offset:min(end, len(seq))]

    def key_lengths(self) -> np.ndarray:
        """Per fragment: min(suffix length, m); always m in fixed mode.  A
        fragment's first ``min(length, m)`` letters are clean, so its clean
        run, capped at ``m``, is that length."""
        return np.minimum(self.clean_runs.take(self.pos), self.m)

    @cached_property
    def unstarted(self) -> np.ndarray:
        """Code positions of the valid letters at which no fragment starts,
        in code order; derived on first use."""
        started = np.zeros(self.codes.size, dtype=bool)
        started[self.pos] = True
        return np.flatnonzero(~started & (self.codes < len(self.alphabet)))

    @cached_property
    def clean_runs(self) -> np.ndarray:
        """Per code position, its clean run (``clean_runs``), on first use."""
        return clean_runs(self.codes, self.starts, len(self.alphabet))

    def letter_matrix(self, klen: np.ndarray | None = None, room: int = 0) -> np.ndarray:
        """(n, m + room) codes in extraction order; positions past a short
        suffix hold the pad code len(alphabet), and the last ``room``
        columns the codes that follow, for the caller to overwrite.

        One row gather over the width-``m + room`` windows of the code
        array, with as many pad codes appended so the last sequence's
        windows stay in bounds; only suffix rows shorter than ``m`` need
        their tail (which runs into the next sequence) reset to the pad
        code.  A caller that holds the ``key_lengths()`` passes them as
        ``klen``.
        """
        pad = len(self.alphabet)
        m = self.m
        padded = np.concatenate([self.codes, np.full(m + room, pad, dtype=np.uint8)])
        out = sliding_window_view(padded, m + room)[self.pos]
        if self.suffix_mode:
            klen = self.key_lengths() if klen is None else klen
            short = np.flatnonzero(klen < m)
            if short.size:
                rows = out[short, :m]
                rows[np.arange(m)[None, :] >= klen[short, None]] = pad
                out[short, :m] = rows
        return out


def encode_db(db: SequenceDB, alphabet: Alphabet) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate residue codes; letters outside the alphabet map to
    the invalid code len(alphabet), which is also the pad code.  Codes are
    uint8, so an alphabet holds at most 255 letters, each within latin-1."""
    invalid = len(alphabet)
    if invalid > 255:
        raise ValueError(f"alphabet of {invalid} letters: uint8 codes allow at most 255")
    outside = [c for c in alphabet.letters if ord(c) > 255]
    if outside:
        raise ValueError(f"alphabet letter {outside[0]!r} is outside latin-1")
    lut = np.full(256, invalid, dtype=np.uint8)
    lut[[ord(c) for c in alphabet.letters]] = np.arange(invalid)
    residues = [res for _, res in db.records]
    starts = np.zeros(len(db) + 1, dtype=np.int64)
    np.cumsum([len(res) for res in residues], out=starts[1:])
    text = "".join(residues)  # latin-1 bytes, then one byte table
    try:
        raw = text.encode("latin-1")
    except UnicodeEncodeError:  # code points past latin-1 become a byte no letter takes
        raw = re.sub("[^\x00-\xff]", chr(lut.argmax()), text).encode("latin-1")
    return np.frombuffer(raw.translate(lut.tobytes()), dtype=np.uint8), starts


def clean_runs(codes: np.ndarray, starts: np.ndarray, pad: int) -> np.ndarray:
    """Per code position, the valid letters (codes below ``pad``) from it to
    the next invalid letter or its sequence's end, so a ``k``-letter window
    at ``p`` is clean iff ``runs[p] >= k``; int32 below 2**31 codes.  A
    position takes the first run end keyed at or after it, less itself: an
    invalid letter is keyed at itself, a sequence end at its last letter
    (and loses a tie)."""
    bad = np.flatnonzero(codes >= pad)
    keys = np.concatenate([bad, starts[1:] - 1])
    order = np.argsort(keys, kind="stable")
    dtype = np.int32 if codes.size < 2**31 else np.int64
    run_end = np.concatenate([bad, starts[1:]]).take(order).astype(dtype)
    out = np.repeat(run_end, np.diff(keys.take(order), prepend=-1))
    out -= np.arange(out.size, dtype=dtype)
    return out


def extract_fragments(
    db: SequenceDB,
    m: int,
    alphabet: Alphabet = STANDARD_ALPHABET,
    suffix_mode: bool = False,
    floor: int = 1,
) -> FragmentDataset:
    """Slide a width-``m`` window (step 1) over every sequence.

    Fixed mode keeps windows whose ``m`` letters are all in the alphabet.
    Suffix mode keeps every tail of length >= ``floor`` whose first
    ``min(length, m)`` letters are valid, so short tails participate too:
    a start is kept when its clean run holds ``min(tail, m)`` letters.
    """
    if m < 1:
        raise ValueError("fragment length must be >= 1")
    if suffix_mode and not 1 <= floor <= m:
        raise ValueError("suffix floor must be in 1..m")
    codes, starts = encode_db(db, alphabet)
    runs = clean_runs(codes, starts, len(alphabet))
    keep = runs >= m
    if suffix_mode:  # each sequence's tails of floor to m - 1 letters, clean to its end
        tail = np.arange(floor, m)
        at = starts[1:, None] - tail
        full = (at >= starts[:-1, None]) & (runs.take(at, mode="clip") >= tail)
        keep[at[full]] = True
    del runs
    pos = np.flatnonzero(keep).astype(np.uint32 if codes.size <= POS_LIMIT else np.uint64)
    pos.flags.writeable = False
    admissible = np.maximum(np.diff(starts) - ((floor if suffix_mode else m) - 1), 0).sum()
    return FragmentDataset(
        db=db,
        alphabet=alphabet,
        m=m,
        suffix_mode=suffix_mode,
        pos=pos,
        rejected=int(admissible) - pos.size,
        codes=codes,
        starts=starts,
    )


def dataset_manifest(ds: FragmentDataset) -> dict:
    return {
        "records": len(ds.db),
        "residues": ds.db.total_residues,
        "fragments": ds.n,
        "rejected": ds.rejected,
        "fragment_length": ds.m,
        "suffix_mode": ds.suffix_mode,
    }


def _lattice_cumulative(frequencies: np.ndarray) -> np.ndarray:
    total = float(frequencies.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"frequencies sum to {total}, expected 1 within 1e-9")
    if (frequencies < 0).any():
        raise ValueError("frequencies must be non-negative")
    # integer lattice keeps sampling exact and platform-independent
    cum = np.round(np.cumsum(frequencies) * (1 << 53)).astype(np.int64)
    cum[-1] = 1 << 53
    return cum


def sample_queries(
    m: int,
    count: int,
    seed: int,
    alphabet: Alphabet = STANDARD_ALPHABET,
    frequencies: Iterable[float] | None = None,
    db: SequenceDB | None = None,
) -> list[str]:
    """Deterministically sample query fragments.

    With ``db`` given, takes non-overlapping clean windows from its
    sequences (held-out-window mode) and errors if fewer than ``count``
    exist.  Otherwise draws letters i.i.d. from ``frequencies`` (uniform
    when omitted).
    """
    if count < 1:
        raise ValueError("query count must be >= 1")
    rng = np.random.default_rng(seed)
    if db is not None:  # a window is clean when its clean run holds m letters
        codes, starts = encode_db(db, alphabet)
        runs = clean_runs(codes, starts, len(alphabet))
        pool = [res[s:s + m] for (_, res), base in zip(db.records, starts.tolist())
                for s in range(0, len(res) - m + 1, m) if runs[base + s] >= m]
        if count > len(pool):
            raise ValueError(
                f"requested {count} held-out windows but only {len(pool)} available"
            )
        picks = rng.choice(len(pool), size=count, replace=False)
        return [pool[i] for i in picks]

    if frequencies is None:
        freq = np.full(len(alphabet), 1.0 / len(alphabet))
    else:
        freq = np.asarray(list(frequencies), dtype=float)
        if freq.shape != (len(alphabet),):
            raise ValueError("need one frequency per alphabet letter")
    cum = _lattice_cumulative(freq)
    draws = rng.integers(0, 1 << 53, size=(count, m), dtype=np.int64)
    codes = np.searchsorted(cum, draws, side="right")
    return [alphabet.decode(row) for row in codes]
