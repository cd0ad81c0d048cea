"""Inputs the benchmark owns: the synthetic corpus and the query streams.

The corpus generator is a copy of the test suite's family-structured
generator (``tests/_corpus.py``) at its fixed default seed, kept here so
the program under test receives only inputs the benchmark made.  The
corpus FASTA digest and the fragment counts of both extraction modes are
pinned; a drift in either stops the run before anything is measured.

Queries are drawn from ``BACKGROUND`` with the run's seed, in small
groups whose combined letter composition is exactly the background one:
letter composition explains about two thirds of the variance of k-NN
latency, so i.i.d. draws made the medians of runs with different seeds
differ by up to a quarter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

AMINO_ACIDS = "ARNDCQEGHILKMFPSTWYV"

# typical background frequencies of the 20 standard residues, AMINO_ACIDS order
BACKGROUND = np.array([
    0.0787, 0.0512, 0.0448, 0.0536, 0.0157, 0.0395, 0.0636, 0.0723,
    0.0226, 0.0529, 0.0921, 0.0580, 0.0223, 0.0393, 0.0483, 0.0692,
    0.0584, 0.0131, 0.0321, 0.0723,
])
BACKGROUND = BACKGROUND / BACKGROUND.sum()

CORPUS_SEED = 20040614
CORPUS_DIGEST = "3f7c8d2e023ad4f6195b6abfc3c92809"  # blake2b-128 of the FASTA text
FIXED_FRAGMENTS = 1_098_851   # clean length-9 windows
SUFFIX_FRAGMENTS = 1_124_589  # suffix-mode fragments, floor 1
DEFAULT_QUERY_SEED = 271828


@dataclass(frozen=True)
class Corpus:
    """FASTA text plus the records it encodes, in file order."""

    fasta: str
    identifiers: tuple[str, ...]
    sequences: tuple[str, ...]
    fixed_fragments: int | None = None   # pinned counts; None for ad-hoc corpora
    suffix_fragments: int | None = None


def fasta_digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def protein_corpus(
    n_families: int = 130,
    members_per_family: int = 25,
    min_len: int = 260,
    max_len: int = 440,
    mutation_rate: float = 0.08,
    x_rate: float = 0.002,
    seed: int = CORPUS_SEED,
) -> Corpus:
    """Family-structured random protein corpus: each family is an ancestor
    plus point-mutated variants, with rare ``X`` residues."""
    rng = np.random.default_rng(seed)
    letters = np.frombuffer(AMINO_ACIDS.encode(), dtype=np.uint8)
    identifiers, sequences = [], []
    serial = 0
    for fam in range(n_families):
        length = int(rng.integers(min_len, max_len + 1))
        ancestor = rng.choice(20, size=length, p=BACKGROUND)
        for member in range(members_per_family):
            seq = ancestor.copy()
            if member:
                flips = rng.random(length) < mutation_rate
                seq[flips] = rng.choice(20, size=int(flips.sum()), p=BACKGROUND)
            chars = letters[seq].copy()
            xs = rng.random(length) < x_rate
            chars[xs] = ord("X")
            serial += 1
            identifiers.append(f"f{fam:03d}m{member:02d}|g{serial}")
            sequences.append(chars.tobytes().decode("latin-1"))
    fasta = "".join(f">{i}\n{s}\n" for i, s in zip(identifiers, sequences))
    return Corpus(fasta, tuple(identifiers), tuple(sequences))


def pinned_corpus() -> Corpus:
    """The benchmark corpus; raises if it no longer matches its pins."""
    corpus = protein_corpus()
    digest = fasta_digest(corpus.fasta)
    if digest != CORPUS_DIGEST:
        raise RuntimeError(f"corpus digest {digest} != pinned {CORPUS_DIGEST}")
    return Corpus(
        corpus.fasta, corpus.identifiers, corpus.sequences,
        fixed_fragments=FIXED_FRAGMENTS, suffix_fragments=SUFFIX_FRAGMENTS,
    )


def _letter_groups(rng, lengths) -> list[str]:
    """One query per length, letters drawn without replacement from a pool
    whose letter counts follow ``BACKGROUND`` as closely as integers allow.

    Each letter of each query is still distributed as ``BACKGROUND``, but
    the group as a whole has the background composition exactly, so the
    composition does not vary between seeds.
    """
    total = int(sum(lengths))
    want = BACKGROUND * total
    counts = np.floor(want).astype(np.int64)
    counts[np.argsort(counts - want)[: total - counts.sum()]] += 1  # largest remainders
    letters = rng.permutation(np.repeat(np.arange(20), counts))
    cuts = np.cumsum(lengths)[:-1]
    return ["".join(AMINO_ACIDS[c] for c in part) for part in np.split(letters, cuts)]


def fixed_queries(seed: int, count: int, m: int, group: int = 8) -> list[str]:
    """``count`` length-``m`` queries, in groups of ``group`` queries whose
    letters together follow ``BACKGROUND`` (see ``_letter_groups``)."""
    rng = np.random.default_rng(seed)
    out: list[str] = []
    while len(out) < count:
        out += _letter_groups(rng, [m] * group)
    return out[:count]


def mixed_length_queries(seed: int, count: int, lo: int, hi: int) -> list[str]:
    """Queries in blocks of ``hi - lo + 1``, one of each length ``lo..hi``
    per block in seeded order; each block's letters together follow
    ``BACKGROUND`` (see ``_letter_groups``).

    Every prefix of the stream then holds each length about equally often,
    so the share of each search path stays fixed from seed to seed and
    however many queries a run gets through.
    """
    rng = np.random.default_rng(seed)
    out: list[str] = []
    while len(out) < count:
        out += _letter_groups(rng, rng.permutation(np.arange(lo, hi + 1)))
    return out[:count]
