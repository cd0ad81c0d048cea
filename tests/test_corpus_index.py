"""The 1.1M-fragment corpus indexes pass ``audit()`` and save to the same bytes.

``V2_DIGESTS`` are blake2b of the format-2 files the row-wise lexsort build
wrote at commit ``2cc8a69``: the same index, written the format-2 way (a
letter row per fragment, bins as frag offsets, no key count), must give
those bytes again.  ``V3_DIGESTS`` are blake2b of the format-3 files
(sequence ordinals and offsets, a letter row per key), which the same
index, written that way, must give again.  ``V4_DIGESTS`` are blake2b of
the format-4 files (an lcp byte per fragment before the key records), which
the same index, written with the lcp it derives from its records, must give
again.  ``DIGESTS`` are blake2b of the format-5 files.
"""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

import fsindex as fx
from corpus_answers import corpus_indexes

V2_DIGESTS = {
    "fixed": "d9155db25822570b3f118a4d3c423f095441467a5daa5972d559d676b825cd3d"
             "958e41d5ecd091bdf546422d17a91f1921f762337c4bbe4444e40d9f84c476ab",
    "suffix": "9a5db1d4c8656d249c76f594b1e8dd53b42e03e74166e9c4684018a5fed5273d"
              "86dccb059cf9725a5e246511c127baf4a12bfb089ee7c454d0bb623e796f3d10",
}
V3_DIGESTS = {
    "fixed": "e2518a3b874cf5e816e3f5f5324fdcdbc355707798bd4ec21faf99b356c7419b"
             "e483f37bf2ae1aacf20759310f941a3804464cca4300a8c9bf6ffc8afedd0352",
    "suffix": "3318d4a70f0a8b7ee86f3dbd7c046c0929cc1f1d8e7f34518bcb967efcc7535b"
              "dc111dbd0af311c0c41663fc9d13837592dcf15a97c6416c2213d38b05c046a5",
}
V4_DIGESTS = {
    "fixed": "ed9bc283fee9650034a49e8842b3ca3dc3d4f8cae6c2567a34589d1cec25ea3e"
             "daf0af12ceb03498d3bd821d25c11da8443e2c03196a28fffd122bee3962ae4f",
    "suffix": "254b005415e4a6beb0b74a812199e699d9b33fd0c5888cc8c3908cd60f3dffeb"
              "8dac59afd0d084e044769a895679805de3efad16ea4f73cbc9f7d09452cdcad0",
}

DIGESTS = {
    "fixed": "02aca017b73ab2cc74fdac627d7ab8ebb0a170543d757fdef5451a268105117404"
             "d088c660ee6f17c53ce0474c3afa30f6e2864e47a92303777bd223b091811e",
    "suffix": "eabe9a2aa9f9f3917c9e90c10b07808bb4216ce574331b2d5a10b32d175a60f7"
              "8b8ca156c6d0ebfea089948c1abfaa7cff799bba27def61d00c1a132b7b8aaaa",
}


def v2_digest(index) -> str:
    """blake2b of the format-2 file of ``index``: its header had no key
    count, its bins were frag offsets and its letters one row per fragment."""
    alpha, spec = index.alphabet.letters.encode(), index.scheme.spec_string.encode()
    starts = index.key_starts.astype(np.int64)
    bins = starts[index.bins]
    ds = index.dataset
    head = struct.pack(
        "<4sIIQQQQIIB32s", b"FSIX", 2, index.m, index.n, index.n_bins, bins.size - 1,
        int(np.diff(bins).max(initial=0)), len(alpha), len(spec), index.suffix_mode,
        fx.core._sequence_digest(ds.codes, ds.starts),
    ) + alpha + spec
    digest = hashlib.blake2b(head + bytes(-len(head) % 8))
    for arr in (index.occupancy.astype("<u8"), bins.astype("<u4"), index.sids.astype("<u4"),
                index.offs.astype("<u4"), index.lcp,
                np.repeat(index.letters, np.diff(starts), axis=0)):
        digest.update(np.ascontiguousarray(arr))
    return digest.hexdigest()


def v3_digest(index) -> str:
    """blake2b of the format-3 file of ``index``: sequence ordinals and
    offsets in place of positions, and a letter row per key."""
    alpha, spec = index.alphabet.letters.encode(), index.scheme.spec_string.encode()
    ds = index.dataset
    starts = index.key_starts.astype(np.int64)
    head = struct.pack(
        "<4sIIQQQQQIIB32s", b"FSIX", 3, index.m, index.n, index.n_keys, index.n_bins,
        index.bins.size - 1, int(np.diff(starts[index.bins]).max(initial=0)), len(alpha),
        len(spec), index.suffix_mode, fx.core._sequence_digest(ds.codes, ds.starts),
    ) + alpha + spec
    digest = hashlib.blake2b(head + bytes(-len(head) % 8))
    for arr in (index.occupancy.astype("<u8"), index.bins.astype("<u4"), index.sids.astype("<u4"),
                index.offs.astype("<u4"), index.lcp, np.ascontiguousarray(index.letters)):
        digest.update(np.ascontiguousarray(arr))
    return digest.hexdigest()


def v4_digest(index) -> str:
    """blake2b of the format-4 file of ``index``: the format-5 arrays with
    the lcp, n + 1 bytes, before the records, and no capped row counts."""
    alpha, spec = index.alphabet.letters.encode(), index.scheme.spec_string.encode()
    ds = index.dataset
    head = struct.pack(
        "<4sIIQQQQQIIBB32s", b"FSIX", 4, index.m, index.n, index.n_keys, index.n_bins,
        index.bins.size - 1, int(np.diff(index.key_starts[index.bins]).max(initial=0)),
        len(alpha), len(spec), index.suffix_mode, index.pos.itemsize,
        fx.core._sequence_digest(ds.codes, ds.starts),
    ) + alpha + spec
    digest = hashlib.blake2b(head + bytes(-len(head) % 8))
    for arr in (index.occupancy.astype("<u8"), index.bins.astype("<u4"),
                index.pos.astype(index.pos.dtype.newbyteorder("<")), index.lcp, index.records):
        digest.update(np.ascontiguousarray(arr))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def indexes():
    return corpus_indexes()


@pytest.mark.parametrize("mode", sorted(DIGESTS))
def test_audit_and_file_digest(indexes, mode, tmp_path):
    index = indexes[mode]
    index.audit()
    path = tmp_path / f"{mode}.fsi"
    index.save(path)
    assert hashlib.blake2b(path.read_bytes()).hexdigest() == DIGESTS[mode]
    assert v4_digest(index) == V4_DIGESTS[mode]
    assert v3_digest(index) == V3_DIGESTS[mode]
    assert v2_digest(index) == V2_DIGESTS[mode]


def test_load_allocates_no_copy_of_the_file(indexes, tmp_path):
    """``load`` maps the file: what it allocates (the sequence codes and
    the checks' small pieces) stays far below the file's size."""
    index = indexes["fixed"]
    path = tmp_path / "fixed.fsi"
    size = index.save(path)
    tracemalloc.start()
    try:
        loaded = fx.load(path, index.dataset.db)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the key starts are derived at load and kept, 4 B per key: not a copy of the file
    bound = size / 4 + loaded.key_starts.nbytes
    assert peak < bound, f"load peaked at {peak} B for a {size} B file"
    for name in ("occupancy", "bins", "pos", "sids", "offs", "lcp", "records", "key_starts"):
        assert np.array_equal(getattr(loaded, name), getattr(index, name)), name
