"""The 1.1M-fragment corpus indexes pass ``audit()`` and save to the same bytes.

``V2_DIGESTS`` are blake2b of the format-2 files the row-wise lexsort build
wrote at commit ``2cc8a69``: the same index, written the format-2 way (a
letter row per fragment, bins as frag offsets, no key count), must give
those bytes again.  ``DIGESTS`` are blake2b of the format-3 files.
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
DIGESTS = {
    "fixed": "e2518a3b874cf5e816e3f5f5324fdcdbc355707798bd4ec21faf99b356c7419b"
             "e483f37bf2ae1aacf20759310f941a3804464cca4300a8c9bf6ffc8afedd0352",
    "suffix": "3318d4a70f0a8b7ee86f3dbd7c046c0929cc1f1d8e7f34518bcb967efcc7535b"
              "dc111dbd0af311c0c41663fc9d13837592dcf15a97c6416c2213d38b05c046a5",
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
    # the keys are derived at load and kept, 6 B per key: not a copy of the file
    bound = size / 4 + sum(getattr(loaded, k).nbytes for k in ("key_starts", "key_lcp", "key_gain"))
    assert peak < bound, f"load peaked at {peak} B for a {size} B file"
    for name in ("occupancy", "bins", "sids", "offs", "lcp", "letters", "key_starts", "key_lcp",
                 "key_gain"):
        assert np.array_equal(getattr(loaded, name), getattr(index, name)), name
