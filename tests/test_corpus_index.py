"""The 1.1M-fragment corpus indexes pass ``audit()`` and save to the same bytes.

The digests are blake2b of the files the row-wise lexsort build wrote at
commit ``2cc8a69``: the packed-key build must keep every file byte-identical.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

import fsindex as fx
from corpus_answers import corpus_indexes

DIGESTS = {
    "fixed": "d9155db25822570b3f118a4d3c423f095441467a5daa5972d559d676b825cd3d"
             "958e41d5ecd091bdf546422d17a91f1921f762337c4bbe4444e40d9f84c476ab",
    "suffix": "9a5db1d4c8656d249c76f594b1e8dd53b42e03e74166e9c4684018a5fed5273d"
              "86dccb059cf9725a5e246511c127baf4a12bfb089ee7c454d0bb623e796f3d10",
}


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
    assert peak < size / 4, f"load peaked at {peak} B for a {size} B file"
    for name in ("occupancy", "bins", "sids", "offs", "lcp", "letters"):
        assert np.array_equal(getattr(loaded, name), getattr(index, name)), name
