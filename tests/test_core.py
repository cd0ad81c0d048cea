import dataclasses
import itertools

import numpy as np
import pytest

import fsindex as fx
from conftest import all_fragments_db, random_db, random_partition


class TestRank:
    def test_all_zero_digits(self, toy_scheme):
        assert toy_scheme.rank((0, 0, 0)) == 0

    def test_mixed_radix_243(self):
        # cluster counts (2, 4, 3): the top bin ranks last
        alpha = fx.Alphabet("abcdefgh")
        scheme = fx.parse_partition("abcd,efgh;ab,cd,ef,gh;abc,def,gh", alpha, 3)
        assert scheme.sizes.tolist() == [2, 4, 3]
        assert scheme.n_bins == 24
        assert scheme.rank((1, 3, 2)) == 23
        # enumeration order is lexicographic in the digit tuples
        ordered = sorted(itertools.product(range(2), range(4), range(3)))
        assert [scheme.rank(d) for d in ordered] == list(range(24))

    def test_binary_scheme_enumeration(self, toy_scheme):
        ordered = list(itertools.product(range(2), repeat=3))
        assert [toy_scheme.rank(d) for d in ordered] == list(range(8))

    def test_rank_unrank_bijection(self, toy_scheme):
        for u in range(toy_scheme.n_bins):
            assert toy_scheme.rank(toy_scheme.unrank(u)) == u

    def test_out_of_range_digits(self, toy_scheme):
        with pytest.raises(ValueError):
            toy_scheme.rank((0, 2, 0))


class TestBinOf:
    def test_worked_example_centre_bin(self, toy_scheme):
        # abd -> (alpha, beta, beta) = digits (0, 1, 1)
        assert fx.bin_of(toy_scheme, "abd") == toy_scheme.rank((0, 1, 1))

    def test_cluster_collapse(self, toy_scheme):
        # fragments differing only inside clusters share a bin
        assert fx.bin_of(toy_scheme, "abd") == fx.bin_of(toy_scheme, "cbb")
        assert fx.bin_of(toy_scheme, "aaa") == fx.bin_of(toy_scheme, "ccc")

    def test_three_cluster_positional_scheme(self):
        # {A,B}->0, {C,D}->1, {E,F}->2 at each of 4 positions
        alpha = fx.Alphabet("ABCDEF")
        scheme = fx.parse_partition("AB,CD,EF", alpha, 4)
        assert fx.bin_of(scheme, "ACEF") == 0 * 27 + 1 * 9 + 2 * 3 + 2


class TestBuild:
    def test_empty_dataset(self, toy_alpha, toy_scheme):
        db = fx.SequenceDB(records=(("only", "ab"),))  # too short for m=3
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha)
        assert ds.n == 0
        index = fx.build(ds, toy_scheme)
        index.audit()
        assert [index.bin_slice(u) for u in range(8)] == [(0, 0)] * 8
        assert index.lcp.tolist() == [0]

    def test_full_cube_fills_every_bin_evenly(self, toy_index):
        assert [toy_index.bin_size(u) for u in range(8)] == [8] * 8

    def test_duplicates_share_full_prefix(self, toy_alpha, toy_scheme):
        db = fx.SequenceDB(records=(("r", "aaaa"),))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha)
        assert ds.n == 2  # windows at offsets 0 and 1, both "aaa"
        index = fx.build(ds, toy_scheme)
        index.audit()
        u = fx.bin_of(toy_scheme, "aaa")
        lo, hi = index.bin_slice(u)
        assert hi - lo == 2
        assert index.lcp[lo] == 0 and index.lcp[lo + 1] == 3

    def test_order_matches_reference_sort(self, toy_alpha):
        rng = np.random.default_rng(17)
        db = random_db(rng, toy_alpha, n_seqs=12, min_len=3, max_len=30)
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha)
        scheme = fx.parse_partition("ac,bd;ab,cd;ad,cb", toy_alpha, 3)
        index = fx.build(ds, scheme)
        index.audit()
        texts = [ds.fragment_text(int(s), int(o), 3) for s, o in zip(ds.sids, ds.offs)]
        ref = sorted(
            range(ds.n),
            key=lambda i: (fx.bin_of(scheme, texts[i]), texts[i], i),
        )
        got = list(zip(index.sids.tolist(), index.offs.tolist()))
        want = [(int(ds.sids[i]), int(ds.offs[i])) for i in ref]
        assert got == want

    def test_audit_random_schemes(self):
        rng = np.random.default_rng(23)
        for trial in range(8):
            alpha = fx.STANDARD_ALPHABET if trial % 2 else fx.Alphabet("abcd")
            m = int(rng.integers(2, 6))
            db = random_db(rng, alpha, n_seqs=20, min_len=1, max_len=40)
            suffix = bool(trial % 3 == 0)
            ds = fx.extract_fragments(db, m, alphabet=alpha, suffix_mode=suffix)
            scheme = random_partition(rng, alpha, m)
            index = fx.build(ds, scheme)
            index.audit()

    def test_mismatched_scheme_rejected(self, toy_cube):
        scheme = fx.parse_partition("ac,bd", toy_cube.alphabet, 4)
        with pytest.raises(ValueError):
            fx.build(toy_cube, scheme)

    def test_suffix_mode_places_short_tails_in_rank0_bins(self, toy_alpha):
        db = fx.SequenceDB(records=(("r", "dcba"),))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha, suffix_mode=True)
        # suffixes: dcba, cba, ba, a
        assert ds.n == 4
        scheme = fx.parse_partition("ac,bd", toy_alpha, 3)
        index = fx.build(ds, scheme)
        index.audit()
        # tail "a": digits (0, 0, 0) via rank-0 padding; tail "ba": (1, 0, 0)
        lo, hi = index.bin_slice(0)
        assert hi - lo == 1
        u_ba = scheme.rank((1, 0, 0))
        assert index.bin_size(u_ba) == 1


    def test_audit_rejects_letter_past_key(self, toy_alpha, toy_scheme):
        rng = np.random.default_rng(9)
        db = random_db(rng, toy_alpha, n_seqs=10, min_len=1, max_len=25)
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha, suffix_mode=True)
        index = fx.build(ds, toy_scheme)
        index.audit()
        # a short key's last cell holds the pad code; "a" shares its digit,
        # so only the padding check can tell
        row = int(np.flatnonzero(index.letters[:, 2] == len(toy_alpha))[0])
        letters = index.letters.copy()
        letters[row, 2] = toy_alpha.ordinal("a")
        with pytest.raises(AssertionError, match="padded"):
            dataclasses.replace(index, letters=letters).audit()

    def test_audit_rejects_letters_of_other_sequences(self, toy_index, toy_scheme):
        # a letter swapped within its cluster keeps every rank and pad code
        alpha = toy_index.alphabet
        letters = toy_index.letters.copy()
        old = alpha.letters[letters[0, 0]]
        new = next(c for c in toy_scheme.cluster_of(0, old) if c != old)
        letters[0, 0] = alpha.ordinal(new)
        with pytest.raises(AssertionError, match="sequence set"):
            dataclasses.replace(toy_index, letters=letters).audit()

    def test_widest_alphabet(self):
        # 255 letters: the pad code is 255 and code 254 sorts as 255
        alpha = fx.Alphabet("".join(chr(c) for c in range(1, 256)))
        rng = np.random.default_rng(61)
        pool = [chr(c) for c in (*range(1, 5), *range(250, 256))] + ["\x00"]
        seqs = ["".join(rng.choice(pool, int(rng.integers(1, 12)))) for _ in range(12)]
        db = fx.SequenceDB(records=tuple((f"s{i}", s) for i, s in enumerate(seqs)))
        ds = fx.extract_fragments(db, 3, alphabet=alpha, suffix_mode=True)
        halves = (alpha.letters[:128], alpha.letters[128:])
        scheme = fx.PartitionScheme(alpha, (halves,) * 3, spec_string="halves")
        index = fx.build(ds, scheme)
        index.audit()
        assert (index.letters == 254).any() and (index.letters == 255).any()
        texts = [ds.fragment_text(int(s), int(o), 3) for s, o in zip(ds.sids, ds.offs)]
        ranks = scheme.ranks(ds.letter_matrix())
        # code order is character order here, and a shorter key sorts first
        ref = sorted(range(ds.n), key=lambda i: (ranks[i], texts[i], i))
        assert index.sids.tolist() == ds.sids[ref].tolist()
        assert index.offs.tolist() == ds.offs[ref].tolist()
        for _ in range(5):
            f = fx.pssm_query(rng.integers(-5, 10, size=(3, 255)), alpha)
            q = fx.normalize(f)
            hits, _ = fx.range_search(index, q, 6 - q.shift)
            want = fx.linear_scan_range(ds, f, 6)
            assert sorted((r, v + q.shift) for r, v in hits) == sorted(want)


class TestRawLcp:
    @staticmethod
    def reference(rows):
        n, m = rows.shape
        out = [0] * n
        for i in range(1, n):
            out[i] = next((j for j in range(m) if rows[i, j] != rows[i - 1, j]), m)
        return out

    def test_matches_per_row_loop(self):
        rng = np.random.default_rng(41)
        for n, m in [(0, 3), (1, 4), (2, 1), (300, 5)]:
            rows = rng.integers(0, 3, size=(n, m)).astype(np.uint8)
            for keys in (rows, rows[np.lexsort(rows.T[::-1])]):
                assert fx.core._raw_lcp(keys).tolist() == self.reference(keys)
        # sorted, 300 rows over 3**5 keys hold equal neighbours
        assert (fx.core._raw_lcp(keys) == m).any()


class TestSerialization:
    def test_roundtrip_bitexact_and_equal_results(self, toy_index, toy_d, tmp_path):
        p1 = tmp_path / "a.fsi"
        p2 = tmp_path / "b.fsi"
        toy_index.save(p1)
        loaded = fx.load(p1, toy_index.dataset.db)
        loaded.audit()
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        q = fx.normalize(fx.distance_query(toy_d, "abd"))
        h1, _ = fx.range_search(toy_index, q, 7)
        h2, _ = fx.range_search(loaded, q, 7)
        assert h1.as_multiset() == h2.as_multiset()

    def test_roundtrip_suffix_mode(self, toy_alpha, toy_d, tmp_path):
        rng = np.random.default_rng(9)
        db = random_db(rng, toy_alpha, n_seqs=10, min_len=1, max_len=25)
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha, suffix_mode=True)
        scheme = fx.parse_partition("ac,bd", toy_alpha, 3)
        index = fx.build(ds, scheme)
        path = tmp_path / "s.fsi"
        index.save(path)
        loaded = fx.load(path, db)
        loaded.audit()
        assert loaded.suffix_mode
        assert np.array_equal(loaded.letters, index.letters)
        assert np.array_equal(loaded.lcp, index.lcp)
        q = fx.normalize(fx.distance_query(toy_d, "abc"))
        assert (
            fx.range_search(index, q, 9)[0].as_multiset()
            == fx.range_search(loaded, q, 9)[0].as_multiset()
        )

    def test_residue_outside_latin1_roundtrip(self, tmp_path):
        db = fx.parse_fasta(">s\nMKV\u03a9KVML\n")
        scheme = fx.parse_partition("TSAN,ILVM,KR,DEQ,WFYH,GPC", fx.STANDARD_ALPHABET, 3)
        index = fx.build(fx.extract_fragments(db, 3), scheme)
        path = tmp_path / "u.fsi"
        index.save(path)
        loaded = fx.load(path, db)
        loaded.audit()
        assert np.array_equal(loaded.letters, index.letters)

    def test_failed_save_keeps_old_file(self, toy_index, tmp_path, monkeypatch):
        path = tmp_path / "old.fsi"
        toy_index.save(path)
        before = path.read_bytes()

        class FailingWriter:
            """A file that writes half of the first buffer it is given, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                view = memoryview(data).cast("B")
                self.fh.write(view[: view.nbytes // 2])
                raise OSError("no space left on device")

            def writelines(self, buffers):
                for data in buffers:
                    self.write(data)

        real_open = open
        monkeypatch.setattr(
            fx.core, "open", lambda *a, **k: FailingWriter(real_open(*a, **k)), raising=False
        )
        with pytest.raises(OSError, match="no space"):
            toy_index.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["old.fsi"]

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.fsi"
        p.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(fx.IndexFormatError):
            fx.load(p, fx.SequenceDB(records=(("x", "AAA"),)))

    def test_truncated_rejected(self, toy_index, tmp_path):
        p = tmp_path / "t.fsi"
        toy_index.save(p)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(fx.IndexFormatError):
            fx.load(p, toy_index.dataset.db)

    def test_other_version_rejected(self, toy_index, tmp_path):
        p = tmp_path / "v.fsi"
        toy_index.save(p)
        blob = bytearray(p.read_bytes())
        blob[4:8] = (fx.core.FORMAT_VERSION + 1).to_bytes(4, "little")
        p.write_bytes(bytes(blob))
        with pytest.raises(fx.IndexFormatError, match="version"):
            fx.load(p, toy_index.dataset.db)
        with pytest.raises(fx.IndexFormatError, match="version"):
            fx.core.read_index_header(p)

    def test_other_sequence_set_rejected(self, tmp_path):
        # A and S share a cluster, so both sets fill the same bins with
        # the same counts; only the digest of the sequences tells them apart
        scheme = fx.parse_partition("TSAN,ILVM,KR,DEQ,WFYH,GPC", fx.STANDARD_ALPHABET, 9)
        path = tmp_path / "a.fsi"
        built_on = fx.SequenceDB(records=(("s", "A" * 300),))
        fx.build(fx.extract_fragments(built_on, 9), scheme).save(path)
        fx.load(path, built_on).audit()
        with pytest.raises(fx.IndexFormatError, match="sequence set"):
            fx.load(path, fx.SequenceDB(records=(("s", "S" * 300),)))

    @pytest.mark.parametrize("name, row, value, match", [
        ("letters", 5, 5, "pad"),       # the toy pad code is 4
        ("lcp", 5, 4, "prefix"),        # m = 3
        ("bins", 8, 65, "bin offsets"),  # n = 64
        ("bins", 3, 16, "bin offsets"),  # bins[2] == 16: an empty bin
    ])
    def test_array_values_checked(self, toy_index, tmp_path, name, row, value, match):
        p = tmp_path / "x.fsi"
        toy_index.save(p)
        blob = bytearray(p.read_bytes())
        head = (fx.core._HEADER.size + len(toy_index.alphabet.letters.encode())
                + len(toy_index.scheme.spec_string.encode()))
        pos = head + -head % 8
        for arr, dtype in fx.core._ARRAYS:
            if arr == name:
                break
            pos += getattr(toy_index, arr).astype(dtype).nbytes
        size = np.dtype(dtype).itemsize
        blob[pos + row * size: pos + (row + 1) * size] = np.array([value], dtype).tobytes()
        p.write_bytes(bytes(blob))
        with pytest.raises(fx.IndexFormatError, match=match):
            fx.load(p, toy_index.dataset.db)

    def test_header_stats_need_only_the_header(self, toy_index, tmp_path):
        p = tmp_path / "h.fsi"
        toy_index.save(p)
        full = fx.core.read_index_header(p)
        end = (fx.core._HEADER.size + len(toy_index.alphabet.letters.encode())
               + len(toy_index.scheme.spec_string.encode()))
        p.write_bytes(p.read_bytes()[:end])
        assert fx.core.read_index_header(p) == dict(full, file_bytes=end)

    def test_header_stats(self, toy_index, tmp_path):
        p = tmp_path / "h.fsi"
        size = toy_index.save(p)
        info = fx.core.read_index_header(p)
        assert info["fragments"] == 64
        assert info["bins"] == 8
        assert info["empty_bins"] == 0
        assert info["largest_bin"] == 8
        assert info["file_bytes"] == size
        assert not info["suffix_mode"]


class TestImmutability:
    def test_arrays_read_only(self, toy_index):
        for arr in (toy_index.bins, toy_index.lcp, toy_index.letters, toy_index.sids):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_loaded_arrays_read_only(self, toy_index, tmp_path):
        path = tmp_path / "r.fsi"
        toy_index.save(path)
        loaded = fx.load(path, toy_index.dataset.db)
        for arr in (loaded.bins, loaded.lcp, loaded.letters, loaded.sids, loaded.offs):
            with pytest.raises(ValueError):
                arr[0] = 0
