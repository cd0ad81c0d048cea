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

    def test_ranks_outside_the_scheme_rejected(self, toy_index):
        for u in (-1, toy_index.n_bins, toy_index.n_bins + 5000):
            with pytest.raises(ValueError, match="out of range"):
                toy_index.bin_slice(u)
            with pytest.raises(ValueError, match="out of range"):
                toy_index.bin_size(u)

    def test_no_repeats_store_a_key_per_fragment(self, toy_index, tmp_path):
        # every fragment of the cube once: each row is a key of its own
        assert toy_index.n_keys == toy_index.n == 64
        assert toy_index.letters.shape == (64, 3)
        assert toy_index.key_starts.tolist() == list(range(65))
        assert toy_index.records[:, -1].tolist() == [1] * 64  # one row each
        assert toy_index.bins.tolist() == list(range(0, 65, 8))
        toy_index.save(tmp_path / "c.fsi")
        assert fx.core.read_index_header(tmp_path / "c.fsi")["keys"] == 64

    def test_repeats_store_one_key(self, toy_alpha, toy_scheme):
        db = fx.SequenceDB(records=(("r", "aaaaa"), ("s", "aaab")))
        index = fx.build(fx.extract_fragments(db, 3, alphabet=toy_alpha), toy_scheme)
        index.audit()
        # aaa four times, then aab in another bin
        assert index.n == 5 and index.n_keys == 2
        assert index.letters.tolist() == [[0, 0, 0], [0, 0, 1]]
        assert index.key_starts.tolist() == [0, 4, 5]
        # letters, lcp, next key's lcp, gain and rows (4, the toy pad code, caps them)
        assert index.records.tolist() == [[0, 0, 0, 0, 0, 3, 4], [0, 0, 1, 0, 0, 0, 1]]
        assert index.bins.tolist() == [0, 1, 2]
        assert [index.bin_slice(u) for u in (0, 1)] == [(0, 4), (4, 5)]

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
        records = index.records.copy()
        records[row, 2] = toy_alpha.ordinal("a")
        with pytest.raises(AssertionError, match="padded"):
            dataclasses.replace(index, records=records).audit()

    def test_audit_rejects_letters_of_other_sequences(self, toy_index, toy_scheme):
        # a letter swapped within its cluster keeps every rank and pad code
        alpha = toy_index.alphabet
        records = toy_index.records.copy()
        old = alpha.letters[records[0, 0]]
        new = next(c for c in toy_scheme.cluster_of(0, old) if c != old)
        records[0, 0] = alpha.ordinal(new)
        with pytest.raises(AssertionError, match="sequence set"):
            dataclasses.replace(toy_index, records=records).audit()

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

    @pytest.mark.parametrize("suffix_mode", [False, True])
    def test_built_and_loaded_datasets_in_frag_order(self, toy_alpha, toy_scheme, suffix_mode,
                                                    tmp_path):
        db = fx.SequenceDB(records=(("x", "dcbadcba"), ("y", "abcdabca")))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha, suffix_mode=suffix_mode)
        built = fx.build(ds, toy_scheme)
        built.save(tmp_path / "i.fsi")
        loaded = fx.load(tmp_path / "i.fsi", db)
        assert not np.array_equal(built.sids, ds.sids)  # the sort moved fragments
        for index in (built, loaded):
            assert np.array_equal(index.dataset.sids, built.sids)
            assert np.array_equal(index.dataset.offs, built.offs)
        flat = fx.flat_build(ds)
        assert np.array_equal(flat.dataset.sids, flat.sids)
        assert np.array_equal(flat.dataset.offs, flat.offs)

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

    def test_format_2_rejected_with_a_rebuild_hint(self, toy_index, tmp_path):
        p = tmp_path / "v2.fsi"
        toy_index.save(p)
        blob = bytearray(p.read_bytes())
        blob[4:8] = (2).to_bytes(4, "little")
        p.write_bytes(bytes(blob))
        with pytest.raises(fx.IndexFormatError, match=r"version 2 .*rebuild"):
            fx.load(p, toy_index.dataset.db)
        with pytest.raises(fx.IndexFormatError, match=r"version 2 .*rebuild"):
            fx.core.read_index_header(p)

    def test_format_3_rejected_with_a_rebuild_hint(self, toy_index, tmp_path):
        # format 3 stored sequence ordinals, offsets and letters: no reader is kept
        p = tmp_path / "v3.fsi"
        toy_index.save(p)
        blob = bytearray(p.read_bytes())
        blob[4:8] = (3).to_bytes(4, "little")
        p.write_bytes(bytes(blob))
        with pytest.raises(fx.IndexFormatError, match=r"version 3 .*version 5: rebuild"):
            fx.load(p, toy_index.dataset.db)
        with pytest.raises(fx.IndexFormatError, match=r"version 3 .*version 5: rebuild"):
            fx.core.read_index_header(p)

    def test_format_4_rejected_with_a_rebuild_hint(self, toy_index, tmp_path):
        # format 4 stored an lcp byte per fragment before the records: no reader is kept
        p = tmp_path / "v4.fsi"
        toy_index.save(p)
        blob = bytearray(p.read_bytes())
        blob[4:8] = (4).to_bytes(4, "little")
        p.write_bytes(bytes(blob))
        with pytest.raises(fx.IndexFormatError, match=r"version 4 .*version 5: rebuild"):
            fx.load(p, toy_index.dataset.db)
        with pytest.raises(fx.IndexFormatError, match=r"version 4 .*version 5: rebuild"):
            fx.core.read_index_header(p)

    @pytest.mark.parametrize("at, value, match", [
        (61, b"\x05", "positions of 5 bytes: 4 or 8 expected"),  # the position width
        (28, (9).to_bytes(8, "little"), "bin count disagrees with partition spec"),  # N = 8
    ])
    def test_header_fields_checked(self, toy_index, tmp_path, at, value, match):
        p = tmp_path / "f.fsi"
        toy_index.save(p)
        blob = bytearray(p.read_bytes())
        blob[at:at + len(value)] = value
        p.write_bytes(bytes(blob))
        with pytest.raises(fx.IndexFormatError, match=match):
            fx.load(p, toy_index.dataset.db)

    @staticmethod
    def repeated(toy_alpha, toy_scheme, path):
        """A saved index of 6 fragments and 2 keys ("aba", "bab"), the file's
        bytes and where its key count and bins lie in them."""
        db = fx.SequenceDB(records=(("r", "abababab"),))
        index = fx.build(fx.extract_fragments(db, 3, alphabet=toy_alpha), toy_scheme)
        assert (index.n, index.n_keys) == (6, 2)
        index.save(path)
        head = (fx.core._HEADER.size + len(toy_alpha.letters.encode())
                + len(toy_scheme.spec_string.encode()))
        bins = head + -head % 8 + index.occupancy.nbytes
        return index, bytearray(path.read_bytes()), bins

    @pytest.mark.parametrize("keys, extra, match", [
        (3, 7, "key count 3 differs from the 2"),  # a third key record appended
        (1, 0, "records block of 14 bytes is not 1 keys"),
        (2, 3, "records block of 17 bytes is not 2 keys"),
    ])
    def test_key_count_checked(self, toy_alpha, toy_scheme, tmp_path, keys, extra, match):
        p = tmp_path / "k.fsi"
        index, blob, _ = self.repeated(toy_alpha, toy_scheme, p)
        blob[20:28] = keys.to_bytes(8, "little")  # after magic, version, m and n
        p.write_bytes(bytes(blob) + bytes(extra))
        with pytest.raises(fx.IndexFormatError, match=match):
            fx.load(p, index.dataset.db)

    @pytest.mark.parametrize("row, value", [(2, 6), (2, 3), (0, 1)])
    def test_bins_must_rise_to_the_key_count(self, toy_alpha, toy_scheme, tmp_path, row, value):
        # bins [0, 1, 2]: the fragment count 6 or a count past the keys in
        # the last entry, or a first entry above 0
        p = tmp_path / "b.fsi"
        index, blob, at = self.repeated(toy_alpha, toy_scheme, p)
        assert index.bins.tolist() == [0, 1, 2]
        blob[at + 4 * row: at + 4 * row + 4] = value.to_bytes(4, "little")
        p.write_bytes(bytes(blob))
        with pytest.raises(fx.IndexFormatError, match="not increasing from 0 to the key count"):
            fx.load(p, index.dataset.db)

    @staticmethod
    def capped(toy_alpha, toy_scheme, path):
        """A saved index of one key, "aaa", of 8 rows: its count byte sits at
        the toy cap 4, and its true count is the file's last 4 bytes."""
        db = fx.SequenceDB(records=(("r", "a" * 10),))
        index = fx.build(fx.extract_fragments(db, 3, alphabet=toy_alpha), toy_scheme)
        assert index.records[:, -1].tolist() == [4] and index.key_starts.tolist() == [0, 8]
        index.save(path)
        blob = bytearray(path.read_bytes())
        assert blob[-4:] == (8).to_bytes(4, "little")
        return index, blob

    @pytest.mark.parametrize("tail, match", [
        (b"", "records block of 7 bytes is not 1 keys x 7 bytes and 1 capped row counts"),
        ((8).to_bytes(4, "little") * 2, "records block of 15 bytes"),
        ((3).to_bytes(4, "little"), "capped row count below the cap 4"),
        ((9).to_bytes(4, "little"), "row counts sum to 9, not 8"),
    ])
    def test_capped_row_counts_checked(self, toy_alpha, toy_scheme, tmp_path, tail, match):
        # the capped-count block cut off or doubled, a count below the cap, a wrong sum
        p = tmp_path / "c.fsi"
        index, blob = self.capped(toy_alpha, toy_scheme, p)
        p.write_bytes(bytes(blob[:-4]) + tail)
        with pytest.raises(fx.IndexFormatError, match=match):
            fx.load(p, index.dataset.db)
        p.write_bytes(bytes(blob))
        fx.load(p, index.dataset.db).audit()

    @pytest.mark.parametrize("row, value, match", [
        (0, 2, "row counts sum to 5, not 6"),  # the keys "aba" and "bab" hold 3 rows each
        (1, 4, "records block of 14 bytes is not 2 keys x 7 bytes and 1 capped row counts"),
        (1, 0, "key count 2 differs from the 1 records with rows"),
    ])
    def test_row_count_bytes_checked(self, toy_alpha, toy_scheme, tmp_path, row, value, match):
        p = tmp_path / "r.fsi"
        index, blob, _ = self.repeated(toy_alpha, toy_scheme, p)
        m = index.m
        blob[len(blob) - index.records.nbytes + row * (m + 4) + m + 3] = value
        p.write_bytes(bytes(blob))
        with pytest.raises(fx.IndexFormatError, match=match):
            fx.load(p, index.dataset.db)

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
        ("occupancy", 2, 511, "occupancy bits disagree"),  # 8 bins' bits, and the spare one
        ("bins", 8, 65, "bin offsets"),  # n = 64
        ("bins", 3, 16, "bin offsets"),  # bins[2] == 16: an empty bin
        ("pos", 9, 192, "position past the 192 residues"),  # 64 sequences of 3
    ])
    def test_array_values_checked(self, toy_index, tmp_path, name, row, value, match):
        p = tmp_path / "x.fsi"
        toy_index.save(p)
        blob = bytearray(p.read_bytes())
        head = (fx.core._HEADER.size + len(toy_index.alphabet.letters.encode())
                + len(toy_index.scheme.spec_string.encode()))
        pos = head + -head % 8
        for arr, _ in fx.core._ARRAYS:
            if arr == name or (arr, name) == ("records", "letters"):
                break
            pos += getattr(toy_index, arr).nbytes
        if name == "letters":  # the letters' flat row, in its key's record
            m = toy_index.m
            pos, row = pos + row // m * (m + 4) + row % m, 0
        dtype = getattr(toy_index, arr).dtype.newbyteorder("<")
        size = dtype.itemsize
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
        assert info["keys"] == 64
        assert info["bins"] == 8
        assert info["empty_bins"] == 0
        assert info["largest_bin"] == 8
        assert info["file_bytes"] == size
        assert not info["suffix_mode"]


class TestMappedLoad:
    """``load`` maps the file: a loaded index outlives a save over its path,
    and files too short to map fail as malformed indexes."""

    def test_loaded_index_outlives_a_save_over_its_file(self, toy_index, toy_alpha,
                                                        toy_scheme, toy_d, tmp_path):
        path = tmp_path / "i.fsi"
        toy_index.save(path)
        first = fx.load(path, toy_index.dataset.db)
        q = fx.normalize(fx.distance_query(toy_d, "abc"))

        def answers(index):
            return [fx.range_search(index, q, 9)[0].triples(),
                    fx.knn_search(index, q, 5)[0].triples()]

        before = answers(first)
        other_db = random_db(np.random.default_rng(4), toy_alpha, n_seqs=6, min_len=3, max_len=20)
        other = fx.build(fx.extract_fragments(other_db, 3, alphabet=toy_alpha), toy_scheme)
        other.save(path)
        first.audit()
        assert answers(first) == before
        second = fx.load(path, other_db)
        second.audit()
        assert np.array_equal(second.letters, other.letters)
        assert np.array_equal(second.sids, other.sids) and np.array_equal(second.offs, other.offs)

    @pytest.mark.parametrize("keep, match", [
        ("nothing", "bad magic"), ("header", "truncated"),
        # a header cut after the magic, after the version, and inside the alphabet text
        ("magic", "truncated index file"), ("version", "truncated index file"),
        ("some alphabet", "truncated index file"),
    ])
    def test_empty_and_header_only_files_rejected(self, toy_index, tmp_path, keep, match):
        p = tmp_path / "e.fsi"
        toy_index.save(p)
        end = (fx.core._HEADER.size + len(toy_index.alphabet.letters.encode())
               + len(toy_index.scheme.spec_string.encode()))
        cut = {"nothing": 0, "magic": 4, "version": 8, "some alphabet": fx.core._HEADER.size + 2,
               "header": end}[keep]
        p.write_bytes(p.read_bytes()[:cut])
        with pytest.raises(fx.IndexFormatError, match=match):
            fx.load(p, toy_index.dataset.db)

    @pytest.mark.parametrize("value, match", [
        (191, None),                                # the last of 192 residues
        (192, "position past the 192 residues"),
    ])
    def test_positions_checked_in_every_piece(self, toy_index, tmp_path, value, match):
        # a position in every fifth row in turn, and in the last row
        p = tmp_path / "r.fsi"
        toy_index.save(p)
        clean = p.read_bytes()
        at = len(clean) - toy_index.records.nbytes - 4 * toy_index.n  # no count reaches the cap
        for row in [*range(0, toy_index.n, 5), toy_index.n - 1]:
            blob = bytearray(clean)
            blob[at + 4 * row: at + 4 * row + 4] = np.array([value], "<u4").tobytes()
            p = tmp_path / f"r{row}.fsi"
            p.write_bytes(bytes(blob))
            if match is None:
                loaded = fx.load(p, toy_index.dataset.db)
                assert int(loaded.pos[row]) == value
                # no length-3 window starts at the last letter
                with pytest.raises(AssertionError, match="starts no fragment"):
                    loaded.audit()
            else:
                with pytest.raises(fx.IndexFormatError, match=match):
                    fx.load(p, toy_index.dataset.db)

    @pytest.mark.parametrize("sid, off, match", [
        pytest.param(63, 0, None, id="sids-63-None"),  # the last of 64 sequences
        pytest.param(64, 0, "position past the 192 residues", id="sids-64-outside the sequence set"),
        pytest.param(None, 2, None, id="offs-2-None"),  # the last letter of a 3-letter sequence
        pytest.param(63, 3, "position past the 192 residues", id="offs-3-outside its sequence"),
    ])
    def test_references_checked_in_every_piece(self, toy_index, tmp_path, sid, off, match):
        # a (sequence, offset) reference is stored as its position, 3 * sid + off
        # here, written into row 47
        sid = int(toy_index.sids[47]) if sid is None else sid
        p = tmp_path / "r.fsi"
        toy_index.save(p)
        blob = bytearray(p.read_bytes())
        at = len(blob) - toy_index.records.nbytes - 4 * toy_index.n  # no count reaches the cap
        blob[at + 4 * 47: at + 4 * 48] = np.array([3 * sid + off], "<u4").tobytes()
        p.write_bytes(bytes(blob))
        if match is None:
            loaded = fx.load(p, toy_index.dataset.db)
            assert (int(loaded.sids[47]), int(loaded.offs[47])) == (sid, off)
        else:
            with pytest.raises(fx.IndexFormatError, match=match):
                fx.load(p, toy_index.dataset.db)

    @staticmethod
    def with_every_field(toy_alpha, path, column, value):
        """A suffix-mode m = 4 index saved with one field byte set to
        ``value`` in every record; its sequence set and dataset."""
        db = random_db(np.random.default_rng(4), toy_alpha, n_seqs=40, min_len=1, max_len=30)
        ds = fx.extract_fragments(db, 4, alphabet=toy_alpha, suffix_mode=True)
        index = fx.build(ds, fx.parse_partition("ac,bd", toy_alpha, 4))
        index.save(path)
        blob = bytearray(path.read_bytes())
        at = len(blob) - index.records.nbytes + 4 + ["lcp", "next lcp", "gain", "rows"].index(column)
        at -= 4 * int(np.count_nonzero(index.records[:, -1] == len(toy_alpha)))  # capped counts
        blob[at:at + index.records.nbytes:8] = bytes([value]) * index.n_keys
        path.write_bytes(bytes(blob))
        return db, ds

    @pytest.mark.parametrize("value", [9, 20])
    @pytest.mark.parametrize("column", ["lcp", "next lcp", "gain"])
    def test_corrupt_key_fields_keep_answers_exact(self, toy_alpha, toy_d, tmp_path,
                                                   column, value):
        # load checks the letters and row counts of the records: a field byte
        # past m = 4 in every record loads, the searches stay equal to the
        # reference scans, and audit() reports it
        p = tmp_path / "f.fsi"
        db, ds = self.with_every_field(toy_alpha, p, column, value)
        loaded = fx.load(p, db)
        for text in ("abcd", "dbca", "aaaa", "bd", "c"):
            f = fx.distance_query(toy_d, text)
            q = fx.normalize(f)
            for radius in (0, 6, 12):
                hits, _ = fx.range_search(loaded, q, radius)
                assert hits.as_multiset() == fx.linear_scan_range(ds, f, radius).as_multiset()
            if len(text) == 4:  # k-NN takes the index's length
                hits, _ = fx.knn_search(loaded, q, 10)
                assert hits.triples() == fx.linear_scan_knn(ds, f, 10).triples()
        with pytest.raises(AssertionError, match="key fields not derived from the lcp"):
            loaded.audit()

    @pytest.mark.parametrize("value", [9, 20])
    def test_corrupt_row_counts_rejected(self, toy_alpha, tmp_path, value):
        # the key starts are the running sum of the row counts: load rejects them
        p = tmp_path / "f.fsi"
        db, _ = self.with_every_field(toy_alpha, p, "rows", value)
        with pytest.raises(fx.IndexFormatError, match="capped row counts"):
            fx.load(p, db)


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
