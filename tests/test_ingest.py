import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fsindex as fx
from conftest import random_db


class TestParseFasta:
    def test_single_record(self):
        db = fx.parse_fasta(">s1\nMKV\n")
        assert db.records == (("s1", "MKV"),)

    def test_wrapped_and_lowercase_body(self):
        db = fx.parse_fasta(">s1 description here\nmkv\nlat\n\n>s2\nARN D\n")
        assert db.records[0] == ("s1", "MKVLAT")
        assert db.records[1] == ("s2", "ARND")

    def test_only_ascii_letters_uppercased(self):
        # str.upper() turns "ß" into "SS", "ı" into "I" and "ﬁ" into "FI":
        # residues the file does not hold, which shift every later offset
        db = fx.parse_fasta(">s\nmkßıv\nﬁΩa\n")
        assert db.records == (("s", "MKßıVﬁΩA"),)
        ds = fx.extract_fragments(db, 1)
        assert ds.offs.tolist() == [0, 1, 4, 7]  # M, K, V and A where the file has them

    def test_duplicate_identifier_rejected(self):
        with pytest.raises(fx.FastaFormatError, match="duplicate"):
            fx.parse_fasta(">a\nMM\n>a\nKK\n")

    def test_error_cases(self):
        with pytest.raises(fx.FastaFormatError):
            fx.parse_fasta("")
        with pytest.raises(fx.FastaFormatError):
            fx.parse_fasta("MKV\n>s1\nMKV\n")  # data before header
        with pytest.raises(fx.FastaFormatError):
            fx.parse_fasta(">s1\n\n>s2\nMK\n")  # empty record


class TestExtractFragments:
    def test_bad_letter_invalidates_covering_windows(self):
        # X at position 3: windows starting at 1, 2, 3 are lost
        db = fx.parse_fasta(">s\nMKVXKVML\n")
        ds = fx.extract_fragments(db, 3)
        texts = {ds.fragment_text(int(s), int(o), 3) for s, o in zip(ds.sids, ds.offs)}
        assert texts == {"MKV", "KVM", "VML"}
        assert ds.n == 3 and ds.rejected == 3

    def test_sequence_of_exact_length(self):
        db = fx.parse_fasta(">s\nMKELV\n")
        ds = fx.extract_fragments(db, 5)
        assert ds.n == 1 and ds.offs.tolist() == [0]

    def test_count_known_after_extraction(self):
        db = fx.parse_fasta(">a\nMKVLATMKVLAT\n>b\nARNXDQE\n")
        ds = fx.extract_fragments(db, 4)
        manifest = fx.dataset_manifest(ds)
        assert manifest["fragments"] == ds.n
        assert manifest["rejected"] == 4  # the four windows covering the X
        assert manifest["records"] == 2

    def test_window_count_matches_brute_force(self, toy_alpha):
        rng = np.random.default_rng(3)
        from conftest import random_db
        for suffix_mode in (False, True):
            db = random_db(rng, toy_alpha, n_seqs=25, min_len=1, max_len=30, bad_rate=0.1)
            m = 4
            ds = fx.extract_fragments(
                db, m, alphabet=toy_alpha, suffix_mode=suffix_mode, floor=1
            )
            expected = set()
            for sid, (_, res) in enumerate(db.records):
                last = len(res) - (1 if suffix_mode else m)
                for off in range(0, last + 1):
                    window = res[off:off + m]
                    if all(c in toy_alpha for c in window):
                        expected.add((sid, off))
            got = {(int(s), int(o)) for s, o in zip(ds.sids, ds.offs)}
            assert got == expected

    def test_refs_stay_inside_sequences(self, toy_alpha):
        from conftest import random_db
        rng = np.random.default_rng(4)
        db = random_db(rng, toy_alpha, n_seqs=10, min_len=1, max_len=20)
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha, suffix_mode=True)
        lens = ds.seq_lengths
        assert (ds.offs < lens[ds.sids]).all()

    def test_deterministic_rerun(self):
        text = ">a\nMKVLATSERW\n>b\nWRESTALVKM\n"
        a = fx.extract_fragments(fx.parse_fasta(text), 3)
        b = fx.extract_fragments(fx.parse_fasta(text), 3)
        assert a.sids.tolist() == b.sids.tolist()
        assert a.offs.tolist() == b.offs.tolist()

    def test_ordering_is_record_then_offset(self):
        db = fx.parse_fasta(">a\nMKVL\n>b\nARND\n")
        ds = fx.extract_fragments(db, 2)
        pairs = list(zip(ds.sids.tolist(), ds.offs.tolist()))
        assert pairs == sorted(pairs)

    def test_floor_bounds_suffix_lengths(self):
        db = fx.parse_fasta(">a\nMKVLA\n")
        ds = fx.extract_fragments(db, 3, suffix_mode=True, floor=2)
        lens = (ds.seq_lengths[ds.sids] - ds.offs).tolist()
        assert min(lens) == 2  # no length-1 tail kept

    def test_invalid_args(self):
        db = fx.parse_fasta(">a\nMKVLA\n")
        with pytest.raises(ValueError):
            fx.extract_fragments(db, 0)
        with pytest.raises(ValueError):
            fx.extract_fragments(db, 3, suffix_mode=True, floor=9)

    def test_residue_outside_latin1_is_invalid(self):
        # one more letter outside the alphabet: windows covering it are lost
        db = fx.parse_fasta(">s\nMKV\u03a9KVML\n")
        ds = fx.extract_fragments(db, 3)
        texts = {ds.fragment_text(int(s), int(o), 3) for s, o in zip(ds.sids, ds.offs)}
        assert texts == {"MKV", "KVM", "VML"}
        assert ds.rejected == 3

    def test_alphabet_letter_outside_latin1_rejected(self):
        db = fx.parse_fasta(">s\nACAC\n")
        with pytest.raises(ValueError, match="latin-1"):
            fx.extract_fragments(db, 2, alphabet=fx.Alphabet("AC\u03a9"))

    def test_alphabet_size_limit(self):
        db = fx.SequenceDB(records=(("s", "\x00\x01\xfe\xff"),))
        ds = fx.extract_fragments(db, 2, alphabet=fx.Alphabet("".join(map(chr, range(255)))))
        assert ds.offs.tolist() == [0, 1]  # 255 letters fit; "\xff" is invalid
        with pytest.raises(ValueError, match="255"):
            fx.extract_fragments(db, 2, alphabet=fx.Alphabet("".join(map(chr, range(256)))))


    def test_positions_past_the_limit_are_uint64(self, monkeypatch, tmp_path):
        # the limit lowered to 8 codes: 13 codes take uint64 positions, which
        # the index file keeps, with the same fragments and answers
        db = fx.SequenceDB(records=(("s0", "MKVLA"), ("s1", "MKVXLATT")))
        scheme = fx.parse_partition("TSAN,ILVM,KR,DEQ,WFYH,GPC", fx.STANDARD_ALPHABET, 3)
        narrow = fx.build(fx.extract_fragments(db, 3), scheme)
        monkeypatch.setattr(fx.ingest, "POS_LIMIT", 8)
        ds = fx.extract_fragments(db, 3)
        assert ds.pos.dtype == np.uint64 and ds.pos.tolist() == [0, 1, 2, 5, 9, 10]
        assert ds.sids.tolist() == [0, 0, 0, 1, 1, 1] and ds.offs.tolist() == [0, 1, 2, 0, 4, 5]
        wide = fx.build(ds, scheme)
        wide.save(tmp_path / "w.fsi")
        assert fx.core.read_index_header(tmp_path / "w.fsi")["position_bytes"] == 8
        loaded = fx.load(tmp_path / "w.fsi", db)
        loaded.audit()
        assert loaded.pos.dtype == np.uint64 and narrow.pos.dtype == np.uint32
        assert loaded.pos.tolist() == narrow.pos.tolist()
        d = fx.distance_from_score(fx.load_builtin_matrix("BLOSUM62"))
        q = fx.normalize(fx.distance_query(d, "MKV"))
        for index in (wide, loaded):
            for search in (lambda i: fx.range_search(i, q, 40), lambda i: fx.knn_search(i, q, 4)):
                assert search(index)[0].triples() == search(narrow)[0].triples()


# alphabet letters, their lowercase, X, a latin-1 letter past ASCII, and
# code points past latin-1: one in the BMP, one astral
AA = fx.STANDARD_ALPHABET.letters
RESIDUES = AA + AA.lower() + "X\u00e9\u03a9\U0001f9ec"
ALPHABETS = [
    fx.STANDARD_ALPHABET,
    fx.Alphabet(AA + "\u00e9"),
    # every latin-1 character but Q: the one byte no letter takes
    fx.Alphabet("".join(chr(b) for b in range(256) if chr(b) != "Q")),
]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seqs=st.lists(st.text(st.sampled_from(RESIDUES), min_size=1, max_size=30),
                     min_size=1, max_size=5),
       alphabet=st.sampled_from(ALPHABETS))
@example(seqs=["MK\u03a9V", "\U0001f9ec\u00e9Q"], alphabet=ALPHABETS[2])
def test_encode_db_and_digest_match_per_letter_reference(seqs, alphabet):
    db = fx.SequenceDB(records=tuple((f"s{i}", s) for i, s in enumerate(seqs)))
    codes, starts = fx.ingest.encode_db(db, alphabet)
    invalid = len(alphabet)
    assert codes.dtype == np.uint8
    assert codes.tolist() == [
        alphabet.ordinal(c) if c in alphabet else invalid for c in "".join(seqs)
    ]
    assert starts.tolist() == np.cumsum([0, *map(len, seqs)]).tolist()
    whole = starts.astype("<i8").tobytes() + codes.tobytes()
    expect = hashlib.blake2b(whole, digest_size=32).digest()
    assert fx.core._sequence_digest(codes, starts) == expect


@st.composite
def extraction_cases(draw):
    """Sequences over "abcd" with invalid letters ("x", "!"), some shorter
    than the fragment length, with a length of 1 to 5, a floor of 1 to it
    and either mode."""
    m = draw(st.integers(1, 5))
    seqs = draw(st.lists(st.text(st.sampled_from("abcdx!"), min_size=1, max_size=12),
                         min_size=1, max_size=6))
    return seqs, m, draw(st.integers(1, m)), draw(st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=extraction_cases())
@example(case=(["ab", "abcxd", "x", "dcba"], 3, 2, True))
def test_extract_fragments_matches_per_window_loop(case):
    # a start is admissible at least m (floor) letters before its sequence's
    # end, and kept when its first m letters (up to the end) are all valid
    seqs, m, floor, suffix_mode = case
    alphabet = fx.Alphabet("abcd")
    db = fx.SequenceDB(records=tuple((f"s{i}", s) for i, s in enumerate(seqs)))
    ds = fx.extract_fragments(db, m, alphabet=alphabet, suffix_mode=suffix_mode, floor=floor)
    pos, admissible, base = [], 0, 0
    for text in seqs:
        for off in range(len(text) - (floor if suffix_mode else m) + 1):
            admissible += 1
            if all(c in alphabet for c in text[off:off + m]):
                pos.append(base + off)
        base += len(text)
    assert ds.pos.tolist() == pos
    assert ds.rejected == admissible - len(pos)


class TestLetterMatrix:
    @staticmethod
    def reference(ds):
        """Row by row from the fragment texts, pad code past short tails."""
        out = np.full((ds.n, ds.m), len(ds.alphabet), dtype=np.uint8)
        for row, (sid, off) in enumerate(zip(ds.sids, ds.offs)):
            text = ds.fragment_text(int(sid), int(off), ds.m)
            out[row, :len(text)] = ds.alphabet.encode(text)
        return out

    @pytest.mark.parametrize("suffix_mode", [False, True])
    def test_matches_per_row_reference(self, toy_alpha, suffix_mode):
        rng = np.random.default_rng(31)
        m = 6
        db = random_db(rng, toy_alpha, n_seqs=30, min_len=1, max_len=20, bad_rate=0.05)
        # the last sequence's windows run up to the end of the code array
        db = fx.SequenceDB(records=db.records + (("last", "dcbadcba"),))
        ds = fx.extract_fragments(db, m, alphabet=toy_alpha, suffix_mode=suffix_mode)
        ends = ds.offs + m >= ds.seq_lengths[ds.sids]
        assert (ends & (ds.sids == len(db) - 1)).any()
        if suffix_mode:  # tails shorter than m, in short and long sequences
            assert (ds.key_lengths() < m).any()
            assert (ds.seq_lengths < m).any()
        got = ds.letter_matrix()
        assert got.dtype == np.uint8 and got.shape == (ds.n, m)
        assert np.array_equal(got, self.reference(ds))

    @pytest.mark.parametrize("suffix_mode", [False, True])
    def test_no_fragments(self, toy_alpha, suffix_mode):
        db = fx.SequenceDB(records=(("s", "ab"),))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha, suffix_mode=suffix_mode,
                                  floor=3)
        assert ds.n == 0
        assert ds.letter_matrix().shape == (0, 3)


class TestSampleQueries:
    def test_deterministic_under_seed(self):
        a = fx.sample_queries(7, 20, seed=42)
        b = fx.sample_queries(7, 20, seed=42)
        assert a == b
        c = fx.sample_queries(7, 20, seed=43)
        assert a != c

    def test_point_mass_frequency(self):
        freq = [0.0] * 20
        freq[5] = 1.0  # letter 'Q' in the standard ordering
        out = fx.sample_queries(4, 5, seed=1, frequencies=freq)
        assert out == ["QQQQ"] * 5

    def test_frequencies_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            fx.sample_queries(3, 2, seed=0, frequencies=[0.5] * 20)

    def test_only_standard_letters(self):
        for frag in fx.sample_queries(9, 50, seed=9):
            assert all(c in fx.STANDARD_ALPHABET for c in frag)

    def test_held_out_window_mode(self):
        db = fx.parse_fasta(">a\nMKVLATSE\n>b\nARNDCQEG\n")
        picks = fx.sample_queries(4, 4, seed=5, db=db)
        assert len(picks) == 4
        pool = {"MKVL", "ATSE", "ARND", "CQEG"}
        assert set(picks) == pool  # exactly the non-overlapping windows

    def test_held_out_capacity_error(self):
        db = fx.parse_fasta(">a\nMKVLATSE\n>b\nARNDCQEG\n")
        with pytest.raises(ValueError, match="only 4 available"):
            fx.sample_queries(4, 5, seed=5, db=db)


class TestCodePositionArrays:
    """``clean_runs`` and ``unstarted`` against per-position loops."""

    @staticmethod
    def reference(ds):
        valid = fx.ingest.encode_db(ds.db, ds.alphabet)[0] < len(ds.alphabet)
        started = set(zip(ds.sids.tolist(), ds.offs.tolist()))
        runs, unstarted = [], []
        for sid, (_, text) in enumerate(ds.db.records):
            base = int(ds.starts[sid])
            for off in range(len(text)):
                run = 0
                while off + run < len(text) and valid[base + off + run]:
                    run += 1
                runs.append(run)
                if valid[base + off] and (sid, off) not in started:
                    unstarted.append(base + off)
        return runs, unstarted

    @pytest.mark.parametrize("suffix_mode", [False, True])
    def test_match_per_position_loops(self, toy_alpha, suffix_mode):
        rng = np.random.default_rng(47)
        # invalid letters at sequence starts and ends, a one-letter and an
        # all-invalid sequence, and an invalid last letter of the code array
        edges = (("one", "a"), ("bad", "xx"), ("ends", "xabx"), ("start", "xdcba"),
                 ("end", "abcdx"), ("last", "cx"))
        for trial in range(20):
            records = random_db(rng, toy_alpha, 12, 1, 15, bad_rate=0.15).records + edges
            if trial % 2:  # the edge cases elsewhere than at the end of the code array
                records = tuple(records[i] for i in rng.permutation(len(records)))
            db = fx.SequenceDB(records=records)
            m = int(rng.integers(1, 5))
            floor = int(rng.integers(1, m + 1)) if suffix_mode else 1
            ds = fx.extract_fragments(db, m, alphabet=toy_alpha, suffix_mode=suffix_mode,
                                      floor=floor)
            runs, unstarted = self.reference(ds)
            assert ds.clean_runs.dtype == np.int32
            assert ds.clean_runs.tolist() == runs
            assert ds.unstarted.tolist() == unstarted
