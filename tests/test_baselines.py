import itertools

import numpy as np
import pytest

import fsindex as fx
from conftest import hits_as_set, random_db, random_partition, random_query


class TestLinearScans:
    def test_infinite_radius_returns_all(self, toy_cube, toy_d):
        f = fx.distance_query(toy_d, "abd")
        hits = fx.linear_scan_range(toy_cube, f, fx.INF_RADIUS)
        assert len(hits) == 64

    def test_worked_example_membership(self, toy_cube, toy_d):
        f = fx.distance_query(toy_d, "abd")
        hits = hits_as_set(fx.linear_scan_range(toy_cube, f, 7))
        by_ref = {(s, o): v for s, o, v in hits}
        texts = {i: w for i, (_, w) in enumerate(toy_cube.db.records)}
        members = {texts[s] for s, o in by_ref}
        assert "cbb" in members and "cad" not in members

    def test_knn_trivial_cases(self, toy_cube, toy_d):
        f = fx.distance_query(toy_d, "abd")
        assert fx.linear_scan_knn(toy_cube, f, 1).values() == [0]
        assert len(fx.linear_scan_knn(toy_cube, f, 64)) == 64
        top5 = fx.linear_scan_knn(toy_cube, f, 5).values()
        all_sorted = sorted(fx.linear_scan_knn(toy_cube, f, 64).values())
        assert top5 == all_sorted[:5]


class TestFlatIndex:
    def test_structure(self, toy_cube):
        flat = fx.flat_build(toy_cube)
        assert flat.lcp[0] == 0 and flat.lcp[flat.n] == 0
        for i in range(1, flat.n):
            a = flat.letters[i - 1].tolist()
            b = flat.letters[i].tolist()
            assert a <= b  # lexicographic, pad-free fixed-length rows
            shared = 0
            while shared < 3 and a[shared] == b[shared]:
                shared += 1
            assert flat.lcp[i] == shared

    def test_equals_linear_scan(self, toy_alpha):
        rng = np.random.default_rng(31)
        s = fx.parse_score_matrix(
            "   a  b  c  d\na  5 -3  2 -2\nb -3  5 -4  3\nc  2 -4  6 -4\nd -2  3 -4  6\n"
        )
        d = fx.distance_from_score(s)
        for trial in range(12):
            m = int(rng.integers(2, 5))
            db = random_db(rng, toy_alpha, n_seqs=12, min_len=1, max_len=25)
            ds = fx.extract_fragments(
                db, m, alphabet=toy_alpha, suffix_mode=bool(trial % 2)
            )
            flat = fx.flat_build(ds)
            f = random_query(rng, toy_alpha, m, "distance" if trial % 2 else "pssm", d=d)
            q = fx.normalize(f)
            eps = int(rng.integers(0, 30))
            hits, stats = fx.flat_search(flat, q, eps - q.shift)
            oracle = fx.linear_scan_range(ds, f, eps)
            assert hits_as_set(hits, q.shift) == hits_as_set(oracle)
            assert stats.fragments_scanned == ds.n
            assert stats.residues_scanned <= m * ds.n

    def test_repeated_fragment_costs_two_evaluations(self, toy_alpha, toy_d):
        db = fx.SequenceDB(records=(("r", "a" * 12),))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha)
        flat = fx.flat_build(ds)
        q = fx.normalize(fx.distance_query(toy_d, "aaa"))
        hits, stats = fx.flat_search(flat, q, 50)
        assert len(hits) == 10
        # one amortized evaluation plus the forced final-row re-evaluation
        assert stats.residues_scanned == 2 * 3

    def test_lcp_width_limit(self):
        # the lcp is uint8: a shared prefix of 255 letters fits, 256 would wrap
        db = fx.SequenceDB(records=(("r", "A" * 300),))
        flat = fx.flat_build(fx.extract_fragments(db, 255))
        assert flat.lcp[1:flat.n].tolist() == [255] * (flat.n - 1)
        ds = fx.extract_fragments(db, 256)
        with pytest.raises(ValueError, match="255"):
            fx.flat_build(ds)


class TestFibreDecomposition:
    def test_partition_covers_dataset(self, toy_cube, toy_s):
        part = fx.fibre_partition(toy_cube, toy_s)
        assert part.covers_exactly_once()
        sizes = {z: rows.size for z, rows in part.fibres.items()}
        assert sum(sizes.values()) == 64

    def test_fibres_are_metric_subspaces(self, toy_cube, toy_s, toy_d):
        # within a fibre the quasi-metric is symmetric
        part = fx.fibre_partition(toy_cube, toy_s)
        texts = {i: w for i, (_, w) in enumerate(toy_cube.db.records)}
        for z, rows in part.fibres.items():
            frags = [texts[int(toy_cube.sids[r])] for r in rows]
            for x, y in itertools.product(frags[:6], repeat=2):
                dxy = fx.distance_query(toy_d, x).evaluate(y)
                dyx = fx.distance_query(toy_d, y).evaluate(x)
                assert dxy == dyx

    def test_single_fibre_for_constant_weight(self, toy_alpha, toy_s):
        db = fx.SequenceDB(records=(("r", "abab"), ("s", "baba")))
        ds = fx.extract_fragments(db, 2, alphabet=toy_alpha)
        part = fx.fibre_partition(ds, toy_s)
        assert len(part.fibres) == 1  # every window weighs S(a,a)+S(b,b)

    def test_worked_example_equality(self, toy_cube, toy_s, toy_d):
        f = fx.distance_query(toy_d, "abd")
        got = fx.fibre_range_query(toy_cube, toy_s, "abd", 7)
        want = fx.linear_scan_range(toy_cube, f, 7)
        assert got.as_multiset() == want.as_multiset()

    def test_exhaustive_radii_on_cube(self, toy_cube, toy_s, toy_d):
        for omega in ["abd", "ccc", "dab"]:
            f = fx.distance_query(toy_d, omega)
            for eps in range(0, 30, 3):
                got = fx.fibre_range_query(toy_cube, toy_s, omega, eps)
                want = fx.linear_scan_range(toy_cube, f, eps)
                assert got.as_multiset() == want.as_multiset()

    def test_random_20_letter_samples(self):
        rng = np.random.default_rng(8)
        s = fx.load_builtin_matrix("BLOSUM62")
        d = fx.distance_from_score(s)
        alpha = s.alphabet
        for _ in range(5):
            db = random_db(rng, alpha, n_seqs=40, min_len=9, max_len=40)
            ds = fx.extract_fragments(db, 6, alphabet=alpha)
            omega = "".join(alpha.letters[c] for c in rng.integers(0, 20, 6))
            eps = int(rng.integers(5, 60))
            got = fx.fibre_range_query(ds, s, omega, eps)
            want = fx.linear_scan_range(ds, fx.distance_query(d, omega), eps)
            assert got.as_multiset() == want.as_multiset()

    def test_asymmetric_matrix_rejected(self, toy_alpha):
        s = fx.ScoreMatrix(toy_alpha, np.array([
            [5, 0, 0, 0], [1, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 5],
        ]))
        db = fx.SequenceDB(records=(("r", "abab"),))
        ds = fx.extract_fragments(db, 2, alphabet=toy_alpha)
        with pytest.raises(ValueError, match="symmetric"):
            fx.fibre_range_query(ds, s, "aa", 1)

    def test_non_quasi_metric_rejected(self):
        s = fx.load_builtin_matrix("BLOSUM40")
        db = fx.SequenceDB(records=(("r", "ARNDARND"),))
        ds = fx.extract_fragments(db, 4)
        with pytest.raises(ValueError, match="quasi-metric"):
            fx.fibre_range_query(ds, s, "ARND", 5)
