import itertools

import numpy as np
import pytest

import fsindex as fx


class TestDistanceQuery:
    def test_worked_example_values(self, toy_d):
        f = fx.distance_query(toy_d, "abd")
        assert f.evaluate("cad") == 11
        assert f.evaluate("cbb") == 6

    def test_centre_evaluates_to_zero(self, toy_d):
        for omega in ["abd", "ccc", "dba"]:
            assert fx.distance_query(toy_d, omega).evaluate(omega) == 0

    def test_hand_sum(self, toy_d):
        f = fx.distance_query(toy_d, "abd")
        assert f.evaluate("bca") == 8 + 9 + 8

    def test_length_checks(self, toy_d):
        f = fx.distance_query(toy_d, "abd")
        with pytest.raises(ValueError):
            f.evaluate("ab")


class TestPssmQuery:
    def test_zero_table_is_zero_function(self, toy_alpha):
        f = fx.pssm_query(np.zeros((3, 4), dtype=int), toy_alpha)
        for frag in ["abc", "ddd", "cab"]:
            assert f.evaluate(frag) == 0

    def test_distance_rows_equivalent(self, toy_d):
        f = fx.distance_query(toy_d, "abd")
        g = fx.pssm_query(toy_d.values[toy_d.alphabet.encode("abd")], toy_d.alphabet)
        for frag in map("".join, itertools.product("abcd", repeat=3)):
            assert f.evaluate(frag) == g.evaluate(frag)

    def test_positionwise_min_lower_bounds_hit_set(self, toy_d):
        # table built as the position-wise minimum over a hit set is a
        # lower bound of the pointwise minimum distance to that set
        hit_set = ["abd", "cad", "dbb"]
        rows = [toy_d.values[toy_d.alphabet.encode(h)] for h in hit_set]
        f = fx.pssm_query(np.minimum.reduce(rows), toy_d.alphabet)
        for frag in map("".join, itertools.product("abcd", repeat=3)):
            direct = min(fx.distance_query(toy_d, h).evaluate(frag) for h in hit_set)
            assert f.evaluate(frag) <= direct

    def test_parse_pssm_roundtrip(self, toy_alpha):
        text = "a\tb\tc\td\n1\t2\t3\t4\n-5\t0\t0\t9\n"
        f = fx.parse_pssm(text, toy_alpha, orientation="cost")
        assert f.evaluate("ad") == 1 + 9
        g = fx.parse_pssm(text, toy_alpha, orientation="score")
        assert g.evaluate("ad") == -(1 + 9)

    def test_parse_pssm_errors(self, toy_alpha):
        with pytest.raises(ValueError):
            fx.parse_pssm("a b c\n1 2 3\n", toy_alpha)  # header misses a letter
        with pytest.raises(ValueError):
            fx.parse_pssm("a b c d\n1 2 3\n", toy_alpha)  # ragged row


class TestThresholdConversion:
    def test_worked_example(self, toy_s):
        assert fx.similarity_threshold_to_radius(toy_s, "abd", 9) == 7

    def test_self_score_threshold_gives_zero(self, toy_s):
        t = fx.weight(toy_s, "abd")
        assert fx.similarity_threshold_to_radius(toy_s, "abd", t) == 0

    def test_equivalence_over_all_fragments(self, toy_s, toy_d):
        # s(omega, x) >= t  <=>  d(omega, x) <= eps for eps = w(omega) - t
        omega, t = "abd", 9
        eps = fx.similarity_threshold_to_radius(toy_s, omega, t)
        f = fx.distance_query(toy_d, omega)
        oc = toy_s.alphabet.encode(omega)
        for frag in map("".join, itertools.product("abcd", repeat=3)):
            fc = toy_s.alphabet.encode(frag)
            sim = int(toy_s.values[oc, fc].sum())
            assert (sim >= t) == (f.evaluate(frag) <= eps)


class TestNormalize:
    def test_distance_query_already_normalized(self, toy_d):
        f = fx.distance_query(toy_d, "abd")
        q = fx.normalize(f)
        assert q.shift == 0
        assert np.array_equal(q.base.tables, f.tables)

    def test_constant_offset_position(self, toy_d):
        f = fx.distance_query(toy_d, "abd")
        t = f.tables.copy()
        t[1] -= 3
        q = fx.normalize(fx.pssm_query(t, toy_d.alphabet))
        assert q.shift == -3

    def test_reconstruction_exhaustive(self, toy_alpha):
        rng = np.random.default_rng(11)
        f = fx.pssm_query(rng.integers(-9, 9, size=(3, 4)), toy_alpha)
        q = fx.normalize(f)
        assert q.base.tables.min(axis=1).tolist() == [0, 0, 0]
        for frag in map("".join, itertools.product("abcd", repeat=3)):
            assert q.base.evaluate(frag) + q.shift == f.evaluate(frag)

    def test_answer_sets_preserved_at_every_radius(self, toy_alpha):
        rng = np.random.default_rng(12)
        f = fx.pssm_query(rng.integers(-9, 9, size=(3, 4)), toy_alpha)
        q = fx.normalize(f)
        frags = list(map("".join, itertools.product("abcd", repeat=3)))
        for eps in range(-10, 30, 4):
            direct = {x for x in frags if f.evaluate(x) <= eps}
            shifted = {x for x in frags if q.base.evaluate(x) <= eps - q.shift}
            assert direct == shifted

    def test_prefix_partial_sums_bounded_by_total(self, toy_alpha):
        # early rejection is sound only because normalized per-position
        # values are non-negative: partial sums never exceed the total
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = int(rng.integers(2, 6))
            f = fx.pssm_query(rng.integers(-15, 15, size=(m, 4)), toy_alpha)
            q = fx.normalize(f)
            for frag in map("".join, itertools.product("abcd", repeat=m)):
                codes = toy_alpha.encode(frag)
                running = 0
                total = q.base.evaluate(frag)
                for i, c in enumerate(codes):
                    running += int(q.base.tables[i, c])
                    assert running <= total


class TestLowerBoundTable:
    def test_worked_example_table(self, toy_d, toy_scheme):
        q = fx.normalize(fx.distance_query(toy_d, "abd"))
        lbt = fx.lower_bound_table(q, toy_scheme)
        assert [b.tolist() for b in lbt.bounds] == [[0, 7], [8, 0], [8, 0]]
        assert lbt.root_digits == (0, 1, 1)  # the bin holding the centre
        assert lbt.second_min == (7, 8, 8)

    def test_root_is_centres_bin_for_distance_queries(self, toy_d, toy_scheme):
        for omega in ["abc", "dda", "cbd"]:
            q = fx.normalize(fx.distance_query(toy_d, omega))
            lbt = fx.lower_bound_table(q, toy_scheme)
            assert lbt.root_digits == toy_scheme.digits(omega)

    def test_bound_is_sound_over_all_bins(self, toy_alpha, toy_scheme):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = fx.pssm_query(rng.integers(-9, 20, size=(3, 4)), toy_alpha)
            q = fx.normalize(f)
            lbt = fx.lower_bound_table(q, toy_scheme)
            best = {}
            for frag in map("".join, itertools.product("abcd", repeat=3)):
                digits = toy_scheme.digits(frag)
                v = q.base.evaluate(frag)
                best[digits] = min(best.get(digits, v), v)
            for digits, minimum in best.items():
                assert lbt.bound_of(digits) <= minimum
            # the root bound is the global minimum over bins
            assert lbt.bound_of(lbt.root_digits) == min(
                lbt.bound_of(d) for d in best
            )

    def test_bounds_grow_along_tree_edges(self, toy_alpha):
        rng = np.random.default_rng(4)
        scheme = fx.parse_partition("ac,bd;ab,cd;ad,bc", toy_alpha, 3)
        f = fx.pssm_query(rng.integers(0, 15, size=(3, 4)), toy_alpha)
        q = fx.normalize(f)
        lbt = fx.lower_bound_table(q, scheme)
        z = lbt.root_digits
        for j in range(3):
            for r in range(2):
                if r == z[j]:
                    continue
                child = z[:j] + (r,) + z[j + 1:]
                assert lbt.bound_of(child) >= lbt.bound_of(z)

    @pytest.mark.parametrize("spec", ["ac,bd", "a,b,cd;ac,bd;ab,c,d"], ids=["toy", "mixed"])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_child_steps_match_rank_function(self, spec, depth, toy_alpha, toy_d):
        scheme = fx.parse_partition(spec, toy_alpha, 3)
        q = fx.normalize(fx.distance_query(toy_d, "abd"))
        lbt = fx.lower_bound_table(q, scheme, depth=depth)
        z = lbt.root_digits + (0,) * (3 - depth)
        u = scheme.rank(z)
        assert lbt.root_rank == u
        for j in range(depth):
            steps, bounds = lbt.child_steps[j].tolist(), lbt.child_bounds[j].tolist()
            # every non-root cluster once, each a child's digit and bound
            assert sorted(z[j] + s for s in steps) == [
                r for r in range(int(scheme.sizes[j])) if r != z[j]
            ]
            for step, bound in zip(steps, bounds):
                child = z[:j] + (z[j] + step,) + z[j + 1:]
                assert u + step * int(scheme.radix_weights[j]) == scheme.rank(child)
                assert lbt.bound_of(z[:depth]) + bound == lbt.bound_of(child[:depth])

    def test_length_mismatch_rejected(self, toy_d, toy_scheme):
        q = fx.normalize(fx.distance_query(toy_d, "abcd"))
        with pytest.raises(ValueError):
            fx.lower_bound_table(q, toy_scheme)
