import itertools
import sys
import threading

import numpy as np
import pytest

import fsindex as fx
from conftest import (
    brute_force_values,
    hits_as_set,
    random_db,
    random_partition,
    random_query,
    reference_span_scan,
)


def subtree_digits(root, node, scheme):
    """All bins in the subtree of ``node`` in the tree rooted at ``root``:
    node plus every bin obtained by further substitutions at positions
    strictly after the node's last substituted position."""
    diff = [i for i in range(scheme.m) if node[i] != root[i]]
    first_free = (max(diff) + 1) if diff else 0
    out = []
    for tail in itertools.product(*(range(int(s)) for s in scheme.sizes[first_free:])):
        cand = node[:first_free] + tail
        # descendants keep the node's digits at positions < first_free and
        # substitute later positions away from the root in increasing order
        out.append(cand)
    return out


@pytest.fixture(scope="module")
def blosum():
    s = fx.load_builtin_matrix("BLOSUM62")
    scheme = fx.parse_partition("TSAN,ILVM,KR,DEQ,WFYH,GPC", s.alphabet, 4)
    return fx.distance_from_score(s), scheme


@pytest.fixture(scope="module")
def blosum_db(blosum):
    rng = np.random.default_rng(5150)
    letters = blosum[0].alphabet.letters
    return fx.SequenceDB(records=tuple(
        (f"s{i}", "".join(letters[c] for c in rng.integers(0, len(letters), 60)))
        for i in range(60)
    ))


def both_modes(db, scheme) -> dict:
    """Fixed- and suffix-mode length-4 indexes of ``db``."""
    return {
        which: fx.build(fx.extract_fragments(db, 4, suffix_mode=which == "suffix"), scheme)
        for which in ("fixed", "suffix")
    }


@pytest.fixture(scope="module")
def blosum_indexes(blosum, blosum_db):
    return both_modes(blosum_db, blosum[1])


@pytest.fixture(scope="module")
def redundant(blosum, blosum_db):
    """Indexes of every sequence of ``blosum_db`` two or three times, so
    that keys span several rows."""
    copies = fx.SequenceDB(records=tuple(
        (f"{name}c{c}", seq)
        for i, (name, seq) in enumerate(blosum_db.records) for c in range(3 - i % 2)
    ))
    return both_modes(copies, blosum[1])


def blosum_query(blosum, index, text, k=300):
    """The distance query of ``text``, its normalized form and the
    normalized radius of its ``k``-th nearest neighbour in ``index``."""
    f = fx.distance_query(blosum[0], text)
    q = fx.normalize(f)
    return f, q, fx.linear_scan_knn(index.dataset, f, k).values()[-1] - q.shift


def triples(hits, shift: int = 0) -> list:
    """(seq_id, offset, value + shift) of each hit, in hit order."""
    return [(r.seq_id, r.offset, v + shift) for r, v in hits]


class TestGoldenTrace:
    def test_worked_example_scan_and_prune_sets(self, toy_index, toy_d):
        q = fx.normalize(fx.distance_query(toy_d, "abd"))
        tr = fx.Tracer()
        hits, stats = fx.range_search(toy_index, q, 7, trace=tr)
        assert tr.scanned_digits() == {(0, 1, 1), (1, 1, 1)}
        # pruned: two root children, plus both children of (1,1,1)
        assert tr.pruned_digits() == {(0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)}
        by_digits = dict((d, b) for d, b in tr.pruned)
        assert by_digits[(0, 0, 1)] == 8 and by_digits[(0, 1, 0)] == 8
        assert by_digits[(1, 0, 1)] == 15 and by_digits[(1, 1, 0)] == 15
        assert stats.bins_scanned == 2
        assert stats.fragments_scanned == 16

    def test_negative_radius_returns_nothing(self, toy_index, toy_d):
        q = fx.normalize(fx.distance_query(toy_d, "abd"))
        hits, stats = fx.range_search(toy_index, q, -1)
        assert len(hits) == 0
        assert stats.nodes_visited == 1  # only the root bound was evaluated
        assert stats.bins_scanned == 0 and stats.fragments_scanned == 0

    def test_full_cube_matches_oracle(self, toy_index, toy_cube, toy_d):
        f = fx.distance_query(toy_d, "abd")
        q = fx.normalize(f)
        hits, _ = fx.range_search(toy_index, q, 7)
        oracle = fx.linear_scan_range(toy_cube, f, 7)
        assert hits.as_multiset() == oracle.as_multiset()
        values = dict(((r.seq_id, r.offset), v) for r, v in hits)
        # cbb qualifies at 6; cad (value 11) does not
        texts = {w: i for i, (w, _) in enumerate(toy_cube.db.records)}


class TestProcessBin:
    def test_identical_fragment_bin_costs_two_evaluations(self, toy_alpha, toy_scheme, toy_d):
        # one full evaluation amortized over the bin, plus the forced
        # re-evaluation of the final fragment (lcp drops to 0 at the edge)
        db = fx.SequenceDB(records=(("r", "a" * 8),))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha)
        index = fx.build(ds, toy_scheme)
        q = fx.normalize(fx.distance_query(toy_d, "aaa"))
        u = fx.bin_of(toy_scheme, "aaa")
        hits, stats = fx.process_bin(index, u, q, 100)
        assert stats.fragments_scanned == 6
        assert stats.residues_scanned == 2 * 3
        assert len(hits) == 6

    def test_no_shared_prefixes_evaluates_everything(self, toy_alpha, toy_d):
        scheme = fx.parse_partition("ab,cd;ac,bd;ac,bd", toy_alpha, 3)
        db = fx.SequenceDB(records=(("x", "aaa"), ("y", "bcc")))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha)
        index = fx.build(ds, scheme)
        u = fx.bin_of(scheme, "aaa")
        assert index.bin_size(u) == 2  # both map to the same bin, no common prefix
        q = fx.normalize(fx.distance_query(toy_d, "aaa"))
        hits, stats = fx.process_bin(index, u, q, 1000)
        assert stats.residues_scanned == 2 * 3

    def test_early_rejection_saves_residues(self, toy_alpha, toy_scheme, toy_d):
        # fragments share a costly first letter; the shared-prefix checkpoint
        # rejects them before completing the evaluation
        db = fx.SequenceDB(records=(("r", "bbbb"),))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha)
        index = fx.build(ds, toy_scheme)
        q = fx.normalize(fx.distance_query(toy_d, "aaa"))  # f(b..)=8 per letter
        u = fx.bin_of(toy_scheme, "bbb")
        hits, stats = fx.process_bin(index, u, q, 2)
        assert len(hits) == 0
        # fragment 0: evaluates positions up to the shared prefix (3), fails
        # checkpoint; fragment 1: lcp drops to 0 at the bin edge, checkpoint
        # passes at CD[0]=0, then full evaluation
        assert stats.residues_scanned == 3 + 3

    def test_matches_reference_scan_on_random_bins(self, toy_alpha):
        rng = np.random.default_rng(71)
        d = fx.distance_from_score(
            fx.parse_score_matrix("   a  b  c  d\na  5 -3  2 -2\nb -3  5 -4  3\nc  2 -4  6 -4\nd -2  3 -4  6\n")
        )
        for trial in range(25):
            m = int(rng.integers(2, 5))
            db = random_db(rng, toy_alpha, n_seqs=10, min_len=1, max_len=30)
            suffix = trial % 2 == 0
            ds = fx.extract_fragments(db, m, alphabet=toy_alpha, suffix_mode=suffix)
            scheme = random_partition(rng, toy_alpha, m, max_clusters=3)
            index = fx.build(ds, scheme)
            q = fx.normalize(random_query(rng, toy_alpha, m, "pssm"))
            eps = int(rng.integers(0, 30))
            for u in range(scheme.n_bins):
                lo, hi = index.bin_slice(u)
                if lo == hi:
                    continue
                hits, stats = fx.process_bin(index, u, q, eps)
                ref_hits, ref_residues = reference_span_scan(index, lo, hi, q, eps)
                got = sorted((r.seq_id, r.offset, v) for r, v in hits)
                want = sorted(
                    (int(index.sids[i]), int(index.offs[i]), v) for i, v in ref_hits
                )
                assert got == want
                assert stats.residues_scanned == ref_residues

    def test_rejects_longer_queries(self, toy_alpha, toy_scheme, toy_d):
        # a query longer than the index has positions past the stored rows;
        # range_search cuts it into parts, and process_bin refuses it
        db = fx.SequenceDB(records=(("r", "abcdabcd"),))
        q = fx.normalize(fx.distance_query(toy_d, "abcd"))
        for suffix_mode in (False, True):
            index = fx.build(fx.extract_fragments(db, 3, alphabet=toy_alpha,
                                                  suffix_mode=suffix_mode), toy_scheme)
            with pytest.raises(ValueError, match="range_search"):
                fx.process_bin(index, fx.bin_of(toy_scheme, "abc"), q, 100)

    def test_fixed_mode_takes_its_own_length_only(self, toy_index, toy_d):
        # the length rule of range_search and knn_search
        q = fx.normalize(fx.distance_query(toy_d, "ab"))
        with pytest.raises(ValueError, match="needs suffix mode"):
            fx.process_bin(toy_index, 0, q, 100)

    def test_rejects_ranks_outside_the_scheme(self, toy_index, toy_d):
        q = fx.normalize(fx.distance_query(toy_d, "abd"))
        for u in (-1, toy_index.n_bins, toy_index.n_bins + 5000):
            with pytest.raises(ValueError, match="out of range"):
                fx.process_bin(toy_index, u, q, 100)


class TestEmptySubtreePruning:
    """The worked example's query on an index holding three bins.

    Under ``toy_scheme`` a bin's rank is 4*d0 + 2*d1 + d2.  The query
    "abd" has bounds [[0, 7], [8, 0], [8, 0]] and root (0, 1, 1); its
    tree is (0,1,1) -> {(1,1,1) via position 0, (0,0,1) via 1, (0,1,0)
    via 2}, (1,1,1) -> {(1,0,1), (1,1,0)}, (0,0,1) -> {(0,0,0)},
    (1,0,1) -> {(1,0,0)}.  The index fills ranks 0, 2 and 3 only, so the
    subtree of (1,1,1), ranks [4, 8), is empty.
    """

    @pytest.fixture(scope="class")
    def sparse(self, toy_alpha, toy_scheme):
        db = fx.SequenceDB(records=(("x", "aaa"), ("y", "aba"), ("z", "cbd")))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha)
        index = fx.build(ds, toy_scheme)
        filled = {u for u in range(index.n_bins) if index.bin_size(u)}
        assert filled == {0, 2, 3}
        return ds, index

    @pytest.mark.parametrize(
        "radius, scanned, pruned, nodes",
        [
            # 23 = 7 + 8 + 8 accepts every bound: only the empty subtree
            # of (1,1,1) is pruned, and its three descendants are never
            # evaluated (8 bounds without pruning)
            (23, {(0, 1, 1), (0, 0, 1), (0, 1, 0), (0, 0, 0)}, {(1, 1, 1)}, 5),
            # (1,1,1) passes its bound (7) but is empty; (0,0,1) and
            # (0,1,0) are cut by their bound (8) unevaluated
            (7, {(0, 1, 1)}, {(1, 1, 1), (0, 0, 1), (0, 1, 0)}, 2),
        ],
    )
    def test_golden_scan_prune_and_nodes(
        self, sparse, toy_d, toy_scheme, radius, scanned, pruned, nodes
    ):
        ds, index = sparse
        f = fx.distance_query(toy_d, "abd")
        q = fx.normalize(f)
        tr = fx.Tracer()
        hits, stats = fx.range_search(index, q, radius, trace=tr)
        assert tr.scanned_digits() == scanned
        assert tr.pruned_digits() == pruned
        assert stats.nodes_visited == nodes
        root = fx.lower_bound_table(q, toy_scheme).root_digits

        def holds_fragment(node):
            return any(
                index.bin_size(toy_scheme.rank(d))
                for d in subtree_digits(root, node, toy_scheme)
            )

        for node, bound in tr.pruned:
            assert bound > radius or not holds_fragment(node)
        for node, bound in tr.scanned:
            assert bound <= radius and holds_fragment(node)
        assert hits.as_multiset() == fx.linear_scan_range(ds, f, radius).as_multiset()
        assert fx.range_search(index, q, radius)[1].nodes_visited == nodes


class TestRangeSearch:
    def test_engines_agree_and_match_oracle(self, toy_alpha):
        rng = np.random.default_rng(42)
        toy_s = fx.parse_score_matrix(
            "   a  b  c  d\na  5 -3  2 -2\nb -3  5 -4  3\nc  2 -4  6 -4\nd -2  3 -4  6\n"
        )
        d = fx.distance_from_score(toy_s)
        for trial in range(30):
            m = int(rng.integers(2, 5))
            db = random_db(rng, toy_alpha, n_seqs=15, min_len=1, max_len=25)
            ds = fx.extract_fragments(
                db, m, alphabet=toy_alpha, suffix_mode=bool(trial % 3 == 0)
            )
            scheme = random_partition(rng, toy_alpha, m, max_clusters=3)
            index = fx.build(ds, scheme)
            kind = "distance" if trial % 2 else "pssm"
            f = random_query(rng, toy_alpha, m, kind, d=d)
            q = fx.normalize(f)
            eps_raw = int(rng.integers(-5, 40))
            base_eps = eps_raw - q.shift
            fast, fast_stats = fx.range_search(index, q, base_eps)
            traced, traced_stats = fx.range_search(index, q, base_eps, trace=fx.Tracer())
            assert fast.as_multiset() == traced.as_multiset()
            for field in ("nodes_visited", "bins_scanned", "fragments_scanned",
                          "residues_scanned", "hits"):
                assert getattr(fast_stats, field) == getattr(traced_stats, field)
            oracle = fx.linear_scan_range(ds, f, eps_raw)
            assert hits_as_set(fast, q.shift) == hits_as_set(oracle)
            assert fast_stats.residues_scanned <= m * fast_stats.fragments_scanned

    def test_no_false_dismissals_in_pruned_subtrees(self, toy_index, toy_cube, toy_d, toy_scheme):
        f = fx.distance_query(toy_d, "abd")
        q = fx.normalize(f)
        tr = fx.Tracer()
        fx.range_search(toy_index, q, 7, trace=tr)
        values = brute_force_values(toy_cube, f)
        root = tuple(fx.lower_bound_table(q, toy_scheme).root_digits)
        texts = {
            (sid, off): toy_cube.fragment_text(sid, off, 3) for sid, off in values
        }
        for node, bound in tr.pruned:
            assert bound > 7
            for digits in subtree_digits(root, node, toy_scheme):
                for key, v in values.items():
                    if toy_scheme.digits(texts[key]) == digits:
                        assert v > 7, f"pruned {node} hides a hit {key}"

    def test_tracer_reused_across_searches(self, toy_alpha, toy_d):
        rng = np.random.default_rng(5)
        db = random_db(rng, toy_alpha, n_seqs=20, min_len=4, max_len=30)
        ds = fx.extract_fragments(db, 4, alphabet=toy_alpha)
        index = fx.build(ds, random_partition(rng, toy_alpha, 4, max_clusters=3))
        q = fx.normalize(fx.distance_query(toy_d, "abdc"))
        shared, fresh = fx.Tracer(), []
        for radius in (6, 14):
            fx.range_search(index, q, radius, trace=shared)
            fresh.append(fx.Tracer())
            fx.range_search(index, q, radius, trace=fresh[-1])
        assert all(tr.scanned and tr.pruned for tr in fresh)
        assert fresh[0].scanned != fresh[1].scanned
        assert sorted(shared.scanned) == sorted(fresh[0].scanned + fresh[1].scanned)
        assert sorted(shared.pruned) == sorted(fresh[0].pruned + fresh[1].pruned)

    def test_scanned_bins_bound_value(self, toy_index, toy_d, toy_scheme):
        q = fx.normalize(fx.distance_query(toy_d, "abd"))
        tr = fx.Tracer()
        fx.range_search(toy_index, q, 7, trace=tr)
        for digits, bound in tr.scanned:
            assert bound <= 7

    def test_length_mismatch_rejected(self, toy_index, toy_d):
        q = fx.normalize(fx.distance_query(toy_d, "ab"))
        with pytest.raises(ValueError):
            fx.range_search(toy_index, q, 5)


class TestKnnSearch:
    def test_self_match_has_value_zero(self, toy_index, toy_d):
        q = fx.normalize(fx.distance_query(toy_d, "cab"))
        hits, _ = fx.knn_search(toy_index, q, 1)
        assert hits.values() == [0]

    def test_matches_sorted_brute_force(self, toy_index, toy_cube, toy_d):
        f = fx.distance_query(toy_d, "abd")
        q = fx.normalize(f)
        hits, _ = fx.knn_search(toy_index, q, 10)
        oracle = fx.linear_scan_knn(toy_cube, f, 10)
        assert sorted(hits.values()) == sorted(oracle.values())

    def test_k_at_least_n_returns_everything(self, toy_index, toy_d):
        q = fx.normalize(fx.distance_query(toy_d, "abd"))
        hits, _ = fx.knn_search(toy_index, q, 100)
        assert len(hits) == 64

    def test_k_zero_rejected(self, toy_index, toy_d):
        q = fx.normalize(fx.distance_query(toy_d, "abd"))
        with pytest.raises(ValueError):
            fx.knn_search(toy_index, q, 0)

    def test_longer_and_fixed_mode_other_lengths_rejected(self, toy_alpha, toy_scheme, toy_d):
        # a query longer than the index names range_search, which cuts it into
        # parts on a suffix-mode index; a fixed-mode index takes its own length
        # only, as in range_search
        db = fx.SequenceDB(records=(("r", "abcdabcd"),))
        fixed, suffix = (
            fx.build(fx.extract_fragments(db, 3, alphabet=toy_alpha, suffix_mode=mode), toy_scheme)
            for mode in (False, True)
        )

        def q(text):
            return fx.normalize(fx.distance_query(toy_d, text))

        for index in (fixed, suffix):
            with pytest.raises(ValueError, match="use range_search"):
                fx.knn_search(index, q("abcd"), 1)
        with pytest.raises(ValueError, match="needs suffix mode"):
            fx.knn_search(fixed, q("ab"), 1)

    def test_equals_range_at_kth_value(self, toy_index, toy_cube, toy_d):
        f = fx.distance_query(toy_d, "dcb")
        q = fx.normalize(f)
        hits, _ = fx.knn_search(toy_index, q, 7)
        radius = max(hits.values())
        range_hits, _ = fx.range_search(toy_index, q, radius)
        assert len(range_hits) >= 7
        assert set(hits.values()) <= set(range_hits.values())

    def test_all_ties_returns_every_boundary_occurrence(self, toy_alpha, toy_scheme, toy_d):
        db = fx.SequenceDB(records=(("r", "aaaaa"),))  # four identical windows
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha)
        index = fx.build(ds, toy_scheme)
        q = fx.normalize(fx.distance_query(toy_d, "aaa"))
        strict, _ = fx.knn_search(index, q, 2)
        assert len(strict) == 2
        everything, _ = fx.knn_search(index, q, 2, all_ties=True)
        assert len(everything) == 3  # all tied occurrences at the boundary value

    def test_ties_keep_first_encountered(self, toy_alpha, toy_scheme, toy_d):
        db = fx.SequenceDB(records=(("r", "aaaa"), ("s", "aaa")))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha)
        index = fx.build(ds, toy_scheme)
        q = fx.normalize(fx.distance_query(toy_d, "aaa"))
        hits, _ = fx.knn_search(index, q, 2)
        # frag order within the bin is stable extraction order for equal content
        assert [(r.seq_id, r.offset) for r, _ in hits] == [(0, 0), (0, 1)]

    def test_random_agreement_with_oracle(self, toy_alpha):
        rng = np.random.default_rng(13)
        s = fx.parse_score_matrix(
            "   a  b  c  d\na  5 -3  2 -2\nb -3  5 -4  3\nc  2 -4  6 -4\nd -2  3 -4  6\n"
        )
        d = fx.distance_from_score(s)
        for trial in range(15):
            m = int(rng.integers(2, 5))
            db = random_db(rng, toy_alpha, n_seqs=12, min_len=m, max_len=20)
            ds = fx.extract_fragments(db, m, alphabet=toy_alpha)
            scheme = random_partition(rng, toy_alpha, m, max_clusters=3)
            index = fx.build(ds, scheme)
            f = random_query(rng, toy_alpha, m, "distance" if trial % 2 else "pssm", d=d)
            q = fx.normalize(f)
            k = int(rng.integers(1, 12))
            hits, _ = fx.knn_search(index, q, k)
            oracle = fx.linear_scan_knn(ds, f, k)
            got = [(r.seq_id, r.offset, v + q.shift) for r, v in hits]
            assert got == [(r.seq_id, r.offset, v) for r, v in oracle]


class TestHitListContract:
    def test_every_producer_returns_arrays_and_pairs(self, toy_index, toy_cube, toy_s, toy_d):
        f = fx.distance_query(toy_d, "abd")
        q = fx.normalize(f)
        root = fx.lower_bound_table(q, toy_index.scheme).root_rank
        produced = {
            "range_search": fx.range_search(toy_index, q, 7 - q.shift)[0],
            "knn_search": fx.knn_search(toy_index, q, 10)[0],
            "process_bin": fx.process_bin(toy_index, root, q, 20)[0],
            "flat_search": fx.flat_search(fx.flat_build(toy_cube), q, 7 - q.shift)[0],
            "linear_scan_range": fx.linear_scan_range(toy_cube, f, 7),
            "linear_scan_knn": fx.linear_scan_knn(toy_cube, f, 10),
            "fibre_range_query": fx.fibre_range_query(toy_cube, toy_s, "abd", 7),
        }
        for name, hits in produced.items():
            arrays = (hits.sids, hits.offs, hits.vals)
            assert all(isinstance(a, np.ndarray) for a in arrays), name
            assert [a.shape for a in arrays] == [(len(hits),)] * 3 and len(hits) > 0, name
            assert list(hits) == hits.entries, name
            for ref, value in hits:
                assert isinstance(ref, fx.FragmentRef), name
                assert [type(x) for x in (ref.seq_id, ref.offset, value)] == [int] * 3, name
            assert hits.triples() == [(r.seq_id, r.offset, v) for r, v in hits], name
            assert hits.values() == [v for _, v in hits], name

    def test_sorted_by_value_is_the_knn_order(self, toy_alpha, toy_scheme, toy_d):
        db = fx.SequenceDB(records=(("r", "aaaaa"), ("s", "caaac"), ("t", "aaaa")))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha)
        index = fx.build(ds, toy_scheme)
        q = fx.normalize(fx.distance_query(toy_d, "aaa"))
        everything, _ = fx.range_search(index, q, 100)
        ranked = everything.sorted_by_value()
        assert ranked.triples() == sorted(everything.triples(), key=lambda t: (t[2], t[0], t[1]))
        for k in (1, 4, len(everything)):
            ties, _ = fx.knn_search(index, q, k, all_ties=True)
            assert len(ties) >= k
            assert ties.triples() == ranked.triples()[:len(ties)]


class TestLongQueries:
    def build_suffix_index(self, toy_alpha, m):
        rng = np.random.default_rng(77)
        db = random_db(rng, toy_alpha, n_seqs=20, min_len=1, max_len=30)
        ds = fx.extract_fragments(db, m, alphabet=toy_alpha, suffix_mode=True)
        scheme = fx.parse_partition("ac,bd", toy_alpha, m)
        return db, ds, fx.build(ds, scheme)

    def long_oracle(self, db, d, omega, eps, alphabet):
        out = set()
        f = fx.distance_query(d, omega)
        for sid, (_, residues) in enumerate(db.records):
            for off in range(len(residues) - len(omega) + 1):
                window = residues[off:off + len(omega)]
                if all(c in alphabet for c in window):
                    v = f.evaluate(window)
                    if v <= eps:
                        out.add((sid, off, v))
        return out

    def test_same_length_equals_range_search(self, toy_alpha, toy_d):
        db, ds, index = self.build_suffix_index(toy_alpha, 3)
        q = fx.normalize(fx.distance_query(toy_d, "abd"))
        a, _ = fx.long_query_search(index, q, 6)
        b, _ = fx.range_search(index, q, 6)
        assert a.as_multiset() == b.as_multiset()

    def test_matches_sliding_window_oracle(self, toy_alpha, toy_d):
        db, ds, index = self.build_suffix_index(toy_alpha, 3)
        for omega, eps in [("abcd", 25), ("ddca", 12), ("badcb", 30)]:
            q = fx.normalize(fx.distance_query(toy_d, omega))
            hits, _ = fx.long_query_search(index, q, eps)
            assert hits_as_set(hits) == self.long_oracle(db, toy_d, omega, eps, toy_alpha)

    def test_sequence_end_fragments_skipped(self, toy_alpha, toy_d, toy_scheme):
        db = fx.SequenceDB(records=(("r", "abcd"),))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha, suffix_mode=True)
        index = fx.build(ds, toy_scheme)
        q = fx.normalize(fx.distance_query(toy_d, "abcd"))
        hits, _ = fx.long_query_search(index, q, 10_000)
        # only offset 0 has a 4-letter window; offsets 1..3 are too short
        assert {(r.seq_id, r.offset) for r, _ in hits} == {(0, 0)}

    # "ddcd" splits into "dd" and "cd" at radius 5 each; on "abcd" they
    # take 11 and 0, so only the second part finds the window at radius 11
    def test_invalid_letter_past_the_window(self, toy_alpha, toy_d, toy_scheme):
        # no fragment starts at "cdx": its key holds the 'x' after the window
        db = fx.SequenceDB(records=(("r", "abcdx"), ("s", "bbcdcdda")))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha, suffix_mode=True)
        index = fx.build(ds, toy_scheme)
        q = fx.normalize(fx.distance_query(toy_d, "ddcd"))
        hits, _ = fx.long_query_search(index, q, 11)
        assert (0, 0, 11) in hits_as_set(hits)
        assert hits_as_set(hits) == self.long_oracle(db, toy_d, "ddcd", 11, toy_alpha)

    def test_tail_below_the_floor(self, toy_alpha, toy_d, toy_scheme):
        # no fragment starts at the final "cd": it is shorter than the floor
        db = fx.SequenceDB(records=(("r", "dabcd"), ("s", "cdcdabcdd")))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha, suffix_mode=True, floor=3)
        index = fx.build(ds, toy_scheme)
        q = fx.normalize(fx.distance_query(toy_d, "ddcd"))
        hits, _ = fx.long_query_search(index, q, 11)
        assert (0, 1, 11) in hits_as_set(hits)
        assert hits_as_set(hits) == self.long_oracle(db, toy_d, "ddcd", 11, toy_alpha)

    def test_windows_with_an_invalid_letter_are_not_checked(self, toy_alpha, toy_d, toy_scheme):
        # "abcd" splits into "ab" at radius 0 and "cd" at radius -1.  The
        # first part scans one bin, "abc" twice and "cd": 3 fragments and 6
        # residues.  Its hits propose the windows "abcx" and "abcd"; the
        # second part scans nothing, but the unstarted "b" and "c" of "abcx"
        # propose the windows before the first sequence and "abcx" again.
        # Only "abcd" is clean: the check adds 1 fragment and 4 residues.
        db = fx.SequenceDB(records=(("r", "abcxd"), ("s", "cabcd")))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha, suffix_mode=True)
        assert ds.unstarted.tolist() == [1, 2]
        q = fx.normalize(fx.distance_query(toy_d, "abcd"))
        hits, stats = fx.long_query_search(fx.build(ds, toy_scheme), q, 0)
        assert hits_as_set(hits) == {(1, 1, 0)}
        assert (stats.bins_scanned, stats.fragments_scanned, stats.residues_scanned) == (1, 4, 10)

    def test_query_longer_than_a_uint8_lcp(self, toy_alpha):
        # a 300-letter query: the kernel's lcp fields are uint8, and the
        # windows checked past the parts, up to 300 letters, must not wrap
        rng = np.random.default_rng(257)
        db = random_db(rng, toy_alpha, n_seqs=4, min_len=300, max_len=340)
        bad = random_db(rng, toy_alpha, n_seqs=2, min_len=300, max_len=340, bad_rate=0.01)
        db = fx.SequenceDB(records=db.records + tuple((f"x{n}", t) for n, t in bad.records))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha, suffix_mode=True)
        index = fx.build(ds, random_partition(rng, toy_alpha, 3, max_clusters=2))
        q = fx.normalize(random_query(rng, toy_alpha, 300, "pssm"))
        values = sorted(fx.linear_scan_range(ds, q.base, 2**62).values())
        for eps in (values[0], values[len(values) // 2], values[-1]):
            hits, stats = fx.long_query_search(index, q, eps)
            oracle = fx.linear_scan_range(ds, q.base, eps)
            assert len(hits) > 0 and hits.as_multiset() == oracle.as_multiset()
            assert stats.sweeps == stats.scan_chunks == 100  # parts of 3 letters
        assert len(hits) == len(values)  # every window at the last radius

    @pytest.mark.parametrize("radius", [2**61, 2**62, fx.INF_RADIUS, 2**70])
    @pytest.mark.parametrize("m, text", [(9, "MKVLATTRSPEA"), (4, "MKVLATTRS")])
    def test_huge_radii_keep_every_hit(self, m, text, radius):
        # two parts (12 letters on m = 9) and three (9 on m = 4): the parts'
        # radii are planned exactly however large the radius
        s = fx.load_builtin_matrix("BLOSUM62")
        db = fx.SequenceDB(records=(
            ("a", "MKVLATTRSPEAMKVLATTRSPEAW"), ("b", "MKVLATTRSAEAWWWKKLLMMNN"),
        ))
        ds = fx.extract_fragments(db, m, suffix_mode=True)
        index = fx.build(ds, fx.parse_partition("TSAN,ILVM,KR,DEQ,WFYH,GPC", s.alphabet, m))
        f = fx.distance_query(fx.distance_from_score(s), text)
        q = fx.normalize(f)
        hits, stats = fx.range_search(index, q, radius)
        want = fx.linear_scan_range(ds, f, radius + q.shift)
        assert len(want) > 0
        assert sorted(triples(hits, q.shift)) == sorted(triples(want))
        assert stats.scan_chunks == -(-len(text) // m)

    def test_requires_suffix_mode(self, toy_index, toy_d):
        q = fx.normalize(fx.distance_query(toy_d, "abcd"))
        with pytest.raises(ValueError, match="suffix"):
            fx.long_query_search(toy_index, q, 5)

    def test_rejects_short_queries(self, toy_alpha, toy_d):
        _, _, index = self.build_suffix_index(toy_alpha, 3)
        q = fx.normalize(fx.distance_query(toy_d, "ab"))
        with pytest.raises(ValueError, match="shorter"):
            fx.long_query_search(index, q, 5)


class TestShortQueries:
    def build_suffix_index(self, toy_alpha, m, seed=101):
        rng = np.random.default_rng(seed)
        db = random_db(rng, toy_alpha, n_seqs=25, min_len=1, max_len=30)
        ds = fx.extract_fragments(db, m, alphabet=toy_alpha, suffix_mode=True)
        scheme = fx.parse_partition("ac,bd", toy_alpha, m)
        return db, ds, fx.build(ds, scheme)

    def short_oracle(self, ds, d, omega, eps):
        out = set()
        f = fx.distance_query(d, omega)
        klen = ds.key_lengths()
        lens = ds.seq_lengths[ds.sids] - ds.offs
        for row in range(ds.n):
            if lens[row] < len(omega):
                continue
            text = ds.fragment_text(int(ds.sids[row]), int(ds.offs[row]), len(omega))
            v = f.evaluate(text)
            if v <= eps:
                out.add((int(ds.sids[row]), int(ds.offs[row]), v))
        return out

    def test_same_length_equals_range_search(self, toy_alpha, toy_d):
        db, ds, index = self.build_suffix_index(toy_alpha, 4)
        q = fx.normalize(fx.distance_query(toy_d, "abda"))
        a, _ = fx.short_query_search(index, q, 8)
        b, _ = fx.range_search(index, q, 8)
        assert a.as_multiset() == b.as_multiset()

    def test_matches_enumeration_oracle(self, toy_alpha, toy_d):
        db, ds, index = self.build_suffix_index(toy_alpha, 4)
        for omega, eps in [("ab", 9), ("dc", 6), ("bca", 14), ("a", 4)]:
            q = fx.normalize(fx.distance_query(toy_d, omega))
            hits, _ = fx.short_query_search(index, q, eps)
            assert hits_as_set(hits) == self.short_oracle(ds, toy_d, omega, eps)

    def test_counters_match_bin_oracle(self):
        """bins_scanned counts the non-empty bins whose cluster bound over
        the query's positions is within the radius; fragments_scanned sums
        their sizes."""
        rng = np.random.default_rng(53)
        alpha, m = fx.STANDARD_ALPHABET, 5
        db = random_db(rng, alpha, n_seqs=40, min_len=1, max_len=40)
        ds = fx.extract_fragments(db, m, alphabet=alpha, suffix_mode=True)
        scheme = random_partition(rng, alpha, m, max_clusters=4)
        index = fx.build(ds, scheme)
        sizes = np.array([index.bin_size(u) for u in range(index.n_bins)])
        nonempty = np.flatnonzero(sizes)
        digits = [scheme.unrank(int(u)) for u in nonempty]
        for length in range(1, m + 1):
            q = fx.normalize(random_query(rng, alpha, length, "pssm"))
            cluster_min = [
                [min(int(q.base.tables[j][alpha.ordinal(c)]) for c in cluster)
                 for cluster in scheme.clusters[j]]
                for j in range(length)
            ]
            bounds = np.array(
                [sum(cluster_min[j][d[j]] for j in range(length)) for d in digits]
            )
            for eps in (0, 10, 25, 50, 100):
                _, stats = fx.short_query_search(index, q, eps)
                inside = bounds <= eps
                assert stats.bins_scanned == int(inside.sum())
                assert stats.fragments_scanned == int(sizes[nonempty][inside].sum())

    def test_short_suffixes_participate(self, toy_alpha, toy_d, toy_scheme):
        db = fx.SequenceDB(records=(("r", "dcba"),))
        ds = fx.extract_fragments(db, 3, alphabet=toy_alpha, suffix_mode=True)
        index = fx.build(ds, toy_scheme)
        q = fx.normalize(fx.distance_query(toy_d, "ba"))
        hits, _ = fx.short_query_search(index, q, 0)
        # the length-2 tail "ba" (offset 2) matches exactly; "a" is too short
        assert {(r.seq_id, r.offset) for r, _ in hits} == {(0, 2)}

    def test_descendant_bins_form_contiguous_rank_interval(self, toy_alpha):
        scheme = fx.parse_partition("ac,bd", toy_alpha, 4)
        width = int(scheme.radix_weights[1])  # subtree size below depth 2
        for d0, d1 in itertools.product(range(2), range(2)):
            lo = scheme.rank((d0, d1, 0, 0))
            members = sorted(
                scheme.rank((d0, d1, d2, d3))
                for d2, d3 in itertools.product(range(2), range(2))
            )
            assert members == list(range(lo, lo + width))

    def test_requires_suffix_mode(self, toy_index, toy_d):
        q = fx.normalize(fx.distance_query(toy_d, "ab"))
        with pytest.raises(ValueError, match="suffix"):
            fx.short_query_search(toy_index, q, 5)

    def test_rejects_long_queries(self, toy_alpha, toy_d):
        _, _, index = self.build_suffix_index(toy_alpha, 3)
        q = fx.normalize(fx.distance_query(toy_d, "abcd"))
        with pytest.raises(ValueError, match="exceeds"):
            fx.short_query_search(index, q, 5)


class TestConcurrentReaders:
    def test_shared_index_across_threads(self, toy_index, toy_cube, toy_d):
        # the index is immutable after construction; concurrent searches
        # over the same object must agree with sequential answers
        from concurrent.futures import ThreadPoolExecutor

        centres = ["abd", "ccc", "dab", "bca", "add", "cbd", "aaa", "ddd"]
        f_by_centre = {w: fx.distance_query(toy_d, w) for w in centres}
        expected = {
            w: fx.linear_scan_range(toy_cube, f, 9).as_multiset()
            for w, f in f_by_centre.items()
        }

        def run(w):
            q = fx.normalize(f_by_centre[w])
            hits, _ = fx.range_search(toy_index, q, 9)
            kh, _ = fx.knn_search(toy_index, q, 5)
            return w, hits.as_multiset(), sorted(kh.values())

        with ThreadPoolExecutor(max_workers=8) as pool:
            for w, got, kvals in pool.map(run, centres * 4):
                assert got == expected[w]
                assert kvals == sorted(
                    fx.linear_scan_knn(toy_cube, f_by_centre[w], 5).values()
                )

    def test_concurrent_searches(self, blosum, blosum_indexes):
        # reader threads sharing two indexes, switching often: a range
        # search, a k-NN search and a query longer than the suffix index
        fixed, suffix = blosum_indexes["fixed"], blosum_indexes["suffix"]
        _, q, eps = blosum_query(blosum, fixed, "WKLM")
        _, long_q, long_eps = blosum_query(blosum, suffix, "WKLMPR")

        def answers():
            return (
                triples(fx.range_search(fixed, q, eps)[0]),
                triples(fx.knn_search(fixed, q, 100)[0]),
                triples(fx.range_search(suffix, long_q, long_eps)[0]),
            )

        want = answers()
        assert all(want)
        got = []

        def reader():
            for _ in range(5):
                got.append(answers() == want)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader) for _ in range(4)]
            for t in readers:
                t.start()
            for t in readers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers)
        assert got == [True] * 20


class TestRedundantKeys:
    @pytest.mark.parametrize("kind, text, which", [
        ("range", "WKLM", "fixed"), ("range", "HEAG", "fixed"), ("range", "WKLMPR", "suffix"),
        ("range", "WK", "suffix"), ("knn", "WKLM", "fixed"), ("flat", "HEAG", "fixed"),
    ])
    def test_one_evaluation_per_key(self, kind, text, which, blosum, redundant):
        # each key spans two or three frag rows: its rows hit together
        index = redundant[which]
        ds = index.dataset
        f, q, eps = blosum_query(blosum, index, text)
        if kind == "knn":
            hits, stats = fx.knn_search(index, q, 100)
            assert triples(hits, q.shift) == triples(fx.linear_scan_knn(ds, f, 100))
        else:
            search = fx.range_search if kind == "range" else fx.flat_search
            hits, stats = search(index if kind == "range" else fx.flat_build(ds), q, eps)
            want = fx.linear_scan_range(ds, f, eps + q.shift)
            assert sorted(triples(hits, q.shift)) == sorted(triples(want))
        assert len(hits) > 0
        assert stats.keys_scanned < 0.75 * stats.fragments_scanned  # one evaluation per key


class TestStatsSanity:
    def test_phase_times_cover_the_phases_run(self, blosum, blosum_indexes):
        index = blosum_indexes["suffix"]
        flat = fx.flat_build(index.dataset)
        sweep = ["table", "sweep", "spans", "scan", "finish"]

        def q_of(text):
            return fx.normalize(fx.distance_query(blosum[0], text))

        runs = [
            (fx.process_bin(index, fx.bin_of(blosum[1], "MKVL"), q_of("MKVL"), 40),
             ["spans", "scan", "finish"]),
            (fx.flat_search(flat, q_of("MKVL"), 40), ["scan", "finish"]),
            (fx.range_search(index, q_of("MKVL"), 40), sweep),
            (fx.range_search(index, q_of("MKV"), 30), sweep),
            (fx.range_search(index, q_of("MKVLATT"), 60), sweep),
            (fx.range_search(index, q_of("MKVL"), 40, trace=fx.Tracer()), sweep),
            (fx.knn_search(index, q_of("MKVL"), 10), sweep),
        ]
        for (_, stats), phases in runs:
            assert list(stats.phases_ms) == phases
            assert all(ms > 0 for ms in stats.phases_ms.values())
            assert sum(stats.phases_ms.values()) <= stats.elapsed_ms

    def test_fragment_and_residue_accounting(self, toy_alpha):
        rng = np.random.default_rng(55)
        s = fx.parse_score_matrix(
            "   a  b  c  d\na  5 -3  2 -2\nb -3  5 -4  3\nc  2 -4  6 -4\nd -2  3 -4  6\n"
        )
        d = fx.distance_from_score(s)
        for _ in range(10):
            m = int(rng.integers(2, 5))
            db = random_db(rng, toy_alpha, n_seqs=15, min_len=m, max_len=25)
            ds = fx.extract_fragments(db, m, alphabet=toy_alpha)
            scheme = random_partition(rng, toy_alpha, m, max_clusters=3)
            index = fx.build(ds, scheme)
            f = random_query(rng, toy_alpha, m, "distance", d=d)
            q = fx.normalize(f)
            eps = int(rng.integers(0, 25))
            tr = fx.Tracer()
            hits, stats = fx.range_search(index, q, eps, trace=tr)
            expected_frags = sum(
                index.bin_size(scheme.rank(dig)) for dig in tr.scanned_digits()
            )
            assert stats.fragments_scanned == expected_frags
            assert stats.residues_scanned <= m * stats.fragments_scanned
            assert stats.hits == len(hits) <= stats.fragments_scanned
