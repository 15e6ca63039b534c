import random

import pytest

from biblock import (
    alpha_bounds,
    alpha_bruteforce,
    alpha_matching,
    classify_leaf,
    complete_bipartite,
    decompose,
    from_edge_list,
    maximum_independent_sets,
    verify_lemma_2_1,
    verify_prop_alpha,
)
from biblock.blocks import leaf_blocks, peel_leaf_block
from biblock.errors import (
    InvalidSizeError,
    NotMaximumError,
    OddCycleError,
    TooLargeError,
)
from biblock.independence import (
    CUT_IN_SET,
    CUT_OUT_RESTRICTION_MAXIMAL,
    CUT_OUT_RESTRICTION_NOT_MAXIMAL,
)
from conftest import random_biblock, random_connected_bipartite


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def double_star():
    # Two adjacent centers with three leaves each; alpha is all six
    # leaves, which exceeds both bipartition sides.
    return from_edge_list(
        8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]
    )


class TestAlphaMatching:
    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_bipartite(self, m, n):
        assert alpha_matching(complete_bipartite(m, n)).alpha == max(m, n)

    def test_double_star_beats_both_sides(self):
        res = alpha_matching(double_star())
        assert res.alpha == 6
        assert res.witness == {2, 3, 4, 5, 6, 7}

    def test_p5(self):
        assert alpha_matching(path(5)).alpha == 3

    def test_witness_is_valid(self):
        for g in (path(6), cycle(8), double_star()):
            res = alpha_matching(g)
            assert len(res.witness) == res.alpha
            for u in res.witness:
                assert not set(g.neighbors(u)) & res.witness

    def test_non_bipartite_rejected(self):
        with pytest.raises(OddCycleError):
            alpha_matching(from_edge_list(3, [(0, 1), (1, 2), (0, 2)]))


class TestAlphaBruteforce:
    def test_c6(self):
        assert alpha_bruteforce(cycle(6)).alpha == 3

    def test_k42(self):
        assert alpha_bruteforce(complete_bipartite(4, 2)).alpha == 4

    def test_fig1_frozen(self, fig1):
        # Regression constant computed by this oracle.
        res = alpha_bruteforce(fig1)
        assert res.alpha == 13
        assert res.witness == {3, 4, 5, 6, 7, 8, 9, 13, 16, 17, 18, 19, 20}

    def test_witness_is_lexicographically_smallest(self):
        g = cycle(6)
        assert sorted(alpha_bruteforce(g).witness) == [0, 2, 4]
        sets = maximum_independent_sets(g)
        assert sorted(sets[0]) == sorted(alpha_bruteforce(g).witness)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            alpha_bruteforce(from_edge_list(25, [(0, 1)]))

    def test_matches_matching_on_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(200):
            g = random_connected_bipartite(rng, rng.randint(2, 12))
            assert alpha_matching(g).alpha == alpha_bruteforce(g).alpha


class TestAlphaBounds:
    @pytest.mark.parametrize(
        "k,expected", [(6, (3, 5)), (7, (4, 6)), (2, (1, 1))]
    )
    def test_values(self, k, expected):
        assert alpha_bounds(k) == expected

    def test_k1_rejected(self):
        with pytest.raises(InvalidSizeError):
            alpha_bounds(1)

    def test_bounds_hold_on_enumeration(self, biblock_by_k):
        for k in range(2, 10):
            lo, hi = alpha_bounds(k)
            for g in biblock_by_k[k]:
                assert lo <= alpha_matching(g).alpha <= hi


class TestMaximumIndependentSets:
    def test_all_maximum_and_independent(self):
        g = double_star()
        sets = maximum_independent_sets(g)
        alpha = alpha_bruteforce(g).alpha
        for s in sets:
            assert len(s) == alpha
            for u in s:
                assert not set(g.neighbors(u)) & s

    def test_p3(self):
        assert maximum_independent_sets(path(3)) == [frozenset({0, 2})]


class TestClassifyLeaf:
    def test_p3_restriction_maximal(self):
        g = path(3)
        t = decompose(g)
        end = next(i for i, b in enumerate(t.blocks) if b.vertices == {1, 2})
        case = classify_leaf(g, end, {0, 2})
        assert case.tag == CUT_OUT_RESTRICTION_MAXIMAL
        assert case.restriction_size == 1

    def test_cut_in_set(self):
        g = path(4)
        t = decompose(g)
        end = next(i for i, b in enumerate(t.blocks) if b.vertices == {0, 1})
        case = classify_leaf(g, end, {1, 3})
        assert case.tag == CUT_IN_SET

    def test_tags_match_bruteforce(self, biblock_by_k):
        from biblock import alpha_matching as am

        for g in biblock_by_k[6]:
            t = decompose(g)
            if len(t.blocks) < 2:
                continue
            for bid in leaf_blocks(t):
                (v,) = t.blocks[bid].vertices & t.cut_vertices
                peeled, mapping = peel_leaf_block(g, bid)
                alpha_peeled = alpha_bruteforce(peeled).alpha
                for witness in maximum_independent_sets(g):
                    case = classify_leaf(g, bid, witness)
                    restriction = witness & set(mapping)
                    if v in witness:
                        assert case.tag == CUT_IN_SET
                        # Lemma: the restriction is then maximum in G-H.
                        assert len(restriction) == alpha_peeled
                    elif len(restriction) == alpha_peeled:
                        assert case.tag == CUT_OUT_RESTRICTION_MAXIMAL
                    else:
                        assert case.tag == CUT_OUT_RESTRICTION_NOT_MAXIMAL

    def test_bad_witness_rejected(self):
        g = path(3)
        with pytest.raises(NotMaximumError):
            classify_leaf(g, 0, {0})
        with pytest.raises(NotMaximumError):
            classify_leaf(g, 0, {0, 1})

    def test_restriction_not_maximal_claims_cut_everywhere(self, biblock_by_k):
        # If no maximum set avoiding v restricts to a maximum set of the
        # peeled graph, every maximum set of the peeled graph holds v.
        rng = random.Random(31)
        pool = [g for k in range(3, 8) for g in biblock_by_k[k]]
        pool += [random_biblock(rng, rng.randint(4, 10)) for _ in range(30)]
        for g in pool:
            t = decompose(g)
            if len(t.blocks) < 2:
                continue
            for bid in leaf_blocks(t):
                (v,) = t.blocks[bid].vertices & t.cut_vertices
                peeled, mapping = peel_leaf_block(g, bid)
                alpha_peeled = alpha_bruteforce(peeled).alpha
                maximal_restriction_exists = any(
                    len(w & set(mapping)) == alpha_peeled
                    for w in maximum_independent_sets(g)
                    if v not in w
                )
                if not maximal_restriction_exists:
                    new_v = mapping[v]
                    assert all(
                        new_v in s for s in maximum_independent_sets(peeled)
                    )


class TestPropAlpha:
    def test_p3(self):
        rep = verify_prop_alpha(path(3))
        assert rep.ok
        assert all(e.difference == e.m for e in rep.entries)

    def test_two_block_k22_k23(self):
        from biblock import build_two_block

        g = build_two_block(2, 2, 2, 3)
        rep = verify_prop_alpha(g)
        assert rep.ok
        for e in rep.entries:
            assert e.difference in (e.m, e.m - 1)

    def test_enumeration_sweep(self, biblock_by_k):
        for k in range(3, 8):
            for g in biblock_by_k[k]:
                if len(decompose(g).blocks) < 2:
                    continue
                assert verify_prop_alpha(g).ok


class TestLemma21:
    def test_p3_not_applicable(self):
        rep = verify_lemma_2_1(path(3), 1)
        assert not rep.applicable
        assert not rep.v_in_some_maximum

    def test_star_leaf(self):
        g = complete_bipartite(1, 3)
        rep = verify_lemma_2_1(g, 1)
        assert rep.applicable and rep.holds
        assert rep.alpha_g == 3 and rep.alpha_without_v == 2

    def test_random_biblock_sweep(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_biblock(rng, rng.randint(2, 10))
            for v in range(g.k):
                rep = verify_lemma_2_1(g, v)
                assert rep.holds is None or rep.holds
