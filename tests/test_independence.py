import random

import pytest

from biblock import (
    alpha_bounds,
    alpha_matching,
    decompose,
    enumerate_biblock,
    from_edge_list,
    is_bi_block,
    lexmin_witness,
)
from biblock.blocks import leaf_blocks
from biblock.errors import (
    InvalidSizeError,
    NotMaximumError,
    OddCycleError,
    TooLargeError,
)
from biblock.graphs import _mask, bipartition
from biblock.independence import _matching
from conftest import (
    CUT_IN_SET,
    CUT_OUT_RESTRICTION_MAXIMAL,
    CUT_OUT_RESTRICTION_NOT_MAXIMAL,
    alpha_bruteforce,
    build_two_block,
    classify_leaf,
    complete_bipartite,
    induced_subgraph,
    lemma_2_1,
    maximum_independent_sets,
    maximum_sets_by_combinations,
    neighbors,
    peel_differences,
    peel_leaf_block,
    random_biblock,
    random_connected_bipartite,
    relabel,
)


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.fixture(scope="module")
def oracle_graphs(biblock_by_k):
    """Seeded connected bipartite graphs on 1..12 vertices, and all of
    B(k) for k <= 8."""
    rng = random.Random(13)
    graphs = [random_connected_bipartite(rng, k) for k in range(1, 13) for _ in range(8)]
    return graphs + [g for k in range(2, 9) for g in biblock_by_k[k]]


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
                assert not set(neighbors(g, u)) & res.witness

    def test_non_bipartite_rejected(self):
        with pytest.raises(OddCycleError):
            alpha_matching(from_edge_list(3, [(0, 1), (1, 2), (0, 2)]))

    def test_witness_is_the_koenig_set_of_the_graph(self, biblock_by_k):
        # With L the side holding vertex 0, D_L (the vertices of L some
        # maximum matching leaves free) are those whose removal lowers
        # alpha.  Brute force finds them without a matching, so this pins
        # the witness D_L | (R - N(D_L)) to the graph, not to the
        # matching algorithm.
        rng = random.Random(41)
        graphs = [random_connected_bipartite(rng, k) for k in range(2, 15) for _ in range(10)]
        graphs += [g for k in range(2, 9) for g in biblock_by_k[k]]
        for g in graphs:
            alpha = alpha_bruteforce(g).alpha
            everything = set(range(g.k))
            left = bipartition(g).M
            d_l = {
                v for v in left
                if alpha_bruteforce(induced_subgraph(g, everything - {v})[0]).alpha
                == alpha - 1
            }
            n_d_l = {w for v in d_l for w in neighbors(g, v)}
            assert alpha_matching(g).witness == d_l | (everything - left - n_d_l)

    def test_complete_bipartite_at_the_size_limit(self):
        res = alpha_matching(complete_bipartite(1500, 1500))
        assert res.alpha == 1500
        assert res.witness == frozenset(range(1500, 3000))


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


def shuffled_non_biblock_graphs(seed, count):
    """Seeded connected bipartite graphs on 2..24 vertices that are not
    bi-block, each under a shuffled labelling."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        k = rng.randint(2, 24)
        perm = list(range(k))
        rng.shuffle(perm)
        g = relabel(random_connected_bipartite(rng, k), perm)
        if not is_bi_block(g):
            graphs.append(g)
    return graphs


class TestLexminWitness:
    def test_equals_bruteforce_on_all_of_b_k(self, biblock_by_k):
        for g in [g for k in range(2, 10) for g in biblock_by_k[k]] + enumerate_biblock(10):
            assert lexmin_witness(g) == alpha_bruteforce(g).witness, g

    def test_equals_bruteforce_on_shuffled_non_biblock_graphs(self):
        for g in shuffled_non_biblock_graphs(18, 150):
            assert lexmin_witness(g) == alpha_bruteforce(g).witness, g

    def test_matching_within_a_mask_matches_the_induced_subgraph(self):
        rng = random.Random(7)
        for g in shuffled_non_biblock_graphs(19, 40):
            left = _mask(bipartition(g).M)
            for _ in range(5):
                within = rng.getrandbits(g.k) | 1 << rng.randrange(g.k)
                size = within.bit_count() - len(_matching(g, left, within))
                sub, _ = induced_subgraph(g, [v for v in range(g.k) if within >> v & 1])
                assert size == alpha_bruteforce(sub).alpha

    def test_non_bipartite_rejected(self):
        with pytest.raises(OddCycleError):
            lexmin_witness(cycle(5))


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
                assert not set(neighbors(g, u)) & s

    def test_p3(self):
        assert maximum_independent_sets(path(3)) == [frozenset({0, 2})]

    def test_walk_matches_combinations_oracle(self, oracle_graphs):
        for g in oracle_graphs:
            sets = maximum_sets_by_combinations(g)
            assert maximum_independent_sets(g) == sets
            res = alpha_bruteforce(g)
            assert (res.alpha, res.witness) == (len(sets[0]), sets[0])

    def test_too_large(self):
        g = from_edge_list(25, [(0, 1)])
        for fn in (maximum_independent_sets, lambda g: lemma_2_1(g, 0)):
            with pytest.raises(TooLargeError, match="brute force capped at 24, got k=25"):
                fn(g)


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
        entries = peel_differences(path(3))
        assert entries
        assert all(difference == m for m, difference in entries)

    def test_two_block_k22_k23(self):
        g = build_two_block(2, 2, 2, 3)
        for m, difference in peel_differences(g):
            assert difference in (m, m - 1)

    def test_enumeration_sweep(self, biblock_by_k):
        for k in range(3, 8):
            for g in biblock_by_k[k]:
                if len(decompose(g).blocks) < 2:
                    continue
                assert all(d in (m, m - 1) for m, d in peel_differences(g))


class TestLemma21:
    def test_p3_not_applicable(self):
        applicable, _, _, _, v_in_some = lemma_2_1(path(3), 1)
        assert not applicable
        assert not v_in_some

    def test_star_leaf(self):
        g = complete_bipartite(1, 3)
        applicable, holds, alpha_g, alpha_without, _ = lemma_2_1(g, 1)
        assert applicable and holds
        assert alpha_g == 3 and alpha_without == 2

    def test_matches_listing_oracle(self, oracle_graphs):
        """The check from the definitions: whether v lies in some maximum
        set from the listed maximum sets, alpha(G - v) from the induced
        subgraph."""
        for g in oracle_graphs:
            sets = maximum_sets_by_combinations(g)
            alpha_g = len(sets[0])
            for v in range(g.k):
                v_in_some = any(v in s for s in sets)
                if g.k == 1:
                    expected = (False, None, alpha_g, 0, v_in_some)
                else:
                    without, _ = induced_subgraph(g, set(range(g.k)) - {v})
                    alpha_without = len(maximum_sets_by_combinations(without)[0])
                    applicable = v_in_some and alpha_without < alpha_g
                    holds = alpha_g == alpha_without + 1 if applicable else None
                    expected = (applicable, holds, alpha_g, alpha_without, v_in_some)
                assert lemma_2_1(g, v) == expected

    def test_random_biblock_sweep(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_biblock(rng, rng.randint(2, 10))
            for v in range(g.k):
                holds = lemma_2_1(g, v)[1]
                assert holds is None or holds
