import random

import pytest

from biblock import (
    add_edge,
    alpha_matching,
    bipartition,
    canonical_form,
    complete_bipartite,
    delete_edges,
    format_edge_list,
    from_edge_list,
    is_complete_bipartite,
    is_connected,
    is_isomorphic,
    parse_edge_list,
)
from biblock.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    InvalidSizeError,
    MissingEdgeError,
    OddCycleError,
    OutOfRangeError,
    SelfLoopError,
    TooLargeError,
)
from biblock.graphs import relabel


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


class TestFromEdgeList:
    def test_p3(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.k == 3
        assert g.edges == {(0, 1), (1, 2)}
        assert g.degree_sequence() == (1, 1, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            from_edge_list(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        pairs = [(u, v) for u in (0, 1) for v in (2, 3, 4, 5)] + [(0, 6)]
        with pytest.raises(OutOfRangeError):
            from_edge_list(6, pairs)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            from_edge_list(3, [(0, 1), (1, 0)])

    def test_bad_vertex_count(self):
        with pytest.raises(InvalidSizeError):
            from_edge_list(0, [])


class TestCompleteBipartite:
    def test_k23_shape(self):
        g = complete_bipartite(2, 3)
        assert g.k == 5
        assert g.edge_count == 6
        assert sorted(g.degree(v) for v in range(5)) == [2, 2, 2, 3, 3]

    def test_k11_single_edge(self):
        g = complete_bipartite(1, 1)
        assert g.edges == {(0, 1)}

    def test_alpha_of_k42_is_larger_side(self):
        assert alpha_matching(complete_bipartite(4, 2)).alpha == 4

    def test_invalid_sizes(self):
        with pytest.raises(InvalidSizeError):
            complete_bipartite(0, 3)


class TestBipartition:
    def test_c6_layers(self):
        bp = bipartition(cycle(6))
        assert bp.M == {0, 2, 4}
        assert bp.N == {1, 3, 5}

    def test_triangle_odd_cycle(self):
        with pytest.raises(OddCycleError):
            bipartition(from_edge_list(3, [(0, 1), (1, 2), (0, 2)]))

    def test_k23_sides(self):
        bp = bipartition(complete_bipartite(2, 3))
        assert bp.M == {0, 1}
        assert bp.N == {2, 3, 4}

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            bipartition(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_every_edge_crosses(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 9)
            g = cycle(2 * (n // 2 + 1))
            bp = bipartition(g)
            for u, v in g.edges:
                assert (u in bp.M) != (v in bp.M)


class TestConnectivity:
    def test_p3_connected(self):
        assert is_connected(path(3))

    def test_two_disjoint_edges(self):
        assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(from_edge_list(1, []))


class TestEdgeEdits:
    def test_add_makes_triangle(self):
        g = add_edge(path(3), 0, 2)
        assert g.edges == {(0, 1), (0, 2), (1, 2)}

    def test_original_unchanged(self):
        g = path(3)
        add_edge(g, 0, 2)
        assert g.edge_count == 2

    def test_delete_from_k23(self):
        g = delete_edges(complete_bipartite(2, 3), [(0, 2)])
        assert g.edge_count == 5

    def test_add_then_delete_is_identity(self):
        g = complete_bipartite(2, 2)
        h = delete_edges(add_edge(g, 0, 1), [(0, 1)])
        assert h == g

    def test_add_existing_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            add_edge(path(3), 0, 1)

    def test_delete_missing_rejected(self):
        with pytest.raises(MissingEdgeError):
            delete_edges(path(3), [(0, 2)])

    def test_add_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            add_edge(path(3), 1, 1)


class TestCanonicalForms:
    def test_relabeled_p3_equal(self):
        a = from_edge_list(3, [(0, 1), (1, 2)])
        b = from_edge_list(3, [(2, 1), (1, 0)])
        assert canonical_form(a) == canonical_form(b)

    def test_star_vs_path_differ(self):
        k13 = complete_bipartite(1, 3)
        assert canonical_form(k13) != canonical_form(path(4))
        assert not is_isomorphic(k13, path(4))

    def test_k23_vs_c5_differ(self):
        c5 = cycle(5)
        assert canonical_form(complete_bipartite(2, 3)) != canonical_form(c5)

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_side_order_irrelevant(self, m, n):
        assert is_isomorphic(complete_bipartite(m, n), complete_bipartite(n, m))

    def test_invariant_under_random_relabelings(self, fig1):
        rng = random.Random(42)
        graphs = [
            complete_bipartite(3, 4),
            path(7),
            from_edge_list(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),
        ]
        for g in graphs:
            ref = canonical_form(g)
            for _ in range(1000):
                perm = list(range(g.k))
                rng.shuffle(perm)
                assert canonical_form(relabel(g, perm)) == ref

    def test_k25_is_the_largest_packable_size(self):
        star = complete_bipartite(1, 24)
        assert is_isomorphic(star, complete_bipartite(24, 1))
        assert len(canonical_form(star).data) == 1 + 3 * 25
        assert canonical_form(path(25)) != canonical_form(star)

    def test_k26_refused(self):
        with pytest.raises(TooLargeError):
            canonical_form(complete_bipartite(1, 25))
        with pytest.raises(TooLargeError):
            canonical_form(path(26))

    def test_hex_is_lowercase(self):
        h = canonical_form(path(3)).hex()
        assert h == h.lower()
        int(h, 16)


class TestCompleteBipartitePredicate:
    def test_star_counts(self):
        assert is_complete_bipartite(complete_bipartite(1, 5))

    def test_k23(self):
        assert is_complete_bipartite(complete_bipartite(2, 3))

    def test_p4_is_not(self):
        assert not is_complete_bipartite(path(4))

    def test_triangle_is_not(self):
        assert not is_complete_bipartite(from_edge_list(3, [(0, 1), (1, 2), (0, 2)]))


class TestEdgeListFormat:
    def test_round_trip(self, fig1):
        assert parse_edge_list(format_edge_list(fig1)) == fig1

    def test_comments_and_blanks(self):
        text = "# a path\n3\n\n0 1  # first\n1 2\n"
        assert parse_edge_list(text) == path(3)

    def test_bad_header(self):
        with pytest.raises(InvalidSizeError):
            parse_edge_list("x y\n")

    def test_bad_edge_line(self):
        with pytest.raises(InvalidSizeError):
            parse_edge_list("3\n0 1 2\n")
