import random

import pytest

from biblock import (
    block_index,
    complete_bipartite,
    decompose,
    from_edge_list,
    is_bi_block,
    is_connected,
    leaf_blocks,
    neighbor_union,
    peel_leaf_block,
)
from biblock.blocks import to_report
from biblock.errors import (
    DisconnectedError,
    NotLeafError,
    NotNeighborsError,
    OutOfRangeError,
    SingleBlockError,
)
from biblock.graphs import induced_subgraph
from conftest import random_biblock, random_connected_bipartite


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


class TestDecompose:
    def test_p3_two_edge_blocks(self):
        t = decompose(path(3))
        assert sorted(sorted(b.vertices) for b in t.blocks) == [[0, 1], [1, 2]]
        assert t.cut_vertices == {1}
        assert block_index(t, 1) == 2

    def test_k23_single_block(self):
        t = decompose(complete_bipartite(2, 3))
        assert len(t.blocks) == 1
        assert t.cut_vertices == frozenset()

    def test_fig1_pendants_are_separate_blocks(self, fig1):
        t = decompose(fig1)
        shapes = sorted(
            tuple(sorted(map(len, b.parts))) for b in t.blocks if b.parts
        )
        assert shapes == [(1, 1)] * 5 + [(2, 3), (3, 3), (3, 4)]
        assert len(t.blocks) == 8
        assert t.cut_vertices == {1, 4, 5}
        assert block_index(t, 1) == 6

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            decompose(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_long_path_has_no_recursion_limit(self):
        t = decompose(path(1500))
        assert len(t.blocks) == 1499
        assert t.cut_vertices == frozenset(range(1, 1499))

    def test_edges_partition(self, biblock_by_k, fig1):
        graphs = [g for k in range(2, 7) for g in biblock_by_k[k]] + [fig1]
        for g in graphs:
            t = decompose(g)
            total = 0
            for blk in t.blocks:
                sub, _ = induced_subgraph(g, blk.vertices)
                total += sub.edge_count
            assert total == g.edge_count

    def test_cut_vertices_match_bruteforce(self, biblock_by_k):
        for k in range(3, 7):
            for g in biblock_by_k[k]:
                t = decompose(g)
                for v in range(g.k):
                    rest, _ = induced_subgraph(g, set(range(g.k)) - {v})
                    is_cut = not is_connected(rest)
                    assert (block_index(t, v) >= 2) == is_cut


class TestIsBiBlock:
    def test_trees(self):
        assert is_bi_block(path(6))
        assert is_bi_block(complete_bipartite(1, 5))

    def test_c6_not(self):
        assert not is_bi_block(cycle(6))

    def test_c4_is(self):
        assert is_bi_block(cycle(4))

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_bipartite_all(self, m, n):
        assert is_bi_block(complete_bipartite(m, n))

    def test_disconnected_not(self):
        assert not is_bi_block(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_matches_block_tree_oracle(self):
        # is_bi_block builds no tree; the oracle reads the parts of each
        # block off the block-cut tree.
        def via_tree(g):
            return is_connected(g) and all(
                b.parts is not None for b in decompose(g).blocks
            )

        rng = random.Random(17)
        graphs = [random_connected_bipartite(rng, rng.randint(1, 14)) for _ in range(150)]
        graphs += [random_biblock(rng, rng.randint(1, 20)) for _ in range(150)]
        graphs += [
            from_edge_list(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),  # triangle + pendant
            cycle(5),
            # C5 plus a chord: 6 edges, as many as K_{3,2} on the even and
            # odd labels, so the edge count alone cannot reject it.
            from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)] + [(0, 2)]),
            from_edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
            # C5 glued at vertex 4 to K_{2,3} on {4, 5} x {6, 7, 8}
            from_edge_list(
                9,
                [(i, (i + 1) % 5) for i in range(5)]
                + [(a, b) for a in (4, 5) for b in (6, 7, 8)],
            ),
        ]
        verdicts = [is_bi_block(g) for g in graphs]
        assert verdicts == [via_tree(g) for g in graphs]
        assert True in verdicts and False in verdicts
        assert verdicts[-5:] == [False] * 5


class TestBlockQueries:
    def test_star_center_index(self):
        g = complete_bipartite(1, 5)
        t = decompose(g)
        assert block_index(t, 0) == 5

    def test_k23_index_one_everywhere(self):
        t = decompose(complete_bipartite(2, 3))
        assert all(block_index(t, v) == 1 for v in range(5))

    def test_index_of_missing_vertex_rejected(self):
        t = decompose(complete_bipartite(2, 3))
        for v in (-1, 5):
            with pytest.raises(OutOfRangeError):
                block_index(t, v)

    def test_p4_leaf_blocks(self):
        t = decompose(path(4))
        leaves = leaf_blocks(t)
        leaf_sets = sorted(sorted(t.blocks[i].vertices) for i in leaves)
        assert leaf_sets == [[0, 1], [2, 3]]

    def test_single_block_is_leaf(self):
        t = decompose(complete_bipartite(2, 3))
        assert leaf_blocks(t) == [0]

    def test_fig1_leaves(self, fig1):
        t = decompose(fig1)
        leaves = {frozenset(t.blocks[i].vertices) for i in leaf_blocks(t)}
        assert frozenset({4, 7, 8, 9, 10, 11, 12}) in leaves  # the K_{4,3}
        assert frozenset({5, 6, 13, 14, 15}) in leaves  # the K_{2,3}
        assert len(leaves) == 7  # plus the five pendant edges

    def test_fig1_leaves_match_bruteforce(self, fig1):
        from biblock import delete_edges

        t = decompose(fig1)
        for bid, blk in enumerate(t.blocks):
            cut = blk.vertices & t.cut_vertices
            keep = (set(range(fig1.k)) - blk.vertices) | cut
            # Deleting a block removes its interior vertices and all its
            # edges, including edges joining two of its cut vertices.
            inner_edges = [
                (u, v) for u, v in fig1.edges
                if u in blk.vertices and v in blk.vertices
            ]
            stripped = delete_edges(fig1, inner_edges)
            rest, _ = induced_subgraph(stripped, keep)
            removable = is_connected(rest)
            assert (bid in leaf_blocks(t)) == removable


class TestNeighborUnion:
    def test_p3_blocks_union_is_p3(self):
        u = neighbor_union(path(3), 0, 1)
        assert u.k == 3 and u.edge_count == 2

    def test_two_k22_blocks(self):
        from biblock import build_two_block

        u = neighbor_union(build_two_block(2, 2, 2, 2), 0, 1)
        assert u.k == 7 and u.edge_count == 8

    def test_non_neighbors_rejected(self, fig1):
        t = decompose(fig1)
        k43 = next(
            i for i, b in enumerate(t.blocks)
            if b.vertices == frozenset({4, 7, 8, 9, 10, 11, 12})
        )
        k23 = next(
            i for i, b in enumerate(t.blocks)
            if b.vertices == frozenset({5, 6, 13, 14, 15})
        )
        with pytest.raises(NotNeighborsError):
            neighbor_union(fig1, k43, k23)


class TestPeel:
    def test_p3_peel_end(self):
        g = path(3)
        t = decompose(g)
        end = next(i for i, b in enumerate(t.blocks) if b.vertices == {1, 2})
        peeled, mapping = peel_leaf_block(g, end)
        assert peeled.k == 2 and peeled.edge_count == 1
        assert set(mapping) == {0, 1}

    def test_two_block_peel(self):
        from biblock import build_two_block, is_isomorphic

        g = build_two_block(2, 2, 2, 2)
        peeled, _ = peel_leaf_block(g, 0)
        assert is_isomorphic(peeled, complete_bipartite(2, 2))

    def test_fig1_peel_k23(self, fig1):
        t = decompose(fig1)
        k23 = next(
            i for i, b in enumerate(t.blocks)
            if b.vertices == frozenset({5, 6, 13, 14, 15})
        )
        peeled, _ = peel_leaf_block(fig1, k23)
        assert peeled.k == 17

    def test_peel_non_leaf_rejected(self, fig1):
        t = decompose(fig1)
        k33 = next(
            i for i, b in enumerate(t.blocks)
            if b.vertices == frozenset({0, 1, 2, 3, 4, 5})
        )
        with pytest.raises(NotLeafError):
            peel_leaf_block(fig1, k33)

    def test_peel_single_block_rejected(self):
        g = complete_bipartite(2, 3)
        with pytest.raises(SingleBlockError):
            peel_leaf_block(g, 0)

    def test_peel_keeps_biblock(self, biblock_by_k):
        for k in range(3, 8):
            for g in biblock_by_k[k]:
                t = decompose(g)
                if len(t.blocks) < 2:
                    continue
                for bid in leaf_blocks(t):
                    peeled, _ = peel_leaf_block(g, bid)
                    assert is_connected(peeled)
                    assert is_bi_block(peeled)


def test_report_shape(fig1):
    rep = to_report(decompose(fig1))
    assert rep["k"] == 21
    assert rep["cut_vertices"] == [1, 4, 5]
    assert len(rep["blocks"]) == 8
    assert rep["block_index"]["1"] == 6
    leaf_flags = [b["is_leaf"] for b in rep["blocks"]]
    assert sum(leaf_flags) == 7
