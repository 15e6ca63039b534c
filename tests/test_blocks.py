import random

import pytest

from biblock import (
    alpha_matching,
    decompose,
    from_edge_list,
    is_bi_block,
    is_connected,
    leaf_blocks,
    unit_decomposition,
)
from biblock.blocks import block_by_id, leaf_neighbor, to_report
from biblock.errors import (
    DisconnectedError,
    NotNeighborsError,
    OddCycleError,
    OutOfRangeError,
)
from biblock.graphs import bipartition
from conftest import (
    NotLeafError,
    SingleBlockError,
    build_two_block,
    classify_leaf,
    complete_bipartite,
    delete_edges,
    induced_subgraph,
    is_isomorphic,
    neighbor_union,
    neighbors,
    peel_leaf_block,
    random_biblock,
    random_connected_bipartite,
)


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def _components_without(g, x):
    """A component label for each vertex of G - x; x itself gets -1."""
    comp = [-1] * g.k
    for s in range(g.k):
        if s == x or comp[s] != -1:
            continue
        comp[s] = s
        stack = [s]
        while stack:
            u = stack.pop()
            for w in neighbors(g, u):
                if w != x and comp[w] == -1:
                    comp[w] = s
                    stack.append(w)
    return comp


def reference_blocks(g):
    """(vertices, parts) of every block, sorted as ``decompose`` sorts
    them, without the lowpoint DFS.

    Two edges lie in one block iff no vertex x separates them in G - x,
    an edge at x counting with its other end.  Each block's sides come
    from relabelling it and 2-colouring it on its own; it is complete
    bipartite iff that succeeds and it has |A| * |B| edges.
    """
    comps = [_components_without(g, x) for x in range(g.k)]
    groups = {}
    for u, v in sorted(g.edges):
        label = tuple(c[v] if c[u] == -1 else c[u] for c in comps)
        groups.setdefault(label, set()).update((u, v))
    out = []
    for vs in groups.values():
        sub, old_to_new = induced_subgraph(g, vs)
        parts = None
        try:
            bp = bipartition(sub)
        except OddCycleError:
            bp = None
        if bp is not None and sub.edge_count == len(bp.M) * len(bp.N):
            new_to_old = {i: u for u, i in old_to_new.items()}
            side_m = frozenset(new_to_old[i] for i in bp.M)
            side_n = frozenset(new_to_old[i] for i in bp.N)
            parts = (side_m, side_n) if min(side_m) < min(side_n) else (side_n, side_m)
        out.append((frozenset(vs), parts))
    return sorted(out, key=lambda b: tuple(sorted(b[0])))


def random_connected(rng, k):
    """A random spanning tree on k vertices plus up to k extra random
    edges, so odd and even cycles both occur."""
    edges = {(rng.randrange(v), v) for v in range(1, k)}
    for _ in range(rng.randint(0, k) if k > 1 else 0):
        edges.add(tuple(sorted(rng.sample(range(k), 2))))
    return from_edge_list(k, sorted(edges))


def chorded_path(rng, k):
    """A path through the k vertices in random order plus up to k // 2
    random chords: the DFS runs deep, and back edges reach several levels
    up through lowpoints passed on from deep below."""
    order = rng.sample(range(k), k)
    edges = {tuple(sorted(e)) for e in zip(order, order[1:])}
    for _ in range(rng.randint(0, k // 2) if k > 1 else 0):
        edges.add(tuple(sorted(rng.sample(range(k), 2))))
    return from_edge_list(k, sorted(edges))


def same_side_swap(rng, k):
    """A random bi-block graph with one cross edge of a block whose larger
    side has two or more vertices moved inside that side: the block keeps
    |A| * |B| edges but gains an odd cycle."""
    g = random_biblock(rng, k)
    blocks = [b.parts for b in decompose(g).blocks if max(map(len, b.parts)) >= 2]
    if not blocks:
        return g
    side, other = sorted(rng.choice(blocks), key=len, reverse=True)
    x, x2 = rng.sample(sorted(side), 2)
    y = rng.choice(sorted(other))
    edges = (g.edges - {tuple(sorted((x, y)))}) | {tuple(sorted((x, x2)))}
    h = from_edge_list(k, sorted(edges))
    return h if is_connected(h) else g


def hand_made_graphs():
    """Five connected graphs that are not bi-block."""
    return [
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


class TestDecompose:
    def test_p3_two_edge_blocks(self):
        t = decompose(path(3))
        assert sorted(sorted(b.vertices) for b in t.blocks) == [[0, 1], [1, 2]]
        assert t.cut_vertices == {1}
        assert len(t.incidence[1]) == 2

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
        assert len(t.incidence[1]) == 6

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

    def test_blocks_and_parts_match_reference(self):
        rng = random.Random(23)
        graphs = [random_connected(rng, rng.randint(1, 40)) for _ in range(200)]
        graphs += [random_biblock(rng, rng.randint(1, 40)) for _ in range(100)]
        graphs += [chorded_path(rng, rng.randint(1, 40)) for _ in range(150)]
        graphs += [same_side_swap(rng, rng.randint(4, 40)) for _ in range(150)]
        graphs += hand_made_graphs()
        for g in graphs:
            blocks = [(b.vertices, b.parts) for b in decompose(g).blocks]
            assert blocks == reference_blocks(g)
        parts = [b.parts for g in graphs for b in decompose(g).blocks]
        assert None in parts
        assert sum(p is not None and min(map(len, p)) >= 2 for p in parts) > 50

    def test_cut_vertices_match_bruteforce(self, biblock_by_k):
        for k in range(3, 7):
            for g in biblock_by_k[k]:
                t = decompose(g)
                for v in range(g.k):
                    rest, _ = induced_subgraph(g, set(range(g.k)) - {v})
                    is_cut = not is_connected(rest)
                    assert (len(t.incidence[v]) >= 2) == is_cut


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
        # The oracle finds the blocks and their sides without the
        # lowpoint DFS that is_bi_block and decompose share.
        def via_reference(g):
            return is_connected(g) and all(
                parts is not None for _, parts in reference_blocks(g)
            )

        rng = random.Random(17)
        graphs = [random_connected_bipartite(rng, rng.randint(1, 14)) for _ in range(150)]
        graphs += [random_biblock(rng, rng.randint(1, 20)) for _ in range(150)]
        graphs += hand_made_graphs()
        verdicts = [is_bi_block(g) for g in graphs]
        assert verdicts == [via_reference(g) for g in graphs]
        assert True in verdicts and False in verdicts
        assert verdicts[-5:] == [False] * 5


class TestBlockQueries:
    def test_star_center_index(self):
        g = complete_bipartite(1, 5)
        t = decompose(g)
        assert len(t.incidence[0]) == 5

    def test_k23_index_one_everywhere(self):
        t = decompose(complete_bipartite(2, 3))
        assert all(len(t.incidence[v]) == 1 for v in range(5))

    def test_block_ids_out_of_range_rejected(self, fig1):
        t = decompose(fig1)
        n = len(t.blocks)
        witness = alpha_matching(fig1).witness
        for bid in (-1, n):
            message = rf"^block id {bid} not in 0\.\.{n - 1}$"
            calls = [
                lambda: leaf_neighbor(t, bid),
                lambda: peel_leaf_block(fig1, bid),
                lambda: classify_leaf(fig1, bid, witness),
                lambda: neighbor_union(fig1, 0, bid),
                lambda: neighbor_union(fig1, bid, 0),
            ]
            for call in calls:
                with pytest.raises(OutOfRangeError, match=message):
                    call()

    def test_one_vertex_graph_has_no_blocks(self):
        t = decompose(from_edge_list(1, []))
        assert t.blocks == ()
        for bid in (-1, 0, 1):
            with pytest.raises(
                OutOfRangeError, match=rf"^block id {bid}: the graph has no blocks$"
            ):
                block_by_id(t, bid)

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

    def test_leaf_neighbor_matches_definition(self, biblock_by_k):
        """(f, v) exactly when piece h holds one cut vertex v and v lies in
        h and f only, on the standard and the unit tree of all of B(k)."""
        answers = {"pair": 0, "none": 0}
        for k in range(2, 9):
            for g in biblock_by_k[k]:
                for t in (decompose(g), unit_decomposition(g)):
                    holders = {
                        v: {i for i, p in enumerate(t.blocks) if v in p.vertices}
                        for v in range(g.k)
                    }
                    assert holders == {v: set(ids) for v, ids in t.incidence.items()}
                    for h, piece in enumerate(t.blocks):
                        cuts = [v for v in piece.vertices if len(holders[v]) >= 2]
                        expected = None
                        if len(cuts) == 1 and len(holders[cuts[0]]) == 2:
                            (f,) = holders[cuts[0]] - {h}
                            expected = (f, cuts[0])
                        assert leaf_neighbor(t, h) == expected
                        answers["none" if expected is None else "pair"] += 1
        assert answers["pair"] and answers["none"]


class TestNeighborUnion:
    def test_p3_blocks_union_is_p3(self):
        u = neighbor_union(path(3), 0, 1)
        assert u.k == 3 and u.edge_count == 2

    def test_two_k22_blocks(self):
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
