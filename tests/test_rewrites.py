import math

import pytest

from biblock import (
    alpha_bruteforce,
    alpha_matching,
    apply_step,
    build_two_block,
    complete_bipartite,
    decompose,
    find_applicable,
    from_edge_list,
    is_bi_block,
    is_complete_bipartite,
    is_isomorphic,
    merge_blocks,
    normalize,
    perron,
    quad_form_delta,
    reattach_subcase32,
    reduce_block_index,
    split_partition_subcase22,
    unit_decomposition,
)
from biblock.errors import (
    BadSplitError,
    BlockIndexTooSmallError,
    NotMaximumError,
    NotNeighborsError,
    NoValidPairError,
    OrientationMismatchError,
    PostconditionViolationError,
    PreconditionFailedError,
)
from biblock.rewrites import (
    MERGE_BLOCKS,
    REATTACH,
    REDUCE_BLOCK_INDEX,
    SPLIT_PARTITION,
    RewriteStep,
    _edit,
)


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def case5_tree():
    """A 13-vertex tree whose case-5 leaf star has no chain-search move,
    so normalization needs the swapped reattachment."""
    return from_edge_list(
        13,
        [(0, 5), (1, 5), (2, 5), (3, 5), (3, 7), (4, 5), (4, 8),
         (4, 9), (6, 7), (6, 11), (6, 12), (7, 10)],
    )


def spider():
    return from_edge_list(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def double_star():
    return from_edge_list(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])


class TestUnitDecomposition:
    def test_blocks_pass_through(self):
        g = build_two_block(2, 2, 2, 2)
        units = unit_decomposition(g)
        assert len(units) == 2

    def test_star_coalesces(self):
        units = unit_decomposition(complete_bipartite(1, 5))
        assert len(units) == 1
        assert units[0].side_b == frozenset({0}) or units[0].side_a == frozenset({0})

    def test_spider_units(self):
        units = unit_decomposition(spider())
        # One star at the center plus three leaf edges.
        assert len(units) == 4
        sizes = sorted(len(u.vertices) for u in units)
        assert sizes == [2, 2, 2, 4]

    def test_units_partition_edges(self, biblock_by_k):
        for k in range(2, 8):
            for g in biblock_by_k[k]:
                units = unit_decomposition(g)
                covered = set()
                for u in units:
                    for a in u.side_a:
                        for b in u.side_b:
                            e = (min(a, b), max(a, b))
                            assert e in g.edges
                            assert e not in covered
                            covered.add(e)
                assert covered == set(g.edges)


class TestMergeBlocks:
    def test_p3_degenerate_identity(self):
        g = path(3)
        out = merge_blocks(g, 0, 1)
        assert out.result == g
        assert out.delta_rho == 0.0
        assert out.alpha_before == out.alpha_after == 2

    def test_two_block_2222_gives_k43(self):
        g = build_two_block(2, 2, 2, 2)
        out = merge_blocks(g, 0, 1)
        assert is_isomorphic(out.result, complete_bipartite(4, 3))
        assert abs(out.rho_before - math.sqrt(6)) < 1e-9
        assert abs(out.rho_after - math.sqrt(12)) < 1e-9

    def test_case2_shape_preserves_alpha(self):
        g = build_two_block(1, 3, 3, 1)
        assert alpha_bruteforce(g).alpha == 5  # q + m - 1
        t = decompose(g)
        f_id = next(i for i, b in enumerate(t.blocks) if 0 in b.vertices)
        h_id = next(i for i, b in enumerate(t.blocks) if 6 in b.vertices)
        out = merge_blocks(g, f_id, h_id)
        assert out.alpha_after == 5
        assert out.delta_rho > 1e-10

    def test_orientation_mismatch(self):
        g = build_two_block(2, 2, 2, 2)
        t = decompose(g)
        f, h = t.blocks[0], t.blocks[1]
        (v,) = f.vertices & h.vertices
        wrong = (f.side_of(v), h.other_side(v))
        with pytest.raises(OrientationMismatchError):
            merge_blocks(g, 0, 1, orientation=wrong)

    def test_valid_orientation_accepted(self):
        g = build_two_block(2, 2, 2, 2)
        t = decompose(g)
        f, h = t.blocks[0], t.blocks[1]
        (v,) = f.vertices & h.vertices
        out = merge_blocks(g, 0, 1, orientation=(f.side_of(v), h.side_of(v)))
        assert is_isomorphic(out.result, complete_bipartite(4, 3))

    def test_non_neighbors_rejected(self):
        # Far-apart pendant blocks whose star units do not touch either.
        g = path(7)
        t = decompose(g)
        first = next(i for i, b in enumerate(t.blocks) if b.vertices == {0, 1})
        last = next(i for i, b in enumerate(t.blocks) if b.vertices == {5, 6})
        with pytest.raises(NotNeighborsError):
            merge_blocks(g, first, last)

    def test_wrong_case_merge_fails_loudly(self):
        # q > p, n > m, p < q-1: the plain merge changes alpha and the
        # postcondition check must refuse it.
        g = build_two_block(1, 4, 1, 3)
        t = decompose(g)
        f_id = next(i for i, b in enumerate(t.blocks) if 0 in b.vertices)
        h_id = next(i for i, b in enumerate(t.blocks) if 5 in b.vertices)
        with pytest.raises(PostconditionViolationError):
            merge_blocks(g, f_id, h_id)


class TestReattach:
    def test_1413_reaches_k26(self):
        g = build_two_block(1, 4, 1, 3)
        assert alpha_bruteforce(g).alpha == 6  # q + n - 1
        t = decompose(g)
        f_id = next(i for i, b in enumerate(t.blocks) if 0 in b.vertices)
        h_id = next(i for i, b in enumerate(t.blocks) if 5 in b.vertices)
        out = reattach_subcase32(g, f_id, h_id)
        assert is_isomorphic(out.result, complete_bipartite(2, 6))
        assert out.alpha_after == 6
        assert out.delta_rho > 0
        assert out.edges_removed  # the v-to-P edges really go

    def test_subcase31_sizes_rejected(self):
        # p = q-1 belongs to the merge subcase, not the reattachment.
        g = build_two_block(1, 2, 2, 3)
        t = decompose(g)
        with pytest.raises(PreconditionFailedError, match="p < q-1"):
            f_id = next(i for i, b in enumerate(t.blocks) if 0 in b.vertices)
            h_id = next(
                i for i, b in enumerate(t.blocks) if g.k - 1 in b.vertices
            )
            reattach_subcase32(g, f_id, h_id)

    def test_small_n_rejected(self):
        g = build_two_block(1, 4, 3, 2)
        t = decompose(g)
        f_id = next(i for i, b in enumerate(t.blocks) if 0 in b.vertices)
        h_id = next(i for i, b in enumerate(t.blocks) if g.k - 1 in b.vertices)
        with pytest.raises(PreconditionFailedError, match="n > m"):
            reattach_subcase32(g, f_id, h_id)


class TestSplitPartition:
    @staticmethod
    def split_instance():
        # K22 on {0,1}x{2,3}, a two-leaf star at 0, a pendant at 2.  The
        # witness {1,4,5,6} puts this leaf in the splitting subcase.
        return from_edge_list(
            7,
            [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 6)],
        )

    def test_split_star_leaf(self):
        g = self.split_instance()
        t = decompose(g)
        f_id = next(i for i, b in enumerate(t.blocks) if len(b.vertices) == 4)
        h_id = next(i for i, b in enumerate(t.blocks) if 4 in b.vertices)
        before_units = len(unit_decomposition(g))
        out = split_partition_subcase22(g, f_id, h_id)
        assert out.alpha_after == out.alpha_before
        assert out.delta_rho >= -1e-10
        assert is_bi_block(out.result)
        assert len(unit_decomposition(out.result)) == before_units - 1
        assert out.step.n1 == (4,)
        assert out.edges_removed  # the M x N2 edges really go

    def test_split_matches_driver_choice(self):
        g = self.split_instance()
        steps = [
            s
            for s in find_applicable(g, alpha_bruteforce(g).witness)
            if s.kind == SPLIT_PARTITION
        ]
        assert len(steps) == 1
        out = apply_step(g, steps[0])
        assert out.alpha_after == out.alpha_before

    def test_explicit_n1(self):
        g = self.split_instance()
        t = decompose(g)
        f_id = next(i for i, b in enumerate(t.blocks) if len(b.vertices) == 4)
        h_id = next(i for i, b in enumerate(t.blocks) if 4 in b.vertices)
        out = split_partition_subcase22(g, f_id, h_id, n1_choice=[5])
        assert out.step.n1 == (5,)
        assert out.alpha_after == out.alpha_before

    def test_bad_split_rejected(self):
        g = self.split_instance()
        t = decompose(g)
        f_id = next(i for i, b in enumerate(t.blocks) if len(b.vertices) == 4)
        h_id = next(i for i, b in enumerate(t.blocks) if 4 in b.vertices)
        with pytest.raises(BadSplitError):
            split_partition_subcase22(g, f_id, h_id, n1_choice=[4, 5])

    def test_equal_sides_rejected(self):
        g = build_two_block(2, 2, 2, 2)
        with pytest.raises(PreconditionFailedError, match="n > m"):
            split_partition_subcase22(g, 0, 1)


class TestReduceBlockIndex:
    def test_star_pendant_pair_is_noop(self):
        g = complete_bipartite(1, 3)
        out = reduce_block_index(g, 0, 0, 1)
        assert out.result == g
        assert out.delta_rho == 0.0

    def test_spider_center_pair(self):
        g = spider()
        t = decompose(g)
        ids = list(t.incidence[0])
        out = reduce_block_index(g, 0, ids[0], ids[1])
        assert out.alpha_after == out.alpha_before
        assert out.delta_rho >= 0.0

    def test_three_squares_real_merge(self):
        # Three K22 blocks at vertex 0: the reduction adds real edges.
        g = from_edge_list(
            10,
            [(0, 2), (0, 3), (1, 2), (1, 3),
             (0, 5), (0, 6), (4, 5), (4, 6),
             (0, 8), (0, 9), (7, 8), (7, 9)],
        )
        t = decompose(g)
        ids = list(t.incidence[0])
        assert len(ids) == 3
        out = reduce_block_index(g, 0, ids[0], ids[1])
        assert out.edges_added
        assert out.alpha_after == out.alpha_before
        assert out.delta_rho > 1e-10
        t2 = decompose(out.result)
        assert len(t2.incidence[0]) == 2

    def test_small_index_rejected(self):
        g = path(3)
        with pytest.raises(BlockIndexTooSmallError):
            reduce_block_index(g, 1, 0, 1)

    def test_invalid_pair_rejected(self):
        g = from_edge_list(
            8, [(0, 1), (0, 3), (0, 4), (2, 3), (2, 4), (3, 5), (4, 6), (0, 7)]
        )
        t = decompose(g)
        square = next(i for i, b in enumerate(t.blocks) if len(b.vertices) == 4)
        pendant = next(i for i, b in enumerate(t.blocks) if b.vertices == {0, 1})
        with pytest.raises(NoValidPairError):
            reduce_block_index(g, 0, pendant, square)


class TestFindApplicable:
    @staticmethod
    def lex_witness(g):
        return alpha_bruteforce(g).witness

    def test_complete_bipartite_has_no_steps(self):
        for g in (complete_bipartite(2, 3), complete_bipartite(1, 5)):
            assert find_applicable(g, self.lex_witness(g)) == []

    def test_two_block_graphs_have_one_leaf_step(self, biblock_by_k):
        case_names = set()
        for p in range(1, 5):
            for q in range(1, 5):
                for m in range(1, 5):
                    for n in range(1, 5):
                        g = build_two_block(p, q, m, n)
                        if is_complete_bipartite(g):
                            continue
                        steps = find_applicable(g, self.lex_witness(g))
                        leaf_steps = [
                            s for s in steps if s.kind != REDUCE_BLOCK_INDEX
                        ]
                        assert len(leaf_steps) == 1, (p, q, m, n, leaf_steps)
                        case_names.add(leaf_steps[0].case)
        assert case_names <= {
            "case 1",
            "case 2",
            "two-block subcase 3.1",
            "two-block subcase 3.2",
            "case 4",
        }

    def test_block_index_three_vertex_offers_reduction(self):
        g = spider()
        steps = find_applicable(g, self.lex_witness(g))
        assert any(s.kind == REDUCE_BLOCK_INDEX for s in steps)

    def test_swapped_reattach_offered_last_when_no_leaf_step(self):
        _, trace = normalize(case5_tree())
        g = trace[1].result
        steps = find_applicable(g, self.lex_witness(g))
        swapped = [s.case == "case 5 reattach" for s in steps]
        # Only no-op index reductions come first; the swapped
        # reattachments close the list and are the only real edits.
        assert swapped == sorted(swapped) and swapped[-1]
        assert all((_edit(g, s) != g) == sw for s, sw in zip(steps, swapped))
        assert all(s.kind == REATTACH for s, sw in zip(steps, swapped) if sw)

    def test_bad_witness_rejected(self):
        g = build_two_block(2, 2, 2, 2)
        with pytest.raises(NotMaximumError):
            find_applicable(g, frozenset({0}))

    def test_every_step_preserves_invariants(self, biblock_by_k):
        for k in range(2, 7):
            for g in biblock_by_k[k]:
                witness = self.lex_witness(g)
                pair = perron(g) if g.k >= 2 else None
                for step in find_applicable(g, witness):
                    out = apply_step(g, step)
                    assert out.result.k == g.k
                    assert out.alpha_after == out.alpha_before
                    assert out.delta_rho >= -1e-10
                    assert quad_form_delta(g, out.result, pair.X) >= -1e-10
                    if out.edges_added and not out.edges_removed:
                        assert out.delta_rho > 1e-10

    def test_case5_chain_resolves(self):
        # Leaf H with m > n+1 behind an F whose far side carries the
        # witness: the chain search must still find a valid move.
        g = from_edge_list(
            9,
            [(0, 1), (1, 2), (1, 3), (1, 4), (4, 5), (4, 6), (4, 7), (4, 8)],
        )
        steps = find_applicable(g, self.lex_witness(g))
        assert steps
        for step in steps:
            out = apply_step(g, step)
            assert out.alpha_after == out.alpha_before


class TestApplyStepEdits:
    def test_merge_edit_shape(self):
        g = build_two_block(2, 2, 2, 2)
        step = RewriteStep(
            kind=MERGE_BLOCKS,
            case="case 1",
            cut_vertex=3,
            f_far=(0, 1),
            f_near=(2, 3),
            h_far=(5, 6),
            h_near=(3, 4),
        )
        res = _edit(g, step)
        assert res.edge_count == 4 * 3

    def test_reattach_edit_shape(self):
        g = build_two_block(1, 4, 1, 3)
        step = RewriteStep(
            kind=REATTACH,
            case="two-block subcase 3.2",
            cut_vertex=4,
            f_far=(0,),
            f_near=(1, 2, 3, 4),
            h_far=(5, 6, 7),
            h_near=(4,),
        )
        res = _edit(g, step)
        assert res.edge_count == 2 * 6
        assert not res.has_edge(0, 4)

    def test_split_edit_shape(self):
        # K22 glued at 3 to a K_{2,3} leaf K({3,4},{5,6,7}).
        g = from_edge_list(
            8,
            [(0, 2), (0, 3), (1, 2), (1, 3),
             (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7)],
        )
        step = RewriteStep(
            kind=SPLIT_PARTITION,
            case="case 3 subcase 2.2",
            cut_vertex=3,
            f_far=(0, 1),
            f_near=(2, 3),
            h_far=(5, 6, 7),
            h_near=(3, 4),
            n1=(5, 6),
        )
        res = _edit(g, step)
        # K(P u N1, Q u M u N2) on 8 vertices: sides {0,1,5,6} and {2,3,4,7}.
        assert res.edge_count == 16
        assert is_complete_bipartite(res)


class TestNormalize:
    def test_p3_is_already_extremal(self):
        g = path(3)
        final, trace = normalize(g)
        assert final == g
        assert trace == []

    def test_spider(self):
        g = spider()
        final, trace = normalize(g)
        assert is_isomorphic(final, complete_bipartite(4, 3))
        assert 1 <= len(trace) <= 5

    def test_double_star_deletes_center_edge(self):
        g = double_star()
        final, trace = normalize(g)
        assert is_isomorphic(final, complete_bipartite(6, 2))
        assert any(o.edges_removed for o in trace)

    def test_fig1(self, fig1):
        final, trace = normalize(fig1)
        assert is_isomorphic(final, complete_bipartite(13, 8))
        rhos = [trace[0].rho_before] + [o.rho_after for o in trace]
        assert all(b >= a - 1e-10 for a, b in zip(rhos, rhos[1:]))

    def test_case5_tree_reaches_k94(self):
        g = case5_tree()
        final, trace = normalize(g)
        assert is_isomorphic(final, complete_bipartite(9, 4))
        assert all(o.alpha_before == o.alpha_after == 9 for o in trace)
        rhos = [perron(g).rho] + [o.rho_after for o in trace]
        assert all(b >= a - 1e-10 for a, b in zip(rhos, rhos[1:]))

    def test_case5_tree_builds_each_quantity_once(self, monkeypatch):
        from biblock import blocks, independence

        trees, matchings = [], []
        make_tree = blocks.BlockCutTree
        match = independence._hopcroft_karp

        def counted_tree(**fields):
            tree = make_tree(**fields)
            trees.append(tree)
            return tree

        def counted_match(g, left):
            matchings.append(g)
            return match(g, left)

        monkeypatch.setattr(blocks, "BlockCutTree", counted_tree)
        monkeypatch.setattr(independence, "_hopcroft_karp", counted_match)
        g = case5_tree()
        _, trace = normalize(g)
        seen = {g} | {o.result for o in trace}
        assert len(trace) == 4 and len(seen) == 5
        # A tree does not name its graph; each one built must be the
        # tree cached on one of the graphs seen.
        owner = {id(h._blocks): h for h in seen if h._blocks is not None}
        tree_graphs = [owner.get(id(tree)) for tree in trees]
        for built in (tree_graphs, matchings):
            assert len(built) == len(set(built))
            assert set(built) <= seen

    def test_sweep_small(self, biblock_by_k):
        for k in range(2, 8):
            for g in biblock_by_k[k]:
                alpha = alpha_matching(g).alpha
                t = decompose(g)
                bound = (len(t.blocks) - 1) + sum(
                    max(0, len(t.incidence[v]) - 2) for v in range(g.k)
                )
                final, trace = normalize(g)
                assert is_isomorphic(
                    final, complete_bipartite(alpha, g.k - alpha)
                )
                assert len(trace) <= bound
