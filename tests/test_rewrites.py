import math
import random
from itertools import product

import pytest

from biblock import (
    Graph,
    alpha_matching,
    apply_step,
    decompose,
    find_applicable,
    from_edge_list,
    is_bi_block,
    is_complete_bipartite,
    leaf_blocks,
    merge_blocks,
    normalize,
    perron,
    read_edge_list,
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
    OutOfRangeError,
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
    _index_reductions,
    _leaf_case_step,
)
from conftest import (
    FIXTURES,
    alpha_bruteforce,
    build_two_block,
    complete_bipartite,
    edit_by_edge_list,
    is_isomorphic,
    outcome,
    quad_form_delta,
    random_biblock,
    two_block_labeling,
)


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def counting_normalize(monkeypatch):
    """A ``normalize`` that also reports the structure work it did: the
    graphs each lowpoint DFS, 2-colouring, matching and block-cut tree
    was built for, the graphs of the witness's matchings of induced
    subgraphs (``_matching`` calls given a vertex mask), the ``_edit``
    calls, the no-op steps it skipped, the ``is_bi_block`` calls, and the
    trees ``apply_step`` derives from its steps.

    Trees are counted where ``decompose`` builds them, through
    ``blocks._tree``; ``rewrites`` holds its own reference to ``_tree``,
    so the unit trees each step builds for its own bookkeeping, and the
    derived trees, are not counted there.  Derived trees are counted
    through ``rewrites._result_tree``."""
    from biblock import blocks, graphs, independence, rewrites

    work = {}

    def per_graph(mod, name, key):
        fn = getattr(mod, name)

        def counted(h, *rest):
            work[key].append(h)
            return fn(h, *rest)

        monkeypatch.setattr(mod, name, counted)

    def per_call(mod, name, key, counts=lambda args, result: 1):
        fn = getattr(mod, name)

        def counted(*args):
            result = fn(*args)
            work[key] += counts(args, result)
            return result

        monkeypatch.setattr(mod, name, counted)

    per_graph(blocks, "_lowpoint_blocks", "dfs")
    per_graph(graphs, "bipartition", "colouring")
    per_graph(independence, "bipartition", "colouring")
    matching = independence._matching

    def counted_matching(h, left, within=-1):
        work["matching" if within == -1 else "witness_query"].append(h)
        return matching(h, left, within)

    monkeypatch.setattr(independence, "_matching", counted_matching)
    make_tree = blocks._tree

    def counted_tree(pieces, k):
        tree = make_tree(pieces, k)
        work["tree"].append(tree)
        return tree

    monkeypatch.setattr(blocks, "_tree", counted_tree)
    derive = rewrites._result_tree

    def counted_derive(t, step):
        tree = derive(t, step)
        work["derived"].append(tree)
        return tree

    monkeypatch.setattr(rewrites, "_result_tree", counted_derive)
    per_call(rewrites, "_edit", "edit")
    per_call(rewrites, "apply_step", "no_op", lambda args, out: out.result == args[0])
    for mod in (blocks, rewrites):
        if hasattr(mod, "is_bi_block"):
            per_call(mod, "is_bi_block", "is_bi_block")

    def run(g):
        work.update(dfs=[], colouring=[], matching=[], witness_query=[], tree=[],
                    derived=[], edit=0, no_op=0, is_bi_block=0)
        _, trace = normalize(g)
        return trace, work

    return run


def assert_structure_built_once(g, trace, work):
    """One lowpoint DFS and one DFS-built tree, both for the input, and
    one tree derived from each applied step, cached on its result; at
    most one 2-colouring and matching per graph seen, at most k witness
    matchings for each graph a step left, one ``is_bi_block`` (the
    input's), and one ``_edit`` per step tried."""
    seen = {g} | {o.result for o in trace}
    assert len(seen) == len(trace) + 1
    assert work["dfs"] == [g]
    # A tree does not name its graph: the one tree ``decompose`` built
    # must be the input's, and each derived one its step's result's.
    assert [id(tree) for tree in work["tree"]] == [id(g._blocks)]
    assert [id(tree) for tree in work["derived"]] == [id(o.result._blocks) for o in trace]
    for key in ("colouring", "matching"):
        built = work[key]
        assert len(built) == len(set(built)), key
        assert set(built) <= seen, key
    stepped = [g, *(o.result for o in trace)][:len(trace)]
    assert set(work["witness_query"]) == set(stepped)
    assert all(work["witness_query"].count(h) <= h.k for h in stepped)
    assert work["is_bi_block"] == 1
    assert work["edit"] == len(trace) + work["no_op"]


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
        units = unit_decomposition(g).blocks
        assert len(units) == 2

    def test_star_coalesces(self):
        units = unit_decomposition(complete_bipartite(1, 5)).blocks
        assert len(units) == 1
        assert frozenset({0}) in units[0].parts

    def test_spider_units(self):
        units = unit_decomposition(spider()).blocks
        # One star at the center plus three leaf edges.
        assert len(units) == 4
        sizes = sorted(len(u.vertices) for u in units)
        assert sizes == [2, 2, 2, 4]

    def test_units_partition_edges(self, biblock_by_k):
        for k in range(2, 8):
            for g in biblock_by_k[k]:
                units = unit_decomposition(g).blocks
                covered = set()
                for u in units:
                    for a in u.parts[0]:
                        for b in u.parts[1]:
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

    def test_fig1_merge_edits_once_and_makes_two_matchings(self, monkeypatch):
        # One edit, whose result the alpha precondition and the
        # postconditions share: one matching for fig1, one for the result.
        from biblock import independence, rewrites

        calls = {"edit": 0, "matching": 0}
        edit, matching = rewrites._edit, independence._matching

        def counted_edit(*args):
            calls["edit"] += 1
            return edit(*args)

        def counted_matching(*args):
            calls["matching"] += 1
            return matching(*args)

        monkeypatch.setattr(rewrites, "_edit", counted_edit)
        monkeypatch.setattr(independence, "_matching", counted_matching)
        out = merge_blocks(read_edge_list(str(FIXTURES / "fig1.edges")), 0, 1)
        assert out.alpha_before == out.alpha_after == 13
        assert calls == {"edit": 1, "matching": 2}

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

    def test_non_neighbors_rejected(self):
        # Far-apart pendant blocks whose star units do not touch either.
        g = path(7)
        t = decompose(g)
        first = next(i for i, b in enumerate(t.blocks) if b.vertices == {0, 1})
        last = next(i for i, b in enumerate(t.blocks) if b.vertices == {5, 6})
        with pytest.raises(NotNeighborsError):
            merge_blocks(g, first, last)

    def test_wrong_case_merge_fails_loudly(self):
        # q > p, n > m, p < q-1: the plain merge changes alpha.  The
        # public op refuses it as a failed precondition before it runs;
        # apply_step's postcondition still refuses the same step.
        g = build_two_block(1, 4, 1, 3)
        t = decompose(g)
        f_id = next(i for i, b in enumerate(t.blocks) if 0 in b.vertices)
        h_id = next(i for i, b in enumerate(t.blocks) if 5 in b.vertices)
        with pytest.raises(PreconditionFailedError, match="alpha 6 -> 4"):
            merge_blocks(g, f_id, h_id)
        step = RewriteStep(MERGE_BLOCKS, "merge", 4, (0, 5, 6, 7), (1, 2, 3, 4))
        with pytest.raises(PostconditionViolationError, match="alpha changed 6 -> 4"):
            apply_step(g, step)

    def test_alpha_changing_merge_is_a_precondition_failure(self):
        # A double star: centres 0 and 1 joined by an edge, leaves 4, 5
        # at 0 and 2, 3 at 1.  Blocks 1 and 3 ({0, 4} and {1, 2}) name
        # the two stars, whose merge K({0, 2, 3}, {1, 4, 5}) has alpha 3.
        g = from_edge_list(6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3)])
        with pytest.raises(PreconditionFailedError, match="alpha 4 -> 3"):
            merge_blocks(g, 1, 3)


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
        before_units = len(unit_decomposition(g).blocks)
        out = split_partition_subcase22(g, f_id, h_id)
        assert out.alpha_after == out.alpha_before
        assert out.delta_rho >= -1e-10
        assert is_bi_block(out.result)
        assert len(unit_decomposition(out.result).blocks) == before_units - 1
        # K(P u N1, Q u M u N2) with P = {2, 3}, Q = {0, 1}, M = {0} and
        # N1 = {4}: the m smallest labels of N = {4, 5}.
        assert (out.step.side1, out.step.side2) == ((2, 3, 4), (0, 1, 5))
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
        assert (out.step.side1, out.step.side2) == ((2, 3, 5), (0, 1, 4))
        assert out.alpha_after == out.alpha_before

    def test_bad_split_rejected(self):
        g = self.split_instance()
        t = decompose(g)
        f_id = next(i for i, b in enumerate(t.blocks) if len(b.vertices) == 4)
        h_id = next(i for i, b in enumerate(t.blocks) if 4 in b.vertices)
        with pytest.raises(BadSplitError):
            split_partition_subcase22(g, f_id, h_id, n1_choice=[4, 5])

    def test_alpha_changing_split_on_fig1_is_refused(self, fig1):
        with pytest.raises(PreconditionFailedError, match="alpha 13 -> 12"):
            split_partition_subcase22(fig1, 0, 1)

    def test_repeated_label_rejected(self):
        # m = 2: a repeated label names one vertex of N, not two.
        g = build_two_block(2, 3, 2, 3)
        with pytest.raises(BadSplitError):
            split_partition_subcase22(g, 0, 1, n1_choice=[6, 6])
        out = split_partition_subcase22(g, 0, 1, n1_choice=[6, 7])
        assert (out.step.side1, out.step.side2) == ((0, 1, 6, 7), (2, 3, 4, 5, 8))

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

    def test_standard_block_pass_gives_the_first_step(self):
        """The graph ``bench/gen.normalize_graphs(35)[247]`` reaches after
        two steps.  The unit-level reductions and leaf steps are empty,
        and the first real edit, the one ``normalize`` applies, is an
        index reduction only the standard-block pass offers; without that
        pass the case-5 swapped reattachment at vertex 6 would apply."""
        g = from_edge_list(17, [
            (0, 6), (0, 10), (0, 16), (1, 12), (2, 6), (2, 14), (2, 15), (3, 4),
            (3, 5), (4, 9), (4, 11), (4, 12), (5, 9), (5, 11), (5, 12), (6, 7),
            (6, 13), (7, 14), (7, 15), (8, 12), (12, 14), (13, 14), (13, 15),
        ])
        witness = self.lex_witness(g)
        u = unit_decomposition(g)
        assert list(_index_reductions(u, witness)) == []
        assert all(_leaf_case_step(g, u, h, witness) is None for h in leaf_blocks(u))
        reduction = RewriteStep(
            REDUCE_BLOCK_INDEX, "block-index reduction", 12, (4, 5, 14), (3, 9, 11, 12)
        )
        assert reduction in _index_reductions(decompose(g), witness)
        real = [s for s in find_applicable(g, witness) if _edit(g, s) != g]
        assert real[0] == reduction
        assert (real[1].case, real[1].cut_vertex) == ("case 5 reattach", 6)
        _, trace = normalize(g)
        assert trace[0].step == reduction

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
    def test_every_proposed_step_matches_edge_list_oracle(self, biblock_by_k):
        kinds = set()
        applied = 0
        for k in range(2, 9):
            for g in biblock_by_k[k]:
                for step in find_applicable(g, alpha_bruteforce(g).witness):
                    assert outcome(_edit, g, step) == outcome(edit_by_edge_list, g, step)
                    kinds.add(step.kind)
                    tag, out = outcome(apply_step, g, step)
                    if tag != "value":
                        continue
                    # Sorted order matters: the JSON trace prints these lists.
                    assert out.edges_added == tuple(sorted(out.result.edges - g.edges))
                    assert out.edges_removed == tuple(sorted(g.edges - out.result.edges))
                    if out.result != g:
                        assert out.result._blocks == dfs_tree(out.result)
                    applied += bool(out.edges_added and out.edges_removed)
        assert kinds == {MERGE_BLOCKS, REATTACH, SPLIT_PARTITION, REDUCE_BLOCK_INDEX}
        assert applied > 0

    def test_overlapping_sides_match_edge_list_oracle(self):
        g = build_two_block(2, 2, 2, 2)
        step = RewriteStep(
            kind=MERGE_BLOCKS,
            case="case 1",
            cut_vertex=3,
            side1=(0, 1, 3, 4),
            side2=(2, 3, 5, 6),
        )
        got = outcome(_edit, g, step)
        assert got == outcome(edit_by_edge_list, g, step)
        assert got[0] is OrientationMismatchError

    @pytest.mark.parametrize("far", [(5, 7), (-1, 5)])
    def test_out_of_range_vertex_refused(self, far):
        g = build_two_block(2, 2, 2, 2)
        step = RewriteStep(
            kind=MERGE_BLOCKS,
            case="case 1",
            cut_vertex=3,
            side1=tuple(sorted((0, 1) + far)),
            side2=(2, 3, 4),
        )
        with pytest.raises(OutOfRangeError):
            apply_step(g, step)

    def test_merge_edit_shape(self):
        g = build_two_block(2, 2, 2, 2)
        step = RewriteStep(
            kind=MERGE_BLOCKS,
            case="case 1",
            cut_vertex=3,
            side1=(0, 1, 5, 6),
            side2=(2, 3, 4),
        )
        res = _edit(g, step)
        assert res.edge_count == 4 * 3

    def test_reattach_edit_shape(self):
        g = build_two_block(1, 4, 1, 3)
        step = RewriteStep(
            kind=REATTACH,
            case="two-block subcase 3.2",
            cut_vertex=4,
            side1=(0, 4),
            side2=(1, 2, 3, 5, 6, 7),
        )
        res = _edit(g, step)
        assert res.edge_count == 2 * 6
        assert not res.adj[0] >> 4 & 1

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
            side1=(0, 1, 5, 6),
            side2=(2, 3, 4, 7),
        )
        res = _edit(g, step)
        # K(P u N1, Q u M u N2) on 8 vertices: sides {0,1,5,6} and {2,3,4,7}.
        assert res.edge_count == 16
        assert is_complete_bipartite(res)


def attached_biblock(rng, k, max_new):
    """A bi-block graph grown as ``bench/gen.py`` grows one: a first
    complete bipartite block, then blocks of 1..max_new new vertices
    glued at one existing vertex, then shuffled labels."""
    first = rng.randint(2, min(k, max_new + 1))
    a = rng.randint(1, first - 1)
    pieces = [(range(a), range(a, first))]
    n = first
    while n < k:
        j = rng.randint(1, min(max_new, k - n))
        a = rng.randint(1, j)
        pieces.append(([rng.randrange(n), *range(n, n + a - 1)], range(n + a - 1, n + j)))
        n += j
    perm = list(range(k))
    rng.shuffle(perm)
    return from_edge_list(
        k, [(perm[u], perm[v]) for near, far in pieces for u in near for v in far]
    )


def dfs_tree(h):
    """h's standard block-cut tree from a lowpoint DFS on an uncached copy."""
    return decompose(Graph(h.k, h.adj))


def assert_trees_derived(g):
    """Normalize g and check each step's derived tree against a fresh DFS."""
    _, trace = normalize(g)
    for o in trace:
        assert o.result._blocks == dfs_tree(o.result)
    return len(trace)


class TestResultTree:
    def test_matches_fresh_dfs_over_small_biblocks(self, biblock_by_k):
        steps = sum(
            assert_trees_derived(g) for k in range(2, 10) for g in biblock_by_k[k]
        )
        assert steps > 800

    def test_matches_fresh_dfs_over_seeded_biblocks(self):
        rng = random.Random(26)
        steps = 0
        for i in range(200):
            k = rng.randint(2, 40)
            steps += assert_trees_derived(attached_biblock(rng, k, (2, 3, k)[i % 3]))
        assert steps > 1000

    def test_single_vertex_side_gives_pendant_edge_blocks(self):
        # No step the proof's cases build has a side of one vertex, but
        # apply_step takes any step: K({1}, {2, 3}) on P_5 is two blocks.
        g = path(5)
        out = apply_step(g, RewriteStep(MERGE_BLOCKS, "hand-made", 2, (1,), (2, 3)))
        assert out.result._blocks == dfs_tree(out.result)
        assert len(out.result._blocks.blocks) == 4

    @pytest.mark.parametrize(
        "k, edges, side1, side2",
        [
            # K({0, 1}, {2, 3}) with the path 0-4-5 hanging from 0: the
            # region holds the edge block 0-4 and cuts the third block,
            # the K_{2,2}, in {0, 1}; the result has a triangle 0-1-2.
            (6, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (4, 5)], (0,), (1, 4)),
            # K({0, 1}, {2, 3}) with edges 2-4 and 3-5: the region cuts
            # the K_{2,2} in {0, 1}, and its blocks' sizes less one still
            # sum to |R| - 1.
            (6, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)], (0, 1), (4, 5)),
            # P_5: no block meets {0, 4} in two vertices, so none is cut,
            # but nothing joins the region up and the edge 0-4 closes a
            # 5-cycle.
            (5, [(0, 1), (1, 2), (2, 3), (3, 4)], (0,), (4,)),
            # P_6: the edge blocks 0-1 and 4-5 hold the region but do not
            # join it up.
            (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], (0, 4), (1, 5)),
            # A 6-cycle with the path 0-6-7-8 hanging from it: the region
            # is the two edge blocks at 7, and the 6-cycle stays.
            (9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 6), (6, 7), (7, 8)],
             (6,), (7, 8)),
            # An empty side removes the edge 0-1 and installs nothing.
            (3, [(0, 1), (1, 2)], (0, 1), ()),
        ],
        ids=["cuts-third-block", "cuts-block-span-matches", "not-joined-p5",
             "not-joined-p6", "kept-block-not-complete-bipartite", "empty-side"],
    )
    def test_step_with_a_non_bi_block_result_is_refused(self, k, edges, side1, side2):
        g = from_edge_list(k, edges)
        step = RewriteStep(MERGE_BLOCKS, "hand-made", side1[0], side1, side2)
        assert not is_bi_block(_edit(g, step))
        with pytest.raises(PostconditionViolationError, match="result is not bi-block"):
            apply_step(g, step)


class TestTargets:
    """Each public op installs the piece the proof names, checked against
    the two-block labels P, Q, M, N rather than the step constructors."""

    @staticmethod
    def complete(k, side1, side2):
        return from_edge_list(k, [(min(a, b), max(a, b)) for a in side1 for b in side2])

    def test_two_block_targets(self):
        answered = {merge_blocks: 0, reattach_subcase32: 0, split_partition_subcase22: 0}
        for p, q, m, n in product(range(1, 5), repeat=4):
            g = build_two_block(p, q, m, n)
            if len(decompose(g).blocks) != 2:
                continue
            lab = two_block_labeling(p, q, m, n)
            P, Q, M, N = map(set, (lab.P, lab.Q, lab.M, lab.N))
            assert P | Q == decompose(g).blocks[0].vertices  # block 0 is F
            n1 = set(sorted(N)[:m])
            targets = {
                merge_blocks: (P | N, Q | M),
                reattach_subcase32: (P | M, (Q - {lab.v}) | N),
                split_partition_subcase22: (P | n1, Q | M | (N - n1)),
            }
            alpha = alpha_matching(g).alpha
            for op, (side1, side2) in targets.items():
                tag, out = outcome(op, g, 0, 1)
                if tag == "value":
                    assert out.result == self.complete(g.k, side1, side2), (op, p, q, m, n)
                    answered[op] += 1
                else:
                    assert tag is PreconditionFailedError, (op, p, q, m, n, out)
                    if "alpha" in out:
                        # K(side1, side2) has alpha max(|side1|, |side2|).
                        assert max(len(side1), len(side2)) != alpha
        assert all(answered.values()), answered


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
        run = counting_normalize(monkeypatch)
        g = case5_tree()
        trace, work = run(g)
        assert len(trace) == 4
        assert_structure_built_once(g, trace, work)
        assert work["no_op"] > 0

    def test_random_biblocks_build_each_quantity_once(self, monkeypatch):
        run = counting_normalize(monkeypatch)
        rng = random.Random(12)
        steps = 0
        for _ in range(20):
            g = random_biblock(rng, rng.randint(12, 20))
            trace, work = run(g)
            assert_structure_built_once(g, trace, work)
            steps += len(trace)
        assert steps > 20

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
