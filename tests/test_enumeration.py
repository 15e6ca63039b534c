import gc
import math
import tracemalloc

import numpy as np
import pytest

from biblock import (
    Graph,
    alpha_bounds,
    alpha_matching,
    biblock_classes,
    canonical_form,
    enumerate_biblock,
    enumerate_class,
    from_edge_list,
    is_bi_block,
    is_connected,
    perron,
    perron_batch,
    verify_theorem,
)
from biblock import blocks, enumeration, independence
from biblock.errors import (
    EmptyClassError,
    InvalidSizeError,
    TheoremViolationError,
    TooLargeError,
)
from biblock.graphs import is_bipartite
from conftest import (
    complete_bipartite,
    enumerate_biblock_filtered,
    enumerate_by_attachment,
    is_isomorphic,
    outcome,
)

# Counts frozen from the dual-path cross-validation and regression runs;
# 10..12 from the block-attachment route with canonical-form dedup.
KNOWN_COUNTS = {
    2: 1, 3: 1, 4: 3, 5: 5, 6: 14, 7: 33, 8: 94, 9: 260,
    10: 786, 11: 2394, 12: 7599,
}


@pytest.fixture(scope="module")
def biblock_forms(biblock_by_k):
    """Canonical forms of the generator's output for k = 2..12, in order."""
    by_k = dict(biblock_by_k)
    by_k.update((k, enumerate_biblock(k)) for k in (10, 11, 12))
    return {k: [canonical_form(g) for g in gs] for k, gs in by_k.items()}


@pytest.fixture(scope="module")
def classes_by_k():
    """``biblock_classes(k)`` for k = 2..12."""
    return {k: biblock_classes(k) for k in range(2, 13)}


class TestEnumerateBiblock:
    def test_counts_frozen(self, biblock_forms):
        for k, count in KNOWN_COUNTS.items():
            assert len(biblock_forms[k]) == count

    def test_k2_single_edge(self, biblock_by_k):
        (g,) = biblock_by_k[2]
        assert is_isomorphic(g, complete_bipartite(1, 1))

    def test_k3_only_the_path(self, biblock_by_k):
        (g,) = biblock_by_k[3]
        assert is_isomorphic(g, complete_bipartite(1, 2))

    def test_no_isomorph_duplicates(self, biblock_forms):
        for k in range(2, 13):
            forms = biblock_forms[k]
            assert len(set(forms)) == len(forms)

    def test_emitted_graphs_are_valid(self, biblock_by_k):
        for k in range(2, 9):
            lo, hi = alpha_bounds(k)
            for g in biblock_by_k[k]:
                assert g.k == k
                assert is_connected(g)
                assert is_bipartite(g)
                assert is_bi_block(g)
                assert lo <= alpha_matching(g).alpha <= hi

    def test_size_limits(self):
        with pytest.raises(TooLargeError):
            enumerate_biblock(14)
        with pytest.raises(InvalidSizeError):
            enumerate_biblock(1)


class TestDualPath:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_routes_agree(self, k, biblock_by_k):
        tree_forms = {canonical_form(g) for g in biblock_by_k[k]}
        filter_forms = {canonical_form(g) for g in enumerate_biblock_filtered(k)}
        assert tree_forms == filter_forms

    @pytest.mark.parametrize("k", range(2, 11))
    def test_matches_attachment_route(self, k, biblock_forms):
        assert set(biblock_forms[k]) == set(enumerate_by_attachment(k))

    def test_filter_cap(self):
        with pytest.raises(TooLargeError):
            enumerate_biblock_filtered(8)


class TestEnumerateClass:
    def test_b43_is_exactly_the_star(self):
        members = enumerate_class(4, 3)
        assert len(members) == 1
        assert is_isomorphic(members[0], complete_bipartite(1, 3))

    def test_b63_contains_k33(self):
        members = enumerate_class(6, 3)
        assert any(is_isomorphic(g, complete_bipartite(3, 3)) for g in members)

    def test_below_lower_bound_is_empty(self):
        assert enumerate_class(5, 2) == []

    def test_alpha_out_of_bounds_is_empty_before_generating(self, monkeypatch):
        from biblock import enumeration

        def refuse(k):
            raise AssertionError(f"generated B({k}) for an empty class")

        monkeypatch.setattr(enumeration, "_generate", refuse)
        for k in (2, 7, 13):
            lo, hi = alpha_bounds(k)
            for alpha in (-1, 0, lo - 1, hi + 1, k + 1):
                assert enumerate_class(k, alpha) == []
            with pytest.raises(EmptyClassError, match=rf"^B\({k}, {k}\) is empty$"):
                verify_theorem(k, k)

    @pytest.mark.parametrize("k", [-1, 1, 14])
    def test_size_checks_come_before_the_alpha_bounds(self, k):
        expected = outcome(enumerate_biblock, k)
        assert expected[0] in (InvalidSizeError, TooLargeError)
        for alpha in (-1, 0, 1, k + 1):
            assert outcome(enumerate_class, k, alpha) == expected

    def test_b54_is_exactly_the_star(self):
        members = enumerate_class(5, 4)
        assert len(members) == 1
        assert is_isomorphic(members[0], complete_bipartite(1, 4))

    def test_classes_partition_enumeration(self, biblock_by_k):
        for k in range(2, 8):
            total = sum(
                len(enumerate_class(k, a))
                for a in range(alpha_bounds(k)[0], k)
            )
            assert total == len(biblock_by_k[k])


class TestExtremalVerify:
    """One class B(k, alpha) through ``verify_theorem(k, alpha)``."""

    def test_b64(self):
        rep = verify_theorem(6, 4)[0]
        assert abs(rep.max_rho - math.sqrt(8)) < 1e-9
        assert rep.argmax_canonical == canonical_form(complete_bipartite(4, 2))
        assert rep.is_unique

    def test_b74(self):
        rep = verify_theorem(7, 4)[0]
        assert abs(rep.max_rho - math.sqrt(12)) < 1e-9
        assert rep.is_unique
        assert rep.margin is not None and rep.margin > 1e-9

    def test_singleton_class(self):
        rep = verify_theorem(5, 4)[0]
        assert rep.class_size == 1
        assert abs(rep.max_rho - 2.0) < 1e-9
        assert rep.runner_up_rho is None and rep.margin is None

    def test_empty_class_rejected(self):
        with pytest.raises(EmptyClassError):
            verify_theorem(5, 2)


class TestTheoremVerdict:
    """Each refusal of ``_verify_class`` names its offender in args[1]."""

    def test_argmax_not_complete_bipartite(self):
        p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(TheoremViolationError, match="is not K_") as exc:
            enumeration._verify_class(4, 2, [p4])
        assert exc.value.args[1] is p4

    def test_argmax_complete_bipartite_with_wrong_sides(self):
        star = complete_bipartite(1, 3)
        with pytest.raises(TheoremViolationError, match="is not K_") as exc:
            enumeration._verify_class(4, 2, [star])
        assert exc.value.args[1] is star

    def test_rho_off_the_closed_form(self, monkeypatch):
        solve = enumeration.perron_batch
        monkeypatch.setattr(
            enumeration, "perron_batch", lambda gs: [r + 1e-6 for r in solve(gs)]
        )
        with pytest.raises(TheoremViolationError, match="differs from sqrt") as exc:
            verify_theorem(6, 4)
        assert is_isomorphic(exc.value.args[1], complete_bipartite(4, 2))

    def test_tied_maximizers(self):
        second = complete_bipartite(2, 2)
        with pytest.raises(TheoremViolationError, match="not unique") as exc:
            enumeration._verify_class(4, 2, [complete_bipartite(2, 2), second])
        assert exc.value.args[1] is second

    def test_one_canonical_form_per_class(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return canonical_form(g)

        monkeypatch.setattr(enumeration, "canonical_form", counted)
        reports = verify_theorem(8)
        assert len(calls) == len(reports)


def test_verify_theorem_all_alphas():
    reports = verify_theorem(6)
    assert [r.alpha for r in reports] == [3, 4, 5]
    assert all(r.is_unique or r.class_size == 1 for r in reports)


def test_sweep_keeps_little_per_graph():
    """What alpha and the Perron pair leave cached on each graph of B(10):
    no edge set, dense matrix or canonical form stays alive with it."""
    graphs = enumerate_biblock(10)
    gc.collect()
    tracemalloc.start()
    try:
        for g in graphs:
            alpha_matching(g)
            perron(g)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained / len(graphs) < 1536


def test_batched_sweep_keeps_little_per_graph():
    """What ``perron_batch`` leaves cached on each graph of B(10): a
    Perron pair whose X is a row of its chunk's (n, k) array, with no
    k x k matrix or eigenvector stack kept alive."""
    graphs = enumerate_biblock(10)
    gc.collect()
    tracemalloc.start()
    try:
        perron_batch(graphs)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained / len(graphs) < 1536


class TestGeneratorOracles:
    """The sweep trusts the generator's alpha and a structural check of
    each build; the full computations stay here, over all of B(k)."""

    def test_classes_partition_b_k_in_code_order(self, classes_by_k):
        for k, classes in classes_by_k.items():
            assert list(classes) == sorted(classes)
            position = {g: i for i, g in enumerate(enumerate_biblock(k))}
            order = [[position[g] for g in members] for members in classes.values()]
            assert all(members == sorted(members) for members in order)
            assert sorted(i for members in order for i in members) == list(range(len(position)))

    def test_alpha_from_the_code_is_alpha_matching(self, classes_by_k):
        for k, classes in classes_by_k.items():
            for alpha, members in classes.items():
                for g in members:
                    assert alpha_matching(g).alpha == alpha, (k, g)

    def test_every_build_is_bi_block(self, classes_by_k):
        for classes in classes_by_k.values():
            for members in classes.values():
                assert all(is_bi_block(g) for g in members)

    def test_batched_perron_matches_per_graph(self, classes_by_k):
        for k in range(2, 11):
            for members in classes_by_k[k].values():
                rhos = perron_batch(members)
                for g, rho in zip(members, rhos):
                    fresh = perron(Graph(g.k, g.adj))
                    assert abs(rho - fresh.rho) <= 1e-13 * fresh.rho, (k, g)
                assert all(np.all(perron(g).X > 0) for g in members)

    def test_sweep_never_calls_the_full_checks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the sweep called a full check")

        for mod in (independence, enumeration):
            monkeypatch.setattr(mod, "alpha_matching", refuse, raising=False)
        for mod in (blocks, enumeration):
            monkeypatch.setattr(mod, "is_bi_block", refuse, raising=False)
        assert [r.class_size for r in verify_theorem(10)] == [150, 440, 172, 23, 1]
        assert len(enumerate_class(9, 5)) == 141


class TestBuildCheck:
    """``build`` asserts that its labels, edge count and connectivity are
    what the code states; broken joins must trip it."""

    def test_blocks_sharing_a_label_fail(self, monkeypatch):
        join = enumeration._join

        def overlapping(adj, one, two):
            # A block away from vertex 0 takes label 0 for its last vertex,
            # so it shares that label with a block through vertex 0.
            if 0 not in one:
                two = [*two[:-1], 0]
            join(adj, one, two)

        monkeypatch.setattr(enumeration, "_join", overlapping)
        with pytest.raises(AssertionError):
            enumerate_biblock(6)

    def test_a_dropped_edge_fails(self, monkeypatch):
        join = enumeration._join

        def lossy(adj, one, two):
            join(adj, one, two)
            u, w = one[-1], list(two)[-1]
            if len(one) > 1 and len(two) > 1:
                adj[u] &= ~(1 << w)
                adj[w] &= ~(1 << u)

        monkeypatch.setattr(enumeration, "_join", lossy)
        with pytest.raises(AssertionError):
            enumerate_biblock(6)
