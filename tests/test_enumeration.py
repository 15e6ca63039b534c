import math

import pytest

from biblock import (
    ClassSpec,
    alpha_bounds,
    alpha_matching,
    canonical_form,
    complete_bipartite,
    enumerate_biblock,
    enumerate_biblock_filtered,
    enumerate_class,
    extremal_verify,
    is_bi_block,
    is_connected,
    is_isomorphic,
    verify_theorem,
)
from biblock.errors import EmptyClassError, InvalidSizeError, TooLargeError
from biblock.graphs import is_bipartite

# Counts frozen from the dual-path cross-validation and regression runs.
KNOWN_COUNTS = {2: 1, 3: 1, 4: 3, 5: 5, 6: 14, 7: 33, 8: 94, 9: 260}


class TestEnumerateBiblock:
    def test_counts_frozen(self, biblock_by_k):
        for k, count in KNOWN_COUNTS.items():
            assert len(biblock_by_k[k]) == count

    def test_k2_single_edge(self, biblock_by_k):
        (g,) = biblock_by_k[2]
        assert is_isomorphic(g, complete_bipartite(1, 1))

    def test_k3_only_the_path(self, biblock_by_k):
        (g,) = biblock_by_k[3]
        assert is_isomorphic(g, complete_bipartite(1, 2))

    def test_no_isomorph_duplicates(self, biblock_by_k):
        for k in range(2, 10):
            forms = [canonical_form(g) for g in biblock_by_k[k]]
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

    def test_sorted_by_canonical_form(self, biblock_by_k):
        for k in (6, 7):
            forms = [canonical_form(g).data for g in biblock_by_k[k]]
            assert forms == sorted(forms)

    def test_size_limits(self):
        with pytest.raises(TooLargeError):
            enumerate_biblock(11)
        with pytest.raises(InvalidSizeError):
            enumerate_biblock(1)


class TestDualPath:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_routes_agree(self, k, biblock_by_k):
        tree_forms = {canonical_form(g) for g in biblock_by_k[k]}
        filter_forms = {canonical_form(g) for g in enumerate_biblock_filtered(k)}
        assert tree_forms == filter_forms

    def test_filter_cap(self):
        with pytest.raises(TooLargeError):
            enumerate_biblock_filtered(8)


class TestEnumerateClass:
    def test_b43_is_exactly_the_star(self):
        members = enumerate_class(ClassSpec(4, 3))
        assert len(members) == 1
        assert is_isomorphic(members[0], complete_bipartite(1, 3))

    def test_b63_contains_k33(self):
        members = enumerate_class(ClassSpec(6, 3))
        assert any(is_isomorphic(g, complete_bipartite(3, 3)) for g in members)

    def test_below_lower_bound_is_empty(self):
        assert enumerate_class(ClassSpec(5, 2)) == []

    def test_b54_is_exactly_the_star(self):
        members = enumerate_class(ClassSpec(5, 4))
        assert len(members) == 1
        assert is_isomorphic(members[0], complete_bipartite(1, 4))

    def test_classes_partition_enumeration(self, biblock_by_k):
        for k in range(2, 8):
            total = sum(
                len(enumerate_class(ClassSpec(k, a)))
                for a in range(alpha_bounds(k)[0], k)
            )
            assert total == len(biblock_by_k[k])


class TestExtremalVerify:
    def test_b64(self):
        rep = extremal_verify(ClassSpec(6, 4))
        assert abs(rep.max_rho - math.sqrt(8)) < 1e-9
        assert rep.argmax_canonical == canonical_form(complete_bipartite(4, 2))
        assert rep.is_unique

    def test_b74(self):
        rep = extremal_verify(ClassSpec(7, 4))
        assert abs(rep.max_rho - math.sqrt(12)) < 1e-9
        assert rep.is_unique
        assert rep.margin is not None and rep.margin > 1e-9

    def test_singleton_class(self):
        rep = extremal_verify(ClassSpec(5, 4))
        assert rep.class_size == 1
        assert abs(rep.max_rho - 2.0) < 1e-9
        assert rep.runner_up_rho is None and rep.margin is None

    def test_empty_class_rejected(self):
        with pytest.raises(EmptyClassError):
            extremal_verify(ClassSpec(5, 2))

    def test_alpha_required(self):
        with pytest.raises(InvalidSizeError):
            extremal_verify(ClassSpec(6, None))


def test_verify_theorem_all_alphas():
    reports = verify_theorem(6)
    assert [r.alpha for r in reports] == [3, 4, 5]
    assert all(r.is_unique or r.class_size == 1 for r in reports)
