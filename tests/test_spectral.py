import math
import random

import numpy as np
import pytest

from biblock import (
    Graph,
    check_identities_I,
    check_identities_J,
    decompose,
    from_edge_list,
    is_bi_block,
    perron,
    perron_batch,
)
from biblock.errors import (
    DisconnectedError,
    InvalidSizeError,
    NoConvergenceError,
    NotConstantWithinClassError,
    SizeMismatchError,
)
from biblock.spectral import (
    CLASS_TOL,
    DEFAULT_TOL,
    LeafConfig,
    PerronPair,
    _adjacency_stack,
    two_block_data_from_graph,
)
from conftest import (
    ZeroVectorError,
    add_edge,
    build_two_block,
    complete_bipartite,
    degree_bounds,
    edge_monotonicity_check,
    extract_two_block_data,
    is_isomorphic,
    quad_form_delta,
    random_biblock,
    rayleigh,
    two_block_labeling,
    two_block_rho,
)


def dense(g):
    """g's dense 0/1 adjacency matrix, as the Perron solve builds it."""
    return _adjacency_stack([g], g.k)[0]


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def hypercube(d):
    n = 1 << d
    return from_edge_list(n, [(u, u ^ 1 << b) for u in range(n) for b in range(d) if u < u ^ 1 << b])


def pendant_path(a, k):
    """K_{a,a} on 0..2a-1 with a path from vertex 0 through 2a..k-1."""
    pairs = [(u, v) for u in range(a) for v in range(a, 2 * a)]
    pairs += [(0, 2 * a)] + [(w, w + 1) for w in range(2 * a, k - 1)]
    return from_edge_list(k, pairs)


def assert_pair(pair, rho, x):
    """pair against an oracle: rho within 1e-13 relative, X within 1e-12
    absolute, every entry positive, unit norm and read-only."""
    assert abs(pair.rho - rho) <= 1e-13 * rho
    assert np.max(np.abs(pair.X - x)) <= 1e-12
    assert np.all(pair.X > 0)
    assert abs(np.linalg.norm(pair.X) - 1.0) <= 1e-12
    assert not pair.X.flags.writeable


def dense_oracle(g):
    """rho and |top eigenvector| of g's dense matrix, from numpy's eigh."""
    w, v = np.linalg.eigh(dense(g))
    return w[-1], np.abs(v[:, -1])


class TestPerron:
    @pytest.mark.parametrize("m", range(1, 13))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_complete_bipartite_closed_form(self, m, n):
        if m + n < 2:
            return
        pair = perron(complete_bipartite(m, n))
        assert abs(pair.rho - math.sqrt(m * n)) < 1e-9

    def test_p3(self):
        assert abs(perron(path(3)).rho - math.sqrt(2)) < 1e-12

    def test_eigenvector_positive_unit_norm(self):
        pair = perron(build_two_block(2, 3, 2, 4))
        assert np.all(pair.X > 0)
        assert abs(np.linalg.norm(pair.X) - 1.0) < 1e-12

    def test_residual_contract(self):
        g = build_two_block(3, 2, 2, 5)
        pair = perron(g)
        a = np.zeros((g.k, g.k))
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1.0
        resid = np.max(np.abs(a @ pair.X - pair.rho * pair.X))
        assert resid <= DEFAULT_TOL * (pair.rho + 1)

    def test_two_block_2222(self):
        assert abs(perron(build_two_block(2, 2, 2, 2)).rho - math.sqrt(6)) < 1e-9

    def test_single_vertex_rejected(self):
        with pytest.raises(InvalidSizeError):
            perron(from_edge_list(1, []))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            perron(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_positive_on_k10_10_with_long_pendant_path(self):
        # k = 45; deep along the path the Perron vector decays to about
        # 1e-26, where the eigensolver's raw top eigenvector has entries
        # of either sign; its absolute value must come out positive.
        pair = perron(pendant_path(10, 45))
        assert np.all(pair.X > 0)

    def test_underflowing_entries_on_k30_30_with_long_pendant_path(self):
        # k = 320; far along the path the true entries fall below the
        # smallest double, so the returned vector is floored there.
        g = pendant_path(30, 320)
        pair = perron(g)
        a = dense(g)
        assert np.all(pair.X > 0)
        resid = np.max(np.abs(a @ pair.X + pair.X - (pair.rho + 1) * pair.X))
        assert resid <= DEFAULT_TOL * (pair.rho + 1)
        assert abs(pair.rho - np.linalg.eigvalsh(a)[-1]) <= 1e-12 * pair.rho

    def test_matches_eigvalsh(self, biblock_by_k):
        rng = random.Random(30)
        # Fresh copies: the shared graphs may hold pairs cached by
        # perron_batch.
        graphs = [Graph(g.k, g.adj) for k in sorted(biblock_by_k) for g in biblock_by_k[k]]
        graphs += [random_biblock(rng, k) for k in range(10, 121, 5) for _ in range(3)]
        graphs += [cycle(6), cycle(8), hypercube(3), hypercube(4)]
        graphs += [complete_bipartite(1, b) for b in range(1, 13)]
        graphs += [complete_bipartite(a, a) for a in range(1, 13)]
        graphs += [pendant_path(10, 45), pendant_path(30, 320)]
        for g in graphs:
            assert_pair(perron(g), *dense_oracle(g))

    def test_pair_cached_on_graph(self):
        g = path(5)
        assert perron(g) is perron(g)

    def test_unreachable_tolerance_reports_no_convergence(self, monkeypatch):
        from biblock import spectral

        monkeypatch.setattr(spectral, "DEFAULT_TOL", -1.0)
        with pytest.raises(NoConvergenceError):
            perron(path(3))


class TestPerronBatch:
    def test_matches_perron_in_any_chunking(self, monkeypatch):
        from biblock import spectral

        rng = random.Random(488)
        shapes = [random_biblock(rng, 40) for _ in range(7)]
        expected = [perron(Graph(g.k, g.adj)) for g in shapes]
        for chunk in (1, 3, 512):
            monkeypatch.setattr(spectral, "BATCH_CHUNK", chunk)
            graphs = [Graph(g.k, g.adj) for g in shapes]
            rhos = perron_batch(graphs)
            for g, rho, pair in zip(graphs, rhos, expected):
                assert abs(rho - pair.rho) <= 1e-13 * pair.rho
                assert perron(g).rho == rho
                assert np.max(np.abs(perron(g).X - pair.X)) <= 1e-12
                assert not perron(g).X.flags.writeable

    def test_cached_pairs_are_kept(self):
        # perron and perron_batch solve path(5) by different arithmetic
        # (test_matches_perron_in_any_chunking checks that they agree); a
        # cached pair is returned as it is, not solved again.
        g, h = path(5), path(5)
        pair = perron(g)
        rhos = perron_batch([g, h, g])
        assert perron(g) is pair and rhos[0] == rhos[2] == pair.rho
        assert perron(h).rho == rhos[1]

    def test_mixed_or_too_small_sizes_refused(self):
        with pytest.raises(SizeMismatchError):
            perron_batch([path(3), path(4)])
        with pytest.raises(InvalidSizeError):
            perron_batch([from_edge_list(1, [])])
        assert perron_batch([]) == []


class TestPerronRoutes:
    """perron's two routes: one eigh of B B^T on the smaller side of a
    bipartite graph (TestPerron.test_matches_eigvalsh checks it against
    the dense matrix), and the dense eigh of perron_batch for the rest."""

    def test_solves_on_the_smaller_side_only(self, monkeypatch):
        from biblock import spectral

        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
        monkeypatch.setattr(spectral, "_adjacency_stack", None)
        for g in (path(7), complete_bipartite(5, 3), hypercube(3)):
            perron(g)
        assert shapes == [(3, 3), (3, 3), (4, 4)]

    def test_balanced_block_at_the_size_limit(self):
        pair = perron(complete_bipartite(1500, 1500))
        assert_pair(pair, 1500.0, np.full(3000, 3000 ** -0.5))

    def test_underflowing_pendant_path_at_the_size_limit(self):
        # The entries fall by about rho = 30 per step along the path and
        # pass below the smallest double some 200 steps past vertex 60.
        # So the solution on k = 320 (dense eigh), with every later entry
        # floored, is the solution on k = 3000 to well within rounding.
        g = pendant_path(30, 3000)
        pair = perron(g)
        rho, x = dense_oracle(pendant_path(30, 320))
        tiny = np.finfo(float).tiny
        assert_pair(pair, rho, np.concatenate([np.maximum(x, tiny), np.full(2680, tiny)]))
        assert pair.X.min() == tiny
        u, v = np.array(sorted(g.edges)).T
        ax = np.zeros(g.k)
        np.add.at(ax, u, pair.X[v])
        np.add.at(ax, v, pair.X[u])
        assert np.max(np.abs(ax - pair.rho * pair.X)) <= DEFAULT_TOL * (pair.rho + 1)

    @pytest.mark.parametrize("g", [from_edge_list(3, [(0, 1), (1, 2), (0, 2)]),
                                   from_edge_list(4, [(u, v) for u in range(4) for v in range(u)]),
                                   cycle(5)], ids=["K3", "K4", "C5"])
    def test_non_bipartite_graphs_keep_the_dense_bits(self, g):
        pair = perron(g)
        h = Graph(g.k, g.adj)
        assert perron_batch([h]) == [pair.rho]
        assert perron(h).X.tobytes() == pair.X.tobytes()
        assert not pair.X.flags.writeable

    def test_unreachable_tolerance_reports_no_convergence(self, monkeypatch):
        from biblock import spectral

        monkeypatch.setattr(spectral, "DEFAULT_TOL", -1.0)
        with pytest.raises(NoConvergenceError):
            perron(cycle(3))


class TestRayleigh:
    def test_perron_vector_attains_rho(self):
        g = build_two_block(1, 3, 2, 2)
        pair = perron(g)
        assert abs(rayleigh(g, pair.X) - pair.rho) < 1e-9

    def test_single_edge_all_ones(self):
        assert abs(rayleigh(complete_bipartite(1, 1), [1.0, 1.0]) - 1.0) < 1e-15

    def test_never_exceeds_rho(self):
        rng = random.Random(5)
        for g in (path(6), complete_bipartite(3, 4), build_two_block(2, 2, 3, 1)):
            rho = perron(g).rho
            for _ in range(100):
                x = [rng.uniform(0.01, 1.0) for _ in range(g.k)]
                assert rayleigh(g, x) <= rho + 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            rayleigh(path(3), [0.0, 0.0, 0.0])


class TestTwoBlockRho:
    def test_p3_instance(self):
        assert abs(two_block_rho(1, 1, 1, 1) - math.sqrt(2)) < 1e-15

    def test_star_instance(self):
        # (1,1,1,2) builds the star on four vertices.
        assert abs(two_block_rho(1, 1, 1, 2) - math.sqrt(3)) < 1e-15
        assert abs(perron(complete_bipartite(1, 3)).rho - math.sqrt(3)) < 1e-9

    def test_symmetric_instance(self):
        assert abs(two_block_rho(2, 2, 2, 2) - math.sqrt(6)) < 1e-15

    def test_strictly_above_block_radii(self):
        for p, q, m, n in [(1, 1, 1, 1), (2, 5, 3, 4), (6, 6, 6, 6)]:
            rho = two_block_rho(p, q, m, n)
            assert rho > max(math.sqrt(p * q), math.sqrt(m * n))

    def test_invalid_sizes(self):
        with pytest.raises(InvalidSizeError):
            two_block_rho(0, 1, 1, 1)


class TestBuildTwoBlock:
    def test_smallest_is_p3(self):
        assert is_isomorphic(build_two_block(1, 1, 1, 1), path(3))

    def test_sizes_and_edges(self):
        g = build_two_block(2, 3, 3, 2)
        assert g.k == 9
        assert g.edge_count == 2 * 3 + 3 * 2

    def test_labeling_layout(self):
        lab = two_block_labeling(2, 3, 3, 2)
        assert lab.P == (0, 1)
        assert lab.Q == (2, 3, 4)
        assert lab.v == 4
        assert lab.M == (4, 5, 6)
        assert lab.N == (7, 8)

    @pytest.mark.parametrize("p", range(1, 4))
    @pytest.mark.parametrize("q", range(1, 4))
    @pytest.mark.parametrize("m", range(1, 4))
    @pytest.mark.parametrize("n", range(1, 4))
    def test_block_structure(self, p, q, m, n):
        g = build_two_block(p, q, m, n)
        assert is_bi_block(g)

        def piece_blocks(a, b):
            # K_{a,b} is one block unless it is a star on >= 3 vertices,
            # which shatters into pendant edges.
            if a == 1 and b > 1:
                return b
            if b == 1 and a > 1:
                return a
            return 1

        expected = piece_blocks(p, q) + piece_blocks(m, n)
        assert len(decompose(g).blocks) == expected


class TestExtractTwoBlockData:
    def test_p3_exact_values(self):
        # Perron vector of the path on three vertices is (1, sqrt 2, 1)/2.
        g = build_two_block(1, 1, 1, 1)
        lab = two_block_labeling(1, 1, 1, 1)
        data = extract_two_block_data(g, lab, perron(g))
        assert abs(data.a_p - 0.5) < 1e-9
        assert abs(data.a_n - 0.5) < 1e-9
        assert abs(data.x_v - math.sqrt(2) / 2) < 1e-9

    def test_symmetry_2222(self):
        g = build_two_block(2, 2, 2, 2)
        lab = two_block_labeling(2, 2, 2, 2)
        data = extract_two_block_data(g, lab, perron(g))
        assert abs(data.a_p - data.a_n) < 1e-9
        assert abs(data.a_q - data.a_m) < 1e-9

    @pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (3, 2, 4, 5), (1, 4, 2, 3)])
    def test_cut_vertex_split(self, sizes):
        p, q, m, n = sizes
        g = build_two_block(p, q, m, n)
        lab = two_block_labeling(p, q, m, n)
        data = extract_two_block_data(g, lab, perron(g))
        assert abs(data.x_v - (data.a_q + data.a_m)) < 1e-9

    def test_non_constant_class_rejected(self):
        g = build_two_block(2, 2, 2, 2)
        lab = two_block_labeling(2, 2, 2, 2)
        pair = perron(g)
        x = pair.X.copy()
        x[0] += 1e-3
        fake = PerronPair(pair.rho, x)
        with pytest.raises(NotConstantWithinClassError):
            extract_two_block_data(g, lab, fake)

    def test_from_graph_matches_labeling_route(self):
        g = build_two_block(3, 2, 2, 4)
        lab = two_block_labeling(3, 2, 2, 4)
        pair = perron(g)
        via_lab = extract_two_block_data(g, lab, pair)
        via_graph = two_block_data_from_graph(g)
        assert via_graph is not None
        # Either block may play F; when the other one does, P and N
        # trade places, and so do Q and M.
        sizes = (via_graph.p, via_graph.q, via_graph.m, via_graph.n)
        values = (via_graph.a_p, via_graph.a_q, via_graph.a_m, via_graph.a_n)
        if sizes != (3, 2, 2, 4):
            sizes, values = sizes[::-1], values[::-1]
        assert sizes == (3, 2, 2, 4)
        expected = (via_lab.a_p, via_lab.a_q, via_lab.a_m, via_lab.a_n)
        for got, want in zip(values + (via_graph.x_v,), expected + (via_lab.x_v,)):
            assert abs(got - want) <= CLASS_TOL

    def test_from_graph_none_for_three_blocks(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert two_block_data_from_graph(g) is None


class TestIdentitiesI:
    def test_smallest_instance_i8(self):
        g = build_two_block(1, 1, 1, 1)
        lab = two_block_labeling(1, 1, 1, 1)
        pair = perron(g)
        res = check_identities_I(extract_two_block_data(g, lab, pair), pair.rho)
        # rho^2 = 2: both factors of I8 equal 1.
        assert res["I8"] < 1e-9

    def test_symmetric_instance_i8(self):
        g = build_two_block(2, 2, 2, 2)
        lab = two_block_labeling(2, 2, 2, 2)
        pair = perron(g)
        res = check_identities_I(extract_two_block_data(g, lab, pair), pair.rho)
        assert res["I8"] < 1e-9
        assert abs(pair.rho**2 - 6) < 1e-9

    @pytest.mark.parametrize("sizes", [(1, 1, 1, 1), (1, 6, 6, 1), (4, 3, 2, 5)])
    def test_all_residuals_small(self, sizes):
        g = build_two_block(*sizes)
        lab = two_block_labeling(*sizes)
        pair = perron(g)
        res = check_identities_I(extract_two_block_data(g, lab, pair), pair.rho)
        assert max(res.values()) < 1e-9


class TestIdentitiesJ:
    def test_two_block_2222(self):
        results = check_identities_J(build_two_block(2, 2, 2, 2))
        assert [config for config, _ in results] == [
            LeafConfig(0, 1, 3, 4),
            LeafConfig(1, 0, 3, 2),
        ]
        for _, res in results:
            assert max(res.values()) < 1e-9

    def test_fig1(self, fig1):
        # The K_{4,3} (block 6) and the K_{2,3} (block 7) hang off the
        # K_{3,3} core; the five pendant edges at vertex 1 share their cut
        # vertex, so none of them is a leaf configuration.
        results = check_identities_J(fig1)
        assert [config for config, _ in results] == [
            LeafConfig(6, 0, 4, 3),
            LeafConfig(7, 0, 5, 3),
        ]
        for _, res in results:
            assert max(res.values()) < 1e-9

    def test_three_block_chain(self):
        # K22 - K22 - K22, the middle block holding one cut vertex on
        # each side so its far side offers a non-cut witness vertex.
        g = from_edge_list(
            10,
            [(0, 2), (0, 3), (1, 2), (1, 3), (3, 4), (3, 5), (6, 4), (6, 5),
             (4, 8), (4, 9), (7, 8), (7, 9)],
        )
        results = check_identities_J(g)
        assert [config for config, _ in results] == [
            LeafConfig(0, 1, 3, 6),
            LeafConfig(2, 1, 4, 5),
        ]
        for _, res in results:
            assert max(res.values()) < 1e-9

    def test_all_cut_side_has_no_config(self):
        # Same chain glued so both cut vertices sit on one side of the
        # middle block: every candidate witness vertex is cut.
        g = from_edge_list(
            10,
            [(0, 2), (0, 3), (1, 2), (1, 3), (3, 4), (3, 5), (6, 4), (6, 5),
             (6, 8), (6, 9), (7, 8), (7, 9)],
        )
        assert check_identities_J(g) == []

    def test_pendant_leaf_uses_split_convention(self):
        # H is a pendant edge: b_m is defined through x_v - x_c, and
        # J4 reads rho (x_v - x_c) = n b_n.
        g = add_edge(
            from_edge_list(6, [(u, v) for u in (0, 1) for v in (2, 3, 4)]),
            0, 5,
        )
        results = check_identities_J(g)
        assert [config for config, _ in results] == [LeafConfig(1, 0, 0, 1)]
        for _, res in results:
            assert max(res.values()) < 1e-9
            assert res["xv-split"] < 1e-9

    def test_no_configuration_when_q_all_cut(self):
        # Chain of three pendant edges: middle block's far side is all cut.
        assert check_identities_J(path(4)) == []


class TestDegreeBounds:
    def test_regular_graph(self):
        lo, rho, hi = degree_bounds(complete_bipartite(3, 3))
        assert (lo, hi) == (3, 3)
        assert abs(rho - 3) < 1e-9

    def test_star(self):
        lo, rho, hi = degree_bounds(complete_bipartite(1, 4))
        assert (lo, hi) == (1, 4)
        assert abs(rho - 2) < 1e-9


class TestDenseAdjacency:
    @pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 17, 40])
    def test_matches_has_edge(self, k):
        rng = random.Random(k)
        g = from_edge_list(k, [
            (u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < 0.3
        ])
        a = dense(g)
        assert a.dtype == np.float64 and a.shape == (k, k)
        expected = [[float(g.adj[u] >> v & 1) for v in range(k)] for u in range(k)]
        assert a.tolist() == expected


class TestQuadFormDelta:
    def test_identity_graph_zero(self):
        g = build_two_block(2, 2, 2, 2)
        assert quad_form_delta(g, g, perron(g).X) == 0.0

    def test_single_added_edge_positive(self):
        g = path(4)
        pair = perron(g)
        g_star = add_edge(g, 0, 3)
        delta = quad_form_delta(g, g_star, pair.X)
        assert abs(delta - pair.X[0] * pair.X[3]) < 1e-15
        assert delta > 0

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            quad_form_delta(path(3), path(4), [1.0, 1.0, 1.0])

    def test_matches_dense_quadratic_form(self):
        rng = random.Random(31)
        for _ in range(30):
            k = rng.randint(2, 12)
            g, h = (
                from_edge_list(k, [
                    (u, v) for u in range(k) for v in range(u + 1, k)
                    if rng.random() < 0.4
                ])
                for _ in range(2)
            )
            x = np.array([rng.uniform(0.1, 1.0) for _ in range(k)])
            expected = 0.5 * x @ (dense(h) - dense(g)) @ x
            assert abs(quad_form_delta(g, h, x) - expected) < 1e-12

    def test_subcase32_closed_form_single_instance(self):
        self._check_closed_form(1, 4, 1, 3)

    @staticmethod
    def _check_closed_form(p, q, m, n):
        from biblock import reattach_subcase32

        g = build_two_block(p, q, m, n)
        lab = two_block_labeling(p, q, m, n)
        pair = perron(g)
        data = extract_two_block_data(g, lab, pair)
        t = decompose(g)
        # Pick ids through vertex membership: block ids shatter when a
        # side of the configuration is a singleton.
        f_id = next(i for i, b in enumerate(t.blocks) if lab.P[0] in b.vertices)
        h_id = next(i for i, b in enumerate(t.blocks) if lab.N[0] in b.vertices)
        outcome = reattach_subcase32(g, f_id, h_id)
        anchored = pair.X / data.a_p
        delta = quad_form_delta(g, outcome.result, anchored)
        rho = pair.rho
        closed = (p * (rho**2 - p * q) / (rho * n)) * (
            rho * (q + n - 1) - rho**2 + n * (m - 1)
        )
        assert abs(delta - closed) < 1e-8
        assert delta > 0


class TestEdgeMonotonicity:
    def test_p3_to_triangle(self):
        before, after = edge_monotonicity_check(path(3), 0, 2)
        assert abs(before - math.sqrt(2)) < 1e-9
        assert abs(after - 2.0) < 1e-9

    def test_k23_same_side_pair(self):
        before, after = edge_monotonicity_check(complete_bipartite(2, 3), 0, 1)
        assert after - before > 1e-10
