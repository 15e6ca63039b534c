"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import itertools
import math
import random
import time

import pytest

from biblock import (
    alpha_matching,
    apply_step,
    canonical_form,
    check_identities_I,
    check_identities_J,
    decompose,
    find_applicable,
    normalize,
    perron,
    reattach_subcase32,
    verify_theorem,
)
from conftest import (
    alpha_bruteforce,
    build_two_block,
    complete_bipartite,
    degree_bounds,
    edge_monotonicity_check,
    enumerate_biblock_filtered,
    extract_two_block_data,
    is_isomorphic,
    peel_differences,
    quad_form_delta,
    random_connected_bipartite,
    two_block_labeling,
    two_block_rho,
)

RHO_TOL = 1e-9
RHO_MARGIN = 1e-10
QUAD_TOL = 1e-8


def report(number, text, started):
    print(f"PASS criterion {number}: {text} ({time.time() - started:.1f}s)")


def test_criterion_1_closed_form_consistency():
    started = time.time()
    checked = 0
    for p, q, m, n in itertools.product(range(1, 7), repeat=4):
        closed = two_block_rho(p, q, m, n)
        solved = perron(build_two_block(p, q, m, n)).rho
        assert abs(closed - solved) < RHO_TOL, (p, q, m, n)
        assert closed > max(math.sqrt(p * q), math.sqrt(m * n)), (p, q, m, n)
        checked += 1
    elapsed = time.time() - started
    assert checked == 1296
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s, budget 10s"
    report(1, f"closed-form rho matches the Perron solve on {checked} instances",
           started)


def test_criterion_2_identity_suite(biblock_by_k):
    started = time.time()
    worst_i = 0.0
    for p, q, m, n in itertools.product(range(1, 7), repeat=4):
        g = build_two_block(p, q, m, n)
        pair = perron(g)
        data = extract_two_block_data(g, two_block_labeling(p, q, m, n), pair)
        res = check_identities_I(data, pair.rho)
        worst_i = max(worst_i, max(res.values()))
    assert worst_i < RHO_TOL, worst_i
    worst_j = 0.0
    configs_seen = 0
    for k in range(2, 9):
        for g in biblock_by_k[k]:
            for _, res in check_identities_J(g):
                worst_j = max(worst_j, max(res.values()))
                configs_seen += 1
    assert configs_seen > 0
    assert worst_j < RHO_TOL, worst_j
    report(
        2,
        f"I residuals <= {worst_i:.2e} on 1296 sweeps, "
        f"J residuals <= {worst_j:.2e} on {configs_seen} leaf configs",
        started,
    )


def test_criterion_3_extremal_theorem_desk_scale():
    started = time.time()
    classes = 0
    for k in range(2, 9):
        for rep in verify_theorem(k):
            assert abs(rep.max_rho - math.sqrt(rep.alpha * (k - rep.alpha))) < RHO_TOL
            assert rep.class_size == 1 or (rep.margin is not None and rep.margin > RHO_TOL)
            classes += 1
    small_elapsed = time.time() - started
    assert small_elapsed < 60.0, f"k <= 8 took {small_elapsed:.1f}s, budget 60s"
    nine_started = time.time()
    for rep in verify_theorem(9):
        assert abs(rep.max_rho - math.sqrt(rep.alpha * (9 - rep.alpha))) < RHO_TOL
        assert rep.class_size == 1 or (rep.margin is not None and rep.margin > RHO_TOL)
        classes += 1
    nine_elapsed = time.time() - nine_started
    assert nine_elapsed < 600.0, f"k = 9 took {nine_elapsed:.1f}s, budget 600s"
    report(3, f"max rho uniquely at K(alpha, k-alpha) in {classes} classes, k <= 9",
           started)


def test_criterion_4_independence_oracle_equivalence(biblock_by_k):
    started = time.time()
    checked = 0
    for k in range(2, 10):
        for g in biblock_by_k[k]:
            assert alpha_matching(g).alpha == alpha_bruteforce(g).alpha
            checked += 1
    rng = random.Random(160901)
    for _ in range(1000):
        g = random_connected_bipartite(rng, rng.randint(2, 16))
        assert alpha_matching(g).alpha == alpha_bruteforce(g).alpha
        checked += 1
    report(4, f"matching alpha equals brute-force alpha on {checked} graphs",
           started)


def test_criterion_5_peel_dichotomy(biblock_by_k):
    started = time.time()
    leaves = 0
    for k in range(2, 10):
        for g in biblock_by_k[k]:
            t = decompose(g)
            if len(t.blocks) < 2:
                continue
            entries = peel_differences(g)
            assert all(d in (m, m - 1) for m, d in entries), g
            leaves += len(entries)
    report(5, f"alpha drop on peeling is m or m-1 at all {leaves} leaf blocks",
           started)


def test_criterion_6_rewrite_monotonicity(biblock_by_k):
    started = time.time()
    applied = 0
    for k in range(2, 9):
        for g in biblock_by_k[k]:
            witness = alpha_bruteforce(g).witness
            steps = find_applicable(g, witness)
            if not steps:
                continue
            pair = perron(g)
            for step in steps:
                out = apply_step(g, step)
                assert out.result.k == g.k
                assert out.alpha_after == out.alpha_before
                assert out.delta_rho >= -RHO_MARGIN
                assert quad_form_delta(g, out.result, pair.X) >= -RHO_MARGIN
                applied += 1
    closed_checked = 0
    for p, q, m, n in itertools.product(range(1, 7), repeat=4):
        if not (p < q - 1 and n > m):
            continue
        g = build_two_block(p, q, m, n)
        pair = perron(g)
        data = extract_two_block_data(g, two_block_labeling(p, q, m, n), pair)
        t = decompose(g)
        lab = two_block_labeling(p, q, m, n)
        f_id = next(i for i, b in enumerate(t.blocks) if lab.P[0] in b.vertices)
        h_id = next(i for i, b in enumerate(t.blocks) if lab.N[0] in b.vertices)
        out = reattach_subcase32(g, f_id, h_id)
        delta = quad_form_delta(g, out.result, pair.X / data.a_p)
        rho = pair.rho
        closed = (p * (rho**2 - p * q) / (rho * n)) * (
            rho * (q + n - 1) - rho**2 + n * (m - 1)
        )
        assert abs(delta - closed) < QUAD_TOL, (p, q, m, n)
        closed_checked += 1
    report(
        6,
        f"{applied} rewrite steps preserve k and alpha with monotone rho; "
        f"subcase 3.2 delta matches its closed form on {closed_checked} instances",
        started,
    )


def test_criterion_7_normalization(biblock_by_k):
    started = time.time()
    total_steps = 0
    for k in range(2, 9):
        for g in biblock_by_k[k]:
            alpha = alpha_bruteforce(g).alpha
            t = decompose(g)
            bound = (len(t.blocks) - 1) + sum(
                max(0, len(t.incidence[v]) - 2) for v in range(g.k)
            )
            final, trace = normalize(g)
            assert is_isomorphic(final, complete_bipartite(alpha, k - alpha)), g
            assert len(trace) <= bound, (g, len(trace), bound)
            rhos = [o.rho_before for o in trace] + (
                [trace[-1].rho_after] if trace else []
            )
            for a, b in zip(rhos, rhos[1:]):
                assert b >= a - RHO_MARGIN
            total_steps += len(trace)
    report(7, f"every graph with k <= 8 normalizes to K(alpha, k-alpha) "
              f"({total_steps} steps, rho monotone)", started)


def test_criterion_8_classical_bounds(biblock_by_k):
    started = time.time()
    for k in range(2, 10):
        for g in biblock_by_k[k]:
            lo, rho, hi = degree_bounds(g)
            assert lo - RHO_TOL <= rho <= hi + RHO_TOL
    rng = random.Random(412)
    pool = [g for k in range(3, 9) for g in biblock_by_k[k]]
    sampled = 0
    while sampled < 200:
        g = pool[rng.randrange(len(pool))]
        non_edges = [
            (u, v)
            for u in range(g.k)
            for v in range(u + 1, g.k)
            if not g.adj[u] >> v & 1
        ]
        if not non_edges:
            continue
        u, v = non_edges[rng.randrange(len(non_edges))]
        before, after = edge_monotonicity_check(g, u, v)
        assert after - before > RHO_MARGIN
        sampled += 1
    report(8, "degree bounds hold everywhere; 200 random edge additions "
              "strictly raise rho", started)


def test_criterion_9_dual_path_generation(biblock_by_k):
    started = time.time()
    for k in range(2, 8):
        tree_forms = {canonical_form(g).data for g in biblock_by_k[k]}
        filter_forms = {
            canonical_form(g).data for g in enumerate_biblock_filtered(k)
        }
        assert tree_forms == filter_forms, k
    report(9, "block-tree generator and edge-subset filter agree for k <= 7",
           started)
