import random
from pathlib import Path

import pytest

from biblock import (
    Graph,
    canonical_form,
    complete_bipartite,
    enumerate_biblock,
    from_edge_list,
    is_connected,
    read_edge_list,
)

FIXTURES = Path(__file__).parent / "fixtures"
SCHEMAS = Path(__file__).parent.parent / "schemas"


@pytest.fixture(scope="session")
def fig1():
    return read_edge_list(str(FIXTURES / "fig1.edges"))


@pytest.fixture(scope="session")
def biblock_by_k():
    """Enumerated bi-block graphs keyed by vertex count, shared per run."""
    return {k: enumerate_biblock(k) for k in range(2, 10)}


def random_connected_bipartite(rng: random.Random, k: int):
    """One seeded random connected bipartite graph on k vertices."""
    if k == 1:
        return from_edge_list(1, [])
    while True:
        m = rng.randint(1, k - 1)
        left = list(range(m))
        right = list(range(m, k))
        prob = rng.uniform(0.25, 0.8)
        pairs = [(u, v) for u in left for v in right if rng.random() < prob]
        g = from_edge_list(k, pairs)
        if is_connected(g):
            return g


def random_biblock(rng: random.Random, k: int):
    """One seeded random bi-block graph built by random block attachment."""
    a = rng.randint(1, max(1, k // 2))
    b = rng.randint(1, max(1, k - a))
    if a + b > k:
        a, b = 1, 1
    g = complete_bipartite(a, b)
    while g.k < k:
        budget = k - g.k
        j = rng.randint(1, budget)
        side = rng.randint(1, j)
        g = _attach_block(g, rng.randrange(g.k), side, j - side + 1)
    return g


def _attach_block(g, w: int, a: int, b: int):
    """Glue a new K_{a,b} at vertex w, with w on the a-sized side."""
    j = (a - 1) + b
    adj = list(g.adj) + [0] * j
    m_side = [w] + list(range(g.k, g.k + a - 1))
    n_side = list(range(g.k + a - 1, g.k + a - 1 + b))
    for u in m_side:
        for v in n_side:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(g.k + j, tuple(adj))


def enumerate_by_attachment(k: int) -> dict:
    """Oracle for the block-cut-tree generator: every connected bi-block
    graph on k vertices, keyed by canonical form.

    Grows graphs from each K_{a,b} by gluing one complete bipartite
    block at a time at an existing vertex, deduplicating every
    candidate by canonical form.  It shares no logic with the
    generator's codes.
    """
    results = {}
    seen = set()
    stack = []

    def visit(g):
        c = canonical_form(g)
        if g.k == k:
            results.setdefault(c, g)
        elif c not in seen:
            seen.add(c)
            stack.append(g)

    for a in range(1, k + 1):
        for b in range(a, k - a + 1):
            visit(complete_bipartite(a, b))
    while stack:
        g = stack.pop()
        budget = k - g.k
        for w in range(g.k):
            for j in range(1, budget + 1):
                for a in range(1, j + 1):
                    visit(_attach_block(g, w, a, j - a + 1))
    return results
