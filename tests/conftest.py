import random
from itertools import combinations
from pathlib import Path

import pytest

from biblock import (
    Graph,
    canonical_form,
    complete_bipartite,
    enumerate_biblock,
    from_edge_list,
    is_bi_block,
    is_connected,
    read_edge_list,
)
from biblock.errors import (
    DisconnectedError,
    InvalidSizeError,
    OddCycleError,
    OrientationMismatchError,
    TooLargeError,
)
from biblock.graphs import Bipartition, relabel

FILTER_CAP = 7

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


def enumerate_biblock_filtered(k: int) -> list:
    """Oracle for the block-cut-tree generator: filter connected
    bipartite edge subsets.

    Every connected bipartite graph has a unique 2-coloring with vertex
    0 on side M, so iterating over (M, edge subset) pairs hits each
    labeled graph exactly once.  Capped low; cost grows as 2^(m*n).
    """
    if k < 2:
        raise InvalidSizeError(f"enumeration needs k >= 2, got {k}")
    if k > FILTER_CAP:
        raise TooLargeError(f"filter route capped at k <= {FILTER_CAP}, got {k}")
    results = {}
    for m_rest in range(1 << (k - 1)):
        m_side = [0] + [v for v in range(1, k) if m_rest >> (v - 1) & 1]
        n_side = [v for v in range(1, k) if not m_rest >> (v - 1) & 1]
        if not n_side:
            continue
        cross = [(u, v) for u in m_side for v in n_side]
        if len(cross) < k - 1:
            continue
        for picks in range(1 << len(cross)):
            if picks.bit_count() < k - 1:
                continue
            adj = [0] * k
            p = picks
            idx = 0
            while p:
                if p & 1:
                    u, v = cross[idx]
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                p >>= 1
                idx += 1
            g = Graph(k, tuple(adj))
            if not is_connected(g) or not is_bi_block(g):
                continue
            results.setdefault(canonical_form(g), g)
    return [results[f] for f in sorted(results)]


# ---------------------------------------------------------------------------
# Oracles for the bitmask structure code: the vertex-by-vertex versions it
# replaced, kept as independent checks.
# ---------------------------------------------------------------------------


def bipartition_bfs(g) -> Bipartition:
    """Oracle for ``graphs.bipartition``: per-vertex colours by BFS, then
    every edge checked in (u, v) order."""
    color = [-1] * g.k
    color[0] = 0
    queue = [0]
    while queue:
        nxt = []
        for u in queue:
            for v in g.neighbors(u):
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    nxt.append(v)
        queue = nxt
    if -1 in color:
        raise DisconnectedError("graph is not connected")
    for u in range(g.k):
        for v in g.neighbors(u):
            if color[u] == color[v]:
                raise OddCycleError(
                    f"odd cycle: edge ({u}, {v}) joins same-color vertices"
                )
    m = frozenset(u for u in range(g.k) if color[u] == 0)
    n = frozenset(u for u in range(g.k) if color[u] == 1)
    return Bipartition(m, n)


def is_bipartite_bfs(g) -> bool:
    """Oracle for ``graphs.is_bipartite``: a per-vertex colour list filled
    by BFS from each uncoloured vertex, failing on the first edge whose
    ends share a colour."""
    color = [-1] * g.k
    for start in range(g.k):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            nxt = []
            for u in queue:
                for v in g.neighbors(u):
                    if color[v] == -1:
                        color[v] = 1 - color[u]
                        nxt.append(v)
                    elif color[v] == color[u]:
                        return False
            queue = nxt
    return True


def is_complete_bipartite_by_count(g) -> bool:
    """Oracle for ``graphs.is_complete_bipartite``: connected, 2-colourable,
    and |M| * |N| edges."""
    if g.k < 2 or not is_connected(g):
        return False
    try:
        bp = bipartition_bfs(g)
    except OddCycleError:
        return False
    return g.edge_count == len(bp.M) * len(bp.N)


def maximum_sets_by_combinations(g) -> list:
    """Oracle for ``independence._MisSolver.walk``: every independent
    vertex set of the largest size that has one, tried with
    ``itertools.combinations`` from size k down, so the sets come in
    lexicographic order of their sorted labels."""
    for size in range(g.k, -1, -1):
        found = [
            frozenset(c)
            for c in combinations(range(g.k), size)
            if all(not g.adj[u] >> w & 1 for u, w in combinations(c, 2))
        ]
        if found:
            return found


def edit_by_edge_list(g, step):
    """Oracle for ``rewrites._edit``: refuse overlapping sides, keep every
    edge with an end outside the region, add all of side1 x side2, and
    rebuild from the edge list."""
    side1, side2 = set(step.side1), set(step.side2)
    if side1 & side2:
        raise OrientationMismatchError(
            f"united sides overlap in {sorted(side1 & side2)}"
        )
    region = side1 | side2
    kept = [(u, w) for u, w in g.edges if u not in region or w not in region]
    cross = [(a, b) for a in sorted(side1) for b in sorted(side2)]
    return from_edge_list(g.k, kept + cross)


def outcome(fn, *args):
    """What a call gives: its value, or its exception type and message."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return type(exc), str(exc)


def structure_cases(rng: random.Random, rounds: int) -> list:
    """Seeded graphs of every shape the structure code must handle: k = 1,
    and per round randomly relabelled connected bipartite, bi-block,
    odd-cycle, random (often disconnected), edgeless, star, K_{a,b} less
    one edge, two disjoint K_{a,b} graphs, and a bipartite component
    holding vertex 0 beside an odd cycle, so that the only odd cycle lies
    away from vertex 0."""

    def shuffled(g):
        perm = list(range(g.k))
        rng.shuffle(perm)
        return relabel(g, perm)

    cases = [from_edge_list(1, [])]
    for _ in range(rounds):
        k = rng.randint(2, 14)
        bip = random_connected_bipartite(rng, k)
        cases += [shuffled(bip), shuffled(random_biblock(rng, k))]
        if k >= 3:
            side = [u for u in range(k) if bip.adj[u] & 1]
            if len(side) >= 2:
                u, v = rng.sample(side, 2)
                cases.append(shuffled(
                    from_edge_list(k, sorted(bip.edges | {(min(u, v), max(u, v))}))
                ))
        p = rng.uniform(0.1, 0.6)
        cases.append(from_edge_list(
            k, [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < p]
        ))
        cases.append(from_edge_list(k, []))
        cases.append(shuffled(complete_bipartite(1, k - 1)))
        a = rng.randint(1, k - 1)
        kab = complete_bipartite(a, k - a)
        cut = rng.choice(sorted(kab.edges))
        cases.append(shuffled(from_edge_list(k, sorted(kab.edges - {cut}))))
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        one = sorted(complete_bipartite(a, b).edges)
        two = one + [(u + a + b, v + a + b) for u, v in one]
        cases.append(shuffled(from_edge_list(2 * (a + b), two)))
        j, c = rng.randint(1, 6), 2 * rng.randint(1, 3) + 1
        ring = [(j + i, j + (i + 1) % c) for i in range(c)]
        keep_0 = [0, *rng.sample(range(1, j + c), j + c - 1)]
        cases.append(relabel(
            from_edge_list(j + c, sorted(random_connected_bipartite(rng, j).edges) + ring),
            keep_0,
        ))
    return cases
