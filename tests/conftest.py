import io
import math
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from biblock import (
    AlphaResult,
    Graph,
    alpha_matching,
    canonical_form,
    decompose,
    enumerate_biblock,
    from_edge_list,
    is_bi_block,
    is_connected,
    perron,
    read_edge_list,
)
from biblock.blocks import block_by_id
from biblock.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    InvalidSizeError,
    NotNeighborsError,
    OddCycleError,
    OrientationMismatchError,
    SelfLoopError,
    SizeMismatchError,
    TooLargeError,
)
from biblock.graphs import Bipartition, _check_vertex_count, _edge_diff
from biblock.independence import _check_maximum
from biblock.spectral import TwoBlockEigenData, _two_block_data

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
            for v in neighbors(g, u):
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    nxt.append(v)
        queue = nxt
    if -1 in color:
        raise DisconnectedError("graph is not connected")
    for u in range(g.k):
        for v in neighbors(g, u):
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
                for v in neighbors(g, u):
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
    """Oracle for ``_MisSolver.walk``: every independent
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


def parse_edge_list_by_line(text):
    """Oracle for ``graphs.parse_edge_list``: the line-at-a-time reader it
    replaced.  Each read line is split again with ``str.splitlines``, the
    '#' comments are cut and blank lines skipped; the header is checked,
    then each edge line in turn, and the pairs are built with
    ``from_edge_list``."""
    lines = io.StringIO(text) if isinstance(text, str) else text
    bodies = (
        body
        for chunk in lines
        for line in chunk.splitlines()
        if (body := line.split("#", 1)[0].strip())
    )
    header = next(bodies, None)
    if header is None:
        raise InvalidSizeError("empty edge-list input")
    try:
        k = int(header)
    except ValueError:
        raise InvalidSizeError(f"first line must be the vertex count, got {header!r}")
    _check_vertex_count(k)
    most = k * (k - 1) // 2
    pairs = []
    for body in bodies:
        if len(pairs) == most:
            raise TooLargeError(
                f"more than k(k-1)/2 = {most} edge lines for k = {k}: "
                "no simple graph has more edges"
            )
        parts = body.split()
        if len(parts) != 2:
            raise InvalidSizeError(f"edge line must be 'u v', got {body!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return from_edge_list(k, pairs)


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


# ---------------------------------------------------------------------------
# Graph builders and edits the tests use; the program never needs them.
# ---------------------------------------------------------------------------


class MissingEdgeError(ValueError):
    """An edge scheduled for deletion is not in the graph."""


def neighbors(g, u) -> list:
    """Neighbours of u in ascending order, read off its adjacency row."""
    return [v for v in range(g.k) if g.adj[u] >> v & 1]


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n} with side M = 0..m-1 and side N = m..m+n-1."""
    if m < 1 or n < 1:
        raise InvalidSizeError(f"sides must be >= 1, got ({m}, {n})")
    k = m + n
    n_mask = ((1 << k) - 1) ^ ((1 << m) - 1)
    m_mask = (1 << m) - 1
    return Graph(k, tuple(n_mask if u < m else m_mask for u in range(k)))


def add_edge(g, u: int, v: int) -> Graph:
    """New graph with edge uv added; the original is unchanged."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise SelfLoopError(f"self-loop at vertex {u}")
    if g.adj[u] >> v & 1:
        raise DuplicateEdgeError(f"edge ({u}, {v}) already present")
    adj = list(g.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return Graph(g.k, tuple(adj))


def delete_edges(g, pairs) -> Graph:
    """New graph with every listed edge removed."""
    adj = list(g.adj)
    for u, v in pairs:
        g._check_vertex(u)
        g._check_vertex(v)
        if not adj[u] >> v & 1:
            raise MissingEdgeError(f"edge ({u}, {v}) not present")
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return Graph(g.k, tuple(adj))


def relabel(g, perm) -> Graph:
    """Apply a permutation (old label -> new label) to the vertex set."""
    if sorted(perm) != list(range(g.k)):
        raise InvalidSizeError("perm must be a permutation of 0..k-1")
    adj = [0] * g.k
    for u in range(g.k):
        for v in neighbors(g, u):
            adj[perm[u]] |= 1 << perm[v]
    return Graph(g.k, tuple(adj))


def induced_subgraph(g, vertices) -> tuple:
    """Induced subgraph on the given vertices, relabelled densely in their
    order, and the old-to-new label map."""
    kept = sorted(set(vertices))
    if not kept:
        raise InvalidSizeError("induced subgraph needs >= 1 vertex")
    for u in kept:
        g._check_vertex(u)
    old_to_new = {u: i for i, u in enumerate(kept)}
    adj = [0] * len(kept)
    for u in kept:
        for v in neighbors(g, u):
            if v in old_to_new:
                adj[old_to_new[u]] |= 1 << old_to_new[v]
    return Graph(len(kept), tuple(adj)), old_to_new


def is_isomorphic(g, h) -> bool:
    """Isomorphism test through canonical forms, with cheap pre-checks."""
    if g.k != h.k or g.edge_count != h.edge_count:
        return False
    if sorted(m.bit_count() for m in g.adj) != sorted(m.bit_count() for m in h.adj):
        return False
    return canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# Brute-force oracle for alpha and the maximum independent sets, on
# purpose independent of the program's matchings.
# ---------------------------------------------------------------------------

BRUTE_FORCE_CAP = 24


class _MisSolver:
    """Maximum-independent-set sizes over vertex subsets of one graph of
    at most ``BRUTE_FORCE_CAP`` vertices, and one walk over the maximum
    sets of a subset."""

    def __init__(self, g):
        if g.k > BRUTE_FORCE_CAP:
            raise TooLargeError(f"brute force capped at {BRUTE_FORCE_CAP}, got k={g.k}")
        self.full = (1 << g.k) - 1
        self.adj = g.adj
        self.closed = tuple(g.adj[v] | (1 << v) for v in range(g.k))
        self.memo: dict[int, int] = {}

    def size(self, mask: int) -> int:
        if mask == 0:
            return 0
        cached = self.memo.get(mask)
        if cached is not None:
            return cached
        # Strip vertices isolated within the subset; they always join.
        free = 0
        m = mask
        while m:
            bit = m & -m
            v = bit.bit_length() - 1
            if self.adj[v] & mask == 0:
                free |= bit
            m ^= bit
        if free:
            result = free.bit_count() + self.size(mask ^ free)
            self.memo[mask] = result
            return result
        # All degrees >= 1.  If max degree is 1 the subset is a matching.
        best_v = -1
        best_deg = 0
        m = mask
        while m:
            bit = m & -m
            v = bit.bit_length() - 1
            deg = (self.adj[v] & mask).bit_count()
            if deg > best_deg:
                best_deg = deg
                best_v = v
            m ^= bit
        if best_deg == 1:
            result = mask.bit_count() // 2
            self.memo[mask] = result
            return result
        with_v = 1 + self.size(mask & ~self.closed[best_v])
        without_v = self.size(mask & ~(1 << best_v))
        result = max(with_v, without_v)
        self.memo[mask] = result
        return result

    def walk(self, mask: int, size: int):
        """Maximum independent sets of the subset ``mask``, whose maximum
        is ``size``, as bitmasks in lexicographic order of sorted labels.

        Sets holding the subset's lowest vertex v come first; when none
        does, all lie in mask - v, so that branch needs no second size
        query and the first set costs one size query per vertex.
        """
        if size == 0:
            yield 0
            return
        bit = mask & -mask
        take = mask & ~self.closed[bit.bit_length() - 1]
        if 1 + self.size(take) == size:
            for rest in self.walk(take, size - 1):
                yield bit | rest
            if self.size(mask ^ bit) < size:
                return
        yield from self.walk(mask ^ bit, size)


def _mask_bits(mask: int) -> frozenset:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def alpha_bruteforce(g) -> AlphaResult:
    """Exhaustive alpha with the lexicographically smallest witness: the
    oracle for ``alpha_matching`` and ``lexmin_witness``."""
    solver = _MisSolver(g)
    alpha = solver.size(solver.full)
    return AlphaResult(alpha, _mask_bits(next(solver.walk(solver.full, alpha))))


def maximum_independent_sets(g) -> list:
    """All maximum independent sets, in lexicographic order of sorted labels."""
    solver = _MisSolver(g)
    alpha = solver.size(solver.full)
    return [_mask_bits(s) for s in solver.walk(solver.full, alpha)]


# ---------------------------------------------------------------------------
# The paper's lemmas, checked one by one on given graphs.
# ---------------------------------------------------------------------------


class NotLeafError(Exception):
    """The named block is not a leaf block."""


class SingleBlockError(Exception):
    """The operation needs at least two blocks."""


class PeelResult(NamedTuple):
    graph: Graph
    old_to_new: dict


def peel_leaf_block(g, h_id: int) -> PeelResult:
    """Remove a leaf block except its cut vertex, relabelling densely, and
    the map from surviving labels to new ones."""
    t = decompose(g)
    if len(t.blocks) == 1:
        raise SingleBlockError("cannot peel the only block")
    blk = block_by_id(t, h_id)
    cut_in_block = blk.vertices & t.cut_vertices
    if len(cut_in_block) != 1:
        raise NotLeafError(f"block {h_id} has {len(cut_in_block)} cut vertices")
    keep = (set(range(g.k)) - blk.vertices) | cut_in_block
    return PeelResult(*induced_subgraph(g, keep))


def neighbor_union(g, f_id: int, h_id: int) -> Graph:
    """Induced subgraph on the union of two blocks sharing one vertex."""
    t = decompose(g)
    union = block_by_id(t, f_id).vertices | block_by_id(t, h_id).vertices
    if len(t.blocks[f_id].vertices & t.blocks[h_id].vertices) != 1:
        raise NotNeighborsError(
            f"blocks {f_id} and {h_id} do not share exactly one cut vertex"
        )
    return induced_subgraph(g, union)[0]


CUT_IN_SET = "CutInSet"
CUT_OUT_RESTRICTION_MAXIMAL = "CutOutRestrictionMaximal"
CUT_OUT_RESTRICTION_NOT_MAXIMAL = "CutOutRestrictionNotMaximal"


@dataclass(frozen=True)
class LeafCase:
    """How a maximum independent set meets a leaf block: whether the cut
    vertex lies in the set, and if not, whether the restriction to the
    peeled graph is itself maximum there."""

    tag: str
    restriction_size: int


def classify_leaf(g, h_id: int, witness) -> LeafCase:
    """The leaf-block dichotomy for one maximum independent set."""
    witness = frozenset(witness)
    t = decompose(g)
    _check_maximum(g, witness)
    peeled, old_to_new = peel_leaf_block(g, h_id)
    (v,) = t.blocks[h_id].vertices & t.cut_vertices
    restriction = witness & set(old_to_new)
    if v in witness:
        return LeafCase(CUT_IN_SET, len(restriction))
    if len(restriction) == alpha_matching(peeled).alpha:
        return LeafCase(CUT_OUT_RESTRICTION_MAXIMAL, len(restriction))
    return LeafCase(CUT_OUT_RESTRICTION_NOT_MAXIMAL, len(restriction))


def peel_differences(g) -> list:
    """(m, alpha(G) - alpha(G - H)) for every leaf block H = K_{m,n},
    m >= n, of a bi-block graph of two or more blocks; the proposition
    says each difference is m or m - 1."""
    t = decompose(g)
    assert len(t.blocks) >= 2 and all(b.parts is not None for b in t.blocks)
    alpha_g = alpha_matching(g).alpha
    out = []
    for bid, blk in enumerate(t.blocks):
        if len(blk.vertices & t.cut_vertices) == 1:
            peeled = peel_leaf_block(g, bid).graph
            out.append((max(map(len, blk.parts)), alpha_g - alpha_matching(peeled).alpha))
    return out


def lemma_2_1(g, v: int) -> tuple:
    """Lemma 2.1 by brute force: (applicable, holds, alpha(G), alpha(G - v),
    some maximum set holds v).

    When some maximum set holds v and no maximum set of G - v is maximum
    in G, removing v costs exactly one; ``holds`` is None when the
    hypotheses fail.  Some maximum set holds v exactly when
    1 + alpha(G - N[v]) = alpha(G).
    """
    g._check_vertex(v)
    solver = _MisSolver(g)
    alpha_g = solver.size(solver.full)
    v_in_some = 1 + solver.size(solver.full & ~solver.closed[v]) == alpha_g
    if g.k == 1:
        return False, None, alpha_g, 0, v_in_some
    alpha_without = solver.size(solver.full ^ (1 << v))
    applicable = v_in_some and alpha_without < alpha_g
    holds = (alpha_g == alpha_without + 1) if applicable else None
    return applicable, holds, alpha_g, alpha_without, v_in_some


class ZeroVectorError(ValueError):
    """A vector argument is identically zero."""


def _vector(g, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (g.k,):
        raise SizeMismatchError(f"vector length {x.shape} vs k={g.k}")
    return x


def rayleigh(g, x) -> float:
    """Rayleigh quotient (2 sum over edges of x_u x_w) / sum of squares."""
    x = _vector(g, x)
    denom = float(x @ x)
    if denom == 0.0:
        raise ZeroVectorError("Rayleigh quotient of the zero vector")
    return 2.0 * sum(x[u] * x[v] for u, v in g.edges) / denom


def degree_bounds(g) -> tuple:
    """(min degree, rho, max degree): rho lies between the two."""
    degrees = [m.bit_count() for m in g.adj]
    return min(degrees), perron(g).rho, max(degrees)


def quad_form_delta(g, g_star, x) -> float:
    """(1/2) X^t (A* - A) X, summed over the edges the two graphs differ in."""
    if g.k != g_star.k:
        raise SizeMismatchError(f"vertex counts differ: {g.k} vs {g_star.k}")
    x = _vector(g, x)
    added, removed = _edge_diff(g, g_star)
    return float(
        sum(x[u] * x[v] for u, v in added) - sum(x[u] * x[v] for u, v in removed)
    )


def edge_monotonicity_check(g, u: int, v: int) -> tuple:
    """(rho before, rho after) adding the non-edge uv; rho must rise."""
    return perron(g).rho, perron(add_edge(g, u, v)).rho


# ---------------------------------------------------------------------------
# Two-block configurations K(P,Q)-v-K(M,N) under fixed labels.  Unlike
# ``spectral.two_block_data_from_graph``, which reads the blocks off the
# decomposition, these keep a one-vertex side as one class and fix which
# block plays F.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoBlockLabeling:
    """Labels of K(P,Q)-v-K(M,N): P, then Q with the cut vertex last, then
    M minus the cut vertex, then N."""

    p: int
    q: int
    m: int
    n: int

    @property
    def v(self) -> int:
        return self.p + self.q - 1

    @property
    def P(self) -> tuple:
        return tuple(range(self.p))

    @property
    def Q(self) -> tuple:
        return tuple(range(self.p, self.p + self.q))

    @property
    def M(self) -> tuple:
        return (self.v,) + tuple(range(self.p + self.q, self.p + self.q + self.m - 1))

    @property
    def N(self) -> tuple:
        start = self.p + self.q + self.m - 1
        return tuple(range(start, start + self.n))


def two_block_labeling(p: int, q: int, m: int, n: int) -> TwoBlockLabeling:
    if min(p, q, m, n) < 1:
        raise InvalidSizeError(f"part sizes must be >= 1, got {(p, q, m, n)}")
    return TwoBlockLabeling(p, q, m, n)


def build_two_block(p: int, q: int, m: int, n: int) -> Graph:
    """Two complete bipartite blocks sharing one cut vertex, which lies in
    Q of the first block and M of the second."""
    lab = two_block_labeling(p, q, m, n)
    pairs = [(a, b) for a in lab.P for b in lab.Q]
    pairs += [(a, b) for a in lab.M for b in lab.N]
    return from_edge_list(p + q + m + n - 1, pairs)


def two_block_rho(p: int, q: int, m: int, n: int) -> float:
    """Closed-form spectral radius of the two-block graph."""
    if min(p, q, m, n) < 1:
        raise InvalidSizeError(f"part sizes must be >= 1, got {(p, q, m, n)}")
    pq, mn = p * q, m * n
    return math.sqrt(((pq + mn) + math.sqrt((pq - mn) ** 2 + 4 * p * n)) / 2.0)


def extract_two_block_data(g, labeling: TwoBlockLabeling, pair) -> TwoBlockEigenData:
    """The constant per-class eigenvector values under the labeling."""
    lab = labeling
    if g.k != lab.p + lab.q + lab.m + lab.n - 1:
        raise SizeMismatchError("graph does not match the labeling")
    return _two_block_data(pair.X, pair.rho, lab.P, lab.Q, lab.M, lab.N, lab.v)
