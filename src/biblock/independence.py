"""Exact independence numbers, maximum independent sets, and leaf-block
dichotomy checks.

Production path: Koenig's identity alpha = k - (maximum matching) on
bipartite graphs, with the matching found by Hopcroft-Karp layered
augmentation.  A branch-and-bound search over subsets serves as the
independent oracle for small graphs and for witness tie-breaking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .blocks import decompose, peel_leaf_block
from .errors import (
    InvalidSizeError,
    NotBiBlockError,
    NotMaximumError,
    SingleBlockError,
    TooLargeError,
)
from .graphs import Graph, bipartition, induced_subgraph

BRUTE_FORCE_CAP = 24

CUT_IN_SET = "CutInSet"
CUT_OUT_RESTRICTION_MAXIMAL = "CutOutRestrictionMaximal"
CUT_OUT_RESTRICTION_NOT_MAXIMAL = "CutOutRestrictionNotMaximal"


@dataclass(frozen=True)
class AlphaResult:
    """Independence number together with one witnessing maximum set."""

    alpha: int
    witness: frozenset[int]


@dataclass(frozen=True)
class LeafCase:
    """How a maximum independent set meets a leaf block.

    ``tag`` records whether the cut vertex lies in the set, and if not,
    whether the restriction to the peeled graph is itself maximum there.
    """

    tag: str
    restriction_size: int


def alpha_bounds(k: int) -> tuple[int, int]:
    """(ceil(k/2), k-1): the range of alpha over connected bipartite graphs."""
    if k < 2:
        raise InvalidSizeError(f"bounds need k >= 2, got {k}")
    return (k + 1) // 2, k - 1


# ---------------------------------------------------------------------------
# Matching-based alpha (production path)
# ---------------------------------------------------------------------------


def _hopcroft_karp(g: Graph, left: list[int]) -> dict[int, int]:
    """Maximum matching via BFS layering + DFS augmentation.

    Returns the match map for left vertices only.
    """
    inf = float("inf")
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}
    dist: dict[int, float] = {}

    def bfs() -> bool:
        q = deque()
        for u in left:
            if u not in match_l:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = inf
        found = False
        while q:
            u = q.popleft()
            for w in g.neighbors(u):
                mate = match_r.get(w)
                if mate is None:
                    found = True
                elif dist[mate] == inf:
                    dist[mate] = dist[u] + 1
                    q.append(mate)
        return found

    def dfs(u: int) -> bool:
        for w in g.neighbors(u):
            mate = match_r.get(w)
            if mate is None or (dist[mate] == dist[u] + 1 and dfs(mate)):
                match_l[u] = w
                match_r[w] = u
                return True
        dist[u] = inf
        return False

    while bfs():
        for u in left:
            if u not in match_l:
                dfs(u)
    return match_l


def alpha_matching(g: Graph) -> AlphaResult:
    """Exact alpha of a connected bipartite graph via Koenig's theorem.

    The witness comes from the alternating-path vertex-cover
    construction; it is a valid maximum independent set but not a
    canonical one.  The result is cached on the graph.
    """
    if g._alpha is not None:
        return g._alpha
    bp = bipartition(g)
    left = sorted(bp.M)
    match_l = _hopcroft_karp(g, left)
    match_r = {w: u for u, w in match_l.items()}

    # Alternating reachability from unmatched left vertices.
    reached = set(u for u in left if u not in match_l)
    frontier = list(reached)
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w in reached or match_l.get(u) == w:
                    continue
                reached.add(w)
                mate = match_r.get(w)
                if mate is not None and mate not in reached:
                    reached.add(mate)
                    nxt.append(mate)
        frontier = nxt
    witness = frozenset((bp.M & reached) | (bp.N - reached))
    alpha = g.k - len(match_l)
    assert len(witness) == alpha, "Koenig construction out of balance"
    assert _is_independent(g, witness), "Koenig witness not independent"
    g._alpha = AlphaResult(alpha, witness)
    return g._alpha


def _is_independent(g: Graph, vertices) -> bool:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return all(g.adj[v] & mask == 0 for v in vertices)


# ---------------------------------------------------------------------------
# Branch-and-bound oracle
# ---------------------------------------------------------------------------


class _MisSolver:
    """Maximum-independent-set sizes over vertex subsets of one graph."""

    def __init__(self, g: Graph):
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


def alpha_bruteforce(g: Graph) -> AlphaResult:
    """Exhaustive alpha with the lexicographically smallest witness.

    Independent of the matching path on purpose; capped at 24 vertices.
    """
    if g.k > BRUTE_FORCE_CAP:
        raise TooLargeError(f"brute force capped at {BRUTE_FORCE_CAP}, got k={g.k}")
    solver = _MisSolver(g)
    full = (1 << g.k) - 1
    alpha = solver.size(full)
    chosen: list[int] = []
    remaining = full
    for v in range(g.k):
        if not remaining >> v & 1:
            continue
        rest = remaining & ~solver.closed[v]
        if len(chosen) + 1 + solver.size(rest) == alpha:
            chosen.append(v)
            remaining = rest
        else:
            remaining &= ~(1 << v)
    assert len(chosen) == alpha
    return AlphaResult(alpha, frozenset(chosen))


def maximum_independent_sets(g: Graph) -> list[frozenset[int]]:
    """All maximum independent sets, in lexicographic order of sorted labels."""
    if g.k > BRUTE_FORCE_CAP:
        raise TooLargeError(f"brute force capped at {BRUTE_FORCE_CAP}, got k={g.k}")
    solver = _MisSolver(g)
    full = (1 << g.k) - 1
    alpha = solver.size(full)
    out: list[frozenset[int]] = []

    def rec(mask: int, chosen: list[int]) -> None:
        if len(chosen) == alpha:
            out.append(frozenset(chosen))
            return
        if mask == 0:
            return
        bit = mask & -mask
        v = bit.bit_length() - 1
        take = mask & ~solver.closed[v]
        if len(chosen) + 1 + solver.size(take) == alpha:
            chosen.append(v)
            rec(take, chosen)
            chosen.pop()
        skip = mask ^ bit
        if len(chosen) + solver.size(skip) == alpha:
            rec(skip, chosen)

    rec(full, [])
    return out


# ---------------------------------------------------------------------------
# Leaf-block structure
# ---------------------------------------------------------------------------


def classify_leaf(g: Graph, h_id: int, witness) -> LeafCase:
    """Classify how a maximum independent set meets one leaf block.

    Either the cut vertex is in the set, or the set's restriction to the
    peeled graph is / is not maximum there.
    """
    witness = frozenset(witness)
    t = decompose(g)
    if not _is_independent(g, witness) or len(witness) != alpha_matching(g).alpha:
        raise NotMaximumError("witness is not a maximum independent set")
    peeled, old_to_new = peel_leaf_block(g, h_id)
    blk = t.blocks[h_id]
    (v,) = blk.vertices & t.cut_vertices
    restriction = witness & set(old_to_new)
    if v in witness:
        return LeafCase(CUT_IN_SET, len(restriction))
    alpha_gh = alpha_matching(peeled).alpha
    if len(restriction) == alpha_gh:
        return LeafCase(CUT_OUT_RESTRICTION_MAXIMAL, len(restriction))
    return LeafCase(CUT_OUT_RESTRICTION_NOT_MAXIMAL, len(restriction))


@dataclass(frozen=True)
class LeafDichotomy:
    """One leaf block's entry in the peel-difference report."""

    block_id: int
    m: int
    n: int
    alpha_g: int
    alpha_peeled: int
    difference: int
    holds: bool


@dataclass(frozen=True)
class PropAlphaReport:
    entries: tuple[LeafDichotomy, ...]
    ok: bool


def verify_prop_alpha(g: Graph) -> PropAlphaReport:
    """Check alpha(G) - alpha(G-H) in {m, m-1} for every leaf block H.

    Part sizes are normalized so m >= n.  Any violation flips ``ok``;
    none is ever expected.
    """
    t = decompose(g)
    if len(t.blocks) < 2:
        raise SingleBlockError("peel-difference check needs >= 2 blocks")
    if not all(blk.is_complete_bipartite for blk in t.blocks):
        raise NotBiBlockError("graph has a non-complete-bipartite block")
    alpha_g = alpha_matching(g).alpha
    entries = []
    for bid, blk in enumerate(t.blocks):
        if len(blk.vertices & t.cut_vertices) != 1:
            continue
        peeled, _ = peel_leaf_block(g, bid)
        alpha_gh = alpha_matching(peeled).alpha
        sizes = sorted((len(blk.parts[0]), len(blk.parts[1])), reverse=True)
        m, n = sizes
        diff = alpha_g - alpha_gh
        entries.append(
            LeafDichotomy(
                block_id=bid,
                m=m,
                n=n,
                alpha_g=alpha_g,
                alpha_peeled=alpha_gh,
                difference=diff,
                holds=diff in (m, m - 1),
            )
        )
    return PropAlphaReport(tuple(entries), all(e.holds for e in entries))


@dataclass(frozen=True)
class VertexRemovalReport:
    """Result of the alpha(G) = alpha(G-v) + 1 check for one vertex."""

    applicable: bool
    holds: bool | None
    alpha_g: int
    alpha_without_v: int
    v_in_some_maximum: bool


def verify_lemma_2_1(g: Graph, v: int) -> VertexRemovalReport:
    """Brute-force check of the one-vertex-removal identity.

    When some maximum set contains v and the maximum sets of G-v are not
    maximum in G, removing v must cost exactly one vertex.  Reports
    "not applicable" when the hypotheses fail.
    """
    g._check_vertex(v)
    alpha_g = alpha_bruteforce(g).alpha
    v_in_some = any(v in s for s in maximum_independent_sets(g))
    if g.k == 1:
        return VertexRemovalReport(False, None, alpha_g, 0, v_in_some)
    without, _ = induced_subgraph(g, set(range(g.k)) - {v})
    alpha_without = alpha_bruteforce(without).alpha
    applicable = v_in_some and alpha_without < alpha_g
    holds = (alpha_g == alpha_without + 1) if applicable else None
    return VertexRemovalReport(applicable, holds, alpha_g, alpha_without, v_in_some)
