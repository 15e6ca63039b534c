"""Exact independence numbers, maximum independent sets, and leaf-block
dichotomy checks.

Production path: Koenig's identity alpha = k - (maximum matching) on
bipartite graphs, with the matching found by one bitmask augmenting-path
search per left vertex.  ``alpha_matching`` reads alpha and a Koenig
witness off one matching; ``lexmin_witness`` finds the lexicographically
smallest maximum set, which ``normalize`` relies on, by matching induced
subgraphs.  The independent oracle, used only by tests and the paper
checks, is one memoised branch-and-bound solver over vertex subsets,
``_MisSolver``, which refuses graphs above ``BRUTE_FORCE_CAP`` vertices.
Its one lexicographic walk over the maximum sets gives
``alpha_bruteforce`` its witness and ``maximum_independent_sets`` its
list; ``verify_lemma_2_1`` asks the same solver three size queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import decompose, peel_leaf_block
from .errors import (
    InvalidSizeError,
    NotBiBlockError,
    NotMaximumError,
    SingleBlockError,
    TooLargeError,
)
from .graphs import Graph, _bits, _mask, bipartition

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


def _matching(g: Graph, left: int, within: int = -1) -> dict[int, int]:
    """Maximum matching of a bipartite graph whose side ``left`` is a
    bitmask, as {right vertex: left mate}, on the subgraph induced by the
    vertex mask ``within`` (all of g by default).

    One depth-first augmenting-path search per left vertex, in ascending
    order.  Each step takes the lowest free neighbour when there is one,
    else the lowest neighbour this search has not reached, so each vertex
    enters a search at most once.  The path is an explicit list, which
    keeps a path through all k vertices off the recursion limit.

    A failed search leaves the right vertices it reached in ``dead``:
    they are all matched, and the left vertices matched to them have no
    neighbour outside ``dead``, so no later augmenting path can pass
    through them, and each one enters at most one failed search.
    Vertices outside ``within`` start out taken and dead, so no search
    enters them.
    """
    adj = g.adj
    mates: dict[int, int] = {}
    taken = dead = ~within
    for root in _bits(left & within):
        seen = dead
        path = [root]
        via: list[int] = []
        while path:
            row = adj[path[-1]]
            free = row & ~taken
            if free:
                bit = free & -free
                taken |= bit
                via.append(bit.bit_length() - 1)
                mates.update(zip(via, path))
                break
            step = row & ~seen
            if step:
                bit = step & -step
                seen |= bit
                w = bit.bit_length() - 1
                via.append(w)
                path.append(mates[w])
            else:
                path.pop()
                if via:
                    via.pop()
        if not path:
            dead = seen
    return mates


def alpha_matching(g: Graph) -> AlphaResult:
    """Exact alpha of a connected bipartite graph via Koenig's theorem.

    With L the side ``bipartition`` calls M and D_L the left vertices
    some maximum matching leaves free (those reached from a free left
    vertex by an alternating path), the witness is D_L together with the
    right vertices outside N(D_L).  D_L is the same for every maximum
    matching (Dulmage-Mendelsohn), so the witness is a function of the
    graph.  The result is cached on the graph.
    """
    if g._alpha is not None:
        return g._alpha
    left = _left_side(g)
    mates = _matching(g, left)
    reached = frontier = left & ~_mask(mates.values())
    while frontier:
        right = 0
        for u in _bits(frontier):
            right |= g.adj[u]
        right &= ~reached
        frontier = _mask(mates[w] for w in _bits(right))
        reached |= right | frontier
    full = (1 << g.k) - 1
    witness = frozenset(_bits((reached & left) | (full & ~reached & ~left)))
    alpha = g.k - len(mates)
    assert len(witness) == alpha, "Koenig construction out of balance"
    assert _is_independent(g, witness), "Koenig witness not independent"
    g._alpha = AlphaResult(alpha, witness)
    return g._alpha


def _left_side(g: Graph) -> int:
    """The side ``bipartition`` calls M, as a mask cached on g: the alpha
    matching and every witness query match against it."""
    if g._left is None:
        g._left = _mask(bipartition(g).M)
    return g._left


def lexmin_witness(g: Graph) -> frozenset[int]:
    """The lexicographically smallest maximum independent set of a
    connected bipartite graph, the set ``alpha_bruteforce`` returns.

    The rule of ``_MisSolver.walk``'s first set: with R the vertices
    still open and ``need`` = alpha(R), the lowest v of R joins exactly
    when 1 + alpha(R - N[v]) = need, and otherwise no maximum set of R
    holds v, so v leaves R.  Each alpha is |R'| less a maximum matching of
    the subgraph induced on R', so one call makes at most k matchings; a
    v with no neighbour in R joins with none.
    """
    left = _left_side(g)
    need = alpha_matching(g).alpha
    rest = (1 << g.k) - 1
    chosen = 0
    while need:
        bit = rest & -rest
        row = g.adj[bit.bit_length() - 1] & rest
        take = (rest & ~row) ^ bit
        if not row or 1 + take.bit_count() - len(_matching(g, left, take)) == need:
            chosen |= bit
            rest = take
            need -= 1
        else:
            rest ^= bit
    return frozenset(_bits(chosen))


def _is_independent(g: Graph, vertices) -> bool:
    mask = _mask(vertices)
    return all(g.adj[v] & mask == 0 for v in vertices)


def _check_maximum(g: Graph, witness: frozenset[int]) -> None:
    if not _is_independent(g, witness) or len(witness) != alpha_matching(g).alpha:
        raise NotMaximumError("witness is not a maximum independent set")


# ---------------------------------------------------------------------------
# Branch-and-bound oracle
# ---------------------------------------------------------------------------


class _MisSolver:
    """Maximum-independent-set sizes over vertex subsets of one graph of
    at most ``BRUTE_FORCE_CAP`` vertices, and one walk over the maximum
    sets of a subset."""

    def __init__(self, g: Graph):
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


def alpha_bruteforce(g: Graph) -> AlphaResult:
    """Exhaustive alpha with the lexicographically smallest witness.

    The oracle for ``lexmin_witness``, independent of the matching path
    on purpose; capped at 24 vertices.
    """
    solver = _MisSolver(g)
    alpha = solver.size(solver.full)
    first = next(solver.walk(solver.full, alpha))
    return AlphaResult(alpha, frozenset(_bits(first)))


def maximum_independent_sets(g: Graph) -> list[frozenset[int]]:
    """All maximum independent sets, in lexicographic order of sorted labels."""
    solver = _MisSolver(g)
    alpha = solver.size(solver.full)
    return [frozenset(_bits(s)) for s in solver.walk(solver.full, alpha)]


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
    _check_maximum(g, witness)
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
    "not applicable" when the hypotheses fail.  Some maximum set holds v
    exactly when 1 + alpha(G - N[v]) = alpha(G).
    """
    g._check_vertex(v)
    solver = _MisSolver(g)
    alpha_g = solver.size(solver.full)
    v_in_some = 1 + solver.size(solver.full & ~solver.closed[v]) == alpha_g
    if g.k == 1:
        return VertexRemovalReport(False, None, alpha_g, 0, v_in_some)
    alpha_without = solver.size(solver.full ^ (1 << v))
    applicable = v_in_some and alpha_without < alpha_g
    holds = (alpha_g == alpha_without + 1) if applicable else None
    return VertexRemovalReport(applicable, holds, alpha_g, alpha_without, v_in_some)
