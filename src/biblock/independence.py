"""Exact independence numbers and maximum independent sets of bipartite
graphs.

Koenig's identity alpha = k - (maximum matching), with the matching
found by one bitmask augmenting-path search per left vertex.
``alpha_matching`` reads alpha and a Koenig witness off one matching;
``lexmin_witness`` finds the lexicographically smallest maximum set,
which ``normalize`` relies on, by matching induced subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSizeError, NotMaximumError
from .graphs import Graph, _bits, _mask, bipartition


@dataclass(frozen=True)
class AlphaResult:
    """Independence number together with one witnessing maximum set."""

    alpha: int
    witness: frozenset[int]


def alpha_bounds(k: int) -> tuple[int, int]:
    """(ceil(k/2), k-1): the range of alpha over connected bipartite graphs."""
    if k < 2:
        raise InvalidSizeError(f"bounds need k >= 2, got {k}")
    return (k + 1) // 2, k - 1


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
    connected bipartite graph.

    With R the vertices still open and ``need`` = alpha(R), the lowest v of R joins exactly
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
