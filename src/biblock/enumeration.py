"""Isomorph-free enumeration of connected bi-block graphs and the
extremal verification sweep.

B(k) comes from block-cut-tree codes: every class of B(k) has exactly
one code, taken at the centre of its block-cut tree and built from
rooted pieces by multiset recursion on size (as in constant-time
rooted-tree generation, Beyer & Hedetniemi 1980, with free trees taken
by their centre, Wright, Richmond, Odlyzko & McKay 1986).  One Graph is
built per code, so no candidate is canonicalized or thrown away.  Each build asserts what its code states (every label
used once, an edge for each pair its blocks cross, one component)
rather than rebuilding the blocks.

The generator reads each graph's alpha off its code, from independent
set counts tabulated once per piece and branch, so ``verify_theorem``
and ``enumerate_class`` partition B(k) by that value without a
matching.  ``_verify_class`` solves each class's Perron pairs in
batches (``spectral.perron_batch``) and caches each pair on its graph.
One per-class check serves the sweep and a single ``--alpha`` class: it
is structural, reading the maximizer's rows rather than a canonical
form, and gives a report only when that maximizer is unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .errors import (
    EmptyClassError,
    InvalidSizeError,
    TheoremViolationError,
    TooLargeError,
)
from .graphs import (
    CanonicalForm,
    Graph,
    canonical_form,
    is_complete_bipartite,
    is_connected,
)
from .independence import alpha_bounds
from .spectral import perron_batch

# verify-theorem --k 13 (24473 classes) takes about 2.7 s of CPU and
# 53 MB peak RSS on one BLAS thread; each graph keeps only its Perron
# pair.  With the cap raised, k = 14 (80570 classes) takes about 13.4 s
# and 110 MB, and its output is byte-identical to that of a sweep that
# runs alpha_matching and perron graph by graph.
GENERATION_CAP = 13
UNIQUENESS_BAND = 1e-9


def _block_shapes(n: int):
    """(a, b) of every block on at most n vertices: K_{1,1}, or K_{a,b}
    with a, b >= 2.  K_{1,b} with b >= 2 is b blocks, not one."""
    yield 1, 1
    for a in range(2, n - 1):
        for b in range(2, n - a + 1):
            yield a, b


def _multisets(ids_of_size: list[list[int]], total: int, count: int | None = None,
               smallest: int = 1):
    """Sorted tuples of ids whose sizes sum to total, with exactly count
    ids when count is given.

    ``ids_of_size[s]`` lists the ids of size s in increasing order, and
    ids grow with size, so taking sizes in increasing order and
    repetitions by ``combinations_with_replacement`` yields each
    multiset once, already sorted.
    """
    if total == 0:
        if not count:
            yield ()
        return
    if count == 0:
        return
    for s in range(smallest, min(total, len(ids_of_size) - 1) + 1):
        ids = ids_of_size[s]
        for c in range(1, total // s + 1):
            if count is not None and c > count:
                break
            tails = list(_multisets(
                ids_of_size, total - s * c, None if count is None else count - c, s + 1
            ))
            for head in combinations_with_replacement(ids, c):
                for tail in tails:
                    yield head + tail


def _generate(k: int):
    """(Graph, alpha) for each isomorphism class of B(k), from
    block-cut-tree codes.

    A rooted piece at a vertex r is the multiset of branches at r; a
    branch is one block K_{a,b} through r, with r on its a-side, given
    by the pieces hanging at its other a-1 vertices on r's side (near)
    and at its b vertices on the other side (far).  Heights: a bare
    vertex has height 0, a branch 1 + the largest height of its pieces,
    a piece the height of its tallest branch.

    Every leaf of the block-cut tree is a block, so the tree has even
    diameter and one centre node, which is an invariant of the graph:
    - a cut vertex c exactly when at least two branches at c share the
      largest height; the code is the piece at c;
    - a block K_{a,b} (a <= b) exactly when at least two of its
      vertices' pieces share the largest height; the code is the
      multisets of pieces on its two sides, an unordered pair when
      a == b.
    Each class therefore has exactly one code.  Pieces and branches are
    numbered in increasing size, so sorted tuples of ids are canonical
    multisets.  The tables stop at k - 2 vertices, a piece counting its
    root and a branch not: a centre with a larger piece or branch has a
    single tallest one.

    Alpha comes from the same tables.  Each piece and branch carries
    (in, out): the largest independent set of what hangs below its root,
    with the root in the set and with it out (a branch's counts exclude
    the root).  An independent set meets a complete bipartite block on
    one side at most, so over a block with sides one and two it is
    max(sum(one max) + sum(two out), sum(one out) + sum(two max)).  A
    branch has that over near and far as its out, and in =
    sum(near max) + sum(far out), since the far side is r's neighbours.
    A piece has in = 1 + sum(branch in) and out = sum(branch out), and
    its max is the larger.  The centre gives alpha: the max of a cut
    vertex's piece, or the block rule over a block's two sides.
    """
    pieces: list[tuple[int, ...]] = [()]  # piece id -> its branch ids; 0 is bare
    piece_height = [0]
    piece_out = [0]
    piece_max = [1]
    pieces_of_size: list[list[int]] = [[], [0]]  # by vertex count, root included
    branches: list[tuple[tuple[int, ...], tuple[int, ...]]] = []  # (near, far)
    branch_height: list[int] = []
    branch_in: list[int] = []
    branch_out: list[int] = []
    branches_of_size: list[list[int]] = [[]]  # by vertex count, root excluded

    def side(ms: tuple[int, ...]) -> tuple[int, int]:
        """(sum of max, sum of out) over a multiset of piece ids."""
        return sum(piece_max[p] for p in ms), sum(piece_out[p] for p in ms)

    def across(one: tuple[int, int], two: tuple[int, int]) -> int:
        """Largest independent set over a block and what hangs below it,
        given side() of its two sides: the set uses one side at most."""
        return max(one[0] + two[1], one[1] + two[0])

    def piece(ms: tuple[int, ...]) -> tuple[int, int]:
        """(out, max) of the piece with branch ids ms."""
        out = sum(branch_out[x] for x in ms)
        return out, max(1 + sum(branch_in[x] for x in ms), out)

    for s in range(1, k - 1):
        ids = []
        for a, b in _block_shapes(s + 1):
            for near_total in range(a - 1, s - b + 1):
                fars = [(far, side(far)) for far in _multisets(pieces_of_size, s - near_total, b)]
                for near in _multisets(pieces_of_size, near_total, a - 1):
                    near_sums = side(near)
                    for far, far_sums in fars:
                        ids.append(len(branches))
                        branches.append((near, far))
                        branch_height.append(1 + max(piece_height[p] for p in near + far))
                        branch_in.append(near_sums[0] + far_sums[1])
                        branch_out.append(across(near_sums, far_sums))
        branches_of_size.append(ids)
        if s + 1 <= k - 2:
            ids = []
            for ms in _multisets(branches_of_size, s):
                ids.append(len(pieces))
                pieces.append(ms)
                piece_height.append(max(branch_height[x] for x in ms))
                out, best = piece(ms)
                piece_out.append(out)
                piece_max.append(best)
            pieces_of_size.append(ids)

    def build(adj: list[int], free: int, pairs: int,
              todo: list[tuple[int, tuple[int, ...]]]) -> Graph:
        """Hang each (vertex, branch ids) of todo onto adj, labelling new
        vertices from free; adj's blocks so far cross pairs vertex pairs.

        Asserts what the code states of the result: every label
        0..k-1 used once, an edge for each pair the joined blocks
        cross, and one component.
        """
        while todo:
            v, at_v = todo.pop()
            for bid in at_v:
                near, far = branches[bid]
                one = [v, *range(free, free + len(near))]
                two = range(free + len(near), free + len(near) + len(far))
                free = two.stop
                pairs += len(one) * len(two)
                _join(adj, one, two)
                todo.extend((u, pieces[p]) for u, p in zip(one[1:], near))
                todo.extend((u, pieces[p]) for u, p in zip(two, far))
        g = Graph(k, tuple(adj))
        assert free == k and sum(m.bit_count() for m in adj) == 2 * pairs and is_connected(g)
        return g

    def shares_top(heights: list[int]) -> bool:
        return heights.count(max(heights)) >= 2

    for ms in _multisets(branches_of_size, k - 1):
        if shares_top([branch_height[x] for x in ms]):
            yield build([0] * k, 1, 0, [(0, ms)]), piece(ms)[1]
    for a, b in _block_shapes(k):
        if a > b:
            continue
        for a_total in range(a, k - b + 1):
            sides_b = [(ms, side(ms)) for ms in _multisets(pieces_of_size, k - a_total, b)]
            for side_a in _multisets(pieces_of_size, a_total, a):
                a_sums = side(side_a)
                for side_b, b_sums in sides_b:
                    if a == b and side_a > side_b:
                        continue
                    if not shares_top([piece_height[p] for p in side_a + side_b]):
                        continue
                    adj = [0] * k
                    _join(adj, range(a), range(a, a + b))
                    todo = [(u, pieces[p]) for u, p in enumerate(side_a + side_b)]
                    yield build(adj, a + b, a * b, todo), across(a_sums, b_sums)


def _join(adj: list[int], one, two) -> None:
    """Add every edge between the vertex lists one and two."""
    mask_one = sum(1 << u for u in one)
    mask_two = sum(1 << w for w in two)
    for u in one:
        adj[u] |= mask_two
    for w in two:
        adj[w] |= mask_one


def _check_size(k: int) -> None:
    if k < 2:
        raise InvalidSizeError(f"enumeration needs k >= 2, got {k}")
    if k > GENERATION_CAP:
        raise TooLargeError(f"generation capped at k <= {GENERATION_CAP}, got {k}")


def enumerate_biblock(k: int) -> list[Graph]:
    """All connected bi-block graphs on k vertices, one per isomorphism
    class, in the deterministic order of their block-cut-tree codes:
    graphs centred at a cut vertex first, then those centred at a block."""
    _check_size(k)
    return [g for g, _ in _generate(k)]


def biblock_classes(k: int) -> dict[int, list[Graph]]:
    """B(k) partitioned by alpha: each nonempty class B(k, alpha), its
    members in ``enumerate_biblock``'s order, keyed by alpha in
    increasing order.  Alpha is the generator's, read off each code."""
    _check_size(k)
    classes: dict[int, list[Graph]] = {}
    for g, alpha in _generate(k):
        classes.setdefault(alpha, []).append(g)
    return dict(sorted(classes.items()))


def enumerate_class(k: int, alpha: int | None = None) -> list[Graph]:
    """Members of B(k, alpha), or all bi-block graphs on k vertices when
    alpha is None.  Past ``enumerate_biblock``'s size checks, an alpha
    outside ``alpha_bounds(k)`` gives [] without generating B(k)."""
    if alpha is None:
        return enumerate_biblock(k)
    if 2 <= k <= GENERATION_CAP:
        lo, hi = alpha_bounds(k)
        if not lo <= alpha <= hi:
            return []
    return biblock_classes(k).get(alpha, [])


@dataclass(frozen=True)
class ExtremalReport:
    """Outcome of maximizing rho over one class B(k, alpha)."""

    k: int
    alpha: int
    class_size: int
    max_rho: float
    argmax_canonical: CanonicalForm
    is_unique: bool
    runner_up_rho: float | None
    margin: float | None


def _verify_class(k: int, alpha: int, members: list[Graph]) -> ExtremalReport:
    """Maximize rho over the members of B(k, alpha) and check the
    extremal claims.

    The check is structural: the maximizer must be complete bipartite
    with alpha * (k - alpha) edges, on k vertices exactly K_{alpha,
    k-alpha}, with rho sqrt(alpha * (k - alpha)), and any runner-up must
    trail by more than the uniqueness band.  Raises TheoremViolationError
    (carrying the offender) otherwise: every report has ``is_unique`` true.
    """
    if not members:
        raise EmptyClassError(f"B({k}, {alpha}) is empty")
    rhos = perron_batch(members)
    order = sorted(range(len(members)), key=lambda i: rhos[i], reverse=True)
    argmax = members[order[0]]
    max_rho = rhos[order[0]]
    runner_up = rhos[order[1]] if len(members) > 1 else None
    margin = max_rho - runner_up if runner_up is not None else None
    if not (is_complete_bipartite(argmax) and argmax.edge_count == alpha * (k - alpha)):
        raise TheoremViolationError(
            f"argmax of B({k},{alpha}) is not K_{{alpha,k-alpha}}", argmax
        )
    expected = math.sqrt(alpha * (k - alpha))
    if abs(max_rho - expected) >= UNIQUENESS_BAND:
        raise TheoremViolationError(
            f"max rho {max_rho} differs from sqrt(alpha(k-alpha)) = {expected}",
            argmax,
        )
    is_unique = margin is None or margin > UNIQUENESS_BAND
    if not is_unique:
        raise TheoremViolationError(
            f"maximizer of B({k},{alpha}) is not unique (margin {margin})",
            members[order[1]],
        )
    return ExtremalReport(
        k=k,
        alpha=alpha,
        class_size=len(members),
        max_rho=max_rho,
        argmax_canonical=canonical_form(argmax),
        is_unique=is_unique,
        runner_up_rho=runner_up,
        margin=margin,
    )


def verify_theorem(k: int, alpha: int | None = None) -> list[ExtremalReport]:
    """Extremal reports for every nonempty class at this k, or for B(k,
    alpha) alone, which raises ``EmptyClassError`` when it is empty.

    B(k) is enumerated once and partitioned by the generator's alpha,
    one class per report.
    """
    if alpha is not None:
        return [_verify_class(k, alpha, enumerate_class(k, alpha))]
    return [_verify_class(k, a, members) for a, members in biblock_classes(k).items()]
