"""Immutable simple graphs on dense integer labels, with canonical forms.

Vertices are 0..k-1.  A graph is never changed in place: a rewrite
builds a new one, so a graph and its rewritten variant can be compared
side by side.  Canonical forms are permutation-invariant keys: two
graphs have equal keys exactly when they are isomorphic.
"""

from __future__ import annotations

import io
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, islice

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    InvalidSizeError,
    OddCycleError,
    OutOfRangeError,
    SelfLoopError,
    TooLargeError,
)


class Graph:
    """Simple undirected graph stored as one adjacency bitmask per vertex.

    Instances are immutable and hashable; bit v of ``adj[u]`` is set iff
    uv is an edge.  Construct through :func:`from_edge_list` or the
    shape-specific builders rather than calling this directly.  The
    Perron pair, block-cut tree, alpha and the 2-colouring's side of
    vertex 0 are cached in private slots by the functions that compute
    them, each set once and only on success; the edge set and canonical
    form are built per call.
    """

    __slots__ = ("k", "adj", "_perron", "_blocks", "_alpha", "_left")

    def __init__(self, k: int, adj: tuple[int, ...]):
        self.k = k
        self.adj = adj
        self._perron = None
        self._blocks = None
        self._alpha = None
        self._left = None

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edge set as sorted pairs (u, v) with u < v."""
        return frozenset(
            (u, v) for u in range(self.k) for v in _bits(self.adj[u] & -(2 << u))
        )

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.k:
            raise OutOfRangeError(f"vertex {u} not in 0..{self.k - 1}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.k == other.k
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.k, self.adj))

    def __repr__(self) -> str:
        return f"Graph(k={self.k}, edges={sorted(self.edges)})"


def _bits(mask: int):
    """Set bit positions in ascending order, one step per set bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _edge_diff(g: Graph, h: Graph):
    """Sorted tuples of the edges h adds to g and removes from it, read
    off the bits v > u of each row u that differs; same k assumed."""
    added, removed = [], []
    for u, (old, new) in enumerate(zip(g.adj, h.adj)):
        if old != new:
            above = -(2 << u)
            added.extend((u, v) for v in _bits(new & ~old & above))
            removed.extend((u, v) for v in _bits(old & ~new & above))
    return tuple(added), tuple(removed)


def _mask(vertices) -> int:
    """The bitmask with bit v set for each listed vertex v."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# Largest vertex count a graph may be built with from outside input.  The
# costliest commands make one dense eigensolve, cubic in k: on P_3000
# every command answers, the slowest (rho, identities) in about 5.4 s
# wall on one BLAS thread and 380 MB.
MAX_K = 3000


def _check_vertex_count(k: int) -> None:
    if k < 1:
        raise InvalidSizeError(f"vertex count must be >= 1, got {k}")
    if k > MAX_K:
        raise TooLargeError(f"vertex count capped at k <= {MAX_K}, got {k}")


def from_edge_list(k: int, pairs) -> Graph:
    """Build a graph on k vertices from explicit edge pairs.

    Raises on out-of-range labels, self-loops, and repeated edges, since
    all three usually indicate a broken fixture rather than intent, and
    on k outside 1..MAX_K before allocating anything.
    """
    _check_vertex_count(k)
    adj = [0] * k
    for u, v in pairs:
        if not 0 <= u < k:
            raise OutOfRangeError(f"vertex {u} not in 0..{k - 1}")
        if not 0 <= v < k:
            raise OutOfRangeError(f"vertex {v} not in 0..{k - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if adj[u] >> v & 1:
            raise DuplicateEdgeError(f"edge ({u}, {v}) given twice")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(k, tuple(adj))


def _layers(g: Graph, start: int) -> tuple[int, int, int]:
    """Breadth-first layering from ``start``: ``(component, even, odd)``
    as masks, each layer the OR of the previous layer's rows less the
    vertices already seen, split by the parity of its depth."""
    adj = g.adj
    sides = [1 << start, 0]
    seen = frontier = 1 << start
    layer = 0
    while frontier:
        nxt = 0
        for u in _bits(frontier):
            nxt |= adj[u]
        frontier = nxt & ~seen
        seen |= frontier
        layer ^= 1
        sides[layer] |= frontier
    return seen, sides[0], sides[1]


def _same_side_edge(g: Graph, even: int, odd: int) -> tuple[int, int] | None:
    """The first edge (u, v) with both ends in ``even`` or both in ``odd``,
    smallest u then smallest v, found by AND-ing each row with its own
    side; None when every edge crosses."""
    adj = g.adj
    for u in range(g.k):
        same = adj[u] & (even if even >> u & 1 else odd)
        if same:
            return u, (same & -same).bit_length() - 1
    return None


def is_connected(g: Graph) -> bool:
    """True iff the component ``_layers`` reaches from vertex 0 is all of g."""
    return _layers(g, 0)[0] == (1 << g.k) - 1


@dataclass(frozen=True)
class Bipartition:
    """The two sides of a 2-coloring; every edge crosses between them."""

    M: frozenset[int]
    N: frozenset[int]


def bipartition(g: Graph) -> Bipartition:
    """2-color a connected graph by the breadth-first layering ``_layers``.

    Even layers form M, the side containing vertex 0, which makes the
    output deterministic.  Raises DisconnectedError if some vertex is
    unreachable from 0, else OddCycleError naming the first same-side
    edge (u, v), smallest u then smallest v.
    """
    seen, m, n = _layers(g, 0)
    if seen != (1 << g.k) - 1:
        raise DisconnectedError("graph is not connected")
    edge = _same_side_edge(g, m, n)
    if edge is not None:
        raise OddCycleError(f"odd cycle: edge {edge} joins same-color vertices")
    return Bipartition(frozenset(_bits(m)), frozenset(_bits(n)))


def is_complete_bipartite(g: Graph) -> bool:
    """True iff g is connected and equals K(M, N) for its 2-coloring.

    Compares rows instead of 2-colouring: with N = adj[0] and M its
    complement, g is K(M, N) exactly when N is non-empty, every row of M
    equals N and every row of N equals M.  Production callers:
    ``rewrites`` (``normalize``, ``find_applicable``) and
    ``enumeration._verify_class``, which checks each class's maximizer.
    """
    if g.k < 2:
        return False
    adj = g.adj
    n = adj[0]
    if not n:
        return False
    m = ((1 << g.k) - 1) ^ n
    return all(adj[u] == n for u in _bits(m)) and all(adj[u] == m for u in _bits(n))


def is_bipartite(g: Graph) -> bool:
    """True iff g (not necessarily connected) has no odd cycle: each
    component is layered by ``_layers`` from its lowest vertex, and no
    edge may join two vertices of the same parity."""
    full = (1 << g.k) - 1
    seen = even = odd = 0
    while seen != full:
        unseen = full & ~seen
        component, e, o = _layers(g, (unseen & -unseen).bit_length() - 1)
        seen |= component
        even |= e
        odd |= o
    return _same_side_edge(g, even, odd) is None


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Total-order key equal for two graphs iff they are isomorphic."""

    data: bytes

    def hex(self) -> str:
        return self.data.hex()

    def __repr__(self) -> str:
        return f"CanonicalForm({self.data.hex()})"


def _refine_colors(k: int, nbrs: list[list[int]], colors: list[int]) -> list[int]:
    """Iterated neighborhood refinement until the partition is stable."""
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in nbrs[v])))
            for v in range(k)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _twin_classes(cell: list[int], adj: tuple[int, ...]) -> list[list[int]]:
    """Group cell members whose pairwise swap is an automorphism.

    Non-adjacent twins share an open neighborhood, adjacent twins a
    closed one; either way swapping the pair fixes the rest of the graph.
    """
    open_groups: dict[int, list[int]] = {}
    for u in cell:
        open_groups.setdefault(adj[u], []).append(u)
    classes = [grp for grp in open_groups.values() if len(grp) > 1]
    rest = [grp[0] for grp in open_groups.values() if len(grp) == 1]
    closed_groups: dict[int, list[int]] = {}
    for u in rest:
        closed_groups.setdefault(adj[u] | (1 << u), []).append(u)
    classes.extend(closed_groups.values())
    return classes


def _canonical_rows(g: Graph) -> list[int]:
    """Minimum adjacency bit-rows over all refinement-compatible orders.

    Row i holds the adjacency bits of the i-th placed vertex against the
    previously placed ones, most significant bit first, so comparing row
    lists lexicographically compares the packed upper-triangle bit-string.
    """
    k = g.k
    adj = g.adj
    nbrs = [list(_bits(adj[u])) for u in range(k)]
    colors = _refine_colors(k, nbrs, [len(nbrs[u]) for u in range(k)])
    order_key = sorted(range(k), key=lambda u: (colors[u], u))
    cells: list[list[int]] = []
    for u in order_key:
        if cells and colors[cells[-1][0]] == colors[u]:
            cells[-1].append(u)
        else:
            cells.append([u])
    twin_class_of: dict[int, tuple[int, int]] = {}
    for cell_id, cell in enumerate(cells):
        for cls_id, cls in enumerate(_twin_classes(cell, adj)):
            for u in cls:
                twin_class_of[u] = (cell_id, cls_id)

    best: list[int] | None = None
    placed: list[int] = []
    rows: list[int] = []

    def extend(cell_idx: int, remaining: list[int], tied: bool) -> None:
        nonlocal best
        if cell_idx == len(cells):
            if best is None or rows < best:
                best = rows.copy()
            return
        if not remaining:
            nxt = cells[cell_idx + 1] if cell_idx + 1 < len(cells) else []
            extend(cell_idx + 1, nxt, tied)
            return
        seen_classes = set()
        for u in remaining:
            cls = twin_class_of[u]
            if cls in seen_classes:
                continue
            seen_classes.add(cls)
            row = 0
            au = adj[u]
            for w in placed:
                row = row << 1 | (au >> w & 1)
            now_tied = tied
            if tied and best is not None:
                ref = best[len(placed)]
                # A larger row can never recover: prefixes compare first.
                if row > ref:
                    continue
                now_tied = row == ref
            placed.append(u)
            rows.append(row)
            extend(cell_idx, [w for w in remaining if w != u], now_tied)
            placed.pop()
            rows.pop()

    extend(0, list(cells[0]), True)
    assert best is not None
    return best


CANONICAL_CAP = 25


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical key via refinement plus backtracking over cells.

    Serialized as one byte for k followed by each row packed into three
    bytes, so byte order equals row order.  A row holds at most k - 1
    bits, so three bytes hold it exactly when k <= 25; larger graphs
    raise TooLargeError.
    """
    if g.k > CANONICAL_CAP:
        raise TooLargeError(f"canonical forms capped at k <= {CANONICAL_CAP}, got {g.k}")
    rows = _canonical_rows(g)
    return CanonicalForm(bytes([g.k]) + b"".join(r.to_bytes(3, "big") for r in rows))


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------


# Most lines ``parse_edge_list`` reads and checks as one batch.
_BATCH_LINES = 4096


def _edge_batch(rows: list[str], room: int, k: int, most: int):
    """The two label columns of a batch of lines that may hold at most
    ``room`` edge lines.

    Checks the batch in bulk.  Comments are cut and blank lines dropped,
    so no line holds a '#'; the n lines are joined by " # " and split
    once, and one ``int`` pass reads each of the columns 0 and 1 of every
    three tokens.  Each line is two tokens exactly when there are 3n - 1
    tokens and both passes succeed: ``int`` refuses '#', so the n - 1
    separators then fill the n - 1 places of column 2.  When a check
    fails, one line-by-line scan raises the first error in line order: a
    line past k(k-1)/2 (TooLargeError), a line that is not two tokens
    (InvalidSizeError), or a token ``int`` refuses (ValueError).
    """
    if "#" in "".join(rows):
        rows = [row.split("#", 1)[0] for row in rows]
    rows = list(filter(str.strip, rows))
    tokens = " # ".join(rows).split()
    n = len(rows)
    if n <= room and len(tokens) == 3 * n - 1:
        try:
            return list(map(int, tokens[0::3])), list(map(int, tokens[1::3]))
        except ValueError:
            pass
    us, vs = [], []
    for body in map(str.strip, rows):
        if len(us) == room:
            raise TooLargeError(
                f"more than k(k-1)/2 = {most} edge lines for k = {k}: "
                "no simple graph has more edges"
            )
        parts = body.split()
        if len(parts) != 2:
            raise InvalidSizeError(f"edge line must be 'u v', got {body!r}")
        us.append(int(parts[0]))
        vs.append(int(parts[1]))
    return us, vs


def parse_edge_list(text: str | Iterable[str]) -> Graph:
    """Parse the text format: first line k, then one 'u v' line per edge.

    ``text`` is a string or an iterable of lines such as an open text
    file, read lazily; every line is split again by ``str.splitlines``.
    Labels are 0-based; anything after '#' on a line is a comment, and
    blank lines are skipped.  The vertex count is checked against
    1..MAX_K before any edge line is parsed.  Edge lines are then read
    and checked in batches (``_edge_batch``), each no longer than the
    edge lines still allowed plus one, so reading stops with
    TooLargeError at edge line k(k-1)/2 + 1, since no simple graph on k
    vertices has more edges, and an over-long input is refused without
    being read whole.  ``from_edge_list`` then builds the graph and checks
    every edge, so the errors, and their order, are those of reading line
    by line.
    """
    lines = io.StringIO(text) if isinstance(text, str) else text
    rows = chain.from_iterable(map(str.splitlines, lines))
    for row in rows:
        header = row.split("#", 1)[0].strip()
        if header:
            break
    else:
        raise InvalidSizeError("empty edge-list input")
    try:
        k = int(header)
    except ValueError:
        raise InvalidSizeError(f"first line must be the vertex count, got {header!r}")
    _check_vertex_count(k)
    most = k * (k - 1) // 2
    us: list[int] = []
    vs: list[int] = []
    while batch := list(islice(rows, min(_BATCH_LINES, most + 1 - len(us)))):
        batch_us, batch_vs = _edge_batch(batch, most - len(us), k, most)
        us += batch_us
        vs += batch_vs
    return from_edge_list(k, zip(us, vs))


def format_edge_list(g: Graph) -> str:
    """Serialize to the text format with edges in sorted order."""
    lines = [str(g.k)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def read_edge_list(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh)
