"""Immutable simple graphs on dense integer labels, with canonical forms.

Vertices are 0..k-1.  Every mutating operation returns a new graph, so a
graph and its rewritten variant can be compared side by side.  Canonical
forms are permutation-invariant keys: two graphs have equal keys exactly
when they are isomorphic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    InvalidSizeError,
    MissingEdgeError,
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
    objects derived from a graph (edge set, canonical form, dense matrix,
    Perron pair, block-cut tree, alpha) are cached in private slots by
    the functions that compute them, each set once and only on success.
    """

    __slots__ = (
        "k", "adj", "_edges", "_canon", "_dense", "_perron", "_blocks", "_alpha"
    )

    def __init__(self, k: int, adj: tuple[int, ...]):
        self.k = k
        self.adj = adj
        self._edges = None
        self._canon = None
        self._dense = None
        self._perron = None
        self._blocks = None
        self._alpha = None

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edge set as sorted pairs (u, v) with u < v."""
        if self._edges is None:
            es = []
            for u in range(self.k):
                m = self.adj[u] >> (u + 1)
                v = u + 1
                while m:
                    if m & 1:
                        es.append((u, v))
                    m >>= 1
                    v += 1
            self._edges = frozenset(es)
        return self._edges

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, u: int) -> tuple[int, ...]:
        self._check_vertex(u)
        return tuple(_bits(self.adj[u]))

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return self.adj[u].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(m.bit_count() for m in self.adj))

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

    def __reduce__(self):
        return (Graph, (self.k, self.adj))


def _bits(mask: int):
    """Set bit positions in ascending order, one step per set bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_edge_list(k: int, pairs) -> Graph:
    """Build a graph on k vertices from explicit edge pairs.

    Raises on out-of-range labels, self-loops, and repeated edges, since
    all three usually indicate a broken fixture rather than intent.
    """
    if k < 1:
        raise InvalidSizeError(f"vertex count must be >= 1, got {k}")
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


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n} with side M = 0..m-1 and side N = m..m+n-1."""
    if m < 1 or n < 1:
        raise InvalidSizeError(f"sides must be >= 1, got ({m}, {n})")
    k = m + n
    n_mask = ((1 << k) - 1) ^ ((1 << m) - 1)
    m_mask = (1 << m) - 1
    adj = tuple(n_mask if u < m else m_mask for u in range(k))
    return Graph(k, adj)


def add_edge(g: Graph, u: int, v: int) -> Graph:
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


def delete_edges(g: Graph, pairs) -> Graph:
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


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component."""
    if g.k == 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for u in _bits(frontier):
            nxt |= g.adj[u]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << g.k) - 1


@dataclass(frozen=True)
class Bipartition:
    """The two sides of a 2-coloring; every edge crosses between them."""

    M: frozenset[int]
    N: frozenset[int]


def bipartition(g: Graph) -> Bipartition:
    """2-color a connected graph by breadth-first layering.

    The side containing vertex 0 is M, which makes the output
    deterministic.  Raises OddCycleError for non-bipartite input and
    DisconnectedError if some vertex is unreachable from 0.
    """
    color = [-1] * g.k
    color[0] = 0
    queue = [0]
    while queue:
        nxt = []
        for u in queue:
            cu = color[u]
            for v in _bits(g.adj[u]):
                if color[v] == -1:
                    color[v] = 1 - cu
                    nxt.append(v)
        queue = nxt
    if -1 in color:
        raise DisconnectedError("graph is not connected")
    for u in range(g.k):
        for v in _bits(g.adj[u]):
            if color[u] == color[v]:
                raise OddCycleError(
                    f"odd cycle: edge ({u}, {v}) joins same-color vertices"
                )
    m = frozenset(u for u in range(g.k) if color[u] == 0)
    n = frozenset(u for u in range(g.k) if color[u] == 1)
    return Bipartition(m, n)


def is_complete_bipartite(g: Graph) -> bool:
    """True iff g is connected and equals K(M, N) for its 2-coloring."""
    if g.k < 2 or not is_connected(g):
        return False
    try:
        bp = bipartition(g)
    except OddCycleError:
        return False
    return g.edge_count == len(bp.M) * len(bp.N)


def is_bipartite(g: Graph) -> bool:
    """True iff g (not necessarily connected) has no odd cycle."""
    color = [-1] * g.k
    for start in range(g.k):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            nxt = []
            for u in queue:
                for v in _bits(g.adj[u]):
                    if color[v] == -1:
                        color[v] = 1 - color[u]
                        nxt.append(v)
                    elif color[v] == color[u]:
                        return False
            queue = nxt
    return True


def relabel(g: Graph, perm) -> Graph:
    """Apply a permutation (old label -> new label) to the vertex set."""
    if sorted(perm) != list(range(g.k)):
        raise InvalidSizeError("perm must be a permutation of 0..k-1")
    adj = [0] * g.k
    for u in range(g.k):
        m = 0
        for v in _bits(g.adj[u]):
            m |= 1 << perm[v]
        adj[perm[u]] = m
    return Graph(g.k, tuple(adj))


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the given vertices, relabeled densely.

    Surviving vertices keep their relative order.  Returns the subgraph
    and the old-to-new label map.
    """
    kept = sorted(set(vertices))
    if not kept:
        raise InvalidSizeError("induced subgraph needs >= 1 vertex")
    for u in kept:
        g._check_vertex(u)
    old_to_new = {u: i for i, u in enumerate(kept)}
    kept_mask = 0
    for u in kept:
        kept_mask |= 1 << u
    adj = []
    for u in kept:
        m = 0
        for v in _bits(g.adj[u] & kept_mask):
            m |= 1 << old_to_new[v]
        adj.append(m)
    return Graph(len(kept), tuple(adj)), old_to_new


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
    if g._canon is None:
        rows = _canonical_rows(g)
        data = bytes([g.k]) + b"".join(r.to_bytes(3, "big") for r in rows)
        g._canon = CanonicalForm(data)
    return g._canon


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism test through canonical forms, with cheap pre-checks."""
    if g.k != h.k or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the text format: first line k, then one 'u v' line per edge.

    Labels are 0-based; anything after '#' on a line is a comment.
    """
    rows = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            rows.append(body)
    if not rows:
        raise InvalidSizeError("empty edge-list input")
    try:
        k = int(rows[0])
    except ValueError:
        raise InvalidSizeError(f"first line must be the vertex count, got {rows[0]!r}")
    pairs = []
    for body in rows[1:]:
        parts = body.split()
        if len(parts) != 2:
            raise InvalidSizeError(f"edge line must be 'u v', got {body!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return from_edge_list(k, pairs)


def format_edge_list(g: Graph) -> str:
    """Serialize to the text format with edges in sorted order."""
    lines = [str(g.k)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def read_edge_list(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_edge_list(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
