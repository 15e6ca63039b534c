"""Biconnected components, block-cut trees, and bi-block membership.

Standard decomposition semantics throughout: a block is a maximal
subgraph without a cut vertex, so a star splits into pendant-edge
blocks and its center has block index equal to its degree.

One lowpoint DFS gives both each block's edges and its two sides: the
tree edges inside a biconnected component span it, so the parity of DFS
depth 2-colours every block, and a block is complete bipartite exactly
when all its edges cross the two parity classes and it has |A| * |B|
edges.  No block is relabelled or 2-coloured again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedError, OutOfRangeError
from .graphs import Graph, _bits, is_connected


@dataclass(frozen=True)
class Block:
    """A piece of the graph: its vertex set, and both sides when complete
    bipartite.

    ``parts`` is None when the induced subgraph is not complete
    bipartite; otherwise the side containing the smallest vertex label
    comes first.  A Block is one piece of a ``BlockCutTree``: a standard
    block from ``decompose``, or a unit from
    ``rewrites.unit_decomposition``, where a coalesced star is one
    complete bipartite piece spanning several pendant-edge blocks.
    """

    vertices: frozenset[int]
    parts: tuple[frozenset[int], frozenset[int]] | None

    @property
    def is_complete_bipartite(self) -> bool:
        return self.parts is not None

    def side_of(self, v: int) -> frozenset[int]:
        """The part containing v (block must be complete bipartite)."""
        assert self.parts is not None
        if v in self.parts[0]:
            return self.parts[0]
        if v in self.parts[1]:
            return self.parts[1]
        raise KeyError(f"vertex {v} not in block")

    def other_side(self, v: int) -> frozenset[int]:
        assert self.parts is not None
        return self.parts[1] if v in self.parts[0] else self.parts[0]


@dataclass(frozen=True)
class BlockCutTree:
    """Pieces, cut vertices, and their incidence for one connected graph.

    The pieces are either the standard blocks (``decompose``) or the
    star-coalesced units (``rewrites.unit_decomposition``); a cut vertex
    lies in two or more pieces, and ``len(incidence)`` is k.  Holds no
    reference to its graph, which caches the standard tree, so the pair
    is freed without the cycle collector.
    """

    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]
    incidence: dict[int, tuple[int, ...]]


def _biconnected_edge_components(
    g: Graph,
) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """Hopcroft-Tarjan lowpoint DFS returning the edge set of each
    biconnected component and the parity of each vertex's DFS depth.

    A component's tree edges form a subtree that spans all its vertices
    (it hangs from the component's first vertex), so the depth parity is
    a 2-colouring of that subtree; when the component is bipartite it is
    the component's 2-colouring, unique up to swapping the sides.

    The DFS keeps an explicit stack of (vertex, parent, neighbor
    iterator) frames, so its depth is not bounded by the interpreter's
    recursion limit.
    """
    disc = [-1] * g.k
    low = [0] * g.k
    side = [0] * g.k
    edges: list[tuple[int, int]] = []
    comps: list[list[tuple[int, int]]] = []
    disc[0] = low[0] = 0
    timer = 1
    frames = [(0, -1, _bits(g.adj[0]))]
    while frames:
        u, parent, nbrs = frames[-1]
        for v in nbrs:
            if disc[v] == -1:
                edges.append((u, v))
                disc[v] = low[v] = timer
                side[v] = side[u] ^ 1
                timer += 1
                frames.append((v, u, _bits(g.adj[v])))
                break
            if v != parent and disc[v] < disc[u]:
                edges.append((u, v))
                low[u] = min(low[u], disc[v])
        else:
            frames.pop()
            if parent == -1:
                continue
            low[parent] = min(low[parent], low[u])
            if low[u] >= disc[parent]:
                comp = []
                while True:
                    e = edges.pop()
                    comp.append(e)
                    if e == (parent, u):
                        break
                comps.append(comp)
    return comps, side


def _blocks(g: Graph):
    """Yield the Block of each biconnected component of a connected g.

    Sides come from the DFS depth parity; ``parts`` is set only when
    every edge crosses the parity classes and the component has
    |A| * |B| edges.
    """
    comps, side = _biconnected_edge_components(g)
    for comp in comps:
        vs = frozenset(u for e in comp for u in e)
        parts = None
        if all(side[u] != side[v] for u, v in comp):
            first = side[min(vs)]
            near = frozenset(u for u in vs if side[u] == first)
            far = vs - near
            if len(comp) == len(near) * len(far):
                parts = (near, far)
        yield Block(vs, parts)


def _tree(pieces, k: int) -> BlockCutTree:
    """BlockCutTree over pieces that partition the edges of a connected
    graph on k vertices: its standard blocks or its star-coalesced units.

    Pieces are sorted by their vertex sets so ids are reproducible; cut
    vertices are exactly the vertices lying in two or more pieces.
    """
    pieces = sorted(pieces, key=lambda b: tuple(sorted(b.vertices)))
    incidence: dict[int, list[int]] = {v: [] for v in range(k)}
    for bid, blk in enumerate(pieces):
        for v in blk.vertices:
            incidence[v].append(bid)
    return BlockCutTree(
        blocks=tuple(pieces),
        cut_vertices=frozenset(v for v, ids in incidence.items() if len(ids) >= 2),
        incidence={v: tuple(ids) for v, ids in incidence.items()},
    )


def decompose(g: Graph) -> BlockCutTree:
    """Block-cut tree of the standard blocks of a connected graph, cached
    on the graph."""
    if g._blocks is not None:
        return g._blocks
    if not is_connected(g):
        raise DisconnectedError("decompose requires a connected graph")
    g._blocks = _tree(_blocks(g), g.k)
    return g._blocks


def is_bi_block(g: Graph) -> bool:
    """True iff g is connected and every block is complete bipartite.

    Reads the blocks through ``decompose``, so the block-cut tree stays
    cached on g: ``normalize`` checks its input here, and its first
    ``find_applicable`` reads that tree without a second DFS.  The graphs
    its steps reach are not checked here: ``rewrites.apply_step`` derives
    each result's tree from the step and caches it on the result.
    """
    return is_connected(g) and all(b.parts is not None for b in decompose(g).blocks)


def leaf_blocks(t: BlockCutTree) -> list[int]:
    """Ids of blocks containing at most one cut vertex.

    A single-block graph returns its one block.
    """
    if len(t.blocks) == 1:
        return [0]
    out = []
    for bid, blk in enumerate(t.blocks):
        if len(blk.vertices & t.cut_vertices) <= 1:
            out.append(bid)
    return out


def block_by_id(t: BlockCutTree, bid: int) -> Block:
    """Piece bid of t; ids outside 0..len(t.blocks) - 1, negative ones
    included, raise ``OutOfRangeError``, as does any id when t has no
    pieces (a one-vertex graph)."""
    if not t.blocks:
        raise OutOfRangeError(f"block id {bid}: the graph has no blocks")
    if not 0 <= bid < len(t.blocks):
        raise OutOfRangeError(f"block id {bid} not in 0..{len(t.blocks) - 1}")
    return t.blocks[bid]


def leaf_neighbor(t: BlockCutTree, h_id: int) -> tuple[int, int] | None:
    """(f_id, v) when piece h_id holds exactly one cut vertex v and v lies
    in h_id and f_id only, else None."""
    cuts = block_by_id(t, h_id).vertices & t.cut_vertices
    if len(cuts) != 1:
        return None
    (v,) = cuts
    if len(t.incidence[v]) != 2:
        return None
    (f_id,) = (i for i in t.incidence[v] if i != h_id)
    return f_id, v


def to_report(t: BlockCutTree) -> dict:
    """Serializable record of a decomposition (CLI `decompose` payload)."""
    leaves = set(leaf_blocks(t))
    return {
        "k": len(t.incidence),
        "blocks": [
            {
                "id": bid,
                "vertices": sorted(blk.vertices),
                "parts": (
                    [sorted(blk.parts[0]), sorted(blk.parts[1])]
                    if blk.parts is not None
                    else None
                ),
                "is_leaf": bid in leaves,
            }
            for bid, blk in enumerate(t.blocks)
        ],
        "cut_vertices": sorted(t.cut_vertices),
        "block_index": {str(v): len(ids) for v, ids in t.incidence.items()},
    }
