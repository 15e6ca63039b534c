"""Biconnected components, block-cut trees, and bi-block membership.

Standard decomposition semantics throughout: a block is a maximal
subgraph without a cut vertex, so a star splits into pendant-edge
blocks and its center has block index equal to its degree.

One lowpoint DFS on the bit rows (``_lowpoint_blocks``) gives each
block's vertices and its two sides, and checks connectivity: the tree
edges inside a biconnected component span it, so the parity of DFS depth
2-colours every block, and a block is complete bipartite exactly when no
edge joins two vertices of one parity class and it has |A| * |B| edges.
The DFS keeps two running edge counts instead of a list of edges, so a
block costs a few integer steps plus its frozensets, and no block is
relabelled or 2-coloured again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedError, OutOfRangeError
from .graphs import Graph


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


def _lowpoint_blocks(g: Graph) -> list[Block]:
    """Every block of g reachable from vertex 0, with its two sides when
    complete bipartite, from one Hopcroft-Tarjan lowpoint DFS on the bit
    rows; raises DisconnectedError when some vertex is not reached.

    The DFS keeps an explicit path, so its depth is not bounded by the
    interpreter's recursion limit.  Each tree edge goes to the lowest bit
    of ``adj[u] & ~visited``.  When v is discovered every visited
    neighbour is an ancestor, so ``adj[v] & visited`` holds v's tree edge
    and back edges, and ``up[v]``, the OR of these over v's subtree,
    stands in for its lowpoint: the parent p of u cuts u's subtree off
    exactly when ``up[u]`` holds no proper ancestor of p.

    Vertices wait on two stacks by the parity of their depth, which
    2-colours each block's spanning subtree; running sums count the
    up-edges (each edge once, at its later end) and the same-parity ones
    of the vertices waiting.  A block is the two stack suffixes pushed
    since u plus p, its edge counts are the sums' growth since u, and it
    is complete bipartite exactly when no edge joins one side and it has
    |A| * |B| edges.
    """
    adj = g.adj
    k = g.k
    up = [0] * k
    parity = [0] * k
    # Per vertex, at its discovery: the two stacks' lengths and both sums.
    starts: list[tuple[int, int]] = [(0, 0)] * k
    sums: list[tuple[int, int]] = [(0, 0)] * k
    stacks = ([0], [])
    seen = [1, 0]
    visited = path_mask = 1
    path = [0]
    edges = same = 0
    found: list[Block] = []
    while True:
        u = path[-1]
        fresh = adj[u] & ~visited
        if fresh:
            bit = fresh & -fresh
            v = bit.bit_length() - 1
            side = parity[u] ^ 1
            back = adj[v] & visited
            starts[v] = (len(stacks[0]), len(stacks[1]))
            sums[v] = (edges, same)
            edges += back.bit_count()
            same += (back & seen[side]).bit_count()
            up[v] = back
            parity[v] = side
            stacks[side].append(v)
            seen[side] |= bit
            visited |= bit
            path_mask |= bit
            path.append(v)
            continue
        path.pop()
        if not path:
            break
        path_mask ^= 1 << u
        p = path[-1]
        if up[u] & (path_mask ^ 1 << p):
            up[p] |= up[u]
            continue
        a = parity[p]
        near, far = stacks[a], stacks[a ^ 1]
        near_start, far_start = starts[u][a], starts[u][a ^ 1]
        side_p = frozenset([p, *near[near_start:]])
        side_q = frozenset(far[far_start:])
        del near[near_start:], far[far_start:]
        edges_before, same_before = sums[u]
        parts = None
        if same == same_before and edges - edges_before == len(side_p) * len(side_q):
            parts = (side_p, side_q) if min(side_p) < min(side_q) else (side_q, side_p)
        found.append(Block(side_p | side_q, parts))
        edges, same = edges_before, same_before
    if visited != (1 << k) - 1:
        raise DisconnectedError("decompose requires a connected graph")
    return found


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
    on the graph.

    One lowpoint DFS, ``_lowpoint_blocks``, finds the blocks with their
    sides and checks connectivity; ``_tree`` sorts them into the tree.
    """
    if g._blocks is None:
        g._blocks = _tree(_lowpoint_blocks(g), g.k)
    return g._blocks


def is_bi_block(g: Graph) -> bool:
    """True iff g is connected and every block is complete bipartite.

    Reads the blocks through ``decompose``, whose DFS also refuses a
    disconnected g, so the block-cut tree stays cached on g:
    ``normalize`` checks its input here, and its first
    ``find_applicable`` reads that tree without a second DFS.  The graphs
    its steps reach are not checked here: ``rewrites.apply_step`` derives
    each result's tree from the step and caches it on the result.
    """
    try:
        t = decompose(g)
    except DisconnectedError:
        return False
    return all(b.parts is not None for b in t.blocks)


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
