"""Biconnected components, block-cut trees, and bi-block membership.

Standard decomposition semantics throughout: a block is a maximal
subgraph without a cut vertex, so a star splits into pendant-edge
blocks and its center has block index equal to its degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DisconnectedError,
    NotLeafError,
    NotNeighborsError,
    OddCycleError,
    OutOfRangeError,
    SingleBlockError,
)
from .graphs import Graph, bipartition, induced_subgraph, is_connected


@dataclass(frozen=True)
class Block:
    """One block: its vertex set, and both sides when complete bipartite.

    ``parts`` is None when the induced subgraph is not complete
    bipartite; otherwise the side containing the smallest vertex label
    comes first.
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
    """Blocks, cut vertices, and their incidence for one connected graph.

    Holds no reference to its graph, which caches it, so the pair is
    freed without the cycle collector; ``len(incidence)`` is k.
    """

    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]
    incidence: dict[int, tuple[int, ...]]
    block_adjacency: frozenset[tuple[int, int]]


def _biconnected_edge_components(g: Graph) -> list[list[tuple[int, int]]]:
    """Hopcroft-Tarjan lowpoint DFS returning the edge set of each
    biconnected component.

    The DFS keeps an explicit stack of (vertex, parent, neighbor
    iterator) frames, so its depth is not bounded by the interpreter's
    recursion limit.
    """
    disc = [-1] * g.k
    low = [0] * g.k
    edges: list[tuple[int, int]] = []
    comps: list[list[tuple[int, int]]] = []
    disc[0] = low[0] = 0
    timer = 1
    frames = [(0, -1, iter(g.neighbors(0)))]
    while frames:
        u, parent, nbrs = frames[-1]
        for v in nbrs:
            if disc[v] == -1:
                edges.append((u, v))
                disc[v] = low[v] = timer
                timer += 1
                frames.append((v, u, iter(g.neighbors(v))))
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
    return comps


def decompose(g: Graph) -> BlockCutTree:
    """Block-cut tree of a connected graph, cached on the graph.

    Blocks are sorted by their vertex sets so ids are reproducible; cut
    vertices are exactly the vertices lying in two or more blocks.
    """
    if g._blocks is not None:
        return g._blocks
    if not is_connected(g):
        raise DisconnectedError("decompose requires a connected graph")
    comps = _biconnected_edge_components(g)
    vertex_sets = []
    for comp in comps:
        vs = set()
        for u, v in comp:
            vs.add(u)
            vs.add(v)
        vertex_sets.append(frozenset(vs))
    vertex_sets.sort(key=lambda s: tuple(sorted(s)))

    blocks = []
    for vs in vertex_sets:
        sub, old_to_new = induced_subgraph(g, vs)
        parts = None
        try:
            bp = bipartition(sub)
        except OddCycleError:
            bp = None
        if bp is not None and sub.edge_count == len(bp.M) * len(bp.N):
            new_to_old = {i: u for u, i in old_to_new.items()}
            side_a = frozenset(new_to_old[i] for i in bp.M)
            side_b = frozenset(new_to_old[i] for i in bp.N)
            if min(side_b) < min(side_a):
                side_a, side_b = side_b, side_a
            parts = (side_a, side_b)
        blocks.append(Block(vs, parts))

    incidence: dict[int, list[int]] = {v: [] for v in range(g.k)}
    for bid, blk in enumerate(blocks):
        for v in blk.vertices:
            incidence[v].append(bid)
    cut = frozenset(v for v, ids in incidence.items() if len(ids) >= 2)
    adjacency = set()
    for v in cut:
        ids = incidence[v]
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                adjacency.add((ids[i], ids[j]))
    g._blocks = BlockCutTree(
        blocks=tuple(blocks),
        cut_vertices=cut,
        incidence={v: tuple(ids) for v, ids in incidence.items()},
        block_adjacency=frozenset(adjacency),
    )
    return g._blocks


def is_bi_block(g: Graph) -> bool:
    """True iff g is connected and every block is complete bipartite.

    Builds no block-cut tree.  A bi-block graph is bipartite, and each
    block of a bipartite graph inherits its two sides A and B from the
    graph's 2-coloring, so the block is complete bipartite exactly when
    its edge component has |A| * |B| edges.
    """
    if not is_connected(g):
        return False
    try:
        side_m = bipartition(g).M
    except OddCycleError:
        return False
    for comp in _biconnected_edge_components(g):
        vs = {u for e in comp for u in e}
        a = len(vs & side_m)
        if len(comp) != a * (len(vs) - a):
            return False
    return True


def block_index(t: BlockCutTree, v: int) -> int:
    """Number of blocks containing v (1 unless v is a cut vertex)."""
    if not 0 <= v < len(t.incidence):
        raise OutOfRangeError(f"vertex {v} not in 0..{len(t.incidence) - 1}")
    return len(t.incidence[v])


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


def shared_cut_vertex(t: BlockCutTree, f_id: int, h_id: int) -> int:
    """The cut vertex joining two neighboring blocks."""
    shared = t.blocks[f_id].vertices & t.blocks[h_id].vertices
    if len(shared) != 1:
        raise NotNeighborsError(
            f"blocks {f_id} and {h_id} do not share exactly one cut vertex"
        )
    return next(iter(shared))


def neighbor_union(g: Graph, f_id: int, h_id: int) -> Graph:
    """Induced subgraph on the union of two neighboring blocks."""
    t = decompose(g)
    shared_cut_vertex(t, f_id, h_id)
    union = t.blocks[f_id].vertices | t.blocks[h_id].vertices
    sub, _ = induced_subgraph(g, union)
    return sub


class PeelResult(NamedTuple):
    graph: Graph
    old_to_new: dict[int, int]


def peel_leaf_block(g: Graph, h_id: int) -> PeelResult:
    """Remove a leaf block except its cut vertex, relabeling densely.

    The label map is returned alongside so callers can trace surviving
    vertices.
    """
    t = decompose(g)
    if len(t.blocks) == 1:
        raise SingleBlockError("cannot peel the only block")
    blk = t.blocks[h_id]
    cut_in_block = blk.vertices & t.cut_vertices
    if len(cut_in_block) != 1:
        raise NotLeafError(f"block {h_id} has {len(cut_in_block)} cut vertices")
    v = next(iter(cut_in_block))
    keep = (set(range(g.k)) - blk.vertices) | {v}
    sub, old_to_new = induced_subgraph(g, keep)
    return PeelResult(sub, old_to_new)


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
