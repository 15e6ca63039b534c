"""Spectral-radius-monotone rewrites on bi-block graphs.

Every rewrite is an edge edit on a fixed labeled vertex set that
replaces the union of two complete-bipartite pieces sharing a cut vertex
with a single complete bipartite piece.  Each application re-checks its
own postconditions (vertex count, independence number, bi-block result,
non-decreasing spectral radius) and refuses loudly on violation.  The
result's block-cut tree is derived from the step and the edited graph's
tree, not from a lowpoint DFS on the result, so ``normalize`` runs one
DFS, on its input.

The normalization driver works on a "unit" view of the block structure:
a ``BlockCutTree`` whose pieces are the standard blocks, with
pendant-edge blocks around a common center coalesced into one star unit.
Star coalescing changes bookkeeping only, never the graph, but without
it the index-reduction move degenerates to a no-op at star centers and
normalization cannot progress.

``normalize`` picks each step with ``find_applicable``, whose cases are
read off the lexicographically smallest maximum independent set,
``independence.lexmin_witness``, and runs it with ``apply_step``.  The
``rewrite`` subcommand names one step by block ids through
``merge_blocks``, ``reattach_subcase32``, ``split_partition_subcase22``
and ``reduce_block_index``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .blocks import (
    Block, BlockCutTree, _tree, block_by_id, decompose, is_bi_block, leaf_blocks,
    leaf_neighbor,
)
from .errors import (
    BadSplitError,
    BlockIndexTooSmallError,
    NotBiBlockError,
    NotNeighborsError,
    NoValidPairError,
    OrientationMismatchError,
    OutOfRangeError,
    PostconditionViolationError,
    PreconditionFailedError,
    StuckError,
    TooLargeError,
)
from .graphs import Graph, _edge_diff, _mask, is_complete_bipartite
from .independence import _check_maximum, alpha_matching, lexmin_witness
from .spectral import RHO_MARGIN, perron

MERGE_BLOCKS = "MergeBlocks"
REATTACH = "ReattachSubcase32"
SPLIT_PARTITION = "SplitPartitionSubcase22"
REDUCE_BLOCK_INDEX = "ReduceBlockIndex"

# Largest k ``normalize`` rewrites.  Each step runs ``lexmin_witness``
# (at most k matchings) and Perron solves, so its cost grows about as
# k^3.
NORMALIZE_CAP = 300


@dataclass(frozen=True)
class RewriteStep:
    """The complete bipartite piece K(side1, side2) a rewrite installs.

    Applying the step replaces every edge inside side1 | side2 with all
    of side1 x side2 and keeps every other edge.  The sides are sorted
    tuples.  ``case`` names the proof case that chose the step and takes
    no part in equality: two steps are equal when they install the same
    piece at the same cut vertex by the same kind of move.
    """

    kind: str
    case: str = field(compare=False)
    cut_vertex: int
    side1: tuple[int, ...]
    side2: tuple[int, ...]


@dataclass(frozen=True)
class RewriteOutcome:
    """A rewrite that ran and passed its postcondition checks.

    A no-op step (one whose result is the graph itself) gives equal rho
    values, so its ``delta_rho`` is exactly 0.0.
    """

    result: Graph
    alpha_before: int
    alpha_after: int
    trace: str
    step: RewriteStep
    rho_before: float
    rho_after: float
    edges_added: tuple[tuple[int, int], ...]
    edges_removed: tuple[tuple[int, int], ...]

    @property
    def delta_rho(self) -> float:
        """rho_after - rho_before; exactly 0.0 for a no-op step."""
        return self.rho_after - self.rho_before


# ---------------------------------------------------------------------------
# Unit view: standard blocks with stars coalesced
# ---------------------------------------------------------------------------


def _piece(side1: frozenset[int], side2: frozenset[int]) -> Block:
    """Block K(side1, side2), its side with the smallest label first."""
    parts = (side1, side2) if min(side1) < min(side2) else (side2, side1)
    return Block(side1 | side2, parts)


def unit_decomposition(g: Graph) -> BlockCutTree:
    """The tree of g's blocks with stars around a common center coalesced.

    Processes centers in ascending label order: at each vertex v, the
    pendant-edge blocks at v that no earlier center took, read from the
    standard tree's ``incidence[v]``, merge into one star when there are
    two or more.  Only standard blocks merge: a star's far side has two
    or more vertices, so no later center finds it bare.  The units
    partition the edge set into complete bipartite pieces, each a Block
    whose side with the smallest label comes first.
    """
    t = decompose(g)
    if any(blk.parts is None for blk in t.blocks):
        raise NotBiBlockError("graph has a non-complete-bipartite block")
    taken = [False] * len(t.blocks)
    stars = []
    for v in range(g.k):
        ids = [
            i for i in t.incidence[v]
            if not taken[i] and len(t.blocks[i].vertices) == 2
        ]
        if len(ids) >= 2:
            far = frozenset().union(*(t.blocks[i].vertices for i in ids)) - {v}
            stars.append(_piece(frozenset([v]), far))
            for i in ids:
                taken[i] = True
    return _tree([b for i, b in enumerate(t.blocks) if not taken[i]] + stars, g.k)


# ---------------------------------------------------------------------------
# Applying a step
# ---------------------------------------------------------------------------


def _edit(g: Graph, step: RewriteStep) -> Graph:
    """Pure edge edit: replace the affected region with K(side1, side2).

    Rows outside the region keep every edge; each region row drops its
    edges into the region and gains the other side.
    """
    side1, side2 = frozenset(step.side1), frozenset(step.side2)
    if side1 & side2:
        raise OrientationMismatchError(
            f"united sides overlap in {sorted(side1 & side2)}"
        )
    for v in sorted(side1 | side2):
        if not 0 <= v < g.k:
            raise OutOfRangeError(f"vertex {v} not in 0..{g.k - 1}")
    m1, m2 = _mask(side1), _mask(side2)
    keep = ~(m1 | m2)
    adj = list(g.adj)
    for u in side1:
        adj[u] = adj[u] & keep | m2
    for u in side2:
        adj[u] = adj[u] & keep | m1
    return Graph(g.k, tuple(adj))


def _result_tree(t: BlockCutTree, step: RewriteStep) -> BlockCutTree | None:
    """The standard block-cut tree of the step's result, derived from t,
    the standard tree of the graph it edits; None when the result is not
    bi-block.

    Let R = side1 | side2.  The blocks meeting R in two or more vertices
    must together hold exactly R, so none of them is cut, and join it up:
    their sizes less one sum to |R| - 1, as the blocks of a connected
    piece of a block-cut tree do.  The step replaces their edges with
    K(side1, side2), which is one block, or one pendant-edge block per
    far vertex when a side is a single vertex.  Every other block meets R
    in at most one vertex, keeps its edges, stays a block, and must be
    complete bipartite.
    """
    side1, side2 = frozenset(step.side1), frozenset(step.side2)
    if not side1 or not side2:
        return None
    region = side1 | side2
    kept: list[Block] = []
    covered: set[int] = set()
    span = 0
    for blk in t.blocks:
        if len(blk.vertices & region) <= 1:
            if blk.parts is None:
                return None
            kept.append(blk)
        else:
            covered |= blk.vertices
            span += len(blk.vertices) - 1
    if covered != region or span != len(region) - 1:
        return None
    if len(side1) > 1 and len(side2) > 1:
        kept.append(_piece(side1, side2))
    else:
        hub, rim = (side1, side2) if len(side1) == 1 else (side2, side1)
        kept.extend(_piece(hub, frozenset([w])) for w in rim)
    return _tree(kept, len(t.incidence))


def apply_step(g: Graph, step: RewriteStep) -> RewriteOutcome:
    """Run one rewrite on a connected graph and enforce its postconditions:
    ``_edit``, then ``_finish``."""
    return _finish(g, step, _edit(g, step))


def _finish(g: Graph, step: RewriteStep, result: Graph) -> RewriteOutcome:
    """The outcome of a step whose edit of g is ``result``, once it passes
    the step's postconditions.

    Raises PostconditionViolationError if the vertex count changes, the
    independence number moves, the result stops being bi-block, or the
    spectral radius drops by more than the numerical margin.  The
    independence number and spectral radius are recomputed from the
    result graph.  The bi-block check reads the step against g's
    standard block-cut tree, and the result's tree it derives there is
    cached on the result, so no lowpoint DFS runs on it and the next
    ``find_applicable`` reads that tree.  A step whose region cuts one of
    g's blocks is refused there even when its result would be bi-block;
    every step the proof's cases and the ``rewrite`` operations build
    covers whole blocks.  A no-op step returns its outcome before any
    check on the result.
    """
    if result.k != g.k:
        raise PostconditionViolationError("vertex count changed")
    alpha_before = alpha_matching(g).alpha
    if result == g:
        pair = perron(g)
        return RewriteOutcome(
            result=result,
            alpha_before=alpha_before,
            alpha_after=alpha_before,
            trace=f"{step.case}: degenerate no-op at v={step.cut_vertex}",
            step=step,
            rho_before=pair.rho,
            rho_after=pair.rho,
            edges_added=(),
            edges_removed=(),
        )
    result._blocks = _result_tree(decompose(g), step)
    if result._blocks is None:
        raise PostconditionViolationError(f"{step.case}: result is not bi-block")
    alpha_after = alpha_matching(result).alpha
    if alpha_after != alpha_before:
        raise PostconditionViolationError(
            f"{step.case}: alpha changed {alpha_before} -> {alpha_after}"
        )
    rho_before = perron(g).rho
    rho_after = perron(result).rho
    if rho_after < rho_before - RHO_MARGIN:
        raise PostconditionViolationError(
            f"{step.case}: rho decreased {rho_before} -> {rho_after}"
        )
    added, removed = _edge_diff(g, result)
    trace = (
        f"{step.case}: {step.kind} at v={step.cut_vertex}, "
        f"+{len(added)}/-{len(removed)} edges, "
        f"rho {rho_before:.9f} -> {rho_after:.9f}"
    )
    return RewriteOutcome(
        result=result,
        alpha_before=alpha_before,
        alpha_after=alpha_after,
        trace=trace,
        step=step,
        rho_before=rho_before,
        rho_after=rho_after,
        edges_added=added,
        edges_removed=removed,
    )


# ---------------------------------------------------------------------------
# Step constructors
# ---------------------------------------------------------------------------


# Each constructor takes pieces F = K(P, Q) and H = K(M, N) that meet at
# the cut vertex v, with v in Q and in M, and states its target once.


def _step(kind: str, case: str, v: int, side1, side2) -> RewriteStep:
    return RewriteStep(kind, case, v, tuple(sorted(side1)), tuple(sorted(side2)))


def _merge_step(
    f: Block, h: Block, v: int, case: str, kind: str = MERGE_BLOCKS
) -> RewriteStep:
    """K(P | N, Q | M), symmetric in F and H."""
    return _step(
        kind, case, v, f.other_side(v) | h.other_side(v), f.side_of(v) | h.side_of(v)
    )


def _reattach_step(f: Block, h: Block, v: int, case: str) -> RewriteStep:
    """K(P | M, (Q - v) | N): v keeps only its side M, so its edges to P go."""
    return _step(
        REATTACH,
        case,
        v,
        f.other_side(v) | h.side_of(v),
        (f.side_of(v) - {v}) | h.other_side(v),
    )


def _split_step(f: Block, h: Block, v: int, n1, case: str) -> RewriteStep:
    """K(P | N1, Q | M | N2) with N2 = N - N1."""
    n1 = frozenset(n1)
    return _step(
        SPLIT_PARTITION,
        case,
        v,
        f.other_side(v) | n1,
        f.side_of(v) | h.side_of(v) | (h.other_side(v) - n1),
    )


def _block_unit(t: BlockCutTree, bid: int) -> Block:
    blk = block_by_id(t, bid)
    if blk.parts is None:
        raise NotBiBlockError(f"block {bid} is not complete bipartite")
    return blk


def _unit_of_block(u: BlockCutTree, blk: Block) -> Block:
    """The unit holding a complete bipartite block's edges (the block
    itself, or its star), found through the edge joining the two sides'
    smallest labels."""
    a, b = min(blk.parts[0]), min(blk.parts[1])
    for unit in u.blocks:
        if a in unit.vertices and b in unit.other_side(a):
            return unit
    raise NotBiBlockError(f"block on {sorted(blk.vertices)} not covered by any unit")


def _resolve_pair(
    g: Graph, f_id: int, h_id: int, leaf_pair: bool
) -> tuple[Block, Block, int]:
    """Interpret two block ids as a unit pair sharing one cut vertex.

    The raw blocks win when they already form a valid pair (so the
    degenerate pendant-pendant merge stays expressible); otherwise each
    id falls back to its containing star-coalesced unit, which is how a
    configuration like K(P, Q) with |P| = 1 is addressed at all.
    """
    t = decompose(g)
    f_raw, h_raw = _block_unit(t, f_id), _block_unit(t, h_id)
    shared = f_raw.vertices & h_raw.vertices
    raw_ok = f_id != h_id and len(shared) == 1
    if raw_ok and leaf_pair:
        raw_ok = leaf_neighbor(t, h_id) == (f_id, next(iter(shared)))
    if raw_ok:
        return f_raw, h_raw, next(iter(shared))
    u = unit_decomposition(g)
    fu = _unit_of_block(u, f_raw)
    hu = _unit_of_block(u, h_raw)
    if fu == hu:
        raise NotNeighborsError(
            f"blocks {f_id} and {h_id} lie in the same coalesced star"
        )
    shared = fu.vertices & hu.vertices
    if len(shared) != 1:
        raise NotNeighborsError(
            f"blocks {f_id} and {h_id} do not meet in one cut vertex"
        )
    (v,) = shared
    if leaf_pair:
        if hu.vertices & u.cut_vertices != {v}:
            raise PreconditionFailedError(
                f"block {h_id}'s unit is not a leaf at vertex {v}"
            )
        if len(u.incidence[v]) != 2:
            raise PreconditionFailedError(
                f"vertex {v} lies in {len(u.incidence[v])} units, need 2"
            )
    return fu, hu, v


# ---------------------------------------------------------------------------
# Public operations on standard block ids
# ---------------------------------------------------------------------------


def _apply_chosen(g: Graph, step: RewriteStep) -> RewriteOutcome:
    """``apply_step`` for a step its caller chose by block ids.

    These operations do not check the witness hypotheses of the proof's
    cases, so a step that would change the independence number is a
    failed precondition of the request, refused before the result is
    checked, and not a breach of the theorem.  The graph is edited once:
    the alpha test and ``_finish`` read the same result, whose alpha is
    cached on it.
    """
    result = _edit(g, step)
    before, after = alpha_matching(g).alpha, alpha_matching(result).alpha
    if after != before:
        raise PreconditionFailedError(
            f"{step.case}: the step would change alpha {before} -> {after}"
        )
    return _finish(g, step, result)


def merge_blocks(g: Graph, f_id: int, h_id: int) -> RewriteOutcome:
    """Replace two neighboring blocks F = K(P, Q) and H = K(M, N), which
    meet at v in Q and M, with K(P | N, Q | M).

    Raises PreconditionFailedError when the merge would change alpha.
    """
    f, h, v = _resolve_pair(g, f_id, h_id, leaf_pair=False)
    return _apply_chosen(g, _merge_step(f, h, v, "merge"))


def reattach_subcase32(g: Graph, f_id: int, h_id: int) -> RewriteOutcome:
    """The three-step reattachment: drop the v-to-P edges, complete M
    against Q-v and P against N.

    Preconditions (reported individually): H a leaf piece at the shared
    cut vertex v with exactly two pieces there, q > p, n > m, p < q-1.
    """
    f, h, v = _resolve_pair(g, f_id, h_id, leaf_pair=True)
    p, q = len(f.other_side(v)), len(f.side_of(v))
    m, n = len(h.side_of(v)), len(h.other_side(v))
    for ok, label in (
        (q > p, f"q > p fails ({q} <= {p})"),
        (n > m, f"n > m fails ({n} <= {m})"),
        (p < q - 1, f"p < q-1 fails ({p} >= {q - 1})"),
    ):
        if not ok:
            raise PreconditionFailedError(label)
    return _apply_chosen(g, _reattach_step(f, h, v, "two-block subcase 3.2"))


def split_partition_subcase22(
    g: Graph, f_id: int, h_id: int, n1_choice=None
) -> RewriteOutcome:
    """The five-step split: move N2 = N - N1 across to Q's side.

    N1 defaults to the m smallest labels of N and must be m distinct
    labels of N, m < n.
    """
    f, h, v = _resolve_pair(g, f_id, h_id, leaf_pair=True)
    m, n = len(h.side_of(v)), len(h.other_side(v))
    if not n > m:
        raise PreconditionFailedError(f"n > m fails ({n} <= {m})")
    n_side = h.other_side(v)
    n1 = set(sorted(n_side)[:m] if n1_choice is None else n1_choice)
    if not n1 <= n_side or len(n1) != m:
        raise BadSplitError(f"N1 must be {m} vertices drawn from N={sorted(n_side)}")
    return _apply_chosen(g, _split_step(f, h, v, n1, "case 3 subcase 2.2"))


def _reduce_pair_valid(witness: frozenset[int], f: Block, h: Block, v: int) -> bool:
    """Pigeonhole condition: the witness misses both far sides or both
    near sides, so uniting them keeps it independent."""
    near_free = not (witness & f.side_of(v)) and not (witness & h.side_of(v))
    far_free = not (witness & f.other_side(v)) and not (witness & h.other_side(v))
    return near_free or far_free


def reduce_block_index(g: Graph, v: int, bi_id: int, bj_id: int) -> RewriteOutcome:
    """Merge two of the >= 3 blocks at v, dropping its block index.

    The chosen pair must satisfy the pigeonhole rule against the
    lexicographically smallest maximum independent set.  Merging two
    pendant edges is a valid degenerate no-op.
    """
    g._check_vertex(v)
    t = decompose(g)
    ids = t.incidence[v]
    if len(ids) < 3:
        raise BlockIndexTooSmallError(f"block index of {v} is {len(ids)}, need >= 3")
    if bi_id not in ids or bj_id not in ids or bi_id == bj_id:
        raise NoValidPairError(f"blocks {bi_id}, {bj_id} are not distinct blocks at {v}")
    f, h = _block_unit(t, bi_id), _block_unit(t, bj_id)
    witness = lexmin_witness(g)
    if not _reduce_pair_valid(witness, f, h, v):
        raise NoValidPairError(
            f"witness meets opposite sides of blocks {bi_id} and {bj_id} at {v}"
        )
    step = _merge_step(f, h, v, "block-index reduction", kind=REDUCE_BLOCK_INDEX)
    return apply_step(g, step)


# ---------------------------------------------------------------------------
# Case analysis over the unit view
# ---------------------------------------------------------------------------


def _swapped_reattach(
    u: BlockCutTree, h_idx: int, witness: frozenset[int]
) -> RewriteStep | None:
    """Case 5 (the witness meets P but not Q, and m >= n + 2) when its
    chain search finds no move: the reattachment with H and F swapped,
    giving K(P + M - v, Q + N).  The witness holds M - v and misses Q and
    N, so it stays independent."""
    found = leaf_neighbor(u, h_idx)
    if found is None:
        return None
    f_idx, v = found
    h, f = u.blocks[h_idx], u.blocks[f_idx]
    if witness & f.other_side(v) and not witness & f.side_of(v):
        if len(h.side_of(v)) >= len(h.other_side(v)) + 2:
            return _reattach_step(h, f, v, "case 5 reattach")
    return None


def _leaf_case_step(
    g: Graph, u: BlockCutTree, h_idx: int, witness: frozenset[int]
) -> RewriteStep | None:
    """Which move the case analysis prescribes at one leaf unit, if any."""
    found = leaf_neighbor(u, h_idx)
    if found is None:
        return None
    f_idx, v = found
    h, f = u.blocks[h_idx], u.blocks[f_idx]
    far_f, near_f = f.other_side(v), f.side_of(v)
    near_h, far_h = h.side_of(v), h.other_side(v)
    p, q = len(far_f), len(near_f)
    m, n = len(near_h), len(far_h)
    in_p = bool(witness & far_f)
    in_q = bool(witness & near_f)

    if not in_p and not in_q:
        return _merge_step(f, h, v, "case 1")
    if in_q:
        if m >= n:
            return _merge_step(f, h, v, "case 2")
        if len(u.blocks) == 2:
            if p == q - 1:
                return _merge_step(f, h, v, "two-block subcase 3.1")
            return _reattach_step(f, h, v, "two-block subcase 3.2")
        non_cut = [c for c in sorted(near_f - {v}) if c not in u.cut_vertices]
        if not non_cut:
            # Every vertex of Q is a cut vertex: merge F with the block
            # behind a witness vertex of Q instead.
            w = min(witness & near_f)
            if len(u.incidence[w]) != 2:
                return None
            (b_idx,) = (i for i in u.incidence[w] if i != f_idx)
            return _merge_step(f, u.blocks[b_idx], w, "case 3 subcase 1")
        c = non_cut[0]
        x = perron(g).X
        b_n = float(x[min(far_h)])
        rest = sorted(near_h - {v})
        if rest:
            b_m = float(x[rest[0]])
        else:
            b_m = float(x[v]) - float(x[c])
        if b_m >= b_n - 1e-12:
            return _reattach_step(f, h, v, "case 3 subcase 2.1")
        return _split_step(f, h, v, sorted(far_h)[:m], "case 3 subcase 2.2")
    # in_p and not in_q
    if n >= m or m == n + 1:
        return _merge_step(f, h, v, "case 4")
    return _case5_resolve(g, u, f_idx, v, witness)


def _case5_resolve(
    g: Graph, u: BlockCutTree, f_idx: int, v: int, witness: frozenset[int]
) -> RewriteStep | None:
    """Chain search of case 5: walk away from the leaf through witness-
    occupied far sides until a mergeable neighbor or a far leaf."""
    visited = {f_idx}

    def walk(cur_idx: int, far_side: frozenset[int]) -> RewriteStep | None:
        cur = u.blocks[cur_idx]
        for w in sorted(far_side):
            if len(u.incidence[w]) != 2:
                continue
            for d_idx in u.incidence[w]:
                if d_idx == cur_idx or d_idx in visited:
                    continue
                visited.add(d_idx)
                d = u.blocks[d_idx]
                r_side = d.other_side(w)
                if not witness & r_side:
                    return _merge_step(cur, d, w, "case 5 merge")
                if d.vertices & u.cut_vertices == {w}:
                    return _leaf_case_step(g, u, d_idx, witness)
                found = walk(d_idx, r_side)
                if found is not None:
                    return found
        return None

    return walk(f_idx, u.blocks[f_idx].other_side(v))


def _index_reductions(t: BlockCutTree, witness: frozenset[int]):
    """Index reductions for each pigeonhole-valid pair of the pieces at
    each vertex lying in three or more of them."""
    for v in sorted(t.cut_vertices):
        ids = t.incidence[v]
        if len(ids) >= 3:
            for f, h in combinations([t.blocks[i] for i in ids], 2):
                if _reduce_pair_valid(witness, f, h, v):
                    yield _merge_step(
                        f, h, v, "block-index reduction", kind=REDUCE_BLOCK_INDEX
                    )


def find_applicable(g: Graph, witness) -> list[RewriteStep]:
    """All rewrite steps whose case hypotheses hold for this witness.

    Ordered: unit-level index reductions, then leaf-directed steps, then
    index reductions over the standard blocks, and last, only when no
    leaf unit yields a step, the swapped reattachments of case 5.  Of
    equal steps only the first is kept.  Complete bipartite graphs,
    stars included, admit no step.

    The standard-block pass mostly offers no-op merges of one star's
    pendant edges (70669 over the normalize runs of all B(k), k <= 12,
    beside 26813 real edits), and none of its steps is applied there;
    but over ``bench/gen.normalize_graphs(seed)``, seeds 1..40, 16 of
    23760 runs apply a step only it offers.
    """
    t = decompose(g)
    witness = frozenset(witness)
    _check_maximum(g, witness)
    if is_complete_bipartite(g):
        return []
    u = unit_decomposition(g)
    leaves = leaf_blocks(u)
    leaf_steps = [_leaf_case_step(g, u, h_idx, witness) for h_idx in leaves]
    steps = [*_index_reductions(u, witness), *leaf_steps, *_index_reductions(t, witness)]
    if all(step is None for step in leaf_steps):
        steps += [_swapped_reattach(u, h_idx, witness) for h_idx in leaves]
    return list(dict.fromkeys(step for step in steps if step is not None))


# ---------------------------------------------------------------------------
# Normalization driver
# ---------------------------------------------------------------------------


def normalize(g: Graph) -> tuple[Graph, list[RewriteOutcome]]:
    """Carry a bi-block graph to the complete bipartite graph K(alpha, k-alpha).

    Applies index reductions until every cut vertex lies in two units,
    then leaf-directed moves until one unit remains.  Each candidate is
    handed to ``apply_step`` in order and the first that changes the
    graph is taken, so every applied step's result is built once;
    degenerate no-op steps are skipped.  Every applied step changes the
    edge set, so the unit count strictly decreases and the loop
    terminates.  A graph above ``NORMALIZE_CAP`` vertices is refused
    when it needs a step.
    """
    if g.k == 1:
        return g, []
    if not is_bi_block(g):
        raise NotBiBlockError("normalize requires a bi-block graph")
    cur = g
    outcomes: list[RewriteOutcome] = []
    bound = len(decompose(g).blocks)
    while not is_complete_bipartite(cur):
        if g.k > NORMALIZE_CAP:
            raise TooLargeError(f"normalize capped at k <= {NORMALIZE_CAP}, got {g.k}")
        if len(outcomes) > bound:
            raise StuckError("step budget exceeded without reaching one block")
        witness = lexmin_witness(cur)
        for step in find_applicable(cur, witness):
            outcome = apply_step(cur, step)
            if outcome.result != cur:
                break
        else:
            raise StuckError("no applicable step with a real edge edit")
        outcomes.append(outcome)
        cur = outcome.result
    return cur, outcomes
