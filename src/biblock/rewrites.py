"""Spectral-radius-monotone rewrites on bi-block graphs.

Every rewrite is an edge edit on a fixed labeled vertex set that
replaces the union of two complete-bipartite pieces sharing a cut vertex
with a single complete bipartite piece.  Each application re-checks its
own postconditions (vertex count, independence number, non-decreasing
spectral radius) and refuses loudly on violation.

The normalization driver works on a "unit" view of the block structure:
standard blocks, with pendant-edge blocks around a common center
coalesced into one star unit.  Star coalescing changes bookkeeping only,
never the graph, but without it the index-reduction move degenerates to
a no-op at star centers and normalization cannot progress.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .blocks import BlockCutTree, decompose, is_bi_block
from .errors import (
    BadSplitError,
    BlockIndexTooSmallError,
    NotBiBlockError,
    NotMaximumError,
    NotNeighborsError,
    NoValidPairError,
    OrientationMismatchError,
    OutOfRangeError,
    PostconditionViolationError,
    PreconditionFailedError,
    StuckError,
)
from .graphs import Graph, from_edge_list, is_complete_bipartite
from .independence import alpha_bruteforce, alpha_matching, _is_independent
from .spectral import RHO_MARGIN, perron

MERGE_BLOCKS = "MergeBlocks"
REATTACH = "ReattachSubcase32"
SPLIT_PARTITION = "SplitPartitionSubcase22"
REDUCE_BLOCK_INDEX = "ReduceBlockIndex"


@dataclass(frozen=True)
class RewriteStep:
    """One planned transformation with explicit side assignments.

    The F sides and H sides each come as (far, near) with the cut vertex
    in both near sides; explicit sides make a step self-contained even
    when F is a coalesced star unit rather than a single standard block.
    """

    kind: str
    case: str
    cut_vertex: int
    f_far: tuple[int, ...]
    f_near: tuple[int, ...]
    h_far: tuple[int, ...]
    h_near: tuple[int, ...]
    n1: tuple[int, ...] | None = None
    block_ids: tuple[int, int] | None = None

    def key(self):
        return (
            self.kind,
            self.cut_vertex,
            self.f_far,
            self.f_near,
            self.h_far,
            self.h_near,
            self.n1,
        )


@dataclass(frozen=True)
class RewriteOutcome:
    """A rewrite that ran and passed its postcondition checks."""

    result: Graph
    delta_rho: float
    alpha_before: int
    alpha_after: int
    trace: str
    step: RewriteStep
    rho_before: float
    rho_after: float
    edges_added: tuple[tuple[int, int], ...]
    edges_removed: tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# Unit view: standard blocks with stars coalesced
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Unit:
    """A complete bipartite piece of the graph (block or coalesced star)."""

    side_a: frozenset[int]
    side_b: frozenset[int]

    @property
    def vertices(self) -> frozenset[int]:
        return self.side_a | self.side_b

    def side_of(self, v: int) -> frozenset[int]:
        if v in self.side_a:
            return self.side_a
        if v in self.side_b:
            return self.side_b
        raise KeyError(f"vertex {v} not in unit")

    def other_side(self, v: int) -> frozenset[int]:
        return self.side_b if v in self.side_a else self.side_a


def unit_decomposition(g: Graph) -> list[Unit]:
    """Blocks of g with stars around a common center coalesced.

    Processes centers in ascending label order: at each vertex, all
    units whose side there is the bare singleton merge into one star.
    The result partitions the edge set into complete bipartite units.
    """
    units: list[Unit] = []
    for blk in decompose(g).blocks:
        if blk.parts is None:
            raise NotBiBlockError("graph has a non-complete-bipartite block")
        units.append(Unit(blk.parts[0], blk.parts[1]))
    for v in range(g.k):
        vbit = frozenset([v])
        stars = [u for u in units if v in u.vertices and u.side_of(v) == vbit]
        if len(stars) >= 2:
            merged_far: frozenset[int] = frozenset()
            for u in stars:
                merged_far |= u.other_side(v)
            units = [u for u in units if u not in stars]
            units.append(Unit(merged_far, vbit))
    units.sort(key=lambda u: tuple(sorted(u.vertices)))
    return units


def _unit_incidence(units: list[Unit], k: int) -> dict[int, list[int]]:
    inc: dict[int, list[int]] = {v: [] for v in range(k)}
    for idx, u in enumerate(units):
        for v in u.vertices:
            inc[v].append(idx)
    return inc


# ---------------------------------------------------------------------------
# Applying a step
# ---------------------------------------------------------------------------


def _target_sides(step: RewriteStep) -> tuple[frozenset[int], frozenset[int]]:
    v = step.cut_vertex
    f_far = frozenset(step.f_far)
    f_near = frozenset(step.f_near)
    h_far = frozenset(step.h_far)
    h_near = frozenset(step.h_near)
    if step.kind in (MERGE_BLOCKS, REDUCE_BLOCK_INDEX):
        side1, side2 = f_far | h_far, f_near | h_near
    elif step.kind == REATTACH:
        side1, side2 = f_far | h_near, (f_near - {v}) | h_far
    elif step.kind == SPLIT_PARTITION:
        n1 = frozenset(step.n1 or ())
        n2 = h_far - n1
        side1, side2 = f_far | n1, f_near | h_near | n2
    else:
        raise ValueError(f"unknown rewrite kind {step.kind!r}")
    if side1 & side2:
        raise OrientationMismatchError(
            f"united sides overlap in {sorted(side1 & side2)}"
        )
    return side1, side2


def _edit(g: Graph, step: RewriteStep) -> Graph:
    """Pure edge edit: replace the affected region with K(side1, side2)."""
    side1, side2 = _target_sides(step)
    region = side1 | side2
    kept = [(u, w) for u, w in g.edges if u not in region or w not in region]
    cross = [(a, b) for a in sorted(side1) for b in sorted(side2)]
    return from_edge_list(g.k, kept + cross)


def apply_step(g: Graph, step: RewriteStep) -> RewriteOutcome:
    """Run one rewrite and enforce its postconditions.

    Raises PostconditionViolationError if the vertex count changes, the
    independence number moves, the result stops being bi-block, or the
    spectral radius drops by more than the numerical margin.
    """
    result = _edit(g, step)
    if result.k != g.k:
        raise PostconditionViolationError("vertex count changed")
    alpha_before = alpha_matching(g).alpha
    if result == g:
        pair = perron(g)
        return RewriteOutcome(
            result=result,
            delta_rho=0.0,
            alpha_before=alpha_before,
            alpha_after=alpha_before,
            trace=f"{step.case}: degenerate no-op at v={step.cut_vertex}",
            step=step,
            rho_before=pair.rho,
            rho_after=pair.rho,
            edges_added=(),
            edges_removed=(),
        )
    if not is_bi_block(result):
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
    added = tuple(sorted(result.edges - g.edges))
    removed = tuple(sorted(g.edges - result.edges))
    trace = (
        f"{step.case}: {step.kind} at v={step.cut_vertex}, "
        f"+{len(added)}/-{len(removed)} edges, "
        f"rho {rho_before:.9f} -> {rho_after:.9f}"
    )
    return RewriteOutcome(
        result=result,
        delta_rho=rho_after - rho_before,
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


def _merge_step(
    f: Unit, h: Unit, v: int, case: str, block_ids=None, kind: str = MERGE_BLOCKS
) -> RewriteStep:
    f_near, f_far = f.side_of(v), f.other_side(v)
    h_near, h_far = h.side_of(v), h.other_side(v)
    f_pair = (tuple(sorted(f_far)), tuple(sorted(f_near)))
    h_pair = (tuple(sorted(h_far)), tuple(sorted(h_near)))
    # Merges are symmetric in F and H; order the pairs for stable dedup.
    if h_pair < f_pair:
        f_pair, h_pair = h_pair, f_pair
    return RewriteStep(
        kind=kind,
        case=case,
        cut_vertex=v,
        f_far=f_pair[0],
        f_near=f_pair[1],
        h_far=h_pair[0],
        h_near=h_pair[1],
        block_ids=block_ids,
    )


def _directional_step(
    kind: str, f: Unit, h: Unit, v: int, case: str, n1=None, block_ids=None
) -> RewriteStep:
    return RewriteStep(
        kind=kind,
        case=case,
        cut_vertex=v,
        f_far=tuple(sorted(f.other_side(v))),
        f_near=tuple(sorted(f.side_of(v))),
        h_far=tuple(sorted(h.other_side(v))),
        h_near=tuple(sorted(h.side_of(v))),
        n1=n1,
        block_ids=block_ids,
    )


def _block_unit(t: BlockCutTree, bid: int) -> Unit:
    if not 0 <= bid < len(t.blocks):
        raise OutOfRangeError(f"block id {bid} not in 0..{len(t.blocks) - 1}")
    blk = t.blocks[bid]
    if blk.parts is None:
        raise NotBiBlockError(f"block {bid} is not complete bipartite")
    return Unit(blk.parts[0], blk.parts[1])


def _unit_of_block(units: list[Unit], blk: Unit) -> Unit:
    """The unit holding a complete bipartite block's edges (the block
    itself, or its star), found through the edge joining the two sides'
    smallest labels."""
    a, b = min(blk.side_a), min(blk.side_b)
    for unit in units:
        if (a in unit.side_a and b in unit.side_b) or (
            a in unit.side_b and b in unit.side_a
        ):
            return unit
    raise NotBiBlockError(f"block on {sorted(blk.vertices)} not covered by any unit")


def _resolve_pair(
    g: Graph, f_id: int, h_id: int, leaf_pair: bool
) -> tuple[Unit, Unit, int]:
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
        (v,) = shared
        raw_ok = (
            t.blocks[h_id].vertices & t.cut_vertices == {v}
            and len(t.incidence[v]) == 2
        )
    if raw_ok:
        return f_raw, h_raw, next(iter(shared))
    units = unit_decomposition(g)
    fu = _unit_of_block(units, f_raw)
    hu = _unit_of_block(units, h_raw)
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
        inc = _unit_incidence(units, g.k)
        if _unit_cut_vertices(hu, inc) != [v]:
            raise PreconditionFailedError(
                f"block {h_id}'s unit is not a leaf at vertex {v}"
            )
        if len(inc[v]) != 2:
            raise PreconditionFailedError(
                f"vertex {v} lies in {len(inc[v])} units, need 2"
            )
    return fu, hu, v


# ---------------------------------------------------------------------------
# Public operations on standard block ids
# ---------------------------------------------------------------------------


def merge_blocks(g: Graph, f_id: int, h_id: int, orientation=None) -> RewriteOutcome:
    """Replace two neighboring blocks with the complete bipartite graph
    on their united sides.

    The cut vertex's side of H always unites with its side of F; an
    explicit orientation naming any other pairing raises
    OrientationMismatchError.
    """
    f, h, v = _resolve_pair(g, f_id, h_id, leaf_pair=False)
    if orientation is not None:
        s_f, s_h = frozenset(orientation[0]), frozenset(orientation[1])
        if s_f not in (f.side_a, f.side_b) or s_h not in (h.side_a, h.side_b):
            raise OrientationMismatchError("orientation must name block sides")
        if (v in s_f) != (v in s_h):
            raise OrientationMismatchError(
                "orientation places the cut vertex on both united sides"
            )
    step = _merge_step(f, h, v, "merge", block_ids=(f_id, h_id))
    return apply_step(g, step)


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
    step = _directional_step(
        REATTACH, f, h, v, "two-block subcase 3.2", block_ids=(f_id, h_id)
    )
    return apply_step(g, step)


def split_partition_subcase22(
    g: Graph, f_id: int, h_id: int, n1_choice=None
) -> RewriteOutcome:
    """The five-step split: move N2 = N - N1 across to Q's side.

    N1 defaults to the m smallest labels of N and must have size m < n.
    """
    f, h, v = _resolve_pair(g, f_id, h_id, leaf_pair=True)
    m, n = len(h.side_of(v)), len(h.other_side(v))
    if not n > m:
        raise PreconditionFailedError(f"n > m fails ({n} <= {m})")
    n_side = h.other_side(v)
    if n1_choice is None:
        n1 = tuple(sorted(n_side)[:m])
    else:
        n1 = tuple(sorted(n1_choice))
        if not set(n1) <= n_side or len(n1) != m:
            raise BadSplitError(
                f"N1 must be {m} vertices drawn from N={sorted(n_side)}"
            )
    step = _directional_step(
        SPLIT_PARTITION, f, h, v, "case 3 subcase 2.2", n1=n1,
        block_ids=(f_id, h_id),
    )
    return apply_step(g, step)


def _reduce_pair_valid(witness: frozenset[int], f: Unit, h: Unit, v: int) -> bool:
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
    witness = alpha_bruteforce(g).witness
    if not _reduce_pair_valid(witness, f, h, v):
        raise NoValidPairError(
            f"witness meets opposite sides of blocks {bi_id} and {bj_id} at {v}"
        )
    step = _merge_step(
        f, h, v, "block-index reduction", block_ids=(bi_id, bj_id),
        kind=REDUCE_BLOCK_INDEX,
    )
    return apply_step(g, step)


# ---------------------------------------------------------------------------
# Case analysis over the unit view
# ---------------------------------------------------------------------------


def _leaf_units(units: list[Unit], inc: dict[int, list[int]]) -> list[int]:
    out = []
    for idx, u in enumerate(units):
        cuts = [v for v in u.vertices if len(inc[v]) >= 2]
        if len(cuts) <= 1:
            out.append(idx)
    return out


def _unit_cut_vertices(u: Unit, inc: dict[int, list[int]]) -> list[int]:
    return [v for v in u.vertices if len(inc[v]) >= 2]


def _leaf_neighbor(
    units: list[Unit], inc: dict[int, list[int]], h_idx: int
) -> tuple[int, int] | None:
    """(F, v) when the unit H is a leaf whose one cut vertex v lies in H
    and F only, else None."""
    cuts = _unit_cut_vertices(units[h_idx], inc)
    if len(cuts) != 1 or len(inc[cuts[0]]) != 2:
        return None
    (f_idx,) = (i for i in inc[cuts[0]] if i != h_idx)
    return f_idx, cuts[0]


def _swapped_reattach(
    units: list[Unit], inc: dict[int, list[int]], h_idx: int, witness: frozenset[int]
) -> RewriteStep | None:
    """Case 5 (the witness meets P but not Q, and m >= n + 2) when its
    chain search finds no move: the reattachment with H and F swapped,
    giving K(P + M - v, Q + N).  The witness holds M - v and misses Q and
    N, so it stays independent."""
    found = _leaf_neighbor(units, inc, h_idx)
    if found is None:
        return None
    f_idx, v = found
    h, f = units[h_idx], units[f_idx]
    if witness & f.other_side(v) and not witness & f.side_of(v):
        if len(h.side_of(v)) >= len(h.other_side(v)) + 2:
            return _directional_step(REATTACH, h, f, v, "case 5 reattach")
    return None


def _leaf_case_step(
    g: Graph,
    units: list[Unit],
    inc: dict[int, list[int]],
    h_idx: int,
    witness: frozenset[int],
) -> RewriteStep | None:
    """Which move the case analysis prescribes at one leaf unit, if any."""
    found = _leaf_neighbor(units, inc, h_idx)
    if found is None:
        return None
    f_idx, v = found
    h, f = units[h_idx], units[f_idx]
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
        if len(units) == 2:
            if p == q - 1:
                return _merge_step(f, h, v, "two-block subcase 3.1")
            return _directional_step(REATTACH, f, h, v, "two-block subcase 3.2")
        non_cut = [c for c in sorted(near_f - {v}) if len(inc[c]) == 1]
        if not non_cut:
            # Every vertex of Q is a cut vertex: merge F with the block
            # behind a witness vertex of Q instead.
            u = min(witness & near_f)
            if len(inc[u]) != 2:
                return None
            (b_idx,) = (i for i in inc[u] if i != f_idx)
            return _merge_step(f, units[b_idx], u, "case 3 subcase 1")
        c = non_cut[0]
        x = perron(g).X
        b_n = float(x[min(far_h)])
        rest = sorted(near_h - {v})
        if rest:
            b_m = float(x[rest[0]])
        else:
            b_m = float(x[v]) - float(x[c])
        if b_m >= b_n - 1e-12:
            return _directional_step(REATTACH, f, h, v, "case 3 subcase 2.1")
        n1 = tuple(sorted(far_h)[:m])
        return _directional_step(
            SPLIT_PARTITION, f, h, v, "case 3 subcase 2.2", n1=n1
        )
    # in_p and not in_q
    if n >= m or m == n + 1:
        return _merge_step(f, h, v, "case 4")
    return _case5_resolve(g, units, inc, f_idx, v, witness)


def _case5_resolve(
    g: Graph,
    units: list[Unit],
    inc: dict[int, list[int]],
    f_idx: int,
    v: int,
    witness: frozenset[int],
) -> RewriteStep | None:
    """Chain search of case 5: walk away from the leaf through witness-
    occupied far sides until a mergeable neighbor or a far leaf."""
    f = units[f_idx]
    visited = {f_idx}

    def walk(cur_idx: int, far_side: frozenset[int]) -> RewriteStep | None:
        cur = units[cur_idx]
        for w in sorted(far_side):
            if len(inc[w]) != 2:
                continue
            for d_idx in inc[w]:
                if d_idx == cur_idx or d_idx in visited:
                    continue
                visited.add(d_idx)
                d = units[d_idx]
                r_side = d.other_side(w)
                if not witness & r_side:
                    return _merge_step(cur, d, w, "case 5 merge")
                d_cuts = _unit_cut_vertices(d, inc)
                if d_cuts == [w]:
                    return _leaf_case_step(g, units, inc, d_idx, witness)
                found = walk(d_idx, r_side)
                if found is not None:
                    return found
        return None

    return walk(f_idx, f.other_side(v))


def _index_reductions(pieces: list[Unit], v: int, witness: frozenset[int], ids=None):
    """Index reductions at v for each pigeonhole-valid pair of the pieces
    there: units, or standard blocks with their ids."""
    for a, b in combinations(range(len(pieces)), 2):
        if _reduce_pair_valid(witness, pieces[a], pieces[b], v):
            yield _merge_step(
                pieces[a], pieces[b], v, "block-index reduction",
                block_ids=None if ids is None else (ids[a], ids[b]),
                kind=REDUCE_BLOCK_INDEX,
            )


def find_applicable(g: Graph, witness) -> list[RewriteStep]:
    """All rewrite steps whose case hypotheses hold for this witness.

    Ordered: unit-level index reductions, then leaf-directed steps, then
    index reductions over standard blocks not already covered (these are
    the degenerate star merges), and last, only when no leaf unit yields
    a step, the swapped reattachments of case 5.  Complete bipartite
    graphs, stars included, admit no step.
    """
    t = decompose(g)
    witness = frozenset(witness)
    if not _is_independent(g, witness) or len(witness) != alpha_matching(g).alpha:
        raise NotMaximumError("witness is not a maximum independent set")
    if is_complete_bipartite(g):
        return []
    units = unit_decomposition(g)
    inc = _unit_incidence(units, g.k)

    steps: dict = {}

    def put(step: RewriteStep | None) -> None:
        if step is not None and step.key() not in steps:
            steps[step.key()] = step

    for v in range(g.k):
        if len(inc[v]) >= 3:
            for step in _index_reductions([units[i] for i in inc[v]], v, witness):
                put(step)
    leaves = _leaf_units(units, inc)
    leaf_steps = [_leaf_case_step(g, units, inc, h_idx, witness) for h_idx in leaves]
    for step in leaf_steps:
        put(step)
    for v in sorted(t.cut_vertices):
        ids = t.incidence[v]
        if len(ids) >= 3:
            blocks = [_block_unit(t, i) for i in ids]
            for step in _index_reductions(blocks, v, witness, ids):
                put(step)
    if all(step is None for step in leaf_steps):
        for h_idx in leaves:
            put(_swapped_reattach(units, inc, h_idx, witness))
    return list(steps.values())


# ---------------------------------------------------------------------------
# Normalization driver
# ---------------------------------------------------------------------------


def normalize(g: Graph) -> tuple[Graph, list[RewriteOutcome]]:
    """Carry a bi-block graph to the complete bipartite graph K(alpha, k-alpha).

    Applies index reductions until every cut vertex lies in two units,
    then leaf-directed moves until one unit remains.  Degenerate no-op
    steps are skipped; every applied step changes the edge set, so the
    unit count strictly decreases and the loop terminates.
    """
    if g.k == 1:
        return g, []
    if not is_bi_block(g):
        raise NotBiBlockError("normalize requires a bi-block graph")
    cur = g
    outcomes: list[RewriteOutcome] = []
    bound = len(decompose(g).blocks)
    while not is_complete_bipartite(cur):
        if len(outcomes) > bound:
            raise StuckError("step budget exceeded without reaching one block")
        witness = alpha_bruteforce(cur).witness
        chosen = None
        for step in find_applicable(cur, witness):
            if _edit(cur, step) != cur:
                chosen = step
                break
        if chosen is None:
            raise StuckError("no applicable step with a real edge edit")
        outcome = apply_step(cur, chosen)
        outcomes.append(outcome)
        cur = outcome.result
    return cur, outcomes
