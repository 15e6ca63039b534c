"""Perron eigenpairs and the eigenvector identities of two-block and
leaf-block configurations.

The Perron pair comes from one symmetric eigensolve of the dense
adjacency matrix.  The solver returns the top eigenvector up to sign and
rounding, so its absolute value is taken and every entry below the
smallest positive normal double is raised to it: along long pendant
paths the true entries decay below 1e-17 and even underflow, and there
the solver returns zeros or tiny values of either sign.  The pair is
checked rather than trusted: every entry must be positive and the
residual must meet ``DEFAULT_TOL`` relative to rho + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockCutTree, decompose
from .errors import (
    BiblockError,
    DisconnectedError,
    InvalidSizeError,
    NoConvergenceError,
    NoSuchConfigurationError,
    NotConstantWithinClassError,
    SizeMismatchError,
    ZeroVectorError,
)
from .graphs import Graph, add_edge, from_edge_list, is_connected

DEFAULT_TOL = 1e-12
CLASS_TOL = 1e-9
RHO_MARGIN = 1e-10


@dataclass(frozen=True)
class PerronPair:
    """Spectral radius with its entrywise-positive unit eigenvector."""

    rho: float
    X: np.ndarray
    normalization: str = "unit-2-norm"


def dense_adjacency(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix, cached on the graph."""
    if g._dense is None:
        a = np.zeros((g.k, g.k))
        for u, v in g.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        a.setflags(write=False)
        g._dense = a
    return g._dense


def perron(g: Graph) -> PerronPair:
    """Dominant eigenpair of the adjacency matrix of a connected graph.

    One ``numpy.linalg.eigh`` call on the cached dense adjacency gives
    the top eigenvector; its absolute value, floored at
    ``np.finfo(float).tiny``, is X and its Rayleigh quotient is rho.
    ``NoConvergenceError`` is raised unless every entry of X is positive
    and ``max|(A + I)X - (rho + 1)X| <= DEFAULT_TOL * (rho + 1)``.  The
    +1 shift leaves the residual vector as it is; it keeps the bound
    relative to rho + 1, the tolerance the rest of this module and its
    tests are stated against.  The pair is cached on the graph, so each
    graph is solved once.
    """
    if g._perron is not None:
        return g._perron
    if g.k < 2:
        raise InvalidSizeError("perron needs k >= 2")
    if not is_connected(g):
        raise DisconnectedError("perron requires a connected graph")
    a = dense_adjacency(g)
    x = np.maximum(np.abs(np.linalg.eigh(a)[1][:, -1]), np.finfo(float).tiny)
    y = a @ x + x
    lam = float(x @ y)
    resid = float(np.max(np.abs(y - lam * x)))
    if not (np.min(x) > 0.0 and resid <= DEFAULT_TOL * lam):
        raise NoConvergenceError(
            f"Perron pair failed its checks: residual {resid:.3e} "
            f"(tol={DEFAULT_TOL} * {lam:.6g}), min entry {np.min(x):.3e}"
        )
    x.setflags(write=False)
    g._perron = PerronPair(lam - 1.0, x)
    return g._perron


def rayleigh(g: Graph, x) -> float:
    """Rayleigh quotient (2 sum over edges of x_u x_w) / sum of squares."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.k,):
        raise SizeMismatchError(f"vector length {x.shape} vs k={g.k}")
    denom = float(x @ x)
    if denom == 0.0:
        raise ZeroVectorError("Rayleigh quotient of the zero vector")
    num = 2.0 * sum(x[u] * x[v] for u, v in g.edges)
    return num / denom


def degree_bounds(g: Graph) -> tuple[int, float, int]:
    """(min degree, rho, max degree); rho must sit between the two."""
    pair = perron(g)
    degs = [g.degree(v) for v in range(g.k)]
    lo, hi = min(degs), max(degs)
    if not lo - 1e-9 <= pair.rho <= hi + 1e-9:
        raise BiblockError(f"degree bounds violated: {lo} <= {pair.rho} <= {hi}")
    return lo, pair.rho, hi


def quad_form_delta(g: Graph, g_star: Graph, x) -> float:
    """(1/2) X^t (A* - A) X, computed edge-wise over the two edge sets."""
    if g.k != g_star.k:
        raise SizeMismatchError(f"vertex counts differ: {g.k} vs {g_star.k}")
    x = np.asarray(x, dtype=float)
    if x.shape != (g.k,):
        raise SizeMismatchError(f"vector length {x.shape} vs k={g.k}")
    added = g_star.edges - g.edges
    removed = g.edges - g_star.edges
    return float(
        sum(x[u] * x[v] for u, v in added) - sum(x[u] * x[v] for u, v in removed)
    )


@dataclass(frozen=True)
class EdgeMonotonicityReport:
    rho_before: float
    rho_after: float
    increase: float


def edge_monotonicity_check(g: Graph, u: int, v: int) -> EdgeMonotonicityReport:
    """Check that adding the non-edge uv raises rho by more than
    ``RHO_MARGIN``."""
    before = perron(g).rho
    after = perron(add_edge(g, u, v)).rho
    if not after > before + RHO_MARGIN:
        raise BiblockError(
            f"rho failed to increase: {before} -> {after} (margin {RHO_MARGIN})"
        )
    return EdgeMonotonicityReport(before, after, after - before)


# ---------------------------------------------------------------------------
# Two-block configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoBlockLabeling:
    """Deterministic labels for K(P,Q)-v-K(M,N): P, then Q with the cut
    vertex last, then M minus the cut vertex, then N."""

    p: int
    q: int
    m: int
    n: int

    @property
    def v(self) -> int:
        return self.p + self.q - 1

    @property
    def P(self) -> tuple[int, ...]:
        return tuple(range(self.p))

    @property
    def Q(self) -> tuple[int, ...]:
        return tuple(range(self.p, self.p + self.q))

    @property
    def M(self) -> tuple[int, ...]:
        return (self.v,) + tuple(range(self.p + self.q, self.p + self.q + self.m - 1))

    @property
    def N(self) -> tuple[int, ...]:
        start = self.p + self.q + self.m - 1
        return tuple(range(start, start + self.n))


def two_block_labeling(p: int, q: int, m: int, n: int) -> TwoBlockLabeling:
    if min(p, q, m, n) < 1:
        raise InvalidSizeError(f"part sizes must be >= 1, got {(p, q, m, n)}")
    return TwoBlockLabeling(p, q, m, n)


def build_two_block(p: int, q: int, m: int, n: int) -> Graph:
    """Graph of two complete bipartite blocks sharing one cut vertex.

    The cut vertex lies in Q of the first block and M of the second.
    """
    lab = two_block_labeling(p, q, m, n)
    pairs = [(a, b) for a in lab.P for b in lab.Q]
    pairs += [(a, b) for a in lab.M for b in lab.N]
    return from_edge_list(p + q + m + n - 1, pairs)


def two_block_rho(p: int, q: int, m: int, n: int) -> float:
    """Closed-form spectral radius of the two-block graph.

    Also asserts the strict bound rho > max(sqrt(pq), sqrt(mn)).
    """
    if min(p, q, m, n) < 1:
        raise InvalidSizeError(f"part sizes must be >= 1, got {(p, q, m, n)}")
    pq, mn = p * q, m * n
    rho = math.sqrt(((pq + mn) + math.sqrt((pq - mn) ** 2 + 4 * p * n)) / 2.0)
    if not rho > max(math.sqrt(pq), math.sqrt(mn)):
        raise BiblockError(f"closed form lost strictness at {(p, q, m, n)}")
    return rho


@dataclass(frozen=True)
class TwoBlockEigenData:
    """Per-class Perron entries of a two-block graph.

    When a class next to the cut vertex is empty (q = 1 or m = 1) its
    value is defined through the split x_v = a_q + a_m, which keeps every
    identity valid.
    """

    p: int
    q: int
    m: int
    n: int
    a_p: float
    a_q: float
    a_m: float
    a_n: float
    x_v: float


def _class_value(x: np.ndarray, idx, label: str) -> float:
    vals = x[list(idx)]
    spread = float(np.max(vals) - np.min(vals))
    if spread > CLASS_TOL:
        raise NotConstantWithinClassError(
            f"entries of class {label} spread by {spread:.3e} (> {CLASS_TOL:.1e})"
        )
    return float(np.mean(vals))


def _two_block_data(
    x: np.ndarray, rho: float, far_f, near_f, near_h, far_h, v: int
) -> TwoBlockEigenData:
    """Per-class values of K(P,Q)-v-K(M,N) read off a Perron vector, with
    P = far_f, Q = near_f, M = near_h, N = far_h and v in both Q and M."""
    a_p = _class_value(x, far_f, "P")
    a_n = _class_value(x, far_h, "N")
    x_v = float(x[v])
    q_rest = [w for w in near_f if w != v]
    m_rest = [w for w in near_h if w != v]
    if q_rest:
        a_q = _class_value(x, q_rest, "Q-v")
    if m_rest:
        a_m = _class_value(x, m_rest, "M-v")
    if not q_rest and not m_rest:
        a_q = len(far_f) * a_p / rho
        a_m = x_v - a_q
    elif not q_rest:
        a_q = x_v - a_m
    elif not m_rest:
        a_m = x_v - a_q
    return TwoBlockEigenData(
        len(far_f), len(near_f), len(near_h), len(far_h), a_p, a_q, a_m, a_n, x_v
    )


def extract_two_block_data(
    g: Graph, labeling: TwoBlockLabeling, pair: PerronPair
) -> TwoBlockEigenData:
    """Read the constant per-class eigenvector values off a Perron pair."""
    lab = labeling
    if g.k != lab.p + lab.q + lab.m + lab.n - 1:
        raise SizeMismatchError("graph does not match the labeling")
    return _two_block_data(pair.X, pair.rho, lab.P, lab.Q, lab.M, lab.N, lab.v)


def check_identities_I(data: TwoBlockEigenData, rho: float) -> dict[str, float]:
    """Residuals of the eight two-block eigenvector identities.

    The anchored forms (I6, I7) are checked after rescaling to a_p = 1
    and a_n = 1 respectively; I8 couples the two anchorings.
    """
    p, q, m, n = data.p, data.q, data.m, data.n
    a_p, a_q, a_m, a_n, x_v = data.a_p, data.a_q, data.a_m, data.a_n, data.x_v
    res = {
        "I1": (q - 1) * a_q + x_v - rho * a_p,
        "I2": p * a_p - rho * a_q,
        "I3": p * a_p + n * a_n - rho * x_v,
        "I4": n * a_n - rho * a_m,
        "I5": x_v + (m - 1) * a_m - rho * a_n,
        "I1*": q * a_q + a_m - rho * a_p,
        "I5*": a_q + m * a_m - rho * a_n,
        "xv-split": x_v - (a_q + a_m),
    }
    anchored_p = (a_q / a_p, a_m / a_p, a_n / a_p)
    res["I6"] = max(
        abs(anchored_p[0] - p / rho),
        abs(anchored_p[1] - (rho**2 - p * q) / rho),
        abs(anchored_p[2] - (rho**2 - p * q) / n),
    )
    anchored_n = (a_m / a_n, a_q / a_n, a_p / a_n)
    res["I7"] = max(
        abs(anchored_n[0] - n / rho),
        abs(anchored_n[1] - (rho**2 - m * n) / rho),
        abs(anchored_n[2] - (rho**2 - m * n) / p),
    )
    res["I8"] = p * n - (rho**2 - p * q) * (rho**2 - m * n)
    return {key: abs(val) for key, val in res.items()}


def two_block_data_from_graph(g: Graph) -> TwoBlockEigenData | None:
    """Eigenvector class data for a graph of exactly two blocks.

    Returns None when the graph is not a two-block configuration.  The
    first block (in id order) plays F; the identities hold for either
    assignment.
    """
    t = decompose(g)
    if len(t.blocks) != 2:
        return None
    fblk, hblk = t.blocks
    if fblk.parts is None or hblk.parts is None:
        return None
    shared = fblk.vertices & hblk.vertices
    if len(shared) != 1:
        return None
    (v,) = shared
    pair = perron(g)
    sides = (fblk.other_side(v), fblk.side_of(v), hblk.side_of(v), hblk.other_side(v))
    return _two_block_data(pair.X, pair.rho, *map(sorted, sides), v)


# ---------------------------------------------------------------------------
# Leaf-block configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeafConfig:
    """A leaf block H at cut vertex v, its neighbor F, and a non-cut
    witness vertex c in F's side containing v."""

    h_id: int
    f_id: int
    v: int
    c: int


@dataclass(frozen=True)
class LeafEigenData:
    b_m: float
    b_n: float
    x_v: float
    x_c: float


def find_leaf_configs(g: Graph) -> list[LeafConfig]:
    """All valid (leaf block, neighbor, witness vertex) configurations.

    Valid means: H is a leaf block whose cut vertex v lies in exactly
    two blocks, and F's side through v has a non-cut vertex c besides v.
    """
    t = decompose(g)
    configs = []
    for h_id, blk in enumerate(t.blocks):
        cut_in = blk.vertices & t.cut_vertices
        if len(cut_in) != 1 or not blk.is_complete_bipartite:
            continue
        (v,) = cut_in
        if len(t.incidence[v]) != 2:
            continue
        (f_id,) = (b for b in t.incidence[v] if b != h_id)
        fblk = t.blocks[f_id]
        if not fblk.is_complete_bipartite:
            continue
        q_side = fblk.side_of(v)
        for c in sorted(q_side - {v}):
            if c not in t.cut_vertices:
                configs.append(LeafConfig(h_id, f_id, v, c))
    return configs


def leaf_eigen_data(g: Graph, config: LeafConfig) -> LeafEigenData:
    """Constant eigenvector values on a leaf block (b_m via the
    x_v = x_c + b_m split when the cut side is a singleton)."""
    t = decompose(g)
    _validate_leaf_config(t, config)
    x = perron(g).X
    hblk = t.blocks[config.h_id]
    m_side = hblk.side_of(config.v)
    n_side = hblk.other_side(config.v)
    b_n = _class_value(x, sorted(n_side), "N")
    x_v = float(x[config.v])
    x_c = float(x[config.c])
    rest = sorted(m_side - {config.v})
    if rest:
        b_m = _class_value(x, rest, "M-v")
    else:
        b_m = x_v - x_c
    return LeafEigenData(b_m, b_n, x_v, x_c)


def _validate_leaf_config(t: BlockCutTree, config: LeafConfig) -> None:
    if config.h_id >= len(t.blocks) or config.f_id >= len(t.blocks):
        raise NoSuchConfigurationError("block id out of range")
    hblk = t.blocks[config.h_id]
    fblk = t.blocks[config.f_id]
    if hblk.vertices & t.cut_vertices != {config.v}:
        raise NoSuchConfigurationError("H is not a leaf block at v")
    if t.incidence[config.v] not in ((config.h_id, config.f_id), (config.f_id, config.h_id)):
        raise NoSuchConfigurationError("v must lie in exactly the blocks H and F")
    if not (hblk.is_complete_bipartite and fblk.is_complete_bipartite):
        raise NoSuchConfigurationError("blocks must be complete bipartite")
    if config.c == config.v or config.c not in fblk.side_of(config.v):
        raise NoSuchConfigurationError("c must lie in F's side through v")
    if config.c in t.cut_vertices:
        raise NoSuchConfigurationError("c must not be a cut vertex")


def check_identities_J(g: Graph, config: LeafConfig) -> dict[str, float]:
    """Residuals of the leaf-block identities J1-J4, J3*, and the split
    x_v = x_c + b_m."""
    data = leaf_eigen_data(g, config)
    t = decompose(g)
    pair = perron(g)
    x = pair.X
    rho = pair.rho
    fblk = t.blocks[config.f_id]
    p_side = sorted(fblk.other_side(config.v))
    hblk = t.blocks[config.h_id]
    m = len(hblk.side_of(config.v))
    n = len(hblk.other_side(config.v))
    sum_p = float(np.sum(x[p_side]))
    b_m, b_n, x_v, x_c = data.b_m, data.b_n, data.x_v, data.x_c
    res = {
        "J1": rho * x_c - sum_p,
        "J2": rho * x_v - (sum_p + n * b_n),
        "J3": rho * b_n - ((m - 1) * b_m + x_v),
        "J4": rho * b_m - n * b_n,
        "J3*": rho * b_n - (m * b_m + x_c),
        "xv-split": x_v - (x_c + b_m),
    }
    return {key: abs(val) for key, val in res.items()}
