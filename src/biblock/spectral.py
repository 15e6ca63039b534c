"""Perron eigenpairs and the eigenvector identities of two-block and
leaf-block configurations.

A connected bipartite graph with sides L and R has the adjacency matrix
A = [[0, B], [B^T, 0]], so rho^2 is the top eigenvalue of B B^T and the
Perron entries on R are B^T u / rho for its top eigenvector u
(Cvetkovic, Rowlinson & Simic, *An Introduction to the Theory of Graph
Spectra*, 2010, section 1.3).  ``perron`` solves such a graph on its
smaller side: one symmetric eigensolve of the |L| x |L| Gram matrix of
L's rows, with no k x k array.  Any other connected graph gets one
eigensolve of its dense adjacency matrix.  A solver returns its top
eigenvector up to sign and rounding, so the absolute value is taken
and every entry below the smallest positive normal double is raised to
it: along long pendant paths the true entries decay below 1e-17 and
even underflow, and there the solver returns zeros or tiny values of
either sign.  Every pair is checked rather than trusted, by one check
for both routes: every entry must be positive and the residual must
meet ``DEFAULT_TOL`` relative to rho + 1.  ``perron_batch`` solves
graphs of one size by stacking their dense matrices into one ``eigh``
call per chunk.  numpy is imported by the functions that build or read
arrays, at the first Perron solve, not with the module, so the commands
that never solve load none of it.

``check_identities_I`` checks the two-block identities on the class
values ``two_block_data_from_graph`` reads off the Perron vector of a
graph of two blocks.  ``check_identities_J`` checks the leaf-block
identities in one pass over the block-cut tree: each complete bipartite
leaf block H with a complete bipartite neighbour F is read once (the
sum over P, b_n, x_v and b_m), and the residuals of each non-cut witness
c on F's side through v follow from those values and x_c.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import decompose, leaf_neighbor
from .errors import (
    DisconnectedError,
    InvalidSizeError,
    NoConvergenceError,
    NotConstantWithinClassError,
    SizeMismatchError,
)
from .graphs import Graph, _bits, _layers, _same_side_edge

DEFAULT_TOL = 1e-12
CLASS_TOL = 1e-9
RHO_MARGIN = 1e-10
# Graphs per eigensolve in ``perron_batch``.  verify-theorem --k 13
# peaked at 53 MB RSS with chunks of 256, 512 or 1024 graphs and at 81 MB
# with each class in one stack, at about the same CPU time.
BATCH_CHUNK = 512


@dataclass(frozen=True)
class PerronPair:
    """Spectral radius with its entrywise-positive unit eigenvector."""

    rho: float
    X: np.ndarray


def _dense_rows(masks, k: int) -> np.ndarray:
    """The given bit rows of graphs on k vertices unpacked into a fresh
    (n, k) float array of 0s and 1s."""
    import numpy as np

    width = (k + 7) // 8
    packed = np.frombuffer(
        b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8
    ).reshape(-1, width)
    return np.unpackbits(packed, axis=1, count=k, bitorder="little").astype(float)


def _adjacency_stack(graphs, k: int) -> np.ndarray:
    """Dense 0/1 adjacency matrices of graphs on k vertices, stacked into
    an (n, k, k) array, unpacked afresh from the bit rows."""
    return _dense_rows((m for g in graphs for m in g.adj), k).reshape(len(graphs), k, k)


def _verified(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho, X) of each row of the stack x, shape (n, k), given y, the
    rows of (A + I)X for each row's matrix A.

    rho + 1 is the Rayleigh quotient x . y.  Every X must be positive and
    meet ``max|(A + I)X - (rho + 1)X| <= DEFAULT_TOL * (rho + 1)``; the
    first row that does not raises ``NoConvergenceError``.  The +1 shift
    leaves the residual vector as it is; it keeps the bound relative to
    rho + 1, the tolerance this module and its tests are stated against.
    The products are batched vector-vector ones, so a stack of one gives
    the same bits as the same arithmetic on a lone vector.  x is made
    read-only and returned.
    """
    import numpy as np

    lam = np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]
    resid = np.abs(y - lam[:, None] * x).max(axis=1)
    low = x.min(axis=1)
    ok = (low > 0.0) & (resid <= DEFAULT_TOL * lam)
    if not ok.all():
        i = ok.argmin()
        raise NoConvergenceError(
            f"Perron pair failed its checks: residual {resid[i]:.3e} "
            f"(tol={DEFAULT_TOL} * {lam[i]:.6g}), min entry {low[i]:.3e}"
        )
    x.setflags(write=False)
    return lam - 1.0, x


def _checked_pairs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho, X) of every matrix in the stack a, shape (n, k, k), from one
    ``eigh`` call, checked by ``_verified``.

    Each top eigenvector's absolute value, floored at
    ``np.finfo(float).tiny``, is its X (a row of a fresh, read-only
    (n, k) array, not a view of the solver's eigenvector stack).  (A + I)X
    comes from batched matrix-vector products, so again a stack of one
    gives the same bits as a lone matrix.
    """
    import numpy as np

    x = np.maximum(np.abs(np.linalg.eigh(a)[1][:, :, -1]), np.finfo(float).tiny)
    return _verified(x, np.matmul(a, x[:, :, None])[:, :, 0] + x)


def _bipartite_pair(g: Graph, side: int) -> tuple[np.ndarray, np.ndarray]:
    """(rho, X) of a connected bipartite graph, as one-row stacks, from one
    ``eigh`` of the Gram matrix of the rows of ``side``, one of its two
    colour classes given as a mask, checked by ``_verified``.

    The rows of ``side`` are non-zero only in the other side's columns,
    so with a those rows as an (|side|, k) array, a a^T is B B^T and a^T
    u is B^T u.  With (lambda, u) the top eigenpair of a a^T, X is
    sqrt(lambda) u on ``side`` and a^T u elsewhere, normalised, and its
    absolute value floored at ``np.finfo(float).tiny`` as in
    ``_checked_pairs``.  (A + I)X is a x on ``side`` and a^T x elsewhere,
    plus X, so no k x k array is built.
    """
    import numpy as np

    idx = list(_bits(side))
    a = _dense_rows((g.adj[i] for i in idx), g.k)
    w, v = np.linalg.eigh(a @ a.T)
    u = v[:, -1]
    x = a.T @ u
    x[idx] = np.sqrt(w[-1]) * u
    x = np.maximum(np.abs(x[None] / np.linalg.norm(x)), np.finfo(float).tiny)
    y = a.T @ x[0, idx] + x[0]
    y[idx] += a @ x[0]
    return _verified(x, y[None])


def perron(g: Graph) -> PerronPair:
    """Dominant eigenpair of the adjacency matrix of a connected graph on
    k >= 2 vertices, cached on the graph, so each graph is solved once
    and keeps no k x k array.

    One breadth-first layering checks connectivity and 2-colours g.  A
    bipartite graph is solved on its smaller side by ``_bipartite_pair``;
    any other graph by ``_checked_pairs`` on its dense matrix, with the
    same arithmetic and bits as ``perron_batch``.
    """
    if g._perron is None:
        seen, even, odd = _layers(g, 0)
        if seen != (1 << g.k) - 1:
            raise DisconnectedError("perron requires a connected graph")
        if g.k < 2:
            raise InvalidSizeError("perron needs k >= 2")
        if _same_side_edge(g, even, odd) is None:
            rho, x = _bipartite_pair(g, min(even, odd, key=int.bit_count))
        else:
            rho, x = _checked_pairs(_adjacency_stack([g], g.k))
        g._perron = PerronPair(rho.item(), x[0])
    return g._perron


def perron_batch(graphs) -> list[float]:
    """rho of each of the given connected graphs, which share one vertex
    count k >= 2, with every Perron pair cached on its graph as
    ``perron`` would cache it.

    The graphs without a cached pair are solved ``BATCH_CHUNK`` at a
    time, one ``eigh`` call per chunk checked by ``_checked_pairs``, so
    memory stays flat however many graphs are given.  Connectivity is
    the caller's to vouch for and is not checked here: enumeration
    asserts it as it builds each graph.
    """
    todo = [g for g in graphs if g._perron is None]
    for start in range(0, len(todo), BATCH_CHUNK):
        chunk = todo[start:start + BATCH_CHUNK]
        k = chunk[0].k
        if any(g.k != k for g in chunk):
            raise SizeMismatchError("perron_batch needs graphs of one vertex count")
        if k < 2:
            raise InvalidSizeError("perron needs k >= 2")
        rho, x = _checked_pairs(_adjacency_stack(chunk, k))
        for g, r, row in zip(chunk, rho.tolist(), x):
            g._perron = PerronPair(r, row)
    return [g._perron.rho for g in graphs]


# ---------------------------------------------------------------------------
# Two-block configurations
# ---------------------------------------------------------------------------


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
    spread = float(vals.max() - vals.min())
    if spread > CLASS_TOL:
        raise NotConstantWithinClassError(
            f"entries of class {label} spread by {spread:.3e} (> {CLASS_TOL:.1e})"
        )
    return float(vals.mean())


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


def check_identities_J(g: Graph) -> list[tuple[LeafConfig, dict[str, float]]]:
    """Residuals of the leaf-block identities J1-J4, J3*, and the split
    x_v = x_c + b_m on every leaf configuration of g, in block id order,
    then c.

    A configuration is a complete bipartite leaf block H whose cut vertex
    v lies in H and one complete bipartite block F only, with a non-cut
    vertex c != v on F's side through v.  When M - v is empty, b_m is
    taken from the split x_v - x_c for each c.
    """
    t = decompose(g)
    pair = perron(g)
    x = pair.X
    rho = pair.rho
    results = []
    for h_id, hblk in enumerate(t.blocks):
        found = leaf_neighbor(t, h_id)
        if found is None or not hblk.is_complete_bipartite:
            continue
        f_id, v = found
        fblk = t.blocks[f_id]
        if not fblk.is_complete_bipartite:
            continue
        witnesses = [c for c in sorted(fblk.side_of(v) - {v}) if c not in t.cut_vertices]
        if not witnesses:
            continue
        m_side = hblk.side_of(v)
        n_side = hblk.other_side(v)
        m, n = len(m_side), len(n_side)
        b_n = _class_value(x, sorted(n_side), "N")
        x_v = float(x[v])
        rest = sorted(m_side - {v})
        if rest:
            b_m = _class_value(x, rest, "M-v")
        sum_p = float(x[sorted(fblk.other_side(v))].sum())
        for c in witnesses:
            x_c = float(x[c])
            if not rest:
                b_m = x_v - x_c
            res = {
                "J1": rho * x_c - sum_p,
                "J2": rho * x_v - (sum_p + n * b_n),
                "J3": rho * b_n - ((m - 1) * b_m + x_v),
                "J4": rho * b_m - n * b_n,
                "J3*": rho * b_n - (m * b_m + x_c),
                "xv-split": x_v - (x_c + b_m),
            }
            results.append(
                (LeafConfig(h_id, f_id, v, c), {key: abs(val) for key, val in res.items()})
            )
    return results
