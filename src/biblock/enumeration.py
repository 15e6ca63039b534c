"""Isomorph-free enumeration of connected bi-block graphs and the
extremal verification sweep.

Two generation routes exist on purpose.  The production route grows a
tree of complete bipartite blocks, attaching one block at a time at an
existing vertex and deduplicating by canonical form.  The cross-check
route enumerates bipartite edge subsets outright and filters; it shares
no logic with the block-tree route and pins down its correctness for
small k.

The extremal sweep computes each quantity once: ``verify_theorem``
enumerates B(k) once, takes each graph's alpha once and partitions the
graphs by it, and each graph's Perron pair is solved once and cached on
the graph.  One per-class check serves the sweep and ``extremal_verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .blocks import is_bi_block
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
    complete_bipartite,
    is_connected,
    is_isomorphic,
)
from .independence import alpha_matching
from .spectral import perron

GENERATION_CAP = 10
FILTER_CAP = 7
UNIQUENESS_BAND = 1e-9


@dataclass(frozen=True)
class ClassSpec:
    """The class B(k, alpha); alpha may be left open to mean all values.

    Feasible alphas lie in [ceil(k/2), k-1]; out-of-range values simply
    name an empty class.
    """

    k: int
    alpha: int | None = None


def _attach_block(g: Graph, w: int, a: int, b: int) -> Graph:
    """Glue a new K_{a,b} at vertex w, with w on the a-sized side."""
    j = (a - 1) + b
    k_new = g.k + j
    adj = list(g.adj) + [0] * j
    m_side = [w] + list(range(g.k, g.k + a - 1))
    n_side = list(range(g.k + a - 1, g.k + a - 1 + b))
    for u in m_side:
        for v in n_side:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(k_new, tuple(adj))


def enumerate_biblock(k: int) -> list[Graph]:
    """All connected bi-block graphs on k vertices, one per isomorphism
    class, sorted by canonical form."""
    if k < 2:
        raise InvalidSizeError(f"enumeration needs k >= 2, got {k}")
    if k > GENERATION_CAP:
        raise TooLargeError(f"generation capped at k <= {GENERATION_CAP}, got {k}")
    results: dict[CanonicalForm, Graph] = {}
    seen: set[CanonicalForm] = set()
    stack: list[Graph] = []

    def visit(g: Graph) -> None:
        c = canonical_form(g)
        if g.k == k:
            results.setdefault(c, g)
        elif c not in seen:
            seen.add(c)
            stack.append(g)

    for a in range(1, k + 1):
        for b in range(a, k - a + 1):
            visit(complete_bipartite(a, b))
    while stack:
        g = stack.pop()
        budget = k - g.k
        for w in range(g.k):
            for j in range(1, budget + 1):
                for a in range(1, j + 1):
                    visit(_attach_block(g, w, a, j - a + 1))
    out = sorted(results.values(), key=lambda g: canonical_form(g).data)
    assert all(is_bi_block(g) for g in out)
    return out


def enumerate_biblock_filtered(k: int) -> list[Graph]:
    """Cross-check generator: filter connected bipartite edge subsets.

    Every connected bipartite graph has a unique 2-coloring with vertex
    0 on side M, so iterating over (M, edge subset) pairs hits each
    labeled graph exactly once.  Capped low; cost grows as 2^(m*n).
    """
    if k < 2:
        raise InvalidSizeError(f"enumeration needs k >= 2, got {k}")
    if k > FILTER_CAP:
        raise TooLargeError(f"filter route capped at k <= {FILTER_CAP}, got {k}")
    results: dict[CanonicalForm, Graph] = {}
    for m_rest in range(1 << (k - 1)):
        m_side = [0] + [v for v in range(1, k) if m_rest >> (v - 1) & 1]
        n_side = [v for v in range(1, k) if not m_rest >> (v - 1) & 1]
        if not n_side:
            continue
        cross = [(u, v) for u in m_side for v in n_side]
        if len(cross) < k - 1:
            continue
        for picks in range(1 << len(cross)):
            if picks.bit_count() < k - 1:
                continue
            adj = [0] * k
            p = picks
            idx = 0
            while p:
                if p & 1:
                    u, v = cross[idx]
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                p >>= 1
                idx += 1
            g = Graph(k, tuple(adj))
            if not is_connected(g) or not is_bi_block(g):
                continue
            results.setdefault(canonical_form(g), g)
    return sorted(results.values(), key=lambda g: canonical_form(g).data)


def enumerate_class(spec: ClassSpec) -> list[Graph]:
    """Members of B(k, alpha), or all bi-block graphs when alpha is open."""
    graphs = enumerate_biblock(spec.k)
    if spec.alpha is None:
        return graphs
    return [g for g in graphs if alpha_matching(g).alpha == spec.alpha]


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

    The maximizer must be K_{alpha, k-alpha}, its rho must equal
    sqrt(alpha * (k - alpha)), and in classes with more than one member
    the runner-up must trail by more than the uniqueness band.  Raises
    TheoremViolationError (carrying the offender) otherwise.
    """
    if not members:
        raise EmptyClassError(f"B({k}, {alpha}) is empty")
    rhos = [perron(g).rho for g in members]
    order = sorted(range(len(members)), key=lambda i: rhos[i], reverse=True)
    best = order[0]
    max_rho = rhos[best]
    argmax = members[best]
    runner_up = rhos[order[1]] if len(members) > 1 else None
    margin = max_rho - runner_up if runner_up is not None else None
    attain = [i for i in order if rhos[i] > max_rho - UNIQUENESS_BAND]
    report = ExtremalReport(
        k=k,
        alpha=alpha,
        class_size=len(members),
        max_rho=max_rho,
        argmax_canonical=canonical_form(argmax),
        is_unique=len(attain) == 1,
        runner_up_rho=runner_up,
        margin=margin,
    )
    target = complete_bipartite(alpha, k - alpha)
    if not is_isomorphic(argmax, target):
        raise TheoremViolationError(
            f"argmax of B({k},{alpha}) is not K_{{alpha,k-alpha}}", argmax
        )
    expected = math.sqrt(alpha * (k - alpha))
    if abs(max_rho - expected) >= UNIQUENESS_BAND:
        raise TheoremViolationError(
            f"max rho {max_rho} differs from sqrt(alpha(k-alpha)) = {expected}",
            argmax,
        )
    if len(members) > 1 and not (margin is not None and margin > UNIQUENESS_BAND):
        raise TheoremViolationError(
            f"maximizer of B({k},{alpha}) is not unique (margin {margin})",
            members[order[1]],
        )
    return report


def extremal_verify(spec: ClassSpec) -> ExtremalReport:
    """Maximize rho over B(k, alpha) and check the extremal claims."""
    if spec.alpha is None:
        raise InvalidSizeError("extremal_verify needs an explicit alpha")
    return _verify_class(spec.k, spec.alpha, enumerate_class(spec))


def verify_theorem(k: int, alpha: int | None = None) -> list[ExtremalReport]:
    """Extremal reports for every nonempty class at this k (or one alpha).

    B(k) is enumerated once and each graph's alpha taken once; the
    graphs are then partitioned by alpha, one class per report.
    """
    if alpha is not None:
        return [extremal_verify(ClassSpec(k, alpha))]
    classes: dict[int, list[Graph]] = {}
    for g in enumerate_biblock(k):
        classes.setdefault(alpha_matching(g).alpha, []).append(g)
    return [_verify_class(k, a, classes[a]) for a in sorted(classes)]
