"""Output checks against references computed without biblock.

Each check takes the input graph (vertex count and sorted edge list)
and the program's parsed JSON output, and returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# |B(K)|, the number of connected bi-block graphs on K vertices up to
# isomorphism, for K = 2..10.
CLASS_SIZES = {2: 1, 3: 1, 4: 3, 5: 5, 6: 14, 7: 33, 8: 94, 9: 260, 10: 786}
RHO_REL = 1e-9
RHO_STEP_DROP = 1e-10


def adjacency(k: int, edges) -> np.ndarray:
    a = np.zeros((k, k))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def rho_ref(k: int, edges) -> float:
    return float(np.linalg.eigvalsh(adjacency(k, edges))[-1])


def _two_coloring(k: int, edges) -> list[int]:
    """Side (0/1) of each vertex, or -1 where unreached from vertex 0's component."""
    adj = [[] for _ in range(k)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * k
    for s in range(k):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        for u in queue:
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
    return color


def alpha_ref(k: int, edges) -> int:
    """Independence number of a bipartite graph: k minus a maximum matching (Koenig)."""
    color = _two_coloring(k, edges)
    adj = [[] for _ in range(k)]
    for u, v in edges:
        left, right = (u, v) if color[u] == 0 else (v, u)
        adj[left].append(right)
    mate = [-1] * k

    def augment(u: int, seen: set[int]) -> bool:
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                if mate[v] == -1 or augment(mate[v], seen):
                    mate[v] = u
                    return True
        return False

    return k - sum(augment(u, set()) for u in range(k) if color[u] == 0)


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= RHO_REL * max(1.0, ref)


def check_decompose(k: int, edges, rep: dict) -> list[str]:
    """The blocks must be the biconnected pieces of the graph.

    Edge-disjoint complete bipartite pieces that are each biconnected
    (K_{1,1}, or both sides >= 2) and cover every edge, with a tree as
    their vertex incidence, are exactly the blocks.
    """
    blocks = rep["blocks"]
    out = []
    covered = []
    for i, b in enumerate(blocks):
        if b["id"] != i or b["parts"] is None:
            return [f"block {i}: bad id or not complete bipartite"]
        p, q = b["parts"]
        if sorted(p + q) != b["vertices"]:
            out.append(f"block {i}: parts do not cover its vertices")
        if not (len(p) == len(q) == 1 or min(len(p), len(q)) >= 2):
            out.append(f"block {i}: K_{{{len(p)},{len(q)}}} is not biconnected")
        covered += [(min(u, v), max(u, v)) for u in p for v in q]
    if sorted(covered) != edges:
        out.append("blocks do not partition the edge set")
    if sum(len(b["vertices"]) for b in blocks) != k + len(blocks) - 1:
        out.append("block incidence is not a tree")
    if [b["vertices"] for b in blocks] != sorted(b["vertices"] for b in blocks):
        out.append("blocks not sorted by vertex set")
    count = Counter(v for b in blocks for v in b["vertices"])
    cut = sorted(v for v, c in count.items() if c >= 2)
    if rep["k"] != k or rep["cut_vertices"] != cut:
        out.append("wrong k or cut vertices")
    if rep["block_index"] != {str(v): count[v] for v in range(k)}:
        out.append("wrong block_index")
    leaves = [len(blocks) == 1 or len(set(b["vertices"]) & set(cut)) <= 1 for b in blocks]
    if [b["is_leaf"] for b in blocks] != leaves:
        out.append("wrong is_leaf flags")
    return out


def check_alpha(k: int, edges, alpha: int, rep: dict) -> list[str]:
    w = set(rep["witness"])
    out = []
    if rep["alpha"] != alpha:
        out.append(f"alpha {rep['alpha']} != reference {alpha}")
    if len(w) != len(rep["witness"]) or len(w) != alpha or not w <= set(range(k)):
        out.append("witness has the wrong size or labels")
    if any(u in w and v in w for u, v in edges):
        out.append("witness is not independent")
    return out


def check_rho(rho: float, rep: dict) -> list[str]:
    return [] if _close(rep["rho"], rho) else [f"rho {rep['rho']} != reference {rho}"]


def check_identities(rho: float, rep: dict) -> list[str]:
    out = check_rho(rho, rep)
    if rep["pass"] is not True:
        out.append(f"identities fail: max_residual {rep['max_residual']}")
    return out


def check_normalize(k: int, edges, alpha: int, rho: float, rep: dict) -> list[str]:
    """Replay the step edits on the input, and check the trace and its end point."""
    out = []
    steps = rep["steps"]
    if rep["k"] != k or rep["alpha"] != alpha or rep["step_count"] != len(steps):
        out.append("wrong k, alpha or step_count")
    if not _close(rep["rho_initial"], rho):
        out.append(f"rho_initial {rep['rho_initial']} != reference {rho}")
    target = math.sqrt(alpha * (k - alpha))
    if abs(rep["rho_final"] - target) > RHO_REL:
        out.append(f"rho_final {rep['rho_final']} != sqrt(alpha(k-alpha)) = {target}")
    cur = set(edges)
    chain = [rep["rho_initial"]]
    for i, s in enumerate(steps):
        if s["alpha_before"] != alpha or s["alpha_after"] != alpha:
            out.append(f"step {i}: alpha changed")
        removed = {tuple(e) for e in s["edges_removed"]}
        added = {tuple(e) for e in s["edges_added"]}
        if not removed <= cur or added & cur:
            out.append(f"step {i}: edge edit does not apply")
        cur = (cur - removed) | added
        chain += [s["rho_before"], s["rho_after"]]
    if any(b < a - RHO_STEP_DROP for a, b in zip(chain, chain[1:])):
        out.append("rho falls between steps")
    final = sorted(tuple(e) for e in rep["final_edges"])
    if final != sorted(cur):
        out.append("steps do not lead to final_edges")
    color = _two_coloring(k, final)
    sides = sorted((color.count(0), color.count(1)))
    if sides != sorted((alpha, k - alpha)) or len(final) != alpha * (k - alpha):
        out.append("final_edges are not K_{alpha,k-alpha}")
    return out


def check_verify(kk: int, reps: list[dict]) -> list[str]:
    out = []
    if [r["alpha"] for r in reps] != list(range((kk + 1) // 2, kk)):
        out.append("alphas are not ceil(K/2)..K-1")
    if sum(r["class_size"] for r in reps) != CLASS_SIZES[kk]:
        out.append(f"class sizes do not sum to {CLASS_SIZES[kk]}")
    for r in reps:
        tag = f"B({kk},{r['alpha']})"
        if r["k"] != kk or abs(r["max_rho"] - math.sqrt(r["alpha"] * (kk - r["alpha"]))) > RHO_REL:
            out.append(f"{tag}: max_rho is not sqrt(alpha(K-alpha))")
        if r["is_unique"] is not True:
            out.append(f"{tag}: maximiser not unique")
        if r["class_size"] > 1 and not (r["margin"] is not None and r["margin"] > 0):
            out.append(f"{tag}: margin not positive")
    return out
