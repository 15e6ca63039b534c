"""Seeded benchmark inputs: random bi-block graphs as edge-list text.

A graph is grown from one complete bipartite block by attaching further
complete bipartite blocks, each glued at one existing vertex, and its
labels are then shuffled.  This module imports nothing from biblock, so
the inputs for a seed stay byte-identical whatever the program does.
"""

from __future__ import annotations

import hashlib
import random

Edges = list[tuple[int, int]]

# The 13-vertex tree on which `biblock normalize` stops with
# "no applicable step with a real edge edit" (a StuckError, exit 1).
# Every normalize round includes it so the defect stays visible until a
# fix lands; it then counts as a success like any other input.
STUCK_TREE = (13, [(0, 5), (1, 5), (2, 5), (3, 5), (3, 7), (4, 5), (4, 8),
                   (4, 9), (6, 7), (6, 11), (6, 12), (7, 10)])

NORMALIZE_GRAPHS = 594  # 18 of each (k, attachment cap) pair
INSPECT_GRAPHS = 400


def random_biblock(rng: random.Random, k: int, max_new: int) -> Edges:
    """Edges of a connected bi-block graph on k vertices.

    Each attached block brings between 1 and ``max_new`` new vertices,
    so a small ``max_new`` gives many small blocks and ``max_new = k``
    gives a few large ones.
    """
    first = rng.randint(2, min(k, max_new + 1))
    a = rng.randint(1, first - 1)
    blocks = [(list(range(a)), list(range(a, first)))]
    n = first
    while n < k:
        j = rng.randint(1, min(max_new, k - n))
        a = rng.randint(1, j)
        w = rng.randrange(n)
        blocks.append(([w, *range(n, n + a - 1)], list(range(n + a - 1, n + j))))
        n += j
    perm = list(range(k))
    rng.shuffle(perm)
    return sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v]))
        for near, far in blocks
        for u in near
        for v in far
    )


def random_graphs(rng: random.Random, ks: list[int]) -> list[tuple[int, Edges]]:
    """One graph per entry of ks; the attachment cap cycles through 2, 3 and k.

    Sizes and caps are the same for every seed, so seeds differ only in
    the shapes drawn, which keeps a round's total work close across seeds.
    """
    return [(k, random_biblock(rng, k, (2, 3, k)[i % 3])) for i, k in enumerate(ks)]


def normalize_graphs(seed: int) -> list[tuple[int, Edges]]:
    """k in 12..22 (below the brute-force cap of 24), mixed block sizes."""
    ks = [12 + (i // 3) % 11 for i in range(NORMALIZE_GRAPHS)]
    return random_graphs(random.Random(f"normalize/{seed}"), ks) + [STUCK_TREE]


def inspect_graphs(seed: int) -> list[tuple[int, Edges]]:
    """k spread evenly over 30..120, mixed block sizes; the caller adds the fixture graph."""
    ks = [30 + i * 91 // INSPECT_GRAPHS for i in range(INSPECT_GRAPHS)]
    return random_graphs(random.Random(f"inspect/{seed}"), ks)


def edge_list_text(k: int, edges: Edges) -> str:
    return f"{k}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def parse_edge_list_text(text: str) -> tuple[int, Edges]:
    """Read the edge-list format: vertex count, then 'u v' lines; '#' starts a comment."""
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [r for r in rows if r]
    edges = sorted((min(int(u), int(v)), max(int(u), int(v))) for u, v in rows[1:])
    return int(rows[0][0]), edges


def digest(graphs: list[tuple[int, Edges]]) -> str:
    h = hashlib.sha256()
    for k, edges in graphs:
        h.update(edge_list_text(k, edges).encode())
    return h.hexdigest()


# sha256 of every input file for seed 1, concatenated in order.  A
# mismatch means the generator, or Python's `random`, no longer yields
# the inputs that earlier results were measured on.
PINNED_SEED = 1
PINNED = {
    "normalize": "be8b82cad2af2be655a65b6e149fc5f30753707951c50626aba57557fdc85385",
    "inspect": "45b864b79c4a80c601d754de957662a62d2dd6bd16f530c721e3254f0013f1a7",
}


def check_pinned() -> None:
    """Raise if seed 1 no longer produces the recorded input files."""
    for name, make in (("normalize", normalize_graphs), ("inspect", inspect_graphs)):
        got = digest(make(PINNED_SEED))
        if got != PINNED[name]:
            raise RuntimeError(f"{name} inputs for seed {PINNED_SEED} changed: sha256 {got}")
