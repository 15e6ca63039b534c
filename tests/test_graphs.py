import random
import tracemalloc

import pytest

from biblock import (
    alpha_matching,
    bipartition,
    canonical_form,
    format_edge_list,
    from_edge_list,
    is_complete_bipartite,
    is_connected,
    parse_edge_list,
)
from biblock.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    InvalidSizeError,
    OddCycleError,
    OutOfRangeError,
    SelfLoopError,
    TooLargeError,
)
from biblock.graphs import _edge_diff, is_bipartite
from conftest import (
    MissingEdgeError,
    add_edge,
    bipartition_bfs,
    complete_bipartite,
    delete_edges,
    induced_subgraph,
    is_bipartite_bfs,
    is_complete_bipartite_by_count,
    is_isomorphic,
    neighbors,
    outcome,
    parse_edge_list_by_line,
    relabel,
    structure_cases,
)


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def component_of_0(g):
    """The component holding vertex 0, as an induced subgraph."""
    seen, stack = {0}, [0]
    while stack:
        for v in neighbors(g, stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return induced_subgraph(g, seen)[0]


class TestFromEdgeList:
    def test_p3(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.k == 3
        assert g.edges == {(0, 1), (1, 2)}
        assert sorted(m.bit_count() for m in g.adj) == [1, 1, 2]

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            from_edge_list(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        pairs = [(u, v) for u in (0, 1) for v in (2, 3, 4, 5)] + [(0, 6)]
        with pytest.raises(OutOfRangeError):
            from_edge_list(6, pairs)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            from_edge_list(3, [(0, 1), (1, 0)])

    def test_bad_vertex_count(self):
        with pytest.raises(InvalidSizeError):
            from_edge_list(0, [])


class TestCompleteBipartite:
    def test_k23_shape(self):
        g = complete_bipartite(2, 3)
        assert g.k == 5
        assert g.edge_count == 6
        assert sorted(m.bit_count() for m in g.adj) == [2, 2, 2, 3, 3]

    def test_k11_single_edge(self):
        g = complete_bipartite(1, 1)
        assert g.edges == {(0, 1)}

    def test_alpha_of_k42_is_larger_side(self):
        assert alpha_matching(complete_bipartite(4, 2)).alpha == 4

    def test_invalid_sizes(self):
        with pytest.raises(InvalidSizeError):
            complete_bipartite(0, 3)


class TestBipartition:
    def test_c6_layers(self):
        bp = bipartition(cycle(6))
        assert bp.M == {0, 2, 4}
        assert bp.N == {1, 3, 5}

    def test_triangle_odd_cycle(self):
        with pytest.raises(OddCycleError):
            bipartition(from_edge_list(3, [(0, 1), (1, 2), (0, 2)]))

    def test_k23_sides(self):
        bp = bipartition(complete_bipartite(2, 3))
        assert bp.M == {0, 1}
        assert bp.N == {2, 3, 4}

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            bipartition(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_every_edge_crosses(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 9)
            g = cycle(2 * (n // 2 + 1))
            bp = bipartition(g)
            for u, v in g.edges:
                assert (u in bp.M) != (v in bp.M)


class TestBitmaskStructure:
    """The bitmask versions against the vertex-by-vertex oracles they
    replaced: same sides, same exception type and message."""

    CASES = structure_cases(random.Random(23), 40)

    def test_bipartition_matches_bfs_oracle(self):
        kinds = set()
        for g in self.CASES:
            got = outcome(bipartition, g)
            assert got == outcome(bipartition_bfs, g), g
            kinds.add(got[0])
        assert kinds == {"value", DisconnectedError, OddCycleError}

    def test_connected_matches_bfs_oracle(self):
        answers = set()
        for g in self.CASES:
            got = is_connected(g)
            assert got == (outcome(bipartition_bfs, g)[0] is not DisconnectedError), g
            answers.add(got)
        assert answers == {True, False}

    def test_bipartite_matches_colour_oracle(self):
        answers = set()
        far_odd_cycles = 0
        for g in self.CASES:
            got = is_bipartite(g)
            assert got == is_bipartite_bfs(g), g
            answers.add(got)
            if not got and not is_connected(g):
                far_odd_cycles += is_bipartite_bfs(component_of_0(g))
        assert answers == {True, False}
        assert far_odd_cycles > 0

    def test_complete_bipartite_matches_count_oracle(self):
        answers = set()
        for g in self.CASES:
            got = is_complete_bipartite(g)
            assert got == is_complete_bipartite_by_count(g), g
            answers.add(got)
        assert answers == {True, False}

    def test_edges_match_adjacency(self):
        for g in self.CASES:
            pairs = range(g.k)
            assert g.edges == {
                (u, v) for u in pairs for v in pairs if u < v and g.adj[u] >> v & 1
            }

    def test_edge_diff_matches_edge_set_difference(self):
        by_k = {}
        for g in self.CASES:
            by_k.setdefault(g.k, []).append(g)
        pairs = 0
        for same_k in by_k.values():
            for g in same_k:
                for h in same_k:
                    assert _edge_diff(g, h) == (
                        tuple(sorted(h.edges - g.edges)),
                        tuple(sorted(g.edges - h.edges)),
                    )
                    pairs += g != h
        assert pairs > 0


class TestConnectivity:
    def test_p3_connected(self):
        assert is_connected(path(3))

    def test_two_disjoint_edges(self):
        assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(from_edge_list(1, []))


class TestEdgeEdits:
    def test_add_makes_triangle(self):
        g = add_edge(path(3), 0, 2)
        assert g.edges == {(0, 1), (0, 2), (1, 2)}

    def test_original_unchanged(self):
        g = path(3)
        add_edge(g, 0, 2)
        assert g.edge_count == 2

    def test_delete_from_k23(self):
        g = delete_edges(complete_bipartite(2, 3), [(0, 2)])
        assert g.edge_count == 5

    def test_add_then_delete_is_identity(self):
        g = complete_bipartite(2, 2)
        h = delete_edges(add_edge(g, 0, 1), [(0, 1)])
        assert h == g

    def test_add_existing_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            add_edge(path(3), 0, 1)

    def test_delete_missing_rejected(self):
        with pytest.raises(MissingEdgeError):
            delete_edges(path(3), [(0, 2)])

    def test_add_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            add_edge(path(3), 1, 1)


class TestCanonicalForms:
    def test_relabeled_p3_equal(self):
        a = from_edge_list(3, [(0, 1), (1, 2)])
        b = from_edge_list(3, [(2, 1), (1, 0)])
        assert canonical_form(a) == canonical_form(b)

    def test_star_vs_path_differ(self):
        k13 = complete_bipartite(1, 3)
        assert canonical_form(k13) != canonical_form(path(4))
        assert not is_isomorphic(k13, path(4))

    def test_k23_vs_c5_differ(self):
        c5 = cycle(5)
        assert canonical_form(complete_bipartite(2, 3)) != canonical_form(c5)

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_side_order_irrelevant(self, m, n):
        assert is_isomorphic(complete_bipartite(m, n), complete_bipartite(n, m))

    def test_invariant_under_random_relabelings(self, fig1):
        rng = random.Random(42)
        graphs = [
            complete_bipartite(3, 4),
            path(7),
            from_edge_list(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),
        ]
        for g in graphs:
            ref = canonical_form(g)
            for _ in range(1000):
                perm = list(range(g.k))
                rng.shuffle(perm)
                assert canonical_form(relabel(g, perm)) == ref

    def test_k25_is_the_largest_packable_size(self):
        star = complete_bipartite(1, 24)
        assert is_isomorphic(star, complete_bipartite(24, 1))
        assert len(canonical_form(star).data) == 1 + 3 * 25
        assert canonical_form(path(25)) != canonical_form(star)

    def test_k26_refused(self):
        with pytest.raises(TooLargeError):
            canonical_form(complete_bipartite(1, 25))
        with pytest.raises(TooLargeError):
            canonical_form(path(26))

    def test_hex_is_lowercase(self):
        h = canonical_form(path(3)).hex()
        assert h == h.lower()
        int(h, 16)


class TestCompleteBipartitePredicate:
    def test_star_counts(self):
        assert is_complete_bipartite(complete_bipartite(1, 5))

    def test_k23(self):
        assert is_complete_bipartite(complete_bipartite(2, 3))

    def test_p4_is_not(self):
        assert not is_complete_bipartite(path(4))

    def test_triangle_is_not(self):
        assert not is_complete_bipartite(from_edge_list(3, [(0, 1), (1, 2), (0, 2)]))


class TestEdgeListFormat:
    def test_round_trip(self, fig1):
        assert parse_edge_list(format_edge_list(fig1)) == fig1

    def test_comments_and_blanks(self):
        text = "# a path\n3\n\n0 1  # first\n1 2\n"
        assert parse_edge_list(text) == path(3)

    def test_bad_header(self):
        with pytest.raises(InvalidSizeError):
            parse_edge_list("x y\n")

    def test_bad_edge_line(self):
        with pytest.raises(InvalidSizeError):
            parse_edge_list("3\n0 1 2\n")

    def test_lines_read_lazily(self):
        assert parse_edge_list(iter(["3\n", "0 1\n", "1 2\n"])) == path(3)

    def test_reading_stops_past_the_edge_bound(self):
        def lines():
            yield "3\n"
            for _ in range(4):
                yield "0 1\n"
            raise AssertionError("read past edge line k(k-1)/2 + 1")

        with pytest.raises(TooLargeError, match=r"k\(k-1\)/2 = 3"):
            parse_edge_list(lines())

    def test_a_vertex_admits_no_edge_line(self):
        assert parse_edge_list("1\n") == from_edge_list(1, [])
        with pytest.raises(TooLargeError):
            parse_edge_list("1\n0 0\n")

    def test_bound_inside_a_batch_stops_at_the_line_past_it(self):
        # k = 10 allows 45 edge lines; the 46th ends the reading, although
        # a batch may hold thousands of lines.
        def lines():
            yield "# ten vertices\n"
            yield "10\n"
            pairs = [(u, v) for u in range(10) for v in range(u + 1, 10)]
            for i, (u, v) in enumerate(pairs):
                yield f"{u} {v}\n"
                if i % 7 == 0:
                    yield "\n"
            yield "0 1  # edge line 46\n"
            raise AssertionError("read past edge line k(k-1)/2 + 1")

        with pytest.raises(TooLargeError, match=r"k\(k-1\)/2 = 45"):
            parse_edge_list(lines())


    @pytest.mark.parametrize("label", [10**10, 10**30, -10**30])
    @pytest.mark.parametrize("first", [True, False])
    def test_huge_label_is_out_of_range(self, label, first):
        # The range is checked before a label is shifted into a row, so a
        # label of 10**10 does not make a 10**10-bit integer first.
        row = f"{label} 1" if first else f"1 {label}"
        text = f"3\n0 2\n{row}\n"
        tracemalloc.start()
        try:
            got = outcome(parse_edge_list, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == outcome(parse_edge_list_by_line, text)
        assert got == (OutOfRangeError, f"vertex {label} not in 0..2")
        assert peak < 1 << 20


LINE_BREAKS = ["\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028"]


def noisy_edge_list(rng):
    """Seeded edge-list text: a random graph on 1..12 vertices whose lines
    carry comments, blank and whitespace-only lines, mixed line breaks,
    and sometimes a bad header, a bad token, a line of 1 or 3 tokens, a
    negative, out-of-range or looping label, a repeated edge, or more
    lines than k(k-1)/2."""
    k = rng.randint(1, 12)
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges = rng.sample(pairs, rng.randint(0, len(pairs)))
    rows = [f"{u} {v}" if rng.random() < 0.8 else f"{v}\t {u}" for u, v in edges]
    header = str(k)
    fault = rng.randrange(14)
    if fault == 0:
        header = rng.choice(["x", "+%d" % k, "%d 1" % k, "0", "3001", "", "1_0"])
    elif fault == 1 and rows:
        rows[rng.randrange(len(rows))] = rng.choice(["1", "0 1 2", "x 1", "1 x"])
    elif fault == 2:
        rows.append(rng.choice(["+1 0", "1_0 0", "0 +1"]))
    elif fault == 3:
        rows.append(f"{rng.choice([-1, -k, k, k + 3, 10**10, -10**30])} {rng.randrange(k)}")
    elif fault == 4:
        rows.append(f"{rng.randrange(k)} {rng.choice([-1, -k - 1, k, 10**10, 10**30])}")
    elif fault == 5:
        u = rng.randrange(k)
        rows.insert(rng.randint(0, len(rows)), f"{u} {u}")
    elif fault == 6 and edges:
        u, v = rng.choice(edges)
        rows.insert(rng.randint(0, len(rows)), f"{v} {u}")
    elif fault == 7:
        rows += [f"{u} {v}" for u, v in rng.sample(pairs, len(pairs))] + ["0 1"] * 2
    elif fault == 8 and rows:
        # Two faults: the one on the earlier line, or the reading error,
        # comes first.
        rows[rng.randrange(len(rows))] = f"{k} 0"
        rows.insert(rng.randint(0, len(rows)), rng.choice(["x y", "1", "0 0 0"]))
    out = []
    for row in [header, *rows]:
        while rng.random() < 0.2:
            out.append(rng.choice(["", "   ", "\t", "# comment", "  # indented"]))
        if rng.random() < 0.15:
            row += "  # trailing"
        out.append(row)
    return "".join(line + rng.choice(LINE_BREAKS) for line in out)


def sources(rng, text):
    """The text as a string, as lines with and without their breaks, and
    cut into chunks at random places, lines read one at a time."""
    cuts = sorted(rng.sample(range(len(text) + 1), min(len(text) + 1, rng.randint(0, 6))))
    chunks = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
    return [
        text,
        iter(text.splitlines(keepends=True)),
        iter(text.splitlines()),
        iter(chunks),
    ]


def test_reader_matches_line_by_line_oracle():
    rng = random.Random(2004)
    seen = set()
    for i in range(1500):
        text = noisy_edge_list(rng)
        for new, old in zip(sources(random.Random(i), text), sources(random.Random(i), text)):
            got, want = outcome(parse_edge_list, new), outcome(parse_edge_list_by_line, old)
            assert got == want, repr(text)
            seen.add(want[0] if want[0] == "value" else want[0].__name__)
    assert seen == {"value", "InvalidSizeError", "TooLargeError", "ValueError",
                    "OutOfRangeError", "SelfLoopError", "DuplicateEdgeError"}


@pytest.mark.parametrize("fault, at", [(None, 0)] + [
    (fault, at)
    for fault in ("x 1", "1 2 3", "0 0", "99 98", "1 0", "7 100")
    for at in (10, 4090, 4097, 4950)
])
def test_reader_matches_oracle_across_batches(fault, at):
    # K_100 has 4950 edge lines, more than one batch; one fault goes in
    # the first batch, at its end, in the second, or past the bound.
    rows = [f"{u} {v}" for u in range(100) for v in range(u + 1, 100)]
    rows[3000:3000] = ["", "# a comment", "  "]
    if fault is not None:
        rows.insert(at, fault)
    text = "100\n" + "\n".join(rows) + "\n"
    got = outcome(parse_edge_list, iter(text.splitlines(keepends=True)))
    assert got == outcome(parse_edge_list_by_line, text)
    assert (got[0] == "value") == (fault is None)
