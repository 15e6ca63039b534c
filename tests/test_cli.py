import copy
import enum
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

import biblock
from biblock import (
    blocks, cli, decompose, enumeration, errors, format_edge_list, from_edge_list, graphs,
    independence, rewrites, spectral, verify_theorem,
)
from biblock.cli import _json_text, main
from biblock.rewrites import NORMALIZE_CAP
from biblock.errors import NoConvergenceError
from conftest import FIXTURES, SCHEMAS, build_two_block, complete_bipartite, random_biblock


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv, hash_seed="0"):
    """Run the CLI in a new interpreter; the completed process."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-m", "biblock.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


SRC = Path(__file__).parent.parent / "src"
P3 = str(FIXTURES / "p3.edges")
K23 = str(FIXTURES / "k23.edges")
FIG1 = str(FIXTURES / "fig1.edges")


class TestBasicCommands:
    def test_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--input", P3)
        assert code == 0
        assert out == "alpha=2\n"

    def test_alpha_witness(self, capsys):
        code, out, _ = run_cli(capsys, "alpha", "--input", P3, "--witness")
        assert code == 0
        assert out == "alpha=2\nwitness=0 2\n"

    def test_rho_k23(self, capsys):
        code, out, _ = run_cli(capsys, "rho", "--input", K23)
        assert code == 0
        assert out == "rho=2.44948974278\n"

    def test_validate_text(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--input", FIG1)
        assert code == 0
        assert "k=21" in out
        assert "bi_block=true" in out

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("3\n0 1\n1 2\n"))
        code, out, _ = run_cli(capsys, "alpha", "--input", "-")
        assert code == 0
        assert out == "alpha=2\n"

    def test_decompose_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--input", FIG1, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 21
        assert len(payload["blocks"]) == 8
        assert payload["cut_vertices"] == [1, 4, 5]


class TestParser:
    def test_main_does_not_rebuild_the_parser(self, capsys, monkeypatch):
        from biblock import cli

        def rebuilt():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        code, out, _ = run_cli(capsys, "alpha", "--input", P3)
        assert (code, out) == (0, "alpha=2\n")

    def test_usage_error_leaves_the_parser_as_fresh(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-theorem", "--k"])
        assert exc.value.code == 2
        code, out, _ = run_cli(capsys, "verify-theorem", "--k", "5")
        fresh = run_fresh("verify-theorem", "--k", "5")
        assert (code, out) == (fresh.returncode, fresh.stdout)


class TestIdentitiesCommand:
    def test_two_block_pass(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(format_edge_list(build_two_block(2, 2, 2, 2)))
        code, out, _ = run_cli(
            capsys, "identities", "--input", str(path), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, load_schema("identity_report.schema.json"))
        assert payload["pass"] is True
        assert payload["two_block"] is not None
        assert payload["leaf_configs"]

    def test_loose_solver_fails_band(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "g.edges"
        path.write_text(format_edge_list(build_two_block(3, 2, 2, 4)))
        solve = spectral.perron

        def off_by_1e3(g):
            pair = solve(g)
            return spectral.PerronPair(pair.rho + 1e-3, pair.X)

        monkeypatch.setattr(spectral, "perron", off_by_1e3)
        code, out, _ = run_cli(
            capsys, "identities", "--input", str(path), "--format", "json"
        )
        payload = json.loads(out)
        assert payload["pass"] is False
        assert code == 1


class TestRewriteCommand:
    def test_merge_trace(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(format_edge_list(build_two_block(2, 2, 2, 2)))
        code, out, _ = run_cli(
            capsys, "rewrite", "--input", str(path), "--kind", "merge",
            "--f-block", "0", "--h-block", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, load_schema("rewrite_trace.schema.json"))
        assert payload["kind"] == "MergeBlocks"
        assert payload["alpha_before"] == payload["alpha_after"]

    def test_precondition_failure_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(format_edge_list(build_two_block(1, 2, 2, 3)))
        code, _, err = run_cli(
            capsys, "rewrite", "--input", str(path), "--kind", "reattach",
            "--f-block", "0", "--h-block", "1",
        )
        assert code == 2
        assert "error" in err

    def test_alpha_changing_merge_is_usage_error(self, capsys, monkeypatch):
        # A caller-chosen step that would change alpha is a refused
        # request (exit 2), not a broken theorem (exit 1).
        monkeypatch.setattr(sys, "stdin", io.StringIO("6\n0 1\n0 4\n0 5\n1 2\n1 3\n"))
        code, out, err = run_cli(
            capsys, "rewrite", "--kind", "merge", "--f-block", "1", "--h-block", "3"
        )
        assert (code, out) == (2, "")
        assert err == "error: merge: the step would change alpha 4 -> 3\n"

    def test_alpha_changing_split_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "rewrite", "--input", FIG1, "--kind", "split",
            "--f-block", "0", "--h-block", "1",
        )
        assert (code, out) == (2, "")
        assert err == "error: case 3 subcase 2.2: the step would change alpha 13 -> 12\n"

    @pytest.mark.parametrize("kind", ["merge", "reattach", "split"])
    def test_one_vertex_graph_has_no_blocks(self, capsys, monkeypatch, kind):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1\n"))
        code, out, err = run_cli(
            capsys, "rewrite", "--kind", kind, "--f-block", "0", "--h-block", "0"
        )
        assert (code, out, err) == (2, "", "error: block id 0: the graph has no blocks\n")

    def test_empty_n1_names_no_labels(self, capsys):
        # An explicit empty N1 is no labels, refused as a bad split; it
        # does not fall back to the default N1.
        code, out, err = run_cli(
            capsys, "rewrite", "--input", FIG1, "--kind", "split",
            "--f-block", "0", "--h-block", "1", "--n1", "",
        )
        assert (code, out) == (2, "")
        assert err == "error: N1 must be 1 vertices drawn from N=[16, 17, 18, 19, 20]\n"

    @pytest.mark.parametrize("n1", ["x", "16,", "16;17"])
    def test_bad_n1_names_the_option(self, capsys, n1):
        code, out, err = run_cli(
            capsys, "rewrite", "--input", FIG1, "--kind", "split",
            "--f-block", "0", "--h-block", "1", "--n1", n1,
        )
        assert (code, out) == (2, "")
        assert err == f"error: --n1 must be comma-separated vertex labels, got {n1!r}\n"

    @pytest.mark.parametrize(
        "ids",
        [
            ("--kind", "reduce", "--vertex", "99", "--bi-block", "0", "--bj-block", "1"),
            ("--kind", "merge", "--f-block", "0", "--h-block", "99"),
            ("--kind", "merge", "--f-block", "-1", "--h-block", "0"),
        ],
        ids=["reduce-vertex-99", "merge-h-block-99", "merge-f-block-minus-1"],
    )
    def test_out_of_range_id_is_usage_error(self, capsys, ids):
        code, out, err = run_cli(capsys, "rewrite", "--input", FIG1, *ids)
        assert code == 2
        assert out == ""
        assert "not in 0.." in err


class TestNormalizeCommand:
    def test_spider_trace_validates(self, capsys, tmp_path):
        from biblock import format_edge_list, from_edge_list

        spider = from_edge_list(
            7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
        )
        path = tmp_path / "g.edges"
        path.write_text(format_edge_list(spider))
        code, out, _ = run_cli(
            capsys, "normalize", "--input", str(path), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        schema = load_schema("normalize_trace.schema.json")
        # Inline the step schema so no reference resolver is needed.
        inlined = copy.deepcopy(schema)
        inlined["properties"]["steps"]["items"] = load_schema(
            "rewrite_trace.schema.json"
        )
        validate(payload, inlined)
        assert payload["alpha"] == 4
        assert payload["step_count"] == len(payload["steps"])
        assert payload["rho_final"] >= payload["rho_initial"]

    def test_delta_rho_has_12_decimals(self, capsys, tmp_path):
        # delta_rho is a difference of two rho values each good to about
        # 1e-15; this graph's 0.0598 step, printed to 12 significant
        # digits, carried two digits of solver noise.
        path = tmp_path / "g.edges"
        path.write_text("9\n0 2\n0 3\n0 6\n0 8\n1 2\n1 3\n4 6\n4 7\n5 6\n")
        code, out, _ = run_cli(
            capsys, "normalize", "--input", str(path), "--format", "json"
        )
        assert code == 0
        deltas = [step["delta_rho"] for step in json.loads(out)["steps"]]
        assert deltas
        assert all(d == round(d, 12) for d in deltas)

    def test_one_vertex_has_no_rho(self, capsys, monkeypatch):
        # A single vertex has no Perron pair: text writes "-" for each
        # missing rho, JSON writes null.
        monkeypatch.setattr(sys, "stdin", io.StringIO("1\n"))
        code, out, err = run_cli(capsys, "normalize")
        assert (code, err) == (0, "")
        assert out == "normalized to K_{1,0} in 0 steps; rho - -> -\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO("1\n"))
        code, out, _ = run_cli(capsys, "normalize", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["rho_initial"], payload["rho_final"]) == (None, None)


def normalize_cap_graph(k):
    """K_{a,b} on k - 1 vertices, a <= b <= a + 1, plus one pendant edge
    at vertex 0 of the a side: one step from K_{b+1,a}."""
    a = (k - 1) // 2
    pairs = [(u, v) for u in range(a) for v in range(a, k - 1)]
    return format_edge_list(from_edge_list(k, pairs + [(0, k - 1)]))


class TestNormalizeCap:
    def test_answers_at_the_cap(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(normalize_cap_graph(NORMALIZE_CAP))
        code, out, err = run_cli(capsys, "normalize", "--input", str(path))
        assert (code, err) == (0, "")
        assert out.endswith("normalized to K_{151,149} in 1 steps; "
                            "rho 149.499186325 -> 149.99666663\n")

    def test_refused_past_the_cap(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(normalize_cap_graph(NORMALIZE_CAP + 1))
        code, out, err = run_cli(capsys, "normalize", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: normalize capped at k <= 300, got {NORMALIZE_CAP + 1}\n"

    def test_complete_bipartite_past_the_cap_takes_no_step(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(format_edge_list(complete_bipartite(150, 151)))
        code, out, err = run_cli(capsys, "normalize", "--input", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("normalized to K_{151,150} in 0 steps; rho ")

    def test_reduce_past_the_brute_force_cap(self, capsys, tmp_path):
        # Three K_{2,2} at vertex 0 and 20 pendant edges there: k = 30.
        squares = [(0, 2), (0, 3), (1, 2), (1, 3), (0, 5), (0, 6), (4, 5), (4, 6),
                   (0, 8), (0, 9), (7, 8), (7, 9)]
        g = from_edge_list(30, squares + [(0, v) for v in range(10, 30)])
        path = tmp_path / "g.edges"
        path.write_text(format_edge_list(g))
        ids = decompose(g).incidence[0]
        code, out, err = run_cli(
            capsys, "rewrite", "--kind", "reduce", "--input", str(path), "--vertex", "0",
            "--bi-block", str(ids[0]), "--bj-block", str(ids[1]),
        )
        assert (code, err) == (0, "")
        assert out.startswith("block-index reduction: ReduceBlockIndex at v=0, +4/-0 edges")


PACKAGE_MODULES = (
    biblock, blocks, cli, enumeration, errors, graphs, independence, rewrites, spectral,
)


class TestNoBruteForce:
    """The brute-force oracle lives in ``tests/conftest.py``, not in the
    package, and every subcommand answers without it."""

    @pytest.fixture(autouse=True)
    def no_brute_force_in_the_package(self):
        oracle = {"_MisSolver", "alpha_bruteforce", "maximum_independent_sets",
                  "BRUTE_FORCE_CAP"}
        for mod in PACKAGE_MODULES:
            assert not oracle & set(vars(mod)), mod.__name__

    @pytest.mark.parametrize("argv, expected", [
        (("validate",), 0),
        (("decompose",), 0),
        (("alpha", "--witness"), 0),
        (("rho",), 0),
        (("identities",), 0),
        (("normalize",), 0),
        (("normalize", "--format", "json"), 0),
        (("rewrite", "--kind", "merge", "--f-block", "0", "--h-block", "1"), 0),
        (("rewrite", "--kind", "split", "--f-block", "0", "--h-block", "1"), 2),
        (("rewrite", "--kind", "reduce", "--vertex", "1", "--bi-block", "0",
          "--bj-block", "1"), 0),
        (("rewrite", "--kind", "reduce", "--vertex", "1", "--bi-block", "1",
          "--bj-block", "2"), 0),
    ])
    def test_fig1(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv, "--input", FIG1)
        assert code == expected, err
        assert (out != "") == (expected == 0)

    def test_generation_commands(self, capsys):
        for argv in (("enumerate", "--k", "6"), ("verify-theorem", "--k", "7")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv

    def test_seeded_normalize_inputs(self, capsys, tmp_path):
        rng = random.Random(41)
        path = tmp_path / "g.edges"
        steps = 0
        for _ in range(30):
            path.write_text(format_edge_list(random_biblock(rng, rng.randint(8, 40))))
            code, out, err = run_cli(capsys, "normalize", "--input", str(path),
                                     "--format", "json")
            assert (code, err) == (0, "")
            steps += json.loads(out)["step_count"]
        assert steps > 30


class TestEnumerateCommand:
    def test_text_round_trip(self, capsys):
        from biblock import alpha_matching, parse_edge_list

        code, out, _ = run_cli(capsys, "enumerate", "--k", "4")
        assert code == 0
        chunks = [c for c in out.split("\n\n") if c.strip()]
        assert len(chunks) == 3
        for chunk in chunks:
            g = parse_edge_list(chunk)
            assert g.k == 4
            assert alpha_matching(g).alpha >= 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--k", "4", "--format", "json"
        )
        payload = json.loads(out)
        assert len(payload) == 3
        assert all(item["k"] == 4 for item in payload)

    def test_alpha_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--k", "4", "--alpha", "3", "--format", "json"
        )
        assert len(json.loads(out)) == 1

    def test_k7_json_in_canonical_order(self, capsys):
        from biblock import canonical_form, from_edge_list, is_bi_block

        code, out, _ = run_cli(
            capsys, "enumerate", "--k", "7", "--format", "json"
        )
        assert code == 0
        members = [from_edge_list(item["k"], item["edges"]) for item in json.loads(out)]
        forms = [canonical_form(g) for g in members]
        assert forms == sorted(forms)
        assert len(set(forms)) == 33
        assert all(is_bi_block(g) for g in members)

    def test_same_bytes_under_any_hash_seed(self):
        runs = [run_fresh("enumerate", "--k", "8", hash_seed=seed) for seed in ("1", "2")]
        assert [r.returncode for r in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.count("\n\n") == 93

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "graphs.txt"
        code, out, _ = run_cli(
            capsys, "enumerate", "--k", "3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("3\n")


class TestVerifyTheoremCommand:
    def test_k6_reports(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-theorem", "--k", "6", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, load_schema("extremal_report.schema.json"))
        assert [r["alpha"] for r in payload] == [3, 4, 5]
        import math

        by_alpha = {r["alpha"]: r for r in payload}
        assert abs(by_alpha[4]["max_rho"] - math.sqrt(8)) < 1e-9

    def test_rho_off_the_closed_form_exits_one(self, capsys, monkeypatch):
        from biblock import enumeration

        solve = enumeration.perron_batch
        monkeypatch.setattr(
            enumeration, "perron_batch", lambda gs: [r + 1e-6 for r in solve(gs)]
        )
        code, out, err = run_cli(capsys, "verify-theorem", "--k", "6")
        assert code == 1
        assert out == ""
        assert re.fullmatch(
            r"verification failure: max rho \S+ differs from "
            r"sqrt\(alpha\(k-alpha\)\) = 3\.0\n",
            err,
        )
        assert "Graph(" not in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(
            capsys, "verify-theorem", "--k", "5", "--format", "json"
        )
        _, second, _ = run_cli(
            capsys, "verify-theorem", "--k", "5", "--format", "json"
        )
        assert first == second


class TestAlphaOption:
    """``--alpha A`` answers exactly one class of the full sweep, byte for
    byte, and refuses an empty class."""

    @pytest.mark.parametrize("k", range(2, 10))
    def test_each_class_is_its_row_of_the_sweep(self, capsys, k):
        code, text, _ = run_cli(capsys, "verify-theorem", "--k", str(k))
        assert code == 0
        code, out, _ = run_cli(capsys, "verify-theorem", "--k", str(k), "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == len(text.splitlines()) > 0
        for line, row in zip(text.splitlines(), rows):
            a = str(row["alpha"])
            code, out, err = run_cli(capsys, "verify-theorem", "--k", str(k), "--alpha", a)
            assert (code, out, err) == (0, line + "\n", ""), (k, a)
            code, out, err = run_cli(
                capsys, "verify-theorem", "--k", str(k), "--alpha", a, "--format", "json"
            )
            assert (code, out, err) == (0, _json_text([row]) + "\n", ""), (k, a)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_empty_classes_exit_two(self, capsys, k):
        for alpha in (0, k, 99):
            for fmt in ("text", "json"):
                code, out, err = run_cli(
                    capsys, "verify-theorem", "--k", str(k), "--alpha", str(alpha),
                    "--format", fmt,
                )
                assert (code, out, err) == (2, "", f"error: B({k}, {alpha}) is empty\n")

    def test_enumerate_an_empty_class_prints_nothing(self, capsys):
        for fmt in ("text", "json"):
            code, out, err = run_cli(
                capsys, "enumerate", "--k", "6", "--alpha", "0", "--format", fmt
            )
            assert (code, err) == (0, "")
            assert out == ("" if fmt == "text" else "[]\n")


# sha256 of the stdout of `verify-theorem --k K`, (text, json), as printed
# before the sweep took alpha from the generator and solved each class in
# batches; both changes must leave every byte as it was.
VERIFY_STDOUT_SHA256 = {
    2: ("4adad89f413ac49e064884338d596e1322994a4147988a255be90039d2ce1cd1",
        "1146955f8c2d4159b7806bf8236d0a5737612fce88197e59e64a2a47d44a7a7e"),
    3: ("892fed86df795753d3ed72f62e8197a6e078e61170cfafecbf896932e91d0ab7",
        "781394b19fa7573f5467e0bd7a1c29f15dbf437a585864770163bae35bab381d"),
    4: ("36be8b933fa7396a8cc6ae200cf9547e9dc607c71add65cdcc55727d4ae23bf0",
        "546c886ecd80e7209d3d0aa18d8d16818d5383f81b1e58c458aac67247ae6526"),
    5: ("e0f918b9ff81ab83a9d121ea8f8574906efe40089a14fb7c030deef0c04a5f09",
        "fd7038b9f31dcdcb0972d485436ed738858bc9e83ccdc736f6fe5f5f8b423a83"),
    6: ("678a2ff2e2a60124a1afddb26da9d3f097c95b47fb38b1d0d995c8ad33e4fbc1",
        "b3255c48418fcff78b71e6715f73aa89593694ca3b84e68b4dc26dcabe2b4367"),
    7: ("16039263844d995825eceb748249f0249cec3c86514247861b5bbc3498be43b9",
        "4859eb091dee32ed1272b4505bb01eea0294b0c0dffffeebb1800a863255ec77"),
    8: ("78a4c4bc817e5036b9abe0b85f346bdaf407efe4b61d707038f30c2816ce0eb9",
        "74444bf37795dc72c429f81b0b867625caec115e00a9ba34725731a18cd0c3b9"),
    9: ("1e34b5f9971b52b86e00ef6ea9ff885b273f5f826cd87233e14dba4725badfea",
        "2a5d48547d2c08266057fcc08ee405f68b71e6af7d290425d22607fdf250a611"),
    10: ("d711adc2b1b61827a32c24adc76128ca7771f3b11ce374ab991b74c7253a201e",
         "732615838f9363130db456625fae3c0f5b8b910234e4f05a58cf0e03850e99ac"),
    11: ("d440da2f77d18c5815478861829ee30a6ec2d58de8619200aa206bb3ad97e0fe",
         "5c25c1c50b56b8b4bd0fca3c843b7b70df25cd59a018d888cb2016f834664049"),
    12: ("138d1ba4dc4d3a93886bb58f2b4eedfab6020f07e13552210e2fa841340ef39b",
         "7cc8d6aa6172507f98beb43b6d21562faf68bf11a13019b3e0ad20534d4bd634"),
}


class TestVerifyTheoremBytes:
    @pytest.mark.parametrize("k", sorted(VERIFY_STDOUT_SHA256))
    def test_stdout_pinned(self, capsys, k):
        for fmt, expected in zip(("text", "json"), VERIFY_STDOUT_SHA256[k]):
            code, out, err = run_cli(capsys, "verify-theorem", "--k", str(k), "--format", fmt)
            assert code == 0, err
            assert hashlib.sha256(out.encode()).hexdigest() == expected, (k, fmt)

    @pytest.mark.parametrize("spoil", ["residual", "positivity"])
    def test_spoiled_batch_eigenvector_exits_one(self, capsys, monkeypatch, spoil):
        """One eigenvector in the middle of a batched solve is spoiled: its
        top vector is shifted off the eigenvector, or made NaN so that no
        entry is positive.  The sweep must raise NoConvergenceError, and
        the CLI exit with code 1."""
        eigh = np.linalg.eigh

        def spoiled(a):
            w, v = eigh(a)
            if a.ndim == 3 and len(a) > 1:
                i = len(a) // 2
                v[i, :, -1] = v[i, :, -1] + 1e-3 if spoil == "residual" else np.nan
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", spoiled)
        with pytest.raises(NoConvergenceError, match="Perron pair failed its checks"):
            verify_theorem(10)
        code, out, err = run_cli(capsys, "verify-theorem", "--k", "10")
        assert code == 1
        assert out == ""
        assert "verification failure: Perron pair failed its checks" in err


# sha256 of the `--format json` stdout on fig1, as json.dumps(indent=2,
# sort_keys=True) printed it before the CLI wrote its JSON itself.
FIG1_JSON_SHA256 = {
    ("decompose",):
        "e23e13ac106640d03d11ac7e8b0266d002c6bc6b265a1e43b6255f3410578773",
    ("alpha", "--witness"):
        "ad2bbaca9e9c2c070dfbd562a4f2292a8b179f9f6ed6628de27a9d7545e1189a",
    ("rho",):
        "72419c0bed96c5c78bba31b623c8e4715c33c63610162c1c2f92e9ecce73ad9c",
    ("identities",):
        "6a71ecbb492f0033e17bbf2649d2a6ab7a3c52b80bd207032bdf6462025e72fc",
    ("normalize",):
        "648dfe8ee955e359e83b4f9ce09afd7221024ab154dce3edffcbded771fa7cc4",
    ("rewrite", "--kind", "merge", "--f-block", "0", "--h-block", "1"):
        "ff70c5391ee21cecd3195812e4215703401186533d92434e4150bdaffe96e6fb",
}


class TestFig1JsonBytes:
    @pytest.mark.parametrize("command", sorted(FIG1_JSON_SHA256))
    def test_stdout_pinned(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--input", FIG1, "--format", "json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == FIG1_JSON_SHA256[command]


class _Level(enum.IntEnum):
    HIGH = 3


class TestJsonWriter:
    """cli._json_text against its oracle, json.dumps(indent=2, sort_keys=True)."""

    @pytest.mark.parametrize("value", [
        [], {}, [[]], {"a": []}, [{}, [[], {}]],
        (1, 2), ((), (3, "x")), {"t": (1.5, None), "u": ()},
        [1, True, None], [False, 0, 1], True, None, 0,
        -7, 2**80, [-(2**80), 2**80, 0],
        -0.0, 1e-15, 1e16, 0.1 + 0.2, [-0.0, 1e-15, 1e16, 0.1 + 0.2, 1.0],
        float("nan"), float("inf"), float("-inf"),
        [float("nan"), float("inf"), float("-inf")],
        np.float64(1.5), [np.float64(-0.25), np.float64("inf")], {"x": np.float64(2.0)},
        _Level.HIGH, [_Level.HIGH, 4], {"level": _Level.HIGH},
        "café ☃ \U0001f600", "\x00\x07\x1f\x7f", 'say "hi"', "back\\slash",
        ["\n\t\r\b\f", "/", ""], {"é": "☃", '"': "\\"},
        {"10": 1, "2": 2, "b": {"a": [1, 2], "B": None}, "": 0},
        {"blocks": [{"id": 0, "parts": [[0, 1], [2]], "is_leaf": True}], "k": 3},
    ])
    def test_matches_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    # json.dumps would write the int key as "1"; every payload's keys are
    # str, and the writer refuses any other key.
    @pytest.mark.parametrize("value", [{1: 2}, {"a": {(1,): 2}}, {1, 2}, [object()]])
    def test_refuses_what_is_not_json(self, value):
        with pytest.raises(TypeError):
            _json_text(value)


def _assert_canonical_json(out):
    """out is the CLI's JSON: json.dumps(indent=2, sort_keys=True) of what it
    holds, and one newline."""
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestJsonPayloads:
    JSON_COMMANDS = (
        ("validate",),
        ("decompose",),
        ("alpha", "--witness"),
        ("rho",),
        ("identities",),
        ("normalize",),
    )

    def _check_graph(self, capsys, path):
        """Check every JSON command on path; the number of merges that applied."""
        outs = {}
        for command in self.JSON_COMMANDS:
            code, out, err = run_cli(capsys, *command, "--input", path, "--format", "json")
            assert (code, err) == (0, ""), command
            _assert_canonical_json(out)
            outs[command] = out
        blocks = len(json.loads(outs[("decompose",)])["blocks"])
        merged = 0
        for f in range(blocks):
            for h in range(blocks):
                code, out, _ = run_cli(
                    capsys, "rewrite", "--kind", "merge", "--f-block", str(f),
                    "--h-block", str(h), "--input", path, "--format", "json",
                )
                if code == 0:
                    _assert_canonical_json(out)
                    merged += 1
                else:
                    assert out == ""
        return merged

    def test_fixtures_and_random_graphs(self, capsys, tmp_path):
        from biblock import format_edge_list

        rng = random.Random(17)
        paths = [P3, K23, FIG1]
        for i in range(40):
            path = tmp_path / f"g{i}.edges"
            path.write_text(format_edge_list(random_biblock(rng, rng.randint(2, 16))))
            paths.append(str(path))
        merged = [self._check_graph(capsys, path) for path in paths]
        assert sum(m > 0 for m in merged) >= 20

    @pytest.mark.parametrize("k", range(2, 9))
    def test_verify_theorem(self, capsys, k):
        code, out, err = run_cli(capsys, "verify-theorem", "--k", str(k), "--format", "json")
        assert (code, err) == (0, "")
        _assert_canonical_json(out)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_enumerate(self, capsys, k):
        code, out, err = run_cli(capsys, "enumerate", "--k", str(k), "--format", "json")
        assert (code, err) == (0, "")
        _assert_canonical_json(out)


IMPORT_BOUNDARY = """
import contextlib, io, json, sys
from biblock import cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue(), "numpy" in sys.modules

fig1 = sys.argv[1]
report = {
    "import": "numpy" in sys.modules,
    "validate": run("validate", "--input", fig1),
    "decompose": run("decompose", "--input", fig1),
    "alpha": run("alpha", "--witness", "--input", fig1),
    "enumerate": run("enumerate", "--k", "6"),
    "rho": run("rho", "--input", fig1),
}
print(json.dumps(report))
"""


class TestImportBoundary:
    def test_numpy_loads_at_the_first_perron_solve(self):
        """In a fresh interpreter, importing the CLI and running the four
        subcommands that solve nothing loads no numpy; ``rho`` then loads
        it and prints as before."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_BOUNDARY, FIG1],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report.pop("import") is False
        rho_code, rho_out, rho_numpy = report.pop("rho")
        for name, (code, out, numpy_loaded) in report.items():
            assert code == 0, name
            assert out, name
            assert numpy_loaded is False, name
        assert rho_code == 0
        assert rho_out == "rho=3.86150990954\n"
        assert rho_numpy is True


class TestExitCodes:
    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "alpha", "--input", "/nonexistent.edges")
        assert code == 2
        assert err

    def test_unknown_flag_exits_two(self, capsys):
        for flag in ("--bogus", "--tol", "--jobs", "--seed"):
            with pytest.raises(SystemExit) as exc:
                main(["alpha", flag, "1"])
            assert exc.value.code == 2

    def test_long_path_answers_without_traceback(self, capsys, tmp_path):
        path = tmp_path / "p1500.edges"
        path.write_text("1500\n" + "".join(f"{i} {i + 1}\n" for i in range(1499)))
        for command, expected in (("validate", 0), ("decompose", 0), ("normalize", 2)):
            code, _, err = run_cli(capsys, command, "--input", str(path))
            assert code == expected, (command, err)
        assert "normalize capped at k <= 300, got 1500" in err
        code, out, err = run_cli(capsys, "rho", "--input", str(path))
        assert code == 0, err
        assert abs(float(out.split("=")[1]) - 2 * math.cos(math.pi / 1501)) < 1e-9

    def test_non_bipartite_rho_is_fine_but_alpha_errors(self, capsys, tmp_path):
        path = tmp_path / "triangle.edges"
        path.write_text("3\n0 1\n1 2\n0 2\n")
        code, out, _ = run_cli(capsys, "rho", "--input", str(path))
        assert code == 0
        assert out == "rho=2\n"
        code, _, err = run_cli(capsys, "alpha", "--input", str(path))
        assert code == 2


def fuzzed_edge_lists(rng, count):
    """Seeded edge-list texts with k in 0..40: bi-block, disconnected and
    odd-cycle graphs, and texts with a duplicate edge, a self-loop, an
    out-of-range label or a bad token.  k = 0 and k = 1 are refused."""
    texts = []
    for i in range(count):
        k = rng.randint(0, 40)
        edges = sorted(random_biblock(rng, max(k, 2)).edges)
        kind = i % 7
        if kind == 1:  # disconnected, unless the dropped edge closed a cycle
            edges = edges[1:]
        elif kind == 2 and k >= 3:  # add a triangle
            edges = sorted(set(edges) | {(0, 1), (1, 2), (0, 2)})
        elif kind == 3:
            edges.append(rng.choice(edges))
        elif kind == 4:
            edges.append((rng.randrange(max(k, 1)),) * 2)
        elif kind == 5:
            edges.append((rng.choice([-1, k, k + 7]), 0))
        lines = [str(k)] + [f"{u} {v}" for u, v in edges]
        if kind == 6:
            bad = rng.choice(["x y", "1", "0 1 2", "1.5 2", "--", "0x1 2", ""])
            lines.insert(rng.randint(0, len(lines)), bad)
        texts.append("\n".join(lines) + "\n")
    return texts


class TestRobustness:
    COMMANDS = (
        ("validate",),
        ("decompose",),
        ("alpha", "--witness"),
        ("rho",),
        ("identities",),
        ("normalize",),
    )

    def test_path_at_the_size_limit_answers(self, capsys, tmp_path):
        path = tmp_path / "p3000.edges"
        path.write_text("3000\n" + "".join(f"{i} {i + 1}\n" for i in range(2999)))
        code, out, err = run_cli(capsys, "validate", "--input", str(path))
        assert code == 0, err
        assert "bi_block=true" in out

    def test_alpha_of_a_path_with_one_long_augmenting_path(self, capsys, tmp_path):
        # Labels p_{2i} -> i-1, p_0 -> n/2-1 and p_{2i-1} -> n/2+i-1 make the
        # searches from p_2, ..., p_{n-2} pair each p_{2i} with p_{2i-1},
        # leaving the search from p_0 one augmenting path through all n
        # vertices.
        n = 3000
        label = [0] * n
        label[0] = n // 2 - 1
        for i in range(1, n // 2):
            label[2 * i] = i - 1
        for i in range(1, n // 2 + 1):
            label[2 * i - 1] = n // 2 + i - 1
        edges = [(label[j], label[j + 1]) for j in range(n - 1)]
        path = tmp_path / "p3000.edges"
        path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        code, out, err = run_cli(capsys, "alpha", "--witness", "--input", str(path))
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "alpha=1500"
        witness = {int(v) for v in lines[1].removeprefix("witness=").split()}
        assert len(witness) == 1500
        assert not any(u in witness and v in witness for u, v in edges)

    def test_alpha_of_a_shuffled_grid_at_the_size_limit(self, capsys, tmp_path):
        rows, cols = 55, 54
        label = list(range(rows * cols))
        random.Random(5).shuffle(label)
        cell = [label[r * cols:(r + 1) * cols] for r in range(rows)]
        edges = [(cell[r][c], cell[r][c + 1]) for r in range(rows) for c in range(cols - 1)]
        edges += [(cell[r][c], cell[r + 1][c]) for r in range(rows - 1) for c in range(cols)]
        path = tmp_path / "grid.edges"
        path.write_text(f"{rows * cols}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        code, out, err = run_cli(capsys, "alpha", "--witness", "--input", str(path))
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "alpha=1485"
        witness = {int(v) for v in lines[1].removeprefix("witness=").split()}
        assert len(witness) == 1485
        assert not any(u in witness and v in witness for u, v in edges)

    @pytest.mark.parametrize("k", [3001, 10**9])
    def test_header_above_the_size_limit_is_refused(self, capsys, tmp_path, k):
        path = tmp_path / "big.edges"
        path.write_text(f"{k}\n0 1\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "validate", "--input", str(path))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert "capped at k <= 3000" in err

    def test_edge_lines_at_the_bound_answer(self, capsys, tmp_path):
        path = tmp_path / "triangle.edges"
        path.write_text("3\n0 1\n1 2\n0 2\n")
        code, out, err = run_cli(capsys, "validate", "--input", str(path))
        assert code == 0, err
        assert "edges=3" in out and "bipartite=false" in out

    @pytest.mark.parametrize("lines", [7, 10**6])
    def test_edge_lines_past_the_bound_are_refused(self, capsys, tmp_path, lines):
        path = tmp_path / "long.edges"
        path.write_text("3\n" + "0 1\n" * lines)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "validate", "--input", str(path))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == (
            "error: more than k(k-1)/2 = 3 edge lines for k = 3: "
            "no simple graph has more edges\n"
        )

    @pytest.mark.parametrize("row, label", [
        ("0 10000000000", "10000000000"),
        ("-" + "9" * 30 + " 1", "-" + "9" * 30),
        ("1 " + "9" * 30, "9" * 30),
    ])
    def test_huge_labels_are_refused(self, capsys, tmp_path, row, label):
        path = tmp_path / "huge.edges"
        path.write_text(f"3\n{row}\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "validate", "--input", str(path))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == f"error: vertex {label} not in 0..2\n"

    def test_long_stdin_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("3\n" + "0 1\n" * 10**6))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "validate", "--input", "-")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert "more than k(k-1)/2 = 3 edge lines" in err

    def test_fuzzed_inputs_answer_or_refuse(self, capsys, tmp_path):
        codes = set()
        for i, text in enumerate(fuzzed_edge_lists(random.Random(5), 150)):
            path = tmp_path / f"g{i}.edges"
            path.write_text(text)
            for command in self.COMMANDS:
                code, _, err = run_cli(capsys, *command, "--input", str(path))
                assert code in (0, 2), (command, text, err)
                codes.add(code)
        assert codes == {0, 2}
