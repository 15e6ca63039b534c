import copy
import io
import json
import math
import sys
from pathlib import Path

import pytest
from jsonschema import validate

from biblock.cli import main
from conftest import FIXTURES, SCHEMAS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


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


class TestIdentitiesCommand:
    def test_two_block_pass(self, capsys, tmp_path):
        from biblock import build_two_block, format_edge_list

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
        from biblock import build_two_block, format_edge_list, spectral

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
        from biblock import build_two_block, format_edge_list

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
        from biblock import build_two_block, format_edge_list

        path = tmp_path / "g.edges"
        path.write_text(format_edge_list(build_two_block(1, 2, 2, 3)))
        code, _, err = run_cli(
            capsys, "rewrite", "--input", str(path), "--kind", "reattach",
            "--f-block", "0", "--h-block", "1",
        )
        assert code == 2
        assert "error" in err

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

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(
            capsys, "verify-theorem", "--k", "5", "--format", "json"
        )
        _, second, _ = run_cli(
            capsys, "verify-theorem", "--k", "5", "--format", "json"
        )
        assert first == second


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
        assert "capped at 24" in err
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
