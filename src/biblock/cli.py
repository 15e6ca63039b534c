"""Command-line interface.

Exit codes: 0 success / verified, 1 verification failure (theorem
violation, identity residual over the tolerance band, rewrite
postcondition breach), 2 input or usage error.  Diagnostics go to
stderr, data to stdout; identical inputs and flags produce byte-identical
output.

Every subcommand takes --format, and those that read a graph take
--input; the eigensolver tolerance is the fixed spectral.DEFAULT_TOL.

One writer, _json_text, produces all JSON output, with the bytes the
standard json module writes with indent=2 and sort_keys=True.  That
module uses its C encoder only when indent is None, so with indent=2 it
runs its pure-Python encoder, which took 17-18 % of the CPU time of an
`inspect` benchmark round (0.75-0.81 of 4.43-4.47 s); the writer does
the same job in about two thirds of that time.  Do not go back to the
json module's dump functions.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii

from . import blocks as blocks_mod
from . import enumeration, graphs, independence, rewrites, spectral
from .errors import (
    BiblockError,
    NoConvergenceError,
    PostconditionViolationError,
    StuckError,
    TheoremViolationError,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

VERIFICATION_ERRORS = (
    TheoremViolationError,
    PostconditionViolationError,
    StuckError,
    NoConvergenceError,
)

IDENTITY_BAND = 1e-9

_INF = float("inf")


def _fmt(x: float) -> float:
    """Round to 12 significant digits for stable fixtures."""
    return float(f"{x:.12g}")


def _json_text(obj, indent: str = "") -> str:
    """obj as JSON: indent 2, sorted keys, non-ASCII escaped, no newline.

    The bytes are those of the json module's dumps with indent=2 and
    sort_keys=True.  Each container's text is one ``str.join`` over its
    items' texts, and a list of plain ints joins their reprs with no call
    per item.  Keys must be str; anything else the json module cannot
    write raises TypeError.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == _INF:
            return "Infinity"
        if obj == -_INF:
            return "-Infinity"
        return float.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        for x in obj:
            # type(), not isinstance: [1, True] must print true.
            if type(x) is not int:
                items = [_json_text(x, inner) for x in obj]
                break
        else:
            items = map(int.__repr__, obj)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not str.
        items = [encode_basestring_ascii(key) + ": " + _json_text(obj[key], inner)
                 for key in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_json(obj) -> None:
    sys.stdout.write(_json_text(obj) + "\n")


def _read_graph(path: str) -> graphs.Graph:
    if path == "-":
        return graphs.parse_edge_list(sys.stdin)
    return graphs.read_edge_list(path)


def _add_common(sub, with_input=True) -> None:
    if with_input:
        sub.add_argument("--input", "-i", default="-",
                         help="edge-list file, or - for stdin (default)")
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _cmd_validate(args) -> int:
    g = _read_graph(args.input)
    connected = graphs.is_connected(g)
    report = {
        "k": g.k,
        "edges": g.edge_count,
        "connected": connected,
        "bipartite": graphs.is_bipartite(g),
        "bi_block": blocks_mod.is_bi_block(g),
    }
    if args.format == "json":
        _emit_json(report)
    else:
        for key in ("k", "edges", "connected", "bipartite", "bi_block"):
            print(f"{key}={str(report[key]).lower()}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    g = _read_graph(args.input)
    report = blocks_mod.to_report(blocks_mod.decompose(g))
    if args.format == "json":
        _emit_json(report)
        return EXIT_OK
    print(f"k={report['k']}")
    print(f"cut_vertices={' '.join(map(str, report['cut_vertices'])) or '-'}")
    for blk in report["blocks"]:
        parts = blk["parts"]
        shape = (
            f"K_{{{len(parts[0])},{len(parts[1])}}}" if parts else "not-complete-bipartite"
        )
        leaf = " leaf" if blk["is_leaf"] else ""
        print(f"block {blk['id']}: {shape} on {blk['vertices']}{leaf}")
    return EXIT_OK


def _cmd_alpha(args) -> int:
    g = _read_graph(args.input)
    result = independence.alpha_matching(g)
    if args.format == "json":
        payload = {"alpha": result.alpha}
        if args.witness:
            payload["witness"] = sorted(result.witness)
        _emit_json(payload)
        return EXIT_OK
    print(f"alpha={result.alpha}")
    if args.witness:
        print(f"witness={' '.join(map(str, sorted(result.witness)))}")
    return EXIT_OK


def _cmd_rho(args) -> int:
    g = _read_graph(args.input)
    rho = spectral.perron(g).rho
    if args.format == "json":
        _emit_json({"rho": _fmt(rho)})
    else:
        print(f"rho={rho:.12g}")
    return EXIT_OK


def _identity_payload(g: graphs.Graph) -> dict:
    residuals = []
    two_block = None
    data = spectral.two_block_data_from_graph(g)
    pair = spectral.perron(g)
    if data is not None:
        res = spectral.check_identities_I(data, pair.rho)
        residuals.extend(res.values())
        two_block = {
            "p": data.p,
            "q": data.q,
            "m": data.m,
            "n": data.n,
            "residuals": {k: _fmt(v) for k, v in sorted(res.items())},
        }
    leaf_reports = []
    for config, res in spectral.check_identities_J(g):
        residuals.extend(res.values())
        leaf_reports.append(
            {
                "h_block": config.h_id,
                "f_block": config.f_id,
                "v": config.v,
                "c": config.c,
                "residuals": {k: _fmt(v) for k, v in sorted(res.items())},
            }
        )
    band = IDENTITY_BAND * max(1.0, pair.rho)
    max_residual = max(residuals) if residuals else 0.0
    return {
        "rho": _fmt(pair.rho),
        "two_block": two_block,
        "leaf_configs": leaf_reports,
        "max_residual": _fmt(max_residual),
        "band": _fmt(band),
        "pass": max_residual <= band,
    }


def _cmd_identities(args) -> int:
    g = _read_graph(args.input)
    payload = _identity_payload(g)
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"rho={payload['rho']:.12g}")
        if payload["two_block"] is not None:
            for name, val in payload["two_block"]["residuals"].items():
                print(f"I {name}: {val:.3e}")
        for rep in payload["leaf_configs"]:
            for name, val in rep["residuals"].items():
                print(f"J[h={rep['h_block']},c={rep['c']}] {name}: {val:.3e}")
        print(f"max_residual={payload['max_residual']:.3e}")
        print(f"pass={str(payload['pass']).lower()}")
    return EXIT_OK if payload["pass"] else EXIT_VERIFY_FAIL


def _outcome_payload(outcome: rewrites.RewriteOutcome) -> dict:
    return {
        "kind": outcome.step.kind,
        "case": outcome.step.case,
        "cut_vertex": outcome.step.cut_vertex,
        "alpha_before": outcome.alpha_before,
        "alpha_after": outcome.alpha_after,
        "rho_before": _fmt(outcome.rho_before),
        "rho_after": _fmt(outcome.rho_after),
        # A difference of two rho values each good to about 1e-15: 12
        # decimal places, not 12 significant digits, and never -0.0.
        "delta_rho": round(outcome.delta_rho, 12) or 0.0,
        "edges_added": [list(e) for e in outcome.edges_added],
        "edges_removed": [list(e) for e in outcome.edges_removed],
    }


def _cmd_rewrite(args) -> int:
    g = _read_graph(args.input)
    if args.kind == "reduce":
        if args.vertex is None or args.bi_block is None or args.bj_block is None:
            raise BiblockError("reduce needs --vertex, --bi-block, --bj-block")
        outcome = rewrites.reduce_block_index(
            g, args.vertex, args.bi_block, args.bj_block
        )
    else:
        if args.f_block is None or args.h_block is None:
            raise BiblockError(f"{args.kind} needs --f-block and --h-block")
        if args.kind == "merge":
            outcome = rewrites.merge_blocks(g, args.f_block, args.h_block)
        elif args.kind == "reattach":
            outcome = rewrites.reattach_subcase32(g, args.f_block, args.h_block)
        else:
            n1 = None
            if args.n1:
                n1 = [int(s) for s in args.n1.split(",")]
            outcome = rewrites.split_partition_subcase22(
                g, args.f_block, args.h_block, n1_choice=n1
            )
    payload = _outcome_payload(outcome)
    if args.format == "json":
        _emit_json(payload)
    else:
        print(outcome.trace)
    return EXIT_OK


def _cmd_normalize(args) -> int:
    g = _read_graph(args.input)
    final, trace = rewrites.normalize(g)
    alpha = independence.alpha_matching(g).alpha
    payload = {
        "k": g.k,
        "alpha": alpha,
        "rho_initial": _fmt(spectral.perron(g).rho) if g.k >= 2 else None,
        "rho_final": _fmt(spectral.perron(final).rho) if g.k >= 2 else None,
        "step_count": len(trace),
        "final_edges": [list(e) for e in sorted(final.edges)],
        "steps": [_outcome_payload(o) for o in trace],
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        for o in trace:
            print(o.trace)
        rho = (
            f"{payload['rho_initial']} -> {payload['rho_final']}" if g.k >= 2 else "- -> -"
        )
        print(
            f"normalized to K_{{{alpha},{g.k - alpha}}} in {len(trace)} steps; "
            f"rho {rho}"
        )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    spec = enumeration.ClassSpec(args.k, args.alpha)
    members = sorted(enumeration.enumerate_class(spec), key=graphs.canonical_form)
    if args.format == "json":
        payload = [
            {"k": g.k, "edges": [list(e) for e in sorted(g.edges)]} for g in members
        ]
        text = _json_text(payload) + "\n"
    else:
        text = "\n".join(graphs.format_edge_list(g) for g in members)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _report_payload(rep: enumeration.ExtremalReport) -> dict:
    return {
        "k": rep.k,
        "alpha": rep.alpha,
        "class_size": rep.class_size,
        "max_rho": _fmt(rep.max_rho),
        "argmax_canonical": rep.argmax_canonical.hex(),
        "is_unique": rep.is_unique,
        "runner_up_rho": _fmt(rep.runner_up_rho) if rep.runner_up_rho is not None else None,
        "margin": _fmt(rep.margin) if rep.margin is not None else None,
    }


def _cmd_verify_theorem(args) -> int:
    reports = enumeration.verify_theorem(args.k, args.alpha)
    payloads = [_report_payload(r) for r in reports]
    if args.format == "json":
        _emit_json(payloads)
    else:
        for p in payloads:
            print(
                f"B({p['k']},{p['alpha']}): size={p['class_size']} "
                f"max_rho={p['max_rho']:.12g} unique={str(p['is_unique']).lower()} "
                f"margin={'-' if p['margin'] is None else format(p['margin'], '.12g')}"
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biblock",
        description="Bi-block graphs: independence, spectral radius, rewrites, "
        "enumeration, and extremal verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("validate", help="parse a graph and report properties")
    _add_common(sub)
    sub.set_defaults(func=_cmd_validate)

    sub = subs.add_parser("decompose", help="block-cut tree report")
    _add_common(sub)
    sub.set_defaults(func=_cmd_decompose)

    sub = subs.add_parser("alpha", help="independence number")
    _add_common(sub)
    sub.add_argument("--witness", action="store_true", help="also print one maximum set")
    sub.set_defaults(func=_cmd_alpha)

    sub = subs.add_parser("rho", help="spectral radius")
    _add_common(sub)
    sub.set_defaults(func=_cmd_rho)

    sub = subs.add_parser("identities", help="two-block and leaf identity residuals")
    _add_common(sub)
    sub.set_defaults(func=_cmd_identities)

    sub = subs.add_parser("rewrite", help="apply one rewrite step")
    _add_common(sub)
    sub.add_argument("--kind", choices=("merge", "reattach", "split", "reduce"),
                     required=True)
    sub.add_argument("--f-block", type=int, help="block id of F")
    sub.add_argument("--h-block", type=int, help="block id of H")
    sub.add_argument("--vertex", type=int, help="cut vertex (reduce)")
    sub.add_argument("--bi-block", type=int, help="first block at vertex (reduce)")
    sub.add_argument("--bj-block", type=int, help="second block at vertex (reduce)")
    sub.add_argument("--n1", help="comma-separated N1 labels (split)")
    sub.set_defaults(func=_cmd_rewrite)

    sub = subs.add_parser("normalize", help="rewrite to K_{alpha,k-alpha} with trace")
    _add_common(sub)
    sub.set_defaults(func=_cmd_normalize)

    sub = subs.add_parser("enumerate", help="emit all of B(k[, alpha])")
    _add_common(sub, with_input=False)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--alpha", type=int, default=None)
    sub.add_argument("--out", default="-", help="output file, - for stdout")
    sub.set_defaults(func=_cmd_enumerate)

    sub = subs.add_parser("verify-theorem", help="extremal verification of B(k, alpha)")
    _add_common(sub, with_input=False)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--alpha", type=int, default=None)
    sub.set_defaults(func=_cmd_verify_theorem)
    return parser


# Built once at import: parsing never changes it, and building it costs
# more than answering a small query.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except VERIFICATION_ERRORS as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except (BiblockError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
