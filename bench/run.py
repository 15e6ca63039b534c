"""End-to-end benchmark of the biblock CLI.

    python3 bench/run.py --workload {verify,normalize,inspect} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every operation calls
`biblock.cli.main(argv)` in this process with the CLI's default flags,
captures its stdout and checks it against references computed without
biblock (see refcheck.py).  One round runs the workload's fixed set of
operations once; rounds repeat while another fits in --seconds, and
later rounds must print byte-identical output.  Times are CPU seconds
scaled to a nominal host speed by reference work interleaved with the
operations (see calibrate.py).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 1
the metrics are the per-layer counts and self times of tracer.py
instead of the end-to-end ones.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The benchmark, the processes it starts and its reference work all run
# on one CPU: on a shared host the CPUs of one machine run at different
# speeds from moment to moment, so the reference work only tells the
# speed of the CPU it ran on.  One BLAS thread likewise; set before numpy
# is first imported (by refcheck, and by biblock).
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402
import gen  # noqa: E402
import refcheck  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
FIG1 = ROOT / "tests" / "fixtures" / "fig1.edges"
SETUP_REPS = 7
SAMPLE_INTERVAL_S = 0.003  # CPU seconds between reference slices (calibrate.Sampler)
SETUP_CAL_SHARE = 0.25  # reference work after each set-up, per second it took
# Operation seconds that share one speed factor.  Slices that run during
# verify's pool start-ups share the CPU with the workers and run slower than
# the program does on average there; 3 s of operations dilutes that.
CAL_CHUNK_S = 3.0
MAX_REPS = 9  # runs of one operation in a round, for workloads that repeat short ones
VERIFY_KS = range(2, 11)
INSPECT_COMMANDS = (["decompose"], ["alpha", "--witness"], ["rho"], ["identities"])

# Per-layer metrics reported by --trace 1, in BENCHMARK.json order.
LAYER_METRICS = (
    "graphs.canonical_form.calls", "graphs.canonical_form.self_s",
    "graphs.parse_edge_list.self_s",
    "blocks.decompose.calls", "blocks.decompose.self_s", "blocks.is_bi_block.calls",
    "independence.alpha_matching.calls", "independence.alpha_matching.self_s",
    "independence.alpha_bruteforce.calls", "independence.alpha_bruteforce.self_s",
    "spectral.perron.calls", "spectral.perron.self_s",
    "spectral.check_identities_J.calls", "spectral.check_identities_J.self_s",
    "rewrites.find_applicable.calls", "rewrites.find_applicable.self_s",
    "rewrites.apply_step.calls", "rewrites.apply_step.self_s",
    "rewrites.perron_per_step",
    "enumeration.enumerate_biblock.calls", "enumeration.enumerate_biblock.self_s",
    "enumeration.canonical_per_class", "enumeration.extremal_verify.self_s",
    "cli.main.self_s",
)


@dataclass
class Op:
    """One timed unit: the CLI calls for one graph (or one K), and their check."""

    label: str
    argvs: list[list[str]]
    check: Callable[[list[dict]], list[str]]
    graphs: Callable[[list[dict]], int]


def _write_inputs(graphs, tmp: Path) -> list[tuple[str, int, list]]:
    out = []
    for i, (k, edges) in enumerate(graphs):
        path = tmp / f"g{i:04d}.edges"
        path.write_text(gen.edge_list_text(k, edges), encoding="utf-8")
        out.append((str(path), k, edges))
    return out


def verify_ops(seed: int, tmp: Path) -> list[Op]:
    del seed, tmp  # the exhaustive sweep has no random input
    return [
        Op(f"verify-theorem --k {kk}",
           [["verify-theorem", "--k", str(kk), "--format", "json"]],
           lambda outs, kk=kk: refcheck.check_verify(kk, outs[0]),
           lambda outs: sum(r["class_size"] for r in outs[0]))
        for kk in VERIFY_KS
    ]


def normalize_ops(seed: int, tmp: Path) -> list[Op]:
    ops = []
    for path, k, edges in _write_inputs(gen.normalize_graphs(seed), tmp):
        ops.append(Op(
            f"normalize {Path(path).name} (k={k})",
            [["normalize", "--input", path, "--format", "json"]],
            lambda outs, k=k, e=edges: refcheck.check_normalize(
                k, e, refcheck.alpha_ref(k, e), refcheck.rho_ref(k, e), outs[0]),
            lambda outs: 1))
    return ops


def _inspect_check(k: int, edges, outs: list[dict]) -> list[str]:
    rho = refcheck.rho_ref(k, edges)
    return (refcheck.check_decompose(k, edges, outs[0])
            + refcheck.check_alpha(k, edges, refcheck.alpha_ref(k, edges), outs[1])
            + refcheck.check_rho(rho, outs[2])
            + refcheck.check_identities(rho, outs[3]))


def inspect_ops(seed: int, tmp: Path) -> list[Op]:
    inputs = _write_inputs(gen.inspect_graphs(seed), tmp)
    inputs.append((str(FIG1), *gen.parse_edge_list_text(FIG1.read_text(encoding="utf-8"))))
    return [
        Op(f"inspect {Path(path).name} (k={k})",
           [cmd + ["--input", path, "--format", "json"] for cmd in INSPECT_COMMANDS],
           lambda outs, k=k, e=edges: _inspect_check(k, e, outs),
           lambda outs: 1)
        for path, k, edges in inputs
    ]


# Workload -> (operations, seconds an operation is repeated for in each round).
# verify's calls below K = 9 are short and mostly pool start-up, so each
# runs several times a round and counts with its median.
WORKLOADS = {"verify": (verify_ops, 0.5), "normalize": (normalize_ops, 0.0),
             "inspect": (inspect_ops, 0.0)}


def call_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in-process; exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not a harness error
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children (the --jobs workers)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


@dataclass
class OpResult:
    seconds: float  # CPU time, this process and the --jobs workers, less the slices'
    wall: float  # less the slices'
    slices: int  # reference slices that ran during the operation
    slice_cpu: float
    failure: str | None  # first stderr line of the first command that exited non-zero
    digest: str
    outputs: list[str]
    scaled: float = 0.0  # `seconds` at the nominal host speed (calibrate.py)


def run_op(cli, op: Op, sampler: calibrate.Sampler) -> OpResult:
    outputs, failure = [], None
    n0, sc0, sw0 = sampler.slices, sampler.cpu, sampler.wall
    t0, c0 = time.perf_counter(), cpu_seconds()
    for argv in op.argvs:
        rc, out, err = call_cli(cli.main, argv)
        outputs.append(out)
        if rc != 0:
            failure = f"exit {rc}: {(err.strip().splitlines() or [''])[-1]}"
            break
    cpu, wall = cpu_seconds() - c0, time.perf_counter() - t0
    slice_cpu, slice_wall = sampler.cpu - sc0, sampler.wall - sw0
    return OpResult(cpu - slice_cpu, wall - slice_wall, sampler.slices - n0, slice_cpu, failure,
                    hashlib.sha256("\0".join(outputs).encode()).hexdigest(), outputs)


def measure_setup() -> tuple[float, float]:
    """Median seconds for a fresh interpreter to import biblock.cli: scaled CPU, and wall."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples, wall = [], []
    for _ in range(SETUP_REPS):
        c0, t0 = cpu_seconds(), time.perf_counter()
        subprocess.run([sys.executable, "-c", "import biblock.cli"], env=env, check=True,
                       cwd=ROOT, stdin=subprocess.DEVNULL)
        wall.append(time.perf_counter() - t0)
        cpu = cpu_seconds() - c0
        samples.append((cpu, *calibrate.run_after(cpu, SETUP_CAL_SHARE)))
    scaled = [s[0] * f for s, f in zip(samples, calibrate.factors(samples, chunk=0.0))]
    return statistics.median(scaled), statistics.median(wall)


def check_op(op: Op, r: OpResult) -> tuple[list[str], int]:
    """Problems with an operation's outputs, and the graphs it completed."""
    if r.failure is not None:
        return [], 0
    try:
        outs = [json.loads(o) for o in r.outputs]
        return [f"{op.label}: {p}" for p in op.check(outs)], op.graphs(outs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{op.label}: malformed output ({type(exc).__name__}: {exc})"], 0


def run_round(cli, ops: list[Op], rep_s: float, check: bool,
              sampler: calibrate.Sampler) -> tuple[list[OpResult], list[str], int]:
    """Every operation once, short ones again until they took rep_s.

    Returns per operation the run with the median scaled time, the
    problems found (outputs are checked only if `check`), and the
    graphs completed.
    """
    runs: list[list[OpResult]] = []
    problems: list[str] = []
    graphs = 0
    for op in ops:
        reps: list[OpResult] = []
        while not reps or (sum(r.seconds for r in reps) < rep_s and len(reps) < MAX_REPS):
            reps.append(run_op(cli, op, sampler))
            if check and len(reps) == 1:
                found, done = check_op(op, reps[0])
                problems += found
                graphs += done
            reps[-1].outputs = []
        if len({(r.failure, r.digest) for r in reps}) > 1:
            problems.append(f"{op.label}: output differs between runs")
        runs.append(reps)
    flat = [r for reps in runs for r in reps]
    samples = [(r.seconds, r.slices, r.slice_cpu) for r in flat]
    for r, f in zip(flat, calibrate.factors(samples, CAL_CHUNK_S)):
        r.scaled = r.seconds * f
    return [sorted(reps, key=lambda r: r.scaled)[len(reps) // 2] for reps in runs], problems, graphs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "biblock" / "cli.py").is_file() or not FIG1.is_file():
        print(f"no biblock checkout at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from biblock import cli

    gen.check_pinned()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        make_ops, rep_s = WORKLOADS[args.workload]
        ops = make_ops(args.seed, tmp)
        setup = measure_setup()
        return run_rounds(cli, ops, rep_s, args, setup)
    finally:
        shutil.rmtree(tmp)


def _fixed_set_seconds(samples: list[list[float]]) -> float:
    """Time for one pass over the fixed set: each operation's median over rounds, summed."""
    return sum(statistics.median(xs) for xs in samples)


def run_rounds(cli, ops: list[Op], rep_s: float, args, setup: tuple[float, float]) -> int:
    sampler = calibrate.Sampler(SAMPLE_INTERVAL_S)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(clock=sampler.clock)
    run_op(cli, ops[0], sampler)  # warm-up, untimed

    problems: list[str] = []
    reference: list[OpResult] = []
    graphs_per_round = 0
    plain: list[list[float]] = [[] for _ in ops]  # untraced scaled seconds per operation
    plain_wall: list[list[float]] = [[] for _ in ops]
    traced: list[list[float]] = [[] for _ in ops]
    layer_rounds: list[dict[str, float]] = []
    rounds = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    last = 0.0
    sampler.start()
    try:
        # A round starts only if one as long as the last still ends by the deadline.
        # With --trace 1, traced rounds alternate with untraced ones for the overhead figure.
        while rounds < (2 if tracer else 1) or time.perf_counter() + last <= deadline:
            trace_round = tracer is not None and rounds % 2 == 1
            t0 = time.perf_counter()
            if trace_round:
                tracer.install()
                mark = len(tracer.names)
            try:
                # Traced rounds run each operation once, so that counts stay exact.
                results, found, graphs = run_round(cli, ops, 0.0 if trace_round else rep_s,
                                                   not reference, sampler)
            finally:
                if trace_round:
                    tracer.uninstall()
            last = time.perf_counter() - t0
            problems += found
            if trace_round:
                layer_rounds.append(tracer.summary(mark))
            for xs, r in zip(traced if trace_round else plain, results):
                xs.append(r.scaled)
            if not trace_round:
                for xs, r in zip(plain_wall, results):
                    xs.append(r.wall)
            rounds += 1
            if not reference:
                reference, graphs_per_round = results, graphs
            elif [(r.failure, r.digest) for r in results] != [(r.failure, r.digest) for r in reference]:
                problems.append("output differs from the first round")
    finally:
        sampler.stop()
    attempted = len(reference)
    failed = sum(r.failure is not None for r in reference)

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations a round, "
          f"{rounds} rounds ({len(layer_rounds)} traced) in {time.perf_counter() - start:.1f} s")
    for op, r in zip(ops, reference):
        if r.failure:
            print(f"failed: {op.label}: {r.failure}")
    for p in problems:
        print(f"incorrect: {p}")
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} operations)")
    print("untraced round cpu_s (scaled):", " ".join(f"{sum(w):.3f}" for w in zip(*plain)))
    print("untraced round wall_s (raw):", " ".join(f"{sum(w):.3f}" for w in zip(*plain_wall)))

    cpu = _fixed_set_seconds(plain)
    if tracer is None:
        per_op = [statistics.median(xs) for xs in plain]
        p95 = statistics.quantiles(per_op, n=20, method="inclusive")[-1]
        metrics = {
            "cpu_s": (cpu, "s"),
            "graphs_per_cpu_s": (graphs_per_round / cpu, "1/s"),
            "op_p50_ms": (1000 * statistics.median(per_op), "ms"),
            "op_p95_ms": (1000 * p95, "ms"),
            "setup_s": (setup[0], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        wall = _fixed_set_seconds(plain_wall)
        wall_op = [statistics.median(xs) for xs in plain_wall]
        print(f"raw, not scaled to the nominal host speed: wall_s {wall:.4f} s, "
              f"graphs_per_s {graphs_per_round / wall:.4f} 1/s, "
              f"op_p50_ms {1000 * statistics.median(wall_op):.4f} ms, "
              f"op_p95_ms {1000 * statistics.quantiles(wall_op, n=20, method='inclusive')[-1]:.4f} ms, "
              f"setup_s {setup[1]:.4f} s")
        print(f"operation latency: median over rounds of each of {len(per_op)} operations; "
              f"{sum(x > p95 for x in per_op)} above p95")
    else:
        metrics = {name: (statistics.median(r.get(name, 0) for r in layer_rounds),
                          "count" if name.endswith(".calls") else "s" if name.endswith("_s") else "ratio")
                   for name in LAYER_METRICS}
        traced_cpu = _fixed_set_seconds(traced)
        metrics["trace.overhead_s"] = (traced_cpu - cpu, "s")
        spans = WORK / f"spans-{args.workload}.tsv"
        tracer.write(str(spans))
        print(f"tracing overhead {traced_cpu - cpu:.4f} s "
              f"(traced cpu_s {traced_cpu:.4f}, untraced cpu_s {cpu:.4f})")
        print(f"{len(tracer.names)} spans written to {spans.relative_to(ROOT)}")
        print("calls inside verify-theorem's worker processes are not seen; "
              "there the Perron solves appear only as wait inside extremal_verify")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
