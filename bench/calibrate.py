"""Host-speed reference for the benchmark's timings.

The benchmark runs on a shared host whose CPU speed moves, from second
to second and over minutes, by far more than the changes the benchmark
must resolve; CPU time moves with it, because the program keeps
running, only slower.  So fixed reference work that does not involve
biblock runs interleaved with the program: pure-Python bipartite
matching and a numpy power iteration on fixed graphs, the same mix of
interpreter and small-matrix work as the program.  `Sampler` runs one
slice of it from a profiling timer every few milliseconds of CPU time,
in the middle of whatever the program is doing, so even a call that
runs for seconds is sampled throughout.  The slices' rate, against
NOMINAL_RATE, is the speed of the CPU while the program ran, and the
program's time (less the slices') is scaled by it to what it would be
at the nominal speed.  The reference work never changes with the
program, so a change in the scaled times is the program's.  It only
tells the speed of the CPU it ran on, which is why run.py keeps
everything on one CPU.
"""

from __future__ import annotations

import random
import signal
import time

import numpy as np

import gen
import refcheck

_GRAPHS = [
    (k, edges, refcheck.adjacency(k, edges))
    for k, edges in gen.random_graphs(random.Random("calibrate"), [16, 24, 32, 40, 48, 56])
]
POWER_STEPS = 60

# Slices per CPU second on the host where the benchmark's recorded
# figures were measured (one of 2 vCPUs of a shared cloud VM, Python 3.11).
NOMINAL_RATE = 2300.0


_next = 0


def run_slice() -> None:
    """One unit of reference work, on the graphs in turn."""
    global _next
    k, edges, a = _GRAPHS[_next]
    _next = (_next + 1) % len(_GRAPHS)
    refcheck.alpha_ref(k, edges)
    x = np.full(k, 1.0 / k ** 0.5)
    for _ in range(POWER_STEPS):
        y = a @ x + x
        x = y / np.linalg.norm(y)


class Sampler:
    """Runs one slice every `interval` seconds of this process's CPU time, from SIGPROF.

    Worker processes forked meanwhile do not inherit the timer.
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.slices = 0
        self.cpu = 0.0  # CPU seconds spent in slices
        self.wall = 0.0  # wall seconds spent in slices

    def _tick(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        run_slice()
        self.cpu += time.thread_time() - c0
        self.wall += time.perf_counter() - t0
        self.slices += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def clock(self) -> float:
        """Wall seconds not spent in slices."""
        return time.perf_counter() - self.wall


def run_after(op_seconds: float, share: float) -> tuple[int, float]:
    """Run slices for `share` of an operation's time just after it; (slices, CPU seconds)."""
    n, spent = 0, 0.0
    while spent < share * op_seconds or not n:
        t0 = time.thread_time()
        run_slice()
        spent += time.thread_time() - t0
        n += 1
    return n, spent


def factors(samples: list[tuple[float, int, float]], chunk: float) -> list[float]:
    """Per operation, what to multiply its time by to get it at the nominal speed.

    `samples` holds per operation its seconds and the slices, and their
    CPU seconds, that ran with it.  Consecutive operations are grouped
    until they took `chunk` seconds and had a slice, and each group is
    scaled by the rate of its slices; a last group without one joins
    the group before it.
    """
    groups: list[list[int]] = [[]]
    acc, n = 0.0, 0
    for i, (t, k, _) in enumerate(samples):
        groups[-1].append(i)
        acc, n = acc + t, n + k
        if acc >= chunk and n:
            groups.append([])
            acc, n = 0.0, 0
    if not groups[-1]:
        groups.pop()
    elif len(groups) > 1 and not n:
        last = groups.pop()
        groups[-1] += last
    out = [0.0] * len(samples)
    for g in groups:
        n = sum(samples[i][1] for i in g)
        cpu = sum(samples[i][2] for i in g)
        if not n:
            raise RuntimeError("no reference slices ran among the operations")
        for i in g:
            out[i] = n / cpu / NOMINAL_RATE
    return out


def measure_rate(seconds: float = 2.0) -> float:
    """Reference slices per CPU second over a short stretch."""
    n, t0 = 0, time.thread_time()
    while time.thread_time() - t0 < seconds:
        run_slice()
        n += 1
    return n / (time.thread_time() - t0)


if __name__ == "__main__":
    print(f"{measure_rate():.3f} slices per CPU second")
