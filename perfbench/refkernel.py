"""Reference kernel: a fixed pure-Python workload that tracks host speed.

The host this benchmark runs on drifts between fast and slow states that
last tens of seconds, so raw wall-clock times do not repeat. The kernel is
sampled between operations; each operation's time is then reported at a
fixed nominal kernel speed,

    t_scaled = t_raw * NOMINAL_KERNEL_MS / median(nearby kernel samples).

The kernel is close in style to the code under test. It has three parts,
each taking about a third of its time, because host states speed up
different kinds of work by different amounts:

* tuple composition and set membership over permutations: a breadth-first
  closure of the alternating group A6 from two generators;
* nested integer indexing into a Cayley table: the self-distributivity scan
  of the dihedral quandle of order 19, as in axiom validation;
* object-, string- and dict-heavy interpreter work: building a small
  `argparse` parser with subcommands and parsing one command line, as every
  CLI call does.

Against a mix of all three workloads, scaling by the sum tracked the host
better than any part alone. The kernel must never import the package under
test, or a change to that package would move the yardstick.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time

# Typical kernel time on the reference host (2-core x86-64, Python 3.11).
# Only the ratio matters; this constant sets the units scaled times are in.
NOMINAL_KERNEL_MS = 2.0

_DEGREE = 6
_GENERATORS = ((1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1))  # a 3-cycle and a 5-cycle
_GROUP_ORDER = 360
_TABLE_N = 19
_TABLE = tuple(tuple((2 * j - i) % _TABLE_N for j in range(_TABLE_N)) for i in range(_TABLE_N))


def _closure() -> int:
    """Breadth-first closure of A6 from a 3-cycle and a 5-cycle."""
    ident = tuple(range(_DEGREE))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in _GENERATORS:
                q = tuple(g[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def _distributivity_failures() -> int:
    """Triples violating (a*b)*c = (a*c)*(b*c) in the dihedral quandle of order 19."""
    t = _TABLE
    n = _TABLE_N
    failures = 0
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[t[a][c]][t[b][c]]:
                    failures += 1
    return failures


def _parse() -> int:
    """Build a parser with three subcommands and parse one command line."""
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("alpha", "beta", "gamma"):
        p = sub.add_parser(name)
        p.add_argument("--input")
        p.add_argument("--mode", choices=("a", "b", "c"))
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--flag", action="store_true")
    args = parser.parse_args(["beta", "--input", "x.json", "--mode", "b", "--n", "7", "--flag"])
    return args.n


KERNEL_CHECKSUM = _GROUP_ORDER + 0 + 7


def kernel() -> int:
    """Every part once; returns KERNEL_CHECKSUM (group order, no failures, n)."""
    return _closure() + _distributivity_failures() + _parse()


def sample_ms() -> float:
    """Time one kernel run in milliseconds, with the collector held off so
    the heap left behind by the code under test does not enter the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        size = kernel()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if size != KERNEL_CHECKSUM:
        raise RuntimeError(f"reference kernel returned {size}, expected {KERNEL_CHECKSUM}")
    return elapsed * 1e3


def local_medians(samples: list[float], radius: int) -> list[float]:
    """For each sample index, the median of the samples within `radius` of it."""
    out = []
    for i in range(len(samples)):
        lo = max(0, i - radius)
        out.append(statistics.median(samples[lo : i + radius + 1]))
    return out


def scale(raw_s: float, kernel_ms: float) -> float:
    """A raw duration expressed at the nominal kernel speed."""
    return raw_s * NOMINAL_KERNEL_MS / kernel_ms
