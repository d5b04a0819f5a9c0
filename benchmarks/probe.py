"""A fixed reference workload that gauges how fast the machine runs right now.

On a shared host the speed of a core moves in steps of up to 2x, and a step
can last from a second to minutes, so raw wall times of the same code drift
by more than a regression bound between two sets of runs. The benchmark
therefore runs this probe between calls and scales each call's wall time by
``NOMINAL_S[kind] / probe time``, with the probe time taken as the median of
the probes run right before and right after that call. A scaled time reads
as the call's time on a machine that runs the probe in ``NOMINAL_S[kind]``
seconds.

A slow step does not slow all code alike. Interpreter-bound Python on data
that fits in the caches slows about as much as the step; arithmetic on
~50k-bit integers, which runs in C, slows about a quarter as much; code
that walks 100-300 MB of objects falls in between. So there are two kinds
of probe, and each workload uses the one whose time moves most like its own
(see README.md):

- ``text``: split text lines, fill dictionaries and lists, add ``Fraction``
  values and walk a tree, all within the caches;
- ``bigint``: the ``text`` probe plus multiplications and remainders of
  ~56k-bit integers, which moves about 0.6 times as much as ``text``.

The probe is stdlib-only and never calls the program, so a change to the
program does not move it. It runs with the garbage collector off, so the
program's collector settings do not move it either.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Each probe's median time on an unloaded 2-vCPU Xeon under Python 3.11.
# Only the ratio of scaled times between runs matters; these constants keep
# them in seconds.
NOMINAL_S = {"text": 0.02, "bigint": 0.04}

_LINES = tuple(f"n{i // 3}\tn{i}\t{(i * 7919) % 1000 + 1}/{i % 7 + 1}" for i in range(1, 2001))
_BIG = (7**20000, 11**18000, 13**15000 + 1)


def _text() -> None:
    children: dict[str, list[str]] = {}
    weight: dict[str, Fraction] = {}
    for line in _LINES:
        parent, child, text = line.split("\t")
        p, q = text.split("/")
        weight[child] = Fraction(int(p), int(q))
        children.setdefault(parent, []).append(child)
    order = ["n0"]
    for label in order:
        order.extend(children.get(label, ()))
    below: dict[str, Fraction] = {}
    for label in reversed(order):
        below[label] = sum((below[c] for c in children.get(label, ())), weight.get(label, Fraction(0)))
    sorted(below, key=below.__getitem__)


def _bigint() -> None:
    a, b, m = _BIG
    x = a
    for _ in range(3):
        x = x * b % m + a


def probe(kind: str = "text") -> float:
    """Run the reference workload once and return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _text()
        if kind == "bigint":
            _bigint()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def probes(at_least_s: float, kind: str = "text") -> list[float]:
    """Run the probe twice, and more until ``at_least_s`` has passed."""
    times = [probe(kind), probe(kind)]
    while sum(times) < at_least_s:
        times.append(probe(kind))
    return times


def scaled(times: list[float], groups: list[list[float]], kind: str = "text") -> list[float]:
    """Scale ``times[k]`` by the probes around it: ``groups[k]`` ran just
    before it and ``groups[k + 1]`` just after it."""
    assert len(groups) == len(times) + 1
    nominal = NOMINAL_S[kind]
    return [t * nominal / statistics.median(groups[k] + groups[k + 1]) for k, t in enumerate(times)]
