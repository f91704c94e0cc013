"""Machine-speed probes: job times are scaled to a reference speed.

The benchmark shares a few cores with other tenants.  Their load makes the
same code run up to about 1.5 times slower, for stretches of seconds to
minutes: longer than a whole run, so neither the fastest nor the median
repeat of a job within one run removes it.  A probe measures that speed
where the jobs run.  A fixed kernel of the kind of work the workload does
runs after every job, outside the job's timing, and the job's time is
scaled by the kernel's reference time over the median probe time of the
jobs around it, so the figures read as milliseconds at one fixed machine
speed.  The exact workloads use ``Fraction`` sums with growing
denominators, the arithmetic the exact layers spend their time in;
``float-mc`` uses numpy sorts and sums, as its sampling and histograms do.

The kernels are the benchmark's own code, so a change to the program
cannot move them; a program that gets slower gets slower against the
probe too.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from functools import cache
from time import perf_counter

import numpy as np


def _fraction_kernel() -> Fraction:
    x, total = Fraction(1, 3), Fraction(0)
    for i in range(1, 400):
        total += x * Fraction(i, i + 7)
        x = Fraction(x.denominator % 97 + 1, i + 2)
    return total


@cache
def _floats() -> np.ndarray:
    return np.random.default_rng(0).random(200_000)


def _numpy_kernel() -> float:
    a = _floats()
    return float(np.sort(a[:50_000]).sum() + (a * a).sum())


KERNELS = {"fraction": _fraction_kernel, "numpy": _numpy_kernel}
#: each kernel's median time on the 2-vCPU Xeon VM the benchmark was defined on
REF_S = {"fraction": 2.66e-3, "numpy": 0.92e-3}
#: a job's speed is the median probe of the WINDOW jobs on either side of it
WINDOW = 5


def probe(kind: str) -> float:
    """Seconds the kernel ``kind`` takes once."""
    kernel = KERNELS[kind]
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def scales(probes: list, kind: str) -> list:
    """For each probe in run order, the kernel's REF_S over the median probe around it."""
    return [
        REF_S[kind] / statistics.median(probes[max(0, i - WINDOW) : i + WINDOW + 1])
        for i in range(len(probes))
    ]
