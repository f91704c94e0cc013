"""Monte Carlo checks of invariance claims.

Samples are drawn from a step density by inverting its piecewise-linear
CDF, pushed through one random branch step (branch picked by a coin with
the local first-branch weight), and binned against a reference density.
A density that really is invariant keeps the post-step histogram close
to itself; the gap scales like sqrt(bins / n_samples).

All randomness flows through a counter-based Philox generator keyed by
(seed, stream), so runs are reproducible and independent streams are
cheap to construct.

The sampler, the chain step and the reports walk the points in fixed
blocks of 65,536 (``_blocks``), and build the lookup tables they read
(``_lookup``) once per call or chain.  Draws and coins come block by block
from the one stream, which gives the same numbers as one large draw, so
the output does not depend on the block size.  A chain with steps reports
only on its final points: it holds its n points and, for that report, one
sorted copy, about 16n bytes plus a few MB of per-block temporaries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .piecewise import StepFunction, ZeroMassError
from .system import EquippedSystem, as_float_system

#: the longest chain run_chain takes; at 10^4 samples that many steps run 4-8 min on a 2-vCPU Xeon
_MAX_STEPS = 10**6

#: points per block, the block np.histogram sorts at a time: the kernels
#: work block by block, so their temporaries take a fixed few MB at any n
_BLOCK = 65536


def _blocks(n: int):
    """The slices of range(n), in order, of _BLOCK points each but the last."""
    return (slice(i, min(i + _BLOCK, n)) for i in range(0, n, _BLOCK))


def _rng(seed: int, stream: int) -> np.random.Generator:
    for name, value in (("seed", seed), ("stream", stream)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def _float_steps(f: StepFunction) -> tuple[np.ndarray, np.ndarray]:
    bps = np.array([float(b) for b in f.breakpoints], dtype=np.float64)
    vals = np.array([float(v) for v in f.values], dtype=np.float64)
    return bps, vals


#: cells of the [0, 1] lookup tables in _lookup; a power of two, so that
#: x * _CELLS is exact and its floor is the cell that holds x
_CELLS = 4096


def _lookup(edges: np.ndarray, exact=None):
    """``exact`` for keys x in [0, 1], off a table of 4,097 entries built once.

    ``exact`` is >= 0 and right-continuous, with jumps only at ``edges``
    (ascending, ties allowed); it defaults to the count of edges <= x.
    Entry k is exact(k/4096), its value on cell k = floor(4096 x), or -1
    if an edge lies strictly inside that cell: only such keys go to exact.
    Keys outside [0, 1], and NaN, are outside the domain.
    """
    if exact is None:
        exact = partial(np.searchsorted, edges, side="right")
    grid = np.arange(_CELLS + 1) / _CELLS
    table = exact(grid)
    table[:-1][np.searchsorted(edges, grid[1:]) > np.searchsorted(edges, grid[:-1], side="right")] = -1

    def lookup(x: np.ndarray) -> np.ndarray:
        k = np.empty(len(x), dtype=np.intp)
        np.multiply(x, _CELLS, out=k, casting="unsafe")  # truncates as astype does, with no float buffer
        out = table[k]
        hard = np.flatnonzero(out < 0)
        out[hard] = exact(x[hard])
        return out

    return lookup


def _count_le(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(edges, x, side="right")`` for keys x in [0, 1]."""
    return _lookup(edges)(x)


def _sample_with_rng(density: StepFunction, n: int, rng: np.random.Generator) -> np.ndarray:
    bps, vals = _float_steps(density)
    if np.any(vals < 0):
        raise ValueError("density must be nonnegative")
    widths = np.diff(bps)
    masses = vals * widths
    total = masses.sum()
    if not total > 0:
        raise ZeroMassError("density has no mass to sample from")
    cum = np.cumsum(masses) / total
    cum[-1] = 1.0
    prev = np.concatenate(([0.0], cum[:-1]))
    count_le = _lookup(cum)
    x = np.empty(n)
    for s in _blocks(n):  # Philox draws in blocks concatenate to the one large draw
        u = rng.random(out=x[s])
        idx = count_le(u)
        # bps + (u - prev) / (masses / total) * widths at each draw's piece, one
        # operation at a time in place: the same roundings, one buffer fewer
        u -= prev[idx]
        u /= (masses / total)[idx]
        u *= widths[idx]
        u += bps[idx]
        np.clip(u, 0.0, 1.0, out=u)
    return x


def sample_from_density(density: StepFunction, n_samples: int, seed: int, *, stream: int = 0) -> np.ndarray:
    """Draw n_samples points by inverse-CDF sampling of the step density."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    return _sample_with_rng(density, n_samples, _rng(seed, stream))


@dataclass(frozen=True, eq=False)
class HistogramReport:
    """Empirical sample histogram held against a reference density."""

    bin_edges: np.ndarray
    bin_masses: np.ndarray
    reference_masses: np.ndarray
    l1_distance_to_reference: float
    ks_statistic: float


def _binned_l1(counts: np.ndarray, n: int, ref: np.ndarray) -> tuple[np.ndarray, float]:
    """The mass of n values in each bin, from their counts, and its total
    variation from ``ref``."""
    emp = counts / n
    return emp, float(np.abs(emp - ref).sum())


def _binning(reference: StepFunction, bins: int, n: int):
    """The bin edges, the reference CDF and its mass in each bin, for a
    report on n values."""
    if bins < 1:
        raise ValueError("bins must be positive")
    if n == 0:
        raise ValueError("no samples to report on")
    bps, vals = _float_steps(reference)
    masses = vals * np.diff(bps)
    total = masses.sum()
    if not total > 0:
        raise ZeroMassError("reference density has no mass")
    cum_at_bp = np.concatenate(([0.0], np.cumsum(masses)))

    def cdf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The CDF at ascending keys x, into ``out`` (which may be x itself).

        Piece i holds the keys in [bps[i], bps[i+1]), the first piece also
        those below and the last those above, so each piece is one slice
        of x and takes (cum_at_bp[i] + vals[i] * (x - bps[i])) / total,
        with its three numbers repeated over the slice.
        """
        lens = np.diff(np.searchsorted(x, bps[1:-1]), prepend=0, append=len(x))
        out = np.subtract(x, np.repeat(bps[:-1], lens), out=out)
        out *= np.repeat(vals, lens)
        out += np.repeat(cum_at_bp[:-1], lens)
        out /= total
        return np.clip(out, 0.0, 1.0, out=out)

    edges = np.linspace(0.0, 1.0, bins + 1)
    return edges, cdf, np.diff(cdf(edges))


def histogram_report(values: np.ndarray, reference: StepFunction, bins: int = 100) -> HistogramReport:
    """Bin the values on a uniform grid and measure the gap to the reference.

    The L1 figure is the total variation between the two binned mass
    vectors; the KS figure is the usual one-sample statistic against the
    reference CDF.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    edges, cdf, ref = _binning(reference, bins, n)
    xs = np.sort(values)
    # np.histogram's counts off the sorted values: bins [e_i, e_i+1), the last closed
    below = np.append(np.searchsorted(xs, edges[:-1]), np.searchsorted(xs, edges[-1], side="right"))
    emp, l1 = _binned_l1(np.diff(below), n, ref)
    # KS = sup |F_n - F| over the sorted values, with F taken in place: F_n
    # steps from (i - 1)/n to i/n at the i-th smallest value
    d_minus = d_plus = -np.inf
    for s in _blocks(n):
        f = cdf(xs[s], out=xs[s])
        fn = np.arange(s.start, s.stop + 1, dtype=np.float64)
        fn /= n
        d_minus = (f - fn[:-1]).max(initial=d_minus)
        d_plus = (fn[1:] - f).max(initial=d_plus)
    return HistogramReport(edges, emp, ref, l1, float(max(d_plus, d_minus)))


def _stepper(system: EquippedSystem):
    """One random branch step, ``step(x, coins)`` for points x in [0, 1].

    A point takes the first branch, cut at 1 - a, when its coin < alpha1(x),
    else the second, cut at a; at or above its cut it maps to (x - a)/(1 - a),
    else to x/(1 - a).  As a <= 1 - a, for coins in [0, 1) that high branch
    is taken exactly when coin >= g(x), with g (a _lookup) = +inf on [0, a),
    alpha1 on [a, 1 - a) and 0 on [1 - a, 1].  x - 0.0 is x, so subtracting
    ``high * a`` gives the bits of both branches.
    """
    a = float(system.a)
    w = 1.0 - a
    bps, vals = _float_steps(system.alpha1)
    g = _lookup(
        np.sort(np.append(bps, (a, w))),  # alpha1(x) = vals[#{breakpoints < 1 that are <= x} - 1]
        lambda x: np.where(x < a, np.inf, np.where(x >= w, 0.0, vals[np.searchsorted(bps[:-1], x, side="right") - 1])),
    )

    def step(x: np.ndarray, coins: np.ndarray) -> np.ndarray:
        y = g(x)
        np.multiply(coins >= y, a, out=y)  # high * a, in the thresholds' buffer
        np.subtract(x, y, out=y)
        y /= w
        return np.clip(y, 0.0, 1.0, out=y)

    return step


def _advance(x: np.ndarray, system: EquippedSystem, coins: np.ndarray) -> np.ndarray:
    """One random branch step of the points x in [0, 1] with their coins."""
    return _stepper(system)(x, coins)


@dataclass(frozen=True, eq=False)
class OneStepReport:
    """Histograms before and after one random branch step."""

    pre: HistogramReport
    post: HistogramReport
    l1_pre_post: float


def one_step_stationarity_test(
    system: EquippedSystem,
    n_samples: int,
    seed: int,
    *,
    bins: int = 100,
    stream: int = 0,
) -> OneStepReport:
    """Sample the density (``pre``) and take one run_chain step from that draw (``post``).

    ``post.l1_distance_to_reference`` is the operative figure: it holds
    the post-step histogram against the density itself, so it stays at
    the sqrt(bins/n_samples) noise floor exactly when the density is
    invariant and saturates at the true displacement otherwise.
    """
    density = as_float_system(system).density
    pre = histogram_report(sample_from_density(density, n_samples, seed, stream=stream), density, bins)
    post = run_chain(system, n_samples, 1, seed, bins=bins, stream=stream).final
    return OneStepReport(pre, post, float(np.abs(pre.bin_masses - post.bin_masses).sum()))


@dataclass(frozen=True, eq=False)
class ChainReport:
    """Distance to the reference density along an iterated chain.

    ``final`` holds the points after the last step against the density,
    or the starting points when no step is taken.
    """

    step_distances: list[float]
    final: HistogramReport
    final_values: np.ndarray
    n_samples: int
    n_steps: int


def run_chain(
    system: EquippedSystem,
    n_samples: int,
    n_steps: int,
    seed: int,
    *,
    bins: int = 100,
    stream: int = 0,
    initial: str = "density",
) -> ChainReport:
    """Iterate the random branch step and track the gap to the density.

    ``initial`` is "density" (start from the system's own density) or
    "uniform" (start from Lebesgue, watching the chain pull toward the
    invariant density).  Only the last step is reported in full; the
    start is not reported on unless no step is taken.

    Caveat for a = 1/2 in floats: both branches double the mantissa, so
    every orbit lands on dyadic rationals and collapses to 0 after about
    50 steps.  Keep such chains short; the effect is a float artifact,
    not a property of the dynamics.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if not 0 <= n_steps <= _MAX_STEPS:
        raise ValueError(f"n_steps must lie in [0, {_MAX_STEPS}]")
    if initial not in ("density", "uniform"):
        raise ValueError("initial must be 'density' or 'uniform'")
    fs = as_float_system(system)
    rng = _rng(seed, stream)
    if initial == "density":
        x = _sample_with_rng(fs.density, n_samples, rng)
    else:
        x = rng.random(n_samples)
    if n_steps:  # the bins, their reference masses and the branch step, once per chain
        edges, _, ref = _binning(fs.density, bins, n_samples)
        step_block = _stepper(fs)
    else:
        report = histogram_report(x, fs.density, bins)
    distances = []
    for step in range(n_steps):
        last = step == n_steps - 1
        counts = 0  # only the L1 figure of an intermediate step is kept
        for s in _blocks(n_samples):  # each block draws its coins and steps in place
            x[s] = step_block(x[s], rng.random(s.stop - s.start))
            if not last:
                counts = counts + np.histogram(x[s], bins=edges)[0]
        if last:
            report = histogram_report(x, fs.density, bins)
            distances.append(report.l1_distance_to_reference)
        else:
            distances.append(_binned_l1(counts, n_samples, ref)[1])
    return ChainReport(distances, report, x, n_samples, n_steps)


def write_sample_file(path, values) -> None:
    """Binary sample export: 8-byte little-endian count, then float64 LE values."""
    arr = np.ascontiguousarray(np.asarray(values, dtype="<f8"))
    with open(path, "wb") as fh:
        fh.write(len(arr).to_bytes(8, "little"))
        fh.write(arr)  # from the array's own buffer, not a bytes copy


def read_sample_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) != 8:
            raise ValueError("sample file is truncated: missing count header")
        n = int.from_bytes(head, "little")
        # read into one array, sized by the file so a corrupt count allocates nothing
        values = np.empty(min(n, os.fstat(fh.fileno()).st_size // 8), dtype="<f8")
        if fh.readinto(values) != 8 * n or fh.read(1):
            raise ValueError(f"sample file payload does not match count {n}")
    return values
