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
blocks of 65,536 (``_blocks``).  Draws and coins come block by block from
the one stream, which gives the same numbers as one large draw, so the
output does not depend on the block size.  A chain holds its n points
and, for a report, one sorted copy: about 16n bytes plus a few MB of
per-block temporaries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

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
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if not isinstance(stream, int) or isinstance(stream, bool) or stream < 0:
        raise ValueError("stream must be a nonnegative integer")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def _float_steps(f: StepFunction) -> tuple[np.ndarray, np.ndarray]:
    bps = np.array([float(b) for b in f.breakpoints], dtype=np.float64)
    vals = np.array([float(v) for v in f.values], dtype=np.float64)
    return bps, vals


#: cells of the [0, 1] lookup table in _count_le; a power of two, so that
#: x * _CELLS is exact and its floor is the cell that holds x
_CELLS = 4096


def _count_le(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(edges, x, side="right")`` for keys x in [0, 1].

    ``edges`` is ascending, ties allowed.  A key in cell k = floor(4096 x)
    takes the count at k/4096 from a table of 4,097 entries, unless an edge
    lies strictly inside that cell: only such keys are binary-searched.
    Keys outside [0, 1], and NaN, are outside the domain.
    """
    grid = np.arange(_CELLS + 1) / _CELLS
    at = np.searchsorted(edges, grid, side="right")
    inside = np.append(np.searchsorted(edges, grid[1:]) > at[:-1], False)
    k = np.empty(len(x), dtype=np.intp)
    np.multiply(x, _CELLS, out=k, casting="unsafe")  # truncates as astype does, with no float buffer
    count = at[k]
    hard = np.flatnonzero(inside[k])
    if len(hard):
        count[hard] = np.searchsorted(edges, x[hard], side="right")
    return count


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
    x = np.empty(n)
    for s in _blocks(n):  # Philox draws in blocks concatenate to the one large draw
        u = rng.random(out=x[s])
        idx = _count_le(cum, u)
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


def _reference_cdf_factory(density: StepFunction):
    bps, vals = _float_steps(density)
    widths = np.diff(bps)
    masses = vals * widths
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

    return cdf


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


def histogram_report(values: np.ndarray, reference: StepFunction, bins: int = 100) -> HistogramReport:
    """Bin the values on a uniform grid and measure the gap to the reference.

    The L1 figure is the total variation between the two binned mass
    vectors; the KS figure is the usual one-sample statistic against the
    reference CDF.
    """
    if bins < 1:
        raise ValueError("bins must be positive")
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n == 0:
        raise ValueError("no samples to report on")
    edges = np.linspace(0.0, 1.0, bins + 1)
    cdf = _reference_cdf_factory(reference)
    ref = np.diff(cdf(edges))
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
    return HistogramReport(
        bin_edges=edges,
        bin_masses=emp,
        reference_masses=ref,
        l1_distance_to_reference=l1,
        ks_statistic=float(max(d_plus, d_minus)),
    )


def _advance(x: np.ndarray, system: EquippedSystem, coins: np.ndarray) -> np.ndarray:
    """One random branch step of the points x in [0, 1].

    A point takes the first branch when its coin falls below alpha1(x).  The
    first branch cuts at 1 - a, the second at a; a point at or above its cut
    maps to (x - a)/(1 - a), any other to x/(1 - a).  As a <= 1 - a, the
    points at or above their cut are those at or above a that the first
    branch does not hold below 1 - a.  Each point subtracts ``high * a``,
    and x - 0.0 is x, so the branch-free form gives the same bits.
    """
    a = float(system.a)
    w = 1.0 - a
    bps, vals = _float_steps(system.alpha1)
    # alpha1 at piece count - 1; the end values repeat for keys at 0 and at 1
    first = coins < np.concatenate((vals[:1], vals, vals[-1:]))[_count_le(bps, x)]
    high = x >= a
    high &= ~first | (x >= w)
    y = high * a
    np.subtract(x, y, out=y)
    y /= w
    return np.clip(y, 0.0, 1.0, out=y)


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
    """Sample the system's density, take one random step, compare back.

    ``post.l1_distance_to_reference`` is the operative figure: it holds
    the post-step histogram against the density itself, so it stays at
    the sqrt(bins/n_samples) noise floor exactly when the density is
    invariant and saturates at the true displacement otherwise.
    """
    chain = run_chain(system, n_samples, 1, seed, bins=bins, stream=stream)
    pre, post = chain.initial, chain.final
    return OneStepReport(pre, post, float(np.abs(pre.bin_masses - post.bin_masses).sum()))


@dataclass(frozen=True, eq=False)
class ChainReport:
    """Distance to the reference density along an iterated chain.

    ``initial`` holds the starting points against the density, ``final``
    the points after the last step (the same report when no step is taken).
    """

    step_distances: list[float]
    initial: HistogramReport
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
    invariant density).

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
    distances = []
    start = report = histogram_report(x, fs.density, bins)
    for step in range(n_steps):
        last = step == n_steps - 1
        counts = 0  # only the L1 figure of an intermediate step is kept
        for s in _blocks(n_samples):  # each block draws its coins and steps in place
            x[s] = _advance(x[s], fs, rng.random(s.stop - s.start))
            if not last:
                counts = counts + np.histogram(x[s], bins=start.bin_edges)[0]
        if last:
            report = histogram_report(x, fs.density, bins)
            distances.append(report.l1_distance_to_reference)
        else:
            distances.append(_binned_l1(counts, n_samples, start.reference_masses)[1])
    return ChainReport(
        step_distances=distances,
        initial=start,
        final=report,
        final_values=x,
        n_samples=n_samples,
        n_steps=n_steps,
    )


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
