"""Monte Carlo checks of invariance claims.

Samples are drawn from a step density by inverting its piecewise-linear
CDF, pushed through one random branch step (branch picked by a coin with
the local first-branch weight), and binned against a reference density.
A density that really is invariant keeps the post-step histogram close
to itself; the gap scales like sqrt(bins / n_samples).

All randomness flows through a counter-based Philox generator keyed by
(seed, stream), so runs are reproducible and independent streams are
cheap to construct.

The sampler and the reports walk the points in fixed blocks of 32,768
(``_blocks``), and build the lookup tables they read (``_lookup``) once
per call or chain.  Draws come block by block from the one stream, which
gives the same numbers as one large draw, so the output does not depend on
the block size.  ``run_chain`` runs its blocks on every CPU the process may
use, when it has the work for them (``_workers``): each worker carries a
block through the start and all steps, taking each draw from its fixed
place in the stream (``_draws``), so every output byte is the same at any
CPU count.  A chain reports in full only on its final points: it holds its
n points and, for that report, one sorted copy, about 16n bytes, plus three
block buffers per worker.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .piecewise import StepFunction, ZeroMassError
from .system import EquippedSystem, as_float_system

#: the longest chain run_chain takes; at 10^4 samples (one block, so one
#: worker) that many steps run about 3-8 min on a 2-vCPU Xeon, where 4,000
#: of them take 0.76 s, as they did on one thread at 65,536-point blocks
_MAX_STEPS = 10**6

#: points per block: the kernels work block by block, so their temporaries
#: take a fixed few MB at any n, and a chain's blocks are its units of work
_BLOCK = 32768

#: the fewest block-stages (a block's start or one of its steps, 0.3-0.6 ms
#: each) a chain starts a worker for: a new thread costs more than it saves
#: on less (on a 2-vCPU VM, 10^5-point chains of 0 or 1 steps, 4 and 8
#: block-stages, ran about 10% slower at their fastest on two threads)
_PER_WORKER = 8

#: the most bin counts a chain holds per round of steps (see run_chain)
_COUNTS = 4096

#: one 64-bit word of Philox's 256-bit counter
_WORD = (1 << 64) - 1


def _blocks(n: int):
    """The slices of range(n), in order, of _BLOCK points each but the last."""
    return (slice(i, min(i + _BLOCK, n)) for i in range(0, n, _BLOCK))


def _workers(blocks: int, stages: int) -> int:
    """The worker threads of a chain of ``blocks`` blocks through ``stages``
    stages (its start and its steps): one per CPU the process may use, no
    more than there are blocks, and one per _PER_WORKER block-stages."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return max(1, min(len(cpus), blocks, blocks * stages // _PER_WORKER))


def _rng(seed: int, stream: int) -> np.random.Generator:
    for name, value in (("seed", seed), ("stream", stream)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def _draws(rng: np.random.Generator, d: int, out: np.ndarray) -> np.ndarray:
    """Draws d, d + 1, ... of the Philox stream of ``rng``, into ``out``.

    Philox is counter-based: its counter steps before each block of four
    words, so draw d is word d % 4 of the block at counter d // 4 + 1.
    Counter d // 4 (all 256 bits of it), an empty buffer and d % 4 words
    discarded reach draw d, whatever was drawn before.
    """
    bit_generator = rng.bit_generator
    state = bit_generator.state
    c = d // 4
    state["state"]["counter"] = np.array([(c >> shift) & _WORD for shift in (0, 64, 128, 192)], dtype=np.uint64)
    state["buffer_pos"] = 4
    bit_generator.state = state
    bit_generator.random_raw(d % 4)
    return rng.random(out=out)


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
    Keys outside [0, 1], and NaN, are outside the domain.  The lookup,
    ``lookup(x, k, out)``, writes into ``out`` (of the table's dtype) with
    ``k`` (intp) as scratch, both of len(x), and allocates nothing of that
    size.
    """
    if exact is None:
        exact = partial(np.searchsorted, edges, side="right")
    grid = np.arange(_CELLS + 1) / _CELLS
    table = exact(grid)
    table[:-1][np.searchsorted(edges, grid[1:]) > np.searchsorted(edges, grid[:-1], side="right")] = -1

    def lookup(x: np.ndarray, k: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(x, _CELLS, out=k, casting="unsafe")  # truncates as astype does, with no float buffer
        np.take(table, k, out=out, mode="clip")  # every cell is in the table; "raise" would buffer out
        hard = np.flatnonzero(np.less(out, 0, out=k.view(np.bool_)[: len(x)]))  # k, spent, holds the mask
        out[hard] = exact(x[hard])
        return out

    return lookup


def _count_le(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(edges, x, side="right")`` for keys x in [0, 1]."""
    return _lookup(edges)(x, np.empty(len(x), dtype=np.intp), np.empty(len(x), dtype=np.intp))


def _sampler(density: StepFunction):
    """Inverse-CDF sampling of a step density, ``sample(u, k, j, v)``.

    It turns the uniforms u into draws in place, with k and j (intp) and v
    (float64) of len(u) as scratch.
    """
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
    # bps + (u - prev) / (masses / total) * widths at each draw's piece, one
    # operation at a time in place
    ops = ((np.subtract, prev), (np.divide, masses / total), (np.multiply, widths), (np.add, bps))

    def sample(u: np.ndarray, k: np.ndarray, j: np.ndarray, v: np.ndarray) -> np.ndarray:
        idx = count_le(u, k, j)
        for op, table in ops:
            op(u, np.take(table, idx, out=v, mode="clip"), out=u)
        return np.clip(u, 0.0, 1.0, out=u)

    return sample


def _sample_with_rng(density: StepFunction, n: int, rng: np.random.Generator) -> np.ndarray:
    sample = _sampler(density)
    width = min(n, _BLOCK)
    k, j, v = np.empty(width, dtype=np.intp), np.empty(width, dtype=np.intp), np.empty(width)
    x = np.empty(n)
    for s in _blocks(n):  # Philox draws in blocks concatenate to the one large draw
        m = s.stop - s.start
        sample(rng.random(out=x[s]), k[:m], j[:m], v[:m])
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


def noise_floor(reference_masses: np.ndarray, n: int) -> float:
    """The expected binned L1 of n draws from the reference, sum_i
    sqrt(2 r_i (1 - r_i) / (pi n)) over its bin masses r_i.

    Bin i holds a binomial(n, r_i) count, near normal with standard
    deviation sqrt(n r_i (1 - r_i)), whose mean absolute deviation is that
    times sqrt(2/pi).  By Cauchy-Schwarz the sum is at most
    sqrt(2 bins / (pi n)).
    """
    r = np.asarray(reference_masses, dtype=np.float64)
    return float(np.sqrt(2.0 * r * (1.0 - r) / (np.pi * n)).sum())


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
    """One random branch step, ``step(x, coins, k, y)``, of points x in [0, 1].

    It moves x in place, with k (intp) and y (float64) of len(x) as
    scratch.  A point takes the first branch, cut at 1 - a, when its coin <
    alpha1(x), else the second, cut at a; at or above its cut it maps to
    (x - a)/(1 - a), else to x/(1 - a).  As a <= 1 - a, for coins in [0, 1)
    that high branch is taken exactly when coin >= g(x), with g (a _lookup)
    = +inf on [0, a), alpha1 on [a, 1 - a) and 0 on [1 - a, 1].  x - 0.0 is
    x, so subtracting ``high * a`` gives the bits of both branches.
    """
    a = float(system.a)
    w = 1.0 - a
    bps, vals = _float_steps(system.alpha1)
    g = _lookup(
        np.sort(np.append(bps, (a, w))),  # alpha1(x) = vals[#{breakpoints < 1 that are <= x} - 1]
        lambda x: np.where(x < a, np.inf, np.where(x >= w, 0.0, vals[np.searchsorted(bps[:-1], x, side="right") - 1])),
    )

    def step(x: np.ndarray, coins: np.ndarray, k: np.ndarray, y: np.ndarray) -> np.ndarray:
        np.greater_equal(coins, g(x, k, y), out=y)  # high, as 1.0 or 0.0 in the thresholds' buffer
        y *= a
        x -= y
        x /= w
        return np.clip(x, 0.0, 1.0, out=x)

    return step


def _advance(x: np.ndarray, system: EquippedSystem, coins: np.ndarray) -> np.ndarray:
    """One random branch step of the points x in [0, 1] with their coins."""
    y = np.array(x, dtype=np.float64)
    return _stepper(system)(y, coins, np.empty(len(y), dtype=np.intp), np.empty(len(y)))


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

    The points run in blocks of 32,768 on one worker thread per CPU the
    process may use, at most one per block and one per 8 block-stages (the
    calling thread is one of them): 10^5 points at 0 or 1 steps stay on
    the calling thread.  Point i starts at draw i of the (seed, stream) Philox stream
    and takes its coin for step t from draw t*n + i, so the output does not
    depend on the number of workers.  The chain holds its n points, one
    sorted copy of them for the final report and, for each worker, three
    buffers of 32,768 values: about 16n bytes plus 0.75 MB per worker.

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
    n = n_samples
    key = _rng(seed, stream).bit_generator.state["state"]["key"]
    sample = _sampler(fs.density) if initial == "density" else None
    # stages 0..n_steps (0 the start, t > 0 step t) run in rounds, so that the
    # bin counts of the intermediate steps held at once stay within _COUNTS
    per_round, n_bins = 1, 0
    if n_steps:  # the bins, their reference masses and the branch step, once per chain
        edges, _, ref = _binning(fs.density, bins, n)
        step = _stepper(fs)
        per_round, n_bins = max(1, _COUNTS // bins), bins
    x = np.empty(n)
    blocks = list(_blocks(n))
    width = min(n, _BLOCK)
    # each worker's generator and buffers, made here once per chain, so that
    # no worker allocates a block-sized array (or grows its malloc arena)
    kits = [
        (np.random.Generator(np.random.Philox(key=key)), np.empty(width), np.empty(width, dtype=np.intp), np.empty(width))
        for _ in range(_workers(len(blocks), n_steps + 1))
    ]
    lock = threading.Lock()

    def carry(kit, todo, t0: int, t1: int, counts: np.ndarray) -> None:
        """Carry each block left in ``todo`` through stages t0..t1 - 1, adding
        its bin counts after step t < n_steps to counts[t - t0]."""
        rng, coin_buf, k_buf, y_buf = kit
        while True:
            with lock:
                s = next(todo, None)
            if s is None:
                return
            xs = x[s]
            m = len(xs)
            coins, k, y = coin_buf[:m], k_buf[:m], y_buf[:m]
            for t in range(t0, t1):
                if t == 0:  # point i starts at draw i
                    _draws(rng, s.start, xs)
                    if sample is not None:  # the coins' buffer, free until step 1, holds the piece indices
                        sample(xs, k, coins.view(np.intp)[:m], y)
                    continue
                step(xs, _draws(rng, t * n + s.start, coins), k, y)  # point i's coin at step t is draw t*n + i
                if t < n_steps:  # np.histogram's counts, off a sorted copy in the coins' buffer
                    coins[:] = xs
                    coins.sort()
                    below = np.append(coins.searchsorted(edges[:-1]), coins.searchsorted(edges[-1], side="right"))
                    with lock:
                        counts[t - t0] += np.diff(below)

    errors = []

    def helper(job, kit) -> None:
        try:
            job(kit)
        except Exception as exc:  # raised again in the calling thread
            errors.append(exc)

    # plain threads: concurrent.futures would import logging, 0.75 MB of
    # resident memory in every process that runs a chain
    distances = []  # only the L1 figure of an intermediate step is kept
    for t0 in range(0, n_steps + 1, per_round):
        t1 = min(t0 + per_round, n_steps + 1)
        counts = np.zeros((t1 - t0, n_bins), dtype=np.intp)
        job = partial(carry, todo=iter(blocks), t0=t0, t1=t1, counts=counts)
        helpers = [threading.Thread(target=helper, args=(job, kit)) for kit in kits[1:]]
        for thread in helpers:
            thread.start()
        try:
            job(kits[0])  # the calling thread is a worker too
        finally:
            for thread in helpers:
                thread.join()
        if errors:
            raise errors[0]
        distances += [_binned_l1(row, n, ref)[1] for row in counts[max(t0, 1) - t0 : min(t1, n_steps) - t0]]
    del kits  # the workers' buffers go before the report's sorted copy comes
    report = histogram_report(x, fs.density, bins)
    if n_steps:
        distances.append(report.l1_distance_to_reference)
    return ChainReport(distances, report, x, n, n_steps)


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
