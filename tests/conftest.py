"""Shared builders for randomized tests, and grid-walk oracles for the jump-form sums."""

import random
from fractions import Fraction

from twoval.families import nonconstant_family, renyi_system
from twoval.piecewise import StepFunction
from twoval.system import EquippedSystem


def make_fraction_grid(rng: random.Random, max_cuts: int = 4, denom: int = 60) -> list:
    cuts = sorted({Fraction(rng.randint(1, denom - 1), denom) for _ in range(rng.randint(0, max_cuts))})
    return [Fraction(0), *cuts, Fraction(1)]


def make_exact_step(rng: random.Random, max_cuts: int = 4, lo: int = -18, hi: int = 18) -> StepFunction:
    bps = make_fraction_grid(rng, max_cuts)
    vals = [Fraction(rng.randint(lo, hi), 6) for _ in range(len(bps) - 1)]
    return StepFunction(bps, vals)


def make_float_step(rng: random.Random, max_cuts: int = 4, lo: float = -2.0, hi: float = 2.0) -> StepFunction:
    cuts = sorted({rng.uniform(0.05, 0.95) for _ in range(rng.randint(0, max_cuts))})
    vals = [rng.uniform(lo, hi) for _ in range(len(cuts) + 1)]
    return StepFunction([0.0, *cuts, 1.0], vals)


def make_exact_system(rng: random.Random, denom: int = 40) -> EquippedSystem:
    a = Fraction(rng.randint(1, denom // 2), denom)
    density = make_exact_step(rng, lo=0)
    grid = make_fraction_grid(rng)
    alpha1 = StepFunction(grid, [Fraction(rng.randint(0, 6), 6) for _ in range(len(grid) - 1)])
    return EquippedSystem(a, density, alpha1)


def make_float_system(rng: random.Random) -> EquippedSystem:
    a = rng.uniform(0.02, 0.5)
    density = make_float_step(rng, lo=0.0, hi=2.0)
    cuts = sorted({rng.uniform(0.05, 0.95) for _ in range(rng.randint(0, 4))})
    alpha1 = StepFunction([0.0, *cuts, 1.0], [rng.random() for _ in range(len(cuts) + 1)])
    return EquippedSystem(a, density, alpha1)


def make_ragged_system(rng: random.Random, pieces: int, a, cuts=()) -> EquippedSystem:
    """A density and an alpha1 of ``pieces`` pieces each, cut on a 1/(16*pieces) grid
    and at each of ``cuts``."""

    def grid():
        den = 16 * pieces
        grid_cuts = {Fraction(c, den) for c in rng.sample(range(1, den), pieces - 1)}
        return [Fraction(0), *sorted(grid_cuts.union(cuts)), Fraction(1)]

    bps = grid()
    density = StepFunction(bps, [Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in bps[1:]])
    bps = grid()
    alpha1 = StepFunction(bps, [Fraction(rng.randint(0, 8), 8) for _ in bps[1:]])
    return EquippedSystem(a, density, alpha1)


#: systems on which the exact jump-form sums are held to the grid walk; the
#: switch cases cut p and alpha1 at a and 1 - a, and first and second hold
#: alpha1 at 1 and 0
JUMP_FORM_CASES = (
    [f"ragged-{pieces}" for pieces in (1, 2, 3, 5, 8, 13, 24, 48)]
    + [f"nonconstant-{n}" for n in range(2, 13)]
    + ["renyi", "switch-3", "switch-8", "switch-24", "first-13", "second-13"]
)


def jump_form_systems(case: str) -> list:
    """The systems of one of JUMP_FORM_CASES.  A ragged case holds two systems of
    that many pieces, at a = 1/n and just above 1/(n+1) for a random n <= 12; a
    switch case adds a = 1/2, and first and second are ragged systems of 13
    pieces with alpha1 replaced."""
    kind, _, size = case.partition("-")
    if kind == "renyi":
        return [renyi_system()]
    rng = random.Random(case)
    if kind == "nonconstant":
        return [nonconstant_family(int(size), rng.randint(0, 5), rng.randint(1, 5))]
    n = rng.randint(2, 12)
    params = [Fraction(1, n), Fraction(1, n + 1) + Fraction(1, 10**6)]
    if kind == "switch":
        return [make_ragged_system(rng, int(size), a, cuts=(a, 1 - a)) for a in params + [Fraction(1, 2)]]
    systems = [make_ragged_system(rng, int(size), a) for a in params]
    if kind in ("first", "second"):
        alpha1 = StepFunction.constant(Fraction(int(kind == "first")))
        return [EquippedSystem(s.a, s.density, alpha1) for s in systems]
    return systems


def compose_by_preimages(f: StepFunction, c, b) -> StepFunction:
    """x -> f(c*x + b), zero where c*x + b leaves [0,1], from the preimages of
    f's breakpoints clamped to [0,1]; c > 0."""
    c = f.scalars(c)
    b = f.scalars(b)
    zero, one = f.scalars.zero, f.scalars.one
    xs = [zero, *(min(max((t - b) / c, zero), one) for t in f.breakpoints), one]
    vals = [zero, *f.values, zero]
    cut = [zero]
    kept = []
    for x0, x1, v in zip(xs, xs[1:], vals):
        if x1 > x0:
            cut.append(x1)
            kept.append(v)
    return StepFunction(cut, kept)


def assert_close_on_cells(got: StepFunction, oracle: StepFunction, rel=1e-13, width=1e-9):
    """On every cell of the two functions' joint grid wider than ``width``, the
    values differ by at most rel * (1 + sup|oracle|).  Float sums agree this
    way, not piece for piece: slivers narrower than ``width`` may differ."""
    bound = rel * (1 + oracle.sup_norm())
    grid = sorted(set(got.breakpoints) | set(oracle.breakpoints))
    for lo, hi in zip(grid, grid[1:]):
        if hi - lo > width:
            x = (lo + hi) / 2
            gap = abs(got(x) - oracle(x))
            assert gap <= bound, f"{gap} > {bound} on [{lo}, {hi})"
