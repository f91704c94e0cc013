"""Window identities that decide invariance, and the alpha1 solver.

For n = derive_n(a), a weighting (p, alpha1) yields an invariant measure
exactly when three families of identities hold:

* density_window_full, on [a, 1-(n-1)a): the n+1 translates p(x+ka),
  k = -1..n-1, sum to 1/(1-a) times the n rescaled translates
  p((x+ka)/(1-a)), k = -1..n-2.
* density_window_short, on [1-(n-1)a, 2a): the same identity with one
  fewer term on each side.
* weight_identity, on each window J_m (m = 0..n-2, J_m = [(m+1)a, (m+2)a)
  except the last, which ends at 1-a): the first-map weight A1 = alpha1*p
  equals the m+2 translates p(x+ka), k = -(m+1)..0, minus 1/(1-a) times
  the m+1 rescaled translates p((x+ka)/(1-a)), k = -(m+1)..-1.

Together the J_m tile [a, 1-a); alpha1 is unconstrained on [0,a) and
[1-a, 1].  Windows can be empty (at a = 1/n the full window and the last
J_m vanish); windows no wider than the backend's snap distance are read
like the others but hold vacuously, at deviation zero.

Translates vanish where their argument leaves [0,1], so one function
decides all three families.  With w = 1-a, let

    S(y) = sum_{k=-n..0} p(y+ka) - 1/w * sum_{k=-n..-1} p((y+ka)/w).

A1 = S on each J_m, where the k < -(m+1) terms vanish, and so do the
k = -n ones as (n+1)a > 1.  The full identity at x is S(x + (n-1)a) and
the short one S(x + (n-2)a), whose extra k = -n terms vanish for x < 2a.
So the density identities say S = 0 on [na, 1) and [1-a, na), and each
window's sup is read on the :func:`~twoval.piecewise.cells` of S, or of
alpha1, p and S, there: S, one sum over the moved jumps of p, is the
only function a check builds.

:func:`solve_alpha1` inverts the weight identity: given (a, p) it checks
the two density identities, reads A1 off the windows, and divides by p.
Infeasibility is reported with the violated identity and its deviation.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

from .numerics import FLOAT, Backend, Interval, Scalar, format_scalar, max_or_nan
from .piecewise import StepFunction, cells, from_jumps
from .system import _MAX_N, EquippedSystem, check_fill, derive_n, pushforward_density

FLOAT_TOL = FLOAT.tol

FULL_WINDOW = "density_window_full"
SHORT_WINDOW = "density_window_short"
WEIGHT_IDENTITY = "weight_identity"
RANGE = "range"


class InfeasibleError(ValueError):
    """No admissible alpha1 exists for the given (a, p).

    ``which`` names the obstruction: one of the two density identities,
    or "range" when the forced weight leaves [0, p].  ``deviation`` is
    the size of the violation.
    """

    def __init__(self, which: str, deviation):
        self.which = which
        self.deviation = deviation
        super().__init__(f"{which} violated by {format_scalar(deviation)}")


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    window: Interval
    deviation: Scalar
    passed: bool
    vacuous: bool


@dataclass(frozen=True)
class ConditionReport:
    n: int
    passed: bool
    max_deviation: Scalar
    density_window_full: ConditionCheck
    density_window_short: ConditionCheck
    weight_identity: tuple

    @property
    def checks(self) -> tuple:
        return (self.density_window_full, self.density_window_short) + self.weight_identity


def _identity(a, n: int, p: StepFunction) -> StepFunction:
    """S: the sum of p(y + ka) over k = -n..0, minus 1/(1-a) times the sum of
    p((y + ka)/(1-a)) over k = -n..-1.

    The plus translates move the jumps of p to t - ka and the minus ones
    to t(1-a) - ka, scaled by -1/(1-a); one :func:`from_jumps` sums them.
    Only jumps that land below 1 + snap are built, a sorted prefix per shift
    found by bisection; from_jumps drops the others anyway (exact: t >= 1;
    float: past 1 - snap and too far from any kept point to fuse onto it).
    """
    if n > _MAX_N:
        raise ValueError(f"need a > 1/{_MAX_N + 1}, so that n <= {_MAX_N}")
    w = 1 - a
    plus = p.jumps()
    minus = [(t * w, -v / w) for t, v in plus]
    top = 1 + p.scalars.snap
    ends = [(s, top - s) for s in (k * a for k in range(n + 1))]  # each shift, and where its moved jumps stop

    def moved(src, ends):
        return [(t + s, v) for s, end in ends for t, v in src[: bisect_left(src, end, key=itemgetter(0))]]

    return from_jumps(moved(plus, ends) + moved(minus, ends[1:]), p.scalars)


def _tolerance(scalars: Backend, tol, p: StepFunction | None = None) -> Scalar:
    """The verdict tolerance on the backend, its default when omitted; given
    p, the float default is relative to sup|p| where that is finite."""
    if tol is None:
        sup = max_or_nan([abs(v) for v in p.values]) if p is not None and scalars.is_float else math.inf
        return scalars.tol * sup if math.isfinite(sup) else scalars.tol
    tol = scalars(tol)
    if not tol >= scalars.zero:
        raise ValueError(f"tolerance must be >= 0, got {format_scalar(tol)}")
    return tol


def _window_check(name: str, lo, hi, dev, tol, scalars: Backend) -> ConditionCheck:
    """The identity on [lo, hi) with deviation ``dev``; vacuous, at zero, if
    no wider than the snap distance."""
    if not hi - lo > scalars.snap:
        return ConditionCheck(name, Interval(min(lo, hi), min(lo, hi)), scalars.zero, True, True)
    return ConditionCheck(name, Interval(lo, hi), dev, dev <= tol, False)


def _sup(fs, lo, hi, read=lambda v: v) -> Scalar:
    """The sup of |read(*values)| over the cells of ``fs`` on [lo, hi): NaN
    if one is NaN, the backend's zero if there is no cell."""
    return max_or_nan([abs(read(*vs)) for _, _, vs in cells(fs, lo, hi)], fs[0].scalars.zero)


def _checks(a, n: int, s: StepFunction, tol, system: EquippedSystem | None = None) -> list:
    """The full and short density checks, S read on [na, 1) and on [1-a, na),
    then given the system the weight checks, alpha1*p - S read on each J_m."""
    split = 1 - (n - 1) * a  # the two density windows meet here
    windows = [
        (FULL_WINDOW, a, split, _sup((s,), n * a, 1)),
        (SHORT_WINDOW, split, 2 * a, _sup((s,), 1 - a, n * a)),
    ]
    if system is not None:
        cuts = [k * a for k in range(1, n)] + [1 - a]
        fs = (system.alpha1, system.density, s)
        windows += [
            (f"{WEIGHT_IDENTITY}[{m}]", lo, hi, _sup(fs, lo, hi, lambda u, v, w: u * v - w))
            for m, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
        ]
    return [_window_check(name, lo, hi, dev, tol, s.scalars) for name, lo, hi, dev in windows]


def check_invariance_conditions(system: EquippedSystem, tol=None) -> ConditionReport:
    """Evaluate every window identity for the equipped system.

    ``tol`` (>= 0, absolute, on the system's backend) defaults to 0 on exact
    systems and to 1e-10 times sup|p| (1e-10 if not finite) on float ones,
    as a window's deviation sums translates of p and its rounding scales so.
    """
    a, n = system.a, system.n
    tol = _tolerance(system.scalars, tol, system.density)
    checks = _checks(a, n, _identity(a, n, system.density), tol, system)
    max_deviation = max_or_nan([c.deviation for c in checks])
    return ConditionReport(n, all(c.passed for c in checks), max_deviation, *checks[:2], tuple(checks[2:]))


def invariance_defect(system: EquippedSystem) -> StepFunction:
    """Pushforward minus density: identically zero iff the measure is invariant."""
    return pushforward_density(system) - system.density


def _alpha_from_target(a, density: StepFunction, target: StepFunction, fill, tol) -> StepFunction:
    """Divide the forced weight by p on [a, 1-a), cell by cell of the two;
    use fill elsewhere.  Raises InfeasibleError("range", ...) where the
    forced alpha1 would leave [0,1], or p vanishes but not the target.
    ``tol`` is solve_alpha1's; its float default scales with p only where
    p vanishes, as the ratio has no units.
    """
    b = density.scalars
    fill = check_fill(fill, b)
    tol, ratio_tol = _tolerance(b, tol, density), _tolerance(b, tol)
    zero, one = b.zero, b.one

    def rule(tv, pv):
        if pv == zero:
            if not abs(tv) <= tol:
                raise InfeasibleError(RANGE, abs(tv))
            return fill
        r = tv / pv
        # written so that a NaN ratio fails too
        if not -ratio_tol <= r <= 1 + ratio_tol:
            raise InfeasibleError(RANGE, max(-r, r - 1))
        return min(max(r, zero), one)

    inside = [(end, rule(*vs)) for _, end, vs in cells((target, density), a, 1 - a)]
    return StepFunction([zero, a, *(t for t, _ in inside), one], [fill, *(r for _, r in inside), fill])


def solve_alpha1(a, density: StepFunction, *, fill=0, tol=None) -> EquippedSystem:
    """Equip (a, p) with the alpha1 the weight identity forces.

    The two density identities must already hold for p; on [a, 1-a) the
    weight identity determines A1 = alpha1*p window by window, and alpha1
    is set to ``fill`` where it is unconstrained.  The result passes
    :func:`check_invariance_conditions` by construction, under the same ``tol``.
    """
    if not isinstance(density, StepFunction):
        raise TypeError("density must be a step function")
    a = density.scalars(a)
    n = derive_n(a)
    density_tol = _tolerance(density.scalars, tol, density)
    s = _identity(a, n, density)
    for check in _checks(a, n, s, density_tol):  # full, then short
        if not check.passed:
            raise InfeasibleError(check.name, check.deviation)
    return EquippedSystem(a, density, _alpha_from_target(a, density, s, fill, tol))
