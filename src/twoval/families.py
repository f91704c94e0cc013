"""Closed-form invariant families and the golden-ratio transfer operator.

Two constructions produce systems that pass every invariance condition
with exact zero deviation:

* :func:`lebesgue_family`: a = 1/n with the uniform density.  alpha1 is a
  staircase dropping by 1/(n-1) per step of width 1/n across [a, 1-a).
* :func:`nonconstant_family`: for each n >= 2 a quadratic-irrational
  parameter and a three-level density with outer levels beta and gamma.
  alpha1 is assembled from two interleaved strip patterns on [a, 1-a).

Both leave alpha1 free outside [a, 1-a) (the ``fill`` argument), and
wherever the density level is zero the weight identity holds for any
alpha1, so fill is used there too.

:func:`total_mass` gives the closed-form mass of the nonconstant density.
At n = 2 with gamma = 0 (:func:`renyi_system`) alpha1 is 0 and the density
vanishes on [1/phi, 1], phi the golden ratio: on [0, 1/phi) that system is
Renyi's map x -> phi*x mod 1, rescaled, and the renyi_* functions are the
map's transfer operator and exact fixed density.
"""

from __future__ import annotations

from fractions import Fraction

from .numerics import EXACT, Scalar, Surd
from .piecewise import StepFunction
from .system import _MAX_N, EquippedSystem, check_fill, pushforward_density


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError("need n >= 2")
    if n > _MAX_N:
        raise ValueError(f"need n <= {_MAX_N}, got {n}")


def _family_parameter(n: int) -> Surd:
    """The quadratic root in (1/(n+1), 1/n) used by the nonconstant family."""
    if n % 2 == 0:
        # m*a/(1-a) = 1 - m*a with m = n/2
        return Surd(Fraction(n + 1, n), Fraction(-1, n), n * n + 1)
    # (m-1)*a/(1-a) = 1 - m*a with m = (n+1)/2
    return Surd(1, Fraction(-1, n + 1), n * n - 1)


def _check_weights(beta, gamma) -> tuple:
    beta = EXACT(beta)
    gamma = EXACT(gamma)
    if beta < 0 or gamma < 0 or not beta + gamma > 0:
        raise ValueError("weights must be nonnegative and not both zero")
    return beta, gamma


def lebesgue_family(n: int, *, fill=0) -> EquippedSystem:
    """The a = 1/n system that keeps the uniform density invariant.

    alpha1 steps down through (n-k)/(n-1), k = 2..n-1, on the windows
    [(k-1)/n, k/n); at n = 2 every window is free and alpha1 is fill.
    """
    _check_n(n)
    fill = check_fill(fill, EXACT)
    a = Fraction(1, n)
    density = StepFunction.constant(1)
    bps = [Fraction(k, n) for k in range(n + 1)]
    values = [fill] + [Fraction(n - k, n - 1) for k in range(2, n)] + [fill]
    return EquippedSystem(a, density, StepFunction(bps, values))


def nonconstant_family(n: int, beta, gamma, *, fill=0) -> EquippedSystem:
    """The quadratic-parameter system with a three-level invariant density.

    The density is beta, (beta+gamma)(1-m*a), gamma across three regions
    (m = ceil(n/2)); [a, 1-a) splits into strips I0+sa and I1+sa on which
    alpha1 follows one formula over the beta region, one over the gamma
    region, and the ratio gamma/(beta+gamma) on the middle strip.
    """
    _check_n(n)
    beta, gamma = _check_weights(beta, gamma)
    fill = check_fill(fill, EXACT)
    even = n % 2 == 0
    m = n // 2 if even else (n + 1) // 2
    a = _family_parameter(n)
    w = 1 - a
    mid_level = (beta + gamma) * (1 - m * a)
    if even:
        density = StepFunction([0, m * a, 1 - m * a, 1], [beta, mid_level, gamma])
    else:
        density = StepFunction([0, 1 - m * a, m * a, 1], [beta, mid_level, gamma])

    def low_strip(s):  # strip inside the beta region
        return fill if beta == 0 else s + 2 - (s + 1) / w

    def high_strip(s, shift):  # strip inside the gamma region
        return fill if gamma == 0 else a * (n - s - shift) / w

    middle = gamma / (beta + gamma)

    def strip_value(s, second: bool):
        if even:
            if not second:
                if s <= m - 2:
                    return low_strip(s)
                if s == m - 1:
                    return middle
                return high_strip(s, 1)
            if s <= m - 2:
                return low_strip(s)
            return high_strip(s, 2)
        if not second:
            if s <= m - 2:
                return low_strip(s)
            return high_strip(s, 1)
        if s <= m - 3:
            return low_strip(s)
        if s == m - 2:
            return middle
        return high_strip(s, 2)

    tilde = 1 - (n - 1) * a  # right end of the first strip
    bps = [EXACT.zero, a]
    values = [fill]
    for s in range(n - 1):
        values.append(strip_value(s, second=False))
        bps.append(tilde + s * a)
        if s <= n - 3:
            values.append(strip_value(s, second=True))
            bps.append((s + 2) * a)
    values.append(fill)
    bps.append(EXACT.one)
    alpha1 = StepFunction(bps, values)
    return EquippedSystem(a, density, alpha1)


def total_mass(n: int, beta, gamma) -> Scalar:
    """Closed-form mass of the nonconstant family density."""
    _check_n(n)
    beta, gamma = _check_weights(beta, gamma)
    if n % 2 == 0:
        base = Surd(1 + n * n, -n, n * n + 1)
    else:
        base = Surd(1 - n * n, n, n * n - 1)
    return base * (beta + gamma)


# -- the golden-ratio beta-map -------------------------------------------

#: 1/beta for the golden ratio, i.e. (sqrt(5)-1)/2.
_GOLDEN_INV = Surd(Fraction(-1, 2), Fraction(1, 2), 5)


def renyi_transfer(f: StepFunction) -> StepFunction:
    """Transfer operator of x -> beta*x mod 1 at beta = (1+sqrt(5))/2, on a density f >= 0.

    (Lf)(y) = (1/beta) * [f(y/beta) + f((y+1)/beta)]: the
    :func:`~twoval.system.pushforward_density` of the golden n = 2 system
    with alpha1 = 0, conjugated by the rescaling of [0, 1/beta) onto [0,1].
    """
    c = float(_GOLDEN_INV) if f.is_float else _GOLDEN_INV
    alpha1 = StepFunction.constant(f.scalars.zero)
    return pushforward_density(EquippedSystem(1 - c, f.compose_affine(1 / c, 0), alpha1)).compose_affine(c, 0)


def renyi_density() -> StepFunction:
    """The exact unit-mass density fixed by :func:`renyi_transfer`: that of
    :func:`renyi_system` on [0, 1/beta), rescaled onto [0,1].

    Two levels, (5+3*sqrt(5))/10 below 1/beta and (5+sqrt(5))/10 above.
    """
    return renyi_system().density.compose_affine(_GOLDEN_INV, 0)


def renyi_system() -> EquippedSystem:
    """The n = 2 family member whose levels are the fixed-density values.

    Taking beta = (5+3*sqrt(5))/10 and gamma = 0 makes the middle density
    level equal (5+sqrt(5))/10, the second fixed-density value.  Its alpha1
    is 0: on [0, 1/phi) it is x -> phi*x mod 1, phi the golden ratio, rescaled.
    """
    return nonconstant_family(2, Surd(Fraction(1, 2), Fraction(3, 10), 5), 0)
