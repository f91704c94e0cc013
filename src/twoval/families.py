"""Closed-form invariant families and the golden-ratio transfer operator.

Two constructions produce systems that pass every invariance condition
with exact zero deviation:

* :func:`lebesgue_family`: a = 1/n with the uniform density.  alpha1 is a
  staircase dropping by 1/(n-1) per step of width 1/n across [a, 1-a).
* :func:`nonconstant_family`: for each n >= 2 the root a in
  (1/(n+1), 1/n) of m*a^2 - (n+1)*a + 1 = 0, m = ceil(n/2), and a
  three-level density with outer levels beta and gamma.  [a, 1-a) splits
  into 2n-3 strips; alpha1 takes the beta formula below strip n-2, the
  ratio gamma/(beta+gamma) on it and the gamma formula above it.

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
    """The root in (1/(n+1), 1/n) of m*a^2 - (n+1)*a + 1, m = ceil(n/2): that
    of floor(n/2)*a/(1-a) = 1 - m*a, the family's middle level from either end."""
    m = (n + 1) // 2
    return Surd(Fraction(n + 1, 2 * m), Fraction(-1, 2 * m), (n + 1) ** 2 - 4 * m)


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

    a is :func:`_family_parameter`, the root in (1/(n+1), 1/n) of
    m*a^2 - (n+1)*a + 1 = 0 with m = ceil(n/2).  The density is beta,
    (beta+gamma)(1-m*a), gamma, split at m*a and 1-m*a in increasing order.
    [a, 1-a) splits into the strips I0, I1, I0+a, I1+a, ...: strip
    i = 2s + second ends at 1-(n-1-s)*a, or at (s+2)*a when second.
    Below i = n-2 alpha1 is s+2 - (s+1)/(1-a), at i = n-2 it is
    gamma/(beta+gamma), and above it a*(n-s-1-second)/(1-a); a strip in a
    region of zero density level takes ``fill``.
    """
    _check_n(n)
    beta, gamma = _check_weights(beta, gamma)
    fill = check_fill(fill, EXACT)
    m = (n + 1) // 2
    a = _family_parameter(n)
    w = 1 - a
    density = StepFunction([0, *sorted((m * a, 1 - m * a)), 1], [beta, (beta + gamma) * (1 - m * a), gamma])
    bps, values = [EXACT.zero, a], [fill]
    for i in range(2 * n - 3):
        s, second = divmod(i, 2)
        bps.append((s + 2) * a if second else 1 - (n - 1 - s) * a)
        if i < n - 2:
            values.append(fill if beta == 0 else s + 2 - (s + 1) / w)
        elif i == n - 2:
            values.append(gamma / (beta + gamma))
        else:
            values.append(fill if gamma == 0 else a * (n - s - 1 - second) / w)
    return EquippedSystem(a, density, StepFunction([*bps, EXACT.one], [*values, fill]))


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
