"""Weighted two-branch interval transformations and their pushforward.

The transformation has two expanding branches with common slope 1/(1-a),
a in (0, 1/2].  The first map sends [0, 1-a) up by x/(1-a) and the tail
[1-a, 1] by (x-a)/(1-a); the second map switches at a instead of 1-a.
A point at x follows the first map with probability alpha1(x), so a
density p splits into branch weights A1 = alpha1*p and A2 = p - A1.  The
maps differ only on the switch region [a, 1-a), that of Dajani and
Kraaikamp's random beta-transformation, so alpha1 matters only there:
with beta = 1/(1-a) and x = (beta-1)*y the branches are y -> beta*y - d,
d = 0 low and 1 high, the digits of :mod:`twoval.expansion`.

:func:`pushforward_density` substitutes A2 = p - A1 into the four inverse
branches and reads A1 on the switch region alone, without building it;
:func:`pushforward_measure` integrates A1 and A2 over the four preimages
directly, so the two agree only if both are right.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .numerics import (
    Backend,
    Interval,
    MixedBackendError,
    MixedRadicandError,
    ParseError,
    Scalar,
    Surd,
    _echo,
    format_scalar,
    parse_scalar,
    read_json,
)
from .piecewise import StepFunction, _json_fields, cells, from_jumps, step_from_json_dict, step_to_json_dict


#: the largest n the families and the criterion take; lebesgue_family(_MAX_N) checks in about a second
_MAX_N = 10**4


def derive_n(a) -> int:
    """The integer n >= 2 with 1/(n+1) < a <= 1/n, which is floor(1/a)."""
    if not 0 < a or Fraction(1, 2) < a:
        raise ValueError(f"parameter must lie in (0, 1/2], got {format_scalar(a)}")
    # a = (u + c*sqrt(d))/den in integers, with c = 0 for a rational or a float (read exactly), so
    # 1/a = sg*den*(u - c*sqrt(d))/|N|, N = u*u - c*c*d, sg = sign(N).  -sg*den*c*sqrt(d) is 0 or
    # irrational: its floor is r = isqrt(its square) if it is nonnegative, else -r - 1.
    a = a if isinstance(a, Surd) else Surd._coerce(Fraction(a))
    u, c, den = a._integers()
    d = a.d
    norm = u * u - c * c * d
    sg = 1 if norm > 0 else -1
    r = math.isqrt(den * den * c * c * d)
    return (sg * den * u + (-r - 1 if sg * c > 0 else r)) // abs(norm)


def check_fill(fill, scalars: Backend) -> Scalar:
    """The alpha1 value for where it is unconstrained, on the backend and in [0,1]."""
    fill = scalars(fill)
    if fill < scalars.zero or fill > scalars.one:
        raise ValueError("fill must lie in [0,1]")
    return fill


@dataclass(frozen=True)
class EquippedSystem:
    """Parameter a plus a weighting (p, alpha1) on one backend.

    p is a finite nonnegative step density (not necessarily of unit mass)
    and alpha1 maps into [0,1]; a NaN or an infinity in either raises.  a,
    p and alpha1 may use at most one irrational radicand between them.  The
    backend ``scalars`` and n = derive_n(a) are derived.  Instances are
    frozen: assigning or deleting a field raises ``AttributeError``.
    Equality and hashing are field-wise, so an exact system never equals a
    float one, and the comparison does not raise.
    """

    scalars: Backend = field(init=False)  # first, so that exact == float is decided before any scalar is compared
    a: Scalar
    density: StepFunction
    alpha1: StepFunction
    n: int = field(init=False, compare=False)

    def __post_init__(self):
        density, alpha1 = self.density, self.alpha1
        if not isinstance(density, StepFunction) or not isinstance(alpha1, StepFunction):
            raise TypeError("density and alpha1 must be step functions")
        radicands = {density.radicand, alpha1.radicand, getattr(self.a, "d", 1)} - {1}
        if len(radicands) > 1:
            raise MixedRadicandError(f"a, p and alpha1 mix radicands {sorted(radicands)}")
        b = density.scalars
        a = b(self.a)
        if alpha1.is_float != density.is_float:
            raise MixedBackendError("a, density and alpha1 must share one backend")
        n = derive_n(a)  # raises unless 0 < a <= 1/2
        if b.is_float and not all(map(math.isfinite, density.values + alpha1.values)):
            raise ValueError("density and alpha1 must be finite")  # min and max would skip a NaN
        if not density.is_nonnegative():
            raise ValueError("density must be nonnegative")
        if alpha1.min_value < b.zero or alpha1.max_value > b.one:
            raise ValueError("alpha1 must map into [0,1]")
        object.__setattr__(self, "scalars", b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n", n)

    @property
    def is_float(self) -> bool:
        return self.scalars.is_float

    @property
    def weight_first(self) -> StepFunction:
        """A1 = alpha1 * p, the mass following the first map."""
        return self.alpha1 * self.density

    def __repr__(self):
        return (
            f"EquippedSystem(a={format_scalar(self.a)}, density={self.density!r}, "
            f"alpha1={self.alpha1!r})"
        )


def pushforward_density(system: EquippedSystem) -> StepFunction:
    """Image of the weighted density under one step of the transformation.

    Each inverse branch has slope w = 1-a.  The image at y is w times the
    weight at wy (A1 on [0, w), A2 on [0, a)) plus that at wy + a (A1 on
    [w, 1], A2 on [a, 1]); with A2 = p - A1 this is

        w * [p|[0,a)(wy) + p|[a,1](wy + a) + A1|[a,w)(wy) - A1|[a,w)(wy + a)],

    so A2 is never formed and A1 is read on [a, w) only, as alpha1*p on
    the :func:`~twoval.piecewise.cells` of alpha1 and p there.  One
    :func:`~twoval.piecewise.from_jumps` sums those jumps moved through
    the branches; mass is conserved, and at a = 1/2 alpha1 drops out.
    """
    a = system.a
    w = 1 - a
    p = system.density
    # the levels of A1, then its jumps: each level less the one before
    a1 = [(t, u * v) for t, _, (u, v) in cells((system.alpha1, p), a, w)]
    a1 = [(t, x - y) for (t, x), (_, y) in zip(a1 + [(w, 0)], [(a, 0)] + a1)]
    scale = 1 / w
    low = p.jumps(0, a) + a1
    high = p.jumps(a, 1) + [(t, -v) for t, v in a1]
    jumps = [(t * scale, w * v) for t, v in low] + [((t - a) * scale, w * v) for t, v in high]
    return from_jumps(jumps, p.scalars)


def pushforward_measure(system: EquippedSystem, interval: Interval) -> Scalar:
    """Mass the transformation carries into the interval, via preimages.

    Independent of :func:`pushforward_density`: integrates A1 and A2 over
    the four preimage intervals, without the image density or its
    A2 = p - A1 substitution, so the two check each other.
    """
    a = system.a
    w = 1 - a
    lo, hi = interval.lo, interval.hi
    if lo < 0 or hi > 1:
        raise ValueError("interval must lie inside [0,1]")
    a1 = system.weight_first
    a2 = system.density - a1
    lo_low, hi_low = w * lo, w * hi  # preimage under x -> x/(1-a)
    lo_up, hi_up = w * lo + a, w * hi + a  # preimage under x -> (x-a)/(1-a)
    total = a1.integrate(lo_low, min(hi_low, w))
    total = total + a1.integrate(max(lo_up, w), hi_up)
    total = total + a2.integrate(lo_low, min(hi_low, a))
    total = total + a2.integrate(max(lo_up, a), hi_up)
    return total


def as_float_system(system: EquippedSystem) -> EquippedSystem:
    """Rounded float64 copy of an exact system (lossy, explicit)."""
    if system.is_float:
        return system

    def conv(f: StepFunction) -> StepFunction:
        return StepFunction([float(t) for t in f.breakpoints], [float(v) for v in f.values])

    return EquippedSystem(float(system.a), conv(system.density), conv(system.alpha1))


# -- serialization -------------------------------------------------------


def system_to_json_dict(system: EquippedSystem) -> dict:
    a = float(system.a) if system.is_float else format_scalar(system.a)
    return {
        "a": a,
        "p": step_to_json_dict(system.density),
        "alpha1": step_to_json_dict(system.alpha1),
    }


def parameter_from_json(raw) -> Scalar:
    """The parameter a from its JSON value: text as a scalar, a JSON number as a float."""
    if isinstance(raw, str):
        return parse_scalar(raw)
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            return float(raw)
        except OverflowError:
            pass
    raise ParseError(f"bad parameter a: {_echo(raw)}")


def system_from_json_dict(d: dict) -> EquippedSystem:
    raw_a, raw_p, raw_alpha = _json_fields(d, "system", "a", "p", "alpha1")
    a = parameter_from_json(raw_a)
    density = step_from_json_dict(raw_p)
    alpha1 = step_from_json_dict(raw_alpha)
    try:
        return EquippedSystem(a, density, alpha1)
    except MixedRadicandError as exc:
        raise ParseError(str(exc)) from exc
    except (ValueError, MixedBackendError) as exc:
        raise ParseError(f"invalid system: {exc}") from exc


def system_to_json(system: EquippedSystem) -> str:
    return json.dumps(system_to_json_dict(system), indent=2) + "\n"


def system_from_json(text: str) -> EquippedSystem:
    return system_from_json_dict(read_json(text))
