"""Step functions on [0,1]: the density algebra behind everything else.

A :class:`StepFunction` is piecewise constant on ``[t_i, t_{i+1})`` with the
last piece closed at 1.  All pieces live on one backend (exact surds over a
single radicand, or float64); backends never mix silently.  Instances are
immutable and canonical: adjacent pieces with equal values are merged at
construction, so structural equality is almost-everywhere equality.

Semantics throughout are almost-everywhere: single points carry no mass, and
affine reparametrization extends by zero outside [0,1].
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from typing import Iterator, Sequence

from .numerics import (
    Interval,
    MixedBackendError,
    MixedRadicandError,
    ParseError,
    Scalar,
    Surd,
    exactify,
    format_scalar,
    parse_scalar,
)

#: Breakpoints closer than this are fused when float grids are merged.
#: Affine images of the same exact point computed along different float
#: paths land on nearly-equal doubles; fusing kills the sliver pieces that
#: would otherwise show up as spurious deviations.
FLOAT_SNAP = 1e-12


class NonpositiveSlopeError(ValueError):
    """An affine reparametrization had slope <= 0."""


class ZeroMassError(ValueError):
    """A function with zero total mass cannot be normalized or sampled."""


def _to_backend(x, want_float: bool):
    """Coerce one scalar onto a backend; typed scalars must already match.

    ints are neutral literals and coerce either way.  Fractions and Surds
    are exact-typed; floats are float-typed.
    """
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if want_float:
        if isinstance(x, (Surd, Fraction)):
            raise MixedBackendError("exact scalar used with a float-backend function")
        return float(x)
    return exactify(x)


class StepFunction:
    """Piecewise-constant function on [0,1] with left-closed pieces."""

    __slots__ = ("breakpoints", "values", "is_float", "radicand")

    def __init__(self, breakpoints: Sequence, values: Sequence):
        bps = list(breakpoints)
        vals = list(values)
        if len(bps) != len(vals) + 1 or not vals:
            raise ValueError("need N+1 breakpoints for N >= 1 values")
        scalars = bps + vals
        has_float = any(isinstance(x, float) for x in scalars)
        has_exact = any(isinstance(x, (Surd, Fraction)) for x in scalars)
        if has_float and has_exact:
            raise MixedBackendError("breakpoints/values mix exact and float scalars")
        bps = [_to_backend(x, has_float) for x in bps]
        vals = [_to_backend(x, has_float) for x in vals]
        if bps[0] != (0.0 if has_float else 0) or bps[-1] != (1.0 if has_float else 1):
            raise ValueError("breakpoints must run from 0 to 1")
        for lo, hi in zip(bps, bps[1:]):
            if not lo < hi:
                raise ValueError("breakpoints must be strictly increasing")
        radicand = 1
        if not has_float:
            ds = {x.d for x in bps + vals if x.d != 1}
            if len(ds) > 1:
                raise MixedRadicandError(f"one function cannot span radicands {sorted(ds)}")
            radicand = ds.pop() if ds else 1
        # canonical form: merge adjacent equal values
        m_bps = [bps[0]]
        m_vals = []
        for t, v in zip(bps[1:], vals):
            if m_vals and v == m_vals[-1]:
                m_bps[-1] = t
                continue
            m_bps.append(t)
            m_vals.append(v)
        object.__setattr__(self, "breakpoints", tuple(m_bps))
        object.__setattr__(self, "values", tuple(m_vals))
        object.__setattr__(self, "is_float", has_float)
        object.__setattr__(self, "radicand", radicand)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("StepFunction is immutable")

    # -- construction helpers -------------------------------------------

    @classmethod
    def constant(cls, value) -> "StepFunction":
        return cls([0.0, 1.0] if isinstance(value, float) else [0, 1], [value])

    @classmethod
    def indicator(cls, lo, hi, *, float_backend: bool = False) -> "StepFunction":
        """Characteristic function of [lo, hi) inside [0,1]."""
        want_float = float_backend or isinstance(lo, float) or isinstance(hi, float)
        lo = _to_backend(lo, want_float)
        hi = _to_backend(hi, want_float)
        zero = _to_backend(0, want_float)
        one = _to_backend(1, want_float)
        lo = max(zero, min(one, lo))
        hi = max(zero, min(one, hi))
        if not lo < hi:
            return cls([zero, one], [zero])
        bps = [zero]
        vals = []
        if lo > zero:
            bps.append(lo)
            vals.append(zero)
        vals.append(one)
        if hi < one:
            bps.append(hi)
            vals.append(zero)
        bps.append(one)
        return cls(bps, vals)

    def _scalar(self, x):
        return _to_backend(x, self.is_float)

    @property
    def backend(self) -> str:
        return "float" if self.is_float else f"exact-{self.radicand}"

    # -- inspection ------------------------------------------------------

    def __call__(self, x) -> Scalar:
        zero = self._scalar(0)
        one = self._scalar(1)
        xx = self._scalar(x) if isinstance(x, (int, Fraction)) else x
        if xx < zero or xx > one:
            raise ValueError(f"{x!r} is outside [0,1]")
        idx = bisect_right(self.breakpoints, xx) - 1
        return self.values[min(idx, len(self.values) - 1)]

    def pieces(self) -> Iterator[tuple[Interval, Scalar]]:
        last = len(self.values) - 1
        for i, v in enumerate(self.values):
            yield Interval(self.breakpoints[i], self.breakpoints[i + 1], i == last), v

    @property
    def min_value(self) -> Scalar:
        return min(self.values)

    @property
    def max_value(self) -> Scalar:
        return max(self.values)

    def is_nonnegative(self) -> bool:
        return not self.min_value < self._scalar(0)

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (
            self.is_float == other.is_float
            and self.breakpoints == other.breakpoints
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.breakpoints, self.values))

    def __repr__(self):
        bps = ", ".join(format_scalar(t) for t in self.breakpoints)
        vals = ", ".join(format_scalar(v) for v in self.values)
        return f"StepFunction([{bps}], [{vals}])"

    # -- grid alignment --------------------------------------------------

    def _merged_grid(self, *others: "StepFunction") -> list:
        pts = sorted(set(self.breakpoints).union(*(o.breakpoints for o in others)))
        if not self.is_float:
            return pts
        grid = [0.0]
        for t in pts[1:]:
            if t - grid[-1] > FLOAT_SNAP:
                grid.append(t)
        if grid[-1] != 1.0:
            if 1.0 - grid[-1] <= FLOAT_SNAP:
                grid[-1] = 1.0
            else:
                grid.append(1.0)
        return grid

    def _resample(self, grid: Sequence) -> list:
        """The value on each cell of ``grid``, in one pass over both grids.

        An exact grid refines this function's breakpoints, so each cell is
        found by its left end.  A float grid may have snapped a breakpoint
        onto a neighbour, so each cell is found by its midpoint.
        """
        bps, vals = self.breakpoints, self.values
        last = len(vals) - 1
        i = 0
        out = []
        if self.is_float:
            probes = [(lo + hi) / 2 for lo, hi in zip(grid, grid[1:])]
        else:
            probes = grid[:-1]
        for x in probes:
            while i < last and bps[i + 1] <= x:
                i += 1
            out.append(vals[i])
        return out

    def _zip_with(self, other, op) -> "StepFunction":
        if isinstance(other, StepFunction):
            if self.is_float != other.is_float:
                raise MixedBackendError("cannot combine exact and float functions")
            grid = self._merged_grid(other)
            vals = [op(a, b) for a, b in zip(self._resample(grid), other._resample(grid))]
            return StepFunction(grid, vals)
        s = self._scalar(other)
        return StepFunction(self.breakpoints, [op(v, s) for v in self.values])

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (StepFunction, int, Fraction, Surd, float)):
            return NotImplemented
        return self._zip_with(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (StepFunction, int, Fraction, Surd, float)):
            return NotImplemented
        return self._zip_with(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return StepFunction(self.breakpoints, [-v for v in self.values])

    def __abs__(self):
        return StepFunction(self.breakpoints, [abs(v) for v in self.values])

    def __mul__(self, other):
        if not isinstance(other, (StepFunction, int, Fraction, Surd, float)):
            return NotImplemented
        return self._zip_with(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, StepFunction):
            return NotImplemented
        s = self._scalar(other)
        return StepFunction(self.breakpoints, [v / s for v in self.values])

    def mask(self, lo, hi) -> "StepFunction":
        """Zero the function outside [lo, hi)."""
        return self * StepFunction.indicator(
            self._scalar(lo), self._scalar(hi), float_backend=self.is_float
        )

    def compose_affine(self, c, b) -> "StepFunction":
        """The function x -> f(c*x + b), extended by zero where c*x + b leaves [0,1].

        Requires c > 0.  Every transfer-operator and window computation in
        this package is an algebra of these reparametrizations.
        """
        c = self._scalar(c)
        b = self._scalar(b)
        zero = self._scalar(0)
        one = self._scalar(1)
        if not c > zero:
            raise NonpositiveSlopeError(f"slope must be positive, got {format_scalar(c)}")
        cut = [zero]
        vals: list = []
        pos = zero
        for t0, t1, v in zip(self.breakpoints, self.breakpoints[1:], self.values):
            x0 = (t0 - b) / c
            x1 = (t1 - b) / c
            if x0 < zero:
                x0 = zero
            elif x0 > one:
                x0 = one
            if x1 > one:
                x1 = one
            elif x1 < zero:
                x1 = zero
            if not x1 > pos:
                continue
            if x0 > pos:
                cut.append(x0)
                vals.append(zero)
                pos = x0
            if x1 > pos:
                cut.append(x1)
                vals.append(v)
                pos = x1
        if pos < one:
            cut.append(one)
            vals.append(zero)
        return StepFunction(cut, vals)

    # -- measures and norms ----------------------------------------------

    def integrate(self, lo=None, hi=None) -> Scalar:
        """Integral over [lo, hi] (defaults: all of [0,1])."""
        zero = self._scalar(0)
        lo = zero if lo is None else self._scalar(lo)
        hi = self._scalar(1) if hi is None else self._scalar(hi)
        total = zero
        for t0, t1, v in zip(self.breakpoints, self.breakpoints[1:], self.values):
            a = t0 if t0 > lo else lo
            b = t1 if t1 < hi else hi
            if b > a:
                total = total + v * (b - a)
        return total

    def sup_norm(self) -> Scalar:
        """Essential sup of |f|: the largest |value| over the pieces."""
        return max(abs(v) for v in self.values)

    def deviation(self, other: "StepFunction") -> Scalar:
        """Sup-norm distance to another step function."""
        return (self - other).sup_norm()

    def l1_distance(self, other: "StepFunction") -> Scalar:
        return abs(self - other).integrate()

    def equal_ae(self, other: "StepFunction") -> bool:
        """Exact almost-everywhere equality (zero deviation)."""
        return self.deviation(other) == self._scalar(0)

    def normalized(self) -> "StepFunction":
        m = self.integrate()
        if m == self._scalar(0):
            raise ZeroMassError("total mass is zero")
        return self / m


# -- serialization -------------------------------------------------------


def step_to_json_dict(f: StepFunction) -> dict:
    if f.is_float:
        return {
            "breakpoints": [float(t) for t in f.breakpoints],
            "values": [float(v) for v in f.values],
            "backend": "float",
        }
    return {
        "breakpoints": [format_scalar(t) for t in f.breakpoints],
        "values": [format_scalar(v) for v in f.values],
        "backend": f.backend,
    }


def step_from_json_dict(d: dict) -> StepFunction:
    try:
        backend = d["backend"]
        raw_bps = d["breakpoints"]
        raw_vals = d["values"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"step function JSON needs breakpoints/values/backend: {exc}") from exc
    if not isinstance(raw_bps, list) or not isinstance(raw_vals, list):
        raise ParseError("breakpoints and values must be arrays")

    def parse_entry(x, want_float: bool):
        if isinstance(x, bool):
            raise ParseError("bool is not a scalar")
        if want_float:
            if not isinstance(x, (int, float)):
                raise ParseError(f"float backend requires numeric entries, got {x!r}")
            return float(x)
        if isinstance(x, int):
            return Surd(x)
        if isinstance(x, str):
            v = parse_scalar(x)
            if isinstance(v, float):
                raise ParseError(f"decimal {x!r} not allowed on the exact backend")
            return v
        raise ParseError(f"exact backend requires string or integer entries, got {x!r}")

    if backend == "float":
        want_float = True
    elif isinstance(backend, str) and backend.startswith("exact-"):
        want_float = False
        try:
            d_tag = int(backend[6:])
        except ValueError as exc:
            raise ParseError(f"bad backend tag {backend!r}") from exc
    else:
        raise ParseError(f"bad backend tag {backend!r}")
    bps = [parse_entry(x, want_float) for x in raw_bps]
    vals = [parse_entry(x, want_float) for x in raw_vals]
    try:
        f = StepFunction(bps, vals)
    except (ValueError, MixedRadicandError) as exc:
        raise ParseError(f"invalid step function: {exc}") from exc
    if not want_float and f.radicand not in (1, d_tag):
        raise ParseError(f"entries use sqrt({f.radicand}) but backend says {backend!r}")
    return f


def step_to_json(f: StepFunction) -> str:
    return json.dumps(step_to_json_dict(f), indent=2) + "\n"


def step_from_json(text: str) -> StepFunction:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return step_from_json_dict(d)


def step_to_csv(f: StepFunction) -> str:
    """Lossy human-readable export: one row per piece, float64 rendering."""
    lines = ["x_left,x_right,value"]
    for iv, v in f.pieces():
        lines.append(f"{float(iv.lo):.17g},{float(iv.hi):.17g},{float(v):.17g}")
    return "\n".join(lines) + "\n"
