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
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, mul, sub, truediv
from typing import Iterator, Sequence

from .numerics import (
    EXACT,
    Backend,
    Interval,
    MixedBackendError,
    MixedRadicandError,
    ParseError,
    Scalar,
    Surd,
    _echo,
    backend_of,
    format_scalar,
    max_or_nan,
    parse_scalar,
    read_json,
)


class NonpositiveSlopeError(ValueError):
    """An affine reparametrization had slope <= 0."""


class ZeroMassError(ValueError):
    """A function with zero total mass cannot be sampled."""


@dataclass(frozen=True, init=False)
class StepFunction:
    """Piecewise-constant function on [0,1] with left-closed pieces.

    ``scalars`` is the :class:`~twoval.numerics.Backend` every breakpoint and
    value lives on, and ``radicand`` the irrational radicand of the canonical
    pieces (1 if none).  Instances are frozen: assigning or deleting a field
    raises ``AttributeError``.  Equality and hashing are field-wise, so an
    exact function never equals a float one, and the comparison does not raise.
    """

    # __slots__ by hand: slots=True makes 3.11's frozen __setattr__ raise TypeError on a new name
    __slots__ = ("scalars", "breakpoints", "values", "radicand")
    scalars: Backend  # first, so that exact == float is decided before any entry is compared
    breakpoints: tuple
    values: tuple
    radicand: int

    def __init__(self, breakpoints: Sequence, values: Sequence):
        bps = list(breakpoints)
        vals = list(values)
        if len(bps) != len(vals) + 1 or not vals:
            raise ValueError("need N+1 breakpoints for N >= 1 values")
        scalars = backend_of(*bps, *vals)
        kind = type(scalars.zero)  # entries already of it are on the backend
        bps = [x if type(x) is kind else scalars(x) for x in bps]
        vals = [x if type(x) is kind else scalars(x) for x in vals]
        if bps[0] != scalars.zero or bps[-1] != scalars.one:
            raise ValueError("breakpoints must run from 0 to 1")
        for lo, hi in zip(bps, bps[1:]):
            if not lo < hi:
                raise ValueError("breakpoints must be strictly increasing")
        ds = set() if scalars.is_float else {x.d for x in bps + vals if x.d != 1}
        if len(ds) > 1:
            raise MixedRadicandError(f"one function cannot span radicands {sorted(ds)}")
        # canonical form: merge adjacent equal values
        m_bps = [bps[0]]
        m_vals = []
        for t, v in zip(bps[1:], vals):
            if m_vals and v == m_vals[-1]:
                m_bps[-1] = t
                continue
            m_bps.append(t)
            m_vals.append(v)
        # read off the canonical pieces, since a merge can drop every irrational breakpoint
        radicand = ds.pop() if ds and any(x.d != 1 for x in m_bps + m_vals) else 1
        object.__setattr__(self, "scalars", scalars)
        object.__setattr__(self, "breakpoints", tuple(m_bps))
        object.__setattr__(self, "values", tuple(m_vals))
        object.__setattr__(self, "radicand", radicand)

    # -- construction helpers -------------------------------------------

    @classmethod
    def constant(cls, value) -> "StepFunction":
        b = backend_of(value)
        return cls([b.zero, b.one], [value])

    @classmethod
    def indicator(cls, lo, hi) -> "StepFunction":
        """Characteristic function of [lo, hi) inside [0,1], on the endpoints'
        backend: :func:`from_jumps` of a jump up at lo and one down at hi."""
        b = backend_of(lo, hi)
        lo, hi = b(lo), b(hi)
        return from_jumps([(lo, 1), (hi, -1)] if lo < hi else [], b)

    @property
    def is_float(self) -> bool:
        return self.scalars.is_float

    @property
    def backend(self) -> str:
        return "float" if self.is_float else f"exact-{self.radicand}"

    # -- inspection ------------------------------------------------------

    def __call__(self, x) -> Scalar:
        xx = self.scalars(x)
        if xx < self.scalars.zero or xx > self.scalars.one:
            raise ValueError(f"{x!r} is outside [0,1]")
        idx = bisect_right(self.breakpoints, xx) - 1
        return self.values[min(idx, len(self.values) - 1)]

    def pieces(self) -> Iterator[tuple[Interval, Scalar]]:
        for i, v in enumerate(self.values):
            yield Interval(self.breakpoints[i], self.breakpoints[i + 1]), v

    @property
    def min_value(self) -> Scalar:
        return min(self.values)

    @property
    def max_value(self) -> Scalar:
        return max(self.values)

    def is_nonnegative(self) -> bool:
        return not self.min_value < self.scalars.zero

    def __repr__(self):
        bps = ", ".join(format_scalar(t) for t in self.breakpoints)
        vals = ", ".join(format_scalar(v) for v in self.values)
        return f"StepFunction([{bps}], [{vals}])"

    def _zip_with(self, other, op) -> "StepFunction":
        if isinstance(other, StepFunction):
            return combine(op, self, other)
        if not isinstance(other, (int, Fraction, Surd, float)):
            return NotImplemented
        s = self.scalars(other)
        return StepFunction(self.breakpoints, [op(v, s) for v in self.values])

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        return self._zip_with(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip_with(other, sub)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return StepFunction(self.breakpoints, [-v for v in self.values])

    def __abs__(self):
        return StepFunction(self.breakpoints, [abs(v) for v in self.values])

    def __mul__(self, other):
        return self._zip_with(other, mul)

    __rmul__ = __mul__

    def __truediv__(self, other):  # by a scalar only
        return NotImplemented if isinstance(other, StepFunction) else self._zip_with(other, truediv)

    def mask(self, lo, hi) -> "StepFunction":
        """Zero the function outside [lo, hi), whatever its values there (inf too)."""
        zero = self.scalars.zero
        inside = StepFunction.indicator(self.scalars(lo), self.scalars(hi))
        return combine(lambda v, keep: v if keep else zero, self, inside)

    def compose_affine(self, c, b) -> "StepFunction":
        """The function x -> f(c*x + b), extended by zero where c*x + b leaves [0,1].

        Requires c > 0.  Each of :meth:`jumps` moves to (t - b)/c with its
        size unchanged, and :func:`from_jumps` sums them.
        """
        c = self.scalars(c)
        b = self.scalars(b)
        if not c > self.scalars.zero:
            raise NonpositiveSlopeError(f"slope must be positive, got {format_scalar(c)}")
        return from_jumps([((t - b) / c, v) for t, v in self.jumps()], self.scalars)

    def jumps(self, lo=None, hi=None) -> list:
        """The function on [lo, hi) and zero elsewhere as its jumps (t, size), in order.

        ``lo`` and ``hi`` default to 0 and 1, so the jumps up from and back
        down to the zero extension at either end are included.  Bisection
        finds the pieces that meet (lo, hi); if none does, as when lo >= hi,
        the one jump is a zero jump at hi.
        """
        bps, vals = self.breakpoints, self.values
        lo = bps[0] if lo is None else lo
        hi = bps[-1] if hi is None else hi
        i, j = max(bisect_right(bps, lo) - 1, 0), min(bisect_left(bps, hi), len(vals))
        out, prev = [], self.scalars.zero
        for t, v in zip(bps[i:j], vals[i:j]):
            out.append((t, v - prev))
            prev = v
        if out and not out[0][0] > lo:
            out[0] = (lo, out[0][1])
        out.append((hi, -prev))
        return out

    # -- measures and norms ----------------------------------------------

    def integrate(self, lo=None, hi=None) -> Scalar:
        """Integral over [lo, hi] (defaults: all of [0,1]), summed over the
        :func:`cells` of the window's part inside [0, 1]."""
        zero, one = self.scalars.zero, self.scalars.one
        lo = zero if lo is None else max(self.scalars(lo), zero)
        hi = one if hi is None else min(self.scalars(hi), one)
        return sum((v * (t1 - t0) for t0, t1, (v,) in cells((self,), lo, hi)), zero)

    def sup_norm(self) -> Scalar:
        """Essential sup of |f|: the largest |value| over the pieces, NaN if one is NaN."""
        return max_or_nan([abs(v) for v in self.values])


def combine(op, *fs: StepFunction) -> StepFunction:
    """The function x -> op(f1(x), f2(x), ...), one value on each of the
    inputs' :func:`cells` on [0, 1]."""
    if len({f.is_float for f in fs}) > 1:
        raise MixedBackendError("cannot combine exact and float functions")
    zero, one = fs[0].scalars.zero, fs[0].scalars.one
    bps, vals = [zero], []
    for _, end, vs in cells(fs, zero, one):
        bps.append(end)
        vals.append(op(*vs))
    return StepFunction(bps, vals)


def cells(fs, lo, hi) -> Iterator[tuple]:
    """(start, end, values) for each cell of the inputs' merged grid on
    [lo, hi) inside [0, 1], values holding each input's value there.

    One k-way walk on either backend.  Bisection finds each input's piece
    at lo and its end (with no search where lo or hi ends its grid), each
    cell ends at the least of the inputs' next breakpoints or at hi, and
    each input whose next breakpoint that is moves on, so nothing is hashed
    or sorted.  Float inputs follow :func:`from_jumps`' rule, since affine
    images of one exact point land on nearly equal doubles: a breakpoint
    within the snap distance of the cell's start (lo first) is passed
    without opening a cell, so each input is read just after it, and
    failing that one within the snap distance of hi ends the cell at hi.
    """
    if not lo < hi:
        return
    at = [0 if lo == f.breakpoints[0] else bisect_right(f.breakpoints, lo) - 1 for f in fs]
    stops = [len(f.values) if hi == f.breakpoints[-1] else bisect_left(f.breakpoints, hi, i) for f, i in zip(fs, at)]

    def head(k):  # the end of input k's piece on the window
        return fs[k].breakpoints[at[k] + 1] if at[k] + 1 < stops[k] else hi

    heads, start = [head(k) for k in range(len(fs))], lo
    snap = fs[0].is_float and fs[0].scalars.snap  # False on exact inputs
    while True:
        end = min(heads)
        if not (snap and end < hi and end - start <= snap):  # else fused onto start
            if snap and hi - end <= snap:
                end = hi
            yield start, end, [f.values[i] for f, i in zip(fs, at)]
            if end == hi:
                return
            start = end
        for k, h in enumerate(heads):
            if h == end:
                at[k] += 1
                heads[k] = head(k)


def from_jumps(jumps, scalars) -> StepFunction:
    """The step function on [0,1] that jumps by each ``size`` at its ``t``.

    Jumps at t <= 0 set the starting level and those at t >= 1 fall
    outside.  One sort and one running sum, of B linear terms in
    O(B log B) comparisons.  Exact positions t sort as pairs (fl(t), t),
    fl(t) being t rounded to the nearest double: rounding is monotone, x < y
    gives fl(x) <= fl(y), so the order is exact, and it compares exact
    values only where doubles tie.  Float sums are exact too, so no
    rounding drifts along the grid: positions within the snap distance of
    the last kept one move onto it, and each level is rounded once, to
    +-inf beyond the double range and to NaN from a non-finite size on.
    """
    zero, one = scalars.zero, scalars.one
    if scalars.is_float:
        jumps, nan_from = _snapped_exact(sorted(jumps, key=itemgetter(0)), scalars.snap)  # all below 1 - snap
        keyed, level = [(t, t, size) for t, size in jumps], Fraction(0)  # a double is its own key
    else:
        keyed = sorted([(_nearest_double(t), t, size) for t, size in jumps], key=itemgetter(0, 1))
        keyed, level = keyed[: bisect_left(keyed, (1.0, one), key=itemgetter(0, 1))], zero
    bps, vals, last = [zero], [], (0.0, zero)
    for key, t, size in keyed:
        if (key, t) > last:  # the doubles decide unless they tie
            vals.append(level)
            bps.append(t)
            last = (key, t)
        level = level + size
    vals.append(level)
    bps.append(one)
    if scalars.is_float:
        vals = [_nearest_double(v) if t < nan_from else math.nan for t, v in zip(bps, vals)]
    return StepFunction(bps, vals)


def _snapped_exact(jumps: list, snap: float) -> tuple[list, float]:
    """Sorted float jumps snapped, up to 1 - snap, with ``Fraction`` sizes,
    cut at the first non-finite size (left as a zero jump, so that its
    position stays a breakpoint); and that position, inf if there is none."""
    kept = 0.0
    out = []
    for t, size in jumps:
        if t - kept <= snap:
            t = kept
        elif t >= 1.0 - snap:
            break
        else:
            kept = t
        if not math.isfinite(size):
            return out + [(t, 0)], t
        out.append((t, Fraction(size)))
    return out, math.inf


def _nearest_double(q) -> float:
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


# -- serialization -------------------------------------------------------


def step_to_json_dict(f: StepFunction) -> dict:
    fmt = float if f.is_float else format_scalar
    return {
        "breakpoints": [fmt(t) for t in f.breakpoints],
        "values": [fmt(v) for v in f.values],
        "backend": f.backend,
    }


def _json_fields(d, what: str, *keys: str) -> list:
    """The values of ``keys`` in the JSON object ``d``, in order; a ParseError names ``what`` otherwise."""
    names = "/".join(keys)
    if not isinstance(d, dict):
        raise ParseError(f"{what} JSON must be an object with keys {names}")
    try:
        return [d[k] for k in keys]
    except KeyError as exc:
        raise ParseError(f"{what} JSON needs {names}: {exc}") from exc


def step_from_json_dict(d: dict) -> StepFunction:
    raw_bps, raw_vals, backend = _json_fields(d, "step function", "breakpoints", "values", "backend")
    if not isinstance(raw_bps, list) or not isinstance(raw_vals, list):
        raise ParseError("breakpoints and values must be arrays")

    def parse_entry(x, want_float: bool):
        if isinstance(x, bool):
            raise ParseError("bool is not a scalar")
        if want_float:
            if not isinstance(x, (int, float)):
                raise ParseError(f"float backend requires numeric entries, got {_echo(x)}")
            try:
                v = float(x)
            except OverflowError:
                v = math.inf
            if not math.isfinite(v):
                raise ParseError(f"float backend requires finite entries, got {_echo(x)}")
            return v
        if isinstance(x, int):
            return EXACT(x)
        if isinstance(x, str):
            v = parse_scalar(x)
            if isinstance(v, float):
                raise ParseError(f"decimal {_echo(x)} not allowed on the exact backend")
            return v
        raise ParseError(f"exact backend requires string or integer entries, got {_echo(x)}")

    tag = backend[6:] if isinstance(backend, str) and backend.startswith("exact-") else ""
    if backend == "float":
        want_float = True
    elif tag.isascii() and tag.isdigit():  # int() alone takes signs, spaces, "_" and non-ASCII digits
        want_float = False
        try:
            d_tag = int(tag)
        except ValueError as exc:  # past the digit limit
            raise ParseError(f"bad backend tag {_echo(backend)}") from exc
    else:
        raise ParseError(f"bad backend tag {_echo(backend)}")
    bps = [parse_entry(x, want_float) for x in raw_bps]
    vals = [parse_entry(x, want_float) for x in raw_vals]
    try:
        f = StepFunction(bps, vals)
    except (ValueError, MixedRadicandError) as exc:
        raise ParseError(f"invalid step function: {exc}") from exc
    if not want_float:
        used = max(x.d for x in bps + vals)  # of every entry, merged away or not
        if used not in (1, d_tag):
            raise ParseError(f"entries use sqrt({used}) but backend says {_echo(backend)}")
    return f


def step_to_json(f: StepFunction) -> str:
    return json.dumps(step_to_json_dict(f), indent=2) + "\n"


def step_from_json(text: str) -> StepFunction:
    return step_from_json_dict(read_json(text))


def step_to_csv(f: StepFunction) -> str:
    """Lossy human-readable export: one row per piece, float64 rendering."""
    lines = ["x_left,x_right,value"]
    for iv, v in f.pieces():
        lines.append(f"{float(iv.lo):.17g},{float(iv.hi):.17g},{float(v):.17g}")
    return "\n".join(lines) + "\n"
