"""Scalars for interval-map computations: exact quadratic surds and float64.

Two backends share one algebra:

* exact -- elements ``q0 + q1*sqrt(d)`` of a real quadratic field, with
  ``Fraction`` coefficients and a square-free radicand ``d``.  Plain
  rationals carry ``d = 1``.  Arithmetic, equality and ordering are all
  decided by rational arithmetic, never by rounding.
* float -- ordinary Python floats, used for Monte Carlo work and as a
  cross-check of the exact path.

One rule puts a scalar on a backend, and :class:`Backend` is the only place
that states it.  ``Fraction`` and :class:`Surd` are exact, floats are float,
and ints are neutral literals that join either backend, subclasses
included.  Nothing else is a scalar (``TypeError``): not a bool, text
(:func:`parse_scalar` reads it), a ``Decimal`` or a numpy ``float32``.
Exact mixed with float raises :class:`MixedBackendError`; two surds
over distinct irrational radicands raise :class:`MixedRadicandError`.
Conversion is always explicit (``float(x)``).  Each backend also fixes its
0, its 1, the default tolerance of a verdict (0 exact, 1e-10 float) and its
snap distance, below which two computed points are one (0 exact, 1e-12
float).
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union


class MixedBackendError(TypeError):
    """An exact scalar and a float were combined in one operation."""


class MixedRadicandError(ArithmeticError):
    """Two exact scalars over different irrational radicands were combined."""


class ParseError(ValueError):
    """A scalar, step-function or system text form could not be parsed."""


@lru_cache(maxsize=1024)
def _square_free_split(v: int) -> tuple[int, int]:
    """Return ``(s, d)`` with ``v == s*s*d`` and ``d`` square-free, for ``v >= 0``; kept for the last 1,024 radicands."""
    if v > 10**12:  # trial division below costs about 0.2 s at this cap
        raise ValueError(f"radicand {_echo(v)} exceeds 10^12")
    if v == 0:
        return 0, 1
    s, d, rem = 1, 1, v
    f = 2
    while f * f <= rem:
        if rem % f == 0:
            e = 0
            while rem % f == 0:
                rem //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1
    return s, d * rem


_RationalLike = Union[int, Fraction, str]


class Surd:
    """Exact scalar ``q0 + q1*sqrt(d)`` with rational q0, q1 and square-free d.

    Construction canonicalizes: the square part of the radicand is folded
    into ``q1`` (``sqrt(8)`` becomes ``2*sqrt(2)``), and a vanishing ``q1``
    forces ``d == 1``.  The canonical triple makes equality and hashing
    structural.  Arithmetic on canonical operands yields canonical results,
    so it builds them with :meth:`_make`, which skips that work.  A rational
    (``d == 1``) factor or nonzero divisor scales each coefficient, in two
    ``Fraction`` operations (one if both are rational); only two irrational
    operands, or a sum with one, take the general formula.
    """

    __slots__ = ("q0", "q1", "d")

    def __init__(self, q0: _RationalLike = 0, q1: _RationalLike = 0, d: int = 1):
        if isinstance(q0, float) or isinstance(q1, float):
            raise MixedBackendError("exact scalars take rational coefficients, not floats")
        q0 = Fraction(q0)
        q1 = Fraction(q1)
        d = int(d)
        if d < 0:
            raise ValueError("radicand must be a nonnegative integer")
        s, d = _square_free_split(d) if q1 else (0, 1)
        if d == 1:  # a square radicand, 0 among them, or no root term
            q0 += q1 * s
            q1 = _ZERO
        else:
            q1 *= s
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    def __delattr__(self, name):
        raise AttributeError("Surd is immutable")

    @staticmethod
    def _make(q0: Fraction, q1: Fraction, d: int) -> "Surd":
        """The surd from an already canonical triple: ``Fraction`` coefficients
        and a square-free ``d``, which is reset to 1 when ``q1`` vanishes."""
        x = _new_surd(Surd)
        _set_q0(x, q0)
        _set_q1(x, q1)
        _set_d(x, d if q1 else 1)
        return x

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Surd | None":
        if isinstance(other, Surd):
            return other
        if isinstance(other, bool):
            return None
        if isinstance(other, Fraction):
            return Surd._make(other, _ZERO, 1)
        if isinstance(other, int):
            return Surd._make(Fraction(other), _ZERO, 1)
        if isinstance(other, float):
            raise MixedBackendError("cannot mix exact and float scalars; convert explicitly")
        return None

    def _common_d(self, other: "Surd") -> int:
        if self.d == other.d:
            return self.d
        if other.d == 1:
            return self.d
        if self.d == 1:
            return other.d
        raise MixedRadicandError(f"cannot combine sqrt({self.d}) with sqrt({other.d})")

    def _cmp(self, o: "Surd") -> int:
        """Sign of ``self - o``, decided in integers without building the difference."""
        x, y = self.q0, o.q0
        p = x.numerator * y.denominator - y.numerator * x.denominator
        if self.d == 1 and o.d == 1:
            return (p > 0) - (p < 0)
        d = self._common_d(o)
        pd = x.denominator * y.denominator
        x, y = self.q1, o.q1
        q = x.numerator * y.denominator - y.numerator * x.denominator
        qd = x.denominator * y.denominator
        # self - o = p/pd + (q/qd)*sqrt(d) with pd, qd > 0
        if not q:
            return (p > 0) - (p < 0)
        s1 = 1 if q > 0 else -1
        if not p:
            return s1
        s0 = 1 if p > 0 else -1
        if s0 == s1:
            return s0
        # Opposite signs: |p|/pd vs |q|*sqrt(d)/qd, decided by squaring.
        # They cannot tie, since q != 0 and d is square-free.
        return s0 if (p * qd) ** 2 > (q * pd) ** 2 * d else s1

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.d == 1 and o.d == 1:
            return Surd._make(self.q0 + o.q0, _ZERO, 1)
        d = self._common_d(o)
        return Surd._make(self.q0 + o.q0, self.q1 + o.q1, d)

    __radd__ = __add__

    def __neg__(self):
        return Surd._make(-self.q0, -self.q1, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.d == 1 and o.d == 1:
            return Surd._make(self.q0 - o.q0, _ZERO, 1)
        d = self._common_d(o)
        return Surd._make(self.q0 - o.q0, self.q1 - o.q1, d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.d == 1:
            return Surd._make(self.q0 * o.q0, self.q1 * o.q0 if self.d != 1 else _ZERO, self.d)
        if self.d == 1:
            return Surd._make(self.q0 * o.q0, self.q0 * o.q1, o.d)
        d = self._common_d(o)
        return Surd._make(self.q0 * o.q0 + self.q1 * o.q1 * d, self.q0 * o.q1 + self.q1 * o.q0, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.d == 1 and o.q0:
            return Surd._make(self.q0 / o.q0, self.q1 / o.q0 if self.d != 1 else _ZERO, self.d)
        d = self._common_d(o)
        norm = o.q0 * o.q0 - o.q1 * o.q1 * d
        if norm == 0:
            # d square-free: the conjugate norm vanishes only at zero.
            raise ZeroDivisionError("division by zero scalar")
        return Surd._make(
            (self.q0 * o.q0 - self.q1 * o.q1 * d) / norm,
            (self.q1 * o.q0 - self.q0 * o.q1) / norm,
            d,
        )

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return EXACT.one / self ** (-exponent)
        out = EXACT.one
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __abs__(self):
        return -self if self._cmp(EXACT.zero) < 0 else self

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.d != o.d:
            return False  # distinct canonical radicands never collide
        return self.q0 == o.q0 and self.q1 == o.q1

    def __hash__(self):
        if not self.q1:
            return hash(self.q0)  # agrees with int/Fraction hashing
        return hash((self.q0, self.q1, self.d))

    # The orderings and the reflected operators: one rule on the coerced
    # operand ``o`` each, and NotImplemented for a foreign operand.

    def _coerced(rule):
        def method(self, other):
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            return rule(self, o)

        return method

    __lt__ = _coerced(lambda x, o: x._cmp(o) < 0)
    __le__ = _coerced(lambda x, o: x._cmp(o) <= 0)
    __gt__ = _coerced(lambda x, o: x._cmp(o) > 0)
    __ge__ = _coerced(lambda x, o: x._cmp(o) >= 0)
    __rsub__ = _coerced(lambda x, o: o - x)
    __rtruediv__ = _coerced(lambda x, o: o / x)
    del _coerced

    def __bool__(self):
        return bool(self.q0) or bool(self.q1)

    # -- conversions -----------------------------------------------------

    def _integers(self) -> tuple[int, int, int]:
        """Integers (u, c, den), den > 0, with self == (u + c*sqrt(d))/den; c == 0 for a rational."""
        q0, q1 = self.q0, self.q1
        return q0.numerator * q1.denominator, q1.numerator * q0.denominator, q0.denominator * q1.denominator

    def __float__(self):
        if not self.q1:
            return float(self.q0)
        # self = (u + c*sqrt(d))/den.  r = isqrt(d*4^k) puts sqrt(d) strictly between r/2^k and
        # (r+1)/2^k, so self lies strictly between lo/(den*2^k) and (lo+c)/(den*2^k).  Rounding is
        # monotone: once both bounds round to one double, self does too.  u*u - c*c*d is a nonzero
        # integer, so |u + c*sqrt(d)| >= 1/(|u| + |c|*sqrt(d)) and the first k usually suffices even
        # under cancellation; self is irrational, so doubling k ends.
        u, c, den = self._integers()
        d = self.d
        k = 64 + c.bit_length() + max(u.bit_length(), c.bit_length() + d.bit_length())
        while True:
            lo = (u << k) + c * math.isqrt(d << (2 * k))
            x = lo / (den << k)
            if x == (lo + c) / (den << k):
                return x
            k *= 2

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        if not self.q1:
            return f"Surd({str(self.q0)!r})"
        return f"Surd({str(self.q0)!r}, {str(self.q1)!r}, {self.d})"


_ZERO = Fraction(0)
_new_surd = object.__new__
_set_q0, _set_q1, _set_d = Surd.q0.__set__, Surd.q1.__set__, Surd.d.__set__

#: One scalar value on either backend.
Scalar = Union[Surd, float]


@dataclass(frozen=True)
class Backend:
    """One scalar backend: its 0 and 1, its tolerances, and the coercion rule.

    ``tol`` is the default sup-deviation a verdict forgives, per unit of
    sup|p| on floats, and ``snap`` the distance below which two computed
    points are one.  Calling a backend puts a scalar on it.
    """

    is_float: bool
    zero: Scalar
    one: Scalar
    tol: Scalar
    snap: Scalar

    def __call__(self, x) -> Scalar:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction, Surd, float)):
            raise TypeError(f"{type(x).__name__} is not a scalar")
        if self.is_float:
            if isinstance(x, (Surd, Fraction)):
                raise MixedBackendError("exact scalar used on the float backend; convert explicitly")
            return float(x)
        if isinstance(x, float):
            raise MixedBackendError("float used on the exact backend; convert explicitly")
        return Surd._coerce(x)


EXACT = Backend(False, Surd(0), Surd(1), tol=Surd(0), snap=Surd(0))
FLOAT = Backend(True, 0.0, 1.0, tol=1e-10, snap=1e-12)


def backend_of(*xs) -> Backend:
    """The backend the typed scalars among ``xs`` share; exact when all are ints."""
    has_float = has_exact = False
    for x in xs:
        if isinstance(x, float):
            has_float = True
        elif isinstance(x, (Surd, Fraction)):
            has_exact = True
    if has_float and has_exact:
        raise MixedBackendError("cannot mix exact and float scalars; convert explicitly")
    return FLOAT if has_float else EXACT


def max_or_nan(values: list, default=None) -> Scalar:
    """The largest of ``values``, ``default`` if there is none, and NaN if a
    float among them is NaN: ``max`` alone can skip one, as every comparison
    with NaN is false.  Exact values are never NaN and are not tested."""
    if any(isinstance(v, float) and math.isnan(v) for v in values):
        return math.nan
    return max(values) if values else default


_FLOAT_MARK = re.compile(r"[.eE]")
#: a term: sign, then p/q*sqrt(d) (groups 2-4) or p/q (5-6); else a bad term up to the next sign
_TERM = re.compile(r"([+-]?)(?:(?:(\d+)(?:/(\d+))?\*)?sqrt\((\d+)\)|(\d+)(?:/(\d+))?)(?=[+-]|\Z)|[+-]?[^+-]+")
_RATIONAL_TERM = re.compile(r"[+-]?\d+(?:/\d+)?")
_DIGITS = re.compile(r"\d+")


def _digit_limit() -> str:
    """Why an integer past the interpreter's digit limit cannot be read or written."""
    limit = sys.get_int_max_str_digits()
    return f"number too large: an integer of more than {limit} digits cannot be read or written as text"


def read_json(text: str):
    """``json.loads`` with its failures as ParseError, in twoval's words."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except ValueError:  # int() of a number literal past the digit limit
        raise ParseError(_digit_limit()) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def _echo(value) -> str:
    """``value`` for an error message, cut after 40 characters: text quoted,
    anything else as its repr."""
    if isinstance(value, str):
        return repr(value if len(value) <= 40 else value[:40] + "…")
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "…"


def parse_scalar(text: str) -> Scalar:
    """Parse a sum of ``p/q`` and ``p/q*sqrt(d)`` terms over one radicand, or a decimal.

    Decimal forms (anything with a point or exponent) parse to a float and
    therefore force the float backend; everything else stays exact, summed in integers.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty scalar")
    limit = sys.get_int_max_str_digits()
    if (not limit or len(s) <= limit) and _RATIONAL_TERM.fullmatch(s):
        # a plain p/q no longer than the digit limit, so int() reads both parts
        p, _, q = s.partition("/")
        try:
            return Surd._make(Fraction(int(p), int(q or 1)), _ZERO, 1)
        except ZeroDivisionError as exc:
            raise ParseError(f"zero denominator in {_echo(text)}") from exc
    if "sqrt" not in s and _FLOAT_MARK.search(s):
        try:
            v = float(s)
        except ValueError as exc:
            raise ParseError(f"bad scalar {_echo(text)}") from exc
        if not math.isfinite(v):
            raise ParseError(f"non-finite scalar {_echo(text)}")
        return v
    if limit and len(s) > limit and any(len(run) > limit for run in _DIGITS.findall(s)):
        raise ParseError(_digit_limit())
    n0, d0, n1, d1, rad = 0, 1, 0, 1, 1  # the sum n0/d0 + (n1/d1)*sqrt(rad)
    pos = 0
    for m in _TERM.finditer(s):
        if m.start() != pos:
            raise ParseError(f"bad scalar {_echo(text)}")
        pos = m.end()
        sign, p, q, root, rp, rq = m.groups()
        if root is None and rp is None:
            raise ParseError(f"bad scalar term {_echo(m.group(0))} in {_echo(text)}")
        p, q = int(sign + (rp or p or "1")), int(rq or q or "1")
        if not q:
            raise ParseError(f"zero denominator in {_echo(text)}")
        if root is not None and p:
            r, d = _square_free_split(int(root))
            p *= r
            if d != 1:
                if n1 and d != rad:
                    raise ParseError(f"mixed radicands in {_echo(text)}")
                n1, d1, rad = n1 * q + p * d1, d1 * q, d
                continue
        n0, d0 = n0 * q + p * d0, d0 * q
    if pos != len(s):
        raise ParseError(f"bad scalar {_echo(text)}")
    return Surd._make(Fraction(n0, d0), Fraction(n1, d1), rad)


def format_scalar(x: Scalar) -> str:
    """Canonical text form; ``parse_scalar`` round-trips it bit-exactly."""
    if isinstance(x, float):
        return repr(x)
    x = EXACT(x)
    try:
        if not x.q1:
            return str(x.q0)
        if not x.q0:
            return f"{x.q1}*sqrt({x.d})"
        if x.q1 < 0:
            return f"{x.q0} - {-x.q1}*sqrt({x.d})"
        return f"{x.q0} + {x.q1}*sqrt({x.d})"
    except ValueError:  # str() of an int past the digit limit
        raise ValueError(_digit_limit()) from None


@dataclass(frozen=True)
class Interval:
    """The pair (lo, hi) of scalar endpoints on one backend, with lo <= hi."""

    # __slots__ by hand: slots=True makes 3.11's frozen __setattr__ raise TypeError on a new name
    __slots__ = ("lo", "hi")
    lo: Scalar
    hi: Scalar

    def __post_init__(self):
        b = backend_of(self.lo, self.hi)
        lo, hi = b(self.lo), b(self.hi)
        if hi < lo:
            raise ValueError(f"empty interval: [{lo}, {hi})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __repr__(self):
        return f"[{format_scalar(self.lo)}, {format_scalar(self.hi)})"
