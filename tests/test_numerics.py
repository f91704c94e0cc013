"""Exact quadratic-field scalars, parsing, and intervals."""

import dataclasses
import math
import operator
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoval import numerics
from twoval.numerics import (
    Interval,
    MixedBackendError,
    MixedRadicandError,
    ParseError,
    EXACT,
    Surd,
    _digit_limit,
    _echo,
    format_scalar,
    max_or_nan,
    parse_scalar,
)
from twoval.families import lebesgue_family
from twoval.piecewise import StepFunction, step_from_json_dict, step_to_json
from twoval.system import as_float_system

GOLDEN_A = Surd(Fraction(3, 2), Fraction(-1, 2), 5)  # (3 - sqrt(5))/2


class TestCanonicalization:
    def test_square_part_folds_into_coefficient(self):
        x = Surd(0, 1, 8)
        assert (x.q0, x.q1, x.d) == (0, 2, 2)
        y = Surd(0, 1, 48)
        assert (y.q0, y.q1, y.d) == (0, 4, 3)

    def test_perfect_square_radicand_becomes_rational(self):
        x = Surd(1, 2, 49)
        assert x.q1 == 0 and x.q0 == 15 and x.d == 1

    def test_zero_coefficient_drops_radicand(self):
        assert Surd(Fraction(1, 3), 0, 5) == Surd(Fraction(1, 3))
        assert Surd(2, 1, 0) == Surd(2)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            Surd(0, 1, -2)

    def test_radicand_above_cap_rejected(self):
        # trial division would take minutes here; the cap is 10^12
        with pytest.raises(ValueError, match="exceeds"):
            Surd(0, 1, 10**18 + 3)
        assert Surd(0, 1, 999_999_999_989).d == 999_999_999_989  # a prime just below the cap

    def test_float_coefficients_rejected(self):
        with pytest.raises(MixedBackendError):
            Surd(0.5)

    def test_string_coefficients_accepted(self):
        assert Surd("3/2", "-1/2", 5) == GOLDEN_A

    def test_repr_round_trips(self):
        for x in (GOLDEN_A, Surd(Fraction(-7, 3)), Surd(0, 2, 3)):
            assert eval(repr(x)) == x


class TestFieldArithmetic:
    def test_golden_norm_product(self):
        # (3 - sqrt(5))/2 * (3 + sqrt(5))/2 = (9 - 5)/4 = 1
        conj = Surd(Fraction(3, 2), Fraction(1, 2), 5)
        assert GOLDEN_A * conj == 1

    def test_golden_identities(self):
        a = GOLDEN_A
        one = Surd(1)
        assert (one - a) ** 2 == a
        assert a / (one - a) == one - a
        assert a ** 2 == 3 * a - 1
        # 1/(1 - a) is the golden ratio
        assert one / (one - a) == Surd(Fraction(1, 2), Fraction(1, 2), 5)

    def test_mixing_with_rationals(self):
        a = GOLDEN_A
        assert a + Fraction(1, 2) == Surd(2, Fraction(-1, 2), 5)
        assert 2 * a == Surd(3, -1, 5)
        assert 1 - a == Surd(Fraction(-1, 2), Fraction(1, 2), 5)
        assert a - 1 == -(1 - a)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Surd(1) / Surd(0)
        with pytest.raises(ZeroDivisionError):
            Surd(1) / (GOLDEN_A - GOLDEN_A)

    def test_integer_powers(self):
        a = GOLDEN_A
        assert a ** 0 == 1
        assert a ** 3 == a * a * a
        assert a ** -2 == 1 / (a * a)

    def test_sqrt_scalar(self):
        assert Surd(0, 1, 5) * Surd(0, 1, 5) == 5
        # sqrt(9/4) = sqrt(9)/2: a square radicand folds into the rational part
        assert Surd(0, Fraction(1, 2), 9) == Fraction(3, 2)
        # sqrt(5/4) = sqrt(20)/4 = sqrt(5)/2
        assert Surd(0, Fraction(1, 4), 20) == Surd(0, Fraction(1, 2), 5)
        with pytest.raises(ValueError):
            Surd(0, 1, -1)

    def test_random_axioms_match_fraction_oracle(self):
        rng = random.Random(12345)

        def rand():
            return Surd(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                5,
            )

        for _ in range(250):
            x, y, z = rand(), rand(), rand()
            assert (x + y) * z == x * z + y * z
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            if z != 0:
                assert (x / z) * z == x
            fx = float(x.q0) + float(x.q1) * math.sqrt(5)
            assert math.isclose(float(x), fx, rel_tol=0, abs_tol=1e-12)


class TestTrustedConstructor:
    """Arithmetic builds its results with ``Surd._make``, which trusts canonical operands."""

    @pytest.mark.parametrize("d, pairs", [(1, 200), (2, 200), (5, 200), (65, 200), (999_999_999_989, 1)])
    def test_results_equal_canonical_rebuild(self, d, pairs):
        rng = random.Random(d)

        def operand():
            q0 = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            q1 = Fraction(rng.randint(-99, 99), rng.randint(1, 99)) if d > 1 and rng.random() < 0.8 else 0
            return Surd._make(q0, Fraction(q1), d)

        for _ in range(pairs):
            x, y = operand(), operand()
            results = [x + y, x - y, x * y, -x, x + 1, 1 - x, Fraction(1, 3) * x]
            if y:
                results.append(x / y)
            for r in results:
                rebuilt = Surd(r.q0, r.q1, r.d)
                assert (type(r.q0), type(r.q1)) == (Fraction, Fraction)
                assert (r.q0, r.q1, r.d) == (rebuilt.q0, rebuilt.q1, rebuilt.d)
                assert hash(r) == hash(rebuilt)

    def test_large_radicand_arithmetic_is_fast(self):
        x = Surd(0, 1, 999_999_999_989)  # the square-free split runs here, once
        t0 = time.perf_counter()
        y = x + 1
        z = y * y
        assert time.perf_counter() - t0 < 0.01
        assert z == Surd(999_999_999_990, 2, 999_999_999_989)


def _general_product(x: Surd, y: Surd) -> Surd:
    """x*y by the general Q(sqrt d) formula, whatever the operands' kinds."""
    d = x.d if y.d == 1 else y.d
    return Surd(x.q0 * y.q0 + x.q1 * y.q1 * d, x.q0 * y.q1 + x.q1 * y.q0, d)


def _general_quotient(x: Surd, y: Surd) -> Surd:
    """x/y by the general formula: times the conjugate of y, over its norm."""
    d = x.d if y.d == 1 else y.d
    norm = y.q0 * y.q0 - y.q1 * y.q1 * d
    return Surd((x.q0 * y.q0 - x.q1 * y.q1 * d) / norm, (x.q1 * y.q0 - x.q0 * y.q1) / norm, d)


def _mixed_rational(rng: random.Random) -> Fraction:
    """0, a small rational, or one of 60-digit numerator and denominator, of either sign."""
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(0)
    size = 10**60 if kind == 2 else 99
    return Fraction(rng.choice((-1, 1)) * rng.randint(size // 10, size), rng.randint(size // 10, size))


class TestMixedPaths:
    """A product with a rational factor and a quotient by a nonzero rational
    scale both coefficients; they equal the general formula, kept here, and
    sympy, and never compare radicands."""

    @pytest.mark.parametrize("d", [2, 3, 5, 6])
    def test_match_general_formula_and_sympy(self, d):
        sympy = pytest.importorskip("sympy")

        def sym(x):
            x = EXACT(x)
            q0, q1 = (sympy.Rational(q.numerator, q.denominator) for q in (x.q0, x.q1))
            return q0 + q1 * sympy.sqrt(x.d)

        rng = random.Random(f"mixed-{d}")
        for _ in range(40):
            x = Surd(_mixed_rational(rng), _mixed_rational(rng) or 1, d)
            r = _mixed_rational(rng)
            k = rng.choice((0, -1, 3, rng.randint(-(10**60), 10**60)))
            cases = [(x * r, x, r, _general_product), (r * x, r, x, _general_product)]
            cases += [(x * Surd(r), x, r, _general_product), (Surd(r) * x, r, x, _general_product)]
            cases += [(k * x, k, x, _general_product), (x * k, x, k, _general_product)]
            if r:
                cases += [(x / r, x, r, _general_quotient), (x / Surd(r), x, r, _general_quotient)]
            for got, u, v, general in cases:
                assert got == general(EXACT(u), EXACT(v)), (u, v)
                rebuilt = Surd(got.q0, got.q1, got.d)  # canonical: d == 1 where q1 vanishes
                assert (got.q0, got.q1, got.d) == (rebuilt.q0, rebuilt.q1, rebuilt.d)
                oracle = sym(u) * sym(v) if general is _general_product else sym(u) / sym(v)
                assert sympy.expand(sym(got) - oracle) == 0, (u, v)

    def test_zero_product_is_rational(self):
        x = Surd(Fraction(1, 3), Fraction(2, 7), 5)
        for z in (x * 0, 0 * x, x * Fraction(0), Surd(0) * x):
            assert z == 0 and (z.q1, z.d) == (0, 1)

    def test_zero_divisor_and_mixed_radicands_still_raise(self):
        x = Surd(Fraction(1, 3), Fraction(2, 7), 5)
        for zero in (0, Fraction(0), Surd(0)):
            with pytest.raises(ZeroDivisionError):
                x / zero
            with pytest.raises(ZeroDivisionError):
                Surd(Fraction(2, 3)) / zero
        with pytest.raises(MixedRadicandError):
            Surd(0, 1, 2) * Surd(0, 1, 3)
        with pytest.raises(MixedRadicandError):
            Surd(0, 1, 2) / Surd(1, 1, 3)

    def test_mixed_paths_never_compare_radicands(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("_common_d reached")

        x = Surd(Fraction(-5, 3), Fraction(2, 7), 5)
        r = Fraction(-11, 13)
        monkeypatch.setattr(Surd, "_common_d", refuse)
        for got in (x * r, r * x, 3 * x, x * 3, x * Surd(r), Surd(r) * x, x / r, x / Surd(r), x / -2):
            assert got.d == 5
        assert Surd(r) * Surd(r) == r * r and Surd(r) / 2 == r / 2
        with pytest.raises(AssertionError, match="_common_d reached"):
            x * x  # the patch is in force


class TestComparisons:
    def test_cross_multiplication_oracle(self):
        # (3 - sqrt(5))/2 > 1/3 iff 7 > 3*sqrt(5) iff 49 > 45
        assert GOLDEN_A > Fraction(1, 3)
        # (3 - sqrt(5))/2 < 2/5 iff 11 > 5*sqrt(5) iff 121 > 125 is false... check:
        # a < 2/5 iff 15 - 5 sqrt(5) < 4 iff 11 < 5 sqrt(5) iff 121 < 125
        assert GOLDEN_A < Fraction(2, 5)
        assert GOLDEN_A < Fraction(1, 2)

    def test_total_order(self):
        xs = [Surd(0), GOLDEN_A, Surd(Fraction(1, 2)), Surd(0, 1, 5), Surd(3)]
        assert xs == sorted(xs)
        assert sorted(reversed(xs)) == xs

    def test_equality_and_hash_agree_with_rationals(self):
        assert Surd(Fraction(1, 2)) == Fraction(1, 2)
        assert hash(Surd(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert Surd(3) == 3 and hash(Surd(3)) == hash(3)
        assert Surd(0, 1, 2) != Surd(0, 1, 3)

    def test_mixed_radicand_rejected(self):
        with pytest.raises(MixedRadicandError):
            Surd(0, 1, 2) + Surd(0, 1, 3)
        with pytest.raises(MixedRadicandError):
            Surd(0, 1, 2) < Surd(0, 1, 3)
        # equality is structural, never raises
        assert not (Surd(0, 1, 2) == Surd(0, 1, 3))

    def test_float_mixing_rejected(self):
        with pytest.raises(MixedBackendError):
            Surd(1) + 0.5
        with pytest.raises(MixedBackendError):
            0.5 * GOLDEN_A
        with pytest.raises(MixedBackendError):
            GOLDEN_A < 0.5
        with pytest.raises(MixedBackendError):
            GOLDEN_A == 0.5

    def test_explicit_float_conversion(self):
        assert math.isclose(float(GOLDEN_A), (3 - math.sqrt(5)) / 2, abs_tol=1e-15)


def _random_surd(rng: random.Random, d: int) -> Surd:
    """Small coefficients, so equal pairs and near ties (99/70 vs sqrt(2)) both occur."""
    dens = [1, 2, 3, 5, 70, 99, 161]
    q0 = Fraction(rng.randint(-12, 12), rng.choice(dens))
    q1 = Fraction(rng.randint(-12, 12), rng.choice(dens)) if rng.random() < 0.7 else 0
    return Surd(q0, q1, d)


class TestComparisonOracle:
    """Ordering, equality and abs against sympy's algebraic numbers."""

    @pytest.mark.parametrize("d", [2, 5])
    def test_agrees_with_sympy(self, d):
        sympy = pytest.importorskip("sympy")

        def sym(x):
            x = EXACT(x)
            q0, q1 = (sympy.Rational(q.numerator, q.denominator) for q in (x.q0, x.q1))
            return q0 + q1 * sympy.sqrt(x.d)

        rng = random.Random(d)
        pool = [_random_surd(rng, d) for _ in range(40)]
        pool += [Surd(0, 1, d), Surd(Fraction(99, 70)), Surd(Fraction(161, 72)), 0, 3, Fraction(-7, 5)]
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(300)]
        pairs += [(x, x) for x in pool]
        for x, y in pairs:
            if not isinstance(x, Surd) and not isinstance(y, Surd):
                continue
            diff = sym(x) - sym(y)
            assert (x < y) == bool(diff < 0), (x, y)
            assert (x <= y) == bool(diff <= 0), (x, y)
            assert (x > y) == bool(diff > 0), (x, y)
            assert (x >= y) == bool(diff >= 0), (x, y)
            assert (x == y) == (diff == 0), (x, y)
        for x in pool:
            assert sympy.expand(sym(abs(x)) - sympy.Abs(sym(x))) == 0, x


def _pell(x: int, y: int, d: int, steps: int) -> list:
    """Surds x - y*sqrt(d) for successive Pell solutions: each is +-1/(x + y*sqrt(d))."""
    out = []
    x1, y1 = x, y
    for _ in range(steps):
        out.append(Surd(x, -y, d))
        x, y = x * x1 + d * y * y1, x * y1 + y * x1
    return out


class TestFloatOracle:
    """float(Surd) is the double nearest the true value (sympy, 60 digits)."""

    def test_correctly_rounded(self):
        sympy = pytest.importorskip("sympy")

        def nearest(x):
            q0, q1 = (sympy.Rational(q.numerator, q.denominator) for q in (x.q0, x.q1))
            return float(Fraction(str(sympy.N(q0 + q1 * sympy.sqrt(x.d), 60))))

        rng = random.Random(2026)
        cases = [Surd(-math.isqrt(2 * 10**36), 10**18, 2)]
        for digits in (1, 6, 20, 40):
            top = 10**digits
            for d in (2, 3, 5, 10, 1_000_003):
                for _ in range(6):
                    q0 = Fraction(rng.randint(-top, top), rng.randint(1, top))
                    q1 = Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, top))
                    cases.append(Surd(q0, q1, d))
        # cancelling pairs: truncated roots and Pell solutions land near 0
        for d in (2, 3, 5, 7, 13):
            for m in (9, 18, 30, 60):
                cases.append(Surd(-math.isqrt(d * 10 ** (2 * m)), 10**m, d))
        cases += _pell(3, 2, 2, 40) + _pell(2, 1, 3, 30) + _pell(9, 4, 5, 30)
        cases += [-x for x in cases[-20:]] + [x / 7 for x in cases[-20:]]
        for x in cases:
            assert float(x) == nearest(x), x
        assert abs(float(cases[0]) - 0.80169) < 1e-5


class TestFamilyRoots:
    """The quadratic roots used by the nonconstant density family."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_even_root_identity(self, n):
        m = n // 2
        a = Surd(Fraction(n + 1, n), Fraction(-1, n), n * n + 1)
        assert m * a == (1 - m * a) * (1 - a)
        assert Fraction(1, n + 1) < a <= Fraction(1, n)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_odd_root_identity(self, n):
        m = (n + 1) // 2
        a = Surd(1, Fraction(-1, n + 1), n * n - 1)
        assert (m - 1) * a == (1 - m * a) * (1 - a)
        assert Fraction(1, n + 1) < a <= Fraction(1, n)


REJECTS = ["", "abc", "1//2", "sqrt(2)+sqrt(3)", "1/0", "sqrt(-1)", "2..5", "inf", "nan", "3/-4", "1_000", "2/"]


class TestParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/3", Surd(Fraction(1, 3))),
            ("7", Surd(7)),
            ("-2/5", Surd(Fraction(-2, 5))),
            ("sqrt(5)", Surd(0, 1, 5)),
            ("-sqrt(2)", Surd(0, -1, 2)),
            ("3/2 - 1/2*sqrt(5)", GOLDEN_A),
            ("1/2 + 1/2*sqrt(5)", Surd(Fraction(1, 2), Fraction(1, 2), 5)),
            ("2*sqrt(8)", Surd(0, 4, 2)),
            ("+4/6", Surd(Fraction(2, 3))),
            ("-0", Surd(0)),
            (" 1 / 2 ", Surd(Fraction(1, 2))),
            ("\u0661\u0662/\u0663", Surd(4)),  # Arabic-Indic digits, as int() reads them
        ],
    )
    def test_exact_forms(self, text, value):
        got = parse_scalar(text)
        assert isinstance(got, Surd) and got == value

    @pytest.mark.parametrize("text,value", [("0.25", 0.25), ("1e-3", 1e-3), ("-3.5", -3.5)])
    def test_decimal_forms_are_float(self, text, value):
        got = parse_scalar(text)
        assert isinstance(got, float) and got == value

    @pytest.mark.parametrize("text", REJECTS)
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_scalar(text)

    def test_format_round_trips_exact(self):
        for x in (GOLDEN_A, Surd(0), Surd(-3), Surd(0, Fraction(-2, 7), 3), Surd(5, 1, 2)):
            assert parse_scalar(format_scalar(x)) == x

    def test_format_round_trips_float(self):
        for v in (0.1, -2.5e-7, 1.0, math.pi):
            assert parse_scalar(format_scalar(v)) == v

    @given(
        st.fractions(min_value=-100, max_value=100, max_denominator=1000),
        st.fractions(min_value=-100, max_value=100, max_denominator=1000),
        st.sampled_from([1, 2, 3, 5, 7, 10]),
    )
    def test_round_trip_property(self, q0, q1, d):
        x = Surd(q0, q1, d)
        assert parse_scalar(format_scalar(x)) == x


_TERM_SPLIT = re.compile(r"[+-]?[^+-]+")
_SURD_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?sqrt\((\d+)\)")
_RATIONAL_TERM = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_by_surd_sums(text: str):
    """The parser that summed one Surd per term, kept as the reference for
    parse_scalar's values, types and error texts."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty scalar")
    limit = sys.get_int_max_str_digits()
    if (not limit or len(s) <= limit) and _RATIONAL_TERM.fullmatch(s):
        p, _, q = s.partition("/")
        try:
            return Surd(Fraction(int(p), int(q or 1)))
        except ZeroDivisionError as exc:
            raise ParseError(f"zero denominator in {_echo(text)}") from exc
    if "sqrt" not in s and re.search("[.eE]", s):
        try:
            v = float(s)
        except ValueError as exc:
            raise ParseError(f"bad scalar {_echo(text)}") from exc
        if not math.isfinite(v):
            raise ParseError(f"non-finite scalar {_echo(text)}")
        return v
    if limit and len(s) > limit and any(len(run) > limit for run in re.findall(r"\d+", s)):
        raise ParseError(_digit_limit())
    total = EXACT.zero
    pos = 0
    try:
        for m in _TERM_SPLIT.finditer(s):
            if m.start() != pos:
                raise ParseError(f"bad scalar {_echo(text)}")
            pos = m.end()
            term = m.group(0)
            sm = _SURD_TERM.fullmatch(term)
            if sm:
                sign, coeff, d = sm.groups()
                q1 = Fraction(coeff) if coeff else Fraction(1)
                if sign == "-":
                    q1 = -q1
                total = total + Surd(0, q1, int(d))
                continue
            if _RATIONAL_TERM.fullmatch(term):
                total = total + Surd(Fraction(term))
                continue
            raise ParseError(f"bad scalar term {_echo(term)} in {_echo(text)}")
    except MixedRadicandError as exc:
        raise ParseError(f"mixed radicands in {_echo(text)}") from exc
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator in {_echo(text)}") from exc
    if pos != len(s):
        raise ParseError(f"bad scalar {_echo(text)}")
    return total


def assert_parses_as_reference(text: str):
    """parse_scalar gives the reference's value and type, or raises its error
    with the same type and text."""
    try:
        want = parse_by_surd_sums(text)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            parse_scalar(text)
        assert type(got.value) is type(exc) and str(got.value) == str(exc), text
        return None
    got = parse_scalar(text)
    assert type(got) is type(want) and got == want, text
    if isinstance(got, Surd):
        assert (got.q0, got.q1, got.d) == (want.q0, want.q1, want.d), text
    return got


_DIGIT_SETS = ("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def scalar_sums(draw) -> str:
    """Sums of p/q, p/q*sqrt(d) and sqrt(d) terms, with signs, spaces, perfect
    squares, zero radicands, zero denominators, mixed radicands, Arabic-Indic
    digits and now and then a bad term."""
    digits = draw(st.sampled_from(_DIGIT_SETS))

    def number(top: int) -> str:
        return "".join(digits[int(c)] for c in str(draw(st.integers(0, top))))

    radicands = draw(st.lists(st.sampled_from([0, 1, 2, 4, 5, 8, 12, 18, 20, 45]), min_size=1, max_size=2))
    text = draw(st.sampled_from(["", "+", "-", " -"]))
    for i in range(draw(st.integers(1, 5))):
        if i:
            text += draw(st.sampled_from(["+", "-", " + ", " - "]))
        coeff = number(10**6) + (f"/{number(50)}" if draw(st.booleans()) else "")
        kind = draw(st.sampled_from(["rational", "surd", "root", "bad"]))
        if kind == "bad":
            text += draw(st.sampled_from(["abc", "sqrt(-1)", "1//2", "2*", "sqrt(2", "*sqrt(2)", "1.5"]))
            continue
        root = f"sqrt({draw(st.sampled_from(radicands))})"
        text += {"rational": coeff, "surd": f"{coeff}*{root}", "root": root}[kind]
    return text + draw(st.sampled_from(["", " ", "+"]))


class TestParserOracle:
    """parse_scalar against the per-term Surd sum it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(scalar_sums())
    def test_sums_match_reference(self, text):
        assert_parses_as_reference(text)

    @pytest.mark.parametrize(
        "text",
        [
            "1/3 + 2 - sqrt(8) + 1/2*sqrt(2)",
            "sqrt(0)",
            "3*sqrt(0) - 1/2",
            "sqrt(4)",
            "-1/3*sqrt(4) + 2*sqrt(5)",
            "-0",
            "- 0 * sqrt(3)",
            "0*sqrt(10000000000000)",
            "sqrt(2) - sqrt(2) + sqrt(3)",
            "sqrt(2) + sqrt(3) - sqrt(3)",
            " + 4 / 6 - 2/3 ",
            "١/٢ + ٣*sqrt(٥)",
            "1 + -2",
            "1 +",
            "+",
            "1/0*sqrt(2)",
            "0/0*sqrt(2)",
            "sqrt(2) + sqrt(3) + 1/0",
            "1/0 + sqrt(2) + sqrt(3)",
            "abc + 1/0",
            "1/2 - sqrt(12) + sqrt(75) - sqrt(7)",
            "sqrt(10000000000000)",
            "1e400",
            "1.5 + sqrt(2)",
            "1 + " + "7" * 5000 + "*sqrt(2)",
            *REJECTS,
        ],
    )
    def test_edge_cases_match_reference(self, text):
        assert_parses_as_reference(text)

    def test_bad_term_text(self):
        with pytest.raises(ParseError, match=r"^bad scalar term '\+abc' in '1/2 \+ abc'$"):
            parse_scalar("1/2 + abc")

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-(10**1000), 10**1000),
        st.integers(1, 10**1000),
        st.integers(-(10**1000), 10**1000),
        st.integers(1, 10**1000),
        st.sampled_from([1, 2, 3, 5, 65, 999999999989]),
    )
    def test_format_output_agrees_with_sympy(self, n0, den0, n1, den1, d):
        """Coefficients of up to 10^3 digits: the parse is the surd written, by
        the reference and by sympy's reading of the same text."""
        sympy = pytest.importorskip("sympy")
        x = Surd(Fraction(n0, den0), Fraction(n1, den1), d)
        text = format_scalar(x)
        got = assert_parses_as_reference(text)
        assert type(got) is Surd and (got.q0, got.q1, got.d) == (x.q0, x.q1, x.d)
        value = sympy.Rational(x.q0.numerator, x.q0.denominator)
        value += sympy.Rational(x.q1.numerator, x.q1.denominator) * sympy.sqrt(x.d)
        assert sympy.expand(sympy.sympify(text) - value) == 0


class TestRadicandSplits:
    def test_each_radicand_is_split_once(self):
        """200 entries over sqrt(999999999989), whose split trial-divides to
        10^6, make one split."""
        numerics._square_free_split.cache_clear()
        f = step_from_json_dict(
            {
                "breakpoints": ["0", *(f"{k}/200" for k in range(1, 200)), "1"],
                "values": [f"{k} + 1/2*sqrt(999999999989)" for k in range(200)],
                "backend": "exact-999999999989",
            }
        )
        assert f.radicand == 999999999989 and len(f.values) == 200
        assert numerics._square_free_split.cache_info().misses == 1


class TestInterval:
    def test_exact_endpoints(self):
        iv = Interval(0, Fraction(3, 4))
        assert isinstance(iv.lo, Surd) and isinstance(iv.hi, Surd)
        assert (iv.lo, iv.hi) == (0, Fraction(3, 4))
        assert iv == Interval(Surd(0), Surd(Fraction(3, 4)))
        assert iv != Interval(0, 1)
        assert repr(iv) == "[0, 3/4)"
        assert Interval(Fraction(1, 2), Fraction(1, 2)).lo == Fraction(1, 2)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Interval(Fraction(3, 4), Fraction(1, 4))

    def test_mixed_backend_rejected(self):
        with pytest.raises(MixedBackendError):
            Interval(0.25, Surd(Fraction(3, 4)))

    def test_float_backend(self):
        iv = Interval(0, 0.75)
        assert (iv.lo, iv.hi) == (0.0, 0.75) and isinstance(iv.lo, float)
        assert repr(iv) == "[0.0, 0.75)"


#: a maker of each value type, and one of its fields
VALUES = [
    (lambda: GOLDEN_A, "q0"),
    (lambda: Interval(0, 1), "lo"),
    (lambda: StepFunction.constant(1), "values"),
    (lambda: lebesgue_family(3), "a"),
]
VALUE_IDS = ["Surd", "Interval", "StepFunction", "EquippedSystem"]


class TestValueContract:
    """Immutable values, and operators that defer to what they cannot coerce."""

    @pytest.mark.parametrize("make,attr", VALUES, ids=VALUE_IDS)
    def test_assignment_raises(self, make, attr):
        x = make()
        before = getattr(x, attr)
        with pytest.raises(AttributeError):
            setattr(x, attr, before)
        with pytest.raises(AttributeError):
            x.extra = 0

    @pytest.mark.parametrize("make,attr", VALUES, ids=VALUE_IDS)
    def test_deletion_raises(self, make, attr):
        x = make()
        with pytest.raises(AttributeError):
            delattr(x, attr)
        assert x == make() and repr(x) == repr(make())

    def test_exact_never_equals_float(self):
        f, g = StepFunction.constant(1), StepFunction.constant(1.0)
        system = lebesgue_family(3)
        for x, y in ((f, g), (system, as_float_system(system))):
            assert (x == y) is False and (y == x) is False
            assert x != y and y != x

    @pytest.mark.parametrize(
        "f,g",
        [
            (StepFunction([0, GOLDEN_A, 1], [1, 1]), StepFunction.constant(1)),
            (StepFunction([0, Fraction(1, 4), Fraction(1, 2), 1], [1, 1, 2]), StepFunction([0, Fraction(1, 2), 1], [1, 2])),
            (StepFunction([0.0, 0.25, 1.0], [0.5, 0.5]), StepFunction.constant(0.5)),
        ],
        ids=["merged-irrational", "merged-rational", "float"],
    )
    def test_equal_step_functions_hash_and_write_alike(self, f, g):
        assert f == g and hash(f) == hash(g)
        assert step_to_json(f) == step_to_json(g)

    def test_every_construction_validates(self):
        system = lebesgue_family(3)
        with pytest.raises(ValueError, match="alpha1 must map into"):
            dataclasses.replace(system, alpha1=StepFunction.constant(2))
        assert dataclasses.replace(system, a=system.a) == system

    @pytest.mark.parametrize("other", ["x", None, object(), True], ids=["str", "None", "object", "bool"])
    def test_foreign_operand(self, other):
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.add, operator.truediv):
            with pytest.raises(TypeError):
                op(GOLDEN_A, other)
            with pytest.raises(TypeError):
                op(other, GOLDEN_A)
        with pytest.raises(TypeError):
            other - GOLDEN_A
        assert (GOLDEN_A == other) is False and (other == GOLDEN_A) is False

    def test_non_integer_power(self):
        with pytest.raises(TypeError):
            Surd(1) ** 0.5

    def test_step_function_operand_is_deferred_to(self):
        f = StepFunction([0, Fraction(1, 2), 1], [1, 3])
        assert Surd(2) * f == StepFunction([0, Fraction(1, 2), 1], [2, 6])
        assert Surd(1) - f == StepFunction([0, Fraction(1, 2), 1], [0, -2])


class TestMaxOrNan:
    @pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan]])
    def test_a_nan_anywhere_wins(self, values):
        assert math.isnan(max_or_nan(values))

    def test_max_alone_skips_a_later_nan(self):
        assert max([1.0, math.nan, 2.0]) == 2.0

    def test_largest_or_default(self):
        assert max_or_nan([1.0, math.inf, -2.0]) == math.inf
        assert max_or_nan([], 0.0) == 0.0
        assert max_or_nan([Surd(1), GOLDEN_A, Surd(Fraction(1, 2))]) == 1

    def test_exact_values_are_not_tested_for_nan(self, monkeypatch):
        calls = []
        eq = Surd.__eq__
        monkeypatch.setattr(Surd, "__eq__", lambda x, y: calls.append(1) or eq(x, y))
        largest = max_or_nan([Surd(Fraction(1, 3)), GOLDEN_A])
        monkeypatch.undo()
        assert calls == [] and largest == GOLDEN_A
