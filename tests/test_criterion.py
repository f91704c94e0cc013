"""Invariance window identities, the condition report, and the alpha1 solver."""

import math
import random
import time
from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from conftest import (
    JUMP_FORM_CASES,
    assert_close_on_cells,
    compose_by_preimages,
    jump_form_systems,
    make_exact_step,
    make_exact_system,
    make_fraction_grid,
)
from test_system import GOLDEN_A, golden_system
from twoval import criterion
from twoval.criterion import (
    InfeasibleError,
    _alpha_from_target,
    _identity,
    check_invariance_conditions,
    invariance_defect,
    solve_alpha1,
)
from twoval.families import lebesgue_family, nonconstant_family
from twoval.numerics import Interval, Surd
from twoval.piecewise import StepFunction, combine
from twoval.system import EquippedSystem, as_float_system, derive_n, pushforward_density


def float_golden_system(beta=1.0, gamma=0.0):
    a = float(GOLDEN_A)
    p = StepFunction([0.0, a, 1 - a, 1.0], [beta, (beta + gamma) * (1 - a), gamma])
    alpha1 = StepFunction([0.0, a, 1 - a, 1.0], [0.0, gamma / (beta + gamma), 0.0])
    return EquippedSystem(a, p, alpha1)


class TestConditionReport:
    def test_golden_family_passes_exactly(self):
        for beta, gamma in [(1, 0), (0, 1), (1, 2), (3, 5)]:
            report = check_invariance_conditions(golden_system(beta, gamma))
            assert report.passed and report.n == 2
            assert report.max_deviation == 0
            assert len(report.checks) == 3  # two density windows + one weight window

    def test_wrong_alpha1_fails_only_weight_identity(self):
        s = golden_system(1, 0)
        bad = EquippedSystem(s.a, s.density, StepFunction.constant(Fraction(1, 2)))
        report = check_invariance_conditions(bad)
        assert report.density_window_full.passed
        assert report.density_window_short.passed
        assert not report.weight_identity[0].passed
        assert not report.passed
        # forced weight is 0 on the middle strip, so alpha1*p deviates by p/2
        assert report.weight_identity[0].deviation == (1 - GOLDEN_A) / 2

    def test_uniform_density_off_family_parameter(self):
        s = EquippedSystem(
            Fraction(9, 20), StepFunction.constant(1), StepFunction.constant(Fraction(1, 2))
        )
        report = check_invariance_conditions(s)
        assert not report.passed
        assert report.density_window_full.deviation == Fraction(7, 11)
        assert report.density_window_short.deviation == Fraction(2, 11)

    def test_uniform_density_near_one_third(self):
        s = EquippedSystem(
            Fraction(301, 1000), StepFunction.constant(1), StepFunction.constant(0)
        )
        report = check_invariance_conditions(s)
        assert report.n == 3
        assert report.density_window_full.deviation == Fraction(68, 233)
        assert report.density_window_short.deviation == Fraction(97, 699)

    def test_half_parameter_uniform_passes_for_any_alpha1(self):
        rng = random.Random(17)
        for _ in range(3):
            grid = [Fraction(0), Fraction(rng.randint(1, 9), 10), Fraction(1)]
            alpha1 = StepFunction(grid, [Fraction(rng.randint(0, 4), 4) for _ in range(2)])
            s = EquippedSystem(Fraction(1, 2), StepFunction.constant(1), alpha1)
            report = check_invariance_conditions(s)
            assert report.passed and report.max_deviation == 0
            assert report.density_window_full.vacuous
            assert all(c.vacuous for c in report.weight_identity)
            assert invariance_defect(s).sup_norm() == 0

    def test_vacuous_windows_at_reciprocal_parameter(self):
        s = solve_alpha1(Fraction(1, 4), StepFunction.constant(1))
        report = check_invariance_conditions(s)
        assert report.density_window_full.vacuous
        assert report.weight_identity[-1].vacuous
        assert not report.weight_identity[0].vacuous

    def test_conditions_match_invariance_exactly(self):
        rng = random.Random(71)
        systems = [make_exact_system(rng) for _ in range(20)]
        systems += [golden_system(1, 2), solve_alpha1(Fraction(1, 5), StepFunction.constant(1))]
        for s in systems:
            conditions_hold = check_invariance_conditions(s).passed
            invariant = invariance_defect(s).sup_norm() == 0
            assert conditions_hold == invariant


def shifted_in_window(system: EquippedSystem, m: int) -> EquippedSystem:
    """alpha1 moved by 1/3 on the piece of it that holds the middle of J_m (m < n-2)."""
    a = system.a
    lo, hi = (m + 1) * a, (m + 2) * a
    bps = system.alpha1.breakpoints
    i = bisect_right(bps, (lo + hi) / 2) - 1
    v = system.alpha1.values[i]
    step = Fraction(1, 3) if v <= Fraction(1, 2) else Fraction(-1, 3)
    bump = step * StepFunction.indicator(max(bps[i], lo), min(bps[i + 1], hi))
    return EquippedSystem(a, system.density, system.alpha1 + bump)


class TestLargeN:
    """The window identities against the pushforward defect, at sizes the other tests do not reach."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: lebesgue_family(40),
            lambda: lebesgue_family(80),
            lambda: nonconstant_family(16, 2, 3),
            lambda: nonconstant_family(32, 5, 1),
            lambda: solve_alpha1(Fraction(1, 80), StepFunction.constant(1)),
        ],
        ids=["lebesgue-40", "lebesgue-80", "nonconstant-16", "nonconstant-32", "solved-1/80"],
    )
    def test_conditions_match_defect(self, build):
        system = build()
        report = check_invariance_conditions(system)
        assert report.passed and invariance_defect(system).sup_norm() == 0
        m = (system.n - 2) // 2
        shifted = shifted_in_window(system, m)
        report = check_invariance_conditions(shifted)
        assert [c.name for c in report.checks if not c.passed] == [f"weight_identity[{m}]"]
        assert invariance_defect(shifted).sup_norm() != 0


class TestLinearCost:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_translates_linear_in_n(self, n, monkeypatch):
        calls = []
        jumps = []
        builds = []
        adds = []
        compose = StepFunction.compose_affine
        sum_jumps = criterion.from_jumps
        init = StepFunction.__init__
        surd_add = Surd.__add__

        def counted(self, c, b):
            calls.append(None)
            return compose(self, c, b)

        def counted_jumps(js, scalars):
            jumps.append(len(js))
            return sum_jumps(js, scalars)

        def counted_init(self, *args):
            builds.append(None)
            init(self, *args)

        def counted_add(self, other):
            adds.append(None)
            return surd_add(self, other)

        monkeypatch.setattr(StepFunction, "compose_affine", counted)
        monkeypatch.setattr(criterion, "from_jumps", counted_jumps)
        monkeypatch.setattr(StepFunction, "__init__", counted_init)
        monkeypatch.setattr(Surd, "__add__", counted_add)
        for system in (lebesgue_family(n), as_float_system(lebesgue_family(n))):
            # one translate sum of the 2n+1 translates' jumps for all three families
            jump_cap = (2 * n + 1) * (len(system.density.values) + 1)
            add_cap = 16 * (n + 1) * (len(system.density.values) + 1)
            for counters in (calls, jumps, builds, adds):
                counters.clear()
            check_invariance_conditions(system)
            assert calls == []
            assert len(jumps) == 1 and jumps[0] <= jump_cap
            # S only, each window read on the cells of S or of alpha1, p and S there
            assert len(builds) <= 1
            assert len(adds) <= add_cap
            for counters in (calls, jumps, builds, adds):
                counters.clear()
            solve_alpha1(system.a, system.density)
            assert calls == []
            assert len(jumps) == 1 and jumps[0] <= jump_cap
            # S, then alpha1 from the cells of S and p on [a, 1-a)
            assert len(builds) <= 2
            assert len(adds) <= add_cap

    def test_lebesgue_320_under_half_a_second(self):
        system = lebesgue_family(320)
        t0 = time.perf_counter()
        assert check_invariance_conditions(system).passed
        t1 = time.perf_counter()
        assert solve_alpha1(system.a, system.density) == system
        t2 = time.perf_counter()
        assert t1 - t0 < 0.5
        assert t2 - t1 < 0.5

    def test_failing_lebesgue_320_under_a_fifth_of_a_second(self):
        # alpha1 = 1/2 misses the staircase on every window, so A1 - S has O(n) pieces
        system = lebesgue_family(320)
        bad = EquippedSystem(system.a, system.density, StepFunction.constant(Fraction(1, 2)))
        t0 = time.perf_counter()
        report = check_invariance_conditions(bad)
        assert time.perf_counter() - t0 < 0.2
        assert sum(not c.passed for c in report.checks) == system.n - 2  # every J_m but the empty last one


def _identity_by_grid(a, n: int, p: StepFunction) -> StepFunction:
    """S as 2n+1 composed translates summed in one walk over their merged grid."""
    w = 1 - a
    plus = [compose_by_preimages(p, 1, k * a) for k in range(-n, 1)]
    minus = [compose_by_preimages(p, 1 / w, k * a / w) for k in range(-n, 0)]
    split = len(plus)
    return combine(lambda *vs: reduce(add, vs[:split]) - reduce(add, vs[split:]) / w, *plus, *minus)


def _statuses(system: EquippedSystem) -> list:
    return [(c.name, c.vacuous, c.passed) for c in check_invariance_conditions(system).checks]


class TestJumpForm:
    """The translate sum S, built from jumps, against the grid walk over composed translates:
    equal on exact systems; on their float copies, close on every cell wider
    than 1e-9 and with the same verdict on every window."""

    @pytest.mark.parametrize("case", JUMP_FORM_CASES)
    def test_translate_sum_matches_grid_walk(self, case, monkeypatch):
        for system in jump_form_systems(case):
            s = system
            assert _identity(s.a, s.n, s.density) == _identity_by_grid(s.a, s.n, s.density)
            s = as_float_system(system)
            assert_close_on_cells(_identity(s.a, s.n, s.density), _identity_by_grid(s.a, s.n, s.density))
            statuses = _statuses(s)
            with monkeypatch.context() as m:
                m.setattr(criterion, "_identity", _identity_by_grid)
                assert statuses == _statuses(s)


def _checks_by_masks(system: EquippedSystem) -> list:
    """(name, window, deviation, passed, vacuous) of every check, each window
    read as the sup of S or A1 - S masked to it: the density windows on S
    shifted by (n-1)a and (n-2)a, the J_m on A1 - S where they lie."""
    a, n, b = system.a, system.n, system.density.scalars
    s = _identity(a, n, system.density)
    diff = system.weight_first - s
    split = 1 - (n - 1) * a
    windows = [("density_window_full", s, a, split, (n - 1) * a), ("density_window_short", s, split, 2 * a, (n - 2) * a)]
    windows += [
        (f"weight_identity[{m}]", diff, (m + 1) * a, (m + 2) * a if m < n - 2 else 1 - a, 0) for m in range(n - 1)
    ]
    out = []
    for name, f, lo, hi, shift in windows:
        if not hi - lo > b.snap:
            out.append((name, Interval(min(lo, hi), min(lo, hi)), b.zero, True, True))
            continue
        dev = f.mask(lo + shift, hi + shift).sup_norm()
        out.append((name, Interval(lo, hi), dev, dev <= b.tol, False))
    return out


def _failing_copies(system: EquippedSystem) -> list:
    """The system with alpha1 = 1/2, and with its middle density piece raised by 1/7."""
    p = system.density
    values = list(p.values)
    values[len(values) // 2] += Fraction(1, 7)
    return [
        EquippedSystem(system.a, p, StepFunction.constant(Fraction(1, 2))),
        EquippedSystem(system.a, StepFunction(p.breakpoints, values), system.alpha1),
    ]


class TestOneWalk:
    """Every window read on its own cells, S on the density windows and
    alpha1*p - S on each J_m, against a mask per window."""

    @pytest.mark.parametrize("case", JUMP_FORM_CASES)
    def test_checks_match_masks(self, case):
        failing = 0
        for system in jump_form_systems(case):
            for s in [system, *_failing_copies(system)]:
                for t in (s, as_float_system(s)):
                    report = check_invariance_conditions(t)
                    assert [(c.name, c.window, c.deviation, c.passed, c.vacuous) for c in report.checks] == (
                        _checks_by_masks(t)
                    )
                    failing += not report.passed
        assert failing >= 2 * len(jump_form_systems(case))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_deviation_is_on_the_backend(self, n):
        # at a = 1/n the full window and the last J_m are empty: vacuous
        system = lebesgue_family(n)
        for s, kind in ((system, Surd), (as_float_system(system), float)):
            report = check_invariance_conditions(s)
            assert any(c.vacuous for c in report.checks)
            assert all(type(c.deviation) is kind for c in report.checks)
            assert type(report.max_deviation) is kind


def _oracle_deviations(system: EquippedSystem) -> list:
    """The paper's full, short and J_m identities summed term by term at the
    midpoints between every place where a term can jump; the largest |value|
    on each window, in the order of ConditionReport.checks."""
    a, n, p, alpha1 = system.a, system.n, system.density, system.alpha1
    w = 1 - a

    def P(x):
        return p(x) if 0 <= x <= 1 else 0

    def identity(x, plus_ks, minus_ks):
        return sum(P(x + k * a) for k in plus_ks) - sum(P((x + k * a) / w) for k in minus_ks) / w

    def worst(lo, hi, value):
        cuts = {lo, hi}
        for t in p.breakpoints + alpha1.breakpoints:
            for k in range(-n - 1, n + 1):
                cuts |= {t - k * a, w * t - k * a}
        cuts = sorted(x for x in cuts if lo <= x <= hi)
        return max((abs(value((x + y) / 2)) for x, y in zip(cuts, cuts[1:])), default=0)

    split = 1 - (n - 1) * a
    devs = [
        worst(a, split, lambda x: identity(x, range(-1, n), range(-1, n - 1))),
        worst(split, 2 * a, lambda x: identity(x, range(-1, n - 1), range(-1, n - 2))),
    ]
    for m in range(n - 1):
        hi = (m + 2) * a if m < n - 2 else w
        a1 = lambda x, m=m: alpha1(x) * p(x) - identity(x, range(-m - 1, 1), range(-m - 1, 0))  # noqa: E731
        devs.append(worst((m + 1) * a, hi, a1))
    return devs


class TestOracle:
    """Each window's deviation against the paper's sums, evaluated point by point."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_deviations_match_direct_sums(self, n):
        rng = random.Random(n)
        gap = Fraction(1, n) - Fraction(1, n + 1)
        systems = [lebesgue_family(n, fill=Fraction(1, 3)), nonconstant_family(n, 2, 3)]
        for _ in range(4):
            a = Fraction(1, n + 1) + gap * Fraction(rng.randint(1, 8), 8)
            grid = make_fraction_grid(rng)
            alpha1 = StepFunction(grid, [Fraction(rng.randint(0, 6), 6) for _ in range(len(grid) - 1)])
            systems.append(EquippedSystem(a, make_exact_step(rng, lo=0), alpha1))
        for s in systems:
            report = check_invariance_conditions(s)
            assert [c.deviation for c in report.checks] == _oracle_deviations(s)


class TestFloatBackend:
    def test_float_golden_passes_default_tolerance(self):
        report = check_invariance_conditions(float_golden_system(1.0, 2.0))
        assert report.passed
        assert report.max_deviation <= 1e-12

    def test_small_perturbation_fails(self):
        s = float_golden_system()
        bumped = s.density + StepFunction([0.0, float(GOLDEN_A), 1.0], [0.0, 1e-6])
        report = check_invariance_conditions(EquippedSystem(s.a, bumped, s.alpha1))
        assert not report.passed

    def test_float_solve_matches_exact_staircase(self):
        s = solve_alpha1(0.25, StepFunction.constant(1.0))
        assert check_invariance_conditions(s).passed
        assert abs(s.alpha1(0.3) - 2 / 3) < 1e-12
        assert abs(s.alpha1(0.6) - 1 / 3) < 1e-12


    @pytest.mark.parametrize("n", [n for n in [*range(3, 13), 49] if derive_n(1 / n) == n])
    def test_reciprocal_parameter_statuses_match_exact(self, n):
        # windows that are empty at a = 1/n are slivers of an ulp or two in
        # floats; 49 is the least n with fl(1/n) * n < 1, where [na, 1) is
        # one ulp wide
        def statuses(system):
            return [(c.name, c.vacuous, c.passed) for c in check_invariance_conditions(system).checks]

        assert statuses(as_float_system(lebesgue_family(n))) == statuses(lebesgue_family(n))

    def test_nan_deviation_fails(self):
        # at a = 1/2 the minus translates' jump sizes 2*p overflow: a
        # non-finite size makes the translate sum NaN from there on
        cases = [StepFunction.constant(1.7e308), StepFunction([0.0, 0.5, 1.0], [1.0, 1.7e308])]
        for density in cases:
            report = check_invariance_conditions(EquippedSystem(0.5, density, StepFunction.constant(0.5)))
            assert not report.density_window_short.passed
            assert repr(report.density_window_short.deviation) == repr(math.nan)
            assert repr(report.max_deviation) == repr(math.nan)
            assert not report.passed

    def test_large_density_fails_with_finite_deviation(self):
        # the translates of p = 1e308 overflow when summed in floats, but
        # not in the exact running sum
        s = as_float_system(lebesgue_family(3))
        report = check_invariance_conditions(EquippedSystem(s.a, StepFunction.constant(1e308), s.alpha1))
        assert not report.passed
        assert math.isfinite(report.max_deviation) and report.max_deviation > 1e292

    @pytest.mark.parametrize(
        "build",
        [
            lambda: lebesgue_family(3),
            lambda: nonconstant_family(3, 1, 2),
            lambda: nonconstant_family(4, 2, 3),
            lambda: jump_form_systems("ragged-8")[1],
        ],
        ids=["lebesgue-3", "nonconstant-3", "nonconstant-4", "ragged-8"],
    )
    def test_deviations_scale_exactly_with_the_density(self, build):
        # scaling p by 2^1000 scales every sum of its jumps by 2^1000, and
        # rounds the same; its largest value 2^1023 keeps each size finite
        s = as_float_system(build())
        p = s.density * (2.0**23 / s.density.max_value)
        small = check_invariance_conditions(EquippedSystem(s.a, p, s.alpha1))
        large = check_invariance_conditions(EquippedSystem(s.a, p * 2.0**1000, s.alpha1))
        assert [c.deviation for c in large.checks] == [math.ldexp(c.deviation, 1000) for c in small.checks]

    def test_density_beyond_double_range_sums_raise_nothing(self):
        # sizes -p/(1-a) overflow and level sums pass the double range
        density = StepFunction([0.0, 1 / 3, 2 / 3, 1.0], [1.7e308, 0.0, 1.7e308])
        system = EquippedSystem(0.26, density, StepFunction.constant(0.5))
        report = check_invariance_conditions(system)
        assert not report.passed and math.isnan(report.max_deviation)
        assert math.inf in pushforward_density(system).values
        with pytest.raises(InfeasibleError):
            solve_alpha1(system.a, density)


class TestSolveAlpha1:
    def test_golden_density_recovers_family_alpha1(self):
        for beta, gamma in [(1, 0), (1, 2), (3, 5)]:
            family = golden_system(beta, gamma)
            solved = solve_alpha1(GOLDEN_A, family.density)
            mid = Fraction(gamma, beta + gamma)
            expected = StepFunction([0, GOLDEN_A, 1 - GOLDEN_A, 1], [0, mid, 0])
            assert solved.alpha1 == expected
            assert check_invariance_conditions(solved).passed
            assert invariance_defect(solved).sup_norm() == 0

    def test_uniform_density_staircase(self):
        s = solve_alpha1(Fraction(1, 4), StepFunction.constant(1), fill=1)
        expected = StepFunction(
            [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1],
            [1, Fraction(2, 3), Fraction(1, 3), 1],
        )
        assert s.alpha1 == expected
        assert invariance_defect(s).sup_norm() == 0

    def test_half_parameter_everything_is_fill(self):
        s = solve_alpha1(Fraction(1, 2), StepFunction.constant(2), fill=Fraction(1, 3))
        assert s.alpha1 == StepFunction.constant(Fraction(1, 3))
        assert check_invariance_conditions(s).passed

    def test_infeasible_uniform_density(self):
        with pytest.raises(InfeasibleError) as exc:
            solve_alpha1(Fraction(9, 20), StepFunction.constant(1))
        assert exc.value.which == "density_window_full"
        assert exc.value.deviation == Fraction(7, 11)

    def test_infeasible_short_window_only(self):
        # at a = 1/n the full window is vacuous, so only the short one can fail
        density = StepFunction([0, Fraction(1, 2), 1], [1, 2])
        with pytest.raises(InfeasibleError) as exc:
            solve_alpha1(Fraction(1, 3), density)
        assert exc.value.which == "density_window_short"
        assert exc.value.deviation > 0

    def test_fill_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            solve_alpha1(Fraction(1, 2), StepFunction.constant(1), fill=2)


class TestRangeGuard:
    """The division step must reject forced weights outside [0, p]."""

    A = Fraction(2, 5)

    def test_target_above_density(self):
        target = StepFunction.constant(2).mask(self.A, 1 - self.A)
        with pytest.raises(InfeasibleError) as exc:
            _alpha_from_target(self.A, StepFunction.constant(1), target, 0, 0)
        assert exc.value.which == "range"
        assert exc.value.deviation == 1  # exceeds alpha1 = 1 by 1

    def test_negative_target(self):
        target = StepFunction.constant(-1).mask(self.A, 1 - self.A)
        with pytest.raises(InfeasibleError) as exc:
            _alpha_from_target(self.A, StepFunction.constant(1), target, 0, 0)
        assert exc.value.which == "range"

    def test_zero_density_with_zero_target_uses_fill(self):
        density = StepFunction([0, self.A, Fraction(1, 2), 1], [1, 0, 1])
        target = StepFunction.constant(0)
        alpha = _alpha_from_target(self.A, density, target, Fraction(1, 2), 0)
        assert alpha(Fraction(9, 20)) == Fraction(1, 2)

    def test_density_step_where_target_plus_density_is_flat(self):
        # p steps up at 1/2 by what the forced weight steps down, so
        # target + p is one piece across 1/2, yet alpha1 must step there
        density = StepFunction([0, Fraction(1, 2), 1], [1, 2])
        target = StepFunction.indicator(self.A, Fraction(1, 2))
        alpha = _alpha_from_target(self.A, density, target, 0, 0)
        assert alpha == StepFunction([0, self.A, Fraction(1, 2), 1], [0, 1, 0])

    @pytest.mark.parametrize(
        "density,target",
        [(1.0, float("nan")), (float("inf"), float("inf")), (0.0, float("nan"))],
    )
    def test_nan_ratio_is_infeasible(self, density, target):
        a = float(self.A)
        with pytest.raises(InfeasibleError) as exc:
            _alpha_from_target(a, StepFunction.constant(density), StepFunction.constant(target), 0.0, 1e-10)
        assert exc.value.which == "range"

    def test_zero_density_with_nonzero_target_is_infeasible(self):
        density = StepFunction([0, self.A, Fraction(1, 2), 1], [1, 0, 1])
        target = StepFunction.constant(Fraction(1, 10)).mask(self.A, Fraction(1, 2))
        with pytest.raises(InfeasibleError) as exc:
            _alpha_from_target(self.A, density, target, 0, 0)
        assert exc.value.which == "range"
