"""Closed-form families: invariance, masses, staircases, transfer fixed point."""

import random
from fractions import Fraction

import pytest

from conftest import assert_close_on_cells, compose_by_preimages, make_exact_step, make_float_step
from twoval.criterion import check_invariance_conditions, invariance_defect, solve_alpha1
from twoval.families import (
    _GOLDEN_INV,
    _family_parameter,
    lebesgue_family,
    nonconstant_family,
    renyi_density,
    renyi_system,
    renyi_transfer,
    total_mass,
)
from twoval.numerics import EXACT, Surd
from twoval.piecewise import StepFunction, from_jumps
from twoval.system import EquippedSystem, as_float_system, check_fill, system_to_json

WEIGHT_PAIRS = [(1, 0), (0, 1), (1, 2), (3, 5)]
#: (beta, gamma, fill) triples that cover both zero regions and a nonzero fill
FAMILY_TRIPLES = [(1, 1, 0), (1, 0, 0), (0, 1, Fraction(1, 2)), (Fraction(2, 3), Fraction(5, 7), 1), (3, 1, Fraction(1, 3))]


class TestLebesgueFamily:
    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_uniform_density_is_invariant(self, n):
        s = lebesgue_family(n)
        assert s.n == n and s.a == Fraction(1, n)
        assert check_invariance_conditions(s).passed
        assert invariance_defect(s).sup_norm() == 0

    def test_staircase_values(self):
        s = lebesgue_family(5, fill=1)
        expected = StepFunction(
            [Fraction(k, 5) for k in range(6)],
            [1, Fraction(3, 4), Fraction(2, 4), Fraction(1, 4), 1],
        )
        assert s.alpha1 == expected

    def test_n2_is_all_fill(self):
        assert lebesgue_family(2, fill=Fraction(1, 3)).alpha1 == StepFunction.constant(
            Fraction(1, 3)
        )

    @pytest.mark.parametrize("n", [*range(2, 41), 101])
    def test_matches_solver(self, n):
        fill = Fraction(2, 5)
        solved = solve_alpha1(Fraction(1, n), StepFunction.constant(1), fill=fill)
        assert system_to_json(lebesgue_family(n, fill=fill)) == system_to_json(solved)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            lebesgue_family(1)
        with pytest.raises(ValueError):
            lebesgue_family(3, fill=2)


class TestNonconstantFamily:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("weights", WEIGHT_PAIRS)
    def test_invariant_with_zero_deviation(self, n, weights):
        s = nonconstant_family(n, *weights)
        report = check_invariance_conditions(s)
        assert report.passed and report.max_deviation == 0
        assert invariance_defect(s).sup_norm() == 0

    @pytest.mark.parametrize("n", [*range(2, 41), 64, 101])
    def test_strip_formulas_match_solver(self, n):
        # the solver derives alpha1 from the window identities alone, so
        # agreement validates the closed-form strip values independently
        for beta, gamma, fill in FAMILY_TRIPLES:
            s = nonconstant_family(n, beta, gamma, fill=fill)
            solved = solve_alpha1(s.a, s.density, fill=fill)
            assert system_to_json(s) == system_to_json(solved), (beta, gamma, fill)

    def test_parameter_window(self):
        for n in range(2, 13):
            s = nonconstant_family(n, 1, 1)
            assert s.n == n
            assert Fraction(1, n + 1) < s.a < Fraction(1, n)

    def test_golden_parameter(self):
        assert nonconstant_family(2, 1, 1).a == Surd(Fraction(3, 2), Fraction(-1, 2), 5)

    def test_zero_gamma_density_vanishes_on_top_region(self):
        s = nonconstant_family(3, 2, 0)
        assert s.density(Fraction(9, 10)) == 0
        assert check_invariance_conditions(s).passed

    def test_fill_used_where_density_level_is_zero(self):
        # with beta = 0 the low-region strips are unconstrained
        s = nonconstant_family(4, 0, 1, fill=Fraction(1, 3))
        assert s.alpha1(Fraction(1, 100)) == Fraction(1, 3)
        assert check_invariance_conditions(s).passed

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            nonconstant_family(1, 1, 1)
        with pytest.raises(ValueError):
            nonconstant_family(3, 0, 0)
        with pytest.raises(ValueError):
            nonconstant_family(3, -1, 2)
        with pytest.raises(ValueError):
            nonconstant_family(3, 1, 1, fill=2)

    def test_float_copy_stays_invariant_numerically(self):
        s = as_float_system(nonconstant_family(6, 1, 2))
        report = check_invariance_conditions(s)
        assert report.passed
        assert invariance_defect(s).sup_norm() < 1e-12


def family_parameter_by_parity(n: int) -> Surd:
    """The family's parameter as one formula per parity of n, kept as its reference."""
    if n % 2 == 0:  # m*a/(1-a) = 1 - m*a with m = n/2
        return Surd(Fraction(n + 1, n), Fraction(-1, n), n * n + 1)
    return Surd(1, Fraction(-1, n + 1), n * n - 1)  # (m-1)*a/(1-a) = 1 - m*a with m = (n+1)/2


def nonconstant_family_by_cases(n: int, beta, gamma, *, fill=0) -> EquippedSystem:
    """The nonconstant family spelled out as even/odd case tables, kept as its reference."""
    beta, gamma, fill = EXACT(beta), EXACT(gamma), check_fill(fill, EXACT)
    even = n % 2 == 0
    m = n // 2 if even else (n + 1) // 2
    a = family_parameter_by_parity(n)
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
    return EquippedSystem(a, density, StepFunction(bps, values))


class TestFamilyOracles:
    """The family's strip rule and quadratic against the case tables they replace."""

    @pytest.mark.parametrize("beta,gamma,fill", FAMILY_TRIPLES)
    def test_json_matches_case_tables(self, beta, gamma, fill):
        for n in [*range(2, 65), 101, 200]:
            got = system_to_json(nonconstant_family(n, beta, gamma, fill=fill))
            assert got == system_to_json(nonconstant_family_by_cases(n, beta, gamma, fill=fill)), n

    def test_parameter_is_the_quadratic_root(self):
        for n in range(2, 10**4 + 1):
            a, m = _family_parameter(n), (n + 1) // 2
            assert a == family_parameter_by_parity(n), n
            assert m * a * a - (n + 1) * a + 1 == 0, n
            assert Fraction(1, n + 1) < a < Fraction(1, n), n


class TestTotalMass:
    def test_closed_form_examples(self):
        assert total_mass(2, 1, 0) == Surd(5, -2, 5)
        assert total_mass(3, Fraction(1, 2), Fraction(1, 2)) == Surd(-8, 3, 8)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
    @pytest.mark.parametrize("weights", WEIGHT_PAIRS)
    def test_matches_integral_exactly(self, n, weights):
        s = nonconstant_family(n, *weights)
        assert total_mass(n, *weights) == s.density.integrate()

    def test_positive_for_all_n(self):
        for n in range(2, 13):
            assert total_mass(n, 1, 1) > 0

    def test_float_value(self):
        assert abs(float(total_mass(2, 1, 0)) - (5 - 2 * 5 ** 0.5)) < 1e-15


class TestNormalize:
    def test_unit_mass_and_still_invariant(self):
        s = nonconstant_family(3, 1, 2)
        s = EquippedSystem(s.a, s.density / s.density.integrate(), s.alpha1)
        assert s.density.integrate() == 1
        assert check_invariance_conditions(s).passed


class TestRenyi:
    def test_density_is_fixed_exactly(self):
        h = renyi_density()
        assert renyi_transfer(h) == h

    def test_density_values_and_mass(self):
        h = renyi_density()
        assert h.values == (
            Surd(Fraction(1, 2), Fraction(3, 10), 5),
            Surd(Fraction(1, 2), Fraction(1, 10), 5),
        )
        assert h.integrate() == 1

    def test_transfer_conserves_mass(self):
        f = StepFunction([0, Fraction(1, 3), 1], [2, Fraction(1, 2)])
        assert renyi_transfer(f).integrate() == f.integrate()

    def test_transfer_strictly_contracts_other_densities(self):
        h = renyi_density()
        f = StepFunction.constant(1)
        d0 = abs(f - h).integrate()
        f5 = f
        for _ in range(5):
            f5 = renyi_transfer(f5)
        assert abs(f5 - h).integrate() < d0

    def test_system_levels_are_the_fixed_density_values(self):
        s = renyi_system()
        b1, b2 = renyi_density().values
        assert s.density.values[0] == b1
        assert s.density.values[1] == b2
        assert check_invariance_conditions(s).passed

    def test_float_transfer(self):
        h = renyi_density()
        hf = StepFunction([float(t) for t in h.breakpoints], [float(v) for v in h.values])
        assert (renyi_transfer(hf) - hf).sup_norm() < 1e-15

    def test_exact_transfer_matches_the_jump_formula(self):
        # (Lf)(y) = c*f(c*y) + c*f(c*y + c) moves each jump of f to t/c and t/c - 1
        c = _GOLDEN_INV
        rng = random.Random("renyi-exact")
        root5 = Surd(0, 1, 5)
        for i in range(40):
            f = make_exact_step(rng, max_cuts=8, lo=0)
            if i % 2:  # values in Q(sqrt(5)) too
                f = StepFunction(f.breakpoints, [v + rng.randint(0, 3) * root5 for v in f.values])
            oracle = from_jumps([(t / c - k, c * v) for k in (0, 1) for t, v in f.jumps()], f.scalars)
            assert renyi_transfer(f) == oracle

    def test_transfer_takes_densities_only(self):
        with pytest.raises(ValueError, match="nonnegative"):
            renyi_transfer(StepFunction([0, Fraction(1, 2), 1], [1, -1]))

    def test_density_is_the_system_density_rescaled(self):
        s = renyi_system()
        assert s.alpha1 == StepFunction.constant(0)
        assert s.density.breakpoints[-2] == _GOLDEN_INV and s.density.values[-1] == 0
        assert renyi_density() == s.density.compose_affine(_GOLDEN_INV, 0)

    def test_float_transfer_matches_composed_terms(self):
        c = float(renyi_density().breakpoints[1])  # 1/beta
        rng = random.Random("renyi-float")
        h = renyi_density()
        fs = [StepFunction([float(t) for t in h.breakpoints], [float(v) for v in h.values])]
        fs += [make_float_step(rng, max_cuts=8, lo=0.0) for _ in range(12)]
        for f in fs:
            oracle = c * (compose_by_preimages(f, c, 0) + compose_by_preimages(f, c, c))
            assert_close_on_cells(renyi_transfer(f), oracle)


class TestCoinIdentity:
    """At golden a with alpha1 constant at p, the n = 2 density with outer
    levels 1 - p and p is invariant: each point flips a p-coin for its digit."""

    @pytest.mark.parametrize(
        "p",
        [0, Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), 1, Surd(Fraction(1, 2), Fraction(1, 10), 5), _GOLDEN_INV],
        ids=["0", "1/2", "1/3", "2/7", "1", "1/2+sqrt5/10", "1/phi"],
    )
    def test_constant_alpha1_keeps_the_density(self, p):
        s = nonconstant_family(2, 1 - p, p)
        coin = EquippedSystem(s.a, s.density, StepFunction.constant(p))
        report = check_invariance_conditions(coin)
        assert report.passed and report.max_deviation == 0
        assert invariance_defect(coin).sup_norm() == 0
