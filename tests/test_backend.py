"""One rule puts every scalar on a backend, at each public entry point.

Ints join either backend, neither a bool nor text is a scalar
(``TypeError``; ``parse_scalar`` reads text), and an exact scalar
(``Fraction`` or ``Surd``) mixed with a float raises ``MixedBackendError``.
"""

from fractions import Fraction

import pytest

from twoval.criterion import check_invariance_conditions, solve_alpha1
from twoval.expansion import enumerate_expansions, evaluate_expansion, orbit_expansion
from twoval.numerics import EXACT, FLOAT, Interval, MixedBackendError, Surd, backend_of
from twoval.piecewise import StepFunction
from twoval.system import EquippedSystem, as_float_system

H = Fraction(1, 2)
ONE = StepFunction([0, 1], [1])
ONE_F = StepFunction([0, 1], [1.0])

#: entry point -> zero-argument calls: (exact mixed with float, a bool,
#: an int on the exact backend, an int on the float backend, text).
#: evaluate_expansion takes one scalar, the base, so nothing can mix and an
#: int base is exact; those entries are None.
CASES = {
    "StepFunction": (
        lambda: StepFunction([0, H, 1], [1.0, 2.0]),
        lambda: StepFunction([0, 1], [True]),
        lambda: StepFunction([0, H, 1], [1, 2]),
        lambda: StepFunction([0, 0.5, 1], [1, 2]),
        lambda: StepFunction([0, "0.5", 1], [1, 2]),
    ),
    "StepFunction.indicator": (
        lambda: StepFunction.indicator(Fraction(1, 4), 0.5),
        lambda: StepFunction.indicator(True, 1),
        lambda: StepFunction.indicator(0, H),
        lambda: StepFunction.indicator(0, 0.5),
        lambda: StepFunction.indicator("1/4", H),
    ),
    "Interval": (
        lambda: Interval(Fraction(1, 4), 0.5),
        lambda: Interval(False, 1),
        lambda: Interval(0, H),
        lambda: Interval(0, 0.5),
        lambda: Interval(0, "0.5"),
    ),
    "EquippedSystem": (
        lambda: EquippedSystem(0.4, ONE, ONE),
        lambda: EquippedSystem(True, ONE, ONE),
        lambda: EquippedSystem(Fraction(2, 5), StepFunction([0, 1], [2]), ONE),
        lambda: EquippedSystem(0.4, StepFunction([0, 1], [2.0]), ONE_F),
        lambda: EquippedSystem("2/5", ONE, ONE),
    ),
    "solve_alpha1": (
        lambda: solve_alpha1(H, ONE_F),
        lambda: solve_alpha1(H, ONE, fill=True),
        lambda: solve_alpha1(H, ONE, fill=1),
        lambda: solve_alpha1(0.5, ONE_F, fill=1),
        lambda: solve_alpha1("1/4", ONE_F),
    ),
    "orbit_expansion": (
        lambda: orbit_expansion(H, 1.8, 4),
        lambda: orbit_expansion(True, 1.8, 4),
        lambda: orbit_expansion(1, Fraction(9, 5), 4),
        lambda: orbit_expansion(1, 1.8, 4),
        lambda: orbit_expansion(1, "sqrt(2)", 4),
    ),
    "enumerate_expansions": (
        lambda: enumerate_expansions(H, 1.8, 4),
        lambda: enumerate_expansions(False, 2, 4),
        lambda: enumerate_expansions(1, Fraction(9, 5), 4),
        lambda: enumerate_expansions(1, 1.8, 4),
        lambda: enumerate_expansions("1/2", 2, 4),
    ),
    "evaluate_expansion": (
        None,
        lambda: evaluate_expansion("101", True),
        lambda: evaluate_expansion("101", 2),
        None,
        lambda: evaluate_expansion("101", "9/5"),
    ),
}


@pytest.mark.parametrize("name", [n for n, calls in CASES.items() if calls[0]])
def test_exact_mixed_with_float_raises(name):
    with pytest.raises(MixedBackendError):
        CASES[name][0]()


@pytest.mark.parametrize("name", CASES)
def test_bool_raises_type_error(name):
    with pytest.raises(TypeError) as info:
        CASES[name][1]()
    assert info.type is TypeError


@pytest.mark.parametrize("name", CASES)
def test_text_raises_type_error(name):
    with pytest.raises(TypeError) as info:
        CASES[name][4]()
    assert info.type is TypeError


@pytest.mark.parametrize("system", [EquippedSystem(H, ONE, ONE), as_float_system(EquippedSystem(H, ONE, ONE))])
def test_text_tolerance_raises_type_error(system):
    with pytest.raises(TypeError) as info:
        check_invariance_conditions(system, tol="1/8")
    assert info.type is TypeError


@pytest.mark.parametrize(
    "name,side", [(n, side) for n, calls in CASES.items() for side in (2, 3) if calls[side]]
)
def test_int_accepted_on_both_backends(name, side):
    CASES[name][side]()


def test_the_rule_itself():
    assert EXACT(1) == Surd(1) and isinstance(EXACT(Fraction(1, 3)), Surd)
    assert FLOAT(1) == 1.0 and isinstance(FLOAT(1), float)
    assert backend_of(1, 2) is EXACT and backend_of(1, H) is EXACT
    assert backend_of(1, 0.5) is FLOAT
    for backend, foreign in ((EXACT, 0.5), (FLOAT, H), (FLOAT, Surd(H))):
        with pytest.raises(MixedBackendError):
            backend(foreign)
    with pytest.raises(MixedBackendError):
        backend_of(H, 0.5)
    for backend in (EXACT, FLOAT):
        for text in (True, "1/2", "0.5", "sqrt(2)"):
            with pytest.raises(TypeError) as info:
                backend(text)
            assert info.type is TypeError
    assert (EXACT.tol, EXACT.snap, FLOAT.tol, FLOAT.snap) == (0, 0, 1e-10, 1e-12)
