"""Two-branch transformations: branch maps, equipped systems, pushforward."""

import json
import math
import random
from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np
import pytest

from conftest import (
    JUMP_FORM_CASES,
    assert_close_on_cells,
    compose_by_preimages,
    jump_form_systems,
    make_exact_step,
    make_exact_system,
    make_float_system,
    make_fraction_grid,
)
from twoval import cli, numerics
from twoval.families import _family_parameter, nonconstant_family
from twoval.numerics import EXACT, Interval, MixedBackendError, MixedRadicandError, ParseError, Surd
from twoval.piecewise import StepFunction, combine, step_to_json_dict
from twoval.simulate import _stepper
from twoval.system import (
    EquippedSystem,
    as_float_system,
    derive_n,
    pushforward_density,
    pushforward_measure,
    system_from_json,
    system_to_json,
)

GOLDEN_A = Surd(Fraction(3, 2), Fraction(-1, 2), 5)  # (3 - sqrt(5))/2, n = 2


def golden_system(beta=1, gamma=0, fill=0) -> EquippedSystem:
    """n = 2 member of the two-parameter invariant family, built by hand.

    p is beta on [0,a), (beta+gamma)(1-a) on [a,1-a), gamma on [1-a,1];
    alpha1 is gamma/(beta+gamma) on the middle strip and free elsewhere.
    """
    a = GOLDEN_A
    p = StepFunction([0, a, 1 - a, 1], [beta, (beta + gamma) * (1 - a), gamma])
    mid = Fraction(gamma, beta + gamma)
    alpha1 = StepFunction([0, a, 1 - a, 1], [fill, mid, fill])
    return EquippedSystem(a, p, alpha1)


class TestDeriveN:
    @pytest.mark.parametrize(
        "a,n",
        [
            (Fraction(1, 2), 2),
            (Fraction(9, 20), 2),
            (GOLDEN_A, 2),
            (Fraction(1, 3), 3),
            (Fraction(301, 1000), 3),
            (Fraction(1, 5), 5),
            (Fraction(21, 100), 4),
            (0.45, 2),
            (0.301, 3),
            (Fraction(1, 10**9), 10**9),
            (1e-9, 10**9 - 1),  # the double nearest 1e-9 lies above it
        ],
    )
    def test_window(self, a, n):
        assert derive_n(a) == n
        assert Fraction(1, n + 1) < a <= Fraction(1, n)

    @pytest.mark.parametrize("a", [0, Fraction(-1, 4), Fraction(3, 5), 0.51, -0.1])
    def test_out_of_range(self, a):
        with pytest.raises(ValueError):
            derive_n(a)


def derive_n_by_bisection(a) -> int:
    """derive_n as doubling then bisection alone, kept as its reference."""
    if not 0 < a or Fraction(1, 2) < a:
        raise ValueError(f"parameter must lie in (0, 1/2], got {a}")
    lo, hi = 2, 3
    while not Fraction(1, hi) < a:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if Fraction(1, mid) < a else (mid, hi)
    return lo


def _reciprocals_and_neighbours(n: int) -> list:
    """1/n exact, and 1/n's double with its two float neighbours."""
    x = 1 / n
    return [Fraction(1, n), x, math.nextafter(x, 0), math.nextafter(x, 1)]


#: n up to 200, then sampled up to the cap
FAMILY_NS = [*range(2, 201), *range(211, 10**4, 397), 10**4]


def _count_cmp(monkeypatch) -> list:
    """Patch Surd._cmp to append to the returned list on each call."""
    calls = []
    cmp = Surd._cmp

    def counted(self, o):
        calls.append(1)
        return cmp(self, o)

    monkeypatch.setattr(Surd, "_cmp", counted)
    return calls


class TestDeriveNOracle:
    """floor(1/a), from q // p or an integer square root, against bisection."""

    @staticmethod
    def assert_agrees(a):
        try:
            want = derive_n_by_bisection(a)
        except ValueError:
            with pytest.raises(ValueError, match="parameter must lie in"):
                derive_n(a)
            return
        assert derive_n(a) == want, a

    def test_reciprocals_and_their_neighbours(self):
        for n in [*range(2, 300), 1000, 4096, 9999, 10**4, 10**4 + 1, 2**40 - 1, 2**40, 10**15]:
            for a in _reciprocals_and_neighbours(n):
                self.assert_agrees(a)

    def test_family_surds(self):
        for n in FAMILY_NS:
            a = _family_parameter(n)
            self.assert_agrees(a)
            for eps in (Fraction(1, 10**30), Fraction(-1, 10**30)):
                self.assert_agrees(a + eps)

    @pytest.mark.parametrize(
        "a",
        [
            Fraction(1, 10001),
            Fraction(1, 10**400),  # 1/float(a) would divide by zero
            Fraction(1, 10**400) * Surd(0, 1, 2),
            1e-320,
            5e-324,
            Fraction(1, 2) + Fraction(1, 10**30),
            Surd(Fraction(1, 2), Fraction(1, 10**30), 2),
            Surd(Fraction(1, 2), Fraction(-1, 10**30), 2),
            0.5,
            math.nextafter(0.5, 1),
            Fraction(1, 3) + Fraction(1, 10**30),
            0,
            -0.25,
            0.75,
            1,
            2,
            Fraction(-1, 10**400),
            Fraction(10**400),  # float(a) would overflow
            -Fraction(10**400),
            Surd(10**400, 1, 2),
            math.inf,
            math.nan,
            # a = (u + c*sqrt(d))/den with u*u - c*c*d in {1, 2}: 1/a's sqrt(d) term is negative
            Surd(Fraction(1, 4), Fraction(1, 7), 3),
            Surd(Fraction(1, 4), Fraction(1, 9), 5),
            Surd(Fraction(1, 7), Fraction(1, 10), 2),
        ],
    )
    def test_edges(self, a, monkeypatch):
        self.assert_agrees(a)
        if isinstance(a, float) or not 0 < a <= Fraction(1, 2):
            return
        calls = _count_cmp(monkeypatch)
        derive_n(EXACT(a))
        assert len(calls) <= 2, len(calls)  # the range check alone

    def test_two_exact_comparisons_up_to_n_cap(self, monkeypatch):
        """Exact parameters with n <= 10^4 take two Surd comparisons each."""
        params = [EXACT(Fraction(1, n)) for n in range(2, 10**4 + 1)]
        params += [EXACT(Fraction(x)) for n in range(3, 10**4 + 1, 7) for x in _reciprocals_and_neighbours(n)[1:]]
        params += [_family_parameter(n) + eps for n in FAMILY_NS for eps in (0, Fraction(1, 10**30), Fraction(-1, 10**30))]
        calls = _count_cmp(monkeypatch)
        for a in params:
            calls.clear()
            n = derive_n(a)
            assert len(calls) <= 2 and n <= 10**4, (a, len(calls))


def branch_step(a, first: bool, xs) -> np.ndarray:
    """One step of the first (alpha1 = 1) or second (alpha1 = 0) map, coins all zero."""
    p = StepFunction.constant(1)
    system = EquippedSystem(a, p, StepFunction.constant(1 if first else 0))
    xs = np.array([float(x) for x in xs])
    return _stepper(system)(xs, np.zeros(len(xs)), np.empty(len(xs), dtype=np.intp), np.empty(len(xs)))


class TestBranchMaps:
    def test_first_map_pieces(self):
        a = Fraction(2, 5)
        w = Fraction(3, 5)
        # below the cut 1-a: x/(1-a); above: (x-a)/(1-a)
        got = branch_step(a, True, [Fraction(3, 10), w, 1])
        assert got == pytest.approx([1 / 2, 1 / 3, 1], rel=0, abs=1e-15)

    def test_second_map_pieces(self):
        a = Fraction(2, 5)
        got = branch_step(a, False, [Fraction(3, 10), a, 1])
        assert got == pytest.approx([0.3 / 0.6, 0, 1], rel=0, abs=1e-15)

    def test_maps_stay_in_unit_interval(self):
        rng = random.Random(3)
        for _ in range(200):
            a = Fraction(rng.randint(1, 20), 40)
            xs = [Fraction(rng.randint(0, 97), 97) for _ in range(5)]
            for first in (True, False):
                cut = 1 - a if first else a
                want = [x / (1 - a) if x < cut else (x - a) / (1 - a) for x in xs]
                assert all(0 <= y <= 1 for y in want)
                got = branch_step(a, first, xs)
                assert got == pytest.approx([float(y) for y in want], rel=1e-15, abs=1e-15)


class TestEquippedSystem:
    def test_derived_quantities(self):
        s = golden_system()
        assert s.n == 2
        assert not s.is_float

    def test_n_is_derived_once(self, monkeypatch):
        s = golden_system()
        calls = []
        monkeypatch.setattr("twoval.system.derive_n", lambda a: calls.append(a) or 2)
        assert (s.n, s.n) == (2, 2)
        assert calls == []

    def test_weights_split_density(self):
        s = make_exact_system(random.Random(11))
        assert s.weight_first + (s.density - s.weight_first) == s.density
        assert s.weight_first == s.alpha1 * s.density

    def test_validation(self):
        p = StepFunction.constant(1)
        alpha = StepFunction.constant(Fraction(1, 2))
        with pytest.raises(ValueError):
            EquippedSystem(Fraction(3, 5), p, alpha)
        with pytest.raises(ValueError):
            EquippedSystem(Fraction(1, 3), StepFunction([0, Fraction(1, 2), 1], [1, -1]), alpha)
        with pytest.raises(ValueError):
            EquippedSystem(Fraction(1, 3), p, StepFunction.constant(2))
        with pytest.raises(MixedBackendError):
            EquippedSystem(0.25, p, alpha)
        with pytest.raises(MixedBackendError):
            EquippedSystem(Fraction(1, 4), p, StepFunction.constant(0.5))

    @pytest.mark.parametrize("where", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["density", "alpha1"])
    def test_non_finite_float_values_rejected(self, field, bad, where):
        # a NaN that is not first slips past min and max, and so past the
        # range checks; the CLI's JSON reader rejects these before any system
        values = [0.5, 0.5]
        values[where] = bad
        parts = {"density": StepFunction.constant(1.0), "alpha1": StepFunction.constant(0.5)}
        parts[field] = StepFunction([0.0, 0.5, 1.0], values)
        with pytest.raises(ValueError, match="^density and alpha1 must be finite$"):
            EquippedSystem(0.3, parts["density"], parts["alpha1"])

    def test_nan_after_the_first_alpha1_value_rejected(self):
        assert max([0.5, math.nan]) == 0.5 and min([0.5, math.nan]) == 0.5
        with pytest.raises(ValueError, match="must be finite"):
            EquippedSystem(0.3, StepFunction.constant(1.0), StepFunction([0, 0.5, 1], [0.5, math.nan]))
        with pytest.raises(ValueError, match="must be finite"):
            EquippedSystem(0.3, StepFunction([0, 0.5, 1], [1.0, math.nan]), StepFunction.constant(0.5))

    def test_mixed_radicands_rejected(self):
        a = Fraction(1, 2) - Fraction(1, 10) * Surd(0, 1, 2)
        p = StepFunction.constant(1 + Surd(0, Fraction(1, 10), 5))
        alpha = StepFunction.constant(0)
        with pytest.raises(MixedRadicandError, match=r"mix radicands \[2, 5\]"):
            EquippedSystem(a, p, alpha)
        with pytest.raises(MixedRadicandError):
            EquippedSystem(Fraction(1, 3), p, StepFunction.constant(Surd(0, Fraction(1, 4), 3)))

    def test_merged_away_radicand_does_not_mix(self):
        # alpha1 equals the constant 1 once its sqrt(5) breakpoint merges away
        alpha = StepFunction([0, GOLDEN_A, 1], [1, 1])
        system = EquippedSystem(Surd(0, Fraction(1, 4), 2), StepFunction.constant(1), alpha)
        assert system.alpha1 == StepFunction.constant(1) and system.alpha1.radicand == 1


class TestPushforwardDensity:
    def test_golden_family_is_invariant(self):
        for beta, gamma in [(1, 0), (0, 1), (1, 2), (3, 5)]:
            s = golden_system(beta, gamma)
            q = pushforward_density(s)
            assert q == s.density, f"weights ({beta},{gamma})"

    def test_all_mass_on_first_map(self):
        # a = 2/5, p = 1, alpha1 = 1: image is 3/5 below 1/3 and 6/5 above
        s = EquippedSystem(Fraction(2, 5), StepFunction.constant(1), StepFunction.constant(1))
        q = pushforward_density(s)
        assert q == StepFunction([0, Fraction(1, 3), 1], [Fraction(3, 5), Fraction(6, 5)])

    def test_half_parameter_preserves_uniform_for_any_alpha1(self):
        alpha = StepFunction([0, Fraction(1, 4), Fraction(2, 3), 1], [Fraction(1, 3), 1, 0])
        s = EquippedSystem(Fraction(1, 2), StepFunction.constant(1), alpha)
        assert pushforward_density(s) == StepFunction.constant(1)

    def test_mass_is_conserved(self):
        rng = random.Random(21)
        for _ in range(30):
            s = make_exact_system(rng)
            assert pushforward_density(s).integrate() == s.density.integrate()

    def test_float_backend_runs(self):
        s = make_float_system(random.Random(5))
        q = pushforward_density(s)
        assert abs(q.integrate() - s.density.integrate()) < 1e-12


def _pushforward_by_grid(system: EquippedSystem) -> StepFunction:
    """The four composed and masked inverse-branch terms, summed in one walk over their merged grid."""
    a = system.a
    w = 1 - a
    a1 = system.weight_first
    a2 = system.density - a1
    terms = (
        compose_by_preimages(a1, w, 0),
        compose_by_preimages(a1, w, a).mask((1 - 2 * a) / w, 1),
        compose_by_preimages(a2, w, 0).mask(0, a / w),
        compose_by_preimages(a2, w, a),
    )
    return combine(lambda *vs: w * reduce(add, vs), *terms)


class TestPushforwardJumpForm:
    """Equal to the grid walk on exact systems; on their float copies, close on every cell wider than 1e-9."""

    @pytest.mark.parametrize("case", JUMP_FORM_CASES)
    def test_matches_grid_walk(self, case):
        for system in jump_form_systems(case):
            assert pushforward_density(system) == _pushforward_by_grid(system)
            s = as_float_system(system)
            assert_close_on_cells(pushforward_density(s), _pushforward_by_grid(s))


def _alpha1_replaced_off_switch(system: EquippedSystem, other: StepFunction) -> EquippedSystem:
    """The system with alpha1 taken from ``other`` on [0, a) and [1-a, 1]."""
    a = system.a
    inside = StepFunction.indicator(a, 1 - a)
    alpha1 = combine(lambda kept, new, keep: kept if keep else new, system.alpha1, other, inside)
    return EquippedSystem(a, system.density, alpha1)


class TestSwitchRegion:
    """The two maps agree off the switch region [a, 1-a), where the paper leaves
    alpha1 free: exactly on exact systems, and on every cell wider than 1e-9 on
    their float copies."""

    @pytest.mark.parametrize("case", ["ragged-24", "switch-8", "first-13", "nonconstant-4", "renyi"])
    def test_alpha1_off_the_switch_region_is_ignored(self, case):
        rng = random.Random(f"off-switch-{case}")
        changed = 0
        for system in jump_form_systems(case):
            for _ in range(4):
                grid = make_fraction_grid(rng, max_cuts=6)
                other = StepFunction(grid, [Fraction(rng.randint(0, 6), 6) for _ in grid[1:]])
                moved = _alpha1_replaced_off_switch(system, other)
                changed += moved.alpha1 != system.alpha1
                assert pushforward_density(moved) == pushforward_density(system)
                # float 1 - a and the rounded exact 1 - a may differ by an ulp
                assert_close_on_cells(pushforward_density(as_float_system(moved)), pushforward_density(as_float_system(system)))
        assert changed

    def test_at_one_half_alpha1_drops_out(self):
        rng = random.Random("half")
        for _ in range(20):
            p = make_exact_step(rng, max_cuts=6, lo=0)
            first, second = (
                EquippedSystem(Fraction(1, 2), p, StepFunction(g, [Fraction(rng.randint(0, 8), 8) for _ in g[1:]]))
                for g in (make_fraction_grid(rng), make_fraction_grid(rng))
            )
            assert pushforward_density(first) == pushforward_density(second)
            assert pushforward_density(as_float_system(first)) == pushforward_density(as_float_system(second))


def _ragged_file(tmp_path, pieces: int, a) -> tuple[str, str]:
    """A system file like the benchmark's ragged ones: p and alpha1 of ``pieces``
    pieces each on a 1/(16*pieces) grid, neighbouring values always different;
    and a solve-alpha task file of another such p at a = 2/5."""
    rng = random.Random(f"ragged-file-{pieces}")

    def step(lo, hi, den):
        grid = 16 * pieces
        values = [rng.randint(lo, hi)]
        for _ in range(pieces - 1):
            v = rng.randint(lo, hi - 1)
            values.append(v + 1 if v >= values[-1] else v)
        cuts = sorted(rng.sample(range(1, grid), pieces - 1))
        return StepFunction([0, *(Fraction(c, grid) for c in cuts), 1], [Fraction(v, den) for v in values])

    path = tmp_path / f"ragged{pieces}.json"
    path.write_text(system_to_json(EquippedSystem(a, step(1, 12, 4), step(0, 8, 8))))
    task = tmp_path / f"ragged{pieces}-task.json"
    task.write_text(json.dumps({"a": "2/5", "p": step_to_json_dict(step(1, 12, 4))}))
    return str(path), str(task)


class TestComparisonCounts:
    """Surd ordering comparisons of the exact CLI pushforward, check and
    solve-alpha of 48 pieces.  The four-branch transfer with A2 = p - A1
    formed on all of [0,1], and a combine that sorted a set of breakpoints
    and resampled each input, made about 3,700 and 5,100 in the first two;
    A1 = alpha1*p and A1 - S built over [0, 1], and translate jumps sorted
    by Surd comparisons, about 850, 2,700 and 1,900."""

    @staticmethod
    def count(argv, monkeypatch, capsys) -> tuple:
        calls = []
        cmp = Surd._cmp

        def counted(self, o):
            calls.append(1)
            return cmp(self, o)

        with monkeypatch.context() as m:
            m.setattr(Surd, "_cmp", counted)
            rc = cli.main(argv)
        capsys.readouterr()
        return rc, len(calls)

    def test_pushforward(self, tmp_path, monkeypatch, capsys):
        path, _ = _ragged_file(tmp_path, 48, Fraction(5, 12))
        rc, calls = self.count(["pushforward", path, "-o", str(tmp_path / "push.json")], monkeypatch, capsys)
        assert rc == 0 and calls <= 700

    def test_check(self, tmp_path, monkeypatch, capsys):
        path, _ = _ragged_file(tmp_path, 48, Fraction(5, 12))
        rc, calls = self.count(["check", path], monkeypatch, capsys)
        assert rc == 1 and calls <= 1500

    def test_solve_alpha(self, tmp_path, monkeypatch, capsys):
        _, task = _ragged_file(tmp_path, 48, Fraction(5, 12))
        rc, calls = self.count(["solve-alpha", task, "-o", str(tmp_path / "solved.json")], monkeypatch, capsys)
        assert rc == 1 and calls <= 1000


class TestReadCost:
    def test_family_file_reads_without_surd_construction(self, monkeypatch):
        """Reading nonconstant_family(8, 1, 1) from JSON builds every surd from
        its canonical parts, and splits its one radicand once; the per-term
        Surd sums made 36 constructor calls and 18 splits."""
        family = nonconstant_family(8, 1, 1)
        text = system_to_json(family)
        calls = []
        init = Surd.__init__

        def counted(self, *args):
            calls.append(1)
            init(self, *args)

        numerics._square_free_split.cache_clear()
        monkeypatch.setattr(Surd, "__init__", counted)
        system = system_from_json(text)
        assert len(calls) == 0 and system == family
        assert numerics._square_free_split.cache_info().misses == 1


class TestPushforwardMeasure:
    def test_agrees_with_density_integral_exactly(self):
        rng = random.Random(31)
        for _ in range(25):
            s = make_exact_system(rng)
            q = pushforward_density(s)
            for _ in range(8):
                lo = Fraction(rng.randint(0, 96), 97)
                hi = Fraction(rng.randint(0, 96), 97)
                if hi < lo:
                    lo, hi = hi, lo
                b = Interval(lo, hi)
                assert pushforward_measure(s, b) == q.integrate(lo, hi)

    def test_full_interval_gives_total_mass(self):
        s = make_exact_system(random.Random(41))
        assert pushforward_measure(s, Interval(0, 1)) == s.density.integrate()

    def test_interval_must_be_inside_domain(self):
        s = golden_system()
        with pytest.raises(ValueError):
            pushforward_measure(s, Interval(Fraction(1, 2), Fraction(3, 2)))


class TestSerialization:
    def test_exact_round_trip(self):
        s = golden_system(3, 5)
        text = system_to_json(s)
        assert '"a": "3/2 - 1/2*sqrt(5)"' in text
        assert system_from_json(text) == s

    def test_rational_round_trip(self):
        s = make_exact_system(random.Random(51))
        assert system_from_json(system_to_json(s)) == s

    def test_float_round_trip(self):
        s = make_float_system(random.Random(61))
        assert system_from_json(system_to_json(s)) == s

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"a": "1/3"}',
            '{"a": true, "p": {}, "alpha1": {}}',
            # a out of range
            '{"a": "3/5", "p": {"breakpoints": [0, 1], "values": [1], "backend": "exact-1"},'
            ' "alpha1": {"breakpoints": [0, 1], "values": [1], "backend": "exact-1"}}',
            # backend mismatch between a and the functions
            '{"a": 0.25, "p": {"breakpoints": [0, 1], "values": [1], "backend": "exact-1"},'
            ' "alpha1": {"breakpoints": [0, 1], "values": [1], "backend": "exact-1"}}',
            # a over sqrt(2), p over sqrt(3)
            '{"a": "-1/4 + 1/2*sqrt(2)", "p": {"breakpoints": [0, 1], "values": ["1 + sqrt(3)"], "backend": "exact-3"},'
            ' "alpha1": {"breakpoints": [0, 1], "values": [0], "backend": "exact-1"}}',
            # p over sqrt(5), alpha1 over sqrt(2)
            '{"a": "1/3", "p": {"breakpoints": [0, 1], "values": ["1 + sqrt(5)"], "backend": "exact-5"},'
            ' "alpha1": {"breakpoints": [0, 1], "values": ["1/2*sqrt(2)"], "backend": "exact-2"}}',
        ],
    )
    def test_bad_json_rejected(self, text):
        with pytest.raises(ParseError):
            system_from_json(text)

    def test_parameter_beyond_doubles_rejected(self):
        # float() of this JSON integer overflows
        with pytest.raises(ParseError, match="bad parameter a"):
            system_from_json('{"a": 1' + "0" * 400 + ', "p": {}, "alpha1": {}}')
