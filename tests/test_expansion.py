import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoval.cli import main
from twoval.expansion import (
    _MAX_LENGTH,
    BudgetExceededError,
    InadmissibleChoiceError,
    enumerate_expansions,
    evaluate_expansion,
    greedy_expansion,
    orbit_expansion,
    orbit_walk,
)
from twoval.families import lebesgue_family, nonconstant_family
from twoval.numerics import EXACT, MixedBackendError, Surd, backend_of

PHI = Surd(Fraction(1, 2), Fraction(1, 2), 5)
PHI_INV = Surd(Fraction(-1, 2), Fraction(1, 2), 5)


class TestDigitSequence:
    """A word is a plain tuple of digits; evaluate_expansion checks words from outside."""

    def test_rejects_non_binary_digits(self):
        with pytest.raises(ValueError):
            evaluate_expansion([0, 2], 2)
        with pytest.raises(ValueError):
            evaluate_expansion("10x1", 2)


class TestEvaluate:
    def test_binary_word_exactly(self):
        # 0.1101 in base 2
        assert evaluate_expansion([1, 1, 0, 1], 2) == Fraction(13, 16)

    def test_float_base(self):
        v = evaluate_expansion([1, 0, 1], 2.0)
        assert v == pytest.approx(0.625)
        assert isinstance(v, float)

    def test_empty_word_is_zero(self):
        assert evaluate_expansion([], 2) == 0
        assert evaluate_expansion([], 1.5) == 0.0

    def test_golden_pair_sums_to_one(self):
        # 1/phi + 1/phi^2 = 1
        assert evaluate_expansion([1, 1], PHI) == 1

    def test_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            evaluate_expansion([0, 3], 2)

    @pytest.mark.parametrize("beta", [1, 2.5, 0.5, Fraction(1, 2), -2.0])
    def test_rejects_base_outside_window(self, beta):
        with pytest.raises(ValueError):
            evaluate_expansion([1], beta)


class TestGreedy:
    def test_one_at_base_two_is_all_ones(self):
        w = greedy_expansion(1, 2, 10)
        assert w == (1,) * 10
        assert evaluate_expansion(w, 2) == 1 - Fraction(1, 2**10)

    def test_zero_is_all_zeros(self):
        assert greedy_expansion(0, PHI, 5) == (0,) * 5
        assert greedy_expansion(0.0, 1.7, 5) == (0,) * 5

    def test_one_at_golden_base(self):
        w = greedy_expansion(1, PHI, 6)
        assert w == (1, 1, 0, 0, 0, 0)
        assert evaluate_expansion(w, PHI) == 1

    def test_inverse_golden_point(self):
        w = greedy_expansion(PHI_INV, PHI, 6)
        assert w == (1, 0, 0, 0, 0, 0)
        assert evaluate_expansion(w, PHI) == PHI_INV

    def test_exact_truncation_error_bound(self):
        x = Fraction(1, 3)
        k = 20
        w = greedy_expansion(x, PHI, k)
        diff = x - evaluate_expansion(w, PHI)
        assert diff >= 0
        assert diff <= PHI ** (-k)

    @pytest.mark.parametrize("beta", [1.4, 1.8, 2.0, float(PHI)])
    def test_float_round_trips(self, beta):
        rng = random.Random(71)
        k = 40
        for _ in range(25):
            x = rng.random()
            w = greedy_expansion(x, beta, k)
            err = abs(x - evaluate_expansion(w, beta))
            assert err <= beta ** (-k) + 1e-12

    def test_float_matches_exact_at_golden_boundary(self):
        # beta*x lands on 1.0 up to rounding; the slack keeps the greedy digit
        exact = greedy_expansion(PHI_INV, PHI, 8)
        approx = greedy_expansion(float(PHI_INV), float(PHI), 8)
        assert approx == exact

    @given(
        x=st.floats(min_value=0.0, max_value=1.0),
        beta=st.floats(min_value=1.05, max_value=2.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_round_trip_property(self, x, beta):
        k = 30
        w = greedy_expansion(x, beta, k)
        diff = x - evaluate_expansion(w, beta)
        assert -1e-12 <= diff <= beta ** (-k) + 1e-12


class TestOrbit:
    def test_default_rule_is_greedy(self):
        x = Fraction(5, 7)
        assert orbit_expansion(x, PHI, 12) == greedy_expansion(x, PHI, 12)

    def test_lazy_takes_zero_at_crossover(self):
        # beta*x == 1 exactly, so both digits work; lazy picks 0, landing on 1
        w = orbit_expansion(PHI_INV, PHI, 6, choose="lazy")
        assert w == (0, 1, 0, 1, 0, 1)
        diff = PHI_INV - evaluate_expansion(w, PHI)
        assert diff >= 0
        assert diff <= PHI ** (-6)

    def test_callable_chooser_sees_options(self):
        seen = []

        def pick(k, options):
            seen.append(options)
            return options[-1]

        w = orbit_expansion(PHI_INV, PHI, 3, choose=pick)
        assert w == greedy_expansion(PHI_INV, PHI, 3)
        assert seen[0] == (0, 1)

    def test_inadmissible_choice_raises(self):
        with pytest.raises(InadmissibleChoiceError):
            orbit_expansion(1, PHI, 4, choose=lambda k, opts: 0)
        with pytest.raises(InadmissibleChoiceError):
            orbit_expansion(Fraction(1, 10), PHI, 4, choose=lambda k, opts: 1)

    def test_error_types(self):
        assert issubclass(InadmissibleChoiceError, ValueError)
        assert issubclass(BudgetExceededError, RuntimeError)

    def test_zero_length_word(self):
        assert len(orbit_expansion(Fraction(1, 2), PHI, 0)) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            orbit_expansion(Fraction(1, 2), PHI, -1)
        with pytest.raises(ValueError):
            orbit_expansion(Fraction(3, 2), PHI, 4)
        with pytest.raises(TypeError):
            orbit_expansion(Fraction(1, 2), PHI, 4, choose="eager")

    def test_rejects_mixed_backends(self):
        with pytest.raises(MixedBackendError):
            orbit_expansion(PHI_INV, 1.8, 4)
        with pytest.raises(MixedBackendError):
            orbit_expansion(0.5, PHI, 4)

    def test_int_point_is_neutral(self):
        assert orbit_expansion(1, 1.8, 3) == orbit_expansion(1.0, 1.8, 3)

    @pytest.mark.parametrize("choose", [None, "lazy"])
    def test_one_exact_comparison_per_digit(self, choose, monkeypatch):
        calls = []
        cmp = Surd._cmp

        def counted(self, o):
            calls.append(1)
            return cmp(self, o)

        monkeypatch.setattr(Surd, "_cmp", counted)
        length = 2000
        w = orbit_expansion(Fraction(5, 64), PHI, length, choose=choose)
        assert len(w) == length
        assert len(calls) <= length + 8


def options_walk(x, beta, length, choose=None):
    """The orbit walk read through an options tuple at every step, in three
    cases: past ``below`` only 1, from ``above`` up both digits (an equality
    test on the exact backend, where both thresholds are 1), else only 0."""
    b = backend_of(x, beta)
    x, beta = b(x), b(beta)
    below, above = b.one + b.snap, b.one - b.snap
    digits = []
    for k in range(length):
        bx = beta * x
        if not bx <= below:
            options = (1,)
        elif bx >= above if b.is_float else bx == above:
            options = (0, 1)
        else:
            options = (0,)
        d = options[-1] if choose is None else options[0] if choose == "lazy" else int(choose(k, options))
        x = bx - d
        if b.is_float:
            x = min(max(x, 0.0), 1.0)
        digits.append(d)
    return tuple(digits), x


#: exact bases for the orbit oracle; each also runs as its float copy
ORBIT_BASES = {"golden": PHI, "9/5": Fraction(9, 5), "3/2": Fraction(3, 2), "2": 2, "sqrt2": Surd(0, 1, 2)}


def orbit_points(beta, is_float):
    """Points in [0, 1] for the oracle: the crossover x = 1/beta, where both
    digits are admissible, a few others, and on floats the crossover moved by
    up to the snap distance either way."""
    cross = EXACT.one / beta
    points = [0, 1, cross, Fraction(1, 2), Fraction(5, 7), Fraction(5, 64)]
    if not is_float:
        return points
    return [float(p) for p in points] + [float(cross) + e for e in (-1e-12, -4e-13, -1e-13, 1e-13, 4e-13, 1e-12)]


def recording_choice(seed):
    """A callable rule that picks an admissible digit at random and records
    every step and options it was offered."""
    rng = random.Random(seed)
    seen = []

    def pick(k, options):
        seen.append((k, options))
        return rng.choice(options)

    return pick, seen


class TestOrbitOracle:
    """One threshold per rule gives the words, tail states and offered options
    of the three-case options rule."""

    @pytest.mark.parametrize("is_float", [False, True], ids=["exact", "float"])
    @pytest.mark.parametrize("base", ORBIT_BASES)
    def test_matches_the_options_rule(self, base, is_float):
        beta = float(ORBIT_BASES[base]) if is_float else ORBIT_BASES[base]
        crossings = 0
        for i, x in enumerate(orbit_points(ORBIT_BASES[base], is_float)):
            for length in [*range(31), 2000]:
                for choose in (None, "lazy"):
                    got = orbit_walk(x, beta, length, choose)
                    assert got == options_walk(x, beta, length, choose), (x, length, choose)
                    assert {type(d) for d in got[0]} <= {int}
                pick, seen = recording_choice(i * 10**4 + length)
                ref_pick, ref_seen = recording_choice(i * 10**4 + length)
                assert orbit_walk(x, beta, length, pick) == options_walk(x, beta, length, ref_pick)
                assert seen == ref_seen and len(seen) == length
                crossings += sum(options == (0, 1) for _, options in seen)
        assert crossings >= 31


def brute_force_words(x, beta, length):
    """Filter all 2^length words by replaying the admissibility rules.

    On floats a digit 1 needs beta*y >= 1 - snap and the remainder is
    clamped to [0, tail], as the float orbit does.
    """
    b = backend_of(x, beta)
    tail = 1 / (beta - 1)
    above = b.one - b.snap
    found = []
    for code in range(2**length):
        word = [(code >> (length - 1 - k)) & 1 for k in range(length)]
        y = x
        ok = True
        for d in word:
            by = beta * y
            if d == 1 and not by >= above:
                ok = False
                break
            if d == 0 and not by < tail:
                ok = False
                break
            y = by - d
            if b.is_float:
                y = min(max(y, 0.0), tail)
        if ok:
            found.append(tuple(word))
    found.sort(reverse=True)
    return found


class TestEnumerate:
    def test_golden_base_has_many_words(self):
        words = enumerate_expansions(Fraction(1, 2), PHI, 8)
        assert len(words) > 1
        assert len(set(words)) == len(words)

    def test_base_two_dyadic_has_one_word(self):
        words = enumerate_expansions(Fraction(1, 2), 2, 8)
        assert words == [(1, 0, 0, 0, 0, 0, 0, 0)]

    def test_base_two_float_agrees(self):
        words = enumerate_expansions(0.5, 2.0, 8)
        assert words == [(1, 0, 0, 0, 0, 0, 0, 0)]

    def test_first_word_is_greedy(self):
        for x in [Fraction(1, 2), Fraction(2, 7), Fraction(9, 10)]:
            words = enumerate_expansions(x, PHI, 8)
            assert words[0] == greedy_expansion(x, PHI, 8)

    def test_words_in_decreasing_lex_order(self):
        words = enumerate_expansions(Fraction(1, 2), PHI, 8)
        assert words == sorted(words, reverse=True)

    def test_every_word_satisfies_tail_bound(self):
        x = Fraction(1, 2)
        k = 8
        tail = 1 / (PHI - 1)
        for w in enumerate_expansions(x, PHI, k):
            diff = x - evaluate_expansion(w, PHI)
            assert diff >= 0
            assert diff <= tail * PHI ** (-k)

    def test_matches_brute_force(self):
        for x in [Fraction(1, 2), Fraction(1, 3), Fraction(4, 5)]:
            fast = enumerate_expansions(x, PHI, 8)
            assert fast == brute_force_words(x, PHI, 8)

    def test_brute_force_at_base_two(self):
        for x in [Fraction(1, 2), Fraction(3, 8), Fraction(5, 7)]:
            fast = enumerate_expansions(x, 2, 8)
            assert fast == brute_force_words(x, Fraction(2), 8)

    @pytest.mark.parametrize("beta", [Fraction(9, 5), 1.7, 1.9, float(PHI)], ids=str)
    def test_brute_force_at_other_bases(self, beta):
        rng = random.Random(23)
        tail = 1 / (beta - 1)
        for _ in range(12):
            if isinstance(beta, float):
                x = rng.random() * tail
            else:
                x = Fraction(rng.randint(0, 40), 40) * tail
            expected = brute_force_words(x, beta, 10)
            assert enumerate_expansions(x, beta, 10, max_words=len(expected)) == expected
            if len(expected) > 1:
                with pytest.raises(BudgetExceededError):
                    enumerate_expansions(x, beta, 10, max_words=len(expected) - 1)

    def test_zero_length_is_the_empty_word(self):
        assert enumerate_expansions(Fraction(1, 2), PHI, 0) == [()]
        assert enumerate_expansions(0.5, 1.7, 0) == [()]

    def test_one_at_base_two(self):
        assert enumerate_expansions(1, 2, 5) == [(1,) * 5]

    def test_zero_has_one_word(self):
        assert enumerate_expansions(0, PHI, 6) == [(0,) * 6]

    def test_tail_endpoint_is_all_ones(self):
        # 1/(phi-1) = phi is representable only by every digit being 1
        assert enumerate_expansions(PHI, PHI, 6) == [(1,) * 6]

    def test_budget_is_enforced(self):
        with pytest.raises(BudgetExceededError):
            enumerate_expansions(Fraction(1, 2), PHI, 8, max_words=1)

    def test_rejects_unrepresentable_points(self):
        with pytest.raises(ValueError):
            enumerate_expansions(Fraction(17, 10), PHI, 4)
        with pytest.raises(ValueError):
            enumerate_expansions(1.001, 2.0, 4)

    def test_rejects_oversized_length(self):
        # below the length cap only max_words limits the walk
        assert enumerate_expansions(Fraction(1, 2), 2, 5000) == [(1,) + (0,) * 4999]
        assert len(enumerate_expansions(0, 2.0, 900)) == 1
        for walk in (enumerate_expansions, orbit_expansion):
            with pytest.raises(ValueError, match=r"length must lie in \[0, 1000000\]"):
                walk(Fraction(1, 2), 2, _MAX_LENGTH + 1)

    def test_long_golden_walk_runs_out_of_budget_fast(self):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            enumerate_expansions(Fraction(1, 2), PHI, 2000)
        assert time.perf_counter() - t0 < 1.0

    def test_equal_tail_states_share_their_arithmetic(self, monkeypatch):
        calls = 0
        mul = Surd.__mul__

        def counted(self, other):
            nonlocal calls
            calls += 1
            return mul(self, other)

        monkeypatch.setattr(Surd, "__mul__", counted)
        words = enumerate_expansions(Fraction(1, 2), PHI, 28)
        assert len(words) == 512
        # five reachable tail states, one multiplication each per digit
        assert calls <= 8 * 28

    def test_cli_values_are_read_off_tail_states(self, monkeypatch, capsys):
        calls = 0

        def counted(op):
            def wrapped(self, other):
                nonlocal calls
                calls += 1
                return op(self, other)

            return wrapped

        monkeypatch.setattr(Surd, "__mul__", counted(Surd.__mul__))
        monkeypatch.setattr(Surd, "__truediv__", counted(Surd.__truediv__))
        argv = ["expand", "--all", "--values", "--x", "29/64", "--beta", "1/2 + 1/2*sqrt(5)", "--length", "24"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 325
        # the walk, one power of beta and one multiply per distinct tail state;
        # a Horner pass per word takes 325 * 24 divisions here
        assert calls <= 8 * 24 + 64

    def test_random_points_bound_and_greedy_head(self):
        rng = random.Random(9)
        tail = 1 / (PHI - 1)
        for _ in range(30):
            x = Fraction(rng.randint(0, 60), 60)
            words = enumerate_expansions(x, PHI, 6)
            assert words
            assert words[0] == greedy_expansion(x, PHI, 6)
            for w in words:
                diff = x - evaluate_expansion(w, PHI)
                assert 0 <= diff <= tail * PHI ** (-6)


def branch_words(system, x, length):
    """Every word of branches, 0 for x -> x/(1-a) and 1 for x -> (x-a)/(1-a),
    that the system follows from x with positive chance: the first map,
    taken with chance alpha1(x), switches branch at 1-a and the second at a."""
    a, w = system.a, 1 - system.a
    layer = {x: [()]}
    for _ in range(length):
        nxt = {}
        for y, words in layer.items():
            first = system.alpha1(y)
            branches = {0 if y < w else 1} if first > 0 else set()
            if first < 1:
                branches.add(0 if y < a else 1)
            for d in branches:
                nxt.setdefault((y - d * a) / w, []).extend(word + (d,) for word in words)
        layer = nxt
    return sorted((word for words in layer.values() for word in words), reverse=True)


class TestRandomBetaTransformation:
    """With beta = 1/(1-a) and x = (beta-1)*y, branch 0 is digit 0 and branch 1
    digit 1 of y in base beta, so where 0 < alpha1 < 1 on [a, 1-a) the branch
    words are the expansions."""

    @pytest.mark.parametrize(
        "system",
        [
            lebesgue_family(4, fill=Fraction(1, 2)),
            lebesgue_family(5, fill=Fraction(1, 2)),
            nonconstant_family(2, 1, 1, fill=Fraction(1, 2)),
            nonconstant_family(3, 1, 1, fill=Fraction(1, 2)),
        ],
        ids=["lebesgue4", "lebesgue5", "nonconstant2", "nonconstant3"],
    )
    def test_branch_words_are_the_expansions(self, system):
        beta = 1 / (1 - system.a)
        for k in range(16):
            x = Fraction(k, 16)
            assert branch_words(system, x, 8) == enumerate_expansions(x / (beta - 1), beta, 8)
