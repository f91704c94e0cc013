"""Step-function algebra: construction, evaluation, reparametrization, serialization."""

import math
import random
from bisect import bisect_left
from fractions import Fraction
from operator import add, itemgetter, sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_exact_step, make_float_step
from twoval.numerics import EXACT, FLOAT, MixedBackendError, MixedRadicandError, ParseError, Surd, backend_of
from twoval.piecewise import (
    NonpositiveSlopeError,
    StepFunction,
    cells,
    combine,
    from_jumps,
    step_from_json,
    step_to_csv,
    step_to_json,
)

H = Fraction(1, 2)


@st.composite
def exact_steps(draw):
    denom = draw(st.sampled_from([12, 60, 97]))
    k = draw(st.integers(0, 4))
    cuts = sorted({Fraction(draw(st.integers(1, denom - 1)), denom) for _ in range(k)})
    vals = [Fraction(draw(st.integers(-12, 12)), 4) for _ in range(len(cuts) + 1)]
    return StepFunction([Fraction(0), *cuts, Fraction(1)], vals)


class TestConstruction:
    def test_adjacent_equal_values_merge(self):
        f = StepFunction([0, Fraction(1, 3), Fraction(2, 3), 1], [2, 2, 5])
        assert f.breakpoints == (0, Fraction(2, 3), 1)
        assert f.values == (2, 5)

    def test_constant(self):
        f = StepFunction.constant(Fraction(3, 2))
        assert f.breakpoints == (0, 1) and f.values == (Fraction(3, 2),)
        g = StepFunction.constant(0.5)
        assert g.is_float and g.values == (0.5,)

    @pytest.mark.parametrize(
        "bps,vals",
        [
            ([0, 1], []),
            ([Fraction(1, 4), 1], [1]),
            ([0, Fraction(1, 2)], [1]),
            ([0, Fraction(1, 2), Fraction(1, 2), 1], [1, 2, 3]),
            ([0, Fraction(2, 3), Fraction(1, 3), 1], [1, 2, 3]),
        ],
    )
    def test_bad_grids_rejected(self, bps, vals):
        with pytest.raises(ValueError):
            StepFunction(bps, vals)

    def test_backend_mixing_rejected(self):
        with pytest.raises(MixedBackendError):
            StepFunction([0, 0.5, 1], [Fraction(1, 2), 1])
        with pytest.raises(MixedBackendError):
            StepFunction([0, Fraction(1, 2), 1], [0.5, 1.0])

    def test_radicand_mixing_rejected(self):
        with pytest.raises(MixedRadicandError):
            StepFunction([0, Surd(0, Fraction(1, 3), 2), 1], [Surd(0, 1, 3), 0])
        # every given entry counts, also a breakpoint the merge drops
        with pytest.raises(MixedRadicandError):
            StepFunction([0, Surd(0, Fraction(1, 4), 2), Surd(0, Fraction(1, 4), 3), 1], [1, 1, 2])

    def test_backend_tags(self):
        assert StepFunction([0, H, 1], [1, 2]).backend == "exact-1"
        assert StepFunction([0, H, 1], [Surd(0, 1, 5), 2]).backend == "exact-5"
        # read off the canonical pieces: the sqrt(5) breakpoint merges away
        assert StepFunction([0, Surd(H * 3, -H, 5), 1], [1, 1]).backend == "exact-1"
        assert StepFunction([0.0, 0.5, 1.0], [1.0, 2.0]).backend == "float"


class TestEvaluation:
    def test_left_closed_pieces(self):
        f = StepFunction([0, H, 1], [2, 5])
        assert f(0) == 2
        assert f(Fraction(1, 4)) == 2
        assert f(H) == 5  # boundary belongs to the right piece
        assert f(1) == 5  # last piece is closed

    def test_outside_domain(self):
        f = StepFunction.constant(1)
        with pytest.raises(ValueError):
            f(Fraction(-1, 10))
        with pytest.raises(ValueError):
            f(Fraction(11, 10))

    def test_pieces_iteration(self):
        f = StepFunction([0, H, 1], [2, 5])
        ivs = list(f.pieces())
        assert [(iv.lo, iv.hi) for iv, _ in ivs] == [(0, H), (H, 1)]
        assert [v for _, v in ivs] == [2, 5]

    def test_extrema(self):
        f = StepFunction([0, H, 1], [-2, 5])
        assert f.min_value == -2 and f.max_value == 5
        assert not f.is_nonnegative()
        assert abs(f).is_nonnegative()


class TestAlgebra:
    def test_pointwise_ops_on_merged_grid(self):
        f = StepFunction([0, Fraction(1, 3), 1], [1, 4])
        g = StepFunction([0, Fraction(2, 3), 1], [10, 20])
        s = f + g
        assert s.breakpoints == (0, Fraction(1, 3), Fraction(2, 3), 1)
        assert s.values == (11, 14, 24)
        assert (f * g).values == (10, 40, 80)
        assert (g - f).values == (9, 6, 16)

    def test_scalar_ops(self):
        f = StepFunction([0, H, 1], [1, 3])
        assert (2 * f).values == (2, 6)
        assert (f + Fraction(1, 2)).values == (Fraction(3, 2), Fraction(7, 2))
        assert (f / 2).values == (H, Fraction(3, 2))
        assert (1 - f).values == (0, -2)
        assert (-f).values == (-1, -3)

    def test_scalar_backend_rules(self):
        f = StepFunction([0, H, 1], [1, 3])
        with pytest.raises(MixedBackendError):
            f * 0.5
        g = StepFunction([0.0, 0.5, 1.0], [1.0, 3.0])
        with pytest.raises(MixedBackendError):
            g * Fraction(1, 2)
        assert (g * 2).values == (2.0, 6.0)  # ints are neutral
        with pytest.raises(MixedBackendError):
            f + g

    def test_division_by_zero_scalar(self):
        f = StepFunction([0, H, 1], [1, 3])
        with pytest.raises(ZeroDivisionError):
            f / 0

    @given(exact_steps(), exact_steps(), st.fractions(min_value=0, max_value=1, max_denominator=200))
    def test_pointwise_sum_oracle(self, f, g, x):
        assert (f + g)(x) == f(x) + g(x)
        assert (f * g)(x) == f(x) * g(x)


def _ragged_exact(rng: random.Random, pieces: int, shared=()) -> StepFunction:
    cuts = set(rng.sample(list(shared), len(shared) // 2)) if shared else set()
    while len(cuts) < pieces - 1:
        cuts.add(Fraction(rng.randint(1, 4999), 5000))
    root5 = Surd(0, 1, 5)
    vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) + rng.randint(-2, 2) * root5 for _ in range(len(cuts) + 1)]
    return StepFunction([0, *sorted(cuts), 1], vals)


def _ragged_float(rng: random.Random, pieces: int, near=()) -> StepFunction:
    """Breakpoints in pairs 3e-13 apart, and within FLOAT_SNAP of ``near``."""
    cuts = {t + rng.choice([-8e-13, -3e-13, 3e-13, 8e-13]) for t in near}
    while len(cuts) < pieces - 1:
        t = rng.uniform(0.01, 0.99)
        cuts.update((t, t + 3e-13))
    return StepFunction([0.0, *sorted(cuts), 1.0], [rng.uniform(-2, 2) for _ in range(len(cuts) + 1)])


class TestResampleOracle:
    """The one-pass resample against reading every merged cell: exact cells
    at their midpoints, float ones by :func:`from_jumps`' fuse rule."""

    @staticmethod
    def midpoint_rule(op, *fs):
        """Every breakpoint in one set, sorted; exact cells read at their
        midpoints.  A float breakpoint within the snap distance of the cell's
        start (0 first) is fused onto it, and each input is read at the last
        one fused, the start if none; failing that, one within the snap
        distance of 1 is dropped."""
        grid = sorted(set().union(*(f.breakpoints for f in fs)))
        if not fs[0].is_float:
            mids = [(lo + hi) / 2 for lo, hi in zip(grid, grid[1:])]
            return StepFunction(grid, [op(*(f(m) for f in fs)) for m in mids])
        kept, reads = [0.0], [0.0]
        for t in grid[1:-1]:
            if t - kept[-1] <= FLOAT.snap:
                reads[-1] = t
            elif 1.0 - t > FLOAT.snap:
                kept.append(t)
                reads.append(t)
        return StepFunction(kept + [1.0], [op(*(f(x) for f in fs)) for x in reads])

    def test_cluster_is_read_after_its_last_fused_breakpoint(self):
        # g's jump at 1/2 + 8e-13 fuses onto f's at 1/2; f's at 1/2 + 1.1e-12 does not
        f = StepFunction([0.0, 0.5, 0.5 + 1.1e-12, 1.0], [0.0, 1.0, 2.0])
        g = StepFunction([0.0, 0.5 + 8e-13, 1.0], [0.0, 10.0])
        assert (f + g).values == (0.0, 11.0, 12.0)
        assert f + g == self.midpoint_rule(add, f, g) == from_jumps(f.jumps() + g.jumps(), FLOAT)

    @pytest.mark.parametrize("op", [add, sub], ids=["add", "sub"])
    def test_sum_matches_the_jump_sum(self, op):
        """f +- g is from_jumps of the two jump lists.  The values are
        multiples of 2^-51 in [-2, 2], so every sum and difference of two of
        them is a double and the two sides agree exactly."""
        rng = random.Random(f"jump-sum-{op.__name__}")
        for _ in range(300):
            f = _ragged_float(rng, rng.randint(2, 60))
            g = _ragged_float(rng, rng.randint(2, 60), near=f.breakpoints[1:-1:3])
            jumps = f.jumps() + [(t, op(0.0, size)) for t, size in g.jumps()]
            assert combine(op, f, g) == from_jumps(jumps, FLOAT)

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_binary_ops_match_midpoint_rule(self, backend):
        rng = random.Random(f"resample-{backend}")
        for _ in range(4):
            if backend == "exact":
                f = _ragged_exact(rng, rng.randint(50, 200))
                g = _ragged_exact(rng, rng.randint(50, 200), shared=f.breakpoints[1:-1])
            else:
                f = _ragged_float(rng, rng.randint(50, 200))
                g = _ragged_float(rng, rng.randint(50, 200), near=f.breakpoints[1:-1:3])
            for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
                assert op(f, g) == self.midpoint_rule(op, f, g)

    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("arity", [3, 4])
    def test_combine_matches_midpoint_rule(self, backend, arity):
        rng = random.Random(f"combine-{backend}-{arity}")
        for _ in range(3):
            if backend == "exact":
                f = _ragged_exact(rng, rng.randint(50, 200))
                fs = [f] + [_ragged_exact(rng, rng.randint(50, 200), shared=f.breakpoints[1:-1]) for _ in range(arity - 1)]
            else:
                f = _ragged_float(rng, rng.randint(50, 200))
                fs = [f] + [_ragged_float(rng, rng.randint(50, 200), near=f.breakpoints[1:-1:3]) for _ in range(arity - 1)]

            def op(*vs):
                return vs[0] * vs[1] - vs[2] + vs[-1] * vs[-1]

            assert combine(op, *fs) == self.midpoint_rule(op, *fs)


def _counting(monkeypatch) -> dict:
    """Count Surd ordering comparisons made outside the StepFunction constructor, and Surd hashes."""
    counts = {"cmp": 0, "constructor_cmp": 0, "hash": 0}
    cmp, hash_, init = Surd._cmp, Surd.__hash__, StepFunction.__init__
    inside = []

    def counted_cmp(self, o):
        counts["constructor_cmp" if inside else "cmp"] += 1
        return cmp(self, o)

    def counted_hash(self):
        counts["hash"] += 1
        return hash_(self)

    def counted_init(self, *args):
        inside.append(1)
        try:
            init(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(Surd, "_cmp", counted_cmp)
    monkeypatch.setattr(Surd, "__hash__", counted_hash)
    monkeypatch.setattr(StepFunction, "__init__", counted_init)
    return counts


class TestMergeWalk:
    """An exact combine merges its inputs' breakpoint tuples in one walk:
    no breakpoint is hashed, and the walk makes at most N1 + N2 + 2 ordering
    comparisons.  The constructor's check that the result's grid increases
    makes one more per cell of the result."""

    @pytest.mark.parametrize("n1,n2,shared", [(1, 1, False), (1, 60, False), (60, 60, False), (60, 60, True), (150, 7, False)])
    def test_comparison_count(self, n1, n2, shared, monkeypatch):
        rng = random.Random(f"merge-{n1}-{n2}-{shared}")
        f = _ragged_exact(rng, n1)
        g = _ragged_exact(rng, n2, shared=f.breakpoints[1:-1] if shared else ())
        n1, n2 = len(f.values), len(g.values)
        counts = _counting(monkeypatch)
        h = f * g
        assert counts["hash"] == 0
        assert counts["cmp"] <= n1 + n2 + 2
        assert counts["constructor_cmp"] <= n1 + n2
        monkeypatch.undo()
        assert h == TestResampleOracle.midpoint_rule(lambda u, v: u * v, f, g)

    def test_three_way_walk(self, monkeypatch):
        rng = random.Random("merge-3")
        f = _ragged_exact(rng, 40)
        g, k = _ragged_exact(rng, 30, shared=f.breakpoints[1:-1]), _ragged_exact(rng, 20)
        counts = _counting(monkeypatch)
        h = combine(lambda u, v, w: u - v * w, f, g, k)
        assert counts["hash"] == 0
        assert counts["cmp"] <= 2 * (len(f.values) + len(g.values) + len(k.values))
        monkeypatch.undo()
        assert h == TestResampleOracle.midpoint_rule(lambda u, v, w: u - v * w, f, g, k)


@st.composite
def float_steps(draw):
    """exact_steps on doubles, each cut with or without a twin within the snap distance."""
    f = draw(exact_steps())
    cuts = set()
    for t in map(float, f.breakpoints[1:-1]):
        cuts.add(t)
        if draw(st.booleans()):
            cuts.add(t + draw(st.sampled_from([-8e-13, -3e-13, 3e-13, 8e-13])))
    vals = draw(st.lists(st.floats(-3, 3), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    return StepFunction([0.0, *sorted(cuts), 1.0], vals)


class TestCells:
    """The walk's cells on a window against the sorted union of the inputs'
    breakpoints cut to the window.  A breakpoint within the snap distance
    (0 exact, 1e-12 float) of the cell's start (lo first) is fused onto it,
    and each input is read at the last one fused, the start if none;
    failing that, one within the snap distance of hi is dropped."""

    @given(st.booleans(), st.data())
    def test_cells_match_the_merged_grid(self, on_floats, data):
        fs = data.draw(st.lists(float_steps() if on_floats else exact_steps(), min_size=1, max_size=3))
        bps = sorted({t for f in fs for t in f.breakpoints})
        ends = bps + [Fraction(1, 7), Fraction(5, 7)]
        if on_floats:  # and ends within the snap distance of a breakpoint, or one ulp below it
            ends = [float(t) for t in ends] + [min(max(t + d, 0.0), 1.0) for t in bps for d in (-5e-13, 5e-13)]
            ends += [math.nextafter(t, 0.0) for t in bps]
        lo, hi = data.draw(st.sampled_from(ends)), data.draw(st.sampled_from(ends))
        snap = FLOAT.snap if on_floats else 0
        starts, reads = [lo], [lo]
        for t in bps:
            if not lo < t < hi:
                continue
            if t - starts[-1] <= snap:
                reads[-1] = t
            elif hi - t > snap:
                starts.append(t)
                reads.append(t)
        cuts = zip(starts, starts[1:] + [hi], reads)
        want = [(t0, t1, [f(x) for f in fs]) for t0, t1, x in cuts] if lo < hi else []
        scalars = FLOAT if on_floats else EXACT
        assert list(cells(fs, scalars(lo), scalars(hi))) == want

    def test_one_ulp_window_at_one_reads_the_last_piece(self):
        lo = math.nextafter(1.0, 0.0)
        assert list(cells((StepFunction([0.0, 0.5, 1.0], [1.0, 2.0]),), lo, 1.0)) == [(lo, 1.0, [2.0])]

    def test_one_ulp_window_reads_its_own_piece(self):
        # f is 1 on [1/4 - 8e-13, 1/4) and 0 from 1/4 on
        f = StepFunction([0.0, 1 / 12 - 8e-13, 1 / 12, 0.25 - 8e-13, 0.25, 1.0], [0.0, 1.0, 0.0, 1.0, 0.0])
        lo = math.nextafter(0.25, 0.0)
        assert list(cells((f,), lo, 0.25)) == [(lo, 0.25, [1.0])]


def jumps_by_scan(f: StepFunction, lo=None, hi=None) -> list:
    """StepFunction.jumps by its definition: every piece tested against (lo, hi) in turn."""
    bps = f.breakpoints
    lo = bps[0] if lo is None else lo
    hi = bps[-1] if hi is None else hi
    out = []
    prev = f.scalars.zero
    for t0, t1, v in zip(bps, bps[1:], f.values):
        if t1 > lo and t0 < hi:
            out.append((t0 if t0 > lo else lo, v - prev))
            prev = v
    out.append((hi, -prev))
    return out


@st.composite
def windows(draw):
    """A step function on either backend and a window whose ends are breakpoints,
    midpoints, 0, 1, -1/2, 3/2 or omitted."""
    f = draw(exact_steps())
    if draw(st.booleans()):
        f = StepFunction([float(t) for t in f.breakpoints], [float(v) for v in f.values])
    b, bps = f.scalars, f.breakpoints
    ends = [*bps, *((lo + hi) / 2 for lo, hi in zip(bps, bps[1:])), b.zero, b.one, -b.one / 2, 3 * b.one / 2, None]
    return f, draw(st.sampled_from(ends)), draw(st.sampled_from(ends))


class TestJumps:
    @given(windows())
    def test_matches_the_scan(self, case):
        f, lo, hi = case
        got, want = f.jumps(lo, hi), jumps_by_scan(f, lo, hi)
        assert got == want
        assert [(repr(t), repr(v)) for t, v in got] == [(repr(t), repr(v)) for t, v in want]

    def test_empty_windows_give_one_zero_jump_at_hi(self):
        f = StepFunction([0, H, 1], [1, 2])
        assert f.jumps(H, H) == [(H, 0)]
        assert f.jumps(Fraction(3, 4), Fraction(1, 4)) == [(Fraction(1, 4), 0)]
        assert f.jumps(1, Fraction(3, 2)) == [(Fraction(3, 2), 0)]


class TestComposeAffine:
    def test_slope_below_the_double_range(self):
        # the moved jumps lie far beyond the doubles on both sides of [0,1]
        f = StepFunction([0, Fraction(1, 4), Fraction(3, 4), 1], [1, 2, 3])
        c = Fraction(1, 10**400)
        assert f.compose_affine(c, 0) == StepFunction.constant(1)
        assert f.compose_affine(c, H) == StepFunction.constant(2)

    def test_squeeze_with_zero_extension(self):
        f = StepFunction([0, H, 1], [2, 5])
        g = f.compose_affine(2, 0)  # g(x) = f(2x), zero once 2x > 1
        assert g.breakpoints == (0, Fraction(1, 4), Fraction(1, 2), 1)
        assert g.values == (2, 5, 0)

    def test_translate(self):
        f = StepFunction([0, H, 1], [2, 5])
        g = f.compose_affine(1, Fraction(-1, 4))  # g(x) = f(x - 1/4)
        assert g.breakpoints == (0, Fraction(1, 4), Fraction(3, 4), 1)
        assert g.values == (0, 2, 5)

    def test_identity(self):
        f = StepFunction([0, Fraction(1, 3), 1], [1, 7])
        assert f.compose_affine(1, 0) == f

    def test_nonpositive_slope_rejected(self):
        f = StepFunction.constant(1)
        with pytest.raises(NonpositiveSlopeError):
            f.compose_affine(0, 0)
        with pytest.raises(NonpositiveSlopeError):
            f.compose_affine(-1, 1)

    @given(
        exact_steps(),
        st.sampled_from([Fraction(1, 3), Fraction(1, 2), 1, 2, Fraction(5, 2)]),
        st.fractions(min_value=-1, max_value=1, max_denominator=12),
    )
    def test_midpoint_oracle(self, f, c, b):
        g = f.compose_affine(c, b)
        for iv, v in g.pieces():
            mid = (iv.lo + iv.hi) / 2
            y = c * mid + b
            expect = f(y) if 0 <= y <= 1 else 0
            assert v == expect

    def test_oracle_on_ragged_functions(self):
        rng = random.Random("compose-affine")
        golden = Surd(Fraction(1, 2), Fraction(1, 2), 5)
        for trial in range(24):
            f = _ragged_exact(rng, rng.randint(50, 200))
            c = Fraction(rng.randint(1, 60), rng.randint(1, 20))
            if trial % 4 == 0:
                c = c * golden
            b = [Fraction(rng.randint(-40, 40), 20), 1 + Fraction(rng.randint(1, 9), 10), -c - Fraction(1, 7)][trial % 3]
            g = f.compose_affine(c, b)
            for iv, v in g.pieces():
                y = c * (iv.lo + iv.hi) / 2 + b
                assert v == (f(y) if 0 <= y <= 1 else 0)
            lo, hi = max(b, Surd(0)), min(c + b, Surd(1))
            assert g.integrate() == (f.integrate(lo, hi) / c if lo < hi else 0)

    def test_float_backend(self):
        f = StepFunction([0.0, 0.5, 1.0], [2.0, 5.0])
        g = f.compose_affine(0.5, 0.25)  # 0.5x + 0.25 in [0.25, 0.75]
        assert g.values == (2.0, 5.0)
        assert g.breakpoints == (0.0, 0.5, 1.0)


def from_jumps_by_sort(jumps, scalars) -> StepFunction:
    """Exact from_jumps as one sort by the positions' own order and a running sum."""
    zero, one = scalars.zero, scalars.one
    jumps = sorted(jumps, key=itemgetter(0))
    jumps = jumps[: bisect_left(jumps, one, key=itemgetter(0))]
    bps, vals, level = [zero], [], zero
    for t, size in jumps:
        if t > bps[-1]:
            vals.append(level)
            bps.append(t)
        level = level + size
    return StepFunction(bps + [one], vals + [level])


#: offsets that move a position by less than 2^-60, so that most positions
#: round to the same double as the one they moved from
NEAR_TIES = (Fraction(0), Fraction(1, 2**62), Fraction(-1, 2**61), Fraction(3, 2**64), Surd(0, Fraction(1, 2**66), 5))


@st.composite
def exact_jump_lists(draw):
    """Jumps at positions around a few bases on a 1/32 grid from -1/8 to 9/8,
    rational or in Q(sqrt(5)), moved by a NEAR_TIES offset; rational positions
    are sometimes Fractions, and sizes are quarters."""
    d = draw(st.sampled_from([1, 5]))
    bases = [
        Surd(Fraction(draw(st.integers(-4, 36)), 32), Fraction(draw(st.integers(-3, 3)), 64), d)
        for _ in range(draw(st.integers(1, 6)))
    ]
    offsets = NEAR_TIES if d == 5 else NEAR_TIES[:-1]
    jumps = []
    for _ in range(draw(st.integers(0, 24))):
        t = draw(st.sampled_from(bases)) + draw(st.sampled_from(offsets))
        if not t.q1 and draw(st.booleans()):
            t = t.q0
        jumps.append((t, Fraction(draw(st.integers(-8, 8)), 4)))
    return jumps


class TestFromJumps:
    def test_exact_levels_are_running_sums(self):
        f = from_jumps([(H, Fraction(-3, 2)), (Fraction(-1, 3), 2), (Fraction(5, 4), 7), (Fraction(1, 4), 1)], EXACT)
        assert f == StepFunction([0, Fraction(1, 4), H, 1], [2, 3, Fraction(3, 2)])

    @given(exact_jump_lists())
    def test_exact_order_matches_the_sort_by_position(self, jumps):
        assert from_jumps(jumps, EXACT) == from_jumps_by_sort(jumps, EXACT)

    def test_positions_on_one_double_keep_their_exact_order(self):
        # x, z, y round to one double, +-2^-1100 to +-0.0 and 1 - 2^-62 to 1.0
        x, tiny = Fraction(1, 3), Fraction(1, 2**1100)
        y, z = x + Fraction(1, 2**62), x + Surd(0, Fraction(1, 2**66), 5)
        assert float(x) == float(y) == float(z) and x < z < y
        below_one = 1 - Fraction(1, 2**62)
        ties = [(y, 4), (below_one, 8), (x, 1), (tiny, 128), (z, 2), (-tiny, 16), (y, 32), (1, 64), (0, 256)]
        f = from_jumps(ties, EXACT)
        assert f.breakpoints == (0, tiny, x, z, y, below_one, 1)
        assert f.values == (272, 400, 401, 403, 439, 447)
        assert f == from_jumps_by_sort(ties, EXACT)

    def test_float_matched_pair_restores_the_level_exactly(self):
        # a float running sum gives 0.1 + 0.2 - 0.2 = 0.10000000000000003
        f = from_jumps([(0.0, 0.1), (0.3, 0.2), (0.6, -0.2)], FLOAT)
        assert f.values == (0.1, 0.1 + 0.2, 0.1)

    def test_float_positions_within_snap_fuse(self):
        jumps = [(1e-13, 1.0), (0.4, 2.0), (0.4 + 5e-13, 3.0), (0.4 + 9e-13, -1.0), (0.4 + 2e-12, 1.0), (1 - 5e-13, -6.0)]
        f = from_jumps(jumps, FLOAT)
        assert f.breakpoints == (0.0, 0.4, 0.4 + 2e-12, 1.0)
        assert f.values == (1.0, 5.0, 6.0)

    def test_float_level_beyond_double_range_is_inf(self):
        f = from_jumps([(0.0, 1.7e308), (0.0, 1.7e308), (0.5, -1.7e308), (0.75, -1.7e308)], FLOAT)
        assert f.values == (math.inf, 1.7e308, 0.0)

    def test_float_non_finite_size_makes_the_rest_nan(self):
        f = from_jumps([(0.0, 1.7e308), (0.0, 1.7e308), (0.5, math.inf), (0.75, -1.0)], FLOAT)
        assert f.breakpoints == (0.0, 0.5, 1.0)
        assert f.values[0] == math.inf and math.isnan(f.values[1])


class TestMeasures:
    def test_integrate(self):
        f = StepFunction([0, H, 1], [Fraction(3, 2), 1])
        assert f.integrate() == Fraction(5, 4)
        assert f.integrate(Fraction(1, 4), Fraction(3, 4)) == Fraction(5, 8)
        assert f.integrate(H, H) == 0

    def test_mask(self):
        f = StepFunction.constant(2)
        g = f.mask(Fraction(1, 4), Fraction(3, 4))
        assert g.values == (0, 2, 0)
        assert g.integrate() == 1

    def test_mask_selects_instead_of_multiplying(self):
        # inf * 0 would be NaN and -2.0 * 0 would be -0.0
        f = StepFunction([0.0, 0.5, 1.0], [1.0, math.inf])
        assert f.mask(0.0, 0.5).values == (1.0, 0.0)
        g = StepFunction.constant(-2.0).mask(0.5, 1.0)
        assert g.values == (0.0, -2.0)
        assert math.copysign(1.0, g.values[0]) == 1.0

    def test_indicator_edges(self):
        assert StepFunction.indicator(0, 1).values == (1,)
        assert StepFunction.indicator(H, H).values == (0,)
        assert StepFunction.indicator(Fraction(3, 4), 1).values == (0, 1)

    def test_norms_and_distances(self):
        f = StepFunction([0, H, 1], [1, 2])
        g = StepFunction([0, H, 1], [2, -1])
        assert f.sup_norm() == 2
        assert (f - g).sup_norm() == 3
        assert abs(f - g).integrate() == H * 1 + H * 3
        assert f == StepFunction([0, Fraction(1, 3), H, 1], [1, 1, 2])

    @given(exact_steps(), exact_steps())
    def test_integrate_is_linear(self, f, g):
        assert (f + g).integrate() == f.integrate() + g.integrate()

    @given(
        exact_steps(),
        st.fractions(min_value=0, max_value=1, max_denominator=30),
        st.fractions(min_value=0, max_value=1, max_denominator=30),
    )
    def test_mask_matches_window_integral(self, f, lo, hi):
        if hi < lo:
            lo, hi = hi, lo
        assert f.mask(lo, hi).integrate() == f.integrate(lo, hi)


    def test_sup_norm_is_nan_when_any_piece_is(self):
        # max() skips a NaN that is not first, which would pass a NaN deviation
        f = StepFunction([0.0, 0.5, 1.0], [0.0, float("nan")])
        assert f.sup_norm() != f.sup_norm()


def indicator_by_cases(lo, hi) -> StepFunction:
    """StepFunction.indicator built piece by piece: the endpoints clamped to
    [0,1], then a zero piece below lo and above hi where they are inside."""
    b = backend_of(lo, hi)
    zero, one = b.zero, b.one
    lo = max(zero, min(one, b(lo)))
    hi = max(zero, min(one, b(hi)))
    if not lo < hi:
        return StepFunction([zero, one], [zero])
    bps, vals = [zero], []
    if lo > zero:
        bps.append(lo)
        vals.append(zero)
    vals.append(one)
    if hi < one:
        bps.append(hi)
        vals.append(zero)
    bps.append(one)
    return StepFunction(bps, vals)


def integrate_by_pieces(f: StepFunction, lo=None, hi=None):
    """StepFunction.integrate as a scan: every piece cut to [lo, hi] in turn."""
    zero = f.scalars.zero
    lo = zero if lo is None else f.scalars(lo)
    hi = f.scalars.one if hi is None else f.scalars(hi)
    total = zero
    for t0, t1, v in zip(f.breakpoints, f.breakpoints[1:], f.values):
        a = t0 if t0 > lo else lo
        b = t1 if t1 < hi else hi
        if b > a:
            total = total + v * (b - a)
    return total


class TestIndicatorAndIntegrate:
    """indicator is from_jumps of two jumps and integrate sums the cells of
    its window, held to the piece-by-piece constructions they replace."""

    @pytest.mark.parametrize("on_floats", [False, True])
    @pytest.mark.parametrize(
        "lo,hi,want",
        [(-1, 2, 4), (-H, H, Fraction(3, 2)), (H, 3, Fraction(5, 2)), (2, 3, 0), (-2, -1, 0)],
    )
    def test_windows_reaching_outside_the_unit_interval(self, on_floats, lo, hi, want):
        f = StepFunction([0, Fraction(1, 3), 1], [2, 5])
        if on_floats:
            f = StepFunction([0.0, 1 / 3, 1.0], [2.0, 5.0])
            assert f.integrate(float(lo), float(hi)) == pytest.approx(float(want), abs=1e-15)
        else:
            assert f.integrate(lo, hi) == want

    @given(windows())
    def test_integrate_matches_the_scan(self, case):
        f, lo, hi = case
        want = integrate_by_pieces(f, lo, hi)
        if f.is_float:
            assert f.integrate(lo, hi) == pytest.approx(want, abs=1e-12)
        else:
            assert f.integrate(lo, hi) == want

    def test_exact_integrate_matches_the_scan_on_ragged_functions(self):
        rng = random.Random("integrate")
        for _ in range(40):
            f = _ragged_exact(rng, rng.randint(1, 24))
            lo, hi = (Fraction(rng.randint(-500, 1500), 1000) for _ in range(2))
            assert f.integrate(lo, hi) == integrate_by_pieces(f, lo, hi)

    @given(
        st.fractions(min_value=-1, max_value=2, max_denominator=30),
        st.fractions(min_value=-1, max_value=2, max_denominator=30),
    )
    def test_exact_indicator_matches_the_cases(self, lo, hi):
        assert StepFunction.indicator(lo, hi) == indicator_by_cases(lo, hi)
        root5 = Surd(0, 1, 5) / 5
        assert StepFunction.indicator(lo + root5, hi) == indicator_by_cases(lo + root5, hi)

    def test_float_endpoints_within_the_snap_fuse(self):
        assert StepFunction.indicator(1e-13, 0.5) == StepFunction.indicator(0.0, 0.5)
        assert StepFunction.indicator(0.3, 0.3 + 1e-13) == StepFunction.constant(0.0)
        assert StepFunction.indicator(0.25, 0.75) == indicator_by_cases(0.25, 0.75)


class TestFloatSnap:
    def test_nearly_equal_breakpoints_fuse(self):
        f = StepFunction([0.0, 0.3, 1.0], [1.0, 2.0])
        g = StepFunction([0.0, 0.3 + 5e-13, 1.0], [1.0, 2.0])
        diff = f - g
        assert len(diff.breakpoints) <= 3
        assert diff.sup_norm() == 0.0

    def test_distinct_breakpoints_survive(self):
        f = StepFunction([0.0, 0.3, 1.0], [1.0, 2.0])
        g = StepFunction([0.0, 0.6, 1.0], [1.0, 2.0])
        assert (f - g).breakpoints == (0.0, 0.3, 0.6, 1.0)


class TestSerialization:
    def test_exact_json_round_trip(self):
        f = StepFunction(
            [0, Surd(Fraction(3, 2), Fraction(-1, 2), 5), 1],
            [Surd(Fraction(1, 2), Fraction(3, 10), 5), Fraction(2, 3)],
        )
        text = step_to_json(f)
        assert '"backend": "exact-5"' in text
        assert step_from_json(text) == f

    def test_rational_json_round_trip(self):
        f = StepFunction([0, Fraction(1, 3), 1], [1, Fraction(-2, 7)])
        text = step_to_json(f)
        assert '"backend": "exact-1"' in text
        assert step_from_json(text) == f

    def test_float_json_round_trip(self):
        f = make_float_step(random.Random(7))
        g = step_from_json(step_to_json(f))
        assert g == f

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "{}",
            '{"breakpoints": [0, 1], "values": [1], "backend": "exact-bad"}',
            '{"breakpoints": [0, 1], "values": [1], "backend": "decimal"}',
            '{"breakpoints": [0, 1], "values": ["0.5"], "backend": "exact-1"}',
            '{"breakpoints": [0.0, 1.0], "values": ["1/2"], "backend": "float"}',
            '{"breakpoints": ["0", "1"], "values": ["sqrt(2)"], "backend": "exact-5"}',
            '{"breakpoints": ["0", "3/2 - 1/2*sqrt(5)", "1"], "values": ["1", "1"], "backend": "exact-3"}',
            '{"breakpoints": [0, 0.5, 1], "values": [1], "backend": "float"}',
        ],
    )
    def test_bad_json_rejected(self, text):
        with pytest.raises(ParseError):
            step_from_json(text)

    @pytest.mark.parametrize(
        "entry",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "1e400", "int-1e400"],
    )
    def test_non_finite_float_entries_rejected(self, entry):
        with pytest.raises(ParseError, match="finite"):
            step_from_json(f'{{"breakpoints": [0, 1], "values": [{entry}], "backend": "float"}}')

    def test_csv_export(self):
        f = StepFunction([0, H, 1], [Fraction(3, 2), 1])
        assert step_to_csv(f) == "x_left,x_right,value\n0,0.5,1.5\n0.5,1,1\n"

    def test_random_round_trips(self):
        rng = random.Random(99)
        for _ in range(25):
            f = make_exact_step(rng)
            assert step_from_json(step_to_json(f)) == f
            g = make_float_step(rng)
            assert step_from_json(step_to_json(g)) == g
