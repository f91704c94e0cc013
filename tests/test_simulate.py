import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoval.simulate
from twoval.families import lebesgue_family, nonconstant_family
from twoval.piecewise import StepFunction, ZeroMassError
from twoval.simulate import (
    _MAX_STEPS,
    ChainReport,
    HistogramReport,
    OneStepReport,
    _advance,
    _count_le,
    _draws,
    histogram_report,
    one_step_stationarity_test,
    read_sample_file,
    run_chain,
    sample_from_density,
    write_sample_file,
)
from twoval.system import EquippedSystem, as_float_system

from test_system import golden_system

UNIFORM = StepFunction.constant(1.0)


def control_system() -> EquippedSystem:
    """Uniform density that is NOT invariant at a = 9/20 with even weights."""
    return EquippedSystem(0.45, StepFunction.constant(1.0), StepFunction.constant(0.5))


class TestSampler:
    def test_same_seed_reproduces(self):
        s1 = sample_from_density(UNIFORM, 500, seed=42)
        s2 = sample_from_density(UNIFORM, 500, seed=42)
        assert np.array_equal(s1, s2)

    def test_seed_and_stream_change_the_draw(self):
        base = sample_from_density(UNIFORM, 500, seed=42)
        other_seed = sample_from_density(UNIFORM, 500, seed=43)
        other_stream = sample_from_density(UNIFORM, 500, seed=42, stream=1)
        assert not np.array_equal(base, other_seed)
        assert not np.array_equal(base, other_stream)

    def test_returns_a_float64_array_of_n_values(self):
        s = sample_from_density(UNIFORM, 100, seed=7, stream=3)
        assert isinstance(s, np.ndarray)
        assert s.dtype == np.float64
        assert s.shape == (100,)

    def test_values_stay_in_unit_interval(self):
        s = sample_from_density(UNIFORM, 10_000, seed=1)
        assert np.all(s >= 0)
        assert np.all(s <= 1)

    def test_respects_support(self):
        half = StepFunction([0, 0.5, 1], [2.0, 0.0])
        s = sample_from_density(half, 5_000, seed=5)
        assert np.all(s < 0.5)

    def test_skips_interior_gap(self):
        gap = StepFunction([0, 0.25, 0.75, 1], [1.0, 0.0, 1.0])
        s = sample_from_density(gap, 5_000, seed=5)
        inside = (s >= 0.25) & (s < 0.75)
        assert not inside.any()

    def test_piece_masses_come_out_right(self):
        f = StepFunction([0, 0.5, 1], [0.5, 1.5])
        s = sample_from_density(f, 40_000, seed=11)
        frac_left = np.mean(s < 0.5)
        assert frac_left == pytest.approx(0.25, abs=0.01)

    def test_exact_density_is_accepted(self):
        sys = golden_system()
        s = sample_from_density(sys.density, 20_000, seed=3)
        rep = histogram_report(s, sys.density)
        assert rep.ks_statistic < 0.02

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroMassError):
            sample_from_density(StepFunction.constant(0.0), 10, seed=1)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            sample_from_density(StepFunction([0, 0.5, 1], [1.0, -1.0]), 10, seed=1)

    def test_bad_counts_and_seeds_rejected(self):
        with pytest.raises(ValueError):
            sample_from_density(UNIFORM, 0, seed=1)
        with pytest.raises(ValueError):
            sample_from_density(UNIFORM, 10, seed=-1)
        with pytest.raises(ValueError):
            sample_from_density(UNIFORM, 10, seed=True)
        with pytest.raises(ValueError):
            sample_from_density(UNIFORM, 10, seed=1, stream=-2)


class TestHistogramReport:
    def test_two_point_hand_case(self):
        rep = histogram_report(np.array([0.1, 0.6]), UNIFORM, bins=2)
        assert np.allclose(rep.bin_masses, [0.5, 0.5])
        assert np.allclose(rep.reference_masses, [0.5, 0.5])
        assert rep.l1_distance_to_reference == pytest.approx(0.0)
        assert rep.ks_statistic == pytest.approx(0.4)

    def test_masses_sum_to_one(self):
        s = sample_from_density(UNIFORM, 1000, seed=2)
        rep = histogram_report(s, UNIFORM, bins=37)
        assert rep.bin_masses.sum() == pytest.approx(1.0)
        assert rep.reference_masses.sum() == pytest.approx(1.0)
        assert len(rep.bin_edges) == 38

    def test_matched_samples_sit_at_noise_floor(self):
        s = sample_from_density(UNIFORM, 40_000, seed=8)
        rep = histogram_report(s, UNIFORM, bins=100)
        assert rep.l1_distance_to_reference < 0.08
        assert rep.ks_statistic < 0.015

    def test_unnormalized_reference_is_normalized(self):
        s = sample_from_density(UNIFORM, 10_000, seed=9)
        doubled = StepFunction.constant(2.0)
        a = histogram_report(s, UNIFORM, bins=20)
        b = histogram_report(s, doubled, bins=20)
        assert a.l1_distance_to_reference == pytest.approx(b.l1_distance_to_reference)

    def test_rejects_empty_and_bad_bins(self):
        with pytest.raises(ValueError):
            histogram_report(np.array([]), UNIFORM)
        with pytest.raises(ValueError):
            histogram_report(np.array([0.5]), UNIFORM, bins=0)

    def test_rejects_zero_mass_reference(self):
        with pytest.raises(ZeroMassError, match="reference density has no mass"):
            histogram_report(np.array([0.5]), StepFunction.constant(0.0))


class TestOneStep:
    def test_invariant_density_stays_put(self):
        rep = one_step_stationarity_test(golden_system(), 200_000, seed=17)
        assert isinstance(rep, OneStepReport)
        assert rep.post.l1_distance_to_reference < 0.03
        assert rep.post.ks_statistic < 0.01

    def test_half_parameter_uniform_stays_put(self):
        alpha = StepFunction([0, 0.3, 0.8, 1], [0.2, 0.9, 0.5])
        sys = EquippedSystem(0.5, StepFunction.constant(1.0), alpha)
        rep = one_step_stationarity_test(sys, 200_000, seed=23)
        assert rep.post.l1_distance_to_reference < 0.03

    def test_control_is_detected(self):
        rep = one_step_stationarity_test(control_system(), 100_000, seed=29)
        assert rep.pre.l1_distance_to_reference < 0.03
        assert rep.post.l1_distance_to_reference > 0.05
        assert rep.post.ks_statistic > 0.02
        assert rep.l1_pre_post > 0.04

    def test_exact_system_matches_its_float_copy(self):
        exact = golden_system()
        rep_exact = one_step_stationarity_test(exact, 20_000, seed=31)
        rep_float = one_step_stationarity_test(as_float_system(exact), 20_000, seed=31)
        assert np.array_equal(rep_exact.post.bin_masses, rep_float.post.bin_masses)

    def test_reproducible(self):
        r1 = one_step_stationarity_test(golden_system(), 10_000, seed=5)
        r2 = one_step_stationarity_test(golden_system(), 10_000, seed=5)
        assert r1.post.l1_distance_to_reference == r2.post.l1_distance_to_reference

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            one_step_stationarity_test(golden_system(), 0, seed=1)


class TestRunChain:
    def test_uniform_start_pulls_toward_golden_density(self):
        rep = run_chain(golden_system(), 200_000, 12, seed=37, initial="uniform")
        assert isinstance(rep, ChainReport)
        assert len(rep.step_distances) == 12
        assert rep.step_distances[0] > rep.step_distances[-1]
        assert rep.final.l1_distance_to_reference < 0.03
        assert len(rep.final_values) == 200_000

    def test_density_start_stays_at_noise_floor(self):
        rep = run_chain(golden_system(), 100_000, 5, seed=41)
        assert all(d < 0.05 for d in rep.step_distances)

    def test_zero_steps(self):
        rep = run_chain(golden_system(), 10_000, 0, seed=43)
        assert rep.step_distances == []
        assert isinstance(rep.final, HistogramReport)
        # zero steps is a plain draw from the density, stream for stream
        drawn = sample_from_density(as_float_system(golden_system()).density, 10_000, seed=43)
        assert np.array_equal(rep.final_values, drawn)

    def test_one_step_pre_is_the_report_on_the_chain_start(self):
        fs = as_float_system(golden_system())
        got = one_step_stationarity_test(fs, 10_000, seed=44, bins=40, stream=2).pre
        want = histogram_report(sample_from_density(fs.density, 10_000, seed=44, stream=2), fs.density, bins=40)
        for field in ("bin_edges", "bin_masses", "reference_masses"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert (got.l1_distance_to_reference, got.ks_statistic) == (want.l1_distance_to_reference, want.ks_statistic)

    def test_one_report_and_one_build_of_each_lookup_table(self, monkeypatch):
        # 4 blocks a step over 5 steps: the sampler's count table and the
        # branch step's threshold table are each built once, and only the
        # last step is reported on
        calls = {"histogram_report": 0, "_lookup": 0}
        for name in calls:

            def counted(*args, _name=name, _real=getattr(twoval.simulate, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(twoval.simulate, name, counted)
        rep = run_chain(golden_system(), 3 * BLOCK + 17, 5, seed=48)
        assert calls == {"histogram_report": 1, "_lookup": 2}
        assert len(rep.step_distances) == 5

    def test_every_step_distance_is_its_full_report_l1(self):
        # a k-step chain is the first k steps of a longer one, and its last
        # step gets the full report, so each kept L1 figure is checked
        fs = as_float_system(golden_system())
        longest = run_chain(fs, 5_000, 4, seed=45, bins=30)
        for k in range(1, 5):
            rep = run_chain(fs, 5_000, k, seed=45, bins=30)
            full = histogram_report(rep.final_values, fs.density, bins=30)
            assert rep.step_distances == longest.step_distances[:k]
            assert rep.step_distances[-1] == full.l1_distance_to_reference
            assert rep.final.ks_statistic == full.ks_statistic
            assert np.array_equal(rep.final.bin_masses, full.bin_masses)

    def test_half_parameter_short_chain_smoke(self):
        sys = EquippedSystem(0.5, StepFunction.constant(1.0), StepFunction.constant(0.3))
        rep = run_chain(sys, 50_000, 5, seed=47)
        assert all(d < 0.06 for d in rep.step_distances)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_chain(golden_system(), 100, -1, seed=1)
        with pytest.raises(ValueError):
            run_chain(golden_system(), 100, 2, seed=1, initial="spike")

    @pytest.fixture
    def no_step(self, monkeypatch):
        """run_chain's per-block branch step, made to fail if it runs."""

        def step(*args):
            raise AssertionError("a branch step ran")

        monkeypatch.setattr(twoval.simulate, "_stepper", lambda system: step)

    def test_the_step_guard_guards(self, no_step):
        with pytest.raises(AssertionError, match="a branch step ran"):
            run_chain(golden_system(), 100, 1, seed=1)

    @pytest.mark.parametrize("steps", [-1, _MAX_STEPS + 1, 10**20])
    def test_step_count_outside_the_cap_raises_before_any_step(self, no_step, steps):
        with pytest.raises(ValueError, match=r"n_steps must lie in \[0, 1000000\]"):
            run_chain(golden_system(), 100, steps, seed=1)

    @pytest.mark.parametrize(
        ("density", "kwargs", "error", "message"),
        [
            (1.0, {"bins": 0}, ValueError, "bins must be positive"),
            (0.0, {"initial": "uniform"}, ZeroMassError, "reference density has no mass"),
            (0.0, {"initial": "uniform", "bins": 0}, ValueError, "bins must be positive"),
            (0.0, {"bins": 0}, ZeroMassError, "density has no mass to sample from"),
        ],
    )
    def test_bad_bins_and_a_massless_reference_raise_before_any_step(self, no_step, density, kwargs, error, message):
        system = EquippedSystem(0.3, StepFunction.constant(density), StepFunction.constant(0.5))
        for steps in (1, 5):
            with pytest.raises(error, match=f"^{message}$"):
                run_chain(system, 100, steps, seed=1, **kwargs)


class TestSampleFile:
    def test_round_trips(self, tmp_path):
        values = sample_from_density(UNIFORM, 1000, seed=13)
        path = tmp_path / "samples.bin"
        write_sample_file(path, values)
        back = read_sample_file(path)
        assert np.array_equal(back, values)

    def test_layout_is_count_header_then_le_doubles(self, tmp_path):
        path = tmp_path / "two.bin"
        write_sample_file(path, np.array([0.5, 0.25]))
        raw = path.read_bytes()
        assert len(raw) == 8 + 16
        assert int.from_bytes(raw[:8], "little") == 2
        assert np.frombuffer(raw[8:], dtype="<f8").tolist() == [0.5, 0.25]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="sample file is truncated: missing count header"):
            read_sample_file(path)

    def test_short_payload_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes((3).to_bytes(8, "little") + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_sample_file(path)

    @pytest.mark.parametrize("extra", [1, 8])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        path = tmp_path / "long.bin"
        path.write_bytes((2).to_bytes(8, "little") + b"\x00" * (16 + extra))
        with pytest.raises(ValueError, match="sample file payload does not match count 2"):
            read_sample_file(path)

    def test_count_beyond_the_file_rejected(self, tmp_path):
        path = tmp_path / "huge.bin"
        path.write_bytes((2**62).to_bytes(8, "little") + b"\x00" * 16)
        with pytest.raises(ValueError, match=f"payload does not match count {2**62}"):
            read_sample_file(path)


# -- _count_le against np.searchsorted ---------------------------------------


@st.composite
def ascending_edges(draw):
    """Sorted edges on [0, 1]: random, on the 1/4096 grid, or clustered within
    1e-6, some repeated as zero-mass pieces repeat a cumulative mass."""
    kind = draw(st.sampled_from(["random", "grid", "cluster"]))
    size = draw(st.integers(1, 12))
    if kind == "random":
        edges = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    elif kind == "grid":
        edges = [k / 4096 for k in draw(st.lists(st.integers(0, 4096), min_size=size, max_size=size))]
    else:
        base = draw(st.floats(0.0, 1.0 - 1e-6))
        edges = [base + d for d in draw(st.lists(st.floats(0.0, 1e-6), min_size=size, max_size=size))]
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(edges), max_size=len(edges)))
    return np.sort(np.repeat(np.array(edges), repeats))


def keys_around(edges: np.ndarray) -> np.ndarray:
    """0, 1, every edge, and the doubles on either side of each edge, in [0, 1]."""
    keys = np.concatenate(([0.0, 1.0], edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)))
    return keys[(keys >= 0.0) & (keys <= 1.0)]


class TestCountLe:
    @settings(max_examples=300, deadline=None)
    @given(ascending_edges(), st.integers(0, 2**32 - 1))
    def test_matches_searchsorted(self, edges, seed):
        keys = np.concatenate((keys_around(edges), np.random.default_rng(seed).random(200)))
        assert np.array_equal(_count_le(edges, keys), np.searchsorted(edges, keys, side="right"))

    def test_many_edges_in_one_cell(self):
        edges = np.sort(np.random.default_rng(1).random(10_000))
        keys = np.concatenate((keys_around(edges), np.random.default_rng(2).random(10_000)))
        assert np.array_equal(_count_le(edges, keys), np.searchsorted(edges, keys, side="right"))


# -- byte identity with the binary-search formulas ---------------------------
#
# The reference helpers below are the searchsorted / clip / gather formulas
# the kernels replaced.  A (seed, stream) pair must give the same draw and
# the same report bit for bit.


def ref_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,))))


def ref_steps(f: StepFunction):
    return np.array([float(b) for b in f.breakpoints]), np.array([float(v) for v in f.values])


def ref_eval_step(bps, vals, x):
    idx = np.searchsorted(bps, x, side="right") - 1
    return vals[np.clip(idx, 0, len(vals) - 1)]


def ref_sample(density: StepFunction, n: int, rng) -> np.ndarray:
    bps, vals = ref_steps(density)
    widths = np.diff(bps)
    masses = vals * widths
    total = masses.sum()
    cum = np.cumsum(masses) / total
    cum[-1] = 1.0
    u = rng.random(n)
    idx = np.searchsorted(cum, u, side="right")
    prev = np.concatenate(([0.0], cum[:-1]))
    rel = (u - prev[idx]) / (masses[idx] / total)
    return np.clip(bps[idx] + rel * widths[idx], 0.0, 1.0)


def ref_histogram(values, density: StepFunction, bins: int = 100):
    bps, vals = ref_steps(density)
    masses = vals * np.diff(bps)
    total = masses.sum()
    cum_at_bp = np.concatenate(([0.0], np.cumsum(masses)))

    def cdf(x):
        idx = np.clip(np.searchsorted(bps, x, side="right") - 1, 0, len(vals) - 1)
        return np.clip((cum_at_bp[idx] + vals[idx] * (x - bps[idx])) / total, 0.0, 1.0)

    n = len(values)
    edges = np.linspace(0.0, 1.0, bins + 1)
    ref = np.diff(cdf(edges))
    emp = np.histogram(values, bins=edges)[0] / n
    f = cdf(np.sort(values))
    i = np.arange(1, n + 1)
    ks = float(max((i / n - f).max(), (f - (i - 1) / n).max()))
    return emp, ref, float(np.abs(emp - ref).sum()), ks


def ref_advance(x, system: EquippedSystem, coins):
    a = float(system.a)
    w = 1.0 - a
    first = coins < ref_eval_step(*ref_steps(system.alpha1), x)
    y = np.where(x < np.where(first, w, a), x / w, (x - a) / w)
    return np.clip(y, 0.0, 1.0)


ORACLE_SYSTEMS = {
    "golden-exact": lambda: nonconstant_family(2, 3, 5),
    "nc3-float": lambda: as_float_system(nonconstant_family(3, 2, 6)),
    "leb4-float": lambda: as_float_system(lebesgue_family(4, fill=Fraction(1, 2))),
    "control": control_system,
    "half": lambda: EquippedSystem(0.5, StepFunction.constant(1.0), StepFunction([0, 0.3, 0.8, 1], [0.2, 0.9, 0.5])),
}


#: the points per block of the Monte Carlo kernels
BLOCK = 32_768


def assert_chain_matches_reference(fs: EquippedSystem, n: int, max_steps: int):
    """run_chain at 0..max_steps steps gives the reference draw, points and reports."""
    rng = ref_rng(19, 3)
    xs = [ref_sample(fs.density, n, rng)]
    for _ in range(max_steps):
        xs.append(ref_advance(xs[-1], fs, rng.random(n)))
    reports = [ref_histogram(x, fs.density) for x in xs]
    for steps in range(max_steps + 1):
        rep = run_chain(fs, n, steps, 19, stream=3)
        assert rep.final_values.tobytes() == xs[steps].tobytes()
        assert rep.step_distances == [r[2] for r in reports[1 : steps + 1]]
        got, want = rep.final, reports[steps]
        assert got.bin_masses.tobytes() == want[0].tobytes()
        assert got.reference_masses.tobytes() == want[1].tobytes()
        assert got.l1_distance_to_reference == want[2]
        assert got.ks_statistic == want[3]


@st.composite
def branch_systems(draw):
    """Float systems at a = 1/2 (an empty middle), fl(1/3) or a random a, with
    alpha1 cut at random, on the 1/4096 grid or in a 1e-6 cluster (around a,
    1 - a or a random point), and cut exactly at a and at 1 - a."""
    a = draw(st.sampled_from([0.5, 1 / 3]) | st.floats(0.01, 0.5))
    w = 1.0 - a
    kind = draw(st.sampled_from(["random", "grid", "cluster"]))
    size = draw(st.integers(0, 8))
    if kind == "random":
        cuts = draw(st.lists(st.floats(0.0, 1.0), max_size=size))
    elif kind == "grid":
        cuts = [k / 4096 for k in draw(st.lists(st.integers(1, 4095), max_size=size))]
    else:
        centre = draw(st.sampled_from([a, w]) | st.floats(0.0, 1.0))
        cuts = [centre + d for d in draw(st.lists(st.floats(-1e-6, 1e-6), max_size=size))]
    cuts += draw(st.lists(st.sampled_from([a, w]), max_size=2))
    bps = sorted({c for c in cuts if 0.0 < c < 1.0})
    vals = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=len(bps) + 1, max_size=len(bps) + 1))
    return EquippedSystem(a, StepFunction.constant(1.0), StepFunction([0.0, *bps, 1.0], vals))


class TestBranchThresholds:
    @settings(max_examples=300, deadline=None)
    @given(branch_systems(), st.integers(0, 2**32 - 1))
    def test_step_matches_the_reference_step(self, fs, seed):
        # keys at 0, 1 and at and next to every edge of the threshold table;
        # coins at random, at alpha1 itself, one double below it, and 0
        rng = np.random.default_rng(seed)
        bps, vals = ref_steps(fs.alpha1)
        keys = np.concatenate((keys_around(np.sort(np.append(bps, (fs.a, 1.0 - fs.a)))), rng.random(100)))
        alpha = ref_eval_step(bps, vals, keys)
        x = np.tile(keys, 4)
        coins = np.concatenate((rng.random(len(keys)), alpha, np.nextafter(alpha, 0.0), np.zeros(len(keys))))
        assert _advance(x, fs, coins).tobytes() == ref_advance(x, fs, coins).tobytes()


def serial_chain(fs: EquippedSystem, n: int, max_steps: int, seed: int, stream: int, initial: str) -> list:
    """The points at steps 0..max_steps of the serial chain loop that
    run_chain replaced, written with the reference formulas: the start, then
    each step's coins, drawn in order from one generator, all n points a
    step before the next."""
    rng = ref_rng(seed, stream)
    xs = [ref_sample(fs.density, n, rng) if initial == "density" else rng.random(n)]
    for _ in range(max_steps):
        xs.append(ref_advance(xs[-1], fs, rng.random(n)))
    return xs


class TestParallelChain:
    """run_chain carries each block through all its steps on a worker, each
    draw taken from its place in the one stream: the bytes do not depend on
    the number of workers."""

    @pytest.mark.parametrize(("seed", "stream"), [(19, 3), (2**32 - 1, 0)])
    @pytest.mark.parametrize("initial", ["density", "uniform"])
    @pytest.mark.parametrize("n", [1, 3, 5, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 100_003])
    def test_any_worker_count_gives_the_serial_chain(self, monkeypatch, n, initial, seed, stream):
        fs = as_float_system(ORACLE_SYSTEMS["nc3-float"]())
        xs = serial_chain(fs, n, 3, seed, stream, initial)
        reports = [ref_histogram(x, fs.density, 20) for x in xs]
        for workers in (1, 2, 3):
            monkeypatch.setattr(twoval.simulate, "_workers", lambda *args, _w=workers: _w)
            for steps in range(4):
                rep = run_chain(fs, n, steps, seed, bins=20, stream=stream, initial=initial)
                assert rep.final_values.tobytes() == xs[steps].tobytes()
                assert rep.step_distances == [r[2] for r in reports[1 : steps + 1]]
                assert rep.final.bin_masses.tobytes() == reports[steps][0].tobytes()
                assert rep.final.ks_statistic == reports[steps][3]

    def test_counts_held_in_rounds_of_steps(self, monkeypatch):
        # 12 bins and _COUNTS = 4,096 give rounds of 341 stages (the start
        # and 700 steps take three), and one block leaves a worker idle
        fs = as_float_system(ORACLE_SYSTEMS["golden-exact"]())
        monkeypatch.setattr(twoval.simulate, "_workers", lambda *args: 2)
        rep = run_chain(fs, 40, 700, 5, bins=12, stream=1)
        xs = serial_chain(fs, 40, 700, 5, 1, "density")
        assert rep.final_values.tobytes() == xs[-1].tobytes()
        assert rep.step_distances == [ref_histogram(x, fs.density, 12)[2] for x in xs[1:]]


class TestWorkerCount:
    @pytest.mark.parametrize(
        ("blocks", "stages", "workers"),
        [(1, 10**6, 1), (4, 1, 1), (4, 2, 1), (4, 6, 3), (31, 1, 3), (31, 2, 4), (2, 21, 2)],
    )
    def test_one_per_cpu_block_and_eight_block_stages(self, monkeypatch, blocks, stages, workers):
        # 10^5 points are 4 blocks: at 0 or 1 steps the chain stays on the calling thread
        monkeypatch.setattr(twoval.simulate.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert twoval.simulate._workers(blocks, stages) == workers


class TestPositionedDraws:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5, 6, 7, 101, 3 * BLOCK + 2])
    def test_draws_from_d_are_one_stream_from_d(self, d):
        want = ref_rng(7, 3).random(d + 40)[d:]
        rng = ref_rng(7, 3)
        rng.random(13)  # what was drawn before does not matter
        assert _draws(rng, d, np.empty(40)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("counter", [2**64 - 1, 2**64 + 5, 2**128 - 1, 2**192 + 2**64 - 1])
    @pytest.mark.parametrize("offset", [0, 1, 2, 3])
    def test_counters_past_one_word_carry(self, counter, offset):
        # 40 draws from counter 2^64 - 1 cross into the second word as they go
        want = ref_rng(7, 3)
        want.bit_generator.advance(counter)
        want.bit_generator.random_raw(offset)
        got = _draws(ref_rng(7, 3), 4 * counter + offset, np.empty(40))
        assert got.tobytes() == want.random(40).tobytes()


class TestThreads:
    @pytest.fixture
    def three_workers(self, monkeypatch):
        monkeypatch.setattr(twoval.simulate, "_workers", lambda *args: 3)

    def test_workers_call_nothing_the_tracer_wraps(self, monkeypatch, three_workers):
        # perfbench/tracing.py wraps these names, and its span stack is not thread-safe
        for name in ("_sample_with_rng", "sample_from_density", "histogram_report", "run_chain"):

            def on_main_thread(*args, _real=getattr(twoval.simulate, name), **kwargs):
                assert threading.current_thread() is threading.main_thread()
                return _real(*args, **kwargs)

            monkeypatch.setattr(twoval.simulate, name, on_main_thread)
        helper_drew = threading.Event()

        def draws(*args, _real=twoval.simulate._draws):
            if threading.current_thread() is threading.main_thread():
                helper_drew.wait(timeout=30)  # so that a helper takes a block
            else:
                helper_drew.set()
            return _real(*args)

        monkeypatch.setattr(twoval.simulate, "_draws", draws)
        for initial in ("density", "uniform"):
            for steps in (0, 1, 3):
                twoval.simulate.run_chain(golden_system(), 3 * BLOCK + 17, steps, seed=2, initial=initial)
        twoval.simulate.one_step_stationarity_test(golden_system(), 2 * BLOCK + 1, seed=3)
        assert helper_drew.is_set()

    def test_many_workers_on_small_blocks_lose_no_block_and_no_count(self, monkeypatch):
        # more workers than CPUs, 64-point blocks and a switch interval of a
        # microsecond: a block taken twice or skipped changes the points, and
        # a lost count update changes a step distance
        monkeypatch.setattr(twoval.simulate, "_BLOCK", 64)
        monkeypatch.setattr(twoval.simulate, "_workers", lambda *args: 8)
        fs = as_float_system(ORACLE_SYSTEMS["control"]())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rep = run_chain(fs, 64 * 60 + 7, 4, 8, bins=10)
        finally:
            sys.setswitchinterval(interval)
        xs = serial_chain(fs, 64 * 60 + 7, 4, 8, 0, "density")
        assert rep.final_values.tobytes() == xs[-1].tobytes()
        assert rep.step_distances == [ref_histogram(x, fs.density, 10)[2] for x in xs[1:]]

    def test_no_thread_outlives_a_chain(self, three_workers):
        before = threading.active_count()
        run_chain(golden_system(), 3 * BLOCK + 17, 2, seed=4)
        assert threading.active_count() == before

    def test_one_step_build_per_chain(self, monkeypatch, three_workers):
        builds = []

        def counted(system, _real=twoval.simulate._stepper):
            builds.append(system)
            return _real(system)

        monkeypatch.setattr(twoval.simulate, "_stepper", counted)
        run_chain(golden_system(), 3 * BLOCK + 17, 4, seed=6)
        assert len(builds) == 1

    def test_an_error_in_a_worker_reaches_the_caller(self, monkeypatch, three_workers):
        helper_ran = threading.Event()

        def step(*args):
            if threading.current_thread() is threading.main_thread():
                helper_ran.wait(timeout=30)  # so that a helper takes a block
            else:
                helper_ran.set()
                raise AssertionError("a helper's step ran")

        monkeypatch.setattr(twoval.simulate, "_stepper", lambda system: step)
        with pytest.raises(AssertionError, match="a helper's step ran"):
            run_chain(golden_system(), 3 * BLOCK, 1, seed=1)
        assert helper_ran.is_set()


class TestByteIdentity:
    @pytest.mark.parametrize("n", [10_000, 200_000])
    @pytest.mark.parametrize("tag", list(ORACLE_SYSTEMS))
    def test_run_chain_matches_reference(self, tag, n):
        assert_chain_matches_reference(as_float_system(ORACLE_SYSTEMS[tag]()), n, 5)

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    @pytest.mark.parametrize("tag", list(ORACLE_SYSTEMS))
    def test_run_chain_matches_reference_at_block_edges(self, tag, n):
        assert_chain_matches_reference(as_float_system(ORACLE_SYSTEMS[tag]()), n, 3)

    @pytest.mark.parametrize(("moved", "shift"), [(BLOCK, 0.4), (BLOCK - 1, -0.4)])
    def test_ks_sup_on_the_pair_across_a_block_edge(self, moved, shift):
        # against the uniform F(x) = x, the i-th smallest of (i + 1/2)/n sits
        # 1/(2n) from both F_n steps; moving the first value of the second
        # block up makes F - F_n peak on it against the last step of the first
        # block, 32,768/n; moving the value before it down makes F_n - F peak
        # there, on the same step
        n = 2 * BLOCK + 5
        values = (np.arange(n) + 0.5) / n
        values[moved] += shift / n
        got = histogram_report(values, UNIFORM, bins=10)
        assert got.ks_statistic == ref_histogram(values, UNIFORM, 10)[3]
        assert got.ks_statistic == pytest.approx(0.9 / n, rel=1e-9)

    @pytest.mark.parametrize("tag", list(ORACLE_SYSTEMS))
    def test_histogram_report_off_a_block_multiple_and_the_unit_interval(self, tag):
        density = as_float_system(ORACLE_SYSTEMS[tag]()).density
        values = np.random.default_rng(6).normal(0.5, 0.6, 2 * BLOCK + 3)
        values[BLOCK - 1 : BLOCK + 1] = [-0.25, 1.25]
        got = histogram_report(values, density, bins=13)
        emp, ref, l1, ks = ref_histogram(values, density, 13)
        assert got.bin_masses.tobytes() == emp.tobytes()
        assert got.reference_masses.tobytes() == ref.tobytes()
        assert (got.l1_distance_to_reference, got.ks_statistic) == (l1, ks)

    @pytest.mark.parametrize("tag", list(ORACLE_SYSTEMS))
    def test_histogram_report_matches_reference_off_the_unit_interval(self, tag):
        density = as_float_system(ORACLE_SYSTEMS[tag]()).density
        values = np.random.default_rng(5).normal(0.5, 0.45, 30_001)
        values[:4] = [-1e-300, 1.0, 1.5, 0.0]
        assert values.min() < 0 and values.max() > 1
        for bins in (1, 7, 100):
            got = histogram_report(values, density, bins=bins)
            emp, ref, l1, ks = ref_histogram(values, density, bins)
            assert got.bin_masses.tobytes() == emp.tobytes()
            assert got.reference_masses.tobytes() == ref.tobytes()
            assert (got.l1_distance_to_reference, got.ks_statistic) == (l1, ks)

    def test_single_value_report(self):
        got = histogram_report(np.array([0.3]), UNIFORM, bins=4)
        emp, ref, l1, ks = ref_histogram(np.array([0.3]), UNIFORM, 4)
        assert (got.bin_masses.tobytes(), got.ks_statistic) == (emp.tobytes(), ks)


def peak_arrays(call, n: int) -> float:
    """The peak memory that call() allocates, in arrays of n doubles.

    numpy reports its buffers to tracemalloc; what existed before the call
    is not counted.
    """
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * n)


class TestMemory:
    # at 10^6 points the per-block temporaries are a small share of an array of n

    N = 10**6

    def test_chain_holds_at_most_two_and_a_half_arrays_of_n(self):
        fs = as_float_system(golden_system())
        run_chain(fs, 1_000, 3, seed=1)
        # the points and one sorted copy for a report
        assert peak_arrays(lambda: run_chain(fs, self.N, 3, seed=2), self.N) <= 2.5

    def test_four_workers_hold_at_most_half_an_array_of_n(self, monkeypatch):
        # before the final report the chain holds its points and, per worker,
        # three buffers of 32,768 values: 0.39 arrays of n at four workers
        seen = []

        def report(values, *args, _real=twoval.simulate.histogram_report):
            seen.append(tracemalloc.get_traced_memory()[1])
            return _real(values, *args)

        monkeypatch.setattr(twoval.simulate, "histogram_report", report)
        monkeypatch.setattr(twoval.simulate, "_workers", lambda *args: 4)
        fs = as_float_system(golden_system())
        run_chain(fs, 1_000, 3, seed=1)
        peak_arrays(lambda: run_chain(fs, self.N, 3, seed=2), self.N)
        assert seen[-1] / (8 * self.N) - 1.0 <= 0.5

    def test_sampler_holds_one_array_of_n(self):
        density = as_float_system(golden_system()).density
        sample_from_density(density, 1_000, seed=1)
        assert peak_arrays(lambda: sample_from_density(density, self.N, seed=2), self.N) <= 1.25

    def test_report_holds_one_sorted_copy(self):
        density = as_float_system(golden_system()).density
        values = sample_from_density(density, self.N, seed=3)
        histogram_report(values[:1_000], density)
        assert peak_arrays(lambda: histogram_report(values, density), self.N) <= 2.25

    def test_sample_file_writes_without_a_copy_and_reads_into_one_array(self, tmp_path):
        values = sample_from_density(UNIFORM, self.N, seed=4)
        path = tmp_path / "big.bin"
        assert peak_arrays(lambda: write_sample_file(path, values), self.N) <= 0.25
        assert peak_arrays(lambda: read_sample_file(path), self.N) <= 1.25
