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
    SampleSet,
    _count_le,
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
        assert np.array_equal(s1.values, s2.values)

    def test_seed_and_stream_change_the_draw(self):
        base = sample_from_density(UNIFORM, 500, seed=42)
        other_seed = sample_from_density(UNIFORM, 500, seed=43)
        other_stream = sample_from_density(UNIFORM, 500, seed=42, stream=1)
        assert not np.array_equal(base.values, other_seed.values)
        assert not np.array_equal(base.values, other_stream.values)

    def test_sample_set_fields(self):
        s = sample_from_density(UNIFORM, 100, seed=7, stream=3)
        assert isinstance(s, SampleSet)
        assert len(s) == 100
        assert s.seed == 7
        assert s.stream == 3

    def test_values_stay_in_unit_interval(self):
        s = sample_from_density(UNIFORM, 10_000, seed=1)
        assert np.all(s.values >= 0)
        assert np.all(s.values <= 1)

    def test_respects_support(self):
        half = StepFunction([0, 0.5, 1], [2.0, 0.0])
        s = sample_from_density(half, 5_000, seed=5)
        assert np.all(s.values < 0.5)

    def test_skips_interior_gap(self):
        gap = StepFunction([0, 0.25, 0.75, 1], [1.0, 0.0, 1.0])
        s = sample_from_density(gap, 5_000, seed=5)
        inside = (s.values >= 0.25) & (s.values < 0.75)
        assert not inside.any()

    def test_piece_masses_come_out_right(self):
        f = StepFunction([0, 0.5, 1], [0.5, 1.5])
        s = sample_from_density(f, 40_000, seed=11)
        frac_left = np.mean(s.values < 0.5)
        assert frac_left == pytest.approx(0.25, abs=0.01)

    def test_exact_density_is_accepted(self):
        sys = golden_system()
        s = sample_from_density(sys.density, 20_000, seed=3)
        rep = histogram_report(s.values, sys.density)
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
        rep = histogram_report(s.values, UNIFORM, bins=37)
        assert rep.bin_masses.sum() == pytest.approx(1.0)
        assert rep.reference_masses.sum() == pytest.approx(1.0)
        assert len(rep.bin_edges) == 38

    def test_matched_samples_sit_at_noise_floor(self):
        s = sample_from_density(UNIFORM, 40_000, seed=8)
        rep = histogram_report(s.values, UNIFORM, bins=100)
        assert rep.l1_distance_to_reference < 0.08
        assert rep.ks_statistic < 0.015

    def test_unnormalized_reference_is_normalized(self):
        s = sample_from_density(UNIFORM, 10_000, seed=9)
        doubled = StepFunction.constant(2.0)
        a = histogram_report(s.values, UNIFORM, bins=20)
        b = histogram_report(s.values, doubled, bins=20)
        assert a.l1_distance_to_reference == pytest.approx(b.l1_distance_to_reference)

    def test_rejects_empty_and_bad_bins(self):
        with pytest.raises(ValueError):
            histogram_report(np.array([]), UNIFORM)
        with pytest.raises(ValueError):
            histogram_report(np.array([0.5]), UNIFORM, bins=0)


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
        assert np.array_equal(rep.final_values, drawn.values)
        assert rep.initial is rep.final

    def test_initial_is_the_step_zero_histogram(self):
        fs = as_float_system(golden_system())
        rep = run_chain(fs, 10_000, 3, seed=44, bins=40, stream=2)
        start = sample_from_density(fs.density, 10_000, seed=44, stream=2).values
        want = histogram_report(start, fs.density, bins=40)
        assert np.array_equal(rep.initial.bin_masses, want.bin_masses)
        assert rep.initial.ks_statistic == want.ks_statistic

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

    @pytest.mark.parametrize("steps", [-1, _MAX_STEPS + 1, 10**20])
    def test_step_count_outside_the_cap_raises_before_any_step(self, monkeypatch, steps):
        def no_step(*args):
            raise AssertionError("_advance ran")

        monkeypatch.setattr(twoval.simulate, "_advance", no_step)
        with pytest.raises(ValueError, match=r"n_steps must lie in \[0, 1000000\]"):
            run_chain(golden_system(), 100, steps, seed=1)


class TestSampleFile:
    def test_round_trips(self, tmp_path):
        values = sample_from_density(UNIFORM, 1000, seed=13).values
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
        with pytest.raises(ValueError):
            read_sample_file(path)

    def test_short_payload_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes((3).to_bytes(8, "little") + b"\x00" * 16)
        with pytest.raises(ValueError):
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


class TestByteIdentity:
    @pytest.mark.parametrize("n", [10_000, 200_000])
    @pytest.mark.parametrize("tag", list(ORACLE_SYSTEMS))
    def test_run_chain_matches_reference(self, tag, n):
        fs = as_float_system(ORACLE_SYSTEMS[tag]())
        rng = ref_rng(19, 3)
        xs = [ref_sample(fs.density, n, rng)]
        for _ in range(5):
            xs.append(ref_advance(xs[-1], fs, rng.random(n)))
        reports = [ref_histogram(x, fs.density) for x in xs]
        for steps in range(6):
            rep = run_chain(fs, n, steps, 19, stream=3)
            assert rep.final_values.tobytes() == xs[steps].tobytes()
            assert rep.step_distances == [r[2] for r in reports[1 : steps + 1]]
            for got, want in ((rep.initial, reports[0]), (rep.final, reports[steps])):
                assert got.bin_masses.tobytes() == want[0].tobytes()
                assert got.reference_masses.tobytes() == want[1].tobytes()
                assert got.l1_distance_to_reference == want[2]
                assert got.ks_statistic == want[3]

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


class TestMemory:
    def test_chain_holds_at_most_six_arrays_of_n(self):
        # numpy reports its buffers to tracemalloc; the binary-search kernels
        # peaked at 8 arrays of 8n bytes here
        n = 200_000
        fs = as_float_system(golden_system())
        run_chain(fs, 1_000, 3, seed=1)
        tracemalloc.start()
        try:
            run_chain(fs, n, 3, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * n
