"""Output checker: one oracle per job kind, run outside the timed region.

Each oracle avoids the code path the job exercised: a ``check`` verdict is
held against the measured defect (pushforward minus density), a
pushforward against its own mass and against ``pushforward_measure`` on
a few intervals, an infeasible ``solve-alpha`` against a window where
the image density does not depend on alpha1 at all, Monte Carlo figures
against the sqrt(bins/samples) noise floor, and expansion words against
an independent orbit and Horner evaluation.  Verdicts are cached by the
bytes a job read and wrote, so repeated passes cost one lookup.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np

from twoval.criterion import FLOAT_TOL, invariance_defect
from twoval.numerics import Interval, Surd, parse_scalar
from twoval.piecewise import step_from_json, step_from_json_dict
from twoval.system import (
    EquippedSystem,
    as_float_system,
    pushforward_density,
    pushforward_measure,
    system_from_json,
)

#: an invariant Monte Carlo run stays below this multiple of sqrt(bins/samples)
MC_FLOOR_MULT = 3.0
#: relative tolerance for float masses and measures
FLOAT_REL = 1e-9
#: intervals on which pushforward_measure is held against the pushforward
MEASURE_INTERVALS = ((Fraction(1, 7), Fraction(3, 5)), (Fraction(0), Fraction(2, 9)))

_OVERALL = re.compile(r"overall: (PASS|FAIL) \(n=(\d+), max deviation (.+)\)$")
_SIM_LINE = re.compile(r"samples=(\d+) steps=(\d+) seed=(\d+) l1=([0-9.]+) ks=([0-9.]+)$")


def _read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _zero(f):
    return 0.0 if f.is_float else Surd(0)


def _close(x, y, is_float: bool) -> bool:
    if not is_float:
        return x == y
    return abs(x - y) <= FLOAT_REL * max(1.0, abs(x), abs(y))


def _value_at(f, x):
    """f(x) by bisection on the breakpoints (own lookup, not StepFunction.__call__)."""
    i = bisect_right(f.breakpoints, x) - 1
    return f.values[min(max(i, 0), len(f.values) - 1)]


def _integral(f, lo, hi):
    """Integral of the step function f over [lo, hi], summed piece by piece."""
    total = _zero(f)
    for t0, t1, v in zip(f.breakpoints, f.breakpoints[1:], f.values):
        a = t0 if t0 > lo else lo
        b = t1 if t1 < hi else hi
        if b > a:
            total = total + v * (b - a)
    return total


def _defect_ok(system: EquippedSystem) -> bool:
    dev = invariance_defect(system).sup_norm()
    return dev <= FLOAT_TOL if system.is_float else dev == 0


def _alpha_free_mismatch(a, p) -> bool:
    """True if no alpha1 can make p invariant, shown without the criterion.

    For a in (1/3, 1/2] the image density on [(1-2a)/(1-a), a/(1-a)) is
    (1-a)*[p((1-a)y) + p((1-a)y + a)] whatever alpha1 is; if that differs
    from p there, p is not invariant for any weighting.
    """
    w = 1 - a
    lo, hi = (1 - 2 * a) / w, a / w
    if not lo < hi:
        return False
    cuts = {lo, hi}
    for t in p.breakpoints:
        for y in (t, t / w, (t - a) / w):
            if lo < y < hi:
                cuts.add(y)
    grid = sorted(cuts)
    for y0, y1 in zip(grid, grid[1:]):
        y = (y0 + y1) / 2
        if w * (_value_at(p, w * y) + _value_at(p, w * y + a)) != _value_at(p, y):
            return True
    return False


def check_check(job, rc, out, err):
    m = _OVERALL.search(out.strip().splitlines()[-1]) if out.strip() else None
    if m is None:
        return "no overall verdict"
    passed = m.group(1) == "PASS"
    if passed != (rc == 0):
        return f"verdict {m.group(1)} with exit {rc}"
    system = system_from_json(_read(job.inputs[0]))
    if int(m.group(2)) != system.n:
        return f"reported n={m.group(2)}, system has n={system.n}"
    if passed != _defect_ok(system):
        return f"verdict {m.group(1)} disagrees with the measured defect"
    return None


def check_family(job, rc, out, err):
    system = system_from_json(_read(job.outputs[0]))
    info = job.info
    n = info["n"]
    if not (Fraction(1, n + 1) < system.a <= Fraction(1, n)):
        return f"a={system.a} outside (1/(n+1), 1/n] for n={n}"
    fill = parse_scalar(info["fill"])
    al = system.alpha1
    if not (_value_at(al, system.a / 2) == fill and _value_at(al, 1 - system.a / 2) == fill):
        return "alpha1 differs from fill outside [a, 1-a)"
    if info["family"] == "nonconstant":
        p = system.density
        if info["beta"] and p.values[0] != info["beta"]:
            return "lowest density level is not beta"
        if info["gamma"] and p.values[-1] != info["gamma"]:
            return "highest density level is not gamma"
    if not _defect_ok(system):
        return "family system is not invariant"
    return None


def check_solve(job, rc, out, err):
    task = json.loads(_read(job.inputs[0]))
    raw_a = task["a"]
    a = parse_scalar(raw_a) if isinstance(raw_a, str) else float(raw_a)
    p = step_from_json_dict(task["p"])
    if rc == 1:
        if isinstance(a, float) or not _alpha_free_mismatch(a, p):
            return "infeasible, but the alpha1-free window does not show it"
        return None
    solved = system_from_json(_read(job.outputs[0]))
    if solved.a != a or solved.density != p:
        return "solved system changed a or p"
    if not _defect_ok(solved):
        return "solved system is not invariant"
    return None


def check_push(job, rc, out, err):
    system = system_from_json(_read(job.inputs[0]))
    q = step_from_json(_read(job.outputs[0]))
    fl = system.is_float
    if q.is_float != fl:
        return "pushforward changed backend"
    zero, one = (0.0, 1.0) if fl else (Surd(0), Surd(1))
    if not _close(_integral(q, zero, one), _integral(system.density, zero, one), fl):
        return "mass not conserved"
    for lo, hi in MEASURE_INTERVALS:
        lo, hi = (float(lo), float(hi)) if fl else (Surd(lo), Surd(hi))
        if not _close(_integral(q, lo, hi), pushforward_measure(system, Interval(lo, hi)), fl):
            return f"pushforward disagrees with the preimage measure on [{lo}, {hi})"
    if job.info.get("invariant"):
        grid = sorted(set(q.breakpoints) | set(system.density.breakpoints))
        for x0, x1 in zip(grid, grid[1:]):
            if fl and x1 - x0 < 1e-9:  # sliver between nearly equal float breakpoints
                continue
            mid = (x0 + x1) / 2
            if not _close(_value_at(q, mid), _value_at(system.density, mid), fl):
                return "invariant density moved"
    return None


def check_bad(job, rc, out, err):
    return None if err.strip() else "bad input rejected without a message"


def _orbit(x, beta, length: int, lazy: bool) -> str:
    """Own digit orbit: the admissible digit set is {0} below 1/beta, {1} above."""
    fl = isinstance(beta, float)
    slack = 1e-12 if fl else 0
    digits = []
    for _ in range(length):
        bx = beta * x
        can0, can1 = bx <= 1 + slack, bx >= 1 - slack
        dgt = 0 if (lazy and can0) or not can1 else 1
        x = bx - dgt
        if fl:
            x = min(max(x, 0.0), 1.0)
        digits.append(str(dgt))
    return "".join(digits)


def _horner(word: str, beta):
    acc = 0.0 if isinstance(beta, float) else Surd(0)
    for ch in reversed(word):
        acc = (acc + int(ch)) / beta
    return acc


def _arg(job, flag: str) -> str:
    return job.argv[job.argv.index(flag) + 1]


def _word_ok(word: str, value, x, beta, length: int):
    if len(word) != length or set(word) - {"0", "1"}:
        return f"bad word {word!r}"
    tail = 1 / (beta - 1)
    slack = 1e-9 if isinstance(beta, float) else 0
    gap = x - value
    if gap < -slack or gap > tail * beta**-length + slack:
        return f"word {word} does not start an expansion of x"
    return None


def check_enum(job, rc, out, err):
    beta, length = parse_scalar(_arg(job, "--beta")), int(_arg(job, "--length"))
    x = parse_scalar(_arg(job, "--x"))
    x = float(x) if isinstance(beta, float) else x
    lines = out.split("\n")[:-1]
    if not lines:
        return "no words"
    words = [ln.split(" ", 1)[0] for ln in lines]
    if words != sorted(set(words), reverse=True):
        return "words are not distinct and in decreasing order"
    if words[0] != _orbit(x, beta, length, lazy=False):
        return "first word is not the greedy word"
    for ln, word in zip(lines, words):
        value = _horner(word, beta)
        if err := _word_ok(word, value, x, beta, length):
            return err
        if "--values" in job.argv and not _close(parse_scalar(ln.split(" ", 1)[1]), value, isinstance(beta, float)):
            return f"printed value of {word} is wrong"
    return None


def check_orbit(job, rc, out, err):
    beta, length = parse_scalar(_arg(job, "--beta")), int(_arg(job, "--length"))
    x = parse_scalar(_arg(job, "--x"))
    word, printed = out.strip().split(" ", 1)
    if word != _orbit(x, beta, length, lazy=job.info["rule"] == "lazy"):
        return f"{job.info['rule']} word differs from the orbit"
    value = _horner(word, beta)
    if not _close(parse_scalar(printed), value, isinstance(beta, float)):
        return "printed value is wrong"
    return _word_ok(word, value, x, beta, length)


def check_budget(job, rc, out, err):
    return None if not out and "budget exceeded" in err else "budget overrun not reported cleanly"


def _displacement(system: EquippedSystem, steps: int, bins: int) -> float:
    """Binned L1 distance between the density pushed `steps` times and itself."""
    f = system.density
    for _ in range(steps):
        f = pushforward_density(EquippedSystem(system.a, f, system.alpha1))
    edges = np.linspace(0.0, 1.0, bins + 1)

    def masses(g):
        total = float(_integral(g, 0.0, 1.0))
        return np.array([float(_integral(g, lo, hi)) for lo, hi in zip(edges, edges[1:])]) / total

    return float(np.abs(masses(f) - masses(system.density)).sum())


def check_simulate(job, rc, out, err):
    info = job.info
    samples, steps, bins = info["samples"], info["steps"], info["bins"]
    raw = Path(job.outputs[0]).read_bytes()
    if len(raw) < 8 or int.from_bytes(raw[:8], "little") != samples or len(raw) != 8 + 8 * samples:
        return "sample file does not round-trip with its count"
    xs = np.frombuffer(raw, dtype="<f8", offset=8)
    if not (np.all(xs >= 0.0) and np.all(xs <= 1.0)):
        return "samples outside [0,1]"
    report = json.loads(_read(job.outputs[1]))
    if report["n_samples"] != samples or report["steps"] != steps or len(report["step_distances"]) != steps:
        return "report does not describe the run"
    m = _SIM_LINE.search(out.strip())
    if m is None or abs(float(m.group(4)) - report["l1_distance_to_reference"]) > 1e-6:
        return "summary line does not match the report"
    l1 = report["l1_distance_to_reference"]
    floor = math.sqrt(bins / samples)
    if info["invariant"] or steps == 0:
        if l1 > MC_FLOOR_MULT * floor:
            return f"l1={l1:.5f} above {MC_FLOOR_MULT} x noise floor {floor:.5f}"
        return None
    disp = _displacement(as_float_system(system_from_json(_read(job.inputs[0]))), steps, bins)
    if l1 < disp - MC_FLOOR_MULT * floor:
        return f"control l1={l1:.5f} below its displacement {disp:.5f}"
    return None


CHECKS = {
    "check": check_check,
    "family": check_family,
    "solve": check_solve,
    "push": check_push,
    "bad": check_bad,
    "enum": check_enum,
    "orbit": check_orbit,
    "budget": check_budget,
    "simulate": check_simulate,
}


class Checker:
    """Decides whether one finished job is right; counts nothing itself."""

    def __init__(self):
        self._cache = {}
        self._pair_counts = {}

    def __call__(self, job, outcome) -> str | None:
        """Return None for a right job, else a one-line reason."""
        if outcome.uncaught:
            return f"uncaught {outcome.uncaught}"
        if outcome.rc != job.expect:
            return f"exit {outcome.rc}, expected {job.expect}"
        pair = job.info.get("pair")
        if pair is not None:
            count = outcome.out.count("\n")
            seen = self._pair_counts.setdefault(pair, count)
            if seen != count:
                return f"{count} words where the other backend found {seen}"
        key = self._key(job, outcome)
        if key not in self._cache:
            try:
                self._cache[key] = CHECKS[job.kind](job, outcome.rc, outcome.out, outcome.err)
            except Exception as exc:  # a malformed output must count, not crash the run
                self._cache[key] = f"checker could not read the output: {type(exc).__name__}: {exc}"
        return self._cache[key]

    def end_pass(self):
        self._pair_counts.clear()

    @staticmethod
    def _key(job, outcome):
        h = hashlib.sha1()
        for part in (job.kind, repr(job.argv), str(outcome.rc), outcome.out, outcome.err):
            h.update(part.encode())
            h.update(b"\0")
        for path in job.inputs + job.outputs:
            p = Path(path)
            h.update(p.read_bytes() if p.exists() else b"<missing>")
            h.update(b"\0")
        return h.hexdigest()


def _crash(argv):
    raise RuntimeError("a crash inside cli.main")


def selftest(d: Path) -> list:
    """Feed the checker known-bad outputs; return the ones it failed to flag.

    Each case also checks the untouched output first, so a checker that
    rejects everything fails the test as well.
    """
    from jobs import Job, run_job

    d.mkdir(parents=True, exist_ok=True)
    problems = []

    def expect(label, job, outcome, bad: bool):
        verdict = Checker()(job, outcome)
        if (verdict is not None) != bad:
            problems.append(f"{label}: checker said {verdict!r}")

    fam, push = str(d / "fam.json"), str(d / "push.json")
    run_job(Job("family", ["family", "nonconstant", "--n", "2", "--beta", "2", "--gamma", "3", "-o", fam]))
    job = Job("push", ["pushforward", fam, "-o", push], inputs=[fam], outputs=[push], info={"invariant": True})
    outcome = run_job(job)
    expect("pushforward as written", job, outcome, bad=False)
    q = json.loads(_read(push))
    q["values"][0] = "7/3"
    Path(push).write_text(json.dumps(q), encoding="utf-8")
    expect("corrupted density value", job, outcome, bad=True)

    job = Job("orbit", ["expand", "--x", "1/2", "--beta", "1/2 + 1/2*sqrt(5)", "--length", "30", "--values"],
              info={"rule": "greedy"})
    outcome = run_job(job)
    expect("orbit as printed", job, outcome, bad=False)
    word, value = outcome.out.strip().split(" ", 1)
    flipped = word[:9] + "10"[int(word[9])] + word[10:]
    outcome.out = f"{flipped} {value}\n"
    expect("flipped digit", job, outcome, bad=True)

    control, samples, report = str(d / "control.json"), str(d / "mc.bin"), str(d / "mc.json")
    Path(control).write_text(
        '{"a": 0.45, "p": {"breakpoints": [0.0, 1.0], "values": [1.0], "backend": "float"},'
        ' "alpha1": {"breakpoints": [0.0, 1.0], "values": [0.5], "backend": "float"}}',
        encoding="utf-8",
    )
    argv = ["simulate", control, "--samples", "100000", "--seed", "1", "--steps", "1", "--out", samples, "--report", report]
    info = {"samples": 100_000, "steps": 1, "bins": 100, "invariant": False}
    job = Job("simulate", argv, inputs=[control], outputs=[samples, report], info=info)
    outcome = run_job(job)
    expect("control labelled non-invariant", job, outcome, bad=False)
    job.info = dict(info, invariant=True)
    expect("non-invariant report labelled invariant", job, outcome, bad=True)

    job = Job("bad", ["family", "bogus"], expect=0)
    expect("argparse exit 2 where 0 is expected", job, run_job(job), bad=True)
    job = Job("bad", ["expand", "--x", "1/2*sqrt(2)", "--beta", "1/2+1/2*sqrt(5)"], expect=2)
    outcome = run_job(job, main=_crash)
    if outcome.uncaught != "RuntimeError":
        problems.append("an exception in cli.main was not classified as uncaught")
    expect("uncaught exception", job, outcome, bad=True)
    return problems
