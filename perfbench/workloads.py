"""The four workloads: inputs made from the seed, and the job list of one pass.

A job is one ``twoval.cli.main(argv)`` call.  Every size below (the n
and piece-count ladders, sample counts, word lengths) is fixed, so a
workload's figures stay comparable across seeds; the seed picks only
weights, points, perturbations, step values and breakpoints, and Monte
Carlo seeds.  ``build`` writes the input files a pass needs and returns
its job list; the jobs then write their own outputs next to those inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as Q
from pathlib import Path

from twoval.families import lebesgue_family, nonconstant_family
from twoval.piecewise import StepFunction, step_to_json_dict
from twoval.system import EquippedSystem, as_float_system, system_to_json

from jobs import Job

GOLDEN = "1/2 + 1/2*sqrt(5)"
GOLDEN_FLOAT = (1 + 5**0.5) / 2


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _rational_step(rng: random.Random, pieces: int, lo: int, hi: int, den: int) -> StepFunction:
    """Random step function with the given piece count on a 1/(16*pieces) grid.

    Values are k/den with k in [lo, hi]; neighbours always differ, so the
    canonical form keeps every piece.
    """
    grid = 16 * pieces
    cuts = sorted(rng.sample(range(1, grid), pieces - 1))
    values = [rng.randint(lo, hi)]
    for _ in range(pieces - 1):
        v = rng.randint(lo, hi - 1)
        values.append(v + 1 if v >= values[-1] else v)
    return StepFunction(
        [Q(0), *(Q(c, grid) for c in cuts), Q(1)], [Q(v, den) for v in values]
    )


def _task_json(a: str, p: StepFunction) -> str:
    return json.dumps({"a": a, "p": step_to_json_dict(p)}, indent=2) + "\n"


def _perturbed(system: EquippedSystem, rng: random.Random) -> EquippedSystem:
    """Shift alpha1 on one piece inside [a, 1-a) where the density is positive."""
    a, al = system.a, system.alpha1
    choices = [
        i
        for i in range(len(al.values))
        if not al.breakpoints[i] < a
        and not al.breakpoints[i + 1] > 1 - a
        and system.density((al.breakpoints[i] + al.breakpoints[i + 1]) / 2) > 0
    ]
    i = rng.choice(choices)
    v = al.values[i]
    shift = Q(1, rng.choice((3, 5, 7, 11)))
    values = list(al.values)
    values[i] = v - shift if v - shift >= 0 else v + shift
    return EquippedSystem(a, system.density, StepFunction(al.breakpoints, values))


def _pipeline(d: Path, tag: str, family_argv: list, fill: str, info: dict) -> list:
    """family -> check -> solve-alpha -> check(solved) -> pushforward."""
    fam, solved, push = (str(d / f"{tag}{s}.json") for s in ("", "-solved", "-push"))
    return [
        Job("family", [*family_argv, "-o", fam], outputs=[fam], info=info),
        Job("check", ["check", fam], inputs=[fam]),
        Job("solve", ["solve-alpha", fam, "--fill", fill, "-o", solved], inputs=[fam], outputs=[solved]),
        Job("check", ["check", solved], inputs=[solved]),
        Job("push", ["pushforward", fam, "-o", push], inputs=[fam], outputs=[push], info={"invariant": True}),
    ]


# -- exact-families ------------------------------------------------------

#: (n, fill) of the nonconstant family runs through the whole pipeline; a
#: check at n = 8 takes about a third of a second.  n = 4 runs twice, with
#: two weight draws, so that the jobs around the tail percentile are many
#: of one size and the tail does not sit on the edge between two sizes.
NC_LADDER = ((2, "0"), (3, "1"), (4, "1/2"), (4, "1/2"), (6, "1/3"), (8, "2/3"))
#: rungs whose weight pair has a zero, and which weight it is
NC_ZERO = {3: "beta", 8: "gamma"}
LEB_LADDER = {2: "1/2", 3: "0", 4: "1", 6: "1/3"}


def _weights(rng: random.Random, zero: str | None) -> tuple[int, int]:
    beta, gamma = rng.randint(1, 6), rng.randint(1, 6)
    return (0, gamma) if zero == "beta" else (beta, 0) if zero == "gamma" else (beta, gamma)


def exact_families(rng: random.Random, d: Path) -> list:
    pipelines = []
    for i, (n, fill) in enumerate(NC_LADDER):
        beta, gamma = _weights(rng, NC_ZERO.get(n))
        argv = ["family", "nonconstant", "--n", str(n), "--beta", str(beta), "--gamma", str(gamma), "--fill", fill]
        info = {"family": "nonconstant", "n": n, "beta": beta, "gamma": gamma, "fill": fill}
        pipelines.append(_pipeline(d, f"nc{n}-{i}", argv, fill, info))
    for n, fill in LEB_LADDER.items():
        argv = ["family", "lebesgue", "--n", str(n), "--fill", fill]
        pipelines.append(_pipeline(d, f"leb{n}", argv, fill, {"family": "lebesgue", "n": n, "fill": fill}))
    pipelines.append(_pipeline(d, "renyi", ["family", "renyi"], "0", {"family": "renyi", "n": 2, "fill": "0"}))
    # stage by stage, so the heavy jobs of one n are not back to back and a
    # burst of load on the machine cannot slow all of them at once
    jobs = [p[stage] for stage in range(5) for p in pipelines if stage < len(p)]

    # checks that must fail: alpha1 moved where it is pinned
    beta, gamma = _weights(rng, None)
    for tag, system in (
        ("nc6-perturbed", nonconstant_family(6, beta, gamma, fill=Q(1, 2))),
        ("leb6-perturbed", lebesgue_family(6, fill=Q(1, 2))),
    ):
        path = _write(d / f"{tag}.json", system_to_json(_perturbed(system, rng)))
        jobs.append(Job("check", ["check", path], expect=1, inputs=[path]))

    # densities no alpha1 can fix: nonconstant at a = 1/2, and at a = 2/5
    for a in ("1/2", "2/5"):
        p = _rational_step(rng, 3, 1, 9, 4)
        path = _write(d / f"infeasible-{a.replace('/', '_')}.json", _task_json(a, p))
        out = str(d / f"infeasible-{a.replace('/', '_')}-solved.json")
        jobs.append(Job("solve", ["solve-alpha", path, "-o", out], expect=1, inputs=[path]))

    # bad input: each must exit 2 (the first three are mixed radicands)
    mixed = _write(
        d / "mixed-radicands.json",
        json.dumps(
            {
                "a": "-1/4 + 1/2*sqrt(2)",
                "p": {"breakpoints": ["0", "1"], "values": ["1 + 1/4*sqrt(3)"], "backend": "exact-3"},
                "alpha1": {"breakpoints": ["0", "1"], "values": ["0"], "backend": "exact-1"},
            }
        ),
    )
    garbage = _write(d / "garbage.json", '{"a": "1/3", "p": [')
    no_p = _write(d / "no-p.json", '{"a": "1/3"}\n')
    for argv, inputs in (
        (["expand", "--x", "1/2*sqrt(2)", "--beta", "1/2+1/2*sqrt(5)"], []),
        (["family", "nonconstant", "--n", "2", "--beta", "sqrt(2)"], []),
        (["check", mixed], [mixed]),
        (["family", "lebesgue", "--n", "1"], []),
        (["family", "nonconstant"], []),
        (["family", "bogus"], []),
        (["check", str(d / "missing.json")], []),
        (["check", garbage], [garbage]),
        (["solve-alpha", no_p], [no_p]),
    ):
        jobs.append(Job("bad", argv, expect=2, inputs=inputs))
    return jobs


# -- exact-ragged --------------------------------------------------------

#: piece count -> a: a geometric ladder, n = 2 and n = 3 in turn
RAGGED_LADDER = {8: "3/10", 12: "2/5", 16: "2/7", 24: "3/8", 32: "4/9", 48: "5/12"}
#: a of every ragged solve-alpha task; n = 2, where an alpha1-free window
#: lets the checker confirm that no alpha1 exists
RAGGED_SOLVE_A = "2/5"


def exact_ragged(rng: random.Random, d: Path) -> list:
    jobs = []
    for pieces, a in RAGGED_LADDER.items():
        p = _rational_step(rng, pieces, 1, 12, 4)
        alpha1 = _rational_step(rng, pieces, 0, 8, 8)
        ragged = _write(d / f"ragged{pieces}.json", system_to_json(EquippedSystem(Q(a), p, alpha1)))
        task = _write(d / f"ragged{pieces}-task.json", _task_json(RAGGED_SOLVE_A, p))
        half = _write(
            d / f"half{pieces}.json",
            system_to_json(EquippedSystem(Q(1, 2), StepFunction.constant(Q(1)), _rational_step(rng, pieces, 0, 8, 8))),
        )
        jobs += [
            Job("push", ["pushforward", ragged, "-o", f"{ragged}.push"], inputs=[ragged], outputs=[f"{ragged}.push"]),
            Job("check", ["check", ragged], expect=1, inputs=[ragged]),
            Job("solve", ["solve-alpha", task, "-o", f"{task}.solved"], expect=1, inputs=[task]),
            # a = 1/2: invariant whatever alpha1 is
            Job("check", ["check", half], inputs=[half]),
            Job("push", ["pushforward", half, "-o", f"{half}.push"], inputs=[half], outputs=[f"{half}.push"],
                info={"invariant": True}),
        ]
    return jobs


# -- float-mc ------------------------------------------------------------

MC_STEPS = (0, 1, 5, 20)
MC_SAMPLES = 100_000
MC_BIG_SAMPLES = 1_000_000
#: n of the float family copies that get check and pushforward
FLOAT_LADDER = (2, 3, 4, 6, 8, 12, 16, 24)


def float_mc(rng: random.Random, d: Path) -> list:
    beta, gamma = _weights(rng, None)
    systems = {
        "golden-exact": nonconstant_family(2, beta, gamma),
        "nc3-float": as_float_system(nonconstant_family(3, *_weights(rng, None))),
        "leb4-float": as_float_system(lebesgue_family(4, fill=Q(1, 2))),
        "control": EquippedSystem(0.45, StepFunction.constant(1.0), StepFunction.constant(0.5)),
    }
    paths = {tag: _write(d / f"{tag}.json", system_to_json(s)) for tag, s in systems.items()}
    runs = [(tag, steps, MC_SAMPLES) for tag in systems for steps in MC_STEPS]
    runs += [("golden-exact", 1, MC_BIG_SAMPLES), ("control", 1, MC_BIG_SAMPLES), ("nc3-float", 5, MC_BIG_SAMPLES)]
    jobs = []
    for i, (tag, steps, samples) in enumerate(runs):
        out, report = str(d / f"mc{i}.bin"), str(d / f"mc{i}.json")
        argv = [
            "simulate", paths[tag], "--samples", str(samples), "--seed", str(rng.randrange(2**32)),
            "--steps", str(steps), "--out", out, "--report", report,
        ]
        info = {"samples": samples, "steps": steps, "bins": 100, "invariant": tag != "control"}
        jobs.append(Job("simulate", argv, inputs=[paths[tag]], outputs=[out, report], info=info))
    for n in FLOAT_LADDER:
        path = _write(d / f"nc{n}-float.json", system_to_json(as_float_system(nonconstant_family(n, *_weights(rng, None)))))
        push = str(d / f"nc{n}-float-push.json")
        jobs.append(Job("check", ["check", path], inputs=[path]))
        jobs.append(Job("push", ["pushforward", path, "-o", push], inputs=[path], outputs=[push], info={"invariant": True}))
    return jobs


# -- expansions ----------------------------------------------------------

#: golden-base enumeration length -> a pair of points k/64 with the same
#: word count (tens to a few hundred); the seed picks one of the pair, so
#: the work does not depend on the seed.  Dyadic points, so the float run
#: starts from the same x.
ENUM_PAIRS = {12: (31, 33), 16: (27, 37), 20: (29, 35), 24: (29, 35)}
#: base 9/5: x and 5/4 - x have the same words, digits flipped
RATIONAL_BASE_LENGTHS = (12, 18, 24)
RATIONAL_BASE_PAIR = (Q(3, 8), Q(7, 8))
ORBIT_LENGTHS = (250, 500, 1000, 2000)
ORBIT_BASES = (GOLDEN, "2", "1.8", repr(GOLDEN_FLOAT))
ORBIT_POINTS = tuple(Q(k, 64) for k in range(9, 33))


def expansions(rng: random.Random, d: Path) -> list:
    jobs = []
    for length, pair in ENUM_PAIRS.items():
        x = Q(rng.choice(pair), 64)
        for beta, xs in ((GOLDEN, str(x)), (repr(GOLDEN_FLOAT), repr(float(x)))):
            for values in (False, True):
                argv = ["expand", "--x", xs, "--beta", beta, "--length", str(length), "--all", "--max-words", "4096"]
                jobs.append(Job("enum", argv + ["--values"] * values, info={"pair": f"{x}-{length}"}))
    for length in RATIONAL_BASE_LENGTHS:
        x = rng.choice(RATIONAL_BASE_PAIR)
        jobs.append(Job("enum", ["expand", "--x", str(x), "--beta", "9/5", "--length", str(length), "--all", "--values"]))
    for length in ORBIT_LENGTHS:
        for beta in ORBIT_BASES:
            for rule in ("greedy", "lazy"):
                x = rng.choice(ORBIT_POINTS)
                xs = repr(float(x)) if "." in beta else str(x)
                argv = ["expand", "--x", xs, "--beta", beta, "--length", str(length), "--rule", rule, "--values"]
                jobs.append(Job("orbit", argv, info={"rule": rule}))
    x = Q(rng.choice(ENUM_PAIRS[20]), 64)
    jobs.append(Job("budget", ["expand", "--x", str(x), "--beta", GOLDEN, "--length", "20", "--all", "--max-words", "3"], expect=1))
    return jobs


#: the speed probe (see speed.py) whose kind of work each workload does
PROBE_KIND = {
    "exact-families": "fraction",
    "exact-ragged": "fraction",
    "float-mc": "numpy",
    "expansions": "fraction",
}

WORKLOADS = {
    "exact-families": exact_families,
    "exact-ragged": exact_ragged,
    "float-mc": float_mc,
    "expansions": expansions,
}


def build(name: str, seed: int, d: Path) -> list:
    """Write the inputs of one pass of workload ``name`` into ``d``; return its jobs."""
    d.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), d)
