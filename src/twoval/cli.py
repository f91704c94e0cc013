"""Command-line front end.

Subcommands:
  family       build a ready-made invariant system and write it as JSON
  check        test a system's invariance conditions
  solve-alpha  find branch weights making a density invariant
  pushforward  apply the transfer step to a system's density
  simulate     sample the density and run Monte Carlo stationarity checks
  expand       compute binary expansions in base 1/(1-a)

Exit codes: 0 success, 1 a checked property failed (conditions violated,
no feasible weights, word budget exceeded), 2 bad usage or bad input.

Scalar arguments accept the same forms as the JSON files: "0.45" is a
float, "9/20" exact rational, "3/2 - 1/2*sqrt(5)" exact quadratic.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .criterion import InfeasibleError, check_invariance_conditions, solve_alpha1
from .expansion import BudgetExceededError, enumerate_walk, orbit_walk, value_from_tail
from .families import lebesgue_family, nonconstant_family, renyi_system
from .numerics import MixedRadicandError, ParseError, _echo, format_scalar, parse_scalar, read_json
from .piecewise import _json_fields, step_from_json_dict, step_to_csv, step_to_json
from .system import parameter_from_json, pushforward_density, system_from_json, system_to_json


def _emit(text: str, dest: str) -> None:
    if dest == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _load_system(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return system_from_json(fh.read())


def _scalar_option(flag: str, text, is_float: bool):
    """A scalar option on the system's backend: read exactly, decimals too, and
    ``float()`` of that on float systems; nan, inf and non-numbers are rejected."""
    if text is None:
        return None
    try:
        x = parse_scalar(text) if "sqrt" in text or "_" in text else Fraction(text.replace(" ", ""))
        return float(x) if is_float else x
    except (ValueError, ArithmeticError):
        raise ValueError(f"{flag} needs a finite number, got {_echo(text)}") from None


def cmd_family(args) -> int:
    if args.kind != "renyi" and args.n is None:
        raise ValueError(f"family {args.kind} needs --n")
    if args.kind == "renyi":
        system = renyi_system()
    elif args.kind == "lebesgue":
        system = lebesgue_family(args.n, fill=_scalar_option("--fill", args.fill, False))
    else:
        system = nonconstant_family(
            args.n,
            _scalar_option("--beta", args.beta, False),
            _scalar_option("--gamma", args.gamma, False),
            fill=_scalar_option("--fill", args.fill, False),
        )
    _emit(system_to_json(system), args.output)
    return 0


def cmd_check(args) -> int:
    system = _load_system(args.system)
    report = check_invariance_conditions(system, tol=_scalar_option("--tol", args.tol, system.is_float))
    for c in report.checks:
        status = "VACUOUS" if c.vacuous else ("PASS" if c.passed else "FAIL")
        print(f"{c.name}: {status} (deviation {format_scalar(c.deviation)})")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"overall: {verdict} (n={report.n}, max deviation {format_scalar(report.max_deviation)})")
    return 0 if report.passed else 1


def cmd_solve_alpha(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        d = read_json(fh.read())
    raw_a, raw_p = _json_fields(d, "task", "a", "p")
    a, density = parameter_from_json(raw_a), step_from_json_dict(raw_p)
    fill = _scalar_option("--fill", args.fill, density.is_float)
    tol = _scalar_option("--tol", args.tol, density.is_float)
    system = solve_alpha1(a, density, fill=fill, tol=tol)
    _emit(system_to_json(system), args.output)
    return 0


def cmd_pushforward(args) -> int:
    system = _load_system(args.system)
    q = pushforward_density(system)
    if args.csv:
        _emit(step_to_csv(q), args.csv)
    _emit(step_to_json(q), args.output)
    return 0


def cmd_simulate(args) -> int:
    from .simulate import noise_floor, run_chain, write_sample_file  # numpy loads only for this command

    system = _load_system(args.system)
    chain = run_chain(
        system,
        args.samples,
        args.steps,
        args.seed,
        bins=args.bins,
        stream=args.stream,
    )
    final = chain.final
    if args.out:
        write_sample_file(args.out, chain.final_values)
    if args.report:
        payload = {
            "n_samples": args.samples,
            "seed": args.seed,
            "stream": args.stream,
            "steps": args.steps,
            "bins": args.bins,
            "l1_distance_to_reference": final.l1_distance_to_reference,
            "noise_floor": noise_floor(final.reference_masses, args.samples),
            "ks_statistic": final.ks_statistic,
            "step_distances": chain.step_distances,
        }
        _emit(json.dumps(payload, indent=2), args.report)
    print(
        f"samples={args.samples} steps={args.steps} seed={args.seed} "
        f"l1={final.l1_distance_to_reference:.6f} ks={final.ks_statistic:.6f}"
    )
    return 0


def cmd_expand(args) -> int:
    x = parse_scalar(args.x)
    beta = parse_scalar(args.beta)
    if args.all:
        walked = enumerate_walk(x, beta, args.length, max_words=args.max_words)
    else:
        rule = None if args.rule == "greedy" else "lazy"
        walked = [orbit_walk(x, beta, args.length, choose=rule)]
    if args.values:
        value = value_from_tail(x, beta, args.length)
        texts: dict = {}  # tail state -> the value of the words ending there
        lines = []
        for w, y in walked:
            text = texts.get(y)
            if text is None:
                text = texts[y] = format_scalar(value(w, y))
            lines.append(f"{''.join(map(str, w))} {text}\n")
    else:
        lines = ["".join(map(str, w)) + "\n" for w, _ in walked]
    # written whole, so a value that cannot be formatted leaves stdout empty
    sys.stdout.write("".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoval",
        description="Invariant densities for weighted two-branch interval maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tol_help = "absolute deviation tolerance (default: 0 exact, 1e-10 * sup|p| float)"

    p = sub.add_parser("family", help="write a ready-made invariant system as JSON")
    p.add_argument("kind", choices=["lebesgue", "nonconstant", "renyi"])
    p.add_argument("--n", type=int, help="branch count parameter (n >= 2)")
    p.add_argument("--beta", default="1", help="weight of the lower density level")
    p.add_argument("--gamma", default="0", help="weight of the upper density level")
    p.add_argument("--fill", default="0", help="weight value where it is unconstrained")
    p.add_argument("-o", "--output", default="-", help="output path, '-' for stdout")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("check", help="test the invariance conditions of a system")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--tol", default=None, help=tol_help)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve-alpha", help="solve for branch weights that fix a density")
    p.add_argument("input", help="JSON file with keys 'a' and 'p'")
    p.add_argument("--fill", default="0", help="weight value where it is unconstrained")
    p.add_argument("--tol", default=None, help=tol_help)
    p.add_argument("-o", "--output", default="-", help="output path, '-' for stdout")
    p.set_defaults(func=cmd_solve_alpha)

    p = sub.add_parser("pushforward", help="apply the transfer step to the density")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--csv", default=None, help="also write the result as CSV")
    p.add_argument("-o", "--output", default="-", help="output path, '-' for stdout")
    p.set_defaults(func=cmd_pushforward)

    p = sub.add_parser("simulate", help="Monte Carlo sampling and stationarity checks")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True, help="RNG seed (required for reproducibility)")
    p.add_argument("--stream", type=int, default=0, help="independent substream index")
    p.add_argument("--steps", type=int, default=0, help="random branch steps to apply (0: draw only)")
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--out", default=None, help="write samples as binary (count header + float64 LE)")
    p.add_argument("--report", default=None, help="write histogram statistics as JSON")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("expand", help="binary expansions in a base from (1,2]")
    p.add_argument("--x", required=True, help="point to expand")
    p.add_argument("--beta", required=True, help="expansion base")
    p.add_argument("--length", type=int, default=40, help="digits to produce")
    p.add_argument("--rule", choices=["greedy", "lazy"], default="greedy")
    p.add_argument("--all", action="store_true", help="enumerate every admissible word")
    p.add_argument("--max-words", type=int, default=4096)
    p.add_argument("--values", action="store_true", help="append each word's value")
    p.set_defaults(func=cmd_expand)

    return parser


_parser = None  # built on the first call to main, then shared by every later call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:  # float() of an exact value; the value itself may run to pages
        print("error: a value is outside the float range", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the allocation it could not make
        print(f"error: out of memory ({exc})" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2
    except (ValueError, TypeError, MixedRadicandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
