import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import numpy as np
import pytest

import twoval
from twoval import cli, families
from twoval.cli import build_parser, main
from twoval.families import lebesgue_family, nonconstant_family, renyi_system
from twoval.expansion import evaluate_expansion
from twoval.numerics import format_scalar, parse_scalar
from twoval.piecewise import StepFunction, step_from_json, step_to_json_dict
from twoval.simulate import read_sample_file
from twoval.system import (
    EquippedSystem,
    as_float_system,
    pushforward_density,
    system_from_json,
    system_to_json,
    system_to_json_dict,
)

from test_system import golden_system


def write_system(tmp_path, system, name="system.json"):
    path = tmp_path / name
    path.write_text(system_to_json(system), encoding="utf-8")
    return str(path)


class TestFamily:
    def test_lebesgue_to_file(self, tmp_path):
        out = tmp_path / "sys.json"
        assert main(["family", "lebesgue", "--n", "4", "-o", str(out)]) == 0
        loaded = system_from_json(out.read_text())
        assert loaded == lebesgue_family(4)

    def test_nonconstant_to_stdout(self, capsys):
        assert main(["family", "nonconstant", "--n", "2", "--beta", "1", "--gamma", "2"]) == 0
        loaded = system_from_json(capsys.readouterr().out)
        assert loaded == nonconstant_family(2, 1, 2)

    def test_renyi(self, capsys):
        assert main(["family", "renyi"]) == 0
        assert system_from_json(capsys.readouterr().out) == renyi_system()

    def test_fill_is_parsed_exactly(self, capsys):
        assert main(["family", "lebesgue", "--n", "3", "--fill", "1/2"]) == 0
        loaded = system_from_json(capsys.readouterr().out)
        assert loaded == lebesgue_family(3, fill=Fraction(1, 2))

    def test_fill_decimal_is_read_exactly_and_surds_are_allowed(self, capsys):
        assert main(["family", "lebesgue", "--n", "3", "--fill", "0.5"]) == 0
        assert system_from_json(capsys.readouterr().out) == lebesgue_family(3, fill=Fraction(1, 2))
        golden_a = "3/2 - 1/2*sqrt(5)"
        assert main(["family", "nonconstant", "--n", "2", "--fill", golden_a]) == 0
        assert system_from_json(capsys.readouterr().out) == nonconstant_family(2, 1, 0, fill=parse_scalar(golden_a))

    def test_weights_are_read_like_fill(self, capsys):
        assert main(["family", "nonconstant", "--n", "3", "--beta", "0.5", "--gamma", "1/4"]) == 0
        decimal = capsys.readouterr().out
        assert main(["family", "nonconstant", "--n", "3", "--beta", "1/2", "--gamma", "1/4"]) == 0
        assert decimal == capsys.readouterr().out

    def test_nan_weight_exits_two(self, capsys):
        assert main(["family", "nonconstant", "--n", "3", "--beta", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_long_bad_value_is_cut_in_the_message(self, capsys):
        assert main(["family", "lebesgue", "--n", "3", "--fill", "1/" + "3" * 5000 + "x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert len(captured.err) < 200
        assert captured.err.startswith("error: --fill needs a finite number, got '1/333")
        assert captured.err.endswith("…'\n")

    def test_short_bad_value_is_echoed_whole(self, capsys):
        assert main(["family", "lebesgue", "--n", "3", "--fill", "x" * 40]) == 2
        assert capsys.readouterr().err == f"error: --fill needs a finite number, got {'x' * 40!r}\n"

    def test_weight_in_another_field_exits_two(self, capsys):
        # the golden family lives in Q(sqrt(5))
        assert main(["family", "nonconstant", "--n", "2", "--beta", "sqrt(2)"]) == 2
        assert capsys.readouterr().err == "error: cannot combine sqrt(2) with sqrt(5)\n"

    @pytest.mark.parametrize("kind", [["lebesgue"], ["nonconstant", "--beta", "1", "--gamma", "2"]])
    def test_n_above_cap_exits_two(self, kind, capsys):
        n = families._MAX_N + 1
        t0 = time.perf_counter()
        assert main(["family", kind[0], "--n", str(n), *kind[1:]]) == 2
        assert time.perf_counter() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need n <= {families._MAX_N}, got {n}\n"

    def test_missing_n_is_usage_error(self, capsys):
        assert main(["family", "lebesgue"]) == 2
        assert main(["family", "nonconstant"]) == 2

    @pytest.mark.parametrize("kind", ["lebesgue", "nonconstant"])
    def test_missing_n_message(self, kind, capsys):
        assert main(["family", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: family {kind} needs --n\n"

    def test_unknown_kind_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["family", "cantor"])
        assert exc.value.code == 2


class TestCheck:
    def test_invariant_system_passes(self, tmp_path, capsys):
        path = write_system(tmp_path, golden_system())
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "density_window_full" in out
        assert "weight_identity[0]" in out

    def test_broken_system_fails(self, tmp_path, capsys):
        from twoval.system import EquippedSystem

        bad = EquippedSystem(Fraction(9, 20), StepFunction.constant(Fraction(1)), StepFunction.constant(Fraction(1, 2)))
        path = write_system(tmp_path, bad)
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "overall: FAIL" in out
        assert "7/11" in out

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_is_parse_error(self, tmp_path, capsys, value):
        d = system_to_json_dict(as_float_system(lebesgue_family(3)))
        d["p"]["values"] = [value]
        path = tmp_path / "system.json"
        path.write_text(json.dumps(d), encoding="utf-8")  # writes NaN / Infinity
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert len(captured.err.splitlines()) == 1

    def test_overflowing_density_fails_with_nan_deviation(self, tmp_path, capsys):
        # at a = 1/2 the jump sizes -p/(1-a) of the translate sum overflow
        path = write_system(tmp_path, EquippedSystem(0.5, StepFunction.constant(1.7e308), StepFunction.constant(0.5)))
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "density_window_short: FAIL (deviation nan)" in out
        assert "overall: FAIL (n=2, max deviation nan)" in out

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    def test_garbage_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["check", str(path)]) == 2

    @pytest.mark.parametrize("text", ["[]", '"x"'], ids=["list", "string"])
    def test_system_not_an_object_is_parse_error(self, tmp_path, capsys, text):
        path = tmp_path / "system.json"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: system JSON must be an object with keys a/p/alpha1\n"

    @pytest.mark.parametrize("key", ["p", "alpha1"])
    def test_step_function_not_an_object_is_parse_error(self, tmp_path, capsys, key):
        d = system_to_json_dict(lebesgue_family(3))
        d[key] = []
        path = tmp_path / "system.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "parse error: step function JSON must be an object with keys breakpoints/values/backend\n"
        )

    @pytest.mark.parametrize(
        ("obj", "missing", "message"),
        [
            ("p", ["values"], "step function JSON needs breakpoints/values/backend: 'values'"),
            ("p", ["backend"], "step function JSON needs breakpoints/values/backend: 'backend'"),
            # the keys are read in the order the message lists them, so the first one missing is named
            ("p", ["backend", "breakpoints"], "step function JSON needs breakpoints/values/backend: 'breakpoints'"),
            ("system", ["alpha1"], "system JSON needs a/p/alpha1: 'alpha1'"),
            ("system", ["p", "a"], "system JSON needs a/p/alpha1: 'a'"),
        ],
        ids=["values", "backend", "backend-and-breakpoints", "alpha1", "p-and-a"],
    )
    def test_missing_key_is_parse_error(self, tmp_path, capsys, obj, missing, message):
        d = system_to_json_dict(lebesgue_family(3))
        for key in missing:
            del (d if obj == "system" else d[obj])[key]
        path = tmp_path / "system.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {message}\n"


class TestParameterCap:
    """check and solve-alpha build 2n+1 translates, so n = derive_n(a) is capped
    as the families' n is; pushforward and simulate do not depend on n."""

    UNIT = {"float": StepFunction.constant(1.0), "exact": StepFunction.constant(Fraction(1))}

    def _write(self, tmp_path, a, backend):
        p = step_to_json_dict(self.UNIT[backend])
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"a": a, "p": p, "alpha1": p}), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("a,backend", [(1e-300, "float"), ("1/10001", "exact"), ("1/10000000000000", "exact")])
    @pytest.mark.parametrize("command", ["check", "solve-alpha"])
    def test_n_above_cap_exits_two(self, tmp_path, capsys, a, backend, command):
        path = self._write(tmp_path, a, backend)
        t0 = time.perf_counter()
        assert main([command, path]) == 2
        assert time.perf_counter() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need a > 1/{families._MAX_N + 1}, so that n <= {families._MAX_N}\n"

    def test_n_at_cap_is_read(self, tmp_path, capsys):
        # 1/a = 10000.3, so n = 10^4; the uniform density is not invariant there
        assert main(["check", self._write(tmp_path, 9.9997e-05, "float")]) == 1
        assert f"(n={families._MAX_N}," in capsys.readouterr().out

    @pytest.mark.parametrize("a,backend", [(1e-300, "float"), ("1/10001", "exact")])
    def test_pushforward_and_simulate_take_any_n(self, tmp_path, capsys, a, backend):
        path = self._write(tmp_path, a, backend)
        assert main(["pushforward", path]) == 0
        assert step_from_json(capsys.readouterr().out).integrate() == 1
        assert main(["simulate", path, "--seed", "1", "--samples", "100"]) == 0


class TestInputGuards:
    """Malformed scalars and step-function entries reach the user as exit 2
    with one parse-error line."""

    @staticmethod
    def _check(tmp_path, capsys, edit):
        d = system_to_json_dict(lebesgue_family(3))
        edit(d)
        path = tmp_path / "system.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert len(captured.err.splitlines()) == 1
        return captured.err

    @pytest.mark.parametrize(
        "a,message",
        [
            ("1e400", "non-finite scalar '1e400'"),
            ("1/0 + sqrt(2)", "zero denominator in '1/0 + sqrt(2)'"),
            ("1/3++sqrt(2)", "bad scalar '1/3++sqrt(2)'"),
            ("1/3+", "bad scalar '1/3+'"),
        ],
    )
    def test_bad_parameter_text(self, tmp_path, capsys, a, message):
        assert self._check(tmp_path, capsys, lambda d: d.update(a=a)) == f"parse error: {message}\n"

    def test_breakpoints_not_an_array(self, tmp_path, capsys):
        err = self._check(tmp_path, capsys, lambda d: d["p"].update(breakpoints="0,1"))
        assert err == "parse error: breakpoints and values must be arrays\n"

    @pytest.mark.parametrize("key", ["breakpoints", "values"])
    def test_bool_entry(self, tmp_path, capsys, key):
        entries = {"breakpoints": ["0", True], "values": [True]}
        err = self._check(tmp_path, capsys, lambda d: d["p"].update({key: entries[key]}))
        assert err == "parse error: bool is not a scalar\n"

    @pytest.mark.parametrize("entry", [0.5, [1]], ids=["float", "list"])
    def test_non_text_entry_on_the_exact_backend(self, tmp_path, capsys, entry):
        err = self._check(tmp_path, capsys, lambda d: d["p"].update(values=[entry]))
        assert err == f"parse error: exact backend requires string or integer entries, got {entry!r}\n"


class TestLongValuesAreCut:
    """A bad value of thousands of characters is echoed cut at 40, so the
    message stays one short stderr line."""

    @pytest.mark.parametrize(
        "on_floats,edit,start",
        [
            (False, lambda d: d["p"].update(backend="exact-" + "x" * 3000), "parse error: bad backend tag 'exact-xxx"),
            (True, lambda d: d["p"].update(values=["x" * 3000]), "parse error: float backend requires numeric entries, got 'xxx"),
            (True, lambda d: d["p"].update(values=[int("9" * 3000)]), "parse error: float backend requires finite entries, got 999"),
            (False, lambda d: d["p"].update(values=["0." + "1" * 3000]), "parse error: decimal '0.111"),
            (False, lambda d: d["p"].update(values=[list(range(1000))]), "parse error: exact backend requires string or integer entries, got [0, 1,"),
            (False, lambda d: d.update(a=list(range(1000))), "parse error: bad parameter a: [0, 1,"),
            (False, lambda d: d.update(a="sqrt(" + "7" * 3000 + ")"), "error: radicand 777"),
        ],
        ids=["backend-tag", "float-numeric", "float-finite", "decimal", "exact-entry", "parameter", "radicand"],
    )
    def test_check(self, tmp_path, capsys, on_floats, edit, start):
        system = lebesgue_family(3)
        d = system_to_json_dict(as_float_system(system) if on_floats else system)
        edit(d)
        path = tmp_path / "system.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        self._one_short_line(capsys, start)

    @pytest.mark.parametrize("flag", ["--x", "--beta"])
    def test_expand_radicand(self, capsys, flag):
        argv = {"--x": "1/2", "--beta": "2", flag: "sqrt(" + "7" * 3000 + ")"}
        assert main(["expand", *(w for item in argv.items() for w in item)]) == 2
        self._one_short_line(capsys, "error: radicand 777")

    @staticmethod
    def _one_short_line(capsys, start):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(start)
        assert len(captured.err) < 120, captured.err[:200]


class TestTolerance:
    """``--tol`` is read exactly, so it works on exact systems and rejects nan and inf."""

    @staticmethod
    def off_by_a_quarter(tmp_path):
        # lebesgue n = 3 forces alpha1 = 1/2 on [1/3, 2/3); 3/4 misses it by 1/4
        s = lebesgue_family(3)
        alpha1 = StepFunction([0, Fraction(1, 3), Fraction(2, 3), 1], [0, Fraction(3, 4), 0])
        return write_system(tmp_path, EquippedSystem(s.a, s.density, alpha1))

    @staticmethod
    def uniform_task(tmp_path):
        path = tmp_path / "task.json"
        path.write_text(json.dumps({"a": "1/4", "p": step_to_json_dict(StepFunction.constant(1))}), encoding="utf-8")
        return str(path)

    def test_exact_system_against_its_deviation(self, tmp_path, capsys):
        path = self.off_by_a_quarter(tmp_path)
        assert main(["check", path, "--tol", "1/8"]) == 1
        assert "overall: FAIL (n=3, max deviation 1/4)" in capsys.readouterr().out
        assert main(["check", path, "--tol", "1/2"]) == 0
        assert "overall: PASS (n=3, max deviation 1/4)" in capsys.readouterr().out

    def test_exact_solve_accepts_a_tolerance(self, tmp_path, capsys):
        assert main(["solve-alpha", self.uniform_task(tmp_path), "--tol", "1/8"]) == 0
        assert system_from_json(capsys.readouterr().out) == lebesgue_family(4)

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "x", "1/0"])
    def test_bad_tolerance_exits_two(self, tmp_path, capsys, tol):
        path = self.off_by_a_quarter(tmp_path)
        floats = write_system(tmp_path, as_float_system(golden_system()), "float.json")
        for argv in (["check", path], ["check", floats], ["solve-alpha", self.uniform_task(tmp_path)]):
            assert main([*argv, f"--tol={tol}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1

    def test_tolerance_beyond_doubles_exits_two_on_float(self, tmp_path, capsys):
        path = write_system(tmp_path, as_float_system(golden_system()))
        assert main(["check", path, "--tol", "1e400"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --tol needs a finite number, got '1e400'\n"

    @pytest.mark.parametrize("case", ["golden", "large"])
    def test_float_default_is_the_same_tolerance(self, tmp_path, capsys, case):
        # the default is --tol 1e-10 * sup|p|; the absolute --tol 1e-10 gives
        # the same verdict at sup|p| = 2 and another one at sup|p| = 10^6
        if case == "golden":
            s = golden_system(1, 2)
            bumped = s.density + StepFunction([0, Fraction(1, 3), 1], [0, Fraction(1, 10**12)])
            system = as_float_system(EquippedSystem(s.a, bumped, s.alpha1))
        else:
            s = as_float_system(lebesgue_family(3))
            system = EquippedSystem(s.a, StepFunction.constant(1e6), s.alpha1)
        path = write_system(tmp_path, system)
        sup = max(abs(v) for v in system.density.values)
        rc = main(["check", path])
        default = capsys.readouterr()
        assert main(["check", path, "--tol", repr(1e-10 * sup)]) == rc
        assert capsys.readouterr() == default
        assert (main(["check", path, "--tol", "1e-10"]) == rc) == (case == "golden")


    def test_float_default_scales_with_the_density(self, tmp_path, capsys):
        # p = 10^6 at a = fl(1/3) is invariant; rounding leaves 4.7e-10, inside
        # 1e-10 * sup|p| but not the absolute 1e-10 that --tol gives
        s = as_float_system(lebesgue_family(3))
        path = write_system(tmp_path, EquippedSystem(s.a, StepFunction.constant(1e6), s.alpha1))
        assert main(["check", path]) == 0
        assert "overall: PASS (n=3, max deviation 4.656612873077393e-10)" in capsys.readouterr().out
        assert main(["check", path, "--tol", "1e-10"]) == 1
        assert "overall: FAIL (n=3, max deviation 4.656612873077393e-10)" in capsys.readouterr().out

    def test_float_solve_of_a_large_density(self, tmp_path, capsys):
        path = tmp_path / "task.json"
        task = {"a": 1 / 3, "p": {"breakpoints": [0, 1], "values": [1e6], "backend": "float"}}
        path.write_text(json.dumps(task), encoding="utf-8")
        assert main(["solve-alpha", str(path)]) == 0
        assert system_from_json(capsys.readouterr().out).alpha1(0.5) == pytest.approx(0.5)
        assert main(["solve-alpha", str(path), "--tol", "1e-10"]) == 1
        assert capsys.readouterr().err == "infeasible: density_window_short violated by 4.656612873077393e-10\n"

    def test_float_default_fails_a_tiny_non_invariant_density(self, tmp_path, capsys):
        # alpha1 = 0 misses lebesgue n = 3 by p/2 = 5e-12
        s = as_float_system(lebesgue_family(3))
        path = write_system(tmp_path, EquippedSystem(s.a, s.density * 1e-11, StepFunction.constant(0.0)))
        assert main(["check", path]) == 1
        assert "overall: FAIL (n=3, max deviation 5.000000000000002e-12)" in capsys.readouterr().out


class TestSolveAlpha:
    def test_recovers_staircase(self, tmp_path, capsys):
        payload = {
            "a": "1/4",
            "p": step_to_json_dict(StepFunction.constant(Fraction(1))),
        }
        path = tmp_path / "task.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["solve-alpha", str(path), "--fill", "1"]) == 0
        solved = system_from_json(capsys.readouterr().out)
        assert solved == lebesgue_family(4, fill=1)

    def test_infeasible_density_exits_one(self, tmp_path, capsys):
        payload = {
            "a": "9/20",
            "p": step_to_json_dict(StepFunction.constant(Fraction(1))),
        }
        path = tmp_path / "task.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["solve-alpha", str(path)]) == 1
        assert "infeasible" in capsys.readouterr().err

    def test_missing_key_is_parse_error(self, tmp_path):
        path = tmp_path / "task.json"
        path.write_text(json.dumps({"a": "1/4"}), encoding="utf-8")
        assert main(["solve-alpha", str(path)]) == 2

    def test_missing_key_message(self, tmp_path, capsys):
        path = tmp_path / "task.json"
        path.write_text(json.dumps({"p": step_to_json_dict(StepFunction.constant(1))}), encoding="utf-8")
        assert main(["solve-alpha", str(path)]) == 2
        assert capsys.readouterr().err == "parse error: task JSON needs a/p: 'a'\n"

    @pytest.mark.parametrize("task", ["[]", '"x"'], ids=["list", "string"])
    def test_task_not_an_object_is_parse_error(self, tmp_path, capsys, task):
        path = tmp_path / "task.json"
        path.write_text(task, encoding="utf-8")
        assert main(["solve-alpha", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: task JSON must be an object with keys a/p\n"

    @pytest.mark.parametrize("raw", [True, None, [1]], ids=["true", "null", "list"])
    def test_bad_parameter_is_parse_error(self, tmp_path, capsys, raw):
        path = tmp_path / "task.json"
        path.write_text(json.dumps({"a": raw, "p": step_to_json_dict(StepFunction.constant(1))}), encoding="utf-8")
        assert main(["solve-alpha", str(path)]) == 2
        assert capsys.readouterr().err.startswith("parse error: bad parameter a")

    def test_parameter_out_of_range_message(self, tmp_path, capsys):
        path = tmp_path / "task.json"
        path.write_text(json.dumps({"a": "3/5", "p": step_to_json_dict(StepFunction.constant(1))}), encoding="utf-8")
        assert main(["solve-alpha", str(path)]) == 2
        assert capsys.readouterr().err == "error: parameter must lie in (0, 1/2], got 3/5\n"

    @staticmethod
    def float_task(tmp_path):
        path = tmp_path / "task.json"
        task = {"a": 0.5, "p": {"breakpoints": [0, 1], "values": [1.0], "backend": "float"}}
        path.write_text(json.dumps(task), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("argv,fill", [([], 0.0), (["--fill", "1/2"], 0.5), (["--fill", "0.25"], 0.25)])
    def test_float_task_takes_fill(self, tmp_path, capsys, argv, fill):
        assert main(["solve-alpha", self.float_task(tmp_path), *argv]) == 0
        solved = system_from_json(capsys.readouterr().out)
        assert solved.is_float
        assert solved.alpha1 == StepFunction.constant(fill)

    @pytest.mark.parametrize("fill", ["2", "-1/2", "nan", "1e400"])
    def test_fill_outside_unit_interval_exits_two(self, tmp_path, capsys, fill):
        for path in (self.float_task(tmp_path), TestTolerance.uniform_task(tmp_path)):
            assert main(["solve-alpha", path, f"--fill={fill}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1


class TestPushforward:
    def test_invariant_density_round_trips(self, tmp_path, capsys):
        sys_ = golden_system()
        path = write_system(tmp_path, sys_)
        assert main(["pushforward", path]) == 0
        q = step_from_json(capsys.readouterr().out)
        assert q == sys_.density

    def test_matches_library(self, tmp_path, capsys):
        from twoval.system import EquippedSystem

        sys_ = EquippedSystem(Fraction(2, 5), StepFunction.constant(Fraction(1)), StepFunction.constant(Fraction(1)))
        path = write_system(tmp_path, sys_)
        assert main(["pushforward", path]) == 0
        assert step_from_json(capsys.readouterr().out) == pushforward_density(sys_)

    @pytest.mark.parametrize(
        "tag",
        ["exact--5", "exact-+1", "exact- 1", "exact-1_0", "exact-\u0663"],
        ids=["minus", "plus", "space", "underscore", "arabic-indic"],
    )
    def test_backend_tag_takes_ascii_digits_only(self, tmp_path, capsys, tag):
        d = system_to_json_dict(lebesgue_family(3))
        d["p"]["backend"] = tag
        path = tmp_path / "system.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert main(["pushforward", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: bad backend tag {tag!r}\n"

    def test_csv_sidecar(self, tmp_path, capsys):
        path = write_system(tmp_path, golden_system())
        csv = tmp_path / "q.csv"
        assert main(["pushforward", path, "--csv", str(csv), "-o", str(tmp_path / "q.json")]) == 0
        text = csv.read_text()
        assert text.startswith("x_left,x_right,value")
        assert len(text.strip().splitlines()) == 4


def _huge_exact_system(tmp_path):
    """An exact system whose density value 10^400 has no float."""
    huge = EquippedSystem(Fraction(1, 3), StepFunction.constant(Fraction(10**400)), StepFunction.constant(Fraction(1, 2)))
    return write_system(tmp_path, huge)


def _assert_outside_float_range(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a value is outside the float range\n"


class TestFloatRange:
    def test_pushforward_csv_of_huge_value_exits_two(self, tmp_path, capsys):
        path = _huge_exact_system(tmp_path)
        assert main(["pushforward", path, "--csv", "-"]) == 2
        _assert_outside_float_range(capsys)

    def test_simulate_huge_value_exits_two(self, tmp_path, capsys):
        path = _huge_exact_system(tmp_path)
        assert main(["simulate", path, "--seed", "1", "--samples", "10"]) == 2
        _assert_outside_float_range(capsys)


class TestSimulate:
    def test_draw_only(self, tmp_path, capsys):
        path = write_system(tmp_path, golden_system())
        out = tmp_path / "samples.bin"
        report = tmp_path / "report.json"
        code = main([
            "simulate", path,
            "--samples", "2000", "--seed", "9",
            "--out", str(out), "--report", str(report),
        ])
        assert code == 0
        values = read_sample_file(out)
        assert len(values) == 2000
        assert np.all((values >= 0) & (values <= 1))
        rep = json.loads(report.read_text())
        assert rep["n_samples"] == 2000
        assert rep["seed"] == 9
        assert rep["steps"] == 0
        assert rep["step_distances"] == []
        assert "l1=" in capsys.readouterr().out

    def test_chain_report(self, tmp_path):
        path = write_system(tmp_path, golden_system())
        report = tmp_path / "report.json"
        code = main([
            "simulate", path,
            "--samples", "5000", "--seed", "3", "--steps", "3",
            "--report", str(report),
        ])
        assert code == 0
        rep = json.loads(report.read_text())
        assert len(rep["step_distances"]) == 3
        assert rep["l1_distance_to_reference"] < 0.2

    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_report_states_the_noise_floor(self, tmp_path, capsys, steps):
        # an invariant density's draws are iid from it after any number of
        # steps, so the seeded L1 sits near the floor; the floor is at most
        # sqrt(2 bins / (pi n)), and the summary line keeps its shape
        path = write_system(tmp_path, golden_system())
        report = tmp_path / "report.json"
        argv = ["simulate", path, "--samples", "100000", "--seed", "21", "--steps", str(steps), "--bins", "50"]
        assert main([*argv, "--report", str(report)]) == 0
        rep = json.loads(report.read_text())
        floor = rep["noise_floor"]
        assert 0 < floor <= math.sqrt(2 * 50 / (math.pi * 100_000))
        assert 0.5 < rep["l1_distance_to_reference"] / floor < 2
        assert capsys.readouterr().out.endswith(f"ks={rep['ks_statistic']:.6f}\n")

    @pytest.mark.parametrize(("samples", "bins"), [(1, 1), (1000, 7), (100_000, 100)])
    def test_noise_floor_of_a_uniform_density_is_the_closed_form(self, tmp_path, samples, bins):
        # every bin holds mass 1/bins, so the floor is sqrt(2 (bins - 1) / (pi n))
        system = EquippedSystem(0.5, StepFunction.constant(1.0), StepFunction.constant(0.5))
        report = tmp_path / "report.json"
        argv = ["simulate", write_system(tmp_path, system), "--samples", str(samples), "--seed", "2"]
        assert main([*argv, "--bins", str(bins), "--report", str(report)]) == 0
        closed = math.sqrt(2 * (bins - 1) / (math.pi * samples))
        assert json.loads(report.read_text())["noise_floor"] == pytest.approx(closed, rel=1e-12, abs=1e-300)

    def test_steps_past_the_cap_exit_two_fast(self, tmp_path, capsys):
        path = write_system(tmp_path, golden_system())
        t0 = time.perf_counter()
        assert main(["simulate", path, "--seed", "1", "--steps", str(10**20)]) == 2
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: n_steps must lie in [0, 1000000]\n"

    def test_seed_is_required(self, tmp_path):
        path = write_system(tmp_path, golden_system())
        with pytest.raises(SystemExit) as exc:
            main(["simulate", path, "--samples", "10"])
        assert exc.value.code == 2

    def test_same_seed_same_file(self, tmp_path):
        path = write_system(tmp_path, golden_system())
        out1 = tmp_path / "a.bin"
        out2 = tmp_path / "b.bin"
        main(["simulate", path, "--samples", "500", "--seed", "4", "--out", str(out1)])
        main(["simulate", path, "--samples", "500", "--seed", "4", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array with shape (1000000000000,)", ""])
    def test_out_of_memory_exits_two_with_one_line(self, tmp_path, capsys, monkeypatch, message):
        # stands in for --samples or --bins too large to allocate; nothing that large is asked for
        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(twoval.simulate, "run_chain", no_memory)
        path = write_system(tmp_path, golden_system())
        assert main(["simulate", path, "--samples", "1000000000000", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: out of memory")
        assert message in err


class TestBenchmarkLineShapes:
    """The benchmark's checker (``perfbench/checks.py``) reads ``check``'s last
    line and ``simulate``'s summary line with the two patterns below, copied
    from its ``_OVERALL`` and ``_SIM_LINE``.  A change to either line shape
    fails here first; widen the benchmark's pattern in the same change."""

    OVERALL = re.compile(r"overall: (PASS|FAIL) \(n=(\d+), max deviation (.+)\)$")
    SIM_LINE = re.compile(r"samples=(\d+) steps=(\d+) seed=(\d+) l1=([0-9.]+) ks=([0-9.]+)$")

    @pytest.mark.parametrize(
        "system,verdict",
        [
            (golden_system(), "PASS"),
            (EquippedSystem(Fraction(9, 20), StepFunction.constant(1), StepFunction.constant(Fraction(1, 2))), "FAIL"),
            (as_float_system(golden_system()), "PASS"),
            (EquippedSystem(0.45, StepFunction.constant(1.0), StepFunction.constant(0.5)), "FAIL"),
            (EquippedSystem(0.5, StepFunction.constant(1.7e308), StepFunction.constant(0.5)), "FAIL"),
        ],
        ids=["exact-pass", "exact-fail", "float-pass", "float-fail", "float-nan"],
    )
    def test_check_overall_line(self, tmp_path, capsys, system, verdict):
        rc = main(["check", write_system(tmp_path, system)])
        out = capsys.readouterr().out
        m = self.OVERALL.search(out.strip().splitlines()[-1])
        assert m is not None, out
        assert (m.group(1), int(m.group(2)), rc) == (verdict, system.n, 0 if verdict == "PASS" else 1)

    @pytest.mark.parametrize("steps", [0, 2])
    def test_simulate_summary_line(self, tmp_path, capsys, steps):
        report = tmp_path / "report.json"
        path = write_system(tmp_path, golden_system())
        argv = ["simulate", path, "--samples", "500", "--seed", "3", "--steps", str(steps), "--report", str(report)]
        assert main(argv) == 0
        m = self.SIM_LINE.search(capsys.readouterr().out.strip())
        assert m is not None
        assert m.group(1, 2, 3) == ("500", str(steps), "3")
        assert abs(float(m.group(4)) - json.loads(report.read_text())["l1_distance_to_reference"]) <= 1e-6


class TestExpand:
    def test_greedy_all_ones(self, capsys):
        assert main(["expand", "--x", "1", "--beta", "2", "--length", "5"]) == 0
        assert capsys.readouterr().out.strip() == "11111"

    def test_lazy_at_golden_crossover(self, capsys):
        code = main([
            "expand",
            "--x", "-1/2 + 1/2*sqrt(5)",
            "--beta", "1/2 + 1/2*sqrt(5)",
            "--rule", "lazy", "--length", "6",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "010101"

    def test_enumerate_golden_base(self, capsys):
        code = main([
            "expand", "--all",
            "--x", "1/2",
            "--beta", "1/2 + 1/2*sqrt(5)",
            "--length", "8",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) > 1
        assert all(set(line) <= {"0", "1"} for line in lines)

    def test_enumerate_base_two_is_unique(self, capsys):
        assert main(["expand", "--all", "--x", "1/2", "--beta", "2", "--length", "8"]) == 0
        assert capsys.readouterr().out.strip() == "10000000"

    def test_values_flag(self, capsys):
        assert main(["expand", "--x", "1/2", "--beta", "2", "--length", "3", "--values"]) == 0
        line = capsys.readouterr().out.strip()
        word, value = line.split()
        assert word == "100"
        assert value == "1/2"

    def test_nonpositive_budget_exits_two(self, capsys):
        assert main(["expand", "--x", "1/2", "--beta", "2", "--all", "--max-words", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_words must be positive\n"

    def test_budget_exceeded_exits_one(self, capsys):
        code = main([
            "expand", "--all",
            "--x", "1/2",
            "--beta", "1/2 + 1/2*sqrt(5)",
            "--length", "8", "--max-words", "1",
        ])
        assert code == 1
        assert "budget" in capsys.readouterr().err

    def test_domain_error_exits_two(self, capsys):
        assert main(["expand", "--x", "3", "--beta", "2", "--length", "4"]) == 2

    def test_mixed_backend_exits_two(self, capsys):
        code = main(["expand", "--x", "0.5", "--beta", "1/2 + 1/2*sqrt(5)", "--length", "4"])
        assert code == 2

    def test_huge_radicand_exits_two_fast(self, capsys):
        t0 = time.perf_counter()
        assert main(["expand", "--x", "sqrt(1000000000000000003)", "--beta", "2", "--length", "3"]) == 2
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("flag", [[], ["--all"], ["--rule", "lazy"]], ids=["greedy", "all", "lazy"])
    def test_length_past_the_cap_exits_two_fast(self, capsys, flag):
        t0 = time.perf_counter()
        assert main(["expand", *flag, "--x", "1/2", "--beta", "2", "--length", str(10**20)]) == 2
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: length must lie in [0, 1000000]\n"


#: exact bases for the --values oracle; each also runs as its float copy
ORACLE_BASES = ["1/2 + 1/2*sqrt(5)", "9/5", "3/2", "2", "sqrt(2)"]


class TestValuesOracle:
    """Every ``--values`` line, read off the walk's tail state, equals the
    Horner value ``evaluate_expansion(word, beta)``: exactly on exact bases,
    within 1e-12 relative on their float copies."""

    @staticmethod
    def _run(capsys, argv, x, beta, as_float):
        if as_float:
            x, beta = float(x), float(beta)
        code = main(["expand", "--x", format_scalar(x), "--beta", format_scalar(beta), "--values", *argv])
        lines = [line.split(" ", 1) for line in capsys.readouterr().out.splitlines()]
        if code == 0:
            for word, text in lines:
                want = evaluate_expansion(word, beta)
                if as_float:
                    assert abs(float(text) - want) <= 1e-12 * abs(want), word
                else:
                    assert text == format_scalar(want), word
        return code, len(lines)

    @pytest.mark.parametrize("as_float", [False, True], ids=["exact", "float"])
    @pytest.mark.parametrize("rule", ["greedy", "lazy"])
    @pytest.mark.parametrize("base", ORACLE_BASES)
    def test_orbit_rules(self, base, rule, as_float, capsys):
        beta = parse_scalar(base)
        # at golden, beta - 1 starts on the crossover, where greedy and lazy part
        for x in (Fraction(29, 64), beta - 1):
            for length in range(31):
                assert self._run(capsys, ["--length", str(length), "--rule", rule], x, beta, as_float) == (0, 1)
        assert self._run(capsys, ["--length", "2000", "--rule", rule], Fraction(29, 64), beta, as_float) == (0, 1)

    @pytest.mark.parametrize("as_float", [False, True], ids=["exact", "float"])
    @pytest.mark.parametrize("base", ORACLE_BASES)
    def test_all_words(self, base, as_float, capsys):
        beta = parse_scalar(base)
        budget = ["--all", "--max-words", "128"]
        reached = -1
        for length in range(31):
            code, words = self._run(capsys, budget + ["--length", str(length)], Fraction(29, 64), beta, as_float)
            if code == 1:  # past the word budget; longer words only grow in number
                break
            assert code == 0 and words >= 1
            reached = length
        # 3/2 and sqrt(2) overlap most: their words pass the budget first
        assert reached >= 12

    def test_all_words_at_base_two_length_2000(self, capsys):
        for as_float in (False, True):
            assert self._run(capsys, ["--all", "--length", "2000"], Fraction(1, 3), Fraction(2), as_float) == (0, 1)

    def test_tiny_point_keeps_the_zero_word_at_zero(self, capsys):
        # on floats, x - y*beta^(-L) leaves rounding residue of either sign
        assert main(["expand", "--all", "--values", "--x", "1e-5", "--beta", "1.8", "--length", "12"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "0" * 12 + " 0.0"

    @pytest.mark.parametrize("flag", ["--x", "--beta"])
    def test_long_bad_scalar_is_cut_in_the_message(self, flag, capsys):
        bad = "1/2x" + "3" * 3000
        argv = {"--x": "1/3", "--beta": "2", flag: bad}
        assert main(["expand", "--x", argv["--x"], "--beta", argv["--beta"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert len(captured.err) < 200
        assert captured.err.endswith("…'\n")


class TestDigitLimit:
    """Integers past the interpreter's limit on integer text exit 2 in twoval's words."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--x", "1/3", "--beta", "2", "--length", "15000", "--values"],
            ["--x", "1/3", "--beta", "9/5", "--length", "7000", "--values"],
            ["--x", "1/" + "7" * 5000, "--beta", "2", "--length", "5"],
            ["--x", "1/2", "--beta", "1 + " + "1" * 5000 + "/" + "1" * 5001 + "*sqrt(5)"],
        ],
        ids=["write-base-2", "write-base-9/5", "read-x", "read-beta"],
    )
    def test_exits_two_with_one_line(self, argv, capsys):
        assert main(["expand", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert f"more than {sys.get_int_max_str_digits()} digits" in captured.err
        assert "sys." not in captured.err

    def test_backend_tag_past_the_limit(self, tmp_path, capsys):
        d = system_to_json_dict(lebesgue_family(3))
        d["p"]["backend"] = "exact-" + "1" * (sys.get_int_max_str_digits() + 1)
        path = tmp_path / "system.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: bad backend tag {'exact-' + '1' * 34 + '…'!r}\n"

    def test_integers_at_the_limit_still_parse(self):
        digits = "7" * sys.get_int_max_str_digits()
        assert parse_scalar("1/" + digits) == Fraction(1, int(digits))


class TestJsonDigitLimit:
    """A JSON number literal past the digit limit exits 2 in twoval's words."""

    @pytest.mark.parametrize("command", ["check", "pushforward", "solve-alpha"])
    def test_exits_two_with_one_line(self, command, tmp_path, capsys):
        p = step_to_json_dict(StepFunction.constant(1))
        p["values"] = ["@"]
        d = {"a": "1/3", "p": p} if command == "solve-alpha" else {**system_to_json_dict(lebesgue_family(3)), "p": p}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(d).replace('"@"', "1" * 5000), encoding="utf-8")
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = sys.get_int_max_str_digits()
        assert captured.err == (
            f"parse error: number too large: an integer of more than {limit} digits cannot be read or written as text\n"
        )

    def test_garbage_task_names_the_json_error(self, tmp_path, capsys):
        path = tmp_path / "task.json"
        path.write_text('{"a": "1/3", "p": [', encoding="utf-8")
        assert main(["solve-alpha", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: invalid JSON: ")
        assert len(captured.err.splitlines()) == 1


class TestJsonNesting:
    """JSON nested past the parser's recursion limit is bad input, not a traceback."""

    @pytest.mark.parametrize("command", ["check", "solve-alpha"])
    @pytest.mark.parametrize("text", ["[" * 100_000, '{"a": ' * 100_000], ids=["arrays", "objects"])
    def test_exits_two_with_one_line(self, command, text, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: invalid JSON: nested too deeply\n"


class TestMixedRadicands:
    """Scalars over sqrt(2), sqrt(3) and sqrt(5) in one command are bad input, not a crash."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--x", "1/2*sqrt(2)", "--beta", "1/2+1/2*sqrt(5)"],
            ["family", "nonconstant", "--n", "2", "--beta", "sqrt(2)"],
            ["check", "{mixed}"],
        ],
        ids=["expand", "family", "check"],
    )
    def test_exits_two_with_one_line(self, argv, tmp_path, capsys):
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps({
            "a": "-1/4 + 1/2*sqrt(2)",
            "p": {"breakpoints": ["0", "1"], "values": ["1 + 1/4*sqrt(3)"], "backend": "exact-3"},
            "alpha1": {"breakpoints": ["0", "1"], "values": ["0"], "backend": "exact-1"},
        }), encoding="utf-8")
        assert main([arg.format(mixed=mixed) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_system_file_message(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({
            "a": "-1/4 + 1/2*sqrt(2)",
            "p": {"breakpoints": ["0", "1"], "values": ["1 + 1/4*sqrt(3)"], "backend": "exact-3"},
            "alpha1": {"breakpoints": ["0", "1"], "values": ["0"], "backend": "exact-1"},
        }), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "parse error: a, p and alpha1 mix radicands [2, 3]\n"


def _child_env() -> dict:
    """The environment with this package's source on PYTHONPATH, so a child
    interpreter imports the code under test without an install."""
    paths = [str(Path(twoval.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


class TestSharedParser:
    """``main`` builds its parser once per process and reuses it on every call."""

    def test_twenty_calls_build_one_parser(self, tmp_path, monkeypatch, capsys):
        system = write_system(tmp_path, lebesgue_family(3))
        task = tmp_path / "task.json"
        task.write_text(json.dumps({"a": "1/4", "p": step_to_json_dict(StepFunction.constant(1))}), encoding="utf-8")
        calls = [
            ["family", "renyi"],
            ["family", "lebesgue", "--n", "3"],
            ["family", "nonconstant", "--n", "2"],
            ["check", system],
            ["check", system, "--tol", "1/10"],
            ["solve-alpha", str(task)],
            ["solve-alpha", str(task), "--fill", "1"],
            ["pushforward", system],
            ["pushforward", system, "--csv", str(tmp_path / "q.csv")],
            ["simulate", system, "--samples", "100", "--seed", "1"],
            ["simulate", system, "--samples", "100", "--seed", "2", "--steps", "1"],
            ["expand", "--x", "1/2", "--beta", "2"],
            ["expand", "--x", "1/2", "--beta", "2", "--rule", "lazy"],
            ["expand", "--x", "1/2", "--beta", "2", "--all", "--length", "4"],
            ["expand", "--x", "1/2", "--beta", "2", "--values", "--length", "4"],
            ["family", "lebesgue", "--n", "4", "--fill", "1/2"],
            ["check", system],
            ["pushforward", system],
            ["expand", "--x", "1/3", "--beta", "9/5", "--length", "6"],
            ["family", "renyi"],
        ]
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(cli, "_parser", None, raising=False)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert [main(argv) for argv in calls] == [0] * len(calls)
        assert len(built) <= 7

    def test_options_do_not_leak_between_calls(self, capsys):
        golden = ["--x", "1/2", "--beta", "1/2 + 1/2*sqrt(5)", "--length", "8"]
        assert main(["expand", "--all", *golden]) == 0
        words = capsys.readouterr().out.splitlines()
        assert len(words) > 1
        assert main(["expand", *golden]) == 0
        assert capsys.readouterr().out.splitlines() == words[:1]
        assert main(["family", "lebesgue", "--n", "3", "--fill", "1/2"]) == 0
        assert system_from_json(capsys.readouterr().out) == lebesgue_family(3, fill=Fraction(1, 2))
        assert main(["family", "lebesgue", "--n", "3"]) == 0
        assert system_from_json(capsys.readouterr().out) == lebesgue_family(3)

    def test_usage_error_then_success(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["family", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(["family", "renyi"]) == 0
        assert system_from_json(capsys.readouterr().out) == renyi_system()

    @pytest.mark.parametrize("argv", [["--help"], ["expand", "--help"]], ids=["top", "expand"])
    def test_help_is_unchanged(self, argv, capsys):
        outputs = []
        for parse in (build_parser().parse_args, main, main):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0].startswith("usage: twoval")
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestEntryPoints:
    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "twoval.cli", "family", "renyi"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert system_from_json(proc.stdout) == renyi_system()

    def test_console_script(self, tmp_path):
        # Installers turn `[project.scripts]` into exactly this launcher, so
        # running it checks the declared entry point without an install.
        entry = EntryPoint(name="twoval", value=_project()["scripts"]["twoval"], group="console_scripts")
        launcher = tmp_path / "twoval_launcher.py"
        launcher.write_text(
            "import sys\n"
            f"from {entry.module} import {entry.attr}\n"
            f"sys.exit({entry.attr}())\n",
            encoding="utf-8",
        )

        def run(*args):
            return subprocess.run([sys.executable, str(launcher), *args], capture_output=True, text=True, env=_child_env())

        proc = run("expand", "--x", "1", "--beta", "2", "--length", "3")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "111"

        proc = run("expand", "--x", "oops", "--beta", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.skipif(shutil.which("twoval") is None, reason="the twoval command is not installed")
    def test_installed_console_script(self):
        proc = subprocess.run(
            ["twoval", "expand", "--x", "1", "--beta", "2", "--length", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "111"
        for entry in entry_points(group="console_scripts"):
            if entry.name == "twoval":
                assert entry.value == _project()["scripts"]["twoval"]

    def test_exact_commands_do_not_load_numpy(self):
        # the Monte Carlo names of __all__ are left unbound by the import and load on first use
        code = (
            "import sys, twoval.cli, twoval\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
            f"assert [n for n in twoval.__all__ if n not in vars(twoval)] == {SIMULATE_NAMES!r}\n"
            "assert not hasattr(twoval, 'no_such_name') and 'numpy' not in sys.modules\n"
            f"for name in {SIMULATE_NAMES!r}:\n"
            "    assert getattr(twoval, name) is getattr(twoval.simulate, name), name\n"
            "assert 'numpy' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr

    def test_package_metadata(self):
        assert twoval.__version__ == _project()["version"]
        for name in twoval.__all__:
            getattr(twoval, name)  # a stale export raises AttributeError


#: the names of ``twoval.__all__`` that ``twoval.simulate``, which needs numpy, supplies
SIMULATE_NAMES = [
    "ChainReport",
    "HistogramReport",
    "OneStepReport",
    "histogram_report",
    "one_step_stationarity_test",
    "read_sample_file",
    "run_chain",
    "sample_from_density",
    "write_sample_file",
]


def _project():
    """The `[project]` table of the repo's pyproject.toml."""
    try:
        import tomllib
    except ImportError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]
