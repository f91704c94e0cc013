"""Tracing from outside the program: spans and counts at layer boundaries.

``Tracer.install`` replaces public functions of the ``twoval`` modules, and
every module attribute that imported them, with wrappers that record a
span (name, start, end, parent, job id) while the tracer is active.  The
``Surd`` constructor and comparisons are wrapped with plain counters, and
the values crossing a wrapped boundary are inspected for piece counts and
coefficient bit lengths.  Nothing inside ``src/`` is edited; ``uninstall``
puts every original back.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

from twoval import cli, criterion, expansion, families, numerics, piecewise, simulate, system
from twoval.criterion import ConditionReport
from twoval.numerics import Surd
from twoval.piecewise import StepFunction
from twoval.system import EquippedSystem

#: span name -> the functions it covers, as (owner, attribute)
SPANS = {
    "numerics.parse_scalar": [(numerics, "parse_scalar")],
    "piecewise.compose_affine": [(StepFunction, "compose_affine")],
    "piecewise.combine": [(StepFunction, op) for op in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__")],
    "piecewise.integrate": [(StepFunction, "integrate")],
    "piecewise.json": [
        (piecewise, f)
        for f in ("step_to_json", "step_from_json", "step_to_json_dict", "step_from_json_dict", "step_to_csv")
    ],
    "system.json": [
        (system, f) for f in ("system_to_json", "system_from_json", "system_to_json_dict", "system_from_json_dict")
    ],
    "system.pushforward_density": [(system, "pushforward_density")],
    "criterion.check": [(criterion, "check_invariance_conditions")],
    "criterion.solve": [(criterion, "solve_alpha1")],
    "families.build": [(families, f) for f in ("lebesgue_family", "nonconstant_family", "renyi_system")],
    "simulate.sample": [(simulate, "sample_from_density"), (simulate, "_sample_with_rng")],
    "simulate.chain": [(simulate, "run_chain")],
    "simulate.histogram": [(simulate, "histogram_report")],
    "expansion.enumerate": [(expansion, "enumerate_expansions")],
    "expansion.orbit": [(expansion, "orbit_expansion")],
    "expansion.evaluate": [(expansion, "evaluate_expansion")],
    "cli.main": [(cli, "main")],
}

#: counts taken from the value a wrapped call returns
_TALLIES = {
    "expansion.enumerate": lambda words: ("expansion.words", len(words)),
    "expansion.orbit": lambda word: ("expansion.digits", len(word)),
    "simulate.chain": lambda report: ("simulate.sample_steps", report.n_samples * report.n_steps),
}

#: every count a traced pass reports, zero when nothing was counted
COUNTS = (
    "numerics.surd_new", "numerics.surd_cmp", "numerics.surd_to_float", "criterion.windows",
    "expansion.words", "expansion.digits", "simulate.sample_steps",
)

_MODULES = (numerics, piecewise, system, criterion, families, expansion, simulate, cli, sys.modules["twoval"])

#: the span that covers the tracer's own inspection work
OBSERVE = "trace.observe"


def _bits(x) -> int:
    if isinstance(x, Surd):
        q0, q1 = x.q0, x.q1
        return max(q0.numerator.bit_length(), q0.denominator.bit_length(),
                   q1.numerator.bit_length(), q1.denominator.bit_length())
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int) and not isinstance(x, bool):
        return x.bit_length()
    return 0


class Tracer:
    def __init__(self):
        self.active = False
        self.job = -1
        self._undo = []
        self.reset()

    def reset(self):
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.max_bits = 0
        self.max_pieces = 0

    # -- patching --------------------------------------------------------

    def _replace(self, owner, attr, new):
        old = owner.__dict__[attr]
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            targets += [(m, name) for m in _MODULES for name, v in vars(m).items() if v is old and m is not owner]
        for obj, name in targets:
            self._undo.append((obj, name, getattr(obj, name)))
            setattr(obj, name, new)

    def install(self):
        for span, targets in SPANS.items():
            for owner, attr in targets:
                step_operands_only = span == "piecewise.combine"
                self._replace(owner, attr, self._span(span, owner.__dict__[attr], step_operands_only))
        self._replace(criterion, "_window_check", self._count("criterion.windows", criterion._window_check))
        self._replace(Surd, "__init__", self._count("numerics.surd_new", Surd.__init__))
        self._replace(Surd, "__float__", self._count("numerics.surd_to_float", Surd.__float__))
        for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            self._replace(Surd, op, self._count("numerics.surd_cmp", Surd.__dict__[op]))

    def uninstall(self):
        while self._undo:
            obj, name, old = self._undo.pop()
            setattr(obj, name, old)

    # -- wrappers --------------------------------------------------------

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn, step_operands_only: bool):
        tally = _TALLIES.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self.active or (step_operands_only and not isinstance(args[1], StepFunction)):
                return fn(*args, **kwargs)
            stack = self._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                self._observe(result, tally)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()

        return spanned

    def _observe(self, result, tally):
        """Record sizes at the boundary, inside a child span so self times exclude it."""
        span = [OBSERVE, perf_counter(), 0.0, self._stack[-1], self.job]
        self.spans.append(span)
        if tally is not None:
            key, n = tally(result)
            self.counts[key] += n
        funcs = ()
        if isinstance(result, StepFunction):
            funcs = (result,)
        elif isinstance(result, EquippedSystem):
            funcs = (result.density, result.alpha1)
            self.max_bits = max(self.max_bits, _bits(result.a))
        elif isinstance(result, ConditionReport):
            self.max_bits = max(self.max_bits, _bits(result.max_deviation))
        else:
            self.max_bits = max(self.max_bits, _bits(result))
        for f in funcs:
            self.max_pieces = max(self.max_pieces, len(f.values))
            if not f.is_float:
                self.max_bits = max(self.max_bits, max(map(_bits, f.breakpoints)), max(map(_bits, f.values)))
        span[2] = perf_counter()

    # -- results ---------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        calls, self_s = Counter(), Counter()
        for (name, t0, t1, _, _), child in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += t1 - t0 - child
        return calls, self_s

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,job\n")
            for name, t0, t1, parent, job in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{job}\n")
