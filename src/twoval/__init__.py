"""Invariant densities for weighted two-branch interval maps.

The core objects are step functions with exact quadratic-irrational or
float values (`StepFunction`, `Surd`), systems pairing an expansion
parameter with a density and branch weights (`EquippedSystem`), the
transfer step acting on densities (`pushforward_density`), finite
checkable conditions equivalent to invariance
(`check_invariance_conditions`, `solve_alpha1`), ready-made invariant
families (`lebesgue_family`, `nonconstant_family`, `renyi_system`),
binary expansions in bases from (1, 2] (`greedy_expansion`,
`enumerate_expansions`), and Monte Carlo stationarity checks
(`one_step_stationarity_test`, `run_chain`).
"""

from .criterion import (
    ConditionCheck,
    ConditionReport,
    InfeasibleError,
    check_invariance_conditions,
    invariance_defect,
    solve_alpha1,
)
from .expansion import (
    BudgetExceededError,
    InadmissibleChoiceError,
    enumerate_expansions,
    evaluate_expansion,
    greedy_expansion,
    orbit_expansion,
)
from .families import (
    lebesgue_family,
    nonconstant_family,
    renyi_density,
    renyi_system,
    renyi_transfer,
    total_mass,
)
from .numerics import (
    Interval,
    MixedBackendError,
    MixedRadicandError,
    ParseError,
    Scalar,
    Surd,
    format_scalar,
    parse_scalar,
)
from .piecewise import (
    NonpositiveSlopeError,
    StepFunction,
    ZeroMassError,
    step_from_json,
    step_to_csv,
    step_to_json,
)
from .system import (
    EquippedSystem,
    as_float_system,
    derive_n,
    pushforward_density,
    pushforward_measure,
    system_from_json,
    system_to_json,
)

__version__ = "0.1.0"


def __getattr__(name):
    # __all__ names the imports above leave unbound are the Monte Carlo module's: it needs numpy,
    # so they load on first use, and importing the package or the exact commands does not load it
    if name in __all__:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BudgetExceededError",
    "ChainReport",
    "ConditionCheck",
    "ConditionReport",
    "EquippedSystem",
    "HistogramReport",
    "InadmissibleChoiceError",
    "InfeasibleError",
    "Interval",
    "MixedBackendError",
    "MixedRadicandError",
    "NonpositiveSlopeError",
    "OneStepReport",
    "ParseError",
    "Scalar",
    "StepFunction",
    "Surd",
    "ZeroMassError",
    "as_float_system",
    "check_invariance_conditions",
    "derive_n",
    "enumerate_expansions",
    "evaluate_expansion",
    "format_scalar",
    "greedy_expansion",
    "histogram_report",
    "invariance_defect",
    "lebesgue_family",
    "nonconstant_family",
    "one_step_stationarity_test",
    "orbit_expansion",
    "parse_scalar",
    "pushforward_density",
    "pushforward_measure",
    "read_sample_file",
    "renyi_density",
    "renyi_system",
    "renyi_transfer",
    "run_chain",
    "sample_from_density",
    "solve_alpha1",
    "step_from_json",
    "step_to_csv",
    "step_to_json",
    "system_from_json",
    "system_to_json",
    "total_mass",
    "write_sample_file",
]
