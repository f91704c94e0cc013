"""A job is one in-process ``twoval.cli.main(argv)`` call, timed from call to return."""

from __future__ import annotations

import io
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

from twoval import cli


@dataclass
class Job:
    """One CLI call, its expected exit code, and what its checker needs."""

    kind: str
    argv: list
    expect: int = 0
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


@dataclass
class Outcome:
    rc: int
    out: str
    err: str
    seconds: float
    #: exception type name when cli.main raised instead of returning
    uncaught: str | None = None
    #: seconds of the speed probe run right after the job (see speed.py)
    probe_s: float | None = None


def run_job(job: Job, main=None) -> Outcome:
    """Call ``cli.main`` (looked up per call, so a traced wrapper is used) on the job.

    argparse's SystemExit gives the exit code it carries; any other
    exception is what a console user sees as a traceback and exit 1.
    """
    main = main or cli.main
    out, err = io.StringIO(), io.StringIO()
    uncaught = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = main(job.argv)
            t1 = perf_counter()
        except SystemExit as exc:
            t1 = perf_counter()
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # classified and counted, never allowed to end the run
            t1 = perf_counter()
            rc, uncaught = 1, type(exc).__name__
            err.write(traceback.format_exc())
    return Outcome(rc, out.getvalue(), err.getvalue(), t1 - t0, uncaught)
