"""twoval benchmark: closed-loop in-process CLI jobs, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload exact-families --seed 1 --seconds 25 --trace 0

One client in one process calls ``twoval.cli.main(argv)`` on inputs made
from ``--seed``; each job starts when the previous one returns.  A pass
is the workload's whole job list.  A run makes whole passes for
``--seconds`` (at least MIN_PASSES).  The metrics are taken over the
job list, one latency per job, so the sample count, and with it the tail
percentile, does not depend on how fast the code is.  After every job a
speed probe runs (``speed.py``), and job times are scaled to the probe's
reference speed.  Every job's exit code and output go through the
checker in ``checks.py`` outside the timed region.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the same untraced passes, then two traced passes (see
``tracing.py``) at the same seed, requires their counts to agree exactly,
and prints the per-layer metrics of the faster traced pass.  The last line of standard output is
the result object; the line before it is a record of the environment and
the run, also written under ``.perfbench_run/`` with the traced spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
WORKLOAD_NAMES = ("exact-families", "exact-ragged", "float-mc", "expansions")
#: set-up is repeated in this many fresh processes; setup_s is their median
SETUP_TRIALS = 5
#: a run makes at least this many passes, however long they take
MIN_PASSES = 3
#: job_tail_ms is the latency with this many jobs beyond it
TAIL_BEYOND = 10
TRACED_PASSES = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- set-up ------------------------------------------------------------


def setup_child(args) -> int:
    """Import the CLI, write one pass's inputs, print the monotonic clock."""
    import workloads

    workloads.build(args.workload, args.seed, Path(args.setup_only))
    print(repr(time.monotonic()))
    return 0


def measure_setup(args, work: Path) -> list:
    """Process start to inputs written, in SETUP_TRIALS fresh processes."""
    times = []
    for i in range(SETUP_TRIALS):
        d = work / f"setup-{i}"
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-only", str(d)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        times.append(float(proc.stdout.split()[-1]) - t0)
        shutil.rmtree(d)
    return times


# -- passes ------------------------------------------------------------


def run_pass(jobs, checker, tracer=None, probe_kind=None) -> list:
    """Run every job once, back to back; return (job, outcome, error) triples.

    With a ``probe_kind`` the speed probe runs after each job.  The
    checker runs after the whole pass, so its work does not disturb the
    jobs' memory and caches.  A job's outputs are files named for the
    job, which no other job of the pass writes.
    """
    from jobs import run_job
    from speed import probe

    outcomes = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job, tracer.active = i, True
        outcome = run_job(job)
        if tracer is not None:
            tracer.active = False
        if probe_kind is not None:
            outcome.probe_s = probe(probe_kind)
        outcomes.append(outcome)
    results = [(job, o, checker(job, o)) for job, o in zip(jobs, outcomes)]
    checker.end_pass()
    return results


def run_passes(jobs, checker, seconds: float, probe_kind: str) -> list:
    """Whole passes for ``seconds``, at least MIN_PASSES: a pass starts only
    if one more of the average length so far still ends in time."""
    passes = []
    t0 = time.monotonic()
    while len(passes) < MIN_PASSES or (time.monotonic() - t0) * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(run_pass(jobs, checker, probe_kind=probe_kind))
    return passes


def _latencies(per_job: list) -> tuple[float, float, float]:
    """jobs_per_s, job_p50_ms and job_tail_ms of one latency per job."""
    per_job = sorted(per_job)
    return len(per_job) / sum(per_job), 1e3 * statistics.median(per_job), 1e3 * per_job[-1 - TAIL_BEYOND]


def end_to_end(passes, setup_times: list, probe_kind: str) -> tuple[dict, dict, dict]:
    """Metrics over the jobs, one latency per job, and the same from raw times.

    A job's latency is the median over the run's passes of its time
    scaled to the probe's reference speed (see speed.py).  The tail is
    read where TAIL_BEYOND jobs lie beyond it.  The raw figures, each
    job at its fastest unscaled pass, go into the record only.
    """
    from speed import scales

    scale = scales([o.probe_s for p in passes for _, o, _ in p], probe_kind)
    n = len(passes[0])
    scaled = [o.seconds * scale[k * n + i] for k, p in enumerate(passes) for i, (_, o, _) in enumerate(p)]
    per_job = [statistics.median(scaled[i::n]) for i in range(n)]
    jobs_per_s, p50, tail_ms = _latencies(per_job)
    attempted = sum(map(len, passes))
    failed = sum(err is not None for p in passes for _, _, err in p)
    metrics = {
        "jobs_per_s": jobs_per_s,
        "job_p50_ms": p50,
        "job_tail_ms": tail_ms,
        "ok_ratio": 1 - failed / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = dict(zip(("jobs_per_s", "job_p50_ms", "job_tail_ms"),
                   _latencies([min(o.seconds for _, o, _ in col) for col in zip(*passes)])))
    tail = {"tail_percentile": 100 * (n - TAIL_BEYOND) / n, "tail_samples": n, "tail_beyond": TAIL_BEYOND}
    return metrics, raw, tail


def _bytes_io(job, outcome) -> int:
    files = sum(os.path.getsize(p) for p in job.inputs + job.outputs if os.path.exists(p))
    return files + len(outcome.out.encode()) + len(outcome.err.encode())


def per_layer(tracer, results) -> dict:
    from tracing import COUNTS, SPANS

    calls, self_s = tracer.layer_totals()
    m = {}
    for name in SPANS:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m.update((k, tracer.counts[k]) for k in COUNTS)
    m["numerics.max_coeff_bits"] = tracer.max_bits
    m["piecewise.max_pieces"] = tracer.max_pieces
    m["cli.bytes_io"] = sum(_bytes_io(job, o) for job, o, _ in results)
    m["cli.exit_1"] = sum(o.rc == 1 and not o.uncaught for _, o, _ in results)
    m["cli.exit_2"] = sum(o.rc == 2 for _, o, _ in results)
    m["cli.uncaught"] = sum(bool(o.uncaught) for _, o, _ in results)
    return m


def _wall(results) -> float:
    return sum(o.seconds for _, o, _ in results)


def run_traced(jobs, checker, stem: str):
    """TRACED_PASSES traced passes: the faster one's per-layer metrics, all
    passes' results, and the counts that did not repeat exactly."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    runs = []
    try:
        for rep in range(TRACED_PASSES):
            tracer.reset()
            results = run_pass(jobs, checker, tracer)
            runs.append((per_layer(tracer, results), results))
            if rep == 0:
                tracer.write_spans(WORK / f"spans-{stem}.csv")
    finally:
        tracer.uninstall()
    first = runs[0][0]
    mismatched = sorted(
        k for k in first if not k.endswith("_s") and any(r[k] != first[k] for r, _ in runs[1:])
    )
    layers = min(runs, key=lambda run: _wall(run[1]))[0]
    return layers, [res for _, res in runs], mismatched


# -- record ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twoval" / "cli.py").is_file():
        print(f"perfbench: no twoval sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_child(args)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = measure_setup(args, work)

        import numpy
        import workloads
        from checks import Checker, selftest
        from speed import REF_S

        jobs = workloads.build(args.workload, args.seed, work / "inputs")
        problems = selftest(work / "selftest")
        if problems:
            print("perfbench: checker self-test failed: " + "; ".join(problems), file=sys.stderr)
            return 3
        checker = Checker()
        probe_kind = workloads.PROBE_KIND[args.workload]
        passes = run_passes(jobs, checker, args.seconds, probe_kind)
        e2e, raw, tail = end_to_end(passes, setup_times, probe_kind)
        mismatched = []
        if args.trace:
            layers, traced, mismatched = run_traced(jobs, checker, stem)
            layers["trace.overhead_ratio"] = min(map(_wall, traced)) / min(map(_wall, passes)) - 1
            passes += traced
            for name in mismatched:
                print(f"perfbench: count {name} differs between traced passes", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    available = layers if args.trace else e2e
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": available[m["name"]], "unit": m["unit"]} for m in wanted}

    results = [r for p in passes for r in p]
    failures = [(job, o, err) for job, o, err in results if err is not None]
    wrong = [err for _, o, err in failures if not o.uncaught]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "jobs_per_pass": len(jobs),
        "passes": len(passes),
        "pass_walls_s": [_wall(p) for p in passes],
        "jobs": len(results),
        **tail,
        "error_rate": len(failures) / len(results),
        "errors": sorted({f"{' '.join(job.argv[:3])}...: {err}" for job, _, err in failures}),
        "probe_kind": probe_kind,
        "probe_ref_s": REF_S[probe_kind],
        "probe_median_s": statistics.median(o.probe_s for p in passes for _, o, _ in p if o.probe_s is not None),
        "setup_trials_s": setup_times,
        "end_to_end": e2e,
        "unscaled": raw,
    }
    (WORK / f"record-{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not wrong and not mismatched,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
