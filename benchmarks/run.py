"""youngconv benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads in
``workloads.py`` (or ``all`` to run each in turn).  The run is a closed
loop of one caller: this process starts one fresh interpreter at a time
(``job.py``) and waits for it, so no two jobs overlap.

* Set-up: every job imports youngconv and builds its inputs first, and
  ``setup_s`` is the median of those times.  When fewer than
  ``SETUP_SAMPLES`` jobs fit in the window, set-up-only interpreters make
  up the rest.  Traced runs skip them, as they do not report ``setup_s``.
* Measurement: whole jobs are run for ``--seconds`` (at least one); a job
  that would end more than half a job past that window, at the last job's
  pace, is not started, so a run lasts about ``--seconds`` on average.
  Job 0 uses ``--seed`` itself and job j its j-th derived seed (see
  ``job_seed``), so a run's median spans several seeds' worth of ascent
  work rather than one seed repeated.  ``wall_s`` is the median job time
  from built inputs to checked result; ``peak_rss_mb`` the median peak
  resident memory of a job.
* ``--trace 1`` then runs one more job with the layer tracer installed
  on ``--seed`` (see ``tracing.py``) and a cold ``python -X importtime``
  start, and reports the per-layer metrics instead of the end-to-end ones;
  ``trace.overhead_s`` is that job's time minus job 0's.

Every job checks its outputs (see ``workloads.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with its
unit, the error rate, the bound gap and a machine note.  The full record,
and the spans of a traced job, are written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from tracing import CONVOLUTION_METRICS, ESTIMATOR_METRICS, KINDS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 3
# every run must end within 180 s; jobs get what is left of this budget
RUN_BUDGET_S = 175.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
IMPORTS = {
    "import.youngconv_s": "youngconv",
    "import.scipy_signal_s": "scipy.signal",
    "import.scipy_optimize_s": "scipy.optimize",
}
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class JobError(RuntimeError):
    """A job process failed or ran out of time; the run reports no result."""


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    names = [
        prefix + m
        for prefix in ["convolution."] + [f"convolution.{k}." for k in KINDS]
        for m in CONVOLUTION_METRICS
    ]
    names += ["estimator." + m for m in ESTIMATOR_METRICS] + [
        "estimator.bound_gap", "chain.functionals_calls", "chain.functionals_s",
        "chain.identity_s", "chain.check_s", "quotient.weil_calls", "quotient.weil_s",
        "quotient.invariance_s", "verify.transform_s", "verify.self_s",
        "groups.build_s", *IMPORTS, "trace.overhead_s",
    ]
    return {n: _unit(n) for n in names}


def _unit(name):
    if name in ("estimator.ls_tries_per_iter", "estimator.bound_gap"):
        return "ratio"
    return "s" if name.endswith("_s") or "_s_" in name else "count"


def machine_note():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
    }


def job_seed(seed, index):
    """Seed of the index-th measured job of a run with seed ``seed``."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _run_job(deadline, workload, seed, mode, spans=None):
    cmd = [sys.executable, str(BENCH / "job.py"), workload, str(seed), mode]
    if spans is not None:
        cmd.append(str(spans))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise JobError("time budget used up before the job could start")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise JobError(f"{mode} job timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise JobError(f"{mode} job exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def _import_times(deadline):
    """Cumulative import seconds of youngconv and the scipy parts it pulls in,
    from one cold start; a module that is not imported reads 0."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import youngconv"
    try:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise JobError("cold import of youngconv timed out") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise JobError("cold import of youngconv failed")
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cum, module = line.split("|")
            if cum.strip().isdigit():
                cumulative[module.strip()] = int(cum) * 1e-6
    return {metric: cumulative.get(module, 0.0) for metric, module in IMPORTS.items()}


def run_workload(workload, seed, seconds, trace, deadline):
    """Run one workload; returns (result line, full record)."""
    jobs = []
    start = time.monotonic()
    elapsed = pace = 0.0
    while not jobs or elapsed + pace / 2 <= seconds:
        began = time.monotonic()
        s = job_seed(seed, len(jobs))
        jobs.append({"seed": s, **_run_job(deadline, workload, s, "run")})
        pace = time.monotonic() - began
        elapsed = time.monotonic() - start
    setups = [
        _run_job(deadline, workload, seed, "setup")["setup_s"]
        for _ in range(0 if trace else SETUP_SAMPLES - len(jobs))
    ]
    wall = statistics.median(j["wall_s"] for j in jobs)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "machine": machine_note(),
        "setup_runs": setups,
        "jobs": jobs,
    }
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-seed{seed}.npz"
        traced = _run_job(deadline, workload, seed, "trace", spans)
        jobs_checked = jobs + [traced]
        metrics = dict(traced["layers"])
        metrics["estimator.bound_gap"] = traced["bound_gap"] or 0.0
        metrics.update(_import_times(deadline))
        metrics["trace.overhead_s"] = traced["wall_s"] - jobs[0]["wall_s"]
        units = per_layer_units()
        record["traced"] = traced
    else:
        jobs_checked = jobs
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups + [j["setup_s"] for j in jobs]),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
        }
        units = END_TO_END
    attempted = sum(j["attempted"] for j in jobs_checked)
    failed = sum(j["failed"] for j in jobs_checked)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record["result"] = result
    return result, record


def _print_report(result, record):
    note = record["machine"]
    threads = " ".join(f"{k}={v}" for k, v in note["threads"].items())
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"jobs {len(record['jobs'])}  set-up runs {len(record['setup_runs'])}"
    )
    print(
        f"machine: nproc={note['nproc']} python={note['python']} "
        f"numpy={note['numpy']} scipy={note['scipy']} {threads}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(
        f"  {'error_rate':44s} {result['failed'] / result['attempted']:.6g} ratio "
        f"({result['failed']} of {result['attempted']} checks failed)"
    )
    gaps = [j["bound_gap"] for j in record["jobs"] if j["bound_gap"] is not None]
    if gaps:
        print(f"  {'bound_gap':44s} {statistics.median(gaps):.6g} ratio")
    for job in record["jobs"] + [record.get("traced") or {}]:
        for label in job.get("failed_checks", []):
            print(f"  failed check: {label}")
    for name in (record.get("traced") or {}).get("absent", []):
        print(f"  not traced (absent): {name}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    for name in names:
        try:
            result, record = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except JobError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1), encoding="utf-8")
        _print_report(result, record)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
