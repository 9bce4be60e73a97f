"""The benchmark's workloads: inputs built from a seed, the library calls,
and the checks on their outputs.

Every workload is a function ``build(yc, seed, short)`` that returns a
zero-argument job; calling the job runs the library and returns its
outputs, and ``check(outputs, checks, reference)`` judges them.  ``yc`` is
the imported ``youngconv`` package, so importing this module costs nothing
and the set-up timing starts before ``import youngconv``.  ``short``
selects a small configuration for the benchmark's own tests.

Why each workload (as recorded in BENCHMARK.json):

* ``affine_audit`` -- the criterion-6 monotonicity audit: one affine grid
  and one plane grid at (4/3, 4/3), with one restart per job where
  criterion 6 runs three.  Most of its time is large FFT work in the affine
  and plane convolution paths, so it is where batching the FFTs shows.  A
  restart takes about 10 s on 2 cores, so a 40 s run holds three
  one-restart jobs and reports their median, which a burst of load on a
  shared host during one job does not move; one three-restart job would
  give a single sample.
* ``line_ladder`` -- criterion 5: three real-line grids with the default
  16 x 500 ascent.  Arrays are tiny and no FFT runs, so per-call overhead
  in the convolution and estimator layers dominates; FFT batching should
  not move it, a pool over its 48 restarts should.
* ``verify_battery`` -- the ``verify --no-estimates`` battery plus the
  100-seed proof-chain table.  It never calls the estimator, so every
  estimator change predicts no change here, and import is a quarter of
  each job, so set-up time moves most visibly on it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

TRIPLE = ("4/3", "4/3")
REFERENCE_SEED = 42
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# the ROADMAP rule for a speedup: same bounds at a fixed seed
REFERENCE_RTOL = 1e-12
# criterion 5's tolerance above the closed form of R
LINE_TOLERANCE = 1e-3


class Checks:
    """Named pass/fail outcomes; the error rate is failed / attempted."""

    def __init__(self):
        self.results = []

    def add(self, label, ok):
        self.results.append((label, bool(ok)))

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return sum(1 for _, ok in self.results if not ok)


def load_reference(workload):
    """Seed-42 lower bounds by model name, or {} for workloads without them."""
    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return data["lower_bounds"].get(workload, {})


def _check_bounds(bounds, exact, checks, reference):
    """Finite bounds, equal to the seed-42 reference when one is given.
    Returns the mean relative gap (exact - bound) / exact."""
    gaps = []
    for group, bound in bounds.items():
        checks.add(f"{group}: finite lower bound", math.isfinite(bound))
        if reference is not None:
            ref = reference.get(group)
            checks.add(
                f"{group}: equals seed-{REFERENCE_SEED} reference",
                ref is not None and abs(bound - ref) <= REFERENCE_RTOL * abs(ref),
            )
        gaps.append((exact[group] - bound) / exact[group])
    return sum(gaps) / len(gaps)


# ---------------------------------------------------------------------------
# affine_audit


def build_affine_audit(yc, seed, short=False):
    y = yc.beckner_Y_Rn(*TRIPLE, 1)
    if short:
        affine, plane = yc.make_affine_group(0.2, 1.0, 0.2, 2.0), yc.make_plane(0.5, 2.0)
        cfg = yc.EstimatorConfig(restarts=1, max_iters=5, tol=1e-8, seed=seed)
    else:
        affine, plane = yc.make_affine_group(0.05, 1.5, 0.05, 3.0), yc.make_plane(0.2, 4.0)
        cfg = yc.EstimatorConfig(restarts=1, max_iters=60, tol=1e-8, seed=seed)
    entries = [
        {
            "model": affine,
            "refs": [("subgroup-R", y), ("nielsen-exact", y * y)],
            "tolerance": 5e-3,
        },
        {
            "model": plane,
            "refs": [("subgroup-R", y)],
            "tolerance": 5e-3,
            "min_quality": 0.97 * y * y,
        },
    ]
    # Y(Aff+) = Y(R)^2 (simply connected solvable) and Y(R^2) = Y(R)^2
    exact = {affine.name: y * y, plane.name: y * y}
    ex = yc.young_p(*TRIPLE)

    def job():
        rows, _ = yc.monotonicity_audit(entries, ex, cfg)
        return rows, exact

    return job


def check_affine_audit(outputs, checks, reference):
    rows, exact = outputs
    for r in rows:
        checks.add(f"{r.group}: {r.reference} {r.reference_value:.6f}", r.passed)
    bounds = {r.group: float(r.lower_bound) for r in rows}
    return _check_bounds(bounds, exact, checks, reference)


# ---------------------------------------------------------------------------
# line_ladder


def build_line_ladder(yc, seed, short=False):
    y = yc.beckner_Y_Rn(*TRIPLE, 1)
    if short:
        grids = [(0.2, 4.0)]
        cfg = yc.EstimatorConfig(restarts=2, max_iters=20, seed=seed)
    else:
        grids = [(0.2, 4.0), (0.1, 6.0), (0.05, 8.0)]
        cfg = yc.EstimatorConfig(seed=seed)
    models = [yc.make_real_line(h, half) for h, half in grids]
    ex = yc.young_p(*TRIPLE)

    def job():
        return [yc.estimate(m, ex, cfg) for m in models], y

    return job


def check_line_ladder(outputs, checks, reference):
    reports, y = outputs
    for rep in reports:
        checks.add(
            f"{rep.group}: beckner-R {y:.6f} + {LINE_TOLERANCE:g}",
            rep.lower_bound <= y + LINE_TOLERANCE,
        )
    bounds = {rep.group: float(rep.lower_bound) for rep in reports}
    return _check_bounds(bounds, {g: y for g in bounds}, checks, reference)


# ---------------------------------------------------------------------------
# verify_battery


def build_verify_battery(yc, seed, short=False):
    # the battery draws its functions from its own fixed generators, so the
    # seed does not enter; "seeds" below are repetition counts
    import youngconv.verify as verify

    seeds, proof_seeds, chain_seeds = (1, 1, 2) if short else (5, 5, 100)

    def job():
        battery = verify.run_battery(
            seeds=seeds, proof_seeds=proof_seeds, with_estimates=False
        )
        table = verify.proof_chain_table(seeds=chain_seeds)
        control = verify.run_battery(
            seeds=seeds, proof_seeds=proof_seeds, corrupt="delta", with_estimates=False
        )
        return battery, table, control

    return job


def check_verify_battery(outputs, checks, reference):
    (items, _), (rows, _), (_, control_ok) = outputs
    for item in items:
        checks.add(f"battery {item.name}", math.isfinite(item.worst) and item.passed)
    for r in rows:
        checks.add(
            f"chain {r['pair']} ({r['p1']},{r['p2']}) {r['step']}",
            math.isfinite(r["worst_residual"]) and r["passed"],
        )
    checks.add("corrupted delta fails the battery", not control_ok)
    return None


WORKLOADS = {
    "affine_audit": (build_affine_audit, check_affine_audit),
    "line_ladder": (build_line_ladder, check_line_ladder),
    "verify_battery": (build_verify_battery, check_verify_battery),
}
