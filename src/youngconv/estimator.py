"""Lower bounds on the optimal constant by alternating maximization.

The inner problem max ||A phi1||_p over ||phi1||_p1 = 1 is advanced by the
first-order update phi1 <- normalize((A* w)^(1/(p1-1))) with w the dual
|psi|^(p-1) of the current convolution psi, and symmetrically for phi2.
Every proposed step passes a line search that accepts only ratio
non-decrease, so each restart's trace is nondecreasing and the final value
is a genuinely evaluated ratio, i.e. a certified lower bound (up to the
model's truncation diagnostics).  Restarts draw nonnegative random starts
from per-restart child seeds, so concurrent execution cannot change
results.  No claim is made that the global supremum is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import Exponent, YoungExponents
from .groups import AffineModel, GroupFunction, GroupModel, GroupModelError
from .convolution import (
    _convolve,
    _delta_exponent,
    _normalized_convolve,
    _weighted_norm,
    ascent_direction_phi1,
    ascent_direction_phi2,
    lp_norm,
)


@dataclass(frozen=True)
class EstimatorConfig:
    restarts: int = 16
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = 42

    def as_dict(self):
        return {
            "restarts": self.restarts,
            "max_iters": self.max_iters,
            "tol": self.tol,
            "seed": self.seed,
        }


@dataclass
class RestartResult:
    index: int
    ratio: float
    iterations: int
    converged: bool
    trace: list
    pair: tuple
    truncation_mass: float


@dataclass
class EstimateReport:
    """Estimator output: a certified lower bound with its diagnostics."""

    group: str
    exponents: tuple
    lower_bound: float
    best_pair: tuple
    best_restart: int
    iterations: int
    restarts: int
    converged: bool
    ratio_trace: list
    truncation_mass: float
    upper_bound_refs: list
    config: dict
    restart_results: list = field(default_factory=list, repr=False)

    def to_json_dict(self):
        return {
            "group": self.group,
            "exponents": {
                "p1": self.exponents[0],
                "p2": self.exponents[1],
                "p": self.exponents[2],
            },
            "lower_bound": self.lower_bound,
            "best_restart": self.best_restart,
            "iterations": self.iterations,
            "restarts": self.restarts,
            "converged": self.converged,
            "truncation_mass": self.truncation_mass,
            "upper_bound_refs": [
                {"source": s, "value": v} for s, v in self.upper_bound_refs
            ],
            "config": self.config,
            "ratio_trace": self.ratio_trace,
            "best_pair": {
                "phi1": np.asarray(self.best_pair[0]).ravel().tolist(),
                "phi2": np.asarray(self.best_pair[1]).ravel().tolist(),
            },
        }

    def restart_rows(self):
        """Flat per-restart rows for the CSV serialization."""
        rows = []
        for r in self.restart_results:
            rows.append(
                {
                    "restart": r.index,
                    "final_ratio": r.ratio,
                    "iterations": r.iterations,
                    "converged": int(r.converged),
                }
            )
        return rows


def _normalize(model, values, p: Exponent):
    norm = _weighted_norm(model.weight, values, float(p))
    # a NaN or inf entry makes the norm NaN or inf, for every p
    if not math.isfinite(norm):
        raise GroupModelError("function values must be finite")
    return (values / norm, norm) if norm > 0 else (values, 0.0)


def _loop_ratio(model, v1, v2, de, p: Exponent):
    """Ratio of normalized iterates via the in-loop convolution path, and the
    convolution it was read from."""
    psi = _convolve(model, v1, v2, de, enlarged=False)
    return psi.lp_norm(p), psi


def _run_restart(model, ex: YoungExponents, cfg, restart_index):
    rng = np.random.default_rng([cfg.seed, restart_index])
    de = float(_delta_exponent(ex))
    p1f, p2f, pf = float(ex.p1), float(ex.p2), float(ex.p)
    reinits = 0
    while True:
        v1, n1 = _normalize(model, model.random_start(rng), ex.p1)
        v2, n2 = _normalize(model, model.random_start(rng), ex.p2)
        ratio, psi = _loop_ratio(model, v1, v2, de, ex.p)
        if ratio > 0 or reinits >= 8:
            break
        reinits += 1
    trace = [ratio]
    converged = False
    iterations = 0
    # convergence is judged on the gain over a window of iterations, not a
    # single step: slow geometric crawls stop with O(tol) of value left on
    # the table either way, but the window keeps that slop near tol itself
    window = 64
    for iterations in range(1, cfg.max_iters + 1):
        # psi is always the convolution of the current pair (v1, v2)
        for side in (1, 2):
            if not psi.values.any():
                v1, _ = _normalize(model, model.random_start(rng), ex.p1)
                v2, _ = _normalize(model, model.random_start(rng), ex.p2)
                ratio, psi = _loop_ratio(model, v1, v2, de, ex.p)
                break
            w = psi.dual_power(pf - 1.0)
            if side == 1:
                grad = ascent_direction_phi1(model, v2, w, de)
                expo = 1.0 / (p1f - 1.0)
                current, pexp = v1, ex.p1
            else:
                grad = ascent_direction_phi2(model, v1, w, de)
                expo = 1.0 / (p2f - 1.0)
                current, pexp = v2, ex.p2
            grad = np.maximum(grad, 0.0)
            if not grad.any():
                continue
            peak = grad.max()
            proposal, norm = _normalize(model, (grad / peak) ** expo, pexp)
            if norm == 0.0:
                continue
            # backtracking toward the previous iterate
            for t in (1.0, 0.5, 0.25, 0.125):
                blend = (1.0 - t) * current + t * proposal
                cand, norm = _normalize(model, blend, pexp)
                if norm == 0.0:
                    continue
                cand_ratio, cand_psi = (
                    _loop_ratio(model, cand, v2, de, ex.p)
                    if side == 1
                    else _loop_ratio(model, v1, cand, de, ex.p)
                )
                if cand_ratio >= ratio:
                    if side == 1:
                        v1 = cand
                    else:
                        v2 = cand
                    ratio, psi = cand_ratio, cand_psi
                    break
        trace.append(ratio)
        anchor = trace[max(0, len(trace) - 1 - window)]
        if ratio > 0 and (ratio - anchor) <= cfg.tol * max(anchor, 1e-300):
            converged = True
            break
    certified = _normalized_convolve(GroupFunction(model, v1), GroupFunction(model, v2), ex)
    return RestartResult(
        restart_index, certified.lp_norm(ex.p), iterations, converged, trace, (v1, v2),
        certified.truncation_mass,
    )


def estimate(
    model: GroupModel,
    ex: YoungExponents,
    cfg: EstimatorConfig = None,
    upper_bound_refs=None,
) -> EstimateReport:
    """Alternating-ascent lower bound on the optimal constant of ``model``.

    Interior triples only; boundary triples have the exact value 1 and are
    rejected here (see boundary_value / boundary_witness).  The reported
    ``lower_bound`` is re-evaluated from the winning pair through the
    certified ratio path, never copied from the iteration trace.
    """
    if cfg is None:
        cfg = EstimatorConfig()
    if not ex.interior:
        raise ValueError(
            "boundary triples have exact value 1; the estimator handles "
            "interior triples only"
        )
    if model.size == 0:
        raise ValueError("empty carrier")
    if cfg.restarts < 1:
        raise ValueError(f"the estimator needs restarts >= 1, got {cfg.restarts}")
    results = [_run_restart(model, ex, cfg, k) for k in range(cfg.restarts)]
    best = max(results, key=lambda r: (r.ratio, -r.index))
    refs = [("classical", 1.0)]
    if upper_bound_refs:
        refs.extend(upper_bound_refs)
    return EstimateReport(
        group=model.name,
        exponents=(str(ex.p1), str(ex.p2), str(ex.p)),
        lower_bound=best.ratio,
        best_pair=best.pair,
        best_restart=best.index,
        iterations=best.iterations,
        restarts=cfg.restarts,
        converged=all(r.converged for r in results),
        ratio_trace=[r.trace for r in results],
        truncation_mass=best.truncation_mass,
        upper_bound_refs=refs,
        config=cfg.as_dict(),
        restart_results=results,
    )


# ---------------------------------------------------------------------------
# the Gaussian ansatz on the real line (independent of every grid)


def _gaussian_log_ratio(ex, log_s1, log_s2):
    p1f, p2f, pf = float(ex.p1), float(ex.p2), float(ex.p)
    s1, s2 = math.exp(log_s1), math.exp(log_s2)
    s3 = math.hypot(s1, s2)
    half_log_2pi = 0.5 * math.log(2.0 * math.pi)

    def log_norm(s, q):
        return (math.log(s) + half_log_2pi - 0.5 * math.log(q)) / q

    log_num = (
        half_log_2pi
        + math.log(s1)
        + math.log(s2)
        - math.log(s3)
        + log_norm(s3, pf)
    )
    return log_num - log_norm(s1, p1f) - log_norm(s2, p2f)


def gaussian_ansatz(ex: YoungExponents, width_bounds=(1e-3, 1e3)):
    """Best Young ratio over centered Gaussian pairs on R, in closed form.

    Uses exact Gaussian Lp norms and width addition under convolution (no
    grids anywhere), maximized by derivative-free Nelder-Mead over the two
    log widths.  For interior triples the maximum equals the closed-form
    constant of R, which makes this an independent cross-check of it.
    Returns (ratio, s1, s2).
    """
    if not ex.interior:
        raise ValueError("gaussian ansatz needs an interior triple")
    from scipy.optimize import minimize  # deferred: slow to import, used only here

    lo, hi = math.log(width_bounds[0]), math.log(width_bounds[1])

    def objective(ls):
        ls = np.clip(ls, lo, hi)
        return -_gaussian_log_ratio(ex, ls[0], ls[1])

    res = minimize(
        objective,
        x0=np.zeros(2),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000},
    )
    ratio = math.exp(-res.fun)
    s1, s2 = np.exp(np.clip(res.x, lo, hi))
    return ratio, float(s1), float(s2)


# ---------------------------------------------------------------------------
# boundary witnesses


def boundary_witness(model: GroupModel, ex: YoungExponents, phi=None):
    """The saturating pair for 1/p1 + 1/p2 = 1 built from a mass-1 bump phi:

        phi1 = phi^(1/p1),   phi2 = (phi(g^-1) / Delta(g))^(1/p2)

    (constant 1 where the exponent is infinite).  Returns (phi1, phi2,
    ratio) with the ratio evaluated at the identity; exactly 1 on finite
    groups, 1 - O(h^2) on continuum grids.  Rejects non-boundary triples
    and the other boundary cases (those have p = inf witnesses instead).
    """
    if not ex.p.is_inf:
        raise ValueError("witness construction needs 1/p1 + 1/p2 = 1")
    inv1, inv2 = float(ex.p1.inv), float(ex.p2.inv)
    vals = model.default_bump() if phi is None else np.asarray(phi, dtype=float)
    if isinstance(model, AffineModel) and phi is None:
        # inversion bends b off the grid; the default bump's phi(g^-1) is
        # exact in closed form, where cell lookup would be O(h) off
        inv_vals = model.default_bump(-np.exp(-model.u_centers[:, None]) * model.b_centers)
    else:
        inv_vals = model.invert(vals)
    mass = float(np.sum(model.weight * vals))
    vals, inv_vals = vals / mass, inv_vals / mass
    delta = model.delta
    phi1 = vals**inv1 if inv1 > 0 else np.ones_like(vals)
    phi2 = (inv_vals / delta) ** inv2 if inv2 > 0 else np.ones_like(vals)
    # psi(e) = int phi1(g) phi2(g^-1) Delta(g^-1)^(1/p1') dg with 1/p1' = 1/p2
    # and phi2(g^-1) = (phi(g) Delta(g))^(1/p2), which needs no inversion
    phi2_inv = (vals * delta) ** inv2 if inv2 > 0 else np.ones_like(vals)
    value_at_e = float(np.sum(model.weight * phi1 * phi2_inv * delta ** (-inv2)))
    f1 = GroupFunction(model, phi1)
    f2 = GroupFunction(model, phi2)
    ratio = value_at_e / (lp_norm(f1, ex.p1) * lp_norm(f2, ex.p2))
    return f1, f2, ratio


# ---------------------------------------------------------------------------
# subgroup monotonicity audit


@dataclass
class AuditRow:
    group: str
    lower_bound: float
    reference: str
    reference_value: float
    tolerance: float
    passed: bool


def monotonicity_audit(entries, ex: YoungExponents, cfg: EstimatorConfig = None):
    """Check estimated lower bounds against subgroup/exact upper references.

    ``entries`` is a list of dicts with keys ``model``, ``refs`` (list of
    (label, value) upper references), optional ``tolerance`` (default 5e-3)
    and optional ``min_quality`` (a floor the estimate should exceed, used
    where a sharp target is known).  Returns (rows, all_passed).
    """
    rows = []
    for entry in entries:
        model = entry["model"]
        tol = entry.get("tolerance", 5e-3)
        report = estimate(model, ex, cfg, upper_bound_refs=entry.get("refs"))
        for label, value in entry.get("refs", []):
            rows.append(
                AuditRow(
                    group=model.name,
                    lower_bound=report.lower_bound,
                    reference=label,
                    reference_value=value,
                    tolerance=tol,
                    passed=report.lower_bound <= value + tol,
                )
            )
        floor = entry.get("min_quality")
        if floor is not None:
            rows.append(
                AuditRow(
                    group=model.name,
                    lower_bound=report.lower_bound,
                    reference="quality_floor",
                    reference_value=floor,
                    tolerance=0.0,
                    passed=report.lower_bound >= floor,
                )
            )
    return rows, all(r.passed for r in rows)
