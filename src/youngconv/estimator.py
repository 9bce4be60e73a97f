"""Lower bounds on the optimal constant by alternating maximization.

The inner problem max ||A phi1||_p over ||phi1||_p1 = 1 is advanced by the
first-order update phi1 <- normalize((A* w)^(1/(p1-1))) with w the dual
|psi|^(p-1) of the current convolution psi, and symmetrically for phi2.
Every proposed step passes a line search that accepts only ratio
non-decrease, so each restart's trace is nondecreasing and the final value
is a genuinely evaluated ratio of concrete functions.  On finite groups
and the abelian grids that makes it a certified lower bound for the
group's constant (up to the model's truncation diagnostics); on the affine
grid, which is not yet a faithful model of the ax+b group, it is a grid
diagnostic and can exceed the group's constant.  No claim is made that the
global supremum is reached.

All restarts of one estimate advance in lockstep, in one process: their
iterates are stacked along a leading axis, row k holding restart k from
its first draw to its certificate.  Every half-step computes the adjoint,
the proposal and the normalization once for all restarts still running,
the line search re-evaluates only the rows that rejected the previous
step length, and a restart that converges keeps its row but stops
running.  Restart k draws its nonnegative random starts from its own
generator ``default_rng([seed, k])`` and takes the same steps it would
take alone, so its result does not depend on the other restarts.  The
last pair of each restart is certified on its own, through the unbatched
ratio path.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .exponents import Exponent, YoungExponents
from .groups import GroupFunction, GroupModel, GroupModelError
from .convolution import (
    _convolve,
    _delta_exponent,
    _divisor,
    _normalized_convolve,
    _weighted_norm,
    ascent_direction_phi1,
    ascent_direction_phi2,
    kept_kernel_spectra,
    lp_norm,
)


@dataclass(frozen=True)
class EstimatorConfig:
    restarts: int = 16
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = 42

    def as_dict(self):
        return asdict(self)


@dataclass
class RestartResult:
    index: int
    ratio: float
    iterations: int
    converged: bool
    trace: list
    pair: tuple
    truncation_mass: float
    # ratio evaluations of the line search (a diagnostic; not in the JSON)
    ls_tries: int


@dataclass
class EstimateReport:
    """Estimator output: the best evaluated ratio (a certified lower bound
    except on the affine grid) with its diagnostics."""

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
    """Values scaled to unit p-norm, with the norms; a function (or a row of
    a stack) of norm 0 comes back unscaled."""
    norm = _weighted_norm(model.weight, values, float(p))
    # a NaN or inf entry makes the norm NaN or inf, for every p
    if not np.all(np.isfinite(norm)):
        raise GroupModelError("function values must be finite")
    return values / _divisor(norm, model.weight.ndim), norm


def _loop_ratio(model, v1, v2, de, p: Exponent):
    """Ratio of normalized iterates via the in-loop convolution path, and the
    convolution it was read from."""
    psi = _convolve(model, v1, v2, de, enlarged=False)
    return psi.lp_norm(p), psi


def _random_pairs(model, ex: YoungExponents, rngs):
    """Normalized random starts (phi1, phi2) as stacks, one row per
    generator; each generator draws phi1 first."""
    starts = [(model.random_start(rng), model.random_start(rng)) for rng in rngs]
    v1, _ = _normalize(model, np.stack([a for a, _ in starts]), ex.p1)
    v2, _ = _normalize(model, np.stack([b for _, b in starts]), ex.p2)
    return v1, v2


class _Lockstep:
    """The iterates of every restart, as stacks.

    Row k of ``pair[0]`` (phi1), ``pair[1]`` (phi2), ``ratio``,
    ``psi.values`` and ``ls_tries`` is restart k from its first draw to its
    certificate.  ``psi.values`` is always the convolution of the current
    pair; the loop reads nothing else of ``psi``, so its truncation
    diagnostic is not kept current.  A restart that stops keeps its row and
    leaves the mask ``running``; the kernels see only the rows that run.  A
    row does exactly what a lone restart would: it draws from its own
    generator, skips where a lone restart skips and accepts the same steps,
    so restarts stay independent of each other and of how many run.

    It runs inside _ascend's kept_kernel_spectra block: on the affine grid
    the forward and A* keep the kernel spectra of the phi2 stack they last
    convolved with, so while phi2 holds still a phi1 half-step on the
    running rows neither gathers nor transforms a kernel.  The block keeps
    them in this thread's context, so threads may share the model.
    """

    def __init__(self, model, ex: YoungExponents, cfg):
        self.model, self.ex = model, ex
        self.de = float(_delta_exponent(ex))
        self.rngs = [np.random.default_rng([cfg.seed, k]) for k in range(cfg.restarts)]
        self.running = np.ones(cfg.restarts, dtype=bool)
        self.ls_tries = np.zeros(cfg.restarts, dtype=int)
        self.pair = list(_random_pairs(model, ex, self.rngs))
        self.ratio, self.psi = _loop_ratio(model, *self.pair, self.de, ex.p)
        # a start whose convolution has zero norm is drawn again, 8 times at most
        for _ in range(8):
            rows = np.flatnonzero(~(self.ratio > 0))
            if rows.size == 0:
                break
            self.redraw(rows)

    def redraw(self, rows):
        """Fresh random pairs for the given rows, and their ratios."""
        v1, v2 = _random_pairs(self.model, self.ex, [self.rngs[k] for k in rows])
        self.pair[0][rows], self.pair[1][rows] = v1, v2
        self.ratio[rows], psi = _loop_ratio(self.model, v1, v2, self.de, self.ex.p)
        self.psi.values[rows] = psi.values

    def propose(self, side, rows):
        """The normalized proposals for phi1 (side 0) or phi2 (side 1) on
        the given rows: those that have one, with their rows."""
        model, ex = self.model, self.ex
        pexp = ex.p1 if side == 0 else ex.p2
        w = self.psi.dual_power(float(ex.p) - 1.0)
        w.values = w.values[rows]
        direction = ascent_direction_phi1 if side == 0 else ascent_direction_phi2
        grad = np.maximum(direction(model, self.pair[1 - side][rows], w, self.de), 0.0)
        flat = grad.reshape(rows.size, -1)
        some = flat.any(axis=1)
        peak = np.where(some, flat.max(axis=1), 1.0)
        lift = np.reshape(peak, (-1,) + (1,) * len(model.shape))
        proposal, norm = _normalize(model, (grad / lift) ** (1.0 / (float(pexp) - 1.0)), pexp)
        has = some & (norm != 0.0)
        return proposal[has], rows[has]

    def half_step(self, side, rows):
        """One proposal for phi1 (side 0) or phi2 (side 1) on the given
        rows, then a backtracking line search on them."""
        model, ex, de = self.model, self.ex, self.de
        current, other = self.pair[side], self.pair[1 - side]
        pexp = ex.p1 if side == 0 else ex.p2
        # the dual and the gradient are freed before the line search
        proposal, pending = self.propose(side, rows)
        # backtracking toward the previous iterate; each try evaluates only
        # the rows that rejected every earlier t
        for t in (1.0, 0.5, 0.25, 0.125):
            if pending.size == 0:
                break
            blend = (1.0 - t) * current[pending] + t * proposal
            cand, norm = _normalize(model, blend, pexp)
            tried = norm != 0.0
            rows, cand = pending[tried], cand[tried]
            if rows.size == 0:
                continue
            self.ls_tries[rows] += 1
            args = (cand, other[rows]) if side == 0 else (other[rows], cand)
            cand_ratio, cand_psi = _loop_ratio(model, *args, de, ex.p)
            ok = cand_ratio >= self.ratio[rows]
            accepted = rows[ok]
            current[accepted] = cand[ok]
            self.ratio[accepted] = cand_ratio[ok]
            self.psi.values[accepted] = cand_psi.values[ok]
            keep = ~tried
            keep[tried] = ~ok
            pending, proposal = pending[keep], proposal[keep]

    def iterate(self):
        """One iteration of every running row: phi1 then phi2.  A row whose
        convolution vanished is drawn again and skips the rest of it."""
        idle = ~self.running
        for side in (0, 1):
            vanished = ~idle & ~self.psi.values.reshape(idle.size, -1).any(axis=1)
            if vanished.any():
                self.redraw(np.flatnonzero(vanished))
                idle |= vanished
            rows = np.flatnonzero(~idle)
            if rows.size:
                self.half_step(side, rows)


def _ascend(model, ex: YoungExponents, cfg):
    """Every restart of one estimate: the ascent of all of them in lockstep,
    then each one certified from its own row; one RestartResult per
    restart, in restart order.  The affine kernel spectra are kept for the
    loop alone, so they are gone before certification."""
    with kept_kernel_spectra(model):
        stack = _Lockstep(model, ex, cfg)
        traces = [[r] for r in stack.ratio.tolist()]
        stopped = [cfg.max_iters] * cfg.restarts  # a restart still running stops at the cap
        # convergence is judged on the gain over a window of iterations, not a
        # single step: slow geometric crawls stop with O(tol) of value left on
        # the table either way, but the window keeps that slop near tol itself
        window = 64
        for iterations in range(1, cfg.max_iters + 1):
            stack.iterate()
            ratios = stack.ratio.tolist()
            for k in np.flatnonzero(stack.running).tolist():
                trace = traces[k]
                trace.append(ratios[k])
                anchor = trace[max(0, len(trace) - 1 - window)]
                if ratios[k] > 0 and (ratios[k] - anchor) <= cfg.tol * max(anchor, 1e-300):
                    stack.running[k] = False
                    stopped[k] = iterations
            if not stack.running.any():
                break
    return [_run_restart(stack, k, stopped[k], traces[k]) for k in range(cfg.restarts)]


def _run_restart(stack: _Lockstep, k, iterations, trace) -> RestartResult:
    """Restart k's result: the pair in its row of the stack, certified on
    its own through the unbatched ratio path once the ascent is over."""
    pair = (stack.pair[0][k].copy(), stack.pair[1][k].copy())
    model, ex = stack.model, stack.ex
    certified = _normalized_convolve(GroupFunction(model, pair[0]), GroupFunction(model, pair[1]), ex)
    return RestartResult(
        k, certified.lp_norm(ex.p), iterations, not stack.running[k],
        trace, pair, certified.truncation_mass, int(stack.ls_tries[k]),
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
    results = _ascend(model, ex, cfg)
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


def gaussian_ansatz(ex: YoungExponents):
    """Best Young ratio over centered Gaussian pairs on R, in closed form.

    Uses exact Gaussian Lp norms and width addition under convolution (no
    grids anywhere), maximized by derivative-free Nelder-Mead over the two
    log widths, each width held to [1e-3, 1e3].  For interior triples the
    maximum equals the closed-form constant of R, which makes this an
    independent cross-check of it.
    Returns (ratio, s1, s2).
    """
    if not ex.interior:
        raise ValueError("gaussian ansatz needs an interior triple")
    from scipy.optimize import minimize  # deferred: slow to import, used only here

    lo, hi = math.log(1e-3), math.log(1e3)

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


def boundary_witness(model: GroupModel, ex: YoungExponents):
    """The saturating pair for 1/p1 + 1/p2 = 1 built from the model's
    default bump phi, scaled to mass 1:

        phi1 = phi^(1/p1),   phi2 = (phi(g^-1) / Delta(g))^(1/p2)

    (constant 1 where the exponent is infinite).  Returns (phi1, phi2,
    ratio) with the ratio evaluated at the identity; exactly 1 on finite
    groups, 1 - O(h^2) on continuum grids.  Rejects non-boundary triples
    and the other boundary cases (those have p = inf witnesses instead).
    """
    if not ex.p.is_inf:
        raise ValueError("witness construction needs 1/p1 + 1/p2 = 1")
    inv1, inv2 = float(ex.p1.inv), float(ex.p2.inv)
    vals = model.default_bump()
    inv_vals = model.inverted_default_bump()
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
