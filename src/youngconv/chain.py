"""Executable replay of the subgroup bound through coset functionals.

For a finite subgroup pair and an interior triple, the twisted convolution
on G decomposes through three coset functionals built from fibers over H:

    S(x)     = sum_h phi1(h g_x)^p1 * delta(g_x)
    T(x, x') = sum_h phi2(g_x^-1 h g_x')^p2 * delta(g_x')
    U(x, x') = sum_h phi2(g_x^-1 h g_x')^p2 Delta(g_x^-1 h g_x')
               * delta(g_x) / delta(h)

with g_x the coset representatives.  T and U, and the fiber factors t and
u of the pointwise decomposition, all read phi2 at the same elements
g_x^-1 h g_x', so one index array mids[x, h, x'] serves them all.
Everything here is an exact finite sum, so the integral identities hold
to float roundoff and every inequality of the chain (Young's inequality on
H applied fiberwise, two weighted Hoelder steps, one Minkowski step, and
the final contraction) can be asserted step by step.  The chain ends at

    ||phi1 * (phi2 Delta^(1/p1'))||_p <= Y(p1, p2; H),

the subgroup monotonicity of the optimal constant.

``build_coset_functionals``, ``identity_checks`` and ``chain_check`` take
value stacks as the convolution kernels do: phi1 and phi2 may carry
leading axes, each row an independent instance, and one GroupFunction is
an instance alone.  Every array then carries the stack's axes, each row
gets the bits it gets alone, and a CheckReport holds the worst residual
over the stack with each row's residual beside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convolution import (
    ConvolutionResult,
    _convolve,
    _delta_exponent,
    _mat_vec,
    _scalar_or_rows,
    _weighted_norm,
)
from .exponents import YoungExponents
from .quotient import FiniteSubgroupPair


class ChainError(ValueError):
    """Non-finite intermediates, a zero function or an unsupported pair."""


@dataclass
class ChainObjects:
    """Coset functionals of one (pair, exponents, phi1, phi2) instance, or
    of a stack of instances: every array then carries the stack's leading
    axes, and so do the float fields."""

    pair: FiniteSubgroupPair
    ex: YoungExponents
    phi1: np.ndarray  # (..., n), normalized to unit p1 norm
    phi2: np.ndarray  # (..., n), normalized to unit p2 norm
    S: np.ndarray  # (..., nx)
    T: np.ndarray  # (..., nx, nx)
    U: np.ndarray  # (..., nx, nx)
    F: np.ndarray  # (..., nx, nh, nx'): F(x, h', x'), the fibers of psi
    tu_norm: np.ndarray  # (..., nx, nx'): ||h -> t u||_{p2, H}
    psi: ConvolutionResult  # phi1 * (phi2 Delta^(1/p1')), computed directly
    rep_independence_residual: float


def _stu(pair, ex, v1, v2, reps):
    """S, T, U at the representatives ``reps``, plus the index array
    mids[x, h, x'] = g_x^-1 h g_x' and phi2(mids)^p2 they are built from."""
    g, h_idx, delta = pair.group, pair.h_indices, pair.delta
    mids = g.table[g.table[np.ix_(g.inv[reps], h_idx)][:, :, None], reps]
    # np.take keeps the gathers in C order, so a row of a stack is laid out
    # as the lone instance and the matrix products on it give the same bits
    powers = np.take(v2, mids, axis=-1) ** float(ex.p2)
    s_mat = (np.take(v1, g.table[h_idx, reps[:, None]], axis=-1) ** float(ex.p1)).sum(
        axis=-1
    ) * delta[reps]
    t_mat = powers.sum(axis=-2) * delta[reps]
    u_mat = (powers * g.delta[mids] / delta[h_idx][:, None]).sum(axis=-2)
    return s_mat, t_mat, u_mat * delta[reps][:, None], mids, powers


def _normalized(phi, label, group, p):
    """Values of a GroupFunction or of a stack (..., n) on ``group``,
    divided by their p norms; a zero or negative function is refused
    before any division."""
    v = np.asarray(getattr(phi, "values", phi), dtype=float)
    if v.ndim == 0 or v.shape[-1:] != group.shape:
        raise ChainError(f"{label} values of shape {v.shape} do not end in {group.shape}")
    if not np.all(np.isfinite(v)):
        raise ChainError(f"{label} has non-finite values")
    if np.any(v < 0):
        raise ChainError("nonnegative functions only")
    norm = np.asarray(_weighted_norm(group.weight, v, p))
    if np.any(norm == 0.0):
        where = "" if v.ndim == 1 else f" in row {np.argwhere(norm == 0.0)[0].tolist()}"
        raise ChainError(f"{label} is the zero function{where}")
    return v / norm[..., None]


def build_coset_functionals(
    pair: FiniteSubgroupPair, ex: YoungExponents, phi1, phi2
) -> ChainObjects:
    """Compute S, T, U, the fiber tensor F, the t u norms and the direct
    convolution (inputs normalized first), and check that a different
    choice of coset representatives reproduces S, T, U exactly.

    ``phi1`` and ``phi2`` are GroupFunctions or value stacks (..., n) of
    the same shape; a stack is a batch of independent instances, and each
    of its rows gets the values it would get alone.
    """
    if not isinstance(pair, FiniteSubgroupPair):
        raise ChainError("the chain harness runs on finite subgroup pairs only")
    if not ex.interior:
        raise ChainError("interior triples only")
    g, h_idx, delta, reps = pair.group, pair.h_indices, pair.delta, pair.reps
    p1f, p2f, pf = float(ex.p1), float(ex.p2), float(ex.p)
    v1 = _normalized(phi1, "phi1", g, p1f)
    v2 = _normalized(phi2, "phi2", g, p2f)
    if v1.shape != v2.shape:
        raise ChainError(f"phi1 and phi2 stacks differ: {v1.shape} and {v2.shape}")
    s_mat, t_mat, u_mat, mids, powers = _stu(pair, ex, v1, v2, reps)
    for arr in (s_mat, t_mat, u_mat):
        if not np.all(np.isfinite(arr)):
            raise ChainError("non-finite coset functional")
    s2, t2, u2, _, _ = _stu(pair, ex, v1, v2, _alternate_reps(pair))
    resid = np.maximum(
        np.maximum(_rel_gap(s_mat, s2, 1), _rel_gap(t_mat, t2, 2)), _rel_gap(u_mat, u2, 2)
    )

    inv_p1c = 1.0 - 1.0 / p1f  # 1/p1'
    # t(h^-1 g_x, g_x') u(g_x, h, g_x'), both read at g_x^-1 h g_x'
    tu = (powers * delta[reps]) ** (1.0 / pf) * (
        powers * g.delta[mids] * delta[reps][:, None, None] / delta[h_idx][:, None]
    ) ** inv_p1c
    tu_norm = (tu**p2f).sum(axis=-2) ** (1.0 / p2f)
    # F(x, h', x') = sum_h s(h g_x) (t u delta^(1/p1'))(x, h^-1 h', x'),
    # with k[h, h'] the position of h^-1 h' in H
    pos = np.empty(g.size, dtype=int)
    pos[h_idx] = np.arange(h_idx.size)
    k = pos[g.table[np.ix_(g.inv[h_idx], h_idx)]]
    s_fib = np.take(v1, g.table[h_idx, reps[:, None]], axis=-1) * delta[reps][:, None] ** (
        1.0 / p1f
    )
    w = tu * delta[h_idx][:, None] ** inv_p1c
    f = np.einsum("...xh,...xhpy->...xpy", s_fib, np.take(w, k, axis=-2))
    psi = _convolve(g, v1, v2, float(_delta_exponent(ex)))
    return ChainObjects(
        pair, ex, v1, v2, s_mat, t_mat, u_mat, f, tu_norm, psi, _scalar_or_rows(resid)
    )


def _alternate_reps(pair):
    alt = pair.reps.copy()
    for x in range(pair.reps.size):
        members = np.sort(pair.group.table[pair.h_indices, pair.reps[x]])
        if members.size > 1:
            alt[x] = members[1]
    return alt


def _tail_max(x, axes):
    """Max over the trailing ``axes`` axes, one value per instance."""
    return np.max(x, axis=tuple(range(-axes, 0)))


def _rel_gap(a, b, axes):
    scale = np.maximum(_tail_max(np.abs(a), axes), 1e-300)
    return _tail_max(np.abs(a - b), axes) / scale


def _fiber_total(m, f):
    """sum_x m_x F(x, h', x') over every instance of a stack."""
    return np.einsum("x,...xhy->...hy", m, f)


def _root(x, pf):
    """x^(1/p) in float arithmetic per instance, as the norms of
    ``convolution`` are finished (numpy's vectorized power can differ
    from it in the last bit)."""
    inv = 1.0 / pf
    return np.array([v**inv for v in np.ravel(x).tolist()]).reshape(np.shape(x))


@dataclass
class CheckReport:
    """One named check.  On a stack of instances ``residual`` is the worst
    over the stack and ``rows`` holds each instance's residual."""

    name: str
    residual: float
    tolerance: float
    rows: np.ndarray = None

    @property
    def passed(self):
        return self.residual <= self.tolerance

    def __str__(self):
        flag = "ok" if self.passed else "FAIL"
        return f"{self.name}: residual {self.residual:.3e} (tol {self.tolerance:.1e}) {flag}"


def _check(name, rows, tol):
    return CheckReport(name, float(np.max(rows)), tol, np.asarray(rows))


def identity_checks(po: ChainObjects, tol: float = 1e-10):
    """The exact integral identities of the coset functionals.

    * sum_x m_x S(x) = ||phi1||_p1^p1 (= 1)
    * sum_x' m_x' T(x, x') = ||phi2||_p2^p2 for every x
    * sum_x m_x U(x, x') = ||phi2||_p2^p2 for every x'
    * the pointwise decomposition of the twisted convolution through
      s, t, u at every (h', x').
    """
    m = po.pair.coset_measure
    return [
        _check("S-integral", np.abs(_mat_vec(m, po.S) - 1.0), tol),
        _check("T-integral", _tail_max(np.abs(po.T @ m - 1.0), 1), tol),
        _check("U-integral", _tail_max(np.abs(m @ po.U - 1.0), 1), tol),
        _check("convolution-decomposition", _decomposition_residual(po), tol),
    ]


def _decomposition_residual(po: ChainObjects):
    """Worst gap between psi(h' g_x') and (sum_x m F) / delta(g_x')^(1/p)."""
    pair = po.pair
    psi = po.psi.values
    lhs = np.take(psi, pair.group.table[np.ix_(pair.h_indices, pair.reps)], axis=-1)
    rhs = _fiber_total(pair.coset_measure, po.F) / pair.delta[pair.reps] ** (
        1.0 / float(po.ex.p)
    )
    scale = np.maximum(_tail_max(np.abs(psi), 1), 1e-300)
    return _tail_max(np.abs(lhs - rhs), 2) / scale


def generalized_holder(weights, factors, exponent_matrix, c_weights) -> float:
    """RHS - LHS of the weighted multi-factor Hoelder inequality

        (int prod_j f_j^(pbar_j))^c <= prod_i (int prod_j f_j^(P_ij))^(c_i),

    c = sum c_i and pbar_j = sum_i P_ij c_i / c, on a finite measure space
    given by ``weights``.  Nonnegative result means the inequality holds.
    """
    w = np.asarray(weights, dtype=float)
    fs = [np.asarray(f, dtype=float).ravel() for f in factors]
    P = np.asarray(exponent_matrix, dtype=float)
    c = np.asarray(c_weights, dtype=float)
    if P.shape != (c.size, len(fs)):
        raise ValueError(
            f"exponent matrix shape {P.shape} does not match "
            f"{c.size} weights x {len(fs)} factors"
        )
    if np.any(c <= 0):
        raise ValueError("c weights must be positive")
    csum = float(c.sum())
    pbar = (c @ P) / csum
    lhs_int = float(np.sum(w * np.prod([f**e for f, e in zip(fs, pbar)], axis=0)))
    lhs = lhs_int**csum
    rhs = 1.0
    for i in range(c.size):
        rhs *= float(
            np.sum(w * np.prod([f**e for f, e in zip(fs, P[i])], axis=0))
        ) ** float(c[i])
    return rhs - lhs


@dataclass
class ChainReport:
    """The chain's steps; on a stack, the three norms are arrays with one
    value per instance."""

    steps: list = field(default_factory=list)
    end_to_end_lhs: float = 0.0
    end_to_end_bound: float = 0.0
    direct_norm: float = 0.0

    @property
    def passed(self):
        return all(s.passed for s in self.steps)

    @property
    def first_failure(self):
        for s in self.steps:
            if not s.passed:
                return s.name
        return None


def chain_check(po: ChainObjects, y_h: float = 1.0, tol: float = 1e-10) -> ChainReport:
    """Assert every intermediate inequality of the subgroup bound in order.

    ``y_h`` must be an exact or certified value of the optimal constant of
    H (1 for finite H).  Residuals are violations max(0, LHS - RHS) in
    relative scale; identities enter as absolute deviations.
    """
    ex, m = po.ex, po.pair.coset_measure
    p1f, pf = float(ex.p1), float(ex.p)
    inv_p1c = 1.0 - 1.0 / p1f
    s_col = po.S[..., :, None]
    report = ChainReport()

    # per-x' Minkowski: sum_h' (sum_x m F)^p <= (sum_x m (sum_h' F^p)^(1/p))^p
    fx = _fiber_total(m, po.F)  # (..., nh, nx')
    lhs_mink = np.sum(fx**pf, axis=-2)  # per x'
    inner = np.sum(po.F**pf, axis=-2) ** (1.0 / pf)  # (..., nx, nx')
    rhs_mink = (m @ inner) ** pf
    report.steps.append(_check("minkowski", _violation(lhs_mink, rhs_mink, 1), tol))

    # Young on H, fiberwise: (sum_h' F^p)^(1/p) <= y_h S^(1/p1) ||t u||_{p2,H}
    rhs_young = y_h * s_col ** (1.0 / p1f) * po.tu_norm
    report.steps.append(_check("young-on-H", _violation(inner, rhs_young, 2), tol))

    # Hoelder step 1: ||t u||_{p2,H} <= T^(1/p) U^(1/p1')
    rhs_h1 = po.T ** (1.0 / pf) * po.U**inv_p1c
    report.steps.append(_check("holder-H", _violation(po.tu_norm, rhs_h1, 2), tol))

    # Hoelder step 2 on X, per x' (unit norms):
    # (sum_x m S^(1/p1) T^(1/p) U^(1/p1'))^p <= sum_x m S T
    lhs_h2 = (m @ (s_col ** (1.0 / p1f) * po.T ** (1.0 / pf) * po.U**inv_p1c)) ** pf
    rhs_h2 = m @ (s_col * po.T)
    report.steps.append(_check("holder-X", _violation(lhs_h2, rhs_h2, 1), tol))

    # final contraction: sum_x' m sum_x m S T = sum_x m S = 1
    total = _mat_vec(m, (s_col * po.T) @ m)
    report.steps.append(_check("contraction", np.abs(total - 1.0), tol))

    # end to end: ||psi||_p^p = sum_x' m delta(rep') sum_h' psi(h' rep')^p,
    # and psi(h' g')^p = (m @ F)^p / delta(g'), so the delta factors cancel
    lhs = _root(_mat_vec(m, lhs_mink), pf)
    direct = np.asarray(po.psi.lp_norm(ex.p))
    report.end_to_end_lhs = _scalar_or_rows(lhs)
    report.end_to_end_bound = y_h
    report.direct_norm = _scalar_or_rows(direct)
    report.steps.append(_check("end-to-end", np.maximum(0.0, lhs - y_h), tol))
    report.steps.append(
        _check(
            "decomposed-vs-direct",
            np.abs(lhs - direct) / np.maximum(direct, 1e-300),
            tol,
        )
    )
    return report


def _violation(lhs, rhs, axes):
    """Worst relative violation of lhs <= rhs over the trailing ``axes``
    axes (0 when the bound holds)."""
    scale = np.maximum(_tail_max(np.abs(rhs), axes), 1e-300)
    return np.maximum(0.0, _tail_max(lhs - rhs, axes) / scale)
