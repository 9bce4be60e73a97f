import json
import math
from pathlib import Path

import numpy as np
import pytest

from youngconv import estimator
from youngconv.cli import _build_model
from youngconv.constants import beckner_Y_Rn
from youngconv.convolution import (
    _delta_exponent,
    ascent_direction_phi1,
    ascent_direction_phi2,
    young_ratio,
)
from youngconv.estimator import (
    EstimatorConfig,
    boundary_witness,
    estimate,
    gaussian_ansatz,
    monotonicity_audit,
)
from youngconv.exponents import Exponent, young_p
from youngconv.groups import (
    GroupFunction,
    GroupModelError,
    affine_prime_field,
    cyclic_group,
    make_affine_group,
    make_real_line,
)

QUICK = EstimatorConfig(restarts=4, max_iters=200, tol=1e-9, seed=42)


@pytest.mark.parametrize("p1,p2", [("4/3", "4/3"), ("3/2", "3/2"), ("5/4", "10/7")])
def test_gaussian_ansatz_matches_closed_form(p1, p2):
    ex = young_p(p1, p2)
    ratio, s1, s2 = gaussian_ansatz(ex)
    np.testing.assert_allclose(ratio, beckner_Y_Rn(p1, p2, 1), atol=1e-6, rtol=0)
    assert s1 > 0 and s2 > 0


def test_gaussian_ansatz_symmetric_widths():
    ratio, s1, s2 = gaussian_ansatz(young_p("4/3", "4/3"))
    np.testing.assert_allclose(s1, s2, rtol=1e-4)


def test_gaussian_ratio_dilation_invariant():
    from youngconv.estimator import _gaussian_log_ratio
    import math

    ex = young_p("4/3", "3/2")
    base = _gaussian_log_ratio(ex, math.log(0.7), math.log(1.3))
    scaled = _gaussian_log_ratio(ex, math.log(0.7 * 5.1), math.log(1.3 * 5.1))
    np.testing.assert_allclose(scaled, base, atol=1e-10)


def test_gaussian_ansatz_rejects_boundary():
    with pytest.raises(ValueError):
        gaussian_ansatz(young_p(2, 2))


def test_estimate_rejects_boundary():
    with pytest.raises(ValueError):
        estimate(cyclic_group(4), young_p(1, 2), QUICK)


def test_compact_saturation_quick():
    ex = young_p("4/3", "4/3")
    rep = estimate(cyclic_group(8), ex, QUICK)
    np.testing.assert_allclose(rep.lower_bound, 1.0, atol=1e-6)


def test_traces_nondecreasing_and_certified():
    ex = young_p("4/3", "4/3")
    model = make_real_line(0.25, 2.0)
    rep = estimate(model, ex, QUICK)
    for trace in rep.ratio_trace:
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs >= 0.0)
    # the reported bound is re-evaluated from the winning pair
    f1 = GroupFunction(model, rep.best_pair[0])
    f2 = GroupFunction(model, rep.best_pair[1])
    np.testing.assert_allclose(
        young_ratio(f1, f2, ex), rep.lower_bound, rtol=1e-10
    )
    assert rep.lower_bound <= 1.0 + 1e-9


def test_estimate_deterministic():
    ex = young_p("4/3", "4/3")
    model = make_real_line(0.25, 2.0)
    a = estimate(model, ex, QUICK)
    b = estimate(model, ex, QUICK)
    assert a.lower_bound == b.lower_bound
    assert a.ratio_trace == b.ratio_trace
    np.testing.assert_array_equal(a.best_pair[0], b.best_pair[0])
    np.testing.assert_array_equal(a.best_pair[1], b.best_pair[1])


def test_upper_bound_refs_in_report():
    ex = young_p("4/3", "4/3")
    y = beckner_Y_Rn("4/3", "4/3", 1)
    rep = estimate(
        make_real_line(0.2, 2.0), ex, QUICK, upper_bound_refs=[("beckner-R", y)]
    )
    assert ("classical", 1.0) in rep.upper_bound_refs
    assert rep.lower_bound <= min(v for _, v in rep.upper_bound_refs) + 5e-3


def test_affine_estimate_stays_below_nielsen():
    ex = young_p("4/3", "4/3")
    y2 = beckner_Y_Rn("4/3", "4/3", 1) ** 2
    rep = estimate(
        make_affine_group(0.1, 1.0, 0.1, 2.0),
        ex,
        EstimatorConfig(restarts=2, max_iters=25, tol=1e-7, seed=42),
    )
    assert rep.lower_bound <= y2 + 5e-3
    assert rep.lower_bound > 0.5  # the ascent actually moved


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_affine_one_row_gaussians_stay_below_nielsen():
    # Y(Aff+) = Y(R)^2, but the grid sums its u rows as lattice points: two
    # Gaussians on the row u = 0 alone, at half the optimal widths on R,
    # give 0.877120 on criterion 6's grid
    ex = young_p("4/3", "4/3")
    _, s1, s2 = gaussian_ansatz(ex)
    model = make_affine_group(0.05, 1.5, 0.05, 3.0)
    row = model.u_centers == 0.0

    def on_row(width):
        values = np.zeros(model.shape)
        values[row] = np.exp(-model.b_centers**2 / (2 * width * width))
        return GroupFunction(model, values)

    ratio = young_ratio(on_row(0.5 * s1), on_row(0.5 * s2), ex)
    assert ratio <= beckner_Y_Rn("4/3", "4/3", 1) ** 2


def test_boundary_witness_finite_exact():
    for t in [(2, 2), ("4/3", 4), (4, "4/3")]:
        ex = young_p(*t)
        for model in [cyclic_group(6), affine_prime_field(5)]:
            f1, f2, ratio = boundary_witness(model, ex)
            np.testing.assert_allclose(ratio, 1.0, atol=1e-12)


def test_boundary_witness_rejects_interior():
    with pytest.raises(ValueError):
        boundary_witness(cyclic_group(6), young_p("4/3", "4/3"))
    # p1 = 1 with p < inf is boundary but not the witnessed case
    with pytest.raises(ValueError):
        boundary_witness(cyclic_group(6), young_p(1, "3/2"))


def test_boundary_witness_line_and_affine():
    ex = young_p(2, 2)
    line = make_real_line(0.05, 4.0)
    _, _, ratio = boundary_witness(line, ex)
    assert abs(ratio - 1.0) <= 1e-3
    aff = make_affine_group(0.02, 0.6, 0.02, 3.0)
    _, _, ratio = boundary_witness(aff, ex)
    assert ratio >= 1.0 - 1e-3


def test_matched_gaussian_steps_hit_the_band():
    # sampling the optimal Gaussian pair as steps on h=0.05, L=8 already
    # lands within the certification band of the real-line constant
    ex = young_p("4/3", "4/3")
    ratio, s1, s2 = gaussian_ansatz(ex)
    line = make_real_line(0.05, 8.0)
    f1 = GroupFunction(line, np.exp(-line.centers**2 / (2 * s1 * s1)))
    f2 = GroupFunction(line, np.exp(-line.centers**2 / (2 * s2 * s2)))
    value = young_ratio(f1, f2, ex)
    assert 0.86 <= value <= 0.87742 + 1e-3
    assert value <= beckner_Y_Rn("4/3", "4/3", 1)  # certified lower bound


def test_monotonicity_audit_rows():
    ex = young_p("4/3", "4/3")
    rows, ok = monotonicity_audit(
        [{"model": cyclic_group(8), "refs": [("trivial-subgroup", 1.0)]}],
        ex,
        QUICK,
    )
    assert ok and rows[0].passed
    assert rows[0].reference == "trivial-subgroup"


def test_nonconvergence_is_flagged_not_fatal():
    ex = young_p("4/3", "4/3")
    rep = estimate(
        make_real_line(0.2, 2.0),
        ex,
        EstimatorConfig(restarts=2, max_iters=3, tol=1e-15, seed=1),
    )
    assert not rep.converged
    assert rep.lower_bound > 0


def test_ascent_convolves_once_per_ratio_evaluation(monkeypatch):
    # the accepted convolution is carried into the next half-step, so the
    # loop convolves once for the start and once per line-search try;
    # certification goes through convolution._convolve and is not counted
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(estimator, "_convolve", counted("convolve", estimator._convolve))
    monkeypatch.setattr(estimator, "_loop_ratio", counted("ratio", estimator._loop_ratio))
    ex = young_p("4/3", "3/2")
    cfg = EstimatorConfig(restarts=1, max_iters=10, seed=42)
    for model in (make_affine_group(0.25, 1.0, 0.25, 2.0), make_real_line(0.25, 4.0)):
        counts.update(convolve=0, ratio=0)
        estimate(model, ex, cfg)
        ls_tries = counts["ratio"] - 1
        assert ls_tries > 0
        assert counts["convolve"] == 1 + ls_tries


def test_estimate_rejects_fewer_than_one_restart():
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restarts >= 1"):
            estimate(cyclic_group(6), young_p("4/3", "3/2"), EstimatorConfig(restarts=restarts))


@pytest.mark.parametrize("p", ["4/3", "inf"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normalize_rejects_non_finite_values(p, bad):
    model = make_real_line(0.25, 2.0)
    values = np.linspace(0.1, 1.0, model.size)
    values[3] = bad
    with pytest.raises(GroupModelError, match="finite"):
        estimator._normalize(model, values, Exponent(p))


def _serial_restart(model, ex, cfg, restart_index, one_row=False):
    """One restart alone, as the estimator ran restarts before they moved
    in lockstep: the reference for the stacked loop.  With ``one_row`` the
    iterates are one-row stacks, so every kernel runs the stacked code.
    Returns the trace, iterations, convergence flag, line-search tries and
    rejections."""
    rng = np.random.default_rng([cfg.seed, restart_index])
    de = float(_delta_exponent(ex))
    p1f, p2f, pf = float(ex.p1), float(ex.p2), float(ex.p)
    normalize = estimator._normalize

    def start():
        return model.random_start(rng)[None] if one_row else model.random_start(rng)

    def loop_ratio(model, v1, v2, de, p):
        ratio, psi = estimator._loop_ratio(model, v1, v2, de, p)
        return float(np.squeeze(ratio)), psi

    reinits = 0
    while True:
        v1, n1 = normalize(model, start(), ex.p1)
        v2, n2 = normalize(model, start(), ex.p2)
        ratio, psi = loop_ratio(model, v1, v2, de, ex.p)
        if ratio > 0 or reinits >= 8:
            break
        reinits += 1
    trace = [ratio]
    converged = False
    iterations = ls_tries = rejections = 0
    window = 64
    for iterations in range(1, cfg.max_iters + 1):
        for side in (1, 2):
            if not psi.values.any():
                v1, _ = normalize(model, start(), ex.p1)
                v2, _ = normalize(model, start(), ex.p2)
                ratio, psi = loop_ratio(model, v1, v2, de, ex.p)
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
            proposal, norm = normalize(model, (grad / peak) ** expo, pexp)
            if norm == 0.0:
                continue
            for t in (1.0, 0.5, 0.25, 0.125):
                blend = (1.0 - t) * current + t * proposal
                cand, norm = normalize(model, blend, pexp)
                if norm == 0.0:
                    continue
                ls_tries += 1
                cand_ratio, cand_psi = (
                    loop_ratio(model, cand, v2, de, ex.p)
                    if side == 1
                    else loop_ratio(model, v1, cand, de, ex.p)
                )
                if cand_ratio >= ratio:
                    if side == 1:
                        v1 = cand
                    else:
                        v2 = cand
                    ratio, psi = cand_ratio, cand_psi
                    break
                rejections += 1
        trace.append(ratio)
        anchor = trace[max(0, len(trace) - 1 - window)]
        if ratio > 0 and (ratio - anchor) <= cfg.tol * max(anchor, 1e-300):
            converged = True
            break
    return trace, iterations, converged, ls_tries, rejections


ORACLE_SELECTORS = [
    "Zmod:8", "AffF:5", "Torus:16", "Zwindow:10", "Rline:h=0.25,L=4",
    "Plane:h=0.5,L=2", "Affine:hu=0.25,U=1,hb=0.25,B=2",
]


@pytest.mark.parametrize(
    "p1, p2, selectors",
    [
        ("4/3", "3/2", ORACLE_SELECTORS),
        # p1 > 2: the proposal takes a root 1/(p1 - 1) < 1 of the gradient,
        # which magnifies any rounding difference of the adjoint
        ("3", "5/4", ["Torus:16", "Zwindow:10", "Rline:h=0.25,L=4"]),
    ],
)
def test_lockstep_restarts_match_serial_oracle(p1, p2, selectors):
    # every row of the stacked loop takes the steps its restart takes alone,
    # saturated restarts (ratio 1 to the last bit) included
    ex = young_p(p1, p2)
    cfg = EstimatorConfig(restarts=4, max_iters=120, tol=1e-9, seed=42)
    early = rejected = False
    for selector in selectors:
        model = _build_model(selector)
        report = estimate(model, ex, cfg)
        for r in report.restart_results:
            for one_row in (True, False):
                trace, iterations, converged, ls_tries, rejections = _serial_restart(
                    model, ex, cfg, r.index, one_row
                )
                where = f"{selector} restart {r.index} one_row={one_row}"
                assert (r.iterations, r.converged, len(r.trace), r.ls_tries) == (
                    iterations, converged, len(trace), ls_tries
                ), where
                np.testing.assert_allclose(r.trace, trace, rtol=1e-12, atol=0, err_msg=where)
                early |= converged and iterations < cfg.max_iters
                rejected |= rejections > 0
    assert early and rejected


def test_estimates_match_golden_file():
    # the ROADMAP rule for a speedup: every bound equal within 1e-12
    # relative at a fixed seed, and the same number of iterations
    golden = json.loads(
        (Path(__file__).parent / "data" / "estimate_golden.json").read_text()
    )
    ex = young_p(golden["p1"], golden["p2"])
    cfg = EstimatorConfig(**golden["config"])
    for selector, want in golden["estimates"].items():
        rep = estimate(_build_model(selector), ex, cfg)
        assert rep.lower_bound == pytest.approx(want["lower_bound"], rel=1e-12), selector
        assert rep.iterations == want["iterations"], selector
        assert rep.truncation_mass == pytest.approx(
            want["truncation_mass"], rel=1e-12, abs=1e-15
        ), selector
