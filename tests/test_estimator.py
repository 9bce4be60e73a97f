import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from youngconv import convolution, estimator
from youngconv.cli import _build_model
from youngconv.constants import beckner_Y_Rn
from youngconv.convolution import (
    _delta_exponent,
    _weighted_norm,
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
    AffineModel,
    GroupFunction,
    GroupModelError,
    affine_prime_field,
    cyclic_group,
    make_affine_group,
    make_integer_line,
    make_plane,
    make_real_line,
    make_torus,
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


@pytest.mark.parametrize(
    "model",
    [make_plane(0.2, 4.0), make_plane(0.1, 4.0), make_torus(64), make_integer_line(10)],
    ids=lambda m: m.name,
)
def test_boundary_witness_plane_torus_and_integer_line(model):
    # inversion permutes cells of equal mass on these grids, so the modular
    # identity, and with it the witness ratio 1, holds up to rounding
    _, _, ratio = boundary_witness(model, young_p(2, 2))
    assert abs(ratio - 1.0) <= 1e-12


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


def test_phi1_half_steps_transform_no_kernel(monkeypatch):
    # on the affine grid the kernel spectra of phi2 are carried from the
    # phi2 half-step, where the accepted candidate's forward wrote them, to
    # A* and the line search of the next phi1 half-step
    side = [None]
    counts = {0: 0, 1: 0, None: 0}
    half_step = estimator._Lockstep.half_step
    kernel_spectra = convolution._kernel_spectra

    def traced_half_step(self, s, live):
        side[0] = s
        try:
            half_step(self, s, live)
        finally:
            side[0] = None

    def counted(*args):
        counts[side[0]] += 1
        return kernel_spectra(*args)

    monkeypatch.setattr(estimator._Lockstep, "half_step", traced_half_step)
    monkeypatch.setattr(convolution, "_kernel_spectra", counted)
    model = _build_model("Affine:hu=0.05,U=1.5,hb=0.05,B=3")
    cfg = EstimatorConfig(restarts=1, max_iters=60, tol=1e-8, seed=42)
    report = estimate(model, young_p("4/3", "4/3"), cfg)
    assert counts[0] == 0
    assert counts[1] > 0 and counts[None] > 0  # phi2 candidates, start, certification
    # the spectra end with the ascent: nothing complex is left behind
    assert not _complex_arrays(vars(model))
    assert not _complex_arrays(vars(report))


def _complex_arrays(obj):
    """The complex arrays reachable through dicts, sequences and dataclasses."""
    if isinstance(obj, np.ndarray):
        return [obj] if np.iscomplexobj(obj) else []
    if isinstance(obj, dict):
        return [a for v in obj.values() for a in _complex_arrays(v)]
    if isinstance(obj, (list, tuple)):
        return [a for v in obj for a in _complex_arrays(v)]
    if hasattr(obj, "__dataclass_fields__"):
        return _complex_arrays(vars(obj))
    return []


def test_estimate_rejects_fewer_than_one_restart():
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restarts >= 1"):
            estimate(cyclic_group(6), young_p("4/3", "3/2"), EstimatorConfig(restarts=restarts))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", ["4/3", "inf"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normalize_rejects_non_finite_values(p, bad):
    model = make_real_line(0.25, 2.0)
    values = np.linspace(0.1, 1.0, model.size)
    values[3] = bad
    with pytest.raises(GroupModelError, match="finite"):
        estimator._normalize(model, values, Exponent(p))
    # in a stack the bad row's norm is not finite, and the other rows keep
    # the norms they have alone
    stack = np.stack([np.linspace(0.2, 3.0, model.size), values, np.zeros(model.size)])
    norms = _weighted_norm(model.weight, stack, float(Exponent(p)))
    assert not math.isfinite(norms[1])
    for row in (0, 2):
        assert norms[row] == _weighted_norm(model.weight, stack[row], float(Exponent(p)))


def _serial_restart(model, ex, cfg, restart_index, one_row=False):
    """One restart alone, as the estimator ran restarts before they moved
    in lockstep: the reference for the stacked loop.  With ``one_row`` the
    iterates are one-row stacks, so every kernel runs the stacked code.
    Returns the trace, iterations, convergence flag, line-search tries,
    rejections and the last (phi1, phi2)."""
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
    return trace, iterations, converged, ls_tries, rejections, (v1, v2)


ORACLE_SELECTORS = [
    "Zmod:8", "AffF:5", "Torus:16", "Zwindow:10", "Rline:h=0.25,L=4",
    "Plane:h=0.5,L=2", "Affine:hu=0.25,U=1,hb=0.25,B=2",
]


LOCKSTEP_CFG = EstimatorConfig(restarts=4, max_iters=120, tol=1e-9, seed=42)


@pytest.mark.parametrize(
    "p1, p2, cfg, selectors",
    [
        pytest.param("4/3", "3/2", LOCKSTEP_CFG, dict.fromkeys(ORACLE_SELECTORS),
                     id="4/3-3/2-selectors0"),
        # p1 > 2: the proposal takes a root 1/(p1 - 1) < 1 of the gradient,
        # which magnifies any rounding difference of the adjoint
        pytest.param("3", "5/4", LOCKSTEP_CFG,
                     dict.fromkeys(["Torus:16", "Zwindow:10", "Rline:h=0.25,L=4"]),
                     id="3-5/4-selectors1"),
        # restarts stop at different iterations (pinned here), so stopped
        # rows sit in the stack among running ones; on the affine grid two
        # run to the cap inside the kept spectra
        pytest.param("4/3", "3/2", EstimatorConfig(restarts=4, max_iters=300, tol=1e-6, seed=42),
                     {"Plane:h=0.5,L=2": [180, 220, 203, 186],
                      "Affine:hu=0.25,U=1,hb=0.25,B=2": [249, 214, 300, 300]},
                     id="4/3-3/2-staggered"),
    ],
)
def test_lockstep_restarts_match_serial_oracle(p1, p2, cfg, selectors):
    # every row of the stacked loop takes the steps its restart takes alone,
    # saturated restarts (ratio 1 to the last bit) included, and ends on the
    # same pair to the last bit
    ex = young_p(p1, p2)
    early = rejected = False
    for selector, stops in selectors.items():
        model = _build_model(selector)
        report = estimate(model, ex, cfg)
        if stops is not None:
            assert [r.iterations for r in report.restart_results] == stops, selector
        for r in report.restart_results:
            for one_row in (True, False):
                trace, iterations, converged, ls_tries, rejections, pair = _serial_restart(
                    model, ex, cfg, r.index, one_row
                )
                where = f"{selector} restart {r.index} one_row={one_row}"
                assert (r.iterations, r.converged, len(r.trace), r.ls_tries) == (
                    iterations, converged, len(trace), ls_tries
                ), where
                np.testing.assert_allclose(r.trace, trace, rtol=1e-12, atol=0, err_msg=where)
                for got, want in zip(r.pair, pair):
                    np.testing.assert_array_equal(got, want.reshape(got.shape), err_msg=where)
                early |= converged and iterations < cfg.max_iters
                rejected |= rejections > 0
    assert early and rejected


@pytest.mark.parametrize("selector", ["Affine:hu=0.25,U=1,hb=0.25,B=2", "Rline:h=0.25,L=4"])
def test_zero_start_is_drawn_again(selector, monkeypatch):
    # restart 1's first pair is all zero, so its convolution vanishes and
    # that row alone is drawn again; on the affine grid that forward runs
    # on part of the stack, inside the kept kernel spectra.  Every restart
    # still takes the steps the serial reference takes
    model = _build_model(selector)
    ex = young_p("4/3", "3/2")
    cfg = EstimatorConfig(restarts=3, max_iters=40, tol=1e-9, seed=42)
    draw = model.random_start
    probe = np.random.default_rng([cfg.seed, 1])
    first_pair = [probe.bit_generator.state]
    draw(probe)
    first_pair.append(probe.bit_generator.state)

    def zero_first_pair(rng):
        zero = rng.bit_generator.state in first_pair
        values = draw(rng)  # drawn either way, so the generator moves on
        return np.zeros_like(values) if zero else values

    redrawn = []
    redraw = estimator._Lockstep.redraw

    def traced_redraw(self, rows):
        redrawn.append(rows.tolist())
        redraw(self, rows)

    monkeypatch.setattr(model, "random_start", zero_first_pair)
    monkeypatch.setattr(estimator._Lockstep, "redraw", traced_redraw)
    report = estimate(model, ex, cfg)
    assert redrawn == [[1]]
    bounds = []
    for r in report.restart_results:
        trace, iterations, converged, ls_tries, _, pair = _serial_restart(model, ex, cfg, r.index)
        assert (r.iterations, r.converged, r.ls_tries) == (iterations, converged, ls_tries)
        np.testing.assert_allclose(r.trace, trace, rtol=1e-12, atol=0)
        bounds.append(young_ratio(GroupFunction(model, pair[0]), GroupFunction(model, pair[1]), ex))
    assert report.lower_bound == max(bounds)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "p1, p2", [("1001/1000", "1001/1000"), ("1001/1000", "4/3"), ("4/3", "1001/1000")]
)
def test_near_boundary_triples_step_cleanly(p1, p2):
    # at p1 or p2 = 1001/1000 the proposal takes the gradient to the power
    # 1000; every step must stay a finite nonzero function, so no numpy
    # warning is raised, every trace climbs and every bound is a finite
    # positive ratio, at most 1 where the model's bounds are certified
    ex = young_p(p1, p2)
    cfg = EstimatorConfig(restarts=2, max_iters=30, tol=1e-9, seed=42)
    for selector in (
        "Zmod:2", "Torus:2", "Zwindow:1", "Rline:h=0.5,L=1", "Plane:h=0.5,L=0.5",
        "Affine:hu=0.5,U=0.5,hb=1,B=1",
    ):
        model = _build_model(selector)
        report = estimate(model, ex, cfg)
        for trace in report.ratio_trace:
            assert all(b >= a for a, b in zip(trace, trace[1:])), selector
        assert 0.0 < report.lower_bound < math.inf, selector
        if not isinstance(model, AffineModel):
            assert report.lower_bound <= 1.0 + 1e-12, selector


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


# Threads.  An estimate keeps its affine kernel spectra in its own thread's
# context and writes nothing to its model, so threads may estimate on one
# model at once.  Four threads each run three estimates on one model, with
# the interpreter switching threads as often as it can, and every report
# must equal, bit for bit, the one the same estimate gives alone.

SHARED_MODELS = {
    "finite": lambda: cyclic_group(8),
    "integer-line": lambda: make_integer_line(6),
    "real-line": lambda: make_real_line(0.25, 2.0),
    "torus": lambda: make_torus(12),
    "plane": lambda: make_plane(0.5, 2.0),
    "affine": lambda: make_affine_group(0.25, 1.0, 0.25, 2.0),
}


def _report_bits(report):
    return (
        report.lower_bound,
        report.ratio_trace,
        tuple(np.ascontiguousarray(v).tobytes() for v in report.best_pair),
    )


@pytest.mark.parametrize("kind", SHARED_MODELS)
def test_estimates_on_a_shared_model_agree_across_threads(kind):
    model = SHARED_MODELS[kind]()
    ex = young_p("4/3", "3/2")
    cfg = EstimatorConfig(restarts=2, max_iters=20, seed=42)
    alone = _report_bits(estimate(model, ex, cfg))
    names = sorted(vars(model))  # after a first estimate, as any later one finds it
    got, errors = [[] for _ in range(4)], []

    def worker(out):
        try:
            for _ in range(3):
                out.append(_report_bits(estimate(model, ex, cfg)))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(out,)) for out in got]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [len(out) for out in got] == [3] * 4
    assert all(bits == alone for out in got for bits in out)
    assert sorted(vars(model)) == names
