import functools
import math

import numpy as np
import pytest

from scipy import fft as sp_fft

from youngconv import convolution
from youngconv.cli import _build_model
from youngconv.constants import beckner_Y_Rn
from youngconv.convolution import (
    _T01,
    _W01,
    LinePWL,
    PlanePWL,
    TorusPWL,
    _centered_integrals_2d,
    _convolve,
    _next_fast_len,
    _weighted_norm,
    ascent_direction_phi1,
    ascent_direction_phi2,
    centered_integrals,
    fftconvolve,
    kept_kernel_spectra,
    lp_norm,
    transform_identity_check,
    twisted_convolve,
    young_ratio,
)
from youngconv.estimator import EstimatorConfig, estimate
from youngconv.exponents import young_p
from youngconv.groups import (
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

EX = young_p("4/3", "4/3")
TRIPLES = [young_p("4/3", "4/3"), young_p("3/2", "3/2"), young_p("5/4", "10/7")]


def test_point_mass_is_identity_on_finite():
    g = affine_prime_field(5)
    rng = np.random.default_rng(1)
    f2 = rng.random(g.size)
    e_mass = np.zeros(g.size)
    e_mass[g.identity] = 1.0
    out = twisted_convolve(GroupFunction(g, e_mass), GroupFunction(g, f2), EX)
    np.testing.assert_allclose(out.values, f2, rtol=1e-14)
    assert out.truncation_mass == 0.0


def test_constants_on_compact_groups_saturate():
    for model in [cyclic_group(8), make_torus(10)]:
        ones = GroupFunction(model, np.ones(model.shape))
        for ex in TRIPLES:
            np.testing.assert_allclose(young_ratio(ones, ones, ex), 1.0, rtol=1e-12)


def test_boundary_saturation_point_mass_l1():
    # (1, q): a normalized point mass convolves as the identity
    g = cyclic_group(6)
    ex = young_p(1, "3/2")
    mass = np.zeros(6)
    mass[0] = 1.0
    rng = np.random.default_rng(2)
    f2 = GroupFunction(g, rng.random(6))
    assert young_ratio(GroupFunction(g, mass), f2, ex) == pytest.approx(1.0, abs=1e-14)


def test_bilinearity_finite():
    g = cyclic_group(7)
    rng = np.random.default_rng(3)
    a, b, c = (rng.random(7) for _ in range(3))
    out_ab = twisted_convolve(GroupFunction(g, a + b), GroupFunction(g, c), EX).values
    out_a = twisted_convolve(GroupFunction(g, a), GroupFunction(g, c), EX).values
    out_b = twisted_convolve(GroupFunction(g, b), GroupFunction(g, c), EX).values
    np.testing.assert_allclose(out_ab, out_a + out_b, rtol=1e-13)


def test_box_convolution_is_exact_hat():
    line = make_real_line(1.0, 2.0)
    box = np.zeros(4)
    box[2] = 1.0  # indicator of [0, 1)
    out = twisted_convolve(GroupFunction(line, box), GroupFunction(line, box), EX)
    np.testing.assert_allclose(out.lp_norm(2), math.sqrt(2.0 / 3.0), rtol=1e-10)
    assert out.lp_norm("inf") == pytest.approx(1.0)
    knots = out.x0 + np.arange(out.values.size) * out.h
    peak = knots[np.argmax(out.values)]
    assert peak == pytest.approx(1.0)  # box * box peaks at the sum + h


def test_lp_norm_basics():
    g = cyclic_group(9)
    ind = np.zeros(9)
    ind[[1, 4, 6, 8]] = 1.0
    assert lp_norm(GroupFunction(g, ind), 2) == pytest.approx(2.0)
    rng = np.random.default_rng(4)
    v = rng.random(9)
    for p in (1, "3/2", 2, 5, "inf"):
        np.testing.assert_allclose(
            lp_norm(GroupFunction(g, -3.0 * v), p),
            3.0 * lp_norm(GroupFunction(g, v), p),
            rtol=1e-12,
        )


def test_scale_invariance_of_ratio():
    g = affine_prime_field(5)
    rng = np.random.default_rng(5)
    f1, f2 = rng.random(20), rng.random(20)
    base = young_ratio(GroupFunction(g, f1), GroupFunction(g, f2), EX)
    scaled = young_ratio(
        GroupFunction(g, 37.5 * f1), GroupFunction(g, 0.004 * f2), EX
    )
    np.testing.assert_allclose(scaled, base, rtol=1e-12)


def test_zero_function_rejected():
    g = cyclic_group(5)
    with pytest.raises(ValueError):
        young_ratio(GroupFunction(g, np.zeros(5)), GroupFunction(g, np.ones(5)), EX)


def test_model_mismatch_rejected():
    with pytest.raises(GroupModelError):
        twisted_convolve(
            GroupFunction(cyclic_group(5), np.ones(5)),
            GroupFunction(cyclic_group(6), np.ones(6)),
            EX,
        )


def test_classical_young_random_battery():
    rng = np.random.default_rng(6)
    models = [
        cyclic_group(6),
        affine_prime_field(5),
        make_torus(12),
        make_real_line(0.25, 2.0),
        make_integer_line(8),
        make_plane(0.5, 1.5),
        make_affine_group(0.2, 1.0, 0.2, 2.0),
    ]
    worst = 0.0
    for _ in range(200):
        model = models[rng.integers(len(models))]
        ex = TRIPLES[rng.integers(len(TRIPLES))]
        f1 = GroupFunction(model, rng.random(model.shape))
        f2 = GroupFunction(model, rng.random(model.shape))
        worst = max(worst, young_ratio(f1, f2, ex))
    assert worst <= 1.0 + 1e-9


def test_integer_line_point_masses_saturate():
    z = make_integer_line(10)
    mass = np.zeros(21)
    mass[10] = 1.0
    for ex in TRIPLES:
        f = GroupFunction(z, mass)
        assert young_ratio(f, f, ex) == pytest.approx(1.0, abs=1e-14)


def test_truncation_mass_zero_on_closed_kinds():
    rng = np.random.default_rng(7)
    for model in [cyclic_group(6), make_torus(8), make_real_line(0.5, 2.0)]:
        f1 = GroupFunction(model, rng.random(model.shape))
        f2 = GroupFunction(model, rng.random(model.shape))
        assert twisted_convolve(f1, f2, EX).truncation_mass == 0.0


def test_transform_identity_finite():
    rng = np.random.default_rng(8)
    for model in [cyclic_group(6), cyclic_group(8), affine_prime_field(5)]:
        for ex in TRIPLES:
            f1 = GroupFunction(model, rng.random(model.shape))
            f2 = GroupFunction(model, rng.random(model.shape))
            assert transform_identity_check(f1, f2, ex) <= 1e-12


def test_transform_identity_line_exact():
    rng = np.random.default_rng(9)
    for model in [make_real_line(0.25, 2.0), make_plane(0.5, 1.5)]:
        f1 = GroupFunction(model, rng.random(model.shape))
        f2 = GroupFunction(model, rng.random(model.shape))
        assert transform_identity_check(f1, f2, EX) <= 1e-12


def _affine_bumps(model, rng):
    # the reversal identity needs supports whose inverses stay inside the
    # window: inversion stretches b by e^U
    uu = model.u_centers[:, None]
    bb = model.b_centers[None, :]
    out = []
    for _ in range(2):
        cu, cb = rng.uniform(-0.08, 0.08), rng.uniform(-0.15, 0.15)
        su, sb = rng.uniform(0.22, 0.3), rng.uniform(0.45, 0.6)
        out.append(
            np.exp(-((uu - cu) ** 2) / (2 * su**2) - ((bb - cb) ** 2) / (2 * sb**2))
        )
    return out


def test_transform_identity_affine_quadrature():
    rng = np.random.default_rng(10)
    aff = make_affine_group(0.02, 0.6, 0.02, 3.0)
    b1, b2 = _affine_bumps(aff, rng)
    res = transform_identity_check(
        GroupFunction(aff, b1), GroupFunction(aff, b2), EX
    )
    assert res < 1e-3


def test_swap_consistency_via_reversal():
    # the ratio is invariant under the reversal transform with (p2, p1)
    rng = np.random.default_rng(11)
    for model in [cyclic_group(8), affine_prime_field(5)]:
        ex = young_p("4/3", "3/2")
        f1, f2 = rng.random(model.size), rng.random(model.size)
        base = young_ratio(GroupFunction(model, f1), GroupFunction(model, f2), ex)
        inv_p1 = float(ex.p1.inv)
        inv_p2 = float(ex.p2.inv)
        a = f2[model.inv] / model.delta**inv_p2
        b = f1[model.inv] / model.delta**inv_p1
        swapped = young_ratio(
            GroupFunction(model, a), GroupFunction(model, b), ex.swapped()
        )
        np.testing.assert_allclose(swapped, base, rtol=1e-12)


def test_affine_enlarged_dominates_window():
    rng = np.random.default_rng(12)
    aff = make_affine_group(0.1, 1.0, 0.1, 2.0)
    b1, b2 = _affine_bumps(aff, rng)
    f1, f2 = GroupFunction(aff, b1), GroupFunction(aff, b2)
    full = twisted_convolve(f1, f2, EX, enlarged=True)
    window = twisted_convolve(f1, f2, EX, enlarged=False)
    assert full.lp_norm(EX.p) >= window.lp_norm(EX.p) - 1e-12
    assert full.truncation_mass <= window.truncation_mass + 1e-12


def _random_dual(psi, rng):
    """A dual function on the convolution's own domain, with random values."""
    w = psi.dual_power(1.0)
    w.values = rng.random(psi.values.shape)
    return w


def test_adjoint_pairings():
    # <phi1, A* w> = <phi2, B* w> = <psi, w>: the ascent directions are the
    # exact adjoints of the forward convolution on the cell-valued kinds
    rng = np.random.default_rng(13)
    cases = [
        (cyclic_group(7), True),
        (affine_prime_field(5), True),
        (make_integer_line(6), True),
        (make_affine_group(0.25, 1.0, 0.25, 1.0), False),
    ]
    for model, check_b in cases:
        for de in (0.0, 0.4):
            v1, v2 = rng.random(model.shape), rng.random(model.shape)
            for enlarged in (True, False):
                psi = _convolve(model, v1, v2, de, enlarged)
                w = _random_dual(psi, rng)
                target = float(np.sum(psi.weight * psi.values * w.values))
                a_star = ascent_direction_phi1(model, v2, w, de)
                assert float(np.sum(model.weight * v1 * a_star)) == pytest.approx(
                    target, rel=1e-12
                )
                if check_b:
                    b_star = ascent_direction_phi2(model, v1, w, de)
                    assert float(np.sum(model.weight * v2 * b_star)) == pytest.approx(
                        target, rel=1e-12
                    )
    # on the abelian grids A* and B* are one correlation with the roles of
    # phi1 and phi2 swapped
    for model in [
        make_integer_line(6),
        make_real_line(0.25, 2.0),
        make_torus(10),
        make_plane(0.5, 1.5),
    ]:
        for de in (0.0, 0.4):
            v1, v2 = rng.random(model.shape), rng.random(model.shape)
            w = _convolve(model, v1, v2, de, False).dual_power(1.0 / 3.0)
            f = rng.random(model.shape)
            np.testing.assert_array_equal(
                ascent_direction_phi1(model, f, w, de),
                ascent_direction_phi2(model, f, w, de),
            )


def test_fftconvolve_bit_equal_to_scipy_signal():
    from scipy import signal

    rng = np.random.default_rng(3)
    # row-wise along axis 1 at the affine in-loop and enlarged output widths
    model = make_affine_group(0.05, 1.5, 0.05, 3.0)
    nu, nb = model.n_u, model.n_b
    for n_out in (nb, model.out_b_centers.size):
        a = rng.random((nu, nb))
        k = rng.random((nu, nb + n_out - 1))
        ref = signal.fftconvolve(a, k, axes=1)
        full = ref.shape[1]
        nfft = sp_fft.next_fast_len(full, True)
        assert np.array_equal(fftconvolve(a, k, n=nfft)[:, :full], ref)
        # pre-transformed spectra, sliced by rows as the affine loops do
        spec_a, spec_k = sp_fft.rfft(a, nfft), sp_fft.rfft(k[:, ::-1], nfft)
        rows = slice(7, 40)
        assert np.array_equal(
            fftconvolve(spec_a[rows], k[rows], n=nfft)[:, :full],
            signal.fftconvolve(a[rows], k[rows], axes=1),
        )
        assert np.array_equal(
            fftconvolve(spec_a[rows], spec_k[rows], n=nfft)[:, :full],
            signal.fftconvolve(a[rows], k[rows, ::-1], axes=1),
        )
    # plane inputs, convolved over both axes
    x, y = rng.random((16, 16)), rng.random((16, 16))
    assert np.array_equal(fftconvolve(x, y), signal.fftconvolve(x, y))
    assert np.array_equal(fftconvolve(x, y[::-1, ::-1]), signal.fftconvolve(x, y[::-1, ::-1]))


def test_next_fast_len_matches_scipy():
    assert [_next_fast_len(k) for k in range(1, 2**16 + 1)] == [
        sp_fft.next_fast_len(k, True) for k in range(1, 2**16 + 1)
    ]


@pytest.mark.parametrize("shape1, shape2", [
    ((9, 7), (9, 7)),  # odd full lengths
    ((10, 16), (7, 12)),  # even full lengths
    ((3, 11, 8), (3, 11, 8)),  # a stack, convolved over its last two axes
])
def test_fftconvolve_2d_bit_equal_to_scipy_fft(shape1, shape2):
    rng = np.random.default_rng(5)
    a, b = rng.random(shape1), rng.random(shape2)
    axes = (-2, -1)
    full = [shape1[i] + shape2[i] - 1 for i in axes]
    fshape = [sp_fft.next_fast_len(k, True) for k in full]
    spec = sp_fft.rfftn(a, fshape, axes=axes) * sp_fft.rfftn(b, fshape, axes=axes)
    ref = sp_fft.irfftn(spec, fshape, axes=axes)[..., : full[0], : full[1]]
    assert np.array_equal(fftconvolve(a, b, axes=axes), ref)


def test_norms_after_a_larger_norm_are_unchanged():
    # the line, torus and plane norms reuse one Gauss-node buffer per model,
    # which may hold an earlier norm's values, so every value must be
    # written before it is read
    rng = np.random.default_rng(8)
    line, torus, plane = make_real_line(0.25, 4.0), make_torus(16), make_plane(0.5, 2.0)
    for result, big, small in (
        (lambda v: LinePWL(line, -8.0, line.h, v), (5, 40), (40,)),
        (lambda v: TorusPWL(torus, v), (5, 40), (40,)),
        (lambda v: PlanePWL(plane, -4.0, plane.h, v), (21, 21), (9, 9)),
    ):
        for p in (4 / 3, 3.0):
            v = rng.standard_normal(small)
            first = result(v).lp_norm(p)
            for shape in (big, small):
                result(rng.random(shape) * 1e3).lp_norm(p)
                assert result(v).lp_norm(p) == first
            assert result(np.stack([v, v])).lp_norm(p).tolist() == [first, first]


# Norm oracles.  The weighted norm must equal, bit for bit, its expression
# as first written, before its temporaries were built in place.  The
# piecewise-linear norms take their Gauss sums with the nodes outermost:
# they must equal, bit for bit, the node-outer expressions below, written
# plainly, with floor(p/2) + 1 nodes for an integer p <= 15 and 8 nodes
# otherwise.  They must also agree with a 30-digit evaluation of the 8-node
# Gauss sum to 2e-15 relative, and with the per-cell 8-node expressions as
# first written to 2e-15 (line, torus) or the plane bound below: for an
# integer p both rules are exact.

ORACLE_PS = [5 / 4, 4 / 3, 3 / 2, 2.0, 7 / 3, 3.0, 4.0, math.inf]
ORACLE_RTOL = 2e-15
# The per-cell plane expression adds its 64 x cells terms one after
# another (an unoptimized einsum): on the oracle draws it is itself up to
# 4.3e-15 relative away from the 30-digit Gauss sum, which the node-outer
# norm meets to 2.2e-16, so a comparison with it needs that much room.
PLANE_PER_CELL_RTOL = 5e-15


def _ref_weighted_norm(weight, values, pf):
    mags = np.abs(values)
    if math.isinf(pf):
        return float(mags.max()) if mags.size else 0.0
    peak = float(mags.max()) if mags.size else 0.0
    if peak == 0.0:
        return 0.0
    return peak * float(np.sum(weight * (mags / peak) ** pf)) ** (1.0 / pf)


def _ref_pwl_norm(a, b, h, pf):
    a = np.abs(np.asarray(a, dtype=float))
    b = np.abs(np.asarray(b, dtype=float))
    peak = max(a.max(initial=0.0), b.max(initial=0.0))
    if peak == 0.0:
        return 0.0
    seg = a[:, None] + (b - a)[:, None] * _T01[None, :]
    total = float(np.sum((seg / peak) ** pf @ _W01) * h)
    return peak * total ** (1.0 / pf)


def _ref_line_norm(v, h, pf):
    if math.isinf(pf):
        return float(np.abs(v).max())
    return _ref_pwl_norm(v[:-1], v[1:], h, pf)


def _ref_torus_norm(v, h, pf):
    if math.isinf(pf):
        return float(np.abs(v).max())
    return _ref_pwl_norm(v, np.roll(v, -1), h, pf)


def _ref_plane_norm(v, h, pf):
    if math.isinf(pf):
        return float(np.abs(v).max())
    v00 = np.abs(v[:-1, :-1])[..., None, None]
    v10 = np.abs(v[1:, :-1])[..., None, None]
    v01 = np.abs(v[:-1, 1:])[..., None, None]
    v11 = np.abs(v[1:, 1:])[..., None, None]
    t = _T01[:, None]
    s = _T01[None, :]
    surf = (
        v00 * (1 - t) * (1 - s)
        + v10 * t * (1 - s)
        + v01 * (1 - t) * s
        + v11 * t * s
    )
    peak = float(np.abs(v).max())
    if peak == 0.0:
        return 0.0
    cell = np.einsum("ijts,t,s->", (surf / peak) ** pf, _W01, _W01)
    return peak * float(cell * h * h) ** (1.0 / pf)


def _ref_rule(pf):
    """Gauss nodes and weights on [0, 1]: floor(p/2) + 1 of them for an
    integer p <= 15, whose integrand has degree p, else 8."""
    q = int(pf) // 2 + 1 if pf <= 15 and pf == int(pf) else 8
    nodes, weights = np.polynomial.legendre.leggauss(q)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _ref_nodes_pwl_norm(v, h, pf, cyclic):
    """Gauss sum with the nodes outermost: each node's values summed over
    the segments, then the node sums weighted and added in node order."""
    v = np.abs(v)
    if math.isinf(pf):
        return float(v.max())
    peak = float(v.max())
    if peak == 0.0:
        return 0.0
    v = v / peak
    a = v if cyclic else v[:-1]
    b = np.roll(v, -1) if cyclic else v[1:]
    nodes, weights = _ref_rule(pf)
    sums = [np.sum((a + t * (b - a)) ** pf) for t in nodes]
    total = sum(w * s for w, s in zip(weights, sums))
    return peak * float(total * h) ** (1.0 / pf)


def _ref_nodes_plane_norm(v, h, pf):
    """Gauss sum with the node pairs (t, s) outermost: the surface at each
    pair summed over the cells, then one dot with the weight products."""
    v = np.abs(v)
    if math.isinf(pf):
        return float(v.max())
    peak = float(v.max())
    if peak == 0.0:
        return 0.0
    v = v / peak
    nodes, weights = _ref_rule(pf)
    sums = np.empty((nodes.size, nodes.size))
    for k, t in enumerate(nodes):
        lo = v[:-1, :-1] * (1 - t) + v[1:, :-1] * t
        hi = v[:-1, 1:] * (1 - t) + v[1:, 1:] * t
        for j, s in enumerate(nodes):
            sums[k, j] = np.sum((lo + s * (hi - lo)) ** pf)
    cell = np.outer(weights, weights).ravel() @ sums.ravel()
    return peak * float(cell * h * h) ** (1.0 / pf)


def _mp_gauss_sum_norm(v, h, pf, kind):
    """The same 8-node Gauss sum (the float nodes and weights) taken with
    30 significant digits: the exact value the float sums round."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        t = [mpmath.mpf(float(x)) for x in _T01]
        w = [mpmath.mpf(float(x)) for x in _W01]
        pm = mpmath.mpf(pf)
        v = np.abs(np.asarray(v, dtype=float))
        if kind == "plane":
            vm = [[mpmath.mpf(float(x)) for x in row] for row in v]
            total = mpmath.mpf(0)
            for i in range(len(vm) - 1):
                for j in range(len(vm[0]) - 1):
                    c00, c10, c01, c11 = vm[i][j], vm[i + 1][j], vm[i][j + 1], vm[i + 1][j + 1]
                    for tk, wk in zip(t, w):
                        lo, hi = c00 + tk * (c10 - c00), c01 + tk * (c11 - c01)
                        for sj, wj in zip(t, w):
                            total += wk * wj * (lo + sj * (hi - lo)) ** pm
            total *= mpmath.mpf(h) ** 2
        else:
            vm = [mpmath.mpf(float(x)) for x in v]
            ends = list(zip(vm, vm[1:] + vm[:1])) if kind == "torus" else list(zip(vm[:-1], vm[1:]))
            total = mpmath.fsum(
                wk * (a + tk * (b - a)) ** pm for a, b in ends for tk, wk in zip(t, w)
            )
            total *= mpmath.mpf(h)
        return float(total ** (1 / pm))


def _oracle_draws(rng, shape):
    """Mixed-sign values whose magnitudes span 1e-5 to 1e5, then all zeros."""
    # a reassociated product changes the last bit of only some norms, so
    # the oracle needs many draws to see it
    for _ in range(40):
        yield rng.standard_normal(shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)
    yield np.zeros(shape)


def _assert_rel(got, want, rtol=ORACLE_RTOL):
    assert abs(got - want) <= rtol * abs(want), (got, want)


@pytest.mark.parametrize("pf", ORACLE_PS)
def test_norms_bit_equal_to_reference_expressions(pf):
    rng = np.random.default_rng(11)
    for shape in [(37,), (9, 14)]:
        weight = rng.uniform(0.1, 2.0, shape)
        for v in _oracle_draws(rng, shape):
            assert _weighted_norm(weight, v, pf) == _ref_weighted_norm(weight, v, pf)
    line, torus, plane = make_real_line(0.25, 4.0), make_torus(16), make_plane(0.5, 2.0)
    for v in _oracle_draws(rng, 4 * line.size + 1):
        got = LinePWL(line, -8.0, line.h, v).lp_norm(pf)
        assert got == _ref_nodes_pwl_norm(v, line.h, pf, cyclic=False)
        _assert_rel(got, _ref_line_norm(v, line.h, pf))
    for v in _oracle_draws(rng, torus.size):
        got = TorusPWL(torus, v).lp_norm(pf)
        assert got == _ref_nodes_pwl_norm(v, torus.h, pf, cyclic=True)
        _assert_rel(got, _ref_torus_norm(v, torus.h, pf))
    n = 2 * plane.centers.size + 1
    for v in _oracle_draws(rng, (n, n)):
        got = PlanePWL(plane, -4.0, plane.h, v).lp_norm(pf)
        assert got == _ref_nodes_plane_norm(v, plane.h, pf)
        _assert_rel(got, _ref_plane_norm(v, plane.h, pf), PLANE_PER_CELL_RTOL)


@pytest.mark.parametrize("pf", [4 / 3, 15 / 7, 2.0, 3.0, 4.0])
def test_norms_match_a_30_digit_gauss_sum(pf):
    rng = np.random.default_rng(12)
    line, torus, plane = make_real_line(0.25, 4.0), make_torus(16), make_plane(0.5, 1.0)
    n = 2 * plane.centers.size + 1
    for _, v in zip(range(2), _oracle_draws(rng, 4 * line.size + 1)):
        want = _mp_gauss_sum_norm(v, line.h, pf, "line")
        _assert_rel(LinePWL(line, -8.0, line.h, v).lp_norm(pf), want)
    for _, v in zip(range(2), _oracle_draws(rng, torus.size)):
        _assert_rel(TorusPWL(torus, v).lp_norm(pf), _mp_gauss_sum_norm(v, torus.h, pf, "torus"))
    for _, v in zip(range(2), _oracle_draws(rng, (n, n))):
        want = _mp_gauss_sum_norm(v, plane.h, pf, "plane")
        _assert_rel(PlanePWL(plane, -2.0, plane.h, v).lp_norm(pf), want)


@pytest.mark.parametrize("rows", [1, 2, 3, 16])
def test_norm_of_a_stack_row_equals_the_lone_norm(rows):
    # the Gauss sums of a whole stack run as one array, and the estimator's
    # lockstep restarts rely on every row getting the bits it gets alone
    rng = np.random.default_rng(13)
    line, plane = make_real_line(0.05, 8.0), make_plane(0.2, 4.0)
    cases = [
        (lambda v: LinePWL(line, -16.0, line.h, v), (641,)),
        (lambda v: TorusPWL(make_torus(640), v), (640,)),
        (lambda v: TorusPWL(make_torus(5), v), (5,)),
        (lambda v: PlanePWL(plane, -8.0, plane.h, v), (81, 81)),
    ]
    for result, shape in cases:
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (rows,) + (1,) * len(shape))
        stack = rng.standard_normal((rows,) + shape) * scale
        if rows == 3:
            stack[1] = 0.0  # a zero row among nonzero ones
        for pf in ORACLE_PS:
            norms = result(stack).lp_norm(pf)
            assert norms.shape == (rows,)
            assert norms.tolist() == [result(v).lp_norm(pf) for v in stack]


@pytest.mark.parametrize("batch", [(), (1,), (16,)])
def test_line_convolution_and_dual_power_bit_equal_to_reference_expressions(batch):
    # the real line convolves into its knot array and scales it in place, and
    # dual_power raises its magnitudes in place; both as first written:
    # a full np.convolve per row, times h into the zero-ended knots, and
    # np.abs(values) ** exponent
    rng = np.random.default_rng(18)
    for model in (make_real_line(0.5, 0.5), make_real_line(0.25, 2.0), make_real_line(0.05, 4.0)):
        n = model.size
        v1 = rng.standard_normal(batch + (n,)) * 10.0 ** rng.uniform(-5.0, 5.0, batch + (n,))
        v2 = rng.random(batch + (n,))
        psi = _convolve(model, v1, v2, 0.0)
        rows = [np.convolve(x, y) for x, y in zip(v1.reshape(-1, n), v2.reshape(-1, n))]
        want = np.zeros(batch + (2 * n + 1,))
        want[..., 1:-1] = model.h * np.array(rows).reshape(batch + (2 * n - 1,))
        assert np.array_equal(psi.values, want)
        for exponent in (1.0 / 3.0, 0.25, 1.0, 2.0, 3.5):
            assert np.array_equal(psi.dual_power(exponent).values, np.abs(psi.values) ** exponent)
    aff = make_affine_group(0.25, 1.0, 0.25, 2.0)
    psi = _convolve(aff, rng.random(batch + aff.shape), rng.standard_normal(batch + aff.shape), 0.4)
    for exponent in (1.0 / 3.0, 3.5):
        assert np.array_equal(psi.dual_power(exponent).values, np.abs(psi.values) ** exponent)


def _smallest_grids():
    line, torus, plane = make_real_line(0.5, 0.5), make_torus(2), make_plane(0.5, 0.5)
    h = line.h  # every grid here has cells of width 1/2
    return [
        # (result builder, knot shape, accuracy oracle)
        (lambda v: LinePWL(line, -1.0, h, v), (5,), lambda v, pf: _ref_line_norm(v, h, pf)),
        (lambda v: LinePWL(line, 0.0, h, v), (2,), lambda v, pf: _ref_line_norm(v, h, pf)),
        (lambda v: TorusPWL(torus, v), (2,), lambda v, pf: _ref_torus_norm(v, h, pf)),
        (lambda v: PlanePWL(plane, -1.0, h, v), (5, 5), lambda v, pf: _ref_plane_norm(v, h, pf)),
    ]


@pytest.mark.parametrize("pf", ORACLE_PS)
def test_norms_on_the_smallest_grids(pf):
    # a 2-cell line (5 knots), one segment, a 2-cell circle and a 2 x 2 plane
    # (5 x 5 knots): all zeros, one nonzero knot and random values
    rng = np.random.default_rng(15)
    for result, shape, oracle in _smallest_grids():
        one = np.zeros(shape)
        one.flat[rng.integers(one.size)] = -2.5
        for v in (np.zeros(shape), one, rng.standard_normal(shape)):
            got = result(v).lp_norm(pf)
            assert math.isfinite(got)
            want = oracle(v, pf)
            if want == 0.0:
                assert got == 0.0
            else:
                _assert_rel(got, want)


@pytest.mark.parametrize("selector, upper", [
    ("Rline:h=0.5,L=0.5", beckner_Y_Rn(EX.p1, EX.p2, 1)),
    ("Torus:2", 1.0),
    ("Plane:h=0.5,L=0.5", beckner_Y_Rn(EX.p1, EX.p2, 2)),
])
def test_estimate_on_the_smallest_grids(selector, upper):
    cfg = EstimatorConfig(restarts=2, max_iters=20, seed=42)
    report = estimate(_build_model(selector), EX, cfg)
    assert math.isfinite(report.lower_bound)
    assert 0.0 < report.lower_bound <= upper + 1e-12


# Row-loop oracles: the affine kernels as first written, with one inverse
# FFT per phi2 row (forward, A*) or per output row (B*), each at the full
# linear length.  The kernels now sum the forward and A* rows in the
# frequency domain before one inverse, at the kernel width instead of the
# full length, which moves the last bits; B* must agree exactly.


def _ref_kernel_cols(model, out_b):
    nb = model.n_b
    d = np.arange(nb + out_b.size - 1) - (nb - 1)
    x_d = (out_b[0] - model.b_centers[0]) + d * model.h_b
    args = np.exp(-model.u_centers)[:, None] * x_d[None, :]
    col = np.floor((args + model.b_half_width) / model.h_b).astype(int)
    valid = (col >= 0) & (col < nb)
    return np.clip(col, 0, nb - 1), valid


def _ref_row_convolve(spec, kern, nfft):
    return np.fft.irfft(spec * np.fft.rfft(kern, nfft), nfft)


def _ref_affine_convolve(model, v1, v2, de, enlarged):
    nu, nb = model.n_u, model.n_b
    u = model.u_centers
    ku = (nu - 1) // 2
    if enlarged:
        n_rows, out_b, row_shift = 2 * nu - 1, model.out_b_centers, 0
    else:
        n_rows, out_b, row_shift = nu, model.b_centers, ku
    n_out = out_b.size
    col, valid = _ref_kernel_cols(model, out_b)
    nfft = _next_fast_len(nb + col.shape[1] - 1)
    spec1 = np.fft.rfft(v1 * model.weight, nfft)
    psi = np.zeros(v1.shape[:-2] + (n_rows, n_out))
    for r in range(nu):
        row2 = v2[..., r, :]
        if not np.any(row2):
            continue
        kern = np.where(valid, np.take(row2, col, axis=-1), 0.0)
        contrib = _ref_row_convolve(spec1, kern, nfft)[..., nb - 1 : nb - 1 + n_out]
        dfac = math.exp(-de * u[r]) if de != 0.0 else 1.0
        lo = max(0, row_shift - r)
        hi = min(nu, n_rows + row_shift - r)
        psi[..., r + lo - row_shift : r + hi - row_shift, :] += dfac * contrib[..., lo:hi, :]
    return psi


def _ref_affine_ascent_phi1(model, v2, w, de):
    nu, nb = model.n_u, model.n_b
    u = model.u_centers
    ku = (nu - 1) // 2
    base = int(round(w.u_points[0] / model.h_u))
    n_out = w.b_centers.size
    col, valid = _ref_kernel_cols(model, w.b_centers)
    nfft = _next_fast_len(n_out + col.shape[1] - 1)
    spec_w = np.fft.rfft(w.values * w.weight, nfft)
    out = np.zeros(v2.shape)
    n_rows = w.values.shape[-2]
    for r in range(nu):
        row2 = v2[..., r, :]
        if not np.any(row2):
            continue
        shift = r - base - 2 * ku
        lo = max(0, -shift)
        hi = min(nu, n_rows - shift)
        if lo >= hi:
            continue
        kern = np.where(valid[lo:hi], np.take(row2, col[lo:hi], axis=-1), 0.0)
        corr = _ref_row_convolve(spec_w[..., lo + shift : hi + shift, :], kern[..., ::-1], nfft)
        dfac = math.exp(-de * u[r]) if de != 0.0 else 1.0
        out[..., lo:hi, :] += dfac * corr[..., n_out - 1 : n_out - 1 + nb]
    return out


def _ref_affine_ascent_phi2(model, v1, w, de):
    nu, nb = model.n_u, model.n_b
    u = model.u_centers
    ku = (nu - 1) // 2
    base = int(round(w.u_points[0] / model.h_u))
    n_w = w.b_centers.size
    n_rows = w.values.shape[-2]
    v1w = v1 * model.weight
    full = n_w + nb - 1
    nfft = _next_fast_len(full)
    spec_w = np.fft.rfft(w.values, nfft)
    spec1 = np.fft.rfft(v1w[..., ::-1], nfft)
    targets = np.exp(u)[:, None] * model.b_centers[None, :]
    rel = (targets + (model.b_centers[0] - w.b_centers[0])) / model.h_b + 0.5
    gather = np.floor(rel).astype(int) + (nb - 1)
    out = np.zeros(v1.shape)
    for c in range(nu):
        shift = c - 2 * ku - base
        lo = max(0, -shift)
        hi = min(nu, n_rows - shift)
        if lo >= hi or not np.any(v1w[..., lo:hi, :]):
            continue
        corr = np.fft.irfft(spec_w[..., lo + shift : hi + shift, :] * spec1[..., lo:hi, :], nfft)
        idx = gather[lo:hi]
        ok = (idx >= 0) & (idx < full)
        safe = np.broadcast_to(np.clip(idx, 0, full - 1), corr.shape[:-1] + (nb,))
        vals = np.take_along_axis(corr, safe, axis=-1)
        dfac = math.exp(-de * u[c]) if de != 0.0 else 1.0
        out[..., c, :] = dfac * np.where(ok, vals, 0.0).sum(axis=-2)
    return out


def _assert_close_to_reference(got, ref):
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("model", [
    make_affine_group(0.05, 1.5, 0.05, 3.0),
    make_affine_group(0.25, 1.0, 0.25, 2.0),
    make_affine_group(0.5, 0.5, 1.0, 1.0),  # 3 x 2 cells
], ids=lambda m: m.name)
def test_affine_row_sums_match_per_row_reference(model):
    rng = np.random.default_rng(14)
    for batch in [(), (3,)]:
        v1, v2 = rng.random(batch + model.shape), rng.random(batch + model.shape)
        v2[..., 0, :] = 0.0  # phi2 rows that are all zero are skipped
        if batch:
            v2[1, -1, :] = 0.0  # zero in one function of the stack only
        for de in (0.0, 0.4):
            for enlarged in (True, False):
                psi = _convolve(model, v1, v2, de, enlarged)
                _assert_close_to_reference(
                    psi.values, _ref_affine_convolve(model, v1, v2, de, enlarged)
                )
                w = _random_dual(psi, rng)
                a_star = ascent_direction_phi1(model, v2, w, de)
                _assert_close_to_reference(a_star, _ref_affine_ascent_phi1(model, v2, w, de))
                b_star = ascent_direction_phi2(model, v1, w, de)
                assert np.array_equal(b_star, _ref_affine_ascent_phi2(model, v1, w, de))
                # each function of a stack gets the values it has alone
                for s in range(batch[0] if batch else 0):
                    w_s = psi.dual_power(1.0)
                    w_s.values = w.values[s]
                    assert np.array_equal(
                        _convolve(model, v1[s], v2[s], de, enlarged).values, psi.values[s]
                    )
                    assert np.array_equal(ascent_direction_phi1(model, v2[s], w_s, de), a_star[s])
                    assert np.array_equal(ascent_direction_phi2(model, v1[s], w_s, de), b_star[s])


@pytest.mark.parametrize("model", [
    make_affine_group(0.25, 1.0, 0.25, 2.0),
    make_affine_group(0.5, 0.5, 1.0, 1.0),  # 3 x 2 cells
    make_affine_group(0.1, 0.2, 0.25, 1.0),
], ids=lambda m: m.name)
def test_affine_carried_kernel_spectra_match_a_fresh_forward(model, monkeypatch):
    # inside kept_kernel_spectra the forward and A* keep the kernel spectra
    # of the last phi2 stack they convolved with: every value must be the
    # one a call outside the block gives, a call that reads them (a hit)
    # gathers no kernel, and a call with another phi2 or Delta exponent (a
    # miss) gathers its own
    rng = np.random.default_rng(18)
    v1, v2 = rng.random((3,) + model.shape), rng.random((3,) + model.shape)
    u1 = rng.random(v1.shape)
    v2[:, 0, :] = 0.0  # skipped in every function
    v2[1, -1, :] = 0.0  # zero in one function only
    changed = v2.copy()
    changed[2, model.n_u // 2, model.n_b // 2] *= 2.0
    gathers = [0]
    kernel_spectra = convolution._kernel_spectra

    def counted(*args):
        gathers[0] += 1
        return kernel_spectra(*args)

    monkeypatch.setattr(convolution, "_kernel_spectra", counted)

    def gathered(fn, *args):
        """fn(*args) as a plain array, and the kernel rows it gathered."""
        before = gathers[0]
        out = fn(*args)
        return getattr(out, "values", out), gathers[0] - before

    def forward(a, b, de):
        return _convolve(model, a, b, de, False)

    def enlarged(a, b, de):
        return _convolve(model, a, b, de, True)

    for de, other_de in ((0.0, 0.4), (0.4, 0.0)):
        w = _random_dual(forward(v1, v2, de), rng)
        calls = [
            (forward, v1, v2, de),  # the fill
            (forward, u1, v2, de),
            (functools.partial(ascent_direction_phi1, model), v2, w, de),
            # misses, each differing from the kept spectra in one part of
            # the key: the exponent and back, the output window and back,
            # and one entry of phi2
            (forward, v1, v2, other_de),
            (forward, v1, v2, de),
            (enlarged, v1, v2, de),
            (forward, v1, v2, de),
            (forward, v1, changed, de),
        ]
        for rows in ([1], [0, 2], [2, 1]):
            calls += [(forward, u1[rows], v2[rows], de), (forward, v1[rows], v2[rows], de)]
        calls += [(forward, u1[1], v2[1], de), (forward, v1[1], v2[1], de)]
        want = [gathered(*call)[0] for call in calls]
        with kept_kernel_spectra(model):
            got = [gathered(*call) for call in calls]
        for (value, n), ref in zip(got, want):
            assert np.array_equal(value, ref)
        # a fill and two hits, the five misses, then a fill and a hit for
        # each row subset and for one function
        hits = [n == 0 for _, n in got]
        assert hits == [False, True, True] + [False] * 5 + [False, True] * 4

    # a fill that raises leaves a miss: the next call gathers again
    def failing(*args):
        if gathers[0] == 1:  # the second phi2 row of the fill
            raise MemoryError
        return counted(*args)

    ref = forward(v1, v2, 0.0).values
    with kept_kernel_spectra(model):
        monkeypatch.setattr(convolution, "_kernel_spectra", failing)
        gathers[0] = 0
        with pytest.raises(MemoryError):
            forward(v1, v2, 0.0)
        monkeypatch.setattr(convolution, "_kernel_spectra", counted)
        value, n = gathered(forward, v1, v2, 0.0)
        assert n > 0 and np.array_equal(value, ref)
    # the key is a copy: phi2 changed in place after a fill is a miss
    ref = forward(v1, changed, 0.0).values
    with kept_kernel_spectra(model):
        in_place = v2.copy()
        forward(v1, in_place, 0.0)
        in_place[...] = changed
        value, n = gathered(forward, v1, in_place, 0.0)
        assert n > 0 and np.array_equal(value, ref)
    # the block leaves the model as it found it, an enclosing block's
    # spectra included, and nothing complex stays behind, also when its
    # body raises
    with kept_kernel_spectra(model):
        outer = model._kept_spectra
        with pytest.raises(RuntimeError):
            with kept_kernel_spectra(model):
                forward(v1, v2, 0.0)
                raise RuntimeError
        assert model._kept_spectra is outer
    assert not hasattr(model, "_kept_spectra")

    def arrays(obj):
        if isinstance(obj, dict):
            obj = list(obj.values())
        return [a for x in obj for a in arrays(x)] if isinstance(obj, (list, tuple)) else [obj]

    assert not any(np.iscomplexobj(a) for a in arrays(vars(model)))


# Double-sum oracle: the affine convolution and A* straight from the group
# law, with no FFT.  The forward and A* transform at the least fast length
# N >= W, the kernel width, which leaves only the W-wide window they read
# free of aliasing.  Every grid here has N = W in the loop.  On all but
# the U = 0.2 grid some kernel rows are nonzero at their ends, so a length
# one short would alias; there both ends fall outside the carrier
# (e^-0.2 * 1.75 > B = 1) and it would not.  The b offset of a carrier
# cell to an output point is formed as the kernels form it,
# (out_b[0] - b_0) + (o - j) h_b, so a point on a cell edge snaps to the
# same cell.


def _double_sum_kernel(model, v2, de, out_u, out_b):
    """K[..., i, j, m, o]: phi2 Delta^de at g^-1 g' for the carrier cell
    g = (u_i, b_j) and the output point g' = (out_u[m], out_b[o]), where
    g^-1 g' = (u' - u_i, e^{-u_i} (b' - b_j)); 0 off the grid."""
    nu, nb = model.n_u, model.n_b
    ku = (nu - 1) // 2
    scale = np.exp(-model.u_centers)
    kern = np.zeros(v2.shape[:-2] + (nu, nb, out_u.size, out_b.size))
    for i in range(nu):
        for m in range(out_u.size):
            r = int(round((out_u[m] - model.u_centers[i]) / model.h_u)) + ku
            if not 0 <= r < nu:
                continue
            dfac = math.exp(-de * model.u_centers[r])
            for j in range(nb):
                x = (out_b[0] - model.b_centers[0]) + (np.arange(out_b.size) - j) * model.h_b
                col = np.floor((scale[i] * x + model.b_half_width) / model.h_b).astype(int)
                ok = (col >= 0) & (col < nb)
                kern[..., i, j, m, ok] = v2[..., r, col[ok]] * dfac
    return kern


@pytest.mark.parametrize("model", [
    make_affine_group(0.5, 0.5, 1.0, 1.0),  # 3 x 2 cells, W = N = 3
    make_affine_group(1.0, 1.0, 0.25, 0.25),  # 3 x 2 cells, W = N = 3 and 9
    make_affine_group(0.1, 0.2, 0.25, 1.0),  # W = N = 15 and 25
    make_affine_group(0.25, 1.0, 0.25, 1.0),  # W = N = 15; enlarged W = 37, N = 40
], ids=lambda m: m.name)
def test_affine_convolution_and_a_star_match_double_sum(model):
    rng = np.random.default_rng(17)
    for batch in [(), (2,)]:
        v1, v2 = rng.random(batch + model.shape), rng.random(batch + model.shape)
        for de in (0.0, 0.4):
            for enlarged in (True, False):
                psi = _convolve(model, v1, v2, de, enlarged)
                kern = _double_sum_kernel(model, v2, de, psi.u_points, psi.b_centers)
                _assert_close_to_reference(
                    psi.values, np.einsum("...ij,...ijmo->...mo", model.weight * v1, kern)
                )
                w = _random_dual(psi, rng)
                _assert_close_to_reference(
                    ascent_direction_phi1(model, v2, w, de),
                    np.einsum("...mo,...ijmo->...ij", w.weight * w.values, kern),
                )


def _ref_centered_integrals(values, h, axis=-1):
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    padded = np.zeros(v.shape[:-1] + (v.shape[-1] + 2,))
    padded[..., 1:-1] = v
    out = (h / 8.0) * (padded[..., :-2] + 6.0 * padded[..., 1:-1] + padded[..., 2:])
    return np.moveaxis(out, -1, axis)


def _ref_centered_integrals_cyclic(values, h):
    return (h / 8.0) * (
        np.roll(values, 1, axis=-1) + 6.0 * values + np.roll(values, -1, axis=-1)
    )


@pytest.mark.parametrize("batch", [(), (1,), (3,), (16,)])
def test_centered_integrals_bit_equal_to_reference_expressions(batch):
    rng = np.random.default_rng(16)
    for n in (1, 2, 3, 8, 81, 641):
        scale = 10.0 ** rng.uniform(-5.0, 5.0, batch + (n,))
        v = rng.standard_normal(batch + (n,)) * scale
        for h in (0.05, 0.2, 1.0 / 3.0):
            assert np.array_equal(centered_integrals(v, h), _ref_centered_integrals(v, h))
            assert np.array_equal(
                centered_integrals(v, h, cyclic=True), _ref_centered_integrals_cyclic(v, h)
            )
    for m, n in ((1, 1), (2, 5), (81, 81)):
        v = rng.standard_normal(batch + (m, n)) * 10.0 ** rng.uniform(-5.0, 5.0)
        want = _ref_centered_integrals(_ref_centered_integrals(v, 0.2, axis=-2), 0.2, axis=-1)
        assert np.array_equal(_centered_integrals_2d(v, 0.2), want)
