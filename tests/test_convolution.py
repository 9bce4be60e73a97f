import math

import numpy as np
import pytest

from scipy import fft as sp_fft

from youngconv.convolution import (
    _T01,
    _W01,
    LinePWL,
    PlanePWL,
    TorusPWL,
    _convolve,
    _next_fast_len,
    _weighted_norm,
    ascent_direction_phi1,
    ascent_direction_phi2,
    fftconvolve,
    lp_norm,
    transform_identity_check,
    twisted_convolve,
    young_ratio,
)
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
    # the line and torus norms reuse one Gauss-node buffer per model and the
    # plane norm writes into fresh uninitialized memory: either may hold an
    # earlier norm's values, so every value must be written before it is read
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


# Bit-identity oracles: the norm expressions as first written, before their
# temporaries were built in place.  The in-place forms must agree exactly.

ORACLE_PS = [5 / 4, 4 / 3, 3 / 2, 2.0, 7 / 3, 4.0, math.inf]


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


def _oracle_draws(rng, shape):
    """Mixed-sign values whose magnitudes span 1e-5 to 1e5, then all zeros."""
    # a reassociated product changes the last bit of only some norms, so
    # the oracle needs many draws to see it
    for _ in range(40):
        yield rng.standard_normal(shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)
    yield np.zeros(shape)


@pytest.mark.parametrize("pf", ORACLE_PS)
def test_norms_bit_equal_to_reference_expressions(pf):
    rng = np.random.default_rng(11)
    for shape in [(37,), (9, 14)]:
        weight = rng.uniform(0.1, 2.0, shape)
        for v in _oracle_draws(rng, shape):
            assert _weighted_norm(weight, v, pf) == _ref_weighted_norm(weight, v, pf)
    line, torus, plane = make_real_line(0.25, 4.0), make_torus(16), make_plane(0.5, 2.0)
    for v in _oracle_draws(rng, 4 * line.size + 1):
        result = LinePWL(line, -8.0, line.h, v)
        assert result.lp_norm(pf) == _ref_line_norm(v, line.h, pf)
    for v in _oracle_draws(rng, torus.size):
        assert TorusPWL(torus, v).lp_norm(pf) == _ref_torus_norm(v, torus.h, pf)
    n = 2 * plane.centers.size + 1
    for v in _oracle_draws(rng, (n, n)):
        result = PlanePWL(plane, -4.0, plane.h, v)
        assert result.lp_norm(pf) == _ref_plane_norm(v, plane.h, pf)


# Row-loop oracles: the affine kernels as first written, with one inverse
# FFT per phi2 row (forward, A*) or per output row (B*).  The kernels now
# sum the forward and A* rows in the frequency domain before one inverse,
# which moves the last bits; B* must agree exactly.


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
