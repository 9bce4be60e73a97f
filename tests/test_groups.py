import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from youngconv.groups import (
    GroupFunction,
    GroupModelError,
    affine_prime_field,
    check_modular_identity,
    cyclic_group,
    finite_product,
    load_group_table,
    make_affine_group,
    make_finite_group,
    make_integer_line,
    make_plane,
    make_real_line,
    make_torus,
)


def test_cyclic_group_basics():
    z6 = cyclic_group(6)
    assert z6.size == 6
    assert z6.identity == 0
    assert np.all(z6.delta == 1.0)
    assert np.all(z6.weight == 1.0)
    assert z6.op(2, 5) == 1
    assert z6.inv_index(2) == 4


def test_affine_field_nonabelian():
    af3 = affine_prime_field(3)
    assert af3.size == 6  # q(q-1)
    t = af3.table
    assert np.any(t != t.T)
    af5 = affine_prime_field(5)
    assert af5.size == 20
    with pytest.raises(GroupModelError):
        affine_prime_field(4)


def test_finite_product_is_group():
    z2z3 = finite_product(cyclic_group(2), cyclic_group(3))
    assert z2z3.size == 6
    # Z/2 x Z/3 is cyclic of order 6: some element has order 6
    orders = []
    for g in range(6):
        k, x = 1, g
        while x != z2z3.identity:
            x = z2z3.op(x, g)
            k += 1
        orders.append(k)
    assert max(orders) == 6


def test_malformed_tables_rejected():
    with pytest.raises(GroupModelError):  # not associative
        make_finite_group([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    # associativity is checked in blocks of rows from n = 65 on; Z/70 with two
    # entries of its last row swapped has an identity but is not a group
    table = cyclic_group(70).table.copy()
    table[69, [1, 2]] = table[69, [2, 1]]
    with pytest.raises(GroupModelError, match="not associative"):
        make_finite_group(table)
    with pytest.raises(GroupModelError):  # no identity
        make_finite_group([[1, 1], [1, 1]])
    with pytest.raises(GroupModelError):  # out of range entries
        make_finite_group([[0, 1], [1, 5]])
    with pytest.raises(GroupModelError):
        make_finite_group(np.zeros((2, 3), dtype=int))


def test_group_table_check_memory_is_quadratic():
    # the associativity check gathers blocks of rows: the whole (n, n, n)
    # gather of Z/200 once peaked at 136 MB, and Z/1000 would ask for 17 GB
    table = cyclic_group(200).table
    tracemalloc.start()
    try:
        make_finite_group(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_tables_from_a_group_law_skip_the_associativity_check():
    # the O(n^3) check took about 14 s on Z/1000; a table computed from a
    # group law is associative by construction (a table given as data is
    # still checked: test_malformed_tables_rejected)
    start = time.perf_counter()
    z = cyclic_group(1000)
    assert time.perf_counter() - start < 0.5
    assert z.op(999, 2) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build", [
    lambda: make_real_line(1e-300, 1e-300),
    lambda: make_real_line(1e-200, 2e-200),
    lambda: make_plane(1e-160, 1e-160),
    lambda: make_affine_group(0.5, 1.0, 1e-160, 1e-160),
])
def test_cells_too_small_for_unit_norm_functions_rejected(build):
    # a function of unit norm reaches about 1/mass on a cell, and the
    # convolution multiplies two of them: the model refuses the grid
    with pytest.raises(GroupModelError, match="Haar mass"):
        build()


def test_left_translation_permutes_and_preserves_sums():
    g = affine_prime_field(5)
    rng = np.random.default_rng(0)
    vals = rng.random(g.size)
    for a in (1, 7, 13):
        translated = vals[g.table[a]]
        assert sorted(translated) == pytest.approx(sorted(vals))
        assert translated.sum() == pytest.approx(vals.sum(), rel=1e-15)


def test_real_line_grid():
    line = make_real_line(0.5, 2.0)
    assert line.size == 8
    np.testing.assert_allclose(line.total_mass, 4.0, rtol=1e-12)
    fine = make_real_line(0.05, 8.0)
    assert fine.size == 320
    for bad in [(0.0, 1.0), (-0.1, 1.0), (0.3, 1.0)]:
        with pytest.raises(GroupModelError):
            make_real_line(*bad)
    # a non-finite cell width or window is refused before any grid is formed
    # (an infinite width once gave an empty carrier, or NaN cell centers)
    inf, nan = math.inf, math.nan
    for make, args in [
        (make_real_line, (inf, 1.0)), (make_real_line, (nan, 1.0)),
        (make_real_line, (0.5, inf)), (make_real_line, (0.5, nan)),
        (make_plane, (inf, 1.0)), (make_plane, (0.5, inf)),
        (make_affine_group, (inf, 1.0, 0.5, 1.0)), (make_affine_group, (0.5, 1.0, inf, 1.0)),
        (make_affine_group, (0.5, inf, 0.5, 1.0)), (make_affine_group, (0.5, 1.0, 0.5, nan)),
    ]:
        with pytest.raises(GroupModelError, match="finite"):
            make(*args)


def test_torus_and_integer_line():
    t = make_torus(16)
    np.testing.assert_allclose(t.total_mass, 1.0, rtol=1e-12)
    z = make_integer_line(10)
    assert z.size == 21
    assert z.total_mass == 21.0


def test_affine_grid_conventions():
    aff = make_affine_group(0.1, 1.0, 0.1, 2.0)
    # Delta is a homomorphism in exact coordinates
    g1, g2 = (0.3, 0.5), (-0.2, 1.1)
    prod = aff.op_coords(g1, g2)
    np.testing.assert_allclose(
        aff.delta_at(prod), aff.delta_at(g1) * aff.delta_at(g2), rtol=1e-12
    )
    np.testing.assert_allclose(aff.delta_at((0.0, 0.0)), 1.0)
    # product rule matches (a1 a2, a1 b2 + b1)
    a1, b1 = math.exp(g1[0]), g1[1]
    a2, b2 = math.exp(g2[0]), g2[1]
    np.testing.assert_allclose(math.exp(prod[0]), a1 * a2, rtol=1e-12)
    np.testing.assert_allclose(prod[1], a1 * b2 + b1, rtol=1e-12)
    # exact cell masses: total = (int e^-u du) * 2B over the padded window
    u_lo = -1.0 - 0.05
    u_hi = 1.0 + 0.05
    expected = (math.exp(-u_lo) - math.exp(-u_hi)) * 4.0
    np.testing.assert_allclose(aff.total_mass, expected, rtol=1e-12)
    assert np.all(aff.weight > 0)


def test_affine_delta_product_literal():
    # Delta((2,0)(3,5)) = Delta(2,0) Delta(3,5) = 1/6
    aff = make_affine_group(0.1, 2.0, 0.1, 8.0)
    g1 = (math.log(2.0), 0.0)
    g2 = (math.log(3.0), 5.0)
    np.testing.assert_allclose(aff.delta_at(aff.op_coords(g1, g2)), 1.0 / 6.0, rtol=1e-12)


def test_affine_left_translate_preserves_integral():
    # translating a bump by a fixed group element moves cell mass around
    # but keeps the total integral; measured with interpolated readback of
    # the smooth profile, the residual at h = 0.02 sits below 1e-3
    from youngconv.convolution import _interp_rows

    aff = make_affine_group(0.02, 1.2, 0.02, 3.0)
    uu = aff.u_centers[:, None]
    bb = aff.b_centers[None, :]
    bump = np.exp(-(uu**2) / (2 * 0.25**2) - bb**2 / (2 * 0.4**2))
    total = float(np.sum(aff.weight * bump))
    g0 = (0.1, 0.2)
    inv_g0 = aff.inv_coords(g0)
    # value of the translated function at each carrier point: phi(g0^-1 g)
    u_shift, b_fac = inv_g0[0], math.exp(inv_g0[0])
    rows = aff.u_index(aff.u_centers + u_shift)
    assert np.all((rows >= 0) | (np.abs(aff.u_centers + u_shift) > aff.u_half_width))
    positions = b_fac * bb + inv_g0[1] + 0.0 * uu
    translated = _interp_rows(
        bump, np.clip(rows, 0, None)[:, None], positions, aff.b_centers[0], aff.h_b
    )
    translated[rows < 0] = 0.0
    moved = float(np.sum(aff.weight * translated))
    assert abs(moved - total) / total < 1e-3


def test_modular_identity_exact_kinds():
    rng = np.random.default_rng(5)
    for model in [
        cyclic_group(6),
        affine_prime_field(5),
        make_torus(12),
        make_real_line(0.25, 2.0),
        make_integer_line(6),
        make_plane(0.5, 1.0),
    ]:
        phi = GroupFunction(model, rng.random(model.shape))
        assert check_modular_identity(model, phi) <= 1e-12


def test_modular_identity_zero_function_guard():
    z6 = cyclic_group(6)
    assert check_modular_identity(z6, GroupFunction(z6, np.zeros(6))) == 0.0


def _affine_bump(model):
    # inversion stretches the b support by e^U, so keep e^U * 3 s_b < B
    uu = model.u_centers[:, None]
    bb = model.b_centers[None, :]
    return np.exp(-(uu**2) / (2 * 0.25**2) - bb**2 / (2 * 0.18**2))


def test_modular_identity_affine_converges():
    residuals = []
    for h in (0.1, 0.05, 0.025):
        aff = make_affine_group(h, 1.0, h, 2.0)
        phi = GroupFunction(aff, _affine_bump(aff))
        residuals.append(check_modular_identity(aff, phi))
    assert residuals[-1] < 1e-3
    # roughly first-order: each halving of h should shrink the residual
    assert residuals[2] < residuals[1] < residuals[0]
    assert residuals[0] / residuals[2] > 2.5


def test_group_function_validation():
    z6 = cyclic_group(6)
    with pytest.raises(GroupModelError):
        GroupFunction(z6, np.ones(5))
    with pytest.raises(GroupModelError):
        GroupFunction(z6, [1, 2, 3, 4, 5, np.inf])


def test_group_table_file(tmp_path):
    z4 = cyclic_group(4)
    path = tmp_path / "z4.json"
    path.write_text(json.dumps({"name": "Z4", "table": z4.table.tolist()}))
    loaded = load_group_table(path)
    assert loaded.size == 4
    assert loaded.name == "Z4"
    path.write_text(json.dumps({"table": z4.table.tolist(), "extra": 1}))
    with pytest.raises(GroupModelError):
        load_group_table(path)
