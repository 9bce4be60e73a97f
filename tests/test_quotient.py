import math

import numpy as np
import pytest

from youngconv.groups import (
    GroupFunction,
    affine_prime_field,
    cyclic_group,
    make_affine_group,
)
from youngconv.quotient import (
    SubgroupError,
    build_subgroup_pair,
    corrupt_delta,
    left_invariance_check,
    weil_decompose_check,
)

AFF_GRID = (0.02, 0.6, 0.02, 3.0)


def _bump(model, cu=0.0, cb=0.0, su=0.25, sb=0.5):
    uu = model.u_centers[:, None]
    bb = model.b_centers[None, :]
    return np.exp(-((uu - cu) ** 2) / (2 * su**2) - ((bb - cb) ** 2) / (2 * sb**2))


def test_z6_pair_structure():
    z6 = cyclic_group(6)
    pair = build_subgroup_pair(z6, [0, 3])
    assert pair.n_cosets == 3
    assert np.all(pair.delta == 1.0)
    assert np.all(pair.coset_measure == 1.0)
    np.testing.assert_array_equal(pair.reps, [0, 1, 2])


def test_finite_weil_exact_100_random():
    rng = np.random.default_rng(0)
    af5 = affine_prime_field(5)
    pairs = [
        build_subgroup_pair(cyclic_group(6), [0, 3]),
        build_subgroup_pair(af5, list(range(5))),          # translations
        build_subgroup_pair(af5, [(a - 1) * 5 for a in range(1, 5)]),  # dilations
    ]
    for pair in pairs:
        g = pair.group
        worst = max(
            weil_decompose_check(pair, GroupFunction(g, rng.random(g.shape)))
            for _ in range(100)
        )
        assert worst <= 1e-12


def test_finite_invariance_exact():
    af5 = affine_prime_field(5)
    pair = build_subgroup_pair(af5, list(range(5)))
    rng = np.random.default_rng(1)
    phi = GroupFunction(af5, rng.random(20))
    for h in pair.h_indices:
        assert left_invariance_check(pair, phi, int(h)) <= 1e-12


def test_invariance_rejects_non_member():
    pair = build_subgroup_pair(cyclic_group(6), [0, 3])
    phi = GroupFunction(pair.group, np.ones(6))
    with pytest.raises(SubgroupError):
        left_invariance_check(pair, phi, 2)


def test_bad_subgroup_specs():
    z6 = cyclic_group(6)
    with pytest.raises(SubgroupError):  # not closed
        build_subgroup_pair(z6, [0, 2])
    with pytest.raises(SubgroupError):  # missing inverses / not closed
        build_subgroup_pair(z6, [0, 1])
    with pytest.raises(SubgroupError):  # missing identity
        build_subgroup_pair(z6, [3])
    with pytest.raises(SubgroupError):
        build_subgroup_pair(z6, [])
    with pytest.raises(SubgroupError):
        build_subgroup_pair(z6, [0, 9])


def test_degenerate_pairs_reduce_to_plain_integral():
    z6 = cyclic_group(6)
    rng = np.random.default_rng(2)
    phi = GroupFunction(z6, rng.random(6))
    whole = build_subgroup_pair(z6, list(range(6)))
    assert whole.n_cosets == 1
    assert weil_decompose_check(whole, phi) <= 1e-15
    trivial = build_subgroup_pair(z6, [0])
    assert trivial.n_cosets == 6
    assert np.all(trivial.delta == 1.0)
    assert weil_decompose_check(trivial, phi) <= 1e-15


def test_affine_translations_pair():
    aff = make_affine_group(*AFF_GRID)
    pair = build_subgroup_pair(aff, "translations")
    # delta is the full modular function here, constant on the rows
    np.testing.assert_allclose(pair.delta, aff.delta, rtol=1e-14)
    # delta(e) = 1 and H-multiplicativity delta(h'g) = delta(h') delta(g):
    # translations have delta(h') = 1, so delta is constant on each coset
    e_row = (aff.n_u - 1) // 2
    np.testing.assert_allclose(pair.delta[e_row], 1.0, rtol=1e-14)
    assert np.all(pair.delta == pair.delta[:, :1])
    phi = GroupFunction(aff, _bump(aff, cb=0.2))
    assert weil_decompose_check(pair, phi) <= 1e-3
    assert left_invariance_check(pair, phi, -0.137) <= 1e-3
    # lattice-aligned translations are exact grid symmetries
    assert left_invariance_check(pair, phi, 5 * aff.h_b) <= 1e-14


def test_affine_dilations_pair():
    aff = make_affine_group(*AFF_GRID)
    pair = build_subgroup_pair(aff, "dilations")
    np.testing.assert_allclose(pair.delta, 1.0)
    phi = GroupFunction(aff, _bump(aff, su=0.15))
    assert weil_decompose_check(pair, phi) <= 1e-3
    assert left_invariance_check(pair, phi, 0.06) <= 1e-3


def test_affine_rejects_unknown_subgroup():
    aff = make_affine_group(0.1, 0.5, 0.1, 1.0)
    with pytest.raises(SubgroupError):
        build_subgroup_pair(aff, "rotations")


def test_corrupted_delta_detected():
    # +10% corruption must push residuals above the 0.05 detection line
    z6 = cyclic_group(6)
    pair = corrupt_delta(build_subgroup_pair(z6, [0, 3]))
    rng = np.random.default_rng(3)
    phi = GroupFunction(z6, 0.2 + rng.random(6))
    assert weil_decompose_check(pair, phi) > 0.05

    aff = make_affine_group(0.05, 0.6, 0.05, 3.0)
    tpair = corrupt_delta(build_subgroup_pair(aff, "translations"))
    phi = GroupFunction(aff, _bump(aff))
    assert weil_decompose_check(tpair, phi) > 0.05
    # the corruption covers b >= u: beta < 0 moves the comparison point off
    # it on the rows -0.15 < u <= 0
    assert left_invariance_check(tpair, phi, -0.15) > 0.05


# Per-coset references: one fiber at a time, each with its own lookups.


def _ref_delta_at(pair, u, b):
    m = pair.group
    row, col = int(m.u_index(u)), int(m.b_index(b))
    return 1.0 if row < 0 or col < 0 else float(pair.delta[row, col])


def _ref_translation_fiber(m, values, u, b):
    row = int(m.u_index(u))
    if row < 0:
        return 0.0
    cols = m.b_index(b + (np.arange(-m.n_b, m.n_b) + 0.5) * m.h_b)
    return float(m.h_b * values[row, cols[cols >= 0]].sum())


def _ref_dilation_fiber(m, values, u, b):
    rows = m.u_index(m.u_centers + u)
    cols = m.b_index(np.exp(m.u_centers) * b)
    ok = (rows >= 0) & (cols >= 0)
    return float(m.h_u * values[rows[ok], cols[ok]].sum()) if np.any(ok) else 0.0


def _ref_points(pair, h_element):
    """(u, b) of every representative, or of h_element times it."""
    m = pair.group
    if pair.kind == "affine_translations":
        b = 0.0 if h_element is None else float(h_element)
        return [(u, b) for u in m.u_centers]
    du = 0.0 if h_element is None else float(h_element)
    return [(du, math.exp(du) * c) for c in pair.c_centers]


def _ref_weil(pair, vals):
    m = pair.group
    fiber = _ref_translation_fiber if pair.kind == "affine_translations" else _ref_dilation_fiber
    lhs = sum(
        cm * fiber(m, vals, u, b) * _ref_delta_at(pair, u, b)
        for cm, (u, b) in zip(pair.coset_measure, _ref_points(pair, None))
    )
    rhs = float(np.sum(m.weight * vals))
    return abs(lhs - rhs) / float(np.sum(m.weight * np.abs(vals)))


def _ref_invariance(pair, vals, h_element):
    m = pair.group
    fiber = _ref_translation_fiber if pair.kind == "affine_translations" else _ref_dilation_fiber
    worst, scale = 0.0, 0.0
    for (u, b), (mu, mb) in zip(_ref_points(pair, None), _ref_points(pair, h_element)):
        a_rep = fiber(m, vals, u, b) * _ref_delta_at(pair, u, b)
        a_mov = fiber(m, vals, mu, mb) * _ref_delta_at(pair, mu, mb)
        worst = max(worst, abs(a_rep - a_mov))
        scale = max(scale, abs(a_rep))
    return worst / scale if scale > 0 else worst


def _ref_coset_measure(pair):
    m = pair.group
    ref = pair._reference_bump()
    if pair.kind == "affine_translations":
        raw = np.full(m.n_u, m.h_u)
        lhs = sum(
            raw[i] * _ref_translation_fiber(m, ref, u, 0.0) * _ref_delta_at(pair, u, 0.0)
            for i, u in enumerate(m.u_centers)
        )
    else:
        raw = np.full(pair.c_centers.size, pair.h_c)
        lhs = sum(
            raw[x] * _ref_dilation_fiber(m, ref, 0.0, c) for x, c in enumerate(pair.c_centers)
        )
    return raw * (float(np.sum(m.weight * ref)) / lhs)


@pytest.mark.parametrize("grid", [AFF_GRID, (0.1, 0.5, 0.1, 1.0), (0.25, 1.0, 0.5, 2.0)])
def test_gathered_fibers_equal_per_coset_reference(grid):
    # every coset's fiber comes from one gather, summed in the per-coset
    # order, so the residuals keep the bits of one fiber at a time; shifts
    # of both signs move fibers partly or wholly out of the window
    aff = make_affine_group(*grid)
    rng = np.random.default_rng(8)
    vals = [_bump(aff, cb=0.2), _bump(aff, su=0.15), rng.random(aff.shape)]
    for spec, shifts in (
        ("translations", (-0.137, 0.0, 5 * aff.h_b, 0.9 * aff.b_half_width, 3 * aff.b_half_width)),
        ("dilations", (-0.3, -0.06, 0.0, 0.06, 0.5, 3.0 * aff.u_half_width)),
    ):
        pair = build_subgroup_pair(aff, spec)
        assert np.array_equal(pair.coset_measure, _ref_coset_measure(pair))
        for pair in (pair, corrupt_delta(pair)):
            for v in vals:
                phi = GroupFunction(aff, v)
                assert weil_decompose_check(pair, phi) == _ref_weil(pair, v)
                for shift in shifts:
                    want = _ref_invariance(pair, v, shift)
                    assert left_invariance_check(pair, phi, shift) == want, (spec, shift)
