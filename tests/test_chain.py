import warnings

import numpy as np
import pytest

from youngconv.chain import (
    ChainError,
    build_coset_functionals,
    chain_check,
    generalized_holder,
    identity_checks,
)
from youngconv.convolution import young_ratio
from youngconv.exponents import young_p
from youngconv.groups import (
    GroupFunction,
    GroupModelError,
    affine_prime_field,
    cyclic_group,
    finite_product,
)
from youngconv.quotient import build_subgroup_pair, corrupt_delta

TRIPLES = [young_p("4/3", "4/3"), young_p("3/2", "3/2"), young_p("5/4", "10/7")]


def _pairs():
    af5 = affine_prime_field(5)
    return [
        build_subgroup_pair(cyclic_group(6), [0, 3]),
        build_subgroup_pair(af5, list(range(5))),
        build_subgroup_pair(af5, [(a - 1) * 5 for a in range(1, 5)]),
    ]


# Scalar reference implementations of the coset functionals, the fiber
# tensor F and the t u norms: one group element at a time, each with its
# own index arithmetic.


def _ref_stu(pair, ex, v1, v2):
    g = pair.group
    h_idx = pair.h_indices
    delta = pair.delta
    delta_h = delta[h_idx]
    big_delta = g.delta
    p1f, p2f = float(ex.p1), float(ex.p2)
    reps = pair.reps
    nx = reps.size
    inv_reps = g.inv[reps]
    s_mat = np.empty(nx)
    t_mat = np.empty((nx, nx))
    u_mat = np.empty((nx, nx))
    for x, rep in enumerate(reps):
        hg = g.table[h_idx, rep]
        s_mat[x] = float(np.sum(v1[hg] ** p1f)) * delta[rep]
    for x, rep in enumerate(reps):
        ginv = inv_reps[x]
        for xp, repp in enumerate(reps):
            mids = g.table[np.full_like(h_idx, ginv), g.table[h_idx, repp]]
            powers = v2[mids] ** p2f
            t_mat[x, xp] = float(np.sum(powers)) * delta[repp]
            u_mat[x, xp] = float(
                np.sum(powers * big_delta[mids] / delta_h)
            ) * delta[rep]
    return s_mat, t_mat, u_mat


def _ref_fiber_f(pair, ex, v1, v2):
    """F(x, h', x') = sum_h s t u delta(h^-1 h')^(1/p1') at representatives."""
    g = pair.group
    h_idx = pair.h_indices
    delta = pair.delta
    big_delta = g.delta
    reps = pair.reps
    inv_reps = g.inv[reps]
    p1f, p2f, pf = float(ex.p1), float(ex.p2), float(ex.p)
    inv_p1c = 1.0 - 1.0 / p1f
    nx, nh = reps.size, h_idx.size
    f = np.zeros((nx, nh, nx))
    for x, rep in enumerate(reps):
        s_vals = v1[g.table[h_idx, rep]] * delta[rep] ** (1.0 / p1f)
        for hp_i, hp in enumerate(h_idx):
            hp_inv = g.inv[hp]
            for xp, repp in enumerate(reps):
                total = 0.0
                for h_i, h in enumerate(h_idx):
                    # t((h'^-1 h) g_x, g_x')
                    left = g.table[g.table[hp_inv, h], rep]
                    t_arg = g.table[g.inv[left], repp]
                    t_val = (v2[t_arg] ** p2f * delta[repp]) ** (1.0 / pf)
                    # u(g_x, h^-1 h', g_x')
                    k = g.table[g.inv[h], hp]
                    mid = g.table[g.table[inv_reps[x], k], repp]
                    u_val = (
                        v2[mid] ** p2f * big_delta[mid] * delta[rep] / delta[k]
                    ) ** inv_p1c
                    total += s_vals[h_i] * t_val * u_val * delta[k] ** inv_p1c
                f[x, hp_i, xp] = total
    return f


def _ref_tu_norms(pair, ex, v2):
    """||h -> t(h^-1 g_x, g_x') u(g_x, h, g_x')||_{p2, H} for all (x, x')."""
    g = pair.group
    h_idx = pair.h_indices
    delta = pair.delta
    big_delta = g.delta
    reps = pair.reps
    inv_reps = g.inv[reps]
    p1f, p2f, pf = float(ex.p1), float(ex.p2), float(ex.p)
    inv_p1c = 1.0 - 1.0 / p1f
    nx = reps.size
    out = np.empty((nx, nx))
    for x, rep in enumerate(reps):
        for xp, repp in enumerate(reps):
            total = 0.0
            for h in h_idx:
                left = g.table[g.inv[h], rep]
                t_arg = g.table[g.inv[left], repp]
                t_val = (v2[t_arg] ** p2f * delta[repp]) ** (1.0 / pf)
                mid = g.table[g.table[inv_reps[x], h], repp]
                u_val = (
                    v2[mid] ** p2f * big_delta[mid] * delta[rep] / delta[h]
                ) ** inv_p1c
                total += (t_val * u_val) ** p2f
            out[x, xp] = total ** (1.0 / p2f)
    return out


def _assert_matches_reference(po):
    s_mat, t_mat, u_mat = _ref_stu(po.pair, po.ex, po.phi1, po.phi2)
    np.testing.assert_array_equal(po.S, s_mat)
    np.testing.assert_array_equal(po.T, t_mat)
    np.testing.assert_array_equal(po.U, u_mat)
    np.testing.assert_allclose(
        po.F, _ref_fiber_f(po.pair, po.ex, po.phi1, po.phi2), rtol=1e-13
    )
    np.testing.assert_allclose(
        po.tu_norm, _ref_tu_norms(po.pair, po.ex, po.phi2), rtol=1e-13
    )


def test_vectorized_chain_matches_scalar_reference():
    rng = np.random.default_rng(6)
    for pair in _pairs():
        g = pair.group
        for candidate in (pair, corrupt_delta(pair)):
            for ex in TRIPLES:
                f1 = GroupFunction(g, 0.05 + rng.random(g.shape))
                f2 = GroupFunction(g, 0.05 + rng.random(g.shape))
                _assert_matches_reference(build_coset_functionals(candidate, ex, f1, f2))
    # functions with zeros, the case of test_functions_with_zeros_allowed
    pair = build_subgroup_pair(cyclic_group(6), [0, 3])
    f1 = GroupFunction(pair.group, np.array([0.0, 1.0, 0.0, 2.0, 0.0, 0.5]))
    f2 = GroupFunction(pair.group, np.array([1.0, 0.0, 0.0, 0.0, 3.0, 0.0]))
    for ex in TRIPLES:
        _assert_matches_reference(build_coset_functionals(pair, ex, f1, f2))


def test_identities_and_chain_random_instances():
    rng = np.random.default_rng(0)
    for pair in _pairs():
        g = pair.group
        for ex in TRIPLES:
            for _ in range(10):
                f1 = GroupFunction(g, 0.05 + rng.random(g.shape))
                f2 = GroupFunction(g, 0.05 + rng.random(g.shape))
                po = build_coset_functionals(pair, ex, f1, f2)
                assert po.rep_independence_residual <= 1e-12
                for check in identity_checks(po):
                    assert check.passed, str(check)
                report = chain_check(po, 1.0)
                assert report.passed, report.first_failure
                assert report.end_to_end_lhs <= 1.0 + 1e-10


def test_functions_with_zeros_allowed():
    pair = build_subgroup_pair(cyclic_group(6), [0, 3])
    g = pair.group
    f1 = GroupFunction(g, np.array([0.0, 1.0, 0.0, 2.0, 0.0, 0.5]))
    f2 = GroupFunction(g, np.array([1.0, 0.0, 0.0, 0.0, 3.0, 0.0]))
    ex = young_p("4/3", "4/3")
    po = build_coset_functionals(pair, ex, f1, f2)
    assert all(c.passed for c in identity_checks(po))
    assert chain_check(po, 1.0).passed


def test_chain_cross_checks_direct_ratio():
    rng = np.random.default_rng(1)
    pair = build_subgroup_pair(affine_prime_field(5), list(range(5)))
    g = pair.group
    ex = young_p("4/3", "4/3")
    f1 = GroupFunction(g, rng.random(20))
    f2 = GroupFunction(g, rng.random(20))
    po = build_coset_functionals(pair, ex, f1, f2)
    report = chain_check(po, 1.0)
    ratio = young_ratio(f1, f2, ex)
    np.testing.assert_allclose(report.direct_norm, ratio, rtol=1e-10)
    np.testing.assert_allclose(report.end_to_end_lhs, ratio, rtol=1e-10)


def test_degenerate_subgroups():
    rng = np.random.default_rng(2)
    z6 = cyclic_group(6)
    ex = young_p("3/2", "3/2")
    for spec in (list(range(6)), [0]):
        pair = build_subgroup_pair(z6, spec)
        f1 = GroupFunction(z6, rng.random(6))
        f2 = GroupFunction(z6, rng.random(6))
        po = build_coset_functionals(pair, ex, f1, f2)
        assert all(c.passed for c in identity_checks(po))
        assert chain_check(po, 1.0).passed


def test_corrupted_delta_fails():
    rng = np.random.default_rng(3)
    pair = corrupt_delta(build_subgroup_pair(cyclic_group(6), [0, 3]))
    g = pair.group
    ex = young_p("4/3", "4/3")
    f1 = GroupFunction(g, 0.1 + rng.random(6))
    f2 = GroupFunction(g, 0.1 + rng.random(6))
    po = build_coset_functionals(pair, ex, f1, f2)
    assert not all(c.passed for c in identity_checks(po))
    assert not chain_check(po, 1.0).passed


def test_rejects_bad_inputs():
    pair = build_subgroup_pair(cyclic_group(6), [0, 3])
    g = pair.group
    with pytest.raises(ChainError):  # boundary triple
        build_coset_functionals(
            pair, young_p(2, 2), GroupFunction(g, np.ones(6)), GroupFunction(g, np.ones(6))
        )
    with pytest.raises(ChainError):  # negative values
        build_coset_functionals(
            pair,
            young_p("4/3", "4/3"),
            GroupFunction(g, np.array([1.0, -1.0, 1, 1, 1, 1])),
            GroupFunction(g, np.ones(6)),
        )


def test_functions_on_another_model_are_refused():
    pair = build_subgroup_pair(cyclic_group(6), [0, 3])
    z2z3 = finite_product(cyclic_group(2), cyclic_group(3))
    own, other = GroupFunction(pair.group, np.ones(6)), GroupFunction(z2z3, np.ones(6))
    for phi1, phi2 in [(other, own), (own, other)]:
        with pytest.raises(GroupModelError, match="does not live on"):
            build_coset_functionals(pair, young_p("4/3", "4/3"), phi1, phi2)


def test_zero_function_is_refused_before_dividing():
    # a zero phi1 or phi2 used to divide 0 by 0 (RuntimeWarning) and then
    # fail as a "non-finite coset functional"
    pair = build_subgroup_pair(cyclic_group(6), [0, 3])
    g = pair.group
    ex = young_p("4/3", "4/3")
    zero, one = GroupFunction(g, np.zeros(6)), GroupFunction(g, np.ones(6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChainError, match="phi1 is the zero function"):
            build_coset_functionals(pair, ex, zero, one)
        with pytest.raises(ChainError, match="phi2 is the zero function"):
            build_coset_functionals(pair, ex, one, zero)
        stack = np.ones((3, 6))
        stack[2] = 0.0
        with pytest.raises(ChainError, match=r"phi2 is the zero function in row \[2\]"):
            build_coset_functionals(pair, ex, np.ones((3, 6)), stack)


def test_stack_rejects_mismatched_or_non_finite_values():
    pair = build_subgroup_pair(cyclic_group(6), [0, 3])
    ex = young_p("4/3", "4/3")
    with pytest.raises(ChainError, match="stacks differ"):
        build_coset_functionals(pair, ex, np.ones((2, 6)), np.ones((3, 6)))
    with pytest.raises(ChainError, match="do not end in"):
        build_coset_functionals(pair, ex, np.ones((2, 5)), np.ones((2, 5)))
    bad = np.ones((2, 6))
    bad[1, 3] = np.nan
    with pytest.raises(ChainError, match="non-finite"):
        build_coset_functionals(pair, ex, np.ones((2, 6)), bad)


@pytest.mark.parametrize("stack", [(1,), (3,), (17,), (2, 3)])
def test_stack_row_gets_the_residuals_of_the_lone_instance(stack):
    # every array, norm and residual of a stacked instance has the bits the
    # same instance gets alone; reports on the stack carry the worst row
    rng = np.random.default_rng(7)
    for pair in _pairs():
        g = pair.group
        for candidate in (pair, corrupt_delta(pair)):
            for ex in TRIPLES:
                v = 0.05 + rng.random(stack + (2,) + g.shape)
                po = build_coset_functionals(candidate, ex, v[..., 0, :], v[..., 1, :])
                ids, report = identity_checks(po), chain_check(po, 1.0)
                for row in np.ndindex(stack):
                    lone = build_coset_functionals(
                        candidate,
                        ex,
                        GroupFunction(g, v[row][0].copy()),
                        GroupFunction(g, v[row][1].copy()),
                    )
                    for name in ("phi1", "phi2", "S", "T", "U", "F", "tu_norm"):
                        assert np.array_equal(getattr(po, name)[row], getattr(lone, name)), name
                    assert np.array_equal(po.psi.values[row], lone.psi.values)
                    assert po.rep_independence_residual[row] == lone.rep_independence_residual
                    lone_report = chain_check(lone, 1.0)
                    lone_checks = identity_checks(lone) + lone_report.steps
                    for check, want in zip(ids + report.steps, lone_checks):
                        assert check.rows[row] == want.residual, (check.name, row)
                    assert report.end_to_end_lhs[row] == lone_report.end_to_end_lhs
                    assert report.direct_norm[row] == lone_report.direct_norm
                for check in ids + report.steps:
                    assert check.residual == check.rows.max()


def test_generalized_holder_basic():
    rng = np.random.default_rng(4)
    w = rng.random(12)
    f = [rng.random(12) for _ in range(3)]
    # single factor: equality
    assert generalized_holder(w, f[:2], [[0.7, 1.9]], [3.0]) == pytest.approx(0.0, abs=1e-12)
    # classical two-factor Hoelder over 100 draws
    for _ in range(100):
        a, b = rng.random(12), rng.random(12)
        gap = generalized_holder(w, [a, b], [[2.0, 0.0], [0.0, 2.0]], [0.5, 0.5])
        assert gap >= -1e-12


def test_generalized_holder_chain_weight_pattern():
    # the exact weight pattern of the coset-space Hoelder step:
    # factors (S, T, U), rows S / U / S*T, weights (p/p2', p/p1', 1)
    rng = np.random.default_rng(5)
    for ex in TRIPLES:
        p = float(ex.p)
        c1 = p * (1.0 - float(ex.p2.inv))  # p / p2'
        c2 = p * (1.0 - float(ex.p1.inv))  # p / p1'
        assert c1 + c2 + 1.0 == pytest.approx(p, rel=1e-12)
        for _ in range(100):
            w = rng.random(8)
            s, t, u = rng.random(8), rng.random(8), rng.random(8)
            gap = generalized_holder(
                w,
                [s, t, u],
                [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
                [c1, c2, 1.0],
            )
            assert gap >= -1e-12


def test_generalized_holder_validation():
    with pytest.raises(ValueError):
        generalized_holder([1.0], [[1.0]], [[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError):
        generalized_holder([1.0], [[1.0]], [[1.0]], [-1.0])
