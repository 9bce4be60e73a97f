import math

import numpy as np
import pytest

from youngconv.constants import (
    beckner_B,
    beckner_Y_Rn,
    boundary_value,
    neg_log_constant,
    product_bound,
)
from youngconv.exponents import ExponentError, young_p

# frozen 20-digit mpmath evaluations of the closed forms
B_4_3 = 0.87738267530166164055
B_3_2 = 0.90856029641606982945
B_5_4 = 0.86643105394393299110
Y_R_4_3 = 0.87738267530166164055  # = B(4/3), since B(2) = 1
Y_R_3_2 = 0.86602540378443864676  # = sqrt(3)/2 exactly
Y_R_5_4_10_7 = 0.88034089927188166298
NEG_LOG_Y = 0.13081203594113695913


def test_beckner_B_endpoints():
    assert beckner_B(1) == 1.0
    assert beckner_B("inf") == 1.0
    assert beckner_B(2) == 1.0


def test_beckner_B_frozen_values():
    np.testing.assert_allclose(beckner_B("4/3"), B_4_3, rtol=1e-14)
    np.testing.assert_allclose(beckner_B("3/2"), B_3_2, rtol=1e-14)
    np.testing.assert_allclose(beckner_B("5/4"), B_5_4, rtol=1e-14)


def test_beckner_B_conjugate_reciprocal():
    from youngconv.exponents import holder_conjugate

    for p in ("4/3", "3/2", "5/4", "10/7", 3, 7):
        np.testing.assert_allclose(
            beckner_B(p) * beckner_B(holder_conjugate(p)), 1.0, rtol=1e-14
        )


def test_mpmath_oracle_agreement():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30

    def oracle(p):
        p = mp.mpf(p)
        pc = p / (p - 1)
        return float(p ** (1 / p) / pc ** (1 / pc))

    np.testing.assert_allclose(beckner_B("4/3"), oracle(mp.mpf(4) / 3), rtol=1e-15)
    np.testing.assert_allclose(beckner_B("10/7"), oracle(mp.mpf(10) / 7), rtol=1e-15)


def test_Y_Rn_values():
    np.testing.assert_allclose(beckner_Y_Rn("4/3", "4/3", 1), Y_R_4_3, rtol=1e-14)
    np.testing.assert_allclose(beckner_Y_Rn("3/2", "3/2", 1), Y_R_3_2, rtol=1e-14)
    np.testing.assert_allclose(
        beckner_Y_Rn("5/4", "10/7", 1), Y_R_5_4_10_7, rtol=1e-14
    )
    assert beckner_Y_Rn(2, 2, 5) == 1.0
    np.testing.assert_allclose(
        beckner_Y_Rn("4/3", "4/3", 2), Y_R_4_3**2, rtol=1e-12
    )


def test_Y_Rn_symmetry_and_power_law():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = 1 + rng.integers(1, 40)
        b = 1 + rng.integers(1, 40)
        p1 = f"{a + 40}/{40}"
        p2 = f"{b + 40}/{40}"
        try:
            y1 = beckner_Y_Rn(p1, p2, 1)
        except ExponentError:
            continue
        assert beckner_Y_Rn(p2, p1, 1) == y1  # exact symmetry of the formula
        np.testing.assert_allclose(beckner_Y_Rn(p1, p2, 3), y1**3, rtol=1e-12)
        assert 0 < y1 <= 1
        assert (y1 == 1.0) == young_p(p1, p2).boundary


def test_boundary_value():
    assert boundary_value(young_p(1, "3/2")) == 1.0
    assert boundary_value(young_p("3/2", 1)) == 1.0
    assert boundary_value(young_p(2, 2)) == 1.0
    assert boundary_value(young_p("4/3", "4/3")) is None


def test_product_bound_and_neg_log():
    y = beckner_Y_Rn("4/3", "4/3", 1)
    np.testing.assert_allclose(product_bound(y, y), beckner_Y_Rn("4/3", "4/3", 2), rtol=1e-12)
    assert product_bound(1.0, 0.5) == 0.5
    np.testing.assert_allclose(neg_log_constant(y), NEG_LOG_Y, rtol=1e-12)
    assert neg_log_constant(1.0) == 0.0
    assert math.copysign(1.0, neg_log_constant(1.0)) == 1.0  # +0.0, not -0.0
    np.testing.assert_allclose(
        neg_log_constant(product_bound(y, 0.9)),
        neg_log_constant(y) + neg_log_constant(0.9),
        rtol=1e-12,
    )
    for bad in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            neg_log_constant(bad)
        with pytest.raises(ValueError):
            product_bound(bad, 0.5)
