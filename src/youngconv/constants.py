"""Closed-form optimal constants of the convolution inequality.

Beckner's theorem gives the exact constant on R^n:

    Y(p1, p2; R^n) = (B(p1) B(p2) / B(p))^(n/2),
    B(p) = p^(1/p) / p'^(1/p')   for 1 < p < inf,  B(1) = B(inf) = 1,

with Gaussians as extremizers.  On boundary triples (p1 = 1, p2 = 1 or
p = inf) the constant is 1 on every locally compact group.
"""

from __future__ import annotations

import math

from .exponents import Exponent, YoungExponents, young_p


def beckner_B(p) -> float:
    """Beckner's B(p) = p^(1/p) / p'^(1/p'), with B(1) = B(inf) = 1."""
    e = Exponent(p)
    if e.is_one or e.is_inf:
        return 1.0
    ec = e.conjugate()
    pv, pcv = float(e), float(ec)
    return math.exp(math.log(pv) / pv - math.log(pcv) / pcv)


def beckner_Y_Rn(p1, p2, n: int = 1) -> float:
    """Exact optimal constant on R^n: (B(p1)B(p2)/B(p))^(n/2).

    Equals 1 exactly on boundary triples.  Raises ExponentError when
    1/p1 + 1/p2 < 1.
    """
    if n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n}")
    ex = young_p(p1, p2)
    if ex.boundary:
        return 1.0
    ratio = beckner_B(ex.p1) * beckner_B(ex.p2) / beckner_B(ex.p)
    return ratio ** (n / 2)


def boundary_value(ex: YoungExponents):
    """1.0 when the triple sits on the boundary, None otherwise."""
    return 1.0 if ex.boundary else None


def product_bound(y_sub: float, y_quot: float) -> float:
    """Upper bound for an extension group: the product of the two constants."""
    for y in (y_sub, y_quot):
        if not (0 < y <= 1):
            raise ValueError(f"constants must lie in (0, 1], got {y}")
    return y_sub * y_quot


def neg_log_constant(y: float) -> float:
    """-ln(y) for y in (0, 1]; additive under product_bound.  Exactly +0.0
    at y = 1 (negating ln 1 = 0.0 would give -0.0)."""
    if not (0 < y <= 1):
        raise ValueError(f"constant must lie in (0, 1], got {y}")
    return 0.0 - math.log(y)
