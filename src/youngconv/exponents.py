"""Extended Lebesgue exponents with exact rational arithmetic.

An exponent p lives in [1, inf] with inf represented exactly (never as a
large float).  Internally everything is stored as the reciprocal 1/p, a
``Fraction`` in [0, 1], so Hoelder conjugation and the convolution exponent
relation 1/p1 + 1/p2 = 1 + 1/p are exact whenever the inputs are rational.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction


class ExponentError(ValueError):
    """Exponent outside [1, inf] or an inadmissible exponent pair."""


def _parse_inverse(value) -> Fraction:
    """Return 1/value as an exact Fraction, with 1/inf := 0."""
    if isinstance(value, Exponent):
        return value.inv
    if isinstance(value, str):
        token = value.strip().lower()
        if token in ("inf", "infinity", "oo"):
            return Fraction(0)
        try:
            value = Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise ExponentError(f"cannot parse exponent {value!r}") from exc
    if isinstance(value, float):
        if math.isinf(value):
            return Fraction(0)
        if math.isnan(value):
            raise ExponentError("exponent is NaN")
        value = Fraction(value)
    if isinstance(value, (int, Fraction)):
        if value < 1:
            raise ExponentError(f"exponent must be >= 1, got {value}")
        return Fraction(1) / Fraction(value)
    raise ExponentError(f"unsupported exponent type {type(value).__name__}")


def _float_of(inv: Fraction, given=None) -> float:
    """p = 1/inv as a float, inf for inv = 0; cached on every Exponent because
    the estimator's inner loop asks for it on each step.  A finite p past
    the largest float is refused, named as ``given`` or by its size."""
    try:
        return math.inf if inv == 0 else float(1 / inv)
    except OverflowError:
        if given is None:
            given = f"of about 1e{math.log10(inv.denominator) - math.log10(inv.numerator):.0f}"
        raise ExponentError(f"exponent {given} is too large for a float; use inf") from None


class Exponent:
    """An exponent in [1, inf], exact for rational inputs and for inf."""

    __slots__ = ("_inv", "_float")

    def __init__(self, value):
        inv = _parse_inverse(value)
        if not (0 <= inv <= 1):
            raise ExponentError(f"exponent must lie in [1, inf], got 1/{inv}")
        self._inv = inv
        self._float = _float_of(inv, repr(value) if isinstance(value, str) else None)

    @classmethod
    def from_inverse(cls, inv: Fraction) -> "Exponent":
        if not (0 <= inv <= 1):
            raise ExponentError(f"reciprocal exponent must lie in [0, 1], got {inv}")
        obj = object.__new__(cls)
        obj._inv = Fraction(inv)
        obj._float = _float_of(obj._inv)
        return obj

    @property
    def inv(self) -> Fraction:
        """The reciprocal 1/p as an exact Fraction (0 means p = inf)."""
        return self._inv

    @property
    def is_inf(self) -> bool:
        return self._inv == 0

    @property
    def is_one(self) -> bool:
        return self._inv == 1

    @property
    def value(self):
        """p as a Fraction, or math.inf."""
        return math.inf if self.is_inf else 1 / self._inv

    def __float__(self) -> float:
        return self._float

    def conjugate(self) -> "Exponent":
        """The Hoelder conjugate p' with 1/p + 1/p' = 1 (exact)."""
        return Exponent.from_inverse(1 - self._inv)

    def __eq__(self, other) -> bool:
        if isinstance(other, Exponent):
            return self._inv == other._inv
        try:
            return self._inv == _parse_inverse(other)
        except ExponentError:
            return NotImplemented

    def __hash__(self) -> int:
        return hash(("Exponent", self._inv))

    def __str__(self) -> str:
        return "inf" if self.is_inf else str(1 / self._inv)

    def __repr__(self) -> str:
        return f"Exponent({self})"


def holder_conjugate(p) -> Exponent:
    """Hoelder conjugate of p: 1/p + 1/p' = 1, with 1' = inf and inf' = 1."""
    return Exponent(p).conjugate()


@dataclass(frozen=True, slots=True)
class YoungExponents:
    """A validated triple (p1, p2, p) with 1/p1 + 1/p2 = 1 + 1/p.

    ``boundary`` is true exactly when p1 = 1, p2 = 1 or p = inf; on those
    triples the optimal convolution constant is 1 on every locally compact
    group, so numeric paths special-case them.
    """

    p1: Exponent
    p2: Exponent
    p: Exponent

    _REL_TOL = Fraction(1, 10**12)

    def __post_init__(self):
        for name in ("p1", "p2", "p"):
            object.__setattr__(self, name, Exponent(getattr(self, name)))
        total = self.p1.inv + self.p2.inv
        if total < 1:
            raise ExponentError(f"inadmissible pair: 1/{self.p1} + 1/{self.p2} < 1")
        if abs(total - 1 - self.p.inv) > self._REL_TOL:
            raise ExponentError(
                f"exponent relation violated: 1/{self.p1} + 1/{self.p2} "
                f"!= 1 + 1/{self.p}"
            )

    @property
    def boundary(self) -> bool:
        return self.p1.is_one or self.p2.is_one or self.p.is_inf

    @property
    def interior(self) -> bool:
        return not self.boundary

    def swapped(self) -> "YoungExponents":
        """The triple with p1 and p2 exchanged (same p)."""
        return YoungExponents(self.p2, self.p1, self.p)

    def __repr__(self) -> str:
        return f"YoungExponents({self.p1}, {self.p2}; p={self.p})"


def young_p(p1, p2) -> YoungExponents:
    """Solve 1/p1 + 1/p2 = 1 + 1/p for p and return the validated triple.

    p comes out as exact inf when 1/p1 + 1/p2 = 1.  Raises ExponentError
    when 1/p1 + 1/p2 < 1 (no admissible p exists).  A triple is immutable,
    so one is kept for each pair of hashable arguments; an unhashable one
    is parsed afresh, and refused, as any other argument of its type is.
    """
    try:
        hash((p1, p2))
    except TypeError:
        return _young_p(p1, p2)
    return _young_p_kept(p1, p2)


def _young_p(p1, p2) -> YoungExponents:
    e1, e2 = Exponent(p1), Exponent(p2)
    inv_p = e1.inv + e2.inv - 1
    if inv_p < 0:
        raise ExponentError(f"inadmissible pair ({e1}, {e2}): 1/p1 + 1/p2 < 1")
    return YoungExponents(e1, e2, Exponent.from_inverse(inv_p))


_young_p_kept = functools.lru_cache(maxsize=256)(_young_p)
