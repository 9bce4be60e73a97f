import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from youngconv.exponents import (
    Exponent,
    ExponentError,
    YoungExponents,
    holder_conjugate,
    young_p,
)


def test_parsing_forms():
    assert Exponent(2).value == Fraction(2)
    assert Exponent("4/3").inv == Fraction(3, 4)
    assert Exponent("inf").is_inf
    assert Exponent(math.inf).is_inf
    assert Exponent(Fraction(5, 4)).inv == Fraction(4, 5)
    assert float(Exponent("inf")) == math.inf
    assert Exponent(1.5).inv == Fraction(2, 3)


@pytest.mark.parametrize("bad", [0.5, 0, -2, "junk", float("nan"), "1/0"])
def test_parsing_rejects(bad):
    with pytest.raises(ExponentError):
        Exponent(bad)


@pytest.mark.parametrize("make", [
    lambda: Exponent("1e400"),
    lambda: Exponent(10**400),
    lambda: Exponent(Fraction(10**400, 3)),
    lambda: young_p("1e400", "4/3"),
    lambda: Exponent("1." + "0" * 400 + "1").conjugate(),  # p' of about 1e401
], ids=["string", "int", "fraction", "young_p", "conjugate"])
def test_a_finite_exponent_past_the_largest_float_is_refused(make):
    # its float would read as inf, which is not the exponent
    with pytest.raises(ExponentError, match="too large for a float"):
        make()


def test_an_exponent_near_the_largest_float_is_kept():
    assert float(Exponent("1e308")) == 1e308


def test_conjugate_endpoints_exact():
    assert holder_conjugate(1).is_inf
    assert holder_conjugate("inf").is_one
    assert holder_conjugate(2) == Exponent(2)
    assert holder_conjugate("4/3") == Exponent(4)


@given(
    st.fractions(
        min_value=Fraction(1), max_value=Fraction(100), max_denominator=1000
    )
)
def test_conjugate_involution(q):
    e = Exponent(q)
    assert e.conjugate().conjugate() == e  # exact, rational arithmetic


def test_young_p_examples():
    assert young_p("4/3", "4/3").p == Exponent(2)
    for q in ("1", "3/2", "7/2", "inf"):
        assert young_p(1, q).p == Exponent(q)
    assert young_p(2, 2).p.is_inf


def test_young_p_rejects_inadmissible():
    with pytest.raises(ExponentError):
        young_p(3, 3)
    with pytest.raises(ExponentError):
        young_p("inf", 2)


def test_young_p_keeps_one_triple_per_hashable_pair():
    ex = young_p("4/3", "3/2")
    assert young_p("4/3", "3/2") is ex
    assert young_p(Fraction(4, 3), 1.5) == ex
    for _ in range(2):  # a refusal is not kept
        with pytest.raises(ExponentError):
            young_p(3, 3)


@pytest.mark.parametrize("p1, p2", [([1], 2), (2, {"p": 2}), ([4, 3], [3, 2])])
def test_young_p_refuses_unhashable_arguments_as_exponents(p1, p2):
    # an ExponentError, not the TypeError of an unhashable cache key
    with pytest.raises(ExponentError):
        young_p(p1, p2)


def test_triple_validation():
    YoungExponents("4/3", "4/3", 2)
    with pytest.raises(ExponentError):
        YoungExponents("4/3", "4/3", "5/2")


def test_boundary_flags():
    assert young_p(1, "3/2").boundary
    assert young_p("3/2", 1).boundary
    assert young_p(2, 2).boundary
    assert not young_p("4/3", "4/3").boundary
    assert young_p("4/3", "4/3").interior


def test_swapped():
    ex = young_p("4/3", "3/2")
    sw = ex.swapped()
    assert sw.p1 == ex.p2 and sw.p2 == ex.p1 and sw.p == ex.p


def test_float_matches_exact_value_for_every_construction():
    built = [Exponent(q) for q in (1, "4/3", "7/3", 2.5, Fraction(10, 7), "inf", math.inf)]
    built += [Exponent.from_inverse(Fraction(k, 9)) for k in range(10)]
    built += [e.conjugate() for e in list(built)]
    for p1, p2 in (("4/3", "3/2"), ("5/4", "10/7"), (2, 2), (1, "7/2")):
        ex = young_p(p1, p2)
        built += [ex.p1, ex.p2, ex.p]
    for e in built:
        want = math.inf if e.inv == 0 else float(1 / e.inv)
        assert float(e) == want
