"""Field arithmetic, cyclotomic polynomials, parsing and printing."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, strategies as st

from fsind.scalars import (
    Cyclotomic,
    FieldMismatch,
    ParseError,
    RatFun,
    RATIONAL,
    RATIONAL_FUNCTION,
    cyclotomic_field,
    cyclotomic_poly,
    field_tag_from_string,
    parse_scalar,
    poly_divmod,
    poly_gcd,
    poly_mul,
    scalar_to_string,
    _gcd_heu,
    _primitive,
    _prs_gcd,
    _zmul,
)

F = Fraction


# --- cyclotomic polynomials -------------------------------------------------

def test_cyclotomic_poly_small_table():
    # classic table, x^k coefficient listed from degree 0 upward
    assert cyclotomic_poly(1) == (F(-1), F(1))
    assert cyclotomic_poly(2) == (F(1), F(1))
    assert cyclotomic_poly(3) == (F(1), F(1), F(1))
    assert cyclotomic_poly(4) == (F(1), F(0), F(1))
    assert cyclotomic_poly(5) == (F(1),) * 5
    assert cyclotomic_poly(6) == (F(1), F(-1), F(1))
    assert cyclotomic_poly(8) == (F(1), F(0), F(0), F(0), F(1))
    assert cyclotomic_poly(12) == (F(1), F(0), F(-1), F(0), F(1))


def test_cyclotomic_poly_product_identity():
    for n in range(1, 31):
        prod = (F(1),)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic_poly(d))
        expected = tuple([F(-1)] + [F(0)] * (n - 1) + [F(1)])
        assert prod == expected


def test_cyclotomic_poly_105_has_coefficient_minus_two():
    # first order where a coefficient other than 0, +-1 appears
    assert cyclotomic_poly(105)[7] == F(-2)


# --- scalar strategies -------------------------------------------------------

small_fractions = st.builds(
    F, st.integers(-20, 20), st.integers(1, 12))


def cyclotomics(order):
    deg = len(cyclotomic_poly(order)) - 1
    return st.builds(
        lambda cs: Cyclotomic(order, cs),
        st.lists(small_fractions, min_size=deg, max_size=deg))


small_polys = st.lists(small_fractions, min_size=0, max_size=7)
nonzero_polys = small_polys.filter(lambda cs: any(cs))
ratfuns = st.builds(lambda n, d: RatFun(n, d), small_polys, nonzero_polys)


@given(cyclotomics(12), cyclotomics(12), cyclotomics(12))
def test_cyclotomic_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert a - a == Cyclotomic(12, ())


@given(cyclotomics(5))
def test_cyclotomic_inverse(a):
    if a:
        assert a * a.inverse() == 1
        assert a ** -1 == a.inverse()


@given(ratfuns, ratfuns, ratfuns)
def test_ratfun_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == RatFun(())
    assert a * 1 == a


@given(ratfuns)
def test_ratfun_inverse_and_canonical_form(a):
    assert not a.den or a.den[-1] == 1
    if a:
        assert a * a.inverse() == 1
        assert poly_gcd(a.num, a.den) == (F(1),)


def _value_at(p, r):
    return sum(c * r ** i for i, c in enumerate(p))


@given(ratfuns, ratfuns, small_fractions)
def test_evaluation_is_a_ring_homomorphism(a, b, r):
    assume(_value_at(a.den, r) and _value_at(b.den, r))
    ar = _value_at(a.num, r) / _value_at(a.den, r)
    br = _value_at(b.num, r) / _value_at(b.den, r)

    def at(x):
        return _value_at(x.num, r) / _value_at(x.den, r)

    assert at(a + b) == ar + br
    assert at(a - b) == ar - br
    assert at(a * b) == ar * br
    assert at(-a) == -ar
    if br:
        assert at(a / b) == ar / br
        assert at(b.inverse()) == 1 / br


def test_equal_values_built_differently_are_equal_and_hash_equal():
    q = RatFun.generator()
    pairs = [
        (RatFun((2, 2), (4,)), RatFun((1, 1), (2,))),
        (RatFun((-1, 0, 1), (-1, 1)), q + 1),
        (parse_scalar("(q^2-1)/(q-1)", RATIONAL_FUNCTION), q + 1),
        (RatFun((F(1, 2), F(1, 3)), (F(1, 6), F(5, 6))),
         RatFun((3, 2), (1, 5))),
        (RatFun((0, 0, 6), (0, -3)), -2 * q),
        (q ** 3 / q ** 5, RatFun((1,), (0, 0, 1))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)


@given(ratfuns, nonzero_polys)
def test_a_common_factor_cancels(a, h):
    b = RatFun(poly_mul(a.num, h), poly_mul(a.den, h))
    assert b == a and hash(b) == hash(a)
    assert b.num == a.num and b.den == a.den


def test_constants_hash_like_their_fraction():
    assert len({RatFun((3,)), 3}) == 1
    assert len({Cyclotomic(12, (3,)), 3}) == 1
    for x in (0, 3, F(-1, 2)):
        assert hash(RatFun((x,))) == hash(F(x))
        assert hash(Cyclotomic(12, (x,))) == hash(F(x))
        assert hash(Cyclotomic(1, (x,))) == hash(F(x))
    assert hash(RatFun((F(1, 2),), (F(1, 3),))) == hash(F(3, 2))


# --- integer gcd behind Q(q) -------------------------------------------------

def _primitive_gcd(f, g):
    """The gcd of f and g over Z[q], read off the Euclidean one over Q."""
    monic = poly_gcd(tuple(map(F, f)), tuple(map(F, g)))
    scale = lcm(*(c.denominator for c in monic))
    return _primitive([int(c * scale) for c in monic])


int_polys = st.lists(st.integers(-10 ** 4, 10 ** 4), min_size=1,
                     max_size=9).filter(lambda cs: cs[-1] != 0)


@given(int_polys, int_polys, int_polys)
def test_integer_gcd_of_a_planted_common_factor(a, b, h):
    f, g = _primitive(_zmul(a, h)), _primitive(_zmul(b, h))
    assume(len(f) > 1 and len(g) > 1)
    expected = _primitive_gcd(f, g)
    found, cf, cg = _gcd_heu(f, g)
    assert found == expected
    assert _zmul(found, cf) == f and _zmul(found, cg) == g
    assert _prs_gcd(f, g) == expected


def test_heuristic_gcd_rejects_a_candidate_that_does_not_divide():
    # 5q + 4 and 4q - 1 at q = 37 share 21, which reads back as q - 16
    assert _gcd_heu([4, 5], [-1, 4]) == ([1], [4, 5], [-1, 4])
    assert _prs_gcd([4, 5], [-1, 4]) == [1]


def test_root_of_unity_relations():
    z = Cyclotomic.generator(4)
    assert z * z == -1
    assert z ** 4 == 1
    assert z ** -1 == z ** 3
    w = Cyclotomic.generator(3)
    assert 1 + w + w * w == 0
    assert Cyclotomic.generator(1) == 1
    assert Cyclotomic.generator(2) == -1


def test_field_mismatch_between_orders():
    with pytest.raises(FieldMismatch):
        Cyclotomic.generator(3) + Cyclotomic.generator(4)
    assert (Cyclotomic.generator(3) == Cyclotomic.generator(4)) is False


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic(4, ()).inverse()
    with pytest.raises(ZeroDivisionError):
        RatFun((1,)) / RatFun(())
    with pytest.raises(ZeroDivisionError):
        RatFun((1,), ())


# --- tags ---------------------------------------------------------------------

def test_field_tag_round_trip():
    for text in ("rational", "cyclotomic(4)", "rational_function"):
        assert str(field_tag_from_string(text)) == text
    with pytest.raises(ValueError):
        field_tag_from_string("complex")
    with pytest.raises(ValueError):
        field_tag_from_string("cyclotomic(x)")


def test_tag_coercion():
    tag = cyclotomic_field(4)
    assert tag.coerce(F(1, 2)) == Cyclotomic(4, (F(1, 2),))
    assert tag.zero() == 0 and tag.one() == 1
    with pytest.raises(FieldMismatch):
        tag.coerce(RatFun((1,)))
    with pytest.raises(FieldMismatch):
        RATIONAL.coerce(Cyclotomic.generator(4))


# --- parsing -------------------------------------------------------------------

def test_parse_rational_examples():
    assert parse_scalar("3/4", RATIONAL) == F(3, 4)
    assert parse_scalar("-2", RATIONAL) == -2
    assert parse_scalar("2^-2", RATIONAL) == F(1, 4)
    assert parse_scalar("1 + 2*3", RATIONAL) == 7
    assert parse_scalar("(1+2)*3", RATIONAL) == 9
    # '/' binds like '*', left associative
    assert parse_scalar("3/2*2", RATIONAL) == 3
    assert parse_scalar("8/2/2", RATIONAL) == 2


def test_parse_cyclotomic_examples():
    tag = cyclotomic_field(4)
    z = Cyclotomic.generator(4)
    assert parse_scalar("z", tag) == z
    assert parse_scalar("z^2", tag) == -1
    assert parse_scalar("(1+z)^2", tag) == 2 * z
    assert parse_scalar("1/2 + 3/2*z", tag) == Cyclotomic(4, (F(1, 2), F(3, 2)))
    assert parse_scalar("z^-1", tag) == -z


def test_parse_ratfun_examples():
    q = RatFun.generator()
    tag = RATIONAL_FUNCTION
    assert parse_scalar("q^2 - 1", tag) == q * q - 1
    assert parse_scalar("(q - q^-1)/(q - q^-1)", tag) == 1
    assert parse_scalar("q^-2", tag) == RatFun((1,), (0, 0, 1))
    assert parse_scalar("(q^2-1)/(q-1)", tag) == q + 1


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_scalar("q+", RATIONAL_FUNCTION)
    assert err.value.pos == 2
    with pytest.raises(ParseError):
        parse_scalar("1 + ", RATIONAL)
    with pytest.raises(ParseError):
        parse_scalar("(1", RATIONAL)
    with pytest.raises(ParseError):
        parse_scalar("2 2", RATIONAL)
    with pytest.raises(ParseError):
        parse_scalar("1/0", RATIONAL)
    with pytest.raises(ParseError):
        parse_scalar("0^-1", RATIONAL)
    with pytest.raises(FieldMismatch):
        parse_scalar("z", RATIONAL)
    with pytest.raises(FieldMismatch):
        parse_scalar("q", cyclotomic_field(3))


# --- printing ------------------------------------------------------------------

def test_canonical_strings():
    assert scalar_to_string(F(-4, 2)) == "-2"
    assert scalar_to_string(F(3, 4)) == "3/4"
    z = Cyclotomic.generator(4)
    assert scalar_to_string(z) == "z"
    assert scalar_to_string(z * z) == "-1"
    assert scalar_to_string(1 - 2 * z) == "1 - 2*z"
    assert scalar_to_string(Cyclotomic(12, (F(1, 2), 0, F(-3, 2), 1))) == \
        "1/2 - 3/2*z^2 + z^3"
    q = RatFun.generator()
    assert scalar_to_string(q ** 2 + 2 * q + 1) == "q^2 + 2*q + 1"
    assert scalar_to_string(q ** -1) == "(1)/(q)"
    assert scalar_to_string((q - 1) / (q + 1)) == "(q - 1)/(q + 1)"
    assert scalar_to_string(RatFun(())) == "0"
    assert scalar_to_string(-q) == "-q"


@given(small_fractions)
def test_rational_print_parse_round_trip(a):
    assert parse_scalar(scalar_to_string(a), RATIONAL) == a


@given(cyclotomics(12))
def test_cyclotomic_print_parse_round_trip(a):
    assert parse_scalar(scalar_to_string(a), cyclotomic_field(12)) == a


@given(ratfuns)
def test_ratfun_print_parse_round_trip(a):
    assert parse_scalar(scalar_to_string(a), RATIONAL_FUNCTION) == a
