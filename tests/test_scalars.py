"""Field arithmetic, cyclotomic polynomials, parsing and printing."""

import operator
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

from fsind import scalars
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
    scalar_to_string,
    _cyclotomic,
    _fold,
    _gcd_heu,
    _poly_string,
    _primitive,
    _prs_gcd,
    _ratfun,
    _trim,
    _zmul,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracer  # noqa: E402

F = Fraction


# --- dense polynomials over Q: the reference for the integer arithmetic -----
# (tuples of Fraction, index = degree, no trailing zeros, () is zero)

def poly_add(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def poly_neg(a):
    return tuple(-c for c in a)


def poly_sub(a, b):
    return poly_add(a, poly_neg(b))


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def poly_divmod(a, b):
    """Quotient and remainder of a by b (b nonzero), exact over Q."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / lead
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return _trim(q), _trim(a)


def poly_monic(a):
    if not a:
        return a
    lead = a[-1]
    if lead == 1:
        return a
    return tuple(c / lead for c in a)


def poly_gcd(a, b):
    """Monic gcd via the Euclidean algorithm: the reference for the integer
    gcd behind RatFun."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


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
@example(RatFun((0, 1), (1, 1)), RatFun((1,)), F(1))
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
    # reflected and mixed operands
    assert at(3 - a) == 3 - ar
    assert at(F(1, 2) - a) == F(1, 2) - ar
    for e in range(-3, 6):
        if ar or e >= 0:
            assert at(a ** e) == ar ** e
    if ar:
        assert at(2 / a) == 2 / ar
        assert at(F(1, 2) / a) == F(1, 2) / ar


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
# the last pseudo-remainder (1,) is already primitive
@example([0, 1], [1, 0, 1], [1])
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


# --- Q(z_n) against polynomials over Q modulo the cyclotomic polynomial ------

# orders 1 and 2 have phi = 1; 9 and 15 have zero and negative coefficients
REFERENCE_ORDERS = (1, 2, 3, 4, 5, 6, 8, 9, 12, 15)


def _phi(order):
    return len(cyclotomic_poly(order)) - 1


def _reduced(cs, order):
    """cs modulo the order-th cyclotomic polynomial, padded to phi entries."""
    r = poly_divmod(tuple(cs), cyclotomic_poly(order))[1]
    return r + (F(0),) * (_phi(order) - len(r))


def _stored(x):
    """The stored pair (n, d), checked to be canonical."""
    n, d = x._n, x._d
    assert len(n) == _phi(x.order) and all(type(c) is int for c in n)
    assert d > 0 and gcd(d, *n) == 1
    return n, d


@st.composite
def reference_operands(draw):
    """(order, p, r, h): coefficient lists of any length up to 2 phi + 1."""
    order = draw(st.sampled_from(REFERENCE_ORDERS))
    coeffs = st.lists(small_fractions, max_size=2 * _phi(order) + 1)
    return order, draw(coeffs), draw(coeffs), draw(coeffs)


@given(reference_operands(), st.integers(-3, 5))
def test_cyclotomic_matches_the_polynomial_reference(operands, e):
    order, p, r, h = operands
    a, b = Cyclotomic(order, p), Cyclotomic(order, r)
    pa, pb = _reduced(p, order), _reduced(r, order)
    one = _reduced((1,), order)
    assert a.coeffs == pa and b.coeffs == pb
    for x, expected in ((a + b, poly_add(pa, pb)), (a - b, poly_sub(pa, pb)),
                        (a * b, poly_mul(pa, pb)), (-a, poly_sub((), pa))):
        _stored(x)
        assert x.coeffs == _reduced(expected, order)
    # reflected and mixed operands
    for x, expected in ((3 - a, poly_sub((F(3),), pa)),
                        (F(1, 2) - a, poly_sub((F(1, 2),), pa))):
        _stored(x)
        assert x.coeffs == _reduced(expected, order)
    if a:
        for c in (2, F(1, 2)):
            _stored(c / a)
            assert (c / a).coeffs == _reduced(
                poly_mul((F(c),), a.inverse().coeffs), order)
    if b:
        _stored(b.inverse())
        assert _reduced(poly_mul(pb, b.inverse().coeffs), order) == one
        assert (a / b).coeffs == _reduced(
            poly_mul(pa, b.inverse().coeffs), order)
    power = one
    for _ in range(abs(e)):
        power = _reduced(poly_mul(power, pa), order)
    if e >= 0:
        assert (a ** e).coeffs == power
    elif a:
        assert _reduced(poly_mul((a ** e).coeffs, power), order) == one
    # the same value built from another representative: same pair, same hash
    c = Cyclotomic(order, poly_add(p, poly_mul(h, cyclotomic_poly(order))))
    assert _stored(c) == _stored(a) and c == a and hash(c) == hash(a)
    tag = cyclotomic_field(order)
    assert parse_scalar(scalar_to_string(a), tag).coeffs == a.coeffs


def product_by_convolution(a, b):
    """a * b by the general path: convolve the numerators, fold z^phi and
    above, normalise over the product of the denominators."""
    out = [0] * (2 * len(a._n) - 1)
    for i, x in enumerate(a._n):
        for j, y in enumerate(b._n):
            out[i + j] += x * y
    return _cyclotomic(a.order, _fold(out, a.order), a._d * b._d)


@st.composite
def rational_and_general(draw):
    """(order, c, x): a rational constant c, zero and negatives included,
    and a general x of Q(z_order)."""
    order = draw(st.sampled_from((3, 4, 5, 8, 12)))
    constants = st.sampled_from((F(0), F(-1), F(-3, 4))) | small_fractions
    c = Cyclotomic(order, (draw(constants),))
    return order, c, draw(cyclotomics(order))


@given(rational_and_general())
@example((4, Cyclotomic(4, (F(0),)), Cyclotomic(4, (F(1, 2), F(-3)))))
@example((12, Cyclotomic(12, (F(-2, 3),)), Cyclotomic(12, (F(3, 4),))))
def test_rational_factor_scales_like_the_convolution(operands):
    order, c, x = operands
    for a, b in ((c, x), (x, c), (c, c)):
        expected = product_by_convolution(a, b)
        got = a * b
        assert (got.order, got._n, got._d) == \
            (expected.order, expected._n, expected._d)
        _stored(got)


def test_cyclotomic_inverse_at_order_105():
    # phi(105) = 48: the conjugates z -> z^k reach z^104, above the
    # z^94 the reduction table covers, so they take the top-down fold
    one = _reduced((1,), 105)
    for cs in ([F(1), F(1)], [F(i % 7 - 3, i % 4 + 1) for i in range(48)]):
        inv = Cyclotomic(105, cs).inverse()
        _stored(inv)
        assert _reduced(poly_mul(_reduced(cs, 105), inv.coeffs), 105) == one


def test_equal_cyclotomics_built_differently_share_the_stored_pair():
    z = Cyclotomic.generator(12)
    w = Cyclotomic.generator(9)
    pairs = [
        (z ** 12, Cyclotomic(12, (1,))),
        (Cyclotomic(12, (0,) * 6 + (1,)), -1),
        ((1 + z) / 2, Cyclotomic(12, (F(2, 4), F(3, 6)))),
        (z ** -1, z ** 11),
        (w ** 9, Cyclotomic(9, (0,) * 9 + (1,))),
        (parse_scalar("(1+z)^2/(2*z)", cyclotomic_field(4)), 1),
        (Cyclotomic(1, (3, 4)), 7),
        (Cyclotomic(2, (3, 4)), -1),
        (Cyclotomic(5, (F(-1, 2),)).inverse(), -2),
    ]
    for a, b in pairs:
        b = cyclotomic_field(a.order).coerce(b)
        assert _stored(a) == _stored(b)
        assert a == b and hash(a) == hash(b)


def test_equality_across_fields_is_transitive():
    a, b, r = Cyclotomic(3, (1,)), Cyclotomic(4, (1,)), RatFun((1,))
    assert a == b and b == a and r == b and b == r and a == 1 and r == 1
    assert hash(a) == hash(b) == hash(r) == hash(1)
    assert len({a, b, 1}) == len({1, a, b}) == len({r, b, a}) == 1
    half = Cyclotomic(5, (F(1, 2),))
    assert half == RatFun((F(1, 2),)) == F(1, 2)
    assert hash(half) == hash(RatFun((F(1, 2),))) == hash(F(1, 2))
    assert Cyclotomic(3, (2,)) != Cyclotomic(4, (1,)) != RatFun((2,))
    # non-constants of different fields are unequal, and raise nothing
    z3, z4, q = (Cyclotomic.generator(3), Cyclotomic.generator(4),
                 RatFun.generator())
    assert z3 != z4 and z4 != q and q != z4 and z3 != 1 and q != a
    assert len({a, b, r, 1, z3, z4, q}) == 4
    assert len({z3, z4, q, 1, a, b, r}) == 4


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
    z3, z4, q = Cyclotomic.generator(3), Cyclotomic.generator(4), \
        RatFun.generator()
    for op in (operator.add, operator.sub, operator.truediv):
        with pytest.raises(FieldMismatch):
            op(z3, z4)
    assert (z3 == z4) is False
    # Q(q) and Q(z_n) do not mix: each side declines, so Python refuses
    for op in (operator.sub, operator.truediv, operator.pow):
        for x, y in ((q, z4), (z4, q)):
            with pytest.raises(TypeError):
                op(x, y)


def test_every_traced_operator_is_in_each_class_dict():
    """The benchmark's tracer wraps vars(cls)[op] for each of its scalar
    ops, so each shared operator must be bound in every class body."""
    for name in tracer.SCALAR_OPS:
        assert set(tracer._OP_METHODS) <= set(vars(getattr(scalars, name)))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic(4, ()).inverse()
    with pytest.raises(ZeroDivisionError):
        RatFun((1,)) / RatFun(())
    with pytest.raises(ZeroDivisionError):
        RatFun((1,), ())


# --- products by a Laurent monomial ------------------------------------------

def _triple(x):
    return x._c, x._n, x._d


def assert_canonical(x):
    """The stored triple (c, n, d) of a RatFun meets its invariants."""
    c, n, d = _triple(x)
    if not n:
        assert (c, d) == (0, (1,))
        return
    assert c and n[-1] > 0 and d[-1] > 0
    assert gcd(*n) == gcd(*d) == 1
    assert n[0] or d[0]  # no common factor q
    assert _primitive_gcd(n, d) == [1]


# numerators and denominators carrying powers of q, built by the general path
q_shifted_ratfuns = st.builds(
    lambda n, d, a, b: RatFun((0,) * a + tuple(n), (0,) * b + tuple(d)),
    nonzero_polys, nonzero_polys, st.integers(0, 3), st.integers(0, 3))


def laurent_monomial(c, k):
    if k >= 0:
        return RatFun((0,) * k + (c,))
    return RatFun((c,), (0,) * -k + (1,))


@given(st.one_of(ratfuns, q_shifted_ratfuns), small_fractions,
       st.integers(-12, 12))
@example(RatFun((1,), (0, 1)), F(1), 1)
@example(RatFun((0, 0, 1), (1, 1)), F(-3, 2), -1)
def test_a_product_by_a_monomial_is_the_general_product(x, c, k):
    assume(x and c)
    m = laurent_monomial(c, k)
    n, d = ((0,) * k + (1,), (1,)) if k >= 0 else ((1,), (0,) * -k + (1,))
    assert _triple(m) == (c, n, d)
    general = _ratfun(x._c * m._c, _zmul(x._n, m._n), _zmul(x._d, m._d))
    for product in (x * m, m * x):
        assert _triple(product) == _triple(general)
        assert_canonical(product)


laurent_polys = st.builds(lambda n, a: RatFun(n, (0,) * a + (1,)),
                         small_polys, st.integers(0, 6))


@given(laurent_polys, laurent_polys)
@example(RatFun((1,), (0, 0, 1)), RatFun((0, 0, -1)))
def test_a_sum_of_laurent_polynomials_is_the_general_sum(x, y):
    for s, t in ((x, y), (x, -y)):
        d = poly_mul(s.den, t.den)
        n = poly_add(poly_mul(s.num, t.den), poly_mul(t.num, s.den))
        assert _triple(s + t) == _triple(RatFun(n, d))
        assert_canonical(s + t)


@given(small_fractions)
def test_constants_are_canonical(f):
    assert _triple(RATIONAL_FUNCTION.coerce(f)) == _triple(RatFun((f,)))
    for x in (RATIONAL_FUNCTION.zero(), RATIONAL_FUNCTION.one()):
        assert _triple(x) == _triple(RatFun((x._c,)))
        assert_canonical(x)


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


@given(st.text(alphabet=list("0123456789zq+-*/^() \t²٣"), max_size=6),
       st.sampled_from((RATIONAL, cyclotomic_field(4))))
def test_parse_scalar_parses_or_reports(text, tag):
    # six characters keep exponents small; "²" and "٣" are digits to
    # str.isdigit() but not in the grammar
    try:
        parse_scalar(text, tag)
    except (ParseError, FieldMismatch):
        pass


def test_non_ascii_digits_are_refused():
    for text in ("²", "٣", "1²", "z^²"):
        with pytest.raises(ParseError):
            parse_scalar(text, cyclotomic_field(4))
    with pytest.raises(ValueError):
        field_tag_from_string("cyclotomic(٣)")


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
    # the denominator is printed monic
    assert scalar_to_string((q + 1) / (2 * q + 3)) == \
        "(1/2*q + 1/2)/(q + 3/2)"
    assert scalar_to_string(3 * q / (F(1, 2) * q - 1)) == "(6*q)/(q - 2)"
    assert scalar_to_string(RatFun(())) == "0"
    assert scalar_to_string(-q) == "-q"


@given(small_fractions)
def test_a_constant_prints_as_its_polynomial(f):
    assert scalar_to_string(RatFun((f,))) == \
        _poly_string((f,) if f else (), "q", descending=True)


@given(small_fractions)
def test_rational_print_parse_round_trip(a):
    assert parse_scalar(scalar_to_string(a), RATIONAL) == a


@given(cyclotomics(12))
def test_cyclotomic_print_parse_round_trip(a):
    assert parse_scalar(scalar_to_string(a), cyclotomic_field(12)) == a


@given(ratfuns)
def test_ratfun_print_parse_round_trip(a):
    assert parse_scalar(scalar_to_string(a), RATIONAL_FUNCTION) == a
