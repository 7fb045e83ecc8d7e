"""Exact matrices: elimination, kernels, determinants, span solving."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fsind.constructors import perm_matrix
from fsind.linalg import (
    DimensionMismatch,
    Matrix,
    NotInSpan,
    SingularMatrix,
    det,
    intertwiner_constraint,
    inverse,
    kernel_basis,
    kernel_intersection,
    rank,
    rref,
    solve_in_span,
    span_canonical,
)
from fsind.scalars import RATIONAL, RATIONAL_FUNCTION, RatFun, cyclotomic_field

F = Fraction


def rmat(rows):
    return Matrix(RATIONAL, [[F(x) for x in r] for r in rows])


def det_by_permutations(m):
    """Leibniz formula; an independent oracle for small determinants."""
    n = m.nrows
    total = m.tag.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = m.tag.one()
        for i in range(n):
            prod = prod * m[i, perm[i]]
        total = total + (prod if sign > 0 else -prod)
    return total


matrices_3 = st.lists(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    min_size=3, max_size=3).map(rmat)

matrices_any = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-5, 5), min_size=m, max_size=m),
            min_size=n, max_size=n).map(rmat)))


def test_rref_known():
    m = rmat([[0, 2, 4], [1, 1, 1]])
    r, pivots = rref(m)
    assert pivots == [0, 1]
    assert r == rmat([[1, 0, -1], [0, 1, 2]])


def test_kernel_canonical_frozen():
    # one relation x + y = 0: canonical kernel vector is (1, -1)
    assert kernel_basis(rmat([[1, 1]])) == [(F(1), F(-1))]
    # leading coefficient normalized to 1, rows ordered by leading index
    ker = kernel_basis(rmat([[1, 2, 3]]))
    assert ker == [(F(1), F(0), F(-1, 3)), (F(0), F(1), F(-2, 3))]


@given(matrices_any)
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.ncols


@given(matrices_any)
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert all(not x for x in m.apply(v))


@given(matrices_any)
def test_kernel_is_subspace_canonical(m):
    ker = kernel_basis(m)
    assert span_canonical(m.tag, ker) == ker


@given(matrices_3)
def test_det_matches_leibniz(m):
    assert det(m) == det_by_permutations(m)


@given(matrices_3, matrices_3)
def test_det_multiplicative_and_trace_cyclic(a, b):
    assert det(a * b) == det(a) * det(b)
    assert (a * b).trace() == (b * a).trace()


def test_det_over_ratfun():
    q = RatFun.generator()
    m = Matrix(RATIONAL_FUNCTION, [[q, 1 + 0 * q], [q ** -1, q]])
    assert det(m) == q * q - q ** -1


def test_inverse():
    m = rmat([[2, 1], [1, 1]])
    assert inverse(m) * m == Matrix.identity(RATIONAL, 2)
    with pytest.raises(SingularMatrix):
        inverse(rmat([[1, 2], [2, 4]]))


@given(matrices_3)
def test_inverse_round_trip(m):
    if det(m):
        assert m * inverse(m) == Matrix.identity(RATIONAL, 3)


def test_solve_in_span():
    v1, v2 = (F(1), F(0), F(2)), (F(0), F(1), F(1))
    coeffs = solve_in_span(RATIONAL, [v1, v2], (F(3), F(-1), F(5)))
    assert coeffs == (F(3), F(-1))
    with pytest.raises(NotInSpan):
        solve_in_span(RATIONAL, [v1], (F(0), F(1), F(0)))
    with pytest.raises(NotInSpan):
        solve_in_span(RATIONAL, [], (F(1),))
    assert solve_in_span(RATIONAL, [], (F(0),)) == ()


def test_kernel_intersection_matches_stacked():
    a = rmat([[1, 1, 0, 0], [0, 0, 1, -1]])
    b = rmat([[1, 0, 0, -1]])
    stacked = rmat([[1, 1, 0, 0], [0, 0, 1, -1], [1, 0, 0, -1]])
    assert kernel_intersection(RATIONAL, [a, b], 4) == kernel_basis(stacked)
    # v vanishes on ker a (its restricted rows are all zero); k leaves
    # nothing of ker a
    v = rmat([[2, 2, 0, 0], [0, 0, -1, 1]])
    k = rmat([[1, 0, 0, 0], [0, 0, 1, 0]])
    for seq in ([a, v], [a, v, b], [a, b, v], [a, k], [a, b, k]):
        stacked = Matrix(RATIONAL, [r for m in seq for r in m.rows])
        assert kernel_intersection(RATIONAL, seq, 4) == kernel_basis(stacked)
    assert kernel_intersection(RATIONAL, [a, v], 4) == kernel_basis(a)
    assert kernel_intersection(RATIONAL, [a, k], 4) == []
    # no constraints: the whole space, canonically ordered
    full = kernel_intersection(RATIONAL, [], 3)
    assert full == [tuple(r) for r in Matrix.identity(RATIONAL, 3).rows]


def field_values(tag):
    one = tag.one()
    if tag is RATIONAL_FUNCTION:
        q = RatFun.generator()
        return [one, -one, q, q ** -1 - one, one + q * q]
    if tag is RATIONAL:
        return [one, -one, tag.coerce(2), tag.coerce(F(-1, 2))]
    z = tag.generator()
    return [one, -one, z, one + z, z - tag.coerce(2)]


@st.composite
def sparse_constraints(draw):
    """(tag, ncols, matrices) over Q, Q(z_4) or Q(q), mostly zero cells:
    empty rows and single-nonzero rows (unit pivots) come up often. On
    request a row is repeated, or the first matrix gets one nonzero a row,
    so that its kernel is spanned by unit vectors."""
    tag = draw(st.sampled_from((RATIONAL, cyclotomic_field(4),
                                RATIONAL_FUNCTION)))
    ncols = draw(st.integers(1, 5))
    cell = st.sampled_from([tag.zero()] * 4 + field_values(tag))
    row = st.lists(cell, min_size=ncols, max_size=ncols)
    mats = draw(st.lists(st.lists(row, min_size=1, max_size=4),
                         min_size=1, max_size=3))
    if draw(st.booleans()):
        cols = draw(st.lists(st.integers(0, ncols - 1), min_size=1,
                             max_size=ncols))
        value = st.sampled_from(field_values(tag))
        mats[0] = [[draw(value) if j == c else tag.zero()
                    for j in range(ncols)] for c in cols]
    if draw(st.booleans()):
        mats[-1].append(list(draw(st.sampled_from(mats[-1]))))
    return tag, ncols, [Matrix(tag, m) for m in mats]


@given(st.one_of(
    st.lists(matrices_3, min_size=1, max_size=3).map(
        lambda mats: (RATIONAL, 3, mats)),
    sparse_constraints()))
def test_kernel_intersection_generic(case):
    tag, ncols, mats = case
    stacked = Matrix(tag, [r for m in mats for r in m.rows])
    kernel = kernel_intersection(tag, mats, ncols)
    assert kernel == kernel_basis(stacked)
    # against the dense elimination, which shares no code with the sparse one
    assert len(kernel) == ncols - rank(stacked)
    assert all(not x for v in kernel for x in stacked.apply(v))


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def rational_matrix(nrows, ncols):
    return st.lists(st.lists(rationals, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(
        lambda rows: Matrix(RATIONAL, rows))


intertwiner_cases = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda d: st.tuples(rational_matrix(d[0], d[0]),
                        rational_matrix(d[1], d[1]),
                        rational_matrix(d[1], d[0])))


@given(intertwiner_cases)
def test_intertwiner_constraint_applies_bx_minus_xa(case):
    a, b, x = case
    c = intertwiner_constraint(a, b)
    n = a.nrows * b.nrows
    assert c.shape == (n, n)
    assert c.apply(x.vec()) == (b * x - x * a).vec()


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_intertwiner_constraint_of_permutations_has_two_entries_a_row(perms):
    a, b = (perm_matrix(RATIONAL, p) for p in perms)
    c = intertwiner_constraint(a, b)
    assert c.nrows == c.ncols == len(perms[0]) ** 2
    assert all(len(row) <= 2 and all(x for _, x in row) for row in c.rows)


def test_intertwiner_constraint_needs_square_matrices():
    with pytest.raises(DimensionMismatch):
        intertwiner_constraint(rmat([[1, 2]]), rmat([[1]]))
    with pytest.raises(DimensionMismatch):
        intertwiner_constraint(rmat([[1]]), rmat([[1], [2]]))


def test_cyclotomic_elimination():
    tag = cyclotomic_field(4)
    z = tag.generator()
    m = Matrix(tag, [[z, tag.one()], [tag.one(), -z]])
    # rows are proportional: (z)*row2 = (z, -z^2) = (z, 1) = row1
    assert rank(m) == 1
    ker = kernel_basis(m)
    assert len(ker) == 1 and ker[0][0] == 1


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        rmat([[1, 2]]) * rmat([[1, 2]])
    with pytest.raises(DimensionMismatch):
        rmat([[1, 2]]).trace()
    with pytest.raises(DimensionMismatch):
        det(rmat([[1, 2]]))
    with pytest.raises(DimensionMismatch):
        Matrix(RATIONAL, [[F(1)], [F(1), F(2)]])


def test_vec_round_trip():
    m = rmat([[1, 2, 3], [4, 5, 6]])
    assert Matrix.from_vec(RATIONAL, 2, 3, list(m.vec())) == m
