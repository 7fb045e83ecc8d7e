"""Exact matrices: elimination, kernels, determinants, span solving."""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from fsind.constructors import perm_columns
from fsind.linalg import (
    DimensionMismatch,
    Matrix,
    NotInSpan,
    SingularMatrix,
    SparseRows,
    _rref_in_place,
    _transpose,
    det,
    intertwiner_constraint,
    inverse,
    kernel_basis,
    kernel_intersection,
    rank,
    solve_in_span,
)
from fsind.scalars import RATIONAL, RATIONAL_FUNCTION, RatFun, cyclotomic_field
from small_algebras import (apply_rows, dense, dense_rank, dense_rref,
                            difference, from_matrix, span_canonical,
                            sparse_rows, to_matrix, trace)

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
            prod = prod * m.rows[i][perm[i]]
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


def dense_kernel(m):
    return dense(m.tag, kernel_basis(sparse_rows(m)), m.ncols)


def test_rref_known():
    m = rmat([[0, 2, 4], [1, 1, 1]])
    rows = [list(r) for r in m.rows]
    pivots = _rref_in_place(rows, m.ncols)
    assert pivots == [0, 1]
    assert Matrix(RATIONAL, rows) == rmat([[1, 0, -1], [0, 1, 2]])


def test_kernel_canonical_frozen():
    # one relation x + y = 0: canonical kernel vector is (1, -1)
    assert dense_kernel(rmat([[1, 1]])) == [(F(1), F(-1))]
    # leading coefficient normalized to 1, rows ordered by leading index
    ker = dense_kernel(rmat([[1, 2, 3]]))
    assert ker == [(F(1), F(0), F(-1, 3)), (F(0), F(1), F(-2, 3))]
    assert kernel_basis(sparse_rows(rmat([[1, 2, 3]]))) == [
        [(0, F(1)), (2, F(-1, 3))], [(1, F(1)), (2, F(-2, 3))]]


@given(matrices_any)
def test_rank_nullity(m):
    rows = sparse_rows(m)
    assert rank(rows) + len(kernel_basis(rows)) == m.ncols


@given(matrices_any)
def test_kernel_vectors_annihilate(m):
    for v in dense_kernel(m):
        assert all(not x for x in m.apply(v))


@given(matrices_any)
def test_kernel_is_subspace_canonical(m):
    ker = dense_kernel(m)
    assert span_canonical(ker) == ker


@given(matrices_any)
def test_kernel_basis_is_sparse_for_every_input(m):
    # each vector is its nonzeros in ascending column order
    for v in kernel_basis(sparse_rows(m)):
        assert [j for j, _ in v] == sorted({j for j, _ in v})
        assert all(x for _, x in v)


@given(matrices_3)
def test_det_matches_leibniz(m):
    assert det(m) == det_by_permutations(m)


@given(matrices_3, matrices_3)
def test_det_multiplicative_and_trace_cyclic(a, b):
    assert det(a * b) == det(a) * det(b)
    assert trace(a * b) == trace(b * a)


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
    def sparse(rows):
        return sparse_rows(rmat(rows))

    a = sparse([[1, 1, 0, 0], [0, 0, 1, -1]])
    b = sparse([[1, 0, 0, -1]])
    stacked = sparse([[1, 1, 0, 0], [0, 0, 1, -1], [1, 0, 0, -1]])
    assert kernel_intersection(RATIONAL, [a, b], 4) == kernel_basis(stacked)
    # v vanishes on ker a (its restricted rows are all zero); k leaves
    # nothing of ker a
    v = sparse([[2, 2, 0, 0], [0, 0, -1, 1]])
    k = sparse([[1, 0, 0, 0], [0, 0, 1, 0]])
    for seq in ([a, v], [a, v, b], [a, b, v], [a, k], [a, b, k]):
        stacked = SparseRows(RATIONAL, 4, [r for m in seq for r in m.rows])
        assert kernel_intersection(RATIONAL, seq, 4) == kernel_basis(stacked)
    assert kernel_intersection(RATIONAL, [a, v], 4) == kernel_basis(a)
    assert kernel_intersection(RATIONAL, [a, k], 4) == []
    # no constraints: the whole space as sparse unit vectors, in order
    one = RATIONAL.one()
    assert kernel_intersection(RATIONAL, [], 3) == \
        [[(0, one)], [(1, one)], [(2, one)]]


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
    kernel = kernel_intersection(tag, [sparse_rows(m) for m in mats], ncols)
    assert kernel == kernel_basis(sparse_rows(stacked))
    assert len(kernel) == ncols - dense_rank(stacked)
    assert all(not x for v in dense(tag, kernel, ncols)
               for x in stacked.apply(v))


@st.composite
def rank_cases(draw):
    """A Matrix over Q, Q(z_4) or Q(q) whose rows are often empty, hold one
    nonzero, or repeat an earlier row up to a factor."""
    tag = draw(st.sampled_from((RATIONAL, cyclotomic_field(4),
                                RATIONAL_FUNCTION)))
    ncols = draw(st.integers(1, 5))
    zero, value = tag.zero(), st.sampled_from(field_values(tag))
    full = st.lists(st.sampled_from([zero] * 4 + field_values(tag)),
                    min_size=ncols, max_size=ncols)
    lone = st.tuples(st.integers(0, ncols - 1), value).map(
        lambda cv: [cv[1] if j == cv[0] else zero for j in range(ncols)])
    rows = draw(st.lists(st.one_of(full, lone, st.just([zero] * ncols)),
                         min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        f, row = draw(value), draw(st.sampled_from(rows))
        rows.insert(draw(st.integers(0, len(rows))), [f * x for x in row])
    return Matrix(tag, rows)


@given(rank_cases())
def test_rank_matches_the_dense_pivot_count(m):
    assert rank(sparse_rows(m)) == dense_rank(m)


@st.composite
def rref_cases(draw):
    """The rows of a rank_cases matrix M, or of [M | I] as inverse builds
    them."""
    m = draw(rank_cases())
    rows = [list(r) for r in m.rows]
    if draw(st.booleans()):
        z, o = m.tag.zero(), m.tag.one()
        rows = [r + [o if j == i else z for j in range(m.nrows)]
                for i, r in enumerate(rows)]
    return rows


@given(rref_cases())
def test_rref_matches_the_dense_reference(rows):
    ncols = len(rows[0])
    expected = [list(r) for r in rows]
    pivots = dense_rref(expected, ncols)
    assert _rref_in_place(rows, ncols) == pivots
    assert rows == expected


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
    c = intertwiner_constraint(RATIONAL, from_matrix(a), from_matrix(b),
                               a.nrows, b.nrows)
    n = a.nrows * b.nrows
    assert c.shape == (n, n)
    assert apply_rows(c, x.vec()) == difference(b * x, x * a).vec()


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_intertwiner_constraint_of_permutations_has_two_entries_a_row(perms):
    a, b = (_transpose(perm_columns(RATIONAL, p), len(p)) for p in perms)
    c = intertwiner_constraint(RATIONAL, a, b, len(a), len(b))
    assert c.nrows == c.ncols == len(perms[0]) ** 2
    assert all(len(row) <= 2 and all(x for _, x in row) for row in c.rows)


def is_permutation(tag, m):
    cols = [c for row in m for c in row]
    return (all(len(row) == 1 for row in m)
            and sorted(cols) == list(range(len(m)))
            and all(x == tag.one() for row in m for x in row.values()))


def exact_rows(tag, a, b, dv, dw):
    """The rows of X -> bX - Xa as dicts {cell: value}, read off the dense
    images of the unit matrices: row r * dv + c holds (bE_j - E_j a)[r][c]
    at each cell j."""
    am, bm = to_matrix(tag, a), to_matrix(tag, b)
    rows = [{} for _ in range(dw * dv)]
    for j in range(dw * dv):
        e = Matrix.from_sparse(tag, dw, dv, [(j, tag.one())])
        for k, y in enumerate(difference(bm * e, e * am).vec()):
            if y:
                rows[k][j] = y
    return rows


@st.composite
def permutation_and_general_constraints(draw):
    """(tag, ncols, [(constraint, general, permutations)]) over Q, Q(z_4) or
    Q(q), X being dw x dv, in any order: plain sparse rows, whose general is
    None, and intertwiner constraints, each with the constraint that the
    general path builds from the same pair and whether both are
    permutations. The pairs are permutations, identities (all rows zero),
    matrices with one entry a row, which may repeat a column or differ
    from 1, diagonal matrices whose entries come from a two-element set, so
    that a lone cell's two values are often equal, or general matrices with
    up to three nonzeros a row."""
    tag = draw(st.sampled_from((RATIONAL, cyclotomic_field(4),
                                RATIONAL_FUNCTION)))
    dv, dw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ncols, one = dv * dw, tag.one()
    entry = st.sampled_from(field_values(tag))

    def one_entry_a_row(d):
        cols = draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
        values = st.sampled_from([one] * 4 + field_values(tag))
        return [{c: draw(values)} for c in cols]

    def diagonal(d, values):
        return [{c: draw(values)} for c in range(d)]

    def up_to_three_a_row(d):
        return [draw(st.dictionaries(st.integers(0, d - 1), entry,
                                     max_size=3)) for _ in range(d)]

    cases = []
    for kind in draw(st.lists(st.sampled_from(
            ("perm", "identity", "one entry a row", "diagonal", "general",
             "rows")),
            min_size=1, max_size=4)):
        if kind == "rows":
            rows = draw(st.lists(st.dictionaries(
                st.integers(0, ncols - 1), entry, max_size=3), max_size=3))
            cases.append((SparseRows(tag, ncols,
                                     [list(r.items()) for r in rows]),
                          None, False))
            continue
        if kind == "one entry a row":
            a, b = one_entry_a_row(dv), one_entry_a_row(dw)
        elif kind == "diagonal":
            values = st.sampled_from(draw(st.lists(entry, min_size=2,
                                                   max_size=2)))
            a, b = diagonal(dv, values), diagonal(dw, values)
        elif kind == "general":
            a, b = up_to_three_a_row(dv), up_to_three_a_row(dw)
        else:
            pa, pb = range(dv), range(dw)
            if kind == "perm":
                pa, pb = draw(st.permutations(pa)), draw(st.permutations(pb))
            a, b = [{c: one} for c in pa], [{c: one} for c in pb]
        with mock.patch("fsind.linalg._permutation", return_value=None):
            general = intertwiner_constraint(tag, a, b, dv, dw)
        cases.append((intertwiner_constraint(tag, a, b, dv, dw), general,
                      is_permutation(tag, a) and is_permutation(tag, b)))
    return tag, ncols, cases


@given(permutation_and_general_constraints())
def test_kernel_intersection_merges_permutation_constraints(case):
    """Union-find on the leading permutation constraints, elimination from
    the first general one on, lone cells decided by equality and later
    constraints applied to the span: the kernel of the stacked exact rows
    either way. kernel_intersection writes no intertwiner constraint's
    rows."""
    tag, ncols, cases = case
    constraints = [c for c, _, _ in cases]
    kernel = kernel_intersection(tag, constraints, ncols)
    assert all(c._rows is None for c, general, _ in cases if general)
    for c, general, permutations in cases:
        assert (c.pairs is not None) == permutations
        if general is not None:
            assert general.pairs is None and c.rows == general.rows
            assert [dict(r) for r in c.rows] == exact_rows(tag, *c.operator)
    stacked = SparseRows(tag, ncols, [r for c in constraints for r in c.rows])
    assert kernel == kernel_basis(stacked)


def test_permutation_constraint_writes_its_rows_when_read():
    """A constraint counts dw * dv rows but writes them only when read:
    the union-find solves two permutations by their pairs, a first general
    constraint is eliminated with its lone cells decided by equality, and
    a later one is applied to the span found so far. Read afterwards, the
    rows are the exact rows of X -> bX - Xa."""
    one = RATIONAL.one()
    a, b = [{1: one}, {2: one}, {0: one}], [{1: one}, {0: one}]
    c = intertwiner_constraint(RATIONAL, a, b, 3, 2)
    assert c.shape == (6, 6) and c.nrows == len(c.pairs)
    kernel_intersection(RATIONAL, [c], 6)
    assert c._rows is None
    with mock.patch("fsind.linalg._permutation", return_value=None):
        general = intertwiner_constraint(RATIONAL, a, b, 3, 2)
    assert c.rows == general.rows and c.nrows == general.nrows
    # diagonal: lone cells, equal at (0, 0) only; then a general pair that
    # fixes E_00
    diag_a, diag_b = [{0: F(2)}, {1: F(3)}, {2: F(5)}], [{0: F(2)}, {1: F(7)}]
    gen_a = [{0: F(1)}, {0: F(2), 1: F(2)}, {0: F(4), 2: F(1)}]
    gen_b = [{0: F(1), 1: F(3)}, {1: F(-2)}]
    first, later = (intertwiner_constraint(RATIONAL, x, y, 3, 2)
                    for x, y in ((diag_a, diag_b), (gen_a, gen_b)))
    assert first.pairs is None and later.pairs is None
    assert first.shape == later.shape == (6, 6)
    kernel = kernel_intersection(RATIONAL, [first, later], 6)
    assert first._rows is None and later._rows is None
    for m, x, y in ((first, diag_a, diag_b), (later, gen_a, gen_b)):
        assert [dict(r) for r in m.rows] == exact_rows(RATIONAL, x, y, 3, 2)
    assert dict(first.rows[1]) == {1: F(-1)}  # 2 X01 - X01 3, not scaled
    stacked = SparseRows(RATIONAL, 6, first.rows + later.rows)
    assert kernel == kernel_basis(stacked) == [[(0, one)]]


def test_intertwiner_constraint_needs_square_matrices():
    one, two = from_matrix(rmat([[1]])), from_matrix(rmat([[1], [2]]))
    with pytest.raises(DimensionMismatch):  # column 1 of a 1 x 1 matrix
        intertwiner_constraint(RATIONAL, from_matrix(rmat([[1, 2]])), one,
                               1, 1)
    with pytest.raises(DimensionMismatch):  # 2 rows for a 1 x 1 matrix
        intertwiner_constraint(RATIONAL, one, two, 1, 1)
    with pytest.raises(DimensionMismatch):  # column -1
        intertwiner_constraint(RATIONAL, one, [{-1: RATIONAL.one()}], 1, 1)


def test_cyclotomic_elimination():
    tag = cyclotomic_field(4)
    z = tag.generator()
    m = Matrix(tag, [[z, tag.one()], [tag.one(), -z]])
    # rows are proportional: (z)*row2 = (z, -z^2) = (z, 1) = row1
    assert rank(sparse_rows(m)) == 1
    ker = dense_kernel(m)
    assert len(ker) == 1 and ker[0][0] == 1


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        rmat([[1, 2]]) * rmat([[1, 2]])
    with pytest.raises(DimensionMismatch):
        det(rmat([[1, 2]]))
    with pytest.raises(DimensionMismatch):
        Matrix(RATIONAL, [[F(1)], [F(1), F(2)]])


def test_vec_round_trip():
    m = rmat([[1, 0, 3], [0, 5, 6]])
    vec = [(j, x) for j, x in enumerate(m.vec()) if x]
    assert vec == [(0, F(1)), (2, F(3)), (4, F(5)), (5, F(6))]
    assert Matrix.from_sparse(RATIONAL, 2, 3, vec) == m
    assert Matrix.from_sparse(RATIONAL, 3, 2, vec) == \
        rmat([[1, 0], [3, 0], [5, 6]])
