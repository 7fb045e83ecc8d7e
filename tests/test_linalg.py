"""Exact matrices: elimination, kernels, determinants, span solving."""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from fsind.constructors import perm_columns
from fsind.linalg import (
    DimensionMismatch,
    IntertwinerConstraint,
    Matrix,
    NotInSpan,
    SingularMatrix,
    SparseRows,
    _operator_rows,
    _rref_in_place,
    _transpose,
    det,
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


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def rational_matrix(nrows, ncols):
    return st.lists(st.lists(rationals, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(
        lambda rows: Matrix(RATIONAL, rows))


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


def stacked_exact_rows(tag, constraints, ncols):
    """SparseRows stacking the exact rows of each intertwiner constraint:
    the system kernel_intersection solves."""
    return SparseRows(tag, ncols, [sorted(e.items()) for c in constraints
                                   for e in exact_rows(tag, *c.operator)])


def test_kernel_intersection_matches_stacked():
    def constraint(a, b):
        return IntertwinerConstraint(RATIONAL, from_matrix(rmat(a)),
                                     from_matrix(rmat(b)), 2, 2)

    def stacked(seq, ncols=4):
        return kernel_basis(stacked_exact_rows(RATIONAL, seq, ncols))

    # X a = b X on 2 x 2 X: the kernel of a is the diagonal X, that of b
    # the X = [[x, y], [0, x]]
    a = constraint([[1, 0], [0, 2]], [[1, 0], [0, 2]])
    b = constraint([[1, 1], [0, 1]], [[1, 1], [0, 1]])
    assert kernel_intersection(RATIONAL, [a, b], 4) == stacked([a, b])
    # v vanishes on ker a (its images there are all zero); k leaves
    # nothing of ker a
    v = constraint([[5, 0], [0, 7]], [[5, 0], [0, 7]])
    k = constraint([[1, 0], [0, 2]], [[2, 0], [0, 1]])
    for seq in ([a, v], [a, v, b], [a, b, v], [b, a], [a, k], [a, b, k]):
        assert kernel_intersection(RATIONAL, seq, 4) == stacked(seq)
    assert kernel_intersection(RATIONAL, [a, v], 4) == stacked([a])
    assert kernel_intersection(RATIONAL, [a, k], 4) == []
    # no constraints: the whole space as sparse unit vectors, in order
    one = RATIONAL.one()
    assert kernel_intersection(RATIONAL, [], 3) == stacked([], 3) == \
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


def mostly_zero_rows(draw, tag, d):
    """A d x d matrix as sparse rows, each cell drawn from four zeros and
    the field_values, so that whole rows are often empty."""
    cell = st.sampled_from([tag.zero()] * 4 + field_values(tag))
    return [{j: x for j in range(d) if (x := draw(cell))} for _ in range(d)]


@st.composite
def sparse_constraints(draw):
    """(tag, dv, dw, pairs): one to three pairs (a, b) of sparse rows over
    Q, Q(z_4) or Q(q), X being dw x dv, mostly zero cells, so that empty
    rows and single-nonzero rows come up often. On request the first pair
    is diagonal with entries from a two-element set, so that its kernel is
    spanned by unit vectors found by equality tests, or a pair is repeated
    up to a factor, so that it vanishes on the span found before it."""
    tag = draw(st.sampled_from((RATIONAL, cyclotomic_field(4),
                                RATIONAL_FUNCTION)))
    dv, dw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pairs = [(mostly_zero_rows(draw, tag, dv), mostly_zero_rows(draw, tag, dw))
             for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        values = st.sampled_from(draw(st.lists(
            st.sampled_from(field_values(tag)), min_size=2, max_size=2)))
        pairs[0] = tuple([{c: draw(values)} for c in range(d)]
                         for d in (dv, dw))
    if draw(st.booleans()):
        f = draw(st.sampled_from(field_values(tag)))
        pairs.append(tuple([{j: f * x for j, x in row.items()} for row in m]
                           for m in draw(st.sampled_from(pairs))))
    return tag, dv, dw, pairs


@st.composite
def dense_constraints(draw):
    """(RATIONAL, dv, dw, pairs): one to three pairs (a, b) of dense
    rational matrices as sparse rows, b being a on request when dv = dw,
    so that the kernel holds the identity."""
    dv, dw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(rational_matrix(dv, dv))
        b = a if dv == dw and draw(st.booleans()) else \
            draw(rational_matrix(dw, dw))
        pairs.append((from_matrix(a), from_matrix(b)))
    return RATIONAL, dv, dw, pairs


@given(st.one_of(dense_constraints(), sparse_constraints()))
def test_kernel_intersection_generic(case):
    tag, dv, dw, pairs = case
    ncols = dv * dw
    constraints = [IntertwinerConstraint(tag, a, b, dv, dw) for a, b in pairs]
    rows = stacked_exact_rows(tag, constraints, ncols)
    stacked = Matrix(tag, dense(tag, rows.rows, ncols))
    kernel = kernel_intersection(tag, constraints, ncols)
    assert kernel == kernel_basis(rows)
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


intertwiner_cases = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda d: st.tuples(rational_matrix(d[0], d[0]),
                        rational_matrix(d[1], d[1]),
                        rational_matrix(d[1], d[0])))


def assert_rows_scale_exact_rows(tag, c):
    """Each row that _operator_rows writes for the constraint c is a nonzero
    multiple of its exact row, or both rows are empty."""
    rows = _operator_rows(tag, *c.operator)
    exact = exact_rows(tag, *c.operator)
    assert len(rows) == len(exact) == c.nrows
    for row, e in zip(rows, exact):
        row = dict(row)
        assert row.keys() == e.keys() and all(row.values())
        if row:
            j = min(row)
            f = row[j] / e[j]
            assert all(x == f * e[k] for k, x in row.items())


def assert_pairs_are_exact_rows(tag, c):
    """Exact row k of c is x_i - x_j for pairs[k] = (i, j), or empty when
    i = j."""
    one = tag.one()
    exact = exact_rows(tag, *c.operator)
    assert len(c.pairs) == len(exact) == c.nrows
    for (i, j), e in zip(c.pairs, exact):
        assert e == ({} if i == j else {i: one, j: -one})


@given(intertwiner_cases)
def test_intertwiner_constraint_applies_bx_minus_xa(case):
    """The constraint is the operator X -> bX - Xa, counted as dw * dv rows:
    its exact rows apply it, and _operator_rows writes each up to a nonzero
    factor."""
    a, b, x = case
    c = IntertwinerConstraint(RATIONAL, from_matrix(a), from_matrix(b),
                              a.nrows, b.nrows)
    n = a.nrows * b.nrows
    assert c.nrows == c.ncols == n
    exact = stacked_exact_rows(RATIONAL, [c], n)
    assert apply_rows(exact, x.vec()) == difference(b * x, x * a).vec()
    assert_rows_scale_exact_rows(RATIONAL, c)


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_intertwiner_constraint_of_permutations_has_two_entries_a_row(perms):
    a, b = (_transpose(perm_columns(RATIONAL, p), len(p)) for p in perms)
    c = IntertwinerConstraint(RATIONAL, a, b, len(a), len(b))
    assert c.nrows == c.ncols == len(perms[0]) ** 2
    assert_pairs_are_exact_rows(RATIONAL, c)


def is_permutation(tag, m):
    cols = [c for row in m for c in row]
    return (all(len(row) == 1 for row in m)
            and sorted(cols) == list(range(len(m)))
            and all(x == tag.one() for row in m for x in row.values()))


@st.composite
def permutation_and_general_constraints(draw):
    """(tag, ncols, [(constraint, general, permutations)]) over Q, Q(z_4) or
    Q(q), X being dw x dv, in any order: intertwiner constraints, each with
    the constraint that the general path builds from the same pair and
    whether both are permutations. The pairs are permutations, identities
    (all rows zero), matrices with one entry a row, which may repeat a
    column or differ from 1, diagonal matrices whose entries come from a
    two-element set, so that a lone cell's two values are often equal,
    general matrices with up to three nonzeros a row, or rows whose cells
    are mostly zero, so that whole rows are often empty."""
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
            a, b = mostly_zero_rows(draw, tag, dv), \
                mostly_zero_rows(draw, tag, dw)
        elif kind == "one entry a row":
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
            general = IntertwinerConstraint(tag, a, b, dv, dw)
        cases.append((IntertwinerConstraint(tag, a, b, dv, dw), general,
                      is_permutation(tag, a) and is_permutation(tag, b)))
    return tag, ncols, cases


@given(permutation_and_general_constraints())
def test_kernel_intersection_merges_permutation_constraints(case):
    """Union-find on the leading permutation constraints, elimination from
    the first general one on, lone cells decided by equality and later
    constraints applied to the span: the kernel of the stacked exact rows
    either way."""
    tag, ncols, cases = case
    constraints = [c for c, _, _ in cases]
    kernel = kernel_intersection(tag, constraints, ncols)
    for c, general, permutations in cases:
        assert (c.pairs is not None) == permutations
        assert general.pairs is None and general.operator == c.operator
        assert_rows_scale_exact_rows(tag, c)
        if permutations:
            assert_pairs_are_exact_rows(tag, c)
    assert kernel == kernel_basis(stacked_exact_rows(tag, constraints, ncols))
    generals = [general for _, general, _ in cases]
    assert kernel_intersection(tag, generals, ncols) == kernel


def test_permutation_constraint_writes_its_rows_when_read():
    """A constraint counts dw * dv rows but holds none: the union-find
    solves two permutations by their pairs, a first general constraint is
    eliminated on rows whose lone cells are decided by equality, and a
    later one is applied to the span found so far. Each way gives the
    kernel of the exact rows of X -> bX - Xa."""
    one = RATIONAL.one()
    a, b = [{1: one}, {2: one}, {0: one}], [{1: one}, {0: one}]
    c = IntertwinerConstraint(RATIONAL, a, b, 3, 2)
    assert c.nrows == c.ncols == 6
    assert_pairs_are_exact_rows(RATIONAL, c)
    with mock.patch("fsind.linalg._permutation", return_value=None):
        general = IntertwinerConstraint(RATIONAL, a, b, 3, 2)
    assert general.pairs is None and general.nrows == c.nrows
    kernel = kernel_intersection(RATIONAL, [c], 6)
    assert kernel == kernel_intersection(RATIONAL, [general], 6) == \
        kernel_basis(stacked_exact_rows(RATIONAL, [c], 6))
    # diagonal: lone cells, equal at (0, 0) only; then a general pair that
    # fixes E_00
    diag_a, diag_b = [{0: F(2)}, {1: F(3)}, {2: F(5)}], [{0: F(2)}, {1: F(7)}]
    gen_a = [{0: F(1)}, {0: F(2), 1: F(2)}, {0: F(4), 2: F(1)}]
    gen_b = [{0: F(1), 1: F(3)}, {1: F(-2)}]
    first, later = (IntertwinerConstraint(RATIONAL, x, y, 3, 2)
                    for x, y in ((diag_a, diag_b), (gen_a, gen_b)))
    assert first.pairs is None and later.pairs is None
    assert first.nrows == later.nrows == 6
    kernel = kernel_intersection(RATIONAL, [first, later], 6)
    for m in (first, later):
        assert_rows_scale_exact_rows(RATIONAL, m)
    # 2 X01 - X01 3 = -X01: written as X01 = 0, and X00 left free
    rows = _operator_rows(RATIONAL, *first.operator)
    assert rows[0] == [] and rows[1] == [(1, one)]
    assert exact_rows(RATIONAL, diag_a, diag_b, 3, 2)[1] == {1: F(-1)}
    stacked = stacked_exact_rows(RATIONAL, [first, later], 6)
    assert kernel == kernel_basis(stacked) == [[(0, one)]]


def test_intertwiner_constraint_needs_square_matrices():
    one, two = from_matrix(rmat([[1]])), from_matrix(rmat([[1], [2]]))
    with pytest.raises(DimensionMismatch):  # column 1 of a 1 x 1 matrix
        IntertwinerConstraint(RATIONAL, from_matrix(rmat([[1, 2]])), one,
                              1, 1)
    with pytest.raises(DimensionMismatch):  # 2 rows for a 1 x 1 matrix
        IntertwinerConstraint(RATIONAL, one, two, 1, 1)
    with pytest.raises(DimensionMismatch):  # column -1
        IntertwinerConstraint(RATIONAL, one, [{-1: RATIONAL.one()}], 1, 1)
    with pytest.raises(DimensionMismatch,
                       match="constraint has 1 columns, expected 2"):
        kernel_intersection(
            RATIONAL, [IntertwinerConstraint(RATIONAL, one, one, 1, 1)], 2)


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
