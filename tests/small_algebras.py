"""Small hand-built algebras, and helpers, shared by the tests."""

import itertools

from fsind.constructors import CayleyTable, CoalgebraSpec
from fsind.documents import DocumentError, _scalar
from fsind.formulas import (
    DegenerateTraceForm,
    NotAnIntegral,
    NotSeparable,
    NotSymmetric,
    SeparabilityIdempotent,
    SymmetricFormData,
    validate_separability,
)
from fsind.linalg import Matrix, SingularMatrix, SparseRows, det, inverse
from fsind.pivotal import (
    ModuleRep,
    PivotalAlgebra,
    _accumulate,
    _evaluate,
    _times,
)
from fsind.scalars import RATIONAL, RATIONAL_FUNCTION, RatFun


def sparse_element(u):
    """A dense coefficient tuple as a sparse element {index: value}: the
    conversion the library no longer makes, since its loader and
    constructors write sparse elements directly."""
    return {i: x for i, x in enumerate(u) if x}


def dense(tag, vectors, ncols):
    """Sparse vectors [(column, value), ...] as dense tuples of length ncols."""
    z = tag.zero()
    return [tuple(dict(v).get(j, z) for j in range(ncols)) for v in vectors]


def to_matrix(tag, rows):
    """A square matrix given as sparse rows {column: value}, as a Matrix."""
    return Matrix(tag, dense(tag, [r.items() for r in rows], len(rows)))


def from_matrix(m):
    """A Matrix as sparse rows {column: value}, the format of a module."""
    return [sparse_element(r) for r in m.rows]


def columns_to_matrix(tag, cols):
    """A square matrix given as sparse columns {row: value}, as a Matrix:
    the format of S and of an involution."""
    return transpose(to_matrix(tag, cols))


def matrix_columns(m):
    """A Matrix as sparse columns {row: value}."""
    return from_matrix(transpose(m))


def transpose(m):
    return Matrix(m.tag, [list(col) for col in zip(*m.rows)] if m.rows else [])


def trace(m):
    return sum((m.rows[i][i] for i in range(m.nrows)), m.tag.zero())


def add(a, b):
    """a + b for two Matrix objects of one shape."""
    return Matrix(a.tag, [[x + y for x, y in zip(ra, rb)]
                          for ra, rb in zip(a.rows, b.rows)])


def scale(m, s):
    """The Matrix m with every entry multiplied by the scalar s."""
    return Matrix(m.tag, [[s * x for x in r] for r in m.rows])


def difference(a, b):
    """a - b for two Matrix objects of one shape."""
    return add(a, scale(b, -a.tag.one()))


def sparse_rows(m):
    """A Matrix as SparseRows of its nonzero cells, the input of rank,
    kernel_basis and kernel_intersection."""
    return SparseRows(m.tag, m.ncols,
                      [[(j, x) for j, x in enumerate(r) if x] for r in m.rows])


def sparse_vectors(mats):
    """Matrix objects as sparse row-major vectors [(cell, value), ...], the
    format of the solver's forms."""
    return [[(j, x) for j, x in enumerate(m.vec()) if x] for m in mats]


def apply_rows(c, vec):
    """SparseRows c applied to a dense vector, as a tuple."""
    z = c.tag.zero()
    return tuple(sum((x * vec[j] for j, x in row), z) for row in c.rows)


def dense_element(A, u):
    """A sparse element of A as a dense coefficient tuple."""
    z = A.tag.zero()
    return tuple(u.get(i, z) for i in range(A.dim))


def module_of(name, mats):
    """The ModuleRep acting by the given dense matrices."""
    return ModuleRep(name, mats[0].nrows,
                     tuple(from_matrix(m) for m in mats), mats[0].tag)


def dense_action(V):
    """R(b_i) of the module V as Matrix objects."""
    return tuple(to_matrix(V.tag, m) for m in V.action)


def dense_of_vector(A, mats, u):
    """sum u_k mats[k] over a dense coefficient tuple u."""
    out = Matrix.from_sparse(A.tag, mats[0].nrows, mats[0].ncols, [])
    for k, c in enumerate(u):
        if c:
            out = add(out, scale(mats[k], c))
    return out


def symmetric_group_table(n):
    """S_n on its elements in itertools.permutations order, p q being
    x -> p(q(x))."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return CayleyTable(tuple(tuple(index[tuple(p[q[x]] for x in range(n))]
                                   for q in perms) for p in perms))


def s4_table():
    return symmetric_group_table(4)


def conjugate_module(V, P, name=None):
    """Base change: action matrices become P R P^-1."""
    pinv = inverse(P)
    return module_of(name or V.name, [P * m * pinv for m in dense_action(V)])


# --- dense references --------------------------------------------------------
# The library keeps algebra elements sparse, with one product read off A.mult.
# These take dense coefficient tuples and run over every coordinate pair: the
# references that product, S and the checkers are compared with.

def basis_vector(A, i):
    z, o = A.tag.zero(), A.tag.one()
    return tuple(o if j == i else z for j in range(A.dim))


def multiply(A, u, v):
    out = [A.tag.zero()] * A.dim
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            c = ui * vj
            for k, s in A.mult.get((i, j), ()):
                out[k] = out[k] + c * s
    return tuple(out)


def left_mult(A, u):
    """Matrix of x -> u*x on coefficient vectors."""
    cols = [multiply(A, u, basis_vector(A, j)) for j in range(A.dim)]
    return Matrix(A.tag, list(zip(*cols)))


def apply_S(A, u):
    return columns_to_matrix(A.tag, A.S).apply(u)


def dense_rref(rows, ncols):
    """Reduce dense rows to RREF in place by column scans, row swaps and
    dense row updates; returns the list of pivot column indices. The
    reference for linalg._rref_in_place, sharing no code with the sparse
    elimination."""
    pivots = []
    prow = 0
    for col in range(ncols):
        pivot = None
        for r in range(prow, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[prow], rows[pivot] = rows[pivot], rows[prow]
        # rows from prow on are zero left of col; only nonzeros take part
        pivot_row = rows[prow]
        nonzeros = [(j, b) for j, b in enumerate(pivot_row[col:], col) if b]
        if pivot_row[col] != 1:
            inv = 1 / pivot_row[col]
            nonzeros = [(j, inv * b) for j, b in nonzeros]
            for j, b in nonzeros:
                pivot_row[j] = b
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != prow:
                for j, b in nonzeros:
                    row[j] = row[j] - f * b
        pivots.append(col)
        prow += 1
        if prow == len(rows):
            break
    return pivots


def dense_rank(m):
    """The rank of a Matrix by dense_rref."""
    return len(dense_rref([list(r) for r in m.rows], m.ncols))


def span_canonical(vectors):
    """Unique RREF basis of the span of the given dense vectors."""
    if not vectors:
        return []
    rows = [list(v) for v in vectors]
    pv = dense_rref(rows, len(rows[0]))
    return [tuple(v) for v in rows[:len(pv)]]


def generators_by_closure(A):
    """The reference for PivotalAlgebra's generator closure: each basis
    index outside the subalgebra the earlier ones generate, that is, the
    unit's span grown by right multiplication until it is closed, the whole
    span eliminated again at every step."""
    gens, span = [], span_canonical([dense_element(A, A.unit)])
    for i in range(A.dim):
        if len(span) == A.dim:
            break
        grown = span_canonical(span + [basis_vector(A, i)])
        if len(grown) > len(span):
            gens.append(i)
        while len(grown) > len(span):
            span = grown
            grown = span_canonical(span + [
                multiply(A, w, basis_vector(A, g)) for w in span for g in gens])
    return tuple(gens)


def cayley_violations_by_full_loop(ct):
    """The group axioms of a Cayley table with associativity checked on
    every triple: the reference for constructors.validate_cayley_table,
    with the same messages in the same order."""
    bad = []
    n, t = ct.order, ct.table
    for i, row in enumerate(t):
        if len(row) != n:
            return ["row %d has length %d, expected %d" % (i, len(row), n)]
        if any(not isinstance(x, int) or not 0 <= x < n for x in row):
            return ["row %d contains an out-of-range entry" % i]
    for i in range(n):
        if sorted(t[i]) != list(range(n)):
            bad.append("row %d is not a permutation" % i)
        if sorted(t[j][i] for j in range(n)) != list(range(n)):
            bad.append("column %d is not a permutation" % i)
    identities = [e for e in range(n) if all(t[e][j] == j == t[j][e]
                                             for j in range(n))]
    if not identities:
        return bad + ["no two-sided identity"]
    for i, j, k in itertools.product(range(n), repeat=3):
        if t[t[i][j]][k] != t[i][t[j][k]]:
            return bad + ["associativity fails at (%d, %d, %d)" % (i, j, k)]
    return bad


def validate_pivotal_by_definition(A):
    """The pivotal axioms by dense products of basis vectors, one triple
    at a time: the reference for pivotal.validate_pivotal, with the same
    messages in the same order."""
    bad = []
    n = A.dim
    basis = [basis_vector(A, i) for i in range(n)]
    unit, g = dense_element(A, A.unit), dense_element(A, A.g)

    for i in range(n):
        if multiply(A, unit, basis[i]) != basis[i]:
            bad.append("unit fails on the left at index %d" % i)
        if multiply(A, basis[i], unit) != basis[i]:
            bad.append("unit fails on the right at index %d" % i)

    for i in range(n):
        for j in range(n):
            left = multiply(A, basis[i], basis[j])
            for k in range(n):
                if (multiply(A, left, basis[k])
                        != multiply(A, basis[i], multiply(A, basis[j], basis[k]))):
                    bad.append("associativity fails at (%d, %d, %d)" % (i, j, k))

    for i in range(n):
        for j in range(n):
            lhs = apply_S(A, multiply(A, basis[i], basis[j]))
            rhs = multiply(A, apply_S(A, basis[j]), apply_S(A, basis[i]))
            if lhs != rhs:
                bad.append("S is not an anti-map at (%d, %d)" % (i, j))

    sg = apply_S(A, g)
    if multiply(A, sg, g) != unit or multiply(A, g, sg) != unit:
        bad.append("S(g) is not the inverse of g")
    else:
        for i in range(n):
            lhs = apply_S(A, apply_S(A, basis[i]))
            rhs = multiply(A, g, multiply(A, basis[i], sg))
            if lhs != rhs:
                bad.append("S^2 != g(.)g^-1 at index %d" % i)
    return bad


def twisted_S_by_dense_product(A, T):
    """The columns of S o tau from the dense product of the matrices S and
    T: the reference for pivotal.twist_algebra, which composes columns."""
    return matrix_columns(columns_to_matrix(A.tag, A.S)
                          * columns_to_matrix(A.tag, T))


def eigenspace_dimensions_by_rank(tag, op):
    """(m - rank(op - I), m - rank(op + I)) for the sparse columns op of an
    m x m matrix, by two dense eliminations: the reference for the
    dimensions the indicator core reads off nu."""
    m, one = len(op), tag.one()
    ident = Matrix.identity(tag, m)
    return tuple(m - dense_rank(difference(columns_to_matrix(tag, op),
                                           scale(ident, s)))
                 for s in (one, -one))


def validate_algebra_involution_by_definition(A, T):
    """The involution axioms by dense products of basis vectors and dense
    matrices T and S: the reference for pivotal.validate_algebra_involution,
    which reads the sparse columns T."""
    bad = []
    n = A.dim
    T, S, g = (columns_to_matrix(A.tag, T), columns_to_matrix(A.tag, A.S),
               dense_element(A, A.g))
    if T * T != Matrix.identity(A.tag, n):
        bad.append("tau^2 != id")
    basis = [basis_vector(A, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = T.apply(multiply(A, basis[i], basis[j]))
            rhs = multiply(A, T.apply(basis[i]), T.apply(basis[j]))
            if lhs != rhs:
                bad.append("tau is not an algebra map at (%d, %d)" % (i, j))
    if T.apply(g) != g:
        bad.append("tau(g) != g")
    if T * S != S * T:
        bad.append("tau does not commute with S")
    return bad


def module_violations_by_full_loop(A, V):
    """R(1) = I and R(b_i) R(b_j) = R(b_i b_j) on every basis pair, by
    dense matrix products: the reference for pivotal.validate_module, with
    the same messages in the same order."""
    action = dense_action(V)
    bad = []
    if (dense_of_vector(A, action, dense_element(A, A.unit))
            != Matrix.identity(A.tag, V.dim)):
        bad.append("module %r: unit does not act as identity" % V.name)
    for i in range(A.dim):
        for j in range(A.dim):
            prod = multiply(A, basis_vector(A, i), basis_vector(A, j))
            if action[i] * action[j] != dense_of_vector(A, action, prod):
                bad.append("module %r: action breaks at (%d, %d)"
                           % (V.name, i, j))
    return bad


def module_violations_by_sparse_products(A, V):
    """pivotal.validate_module with every pair compared by a sparse product
    of scalars, permutation actions included: the reference for its index
    path, with the generator rows first and every pair after a failure."""
    def breaks(i, j):
        return (_times(V.action[i], V.action[j])
                != V.of_vector(_accumulate(A.mult.get((i, j), ()))))

    one = A.tag.one()
    unit_ok = V.of_vector(A.unit) == [{r: one} for r in range(V.dim)]
    if unit_ok and not any(breaks(i, j) for i in A.generators
                           for j in range(A.dim)):
        return []
    bad = [] if unit_ok else [
        "module %r: unit does not act as identity" % V.name]
    bad.extend("module %r: action breaks at (%d, %d)" % (V.name, i, j)
               for i in range(A.dim) for j in range(A.dim) if breaks(i, j))
    return bad


def validate_separability_by_definition(A, E):
    """E' E'' = 1 and b E = E b on basis elements, by dense products and
    dense tensors: the reference for formulas.validate_separability."""
    bad = []
    terms = [(dense_element(A, u), dense_element(A, v)) for u, v in E.terms]
    total = (A.tag.zero(),) * A.dim
    for u, v in terms:
        total = tuple(x + y for x, y in zip(total, multiply(A, u, v)))
    if total != dense_element(A, A.unit):
        bad.append("E' E'' does not multiply to the unit")
    z = A.tag.zero()
    for i in range(A.dim):
        b = basis_vector(A, i)
        lhs = {}
        rhs = {}
        for u, v in terms:
            bu = multiply(A, b, u)
            vb = multiply(A, v, b)
            for p, x in enumerate(bu):
                if not x:
                    continue
                for q, y in enumerate(v):
                    if y:
                        lhs[(p, q)] = lhs.get((p, q), z) + x * y
            for p, x in enumerate(u):
                if not x:
                    continue
                for q, y in enumerate(vb):
                    if y:
                        rhs[(p, q)] = rhs.get((p, q), z) + x * y
        lhs = {k: v_ for k, v_ in lhs.items() if v_}
        rhs = {k: v_ for k, v_ in rhs.items() if v_}
        if lhs != rhs:
            bad.append("aE = Ea fails on basis element %d" % i)
    return bad


def casimir_sum(A, chi, terms):
    """chi(sum S(u) g v) over the sparse terms u x v, the element built
    afresh for each character: the reference for the indicator elements the
    closed-form routes keep per algebra."""
    return _evaluate(A.tag, chi, _accumulate(
        kx for u, v in terms
        for kx in A.multiply(A.multiply(A.apply_S(u), A.g), v).items()))


def integral_idempotent_by_full_loop(A):
    """formulas.hopf_integral_idempotent with the integral checked on every
    basis element: the reference for its check on generators, raising the
    same exceptions with the same messages."""
    lam, one = A.integral, A.tag.one()
    if _evaluate(A.tag, A.counit, lam) != one:
        raise NotAnIntegral("eps(Lambda) != 1")
    for i in range(A.dim):
        b = {i: one}
        expected = _accumulate((k, A.counit[i] * x) for k, x in lam.items())
        if A.multiply(b, lam) != expected or A.multiply(lam, b) != expected:
            raise NotAnIntegral(
                "Lambda is not a two-sided integral (fails at %d)" % i)
    left = {}
    for k, lk in lam.items():
        for i, j, c in A.comult.get(k, ()):
            left.setdefault(j, []).append((i, lk * c))
    terms = []
    for j in sorted(left):
        u = A.apply_S(_accumulate(left[j]))
        if u:
            terms.append((u, {j: one}))
    E = SeparabilityIdempotent(terms)
    bad = validate_separability(A, E)
    if bad:
        raise NotSeparable(bad)
    return E


def symmetric_form_data_by_products(A):
    """The Gram matrix phi(b_i b_j) by dense products of basis vectors, the
    dual basis from the columns of its inverse (linalg.inverse) and the
    volume sum_i b_i b_i-dual by dense products, both made sparse at the end:
    the reference for formulas.symmetric_form_data."""
    n, z = A.dim, A.tag.zero()
    basis = [basis_vector(A, i) for i in range(n)]
    gram = Matrix(A.tag, [[sum((x * y for x, y in zip(
        A.trace_form, multiply(A, basis[i], basis[j]))), z)
        for j in range(n)] for i in range(n)])
    if gram != transpose(gram):
        raise NotSymmetric("phi(ab) != phi(ba) somewhere")
    try:
        dual = [tuple(col) for col in zip(*inverse(gram).rows)]
    except SingularMatrix:
        raise DegenerateTraceForm("the Gram matrix of phi is singular")
    volume = (z,) * n
    for b, w in zip(basis, dual):
        volume = tuple(x + y for x, y in zip(volume, multiply(A, b, w)))
    return SymmetricFormData(dual_basis=[sparse_element(w) for w in dual],
                             volume=sparse_element(volume))


def dual_numbers():
    """k[x]/(x^2) with S = id, g = 1 and the socle trace form."""
    one, zero = RATIONAL.one(), RATIONAL.zero()
    return PivotalAlgebra(
        tag=RATIONAL, dim=2, labels=("1", "x"),
        mult={(0, 0): ((0, one),), (0, 1): ((1, one),), (1, 0): ((1, one),)},
        unit={0: one},
        S=[{0: one}, {1: one}],
        g={0: one},
        trace_form=(zero, one),
        name="k[x]/(x^2)",
    )


def primitive_coalgebra():
    """The coalgebra on 1, x with x primitive: D(x) = 1 (x) x + x (x) 1,
    S(x) = -x and gamma = eps."""
    one = RATIONAL.one()
    return CoalgebraSpec(
        tag=RATIONAL, dim=2, labels=("1", "x"),
        comult={0: ((0, 0, one),), 1: ((0, 1, one), (1, 0, one))},
        counit={0: one},
        S=[{0: one}, {1: -one}],
        gamma={0: one},
        name="primitive",
    )


def upper_triangular():
    """T_2(Q) on the basis e11, e12, e22, with S the transpose along the
    antidiagonal (e11 <-> e22, e12 fixed), so S^2 = id, and g = 1.

    It is not semisimple: e12 spans its radical."""
    one = RATIONAL.one()
    return PivotalAlgebra(
        tag=RATIONAL, dim=3, labels=("e11", "e12", "e22"),
        # e11 e11 = e11, e11 e12 = e12, e12 e22 = e12, e22 e22 = e22
        mult={(0, 0): ((0, one),), (0, 1): ((1, one),),
              (1, 2): ((1, one),), (2, 2): ((2, one),)},
        unit={0: one, 2: one},
        S=[{2: one}, {1: one}, {0: one}],
        g={0: one, 2: one},
        name="T2(Q)",
    )


def upper_triangular_3():
    """T_3(Q) on the basis e11, e22, e33, e12, e23, e13, with S the
    transpose along the antidiagonal and g = 1. Its generators are
    e11, e22, e12 and e23: e13 = e12 e23 is an element kept before e23
    times e23."""
    one = RATIONAL.one()
    units = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)]
    index = {rc: k for k, rc in enumerate(units)}
    mult = {(a, b): ((index[(r, c2)], one),)
            for a, (r, c) in enumerate(units)
            for b, (r2, c2) in enumerate(units) if c == r2}
    flip = [index[(2 - c, 2 - r)] for r, c in units]
    return PivotalAlgebra(
        tag=RATIONAL, dim=6, labels=("e11", "e22", "e33", "e12", "e23", "e13"),
        mult=mult,
        unit={0: one, 1: one, 2: one},
        S=[{flip[j]: one} for j in range(6)],
        g={0: one, 1: one, 2: one},
        name="T3(Q)",
    )


def upper_triangular_natural():
    """The natural 2-dimensional module of upper_triangular(): e_ij acts
    as the matrix unit E_ij. End = Q, but it is not simple: Q e_1 is a
    submodule."""
    one, zero = RATIONAL.one(), RATIONAL.zero()

    def unit(r, c):
        return Matrix(RATIONAL, [[one if (i, j) == (r, c) else zero
                                  for j in range(2)] for i in range(2)])

    return module_of("natural", [unit(0, 0), unit(0, 1), unit(1, 1)])


def qsl2_violations_by_dense_products(m):
    """The defining relations of U_q(sl2) on a QslModule, checked with dense
    matrix products and cell-by-cell comparison; the reference for
    fsind.qsl2.verify_relations."""
    bad = []
    ident = Matrix.identity(RATIONAL_FUNCTION, m.dim)
    q = RatFun.generator()
    K, Kinv, E, F = (to_matrix(RATIONAL_FUNCTION, x)
                     for x in (m.K, m.Kinv, m.E, m.F))
    if K * Kinv != ident or Kinv * K != ident:
        bad.append("K K^-1 != 1")
    if K * E * Kinv != scale(E, q ** 2):
        bad.append("K E K^-1 != q^2 E")
    if K * F * Kinv != scale(F, q ** -2):
        bad.append("K F K^-1 != q^-2 F")
    comm = difference(E * F, F * E)
    target = scale(difference(K, Kinv), (q - q ** -1) ** -1)
    if comm != target:
        bad.append("[E, F] != (K - K^-1)/(q - q^-1)")
    return bad


def rows_by_dense_reader(tag, rows, n, where):
    """The rows of an n x n matrix document read densely: each row a dense
    tuple, each distinct literal string parsed once per matrix, every cell
    then truth-tested by sparse_element. The reference for documents._rows,
    which yields sparse rows directly."""
    if not isinstance(rows, list) or len(rows) != n:
        raise DocumentError("%s: expected %d matrix rows" % (where, n))
    memo, out = {}, []
    for i, xs in enumerate(rows):
        here = "%s[%d]" % (where, i)
        if not isinstance(xs, list) or len(xs) != n:
            raise DocumentError("%s: expected a list of %d scalars"
                                % (here, n))
        row = []
        for k, x in enumerate(xs):
            y = memo.get(x) if isinstance(x, str) else None
            if y is None:
                y = _scalar(tag, x, "%s[%d]" % (here, k))
                if isinstance(x, str):
                    memo[x] = y
            row.append(y)
        out.append(sparse_element(row))
    return out


def span_contains_invertible_by_dense_grams(tag, mats):
    """The self-duality test on dense Gram matrices: each Matrix by its
    rank, up to the first of full rank, then det of the pencil
    sum_i t^i F_i for t = 1..d (len(mats) - 1) + 2. The reference for
    pivotal.span_contains_invertible, which ranks sparse rows."""
    mats = list(mats)
    for m in mats:
        if dense_rank(m) == m.nrows:
            return True
    if len(mats) < 2:
        return False
    d = mats[0].nrows
    for t in range(1, d * (len(mats) - 1) + 3):
        combo, w = mats[0], 1
        for m in mats[1:]:
            w *= t
            combo = add(combo, scale(m, tag.coerce(w)))
        if det(combo):
            return True
    return False
