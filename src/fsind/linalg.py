"""Dense exact linear algebra over the scalar fields.

Matrices are immutable by convention (nothing mutates rows after
construction). Elimination is Gauss-Jordan with explicit zero tests, which
keeps the inner loops cheap on the very sparse constraint matrices this
package produces; determinants use fraction-free Bareiss elimination so
rational-function entries do not balloon mid-computation.

Kernel bases are canonical: the rows of the unique reduced row echelon
basis of the null space, ordered by leading index. Repeated runs therefore
produce identical matrices, which the CLI's byte-stable reports rely on.
"""

from __future__ import annotations

from .scalars import FieldTag


class DimensionMismatch(Exception):
    pass


class NotInSpan(Exception):
    pass


class SingularMatrix(Exception):
    pass


class Matrix:
    __slots__ = ("tag", "nrows", "ncols", "rows")

    def __init__(self, tag: FieldTag, rows):
        rows = [list(r) for r in rows]
        self.tag = tag
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.ncols:
                raise DimensionMismatch("ragged rows")
        self.rows = rows

    @staticmethod
    def zeros(tag, nrows, ncols):
        z = tag.zero()
        return Matrix(tag, [[z] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(tag, n):
        z, o = tag.zero(), tag.one()
        return Matrix(tag, [[o if i == j else z for j in range(n)]
                            for i in range(n)])

    @staticmethod
    def from_vec(tag, nrows, ncols, vec):
        """Inverse of .vec(): reshape a row-major flat vector."""
        if len(vec) != nrows * ncols:
            raise DimensionMismatch("vector length %d != %d*%d"
                                    % (len(vec), nrows, ncols))
        return Matrix(tag, [vec[i * ncols:(i + 1) * ncols]
                            for i in range(nrows)])

    def vec(self):
        """Row-major flattening, entry (r, c) at index r*ncols + c."""
        return tuple(x for row in self.rows for x in row)

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and all(a == b for ra, rb in zip(self.rows, other.rows)
                        for a, b in zip(ra, rb)))

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.vec()))

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shape %s vs %s" % (self.shape, other.shape))
        return Matrix(self.tag, [[a + b for a, b in zip(ra, rb)]
                                 for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shape %s vs %s" % (self.shape, other.shape))
        return Matrix(self.tag, [[a - b for a, b in zip(ra, rb)]
                                 for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.tag, [[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch("cannot multiply %s by %s"
                                    % (self.shape, other.shape))
        z = self.tag.zero()
        out = [[z] * other.ncols for _ in range(self.nrows)]
        brows = other.rows
        for i, arow in enumerate(self.rows):
            orow = out[i]
            for k, a in enumerate(arow):
                if not a:
                    continue
                brow = brows[k]
                for j, b in enumerate(brow):
                    if b:
                        orow[j] = orow[j] + a * b
        return Matrix(self.tag, out)

    def scale(self, s):
        return Matrix(self.tag, [[s * a for a in r] for r in self.rows])

    def transpose(self):
        return Matrix(self.tag, [list(col) for col in zip(*self.rows)]
                      if self.rows else [])

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length %d != %d"
                                    % (len(vec), self.ncols))
        z = self.tag.zero()
        out = []
        for row in self.rows:
            acc = z
            for a, v in zip(row, vec):
                if a and v:
                    acc = acc + a * v
            out.append(acc)
        return tuple(out)

    def trace(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("trace of a non-square matrix")
        acc = self.tag.zero()
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_zero(self):
        return all(not a for row in self.rows for a in row)

    def __repr__(self):
        return "Matrix(%s, %r)" % (self.tag, self.rows)


def _rref_in_place(rows, ncols):
    """Reduce rows to RREF; returns the list of pivot column indices."""
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


def rref(m: Matrix):
    rows = [list(r) for r in m.rows]
    pivots = _rref_in_place(rows, m.ncols)
    return Matrix(m.tag, rows), pivots


def rank(m: Matrix):
    rows = [list(r) for r in m.rows]
    return len(_rref_in_place(rows, m.ncols))


def kernel_basis(m: Matrix):
    """Canonical basis of {x : m x = 0} as a list of tuples."""
    rows = [list(r) for r in m.rows]
    pivots = _rref_in_place(rows, m.ncols)
    pivot_set = set(pivots)
    z, o = m.tag.zero(), m.tag.one()
    vectors = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        v = [z] * m.ncols
        v[free] = o
        for prow, pcol in enumerate(pivots):
            coeff = rows[prow][free]
            if coeff:
                v[pcol] = -coeff
        vectors.append(v)
    if not vectors:
        return []
    pv = _rref_in_place(vectors, m.ncols)
    return [tuple(v) for v in vectors[:len(pv)]]


def span_canonical(tag, vectors):
    """Unique RREF basis of the span of the given vectors."""
    if not vectors:
        return []
    rows = [list(v) for v in vectors]
    pv = _rref_in_place(rows, len(rows[0]))
    return [tuple(v) for v in rows[:len(pv)]]


def intertwiner_constraint(a: Matrix, b: Matrix):
    """Matrix of X -> bX - Xa on row-major vec(X), X being b.nrows x a.nrows.

    Its kernel is {X : X a = b X}, the maps intertwining a with b. Every
    linear system of the package (hom spaces, invariant forms, commutants)
    is an intersection of such kernels.
    """
    if a.nrows != a.ncols or b.nrows != b.ncols:
        raise DimensionMismatch("intertwiner constraint needs square matrices,"
                                " got %s and %s" % (a.shape, b.shape))
    dv, dw = a.nrows, b.nrows
    n = dw * dv
    z = a.tag.zero()
    rows = []
    for r, brow in enumerate(b.rows):
        for c in range(dv):
            row = [z] * n
            # the two terms share only the cell t = c (s = r); elsewhere
            # an entry is assigned, sparing a field addition to zero
            for s, x in enumerate(brow):
                if x:
                    row[s * dv + c] = x
            for t, arow in enumerate(a.rows):
                y = arow[c]
                if y:
                    j = r * dv + t
                    row[j] = row[j] - y if t == c else -y
            rows.append(row)
    return Matrix(a.tag, rows)


def _combine(coeffs, vectors):
    """sum_k coeffs[k] vectors[k], over the nonzero coeffs only."""
    out = {}
    for f, v in zip(coeffs, vectors):
        if f:
            for j, b in v:
                out[j] = out[j] + f * b if j in out else f * b
    return [(j, a) for j, a in sorted(out.items()) if a]


def kernel_intersection(tag, constraints, ncols):
    """Canonical basis of the joint kernel of a sequence of matrices.

    Constraints are consumed lazily and each one is restricted to the
    solution span found so far, so the eliminations stay small once the
    first few constraints have cut the space down. All of it is sparse: a
    column index of the spanning vectors meets each constraint row's
    nonzeros, and a solution recombines only the vectors it uses.
    """
    z = tag.zero()
    basis = None  # sparse vectors [(column, value), ...] spanning the solutions
    for c in constraints:
        if c.ncols != ncols:
            raise DimensionMismatch("constraint has %d columns, expected %d"
                                    % (c.ncols, ncols))
        if basis is None:
            basis = [[(j, a) for j, a in enumerate(v) if a]
                     for v in kernel_basis(c)]
        else:
            index = [[] for _ in range(ncols)]  # column -> [(k, basis[k] there)]
            for k, v in enumerate(basis):
                for j, b in v:
                    index[j].append((k, b))
            restricted = [[z] * len(basis) for _ in c.rows]
            for row, acc in zip(c.rows, restricted):
                for j, a in enumerate(row):
                    if a:
                        for k, b in index[j]:
                            acc[k] = acc[k] + a * b
            basis = [_combine(k, basis)
                     for k in kernel_basis(Matrix(tag, restricted))]
        if not basis:
            return []
    if basis is None:
        return [tuple(r) for r in Matrix.identity(tag, ncols).rows]
    return span_canonical(tag, [[v.get(j, z) for j in range(ncols)]
                                for v in map(dict, basis)])


def det(m: Matrix):
    """Determinant by fraction-free Bareiss elimination with row swaps."""
    if m.nrows != m.ncols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return m.tag.one()
    rows = [list(r) for r in m.rows]
    sign = 1
    prev = m.tag.one()
    for k in range(n - 1):
        if not rows[k][k]:
            for r in range(k + 1, n):
                if rows[r][k]:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return m.tag.zero()
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (pivot * rows[i][j] - rows[i][k] * rows[k][j]) / prev
            rows[i][k] = m.tag.zero()
        prev = pivot
    d = rows[n - 1][n - 1]
    return -d if sign < 0 else d


def inverse(m: Matrix):
    if m.nrows != m.ncols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.nrows
    ident = Matrix.identity(m.tag, n)
    rows = [list(r) + list(ir) for r, ir in zip(m.rows, ident.rows)]
    pivots = _rref_in_place(rows, 2 * n)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return Matrix(m.tag, [r[n:] for r in rows])


def solve_in_span(tag, vectors, target):
    """Coefficients expressing target in the given (independent) vectors.

    Raises NotInSpan when the system is inconsistent. With an independent
    spanning set the answer is unique.
    """
    if not vectors:
        if any(target):
            raise NotInSpan("target is nonzero but the span is trivial")
        return ()
    ncols = len(vectors) + 1
    rows = [list(col) + [t] for col, t in zip(zip(*vectors), target)]
    pivots = _rref_in_place(rows, ncols)
    if (ncols - 1) in pivots:
        raise NotInSpan("target lies outside the span")
    z = tag.zero()
    coeffs = [z] * len(vectors)
    for prow, pcol in enumerate(pivots):
        coeffs[pcol] = rows[prow][-1]
    return tuple(coeffs)
