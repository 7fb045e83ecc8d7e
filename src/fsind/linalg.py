"""Exact linear algebra over the scalar fields.

Matrix is dense and immutable by convention (nothing mutates rows after
construction); Gauss-Jordan on its rows (rank, inverse, span solving) skips
zero cells, and determinants use fraction-free Bareiss elimination so
rational-function entries do not balloon mid-computation. The intertwiner
solver never goes dense: its d^2 x d^2 systems have a few nonzeros a row,
so they are built, eliminated and restricted as SparseRows.

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


class SparseRows:
    """Rows of a linear map, each the list of its nonzero (column, value)
    pairs: the constraint type that kernel_basis eliminates on."""

    __slots__ = ("tag", "nrows", "ncols", "rows")

    def __init__(self, tag: FieldTag, ncols, rows):
        self.tag, self.ncols, self.rows = tag, ncols, rows
        self.nrows = len(rows)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def apply(self, vec):
        """The map applied to a dense vector, returned as a tuple."""
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length %d != %d"
                                    % (len(vec), self.ncols))
        z = self.tag.zero()
        return tuple(sum((a * vec[j] for j, a in row), z) for row in self.rows)


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


def _sparse_rows(m):
    """m as SparseRows; a Matrix keeps only its nonzero cells."""
    if isinstance(m, SparseRows):
        return m
    return SparseRows(m.tag, m.ncols,
                      [[(j, a) for j, a in enumerate(r) if a] for r in m.rows])


def kernel_basis(m):
    """Canonical basis of {x : m x = 0}, for a Matrix or SparseRows.

    One sparse Gauss-Jordan elimination takes the pivot of each row at its
    last nonzero column. With that reversed column order the null space
    vector of a free column f has its 1 at f and its other entries at pivot
    columns right of f, so ordered by f these vectors are already the
    canonical RREF basis. A Matrix gets tuples back, SparseRows get sparse
    vectors [(column, value), ...] in ascending column order.
    """
    sparse = _sparse_rows(m)
    pivots = {}  # column -> {column: value} left of it; the pivot is 1
    for row in sparse.rows:
        acc = dict(row)
        while acc:
            c = max(acc)
            p = pivots.get(c)
            if p is None:
                f = acc.pop(c)
                if acc:  # a lone nonzero is a unit pivot as it stands
                    inv = 1 / f
                    acc = {j: inv * b for j, b in acc.items()}
                pivots[c] = acc
                break
            _axpy(acc, -acc.pop(c), p.items())
    one = sparse.tag.one()
    vectors = {f: [(f, one)] for f in range(sparse.ncols) if f not in pivots}
    # back substitution, lowest pivot first: each row is reduced against
    # fully reduced lower ones, so no pivot column survives in another row
    for c in sorted(pivots):
        p = pivots[c]
        for j in [j for j in p if j in pivots]:
            _axpy(p, -p.pop(j), pivots[j].items())
        for j, b in p.items():
            vectors[j].append((c, -b))
    basis = list(vectors.values())
    return basis if m is sparse else _dense(m.tag, basis, m.ncols)


def _dense(tag, vectors, ncols):
    z = tag.zero()
    return [tuple(v.get(j, z) for j in range(ncols)) for v in map(dict, vectors)]


def span_canonical(tag, vectors):
    """Unique RREF basis of the span of the given vectors."""
    if not vectors:
        return []
    rows = [list(v) for v in vectors]
    pv = _rref_in_place(rows, len(rows[0]))
    return [tuple(v) for v in rows[:len(pv)]]


def intertwiner_constraint(a: Matrix, b: Matrix):
    """SparseRows of X -> bX - Xa on row-major vec(X), X being b.nrows x a.nrows.

    Its kernel is {X : X a = b X}, the maps intertwining a with b. Every
    linear system of the package (hom spaces, invariant forms, commutants)
    is an intersection of such kernels. Row (r, c) holds the nonzeros of
    row r of b and of column c of a, so a permutation action gives at most
    two entries a row.
    """
    if a.nrows != a.ncols or b.nrows != b.ncols:
        raise DimensionMismatch("intertwiner constraint needs square matrices,"
                                " got %s and %s" % (a.shape, b.shape))
    dv, dw = a.nrows, b.nrows
    b_rows = [[(s, x) for s, x in enumerate(row) if x] for row in b.rows]
    a_cols = [[(t, -y) for t, y in enumerate(col) if y]
              for col in zip(*a.rows)]
    rows = []
    for r, b_row in enumerate(b_rows):
        for c, a_col in enumerate(a_cols):
            row = {s * dv + c: x for s, x in b_row}
            for t, y in a_col:  # the terms share only the cell t = c, s = r
                j = r * dv + t
                x = row.get(j)
                row[j] = y if x is None else x + y
            rows.append([(j, x) for j, x in row.items() if x])
    return SparseRows(a.tag, dw * dv, rows)


def _axpy(acc, f, v):
    """acc += f v, acc a dict and v (column, value) pairs; entries that
    cancel are dropped."""
    for j, b in v:
        x = acc.get(j)
        if x is None:
            acc[j] = f * b
        else:
            x = x + f * b
            if x:
                acc[j] = x
            else:
                del acc[j]


def _combine(coeffs, vectors):
    """sum f vectors[k] over the pairs (k, f) of coeffs, as a sparse vector."""
    out = {}
    for k, f in coeffs:
        _axpy(out, f, vectors[k])
    return sorted(out.items())


def kernel_intersection(tag, constraints, ncols):
    """Canonical basis of the joint kernel of a sequence of constraints.

    Constraints (SparseRows or Matrix) are consumed lazily and each one is
    restricted to the solution span found so far, so the eliminations stay
    small once the first few constraints have cut the space down. The span
    is kept as sparse RREF vectors; recombining such a basis by an RREF
    coefficient basis gives an RREF basis again, so the result is canonical.
    """
    basis = None  # sparse vectors [(column, value), ...] spanning the solutions
    for c in constraints:
        if c.ncols != ncols:
            raise DimensionMismatch("constraint has %d columns, expected %d"
                                    % (c.ncols, ncols))
        c = _sparse_rows(c)
        if basis is None:
            basis = kernel_basis(c)
        else:
            columns = [[] for _ in range(ncols)]  # j -> [(k, basis[k] at j)]
            for k, v in enumerate(basis):
                for j, b in v:
                    columns[j].append((k, b))
            restricted = [_combine(row, columns) for row in c.rows]
            basis = [_combine(v, basis) for v in
                     kernel_basis(SparseRows(tag, len(basis), restricted))]
        if not basis:
            return []
    if basis is None:
        return [tuple(r) for r in Matrix.identity(tag, ncols).rows]
    return _dense(tag, basis, ncols)


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
