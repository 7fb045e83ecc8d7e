"""Exact linear algebra over the scalar fields.

The package keeps one rule for its data: an algebra element is a sparse
dict {index: value} without zeros, a covector is a dense tuple, and Matrix,
dense and immutable by convention, is only what a report prints: the
canonical form and hom_space's matrices. A module's matrices are sparse
rows {column: value}, which IntertwinerConstraint takes as they are; S and
the involutions are sparse columns. One sparse Gauss-Jordan elimination
gives every rank, kernel, RREF and inverse: _insert_row adds a row to a
growing set of unit pivot rows and _back_substitute fully reduces them.
rank and kernel_basis take SparseRows only and read the pivot rows
directly; _rref_in_place runs both on mirrored columns for the dense
inverse and span solving, which no library route calls.
Determinants use fraction-free Bareiss elimination so rational-function
entries do not balloon; det's one library caller is the self-duality
pencil, whose sums are the only dense matrices an indicator builds besides
what its report prints. The intertwiner solver never goes dense, and it
never writes a d^2 x d^2 system at all: its one input is the
IntertwinerConstraint, the operator X -> bX - Xa without rows, and
kernel_intersection works from that operator. The first constraint is
eliminated on rows written from it, a row that holds a single cell of X
being decided by one equality test; each later one is applied to the span
found so far, as the images bX_k - X_k a of its basis vectors.

Permutation actions skip the elimination. The constraint of two
permutation matrices records each row as a pair of cells (i, j), the row
being x_i - x_j, and kernel_intersection merges such pairs in a union-find
over the cells. The joint kernel is then spanned by the indicator vectors
of the classes, which for a permutation module kX are the orbitals of G on
X x X, and those vectors, ordered by their lowest cell, are the canonical
RREF basis: the classes are disjoint and each vector has a 1 at its lowest
cell, a column no other vector touches. No scalar op runs until a
constraint without pairs arrives; it and the later ones are applied to the
classes as above.

Kernel bases are sparse vectors [(column, value), ...] in ascending column
order, whatever the input, and canonical: the rows of the unique reduced
row echelon basis of the null space, ordered by leading index. Repeated
runs therefore produce identical bases, which the CLI's byte-stable
reports rely on. Matrix.from_sparse is the one place such a vector becomes
dense.
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
    def identity(tag, n):
        z, o = tag.zero(), tag.one()
        return Matrix(tag, [[o if i == j else z for j in range(n)]
                            for i in range(n)])

    @staticmethod
    def from_sparse(tag, nrows, ncols, vec):
        """Reshape a sparse row-major vector [(index, value), ...]; the
        inverse of .vec() with the zero cells dropped."""
        z = tag.zero()
        rows = [[z] * ncols for _ in range(nrows)]
        for j, x in vec:
            rows[j // ncols][j % ncols] = x
        return Matrix(tag, rows)

    def vec(self):
        """Row-major flattening, entry (r, c) at index r*ncols + c."""
        return tuple(x for row in self.rows for x in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and all(a == b for ra, rb in zip(self.rows, other.rows)
                        for a, b in zip(ra, rb)))

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

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __repr__(self):
        return "Matrix(%s, %r)" % (self.tag, self.rows)


class SparseRows:
    """Rows of a linear map, each the list of its nonzero (column, value)
    pairs: the input of rank and kernel_basis, which kernel_intersection
    writes from each constraint it eliminates."""

    __slots__ = ("tag", "nrows", "ncols", "rows")

    def __init__(self, tag: FieldTag, ncols, rows):
        self.tag, self.ncols, self.rows = tag, ncols, rows
        self.nrows = len(rows)


def _insert_row(pivots, row):
    """Reduce row, a dict or (column, value) pairs, against pivots
    {pivot column: {column: value} left of it}, each the reduced row that
    pivots there, its pivot being 1. A nonzero remainder becomes a new unit
    pivot row at its last column; returns whether it did."""
    acc = dict(row)
    while acc:
        c = max(acc)
        p = pivots.get(c)
        if p is None:
            f = acc.pop(c)
            if acc and f != 1:  # else a unit pivot as it stands
                inv = 1 / f
                acc = {j: inv * b for j, b in acc.items()}
            pivots[c] = acc
            return True
        _axpy(acc, -acc.pop(c), p.items())
    return False


def _back_substitute(pivots):
    """Fully reduce the pivot rows of _insert_row, lowest pivot first, so
    that no pivot column survives in another row."""
    for c in sorted(pivots):
        p = pivots[c]
        for j in [j for j in p if j in pivots]:
            _axpy(p, -p.pop(j), pivots[j].items())


def _pivots(rows):
    """The pivot rows of _insert_row over the given sparse rows."""
    pivots = {}
    for row in rows:
        _insert_row(pivots, row)
    return pivots


def _rref_in_place(rows, ncols):
    """Reduce rows to RREF in place, nonzero rows first in pivot order, and
    return the pivot columns: _insert_row on the mirrored column index
    j -> ncols - 1 - j, where a row's last nonzero is its leading entry."""
    last = ncols - 1
    pivots = _pivots([(last - j, x) for j, x in enumerate(row) if x]
                     for row in rows)
    _back_substitute(pivots)
    order = sorted(pivots, reverse=True)
    if order:
        zero = rows[0][0] - rows[0][0]
        rows[:] = [[zero] * ncols for _ in rows]
        for k, c in enumerate(order):
            rows[k][last - c] = zero + 1
            for j, b in pivots[c].items():
                rows[k][last - j] = b
    return [last - c for c in order]


def rank(m):
    """Rank of SparseRows: the pivot count of its rows."""
    return len(_pivots(m.rows))


def kernel_basis(m):
    """Canonical basis of {x : m x = 0}, for SparseRows m.

    One sparse Gauss-Jordan elimination takes the pivot of each row at its
    last nonzero column. With that reversed column order the null space
    vector of a free column f has its 1 at f and its other entries at pivot
    columns right of f, so ordered by f these vectors are already the
    canonical RREF basis, returned as sparse vectors [(column, value), ...]
    in ascending column order.
    """
    pivots = _pivots(m.rows)
    _back_substitute(pivots)
    one = m.tag.one()
    vectors = {f: [(f, one)] for f in range(m.ncols) if f not in pivots}
    for c in sorted(pivots):
        for j, b in pivots[c].items():
            vectors[j].append((c, -b))
    return list(vectors.values())


def _transpose(rows, ncols):
    """The transpose of a matrix with ncols columns given as sparse rows
    {column: value}, again as sparse rows."""
    out = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            out[c][r] = x
    return out


def _permutation(m, one):
    """The column of each row's one entry if the sparse rows m form a
    permutation matrix, each row holding a single entry equal to one and no
    column repeating; else None."""
    cols = []
    for row in m:
        if len(row) != 1:
            return None
        (c, x), = row.items()
        if x != one:
            return None
        cols.append(c)
    return cols if len(set(cols)) == len(cols) else None


class IntertwinerConstraint:
    """The constraint X -> bX - Xa on row-major vec(X), X being dw x dv, for
    a (dv x dv) and b (dw x dw) given as sparse rows {column: value}: the
    one input of kernel_intersection.

    Its kernel is {X : X a = b X}, the maps intertwining a with b. Every
    linear system of the package (hom spaces, invariant forms, commutants)
    is an intersection of such kernels. The constraint is its operator
    (a, b, dv, dw), not its rows, and counts nrows = ncols = dw * dv: row
    (r, c) holds the nonzeros of row r of b and of column c of a. When a
    and b are both permutations, row (r, c) is X[pb(r)][c] - X[r][pa^-1(c)],
    and pairs records its two cells (i, j), the row being x_i - x_j, or
    empty when i = j; else pairs is None.
    """

    __slots__ = ("operator", "pairs", "nrows", "ncols")

    def __init__(self, tag, a, b, dv, dw):
        for m, d in ((a, dv), (b, dw)):
            if len(m) != d or any(not 0 <= c < d for row in m for c in row):
                raise DimensionMismatch("intertwiner constraint needs %d x %d"
                                        " sparse rows" % (d, d))
        one = tag.one()
        pa = _permutation(a, one)
        pb = pa if b is a else _permutation(b, one)
        self.pairs = None
        if pa is not None and pb is not None:
            pa_inv = [0] * dv
            for t, c in enumerate(pa):
                pa_inv[c] = t
            self.pairs = [(s * dv + c, r * dv + t) for r, s in enumerate(pb)
                          for c, t in enumerate(pa_inv)]
        self.operator = (a, b, dv, dw)
        self.nrows = self.ncols = dw * dv


def _lone_diagonal(m):
    """For each i, x when row i of the sparse rows m is {i: x}, else None."""
    return [row.get(i) if len(row) == 1 else None for i, row in enumerate(m)]


def _operator_rows(tag, a, b, dv, dw):
    """The rows of X -> bX - Xa up to scaling, row (r, c) at index r * dv + c.

    Row (r, c) holds row r of b at the cells (s, c) and minus column c of
    a at the cells (r, t); the two share only the cell (r, c). A row that
    holds nothing but that cell, row r of b being {r: x} and column c of a
    {c: y}, says X[r][c] = 0 exactly when x != y; it is written as
    (cell, 1) then and left empty otherwise, the same kernel after one
    equality test instead of a subtraction."""
    one, a_cols = tag.one(), _transpose(a, dv)
    minus_a_cols = [[(t, -y) for t, y in col.items()] for col in a_cols]
    b_lone, a_lone = _lone_diagonal(b), _lone_diagonal(a_cols)
    rows = []
    for r, b_row in enumerate(b):
        for c in range(dv):
            beta, alpha = b_lone[r], a_lone[c]
            if beta is not None and alpha is not None:
                rows.append([] if beta == alpha else [(r * dv + c, one)])
                continue
            row = {s * dv + c: x for s, x in b_row.items()}
            for t, y in minus_a_cols[c]:
                j = r * dv + t
                x = row.get(j)
                row[j] = y if x is None else x + y
            rows.append([(j, x) for j, x in row.items() if x])
    return rows


def _images(a, b, dv, dw, basis):
    """The rows of X -> bX - Xa restricted to the span of basis: row j holds
    (k, Y_k[j]) for the nonzero cells j of the images Y_k = bX_k - X_k a,
    the rows in cell order. Each nonzero X[s][c] = x adds b[r][s] x at
    (r, c) for column s of b, and -x a[c][t] at (s, t) for row c of a."""
    b_cols = [[(r * dv, y) for r, y in col.items()]
              for col in _transpose(b, dw)]
    minus_a = [[(t, -y) for t, y in row.items()] for row in a]
    rows = {}
    for k, v in enumerate(basis):
        image = {}
        for j, x in v:
            s, c = divmod(j, dv)
            _axpy(image, x, [(i + c, y) for i, y in b_cols[s]])
            _axpy(image, x, [(j - c + t, y) for t, y in minus_a[c]])
        for j, y in image.items():
            rows.setdefault(j, []).append((k, y))
    return [rows[j] for j in sorted(rows)]


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


def _merge(parent, pairs):
    """Union-find over cells: join the classes of i and j for each pair,
    the lowest cell of a class being its root, so parent[x] <= x always."""
    for i, j in pairs:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j


def _classes(tag, parent):
    """The classes of _merge as sparse vectors [(cell, 1), ...], ordered by
    their lowest cell. As parent[x] <= x, one ascending pass finds roots."""
    one, classes = tag.one(), {}
    for x, p in enumerate(parent):
        parent[x] = root = parent[p]
        classes.setdefault(root, []).append((x, one))
    return list(classes.values())


def kernel_intersection(tag, constraints, ncols):
    """Canonical basis of the joint kernel of a sequence of
    IntertwinerConstraints.

    Constraints are consumed lazily and each one is restricted to the
    solution span found so far, so the eliminations stay small once the
    first few constraints have cut the space down. The span is kept as
    sparse RREF vectors; recombining such a basis by an RREF coefficient
    basis gives an RREF basis again, so the result is canonical. With no
    constraints it is the unit vectors.

    A constraint has no rows. The first one is eliminated on the rows of
    _operator_rows, a row that holds only its cell (r, c) becoming that
    unit row or nothing after one equality test; a later one is restricted
    through the images of the span's basis vectors (_images). Scaling a row
    keeps its kernel, and the images give exactly the restricted rows, so
    the basis is the same. kernel_basis runs once for each constraint that
    is eliminated.

    A leading run of constraints that carry pairs, rows x_i - x_j as
    recorded for two permutations, is solved without scalar arithmetic: a
    union-find merges the cells i and j, and the joint kernel is spanned by
    the indicator vectors of the classes (for a permutation module, the
    orbitals). Those vectors are already the canonical RREF basis: the
    classes are disjoint, and each vector has a 1 at its lowest cell, which
    no other vector touches. The first constraint without pairs is
    restricted to that basis as above.
    """
    basis = None  # sparse vectors [(column, value), ...] spanning the solutions
    parent = None  # the union-find of the leading constraints with pairs
    for c in constraints:
        if c.ncols != ncols:
            raise DimensionMismatch("constraint has %d columns, expected %d"
                                    % (c.ncols, ncols))
        if basis is None and c.pairs is not None:
            if parent is None:
                parent = list(range(ncols))
            _merge(parent, c.pairs)
            continue
        if basis is None and parent is not None:
            basis = _classes(tag, parent)
        if basis is None:
            basis = kernel_basis(SparseRows(tag, ncols,
                                            _operator_rows(tag, *c.operator)))
        else:
            images = _images(*c.operator, basis)
            basis = [_combine(v, basis) for v in
                     kernel_basis(SparseRows(tag, len(basis), images))]
        if not basis:
            return []
    if basis is None:
        return _classes(tag, parent or list(range(ncols)))
    return basis


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
