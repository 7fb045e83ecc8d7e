"""Pivotal algebras, their modules, and the trace-of-transposition indicator.

A pivotal algebra is (A, S, g): an anti-automorphism S and an invertible g
with S(g) = g^-1 and S^2(a) = g a g^-1. The dual of a left module V gets
the action (a.f)(v) = f(S(a) v). An invariant bilinear form
b(v, w) = v^T M w, b(a v, w) = b(v, S(a) w), has a Gram matrix M with
R(b)^T M = M R(S(b)): M is the transpose of a map in Hom(V, V*). The
indicator is the trace of M -> R(g)^T M^T on that space.

One rule fixes the format of algebra data: an algebra element is a sparse
dict {basis index: coefficient} holding no zeros, a covector (counit,
trace_form, a character) is a dense tuple of its values on the basis, and
Matrix is only what a report prints. So unit, g and integral are sparse
elements, and S and every involution are lists of sparse columns, column i
being the image of b_i. PivotalAlgebra.multiply, read off the structure
constants A.mult, is the one product, and apply_S applies S through its
columns. A module's R(b_i) are sparse rows, dicts {column: value} without
zeros (ModuleRep.action), as every constructor writes them and every route
reads them.

One core, indicator_from_presentation, computes every indicator report. It
reads a module only through a presentation: R(b) and R(S(b)) for generators
b of the algebra, and R(g), as sparse rows. fs_indicator feeds it
PivotalAlgebra.generators; qsl2 feeds it K, E and F. Every linear system
(the forms, End(V), and Hom(V, W) in hom_space) is the joint kernel of one
linalg.IntertwinerConstraint per generator, not one per basis element:
b -> R(b) and b -> R(S(b))^T are algebra maps, so a map intertwining them
on generators does so on all of A. One helper, _intertwiners, builds and
solves all three. A constraint is the operator X -> bX - Xa, without rows:
kernel_intersection writes sparse rows for the first one only, each
holding the nonzeros of a row of one matrix and a column of the other,
and applies each later one to the kernel found so far through the images
of its basis vectors. No d^2 x d^2 system is ever dense. The solver's
result, sparse RREF vectors, stays sparse through the transposition, the
End(V) count and the self-duality test, which ranks each form on its
sparse rows; Matrix.from_sparse reshapes it only into what a report
prints (the canonical form, hom_space's matrices) and into the
self-duality pencil's sums, for det. The transposition is an involution,
so nu is its trace and fixes the dimensions of its +-1 eigenspaces:
dim+- = (dim_bil +- nu) / 2.

Twisting by an involution tau replaces S by S o tau and keeps g. That is
the only place a twist enters: twist_algebra composes the columns of S and
tau into (A, S o tau, g), and every indicator route, here and in formulas,
reads S from the algebra it is given, so nu^tau(V) is
fs_indicator(twist_algebra(A, T), V).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .linalg import (
    IntertwinerConstraint,
    Matrix,
    SparseRows,
    _axpy,
    _combine,
    _insert_row,
    _permutation,
    _transpose,
    det,
    kernel_intersection,
    rank,
)
from .scalars import FieldTag


class ValidationError(Exception):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class _OneViolation(ValidationError):
    """A ValidationError that names one violation, given as its message."""

    def __init__(self, message):
        super().__init__([message])


class MissingData(Exception):
    pass


class MissingComultiplication(MissingData):
    pass


class NotCentralCharacter(Exception):
    pass


# ---------------------------------------------------------------------------
# sparse elements

def _accumulate(terms):
    """The sum of the (index, value) terms as {index: value}, zeros dropped."""
    out = {}
    for k, x in terms:
        y = out.get(k)
        out[k] = x if y is None else y + x
    return {k: x for k, x in out.items() if x}


def _apply_columns(cols, u):
    """M u for the sparse columns cols of a matrix M and a sparse u."""
    return _accumulate((r, x * s) for m, x in u.items()
                       for r, s in cols[m].items())


def _times(a, b):
    """a b for matrices given as sparse rows {column: value}."""
    return [_apply_columns(b, row) for row in a]


def _evaluate(tag, covector, u):
    """The dense covector (values on the basis) at the sparse element u."""
    return sum((covector[k] * x for k, x in u.items() if covector[k]),
               tag.zero())


# ---------------------------------------------------------------------------
# algebras and modules

@dataclass(frozen=True)
class GroupLikeData:
    """Doi-style group-like structure riding on an algebra: the involution
    i -> i* with S(b_i) = b_{i*} and the valency character eps."""

    star: tuple
    eps: tuple


@dataclass
class PivotalAlgebra:
    tag: FieldTag
    dim: int
    labels: tuple
    # sparse structure constants: (i, j) -> ((k, c), ...) with b_i b_j = sum c b_k
    mult: dict
    unit: dict
    S: list  # S(b_i) per basis index i, a sparse element
    g: dict
    # optional coalgebra data: k -> ((i, j, c), ...) with D(b_k) = sum c b_i x b_j
    comult: dict | None = None
    counit: tuple | None = None
    integral: dict | None = None
    trace_form: tuple | None = None
    involutions: dict = field(default_factory=dict)
    grouplike: GroupLikeData | None = None
    name: str = "A"
    # basis indices generating A; from mult alone, so replace() keeps them
    generators: tuple | None = None

    def __post_init__(self):
        """Unless given, the generators are picked greedily: each basis index
        outside the subalgebra the earlier ones generate, the unit's span
        closed under right multiplication by them, each element kept in
        that span times each generator being inserted once."""
        if self.generators is not None:
            return
        one, unit = self.tag.one(), self.unit
        pivots, gens = {}, []
        kept = [unit] if _insert_row(pivots, unit) else []
        for i in range(self.dim):
            u = {i: one}
            if len(pivots) == self.dim or not _insert_row(pivots, u):
                continue
            gens.append(i)
            todo = [(w, i) for w in kept] + [(u, g) for g in gens]
            kept.append(u)
            while todo:
                w, g = todo.pop()
                v = self.multiply(w, {g: one})
                if _insert_row(pivots, v):
                    kept.append(v)
                    todo.extend((v, h) for h in gens)
        self.generators = tuple(gens)

    def multiply(self, u, v):
        """u v for sparse elements, read off the structure constants."""
        return _accumulate((k, x * y * c) for i, x in u.items()
                           for j, y in v.items()
                           for k, c in self.mult.get((i, j), ()))

    def apply_S(self, u):
        return _apply_columns(self.S, u)


@dataclass
class ModuleRep:
    name: str
    dim: int
    # R(b_i) per basis index i, as dim sparse rows {column: value}, no zeros
    action: tuple
    tag: FieldTag

    def of_vector(self, u):
        """R(u) as sparse rows, for a sparse element u."""
        return [_accumulate((c, x * y) for k, x in u.items()
                            for c, y in self.action[k][r].items())
                for r in range(self.dim)]

    @cached_property
    def character_on_basis(self):
        """chi_V(b_i), the trace of R(b_i), for each basis index. Computed
        once per module; not a field, so replace() builds a module that
        computes its own."""
        z = self.tag.zero()
        return tuple(sum((row[r] for r, row in enumerate(m) if r in row), z)
                     for m in self.action)

    def character(self, u):
        """chi_V(u) for a sparse element u."""
        return _evaluate(self.tag, self.character_on_basis, u)


@dataclass
class FormBasis:
    module: ModuleRep
    forms: list  # Gram matrices; their vecs are a canonical RREF basis


@dataclass
class IndicatorReport:
    nu: object
    dim_bil: int
    dim_plus: int
    dim_minus: int
    end_dim: int
    self_dual: bool
    abs_simple: bool
    canonical_form: Matrix | None


# ---------------------------------------------------------------------------
# validation

def _nonassociative_triples(A):
    """Sorted (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), comparing the
    two triple-product tensors {(i, j, k, t): coefficient}."""
    by_left, by_right = {}, {}
    for (i, j), terms in A.mult.items():
        by_left.setdefault(i, []).append((j, terms))
        by_right.setdefault(j, []).append((i, terms))
    left, right = [], []
    for (i, j), terms in A.mult.items():
        for m, c in terms:
            # b_m is a term of b_i b_j: (b_i b_j) b_k and b_h (b_i b_j)
            left.extend(((i, j, k, t), c * c2) for k, terms2 in
                        by_left.get(m, ()) for t, c2 in terms2)
            right.extend(((h, i, j, t), c * c2) for h, terms2 in
                         by_right.get(m, ()) for t, c2 in terms2)
    left, right = _accumulate(left), _accumulate(right)
    return sorted({key[:3] for key in left.keys() | right.keys()
                   if left.get(key) != right.get(key)})


def validate_pivotal(A: PivotalAlgebra):
    """All pivotal axioms on basis elements; returns a list of violations.

    Involutions are not read: each is checked when it is attached.
    """
    n, one = A.dim, A.tag.one()
    cols = A.S
    bad = []
    unit, g = A.unit, A.g
    for i in range(n):
        b = {i: one}
        if A.multiply(unit, b) != b:
            bad.append("unit fails on the left at index %d" % i)
        if A.multiply(b, unit) != b:
            bad.append("unit fails on the right at index %d" % i)

    bad.extend("associativity fails at (%d, %d, %d)" % ijk
               for ijk in _nonassociative_triples(A))

    for i in range(n):
        for j in range(n):
            if (A.apply_S(_accumulate(A.mult.get((i, j), ())))
                    != A.multiply(cols[j], cols[i])):
                bad.append("S is not an anti-map at (%d, %d)" % (i, j))

    sg = A.apply_S(g)
    if A.multiply(sg, g) != unit or A.multiply(g, sg) != unit:
        bad.append("S(g) is not the inverse of g")
    else:
        for i in range(n):
            if A.apply_S(cols[i]) != A.multiply(g, A.multiply({i: one}, sg)):
                bad.append("S^2 != g(.)g^-1 at index %d" % i)
    return bad


def validate_algebra_involution(A: PivotalAlgebra, T):
    """Violations of tau^2 = id, tau(b_i b_j) = tau(b_i) tau(b_j),
    tau(g) = g and tau S = S tau for the sparse columns T of tau."""
    bad = []
    n, one = A.dim, A.tag.one()
    if any(_apply_columns(T, T[i]) != {i: one} for i in range(n)):
        bad.append("tau^2 != id")
    for i in range(n):
        for j in range(n):
            if (_apply_columns(T, _accumulate(A.mult.get((i, j), ())))
                    != A.multiply(T[i], T[j])):
                bad.append("tau is not an algebra map at (%d, %d)" % (i, j))
    if _apply_columns(T, A.g) != A.g:
        bad.append("tau(g) != g")
    if any(_apply_columns(T, A.S[i]) != A.apply_S(T[i]) for i in range(n)):
        bad.append("tau does not commute with S")
    return bad


def validate_module(A: PivotalAlgebra, V: ModuleRep):
    """Violations of R(1) = I and R(b_i) R(b_j) = R(b_i b_j).

    R(1) = I and the rows i in A.generators suffice: by induction on words,
    R(w x) = R(w) R(x), and words span A (A is associative: validate_pivotal
    or its constructor proves it). On a failure every (i, j) is checked.

    When b_i b_j = 1 b_k and R(b_i), R(b_j), R(b_k) are permutation
    matrices (linalg._permutation), as for a permutation module of a group,
    the product is compared by composing index lists: row r of
    R(b_i) R(b_j) is the unit row at pj[pi[r]]. Every other pair takes the
    sparse product. Both are exact, so the violations are the same.
    """
    one = A.tag.one()
    perms = [_permutation(m, one) for m in V.action]

    def breaks(i, j):
        terms = A.mult.get((i, j), ())
        if len(terms) == 1 and terms[0][1] == one:
            pi, pj, pk = perms[i], perms[j], perms[terms[0][0]]
            if pi is not None and pj is not None and pk is not None:
                return [pj[c] for c in pi] != pk
        return (_times(V.action[i], V.action[j])
                != V.of_vector(_accumulate(terms)))

    unit_ok = V.of_vector(A.unit) == [{r: one} for r in range(V.dim)]
    if unit_ok and not any(breaks(i, j) for i in A.generators
                           for j in range(A.dim)):
        return []
    bad = [] if unit_ok else [
        "module %r: unit does not act as identity" % V.name]
    bad.extend("module %r: action breaks at (%d, %d)" % (V.name, i, j)
               for i in range(A.dim) for j in range(A.dim) if breaks(i, j))
    return bad


# ---------------------------------------------------------------------------
# module constructions

def regular_module(A: PivotalAlgebra, name="reg"):
    """Left multiplication: column j of R(b_i) is b_i b_j."""
    return ModuleRep(name, A.dim, tuple(
        _transpose([_accumulate(A.mult.get((i, j), ()))
                    for j in range(A.dim)], A.dim)
        for i in range(A.dim)), A.tag)


def dual_module(A: PivotalAlgebra, V: ModuleRep):
    """Dual action in the dual basis: R*(b) = R(S(b))^T."""
    action = tuple(_transpose(V.of_vector(col), V.dim)
                   for col in A.S)
    return ModuleRep("dual(%s)" % V.name, V.dim, action, V.tag)


def direct_sum(V: ModuleRep, W: ModuleRep, name=None):
    if len(V.action) != len(W.action):
        raise MissingData("modules over different algebras")
    d = V.dim
    return ModuleRep(name or "%s + %s" % (V.name, W.name), d + W.dim, tuple(
        a + [{c + d: x for c, x in row.items()} for row in b]
        for a, b in zip(V.action, W.action)), V.tag)


# ---------------------------------------------------------------------------
# hom and form spaces

def _intertwiners(tag, pairs, dv, dw):
    """Canonical basis of {X : X a = b X for each pair (a, b)}, X being
    dw x dv, as sparse RREF vectors of row-major vec(X)."""
    return kernel_intersection(
        tag, (IntertwinerConstraint(tag, a, b, dv, dw) for a, b in pairs),
        dw * dv)


def hom_space(A: PivotalAlgebra, V: ModuleRep, W: ModuleRep):
    """Canonical basis of {F : F R_V(b) = R_W(b) F} as dW x dV matrices.

    Only generators of A give constraints: the b with F R_V(b) = R_W(b) F
    form a subalgebra, R_V and R_W (or b -> R(S(b))^T) being algebra maps.
    """
    kernel = _intertwiners(A.tag, ((V.action[i], W.action[i])
                                   for i in A.generators), V.dim, W.dim)
    return [Matrix.from_sparse(A.tag, W.dim, V.dim, v) for v in kernel]


def _presentation(A: PivotalAlgebra, V: ModuleRep):
    """R(b) and R(S(b)) for the generators b of A."""
    return ([V.action[i] for i in A.generators],
            [V.of_vector(A.S[i]) for i in A.generators])


def _forms(tag, gens, dual_gens, d):
    """Canonical basis of the Gram matrices M with R(b)^T M = M R(S(b))
    for each generator b, as sparse RREF vectors of row-major vec(M)."""
    return _intertwiners(tag, ((s, _transpose(r, d))
                               for r, s in zip(gens, dual_gens)), d, d)


def invariant_form_space(A: PivotalAlgebra, V: ModuleRep):
    """Gram matrices M with R(b)^T M = M R(S(b)), b running over the
    generators of A (and so over all of A)."""
    d = V.dim
    return FormBasis(V, [Matrix.from_sparse(A.tag, d, d, v)
                         for v in _forms(A.tag, *_presentation(A, V), d)])


def _transposition(tag, rg, forms):
    """Sparse columns of M -> R(g)^T M^T in the canonical sparse basis forms.

    The image is built by index arithmetic: each nonzero M[r][k] = x adds
    R(g)[k][i] x at cell (i, r), over the nonzeros of row k of R(g); when
    R(g) is a permutation, x just moves to cell (pg(k), r). An image's
    coordinates are its entries at the forms' pivots; if those do not
    recombine to it, the input data was inconsistent and ValidationError
    names the check.
    """
    d = len(rg)
    pg = _permutation(rg, tag.one())
    rg_rows = [[(i * d, y) for i, y in row.items()] for row in rg]
    pivots = [v[0][0] for v in forms]
    cols = []
    for v in forms:
        if pg is not None:
            image = {pg[j % d] * d + j // d: x for j, x in v}
        else:
            image = {}
            for j, x in v:
                r, k = divmod(j, d)
                _axpy(image, x, [(i + r, y) for i, y in rg_rows[k]])
        cols.append({k: image[p] for k, p in enumerate(pivots) if p in image})
        if _combine(cols[-1].items(), forms) != sorted(image.items()):
            raise ValidationError(["transposed form outside the form span"])
    return cols


def transposition_on_forms(A: PivotalAlgebra, basis: FormBasis):
    """Matrix of M -> R(g)^T M^T in the given canonical form basis.

    That map sends b(v, w) to b(w, g v); invariance of the target is a
    consequence of the pivotal axioms. ValidationError means the input data
    was inconsistent.
    """
    forms = [[(j, x) for j, x in enumerate(f.vec()) if x] for f in basis.forms]
    cols = _transposition(A.tag, basis.module.of_vector(A.g), forms)
    z = A.tag.zero()
    return Matrix(A.tag, [[c.get(r, z) for c in cols]
                          for r in range(len(cols))])


# ---------------------------------------------------------------------------
# twisting

def twist_algebra(A: PivotalAlgebra, T):
    """(A, S o tau, g) for the sparse columns T of tau (tau applied first):
    column i is S(T[i]). A itself when T is None."""
    if T is None:
        return A
    return replace(A, S=[A.apply_S(col) for col in T], name="%s^tau" % A.name)


# ---------------------------------------------------------------------------
# the indicator

def span_contains_invertible(tag, forms, d):
    """Exact search for an invertible element of a span of d x d matrices.

    forms are sparse row-major vectors [(cell, value), ...], as the solver
    returns them. Each is tried by the rank of its sparse rows, up to the
    first of full rank; then the pencil sum_i t^i F_i is tried for enough
    values of t to decide whether that curve's determinant vanishes
    identically. Only the pencil's sum for each t is made dense, for det.
    """
    for v in forms:
        rows = [[] for _ in range(d)]
        for j, x in v:
            rows[j // d].append((j % d, x))
        if rank(SparseRows(tag, d, rows)) == d:
            return True
    if len(forms) < 2:
        return False
    for t in range(1, d * (len(forms) - 1) + 3):
        combo = _combine([(k, tag.coerce(t ** k)) for k in range(len(forms))],
                         forms)
        if det(Matrix.from_sparse(tag, d, d, combo)):
            return True
    return False


def indicator_from_presentation(tag, gens, dual_gens, g):
    """IndicatorReport of a module given by a presentation.

    gens are R(b) for generators b of the algebra, dual_gens are R(S(b))
    for the same b (S o tau when twisted), and g is R(g), all as sparse
    rows {column: value}. Two systems are solved: the invariant forms and
    End(V). nu is the trace of the transposition on the forms. That map is
    an involution, checked exactly, so dim_plus is the k with
    2k - dim_bil = nu, and dim_minus = dim_bil - dim_plus.
    """
    d = len(g)
    forms = _forms(tag, gens, dual_gens, d)
    m = len(forms)
    op = _transposition(tag, g, forms)
    one, z = tag.one(), tag.zero()
    if any(_apply_columns(op, col) != {k: one} for k, col in enumerate(op)):
        raise ValidationError(["transposition is not an involution"])
    nu = sum((col.get(k, z) for k, col in enumerate(op)), z)
    # op^2 = I over a field of characteristic 0: nu = dim_plus - dim_minus
    dim_plus = next(k for k in range(m + 1) if tag.coerce(2 * k - m) == nu)
    end_dim = len(_intertwiners(tag, zip(gens, gens), d, d))
    return IndicatorReport(
        nu=nu,
        dim_bil=m,
        dim_plus=dim_plus,
        dim_minus=m - dim_plus,
        end_dim=end_dim,
        self_dual=span_contains_invertible(tag, forms, d),
        abs_simple=end_dim == 1,
        canonical_form=(Matrix.from_sparse(tag, d, d, forms[0]) if m == 1
                        else None),
    )


def fs_indicator(A: PivotalAlgebra, V: ModuleRep):
    """Definition-level Frobenius-Schur indicator of V over (A, S, g)."""
    return indicator_from_presentation(A.tag, *_presentation(A, V),
                                       V.of_vector(A.g))


# ---------------------------------------------------------------------------
# pivotal structure from a central character

def pivotal_from_character(A: PivotalAlgebra, alpha):
    """(A, T_alpha, 1) with T_alpha(h) = alpha(h_1) S(h_2).

    alpha must be an algebra map satisfying the centrality condition
    alpha(h_1) h_2 = alpha(h_2) h_1; the result is again pivotal, now with
    the unit as pivotal element.
    """
    if A.comult is None:
        raise MissingComultiplication(
            "%s carries no comultiplication" % A.name)
    alpha = tuple(A.tag.coerce(a) for a in alpha)
    n, one = A.dim, A.tag.one()
    if _evaluate(A.tag, alpha, A.unit) != one:
        raise NotCentralCharacter("alpha(1) != 1")
    for i in range(n):
        for j in range(n):
            prod = A.multiply({i: one}, {j: one})
            if _evaluate(A.tag, alpha, prod) != alpha[i] * alpha[j]:
                raise NotCentralCharacter(
                    "alpha is not multiplicative at (%d, %d)" % (i, j))
    for k in range(n):
        terms = A.comult.get(k, ())
        if (_accumulate((j, c * alpha[i]) for i, j, c in terms)
                != _accumulate((i, c * alpha[j]) for i, j, c in terms)):
            raise NotCentralCharacter(
                "centrality fails on basis element %d" % k)

    # column k is T_alpha(b_k) = S(sum c alpha(b_i) b_j) over D(b_k)
    t_alpha = [A.apply_S(_accumulate(
        (j, c * alpha[i]) for i, j, c in A.comult.get(k, ())))
        for k in range(n)]
    out = replace(A, S=t_alpha, g=A.unit, involutions={},
                  name="%s[alpha]" % A.name)
    bad = validate_pivotal(out)
    if bad:
        raise ValidationError(bad)
    return out
