"""Pivotal algebras, their modules, and the trace-of-transposition indicator.

A pivotal algebra is (A, S, g): an anti-automorphism S and an invertible g
with S(g) = g^-1 and S^2(a) = g a g^-1. The dual of a left module V gets
the action (a.f)(v) = f(S(a) v). An invariant bilinear form
b(v, w) = v^T M w, b(a v, w) = b(v, S(a) w), has a Gram matrix M with
R(b)^T M = M R(S(b)): M is the transpose of a map in Hom(V, V*). The
indicator is the trace of M -> R(g)^T M^T on that space.

One core, indicator_from_presentation, computes every indicator report. It
reads a module only through a presentation: R(b) and R(S(b)) for generators
b of the algebra, and R(g). fs_indicator feeds it PivotalAlgebra.generators;
qsl2 feeds it K, E and F. Every linear system (the forms, End(V), and
Hom(V, W) in hom_space) is the joint kernel of one
linalg.intertwiner_constraint per generator, not one per basis element:
b -> R(b) and b -> R(S(b))^T are algebra maps, so a map intertwining them
on generators does so on all of A. A constraint is sparse rows, each
holding the nonzeros of a row of one matrix and a column of the other, and
kernel_intersection restricts each to the kernel found so far: no
d^2 x d^2 system is ever dense.

Twisting by an involution tau replaces S by S o tau and keeps g. That is
the only place a twist enters: twist_algebra builds (A, S o tau, g), and
every indicator route, here and in formulas, reads S from the algebra it is
given, so nu^tau(V) is fs_indicator(twist_algebra(A, T), V).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .linalg import (
    Matrix,
    NotInSpan,
    _combine,
    det,
    intertwiner_constraint,
    inverse,
    kernel_intersection,
    rank,
    span_canonical,
)
from .scalars import FieldTag


class ValidationError(Exception):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class MissingData(Exception):
    pass


class MissingComultiplication(MissingData):
    pass


class NotCentralCharacter(Exception):
    pass


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
    unit: tuple
    S: Matrix
    g: tuple
    # optional coalgebra data: k -> ((i, j, c), ...) with D(b_k) = sum c b_i x b_j
    comult: dict | None = None
    counit: tuple | None = None
    integral: tuple | None = None
    trace_form: tuple | None = None
    involutions: dict = field(default_factory=dict)
    grouplike: GroupLikeData | None = None
    name: str = "A"
    # basis indices generating A; from mult alone, so replace() keeps them
    generators: tuple | None = None

    def __post_init__(self):
        """Unless given, the generators are picked greedily: each basis index
        outside the subalgebra the earlier ones generate, that is, the
        unit's span grown by right multiplication until it is closed."""
        if self.generators is not None:
            return
        gens, span = [], span_canonical(self.tag, [self.unit])
        for i in range(self.dim):
            if len(span) == self.dim:
                break
            grown = span_canonical(self.tag, span + [self.basis_vector(i)])
            if len(grown) > len(span):
                gens.append(i)
            while len(grown) > len(span):
                span = grown
                grown = span_canonical(self.tag, span + [
                    self.multiply(w, self.basis_vector(g))
                    for w in span for g in gens])
        self.generators = tuple(gens)

    # -- arithmetic helpers ------------------------------------------------

    def zero_vector(self):
        return (self.tag.zero(),) * self.dim

    def basis_vector(self, i):
        z, o = self.tag.zero(), self.tag.one()
        return tuple(o if j == i else z for j in range(self.dim))

    def multiply(self, u, v):
        out = list(self.zero_vector())
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                c = ui * vj
                for k, s in self.mult.get((i, j), ()):
                    out[k] = out[k] + c * s
        return tuple(out)

    def left_mult(self, u):
        """Matrix of x -> u*x on coefficient vectors."""
        cols = [self.multiply(u, self.basis_vector(j)) for j in range(self.dim)]
        return Matrix(self.tag, list(zip(*cols)))

    def apply_S(self, u):
        return self.S.apply(u)

    def pair(self, covector, u):
        acc = self.tag.zero()
        for a, b in zip(covector, u):
            if a and b:
                acc = acc + a * b
        return acc


@dataclass
class ModuleRep:
    name: str
    dim: int
    action: tuple  # one dim x dim Matrix per algebra basis index

    def of_vector(self, u):
        out = None
        for k, c in enumerate(u):
            if not c:
                continue
            term = self.action[k] if c == 1 else self.action[k].scale(c)
            out = term if out is None else out + term
        if out is None:
            tag = self.action[0].tag
            return Matrix.zeros(tag, self.dim, self.dim)
        return out

    def character(self, u):
        return self.of_vector(u).trace()

    def character_on_basis(self):
        return tuple(m.trace() for m in self.action)


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

def validate_pivotal(A: PivotalAlgebra):
    """All pivotal axioms on basis elements; returns a list of violations.

    Involutions are not read: each is checked when it is attached.
    """
    bad = []
    n = A.dim
    basis = [A.basis_vector(i) for i in range(n)]

    for i in range(n):
        if A.multiply(A.unit, basis[i]) != basis[i]:
            bad.append("unit fails on the left at index %d" % i)
        if A.multiply(basis[i], A.unit) != basis[i]:
            bad.append("unit fails on the right at index %d" % i)

    for i in range(n):
        for j in range(n):
            left = A.multiply(basis[i], basis[j])
            for k in range(n):
                if (A.multiply(left, basis[k])
                        != A.multiply(basis[i], A.multiply(basis[j], basis[k]))):
                    bad.append("associativity fails at (%d, %d, %d)" % (i, j, k))

    for i in range(n):
        for j in range(n):
            lhs = A.apply_S(A.multiply(basis[i], basis[j]))
            rhs = A.multiply(A.apply_S(basis[j]), A.apply_S(basis[i]))
            if lhs != rhs:
                bad.append("S is not an anti-map at (%d, %d)" % (i, j))

    sg = A.apply_S(A.g)
    if A.multiply(sg, A.g) != A.unit or A.multiply(A.g, sg) != A.unit:
        bad.append("S(g) is not the inverse of g")
    else:
        for i in range(n):
            lhs = A.apply_S(A.apply_S(basis[i]))
            rhs = A.multiply(A.g, A.multiply(basis[i], sg))
            if lhs != rhs:
                bad.append("S^2 != g(.)g^-1 at index %d" % i)
    return bad


def validate_algebra_involution(A: PivotalAlgebra, T: Matrix):
    bad = []
    n = A.dim
    if T * T != Matrix.identity(A.tag, n):
        bad.append("tau^2 != id")
    basis = [A.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = T.apply(A.multiply(basis[i], basis[j]))
            rhs = A.multiply(T.apply(basis[i]), T.apply(basis[j]))
            if lhs != rhs:
                bad.append("tau is not an algebra map at (%d, %d)" % (i, j))
    if T.apply(A.g) != A.g:
        bad.append("tau(g) != g")
    if T * A.S != A.S * T:
        bad.append("tau does not commute with S")
    return bad


def validate_module(A: PivotalAlgebra, V: ModuleRep):
    """Violations of R(1) = I and R(b_i) R(b_j) = R(b_i b_j).

    R(1) = I and the rows i in A.generators suffice: by induction on words,
    R(w x) = R(w) R(x), and words span A (A is associative: validate_pivotal
    or its constructor proves it). On a failure every (i, j) is checked.
    """
    def breaks(i, j):
        prod = A.multiply(A.basis_vector(i), A.basis_vector(j))
        return V.action[i] * V.action[j] != V.of_vector(prod)

    unit_ok = V.of_vector(A.unit) == Matrix.identity(A.tag, V.dim)
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
    return ModuleRep(name, A.dim,
                     tuple(A.left_mult(A.basis_vector(i))
                           for i in range(A.dim)))


def dual_module(A: PivotalAlgebra, V: ModuleRep):
    """Dual action in the dual basis: R*(b) = R(S(b))^T."""
    action = tuple(V.of_vector(A.apply_S(A.basis_vector(i))).transpose()
                   for i in range(A.dim))
    return ModuleRep("dual(%s)" % V.name, V.dim, action)


def direct_sum(V: ModuleRep, W: ModuleRep, name=None):
    if len(V.action) != len(W.action):
        raise MissingData("modules over different algebras")
    tag = V.action[0].tag
    z = tag.zero()
    mats = []
    for a, b in zip(V.action, W.action):
        rows = [list(r) + [z] * W.dim for r in a.rows]
        rows += [[z] * V.dim + list(r) for r in b.rows]
        mats.append(Matrix(tag, rows))
    return ModuleRep(name or "%s + %s" % (V.name, W.name),
                     V.dim + W.dim, tuple(mats))


def conjugate_module(V: ModuleRep, P: Matrix, name=None):
    """Base change: action matrices become P R P^-1."""
    pinv = inverse(P)
    return ModuleRep(name or V.name, V.dim,
                     tuple(P * m * pinv for m in V.action))


# ---------------------------------------------------------------------------
# hom and form spaces

def hom_space(A: PivotalAlgebra, V: ModuleRep, W: ModuleRep):
    """Canonical basis of {F : F R_V(b) = R_W(b) F} as dW x dV matrices.

    Only generators of A give constraints: the b with F R_V(b) = R_W(b) F
    form a subalgebra, R_V and R_W (or b -> R(S(b))^T) being algebra maps.
    """
    constraints = (intertwiner_constraint(V.action[i], W.action[i])
                   for i in A.generators)
    kernel = kernel_intersection(A.tag, constraints, W.dim * V.dim)
    return [Matrix.from_vec(A.tag, W.dim, V.dim, list(v)) for v in kernel]


def _presentation(A: PivotalAlgebra, V: ModuleRep):
    """R(b) and R(S(b)) for the generators b of A."""
    return ([V.action[i] for i in A.generators],
            [V.of_vector(A.apply_S(A.basis_vector(i))) for i in A.generators])


def _forms(tag, gens, dual_gens, d):
    """Canonical (RREF) basis of the Gram matrices M with
    R(b)^T M = M R(S(b)) for each generator b."""
    constraints = (intertwiner_constraint(s, r.transpose())
                   for r, s in zip(gens, dual_gens))
    return [Matrix.from_vec(tag, d, d, list(v))
            for v in kernel_intersection(tag, constraints, d * d)]


def invariant_form_space(A: PivotalAlgebra, V: ModuleRep):
    """Gram matrices M with R(b)^T M = M R(S(b)), b running over the
    generators of A (and so over all of A)."""
    return FormBasis(V, _forms(A.tag, *_presentation(A, V), V.dim))


def _transposition(tag, rg_t, forms):
    """Matrix of M -> rg_t M^T in the canonical basis forms.

    An image's coordinates are its entries at the forms' pivots; NotInSpan
    means those do not recombine to the image.
    """
    vecs = [[(j, x) for j, x in enumerate(f.vec()) if x] for f in forms]
    pivots = [v[0][0] for v in vecs]
    cols = []
    for f in forms:
        image = (rg_t * f.transpose()).vec()
        cols.append(tuple(image[p] for p in pivots))
        coeffs = [(k, x) for k, x in enumerate(cols[-1]) if x]
        if _combine(coeffs, vecs) != [(j, x) for j, x in enumerate(image) if x]:
            raise NotInSpan("the transposed form lies outside the form span")
    return Matrix(tag, list(zip(*cols))) if cols else Matrix(tag, [])


def transposition_on_forms(A: PivotalAlgebra, basis: FormBasis):
    """Matrix of M -> R(g)^T M^T in the given canonical form basis.

    That map sends b(v, w) to b(w, g v); invariance of the target is a
    consequence of the pivotal axioms. NotInSpan means the input data was
    inconsistent.
    """
    rg_t = basis.module.of_vector(A.g).transpose()
    return _transposition(A.tag, rg_t, basis.forms)


# ---------------------------------------------------------------------------
# twisting

def twist_algebra(A: PivotalAlgebra, T):
    """(A, S o tau, g) for the involution matrix T of tau (tau applied
    first); A itself when T is None."""
    if T is None:
        return A
    return replace(A, S=A.S * T, name="%s^tau" % A.name)


# ---------------------------------------------------------------------------
# the indicator

def span_contains_invertible(tag, mats):
    """Exact search for an invertible element of a matrix span.

    Tries the basis itself (by rank, which stays cheap over Q(q) where a
    determinant does not), then the pencil sum_i t^i F_i for enough values
    of t to decide whether that curve's determinant vanishes identically.
    """
    mats = list(mats)
    if not mats:
        return False
    if any(rank(m) == m.nrows for m in mats):
        return True
    if len(mats) == 1:
        return False
    d = mats[0].nrows
    bound = d * (len(mats) - 1) + 2
    for t in range(1, bound + 1):
        combo = mats[0]
        w = 1
        for m in mats[1:]:
            w *= t
            combo = combo + m.scale(tag.coerce(w))
        if det(combo):
            return True
    return False


def indicator_from_presentation(tag, gens, dual_gens, g):
    """IndicatorReport of a module given by a presentation.

    gens are R(b) for generators b of the algebra, dual_gens are R(S(b))
    for the same b (S o tau when twisted), and g is R(g). Two systems are
    solved: the invariant forms and End(V). nu is the trace of the
    transposition on the forms, and dim_plus/dim_minus are the dimensions
    of its +-1 eigenspaces.
    """
    d = g.nrows
    forms = _forms(tag, gens, dual_gens, d)
    m = len(forms)
    if m:
        op = _transposition(tag, g.transpose(), forms)
        nu = op.trace()
        ident = Matrix.identity(tag, m)
        dim_plus = m - rank(op - ident)
        dim_minus = m - rank(op + ident)
    else:
        nu = tag.zero()
        dim_plus = dim_minus = 0
    end_dim = len(kernel_intersection(
        tag, (intertwiner_constraint(r, r) for r in gens), d * d))
    return IndicatorReport(
        nu=nu,
        dim_bil=m,
        dim_plus=dim_plus,
        dim_minus=dim_minus,
        end_dim=end_dim,
        self_dual=span_contains_invertible(tag, forms),
        abs_simple=end_dim == 1,
        canonical_form=forms[0] if m == 1 else None,
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
    n = A.dim
    if A.pair(alpha, A.unit) != A.tag.one():
        raise NotCentralCharacter("alpha(1) != 1")
    for i in range(n):
        for j in range(n):
            prod = A.multiply(A.basis_vector(i), A.basis_vector(j))
            if A.pair(alpha, prod) != alpha[i] * alpha[j]:
                raise NotCentralCharacter(
                    "alpha is not multiplicative at (%d, %d)" % (i, j))
    z = A.tag.zero()
    for k in range(n):
        lhs = [z] * n
        rhs = [z] * n
        for i, j, c in A.comult.get(k, ()):
            lhs[j] = lhs[j] + c * alpha[i]
            rhs[i] = rhs[i] + c * alpha[j]
        if lhs != rhs:
            raise NotCentralCharacter(
                "centrality fails on basis element %d" % k)

    cols = []
    for k in range(n):
        col = [z] * n
        for i, j, c in A.comult.get(k, ()):
            w = c * alpha[i]
            if not w:
                continue
            for r, s in enumerate(A.S.rows):
                if s[j]:
                    col[r] = col[r] + w * s[j]
        cols.append(col)
    t_alpha = Matrix(A.tag, list(zip(*cols)))
    out = replace(A, S=t_alpha, g=A.unit, involutions={},
                  name="%s[alpha]" % A.name)
    bad = validate_pivotal(out)
    if bad:
        raise ValidationError(bad)
    return out
