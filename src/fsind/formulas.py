"""Closed-form indicator routes that cross-check the definition.

Three independent ways to the same number:

* a separability idempotent E gives nu(V) = chi_V(S(E') g E'');
  for a Hopf algebra E comes from a normalized integral as S(L_1) x L_2;
* a symmetric trace form phi gives the dual-basis sum
  nu(V) = (dim V / chi_V(v)) sum_i chi_V(S(b_i) g b_i-dual), with the Schur
  element chi_V(v) / dim^2 as a byproduct;
* for group-like (Doi) algebras the dual basis is eps(b_i)^-1 b_{i*}, which
  collapses the sum to valency-weighted character values.

Trace identities on the antipode (Trace(S) globally, Trace(S_V) on the
image of a self-dual simple, Trace(Q) for the regular module) round out the
cross-checks.

No route takes a twist. Each reads S and g from the pivotal algebra it is
given, so the twisted value nu^tau comes from passing
pivotal.twist_algebra(A, T) = (A, S o tau, g). The idempotent E and the
symmetric data do not involve S and are computed once from A.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, SingularMatrix, inverse, rank, solve_in_span
from .pivotal import (
    MissingData,
    ModuleRep,
    PivotalAlgebra,
    ValidationError,
    fs_indicator,
    hom_space,
)


class NotAnIntegral(ValidationError):
    def __init__(self, message):
        super().__init__([message])


class NotSeparable(ValidationError):
    pass


class NotSymmetric(ValidationError):
    def __init__(self, message):
        super().__init__([message])


class DegenerateTraceForm(ValidationError):
    def __init__(self, message):
        super().__init__([message])


class VolumeNotCentral(ValidationError):
    def __init__(self, message):
        super().__init__([message])


class ZeroValency(ValidationError):
    def __init__(self, message):
        super().__init__([message])


class ZeroVolumeCharacter(Exception):
    pass


class NotSelfDual(Exception):
    pass


class NotAbsolutelySimple(Exception):
    pass


class IncompleteSimplesList(Exception):
    pass


@dataclass
class SeparabilityIdempotent:
    """E = sum of u x v terms with E' E'' = 1 and a E = E a."""

    terms: list  # list of (vector, vector) pairs


def validate_separability(A: PivotalAlgebra, E: SeparabilityIdempotent):
    bad = []
    total = A.zero_vector()
    for u, v in E.terms:
        total = tuple(x + y for x, y in zip(total, A.multiply(u, v)))
    if total != A.unit:
        bad.append("E' E'' does not multiply to the unit")
    z = A.tag.zero()
    for i in range(A.dim):
        b = A.basis_vector(i)
        lhs = {}
        rhs = {}
        for u, v in E.terms:
            bu = A.multiply(b, u)
            vb = A.multiply(v, b)
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


def hopf_integral_idempotent(A: PivotalAlgebra):
    """E = S(L_1) x L_2 from a normalized two-sided integral L, checked by
    validate_separability."""
    if A.comult is None or A.counit is None:
        raise MissingData("separability from an integral needs comult and counit")
    if A.integral is None:
        raise MissingData("no integral attached to %s" % A.name)
    lam = A.integral
    if A.pair(A.counit, lam) != A.tag.one():
        raise NotAnIntegral("eps(Lambda) != 1")
    for i in range(A.dim):
        b = A.basis_vector(i)
        expected = tuple(A.counit[i] * x for x in lam)
        if A.multiply(b, lam) != expected or A.multiply(lam, b) != expected:
            raise NotAnIntegral(
                "Lambda is not a two-sided integral (fails at %d)" % i)

    z = A.tag.zero()
    # group Delta(Lambda) by the right leg: E = sum_j (sum c S(b_i)) x b_j
    left = {}
    for k, lk in enumerate(lam):
        if not lk:
            continue
        for i, j, c in A.comult.get(k, ()):
            w = lk * c
            if not w:
                continue
            acc = left.setdefault(j, [z] * A.dim)
            si = A.apply_S(A.basis_vector(i))
            for r, x in enumerate(si):
                if x:
                    acc[r] = acc[r] + w * x
    terms = []
    for j in sorted(left):
        vec = tuple(left[j])
        if any(vec):
            terms.append((vec, A.basis_vector(j)))
    E = SeparabilityIdempotent(terms)
    bad = validate_separability(A, E)
    if bad:
        raise NotSeparable(bad)
    return E


def fs_via_separability(A: PivotalAlgebra, V: ModuleRep,
                        E: SeparabilityIdempotent):
    """nu(V) = chi_V(S(E') g E'')."""
    rg = V.of_vector(A.g)
    acc = A.tag.zero()
    for u, v in E.terms:
        m = V.of_vector(A.apply_S(u)) * rg * V.of_vector(v)
        acc = acc + m.trace()
    return acc


# ---------------------------------------------------------------------------
# symmetric-algebra route

@dataclass
class SymmetricFormData:
    gram: Matrix
    dual_basis: list   # vectors b_i-dual with phi(b_i b_j-dual) = delta_ij
    volume: tuple      # sum_i b_i b_i-dual, a central element


@dataclass
class SymmetricIndicator:
    nu: object
    schur: object
    warnings: tuple


def symmetric_form_data(A: PivotalAlgebra):
    if A.trace_form is None:
        raise MissingData("no trace form attached to %s" % A.name)
    n = A.dim
    gram = Matrix(A.tag, [[A.pair(A.trace_form,
                                  A.multiply(A.basis_vector(i),
                                             A.basis_vector(j)))
                           for j in range(n)] for i in range(n)])
    if gram != gram.transpose():
        raise NotSymmetric("phi(ab) != phi(ba) somewhere")
    try:
        graminv = inverse(gram)
    except SingularMatrix:
        raise DegenerateTraceForm("the Gram matrix of phi is singular")
    dual = [tuple(graminv.rows[j][i] for j in range(n)) for i in range(n)]
    vol = A.zero_vector()
    for i in range(n):
        vol = tuple(x + y for x, y in
                    zip(vol, A.multiply(A.basis_vector(i), dual[i])))
    for i in range(n):
        b = A.basis_vector(i)
        if A.multiply(vol, b) != A.multiply(b, vol):
            raise VolumeNotCentral("volume fails to commute with basis %d" % i)
    return SymmetricFormData(gram=gram, dual_basis=dual, volume=vol)


def fs_via_symmetric(A: PivotalAlgebra, V: ModuleRep,
                     data: SymmetricFormData | None = None,
                     check_simple=True):
    """Dual-basis character sum; also reports the Schur element.

    The formula needs V absolutely simple; when it is not, the value is
    still computed but flagged in .warnings.
    """
    if data is None:
        data = symmetric_form_data(A)
    chi_vol = V.character(data.volume)
    if not chi_vol:
        raise ZeroVolumeCharacter(
            "chi_%s vanishes on the volume element" % V.name)
    d = A.tag.coerce(V.dim)
    rg = V.of_vector(A.g)
    acc = A.tag.zero()
    for i in range(A.dim):
        m = (V.of_vector(A.apply_S(A.basis_vector(i)))
             * rg * V.of_vector(data.dual_basis[i]))
        acc = acc + m.trace()
    warnings = ()
    if check_simple and len(hom_space(A, V, V)) != 1:
        warnings = ("module %r is not absolutely simple; the dual-basis"
                    " formula is heuristic here" % V.name,)
    return SymmetricIndicator(
        nu=(d / chi_vol) * acc,
        schur=chi_vol / (d * d),
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# antipode traces

def fs_regular_trace_q(A: PivotalAlgebra):
    """Trace of a -> S(a) g; equals nu of the regular module for Frobenius
    algebras, and the number of square roots of 1 for group algebras."""
    acc = A.tag.zero()
    for i in range(A.dim):
        v = A.multiply(A.apply_S(A.basis_vector(i)), A.g)
        acc = acc + v[i]
    return acc


def trace_S_on_image(A: PivotalAlgebra, V: ModuleRep):
    """(Trace(S_V), Trace(Q_V)) with S_V(rho(a)) = rho(S(a)) on the image.

    Requires V absolutely simple and self-dual, which is exactly when S_V
    is well defined; both preconditions are verified.
    """
    rep = fs_indicator(A, V)
    if rep.end_dim != 1:
        raise NotAbsolutelySimple("End(%s) has dimension != 1" % V.name)
    if not rep.self_dual:
        raise NotSelfDual("%s is not isomorphic to its dual" % V.name)

    images = [V.action[i].vec() for i in range(A.dim)]
    span_idx = []
    span_vecs = []
    for i, v in enumerate(images):
        if rank(Matrix(A.tag, span_vecs + [list(v)])) > len(span_vecs):
            span_idx.append(i)
            span_vecs.append(list(v))
    span = [tuple(v) for v in span_vecs]
    span_t = Matrix(A.tag, span_vecs).transpose()

    def op_matrix(post):
        cols = []
        for i in span_idx:
            m = V.of_vector(A.apply_S(A.basis_vector(i)))
            if post is not None:
                m = m * post
            cols.append(solve_in_span(A.tag, span, m.vec()))
        return Matrix(A.tag, list(zip(*cols)))

    # consistency: the assignment rho(b_i) -> rho(S(b_i)) must be linear on
    # the whole image, not only on the chosen spanning subset
    s_op = op_matrix(None)
    for i in range(A.dim):
        coeffs = solve_in_span(A.tag, span, images[i])
        expected = V.of_vector(A.apply_S(A.basis_vector(i))).vec()
        if span_t.apply(s_op.apply(coeffs)) != expected:
            raise NotSelfDual(
                "the antipode does not descend to the image of %s" % V.name)
    q_op = op_matrix(V.of_vector(A.g))
    return s_op.trace(), q_op.trace()


@dataclass
class TraceSCheck:
    lhs: object          # Trace(S) on the algebra
    rhs: object          # sum nu(V_i) chi_i(g)
    per_module: list     # (name, nu, chi(g))

    @property
    def equal(self):
        return self.lhs == self.rhs


def trace_S_global(A: PivotalAlgebra, simples, nus):
    """Trace(S) = sum nu(V) chi_V(g) over a complete list of simples, with
    nus their indicators over A."""
    total = sum(V.dim * V.dim for V in simples)
    if total != A.dim:
        raise IncompleteSimplesList(
            "sum of dim^2 is %d but dim A = %d" % (total, A.dim))
    lhs = A.S.trace()
    rhs = A.tag.zero()
    per = []
    for V, nu in zip(simples, nus, strict=True):
        chig = V.character(A.g)
        per.append((V.name, nu, chig))
        rhs = rhs + nu * chig
    return TraceSCheck(lhs=lhs, rhs=rhs, per_module=per)


# ---------------------------------------------------------------------------
# Doi's formula for group-like algebras

def doi_grouplike_indicator(A: PivotalAlgebra, chi, dim):
    """nu(V) = (c_V dim)^-1 sum_i eps(b_i)^-1 chi(S(b_{i*}) b_i).

    chi gives the character values on the basis; dim is the degree of the
    underlying module. This is the symmetric route with the dual basis
    eps(b_i)^-1 b_{i*} and g = 1, so it holds under any twist: untwisted
    S(b_{i*}) = b_i, and over twist_algebra(A, T) the S there sends b_{i*}
    to S(tau(b_{i*})), which is b_{tau(i)} when tau permutes the basis.
    """
    if A.grouplike is None:
        raise MissingData("%s carries no group-like structure" % A.name)
    star, eps = A.grouplike.star, A.grouplike.eps
    if any(not e for e in eps):
        raise ZeroValency("a basis element has vanishing valency")
    chi = tuple(A.tag.coerce(x) for x in chi)
    n = A.dim

    def chi_of(vec):
        return A.pair(chi, vec)

    vol = A.zero_vector()
    for i in range(n):
        prod = A.multiply(A.basis_vector(i), A.basis_vector(star[i]))
        vol = tuple(x + y / eps[i] for x, y in zip(vol, prod))
    chi_vol = chi_of(vol)
    if not chi_vol:
        raise ZeroVolumeCharacter("chi vanishes on the volume element")
    d = A.tag.coerce(dim)
    c_v = chi_vol / (d * d)
    acc = A.tag.zero()
    for i in range(n):
        prod = A.multiply(A.apply_S(A.basis_vector(star[i])),
                          A.basis_vector(i))
        acc = acc + chi_of(prod) / eps[i]
    return acc / (c_v * d)


# ---------------------------------------------------------------------------
# twisting by a central character (Hopf route)

def fs_hopf_character_formula(A: PivotalAlgebra, V: ModuleRep, alpha):
    """nu(V; L) = alpha(S(L_1)) chi_V(L_2 L_3) from the integral."""
    if A.comult is None or A.integral is None:
        raise MissingData("needs comultiplication and integral")
    alpha = tuple(A.tag.coerce(a) for a in alpha)
    alpha_s = A.S.transpose().apply(alpha)  # alpha o S on the basis
    chi = V.character_on_basis()
    acc = A.tag.zero()
    for k, lk in enumerate(A.integral):
        if not lk:
            continue
        for i, j, c in A.comult.get(k, ()):
            w = lk * c * alpha_s[i]
            if not w:
                continue
            for s, t, c2 in A.comult.get(j, ()):
                prod = A.multiply(A.basis_vector(s), A.basis_vector(t))
                acc = acc + w * c2 * A.pair(chi, prod)
    return acc
