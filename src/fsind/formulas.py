"""Closed-form indicator routes that cross-check the definition.

Every route is one character sum over a Casimir-type element
x' (x) x'' of A (x) A:

    nu(V) = chi_V(S(x') g x'')

* a separability idempotent E is such an element, so nu(V) is the sum
  itself; for a Hopf algebra E comes from a normalized integral as
  S(L_1) x L_2;
* a symmetric trace form phi gives the dual basis sum_i b_i x b_i-dual,
  and nu(V) is the sum scaled by dim V / chi_V(v), v = sum_i b_i b_i-dual;
  the Schur element chi_V(v) / dim^2 comes as a byproduct;
* Doi's formula for group-like algebras is the same dual-basis route with
  b_i-dual = eps(b_i)^-1 b_{i*}.

Trace identities on the antipode (Trace(S) globally, Trace(S_V) on the
image of a self-dual simple, Trace(Q) for the regular module) round out the
cross-checks. fs_via_symmetric and trace_S_on_image decide their
preconditions themselves, each by one exact elimination; no route calls
the definition solver, so the routes stay independent of it.

No route takes a twist. Each reads S and g from the pivotal algebra it is
given, so the twisted value nu^tau comes from passing
pivotal.twist_algebra(A, T) = (A, S o tau, g). The idempotent E and the
symmetric data do not involve S and are computed once from A.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, SingularMatrix, _rref_in_place, inverse, rank
from .pivotal import MissingData, ModuleRep, PivotalAlgebra, ValidationError


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


def _casimir_sum(A: PivotalAlgebra, chi, terms):
    """sum chi(S(u) g v) over the terms u x v; chi holds the character
    values on the basis."""
    acc = A.tag.zero()
    for u, v in terms:
        acc = acc + A.pair(chi, A.multiply(A.multiply(A.apply_S(u), A.g), v))
    return acc


def fs_via_separability(A: PivotalAlgebra, V: ModuleRep,
                        E: SeparabilityIdempotent):
    """nu(V) = chi_V(S(E') g E'')."""
    return _casimir_sum(A, V.character_on_basis(), E.terms)


# ---------------------------------------------------------------------------
# symmetric-algebra route

@dataclass
class SymmetricFormData:
    dual_basis: list   # vectors b_i-dual with phi(b_i b_j-dual) = delta_ij
    volume: tuple      # sum_i b_i b_i-dual, a central element


@dataclass
class SymmetricIndicator:
    nu: object
    schur: object


def _dual_basis_data(A: PivotalAlgebra, dual):
    """The dual basis with its volume sum_i b_i b_i-dual."""
    vol = A.zero_vector()
    for i, w in enumerate(dual):
        vol = tuple(x + y for x, y in
                    zip(vol, A.multiply(A.basis_vector(i), w)))
    return SymmetricFormData(dual_basis=dual, volume=vol)


def _dual_basis_sum(A: PivotalAlgebra, chi, dim, data, chi_name):
    """(nu, schur) = ((d / chi(v)) sum_i chi(S(b_i) g b_i-dual),
    chi(v) / d^2) with d = dim, over the dual basis and the volume v of
    data."""
    chi_vol = A.pair(chi, data.volume)
    if not chi_vol:
        raise ZeroVolumeCharacter(
            "%s vanishes on the volume element" % chi_name)
    d = A.tag.coerce(dim)
    terms = [(A.basis_vector(i), w) for i, w in enumerate(data.dual_basis)]
    return (d / chi_vol) * _casimir_sum(A, chi, terms), chi_vol / (d * d)


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
    # v is central: sum a b_i (x) b^i = sum b_i (x) b^i a; multiply the legs
    return _dual_basis_data(A, dual)


def fs_via_symmetric(A: PivotalAlgebra, V: ModuleRep,
                     data: SymmetricFormData | None = None):
    """Dual-basis character sum; also reports the Schur element.

    The formula needs V absolutely simple, which holds exactly when the
    R(b_i) span End(V) (Burnside); NotAbsolutelySimple otherwise.
    """
    if data is None:
        data = symmetric_form_data(A)
    if rank(Matrix(A.tag, [m.vec() for m in V.action])) != V.dim * V.dim:
        raise NotAbsolutelySimple(
            "module %r is not absolutely simple; the dual-basis formula is"
            " heuristic here" % V.name)
    nu, schur = _dual_basis_sum(A, V.character_on_basis(), V.dim, data,
                                "chi_%s" % V.name)
    return SymmetricIndicator(nu=nu, schur=schur)


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
    is well defined. One elimination of the rows vec R(b_i) | vec R(S(b_i))
    decides both: the left halves span End(V) exactly when V is absolutely
    simple (Burnside), and S descends exactly when no pivot falls in the
    right half. Row k is then E_k | vec S_V(E_k) for the matrix unit
    E_k = E_rc: its entry d^2 + k adds to Trace(S_V), and row r of S_V(E_k)
    dotted with column c of R(g) adds entry k of Q_V(E_k) = S_V(E_k) R(g).
    """
    d = V.dim
    d2 = d * d
    rows = [list(V.action[i].vec())
            + list(V.of_vector(A.apply_S(A.basis_vector(i))).vec())
            for i in range(A.dim)]
    pivots = _rref_in_place(rows, 2 * d2)
    if pivots[:d2] != list(range(d2)):
        raise NotAbsolutelySimple(
            "the action does not span End(%s)" % V.name)
    if len(pivots) > d2:
        raise NotSelfDual(
            "the antipode does not descend to the image of %s" % V.name)
    rg = V.of_vector(A.g).rows
    trace_s = trace_q = A.tag.zero()
    for k, row in enumerate(rows[:d2]):
        r, c = divmod(k, d)
        trace_s = trace_s + row[d2 + k]
        for t, x in enumerate(row[d2 + r * d:d2 + (r + 1) * d]):
            if x and rg[t][c]:
                trace_q = trace_q + x * rg[t][c]
    return trace_s, trace_q


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
    """nu(V) = (dim / chi(v)) sum_i eps(b_i)^-1 chi(S(b_i) b_{i*}).

    chi gives the character values on the basis and dim its degree; they
    need not come from a ModuleRep, as the valency character eps does not.
    This is the dual-basis route with b_i-dual = eps(b_i)^-1 b_{i*}
    and g = 1, so it holds under any twist: it reads S, S o tau over
    twist_algebra(A, T), from the algebra.
    """
    if A.grouplike is None:
        raise MissingData("%s carries no group-like structure" % A.name)
    star, eps = A.grouplike.star, A.grouplike.eps
    if any(not e for e in eps):
        raise ZeroValency("a basis element has vanishing valency")
    dual = [tuple(x / e for x in A.basis_vector(j))
            for j, e in zip(star, eps)]
    nu, _ = _dual_basis_sum(A, tuple(A.tag.coerce(x) for x in chi), dim,
                            _dual_basis_data(A, dual), "chi")
    return nu


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
