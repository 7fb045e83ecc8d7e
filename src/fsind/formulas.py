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

S(x') g x'' is the indicator element (Linchenko-Montgomery,
Kashina-Sommerhaeuser-Zhu) with the pivotal g; it does not depend on V.
Each route builds its own once per algebra from its own input, and each
module computes chi_V on the basis once (ModuleRep.character_on_basis), so
a cell costs one evaluation. The integral is checked on generators, and
not at all for a group algebra, whose constructor hands E over.

Every product is PivotalAlgebra.multiply on sparse elements, and module
matrices are read as the sparse rows they are stored in. The data follow
the package's one rule: elements (the integral, the terms of E, the dual
basis and the volume) are sparse dicts, covectors (counit, trace form,
characters, alpha) are dense tuples, and no route builds a Matrix. The
Gram matrix of the trace form is sparse rows, inverted by one elimination.

Trace identities on the antipode (Trace(S) globally, Trace(S_V) on the
image of a self-dual simple, Trace(Q) for the regular module) round out the
cross-checks. fs_via_symmetric and trace_S_on_image decide their
preconditions themselves, each by one exact elimination; no route calls
the definition solver, so the routes stay independent of it.

No route takes a twist. Each reads S and g from the pivotal algebra it is
given, so the twisted value nu^tau comes from passing
pivotal.twist_algebra(A, T) = (A, S o tau, g). E (which uses the
untwisted S) and the symmetric data do not depend on the twist and are
computed once from A; each twisted algebra builds its own elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import SparseRows, _back_substitute, _pivots, _transpose, rank
from .pivotal import (
    MissingData,
    ModuleRep,
    PivotalAlgebra,
    ValidationError,
    _accumulate,
    _evaluate,
    _OneViolation,
)


class NotAnIntegral(_OneViolation):
    pass


class NotSeparable(ValidationError):
    pass


class NotSymmetric(_OneViolation):
    pass


class DegenerateTraceForm(_OneViolation):
    pass


class ZeroValency(_OneViolation):
    pass


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

    terms: list  # (u, v) pairs of sparse elements


def _tensor(pairs):
    """sum u (x) v over sparse pairs, as {(p, q): coefficient}."""
    return _accumulate(((p, q), x * y) for u, v in pairs
                       for p, x in u.items() for q, y in v.items())


def validate_separability(A: PivotalAlgebra, E: SeparabilityIdempotent):
    """Violations of E' E'' = 1 and of aE = Ea.

    aE = Ea is checked on the generators of A: the a with aE = Ea form a
    subalgebra, as (ab)E = a(Eb) = (aE)b = (Ea)b = E(ab), so it is all of
    A once it holds the generators. On a failure every basis element is
    checked.
    """
    terms = E.terms
    bad = []
    total = _accumulate(kx for u, v in terms
                        for kx in A.multiply(u, v).items())
    if total != A.unit:
        bad.append("E' E'' does not multiply to the unit")
    one = A.tag.one()

    def breaks(i):
        b = {i: one}
        return (_tensor((A.multiply(b, u), v) for u, v in terms)
                != _tensor((u, A.multiply(v, b)) for u, v in terms))

    if any(breaks(i) for i in A.generators):
        bad.extend("aE = Ea fails on basis element %d" % i
                   for i in range(A.dim) if breaks(i))
    return bad


def _idempotent_sources(A: PivotalAlgebra):
    """The fields a handed-over idempotent was built from."""
    return (A.mult, A.S, A.comult, A.counit, A.integral)


def _attach_idempotent(A: PivotalAlgebra, terms):
    """Attach E = sum u (x) v over the sparse terms to A, for a constructor
    whose checked input already proves E separable (group_algebra: E is
    (1/|G|) sum_g g^-1 (x) g once the Cayley table is a group). Like the
    cache of _element it lives in A.__dict__, not in a field, and it is
    read only while A still holds the mult, S, comult, counit and integral
    objects it came with: replace(), twists and a document's top-level
    integral, counit or comult overrides all start without it."""
    A.__dict__["_separability_idempotent"] = (
        _idempotent_sources(A), SeparabilityIdempotent(terms))
    return A


def hopf_integral_idempotent(A: PivotalAlgebra):
    """E = S(L_1) x L_2 from a normalized two-sided integral L, checked by
    validate_separability. Once eps(1) = 1 and eps(b b_j) = eps(b) eps(b_j)
    for generators b, eps is multiplicative (A is associative) and the a
    with aL = eps(a)L = La form a subalgebra: L is checked on generators,
    and on every basis element after a failure.

    An E its constructor handed over (_attach_idempotent) is returned as
    it is, with no check: the constructor's own checks imply this one."""
    given = A.__dict__.get("_separability_idempotent")
    if given is not None and all(
            x is y for x, y in zip(given[0], _idempotent_sources(A))):
        return given[1]
    if A.comult is None or A.counit is None:
        raise MissingData("separability from an integral needs comult and counit")
    if A.integral is None:
        raise MissingData("no integral attached to %s" % A.name)
    lam, one, eps = A.integral, A.tag.one(), A.counit
    if _evaluate(A.tag, eps, lam) != one:
        raise NotAnIntegral("eps(Lambda) != 1")

    def breaks(i):
        expected = _accumulate((k, eps[i] * x) for k, x in lam.items())
        return (A.multiply({i: one}, lam) != expected
                or A.multiply(lam, {i: one}) != expected)

    multiplicative = _evaluate(A.tag, eps, A.unit) == one and all(
        _evaluate(A.tag, eps, _accumulate(A.mult.get((i, j), ())))
        == eps[i] * eps[j] for i in A.generators for j in range(A.dim))
    if not multiplicative or any(breaks(i) for i in A.generators):
        for i in range(A.dim):
            if breaks(i):
                raise NotAnIntegral(
                    "Lambda is not a two-sided integral (fails at %d)" % i)

    # group Delta(Lambda) by the right leg: E = sum_j S(sum c b_i) x b_j
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


def _casimir_element(A: PivotalAlgebra, terms):
    """sum S(u) g v over the sparse terms u x v, a sparse element."""
    return _accumulate(
        kx for u, v in terms
        for kx in A.multiply(A.multiply(A.apply_S(u), A.g), v).items())


def _element(A: PivotalAlgebra, route, source, build):
    """build(), the element route evaluates characters on over A, kept
    with its source object (E, SymmetricFormData or A.grouplike) and reused
    only for that object. It lives in A.__dict__, not in a field, so
    replace() and twists start empty and == ignores it."""
    cache = A.__dict__.setdefault("_indicator_elements", {})
    entry = cache.get(route)
    if entry is None or entry[0] is not source:
        entry = cache[route] = (source, build())
    return entry[1]


def fs_via_separability(A: PivotalAlgebra, V: ModuleRep,
                        E: SeparabilityIdempotent):
    """nu(V) = chi_V(S(E') g E'')."""
    w = _element(A, "separability", E, lambda: _casimir_element(A, E.terms))
    return _evaluate(A.tag, V.character_on_basis, w)


# ---------------------------------------------------------------------------
# symmetric-algebra route

@dataclass
class SymmetricFormData:
    dual_basis: list   # elements b_i-dual with phi(b_i b_j-dual) = delta_ij
    volume: dict       # sum_i b_i b_i-dual, a central element


@dataclass
class SymmetricIndicator:
    nu: object
    schur: object


def _dual_basis_data(A: PivotalAlgebra, dual):
    """The dual basis with its volume sum_i b_i b_i-dual, as
    SymmetricFormData."""
    one = A.tag.one()
    vol = _accumulate(kx for i, w in enumerate(dual)
                      for kx in A.multiply({i: one}, w).items())
    return SymmetricFormData(dual_basis=dual, volume=vol)


def _dual_basis_element(A: PivotalAlgebra, data):
    """(sum_i S(b_i) g b_i-dual, the volume v)."""
    one = A.tag.one()
    return (_casimir_element(A, [({i: one}, w)
                                 for i, w in enumerate(data.dual_basis)]),
            data.volume)


def _dual_basis_sum(A: PivotalAlgebra, chi, dim, element, chi_name):
    """(nu, schur) = ((d / chi(v)) chi(w), chi(v) / d^2) with d = dim,
    for the dual-basis element (w, v) of _dual_basis_element."""
    w, vol = element
    chi_vol = _evaluate(A.tag, chi, vol)
    if not chi_vol:
        raise ZeroVolumeCharacter(
            "%s vanishes on the volume element" % chi_name)
    d = A.tag.coerce(dim)
    return (d / chi_vol) * _evaluate(A.tag, chi, w), chi_vol / (d * d)


def symmetric_form_data(A: PivotalAlgebra):
    """Dual basis and volume of phi: the Gram matrix G, phi(b_i b_j), read
    off A.mult as sparse rows, and the dual basis from the rows of G^-1, G
    being symmetric. The rows [e_i | G_i] are eliminated, each pivoting at
    its last nonzero column: reduced, the row pivoting at n + k is
    [row k of G^-1 | e_k], and a pivot below n means G is singular."""
    if A.trace_form is None:
        raise MissingData("no trace form attached to %s" % A.name)
    n, phi, one = A.dim, A.trace_form, A.tag.one()
    gram = [_accumulate((j, c * phi[k]) for j in range(n)
                        for k, c in A.mult.get((i, j), ()) if phi[k])
            for i in range(n)]
    if gram != _transpose(gram, n):
        raise NotSymmetric("phi(ab) != phi(ba) somewhere")
    pivots = _pivots({i: one, **{n + j: x for j, x in row.items()}}
                     for i, row in enumerate(gram))
    if min(pivots) < n:
        raise DegenerateTraceForm("the Gram matrix of phi is singular")
    _back_substitute(pivots)
    # v is central: sum a b_i (x) b^i = sum b_i (x) b^i a; multiply the legs
    return _dual_basis_data(A, [pivots[n + k] for k in range(n)])


def _vec(m, d, start=0):
    """Row-major vec of d x d sparse rows m, as (start + index, value)."""
    return [(start + r * d + c, x) for r, row in enumerate(m)
            for c, x in row.items()]


def fs_via_symmetric(A: PivotalAlgebra, V: ModuleRep,
                     data: SymmetricFormData | None = None):
    """Dual-basis character sum; also reports the Schur element.

    The formula needs V absolutely simple, which holds exactly when the
    R(b_i) span End(V) (Burnside); NotAbsolutelySimple otherwise.
    """
    if data is None:
        data = symmetric_form_data(A)
    d = V.dim
    rows = [_vec(m, d) for m in V.action]
    if rank(SparseRows(A.tag, d * d, rows)) != d * d:
        raise NotAbsolutelySimple(
            "module %r is not absolutely simple; the dual-basis formula is"
            " heuristic here" % V.name)
    element = _element(A, "symmetric", data,
                       lambda: _dual_basis_element(A, data))
    nu, schur = _dual_basis_sum(A, V.character_on_basis, V.dim, element,
                                "chi_%s" % V.name)
    return SymmetricIndicator(nu=nu, schur=schur)


# ---------------------------------------------------------------------------
# antipode traces

def fs_regular_trace_q(A: PivotalAlgebra):
    """Trace of a -> S(a) g; equals nu of the regular module for Frobenius
    algebras, and the number of square roots of 1 for group algebras."""
    z = A.tag.zero()
    return sum((A.multiply(col, A.g).get(i, z) for i, col in enumerate(A.S)),
               z)


def trace_S_on_image(A: PivotalAlgebra, V: ModuleRep):
    """(Trace(S_V), Trace(Q_V)) with S_V(rho(a)) = rho(S(a)) on the image.

    Requires V absolutely simple and self-dual, which is exactly when S_V
    is well defined. One elimination of the rows vec R(S(b_i)) | vec R(b_i),
    each pivoting at its last nonzero column, decides both: the right
    halves span End(V) exactly when V is absolutely simple (Burnside),
    which is when every right-half column pivots, and S descends exactly
    when no pivot falls in the left half. Reduced, the row pivoting at
    d^2 + k is then vec S_V(E_k) | E_k for the matrix unit E_k = E_rc: its
    entry k adds to Trace(S_V), and row r of S_V(E_k) dotted with column c
    of R(g) adds entry k of Q_V(E_k) = S_V(E_k) R(g).
    """
    d = V.dim
    d2 = d * d
    pivots = _pivots(_vec(V.of_vector(A.S[i]), d)
                     + _vec(V.action[i], d, d2) for i in range(A.dim))
    if sum(c >= d2 for c in pivots) != d2:
        raise NotAbsolutelySimple(
            "the action does not span End(%s)" % V.name)
    if len(pivots) > d2:
        raise NotSelfDual(
            "the antipode does not descend to the image of %s" % V.name)
    _back_substitute(pivots)
    rg = V.of_vector(A.g)
    trace_s = trace_q = A.tag.zero()
    for k in range(d2):
        r, c = divmod(k, d)
        for j, x in pivots[d2 + k].items():
            s, t = divmod(j, d)  # x is entry (s, t) of S_V(E_k)
            if j == k:
                trace_s = trace_s + x
            if s == r and c in rg[t]:
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
    rhs = z = A.tag.zero()
    lhs = sum((col.get(i, z) for i, col in enumerate(A.S)), z)
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
    one = A.tag.one()
    element = _element(A, "doi", A.grouplike, lambda: _dual_basis_element(
        A, _dual_basis_data(A, [{j: one / e} for j, e in zip(star, eps)])))
    nu, _ = _dual_basis_sum(A, tuple(A.tag.coerce(x) for x in chi), dim,
                            element, "chi")
    return nu


# ---------------------------------------------------------------------------
# twisting by a central character (Hopf route)

def fs_hopf_character_formula(A: PivotalAlgebra, V: ModuleRep, alpha):
    """nu(V; L) = alpha(S(L_1)) chi_V(L_2 L_3) from the integral."""
    if A.comult is None or A.integral is None:
        raise MissingData("needs comultiplication and integral")
    alpha = tuple(A.tag.coerce(a) for a in alpha)
    alpha_s = [_evaluate(A.tag, alpha, c) for c in A.S]  # alpha o S
    one = A.tag.one()
    # alpha(S(L_1)) L_2 L_3, over the double comultiplication of L
    x = _accumulate(
        kv for k, lk in A.integral.items()
        for i, j, c in A.comult.get(k, ())
        for s, t, c2 in A.comult.get(j, ())
        for kv in A.multiply({s: lk * c * alpha_s[i] * c2}, {t: one}).items())
    return _evaluate(A.tag, V.character_on_basis, x)
