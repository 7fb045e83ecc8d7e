"""Pivotal axioms, form spaces, and the definition-level indicator."""

import dataclasses
import importlib
import inspect
import itertools
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fsind
from fsind.constructors import (
    CayleyTable,
    coalgebra_regular_module,
    cyclic_table,
    group_algebra,
    group_involution,
    q8_table,
    s3_table,
    scheme_to_grouplike,
    SchemeSpec,
)
from fsind.documents import document_from_dict
from fsind.constructors import builtin_document, builtin_names
from fsind.formulas import fs_via_separability, hopf_integral_idempotent
from fsind.linalg import (
    Matrix,
    NotInSpan,
    det,
    inverse,
    kernel_basis,
    rank,
    solve_in_span,
    span_canonical,
)
from fsind.pivotal import (
    FormBasis,
    MissingComultiplication,
    ModuleRep,
    NotCentralCharacter,
    PivotalAlgebra,
    conjugate_module,
    direct_sum,
    dual_module,
    fs_indicator,
    hom_space,
    invariant_form_space,
    pivotal_from_character,
    regular_module,
    span_contains_invertible,
    transposition_on_forms,
    twist_algebra,
    validate_algebra_involution,
    validate_module,
    validate_pivotal,
)
from fsind.scalars import RATIONAL, cyclotomic_field

F = Fraction


def load(name):
    return document_from_dict(builtin_document(name), name=name)


def rat(x):
    return RATIONAL.coerce(x)


def count_involutions(ct: CayleyTable):
    """#{x : x^2 = e} straight off the Cayley table."""
    e = ct.identity()
    return sum(1 for i in range(ct.order) if ct.table[i][i] == e)


# --- validation --------------------------------------------------------------

def test_group_algebras_validate_clean():
    for name in ("C2", "C3", "S3", "D4", "Q8"):
        doc = load(name)
        assert validate_pivotal(doc.algebra) == []
        for V in doc.modules.values():
            assert validate_module(doc.algebra, V) == []


def test_shifted_s_is_caught():
    A = group_algebra(cyclic_table(3), RATIONAL)
    shift = Matrix(RATIONAL, [[rat(1) if (i - 1) % 3 == j else rat(0)
                               for j in range(3)] for i in range(3)])
    bad = validate_pivotal(dataclasses.replace(A, S=shift))
    assert any("anti-map" in v for v in bad)


def module_violations_by_full_loop(A, V):
    """Reference: every basis pair (i, j), generators or not."""
    bad = []
    if V.of_vector(A.unit) != Matrix.identity(A.tag, V.dim):
        bad.append("module %r: unit does not act as identity" % V.name)
    for i in range(A.dim):
        for j in range(A.dim):
            prod = A.multiply(A.basis_vector(i), A.basis_vector(j))
            if V.action[i] * V.action[j] != V.of_vector(prod):
                bad.append("module %r: action breaks at (%d, %d)"
                           % (V.name, i, j))
    return bad


def test_broken_module_action_is_caught():
    doc = load("S3")
    A, std = doc.algebra, doc.modules["std"]
    assert validate_module(A, std) == []
    # S3's generators are b_1 and b_3; b_0 is the unit, b_4 neither
    assert A.generators == (1, 3)
    for broken in (1, 4, 0):
        rows = [list(r) for r in std.action[broken].rows]
        rows[0][0] = rows[0][0] + 1
        mats = list(std.action)
        mats[broken] = Matrix(A.tag, rows)
        V = ModuleRep("std", 2, tuple(mats))
        bad = validate_module(A, V)
        assert bad
        assert bad == module_violations_by_full_loop(A, V), broken


def test_involution_validation():
    ct = cyclic_table(3)
    A = group_algebra(ct, RATIONAL)
    inv = group_involution(ct, [0, 2, 1], RATIONAL)
    assert validate_algebra_involution(A, inv) == []
    # swapping the identity with a generator is not an algebra map
    T = Matrix(RATIONAL, [[rat(v) for v in row]
                          for row in ((0, 1, 0), (1, 0, 0), (0, 0, 1))])
    assert validate_algebra_involution(A, T)


# --- form spaces and the indicator -------------------------------------------

def test_s3_standard_module_report():
    doc = load("S3")
    rep = fs_indicator(doc.algebra, doc.modules["std"])
    assert rep.nu == rat(1)
    assert (rep.dim_bil, rep.dim_plus, rep.dim_minus) == (1, 1, 0)
    assert rep.end_dim == 1 and rep.abs_simple and rep.self_dual
    assert rep.canonical_form == Matrix(
        RATIONAL, [[rat(1), F(-1, 2)], [F(-1, 2), rat(1)]])


def test_q8_twodim_is_skew():
    doc = load("Q8")
    tag = doc.algebra.tag
    rep = fs_indicator(doc.algebra, doc.modules["twodim"])
    assert rep.nu == tag.coerce(-1)
    assert (rep.dim_bil, rep.dim_plus, rep.dim_minus) == (1, 0, 1)
    assert rep.canonical_form == Matrix(
        tag, [[tag.zero(), tag.one()], [tag.coerce(-1), tag.zero()]])


def test_c3_character_not_self_dual_until_twisted():
    doc = load("C3-inv")
    A = doc.algebra
    chi1 = doc.modules["chi1"]
    plain = fs_indicator(A, chi1)
    assert plain.nu == A.tag.zero()
    assert plain.dim_bil == 0 and not plain.self_dual
    twisted = fs_indicator(twist_algebra(A, A.involutions["inv"]), chi1)
    assert twisted.nu == A.tag.one() and twisted.self_dual


def test_regular_module_indicator_counts_involutions():
    for name, table in (("S3", s3_table()), ("Q8", q8_table()),
                        ("C4", cyclic_table(4))):
        doc = load(name)
        rep = fs_indicator(doc.algebra, regular_module(doc.algebra))
        assert rep.nu == doc.algebra.tag.coerce(count_involutions(table))
        assert rep.dim_bil == doc.algebra.dim


def test_s4_regular_module():
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    ct = CayleyTable(tuple(tuple(index[tuple(p[q[x]] for x in range(4))]
                                 for q in perms) for p in perms))
    A = group_algebra(ct, RATIONAL)
    V = regular_module(A)
    rep = fs_indicator(A, V)
    # 1 + 6 transpositions + 3 double transpositions square to 1
    assert rep.nu == rat(10) == rat(count_involutions(ct))
    assert rep.dim_bil == rep.end_dim == 24
    assert fs_via_separability(A, V, hopf_integral_idempotent(A)) == rep.nu


def test_trichotomy_on_builtin_simples():
    expected = {
        "C2": (1, 1),
        "C3": (1, 0, 0),
        "C4": (1, 0, 1, 0),
        "C6": (1, 0, 0, 1, 0, 0),
        "S3": (1, 1, 1),
        "D4": (1, 1, 1, 1, 1),
        "Q8": (1, 1, 1, 1, -1),
    }
    for name, nus in expected.items():
        doc = load(name)
        for V, want in zip(doc.modules.values(), nus):
            rep = fs_indicator(doc.algebra, V)
            assert rep.abs_simple
            assert rep.nu == doc.algebra.tag.coerce(want), (name, V.name)
            assert (rep.nu != doc.algebra.tag.zero()) == rep.self_dual


def test_canonical_form_transposition_eigenvector():
    # R(g)^T M^T = nu M whenever the form space is a line
    for name in ("S3", "D4", "Q8", "C4"):
        doc = load(name)
        for V in doc.modules.values():
            rep = fs_indicator(doc.algebra, V)
            if rep.canonical_form is None:
                continue
            m = rep.canonical_form
            flip = V.of_vector(doc.algebra.g).transpose() * m.transpose()
            assert flip == m.scale(rep.nu)
            assert det(m)


def test_hom_space_dimensions():
    doc = load("S3")
    A = doc.algebra
    std, sign = doc.modules["std"], doc.modules["sign"]
    assert len(hom_space(A, std, std)) == 1
    assert len(hom_space(A, std, sign)) == 0
    # hom(reg, V) is V itself
    assert len(hom_space(A, regular_module(A), std)) == 2


def test_dual_module_is_a_module_and_duality_is_reflexive():
    doc = load("S3")
    A = doc.algebra
    std = doc.modules["std"]
    dstd = dual_module(A, std)
    assert validate_module(A, dstd) == []
    assert span_contains_invertible(A.tag, hom_space(A, std, dstd))
    ddstd = dual_module(A, dstd)
    assert span_contains_invertible(A.tag, hom_space(A, std, ddstd))


def assert_forms_are_invariant(A, At, V):
    """Each form M satisfies R(b)^T M = M R(S_t(b)), checked by products."""
    forms = invariant_form_space(At, V).forms
    for i in range(A.dim):
        left = V.action[i].transpose()
        right = V.of_vector(At.apply_S(A.basis_vector(i)))
        for M in forms:
            assert left * M == M * right, (V.name, i)
    assert len(forms) == len(hom_space(At, V, dual_module(At, V)))
    if forms:
        assert rank(Matrix(A.tag, [M.vec() for M in forms])) == len(forms)
    return forms


def test_form_space_is_invariant_on_every_builtin():
    for name in builtin_names():
        doc = load(name)
        A = doc.algebra
        modules = list(doc.modules.values()) + [regular_module(A)]
        for T in [None] + list(A.involutions.values()):
            At = twist_algebra(A, T)
            for V in modules:
                assert_forms_are_invariant(A, At, V)


def test_forms_when_s_squared_is_not_the_identity():
    """M_2(Q) with S(x) = P x^T P^-1 and g = P P^-T, P not symmetric.

    The forms of the natural module are the multiples of P^-1, whose
    transpose is not invariant, so this pins the direction of the
    transposition from Hom(V, V*) to the forms.
    """
    P = Matrix(RATIONAL, [[rat(1), rat(1)], [rat(0), rat(1)]])
    units = [Matrix(RATIONAL, [[rat(int((r, c) == (i, j))) for c in range(2)]
                               for r in range(2)])
             for i in range(2) for j in range(2)]

    mult = {(2 * i + j, 2 * k + l): ((2 * i + l, rat(1)),)
            for i in range(2) for j in range(2)
            for k in range(2) for l in range(2) if j == k}
    pinv = inverse(P)
    S = Matrix(RATIONAL, list(zip(*[(P * e.transpose() * pinv).vec()
                                    for e in units])))
    A = PivotalAlgebra(
        tag=RATIONAL, dim=4, labels=("e11", "e12", "e21", "e22"), mult=mult,
        unit=Matrix.identity(RATIONAL, 2).vec(), S=S,
        g=(P * pinv.transpose()).vec())
    assert validate_pivotal(A) == []
    V = ModuleRep("natural", 2, tuple(units))
    assert validate_module(A, V) == []
    forms = assert_forms_are_invariant(A, A, V)
    assert forms == [pinv]
    rep = fs_indicator(A, V)
    assert rep.nu == rat(1) and rep.canonical_form == pinv


def test_transposition_is_involutive_on_regular_forms():
    for name in ("S3", "D4"):
        doc = load(name)
        A = doc.algebra
        basis = invariant_form_space(A, regular_module(A))
        op = transposition_on_forms(A, basis)
        n = len(basis.forms)
        assert n == A.dim
        assert op * op == Matrix.identity(A.tag, n)


def transposition_by_solves(A, basis):
    """Reference: each column solved for in the span of the forms."""
    rg_t = basis.module.of_vector(A.g).transpose()
    span = [f.vec() for f in basis.forms]
    cols = [solve_in_span(A.tag, span, (rg_t * f.transpose()).vec())
            for f in basis.forms]
    return Matrix(A.tag, list(zip(*cols))) if cols else Matrix(A.tag, [])


def builtin_pairs():
    """(name, twist, twisted algebra, module) for every builtin module, the
    regular module and, over a dual coalgebra, the coregular one."""
    for name in builtin_names():
        doc = load(name)
        A = doc.algebra
        modules = list(doc.modules.values()) + [regular_module(A)]
        if doc.coalgebra is not None:
            modules.append(coalgebra_regular_module(doc.coalgebra))
        for tau, T in [(None, None)] + list(A.involutions.items()):
            At = twist_algebra(A, T)
            for V in modules:
                yield name, tau, At, V


def test_transposition_matches_solves_on_every_builtin():
    for name, tau, At, V in builtin_pairs():
        basis = invariant_form_space(At, V)
        assert transposition_on_forms(At, basis) == \
            transposition_by_solves(At, basis), (name, tau, V.name)


def constraint_by_definition(a, b):
    """Dense matrix of X -> bX - Xa: column (i, j) is vec(b E_ij - E_ij a)."""
    tag = a.tag
    n = b.nrows * a.nrows
    cols = []
    for ij in range(n):
        e = Matrix.from_vec(tag, b.nrows, a.nrows,
                            [tag.one() if k == ij else tag.zero()
                             for k in range(n)])
        cols.append((b * e - e * a).vec())
    return Matrix(tag, list(zip(*cols)))


def hom_space_by_full_basis(A, V, W):
    """Reference: the stacked constraints of every basis element of A."""
    stacked = Matrix(A.tag, [r for a, b in zip(V.action, W.action)
                             for r in constraint_by_definition(a, b).rows])
    return [Matrix.from_vec(A.tag, W.dim, V.dim, list(v))
            for v in kernel_basis(stacked)]


def test_generator_hom_spaces_match_the_full_basis():
    pairs = 0
    for name, tau, At, V in builtin_pairs():
        for W in (dual_module(At, V), V):
            assert hom_space(At, V, W) == hom_space_by_full_basis(At, V, W), \
                (name, tau, V.name, W.name)
        pairs += 1
    assert pairs >= 62


def forms_by_full_basis(A, V):
    """Reference: M R(S(b_i)) = R(b_i)^T M stacked over every basis element."""
    stacked = Matrix(A.tag, [
        r for i in range(A.dim)
        for r in constraint_by_definition(
            V.of_vector(A.apply_S(A.basis_vector(i))),
            V.action[i].transpose()).rows])
    return [Matrix.from_vec(A.tag, V.dim, V.dim, list(v))
            for v in kernel_basis(stacked)]


def test_indicator_matches_the_full_basis():
    for name, tau, At, V in builtin_pairs():
        forms = forms_by_full_basis(At, V)
        rep = fs_indicator(At, V)
        key = (name, tau, V.name)
        assert invariant_form_space(At, V).forms == forms, key
        assert rep.canonical_form == (forms[0] if len(forms) == 1
                                      else None), key
        assert rep.dim_bil == len(forms), key
        assert rep.end_dim == len(hom_space_by_full_basis(At, V, V)), key
        assert rep.self_dual == span_contains_invertible(At.tag, forms), key
        nu = (transposition_by_solves(At, FormBasis(V, forms)).trace()
              if forms else At.tag.zero())
        assert rep.nu == nu, key


def test_regular_module_of_order_24():
    """S4 over Q: nu of the regular module is #{g : g^2 = 1} = 10."""
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    ct = CayleyTable(tuple(tuple(index[tuple(p[x] for x in q)] for q in perms)
                           for p in perms))
    A = group_algebra(ct, RATIONAL)
    rep = fs_indicator(A, regular_module(A))
    assert rep.nu == count_involutions(ct) == 10
    assert rep.dim_bil == rep.end_dim == 24


def generated_dimension(A, gens):
    """Dimension of the span of the unit closed under multiplying by the
    generators on either side."""
    span = span_canonical(A.tag, [A.unit])
    while True:
        grown = span_canonical(A.tag, span + [
            p for w in span for g in gens
            for p in (A.multiply(w, A.basis_vector(g)),
                      A.multiply(A.basis_vector(g), w))])
        if len(grown) == len(span):
            return len(span)
        span = grown


def test_builtin_generators_generate():
    for name in builtin_names():
        A = load(name).algebra
        assert generated_dimension(A, A.generators) == A.dim, name
        # the twist changes S only, and the generators ride along
        for T in A.involutions.values():
            assert twist_algebra(A, T).generators == A.generators


def test_transposition_outside_the_span_is_rejected():
    # with g = 1 the image of E12 is E21, which E12 alone does not span
    doc = load("S3")
    o, z = rat(1), rat(0)
    e12 = Matrix(RATIONAL, [[z, o], [z, z]])
    with pytest.raises(NotInSpan):
        transposition_on_forms(doc.algebra, FormBasis(doc.modules["std"],
                                                      [e12]))


# --- functoriality -----------------------------------------------------------

def _random_invertible(tag, dim, rng):
    while True:
        rows = [[tag.coerce(rng.randint(-3, 3)) for _ in range(dim)]
                for _ in range(dim)]
        m = Matrix(tag, rows)
        if det(m):
            return m


def test_indicator_survives_base_change():
    rng = random.Random(20240817)
    for name, mod in (("S3", "std"), ("Q8", "twodim")):
        doc = load(name)
        A = doc.algebra
        V = doc.modules[mod]
        base = fs_indicator(A, V)
        for _ in range(10):
            P = _random_invertible(A.tag, V.dim, rng)
            rep = fs_indicator(A, conjugate_module(V, P))
            assert rep.nu == base.nu
            assert (rep.dim_bil, rep.dim_plus, rep.dim_minus,
                    rep.end_dim, rep.self_dual, rep.abs_simple) == \
                   (base.dim_bil, base.dim_plus, base.dim_minus,
                    base.end_dim, base.self_dual, base.abs_simple)


S3_MODULE_NAMES = ("triv", "sign", "std")


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(S3_MODULE_NAMES), st.sampled_from(S3_MODULE_NAMES))
def test_indicator_additive_on_direct_sums(left, right):
    doc = load("S3")
    A = doc.algebra
    V, W = doc.modules[left], doc.modules[right]
    both = fs_indicator(A, direct_sum(V, W))
    assert both.nu == fs_indicator(A, V).nu + fs_indicator(A, W).nu


# --- twisting ----------------------------------------------------------------

def test_twisted_algebra_is_still_pivotal():
    doc = load("C3-inv")
    At = twist_algebra(doc.algebra, doc.algebra.involutions["inv"])
    assert validate_pivotal(At) == []


def test_twist_algebra_is_the_only_twist_point():
    doc = load("C3-inv")
    A = doc.algebra
    T = A.involutions["inv"]
    assert twist_algebra(A, None) is A
    At = twist_algebra(A, T)
    assert At.S == A.S * T and At.g == A.g
    assert At.generators == A.generators


def test_no_function_takes_a_twist_or_tau():
    # twist_algebra(A, T) is the only way a twist enters, and each route
    # decides its own preconditions, with no knob to skip them
    for info in pkgutil.iter_modules(fsind.__path__):
        mod = importlib.import_module("fsind." + info.name)
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                funcs = [obj]
            elif inspect.isclass(obj):
                funcs = [f for f in vars(obj).values() if inspect.isfunction(f)]
            else:
                continue
            for f in funcs:
                params = set(inspect.signature(f).parameters)
                assert not params & {"twist", "tau", "check_simple"}, \
                    f.__qualname__


def test_pivotal_from_character_sign_twist():
    doc = load("S3")
    A = doc.algebra
    sign = tuple(A.tag.coerce(x) for x in (1, 1, 1, -1, -1, -1))
    At = pivotal_from_character(A, sign)
    assert validate_pivotal(At) == []
    nus = [fs_indicator(At, doc.modules[n]).nu for n in S3_MODULE_NAMES]
    assert nus == [A.tag.zero(), A.tag.zero(), A.tag.coerce(-1)]


def test_pivotal_from_character_rejects_non_characters():
    doc = load("S3")
    A = doc.algebra
    delta_r = tuple(A.tag.coerce(1 if i == 1 else 0) for i in range(6))
    with pytest.raises(NotCentralCharacter):
        pivotal_from_character(A, delta_r)


def test_pivotal_from_character_needs_comultiplication():
    spec = SchemeSpec(size=3, rank=2,
                      relations=((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    A = scheme_to_grouplike(spec, RATIONAL)
    with pytest.raises(MissingComultiplication):
        pivotal_from_character(A, (1, 1))


# --- span_contains_invertible ------------------------------------------------

def test_span_invertibility_needs_the_pencil():
    # neither basis matrix is invertible but their sum is
    a = Matrix(RATIONAL, [[rat(1), rat(0)], [rat(0), rat(0)]])
    b = Matrix(RATIONAL, [[rat(0), rat(0)], [rat(0), rat(1)]])
    assert span_contains_invertible(RATIONAL, [a, b])
    assert not span_contains_invertible(RATIONAL, [a])
    assert not span_contains_invertible(RATIONAL, [])
    # rank-one spans never contain an invertible element
    c = Matrix(RATIONAL, [[rat(0), rat(1)], [rat(0), rat(0)]])
    assert not span_contains_invertible(RATIONAL, [a, c])
