"""Pivotal axioms, form spaces, and the definition-level indicator."""

import dataclasses
import functools
import importlib
import inspect
import itertools
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import fsind
from fsind import pivotal
from fsind.constructors import (
    CayleyTable,
    coalgebra_regular_module,
    cyclic_table,
    dualize_coalgebra,
    group_algebra,
    group_involution,
    group_like_coalgebra,
    q8_table,
    s3_table,
    scheme_standard_module,
    scheme_to_grouplike,
    SchemeSpec,
)
from fsind.documents import document_from_dict
from fsind.constructors import builtin_document, builtin_names
from fsind.formulas import fs_via_separability, hopf_integral_idempotent
from fsind.linalg import (
    Matrix,
    det,
    inverse,
    kernel_basis,
    rank,
    solve_in_span,
)
from fsind.pivotal import (
    FormBasis,
    MissingComultiplication,
    NotCentralCharacter,
    PivotalAlgebra,
    ValidationError,
    _transposition,
    direct_sum,
    dual_module,
    fs_indicator,
    hom_space,
    indicator_from_presentation,
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
from fsind.qsl2 import build_vl, q_integer, qsl2_indicator
from fsind.scalars import (
    RATIONAL,
    RATIONAL_FUNCTION,
    RatFun,
    cyclotomic_field,
    parse_scalar,
)
from small_algebras import (
    add,
    apply_S,
    basis_vector,
    conjugate_module,
    dense_action,
    dense_element,
    dense_of_vector,
    difference,
    dual_numbers,
    eigenspace_dimensions_by_rank,
    from_matrix,
    generators_by_closure,
    left_mult,
    module_of,
    module_violations_by_full_loop,
    multiply,
    primitive_coalgebra,
    s4_table,
    scale,
    span_canonical,
    span_contains_invertible_by_dense_grams,
    sparse_rows,
    sparse_vectors,
    to_matrix,
    trace,
    transpose,
    twisted_S_by_dense_product,
    upper_triangular,
    upper_triangular_3,
    validate_algebra_involution_by_definition,
    validate_pivotal_by_definition,
)

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
    shift = [{(j + 1) % 3: rat(1)} for j in range(3)]  # b_j -> b_(j+1)
    bad = validate_pivotal(dataclasses.replace(A, S=shift))
    assert any("anti-map" in v for v in bad)


def _dual_of_kc(n):
    return dualize_coalgebra(group_like_coalgebra(cyclic_table(n), RATIONAL))


SMALL_ALGEBRAS = {
    "k[x]/(x^2)": dual_numbers,
    "T2(Q)": upper_triangular,
    "kC3": lambda: group_algebra(cyclic_table(3), RATIONAL),
    "kS3": lambda: group_algebra(s3_table(), RATIONAL),
    "dual(kC2)": lambda: _dual_of_kc(2),
    "dual(kC3)": lambda: _dual_of_kc(3),
    "dual(kC4)": lambda: _dual_of_kc(4),
    "dual(primitive)": lambda: dualize_coalgebra(primitive_coalgebra()),
}

EDITS = st.tuples(st.sampled_from(("mult", "S", "g")), st.integers(0, 5),
                  st.integers(0, 5), st.integers(0, 5),
                  st.sampled_from((F(-1), F(0), F(1), F(2), F(1, 2))))


def edited(A, kind, a, b, c, value):
    """A with the structure constant (a, b; c), the S entry (a, b) or entry
    a of g set to value; indices are taken mod dim A."""
    n = A.dim
    a, b, c = a % n, b % n, c % n
    if kind == "mult":
        terms = {**dict(A.mult.get((a, b), ())), c: value}
        return dataclasses.replace(
            A, mult={**A.mult, (a, b): tuple(sorted(terms.items()))})
    if kind == "S":
        return dataclasses.replace(
            A, S=edited_columns(A, A.S, [(a, b, value)]))
    g = {**A.g, a: value}
    return dataclasses.replace(A, g={t: x for t, x in g.items() if x})


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SMALL_ALGEBRAS)),
       st.lists(EDITS, min_size=1, max_size=2))
# One edit never tells the product orders of the S(g) and S^2 checks apart;
# these pairs of edits do, by breaking the unit or associativity first.
@example("dual(kC3)", [("mult", 2, 1, 2, F(1)), ("mult", 0, 2, 2, F(-1))])
@example("dual(primitive)", [("S", 1, 0, 0, F(2)), ("mult", 1, 0, 1, F(0))])
def test_validate_pivotal_matches_the_definition(name, edits):
    """The sparse checker and the dense reference list the same violations
    after a structure constant, an S entry or an entry of g changes."""
    A = SMALL_ALGEBRAS[name]()
    for edit in edits:
        A = edited(A, *edit)
    assert validate_pivotal(A) == validate_pivotal_by_definition(A)


# --- the one product against the dense reference ----------------------------

ELEMENT_ALGEBRAS = sorted(builtin_names()) + [
    "k[x]/(x^2)", "T2(Q)", "dual(kC2)", "dual(kC3)", "dual(kC4)"]


@functools.lru_cache(maxsize=None)
def element_algebra(name):
    return SMALL_ALGEBRAS[name]() if name in SMALL_ALGEBRAS \
        else load(name).algebra


def sparse_elements(A):
    """Sparse elements of A: up to four nonzero coefficients, each a small
    rational times a power of the field generator."""
    powers = [A.tag.one()]
    if A.tag.kind == "cyclotomic":
        z = A.tag.generator()
        powers += [z, z * z]
    coeffs = st.builds(lambda f, p: A.tag.coerce(f) * p,
                       st.sampled_from((F(-1), F(1), F(2), F(1, 2), F(-3, 4))),
                       st.sampled_from(powers))
    return st.dictionaries(st.integers(0, A.dim - 1), coeffs, max_size=4)


def sparse(u):
    return {i: x for i, x in enumerate(u) if x}


MATRIX_EDITS = st.tuples(st.integers(0, 7), st.integers(0, 7),
                         st.sampled_from((F(-1), F(0), F(1), F(2), F(1, 2))))


def edited_columns(A, cols, edits):
    """The sparse columns cols of a matrix with entry (a, b), row a of
    column b, set to value for each edit, indices mod dim A."""
    cols = [dict(col) for col in cols]
    for a, b, value in edits:
        col, value = cols[b % A.dim], A.tag.coerce(value)
        col[a % A.dim] = value
        if not value:
            del col[a % A.dim]
    return cols


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ELEMENT_ALGEBRAS), st.data())
def test_sparse_product_and_S_match_the_dense_reference(name, data):
    """Every builtin S is symmetric, so S is also drawn with up to two
    entries changed."""
    A = element_algebra(name)
    s_edits = data.draw(st.lists(MATRIX_EDITS, max_size=2))
    if s_edits:
        A = dataclasses.replace(A, S=edited_columns(A, A.S, s_edits))
    u, v = data.draw(sparse_elements(A)), data.draw(sparse_elements(A))
    du, dv = (tuple(w.get(i, A.tag.zero()) for i in range(A.dim))
              for w in (u, v))
    assert A.multiply(u, v) == sparse(multiply(A, du, dv))
    assert A.apply_S(u) == sparse(apply_S(A, du))


def test_regular_module_is_dense_left_multiplication():
    for A in [load(name).algebra for name in builtin_names()] + [
            group_algebra(s4_table(), RATIONAL)]:
        assert dense_action(regular_module(A)) == tuple(
            left_mult(A, basis_vector(A, i)) for i in range(A.dim)), A.name


def assert_sparse_action(tag, action, dense_mats):
    """Each matrix of action is sparse rows {column: value}, one dict per
    row with no zero value and every column in range, equal to the dense
    matrix it was built from."""
    assert len(action) == len(dense_mats)
    for rows, m in zip(action, dense_mats):
        assert isinstance(rows, list) and len(rows) == m.nrows == m.ncols
        for row in rows:
            assert isinstance(row, dict)
            assert all(x and 0 <= c < m.ncols for c, x in row.items()), row
        assert to_matrix(tag, rows) == m


def block_diagonal(tag, a, b):
    z = tag.zero()
    return Matrix(tag, [list(r) + [z] * b.nrows for r in a.rows]
                  + [[z] * a.nrows + list(r) for r in b.rows])


def test_every_module_builder_stores_sparse_rows():
    """The loader, regular_module, dual_module, direct_sum,
    scheme_standard_module, coalgebra_regular_module and build_vl all
    store sparse rows, equal to the dense action of their source."""
    for name in builtin_names():
        raw = builtin_document(name)
        doc = document_from_dict(raw, name=name)
        A, tag = doc.algebra, doc.algebra.tag
        modules = []
        for entry in raw.get("modules", ()):
            V = doc.modules[entry["name"]]
            mats = [Matrix(tag, [[tag.coerce(x) if isinstance(x, int)
                                  else parse_scalar(x, tag) for x in row]
                                 for row in m]) for m in entry["action"]]
            assert_sparse_action(tag, V.action, mats)
            modules.append((V, mats))
        reg = regular_module(A)
        reg_mats = [left_mult(A, basis_vector(A, i)) for i in range(A.dim)]
        assert_sparse_action(tag, reg.action, reg_mats)
        for V, mats in modules + [(reg, reg_mats)]:
            assert_sparse_action(tag, dual_module(A, V).action, [
                transpose(dense_of_vector(A, mats,
                                          apply_S(A, basis_vector(A, i))))
                for i in range(A.dim)])
            assert_sparse_action(tag, direct_sum(V, reg).action, [
                block_diagonal(tag, m, r) for m, r in zip(mats, reg_mats)])
        if doc.scheme is not None:
            spec = doc.scheme
            std = scheme_standard_module(spec, tag)
            assert_sparse_action(tag, std.action, [Matrix(tag, [
                [tag.one() if spec.relations[x][y] == i else tag.zero()
                 for y in range(spec.size)] for x in range(spec.size)])
                for i in range(spec.rank)])
        if doc.coalgebra is not None:
            spec = doc.coalgebra
            mats = []
            for i in range(spec.dim):  # D(b_k) = c b_s x b_i adds c b_s
                rows = [[tag.zero()] * spec.dim for _ in range(spec.dim)]
                for k in range(spec.dim):
                    for s, t, c in spec.comult.get(k, ()):
                        if t == i:
                            rows[s][k] = rows[s][k] + c
                mats.append(Matrix(tag, rows))
            assert_sparse_action(
                tag, coalgebra_regular_module(spec).action, mats)
    for two_ell in range(7):
        m, d, z = build_vl(two_ell), two_ell + 1, RATIONAL_FUNCTION.zero()
        dense = {key: [[z] * d for _ in range(d)]
                 for key in ("K", "Kinv", "E", "F")}
        for t in range(d):  # K v_t = q^(2t-L) v_t, E v_t = [t+1] v_{t+1}, ...
            dense["K"][t][t] = RatFun.generator() ** (2 * t - two_ell)
            dense["Kinv"][t][t] = RatFun.generator() ** (two_ell - 2 * t)
            if t < two_ell:
                dense["E"][t + 1][t] = q_integer(t + 1)
            if t > 0:
                dense["F"][t - 1][t] = q_integer(two_ell - t + 1)
        assert_sparse_action(
            RATIONAL_FUNCTION, [m.K, m.Kinv, m.E, m.F],
            [Matrix(RATIONAL_FUNCTION, dense[key])
             for key in ("K", "Kinv", "E", "F")])


@functools.lru_cache(maxsize=None)
def involution_cases():
    """(A, T) by name: every builtin with the identity, and with each of
    its named involutions."""
    cases = {}
    for name in builtin_names():
        A = load(name).algebra
        cases[name + ":id"] = (A, [{i: A.tag.one()} for i in range(A.dim)])
        for iname, T in A.involutions.items():
            cases[name + ":" + iname] = (A, T)
    return cases


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(involution_cases())),
       st.lists(MATRIX_EDITS, min_size=1, max_size=2))
def test_validate_algebra_involution_matches_the_definition(case, edits):
    """The sparse checker and the dense reference list the same violations
    after one or two entries of T change (indices taken mod dim A)."""
    A, T = involution_cases()[case]
    T = edited_columns(A, T, edits)
    assert validate_algebra_involution(A, T) == \
        validate_algebra_involution_by_definition(A, T)


def test_broken_module_action_is_caught():
    doc = load("S3")
    A, std = doc.algebra, doc.modules["std"]
    assert validate_module(A, std) == []
    # S3's generators are b_1 and b_3; b_0 is the unit, b_4 neither
    assert A.generators == (1, 3)
    for broken in (1, 4, 0):
        mats = list(dense_action(std))
        rows = [list(r) for r in mats[broken].rows]
        rows[0][0] = rows[0][0] + 1
        mats[broken] = Matrix(A.tag, rows)
        V = module_of("std", mats)
        bad = validate_module(A, V)
        assert bad
        assert bad == module_violations_by_full_loop(A, V), broken


@functools.lru_cache(maxsize=None)
def module_cases():
    """(A, V) by name: every module of every builtin document."""
    cases = {}
    for name in builtin_names():
        doc = load(name)
        for mname, V in doc.modules.items():
            cases[name + ":" + mname] = (doc.algebra, V)
    return cases


ACTION_EDITS = st.tuples(st.integers(0, 15), st.integers(0, 3),
                         st.integers(0, 3),
                         st.sampled_from((F(-1), F(0), F(1), F(2), F(1, 2))))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(module_cases())),
       st.lists(ACTION_EDITS, min_size=1, max_size=2))
@example("S3:std", [(0, 0, 0, F(2))])
@example("Q8:twodim", [(0, 1, 0, F(1)), (3, 0, 1, F(-1))])
def test_validate_module_matches_the_full_loop(case, edits):
    """The sparse checker and the dense reference list the same violations
    after one or two cells of any action matrix change, the unit's
    included (indices taken mod their ranges)."""
    A, V = module_cases()[case]
    mats = list(dense_action(V))
    for k, r, c, value in edits:
        k %= A.dim
        rows = [list(row) for row in mats[k].rows]
        rows[r % V.dim][c % V.dim] = A.tag.coerce(value)
        mats[k] = Matrix(A.tag, rows)
    V = module_of(V.name, mats)
    assert validate_module(A, V) == module_violations_by_full_loop(A, V)


def test_involution_validation():
    ct = cyclic_table(3)
    A = group_algebra(ct, RATIONAL)
    inv = group_involution(ct, [0, 2, 1], RATIONAL)
    assert validate_algebra_involution(A, inv) == []
    # swapping the identity with a generator is not an algebra map
    T = [{1: rat(1)}, {0: rat(1)}, {2: rat(1)}]
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
    """S4 over Q: nu of the regular module is #{g : g^2 = 1} = 10, on the
    definition and the separability routes."""
    ct = s4_table()
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
            rg = to_matrix(V.tag, V.of_vector(doc.algebra.g))
            flip = transpose(rg) * transpose(m)
            assert flip == scale(m, rep.nu)
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
    assert span_contains_invertible(
        A.tag, sparse_vectors(hom_space(A, std, dstd)), std.dim)
    ddstd = dual_module(A, dstd)
    assert span_contains_invertible(
        A.tag, sparse_vectors(hom_space(A, std, ddstd)), std.dim)


def assert_forms_are_invariant(A, At, V):
    """Each form M satisfies R(b)^T M = M R(S_t(b)), checked by products."""
    forms = invariant_form_space(At, V).forms
    for i in range(A.dim):
        left = transpose(to_matrix(A.tag, V.action[i]))
        right = to_matrix(A.tag,
                          V.of_vector(sparse(apply_S(At, basis_vector(A, i)))))
        for M in forms:
            assert left * M == M * right, (V.name, i)
    assert len(forms) == len(hom_space(At, V, dual_module(At, V)))
    if forms:
        assert rank(sparse_rows(Matrix(A.tag, [M.vec() for M in forms]))) \
            == len(forms)
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
    S = [sparse((P * transpose(e) * pinv).vec()) for e in units]
    A = PivotalAlgebra(
        tag=RATIONAL, dim=4, labels=("e11", "e12", "e21", "e22"), mult=mult,
        unit=sparse(Matrix.identity(RATIONAL, 2).vec()), S=S,
        g=sparse((P * transpose(pinv)).vec()))
    assert validate_pivotal(A) == []
    V = module_of("natural", units)
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


def test_transposition_with_trivial_g_transposes_each_regular_form():
    # R(g) = I: each image M^T is an index permutation of the form M
    for name in ("S3", "Q8"):
        A = load(name).algebra
        V = regular_module(A)
        ident = Matrix.identity(A.tag, V.dim)
        assert to_matrix(A.tag, V.of_vector(A.g)) == ident
        forms = invariant_form_space(A, V).forms
        sparse = [[(j, x) for j, x in enumerate(f.vec()) if x] for f in forms]
        op = _transposition(A.tag, from_matrix(ident), sparse)
        for k, f in enumerate(forms):
            image = Matrix.from_sparse(A.tag, V.dim, V.dim, [])
            for i, M in enumerate(forms):
                image = add(image, scale(M, op[k].get(i, A.tag.zero())))
            assert image == transpose(f), (name, k)


def transposition_by_solves(A, basis):
    """Reference: each column solved for in the span of the forms."""
    rg_t = transpose(to_matrix(A.tag, basis.module.of_vector(A.g)))
    span = [f.vec() for f in basis.forms]
    cols = [solve_in_span(A.tag, span, (rg_t * transpose(f)).vec())
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
        e = Matrix.from_sparse(tag, b.nrows, a.nrows, [(ij, tag.one())])
        cols.append(difference(b * e, e * a).vec())
    return Matrix(tag, list(zip(*cols)))


def hom_space_by_full_basis(A, V, W):
    """Reference: the stacked constraints of every basis element of A."""
    stacked = Matrix(A.tag, [r for a, b in zip(dense_action(V),
                                               dense_action(W))
                             for r in constraint_by_definition(a, b).rows])
    return [Matrix.from_sparse(A.tag, W.dim, V.dim, v)
            for v in kernel_basis(sparse_rows(stacked))]


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
            to_matrix(A.tag,
                      V.of_vector(sparse(apply_S(A, basis_vector(A, i))))),
            transpose(to_matrix(A.tag, V.action[i]))).rows])
    return [Matrix.from_sparse(A.tag, V.dim, V.dim, v)
            for v in kernel_basis(sparse_rows(stacked))]


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
        assert rep.self_dual == \
            span_contains_invertible_by_dense_grams(At.tag, forms), key
        nu = trace(transposition_by_solves(At, FormBasis(V, forms)))
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
    span = span_canonical([dense_element(A, A.unit)])
    while True:
        grown = span_canonical(span + [
            p for w in span for g in gens
            for p in (multiply(A, w, basis_vector(A, g)),
                      multiply(A, basis_vector(A, g), w))])
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


def test_generator_closure_matches_the_reference():
    """The incremental closure picks what eliminating the whole span again
    at every step picks."""
    algebras = {name: load(name).algebra for name in builtin_names()}
    algebras["T2(Q)"] = upper_triangular()
    algebras["T3(Q)"] = upper_triangular_3()
    for n in (8, 16, 32):
        algebras["dual(kC%d)" % n] = _dual_of_kc(n)
    for name, A in algebras.items():
        expected = generators_by_closure(A)
        assert A.generators == expected, name
        assert dataclasses.replace(A, generators=None).generators == \
            expected, name
    for n in (8, 16, 32):
        assert len(algebras["dual(kC%d)" % n].generators) == n - 1
    assert algebras["T3(Q)"].generators == (0, 1, 3, 4)


@pytest.fixture
def transpositions(monkeypatch):
    """The sparse columns of every transposition the core builds."""
    ops = []
    build = fsind.pivotal._transposition

    def recorded(tag, rg, forms):
        ops.append(build(tag, rg, forms))
        return ops[-1]

    monkeypatch.setattr(fsind.pivotal, "_transposition", recorded)
    return ops


def test_eigenspace_dimensions_read_off_nu_match_the_ranks(transpositions):
    """dim+- from nu and dim_bil against m - rank(op -+ I) by elimination,
    on every builtin (module, twist) pair and on qsl2 2l = 0..10, twisted
    or not."""
    reports = [((name, tau, V.name), At.tag, fs_indicator(At, V))
               for name, tau, At, V in builtin_pairs()]
    reports += [(("qsl2", two_ell, twisted), RATIONAL_FUNCTION,
                 qsl2_indicator(two_ell, twisted=twisted, max_two_ell=10))
                for two_ell in range(11) for twisted in (False, True)]
    assert len(transpositions) == len(reports) >= 84
    for (key, tag, rep), op in zip(reports, transpositions):
        assert len(op) == rep.dim_bil, key
        assert (rep.dim_plus, rep.dim_minus) == \
            eigenspace_dimensions_by_rank(tag, op), key


def test_a_transposition_that_is_not_an_involution_is_rejected():
    # R(g) = 2 on a line scales its one form by 2: nu would read 2 with
    # dim_bil 1, and no dim+- could add up to it
    with pytest.raises(ValidationError,
                       match="^transposition is not an involution$"):
        indicator_from_presentation(RATIONAL, [[{0: 1}]], [[{0: 1}]],
                                    [{0: 2}])


def test_transposition_outside_the_span_is_rejected():
    # with g = 1 the image of E12 is E21, which E12 alone does not span
    doc = load("S3")
    o, z = rat(1), rat(0)
    e12 = Matrix(RATIONAL, [[z, o], [z, z]])
    with pytest.raises(ValidationError, match="^transposed form outside"
                       " the form span$"):
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
    assert At.S == twisted_S_by_dense_product(A, T) and At.g == A.g
    assert At.generators == A.generators


def test_twisted_columns_match_the_dense_product():
    """S o tau composed column by column against the dense product S T, on
    every builtin with the identity and with each named involution, and on
    an unchecked T that does not commute with S, where the order of the
    composition shows."""
    cases = dict(involution_cases())
    A = load("C3").algebra
    cases["C3:rotation"] = (A, [{1: rat(1)}, {2: rat(1)}, {0: rat(1)}])
    for case, (A, T) in cases.items():
        assert twist_algebra(A, T).S == twisted_S_by_dense_product(A, T), case


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

    def spans(*mats):
        return span_contains_invertible(RATIONAL, sparse_vectors(mats), 2)

    assert spans(a, b)
    assert not spans(a)
    assert not spans()
    # rank-one spans never contain an invertible element
    c = Matrix(RATIONAL, [[rat(0), rat(1)], [rat(0), rat(0)]])
    assert not spans(a, c)


def test_span_invertibility_reads_up_to_the_first_invertible(monkeypatch):
    """The forms are ranked on their sparse rows only up to the first of
    full rank, and none is made dense; without one, every form is ranked
    and only the pencil's sums are made dense."""
    a = Matrix(RATIONAL, [[rat(1), rat(0)], [rat(0), rat(0)]])
    b = Matrix(RATIONAL, [[rat(0), rat(0)], [rat(0), rat(1)]])
    ranked, dense = [], []
    original_rank, from_sparse = pivotal.rank, Matrix.from_sparse

    def counted_rank(rows):
        ranked.append(rows.rows)
        return original_rank(rows)

    def counted_from_sparse(*args):
        dense.append(args)
        return from_sparse(*args)

    monkeypatch.setattr(pivotal, "rank", counted_rank)
    monkeypatch.setattr(Matrix, "from_sparse",
                        staticmethod(counted_from_sparse))
    assert span_contains_invertible(
        RATIONAL, sparse_vectors([a, add(a, b), b, a]), 2)
    assert ranked == [[[(0, rat(1))], []], [[(0, rat(1))], [(1, rat(1))]]]
    assert dense == []
    ranked.clear()
    assert span_contains_invertible(RATIONAL, sparse_vectors([a, b]), 2)
    assert len(ranked) == 2
    assert dense == [(RATIONAL, 2, 2, [(0, rat(1)), (3, rat(1))])]


def span_values(tag):
    one = tag.one()
    if tag is RATIONAL:
        return [one, -one, tag.coerce(2), tag.coerce(F(1, 2))]
    z = tag.generator()
    return [one, -one, z, one + z]


@st.composite
def form_spans(draw):
    """(tag, d x d matrices) over Q or Q(z_4): 1-3 random matrices with
    mostly zero cells; or with a common zero column, so that the pencil's
    determinant vanishes identically; or x1 E11 + x2 (E12 + E21) + x3 E22
    (padded by x1 at the other diagonal cells), whose determinant is a
    multiple of x1 x3 - x2^2 and so vanishes on the pencil's curve but not
    on the span. The last two are mixed by random invertible P, Q as
    P F Q."""
    tag = draw(st.sampled_from((RATIONAL, cyclotomic_field(4))))
    d = draw(st.integers(1, 3))
    z, one = tag.zero(), tag.one()
    cell = st.sampled_from([z] * 4 + span_values(tag))
    kind = draw(st.sampled_from(("random", "zero column", "curve")))
    if kind == "curve" and d >= 2:
        def unit(*cells):
            return Matrix(tag, [[one if (r, c) in cells else z
                                 for c in range(d)] for r in range(d)])
        rest = [(k, k) for k in range(2, d)]
        mats = [unit((0, 0), *rest), unit((0, 1), (1, 0)), unit((1, 1))]
    else:
        mats = [Matrix(tag, draw(st.lists(
            st.lists(cell, min_size=d, max_size=d), min_size=d, max_size=d)))
            for _ in range(draw(st.integers(1, 3)))]
        if kind == "zero column":
            mats = [Matrix(tag, [r[:-1] + [z] for r in m.rows]) for m in mats]
    if kind != "random":
        def invertible():
            m = Matrix.identity(tag, d)
            for _ in range(d):
                r, c = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
                if r != c:
                    rows = [list(x) for x in m.rows]
                    rows[r][c] = draw(st.sampled_from(span_values(tag)))
                    m = Matrix(tag, rows) * m
            return m
        p, q = invertible(), invertible()
        mats = [p * m * q for m in mats]
    return tag, mats


def rational_matrix(*rows):
    return Matrix(RATIONAL, [[rat(x) for x in r] for r in rows])


@settings(max_examples=150, deadline=None)
@given(form_spans())
@example((RATIONAL, [rational_matrix((1, 0), (0, 0)),
                     rational_matrix((0, 1), (1, 0)),
                     rational_matrix((0, 0), (0, 1))]))
@example((RATIONAL, [rational_matrix((0, 0), (1, 0)),
                     rational_matrix((-1, -1), (-1, -1)),
                     rational_matrix((0, 0), (-1, 0))]))
def test_span_invertibility_matches_the_dense_grams(case):
    """Ranking sparse rows and densifying only the pencil's sums gives the
    answer of the dense Gram test, pencil's curve misses included. The
    examples: x1 x3 - x2^2, which the curve misses, and a span whose
    pencil is singular at t = 1 but not at t = 2."""
    tag, mats = case
    assert span_contains_invertible(tag, sparse_vectors(mats), mats[0].nrows) \
        == span_contains_invertible_by_dense_grams(tag, mats)
