"""Separability, symmetric-form, Doi, and antipode-trace cross-checks."""

import collections
import dataclasses
import functools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fsind.constructors import (
    CayleyTable,
    builtin_document,
    builtin_names,
    cyclic_table,
    d4_table,
    group_algebra,
    perm_columns,
    q8_table,
    s3_table,
    scheme_to_grouplike,
    SchemeSpec,
)
from fsind import cli, formulas
from fsind.documents import document_from_dict
from fsind.formulas import (
    DegenerateTraceForm,
    IncompleteSimplesList,
    NotAbsolutelySimple,
    NotAnIntegral,
    NotSelfDual,
    NotSeparable,
    NotSymmetric,
    SeparabilityIdempotent,
    SymmetricFormData,
    ZeroValency,
    ZeroVolumeCharacter,
    doi_grouplike_indicator,
    fs_hopf_character_formula,
    fs_regular_trace_q,
    fs_via_separability,
    fs_via_symmetric,
    hopf_integral_idempotent,
    symmetric_form_data,
    trace_S_global,
    trace_S_on_image,
    validate_separability,
)
from fsind.linalg import Matrix
from fsind.pivotal import (
    GroupLikeData,
    MissingData,
    ModuleRep,
    direct_sum,
    fs_indicator,
    pivotal_from_character,
    regular_module,
    twist_algebra,
    validate_module,
    validate_pivotal,
)
from fsind.scalars import RATIONAL
from small_algebras import (
    casimir_sum,
    dense_element,
    dual_numbers,
    integral_idempotent_by_full_loop,
    module_of,
    multiply,
    sparse_element,
    symmetric_form_data_by_products,
    symmetric_group_table,
    upper_triangular,
    upper_triangular_natural,
    validate_separability_by_definition,
)

F = Fraction

GROUP_DOCS = ("C2", "C3", "C4", "C6", "S3", "D4", "Q8")


def load(name):
    return document_from_dict(builtin_document(name), name=name)


def count_square_roots(ct):
    """#{x : x^2 = e} straight off the Cayley table."""
    e = ct.identity()
    return sum(1 for i in range(ct.order) if ct.table[i][i] == e)


# --- separability route -------------------------------------------------------

def test_hand_built_idempotent_for_c2():
    A = group_algebra(cyclic_table(2), RATIONAL)
    h = F(1, 2)
    E = SeparabilityIdempotent([({0: h}, {0: F(1)}), ({1: h}, {1: F(1)})])
    assert validate_separability(A, E) == []
    bad = SeparabilityIdempotent([({0: F(1)}, {0: F(1)})])
    assert validate_separability(A, bad)


def test_integral_idempotent_c2_terms():
    A = group_algebra(cyclic_table(2), RATIONAL)
    E = hopf_integral_idempotent(A)
    h = F(1, 2)
    assert E.terms == [({0: h}, {0: F(1)}), ({1: h}, {1: F(1)})]


def test_integral_idempotent_validates_everywhere():
    for name in GROUP_DOCS:
        A = load(name).algebra
        E = hopf_integral_idempotent(A)
        assert validate_separability(A, E) == []


def test_non_integrals_are_rejected():
    A = group_algebra(cyclic_table(2), RATIONAL)
    with pytest.raises(NotAnIntegral):
        hopf_integral_idempotent(dataclasses.replace(A, integral={0: F(2)}))
    with pytest.raises(NotAnIntegral):
        hopf_integral_idempotent(dataclasses.replace(A, integral={0: F(1)}))
    with pytest.raises(MissingData):
        hopf_integral_idempotent(dataclasses.replace(A, integral=None))


def group_algebras():
    """Every builtin group algebra, with its involutions, and S4 and S5."""
    out = {name: load(name).algebra for name in builtin_names()
           if "group" in builtin_document(name)}
    for n in (4, 5):
        out["S%d" % n] = group_algebra(symmetric_group_table(n), RATIONAL)
    return out


def test_constructor_idempotent_matches_the_full_check():
    """group_algebra hands over E = (1/n) sum_g g^-1 (x) g: the same terms,
    in the same order, as the integral and separability checks build, and
    returned with no check at all."""
    for name, A in group_algebras().items():
        E = hopf_integral_idempotent(A)
        assert hopf_integral_idempotent(A) is E, name
        assert E.terms == hopf_integral_idempotent(
            dataclasses.replace(A)).terms, name
        assert E.terms == integral_idempotent_by_full_loop(A).terms, name


@pytest.fixture
def separability_checks(monkeypatch):
    """The number of formulas.validate_separability calls, as a list."""
    calls = [0]
    original = formulas.validate_separability

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(formulas, "validate_separability", counted)
    return calls


def test_edited_algebras_take_the_full_check(separability_checks):
    """The handed-over E is read only on the algebra group_algebra built:
    replace(), a twist, an integral or counit assigned in place and a
    document's top-level integral, counit or comult all run the check."""
    doc = builtin_document("C3-inv")
    A = load("C3-inv").algebra
    E = hopf_integral_idempotent(A)
    assert separability_checks == [0]
    edited = [dataclasses.replace(A, integral=dict(A.integral)),
              dataclasses.replace(A, counit=tuple(A.counit)),
              dataclasses.replace(A, comult=dict(A.comult))]
    for key, value in (("integral", ["1/3"] * 3), ("counit", ["1"] * 3)):
        raw = dict(doc, **{key: value})
        if key == "counit":
            raw["comult"] = [[k, k, k, "1"] for k in range(3)]
        edited.append(document_from_dict(raw).algebra)
    in_place = load("C3-inv").algebra
    in_place.integral = dict(in_place.integral)
    edited.append(in_place)
    for k, B in enumerate(edited, 1):
        assert hopf_integral_idempotent(B).terms == E.terms
        assert separability_checks == [k]
    # S o tau = id on kC3: E = (1/3) sum g (x) g is not separable
    with pytest.raises(NotSeparable):
        hopf_integral_idempotent(twist_algebra(A, A.involutions["inv"]))
    assert separability_checks == [len(edited) + 1]
    raw = dict(doc, integral=["1", "0", "0"])
    with pytest.raises(NotAnIntegral):
        hopf_integral_idempotent(document_from_dict(raw).algebra)


def relabelled_group_algebras(seeds=(1, 2, 3)):
    """The group algebras above but S5, each under a seeded relabelling of
    its elements."""
    out = {}
    for seed in seeds:
        rng = random.Random(seed)
        for name, A in group_algebras().items():
            if A.dim > 24:
                continue
            perm = list(range(A.dim))
            rng.shuffle(perm)
            table = [[0] * A.dim for _ in range(A.dim)]
            for (i, j), ((k, _),) in A.mult.items():
                table[perm[i]][perm[j]] = perm[k]
            out["%s/%d" % (name, seed)] = group_algebra(
                CayleyTable(tuple(map(tuple, table))), A.tag)
    return out


HANDOVER_KEYS = ("_separability_idempotent", "_separability_element",
                 "_symmetric_form_data")


@pytest.fixture
def general_work(monkeypatch):
    """Calls of the Gram elimination (formulas._pivots) and of the general
    separability element (formulas._casimir_element), by name."""
    calls = collections.Counter()
    for name in ("_pivots", "_casimir_element"):
        def counted(*args, _name=name, _f=getattr(formulas, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(formulas, name, counted)
    return calls


def test_handed_over_data_match_the_general_work(general_work):
    """On every group algebra and relabelling, the handed-over dual basis
    and volume are those of the Gram elimination on replace(A), and the
    handed-over element is sum S(u) g v over the terms of E; reading them
    runs neither."""
    algebras = {**group_algebras(), **relabelled_group_algebras()}
    assert len(algebras) == 10 + 3 * 9
    for name, A in algebras.items():
        data, E = symmetric_form_data(A), hopf_integral_idempotent(A)
        element = formulas._separability_element(A, E)
        assert symmetric_form_data(A) is data, name
        assert general_work == {}, name
        assert data == symmetric_form_data(dataclasses.replace(A)), name
        assert element == formulas._casimir_element(A, E.terms), name
        assert general_work == {"_pivots": 1, "_casimir_element": 1}, name
        general_work.clear()


def test_rebuilt_algebras_never_read_the_handover(general_work):
    """A twist, replace(), fields assigned in place and a document's
    top-level trace_form or integral all build the symmetric data and the
    separability element afresh, and the values are those of the sums."""
    doc = builtin_document("C3-inv")
    A = load("C3-inv").algebra
    V = load("C3-inv").modules["chi1"]
    E = hopf_integral_idempotent(A)
    At = twist_algebra(A, A.involutions["inv"])
    assert fs_via_separability(At, V, E) == A.tag.one()
    assert general_work == {"_casimir_element": 1}
    general_work.clear()
    in_place = {}
    for field, copy in (("S", list), ("g", dict),
                        ("trace_form", lambda phi: tuple(list(phi)))):
        B = in_place[field] = load("C3-inv").algebra
        setattr(B, field, copy(getattr(B, field)))  # equal, not the same
    # what each rebuilt algebra no longer reads
    cases = [
        (dataclasses.replace(A), HANDOVER_KEYS),
        (in_place["S"], HANDOVER_KEYS[:2]),
        (in_place["g"], HANDOVER_KEYS[1:2]),
        (in_place["trace_form"], HANDOVER_KEYS[2:]),
        (document_from_dict(dict(doc, trace_form=["1", "0", "0"])).algebra,
         HANDOVER_KEYS),
        (document_from_dict(dict(doc, integral=["1/3"] * 3)).algebra,
         HANDOVER_KEYS),
    ]
    chi = V.character_on_basis
    for k, (B, dropped) in enumerate(cases):
        assert tuple(key for key in HANDOVER_KEYS
                     if formulas._handed_over(B, key) is None) == dropped, k
        assert symmetric_form_data(B) == symmetric_form_data_by_products(B)
        for source in (E, hopf_integral_idempotent(B)):
            assert fs_via_separability(B, V, source) == \
                casimir_sum(B, chi, source.terms), k
        # A's E is never B's, so its element is always built
        assert general_work == collections.Counter({
            "_pivots": "_symmetric_form_data" in dropped,
            "_casimir_element": 1 + ("_separability_element" in dropped)}), k
        general_work.clear()


def idempotent_outcome(build, A):
    """The terms of build(A), or the type and message of what it raised."""
    try:
        return build(A).terms
    except (NotAnIntegral, NotSeparable) as e:
        return type(e), str(e)


INTEGRAL_EDITS = st.tuples(st.sampled_from(("integral", "counit")),
                           st.integers(0, 7),
                           st.sampled_from((F(-1), F(0), F(1), F(2), F(1, 2))))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(GROUP_DOCS), st.lists(INTEGRAL_EDITS, min_size=1,
                                             max_size=2))
# eps(Lambda) = 1 and b_1, the one generator, passes; eps is not
# multiplicative, and b_2 is where the integral fails
@example("C4", [("counit", 2, F(0)), ("counit", 3, F(2))])
def test_integral_check_on_generators_matches_the_full_loop(name, edits):
    """After one or two entries of the integral or the counit change (index
    taken mod dim), the check on generators gives the same E, or raises the
    same exception with the same message, as the check on every basis
    element."""
    A = load(name).algebra
    fields = {"integral": list(dense_element(A, A.integral)),
              "counit": list(A.counit)}
    for field, k, value in edits:
        fields[field][k % A.dim] = A.tag.coerce(value)
    A = dataclasses.replace(A, integral=sparse_element(fields["integral"]),
                            counit=tuple(fields["counit"]))
    assert idempotent_outcome(hopf_integral_idempotent, A) == \
        idempotent_outcome(integral_idempotent_by_full_loop, A)


@functools.lru_cache(maxsize=None)
def integral_idempotent(name):
    A = load(name).algebra
    return A, hopf_integral_idempotent(A)


E_EDITS = st.tuples(st.integers(0, 7), st.sampled_from((0, 1)),
                    st.integers(0, 7),
                    st.sampled_from((F(-1), F(0), F(1), F(2), F(1, 2))))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(GROUP_DOCS + ("C3-inv",)),
       st.lists(E_EDITS, min_size=1, max_size=2))
def test_validate_separability_matches_the_definition(name, edits):
    """The sparse checker and the dense reference list the same violations
    after one or two coordinates of a leg of E change (term and coordinate
    indices taken mod their ranges)."""
    A, E = integral_idempotent(name)
    terms = [list(term) for term in E.terms]
    for t, leg, k, value in edits:
        term = terms[t % len(terms)]
        vec = list(dense_element(A, term[leg]))
        vec[k % A.dim] = A.tag.coerce(value)
        term[leg] = sparse_element(vec)
    E = SeparabilityIdempotent([tuple(term) for term in terms])
    assert validate_separability(A, E) == \
        validate_separability_by_definition(A, E)


def test_separability_route_matches_definition():
    for name in GROUP_DOCS:
        doc = load(name)
        A = doc.algebra
        E = hopf_integral_idempotent(A)
        for V in list(doc.modules.values()) + [regular_module(A)]:
            assert fs_via_separability(A, V, E) == fs_indicator(A, V).nu, \
                (name, V.name)


def test_separability_route_twisted():
    doc = load("C3-inv")
    A = doc.algebra
    E = hopf_integral_idempotent(A)
    chi1 = doc.modules["chi1"]
    At = twist_algebra(A, A.involutions["inv"])
    assert fs_via_separability(At, chi1, E) == A.tag.one()
    assert fs_via_separability(A, chi1, E) == A.tag.zero()


# --- symmetric route ----------------------------------------------------------

def test_symmetric_form_data_s3():
    A = load("S3").algebra
    data = symmetric_form_data(A)
    # phi = coefficient of the identity, so the Gram matrix is the
    # permutation matrix of inversion and b_i-dual is the inverse element
    ct = s3_table()
    n = A.dim
    for i in range(n):
        inv = next(j for j in range(n) if ct.table[i][j] == ct.identity())
        assert data.dual_basis[i] == {inv: A.tag.one()}
    six = A.tag.coerce(6)
    assert data.volume == {k: six * x for k, x in A.unit.items()}


def test_volume_is_central_for_every_builtin_trace_form():
    # symmetric_form_data does not check this: associativity implies it
    for name in builtin_names():
        A = load(name).algebra
        if A.trace_form is None:
            continue
        v = dense_element(A, symmetric_form_data(A).volume)
        for i in range(A.dim):
            b = dense_element(A, {i: A.tag.one()})
            assert multiply(A, v, b) == multiply(A, b, v), (name, i)


def test_symmetric_route_frozen_values():
    cases = (("S3", "std", 1, 3), ("Q8", "twodim", -1, 4), ("C3", "chi1", 0, 3))
    for name, mod, nu, schur in cases:
        doc = load(name)
        A = doc.algebra
        out = fs_via_symmetric(A, doc.modules[mod])
        assert out.nu == A.tag.coerce(nu), (name, mod)
        assert out.schur == A.tag.coerce(schur), (name, mod)


def test_symmetric_route_flags_non_simple_modules():
    A = load("S3").algebra
    with pytest.raises(NotAbsolutelySimple):
        fs_via_symmetric(A, regular_module(A))


def test_trace_form_validation():
    A = load("S3").algebra
    skew = tuple(A.tag.one() if i == 1 else A.tag.zero()
                 for i in range(A.dim))
    with pytest.raises(NotSymmetric):
        symmetric_form_data(dataclasses.replace(A, trace_form=skew))
    B = group_algebra(cyclic_table(2), RATIONAL)
    with pytest.raises(DegenerateTraceForm):
        symmetric_form_data(dataclasses.replace(B, trace_form=(F(1), F(1))))
    with pytest.raises(MissingData):
        symmetric_form_data(dataclasses.replace(B, trace_form=None))


def test_symmetric_form_data_matches_the_dense_products():
    algebras = [load(name).algebra for name in builtin_names()]
    for A in algebras + [dual_numbers()]:
        if A.trace_form is not None:
            assert symmetric_form_data(A) == \
                symmetric_form_data_by_products(A), A.name


def symmetric_outcome(build, A):
    """build(A), or the type and message of what it raised."""
    try:
        return build(A)
    except (NotSymmetric, DegenerateTraceForm) as e:
        return type(e), str(e)


@functools.lru_cache(maxsize=None)
def trace_form_algebras():
    algebras = {name: load(name).algebra for name in builtin_names()}
    algebras["k[x]/(x^2)"] = dual_numbers()
    return {name: A for name, A in algebras.items()
            if A.trace_form is not None}


TRACE_FORM_EDITS = st.tuples(st.integers(0, 7),
                             st.sampled_from((F(-1), F(0), F(1), F(2))))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(trace_form_algebras())),
       st.lists(TRACE_FORM_EDITS, min_size=1, max_size=2))
@example("S3", [(1, F(1))])   # phi(r) = 1: phi(ab) != phi(ba)
@example("C2", [(1, F(1))])   # phi = eps: the Gram matrix has rank 1
def test_trace_form_edits_match_the_dense_products(name, edits):
    """After one or two entries of the trace form change (index taken mod
    dim), the elimination on sparse rows gives the same dual basis and
    volume as the dense inverse, or raises the same exception with the
    same message."""
    A = trace_form_algebras()[name]
    phi = list(A.trace_form)
    for k, value in edits:
        phi[k % A.dim] = A.tag.coerce(value)
    A = dataclasses.replace(A, trace_form=tuple(phi))
    assert symmetric_outcome(symmetric_form_data, A) == \
        symmetric_outcome(symmetric_form_data_by_products, A)


def test_zero_volume_character():
    A = dual_numbers()
    assert validate_pivotal(A) == []
    triv = module_of("triv", [Matrix(RATIONAL, [[F(1)]]),
                              Matrix(RATIONAL, [[F(0)]])])
    assert validate_module(A, triv) == []
    data = symmetric_form_data(A)
    two_x = {1: F(2)}
    assert data.volume == two_x
    with pytest.raises(ZeroVolumeCharacter):
        fs_via_symmetric(A, triv, data)


# --- one indicator element per twisted algebra ---------------------------------

@pytest.fixture
def builds(monkeypatch):
    """Counts the elements each route builds, by route name."""
    counts = collections.Counter()
    element = formulas._element

    def counting(A, route, source, build):
        def counted():
            counts[route] += 1
            return build()
        return element(A, route, source, counted)

    monkeypatch.setattr(formulas, "_element", counting)
    return counts


@pytest.mark.parametrize("name, expected", [
    # 5 modules, no twist: 10 cells would build 10 elements
    ("Q8", {"separability": 1, "symmetric": 1}),
    # 4 modules, 2 twists
    ("C4", {"separability": 2, "symmetric": 2}),
    # 3 modules; no integral
    ("scheme-C4-cycle", {"symmetric": 1, "doi": 1}),
])
def test_table_builds_one_element_per_route_and_twist(
        name, expected, builds, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(builtin_document(name)))
    assert cli.main(["table", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["discrepancy"] is False
    assert builds == expected


def test_table_computes_each_character_once(monkeypatch, tmp_path, capsys):
    """chi_V on the basis is computed once per module of Q8, though the
    separability and symmetric routes and Trace(S) all read it."""
    calls = collections.Counter()
    body = ModuleRep.character_on_basis.func

    def counted(V):
        calls[V.name] += 1
        return body(V)

    prop = functools.cached_property(counted)
    prop.__set_name__(ModuleRep, "character_on_basis")
    monkeypatch.setattr(ModuleRep, "character_on_basis", prop)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(builtin_document("Q8")))
    assert cli.main(["table", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["discrepancy"] is False
    assert calls == {name: 1 for name in
                     ("triv", "chi-i", "chi-j", "chi-k", "twodim")}


def test_doi_builds_one_element_per_twist_for_any_number_of_characters(
        builds):
    A = load("S3-grouplike").algebra
    for T in [None] + list(A.involutions.values()):
        At = twist_algebra(A, T)
        for chi in (A.grouplike.eps, (1,) * A.dim):
            doi_grouplike_indicator(At, chi, 1)
    assert builds == {"doi": 2}


def test_an_equal_but_fresh_source_rebuilds_the_element(builds):
    A = load("C3").algebra
    V = load("C3").modules["chi1"]
    E, data = hopf_integral_idempotent(A), symmetric_form_data(A)
    for source in (E, E, SeparabilityIdempotent(list(E.terms)), E):
        fs_via_separability(A, V, source)
    for source in (data, data, SymmetricFormData(list(data.dual_basis),
                                                 data.volume)):
        fs_via_symmetric(A, V, source)
    assert builds == {"separability": 3, "symmetric": 2}
    B = k3_algebra()
    doi_grouplike_indicator(B, (1, -1), 1)
    B.grouplike = GroupLikeData(B.grouplike.star, B.grouplike.eps)
    doi_grouplike_indicator(B, (1, -1), 1)
    doi_grouplike_indicator(B, (1, 2), 1)
    assert builds["doi"] == 2


def test_replaced_and_twisted_algebras_start_without_elements(builds):
    doc = load("C3-inv")
    A, V = doc.algebra, doc.modules["chi1"]
    E = hopf_integral_idempotent(A)
    fs_via_separability(A, V, E)
    for B in (twist_algebra(A, A.involutions["inv"]),
              dataclasses.replace(A), dataclasses.replace(A, name="B")):
        assert "_indicator_elements" not in vars(B)
        fs_via_separability(B, V, E)
    assert builds == {"separability": 4}
    assert dataclasses.replace(A) == A


def dual_basis_reference(A, At, chi, dim, dual_basis):
    """(nu, schur) of the dual-basis route over At for one character, its
    element built afresh and the volume by dense products."""
    one, z = A.tag.one(), A.tag.zero()
    volume = [z] * A.dim
    for i, w in enumerate(dual_basis):
        volume = [x + y for x, y in zip(volume, multiply(
            A, dense_element(A, {i: one}), dense_element(A, w)))]
    chi_vol = sum((c * x for c, x in zip(chi, volume)), z)
    d = A.tag.coerce(dim)
    w = casimir_sum(At, chi, [({i: one}, u)
                              for i, u in enumerate(dual_basis)])
    return d / chi_vol * w, chi_vol / (d * d)


def test_cached_elements_match_the_sums_built_per_module():
    """Every builtin module under every twist, each route called twice (the
    second time on its kept element), against the sum built afresh."""
    for name in builtin_names():
        doc = load(name)
        A = doc.algebra
        E = hopf_integral_idempotent(A) if A.integral is not None else None
        data = symmetric_form_data(A) if A.trace_form is not None else None
        doi_dual = [{j: A.tag.one() / e} for j, e in
                    zip(A.grouplike.star, A.grouplike.eps)
                    ] if A.grouplike is not None else None
        for T in [None] + list(A.involutions.values()):
            At = twist_algebra(A, T)
            for V in doc.modules.values():
                chi, where = V.character_on_basis, (name, T, V.name)
                if E is not None:
                    expected = casimir_sum(At, chi, E.terms)
                    for _ in range(2):
                        assert fs_via_separability(At, V, E) == expected, where
                if data is not None and not fs_indicator(At, V).abs_simple:
                    with pytest.raises(NotAbsolutelySimple):
                        fs_via_symmetric(At, V, data)
                elif data is not None:
                    expected = dual_basis_reference(
                        A, At, chi, V.dim,
                        symmetric_form_data_by_products(A).dual_basis)
                    for _ in range(2):
                        out = fs_via_symmetric(At, V, data)
                        assert (out.nu, out.schur) == expected, where
                if doi_dual is not None:
                    expected, _ = dual_basis_reference(A, At, chi, V.dim,
                                                       doi_dual)
                    for _ in range(2):
                        assert doi_grouplike_indicator(At, chi, V.dim) == \
                            expected, where


# --- antipode traces ----------------------------------------------------------

def test_regular_trace_q_counts_square_roots():
    tables = {"C2": cyclic_table(2), "C3": cyclic_table(3),
              "C4": cyclic_table(4), "C6": cyclic_table(6),
              "S3": s3_table(), "D4": d4_table(), "Q8": q8_table()}
    expected = {"C2": 2, "C3": 1, "C4": 2, "C6": 2,
                "S3": 4, "D4": 6, "Q8": 2}
    for name in GROUP_DOCS:
        A = load(name).algebra
        count = count_square_roots(tables[name])
        assert count == expected[name]
        assert fs_regular_trace_q(A) == A.tag.coerce(count)


def test_regular_trace_q_twisted():
    A = load("C3-inv").algebra
    # tau is inversion, so every basis element satisfies S(tau(x)) g = x
    At = twist_algebra(A, A.involutions["inv"])
    assert fs_regular_trace_q(At) == A.tag.coerce(3)
    assert fs_regular_trace_q(A) == A.tag.one()


def test_trace_s_on_image_frozen_values():
    s3 = load("S3")
    assert trace_S_on_image(s3.algebra, s3.modules["std"]) == \
        (s3.algebra.tag.coerce(2), s3.algebra.tag.coerce(2))
    q8 = load("Q8")
    m2 = q8.algebra.tag.coerce(-2)
    assert trace_S_on_image(q8.algebra, q8.modules["twodim"]) == (m2, m2)
    c3 = load("C3-inv")
    one = c3.algebra.tag.one()
    c3t = twist_algebra(c3.algebra, c3.algebra.involutions["inv"])
    assert trace_S_on_image(c3t, c3.modules["chi1"]) == (one, one)


def test_trace_s_on_image_preconditions():
    c3 = load("C3")
    with pytest.raises(NotSelfDual):
        trace_S_on_image(c3.algebra, c3.modules["chi1"])
    s3 = load("S3")
    with pytest.raises(NotAbsolutelySimple):
        trace_S_on_image(s3.algebra, regular_module(s3.algebra))


def test_trace_s_on_image_counts_the_pivots_of_the_action_half():
    # chi1 + chi2 over C6: the R(b_i) span 2 of the 4 dimensions of End(V),
    # and with the R(S(b_i)), whose characters chi5 and chi4 differ from
    # both, the rows reach rank 4 = d^2 all the same
    c6 = load("C6")
    V = direct_sum(c6.modules["chi1"], c6.modules["chi2"])
    with pytest.raises(NotAbsolutelySimple):
        trace_S_on_image(c6.algebra, V)


def test_trace_s_on_image_refuses_a_non_simple_module_with_trivial_end():
    # End(V) = Q, but the action spans only the upper triangular matrices:
    # V is not simple, and S has no trace on End(V) to report
    A, V = upper_triangular(), upper_triangular_natural()
    assert validate_pivotal(A) == [] and validate_module(A, V) == []
    with pytest.raises(NotAbsolutelySimple):
        trace_S_on_image(A, V)


def test_routes_do_not_call_the_definition_solver():
    for name in ("fs_indicator", "hom_space", "kernel_intersection",
                 "solve_in_span"):
        assert not hasattr(formulas, name), name


def test_trace_s_global():
    for name, lhs in (("S3", 4), ("D4", 6), ("Q8", 2)):
        doc = load(name)
        A = doc.algebra
        simples = list(doc.modules.values())
        check = trace_S_global(A, simples,
                               [fs_indicator(A, V).nu for V in simples])
        assert check.lhs == A.tag.coerce(lhs)
        assert check.equal
        assert len(check.per_module) == len(doc.modules)


def test_trace_s_global_needs_complete_list():
    doc = load("S3")
    with pytest.raises(IncompleteSimplesList):
        trace_S_global(doc.algebra, [doc.modules["triv"], doc.modules["sign"]],
                       [1, 1])


# --- Doi's valency formula ------------------------------------------------------

def k3_algebra():
    spec = SchemeSpec(size=3, rank=2,
                      relations=((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    return scheme_to_grouplike(spec, RATIONAL)


def test_doi_on_the_complete_graph():
    A = k3_algebra()
    assert doi_grouplike_indicator(A, (1, 2), 1) == RATIONAL.one()
    assert doi_grouplike_indicator(A, (1, -1), 1) == RATIONAL.one()
    # the identity permutation is the trivial twist
    At = twist_algebra(A, perm_columns(RATIONAL, (0, 1)))
    assert doi_grouplike_indicator(At, (1, -1), 1) == RATIONAL.one()


def test_doi_preconditions():
    A = k3_algebra()
    with pytest.raises(MissingData):
        doi_grouplike_indicator(dataclasses.replace(A, grouplike=None),
                                (1, -1), 1)
    broken = GroupLikeData(star=A.grouplike.star, eps=(F(1), F(0)))
    with pytest.raises(ZeroValency):
        doi_grouplike_indicator(dataclasses.replace(A, grouplike=broken),
                                (1, -1), 1)
    # chi(vol) = 2 + x/2 vanishes at x = -4
    with pytest.raises(ZeroVolumeCharacter):
        doi_grouplike_indicator(A, (1, -4), 1)


# --- twisting by a central character ---------------------------------------------

def test_character_formula_matches_definition():
    doc = load("S3")
    A = doc.algebra
    sign = tuple(A.tag.coerce(x) for x in (1, 1, 1, -1, -1, -1))
    At = pivotal_from_character(A, sign)
    for V in doc.modules.values():
        assert fs_hopf_character_formula(A, V, sign) == fs_indicator(At, V).nu
        assert fs_hopf_character_formula(A, V, A.counit) == \
            fs_indicator(A, V).nu


def test_character_formula_needs_hopf_data():
    A = k3_algebra()
    triv = module_of("triv", [Matrix(RATIONAL, [[F(1)]]),
                              Matrix(RATIONAL, [[F(2)]])])
    with pytest.raises(MissingData):
        fs_hopf_character_formula(A, triv, (1, 1))
