"""Group tables, schemes, copivotal coalgebras, and the builtin catalog."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fsind.constructors import (
    CayleyTable,
    InvalidCayleyTable,
    NotAScheme,
    NotAutomorphism,
    NotInvolutive,
    NotSchemeInvolution,
    SchemeFormatError,
    SchemeSpec,
    builtin_description,
    builtin_document,
    builtin_names,
    coalgebra_regular_indicator,
    coalgebra_regular_module,
    cyclic_table,
    d4_table,
    dualize_coalgebra,
    group_algebra,
    group_involution,
    group_like_coalgebra,
    parse_scheme_text,
    perm_columns,
    q8_table,
    s3_table,
    scheme_intersection_numbers,
    scheme_involution,
    scheme_standard_module,
    scheme_to_grouplike,
    validate_cayley_table,
)
from fsind.documents import document_from_dict
from fsind.formulas import fs_regular_trace_q
from fsind.pivotal import (
    fs_indicator,
    validate_algebra_involution,
    validate_module,
    validate_pivotal,
)
from fsind.scalars import RATIONAL

from fsind.linalg import Matrix
from small_algebras import (cayley_violations_by_full_loop, columns_to_matrix,
                            dense_element, primitive_coalgebra, s4_table,
                            trace)

F = Fraction

K3_TEXT = "3 2\n0 1 1\n1 0 1\n1 1 0\n"


def k3_spec():
    return SchemeSpec(size=3, rank=2,
                      relations=((0, 1, 1), (1, 0, 1), (1, 1, 0)))


# --- Cayley tables ------------------------------------------------------------

def test_concrete_tables_are_groups():
    for ct, order in ((cyclic_table(6), 6), (s3_table(), 6),
                      (d4_table(), 8), (q8_table(), 8)):
        assert ct.order == order
        assert validate_cayley_table(ct) == []


def builtin_tables():
    """The Cayley table of every builtin group, and S4's."""
    tables = {"S4": s4_table()}
    for name in builtin_names():
        raw = builtin_document(name)
        if "group" in raw:
            tables[name] = CayleyTable(tuple(tuple(r)
                                             for r in raw["group"]["table"]))
    return tables


def single_cell_mutations(ct, values):
    """ct with one cell (i, j) set to v != table[i][j], over every cell and
    the v that values(i, j) yields."""
    for i, j in itertools.product(range(ct.order), repeat=2):
        for v in values(i, j):
            if v != ct.table[i][j]:
                rows = [list(r) for r in ct.table]
                rows[i][j] = v
                yield CayleyTable(tuple(tuple(r) for r in rows))


@pytest.mark.parametrize("name", sorted(builtin_tables()))
def test_light_associativity_test_matches_the_full_loop(name):
    """Every value in every cell of a builtin table; in each cell of S4's,
    the entry plus 1 and plus 7 mod 24. The mutations that keep a two-sided
    identity reach the associativity check, which fails on some of them
    (no single-cell mutation of C2's table is nonassociative)."""
    ct = builtin_tables()[name]
    n = ct.order
    if n > 8:
        def values(i, j):
            return ((ct.table[i][j] + 1) % n, (ct.table[i][j] + 7) % n)
    else:
        def values(i, j):
            return range(n)
    failures = 0
    for mutated in single_cell_mutations(ct, values):
        bad = validate_cayley_table(mutated)
        assert bad == cayley_violations_by_full_loop(mutated)
        failures += any(v.startswith("associativity") for v in bad)
    assert failures or n == 2


def test_light_associativity_test_reads_every_generator():
    """C2 x L, L the nonassociative loop of order 5, with (c, l) at index
    c + 2l: generators() picks the C2 generator first, which associates
    with everything, so only a later generator shows the failure."""
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    ct = CayleyTable(tuple(tuple((i ^ j) % 2 + 2 * loop[i // 2][j // 2]
                                 for j in range(10)) for i in range(10)))
    t, first = ct.table, ct.generators()[0]
    assert all(t[t[x][first]][y] == t[x][t[first][y]]
               for x in range(10) for y in range(10))
    bad = validate_cayley_table(ct)
    assert bad == cayley_violations_by_full_loop(ct)
    assert bad and bad[-1].startswith("associativity fails")


def test_quaternion_multiplication():
    # ordering 1, -1, i, -i, j, -j, k, -k
    ct = q8_table()
    assert ct.table[2][4] == 6       # i j = k
    assert ct.table[4][2] == 7       # j i = -k
    assert ct.table[2][2] == 1       # i^2 = -1
    assert ct.inverse(2) == 3
    assert ct.identity() == 0


def test_broken_tables_are_reported():
    assert validate_cayley_table(CayleyTable(((0, 1), (1, 1))))
    assert validate_cayley_table(CayleyTable(((0, 1, 2), (1, 2, 0), (2, 1, 0))))
    assert validate_cayley_table(CayleyTable(((0, 1), (1,))))
    assert validate_cayley_table(CayleyTable(((0, 7), (7, 0))))
    with pytest.raises(InvalidCayleyTable):
        group_algebra(CayleyTable(((0, 1), (1, 1))), RATIONAL)


def test_group_algebra_carries_hopf_data():
    A = group_algebra(s3_table(), RATIONAL)
    assert A.dim == 6
    assert A.counit == (F(1),) * 6
    assert A.integral == {i: F(1, 6) for i in range(6)}
    assert A.trace_form == dense_element(A, A.unit)
    assert A.g == A.unit
    assert A.comult[3] == ((3, 3, F(1)),)
    assert validate_pivotal(A) == []


def test_group_involutions():
    ct = cyclic_table(4)
    T = group_involution(ct, [0, 3, 2, 1], RATIONAL)
    assert T == perm_columns(RATIONAL, [0, 3, 2, 1]) \
        == [{0: F(1)}, {3: F(1)}, {2: F(1)}, {1: F(1)}]
    # column j is b_perm[j], which a perm of order 3 tells from its inverse
    assert perm_columns(RATIONAL, [1, 2, 0]) == \
        [{1: F(1)}, {2: F(1)}, {0: F(1)}]
    with pytest.raises(NotAutomorphism):
        group_involution(ct, [0, 0, 1, 2], RATIONAL)
    with pytest.raises(NotInvolutive):
        group_involution(ct, [0, 2, 3, 1], RATIONAL)
    with pytest.raises(NotAutomorphism):
        group_involution(ct, [0, 1, 3, 2], RATIONAL)


# --- schemes -------------------------------------------------------------------

def test_parse_scheme_text():
    spec = parse_scheme_text(K3_TEXT)
    assert spec == k3_spec()


def test_parse_scheme_text_rejections():
    for text in ("", "3\n", "a b\n", "0 2\n", "3 2\n0 1 1\n1 0 1\n",
                 "3 2\n0 1\n1 0 1\n1 1 0\n", "3 2\n0 1 x\n1 0 1\n1 1 0\n",
                 "3 2\n0 1 5\n1 0 1\n1 1 0\n"):
        with pytest.raises(SchemeFormatError):
            parse_scheme_text(text)


def test_k3_intersection_numbers():
    star, val, p = scheme_intersection_numbers(k3_spec())
    assert star == (0, 1)
    assert val == (1, 2)
    assert p[1][1][0] == 2 and p[1][1][1] == 1


def test_path_graph_is_not_a_scheme():
    spec = SchemeSpec(size=3, rank=3,
                      relations=((0, 1, 2), (1, 0, 1), (2, 1, 0)))
    with pytest.raises(NotAScheme):
        scheme_intersection_numbers(spec)


def test_scheme_algebra_is_pivotal_and_grouplike():
    A = scheme_to_grouplike(k3_spec(), RATIONAL)
    assert validate_pivotal(A) == []
    assert A.grouplike.star == (0, 1)
    assert A.grouplike.eps == (F(1), F(2))
    std = scheme_standard_module(k3_spec(), RATIONAL)
    assert validate_module(A, std) == []


def c4_cycle_spec():
    rel = tuple(tuple(min((x - y) % 4, (y - x) % 4) for y in range(4))
                for x in range(4))
    return SchemeSpec(size=4, rank=3, relations=rel)


def test_scheme_axioms_imply_the_doi_conditions():
    # scheme_to_grouplike does not check these: the relation axioms imply them
    specs = [thin_scheme(t()) for t in (s3_table, d4_table, q8_table)]
    specs += [thin_scheme(cyclic_table(n)) for n in (2, 3, 4, 6)]
    for name in builtin_names():
        raw = builtin_document(name).get("scheme")
        if raw is not None:
            rel = tuple(tuple(row) for row in raw["relations"])
            specs.append(SchemeSpec(size=raw["size"],
                                    rank=1 + max(map(max, rel)),
                                    relations=rel))
    assert len(specs) == 10
    for spec in specs:
        star, val, p = scheme_intersection_numbers(spec)
        r = spec.rank
        for i in range(r):
            assert val[i] >= 1 and val[i] == val[star[i]]
            for j in range(r):
                assert p[i][j][0] == (val[i] if star[i] == j else 0)
                for k in range(r):
                    assert p[i][j][k] == p[star[j]][star[i]][star[k]]


def test_scheme_involutions():
    A = scheme_to_grouplike(k3_spec(), RATIONAL)
    assert scheme_involution(A, [0, 1]) == [{0: F(1)}, {1: F(1)}]
    B = scheme_to_grouplike(c4_cycle_spec(), RATIONAL)
    with pytest.raises(NotSchemeInvolution):
        scheme_involution(B, [0, 2, 1])     # valency 2 vs 1
    with pytest.raises(NotInvolutive):
        scheme_involution(B, [1, 2, 0])
    with pytest.raises(NotSchemeInvolution):
        scheme_involution(B, [0, 0, 1])


# --- copivotal coalgebras --------------------------------------------------------

def test_group_like_coalgebra_validates():
    for n in (2, 3, 4):
        spec = group_like_coalgebra(cyclic_table(n), RATIONAL)
        assert validate_pivotal(dualize_coalgebra(spec)) == []


def test_coalgebra_counit_and_gamma_violations():
    # the copivotal axioms of C are the pivotal axioms of its dual
    spec = group_like_coalgebra(cyclic_table(3), RATIONAL)
    bad = validate_pivotal(dualize_coalgebra(dataclasses.replace(
        spec, counit={0: F(1), 1: F(1)})))
    assert "unit fails on the left at index 2" in bad
    bad = validate_pivotal(dualize_coalgebra(dataclasses.replace(
        spec, gamma={0: F(1), 1: F(2), 2: F(2)})))
    assert "S(g) is not the inverse of g" in bad


def test_primitive_element_coalgebra():
    one = F(1)
    spec = primitive_coalgebra()
    assert validate_pivotal(dualize_coalgebra(spec)) == []
    swapped = dataclasses.replace(
        spec, S=[{1: one}, {0: one}])
    assert any("anti-map" in v
               for v in validate_pivotal(dualize_coalgebra(swapped)))
    crooked = dataclasses.replace(
        spec, comult={0: ((0, 0, one),),
                      1: ((0, 1, one), (1, 1, one))})
    assert ("associativity fails at (1, 0, 1)"
            in validate_pivotal(dualize_coalgebra(crooked)))


def test_coalgebra_regular_indicator_is_the_trace_of_s_times_gamma():
    """Trace(c -> S(c_1) gamma(c_2)) against the dense product S G, G the
    matrix of c -> c_1 gamma(c_2), on an S that is not symmetric (entry
    (k, i) of S is the coefficient of b_k in S(b_i), not of b_i in
    S(b_k)); the axioms are not the point here."""
    spec = dataclasses.replace(primitive_coalgebra(),
                               S=[{0: F(1), 1: F(3)}, {1: F(-1)}],
                               gamma={0: F(1), 1: F(2)})
    n = spec.dim
    G = Matrix(RATIONAL, [[sum((c * spec.gamma.get(j, F(0))
                                for i2, j, c in spec.comult.get(k, ())
                                if i2 == i), F(0))
                           for k in range(n)] for i in range(n)])
    expected = trace(columns_to_matrix(RATIONAL, spec.S) * G)
    assert expected == F(6)
    assert coalgebra_regular_indicator(spec) == expected


def test_dual_of_group_like_coalgebra_is_the_function_algebra():
    expected = {2: 2, 3: 1, 4: 2}
    for n, count in expected.items():
        spec = group_like_coalgebra(cyclic_table(n), RATIONAL)
        A = dualize_coalgebra(spec)
        assert validate_pivotal(A) == []
        # pointwise multiplication of functions on the group
        assert A.mult[(1, 1)] == ((1, F(1)),)
        assert (0, 1) not in A.mult
        nu = coalgebra_regular_indicator(spec)
        assert nu == F(count)
        assert fs_regular_trace_q(A) == nu
        coreg = coalgebra_regular_module(spec)
        assert validate_module(A, coreg) == []
        assert fs_indicator(A, coreg).nu == nu


# --- builtin catalog -------------------------------------------------------------

def test_every_builtin_loads_and_validates():
    for name in builtin_names():
        assert builtin_description(name)
        doc = document_from_dict(builtin_document(name), name=name)
        assert doc.algebra.dim >= 1


def test_builtin_lookup_is_forgiving_about_case():
    assert builtin_document("q8") == builtin_document("Q8")
    with pytest.raises(KeyError):
        builtin_document("nonesuch")


def test_builtin_documents_are_fresh_copies():
    a = builtin_document("S3")
    b = builtin_document("S3")
    assert a == b and a is not b
    a["field"] = "clobbered"
    assert builtin_document("S3")["field"] != "clobbered"


# --- constructor checks imply the pivotal axioms -----------------------------------
#
# The loader runs validate_pivotal on raw algebra sections and on the duals of
# coalgebra sections; for group and scheme sections the constructor's own
# checks stand in for it. These tests hold the two to the same answer.

def test_constructed_builtins_satisfy_validate_pivotal():
    for name in builtin_names():
        doc = document_from_dict(builtin_document(name), name=name)
        assert doc.kind in ("group", "scheme", "coalgebra"), name
        assert validate_pivotal(doc.algebra) == [], name
        for tname, T in doc.algebra.involutions.items():
            assert validate_algebra_involution(doc.algebra, T) == [], \
                (name, tname)


def relabel(ct, perm):
    """The same group with element i renamed perm[i]."""
    n = ct.order
    old = [None] * n
    for i, p in enumerate(perm):
        old[p] = i
    return CayleyTable(tuple(tuple(perm[ct.table[old[i]][old[j]]]
                                   for j in range(n)) for i in range(n)))


def thin_scheme(ct):
    """Points are the elements; (x, y) lies in relation x^-1 y, e first."""
    n, e = ct.order, ct.identity()
    rel = tuple(tuple((ct.table[ct.inverse(x)][y] - e) % n for y in range(n))
                for x in range(n))
    return SchemeSpec(size=n, rank=n, relations=rel)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((s3_table, d4_table, q8_table)), st.randoms())
def test_relabelled_groups_pass_validate_pivotal(table, rnd):
    ct = table()
    perm = list(range(ct.order))
    rnd.shuffle(perm)
    ct = relabel(ct, perm)
    assert validate_cayley_table(ct) == []
    A = group_algebra(ct, RATIONAL)
    assert validate_pivotal(A) == []
    assert validate_pivotal(scheme_to_grouplike(thin_scheme(ct),
                                                RATIONAL)) == []
    assert validate_pivotal(dualize_coalgebra(
        group_like_coalgebra(ct, RATIONAL))) == []
    # the generators of A generate the group, straight off the Cayley table
    reached, frontier = {ct.identity()}, [ct.identity()]
    while frontier:
        x = frontier.pop()
        for y in (ct.table[x][g] for g in A.generators):
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    assert len(reached) == ct.order


def dihedral_table(n):
    """r^a s^b as element a + n b, with s r s = r^-1."""
    elements = [(a, b) for b in range(2) for a in range(n)]
    index = {e: i for i, e in enumerate(elements)}
    return CayleyTable(tuple(
        tuple(index[((a + (c if b == 0 else -c)) % n, (b + d) % 2)]
              for c, d in elements) for a, b in elements))



def generator_cases():
    """Cayley tables by name: the builtin groups, cyclic groups of order
    up to 12, and seeded relabellings of D5, Q8, S3 and S4."""
    cases = {}
    for name in builtin_names():
        raw = builtin_document(name)
        if "group" in raw:
            cases[name] = CayleyTable(tuple(tuple(r)
                                            for r in raw["group"]["table"]))
    for n in range(1, 13):
        cases["cyclic(%d)" % n] = cyclic_table(n)
    for name, table in (("D5", dihedral_table(5)), ("Q8", q8_table()),
                        ("S3", s3_table()), ("S4", s4_table())):
        for seed in range(4):
            perm = list(range(table.order))
            random.Random(seed).shuffle(perm)
            cases["%s/%d" % (name, seed)] = relabel(table, perm)
    return cases


@pytest.mark.parametrize("name", sorted(generator_cases()))
def test_group_generators_are_those_of_the_linear_closure(name):
    """Every constraint system, and so every report, rests on this."""
    A = group_algebra(generator_cases()[name], RATIONAL)
    assert A.generators == dataclasses.replace(A, generators=None).generators
