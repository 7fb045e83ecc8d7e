"""Permutation modules k[G/H] against counts on the Cayley table.

For a permutation module kX the invariant forms and End(V) are spanned by
the orbital matrices of G on X x X, and kernel_intersection finds them by
merging cells, without elimination. Every expected value here is counted on
the group's Cayley table alone, never by the library's solver or routes:

- end_dim = dim_bil = the number of orbitals of G on X x X;
- nu = (1/|G|) sum_g #{x : g^2 x = x}, the number of self-paired orbitals;
- twisted by a group involution tau, nu_tau = (1/|G|) sum_g
  #{x : g tau(g) x = x};
- self_dual holds (the diagonal orbital is the identity form), and
  abs_simple only for |X| = 1.
"""

import collections
import dataclasses
import itertools
import sys

import pytest

from fsind import linalg, pivotal
from fsind.constructors import (
    CayleyTable,
    builtin_document,
    builtin_names,
    group_algebra,
)
from fsind.documents import document_from_dict
from fsind.formulas import fs_via_separability, hopf_integral_idempotent
from fsind.pivotal import (
    ModuleRep,
    ValidationError,
    fs_indicator,
    regular_module,
    twist_algebra,
    validate_module,
)
from fsind.qsl2 import qsl2_indicator
from fsind.scalars import RATIONAL
from small_algebras import (
    module_violations_by_sparse_products,
    s4_table,
    symmetric_group_table,
)


def groups():
    """{name: (Cayley table, group algebra with the builtin involutions)}
    for each builtin group and S4."""
    out = {}
    for name in builtin_names():
        raw = builtin_document(name)
        if "group" in raw:
            ct = CayleyTable(tuple(tuple(r) for r in raw["group"]["table"]))
            out[name] = (ct, document_from_dict(raw).algebra)
    ct = s4_table()
    out["S4"] = (ct, group_algebra(ct, RATIONAL))
    return out


def subgroup(ct, gens):
    t = ct.table
    sub, grown = {ct.identity()}, set(gens)
    while not grown <= sub:
        sub |= grown
        grown = {t[h][g] for h in sub for g in gens}
    return frozenset(sub)


def subgroups_up_to_conjugacy(ct):
    """One subgroup per conjugacy class of those that at most 2 elements
    generate."""
    t, n = ct.table, ct.order
    inverse = [ct.inverse(g) for g in range(n)]
    seen, reps = set(), []
    for a, b in itertools.combinations_with_replacement(range(n), 2):
        H = subgroup(ct, (a, b))
        if H not in seen:
            reps.append(H)
            seen.update(frozenset(t[t[g][h]][inverse[g]] for h in H)
                        for g in range(n))
    return reps


def coset_action(ct, H):
    """act[g][x] = the index of g x among the left cosets x of H."""
    t, n = ct.table, ct.order
    cosets = sorted({frozenset(t[g][h] for h in H) for g in range(n)}, key=min)
    index = {g: k for k, coset in enumerate(cosets) for g in coset}
    return [[index[t[g][min(coset)]] for coset in cosets] for g in range(n)]


def permutation_module(A, act):
    """k[G/H]: R(g) sends the basis vector of x to that of g x, as sparse
    rows {column: value}."""
    one, m = A.tag.one(), len(act[0])
    action = []
    for images in act:
        rows = [None] * m
        for x, gx in enumerate(images):
            rows[gx] = {x: one}
        action.append(rows)
    return ModuleRep("k[G/H]", m, tuple(action), A.tag)


def orbital_count(act):
    m = len(act[0])
    seen, count = set(), 0
    for x, y in itertools.product(range(m), repeat=2):
        if (x, y) not in seen:
            count += 1
            seen.update((images[x], images[y]) for images in act)
    return count


def twisted_fixed_point_mean(ct, act, tau):
    """(1/|G|) sum_g #{x : g tau(g) x = x}."""
    t, n = ct.table, ct.order
    total = sum(act[t[g][tau[g]]][x] == x
                for g in range(n) for x in range(len(act[0])))
    assert total % n == 0
    return total // n


def twists(A):
    """(name, twisted algebra, tau as a permutation of the elements), the
    untwisted algebra first."""
    out = [(None, A, list(range(A.dim)))]
    for name, T in A.involutions.items():
        tau = [i for col in T for i in col]
        out.append((name, twist_algebra(A, T), tau))
    return out


# (|X|, orbitals, nu) for each subgroup class, sorted, per group and twist:
# the oracle's values, pinned so that a change to it shows.
PINNED = {
    ("C2", None): [(1, 1, 1), (2, 2, 2)],
    ("C3", None): [(1, 1, 1), (3, 3, 1)],
    ("C3-inv", None): [(1, 1, 1), (3, 3, 1)],
    ("C3-inv", "inv"): [(1, 1, 1), (3, 3, 3)],
    ("C4", None): [(1, 1, 1), (2, 2, 2), (4, 4, 2)],
    ("C4", "inv"): [(1, 1, 1), (2, 2, 2), (4, 4, 4)],
    ("C6", None): [(1, 1, 1), (2, 2, 2), (3, 3, 1), (6, 6, 2)],
    ("S3", None): [(1, 1, 1), (2, 2, 2), (3, 2, 2), (6, 6, 4)],
    ("D4", None): [(1, 1, 1), (2, 2, 2), (2, 2, 2), (2, 2, 2), (4, 3, 3),
                   (4, 3, 3), (4, 4, 4), (8, 8, 6)],
    ("Q8", None): [(1, 1, 1), (2, 2, 2), (2, 2, 2), (2, 2, 2), (4, 4, 4),
                   (8, 8, 2)],
    ("S4", None): [(1, 1, 1), (2, 2, 2), (3, 2, 2), (4, 2, 2), (6, 3, 3),
                   (6, 3, 3), (6, 6, 4), (8, 4, 4), (12, 7, 5), (12, 8, 6),
                   (24, 24, 10)],
}


@pytest.mark.parametrize("name", sorted(groups()))
def test_permutation_modules_match_the_cayley_table_counts(name):
    ct, A = groups()[name]
    E = hopf_integral_idempotent(A)
    for twist, At, tau in twists(A):
        counted = []
        for H in subgroups_up_to_conjugacy(ct):
            act = coset_action(ct, H)
            V = permutation_module(A, act)
            orbitals = orbital_count(act)
            nu = twisted_fixed_point_mean(ct, act, tau)
            counted.append((V.dim, orbitals, nu))
            rep = fs_indicator(At, V)
            assert rep.nu == A.tag.coerce(nu), (twist, V.dim)
            assert rep.dim_bil == rep.end_dim == orbitals, (twist, V.dim)
            assert rep.dim_plus - rep.dim_minus == nu
            assert rep.self_dual and rep.abs_simple == (V.dim == 1)
            assert fs_via_separability(At, V, E) == rep.nu
        assert sorted(counted) == PINNED[(name, twist)]


def test_s5_regular_module():
    """nu of S5's regular module is #{g : g^2 = 1} = 26 on the definition
    and the separability routes."""
    ct = symmetric_group_table(5)
    A = group_algebra(ct, RATIONAL)
    V = regular_module(A)
    rep = fs_indicator(A, V)
    involutions = sum(ct.table[g][g] == ct.identity() for g in range(ct.order))
    assert involutions == 26 and rep.nu == 26
    assert rep.dim_bil == rep.end_dim == 120
    assert fs_via_separability(A, V, hopf_integral_idempotent(A)) == rep.nu


@pytest.fixture
def elimination_calls(monkeypatch):
    """Counts of the kernel_basis and _insert_row calls made inside
    kernel_intersection, by name."""
    calls, depth = collections.Counter(), [0]

    def counted(name, f):
        def wrapper(*args, **kwargs):
            if depth[0]:
                calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    def solver(f):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return f(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for attr in ("kernel_basis", "_insert_row"):
        monkeypatch.setattr(linalg, attr, counted(attr, getattr(linalg, attr)))
    original = linalg.kernel_intersection
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "fsind" and \
                getattr(mod, "kernel_intersection", None) is original:
            monkeypatch.setattr(mod, "kernel_intersection", solver(original))
    return calls


def test_permutation_actions_reach_no_elimination(elimination_calls):
    """fs_indicator on the regular module and every k[G/H] above, twisted or
    not, merges cells only; a monomial action that is not a permutation
    (Q8's 2-dim simple over Q(i)) and qsl2 still eliminate."""
    for ct, A in groups().values():
        for _, At, _ in twists(A):
            fs_indicator(At, regular_module(At))
            for H in subgroups_up_to_conjugacy(ct):
                fs_indicator(At, permutation_module(At, coset_action(ct, H)))
    assert elimination_calls == {}
    doc = document_from_dict(builtin_document("Q8"))
    fs_indicator(doc.algebra, doc.modules["twodim"])
    assert elimination_calls["kernel_basis"] > 0
    assert elimination_calls["_insert_row"] > 0
    elimination_calls.clear()
    qsl2_indicator(3)
    assert elimination_calls["kernel_basis"] > 0
    assert elimination_calls["_insert_row"] > 0


def test_one_permutation_test_per_end_constraint(monkeypatch):
    """fs_indicator on a regular module tests R(g) once for the
    transposition, R(S(b)) and R(b)^T once for each form constraint, and
    R(b) once for each End(V) constraint, whose two sides it is: 3 |gens| + 1
    calls to linalg._permutation, twisted or not."""
    calls = collections.Counter()
    original = linalg._permutation

    def counted(m, one):
        calls["_permutation"] += 1
        return original(m, one)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "fsind" and \
                getattr(mod, "_permutation", None) is original:
            monkeypatch.setattr(mod, "_permutation", counted)
    for ct, A in groups().values():
        for _, At, _ in twists(A):
            V = regular_module(At)
            calls.clear()
            fs_indicator(At, V)
            assert calls["_permutation"] == 3 * len(At.generators) + 1


# --- validate_module: index maps against the sparse product -------------------

def permutation_modules(ct, A):
    """The regular module and every k[G/H] above, by name."""
    out = {"reg": regular_module(A)}
    for H in subgroups_up_to_conjugacy(ct):
        V = permutation_module(A, coset_action(ct, H))
        out["k[G/H] %d" % V.dim] = V
    return out


def builtin_modules():
    """(A, V) for every module of every builtin document."""
    for name in builtin_names():
        doc = document_from_dict(builtin_document(name))
        for V in doc.modules.values():
            yield doc.algebra, V


def test_index_path_matches_the_sparse_products_on_clean_modules():
    """Every builtin module and every permutation module above passes both
    checks; the permutation modules by index maps alone."""
    for A, V in builtin_modules():
        assert validate_module(A, V) == \
            module_violations_by_sparse_products(A, V) == [], V.name
    for name, (ct, A) in groups().items():
        for key, V in permutation_modules(ct, A).items():
            assert validate_module(A, V) == \
                module_violations_by_sparse_products(A, V) == [], (name, key)


def mutants(V, k):
    """(kind, V with R(b_k) changed): its row 0 moved to the next column,
    its rows 0 and 1 swapped (still a permutation matrix), and its entry in
    row 0 set to -1."""
    action = V.action
    (c, x), = action[k][0].items()
    m, rows = V.dim, action[k]
    moved = [{(c + 1) % m: x}] + rows[1:]
    swapped = [rows[1], rows[0]] + rows[2:]
    negated = [{c: -x}] + rows[1:]
    for kind, new in (("moved", moved), ("swapped", swapped),
                      ("negated", negated)):
        yield kind, ModuleRep(V.name, m, tuple(
            new if i == k else r for i, r in enumerate(action)), V.tag)


def test_index_path_matches_the_sparse_products_on_mutants():
    """Both checks list the same violations, whether the changed matrix is
    still a permutation or not. A moved or negated row always breaks the
    action; swapped rows may give an action again (C2's swap becomes the
    identity), but most do not. The builtin groups only, to keep the full
    loops small."""
    broken = collections.Counter()
    for name, (ct, A) in groups().items():
        if name == "S4":
            continue
        for key, V in permutation_modules(ct, A).items():
            if V.dim < 2:
                continue
            for k in {0, A.generators[-1], A.dim - 1}:
                for kind, W in mutants(V, k):
                    bad = validate_module(A, W)
                    assert bad == module_violations_by_sparse_products(A, W), \
                        (name, key, k, kind)
                    assert bad or kind == "swapped", (name, key, k, kind)
                    broken[kind, bool(bad)] += 1
    assert broken["swapped", True] > broken["swapped", False] > 0


def test_index_path_needs_a_unit_structure_constant():
    """A structure constant b_i b_j = c b_k with c != 1 takes the sparse
    product, and both checks name the same pairs."""
    for name in ("C3", "S3", "Q8"):
        ct, A = groups()[name]
        i = A.generators[0]
        (k, one), = A.mult[(i, i)]
        for c in (A.tag.coerce(2), A.tag.coerce(-1)):
            B = dataclasses.replace(A, mult={**A.mult, (i, i): ((k, c),)})
            for key, V in permutation_modules(ct, B).items():
                bad = validate_module(B, V)
                assert "module %r: action breaks at (%d, %d)" % (
                    V.name, i, i) in bad, (name, key)
                assert bad == module_violations_by_sparse_products(B, V)


# --- the transposition by index -----------------------------------------------

def outcome(f, *args):
    """f(*args), or the violations of the ValidationError it raised."""
    try:
        return f(*args)
    except ValidationError as e:
        return e.violations


def general_outcome(monkeypatch, tag, rg, forms):
    """The outcome of pivotal._transposition with the index path off."""
    with monkeypatch.context() as m:
        m.setattr(pivotal, "_class_columns", lambda *args: None)
        return outcome(pivotal._transposition, tag, rg, forms)


def module_twist_pairs():
    """(key, At, V, whether V is a permutation module of a group) for each
    builtin (module, twist) pair, the regular module included, and for each
    k[G/H] above under each twist."""
    for name in builtin_names():
        doc = document_from_dict(builtin_document(name))
        A = doc.algebra
        for tau, T in [(None, None)] + list(A.involutions.items()):
            At = twist_algebra(A, T)
            for V in doc.modules.values():
                yield (name, tau, V.name), At, V, False
            yield (name, tau, "reg"), At, regular_module(At), \
                doc.kind == "group"
    for name, (ct, A) in groups().items():
        for tau, At, _ in twists(A):
            for key, V in permutation_modules(ct, At).items():
                yield (name, tau, key), At, V, True


def forms_of(At, V):
    """(R(g), its permutation or None, the canonical form basis), as
    fs_indicator computes them."""
    rg = V.of_vector(At.g)
    forms = pivotal._forms(At.tag, *pivotal._presentation(At, V), V.dim)
    return rg, linalg._permutation(rg, At.tag.one()), forms


def test_transposition_by_index_matches_the_general_path(monkeypatch):
    """On every pair whose R(g) is a permutation, the columns are those of
    the general path. Every regular module and k[G/H] takes the index
    path, and so does every 1-dimensional builtin module."""
    taken = collections.Counter()
    for key, At, V, permutation_module in module_twist_pairs():
        rg, pg, forms = forms_of(At, V)
        if pg is None:
            continue
        general = general_outcome(monkeypatch, At.tag, rg, forms)
        by_index = pivotal._class_columns(pg, forms, At.tag.one())
        taken[by_index is not None] += 1
        if permutation_module or V.dim == 1:
            assert by_index is not None, key
        assert by_index in (None, general), key
        assert pivotal._transposition(At.tag, rg, forms) == general, key
    # the general path: S3's std, Q8's twodim and the two schemes' regular
    # modules, whose forms are not classes
    assert taken == {True: 107, False: 4}


def reshaped(forms, kind):
    """forms, still union-find classes, changed by kind: the last cell of
    the last class of two or more cells moved to the next class, that
    class split in two, or the last class dropped."""
    k = max(i for i, v in enumerate(forms) if len(v) > 1)
    out = [list(v) for v in forms]
    if kind == "moved":
        nxt = (k + 1) % len(out)
        out[nxt] = sorted(out[nxt] + [out[k].pop()])
    elif kind == "split":
        out[k:k + 1] = [out[k][:1], out[k][1:]]
    else:
        out.pop()
    return sorted(out)


def test_transposition_by_index_matches_the_general_path_on_reshaped_classes(
        monkeypatch):
    """Reshaped classes still take the index path, and both paths give the
    same columns or the same ValidationError."""
    raised = collections.Counter()
    for name, (ct, A) in groups().items():
        if name == "S4":
            continue
        for tau, At, _ in twists(A):
            for key, V in permutation_modules(ct, At).items():
                rg, pg, forms = forms_of(At, V)
                if all(len(v) == 1 for v in forms):
                    continue
                for kind in ("moved", "split", "dropped"):
                    mutant = reshaped(forms, kind)
                    got = outcome(pivotal._class_columns, pg, mutant,
                                  At.tag.one())
                    assert got is not None
                    assert got == general_outcome(
                        monkeypatch, At.tag, rg, mutant), (name, tau, key)
                    raised[kind, isinstance(got[0], str)] += 1
    # a moved cell always breaks the span; a split class keeps it when its
    # two pieces are each other's transposes (cells (0, 1) and (1, 0) when
    # d = 2), and a dropped class when only itself maps into it
    assert raised == {("moved", True): 30, ("split", True): 22,
                      ("split", False): 8, ("dropped", True): 11,
                      ("dropped", False): 19}


@pytest.mark.parametrize("classes, pg", [
    # cells 0..3 of a 2 x 2 matrix; with R(g) = I the transpose swaps 1, 2
    ([[0], [1], [2, 3]], [0, 1]),   # {1} sent into a class of another size
    ([[0], [1, 3], [2]], [0, 1]),   # {1, 3} split across two classes
    ([[0, 1], [2], [3]], [0, 1]),   # sizes 2 + 1 against an image of 2
    ([[0], [1]], [0, 1]),           # {1} sent to a cell in no class
    ([[0], [1, 2], [3]], [1, 0]),   # R(g) swaps the basis: {0} goes to {2}
])
def test_transposition_by_index_rejects_an_image_outside_the_span(
        monkeypatch, classes, pg):
    one = RATIONAL.one()
    forms = [[(j, one) for j in v] for v in classes]
    rg = [{c: one} for c in pg]
    with pytest.raises(ValidationError,
                       match="transposed form outside the form span"):
        pivotal._class_columns(pg, forms, one)
    assert general_outcome(monkeypatch, RATIONAL, rg, forms) == \
        ["transposed form outside the form span"]
