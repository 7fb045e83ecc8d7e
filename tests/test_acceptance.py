"""Acceptance gate: one test per shipped guarantee, all at exact equality.

Each test prints a single summary line, so a verbose run reads as a
checklist. Expected values are recomputed independently here (counts
straight off Cayley tables, hand-frozen constants) rather than trusting
any library route under test.
"""

import json
import random
import time
from fractions import Fraction

from fsind.cli import main
from fsind.constructors import (
    builtin_document,
    builtin_names,
    coalgebra_regular_indicator,
    coalgebra_regular_module,
    cyclic_table,
    dualize_coalgebra,
    group_like_coalgebra,
)
from fsind.documents import document_from_dict
from fsind.formulas import (
    doi_grouplike_indicator,
    fs_hopf_character_formula,
    fs_regular_trace_q,
    fs_via_separability,
    fs_via_symmetric,
    hopf_integral_idempotent,
    symmetric_form_data,
    trace_S_global,
    trace_S_on_image,
)
from fsind.linalg import Matrix, rank
from fsind.pivotal import (
    direct_sum,
    fs_indicator,
    invariant_form_space,
    pivotal_from_character,
    regular_module,
    transposition_on_forms,
    twist_algebra,
)
from fsind.qsl2 import qsl2_indicator
from fsind.scalars import RATIONAL, RATIONAL_FUNCTION
from small_algebras import (conjugate_module, scale, sparse_rows, to_matrix,
                            transpose)

GROUP_DOCS = ("C2", "C3", "C4", "C6", "S3", "D4", "Q8")
SCHEME_DOCS = ("scheme-K3", "scheme-C4-cycle", "S3-grouplike")


def load(name):
    return document_from_dict(builtin_document(name), name=name)


def all_module_docs():
    for name in GROUP_DOCS + SCHEME_DOCS:
        doc = load(name)
        if doc.modules:
            yield name, doc


def test_criterion_01_quantum_sl2_sweep():
    start = time.monotonic()
    for two_ell in range(9):
        t0 = time.monotonic()
        want = RATIONAL_FUNCTION.coerce(1 if two_ell % 2 == 0 else -1)
        assert qsl2_indicator(two_ell).nu == want
        assert qsl2_indicator(two_ell, twisted=True).nu \
            == RATIONAL_FUNCTION.one()
        assert time.monotonic() - t0 < 60.0
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print("criterion 1 PASS: qsl2 sweep 0..8 gives (-1)^(2l) untwisted and"
          " +1 twisted (%.1fs)" % elapsed)


def test_criterion_02_regular_count():
    for name in GROUP_DOCS:
        table = builtin_document(name)["group"]["table"]
        n = len(table)
        e = next(i for i in range(n)
                 if all(table[i][j] == j for j in range(n)))
        count = sum(1 for i in range(n) if table[i][i] == e)
        A = load(name).algebra
        assert fs_regular_trace_q(A) == A.tag.coerce(count), name
    print("criterion 2 PASS: regular-module indicator counts square roots"
          " of 1 in all seven groups")


def test_criterion_03_oracle_triangle():
    for name in GROUP_DOCS:
        doc = load(name)
        A = doc.algebra
        E = hopf_integral_idempotent(A)
        data = symmetric_form_data(A)
        for V in doc.modules.values():
            by_def = fs_indicator(A, V).nu
            assert by_def == fs_via_separability(A, V, E), (name, V.name)
            assert by_def == fs_via_symmetric(A, V, data).nu, (name, V.name)
            if name == "Q8" and V.name == "twodim":
                assert by_def == A.tag.coerce(-1)
    # scheme algebras carry no integral; there the third independent
    # route is the valency-weighted sum
    for name in SCHEME_DOCS:
        doc = load(name)
        A = doc.algebra
        data = symmetric_form_data(A)
        for V in doc.modules.values():
            rep = fs_indicator(A, V)
            if rep.end_dim != 1:
                continue
            assert rep.nu == fs_via_symmetric(A, V, data).nu, (name, V.name)
            assert rep.nu == doi_grouplike_indicator(
                A, V.character_on_basis, V.dim), (name, V.name)
    print("criterion 3 PASS: definition, separability, and dual-basis"
          " routes agree on every builtin simple (Q8 twodim = -1)")


def test_criterion_04_trichotomy_and_canonical_form():
    for name, doc in all_module_docs():
        A = doc.algebra
        for V in doc.modules.values():
            rep = fs_indicator(A, V)
            if not rep.abs_simple:
                continue
            assert rep.nu in (A.tag.zero(), A.tag.one(), A.tag.coerce(-1))
            assert (rep.nu != A.tag.zero()) == rep.self_dual, (name, V.name)
            if rep.nu != A.tag.zero():
                m = rep.canonical_form
                assert m is not None and rank(sparse_rows(m)) == V.dim, \
                    (name, V.name)
                rg = to_matrix(A.tag, V.of_vector(A.g))
                flip = transpose(rg) * transpose(m)
                assert flip == scale(m, rep.nu), (name, V.name)
    print("criterion 4 PASS: trichotomy, self-duality, and the sign"
          " identity R(g)^T M^T = nu M hold on every abs simple builtin")


def test_criterion_05_global_trace_identity():
    for name in ("S3", "D4", "Q8"):
        doc = load(name)
        simples = [doc.modules[n] for n in doc.simples]
        chk = trace_S_global(doc.algebra, simples,
                             [fs_indicator(doc.algebra, V).nu
                              for V in simples])
        assert chk.equal, name
    print("criterion 5 PASS: Trace(S) equals sum of nu(V) chi_V(g) over"
          " the complete simples of S3, D4, Q8")


def test_criterion_06_trace_on_image():
    checked = 0
    for name, doc in all_module_docs():
        A = doc.algebra
        for V in doc.modules.values():
            rep = fs_indicator(A, V)
            if not (rep.abs_simple and rep.self_dual):
                continue
            ts, tq = trace_S_on_image(A, V)
            assert ts == rep.nu * V.character(A.g), (name, V.name)
            assert tq == rep.nu * A.tag.coerce(V.dim), (name, V.name)
            checked += 1
    assert checked == 25
    print("criterion 6 PASS: Trace(S_V) = nu chi_V(g) and Trace(Q_V) ="
          " nu dim V on all %d self-dual abs simple builtins" % checked)


def random_unimodular(tag, n, rng):
    """Product of three integer shears and a permutation."""
    if n == 1:
        return Matrix(tag, [[tag.coerce(rng.choice((-2, -1, 1, 2)))]])
    P = Matrix.identity(tag, n)
    for _ in range(3):
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        shear = Matrix.identity(tag, n)
        shear.rows[i][j] = tag.coerce(rng.choice((-2, -1, 1, 2)))
        P = P * shear
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[tag.one() if perm[a] == b else tag.zero() for b in range(n)]
            for a in range(n)]
    return P * Matrix(tag, rows)


def test_criterion_07_property_suites():
    # additivity under block direct sums
    for name in GROUP_DOCS:
        doc = load(name)
        A = doc.algebra
        mods = list(doc.modules.values())
        nus = {V.name: fs_indicator(A, V).nu for V in mods}
        for V in mods:
            for W in mods:
                both = fs_indicator(A, direct_sum(V, W)).nu
                assert both == nus[V.name] + nus[W.name], (name, V.name,
                                                           W.name)

    # base-change invariance of the report under 100 random conjugations
    # per module (the canonical form itself lives in module coordinates
    # and transforms; every other field must not move)
    rng = random.Random(2407)
    for name, doc in all_module_docs():
        A = doc.algebra
        for V in doc.modules.values():
            base = fs_indicator(A, V)
            fields = (base.nu, base.dim_bil, base.dim_plus, base.dim_minus,
                      base.end_dim, base.self_dual, base.abs_simple)
            for _ in range(100):
                P = random_unimodular(A.tag, V.dim, rng)
                rep = fs_indicator(A, conjugate_module(V, P))
                assert (rep.nu, rep.dim_bil, rep.dim_plus, rep.dim_minus,
                        rep.end_dim, rep.self_dual,
                        rep.abs_simple) == fields, (name, V.name)

    # transposition squares to the identity on every invariant form space
    for name, doc in all_module_docs():
        A = doc.algebra
        for V in list(doc.modules.values()) + [regular_module(A)]:
            basis = invariant_form_space(A, V)
            if not basis.forms:
                continue
            op = transposition_on_forms(A, basis)
            assert op * op == Matrix.identity(A.tag, len(basis.forms))
    print("criterion 7 PASS: direct-sum additivity, 100-fold base-change"
          " invariance, and transposition involutivity")


def test_criterion_08_twisted_cases():
    doc = load("C3-inv")
    A = doc.algebra
    chi1 = doc.modules["chi1"]
    assert fs_indicator(A, chi1).nu == A.tag.zero()
    At = twist_algebra(A, A.involutions["inv"])
    assert fs_indicator(At, chi1).nu == A.tag.one()

    s3 = load("S3")
    B = s3.algebra
    sign = tuple(B.tag.coerce(x) for x in (1, 1, 1, -1, -1, -1))
    Bt = pivotal_from_character(B, sign)
    got = []
    for V in s3.modules.values():
        by_def = fs_indicator(Bt, V).nu
        assert by_def == fs_hopf_character_formula(B, V, sign), V.name
        got.append(by_def)
    assert got == [B.tag.zero(), B.tag.zero(), B.tag.coerce(-1)]
    print("criterion 8 PASS: inversion twist on C3 and the sign-character"
          " twist on kS3 both match the closed formulas")


def test_criterion_09_coalgebra_regular_indicators():
    for n, want in ((2, 2), (3, 1), (4, 2)):
        spec = group_like_coalgebra(cyclic_table(n), RATIONAL)
        nu = coalgebra_regular_indicator(spec)
        assert nu == Fraction(want)
        A = dualize_coalgebra(spec)
        assert fs_indicator(A, coalgebra_regular_module(spec)).nu == nu
    print("criterion 9 PASS: group-like coalgebras on C2/C3/C4 give 2/1/2,"
          " matching the definition path on the dual")


def test_criterion_10_deterministic_tables(tmp_path, capsys):
    for name in builtin_names():
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(builtin_document(name)), encoding="utf-8")
        runs = []
        for _ in range(2):
            assert main(["table", str(path), "--json"]) == 0, name
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1], name
    print("criterion 10 PASS: table output is byte-identical across runs"
          " for every builtin")
