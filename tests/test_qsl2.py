"""Quantum sl2 modules over Q(q) and their indicator sweep."""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from fsind import qsl2
from fsind.cli import main
from fsind.linalg import Matrix
from fsind.qsl2 import (
    QslModule,
    UnexpectedFormDimension,
    build_vl,
    q_integer,
    q_power,
    qsl2_indicator,
    verify_relations,
)
from fsind.scalars import RATIONAL_FUNCTION as TAG, RatFun
from small_algebras import (
    from_matrix,
    qsl2_violations_by_dense_products,
    scale,
    to_matrix,
    transpose,
)

Q = RatFun.generator()
EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected" / "qsl2"


def test_q_integers():
    assert q_integer(0) == TAG.zero()
    assert q_integer(1) == TAG.one()
    assert q_integer(2) == Q + Q ** -1
    assert q_integer(3) == Q ** 2 + TAG.one() + Q ** -2
    assert q_integer(-2) == -(Q + Q ** -1)
    assert q_power(-3) == Q ** -3


def test_smallest_modules():
    v0 = build_vl(0)
    assert v0.dim == 1
    assert to_matrix(TAG, v0.K) == Matrix.identity(TAG, 1)
    assert to_matrix(TAG, v0.E) == Matrix.from_sparse(TAG, 1, 1, [])
    assert to_matrix(TAG, v0.F) == Matrix.from_sparse(TAG, 1, 1, [])

    v1 = build_vl(1)
    z, o = TAG.zero(), TAG.one()
    assert to_matrix(TAG, v1.K) == Matrix(TAG, [[Q ** -1, z], [z, Q]])
    assert to_matrix(TAG, v1.E) == Matrix(TAG, [[z, z], [o, z]])
    assert to_matrix(TAG, v1.F) == Matrix(TAG, [[z, o], [z, z]])

    v2 = build_vl(2)
    assert [v2.K[t][t] for t in range(3)] == [Q ** -2, o, Q ** 2]
    assert v2.E[2][1] == q_integer(2)
    assert v2.F[0][1] == q_integer(2)
    assert v2.F[1][2] == o


def test_relations_hold_up_to_the_bound():
    for two_ell in range(9):
        assert verify_relations(build_vl(two_ell)) == []


def test_relations_catch_a_bad_coefficient():
    m = build_vl(2)
    e = [list(r) for r in to_matrix(TAG, m.E).rows]
    e[1][0] = q_integer(2)
    bad = verify_relations(
        dataclasses.replace(m, E=from_matrix(Matrix(TAG, e))))
    assert bad


# cells of the V_l themselves, so that an edit can break a single relation
CELL_VALUES = ([TAG.zero(), Q + 1, (Q - 1) / (Q + 1)]
               + [q_power(e) for e in range(-6, 7)]
               + [-q_integer(n) for n in range(1, 3)]
               + [q_integer(n) for n in range(1, 8)])


@st.composite
def edited_modules(draw):
    """build_vl(L), L <= 6, with one or two cells of K, K^-1, E or F
    replaced by a q-power, a q-integer or some other value."""
    m = build_vl(draw(st.integers(0, 6)))
    rows = {name: [list(r) for r in to_matrix(TAG, getattr(m, name)).rows]
            for name in ("K", "Kinv", "E", "F")}
    cell = st.integers(0, m.two_ell)
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(sorted(rows)))
        rows[name][draw(cell)][draw(cell)] = draw(st.sampled_from(CELL_VALUES))
    return dataclasses.replace(
        m, **{name: from_matrix(Matrix(TAG, r)) for name, r in rows.items()})


def conjugated(m, r, c, x):
    """P m P^-1 for P = 1 + x e_rc, r != c: the relations still hold, and
    products of its matrices sum several terms a cell."""
    p = [list(row) for row in Matrix.identity(TAG, m.dim).rows]
    p_inv = [list(row) for row in p]
    p[r][c], p_inv[r][c] = x, -x
    p, p_inv = Matrix(TAG, p), Matrix(TAG, p_inv)
    return dataclasses.replace(m, **{
        name: from_matrix(p * to_matrix(TAG, getattr(m, name)) * p_inv)
        for name in ("K", "Kinv", "E", "F")})


@given(edited_modules())
@example(build_vl(3))
@example(conjugated(build_vl(3), 0, 2, Q + 1))
@example(QslModule(two_ell=1, K=from_matrix(Matrix.identity(TAG, 2)),
                   Kinv=from_matrix(Matrix.identity(TAG, 2)),
                   E=[{}, {}], F=[{}, {}]))
# E scaled by q - q^-1: [E, F] = K - K^-1 exactly, off by that factor
@example(dataclasses.replace(
    build_vl(3), E=[{j: (Q - Q ** -1) * x for j, x in r.items()}
                    for r in build_vl(3).E]))
# K^-1 replaced by K
@example(dataclasses.replace(build_vl(2), Kinv=build_vl(2).K))
def test_relations_match_the_dense_products(m):
    assert verify_relations(m) == qsl2_violations_by_dense_products(m)


def test_relations_hold_past_the_bound():
    for two_ell in range(9, 25):
        assert verify_relations(build_vl(two_ell)) == [], two_ell


def test_negative_weight_is_rejected():
    with pytest.raises(ValueError):
        build_vl(-1)


def test_indicator_sweep():
    for two_ell in range(9):
        plain = qsl2_indicator(two_ell)
        assert plain.nu == TAG.coerce(1 if two_ell % 2 == 0 else -1)
        twisted = qsl2_indicator(two_ell, twisted=True)
        assert twisted.nu == TAG.one()
        for rep in (plain, twisted):
            assert rep.dim_bil == 1
            assert rep.dim_plus + rep.dim_minus == 1
            assert rep.end_dim == 1 and rep.abs_simple and rep.self_dual


def test_frozen_forms_for_the_two_dimensional_module():
    z, o = TAG.zero(), TAG.one()
    plain = qsl2_indicator(1)
    assert plain.canonical_form == Matrix(TAG, [[z, o], [-Q, z]])
    twisted = qsl2_indicator(1, twisted=True)
    assert twisted.canonical_form == Matrix(TAG, [[z, o], [Q, z]])


def test_canonical_form_satisfies_the_sign_identity():
    for two_ell in range(5):
        m = build_vl(two_ell)
        rep = qsl2_indicator(two_ell)
        flipped = (transpose(to_matrix(TAG, m.K))
                   * transpose(rep.canonical_form))
        assert flipped == scale(rep.canonical_form, rep.nu)


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("two_ell", [20, 23, 24])
def test_modules_past_the_recorded_range(two_ell, twisted):
    rep = qsl2_indicator(two_ell, twisted=twisted, max_two_ell=two_ell)
    assert rep.nu == TAG.coerce(1 if twisted or two_ell % 2 == 0 else -1)
    assert rep.dim_bil == rep.end_dim == 1 and rep.self_dual
    k, form = to_matrix(TAG, build_vl(two_ell).K), rep.canonical_form
    assert transpose(k) * transpose(form) == scale(form, rep.nu)


def test_weight_bound():
    with pytest.raises(ValueError):
        qsl2_indicator(9)
    rep = qsl2_indicator(9, max_two_ell=9)
    assert rep.nu == TAG.coerce(-1)


def test_guard_against_degenerate_inputs(monkeypatch):
    ident = from_matrix(Matrix.identity(TAG, 2))
    zero = [{}, {}]
    fake = QslModule(two_ell=1, K=ident, Kinv=ident, E=zero, F=zero)
    assert verify_relations(fake) == []
    monkeypatch.setattr(qsl2, "build_vl", lambda two_ell: fake)
    with pytest.raises(UnexpectedFormDimension):
        qsl2_indicator(1)


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("two_ell", range(11))
def test_json_matches_the_recorded_output(two_ell, twisted, capsys):
    argv = ["qsl2", str(two_ell), "--max", "10", "--json"]
    if twisted:
        argv.append("--twisted")
    assert main(argv) == 0
    name = "%d%s.json" % (two_ell, "-twisted" if twisted else "")
    assert capsys.readouterr().out == \
        (EXPECTED / name).read_text(encoding="utf-8")


def test_q_integers_and_powers_match_their_definitions():
    for n in range(-3, 13):
        by_sum = sum((Q ** (abs(n) - 1 - 2 * k) for k in range(abs(n))),
                     TAG.zero())
        assert q_integer(n) == (by_sum if n >= 0 else -by_sum), n
    for e in range(-12, 13):
        assert q_power(e) == Q ** e, e
