"""Quantum sl2 modules over Q(q) and their indicator sweep."""

import dataclasses
from pathlib import Path

import pytest

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
    assert v0.K == Matrix.identity(TAG, 1)
    assert v0.E == Matrix.zeros(TAG, 1, 1)
    assert v0.F == Matrix.zeros(TAG, 1, 1)

    v1 = build_vl(1)
    z, o = TAG.zero(), TAG.one()
    assert v1.K == Matrix(TAG, [[Q ** -1, z], [z, Q]])
    assert v1.E == Matrix(TAG, [[z, z], [o, z]])
    assert v1.F == Matrix(TAG, [[z, o], [z, z]])

    v2 = build_vl(2)
    assert [v2.K.rows[t][t] for t in range(3)] == [Q ** -2, o, Q ** 2]
    assert v2.E.rows[2][1] == q_integer(2)
    assert v2.F.rows[0][1] == q_integer(2)
    assert v2.F.rows[1][2] == o


def test_relations_hold_up_to_the_bound():
    for two_ell in range(9):
        assert verify_relations(build_vl(two_ell)) == []


def test_relations_catch_a_bad_coefficient():
    m = build_vl(2)
    e = [list(r) for r in m.E.rows]
    e[1][0] = q_integer(2)
    bad = verify_relations(dataclasses.replace(m, E=Matrix(TAG, e)))
    assert bad


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
        flipped = m.K.transpose() * rep.canonical_form.transpose()
        assert flipped == rep.canonical_form.scale(rep.nu)


def test_weight_bound():
    with pytest.raises(ValueError):
        qsl2_indicator(9)
    rep = qsl2_indicator(9, max_two_ell=9)
    assert rep.nu == TAG.coerce(-1)


def test_guard_against_degenerate_inputs(monkeypatch):
    ident = Matrix.identity(TAG, 2)
    zero = Matrix.zeros(TAG, 2, 2)
    fake = QslModule(two_ell=1, K=ident, Kinv=ident, E=zero, F=zero)
    assert verify_relations(fake) == []
    monkeypatch.setattr(qsl2, "build_vl", lambda two_ell: fake)
    with pytest.raises(UnexpectedFormDimension):
        qsl2_indicator(1)


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("two_ell", range(7))
def test_json_matches_the_recorded_output(two_ell, twisted, capsys):
    argv = ["qsl2", str(two_ell), "--max", "10", "--json"]
    if twisted:
        argv.append("--twisted")
    assert main(argv) == 0
    name = "%d%s.json" % (two_ell, "-twisted" if twisted else "")
    assert capsys.readouterr().out == \
        (EXPECTED / name).read_text(encoding="utf-8")
