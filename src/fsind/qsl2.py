"""Simple modules of quantum sl2 over Q(q) and their indicators.

V_l (l a half-integer, stored as the integer L = 2l) has basis slots
t = 0, ..., L with

    K v_t = q^(2t-L) v_t,   E v_t = [t+1] v_{t+1},   F v_t = [L-t+1] v_{t-1}

truncated at both ends (v_{-1} = v_{L+1} = 0, a real truncation: the edge
coefficients [L+1] do not vanish); [n] is the balanced q-integer. The antipode acts by
S(E) = -E K^-1, S(F) = -K F, S(K) = K^-1, the pivotal element is K, and the
sign-flip involution is tau(E) = -E, tau(F) = -F, tau(K) = K.

The indicator is pivotal.indicator_from_presentation, the core that
fs_indicator also goes through, fed with the generators (K, E, F), or
(K, -E, -F) = tau(K, E, F) when twisted, their images under S, and K. The
form space is one-dimensional and the transposition fixes or negates its
generator. K comes first since its constraint confines M to the
antidiagonal, which keeps the elimination over Q(q) tiny.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix
# unused; test_uninstall_restores_every_attribute pins it (ROADMAP item 1)
from .linalg import kernel_intersection  # noqa: F401
from .pivotal import indicator_from_presentation
from .scalars import RATIONAL_FUNCTION, RatFun

TAG = RATIONAL_FUNCTION
DEFAULT_MAX_TWO_ELL = 8


class UnexpectedFormDimension(Exception):
    pass


def q_integer(n):
    """[n] = (q^n - q^-n)/(q - q^-1) = q^(n-1) + q^(n-3) + ... + q^(1-n),
    built as (1 + q^2 + ... + q^(2n-2)) / q^(n-1)."""
    if n < 0:
        return -q_integer(-n)
    if n == 0:
        return TAG.zero()
    return RatFun((1, 0) * (n - 1) + (1,), (0,) * (n - 1) + (1,))


def q_power(e):
    """q^e as the Laurent monomial it is."""
    if e < 0:
        return RatFun((1,), (0,) * -e + (1,))
    return RatFun((0,) * e + (1,))


@dataclass
class QslModule:
    """The simple V_l in weight coordinates; two_ell = 2l."""

    two_ell: int
    K: Matrix
    Kinv: Matrix
    E: Matrix
    F: Matrix

    @property
    def dim(self):
        return self.two_ell + 1


def build_vl(two_ell):
    if two_ell < 0:
        raise ValueError("2l must be non-negative")
    d = two_ell + 1
    z = TAG.zero()
    kd = [[z] * d for _ in range(d)]
    kinv = [[z] * d for _ in range(d)]
    e = [[z] * d for _ in range(d)]
    f = [[z] * d for _ in range(d)]
    for t in range(d):
        kd[t][t] = q_power(2 * t - two_ell)
        kinv[t][t] = q_power(two_ell - 2 * t)
        if t + 1 < d:
            e[t + 1][t] = q_integer(t + 1)
        if t >= 1:
            f[t - 1][t] = q_integer(two_ell - t + 1)
    return QslModule(two_ell=two_ell,
                     K=Matrix(TAG, kd), Kinv=Matrix(TAG, kinv),
                     E=Matrix(TAG, e), F=Matrix(TAG, f))


def verify_relations(m: QslModule):
    """The defining relations of U_q(sl2) on the module; [] when all hold."""
    bad = []
    d = m.dim
    ident = Matrix.identity(TAG, d)
    q2 = q_power(2)
    qm2 = q_power(-2)
    if m.K * m.Kinv != ident or m.Kinv * m.K != ident:
        bad.append("K K^-1 != 1")
    if m.K * m.E * m.Kinv != m.E.scale(q2):
        bad.append("K E K^-1 != q^2 E")
    if m.K * m.F * m.Kinv != m.F.scale(qm2):
        bad.append("K F K^-1 != q^-2 F")
    q = RatFun.generator()
    comm = m.E * m.F - m.F * m.E
    target = (m.K - m.Kinv).scale((q - q ** -1) ** -1)
    if comm != target:
        bad.append("[E, F] != (K - K^-1)/(q - q^-1)")
    return bad


def qsl2_indicator(two_ell, twisted=False, max_two_ell=DEFAULT_MAX_TWO_ELL):
    """IndicatorReport for V_l; nu is (-1)^(2l) untwisted and +1 twisted."""
    if two_ell > max_two_ell:
        raise ValueError("2l = %d exceeds the bound %d; raise the bound"
                         " explicitly to go higher" % (two_ell, max_two_ell))
    m = build_vl(two_ell)
    bad = verify_relations(m)
    if bad:
        raise AssertionError("module construction broke: %s" % "; ".join(bad))
    gens = [m.K, -m.E, -m.F] if twisted else [m.K, m.E, m.F]
    antipode = [m.Kinv, -(m.E * m.Kinv), -(m.K * m.F)]
    rep = indicator_from_presentation(TAG, gens, antipode, m.K)
    if rep.dim_bil != 1:
        raise UnexpectedFormDimension(
            "invariant form space has dimension %d, expected 1" % rep.dim_bil)
    if not rep.self_dual:
        raise UnexpectedFormDimension("the invariant form is degenerate")
    return rep
