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
(K, -E, -F) = tau(K, E, F) when twisted, their images under S, and K.
Every matrix is sparse rows {column: value}, as in a ModuleRep, from
build_vl through the relations and the antipode. The form space is
one-dimensional and the transposition fixes or negates its generator. K
comes first since its constraint confines M to the antidiagonal, which
keeps the elimination over Q(q) tiny.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# unused; test_uninstall_restores_every_attribute pins it (ROADMAP item 1)
from .linalg import kernel_intersection  # noqa: F401
from .pivotal import _accumulate, _times, indicator_from_presentation
from .scalars import RATIONAL_FUNCTION, RatFun, _new_ratfun

TAG = RATIONAL_FUNCTION
DEFAULT_MAX_TWO_ELL = 8


class UnexpectedFormDimension(Exception):
    pass


def q_integer(n):
    """[n] = (q^n - q^-n)/(q - q^-1) = q^(n-1) + q^(n-3) + ... + q^(1-n),
    built as (1 + q^2 + ... + q^(2n-2)) / q^(n-1), already canonical: the
    numerator has constant term 1, so it is coprime to q^(n-1)."""
    if n < 0:
        return -q_integer(-n)
    if n == 0:
        return TAG.zero()
    return _new_ratfun(Fraction(1), (1, 0) * (n - 1) + (1,),
                       (0,) * (n - 1) + (1,))


def q_power(e):
    """q^e as the Laurent monomial it is."""
    if e < 0:
        return _new_ratfun(Fraction(1), (1,), (0,) * -e + (1,))
    return _new_ratfun(Fraction(1), (0,) * e + (1,), (1,))


@dataclass
class QslModule:
    """The simple V_l in weight coordinates; two_ell = 2l. K, Kinv, E and F
    are sparse rows {column: value}, as a ModuleRep's action is."""

    two_ell: int
    K: list
    Kinv: list
    E: list
    F: list

    @property
    def dim(self):
        return self.two_ell + 1


def build_vl(two_ell):
    """V_l with 2l = two_ell: row s of E holds [s] at column s - 1, row s
    of F holds [L - s] at column s + 1."""
    if two_ell < 0:
        raise ValueError("2l must be non-negative")
    d = two_ell + 1
    return QslModule(
        two_ell=two_ell,
        K=[{t: q_power(2 * t - two_ell)} for t in range(d)],
        Kinv=[{t: q_power(two_ell - 2 * t)} for t in range(d)],
        E=[{t - 1: q_integer(t)} if t else {} for t in range(d)],
        F=[{t + 1: q_integer(two_ell - t)} if t < two_ell else {}
           for t in range(d)])


def _minus(a, b):
    """a - b for matrices given as sparse rows."""
    return [_accumulate([*ra.items(), *((j, -x) for j, x in rb.items())])
            for ra, rb in zip(a, b)]


def _scaled(s, a):
    """s a for a nonzero scalar s and a matrix given as sparse rows."""
    return [{j: s * x for j, x in r.items()} for r in a]


def verify_relations(m: QslModule):
    """The defining relations of U_q(sl2) on the module, checked on the
    nonzero cells only; [] when all hold.

    Two are checked in an equivalent form that needs no general inverse.
    [E, F] (q - q^-1) = K - K^-1 stands for [E, F] = (K - K^-1)/(q - q^-1):
    q - q^-1 is a nonzero scalar, and its products with the Laurent
    polynomials of V_l take no gcd. K K^-1 = 1 stands for K^-1 K = 1 as
    well: a one-sided inverse of a square matrix over a field is
    two-sided."""
    bad = []
    K, Kinv, E, F = m.K, m.Kinv, m.E, m.F
    if _times(K, Kinv) != [{i: TAG.one()} for i in range(m.dim)]:
        bad.append("K K^-1 != 1")
    if _times(_times(K, E), Kinv) != _scaled(q_power(2), E):
        bad.append("K E K^-1 != q^2 E")
    if _times(_times(K, F), Kinv) != _scaled(q_power(-2), F):
        bad.append("K F K^-1 != q^-2 F")
    q = RatFun.generator()
    comm = _minus(_times(E, F), _times(F, E))
    if _scaled(q - q ** -1, comm) != _minus(K, Kinv):
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
    minus = -TAG.one()
    gens = ([m.K, _scaled(minus, m.E), _scaled(minus, m.F)] if twisted
            else [m.K, m.E, m.F])
    antipode = [m.Kinv, _scaled(minus, _times(m.E, m.Kinv)),
                _scaled(minus, _times(m.K, m.F))]
    rep = indicator_from_presentation(TAG, gens, antipode, m.K)
    if rep.dim_bil != 1:
        raise UnexpectedFormDimension(
            "invariant form space has dimension %d, expected 1" % rep.dim_bil)
    if not rep.self_dual:
        raise UnexpectedFormDimension("the invariant form is degenerate")
    return rep
