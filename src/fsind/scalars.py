"""Exact scalar arithmetic for the indicator computations.

Three coefficient fields are supported:

* the rationals (plain ``fractions.Fraction``),
* cyclotomic fields Q(z), z a primitive n-th root of unity,
* rational functions Q(q) in a single variable.

Every element is kept in a canonical form, so equality within a field is
literal comparison and repeated runs print identical strings.  Across
fields, rational constants are equal when their values are, and hash like
their Fraction; nothing else is equal across fields.  The canonical
forms:

* a cyclotomic in Q(z_n) is reduced modulo the n-th cyclotomic
  polynomial and stored as n/d, with n a tuple of phi(n) ints and d a
  positive int coprime to them; its arithmetic runs over Z, folding high
  powers of z through a per-order table.  It prints as phi(n) Fraction
  coefficients of 1, z, ..., z^(phi(n)-1);
* a rational function is stored as c * n/d with c a Fraction and n, d
  coprime primitive integer polynomials with positive leading
  coefficients; its arithmetic runs over Z[q], with a heuristic integer
  gcd.  It prints as numerator/denominator with Fraction coefficients,
  coprime, with a monic denominator.

Cyclotomic and RatFun each supply what reads their own storage: _coerce,
+, unary -, *, inverse, _rational, ==, bool, hash and repr.  Subtraction,
division, integer powers and str follow from those: each is written once,
below, and bound in both class bodies, so it is in each class's own dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm


class FieldMismatch(Exception):
    """Raised when scalars from different fields are combined."""

    def __init__(self, message, pos=None):
        super().__init__(message)
        self.pos = pos


class ParseError(Exception):
    """Scalar text that does not match the grammar; carries the offset."""

    def __init__(self, message, pos):
        super().__init__("%s at position %d" % (message, pos))
        self.pos = pos


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


def _eq_across_fields(x, other):
    """x == other for a Cyclotomic or RatFun x and a value outside its own
    field.  Rational constants of any two fields are equal exactly when
    their values are; nothing else is equal across fields."""
    if isinstance(other, (Cyclotomic, RatFun)):
        w = other._rational()
    else:
        w = _as_fraction(other)
        if w is None:
            return NotImplemented
    v = x._rational()
    return v is not None and v == w


# ---------------------------------------------------------------------------
# operators shared by Cyclotomic and RatFun, bound in each class body

def _sub(x, y):
    o = x._coerce(y)
    if o is None:
        return NotImplemented
    return x + (-o)


def _rsub(x, y):
    o = x._coerce(y)
    if o is None:
        return NotImplemented
    return o + (-x)


def _truediv(x, y):
    o = x._coerce(y)
    if o is None:
        return NotImplemented
    return x * o.inverse()


def _rtruediv(x, y):
    o = x._coerce(y)
    if o is None:
        return NotImplemented
    return o * x.inverse()


def _pow(x, e):
    if not isinstance(e, int):
        return NotImplemented
    base = x
    if e < 0:
        base, e = x.inverse(), -e
    out = x._coerce(1)
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# canonical printing

def _term_string(coeff, var, power):
    """One monomial, sign stripped (caller handles joining)."""
    if power == 0:
        return str(coeff)
    base = var if power == 1 else "%s^%d" % (var, power)
    if coeff == 1:
        return base
    return "%s*%s" % (coeff, base)


def _times_ratio(p, q, coeffs):
    """p/q times each integer coefficient: an int when q = 1, else a
    Fraction, which prints the same when it is integral."""
    if q == 1:
        return [p * k for k in coeffs]
    return [Fraction(p * k, q) for k in coeffs]


def _poly_string(coeffs, var, descending=False):
    terms = [(i, c) for i, c in enumerate(coeffs) if c]
    if not terms:
        return "0"
    if descending:
        terms.reverse()
    out = " ".join(("- " if c < 0 else "+ ") + _term_string(abs(c), var, i)
                   for i, c in terms)
    return out[2:] if out[0] == "+" else "-" + out[2:]


def scalar_to_string(x):
    """Canonical text form; parse_scalar inverts it exactly."""
    f = x._rational() if isinstance(x, RatFun) else _as_fraction(x)
    if f is not None:
        return str(f)  # Fraction prints gcd-reduced, denominator positive
    if isinstance(x, Cyclotomic):
        return _poly_string(x.coeffs, "z")
    if isinstance(x, RatFun):  # x.num and x.den, with integral ones as ints
        c, lead = x._c, x._d[-1]
        num = _poly_string(_times_ratio(c.numerator, c.denominator * lead,
                                        x._n), "q", descending=True)
        if x._d == (1,):
            return num
        den = _poly_string(_times_ratio(1, lead, x._d), "q", descending=True)
        return "(%s)/(%s)" % (num, den)
    raise TypeError("not a scalar: %r" % (x,))


# ---------------------------------------------------------------------------
# cyclotomic fields

@lru_cache(maxsize=None)
def _reduction_table(order):
    """(phi, low, rows): how Q(z_order) folds powers of z down to degree < phi.

    The order-th cyclotomic polynomial m is monic over Z of degree phi, so
    z^phi = -sum m_i z^i.  low lists the nonzero (i, m_i) for i < phi, and
    rows[k] lists the nonzero (i, c) of z^(phi + k) reduced, for
    k = 0 .. phi - 2: the powers a product of two reduced values reaches.
    """
    m = list(cyclotomic_poly(order))
    phi = len(m) - 1
    row = [-c for c in m[:phi]]
    rows = []
    for _ in range(phi - 1):
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
        top = row[-1]
        row = [0] + row[:-1]
        for i in range(phi):
            row[i] -= top * m[i]
    return phi, tuple((i, c) for i, c in enumerate(m[:phi]) if c), tuple(rows)


def _fold(v, order):
    """Reduce the integer list v (index = power of z) in place to its phi
    coefficients in Q(z_order) and return it.  Powers above the table,
    which only constructor inputs reach, are divided out by the monic
    cyclotomic polynomial from the top down."""
    phi, low, rows = _reduction_table(order)
    for k in range(len(v) - 1, 2 * phi - 2, -1):
        c = v[k]
        if c:
            for i, mi in low:
                v[k - phi + i] -= c * mi
    for k in range(phi, min(len(v), 2 * phi - 1)):
        c = v[k]
        if c:
            for i, r in rows[k - phi]:
                v[i] += c * r
    if len(v) < phi:
        v.extend([0] * (phi - len(v)))
    del v[phi:]
    return v


def _new_cyclotomic(order, n, d):
    x = object.__new__(Cyclotomic)
    x.order, x._n, x._d = order, n, d
    return x


def _cyclotomic(order, n, d):
    """The canonical Cyclotomic equal to n/d (n a list of phi(order) ints,
    d a positive int)."""
    g = gcd(d, *n)
    if g != 1:
        return _new_cyclotomic(order, tuple([x // g for x in n]), d // g)
    return _new_cyclotomic(order, tuple(n), d)


def _cyclotomic_constant(order, f):
    """The canonical Cyclotomic equal to the int or Fraction f."""
    phi = _reduction_table(order)[0]
    if isinstance(f, int):
        return _new_cyclotomic(order, (f,) + (0,) * (phi - 1), 1)
    return _new_cyclotomic(order, (f.numerator,) + (0,) * (phi - 1),
                           f.denominator)


def _coerce_cyclotomic(order, x):
    """x in Q(z_order): a Cyclotomic of that order as it is, an int or
    Fraction embedded, None for anything else; other orders are refused."""
    if isinstance(x, Cyclotomic):
        if x.order != order:
            raise FieldMismatch("cannot mix cyclotomic orders %d and %d"
                                % (order, x.order))
        return x
    if isinstance(x, (int, Fraction)):
        return _cyclotomic_constant(order, x)
    return None


class Cyclotomic:
    """Element of Q(z) with z = exp(2*pi*i/n), stored as n/d.

    n is a tuple of phi(order) ints, the coefficients of 1, z, ...,
    z^(phi-1) over the common denominator d; d is positive and
    gcd(d, *n) = 1, and zero is ((0,)*phi, 1).  That pair is unique, so
    equality compares it literally.  Products fold z^phi ... z^(2 phi - 2)
    through a per-order table of reduced powers.  ``coeffs`` gives the
    printed form: phi Fraction coefficients, reduced modulo the n-th
    cyclotomic polynomial.
    """

    __slots__ = ("order", "_n", "_d")

    def __init__(self, order, coeffs):
        fs = [Fraction(c) for c in coeffs]
        d = lcm(1, *(f.denominator for f in fs))
        n = _fold([f.numerator * (d // f.denominator) for f in fs], order)
        x = _cyclotomic(order, n, d)
        self.order, self._n, self._d = order, x._n, x._d

    @property
    def coeffs(self):
        d = self._d
        return tuple(Fraction(x, d) for x in self._n)

    @staticmethod
    def generator(order):
        return Cyclotomic(order, (0, 1))

    def _coerce(self, other):
        return _coerce_cyclotomic(self.order, other)

    def __add__(self, other):
        o = _coerce_cyclotomic(self.order, other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _cyclotomic(self.order,
                               [x + y for x, y in zip(self._n, o._n)], d1)
        g = gcd(d1, d2)
        u, v = d2 // g, d1 // g
        return _cyclotomic(self.order,
                           [x * u + y * v for x, y in zip(self._n, o._n)],
                           d1 * u)

    __radd__ = __add__

    def __neg__(self):
        return _new_cyclotomic(self.order, tuple([-x for x in self._n]),
                               self._d)

    def __mul__(self, other):
        o = _coerce_cyclotomic(self.order, other)
        if o is None:
            return NotImplemented
        a, b, d = self._n, o._n, self._d * o._d
        # a rational factor scales the other numerator: no convolution
        if not any(b[1:]):
            return _cyclotomic(self.order, [b[0] * x for x in a], d)
        if not any(a[1:]):
            return _cyclotomic(self.order, [a[0] * y for y in b], d)
        out = [0] * (2 * len(a) - 1)
        b = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in b:
                    out[i + j] += x * y
        return _cyclotomic(self.order, _fold(out, self.order), d)

    __rmul__ = __mul__

    def inverse(self):
        """d/n for a constant n; otherwise d * c / N(n), where c is the
        product of the conjugates sigma_k(n), z -> z^k, over the k coprime
        to the order other than 1, and N(n) = n * c is the integer norm."""
        order, n, d = self.order, self._n, self._d
        if not any(n[1:]):
            c = n[0]
            if not c:
                raise ZeroDivisionError("division by zero in cyclotomic field")
            return _new_cyclotomic(order, (d if c > 0 else -d,) + n[1:],
                                   abs(c))
        conj = _cyclotomic_constant(order, 1)
        for k in range(2, order):
            if gcd(k, order) == 1:
                v = [0] * order
                for i, x in enumerate(n):
                    v[i * k % order] += x
                conj = conj * _new_cyclotomic(order, tuple(_fold(v, order)), 1)
        norm = (_new_cyclotomic(order, n, 1) * conj)._n[0]
        s = d if norm > 0 else -d
        return _cyclotomic(order, [s * x for x in conj._n], abs(norm))

    def _rational(self):
        """The value as a Fraction if it is rational, else None."""
        n = self._n
        if any(n[1:]):
            return None
        return Fraction(n[0], self._d)

    def __eq__(self, other):
        if isinstance(other, Cyclotomic) and other.order == self.order:
            return self._n == other._n and self._d == other._d
        return _eq_across_fields(self, other)

    def __bool__(self):
        return any(self._n)

    def __hash__(self):
        v = self._rational()
        if v is not None:
            return hash(v)  # a constant hashes like its Fraction
        return hash((self.order, self._n, self._d))

    def __repr__(self):
        return "Cyclotomic(%d, %r)" % (self.order, list(self.coeffs))

    __sub__, __rsub__, __truediv__, __rtruediv__, __pow__, __str__ = (
        _sub, _rsub, _truediv, _rtruediv, _pow, scalar_to_string)


# ---------------------------------------------------------------------------
# dense polynomials over Z, the arithmetic behind Q(q) and the cyclotomic
# polynomials: sequences of int (index = degree, no trailing zeros).
# Primitive means the coefficients have gcd 1 and the leading one is
# positive.

def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _zmul(a, b):
    """Product of two nonzero polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for j, bj in enumerate(b):
        if bj:
            for i, ai in enumerate(a, j):
                if ai:
                    out[i] += ai * bj
    return out


def _zcomb(u, a, v, b):
    """u*a + v*b, trimmed."""
    if len(a) < len(b):
        u, a, v, b = v, b, u, a
    out = [u * x for x in a]
    for i, y in enumerate(b):
        out[i] += v * y
    return _trim(out)


def _zquo(a, b):
    """The quotient a/b if b divides a exactly in Z[q], else None."""
    db = len(b)
    if len(a) < db:
        return None
    r = list(a)
    lead = b[-1]
    out = [0] * (len(a) - db + 1)
    for i in range(len(a) - db, -1, -1):
        c, m = divmod(r[i + db - 1], lead)
        if m:
            return None
        if c:
            out[i] = c
            for j in range(db - 1):
                r[i + j] -= c * b[j]
    if any(r[:db - 1]):
        return None
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Integer coefficients of the n-th cyclotomic polynomial, from degree 0.

    x^n - 1 divided by the cyclotomic polynomials of the proper divisors of
    n; each is monic, so the division is exact over Z.
    """
    if n < 1:
        raise ValueError("order must be positive")
    acc = [1]
    for d in range(1, n):
        if n % d == 0:
            acc = _zmul(acc, cyclotomic_poly(d))
    return tuple(_zquo([-1] + [0] * (n - 1) + [1], acc))


def _primitive(a):
    """a divided by its content, leading coefficient made positive; a list."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return list(a) if g == 1 else [x // g for x in a]


def _gcd_heu(f, g):
    """(h, f/h, g/h) with h = gcd(f, g), for primitive f and g of positive
    degree, or None when the heuristic gives up.

    GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 7, 1989): take the
    integer gcd of f(x) and g(x), read h back from its balanced base-x
    digits and keep its primitive part if that divides both f and g.
    Such a candidate is the gcd once x > 2R, where R = 1 + |f|/lc(f)
    (max norm) bounds the roots of f, or the same bound for g: a
    nonconstant factor of gcd(f, g) left out of the candidate would take
    a value above x/2 at x, yet divide the content of the digits, which
    is at most x/2.
    """
    nf = max(map(abs, f))
    ng = max(map(abs, g))
    b = 2 * min(nf, ng) + 29
    x = max(min(b, 99 * isqrt(b)), 2 * min(nf // f[-1], ng // g[-1]) + 4)
    for _ in range(6):
        fx = gx = 0
        for c in reversed(f):
            fx = fx * x + c
        for c in reversed(g):
            gx = gx * x + c
        gamma = gcd(fx, gx)
        h = []
        while gamma:
            digit = gamma % x
            if digit > x // 2:
                digit -= x
            h.append(digit)
            gamma = (gamma - digit) // x
        h = _primitive(h)
        cf = _zquo(f, h)
        if cf is not None:
            cg = _zquo(g, h)
            if cg is not None:
                return h, cf, cg
        x = x * 73794 * isqrt(isqrt(x)) // 27011  # about 2.73 x^(5/4)
    return None


def _prem(f, g):
    """Pseudo-remainder of f by g, len(f) >= len(g): lc(g)^k f mod g."""
    r = list(f)
    dg = len(g) - 1
    lead = g[-1]
    for k in range(len(f) - len(g), -1, -1):
        c = r[k + dg]
        r = [lead * x for x in r[:k + dg]]
        for j in range(dg):
            r[k + j] -= c * g[j]
    return _trim(r)


def _prs_gcd(f, g):
    """gcd of primitive f and g by the primitive pseudo-remainder sequence."""
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _prem(f, g)
        f, g = g, (_primitive(r) if r else r)
    return _primitive(f)


def _integer_poly(cs):
    """(scale, ints) with cs = scale * ints, for Fraction-like coefficients."""
    fs = _trim(Fraction(c) for c in cs)
    lcd = lcm(*(f.denominator for f in fs))
    return Fraction(1, lcd), [f.numerator * (lcd // f.denominator) for f in fs]


def _without_common_q(n, d):
    """n and d, both nonzero, with their common power of q divided out."""
    k = 0
    while not (n[k] or d[k]):
        k += 1
    return (n[k:], d[k:]) if k else (n, d)


def _ratfun(c, n, d):
    """The canonical RatFun equal to c * n/d (c a Fraction, n and d integer
    polynomials, d nonzero)."""
    if not n:
        return _ZERO
    n, d = _without_common_q(n, d)
    cn = gcd(*n)
    if n[-1] < 0:
        cn = -cn
    cd = gcd(*d)
    if d[-1] < 0:
        cd = -cd
    if cn != 1:
        n = [x // cn for x in n]
    if cd != 1:
        d = [x // cd for x in d]
    if cn != cd:
        c = c * Fraction(cn, cd)
    # after the common power of q is gone a monomial is coprime to the other
    if n.count(0) < len(n) - 1 and d.count(0) < len(d) - 1:
        heu = _gcd_heu(n, d)
        if heu is None:
            h = _prs_gcd(n, d)
            n, d = _zquo(n, h), _zquo(d, h)
        else:
            _, n, d = heu
    return _new_ratfun(c, tuple(n), tuple(d))


def _new_ratfun(c, n, d):
    x = object.__new__(RatFun)
    x._c, x._n, x._d = c, n, d
    return x


def _exponent(n, d):
    """k if n/d is q^k with n and d monomials, else None; canonical n and d
    then hold one nonzero each, a 1."""
    if n.count(0) + d.count(0) == len(n) + len(d) - 2:
        return len(n) - len(d)
    return None


def _shifted(x, c, k):
    """x * c q^k for a nonzero RatFun x, without a gcd (see RatFun)."""
    n, d = (0,) * k + x._n, (0,) * -k + x._d  # one of the two shifts is ()
    return _new_ratfun(x._c * c, *_without_common_q(n, d))


class RatFun:
    """Rational function in q over Q, stored as c * n/d.

    c is a nonzero Fraction and n, d are coprime primitive integer
    polynomials (tuples of int, index = degree) with positive leading
    coefficients; zero is (0, (), (1,)).  That triple is unique, so
    equality compares it literally.  ``num`` and ``den`` give the printed
    form: Fraction coefficients, coprime, with ``den`` monic.  A product
    by a Laurent monomial c q^k, a constant when k = 0, needs no gcd: n
    (k > 0) or d (k < 0) times q^|k| stays primitive with the same leading
    coefficient, and coprime to the other side once their common power of
    q is divided out, since n/d had none.
    """

    __slots__ = ("_c", "_n", "_d")

    def __init__(self, num, den=(1,)):
        sn, n = _integer_poly(num)
        sd, d = _integer_poly(den)
        if not d:
            raise ZeroDivisionError("rational function with zero denominator")
        x = _ratfun(sn / sd, n, d)
        self._c, self._n, self._d = x._c, x._n, x._d

    @property
    def num(self):
        c, lead = self._c, self._d[-1]
        return tuple(c * x / lead for x in self._n)

    @property
    def den(self):
        lead = self._d[-1]
        return tuple(Fraction(x, lead) for x in self._d)

    @staticmethod
    def generator():
        return _new_ratfun(Fraction(1), (0, 1), (1,))

    @staticmethod
    def _coerce(other):
        """other as a RatFun, or None if it is neither that nor rational."""
        if isinstance(other, RatFun):
            return other
        f = _as_fraction(other)
        if f is None:
            return None
        return _new_ratfun(f, (1,), (1,)) if f else _ZERO

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c1, n1, d1 = self._c, self._n, self._d
        c2, n2, d2 = o._c, o._n, o._d
        if not n2:
            return self
        if not n1:
            return o
        b1, b2 = c1.denominator, c2.denominator
        g = gcd(b1, b2)
        u, v = c1.numerator * (b2 // g), c2.numerator * (b1 // g)
        scale = Fraction(1, b1 // g * b2)
        if d1 == d2:
            return _ratfun(scale, _zcomb(u, n1, v, n2), d1)
        k = _exponent(d1, d2)  # Laurent polynomials: over the higher q-power
        if k is not None:
            return _ratfun(scale, _zcomb(u, (0,) * -k + n1, v, (0,) * k + n2),
                           d1 if k > 0 else d2)
        return _ratfun(scale, _zcomb(u, _zmul(n1, d2), v, _zmul(n2, d1)),
                       _zmul(d1, d2))

    __radd__ = __add__

    def __neg__(self):
        return _new_ratfun(-self._c, self._n, self._d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._n or not o._n:
            return _ZERO
        for x, m in ((self, o), (o, self)):
            k = _exponent(m._n, m._d)
            if k is not None:
                return _shifted(x, m._c, k)
        return _ratfun(self._c * o._c, _zmul(self._n, o._n),
                       _zmul(self._d, o._d))

    __rmul__ = __mul__

    def inverse(self):
        if not self._n:
            raise ZeroDivisionError("division by zero in Q(q)")
        return _new_ratfun(1 / self._c, self._d, self._n)

    def _rational(self):
        """The value as a Fraction if it is a constant, else None."""
        if self._d == (1,) and len(self._n) <= 1:
            return self._c
        return None

    def __eq__(self, other):
        if isinstance(other, RatFun):
            return (self._n == other._n and self._d == other._d
                    and self._c == other._c)
        return _eq_across_fields(self, other)

    def __bool__(self):
        return bool(self._n)

    def __hash__(self):
        v = self._rational()
        if v is not None:
            return hash(v)  # a constant hashes like its Fraction
        return hash((self._c, self._n, self._d))

    def __repr__(self):
        return "RatFun(%r, %r)" % (list(self.num), list(self.den))

    __sub__, __rsub__, __truediv__, __rtruediv__, __pow__, __str__ = (
        _sub, _rsub, _truediv, _rtruediv, _pow, scalar_to_string)


_ZERO = _new_ratfun(Fraction(0), (), (1,))


# ---------------------------------------------------------------------------
# field tags

@dataclass(frozen=True)
class FieldTag:
    """Identifies the coefficient field of a document or matrix."""

    kind: str                 # "rational" | "cyclotomic" | "rational_function"
    order: int | None = None  # set exactly when kind == "cyclotomic"

    def __post_init__(self):
        if self.kind not in ("rational", "cyclotomic", "rational_function"):
            raise ValueError("unknown field kind %r" % (self.kind,))
        if (self.kind == "cyclotomic") != (self.order is not None):
            raise ValueError("cyclotomic tags need an order, others must not")
        if self.order is not None and self.order < 1:
            raise ValueError("cyclotomic order must be positive")

    def __str__(self):
        if self.kind == "cyclotomic":
            return "cyclotomic(%d)" % self.order
        return self.kind

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def coerce(self, x):
        """Embed x (int, Fraction, or a scalar of this field) into the field."""
        if self.kind == "rational":
            f = _as_fraction(x)
            if f is not None:
                return f
        elif self.kind == "cyclotomic":
            y = _coerce_cyclotomic(self.order, x)
            if y is not None:
                return y
        else:
            y = RatFun._coerce(x)
            if y is not None:
                return y
        raise FieldMismatch("cannot interpret %r as an element of %s"
                            % (x, self))

    def generator(self):
        if self.kind == "cyclotomic":
            return Cyclotomic.generator(self.order)
        if self.kind == "rational_function":
            return RatFun.generator()
        raise FieldMismatch("the rational field has no distinguished generator")


RATIONAL = FieldTag("rational")
RATIONAL_FUNCTION = FieldTag("rational_function")


def cyclotomic_field(n):
    return FieldTag("cyclotomic", n)


def field_tag_from_string(text):
    """Parse "rational", "cyclotomic(n)" or "rational_function"."""
    text = text.strip()
    if text == "rational":
        return RATIONAL
    if text == "rational_function":
        return RATIONAL_FUNCTION
    if text.startswith("cyclotomic(") and text.endswith(")"):
        inner = text[len("cyclotomic("):-1].strip()
        if inner.isascii() and inner.isdigit():
            return cyclotomic_field(int(inner))
    raise ValueError("unknown field %r" % (text,))


# ---------------------------------------------------------------------------
# parsing
#
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*        '/' binds like '*', left assoc
#   factor := atom ['^' sint]
#   atom   := uint | 'z' | 'q' | '(' expr ')'
#   uint   := ASCII digits 0-9, one or more

_DIGITS = frozenset("0123456789")


class _Parser:
    def __init__(self, text, tag):
        self.text = text
        self.tag = tag
        self.pos = 0

    def error(self, message, pos=None):
        raise ParseError(message, self.pos if pos is None else pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def parse(self):
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected %r" % self.text[self.pos])
        return value

    def expr(self):
        if self.peek() == "-":
            self.pos += 1
            value = -self.term()
        else:
            value = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                value = value * self.factor()
            elif ch == "/":
                at = self.pos
                self.pos += 1
                try:
                    value = value / self.factor()
                except ZeroDivisionError:
                    self.error("division by zero", at)
            else:
                return value

    def factor(self):
        value = self.atom()
        if self.peek() == "^":
            at = self.pos
            self.pos += 1
            e = self.sint()
            try:
                value = value ** e
            except ZeroDivisionError:
                self.error("zero raised to a negative power", at)
        return value

    def sint(self):
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        return sign * self.uint()

    def uint(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            if self.pos < len(self.text):
                self.error("expected a number, got %r" % self.text[self.pos])
            self.error("unexpected end of input")
        return int(self.text[start:self.pos])

    def atom(self):
        ch = self.peek()
        if ch in _DIGITS:
            return self.tag.coerce(self.uint())
        if ch == "z":
            if self.tag.kind != "cyclotomic":
                raise FieldMismatch("'z' is only valid over a cyclotomic field",
                                    self.pos)
            self.pos += 1
            return self.tag.generator()
        if ch == "q":
            if self.tag.kind != "rational_function":
                raise FieldMismatch("'q' is only valid over rational functions",
                                    self.pos)
            self.pos += 1
            return self.tag.generator()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return value
        if ch == "":
            self.error("unexpected end of input")
        self.error("unexpected %r" % ch)


def parse_scalar(text, tag):
    """Parse a scalar literal in the field described by tag."""
    if not isinstance(text, str):
        raise ParseError("scalar must be a string, got %r" % (text,), 0)
    return _Parser(text, tag).parse()
