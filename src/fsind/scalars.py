"""Exact scalar arithmetic for the indicator computations.

Three coefficient fields are supported:

* the rationals (plain ``fractions.Fraction``),
* cyclotomic fields Q(z), z a primitive n-th root of unity,
* rational functions Q(q) in a single variable.

Every element is kept in a canonical form, so equality is literal
coefficient comparison and repeated runs print identical strings:

* a cyclotomic is reduced modulo the n-th cyclotomic polynomial;
* a rational function is stored as c * n/d with c a Fraction and n, d
  coprime primitive integer polynomials with positive leading
  coefficients; its arithmetic runs over Z[q], with a heuristic integer
  gcd.  It prints as numerator/denominator with Fraction coefficients,
  coprime, with a monic denominator.
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


# ---------------------------------------------------------------------------
# dense polynomials over Q, represented as trimmed tuples of Fraction
# (index = degree, no trailing zeros, () is the zero polynomial)

def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def poly_add(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def poly_neg(a):
    return tuple(-c for c in a)


def poly_sub(a, b):
    return poly_add(a, poly_neg(b))


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def poly_divmod(a, b):
    """Quotient and remainder of a by b (b nonzero), exact over Q."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / lead
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return _trim(q), _trim(a)


def poly_monic(a):
    if not a:
        return a
    lead = a[-1]
    if lead == 1:
        return a
    return tuple(c / lead for c in a)


def poly_gcd(a, b):
    """Monic gcd via the Euclidean algorithm (the tests' reference for the
    integer gcd behind RatFun)."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def poly_ext_gcd(a, b):
    """(g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = (Fraction(1),), ()
    t0, t1 = (), (Fraction(1),)
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1))
    if r0:
        lead = r0[-1]
        r0 = tuple(c / lead for c in r0)
        s0 = tuple(c / lead for c in s0)
        t0 = tuple(c / lead for c in t0)
    return r0, s0, t0


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Coefficients of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the
    proper divisors, which stays exact and is plenty fast for the orders
    used here.
    """
    if n < 1:
        raise ValueError("order must be positive")
    xn_minus_1 = _trim([Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)])
    acc = (Fraction(1),)
    for d in range(1, n):
        if n % d == 0:
            acc = poly_mul(acc, cyclotomic_poly(d))
    q, r = poly_divmod(xn_minus_1, acc)
    assert not r
    return q


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


class Cyclotomic:
    """Element of Q(z) with z = exp(2*pi*i/n), reduced mod cyclotomic_poly(n).

    coeffs has fixed length phi(n) = deg of the cyclotomic polynomial, so
    two equal elements always have equal coefficient tuples.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        modulus = cyclotomic_poly(order)
        deg = len(modulus) - 1
        cs = _trim(Fraction(c) for c in coeffs)
        if len(cs) > deg:
            cs = poly_divmod(cs, modulus)[1]
        self.order = order
        self.coeffs = tuple(cs) + (Fraction(0),) * (deg - len(cs))

    @staticmethod
    def generator(order):
        return Cyclotomic(order, (0, 1))

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise FieldMismatch(
                    "cannot mix cyclotomic orders %d and %d"
                    % (self.order, other.order))
            return other
        f = _as_fraction(other)
        if f is None:
            return None
        return Cyclotomic(self.order, (f,))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.order,
                          [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.order, poly_mul(_trim(self.coeffs),
                                               _trim(o.coeffs)))

    __rmul__ = __mul__

    def inverse(self):
        p = _trim(self.coeffs)
        if not p:
            raise ZeroDivisionError("division by zero in cyclotomic field")
        g, s, _ = poly_ext_gcd(p, cyclotomic_poly(self.order))
        assert g == (Fraction(1),)
        return Cyclotomic(self.order, s)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        base = self
        if e < 0:
            base, e = self.inverse(), -e
        out = Cyclotomic(self.order, (1,))
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except FieldMismatch:
            return NotImplemented
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __hash__(self):
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])  # a constant hashes like its Fraction
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return "Cyclotomic(%d, %r)" % (self.order, list(self.coeffs))

    def __str__(self):
        return scalar_to_string(self)


# ---------------------------------------------------------------------------
# dense polynomials over Z, the arithmetic behind Q(q): sequences of int
# (index = degree, no trailing zeros).  Primitive means the coefficients
# have gcd 1 and the leading one is positive.

def _zmul(a, b):
    """Product of two nonzero polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
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


def _primitive(a):
    """a divided by its content, leading coefficient made positive."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [x // g for x in a]


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


def _ratfun(c, n, d):
    """The canonical RatFun equal to c * n/d (c a Fraction, n and d integer
    polynomials, d nonzero)."""
    if not n:
        return _ZERO
    k = 0
    while not (n[k] or d[k]):
        k += 1
    if k:
        n, d = n[k:], d[k:]
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


class RatFun:
    """Rational function in q over Q, stored as c * n/d.

    c is a nonzero Fraction and n, d are coprime primitive integer
    polynomials (tuples of int, index = degree) with positive leading
    coefficients; zero is (0, (), (1,)).  That triple is unique, so
    equality compares it literally.  ``num`` and ``den`` give the printed
    form: Fraction coefficients, coprime, with ``den`` monic.
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

    def _coerce(self, other):
        if isinstance(other, RatFun):
            return other
        f = _as_fraction(other)
        if f is None:
            return None
        return _new_ratfun(f, (1,), (1,)) if f else _ZERO

    def _plus(self, c2, n2, d2):
        """self + c2 * n2/d2."""
        c1, n1, d1 = self._c, self._n, self._d
        if not n2:
            return self
        if not n1:
            return _new_ratfun(c2, n2, d2)
        b1, b2 = c1.denominator, c2.denominator
        g = gcd(b1, b2)
        u, v = c1.numerator * (b2 // g), c2.numerator * (b1 // g)
        scale = Fraction(1, b1 // g * b2)
        if d1 == d2:
            return _ratfun(scale, _zcomb(u, n1, v, n2), d1)
        return _ratfun(scale, _zcomb(u, _zmul(n1, d2), v, _zmul(n2, d1)),
                       _zmul(d1, d2))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o._c, o._n, o._d)

    __radd__ = __add__

    def __neg__(self):
        return _new_ratfun(-self._c, self._n, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(-o._c, o._n, o._d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(-self._c, self._n, self._d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._n or not o._n:
            return _ZERO
        return _ratfun(self._c * o._c, _zmul(self._n, o._n),
                       _zmul(self._d, o._d))

    __rmul__ = __mul__

    def inverse(self):
        if not self._n:
            raise ZeroDivisionError("division by zero in Q(q)")
        return _new_ratfun(1 / self._c, self._d, self._n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        base = self
        if e < 0:
            base, e = self.inverse(), -e
        out = RatFun((1,))
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._n == o._n and self._d == o._d and self._c == o._c

    def __bool__(self):
        return bool(self._n)

    def __hash__(self):
        if self._d == (1,) and len(self._n) <= 1:
            return hash(self._c)  # a constant hashes like its Fraction
        return hash((self._c, self._n, self._d))

    def __repr__(self):
        return "RatFun(%r, %r)" % (list(self.num), list(self.den))

    def __str__(self):
        return scalar_to_string(self)


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
            if isinstance(x, Cyclotomic):
                if x.order == self.order:
                    return x
                raise FieldMismatch("cyclotomic order %d does not match %s"
                                    % (x.order, self))
            f = _as_fraction(x)
            if f is not None:
                return Cyclotomic(self.order, (f,))
        else:
            if isinstance(x, RatFun):
                return x
            f = _as_fraction(x)
            if f is not None:
                return RatFun((f,))
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
        if inner.isdigit():
            return cyclotomic_field(int(inner))
    raise ValueError("unknown field %r" % (text,))


# ---------------------------------------------------------------------------
# parsing
#
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*        '/' binds like '*', left assoc
#   factor := atom ['^' sint]
#   atom   := uint | 'z' | 'q' | '(' expr ')'

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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            if self.pos < len(self.text):
                self.error("expected a number, got %r" % self.text[self.pos])
            self.error("unexpected end of input")
        return int(self.text[start:self.pos])

    def atom(self):
        ch = self.peek()
        if ch.isdigit():
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


# ---------------------------------------------------------------------------
# canonical printing

def _frac_string(f):
    return str(f)  # Fraction prints gcd-reduced with positive denominator


def _term_string(coeff, var, power):
    """One monomial, sign stripped (caller handles joining)."""
    if power == 0:
        return _frac_string(coeff)
    base = var if power == 1 else "%s^%d" % (var, power)
    if coeff == 1:
        return base
    return "%s*%s" % (_frac_string(coeff), base)


def _poly_string(coeffs, var, descending=False):
    terms = [(i, c) for i, c in enumerate(coeffs) if c]
    if not terms:
        return "0"
    if descending:
        terms.reverse()
    parts = []
    for i, c in terms:
        if not parts:
            head = _term_string(abs(c), var, i)
            parts.append("-" + head if c < 0 else head)
        else:
            parts.append(("- " if c < 0 else "+ ") + _term_string(abs(c), var, i))
    return " ".join(parts)


def scalar_to_string(x):
    """Canonical text form; parse_scalar inverts it exactly."""
    f = _as_fraction(x)
    if f is not None:
        return _frac_string(f)
    if isinstance(x, Cyclotomic):
        return _poly_string(x.coeffs, "z")
    if isinstance(x, RatFun):
        num = _poly_string(x.num, "q", descending=True)
        if x.den == (Fraction(1),):
            return num
        den = _poly_string(x.den, "q", descending=True)
        return "(%s)/(%s)" % (num, den)
    raise TypeError("not a scalar: %r" % (x,))
