"""Builders for the concrete inputs: group algebras from Cayley tables,
group-like algebras from association schemes, pivotal duals of copivotal
coalgebras, and the builtin example catalog.

Everything a builder hands back is already in the canonical pivotal-algebra
shape used by the rest of the package, with whatever optional data the
construction provides for free: group algebras get the group-like
comultiplication, the normalized integral and the identity-coefficient trace
form; schemes get the delta-at-0 trace form and the Doi star/valency data.

A group or scheme constructor checks its input (the Cayley table, the relation
axioms), and those checks imply the pivotal axioms of what it builds. A
group algebra also hands over its separability idempotent
E = (1/|G|) sum_g g^-1 (x) g, which the table's checks prove separable, so
formulas.hopf_integral_idempotent returns it without re-proving it.
dualize_coalgebra checks nothing: C is copivotal exactly when its dual
passes pivotal.validate_pivotal, the one checker of the pivotal axioms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .formulas import _attach_idempotent
from .linalg import _transpose
from .pivotal import (
    GroupLikeData,
    ModuleRep,
    PivotalAlgebra,
    _accumulate,
    _OneViolation,
)
from .scalars import FieldTag, scalar_to_string


class InvalidCayleyTable(_OneViolation):
    pass


class NotAutomorphism(_OneViolation):
    pass


class NotInvolutive(_OneViolation):
    pass


class SchemeFormatError(Exception):
    pass


class NotAScheme(_OneViolation):
    pass


class NotSchemeInvolution(_OneViolation):
    pass


# ---------------------------------------------------------------------------
# groups

@dataclass(frozen=True)
class CayleyTable:
    """A group table; identity, inverses and generators are found once."""

    table: tuple  # table[i][j] = index of element i * element j

    @property
    def order(self):
        return len(self.table)

    def identity(self):
        return self._identity

    def inverse(self, i):
        j = self._inverses[i]
        if j is None:
            raise InvalidCayleyTable("element %d has no inverse" % i)
        return j

    def generators(self):
        return self._generators

    @cached_property
    def _identity(self):
        n, t = self.order, self.table
        for e in range(n):
            if all(t[e][j] == j and t[j][e] == j for j in range(n)):
                return e
        raise InvalidCayleyTable("no two-sided identity")

    @cached_property
    def _inverses(self):
        """The first two-sided inverse of each element, or None."""
        n, e, t = self.order, self._identity, self.table
        return [next((j for j in range(n) if t[i][j] == e and t[j][i] == e),
                     None) for i in range(n)]

    @cached_property
    def _generators(self):
        """Each element outside the subgroup the earlier ones generate: the
        basis indices PivotalAlgebra's linear closure picks on kG, since
        group elements generate the span of their subgroup."""
        gens, sub = [], {self._identity}
        for i in range(self.order):
            if i not in sub:
                gens.append(i)
                grown = {i}
                while not grown <= sub:
                    sub |= grown
                    grown = {self.table[h][g] for h in sub for g in gens}
        return tuple(gens)


def validate_cayley_table(ct: CayleyTable):
    """Violations of the group axioms by the table, at most one of them an
    associativity failure: the first triple (i, j, k) in loop order.

    Associativity is checked by Light's test, (x a) y = x (a y) for the
    generators a only: the a that pass are closed under the product, and
    generators() reaches every element as a product of generators. When the
    test fails, the full loop names the first failing triple.
    """
    bad = []
    n = ct.order
    for i, row in enumerate(ct.table):
        if len(row) != n:
            return ["row %d has length %d, expected %d" % (i, len(row), n)]
        if any(not isinstance(x, int) or not 0 <= x < n for x in row):
            return ["row %d contains an out-of-range entry" % i]
    for i in range(n):
        if sorted(ct.table[i]) != list(range(n)):
            bad.append("row %d is not a permutation" % i)
        if sorted(ct.table[j][i] for j in range(n)) != list(range(n)):
            bad.append("column %d is not a permutation" % i)
    try:
        ct.identity()
    except InvalidCayleyTable:
        bad.append("no two-sided identity")
        return bad
    t = ct.table
    if all(t[t[i][a]][k] == t[i][t[a][k]] for a in ct.generators()
           for i in range(n) for k in range(n)):
        return bad
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if ct.table[ct.table[i][j]][k] != ct.table[i][ct.table[j][k]]:
                    bad.append("associativity fails at (%d, %d, %d)" % (i, j, k))
                    return bad
    return bad


def perm_columns(tag: FieldTag, perm):
    """Sparse columns of the map sending b_j to b_perm[j]."""
    return [{i: tag.one()} for i in perm]


def group_algebra(ct: CayleyTable, tag: FieldTag, labels=None, name="kG"):
    bad = validate_cayley_table(ct)
    if bad:
        raise InvalidCayleyTable(bad[0])
    n = ct.order
    e = ct.identity()
    one = tag.one()
    labels = tuple(labels) if labels else tuple("g%d" % i for i in range(n))
    mult = {(i, j): ((ct.table[i][j], one),) for i in range(n) for j in range(n)}
    z = tag.zero()
    unit = {e: one}
    nth = tag.coerce(Fraction(1, n))
    A = PivotalAlgebra(
        tag=tag,
        dim=n,
        labels=labels,
        mult=mult,
        unit=unit,
        S=perm_columns(tag, ct._inverses),
        g=unit,
        comult={k: ((k, k, one),) for k in range(n)},
        counit=(one,) * n,
        integral={i: nth for i in range(n)},
        trace_form=tuple(one if i == e else z for i in range(n)),
        name=name,
        generators=ct.generators(),
    )
    # E = (1/n) sum_j g_j^-1 (x) g_j, terms in the order of
    # hopf_integral_idempotent: the table being a group proves it separable
    return _attach_idempotent(
        A, [({ct._inverses[j]: nth}, {j: one}) for j in range(n)])


def group_involution(ct: CayleyTable, perm, tag: FieldTag):
    """Validated involutive automorphism, as sparse columns on the group
    algebra."""
    n = ct.order
    if sorted(perm) != list(range(n)):
        raise NotAutomorphism("not a permutation of the elements")
    for i in range(n):
        if perm[perm[i]] != i:
            raise NotInvolutive("square is not the identity at %d" % i)
    for i in range(n):
        for j in range(n):
            if perm[ct.table[i][j]] != ct.table[perm[i]][perm[j]]:
                raise NotAutomorphism(
                    "multiplication not preserved at (%d, %d)" % (i, j))
    return perm_columns(tag, perm)


# a few concrete tables ------------------------------------------------------

def cyclic_table(n):
    return CayleyTable(tuple(tuple((i + j) % n for j in range(n))
                             for i in range(n)))


def _compose(p, q):
    """The permutation p o q, x -> p[q[x]]."""
    return tuple(p[x] for x in q)


def _perm_group_table(perms):
    index = {p: i for i, p in enumerate(perms)}
    return CayleyTable(tuple(tuple(index[_compose(p, q)] for q in perms)
                             for p in perms))


def s3_table():
    """Elements ordered e, r, r^2, s, sr, sr^2 (r a 3-cycle, s a swap)."""
    e = (0, 1, 2)
    r = (1, 2, 0)
    r2 = (2, 0, 1)
    s = (1, 0, 2)
    return _perm_group_table([e, r, r2, s, _compose(s, r), _compose(s, r2)])


def d4_table():
    """Symmetries of the square: e, r, r^2, r^3, s, sr, sr^2, sr^3."""
    e = (0, 1, 2, 3)
    r = (1, 2, 3, 0)
    s = (0, 3, 2, 1)
    r2 = _compose(r, r)
    r3 = _compose(r, r2)
    return _perm_group_table([e, r, r2, r3, s, _compose(s, r),
                              _compose(s, r2), _compose(s, r3)])


def q8_table():
    """Quaternions ordered 1, -1, i, -i, j, -j, k, -k."""
    # element = (sign, axis) with axes 0 = 1, 1 = i, 2 = j, 3 = k
    elems = [(1, 0), (-1, 0), (1, 1), (-1, 1),
             (1, 2), (-1, 2), (1, 3), (-1, 3)]
    index = {x: i for i, x in enumerate(elems)}

    def mul(a, b):
        sa, xa = a
        sb, xb = b
        if xa == 0:
            return (sa * sb, xb)
        if xb == 0:
            return (sa * sb, xa)
        if xa == xb:
            return (-sa * sb, 0)
        # cyclic rule i*j = k and the two reversals
        third = 6 - xa - xb
        sign = 1 if (xa, xb) in ((1, 2), (2, 3), (3, 1)) else -1
        return (sa * sb * sign, third)

    return CayleyTable(tuple(tuple(index[mul(a, b)] for b in elems)
                             for a in elems))


Q8_LABELS = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
S3_LABELS = ("e", "r", "r2", "s", "sr", "sr2")
D4_LABELS = ("e", "r", "r2", "r3", "s", "sr", "sr2", "sr3")


# ---------------------------------------------------------------------------
# association schemes

@dataclass(frozen=True)
class SchemeSpec:
    size: int
    rank: int
    relations: tuple  # size x size matrix of relation indices


def _is_uint(token):
    """True for a string of ASCII digits 0-9 (int() also takes others)."""
    return token.isascii() and token.isdigit()


def parse_scheme_text(text):
    """Strict "n r" header followed by an n x n relation matrix."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SchemeFormatError("empty scheme file")
    head = lines[0].split()
    if len(head) != 2 or not all(_is_uint(t) for t in head):
        raise SchemeFormatError("header must be two integers 'n r'")
    n, r = int(head[0]), int(head[1])
    if n < 1 or r < 1:
        raise SchemeFormatError("header values must be positive")
    if len(lines) != n + 1:
        raise SchemeFormatError("expected %d matrix rows, found %d"
                                % (n, len(lines) - 1))
    rows = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != n:
            raise SchemeFormatError("matrix row has %d entries, expected %d"
                                    % (len(toks), n))
        if not all(_is_uint(t) for t in toks):
            raise SchemeFormatError("matrix entries must be non-negative integers")
        row = tuple(int(t) for t in toks)
        if any(x >= r for x in row):
            raise SchemeFormatError("relation index out of range (rank %d)" % r)
        rows.append(row)
    return SchemeSpec(size=n, rank=r, relations=tuple(rows))


def scheme_intersection_numbers(spec: SchemeSpec):
    """(star, valencies, p) with the usual scheme checks; p[i][j][k]."""
    n, r, rel = spec.size, spec.rank, spec.relations
    for x in range(n):
        for y in range(n):
            if (rel[x][y] == 0) != (x == y):
                raise NotAScheme("relation 0 must be exactly the diagonal"
                                 " (fails at (%d, %d))" % (x, y))
    seen = [False] * r
    for x in range(n):
        for y in range(n):
            seen[rel[x][y]] = True
    for i in range(r):
        if not seen[i]:
            raise NotAScheme("relation %d never occurs" % i)

    star = [None] * r
    for x in range(n):
        for y in range(n):
            i, it = rel[x][y], rel[y][x]
            if star[i] is None:
                star[i] = it
            elif star[i] != it:
                raise NotAScheme("transpose of relation %d is inconsistent" % i)
    star = tuple(star)

    val = [None] * r
    for x in range(n):
        counts = [0] * r
        for y in range(n):
            counts[rel[x][y]] += 1
        for i in range(r):
            if val[i] is None:
                val[i] = counts[i]
            elif val[i] != counts[i]:
                raise NotAScheme("valency of relation %d is not constant" % i)
    val = tuple(val)

    p = [[[None] * r for _ in range(r)] for _ in range(r)]
    for x in range(n):
        for y in range(n):
            k = rel[x][y]
            counts = [[0] * r for _ in range(r)]
            for z in range(n):
                counts[rel[x][z]][rel[z][y]] += 1
            for i in range(r):
                for j in range(r):
                    if p[i][j][k] is None:
                        p[i][j][k] = counts[i][j]
                    elif p[i][j][k] != counts[i][j]:
                        raise NotAScheme(
                            "intersection number p(%d,%d;%d) is not constant"
                            % (i, j, k))
    return star, val, p


def scheme_to_grouplike(spec: SchemeSpec, tag: FieldTag, name="scheme"):
    """Adjacency algebra with S(b_i) = b_{i*}, g = 1, trace form delta_0.

    The valencies play the role of the group-like character eps.
    """
    star, val, p = scheme_intersection_numbers(spec)
    r = spec.rank
    # The relation axioms checked there imply the Doi conditions:
    # k_i >= 1, as R_i occurs and each valency is constant;
    # k_i = k_{i*}, as both count the pairs of R_i;
    # p(i,j;k) = p(j*,i*;k*), as (y, x) counts the same points z as (x, y);
    # p(i,j;0) = delta(i,j*) k_i, as z counts iff (x, z) is in R_i and R_{j*}.
    mult = {}
    for i in range(r):
        for j in range(r):
            entries = tuple((k, tag.coerce(p[i][j][k]))
                            for k in range(r) if p[i][j][k])
            mult[(i, j)] = entries
    z, o = tag.zero(), tag.one()
    unit = {0: o}
    return PivotalAlgebra(
        tag=tag,
        dim=r,
        labels=tuple("R%d" % i for i in range(r)),
        mult=mult,
        unit=unit,
        S=perm_columns(tag, star),
        g=unit,
        trace_form=tuple(o if i == 0 else z for i in range(r)),
        grouplike=GroupLikeData(star=star,
                                eps=tuple(tag.coerce(v) for v in val)),
        name=name,
    )


def scheme_standard_module(spec: SchemeSpec, tag: FieldTag, name="standard"):
    """The adjacency matrices acting on the underlying point set."""
    o = tag.one()
    return ModuleRep(name, spec.size, tuple(
        [{y: o for y, rel in enumerate(row) if rel == i}
         for row in spec.relations] for i in range(spec.rank)), tag)


def scheme_involution(A: PivotalAlgebra, perm):
    """Involution of relation indices compatible with star and the p's."""
    if A.grouplike is None:
        raise NotSchemeInvolution("algebra carries no scheme structure")
    r = A.dim
    if sorted(perm) != list(range(r)):
        raise NotSchemeInvolution("not a permutation of the relations")
    for i in range(r):
        if perm[perm[i]] != i:
            raise NotInvolutive("square is not the identity at %d" % i)
    star = A.grouplike.star
    for i in range(r):
        if perm[star[i]] != star[perm[i]]:
            raise NotSchemeInvolution("does not commute with star at %d" % i)
    coeffs = {(i, j): dict(A.mult.get((i, j), ())) for i in range(r)
              for j in range(r)}
    zero = A.tag.zero()
    for i in range(r):
        for j in range(r):
            for k in range(r):
                lhs = coeffs[(i, j)].get(k, zero)
                rhs = coeffs[(perm[i], perm[j])].get(perm[k], zero)
                if lhs != rhs:
                    raise NotSchemeInvolution(
                        "p(i,j;k) not preserved at (%d, %d, %d)" % (i, j, k))
    return perm_columns(A.tag, perm)


# ---------------------------------------------------------------------------
# copivotal coalgebras

@dataclass
class CoalgebraSpec:
    tag: FieldTag
    dim: int
    labels: tuple
    comult: dict    # k -> ((i, j, c), ...) meaning D(b_k) = sum c b_i x b_j
    counit: dict  # the unit of C*, a sparse element
    S: list  # S(b_i) per basis index i, a sparse element
    gamma: dict  # the pivotal element of C*, a sparse element
    name: str = "C"


def dualize_coalgebra(spec: CoalgebraSpec):
    """The dual algebra (C*, S*, gamma).

    Multiplication constants are the comultiplication constants read
    sideways, the unit is the counit, the pivotal element is gamma, and
    the columns of S* are the rows of S. No
    check is made here: C is copivotal exactly when C* passes
    validate_pivotal, which is how the loader checks a coalgebra section.
    """
    mult = {}
    for k in range(spec.dim):
        for i, j, c in spec.comult.get(k, ()):
            mult.setdefault((i, j), []).append((k, c))
    mult = {ij: tuple(sorted(ks, key=lambda t: t[0])) for ij, ks in mult.items()}
    return PivotalAlgebra(
        tag=spec.tag,
        dim=spec.dim,
        labels=spec.labels,
        mult=mult,
        unit=spec.counit,
        S=_transpose(spec.S, spec.dim),
        g=spec.gamma,
        name="dual(%s)" % spec.name,
    )


def coalgebra_regular_module(spec: CoalgebraSpec, name="coreg"):
    """C as a module over its dual via f . c = c_1 f(c_2): column k of
    R(b_i) sums c b_s over the terms c b_s x b_i of D(b_k)."""
    n = spec.dim
    return ModuleRep(name, n, tuple(_transpose(
        [_accumulate((s, c) for s, t, c in spec.comult.get(k, ()) if t == i)
         for k in range(n)], n) for i in range(n)), spec.tag)


def coalgebra_regular_indicator(spec: CoalgebraSpec):
    """Trace of c -> S(c_1) gamma(c_2), the regular indicator of the dual."""
    acc = spec.tag.zero()
    for k in range(spec.dim):
        for i, j, c in spec.comult.get(k, ()):
            w, g = spec.S[i].get(k), spec.gamma.get(j)
            if w and g:
                acc = acc + c * g * w
    return acc


def group_like_coalgebra(ct: CayleyTable, tag: FieldTag, labels=None,
                         name="kG-coalg"):
    """kG as a coalgebra: every basis element group-like, gamma = counit."""
    bad = validate_cayley_table(ct)
    if bad:
        raise InvalidCayleyTable(bad[0])
    n = ct.order
    one = tag.one()
    eps = {i: one for i in range(n)}
    return CoalgebraSpec(
        tag=tag,
        dim=n,
        labels=tuple(labels) if labels else tuple("g%d" % i for i in range(n)),
        comult={k: ((k, k, one),) for k in range(n)},
        counit=eps,
        S=perm_columns(tag, ct._inverses),
        gamma=eps,
        name=name,
    )


# ---------------------------------------------------------------------------
# builtin catalog
#
# Builtins are emitted as plain input documents (JSON-ready dicts with
# scalar strings) and go through the same loader as user files.

def _one_dim(values):
    return [[[scalar_to_string(v)]] for v in values]


def _cyclic_char_doc(n, field):
    """Cyclic group document with all n characters chi_k(g^m) = z^(k m)."""
    from .scalars import field_tag_from_string

    tag = field_tag_from_string(field)
    if tag.kind == "cyclotomic":
        zeta = tag.generator()
    else:
        zeta = tag.coerce(-1) if n == 2 else tag.one()
    labels = ["e"] + ["g" if k == 1 else "g%d" % k for k in range(1, n)]
    modules = []
    for k in range(n):
        name = "triv" if k == 0 else ("sign" if (n == 2 and k == 1)
                                      else "chi%d" % k)
        modules.append({
            "name": name,
            "dim": 1,
            "action": _one_dim([zeta ** (k * m) for m in range(n)]),
        })
    return {
        "field": field,
        "group": {"labels": labels,
                  "table": [list(r) for r in cyclic_table(n).table]},
        "modules": modules,
        "simples": [m["name"] for m in modules],
    }


def _s3_doc():
    i2 = [[1, 0], [0, 1]]
    r = [[0, -1], [1, -1]]
    r2 = [[-1, 1], [-1, 0]]
    s = [[0, 1], [1, 0]]
    sr = [[1, -1], [0, -1]]
    sr2 = [[-1, 0], [-1, 1]]
    std = [[[str(x) for x in row] for row in m]
           for m in (i2, r, r2, s, sr, sr2)]
    return {
        "field": "rational",
        "group": {"labels": list(S3_LABELS),
                  "table": [list(r_) for r_ in s3_table().table]},
        "modules": [
            {"name": "triv", "dim": 1, "action": _one_dim([Fraction(1)] * 6)},
            {"name": "sign", "dim": 1,
             "action": _one_dim([Fraction(x) for x in (1, 1, 1, -1, -1, -1)])},
            {"name": "std", "dim": 2, "action": std},
        ],
        "simples": ["triv", "sign", "std"],
    }


def _d4_doc():
    i2 = [[1, 0], [0, 1]]
    r = [[0, -1], [1, 0]]
    r2 = [[-1, 0], [0, -1]]
    r3 = [[0, 1], [-1, 0]]
    s = [[1, 0], [0, -1]]
    sr = [[0, -1], [-1, 0]]
    sr2 = [[-1, 0], [0, 1]]
    sr3 = [[0, 1], [1, 0]]
    twodim = [[[str(x) for x in row] for row in m]
              for m in (i2, r, r2, r3, s, sr, sr2, sr3)]

    def lin(a, b):
        # r -> a, s -> b on e, r, r2, r3, s, sr, sr2, sr3
        return _one_dim([Fraction(v) for v in
                         (1, a, 1, a, b, a * b, b, a * b)])

    return {
        "field": "rational",
        "group": {"labels": list(D4_LABELS),
                  "table": [list(r_) for r_ in d4_table().table]},
        "modules": [
            {"name": "triv", "dim": 1, "action": lin(1, 1)},
            {"name": "sgn-s", "dim": 1, "action": lin(1, -1)},
            {"name": "sgn-r", "dim": 1, "action": lin(-1, 1)},
            {"name": "sgn-rs", "dim": 1, "action": lin(-1, -1)},
            {"name": "twodim", "dim": 2, "action": twodim},
        ],
        "simples": ["triv", "sgn-s", "sgn-r", "sgn-rs", "twodim"],
    }


def _q8_doc():
    z = "z"
    nz = "-z"
    two = [
        [["1", "0"], ["0", "1"]],       # 1
        [["-1", "0"], ["0", "-1"]],     # -1
        [[z, "0"], ["0", nz]],          # i
        [[nz, "0"], ["0", z]],          # -i
        [["0", "-1"], ["1", "0"]],      # j
        [["0", "1"], ["-1", "0"]],      # -j
        [["0", nz], [nz, "0"]],         # k
        [["0", z], [z, "0"]],           # -k
    ]

    def lin(a, b):
        # i -> a, j -> b on 1, -1, i, -i, j, -j, k, -k
        return _one_dim([Fraction(v) for v in
                         (1, 1, a, a, b, b, a * b, a * b)])

    return {
        "field": "cyclotomic(4)",
        "group": {"labels": list(Q8_LABELS),
                  "table": [list(r_) for r_ in q8_table().table]},
        "modules": [
            {"name": "triv", "dim": 1, "action": lin(1, 1)},
            {"name": "chi-i", "dim": 1, "action": lin(1, -1)},
            {"name": "chi-j", "dim": 1, "action": lin(-1, 1)},
            {"name": "chi-k", "dim": 1, "action": lin(-1, -1)},
            {"name": "twodim", "dim": 2, "action": two},
        ],
        "simples": ["triv", "chi-i", "chi-j", "chi-k", "twodim"],
    }


def _k3_scheme_doc():
    rel = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    return {
        "field": "rational",
        "scheme": {"size": 3, "relations": rel},
        "modules": [
            {"name": "valency", "dim": 1,
             "action": _one_dim([Fraction(1), Fraction(2)])},
            {"name": "chi1", "dim": 1,
             "action": _one_dim([Fraction(1), Fraction(-1)])},
        ],
    }


def _c4_cycle_scheme_doc():
    rel = [[(x - y) % 4 if (x - y) % 4 <= 2 else (y - x) % 4
            for y in range(4)] for x in range(4)]
    return {
        "field": "rational",
        "scheme": {"size": 4, "relations": rel},
        "modules": [
            {"name": "valency", "dim": 1,
             "action": _one_dim([Fraction(v) for v in (1, 2, 1)])},
            {"name": "chi1", "dim": 1,
             "action": _one_dim([Fraction(v) for v in (1, -2, 1)])},
            {"name": "chi2", "dim": 1,
             "action": _one_dim([Fraction(v) for v in (1, 0, -1)])},
        ],
    }


def _s3_grouplike_doc():
    ct = s3_table()
    n = 6
    # thin scheme of the group: relation index of (x, y) is x^-1 y
    inv = ct._inverses
    rel = [[ct.table[inv[x]][y] for y in range(n)] for x in range(n)]
    # conjugation by the swap s is an involutive scheme symmetry
    s_idx = 3
    conj = [ct.table[ct.table[s_idx][i]][inv[s_idx]] for i in range(n)]
    return {
        "field": "rational",
        "scheme": {"size": n, "relations": [list(r) for r in rel]},
        # the standard module: relation i acts by its adjacency matrix
        "modules": [{"name": "standard", "dim": n, "action": [
            [["1" if r == i else "0" for r in row] for row in rel]
            for i in range(n)]}],
        "involutions": [{"name": "conj", "perm": conj}],
    }


def _coalg_doc(n):
    ct = cyclic_table(n)
    inv = ct._inverses
    labels = ["e"] + ["g" if k == 1 else "g%d" % k for k in range(1, n)]
    s_rows = [["1" if inv[j] == i else "0" for j in range(n)]
              for i in range(n)]
    return {
        "field": "rational",
        "coalgebra": {
            "labels": labels,
            "comult": [[k, k, k, "1"] for k in range(n)],
            "counit": ["1"] * n,
            "S": s_rows,
            "gamma": ["1"] * n,
        },
    }


_BUILTINS = {
    "C2": ("cyclic group of order 2 over Q, both characters",
           lambda: _cyclic_char_doc(2, "rational")),
    "C3": ("cyclic group of order 3 over Q(z_3), all characters",
           lambda: _cyclic_char_doc(3, "cyclotomic(3)")),
    "C3-inv": ("C3 with the inversion involution attached",
               lambda: _c3_inv_doc()),
    "C4": ("cyclic group of order 4 over Q(i) with inversion involution",
           lambda: _c4_doc()),
    "C6": ("cyclic group of order 6 over Q(z_6), all characters",
           lambda: _cyclic_char_doc(6, "cyclotomic(6)")),
    "S3": ("symmetric group S3 over Q, all three simple modules",
           _s3_doc),
    "D4": ("dihedral group of order 8 over Q, all five simple modules",
           _d4_doc),
    "Q8": ("quaternion group over Q(i); the 2-dim simple has indicator -1",
           _q8_doc),
    "S3-grouplike": ("S3 as a thin association scheme on 6 points",
                     _s3_grouplike_doc),
    "scheme-K3": ("rank-2 scheme of the complete graph on 3 points",
                  _k3_scheme_doc),
    "scheme-C4-cycle": ("rank-3 distance scheme of the 4-cycle",
                        _c4_cycle_scheme_doc),
    "coalg-C2": ("kC2 as a copivotal coalgebra", lambda: _coalg_doc(2)),
    "coalg-C3": ("kC3 as a copivotal coalgebra", lambda: _coalg_doc(3)),
    "coalg-C4": ("kC4 as a copivotal coalgebra", lambda: _coalg_doc(4)),
}


def _c3_inv_doc():
    doc = _cyclic_char_doc(3, "cyclotomic(3)")
    doc["involutions"] = [{"name": "inv", "perm": [0, 2, 1]}]
    return doc


def _c4_doc():
    doc = _cyclic_char_doc(4, "cyclotomic(4)")
    doc["involutions"] = [{"name": "inv", "perm": [0, 3, 2, 1]}]
    return doc


def builtin_names():
    return list(_BUILTINS)


def builtin_description(name):
    return _BUILTINS[name][0]


def builtin_document(name):
    """A fresh input-document dict for the named builtin."""
    if name not in _BUILTINS:
        matches = [k for k in _BUILTINS if k.lower() == name.lower()]
        if not matches:
            raise KeyError("no builtin named %r (see the catalog)" % name)
        name = matches[0]
    doc = _BUILTINS[name][1]()
    return {"name": name, "description": _BUILTINS[name][0], **doc}
