"""Small hand-built algebras, and helpers, shared by the tests."""

from fsind.constructors import CoalgebraSpec
from fsind.linalg import Matrix, inverse
from fsind.pivotal import ModuleRep, PivotalAlgebra
from fsind.scalars import RATIONAL


def dense(tag, vectors, ncols):
    """Sparse vectors [(column, value), ...] as dense tuples of length ncols."""
    z = tag.zero()
    return [tuple(dict(v).get(j, z) for j in range(ncols)) for v in vectors]


def conjugate_module(V, P, name=None):
    """Base change: action matrices become P R P^-1."""
    pinv = inverse(P)
    return ModuleRep(name or V.name, V.dim,
                     tuple(P * m * pinv for m in V.action))


def validate_pivotal_by_definition(A):
    """The pivotal axioms by dense products of basis vectors, one triple
    at a time: the reference for pivotal.validate_pivotal, with the same
    messages in the same order."""
    bad = []
    n = A.dim
    basis = [A.basis_vector(i) for i in range(n)]

    for i in range(n):
        if A.multiply(A.unit, basis[i]) != basis[i]:
            bad.append("unit fails on the left at index %d" % i)
        if A.multiply(basis[i], A.unit) != basis[i]:
            bad.append("unit fails on the right at index %d" % i)

    for i in range(n):
        for j in range(n):
            left = A.multiply(basis[i], basis[j])
            for k in range(n):
                if (A.multiply(left, basis[k])
                        != A.multiply(basis[i], A.multiply(basis[j], basis[k]))):
                    bad.append("associativity fails at (%d, %d, %d)" % (i, j, k))

    for i in range(n):
        for j in range(n):
            lhs = A.apply_S(A.multiply(basis[i], basis[j]))
            rhs = A.multiply(A.apply_S(basis[j]), A.apply_S(basis[i]))
            if lhs != rhs:
                bad.append("S is not an anti-map at (%d, %d)" % (i, j))

    sg = A.apply_S(A.g)
    if A.multiply(sg, A.g) != A.unit or A.multiply(A.g, sg) != A.unit:
        bad.append("S(g) is not the inverse of g")
    else:
        for i in range(n):
            lhs = A.apply_S(A.apply_S(basis[i]))
            rhs = A.multiply(A.g, A.multiply(basis[i], sg))
            if lhs != rhs:
                bad.append("S^2 != g(.)g^-1 at index %d" % i)
    return bad


def dual_numbers():
    """k[x]/(x^2) with S = id, g = 1 and the socle trace form."""
    one, zero = RATIONAL.one(), RATIONAL.zero()
    return PivotalAlgebra(
        tag=RATIONAL, dim=2, labels=("1", "x"),
        mult={(0, 0): ((0, one),), (0, 1): ((1, one),), (1, 0): ((1, one),)},
        unit=(one, zero),
        S=Matrix.identity(RATIONAL, 2),
        g=(one, zero),
        trace_form=(zero, one),
        name="k[x]/(x^2)",
    )


def primitive_coalgebra():
    """The coalgebra on 1, x with x primitive: D(x) = 1 (x) x + x (x) 1,
    S(x) = -x and gamma = eps."""
    one, zero = RATIONAL.one(), RATIONAL.zero()
    return CoalgebraSpec(
        tag=RATIONAL, dim=2, labels=("1", "x"),
        comult={0: ((0, 0, one),), 1: ((0, 1, one), (1, 0, one))},
        counit=(one, zero),
        S=Matrix(RATIONAL, [[one, zero], [zero, -one]]),
        gamma=(one, zero),
        name="primitive",
    )


def upper_triangular():
    """T_2(Q) on the basis e11, e12, e22, with S the transpose along the
    antidiagonal (e11 <-> e22, e12 fixed), so S^2 = id, and g = 1.

    It is not semisimple: e12 spans its radical."""
    one, zero = RATIONAL.one(), RATIONAL.zero()
    swap = Matrix(RATIONAL, [[zero, zero, one],
                             [zero, one, zero],
                             [one, zero, zero]])
    return PivotalAlgebra(
        tag=RATIONAL, dim=3, labels=("e11", "e12", "e22"),
        # e11 e11 = e11, e11 e12 = e12, e12 e22 = e12, e22 e22 = e22
        mult={(0, 0): ((0, one),), (0, 1): ((1, one),),
              (1, 2): ((1, one),), (2, 2): ((2, one),)},
        unit=(one, zero, one),
        S=swap,
        g=(one, zero, one),
        name="T2(Q)",
    )


def upper_triangular_natural():
    """The natural 2-dimensional module of upper_triangular(): e_ij acts
    as the matrix unit E_ij. End = Q, but it is not simple: Q e_1 is a
    submodule."""
    one, zero = RATIONAL.one(), RATIONAL.zero()

    def unit(r, c):
        return Matrix(RATIONAL, [[one if (i, j) == (r, c) else zero
                                  for j in range(2)] for i in range(2)])

    return ModuleRep("natural", 2, (unit(0, 0), unit(0, 1), unit(1, 1)))
