"""Small hand-built algebras, and helpers, shared by the tests."""

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
