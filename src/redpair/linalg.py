"""Small exact linear algebra over the rationals (dense, Gaussian elimination)."""

from __future__ import annotations

import operator
from fractions import Fraction

from .weights import to_integers

Matrix = tuple[tuple[Fraction, ...], ...]


def dot(u, v):
    """The sum of the products of the entries of u and v, ints or Fractions."""
    return sum(map(operator.mul, u, v))


def mat_vec(a: Matrix, v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    if a and len(a[0]) != len(v):
        raise ValueError(f"matrix is {len(a)}x{len(a[0])}, vector has length {len(v)}")
    return tuple(dot(row, v) for row in a)


def solve(a: Matrix, b: Matrix) -> Matrix:
    """The exact X with a X = b; raises ValueError on a singular a.

    a and b are scaled by their common denominators Da and Db into
    integers, and fraction-free Gauss-Jordan elimination (Bareiss) runs on
    [Da a | Db b]: every division by the previous pivot is exact, and at
    the end the left block is d times the identity, d = +-det(Da a), and
    the right block is d (Da a)^{-1} Db b.  X is then Da / (Db d) times
    the right block, each entry made a Fraction once.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    if len(b) != n:
        raise ValueError(f"matrix is {n}x{n}, right-hand side has {len(b)} rows")
    left, da = to_integers(a)
    right, db = to_integers(b)
    aug = [x + y for x, y in zip(left, right)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p = top[col]
        for r in range(n):
            if r != col:
                row = aug[r]
                f = row[col]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return tuple(tuple(Fraction(x * da, db * prev) for x in row[n:]) for row in aug)
