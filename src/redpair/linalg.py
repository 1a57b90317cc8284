"""Small exact linear algebra over the rationals (dense, Gaussian elimination)."""

from __future__ import annotations

import operator
from fractions import Fraction

from .weights import from_integers, to_integers

Matrix = tuple[tuple[Fraction, ...], ...]


def dot(u, v):
    """The sum of the products of the entries of u and v, ints or Fractions."""
    return sum(map(operator.mul, u, v))


def mat_vec(a: Matrix, v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    if a and len(a[0]) != len(v):
        raise ValueError(f"matrix is {len(a)}x{len(a[0])}, vector has length {len(v)}")
    return tuple(dot(row, v) for row in a)


def solve(a: Matrix, b: Matrix) -> Matrix:
    """The exact X with a X = b; raises ValueError on a singular a."""
    return from_integers(*solve_integers(a, b))


def solve_integers(a: Matrix, b: Matrix) -> tuple[list[list[int]], int]:
    """``solve`` as int rows over one denominator, and that denominator: exact
    (Bareiss) elimination on [Da a | Db b], a and b scaled into ints, ends in
    [d id | d (Da a)^{-1} Db b], d = +-det(Da a), and X is Da / (Db d) times its right block."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    if len(b) != n:
        raise ValueError(f"matrix is {n}x{n}, right-hand side has {len(b)} rows")
    (left, da), (right, db) = to_integers(a), to_integers(b)
    aug, prev = [x + y for x, y in zip(left, right)], 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top, p = aug[col], aug[col][col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(aug[r], top)]
        prev = p
    return [[x * da for x in row[n:]] for row in aug], db * prev
