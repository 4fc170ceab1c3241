"""Small dense linear algebra routines over exact rationals.

Everything here works on plain lists of ``fractions.Fraction``.  Sizes are
tiny (a handful of variables), so Gaussian elimination with simple partial
pivoting by magnitude is entirely adequate.
"""
from __future__ import annotations

from fractions import Fraction


def solve_vector(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve ``A x = b`` exactly for square A; None when A is singular."""
    n = len(matrix)
    # augmented working copy
    work = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = None
        best = Fraction(0)
        for r in range(col, n):
            mag = abs(work[r][col])
            if mag > best:
                best = mag
                piv = r
        if piv is None:
            return None
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
        inv = Fraction(1) / work[col][col]
        row = work[col]
        for j in range(col, n + 1):
            row[j] *= inv
        for r in range(n):
            if r == col:
                continue
            f = work[r][col]
            if f:
                other = work[r]
                for j in range(col, n + 1):
                    other[j] -= f * row[j]
    return [work[i][n] for i in range(n)]


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))
