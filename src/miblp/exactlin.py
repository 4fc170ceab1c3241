"""Exact rational dot product.

The package's one exact linear solver is the fraction-free elimination in
``simplex``; intersection cuts need none (see ``cuts``).
"""
from __future__ import annotations

from fractions import Fraction


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))
