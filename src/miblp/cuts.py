"""Bilevel-free sets and intersection cuts.

A bilevel-free set is a polyhedron whose interior contains no bilevel
feasible point.  Two families are built here: from an improving direction w
(any point interiorly inside has w as an improving feasible direction, hence
cannot be bilevel feasible) and from an improving solution y* (any point
interiorly inside sees y* as a strictly better feasible response).  Parsing
scales the follower data to integers, so the right-hand sides are relaxed by
a full unit, which makes the sets as large as possible while still excluding
no integral feasible point.

The intersection cut of a free set with a simplicial cone containing the
feasible region is the hyperplane through the points where the cone's rays
leave the free set.  The cone's facets meet its rays in the identity, so the
cut is Balas's closed form: the sum over rays q of facet_q (z - vertex) /
lambda_q >= 1, with lambda_q the step at which ray q leaves the set.  With
the exact rational cones produced by the simplex module it needs no linear
solve, and it is normalized to coprime integer coefficients, so identical
cuts deduplicate by equality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactlin import dot
from .instance import MiblpInstance, Point
from .simplex import SimplicialCone

INTERIOR_MARGIN = 1e-7


class NotSeparableError(Exception):
    """The cone vertex is not strictly interior to the free set."""


class ConeContainedError(Exception):
    """Every ray stays inside the free set: no feasible point in the cone."""


@dataclass(frozen=True)
class BilevelFreeSet:
    """Row system a_i (x,y) >= b_i over the joint space, interior-free of F."""

    rows: tuple           # tuple of (coeffs over n1+n2, rhs)
    origin: tuple         # ("direction", w) | ("solution", y_star)

    def strictly_contains(self, point: Point) -> bool:
        z = point.joint()
        return all(dot(a, z) > b for a, b in self.rows)


def bfs_from_direction(inst: MiblpInstance, w) -> BilevelFreeSet:
    """Free set of an improving direction: everywhere inside, w is an IFD.

    Rows: the follower rows evaluated at y + w, relaxed; the lower box side
    of y + w, relaxed; and, for coordinates stepping upward, the upper box
    side of y + w (within the box the other coordinates cannot exceed it).
    """
    w = tuple(Fraction(v) for v in getattr(w, "w", w))
    if len(w) != inst.n2:
        raise ValueError("direction length does not match the follower space")
    if dot(inst.d2, w) > -1:
        raise ValueError("not an improving direction (needs d2 w <= -1)")
    if any(v.denominator != 1 for v in w):
        raise ValueError("direction must be integral")
    n1, n2 = inst.n1, inst.n2
    zero = Fraction(0)
    rows = []
    for a, g, b in zip(inst.a2, inst.g2, inst.b2):
        rows.append((tuple(a) + tuple(g), b - 1 - dot(g, w)))
    for j in range(n2):
        coeffs = tuple(zero if i != n1 + j else Fraction(1) for i in range(n1 + n2))
        rows.append((coeffs, inst.lower[n1 + j] - 1 - w[j]))
    for j in range(n2):
        if w[j] > 0:
            coeffs = tuple(zero if i != n1 + j else Fraction(-1) for i in range(n1 + n2))
            rows.append((coeffs, -inst.upper[n1 + j] - 1 + w[j]))
    return BilevelFreeSet(rows=tuple(rows), origin=("direction", w))


def bfs_from_solution(inst: MiblpInstance, y_star) -> BilevelFreeSet:
    """Free set of an improving solution: everywhere inside, y* beats y."""
    y_star = tuple(Fraction(v) for v in y_star)
    if len(y_star) != inst.n2:
        raise ValueError("solution length does not match the follower space")
    if any(v.denominator != 1 for v in y_star):
        raise ValueError("improving solution must satisfy follower integrality")
    for j in range(inst.n2):
        if not inst.lower[inst.n1 + j] <= y_star[j] <= inst.upper[inst.n1 + j]:
            raise ValueError("improving solution must lie inside the follower box")
    zero = Fraction(0)
    rows = [(tuple(zero for _ in range(inst.n1)) + tuple(inst.d2),
             dot(inst.d2, y_star))]
    for a, g, b in zip(inst.a2, inst.g2, inst.b2):
        rows.append((tuple(a) + tuple(zero for _ in range(inst.n2)),
                     b - dot(g, y_star) - 1))
    return BilevelFreeSet(rows=tuple(rows), origin=("solution", y_star))


@dataclass(frozen=True)
class Cut:
    """alpha_x x + alpha_y y >= beta, coefficients coprime integers."""

    alpha_x: tuple
    alpha_y: tuple
    beta: Fraction
    origin: tuple = ()

    def row(self):
        return list(self.alpha_x) + list(self.alpha_y)

    def key(self):
        return (self.alpha_x, self.alpha_y, self.beta)


def cut_violation(cut: Cut, point: Point) -> Fraction:
    """beta minus the cut activity; positive means the point is cut off."""
    return cut.beta - dot(cut.row(), point.joint())


def _normalize(alpha, beta):
    denom = 1
    for v in list(alpha) + [beta]:
        denom = denom * v.denominator // math.gcd(denom, v.denominator)
    ints = [int(v * denom) for v in alpha] + [int(beta * denom)]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1])


def intersection_cut(cone: SimplicialCone, free_set: BilevelFreeSet,
                     n1: int) -> Cut:
    """Hyperplane through the rays' exit points from the free set.

    Raises NotSeparableError when the vertex is not strictly interior (such
    vertices cannot be cut off) and ConeContainedError when no ray ever
    leaves the set, which certifies the cone holds no feasible point.
    """
    v = list(cone.vertex)
    slacks = [dot(coeffs, v) - b for coeffs, b in free_set.rows]
    if min(float(s) for s in slacks) < INTERIOR_MARGIN:
        raise NotSeparableError("cone vertex is not strictly interior to the free set")

    # ray q leaves the set at the step lambda_q where a row it decreases
    # first loses its slack; 1/lambda_q is 0 when the ray never leaves
    inv_lambda = [max([Fraction(0)] + [-dot(coeffs, ray) / slack for (coeffs, _), slack
                                       in zip(free_set.rows, slacks)])
                  for ray in cone.rays]
    if all(u == 0 for u in inv_lambda):
        raise ConeContainedError("free set contains the whole cone")

    alpha = [dot(inv_lambda, column) for column in zip(*cone.facets)]
    beta = 1 + dot(alpha, v)
    alpha, beta = _normalize(alpha, beta)
    return Cut(alpha_x=alpha[:n1], alpha_y=alpha[n1:],
               beta=beta, origin=(free_set.origin, tuple(cone.vertex)))
