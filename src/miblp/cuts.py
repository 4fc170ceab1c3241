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
leave the free set.  Facet p of the cone meets ray q at 0 for p != q, so the
cut is Balas's closed form: the sum over rays q of facet_q (z - vertex) /
(lambda_q facet_q ray_q) >= 1, with lambda_q the step at which ray q leaves
the set.  Free sets, rays and facets are ints and the vertex is scaled to
ints once, so the cut needs no linear solve and no Fraction, and its
coprime integer coefficients deduplicate identical cuts by equality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

from .instance import MiblpInstance, Point
from .simplex import SimplicialCone


class NotSeparableError(Exception):
    """The cone vertex is not strictly interior to the free set."""


class ConeContainedError(Exception):
    """Every ray stays inside the free set: no feasible point in the cone."""


@dataclass(frozen=True)
class BilevelFreeSet:
    """Row system a_i (x,y) >= b_i over the joint space, interior-free of F;
    every a_i and b_i is a Python int."""

    rows: tuple           # tuple of (coeffs over n1+n2, rhs)
    origin: tuple         # ("direction", w) | ("solution", y_star)

    def strictly_contains(self, point: Point) -> bool:
        z = point.joint()
        return all(sum(map(mul, a, z)) > b for a, b in self.rows)


def _integral_vector(v, n: int, what: str) -> tuple:
    v = tuple(v)
    if len(v) != n or any(x != math.floor(x) for x in v):
        raise ValueError(f"{what} must be an integral vector over the follower space")
    return tuple(map(int, v))


def bfs_from_direction(inst: MiblpInstance, w) -> BilevelFreeSet:
    """Free set of an improving direction: everywhere inside, w is an IFD.

    Rows: the follower rows evaluated at y + w, relaxed; the lower box side
    of y + w, relaxed; and, for coordinates stepping upward, the upper box
    side of y + w (within the box the other coordinates cannot exceed it).
    """
    w = _integral_vector(getattr(w, "w", w), inst.n2, "direction")
    if sum(map(mul, inst.step_rows[0], w)) < 1:
        raise ValueError("not an improving direction (needs d2 w <= -1)")
    n1 = inst.n1
    rows = [(coeffs, b - 1 - sum(map(mul, coeffs[n1:], w)))
            for coeffs, b in zip(*inst.follower_ints)]
    units = [tuple(int(i == j) for i in range(inst.num_vars)) for j in range(n1, inst.num_vars)]
    rows += [(e, math.ceil(lo) - 1 - v) for e, lo, v in zip(units, inst.lower[n1:], w)]
    rows += [(tuple(-c for c in e), -math.floor(hi) - 1 + v)
             for e, hi, v in zip(units, inst.upper[n1:], w) if v > 0]
    return BilevelFreeSet(rows=tuple(rows), origin=("direction", w))


def bfs_from_solution(inst: MiblpInstance, y_star) -> BilevelFreeSet:
    """Free set of an improving solution: everywhere inside, y* beats y."""
    y_star = _integral_vector(y_star, inst.n2, "solution")
    for j in range(inst.n2):
        if not inst.lower[inst.n1 + j] <= y_star[j] <= inst.upper[inst.n1 + j]:
            raise ValueError("improving solution must lie inside the follower box")
    d2 = tuple(-v for v in inst.step_rows[0])
    rows = [((0,) * inst.n1 + d2, sum(map(mul, d2, y_star)))]
    for coeffs, b in zip(*inst.follower_ints):
        rows.append((coeffs[:inst.n1] + (0,) * inst.n2,
                     b - sum(map(mul, coeffs[inst.n1:], y_star)) - 1))
    return BilevelFreeSet(rows=tuple(rows), origin=("solution", y_star))


@dataclass(frozen=True)
class Cut:
    """alpha_x x + alpha_y y >= beta, coefficients coprime Python ints, with
    the free set and the cone vertex it was computed from."""

    alpha_x: tuple
    alpha_y: tuple
    beta: int
    free_set: BilevelFreeSet | None = field(default=None, compare=False, repr=False)
    vertex: tuple = field(default=(), compare=False, repr=False)

    def row(self):
        return list(self.alpha_x) + list(self.alpha_y)

    def key(self):
        return (self.alpha_x, self.alpha_y, self.beta)


def cut_violation(cut: Cut, point: Point):
    """beta minus the cut activity; positive means the point is cut off."""
    return cut.beta - sum(map(mul, cut.row(), point.joint()))


def intersection_cut(cone: SimplicialCone, free_set: BilevelFreeSet,
                     n1: int) -> Cut:
    """Hyperplane through the rays' exit points from the free set.

    Raises NotSeparableError when the vertex is not strictly interior (such
    vertices cannot be cut off) and ConeContainedError when no ray ever
    leaves the set, which certifies the cone holds no feasible point.
    """
    d = math.lcm(*(v.denominator for v in cone.vertex))
    vertex = [v.numerator * (d // v.denominator) for v in cone.vertex]
    # d times each row's slack at the vertex
    slacks = [sum(map(mul, coeffs, vertex)) - b * d for coeffs, b in free_set.rows]
    if min(slacks) <= 0:
        raise NotSeparableError("cone vertex is not strictly interior to the free set")

    # ray q leaves the set at the step lambda_q where a row it decreases
    # first loses its slack: 1/lambda_q = d max(-a ray / slack), or 0 when
    # it never leaves, and facet q enters alpha times num_q / den_q =
    # 1 / (d lambda_q facet_q ray_q), exits compared by cross-multiplication
    terms = []
    for ray, facet in zip(cone.rays, cone.facets):
        num, den = 0, 1
        for (coeffs, _), slack in zip(free_set.rows, slacks):
            t = -sum(map(mul, coeffs, ray))
            if t * den > num * slack:
                num, den = t, slack
        if num:
            terms.append((num, den * sum(map(mul, facet, ray)), facet))
    if not terms:
        raise ConeContainedError("free set contains the whole cone")

    # with L the LCM of the den_q and a = sum_q num_q (L / den_q) facet_q,
    # alpha = d a / L, and alpha z >= 1 + alpha vertex times L is d a z >= L + a V
    lcm = math.lcm(*(den for _, den, _ in terms))
    terms = [(num * (lcm // den), facet) for num, den, facet in terms]
    alpha = [sum(f * facet[j] for f, facet in terms) for j in range(len(vertex))]
    row = [d * a for a in alpha] + [lcm + sum(map(mul, alpha, vertex))]
    g = math.gcd(*row)
    row = [v // g for v in row]
    return Cut(alpha_x=tuple(row[:n1]), alpha_y=tuple(row[n1:-1]), beta=row[-1],
               free_set=free_set, vertex=tuple(cone.vertex))
