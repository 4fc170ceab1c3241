"""Ground-truth enumeration over integer grids.

Everything here is exhaustive search in exact arithmetic with no reliance on
the simplex, MILP, or oracle modules, so agreement tests against those modules
are meaningful.  One routine, ``follower_slices``, enumerates the follower's
slice at each leader point, in ints; every other enumeration here and in
``kopt`` reads it.  A grid over ``ENUMERATION_BUDGET`` points is refused.

Reaction sets follow the optimistic convention: the follower's value function
is minimized over the follower-feasible slice (follower rows plus the y box),
and a point of S is bilevel feasible when its follower value attains that
minimum.  Ties are all kept; the leader objective only breaks them in
``optimal_by_enumeration``.  Instances are pure-integer, except that
``bilevel_points`` and ``optimal_by_enumeration`` also take one continuous
leader variable, which parsing keeps out of the follower rows.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .instance import MiblpInstance, Point, dot

ENUMERATION_BUDGET = 10_000_000


class EnumerationBudgetError(Exception):
    """The integer grid exceeds the enumeration budget."""


def _grid(lower, upper, columns):
    """Integer tuples over the listed columns of the box, in grid order."""
    ranges, total = [], 1
    for j in columns:
        if upper[j] is None:
            raise EnumerationBudgetError(f"variable {j} is unbounded above; cannot enumerate")
        ranges.append(range(math.ceil(lower[j]), math.floor(upper[j]) + 1))
        total *= len(ranges[-1])
        if total > ENUMERATION_BUDGET:
            raise EnumerationBudgetError(
                f"grid of {total}+ points exceeds budget {ENUMERATION_BUDGET}")
    return itertools.product(*ranges)


def _require_pure_integer(inst: MiblpInstance):
    if not inst.is_pure_integer():
        raise ValueError("enumeration requires a pure-integer instance")


def check_enumeration_budget(inst: MiblpInstance):
    """Refuse a joint grid of the integer variables over budget before any
    scanning starts."""
    _grid(inst.lower, inst.upper, inst.integer_indices())


def leader_grid(inst: MiblpInstance, lower=None, upper=None):
    """All integer leader parts inside the x box, the instance's by default."""
    grid = _grid(lower or inst.lower, upper or inst.upper, range(inst.r1))
    return (tuple(map(Fraction, x)) for x in grid)


def follower_grid(inst: MiblpInstance):
    grid = _grid(inst.lower, inst.upper, range(inst.n1, inst.num_vars))
    return (tuple(map(Fraction, y)) for y in grid)


def follower_slices(inst: MiblpInstance, xs):
    """Yield (x, [(y, d2 . y), ...]) for each leader point x of ``xs``: the
    integer points y of the follower-feasible slice S(x), in grid order, with
    their follower values as ints.  The grid's activities G2 y and values are
    computed once per call from the instance's integer follower data, and y
    is in S(x) when G2 y >= ceil(b2 - A2 x) row by row, which is exact for
    any rational x, as the activities are ints.  Only x's leading coordinates
    enter A2 x, so x may stop before a continuous leader."""
    (rows, b2), (neg_d2, *g2) = inst.follower_ints, inst.step_rows
    entries = [(tuple(map(Fraction, y)), -sum(a * v for a, v in zip(neg_d2, y)),
                [sum(a * v for a, v in zip(g, y)) for g in g2])
               for y in _grid(inst.lower, inst.upper, range(inst.n1, inst.num_vars))]
    for x in xs:
        points = entries
        for i, (row, b) in enumerate(zip(rows, b2)):
            need = math.ceil(b - sum(a * v for a, v in zip(row, x)))
            points = [e for e in points if e[2][i] >= need]
        yield x, [(y, v) for y, v, _ in points]


def follower_points(inst: MiblpInstance, x) -> list:
    """Integer points of the follower-feasible slice S(x), in grid order."""
    _require_pure_integer(inst)
    return [y for y, _ in next(follower_slices(inst, [x]))[1]]


def phi_by_enumeration(inst: MiblpInstance, x) -> Fraction | None:
    """Follower value function at x; None encodes +infinity (empty slice)."""
    _require_pure_integer(inst)
    phi = min((v for _, v in next(follower_slices(inst, [x]))[1]), default=None)
    return None if phi is None else Fraction(phi)


def _leader_point(inst: MiblpInstance, x, y, lower, upper):
    """Point(x, y), a continuous leader, if any, appended to x at the end its
    cost prefers of the interval that the box and the leader rows leave it;
    None when no value meets the leader rows."""
    cont = inst.r1 < inst.n1
    lo, hi = (lower[inst.r1], upper[inst.r1]) if cont else (0, 0)
    for a, g, b in zip(inst.a1, inst.g1, inst.b1):
        # coef * x_c >= rest
        coef, rest = a[inst.r1] if cont else 0, b - dot(a, x) - dot(g, y)
        if coef > 0:
            lo = max(lo, rest / coef)
        elif coef < 0:
            hi = min(hi, rest / coef)
        elif rest > 0:
            return None
    xc = (lo if inst.c[inst.r1] >= 0 else hi,) if cont else ()
    return None if lo > hi else Point(x + xc, y)


def bilevel_points(inst: MiblpInstance, lower=None, upper=None):
    """Yield (leader value, Point) for each integer part of a bilevel-feasible
    point in the box ``lower``, ``upper`` (the instance's box by default), in
    grid order.  At each integer leader part x of the box, each best response
    y over the instance's own follower box that lies in the box is completed
    by ``_leader_point``.  At most one leader variable may be continuous."""
    if inst.n1 - inst.r1 > 1:
        raise ValueError("enumeration takes at most one continuous leader")
    check_enumeration_budget(inst)
    lower, upper = lower or inst.lower, upper or inst.upper
    for x, slice_ in follower_slices(inst, leader_grid(inst, lower, upper)):
        phi = min((v for _, v in slice_), default=None)
        for y, v in slice_:
            if v == phi and all(lower[j] <= w <= upper[j] for j, w in enumerate(y, inst.n1)):
                point = _leader_point(inst, x, y, lower, upper)
                if point is not None:
                    yield inst.leader_value(point), point


def enumerate_S(inst: MiblpInstance) -> set:
    """All integral points of the relaxation P (every row, exact)."""
    _require_pure_integer(inst)
    check_enumeration_budget(inst)
    return {Point(x, y) for x, slice_ in follower_slices(inst, leader_grid(inst))
            for y, _ in slice_ if _leader_point(inst, x, y, inst.lower, inst.upper) is not None}


def enumerate_F(inst: MiblpInstance) -> set:
    """The optimistic bilevel feasible region by definition."""
    _require_pure_integer(inst)
    return {point for _, point in bilevel_points(inst)}


def optimal_by_enumeration(inst: MiblpInstance):
    """(Point, leader value) minimizing cx + d1 y over F, the first in grid
    order among ties, or None if F is empty."""
    best = min(bilevel_points(inst), key=lambda vp: vp[0], default=None)
    return None if best is None else (best[1], best[0])
