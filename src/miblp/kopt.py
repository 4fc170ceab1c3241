"""k-neighborhood hierarchy: radius cap, k-optimal reaction sets, level tables.

For a point (x, y) with y feasible for the follower, its level is the
smallest 1-norm of a follower-space step w that keeps y + w follower-feasible
and improves the follower objective by at least one unit (the scaled-integer
improvement convention used by the exact oracle problems).  Level "none"
means y is already a best response.  The k-optimal reaction set keeps the
points of level > k, so k = 0 accepts everything and k = k_bar accepts only
true best responses.

All set computations here read follower slices from the enumeration behind
``bruteforce.follower_slices``, exhaustive and in exact ints (pure-integer
instances only, budget-guarded), over one follower grid per context.  The one
LP routine is ``region_extrema``, the exact per-variable extrema over a
region of rows and a box; the scope gate (``instance.validate_assumptions``)
uses it too, to close ``inf`` bounds.  The radius cap takes it over the
follower rows alone: follower improvement steps only respect the follower's
own constraints, so a cap taken over the jointly-feasible region can
undershoot when leader rows pinch the follower variables.  Parsing has
already made every follower variable integer and every bound finite, so the
cap is the sum of the integer widths of those extrema.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import bruteforce
from .instance import InstanceError, MiblpInstance, Point
from .simplex import LpProblem, LpStatus, exact_primal, solve_lp


@dataclass(frozen=True)
class KoptContext:
    inst: MiblpInstance
    k_bar: int
    _tables: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def _slice_at(self):
        """x -> the follower slice at x as (y, d2 . y) pairs, in grid order,
        over one follower grid built on first use."""
        return bruteforce._slicer(self.inst)


def region_extrema(rows, lower, upper, columns, region):
    """Exact (minima, maxima) of each listed column over {rows, box}, or None
    when that region is empty; ``rows`` are (coeffs, rhs) pairs, ">=", and
    an ``upper`` entry may be None for +inf.

    Every LP starts dual feasible, as ``solve_lp`` needs.  An infeasible
    minimum proves the region empty (a zero-objective LP does, with no
    column listed).  A recession direction d with rows . d >= 0, d in [0, 1]
    on the open columns and 0 elsewhere, of maximum sum over the listed open
    columns, is nonzero on a listed column exactly when one is unbounded
    above, and InstanceError names it.  A listed open column is maximized
    under a cap on it alone, doubled (in span above its lower bound) until
    the vertex lies strictly below it: a vertex where the cap is slack is a
    local, hence global, maximum.  An LP without an exact vertex raises
    InstanceError.
    """
    zero = [Fraction(0)] * len(lower)
    base = LpProblem(zero, [list(r) for r, _ in rows], [b for _, b in rows],
                     list(lower), list(upper))

    def vertex(prob, what):
        sol = solve_lp(prob)
        if sol.status is LpStatus.INFEASIBLE:
            return None
        exact = exact_primal(prob, sol) if sol.status is LpStatus.OPTIMAL else None
        if exact is None:
            raise InstanceError(f"cannot recover an exact upper bound: no exact {what} "
                                f"(LP status {sol.status.name})")
        return exact

    def objective(j, sign):
        return base.with_objective([Fraction(sign * (i == j)) for i in range(len(lower))])

    mins = [vertex(objective(j, 1), f"minimum of variable {j}") for j in columns]
    if None in mins or not columns and vertex(base, f"point of {region}") is None:
        return None
    open_cols = [j for j in columns if upper[j] is None]
    if open_cols:
        box = [Fraction(int(hi is None)) for hi in upper]
        cost = [Fraction(-int(j in open_cols)) for j in range(len(lower))]
        d = vertex(LpProblem(cost, base.rows, [Fraction(0)] * base.m, zero, box),
                   "recession direction")
        unbounded = next((j for j in open_cols if d[j] > 0), None)
        if unbounded is not None:
            raise InstanceError(f"variable {unbounded} is unbounded over {region}")
    maxima = []
    for j in columns:
        prob, what = objective(j, -1), f"maximum of variable {j}"
        if upper[j] is not None:
            maxima.append(vertex(prob, what)[j])
            continue
        capped, span = list(upper), 1
        while True:
            capped[j] = lower[j] + span
            z = vertex(prob.with_bounds(lower, capped), what)
            if z is not None and z[j] < capped[j]:
                break
            span *= 2
        maxima.append(z[j])
    return tuple(z[j] for j, z in zip(columns, mins)), tuple(maxima)


def make_context(inst: MiblpInstance) -> KoptContext:
    extrema = region_extrema(inst.follower_rows(), inst.lower, inst.upper,
                             range(inst.n1, inst.num_vars), "the follower rows")
    if extrema is None:
        return KoptContext(inst, 0)
    return KoptContext(inst, sum(max(0, math.floor(hi) - math.ceil(lo))
                                 for lo, hi in zip(*extrema)))


def compute_k_bar(inst: MiblpInstance) -> int:
    return make_context(inst).k_bar


def level_table(ctx: KoptContext, x) -> dict:
    """Level of every follower-feasible y at this x (None = best response).

    Tables are memoized on the context; callers share one scan per x, and
    every scan reads the context's one follower grid.
    """
    x = tuple(x)
    cached = ctx._tables.get(x)
    if cached is not None:
        return cached
    slice_ = [(y, tuple(map(int, y)), v) for y, v in ctx._slice_at(x)]
    table = {}
    for y, yi, v in slice_:
        # the distance to the nearest point that improves by at least one unit
        table[y] = min((sum(abs(a - b) for a, b in zip(z, yi))
                        for _, z, w in slice_ if w < v), default=None)
    ctx._tables[x] = table
    return table


def reaction_set(ctx: KoptContext, x) -> set:
    """Best responses at x, by direct enumeration of the follower slice."""
    slice_ = ctx._slice_at(x)
    phi = min((v for _, v in slice_), default=None)
    return {y for y, v in slice_ if v == phi}


def reaction_set_k(ctx: KoptContext, x, k: int) -> set:
    """y's with no follower-feasible improvement within 1-norm distance k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return {y for y, level in level_table(ctx, x).items()
            if level is None or level > k}


def enumerate_Fk(ctx: KoptContext, k: int) -> set:
    """The points of S above level k: S itself at k = 0, F at k_bar."""
    inst = ctx.inst
    bruteforce.check_enumeration_budget(inst)
    return {Point(x, y) for x in bruteforce.leader_grid(inst)
            for y in reaction_set_k(ctx, x, k) if inst.in_relaxation(Point(x, y))}


def min_ifd_norm(ctx: KoptContext, point: Point):
    """Smallest 1-norm over improving feasible directions; None when optimal."""
    if not ctx.inst.in_relaxation(point):
        raise ValueError("point is not in the relaxation")
    return level_table(ctx, point.x).get(point.y)


def minimal_ifds(ctx: KoptContext, point: Point) -> list:
    """All minimum-norm improving feasible directions at the point, sorted."""
    inst = ctx.inst
    level = min_ifd_norm(ctx, point)
    if level is None:
        return []
    v = inst.follower_value(point.y)
    steps = (tuple(b - a for a, b in zip(point.y, y2))
             for y2, v2 in ctx._slice_at(point.x) if v2 < v)
    return sorted(w for w in steps if sum(map(abs, w)) == level)


def slice_csv(ctx: KoptContext, x) -> str:
    """CSV of the full y grid at x: coordinates, slice membership, level."""
    inst = ctx.inst
    table = level_table(ctx, x)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"y{i}" for i in range(inst.n2)] + ["in_slice", "level"])
    for y in bruteforce.follower_grid(inst):
        if y in table:
            level = table[y]
            writer.writerow([str(v) for v in y] + [1, "none" if level is None else level])
        else:
            writer.writerow([str(v) for v in y] + [0, ""])
    return buf.getvalue()
