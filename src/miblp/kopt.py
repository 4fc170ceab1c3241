"""k-neighborhood hierarchy: radius cap, k-optimal reaction sets, level tables.

For a point (x, y) with y feasible for the follower, its level is the
smallest 1-norm of a follower-space step w that keeps y + w follower-feasible
and improves the follower objective by at least one unit (the scaled-integer
improvement convention used by the exact oracle problems).  Level "none"
means y is already a best response.  The k-optimal reaction set keeps the
points of level > k, so k = 0 accepts everything and k = k_bar accepts only
true best responses.

All set computations here are exhaustive integer enumeration (pure-integer
instances only, budget-guarded); only the radius cap uses LP extrema, and
those are exact rationals recovered from vertex solves over the follower
rows.  Leader rows are deliberately left out of those solves: follower
improvement steps only respect the follower's own constraints, so a cap
taken over the jointly-feasible region can undershoot when leader rows
pinch the follower variables.  Parsing has already made every follower
variable integer and every bound finite, so the cap is the sum of the
integer widths of those extrema.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import bruteforce
from .instance import InstanceError, MiblpInstance, Point
from .simplex import LpProblem, LpStatus, exact_primal, solve_lp


@dataclass(frozen=True)
class KoptContext:
    inst: MiblpInstance
    k_bar: int
    follower_min: tuple   # exact extrema of each follower variable over the
    follower_max: tuple   # follower-feasible region (follower rows + boxes)
    _tables: dict = field(default_factory=dict, repr=False, compare=False)


def _follower_extrema(inst: MiblpInstance):
    """Exact per-variable extrema over {boxes : follower rows hold}, via 2*n2
    vertex solves; None when that region is empty.  Falls back to the
    declared box bound when a vertex cannot be recovered exactly (a wider cap
    stays valid)."""
    rows = [list(a) + list(g) for a, g in zip(inst.a2, inst.g2)]
    zero = [Fraction(0)] * inst.num_vars
    base = LpProblem(zero, rows, list(inst.b2), list(inst.lower), list(inst.upper))
    fmin, fmax = [], []
    for i in range(inst.n2):
        j = inst.n1 + i
        for sign, out in ((1, fmin), (-1, fmax)):
            obj = list(zero)
            obj[j] = Fraction(sign)
            problem = base.with_objective(obj)
            sol = solve_lp(problem)
            if sol.status is LpStatus.INFEASIBLE:
                return None
            if sol.status is not LpStatus.OPTIMAL:
                raise InstanceError(
                    "follower region extrema are undefined "
                    f"(LP status {sol.status.name})")
            vertex = exact_primal(problem, sol)
            if vertex is not None:
                out.append(vertex[j])
            else:
                out.append(inst.lower[j] if sign > 0 else inst.upper[j])
    return tuple(fmin), tuple(fmax)


def make_context(inst: MiblpInstance) -> KoptContext:
    extrema = _follower_extrema(inst)
    if extrema is None:
        return KoptContext(inst, 0, (), ())
    fmin, fmax = extrema
    k_bar = sum(max(0, math.floor(hi) - math.ceil(lo)) for lo, hi in zip(fmin, fmax))
    return KoptContext(inst, k_bar, fmin, fmax)


def compute_k_bar(inst: MiblpInstance) -> int:
    return make_context(inst).k_bar


def level_table(ctx: KoptContext, x) -> dict:
    """Level of every follower-feasible y at this x (None = best response).

    Tables are memoized on the context; callers share one scan per x.
    """
    x = tuple(x)
    cached = ctx._tables.get(x)
    if cached is not None:
        return cached
    inst = ctx.inst
    slice_pts = bruteforce.follower_points(inst, x)
    values = [inst.follower_value(y) for y in slice_pts]
    table = {}
    for y, v in zip(slice_pts, values):
        best = None
        for y2, v2 in zip(slice_pts, values):
            if v2 > v - 1:
                continue
            norm = sum(abs(a - b) for a, b in zip(y2, y))
            if best is None or norm < best:
                best = norm
        table[y] = None if best is None else int(best)
    ctx._tables[x] = table
    return table


def reaction_set(ctx: KoptContext, x) -> set:
    """Best responses at x, by direct enumeration of the follower slice."""
    inst = ctx.inst
    slice_pts = bruteforce.follower_points(inst, x)
    if not slice_pts:
        return set()
    phi = min(inst.follower_value(y) for y in slice_pts)
    return {y for y in slice_pts if inst.follower_value(y) == phi}


def reaction_set_k(ctx: KoptContext, x, k: int) -> set:
    """y's with no follower-feasible improvement within 1-norm distance k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return {y for y, level in level_table(ctx, x).items()
            if level is None or level > k}


def enumerate_Fk(ctx: KoptContext, k: int) -> set:
    inst = ctx.inst
    bruteforce.check_enumeration_budget(inst)
    out = set()
    for x in bruteforce.leader_grid(inst):
        for y in reaction_set_k(ctx, x, k):
            p = Point(x, y)
            if inst.in_relaxation(p):
                out.add(p)
    return out


def min_ifd_norm(ctx: KoptContext, point: Point):
    """Smallest 1-norm over improving feasible directions; None when optimal."""
    inst = ctx.inst
    if not inst.in_relaxation(point):
        raise ValueError("point is not in the relaxation")
    return level_table(ctx, point.x).get(point.y)


def minimal_ifds(ctx: KoptContext, point: Point) -> list:
    """All minimum-norm improving feasible directions at the point, sorted."""
    inst = ctx.inst
    level = min_ifd_norm(ctx, point)
    if level is None:
        return []
    v = inst.follower_value(point.y)
    out = []
    for y2 in bruteforce.follower_points(inst, point.x):
        if inst.follower_value(y2) <= v - 1:
            w = tuple(b - a for a, b in zip(point.y, y2))
            if sum(abs(c) for c in w) == level:
                out.append(w)
    return sorted(out)


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
