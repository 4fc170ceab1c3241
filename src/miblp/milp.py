"""Branch-and-bound MILP subsolver on top of the bounded-variable simplex.

Node selection is best-first on the parent dual bound, after an initial
depth-first dive that hunts down a first incumbent quickly.  A feasibility
question is asked with a zero objective: the first integral vertex then
matches every open node's bound, so the bound prune closes the tree at once.
Each branch splits the integer variable whose fractional part is closest to
1/2, ties broken by lowest index.

Before its LP, each node's box is tightened by activity-bound propagation
with integer rounding, in Python ints (Savelsbergh, ORSA J. Comput. 6(4),
1994).  For a row a . z >= b whose nonzero coefficients all sit on integer
columns, let top be its maximum activity over the box and slack = top - b.
slack < 0 closes the node: the row itself, maximized over the box, is the
certificate.  Otherwise each integer column with a > 0 gets the lower bound
ceil(upper - slack / a) = upper - floor(slack / a), and each with a < 0 the
upper bound lower + floor(slack / -a).  Where one column with a > 0 has no
upper bound, only its lower bound moves, to ceil((b - rest) / a) over the
other columns' maximum rest; two such columns bound nothing.  Integer
bounds are first rounded inward, and rounded bounds that cross close the
node as well.  A node's worklist starts from the rows of the columns whose bounds
it changed (every integer column at the root, the branched one in a child)
and runs to a fixpoint, or until it has visited (integer columns + 1) times
as many rows as it may propagate, which only long chains over wide or open
boxes reach; stopping early is sound, as the LP decides the rest.  Rows that
touch a continuous column are left to the LP, and continuous bounds are
never tightened: their bounds are rational, so rounding proves nothing.
The tightened box is the node's own, so children inherit it.  ``nodes``
counts node LPs solved, ``propagated`` the boxes closed without one.
``propagation_rows`` and ``propagate`` are the one propagation routine of
the package: the branch-and-cut driver runs them at its own nodes, over the
instance rows and its pooled cuts.  The rows' terms are cached with the
LP's rows and their right-hand sides with its rhs, so an LP built by
``LpProblem.with_rhs`` derives only the latter.

A problem may declare complementary pairs (j, k) of integer columns, as a
split z = z+ - z- has (``MilpProblem.complements``).  Each pair has lower
bounds 0, a_j + a_k <= 0 in every row and c_j + c_k >= 0 in the objective,
so lowering both columns by min(z_j, z_k) keeps a point feasible and does
not raise its objective: some optimum, and some feasible point if any,
has z_j * z_k = 0.  The search keeps only such points.  Propagation sets
upper[k] = 0 once lower[j] >= 1, and closes the box when lower[k] >= 1 as
well; k's rows then join the same worklist.  Without the rule, a child with
z+_j >= 1 still holds every value of the step through z-_j.

Each child's LP starts from its parent's final basis.  An LP verdict of
infeasible prunes a node only on the simplex's exact Farkas certificate; an
LP the simplex cannot settle raises MilpError.  A node closes once
``simplex.dual_bound`` of its LP's multipliers (rounded up to the
objective's lattice where every column with a cost is integer), or its
parent's bound when it is popped, reaches the incumbent's value.  The
bounds of the first dive are computed only once it finds an incumbent, as
nothing reads them before; a search that finds none computes no bound.

Candidate incumbents are re-derived exactly from the final LP basis, so the
reported optimum is a rational point that satisfies every row exactly; the
float tolerances only steer the search.  A coordinate that looks integral in
floating point but is genuinely fractional as a rational is branched on, not
rounded, which keeps the solver sound when row data has large denominators.
"""
from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import partial
from operator import mul

from . import simplex
from .simplex import LpProblem, LpStatus

INTEGRALITY_TOL = 1e-6


class MilpError(Exception):
    """An unrecoverable numerical failure."""


class MilpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    LIMIT_REACHED = "limit reached"


@dataclass(frozen=True)
class MilpProblem:
    lp: LpProblem
    integer_indices: tuple
    complements: tuple = ()         # pairs (j, k); see the module docstring

    def __post_init__(self):
        lp = self.lp
        if any(j < 0 or j >= lp.n for j in self.integer_indices):
            raise ValueError("integer index out of range")
        integer = set(self.integer_indices)
        paired = [j for pair in self.complements for j in pair]
        if len(set(paired)) != len(paired):
            raise ValueError("a column is in two complementary pairs")
        for j, k in self.complements:
            if j not in integer or k not in integer:
                raise ValueError(f"complementary pair ({j}, {k}) is not two integer columns")
            if lp.lower[j] != 0 or lp.lower[k] != 0:
                raise ValueError(f"complementary pair ({j}, {k}) has a nonzero lower bound")
        # the rows and objective are checked once per row-level cache
        key = "complements", self.complements
        if self.complements and key not in lp._row_cache:
            for j, k in self.complements:
                if any(row[j] + row[k] > 0 for row in lp.rows):
                    raise ValueError(f"complementary pair ({j}, {k}) raises a row's activity")
                if lp.objective[j] + lp.objective[k] < 0:
                    raise ValueError(f"complementary pair ({j}, {k}) lowers the objective")
            lp._row_cache[key] = True


@dataclass
class MilpSolution:
    status: MilpStatus
    x: list | None = None           # incumbent, exact Fractions
    objective: Fraction | None = None
    nodes: int = 0                  # node LPs solved
    propagated: int = 0             # boxes closed by propagation, without an LP


@dataclass(order=True)
class _Node:
    key: float                      # float(bound), the queue order
    seq: int
    bound: object = field(compare=False)    # the parent's dual bound, or a call making it
    lower: list = field(compare=False)
    upper: list = field(compare=False)
    start: simplex.Basis | None = field(default=None, compare=False)  # the parent's basis
    branched: int | None = field(default=None, compare=False)  # None at the root


def solve_milp(problem: MilpProblem, deadline: float | None = None) -> MilpSolution:
    """Solve the MILP, stopping with LIMIT_REACHED once ``time.monotonic()``
    reaches ``deadline``; None sets no deadline."""
    lp = problem.lp
    int_set = tuple(sorted(set(problem.integer_indices)))

    rows, by_col, visits = propagation_rows(lp, int_set)
    partner = {}
    for j, k in problem.complements:
        partner[j], partner[k] = k, j
    lower, upper = list(lp.lower), list(lp.upper)
    for j in int_set:       # rounded inward, as ints
        lower[j] = -(-lower[j].numerator // lower[j].denominator)
        if upper[j] is not None:
            upper[j] = upper[j].numerator // upper[j].denominator

    best_x = None
    best_obj = None          # exact Fraction
    nodes = propagated = 0
    next_seq = itertools.count(1).__next__
    dive = [_Node(-math.inf, 0, -math.inf, lower, upper)]
    frontier = []            # heap, used once an incumbent exists
    diving = True
    limited = False

    while dive or frontier:
        if deadline is not None and time.monotonic() >= deadline:
            limited = True
            break
        diving = diving and bool(dive)
        if not diving and dive:
            for n in dive:      # the first incumbent needs the dive's bounds
                n.bound = n.bound()
                n.key = float(n.bound)
                heapq.heappush(frontier, n)
            dive = []
        node = dive.pop() if diving else heapq.heappop(frontier)
        if best_obj is not None and node.bound >= best_obj:
            continue
        moved = int_set if node.branched is None else (node.branched,)
        if not propagate(rows, by_col, node.lower, node.upper, moved, visits, partner):
            propagated += 1
            continue

        nodes += 1
        node_lp = lp.with_bounds(node.lower, node.upper)
        sol = simplex.solve_lp(node_lp, node.start)
        if sol.status is LpStatus.INFEASIBLE:
            continue
        if sol.status is LpStatus.UNSTABLE:
            raise MilpError("LP subsolver numerically unstable")
        bound = partial(simplex.dual_bound, node_lp, sol.y, int_set, basis=sol.basis)
        if best_obj is not None:
            bound = bound()
            if bound >= best_obj:
                continue

        z = sol.x
        branch_j = _most_fractional(z, int_set)
        if branch_j is None:
            z = simplex.exact_primal(node_lp, sol)
            if z is None:
                raise MilpError("could not certify an integral LP vertex exactly")
            # integral in floating point, but a fractional exact value is branched on
            branch_j = next((j for j in int_set if z[j].denominator != 1), None)
            if branch_j is None:
                obj = sum(map(mul, lp.objective, z))
                if best_obj is None or obj < best_obj:
                    best_x, best_obj = z, obj
                    diving = False
                continue
        _push_children(dive if diving else frontier, diving, node,
                       branch_j, z[branch_j], sol, bound, next_seq)

    status = (MilpStatus.LIMIT_REACHED if limited else
              MilpStatus.INFEASIBLE if best_x is None else MilpStatus.OPTIMAL)
    return MilpSolution(status, best_x, best_obj, nodes, propagated)


def propagation_rows(lp: LpProblem, int_set, extra=()):
    """(rows, by_col, visits) for ``propagate``: (terms, rhs) of each row of
    the integer image, then of ``extra`` (rows given in that form already),
    whose nonzero coefficients all sit on integer columns, terms as (column,
    coefficient); per column the indices of those rows that hold it; and the
    row visits one propagation may make.  The terms and by_col of the image
    are cached with its rows, the rows with the rhs (see ``LpProblem``); a
    row whose rhs changes its integer scale gets its terms anew."""
    key = "propagation", tuple(int_set)
    if key not in lp._cache:
        if key not in lp._row_cache:
            integer = set(int_set)
            kept, by_col = [], [[] for _ in range(lp.n)]
            for i, (coeffs, lcm) in enumerate(lp.row_integers()):
                terms = [(j, a) for j, a in enumerate(coeffs) if a]
                if all(j in integer for j, _ in terms):
                    for j, _ in terms:
                        by_col[j].append(len(kept))
                    kept.append((i, terms, lcm))
            lp._row_cache[key] = kept, by_col
        kept, by_col = lp._row_cache[key]
        image, rows = lp.integer_rows(), []
        for i, terms, lcm in kept:
            coeffs, b, scale = image[i]
            if scale != lcm:
                terms = [(j, a) for j, a in enumerate(coeffs) if a]
            rows.append((terms, b))
        lp._cache[key] = rows, by_col
    rows, by_col = lp._cache[key]
    if extra:
        integer = set(int_set)
        rows, by_col = list(rows), [list(col) for col in by_col]
        for terms, b in extra:
            if all(j in integer for j, _ in terms):
                for j, _ in terms:
                    by_col[j].append(len(rows))
                rows.append((terms, b))
    return rows, by_col, len(rows) * (len(int_set) + 1)


def propagate(rows, by_col, lower, upper, moved, visits, partner=None) -> bool:
    """Tighten the integer bounds in place, from the rows of the columns in
    ``moved``, for at most ``visits`` row visits; False when the box holds no
    integer point.  Bounds of integer columns are ints, an upper one may be
    None.  ``partner`` maps each column of a complementary pair to the other;
    see the module docstring for the rules."""
    partner = partner or {}
    work, queued = [], set()
    moved = list(moved)
    for j in moved:                 # runs on over the partners fixed here
        if upper[j] is not None and lower[j] > upper[j]:
            return False
        k = partner.get(j)
        if k is not None and lower[j] > 0 and upper[k] != 0:
            upper[k] = 0
            moved.append(k)
        for i in by_col[j]:
            if i not in queued:
                queued.add(i)
                work.append(i)
    while work and visits:
        visits -= 1
        i = work.pop()
        queued.discard(i)
        terms, b = rows[i]
        top, open_term = 0, None
        for j, a in terms:
            if a < 0:
                top += a * lower[j]
            elif upper[j] is not None:
                top += a * upper[j]
            elif open_term is None:
                open_term = (j, a)
            else:
                break                       # two open terms bound nothing
        else:
            changed = []
            if open_term is not None:       # only the open column has a finite rest
                j, a = open_term
                bound = -((top - b) // a)
                if bound > lower[j]:
                    lower[j] = bound
                    changed.append(j)
            else:
                slack = top - b
                if slack < 0:
                    return False
                for j, a in terms:
                    if a > 0:
                        bound = upper[j] - slack // a
                        if bound > lower[j]:
                            lower[j] = bound
                            changed.append(j)
                    else:
                        bound = lower[j] + slack // -a
                        if upper[j] is None or bound < upper[j]:
                            upper[j] = bound
                            changed.append(j)
            # a row's own tightenings leave its maximum activity as it was
            for j in changed:
                for r in by_col[j]:
                    if r != i and r not in queued:
                        queued.add(r)
                        work.append(r)
                k = partner.get(j)
                if k is not None and lower[j] > 0 and upper[k] != 0:
                    if lower[k] > 0:
                        return False
                    upper[k] = 0
                    for r in by_col[k]:
                        if r not in queued:
                            queued.add(r)
                            work.append(r)
    return True


def _most_fractional(x, int_set):
    best_j, best_score = None, INTEGRALITY_TOL
    for j in int_set:
        f = x[j] - math.floor(x[j])
        score = min(f, 1.0 - f)
        if score > best_score:
            best_j, best_score = j, score
    return best_j


def _push_children(store, diving, node, j, value, sol, bound, next_seq):
    """Split at floor(value); both children carry the node's dual bound and
    start from its basis.  A dive's nodes are keyed when they join the heap."""
    fl = math.floor(value)          # exact for a float and for a Fraction
    prefer_down = value - fl < 0.5
    key = 0.0 if diving else float(bound)
    down_upper = list(node.upper)
    down_upper[j] = fl
    down = _Node(key, next_seq(), bound, list(node.lower), down_upper, sol.basis, j)
    up_lower = list(node.lower)
    up_lower[j] = fl + 1
    up = _Node(key, next_seq(), bound, up_lower, list(node.upper), sol.basis, j)
    first, second = (down, up) if prefer_down else (up, down)
    if diving:
        store.append(second)
        store.append(first)
    else:
        heapq.heappush(store, first)
        heapq.heappush(store, second)
