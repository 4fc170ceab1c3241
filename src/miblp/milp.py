"""Branch-and-bound MILP subsolver on top of the bounded-variable simplex.

Node selection is best-first on the parent LP bound, after an initial
depth-first dive that hunts down a first incumbent quickly.  A feasibility
question is asked with a zero objective: the first integral vertex then
matches every open node's bound, so the bound prune closes the tree at once.
Branching picks the integer variable whose fractional part is closest to
1/2, ties broken by lowest index.

Each child's LP starts from its parent's final basis.  A node is pruned as
infeasible only on the simplex's exact Farkas certificate; an LP the
simplex cannot settle raises MilpError.

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

from . import simplex
from .exactlin import dot
from .simplex import LpProblem, LpStatus

INTEGRALITY_TOL = 1e-6
PRUNE_TOL = 1e-9


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

    def __post_init__(self):
        n = self.lp.n
        if any(j < 0 or j >= n for j in self.integer_indices):
            raise ValueError("integer index out of range")


@dataclass
class MilpSolution:
    status: MilpStatus
    x: list | None = None           # incumbent, exact Fractions
    objective: Fraction | None = None
    nodes: int = 0


@dataclass(order=True)
class _Node:
    bound: float
    seq: int
    lower: list = field(compare=False)
    upper: list = field(compare=False)
    start: simplex.Basis | None = field(default=None, compare=False)  # the parent's basis


def solve_milp(problem: MilpProblem,
               node_limit: int | None = None,
               time_limit: float | None = None) -> MilpSolution:
    lp = problem.lp
    int_set = tuple(sorted(set(problem.integer_indices)))
    deadline = None if time_limit is None else time.monotonic() + time_limit

    best_x = None
    best_obj = None          # exact Fraction
    best_obj_f = math.inf
    nodes = 0
    next_seq = itertools.count(1).__next__
    dive = [_Node(-math.inf, 0, list(lp.lower), list(lp.upper))]
    frontier = []            # heap, used once an incumbent exists
    diving = True
    limited = False

    def out_of_budget() -> bool:
        if node_limit is not None and nodes >= node_limit:
            return True
        if deadline is not None and time.monotonic() > deadline:
            return True
        return False

    while dive or frontier:
        if out_of_budget():
            limited = True
            break
        if diving and not dive:
            diving = False
        if diving:
            node = dive.pop()
        elif dive:
            for n in dive:
                heapq.heappush(frontier, n)
            dive = []
            node = heapq.heappop(frontier)
        else:
            node = heapq.heappop(frontier)
        if node.bound >= best_obj_f - PRUNE_TOL:
            continue

        nodes += 1
        node_lp = lp.with_bounds(node.lower, node.upper)
        sol = simplex.solve_lp(node_lp, node.start)
        if sol.status is LpStatus.INFEASIBLE:
            continue
        if sol.status is LpStatus.UNSTABLE:
            raise MilpError("LP subsolver numerically unstable")
        if sol.objective >= best_obj_f - PRUNE_TOL:
            continue

        branch_j = _most_fractional(sol.x, int_set)
        if branch_j is None:
            exact = simplex.exact_primal(node_lp, sol)
            if exact is None:
                raise MilpError("could not certify an integral LP vertex exactly")
            frac_j = next((j for j in int_set if exact[j].denominator != 1), None)
            if frac_j is not None:
                # integral only in floating point; branch on the exact value
                _push_children(dive if diving else frontier, diving, node,
                               frac_j, exact[frac_j], sol, next_seq)
                continue
            obj = dot([Fraction(v) for v in lp.objective], exact)
            if best_obj is None or obj < best_obj:
                best_x, best_obj, best_obj_f = exact, obj, float(obj)
                diving = False
            continue

        v = sol.x[branch_j]
        _push_children(dive if diving else frontier, diving, node,
                       branch_j, v, sol, next_seq)

    if limited:
        return MilpSolution(MilpStatus.LIMIT_REACHED, best_x, best_obj, nodes)
    if best_x is None:
        return MilpSolution(MilpStatus.INFEASIBLE, nodes=nodes)
    return MilpSolution(MilpStatus.OPTIMAL, best_x, best_obj, nodes)


def _most_fractional(x, int_set):
    best_j, best_score = None, INTEGRALITY_TOL
    for j in int_set:
        f = x[j] - math.floor(x[j])
        score = min(f, 1.0 - f)
        if score > best_score:
            best_j, best_score = j, score
    return best_j


def _push_children(store, diving, node, j, value, sol, next_seq):
    """Split at floor(value); both children start from the node's basis."""
    fl = math.floor(value)          # exact for a float and for a Fraction
    prefer_down = value - fl < 0.5
    down_upper = list(node.upper)
    down_upper[j] = Fraction(fl)
    down = _Node(sol.objective, next_seq(), list(node.lower), down_upper, sol.basis)
    up_lower = list(node.lower)
    up_lower[j] = Fraction(fl + 1)
    up = _Node(sol.objective, next_seq(), up_lower, list(node.upper), sol.basis)
    first, second = (down, up) if prefer_down else (up, down)
    if diving:
        store.append(second)
        store.append(first)
    else:
        heapq.heappush(store, first)
        heapq.heappush(store, second)
