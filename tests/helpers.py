"""Independent reference solvers used as ground truth in tests.

The LP and MILP references work by exhaustion with exact rationals and share
no code with the simplex or branch-and-bound implementations: the LP
reference enumerates every basis candidate (n tight constraints chosen from
rows and bounds), the MILP reference scans the full integer grid.  Both
require finite boxes.  The exact-recovery references re-derive a basis's
vertex and cone, and an intersection cut, by straightforward ``Fraction``
Gauss-Jordan elimination (``solve_vector``), a kernel the package does not
have, so the references share no linear algebra with it.
"""
import importlib.util
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from pathlib import Path

from miblp.exactlin import dot
from miblp.instance import generate_random_instance, validate_assumptions
from miblp.simplex import (AT_LOWER, BASIC, DegenerateConeError, LpProblem,
                           LpStatus, SimplicialCone)


def solve_vector(matrix, rhs):
    """Solve ``A x = b`` exactly for square A by Fraction Gauss-Jordan
    elimination with partial pivoting; None when A is singular."""
    n = len(matrix)
    work = [[Fraction(v) for v in matrix[i]] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(work[r][col]))
        if work[piv][col] == 0:
            return None
        work[col], work[piv] = work[piv], work[col]
        top = work[col] = [v / work[col][col] for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], top)]
    return [work[i][n] for i in range(n)]


def lp_vertex_optimum(problem: LpProblem):
    """(status, value, point) by enumerating tight-constraint intersections.

    status is "optimal" or "infeasible".  The box must be finite, so a
    feasible problem always has an optimal vertex.
    """
    n = problem.n
    constraints = []            # (coeffs, rhs) treated as equalities
    for row, b in zip(problem.rows, problem.rhs):
        constraints.append(([Fraction(v) for v in row], Fraction(b)))
    for j in range(n):
        ej = [Fraction(0)] * n
        ej[j] = Fraction(1)
        constraints.append((list(ej), Fraction(problem.lower[j])))
        if problem.upper[j] is None:
            raise ValueError("vertex enumeration needs a finite box")
        constraints.append((ej, Fraction(problem.upper[j])))

    def feasible(x):
        for row, b in zip(problem.rows, problem.rhs):
            if dot(row, x) < b:
                return False
        return all(problem.lower[j] <= x[j] <= problem.upper[j]
                   for j in range(n))

    best = None
    for combo in itertools.combinations(range(len(constraints)), n):
        mat = [constraints[i][0] for i in combo]
        rhs = [constraints[i][1] for i in combo]
        x = solve_vector([list(r) for r in mat], rhs)
        if x is None or not feasible(x):
            continue
        value = dot(problem.objective, x)
        if best is None or value < best[0]:
            best = (value, tuple(x))
    if best is None:
        return "infeasible", None, None
    return "optimal", best[0], best[1]


def milp_grid_optimum(problem: LpProblem, integer_indices):
    """(status, value, point) by full integer-grid scan (all-integer only)."""
    n = problem.n
    if sorted(integer_indices) != list(range(n)):
        raise ValueError("grid reference handles all-integer problems only")
    ranges = []
    for j in range(n):
        lo, hi = problem.lower[j], problem.upper[j]
        if hi is None:
            raise ValueError("grid reference needs a finite box")
        ranges.append(range(math.ceil(lo), math.floor(hi) + 1))
    best = None
    for point in itertools.product(*ranges):
        x = [Fraction(v) for v in point]
        if any(dot(row, x) < b for row, b in zip(problem.rows, problem.rhs)):
            continue
        value = dot(problem.objective, x)
        if best is None or value < best[0]:
            best = (value, tuple(x))
    if best is None:
        return "infeasible", None, None
    return "optimal", best[0], best[1]


def mixed_grid_optimum(problem: LpProblem, integer_indices):
    """(status, value) by integer-grid scan when exactly one column is
    continuous and its cost is nonnegative: at each grid point the rows give
    that column an interval, whose lowest point is optimal."""
    (c,) = [j for j in range(problem.n) if j not in integer_indices]
    if problem.objective[c] < 0:
        raise ValueError("the continuous column needs a nonnegative cost")
    ranges = [range(math.ceil(problem.lower[j]), math.floor(problem.upper[j]) + 1)
              for j in integer_indices]
    best = None
    for point in itertools.product(*ranges):
        x = dict(zip(integer_indices, map(Fraction, point)))
        lo, hi = Fraction(problem.lower[c]), problem.upper[c]
        for row, b in zip(problem.rows, problem.rhs):
            # row[c] * z_c >= b - (the integer part of the row)
            rest = b - sum(row[j] * v for j, v in x.items())
            if row[c] > 0:
                lo = max(lo, Fraction(rest) / row[c])
            elif row[c] < 0:
                hi = Fraction(rest) / row[c] if hi is None else min(hi, Fraction(rest) / row[c])
            elif rest > 0:
                lo, hi = 1, 0
        if hi is not None and lo > hi:
            continue
        value = sum(problem.objective[j] * v for j, v in x.items()) + problem.objective[c] * lo
        if best is None or value < best:
            best = value
    return ("infeasible", None) if best is None else ("optimal", best)


def random_lp(rng: random.Random, n=None, m=None) -> LpProblem:
    """Random LP with a finite box; roughly half end up infeasible."""
    n = n if n is not None else rng.randint(2, 3)
    m = m if m is not None else rng.randint(2, 4)
    rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
    rhs = [rng.randint(-8, 6) for _ in range(m)]
    objective = [rng.randint(-5, 5) for _ in range(n)]
    lower = [rng.randint(0, 1) for _ in range(n)]
    upper = [lo + rng.randint(0, 5) for lo in lower]
    return LpProblem(objective, rows, rhs, lower, upper)


def random_milp(rng: random.Random):
    """Random all-integer MILP (problem, integer_indices) with a finite box."""
    prob = random_lp(rng)
    return prob, tuple(range(prob.n))


# ---------------------------------------------------------------------------
# exact recovery of a solved basis, by Fraction Gaussian elimination


def _select_independent(rows, need):
    """Indices of the first ``need`` linearly independent rows, in order."""
    n = len(rows[0]) if rows else 0
    chosen, elim, pivots = [], [], []
    for idx, row in enumerate(rows):
        red = list(row)
        for e, p in zip(elim, pivots):
            f = red[p]
            if f:
                red = [a - f * b for a, b in zip(red, e)]
        piv = next((j for j in range(n) if red[j]), None)
        if piv is None:
            continue
        elim.append([v / red[piv] for v in red])
        pivots.append(piv)
        chosen.append(idx)
        if len(chosen) == need:
            return chosen
    return None


def _reference_tight_system(problem, solution):
    """(selected (coeffs, rhs, sigma, kind), vertex) or a failure string."""
    n, m = problem.n, problem.m
    tight = []
    for i in range(m):
        if solution.col_status[n + i] != BASIC:
            tight.append(([Fraction(v) for v in problem.rows[i]],
                          Fraction(problem.rhs[i]), 1, ("row", i)))
    for j in range(n):
        st = solution.col_status[j]
        if st == BASIC:
            continue
        unit = [Fraction(int(i == j)) for i in range(n)]
        if st == AT_LOWER:
            tight.append((unit, Fraction(problem.lower[j]), 1, ("bound", j, False)))
        else:
            tight.append((unit, Fraction(problem.upper[j]), -1, ("bound", j, True)))
    if len(tight) < n:
        return "fewer tight constraints than dimensions"
    sel = _select_independent([t[0] for t in tight], n)
    if sel is None:
        return "tight constraints are rank deficient"
    vertex = solve_vector([tight[i][0] for i in sel], [tight[i][1] for i in sel])
    for idx, (coeffs, b, _, _) in enumerate(tight):
        if idx not in sel and dot(coeffs, vertex) != b:
            return "inconsistent tight constraints"
    return [tight[i] for i in sel], vertex


def reference_exact_primal(problem: LpProblem, solution):
    """``simplex.exact_primal`` by Fraction elimination: the tight system's
    vertex, or None when it is degenerate or violates a row or bound."""
    system = _reference_tight_system(problem, solution)
    if isinstance(system, str):
        return None
    vertex = system[1]
    for coeffs, b in zip(problem.rows, problem.rhs):
        if dot(coeffs, vertex) < b:
            return None
    for j in range(problem.n):
        hi = problem.upper[j]
        if vertex[j] < problem.lower[j] or (hi is not None and vertex[j] > hi):
            return None
    return vertex


def reference_extract_cone(problem: LpProblem, solution) -> SimplicialCone:
    """``simplex.extract_cone`` by Fraction elimination: ray q solves the
    tight system with unit right-hand side q, times the constraint's sign."""
    if solution.status is not LpStatus.OPTIMAL:
        raise DegenerateConeError("cone extraction needs an Optimal solution")
    system = _reference_tight_system(problem, solution)
    if isinstance(system, str):
        raise DegenerateConeError(system)
    chosen, vertex = system
    n = problem.n
    matrix = [t[0] for t in chosen]
    rays = tuple(tuple(sigma * v for v in solve_vector(
        matrix, [Fraction(int(i == q)) for i in range(n)]))
        for q, (_, _, sigma, _) in enumerate(chosen))
    bounds = tuple((k[1], k[2]) for _, _, _, k in chosen if k[0] == "bound")
    facets = tuple(tuple(sigma * v for v in coeffs) for coeffs, _, sigma, _ in chosen)
    return SimplicialCone(vertex=tuple(vertex), rays=rays, bound_supports=bounds,
                          facets=facets)


def reference_intersection_cut(cone: SimplicialCone, free_set, n1: int):
    """``cuts.intersection_cut`` by solving rays . alpha = 1 / lambda: the
    hyperplane through the points where the rays leave the free set, as
    (alpha_x, alpha_y, beta) scaled to coprime integers; None when no ray
    leaves the set.  The vertex must be strictly interior to the set."""
    slacks = [dot(coeffs, cone.vertex) - b for coeffs, b in free_set.rows]
    assert min(slacks) > 0, "vertex not strictly interior"
    inv_lambda = []
    for ray in cone.rays:
        steps = [-s / dot(coeffs, ray) for (coeffs, _), s in zip(free_set.rows, slacks)
                 if dot(coeffs, ray) < 0]
        inv_lambda.append(1 / min(steps) if steps else Fraction(0))
    if not any(inv_lambda):
        return None
    alpha = solve_vector([list(r) for r in cone.rays], inv_lambda)
    coeffs = alpha + [1 + dot(alpha, cone.vertex)]
    scale = math.lcm(*(v.denominator for v in coeffs))
    ints = [int(v * scale) for v in coeffs]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    return tuple(ints[:n1]), tuple(ints[n1:-1]), ints[-1]


@cache
def bench_corpus():
    """``bench/corpus.py``, the benchmark's fixed corpus, loaded by path;
    it needs nothing beyond the package."""
    spec = importlib.util.spec_from_file_location(
        "bench_corpus", Path(__file__).parents[1] / "bench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mixed_leader_instance(seed: int):
    """The corpus family's instance ``seed`` plus a continuous leader x2 in
    [0, 17/2], appended as leader index 2, that stays out of the follower
    rows; its leader-row coefficients, then its cost, are drawn from
    ``random.Random(1000 + seed)``."""
    base = generate_random_instance(seed, 2, 3, 2, 4, bound=8)
    rng = random.Random(1000 + seed)
    column = [Fraction(rng.randint(-5, 5)) for _ in range(base.m1)]
    cost = Fraction(rng.randint(-5, 5))
    return validate_assumptions(replace(
        base, n1=3, r1=2, c=base.c + (cost,),
        a1=tuple(a + (v,) for a, v in zip(base.a1, column)),
        a2=tuple(a + (Fraction(0),) for a in base.a2),
        lower=base.lower[:2] + (Fraction(0),) + base.lower[2:],
        upper=base.upper[:2] + (Fraction(17, 2),) + base.upper[2:]))


def mixed_bilevel_optimum(inst):
    """Optimal value of an instance with one continuous leader variable
    outside the follower rows, or None when it is infeasible: every integer
    leader part is enumerated, the follower's best responses at it are found
    on its integer grid, and the continuous variable takes the best end of
    the interval that the leader rows leave it."""
    (c,) = range(inst.r1, inst.n1)
    ints = range(inst.r1)
    grid = list(itertools.product(*(range(int(inst.lower[inst.n1 + i]),
                                          int(inst.upper[inst.n1 + i]) + 1)
                                    for i in range(inst.n2))))
    rows2, b2 = inst.follower_ints
    d2 = [int(v) for v in inst.d2]
    activity = [tuple(sum(r * v for r, v in zip(row[inst.n1:], y)) for row in rows2)
                for y in grid]
    best = None
    for xi in itertools.product(*(range(int(inst.lower[j]), int(inst.upper[j]) + 1)
                                  for j in ints)):
        need = [b - sum(r * v for r, v in zip(row, xi)) for row, b in zip(rows2, b2)]
        slice_ = [y for y, act in zip(grid, activity)
                  if all(v >= n for v, n in zip(act, need))]
        if not slice_:
            continue
        values = [sum(d * v for d, v in zip(d2, y)) for y in slice_]
        phi = min(values)
        for y, v in zip(slice_, values):
            if v != phi:
                continue
            lo, hi = inst.lower[c], inst.upper[c]
            for a, g, b in zip(inst.a1, inst.g1, inst.b1):
                # a[c] * x_c >= the rest of the row
                rest = b - dot(a[:inst.r1], xi) - dot(g, y)
                if a[c] > 0:
                    lo = max(lo, rest / a[c])
                elif a[c] < 0:
                    hi = min(hi, rest / a[c])
                elif rest > 0:
                    lo, hi = 1, 0
            if lo > hi:
                continue
            value = (dot(inst.c[:inst.r1], xi) + inst.c[c] * (lo if inst.c[c] >= 0 else hi)
                     + dot(inst.d1, y))
            if best is None or value < best:
                best = value
    return best
