"""Dense bounded-variable primal simplex.

The pivoting engine runs in floating point (numpy) with a two-phase start:
artificial columns are introduced only for rows the all-at-lower-bound start
violates, and are pinned to zero afterwards.  The basis inverse is kept as an
explicit dense matrix, updated in product form and refactorized from scratch
every ``REFACTOR_INTERVAL`` pivots.  Dantzig pricing is used until the
degenerate-pivot budget 3(m+n) is spent, after which Bland's rule takes over
for the rest of the solve.  Ratio-test ties break toward the lowest variable
index; on a tie with the entering variable's own span, the bound flip wins.

Because problem data arrives as exact rationals, the final basis can be
re-solved exactly by one recovery routine: of its n tight constraints (rows
preferred over bounds, which matters to cut sharing downstream), bounds fix
their coordinates and the rows' cached integer image gives the rest by
fraction-free elimination.  ``exact_primal`` returns that vertex as Fractions
once every row and bound holds; ``extract_cone`` adds one exact ray per tight
constraint, a simplicial cone that provably contains the feasible region.
"""
from __future__ import annotations

import math
import numpy as np
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .exactlin import dot

INF = float("inf")
REDUCED_COST_TOL = 1e-9
PIVOT_TOL = 1e-9
DEGENERATE_STEP_TOL = 1e-12
RATIO_TIE_TOL = 1e-12
REFACTOR_INTERVAL = 50

BASIC, AT_LOWER, AT_UPPER = 0, 1, 2


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    UNSTABLE = "numerically unstable"


class DegenerateConeError(Exception):
    """The basis does not yield n independent, consistent tight constraints."""


@dataclass
class LpProblem:
    """min objective . z  s.t.  rows . z >= rhs,  lower <= z <= upper.

    All data is exact (Fractions); ``upper`` entries may be None for +inf.
    Lower bounds must be finite.  Branching never edits rows, so the float
    and integer images of the row data are cached and shared across
    ``with_bounds`` copies.
    """

    objective: list
    rows: list
    rhs: list
    lower: list
    upper: list
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.objective)

    @property
    def m(self) -> int:
        return len(self.rows)

    def float_data(self):
        if "c" not in self._cache:
            self._cache["c"] = np.array([float(v) for v in self.objective])
            self._cache["R"] = np.array([[float(v) for v in row] for row in self.rows],
                                        dtype=float).reshape(self.m, self.n)
            self._cache["r"] = np.array([float(v) for v in self.rhs])
        return self._cache["c"], self._cache["R"], self._cache["r"]

    def integer_rows(self):
        """(coeffs, rhs, scale) per row: the row and its rhs times ``scale``,
        the LCM of their denominators, as Python ints."""
        if "Z" not in self._cache:
            image = []
            for row, b in zip(self.rows, self.rhs):
                scale = math.lcm(b.denominator, *(v.denominator for v in row))
                image.append(([v.numerator * (scale // v.denominator) for v in row],
                              b.numerator * (scale // b.denominator), scale))
            self._cache["Z"] = image
        return self._cache["Z"]

    def with_bounds(self, lower, upper) -> "LpProblem":
        return LpProblem(self.objective, self.rows, self.rhs,
                         list(lower), list(upper), self._cache)

    def with_extra_rows(self, rows, rhs) -> "LpProblem":
        return LpProblem(self.objective, self.rows + [list(r) for r in rows],
                         self.rhs + list(rhs), self.lower, self.upper)

    def with_objective(self, objective) -> "LpProblem":
        return LpProblem(list(objective), self.rows, self.rhs, self.lower, self.upper)


@dataclass
class LpSolution:
    status: LpStatus
    x: list | None = None              # structural values, floats
    objective: float | None = None
    col_status: list | None = None     # BASIC/AT_LOWER/AT_UPPER per structural+slack
    iterations: int = 0
    # (problem, exact recovery) of the last exact_primal/extract_cone call
    recovery: tuple | None = field(default=None, repr=False, compare=False)


def solve_lp(problem: LpProblem) -> LpSolution:
    lo_f = [float(v) for v in problem.lower]
    hi_f = [INF if v is None else float(v) for v in problem.upper]
    if any(l > h + 1e-12 for l, h in zip(lo_f, hi_f)):
        return LpSolution(LpStatus.INFEASIBLE)
    return _Simplex(problem, lo_f, hi_f).run()


class _Simplex:
    def __init__(self, problem: LpProblem, lo_s, hi_s):
        c_f, R_f, r_f = problem.float_data()
        self.problem = problem
        self.n = problem.n
        self.m = problem.m
        m, n = self.m, self.n
        self.ncols = n + 2 * m
        self.A = np.hstack([R_f, -np.eye(m), np.eye(m)]) if m else np.zeros((0, n))
        self.r = r_f
        self.lo = np.array(lo_s + [0.0] * (2 * m))
        self.hi = np.array(hi_s + [INF] * m + [0.0] * m)
        self.cost = np.concatenate([c_f, np.zeros(2 * m)])
        self.status = np.full(self.ncols, AT_LOWER, dtype=int)
        self.vals = self.lo.copy()
        self.iterations = 0

        # start: structurals at lower bound, slacks basic where that is
        # feasible, artificials elsewhere
        act = R_f @ self.vals[:n] if m else np.zeros(0)
        resid = act - r_f
        self.basis = np.empty(m, dtype=int)
        self.need_phase1 = False
        binv_diag = np.ones(m)
        for i in range(m):
            if resid[i] >= 0.0:
                self.basis[i] = n + i
                binv_diag[i] = -1.0
            else:
                col = n + m + i
                self.basis[i] = col
                self.hi[col] = INF
                self.need_phase1 = True
        self.status[self.basis] = BASIC
        self.binv = np.diag(binv_diag) if m else np.zeros((0, 0))
        self.pivots_since_refactor = 0

    def run(self) -> LpSolution:
        m, n = self.m, self.n
        if self.need_phase1:
            c1 = np.zeros(self.ncols)
            c1[n + m:] = 1.0
            status = self._optimize(c1)
            if status is not LpStatus.OPTIMAL:
                return LpSolution(LpStatus.UNSTABLE, iterations=self.iterations)
            self._recompute_basics()
            infeas = sum(self.vals[j] for j in self.basis if j >= n + m)
            if infeas > 1e-7:
                return LpSolution(LpStatus.INFEASIBLE, iterations=self.iterations)
            self.hi[n + m:] = 0.0
            self._evict_artificials()
        status = self._optimize(self.cost)
        if status is not LpStatus.OPTIMAL:
            return LpSolution(status, iterations=self.iterations)
        self._recompute_basics()
        x = [float(v) for v in self.vals[:n]]
        c_f, _, _ = self.problem.float_data()
        return LpSolution(
            status=LpStatus.OPTIMAL,
            x=x,
            objective=float(c_f @ self.vals[:n]) if n else 0.0,
            col_status=[int(s) for s in self.status[:n + m]],
            iterations=self.iterations,
        )

    # -- pivoting -------------------------------------------------------

    def _recompute_basics(self):
        if self.m == 0:
            return
        v = self.vals.copy()
        v[self.basis] = 0.0
        self.vals[self.basis] = self.binv @ (self.r - self.A @ v)

    def _refactor(self) -> bool:
        if self.m == 0:
            return True
        try:
            self.binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError:
            return False
        self.pivots_since_refactor = 0
        return True

    def _optimize(self, cost) -> LpStatus:
        m = self.m
        bland = False
        degenerate = 0
        bland_after = 3 * (m + self.n)
        cap = 2000 + 400 * (m + self.ncols)
        col_ids = np.arange(self.ncols)
        while True:
            self.iterations += 1
            if self.iterations > cap:
                return LpStatus.UNSTABLE
            self._recompute_basics()
            xB = self.vals[self.basis] if m else np.zeros(0)
            if m:
                y = cost[self.basis] @ self.binv
                d = cost - y @ self.A
            else:
                d = cost.copy()
            span = self.hi - self.lo
            nonbasic = self.status != BASIC
            eligible = nonbasic & (span > 0) & (
                ((self.status == AT_LOWER) & (d < -REDUCED_COST_TOL))
                | ((self.status == AT_UPPER) & (d > REDUCED_COST_TOL)))
            if not eligible.any():
                return LpStatus.OPTIMAL
            if bland:
                j = int(col_ids[eligible][0])
            else:
                scores = np.where(eligible, np.abs(d), -1.0)
                j = int(np.argmax(scores))
            sigma = 1.0 if self.status[j] == AT_LOWER else -1.0
            u = self.binv @ self.A[:, j] if m else np.zeros(0)
            g = sigma * u

            ratios = np.full(m, INF)
            if m:
                lo_b = self.lo[self.basis]
                hi_b = self.hi[self.basis]
                dec = g > PIVOT_TOL
                ratios[dec] = (xB[dec] - lo_b[dec]) / g[dec]
                inc = (g < -PIVOT_TOL) & np.isfinite(hi_b)
                ratios[inc] = (xB[inc] - hi_b[inc]) / g[inc]
                np.maximum(ratios, 0.0, out=ratios)
            t_rows = ratios.min() if m else INF
            t_span = span[j]

            if t_span <= t_rows + RATIO_TIE_TOL:
                if not np.isfinite(t_span):
                    return LpStatus.UNBOUNDED
                # bound flip, no basis change
                self.status[j] = AT_UPPER if self.status[j] == AT_LOWER else AT_LOWER
                self.vals[j] = self.hi[j] if self.status[j] == AT_UPPER else self.lo[j]
                continue
            if not np.isfinite(t_rows):
                return LpStatus.UNBOUNDED

            tied = np.nonzero(ratios <= t_rows + RATIO_TIE_TOL)[0]
            p = int(tied[np.argmin(self.basis[tied])])
            leaving = int(self.basis[p])
            if t_rows <= DEGENERATE_STEP_TOL:
                degenerate += 1
                if degenerate >= bland_after:
                    bland = True

            self.vals[j] = self.vals[j] + sigma * t_rows
            self.status[leaving] = AT_LOWER if g[p] > 0 else AT_UPPER
            self.vals[leaving] = self.lo[leaving] if g[p] > 0 else self.hi[leaving]
            self.status[j] = BASIC
            self.basis[p] = j
            if not self._update_binv(u, p):
                return LpStatus.UNSTABLE

    def _update_binv(self, u, p) -> bool:
        pe = u[p]
        if abs(pe) < PIVOT_TOL:
            return self._refactor()
        self.binv[p, :] /= pe
        for i in range(self.m):
            if i != p and u[i] != 0.0:
                self.binv[i, :] -= u[i] * self.binv[p, :]
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= REFACTOR_INTERVAL:
            return self._refactor()
        return True

    def _evict_artificials(self):
        """Pivot basic artificials out where possible."""
        n, m = self.n, self.m
        for p in range(m):
            if self.basis[p] < n + m:
                continue
            row = self.binv[p, :] @ self.A[:, :n + m]
            candidate = next((j for j in range(n + m)
                              if self.status[j] != BASIC and abs(row[j]) > 1e-7), None)
            if candidate is None:
                continue
            u = self.binv @ self.A[:, candidate]
            old = int(self.basis[p])
            self.status[old] = AT_LOWER
            self.vals[old] = 0.0
            self.status[candidate] = BASIC
            self.basis[p] = candidate
            self._update_binv(u, p)


# ---------------------------------------------------------------------------
# exact recovery from the final basis


@dataclass(frozen=True)
class SimplicialCone:
    """Exact translated simplicial cone vertex + cone(rays) containing the
    LP's feasible region.

    ``bound_supports`` lists the (variable index, at_upper) bound constraints
    among the cone's n tight constraints; callers that share cuts across a
    search tree use it to reject cones resting on node-local bounds.
    """

    vertex: tuple
    rays: tuple
    bound_supports: tuple


def _fraction_free_solve(matrix, cols):
    """Solve the square integer system ``matrix X = cols`` by fraction-free
    (Bareiss) Gauss-Jordan elimination, in which every division is exact.

    Returns (d, numerators) with X = numerators / d, or None when singular.
    """
    k = len(matrix)
    work = [list(row) + [c[i] for c in cols] for i, row in enumerate(matrix)]
    prev = 1
    for p in range(k):
        piv = next((r for r in range(p, k) if work[r][p]), None)
        if piv is None:
            return None
        work[p], work[piv] = work[piv], work[p]
        top = work[p]
        for row in work:
            if row is not top:
                f = row[p]
                row[p + 1:] = [(top[p] * a - f * b) // prev
                               for a, b in zip(row[p + 1:], top[p + 1:])]
        prev = top[p]
    return prev, [[row[k + c] for row in work] for c in range(len(cols))]


def _first_independent(vectors, need):
    """Positions of the first ``need`` independent integer vectors, or None."""
    echelon, chosen = [], []
    for idx, vec in enumerate(vectors):
        for p, e in echelon:
            vec = [e[p] * a - vec[p] * b for a, b in zip(vec, e)]
        piv = next((j for j, v in enumerate(vec) if v), None)
        if piv is not None:
            echelon.append((piv, vec))
            chosen.append(idx)
            if len(chosen) == need:
                return chosen
    return None


def _at(problem: LpProblem, j, at_upper):
    return Fraction(problem.upper[j] if at_upper else problem.lower[j])


def _recover(problem: LpProblem, solution: LpSolution):
    """(rows, bound_supports, vertex) of the basis's n tight constraints.

    The tight set is the nonbasic rows, then the nonbasic bounds; past n
    members the first n independent ones are kept and the rest must hold
    with equality.  Coordinates at a kept bound are read off it, the others
    solve the kept rows' integer image.  Raises DegenerateConeError.
    """
    n, st, image = problem.n, solution.col_status, problem.integer_rows()
    rows = [i for i in range(problem.m) if st[n + i] != BASIC]
    bounds = [(j, st[j] == AT_UPPER) for j in range(n) if st[j] != BASIC]
    tight, spare = rows + bounds, []
    if len(tight) < n:
        raise DegenerateConeError("fewer tight constraints than dimensions")
    if len(tight) > n:
        keep = _first_independent([image[i][0] for i in rows] +
                                  [[int(i == j) for i in range(n)] for j, _ in bounds], n)
        if keep is None:
            raise DegenerateConeError("tight constraints are rank deficient")
        spare = [t for k, t in enumerate(tight) if k not in keep]
        nr = len(rows)
        rows = [tight[k] for k in keep if k < nr]
        bounds = [tight[k] for k in keep if k >= nr]
    fixed = {j: _at(problem, j, up) for j, up in bounds}
    free = [j for j in range(n) if j not in fixed]
    scale = math.lcm(*(v.denominator for v in fixed.values()))
    rhs = [image[i][1] * scale - sum(image[i][0][j] * v.numerator * (scale // v.denominator)
                                     for j, v in fixed.items()) for i in rows]
    solved = _fraction_free_solve([[image[i][0][j] for j in free] for i in rows], [rhs])
    if solved is None:
        raise DegenerateConeError("tight constraints are rank deficient")
    vertex = [fixed.get(j) for j in range(n)]
    for j, v in zip(free, solved[1][0]):
        vertex[j] = Fraction(v, solved[0] * scale)
    for t in spare:    # a row index or a (variable, at_upper) bound
        if (vertex[t[0]] != _at(problem, *t) if isinstance(t, tuple)
                else dot(problem.rows[t], vertex) != problem.rhs[t]):
            raise DegenerateConeError("inconsistent tight constraints")
    return rows, tuple(bounds), tuple(vertex)


def _recovered(problem: LpProblem, solution: LpSolution):
    """``_recover`` cached on the solution for this very problem object."""
    if solution.status is not LpStatus.OPTIMAL:
        raise DegenerateConeError("exact recovery needs an Optimal solution")
    if solution.recovery is None or solution.recovery[0] is not problem:
        solution.recovery = (problem, _recover(problem, solution))
    return solution.recovery[1]


def exact_primal(problem: LpProblem, solution: LpSolution) -> list | None:
    """Exact rational coordinates of the solved basis's vertex.

    None when the tight system is rank deficient or inconsistent, or when the
    recovered vertex violates any row or bound of the problem (either way the
    float basis cannot be trusted).
    """
    if solution.status is not LpStatus.OPTIMAL:
        raise ValueError("exact recovery needs an Optimal solution")
    try:
        vertex = _recovered(problem, solution)[2]
    except DegenerateConeError:
        return None
    # a mislabelled float basis can place the vertex outside a constraint the
    # basis claims is slack: check all in integers over a common denominator
    denom = math.lcm(*(v.denominator for v in vertex))
    scaled = [v.numerator * (denom // v.denominator) for v in vertex]
    for coeffs, b, _ in problem.integer_rows():
        if sum(a * v for a, v in zip(coeffs, scaled)) < b * denom:
            return None
    for v, lo, hi in zip(scaled, problem.lower, problem.upper):
        if v * lo.denominator < lo.numerator * denom or \
                (hi is not None and v * hi.denominator > hi.numerator * denom):
            return None
    return list(vertex)


def tight_bound_supports(problem: LpProblem, solution: LpSolution) -> tuple:
    """The cone's ``bound_supports``, without computing any ray."""
    return _recovered(problem, solution)[1]


def extract_cone(problem: LpProblem, solution: LpSolution) -> SimplicialCone:
    """Simplicial cone at the solved basis's vertex, exactly.

    The n constraints come from the tight set (rows preferred over bounds);
    ray q relaxes constraint q and keeps the others tight.  Any feasible
    point z then satisfies z = vertex + sum lambda_q ray_q with lambda >= 0,
    so the cone contains the feasible region regardless of degeneracy.
    """
    rows, bounds, vertex = _recovered(problem, solution)
    n, image = problem.n, problem.integer_rows()
    fixed = [j for j, _ in bounds]
    free = [j for j in range(n) if j not in fixed]
    # a row's ray meets its scaled row at its scale and the other kept rows
    # at 0; a bound's ray moves its variable by sigma, which the rows absorb
    cols = [[image[i][2] * (i == r) for r in rows] for i in rows]
    cols += [[-image[i][0][j] for i in rows] for j in fixed]
    det, nums = _fraction_free_solve([[image[i][0][j] for j in free] for i in rows], cols)
    sigmas = [1] * len(rows) + [-1 if up else 1 for _, up in bounds]
    rays = []
    for sigma, own, num in zip(sigmas, [None] * len(rows) + fixed, nums):
        ray = [Fraction(sigma * (j == own)) for j in range(n)]
        for j, v in zip(free, num):
            ray[j] = Fraction(sigma * v, det)
        rays.append(tuple(ray))
    return SimplicialCone(vertex=vertex, rays=tuple(rays), bound_supports=bounds)
