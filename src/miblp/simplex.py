"""Dense bounded-variable dual simplex from a basis.

The pivoting engine runs in floating point over plain Python lists, which
at the solver's sizes (a dozen rows or fewer) beats any array library's
per-call overhead.  The columns are the structurals and one surplus column
-e_i per row; the surplus columns are never stored.  The explicit basis
inverse is updated by row operations and rebuilt by Gauss-Jordan
elimination every ``REFACTOR_INTERVAL`` pivots.

Every LP runs one loop.  It starts from a basis: the parent's final
``Basis`` when one is given (a branch-and-bound child, whose tightened
bounds leave that basis dual feasible), else the slack basis B = -I with
each structural at the bound its cost prefers.  A start with fewer rows
than the problem extends itself: each appended row enters with its surplus
column basic, which keeps the start dual feasible.  A bounded dual simplex,
capped at 3(m+n) pivots, restores primal feasibility; the nonbasic columns
are then priced once, and a reduced cost of the wrong sign beyond
``REDUCED_COST_TOL`` means the start was not dual feasible.  A start that
cannot settle the LP (a failed pivot, the cap, an unproven verdict, a
wrong-signed reduced cost) gives way to the slack basis, and where that
fails too the LP is UNSTABLE.  The slack basis is dual feasible only when
every structural with a negative cost has a finite upper bound, so
``solve_lp`` refuses any other LP.  ``LpSolution.iterations`` counts dual
pivots.  A nonbasic structural with lower = upper is reported at its
lower bound, so the tight set names the bound a branch did not move.

Rows whose coefficients exceed ``ROW_SCALE_THRESHOLD`` (pooled cuts reach
1e11) are scaled by a power of two in the float image, which keeps the
tolerances meaningful and is exact.  Row multipliers y, carried back by
the row scales, are checked in integers: ``dual_bound`` makes an optimal
basis's duals (``LpSolution.y``, or where their float noise leaves a
reduced cost at an open bound, the basis's exact duals) an exact lower
bound on the objective, and ``farkas``, its zero-objective case, proves
"infeasible" from the row of B^-1 at which the dual loop finds no entering
column.  Both exact re-derivations share one integer solve, ``_basis_solve``.

A problem caches the float and integer images of its data in two parts
(see ``LpProblem``).  The row-level part, everything the objective and the
rows alone decide, is shared by ``with_bounds`` and ``with_rhs`` copies; the
rhs-level part, the float and integer right-hand sides and each row's final
integer scale, only by ``with_bounds`` copies.  A subsolver that asks one
question at many points builds its rows once and moves only the rhs and
the box.

Because problem data arrives as exact rationals, the final basis can be
re-solved exactly by one recovery routine: of its n tight constraints (the
nonbasic columns), bounds fix their coordinates and the rows' cached
integer image gives the rest by fraction-free elimination.  ``exact_primal``
returns that vertex as Fractions once every row and bound holds;
``extract_cone`` adds one exact ray per tight constraint, a simplicial cone
that provably contains the feasible region, together with the tight
constraints themselves as the cone's facets.  Rays and facets are ints,
straight from the elimination; only the vertex is a Fraction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import mul

INF = float("inf")
REDUCED_COST_TOL = 1e-9
PIVOT_TOL = 1e-9
RATIO_TIE_TOL = 1e-12
PIVOT_TIE_REL = 1e-9
FEASIBILITY_TOL = 1e-9
REFACTOR_INTERVAL = 50
ROW_SCALE_THRESHOLD = 2.0 ** 10

BASIC, AT_LOWER, AT_UPPER = 0, 1, 2


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNSTABLE = "numerically unstable"


class DegenerateConeError(Exception):
    """The basis does not yield n independent, consistent tight constraints."""


@dataclass
class LpProblem:
    """min objective . z  s.t.  rows . z >= rhs,  lower <= z <= upper.

    All data is exact, ints or Fractions; ``upper`` entries may be None for +inf.
    Lower bounds must be finite.  No copy ever edits rows, so the float and
    integer images of the data are cached in two parts.  The row-level part,
    ``_row_cache``, holds what the objective and rows alone decide: the float
    rows, their transpose and the row scales, each row's integer coefficients
    and LCM, the cost image, and ``milp``'s propagation terms and complement
    checks.  The rhs-level part, ``_cache``, holds the float rhs, the integer
    rhs with each row's final scale and the propagation rows' right-hand
    sides.  ``with_bounds`` shares both parts, ``with_rhs`` only the
    row-level one, and ``with_extra_rows`` and ``with_objective`` neither.
    """

    objective: list
    rows: list
    rhs: list
    lower: list
    upper: list
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    _row_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.objective)

    @property
    def m(self) -> int:
        return len(self.rows)

    def float_data(self):
        """(objective, rows, their transpose, rhs, row scales) as floats.

        A row whose largest |coefficient| exceeds ``ROW_SCALE_THRESHOLD`` is
        multiplied, rhs included, by the power of two that brings that
        coefficient into [1/2, 1); other rows keep scale 1.  A power of two
        scales a float exactly, so multipliers of the scaled rows times the
        scales are exact multipliers of the problem's own rows.
        """
        if "float" not in self._cache:
            if "float" not in self._row_cache:
                R, scales = [], []
                for row in self.rows:
                    fr = [float(v) for v in row]
                    big = max(map(abs, fr), default=0.0)
                    s = math.ldexp(1.0, -math.frexp(big)[1]) if big > ROW_SCALE_THRESHOLD else 1.0
                    R.append([v * s for v in fr])
                    scales.append(s)
                self._row_cache["float"] = ([float(v) for v in self.objective], R,
                                            [[row[j] for row in R] for j in range(self.n)],
                                            scales)
            c, R, RT, scales = self._row_cache["float"]
            self._cache["float"] = c, R, RT, [float(b) * s for b, s in zip(self.rhs, scales)], scales
        return self._cache["float"]

    def row_integers(self):
        """(coeffs, lcm) per row: the row times the LCM of its coefficients'
        denominators, as Python ints."""
        if "Z" not in self._row_cache:
            image = []
            for row in self.rows:
                lcm = math.lcm(*(v.denominator for v in row))
                image.append(([v.numerator * (lcm // v.denominator) for v in row], lcm))
            self._row_cache["Z"] = image
        return self._row_cache["Z"]

    def integer_rows(self):
        """(coeffs, rhs, scale) per row: the row and its rhs times ``scale``,
        the LCM of their denominators, as Python ints.  A row whose rhs
        denominator divides its ``row_integers`` LCM keeps that coefficient
        list."""
        if "Z" not in self._cache:
            image = []
            for (coeffs, lcm), b in zip(self.row_integers(), self.rhs):
                scale = math.lcm(lcm, b.denominator)
                if scale != lcm:
                    coeffs = [v * (scale // lcm) for v in coeffs]
                image.append((coeffs, b.numerator * (scale // b.denominator), scale))
            self._cache["Z"] = image
        return self._cache["Z"]

    def with_bounds(self, lower, upper) -> "LpProblem":
        return LpProblem(self.objective, self.rows, self.rhs, list(lower), list(upper),
                         self._cache, self._row_cache)

    def with_rhs(self, rhs, lower, upper) -> "LpProblem":
        """The same objective and rows over another rhs and box."""
        return LpProblem(self.objective, self.rows, list(rhs), list(lower), list(upper),
                         _row_cache=self._row_cache)

    def with_extra_rows(self, rows, rhs) -> "LpProblem":
        return LpProblem(self.objective, self.rows + [list(r) for r in rows],
                         self.rhs + list(rhs), self.lower, self.upper)

    def with_objective(self, objective) -> "LpProblem":
        return LpProblem(list(objective), self.rows, self.rhs, self.lower, self.upper)


@dataclass(frozen=True)
class Basis:
    """A final basis, to start an LP with the same leading rows.

    ``header`` names the basic column of each row, ``status`` is the
    solution's ``col_status`` and ``binv`` holds the rows of B^-1 over the
    scaled rows, which every start shares and none modifies; ``age`` counts
    the pivots since B^-1 was last rebuilt.  A problem may differ in its
    bounds and may append rows: those enter with their surplus columns
    basic.
    """

    header: tuple
    status: list
    binv: list
    age: int


@dataclass
class LpSolution:
    status: LpStatus
    x: list | None = None              # structural values, floats
    objective: float | None = None
    col_status: list | None = None     # BASIC/AT_LOWER/AT_UPPER per structural+slack
    y: list | None = None              # row multipliers c_B B^-1 of the problem's rows
    iterations: int = 0                # dual pivots, over every start tried
    basis: Basis | None = field(default=None, repr=False, compare=False)
    # (problem, exact recovery) of the last exact_primal/extract_cone call
    recovery: tuple | None = field(default=None, repr=False, compare=False)


def solve_lp(problem: LpProblem, start: Basis | None = None) -> LpSolution:
    """Solve from ``start`` when its rows lead the problem's, else, or where
    that start cannot settle the LP, from the slack basis.

    Raises ValueError when a structural with a negative cost has no finite
    upper bound, as the slack basis is then not dual feasible.
    """
    lo_f = [v.numerator / v.denominator for v in problem.lower]
    hi_f = [INF if v is None else v.numerator / v.denominator for v in problem.upper]
    if any(c < 0.0 and h == INF for c, h in zip(problem.float_data()[0], hi_f)):
        raise ValueError("a structural with a negative cost needs a finite upper bound")
    if any(l > h + 1e-12 for l, h in zip(lo_f, hi_f)):
        return LpSolution(LpStatus.INFEASIBLE)
    starts = [None]
    if start is not None and len(start.header) <= problem.m \
            and len(start.status) == problem.n + len(start.header):
        starts.insert(0, start)
    spent = 0
    for basis in starts:
        engine = _Simplex(problem, lo_f, hi_f, basis)
        sol = engine.run()
        spent += engine.iterations
        if sol is not None:
            sol.iterations = spent
            return sol
    return LpSolution(LpStatus.UNSTABLE, iterations=spent)


def dual_bound(problem: LpProblem, y, integer=(), objective: bool = True,
               basis: Basis | None = None):
    """Exact lower bound on objective . z from row multipliers y, clipped at
    0 (Neumaier and Shcherbina, Math. Prog. 99, 2004): a feasible z has
    y (R z - r) >= 0, so c z is at least the box minimum of (c - y R) z + y r,
    a Fraction, or -inf where a reduced cost points at an open bound.  When
    every column with a nonzero cost is in ``integer`` (a tuple), c z at an
    integer point is a multiple of gcd / LCM of the costs, and the bound
    rounds up to that lattice.  ``objective`` False takes c = 0.  The floats
    of y are exact binary fractions, so the work is in ints over integer
    images; bounds that are ints are read as they are.

    Float noise can leave a reduced cost on a basic column whose bound is
    open; given the final ``basis`` y came from, the bound is then taken
    from y = c_B B^-1 re-derived exactly, whose basic reduced costs are 0."""
    cost, cden, step = _cost_image(problem, integer) if objective else ([0] * problem.n, 1, 0)
    terms = [(v.as_integer_ratio(), row) for v, row in zip(y, problem.integer_rows()) if v > 0]
    den = math.lcm(cden, *(q * scale for (_, q), (_, _, scale) in terms))
    g, h = [c * (den // cden) for c in cost], 0
    for (p, q), (coeffs, b, scale) in terms:
        f = p * (den // (q * scale))
        g = [gj - f * a for gj, a in zip(g, coeffs)]
        h += f * b
    # the box minimum of g z takes each z_j at the bound g_j points to
    fractions = []
    for gj, lo, hi in zip(g, problem.lower, problem.upper):
        if gj:
            v = lo if gj > 0 else hi
            if type(v) is int:
                h += gj * v
            elif v is None:
                exact = None if basis is None else _basis_solve(
                    problem, basis.header, [cost[j] if j < problem.n else 0
                                            for j in basis.header])
                if exact is None:
                    return -math.inf
                return dual_bound(problem, [v / cden for v in exact], integer, objective)
            else:
                fractions.append((gj, v))
    num = h
    if fractions:
        scale = math.lcm(*(v.denominator for _, v in fractions))
        num = h * scale + sum(gj * v.numerator * (scale // v.denominator)
                              for gj, v in fractions)
        den *= scale
    if step:
        # num / den rounded up to a multiple of step / cden
        return Fraction(-(-num * cden // (den * step)) * step, cden)
    return Fraction(num, den)


def _cost_image(problem: LpProblem, integer):
    """(costs times cden, cden, lattice step) of the objective, cached with
    the rows per integer set: cden is the LCM of the costs' denominators, and
    the step is the gcd of the integer costs when every column with a cost
    is in ``integer``, else 0."""
    key = "c", integer
    cache = problem._row_cache
    if key not in cache:
        obj = problem.objective
        cden = math.lcm(*(v.denominator for v in obj))
        cost = [v.numerator * (cden // v.denominator) for v in obj]
        on_lattice = all(j in integer for j, c in enumerate(cost) if c)
        cache[key] = cost, cden, math.gcd(*cost) if on_lattice else 0
    return cache[key]


def _basis_solve(problem: LpProblem, header, target):
    """u with u B = target exactly, as Fractions over the problem's rows, for
    the basis whose basic columns are ``header`` and an int per basic
    column; None when that basis is singular.  It solves v B' = target over
    the rows' integer image, one row of B'^T per basic column, by
    fraction-free elimination; v times the rows' scales is u."""
    n, m, image = problem.n, problem.m, problem.integer_rows()
    scales = [scale for _, _, scale in image]
    bt = [[row[j] for row, _, _ in image] if j < n
          else [-scales[i] * (i == j - n) for i in range(m)] for j in header]
    solved = _fraction_free_solve(bt, [target])
    if solved is None:
        return None
    d, (v,) = solved
    return [Fraction(vi * scale, d) for vi, scale in zip(v, scales)]


def farkas(problem: LpProblem, y) -> bool:
    """Whether the row multipliers y prove the problem infeasible: y >= 0 and
    the ``dual_bound`` of a zero objective is positive, which no feasible z
    can meet."""
    return all(v >= 0 for v in y) and dual_bound(problem, y, objective=False) > 0


class _Simplex:
    """One solve from one start.  Columns are the n structurals and the m
    surplus columns -e_i of the scaled rows; only the structural ones are
    ever stored.

    The start is ``start`` extended to the problem's rows, or the slack
    basis: B = -I, and each structural at its upper bound when its cost is
    negative and that bound is finite, else at its lower bound.
    """

    def __init__(self, problem: LpProblem, lo_s, hi_s, start: Basis | None = None):
        self.problem = problem
        c_f, self.R, self.RT, self.r, self.scales = problem.float_data()
        self.n = n = problem.n
        self.m = m = problem.m
        self.lo = lo_s + [0.0] * m
        self.hi = hi_s + [INF] * m
        self.cost = c_f + [0.0] * m
        self.iterations = 0
        if start is None:
            self.basis = list(range(n, n + m))
            self.binv = [[-float(i == k) for k in range(m)] for i in range(m)]
            self.pivots_since_refactor = 0
            self.status = [AT_UPPER if c < 0.0 and h < INF else AT_LOWER
                           for c, h in zip(c_f, hi_s)] + [BASIC] * m
        else:
            # B = [[B0, 0], [C, -I]] for appended rows holding C in B0's
            # columns, so B^-1 = [[B0^-1, 0], [C B0^-1, -I]].  The start's
            # B^-1 rows are replaced, never edited, so the parent's stay intact
            m0 = len(start.header)
            self.basis = list(start.header) + list(range(n + m0, n + m))
            self.binv = [row + [0.0] * (m - m0) for row in start.binv]
            for i in range(m0, m):
                c = [self.R[i][j] if j < n else 0.0 for j in start.header]
                self.binv.append([sum(map(mul, c, col)) for col in zip(*start.binv)]
                                 + [-float(k == i) for k in range(m0, m)])
            self.pivots_since_refactor = start.age
            self.status = list(start.status) + [BASIC] * (m - m0)
        self.vals = [h if s == AT_UPPER else lo
                     for s, lo, h in zip(self.status, self.lo, self.hi)]

    def run(self) -> LpSolution | None:
        """The dual loop to primal feasibility; None where this start cannot
        settle the LP, or reaches a vertex at which some nonbasic reduced
        cost has the wrong sign (the start was not dual feasible)."""
        if INF in self.vals:        # a start at an upper bound that is now +inf
            return None
        status = self._dual()
        if status is LpStatus.OPTIMAL:
            y = self._duals()
            return self._solution(y) if self._dual_feasible(y) else None
        if status is LpStatus.UNSTABLE:
            return None
        return LpSolution(status, iterations=self.iterations)

    def _duals(self):
        """y = c_B B^-1: column k prices at cost_k - y . column_k, so the
        surplus column -e_i prices at y_i."""
        cB = [self.cost[j] for j in self.basis]
        return [sum(map(mul, cB, col)) for col in zip(*self.binv)]

    def _dual_feasible(self, y) -> bool:
        """Whether no nonbasic column that can move prices at the duals y to
        a reduced cost of the wrong sign for its bound beyond REDUCED_COST_TOL."""
        n, cost, RT = self.n, self.cost, self.RT
        for k, (sk, lo, hi) in enumerate(zip(self.status, self.lo, self.hi)):
            if sk == BASIC or not hi - lo > 0:
                continue
            dk = cost[k] - sum(map(mul, y, RT[k])) if k < n else y[k - n]
            if (dk < -REDUCED_COST_TOL) if sk == AT_LOWER else (dk > REDUCED_COST_TOL):
                return False
        return True

    def _certified(self, p, sign) -> LpStatus:
        """INFEASIBLE when ``farkas`` proves it with y = sign times row p of
        B^-1, clipped at 0 and carried to the problem's rows by the row
        scales, or failing that with row p of the exact B^-1: float noise of
        1e-16 left on a basic column can tilt y's combination toward an open
        upper bound.  Else UNSTABLE: a float verdict alone never declares an
        LP infeasible."""
        y = [sign * v * s for v, s in zip(self.binv[p], self.scales)]
        if farkas(self.problem, [v if v > 0.0 else 0.0 for v in y]):
            return LpStatus.INFEASIBLE
        u = _basis_solve(self.problem, self.basis, [int(q == p) for q in range(self.m)])
        if u is not None and farkas(self.problem, [max(int(sign) * v, 0) for v in u]):
            return LpStatus.INFEASIBLE
        return LpStatus.UNSTABLE

    def _solution(self, y) -> LpSolution:
        """The Optimal solution at the primal and dual feasible basis ``run``
        just checked, its duals y carried to the problem's rows by the row
        scales.  A nonbasic structural with lower = upper is reported at its
        lower bound, so the tight set names the bound that was not tightened."""
        n = self.n
        x = self.vals[:n]
        lower, upper = self.problem.lower, self.problem.upper
        col_status = [AT_LOWER if s == AT_UPPER and j < n and lower[j] == upper[j] else s
                      for j, s in enumerate(self.status)]
        return LpSolution(LpStatus.OPTIMAL, x, sum(map(mul, self.cost, x), 0.0),
                          col_status, list(map(mul, y, self.scales)), self.iterations,
                          Basis(tuple(self.basis), col_status, self.binv,
                                self.pivots_since_refactor))

    # -- pivoting -------------------------------------------------------

    def _recompute_basics(self):
        n, vals = self.n, self.vals
        v = [0.0 if s == BASIC else x for s, x in zip(self.status, vals)]
        b = [ri - sum(map(mul, row, v)) + v[n + i]
             for i, (row, ri) in enumerate(zip(self.R, self.r))]
        for j, row in zip(self.basis, self.binv):
            vals[j] = sum(map(mul, row, b))

    def _column(self, j):
        """Column j of [R | -I]."""
        if j < self.n:
            return self.RT[j]
        col = [0.0] * self.m
        col[j - self.n] = -1.0
        return col

    def _ftran(self, j):
        """B^-1 times column j: a negated column of B^-1 unless j is structural."""
        if j < self.n:
            col = self.RT[j]
            return [sum(map(mul, row, col)) for row in self.binv]
        return [-row[j - self.n] for row in self.binv]

    def _refactor(self) -> bool:
        """B^-1 by Gauss-Jordan elimination with partial pivoting; False when
        a pivot falls below PIVOT_TOL (singular basis)."""
        m = self.m
        cols = [self._column(j) for j in self.basis]
        work = [[col[i] for col in cols] + [float(i == k) for k in range(m)]
                for i in range(m)]
        for c in range(m):
            piv = max(range(c, m), key=lambda i: abs(work[i][c]))
            if abs(work[piv][c]) < PIVOT_TOL:
                return False
            work[c], work[piv] = work[piv], work[c]
            pv = work[c][c]
            top = work[c] = [v / pv for v in work[c]]
            for i in range(m):
                f = work[i][c]
                if i != c and f != 0.0:
                    work[i] = [a - f * b for a, b in zip(work[i], top)]
        self.binv = [row[m:] for row in work]
        self.pivots_since_refactor = 0
        return True

    def _dual(self) -> LpStatus:
        """Bounded dual simplex until every basic value is within its bounds.

        The leaving row is the one furthest outside; the entering column
        keeps the reduced costs' signs (smallest ratio, then the largest
        pivot, then the lowest index).  Pivots within a relative
        ``PIVOT_TIE_REL`` of the largest count as tied, so float noise in
        two exactly equal pivots, which differs between interpreters (the
        built-in ``sum`` is compensated since Python 3.12), never picks the
        column.  OPTIMAL once primal feasible, for ``run`` to price.  When
        the leaving row has no entering column, that row of B^-1, signed to
        the side the basic value must move, is the Farkas candidate:
        INFEASIBLE if it passes, UNSTABLE if not, as on a failed pivot or
        past the iteration cap.
        """
        n, m = self.n, self.m
        lo, hi, status, vals, basis, RT, cost = (self.lo, self.hi, self.status, self.vals,
                                                 self.basis, self.RT, self.cost)
        cap = 3 * (m + n)
        while True:
            self._recompute_basics()
            p, worst, below = -1, FEASIBILITY_TOL, False
            for q, jb in enumerate(basis):
                if lo[jb] - vals[jb] > worst:
                    p, worst, below = q, lo[jb] - vals[jb], True
                elif vals[jb] - hi[jb] > worst:
                    p, worst, below = q, vals[jb] - hi[jb], False
            if p < 0:
                return LpStatus.OPTIMAL
            self.iterations += 1
            if self.iterations > cap:
                return LpStatus.UNSTABLE
            # a below-lower basic rises as a column at lower with a negative
            # alpha increases or one at upper with a positive alpha decreases
            row = self.binv[p]
            sign = 1.0 if below else -1.0
            eligible = []
            for k in range(n + m):
                sk = status[k]
                if sk == BASIC or not hi[k] - lo[k] > 0:
                    continue
                alpha = sign * (sum(map(mul, row, RT[k])) if k < n else -row[k - n])
                if (alpha < -PIVOT_TOL) if sk == AT_LOWER else (alpha > PIVOT_TOL):
                    eligible.append((k, abs(alpha)))
            if not eligible:
                return self._certified(p, -sign)
            y = self._duals()
            candidates = []
            for k, a in eligible:
                dk = cost[k] - sum(map(mul, y, RT[k])) if k < n else y[k - n]
                candidates.append((max(dk if status[k] == AT_LOWER else -dk, 0.0) / a, a, k))
            limit = min(candidates)[0] + RATIO_TIE_TOL
            tied = [c for c in candidates if c[0] <= limit]
            if len(tied) > 1:
                top = max(c[1] for c in tied) * (1.0 - PIVOT_TIE_REL)
                tied = [c for c in tied if c[1] >= top]
            j = tied[0][2]      # candidates run by column index
            u = self._ftran(j)
            if abs(u[p]) < PIVOT_TOL:
                return LpStatus.UNSTABLE
            leaving = basis[p]
            status[leaving] = AT_LOWER if below else AT_UPPER
            vals[leaving] = lo[leaving] if below else hi[leaving]
            status[j] = BASIC
            basis[p] = j
            if not self._update_binv(u, p):
                return LpStatus.UNSTABLE

    def _update_binv(self, u, p) -> bool:
        pe = u[p]
        if abs(pe) < PIVOT_TOL:
            return self._refactor()
        binv = self.binv
        top = binv[p] = [v / pe for v in binv[p]]
        for i, ui in enumerate(u):
            if i != p and ui != 0.0:
                binv[i] = [a - ui * b for a, b in zip(binv[i], top)]
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= REFACTOR_INTERVAL:
            return self._refactor()
        return True


# ---------------------------------------------------------------------------
# exact recovery from the final basis


@dataclass(frozen=True)
class SimplicialCone:
    """Exact translated simplicial cone vertex + cone(rays) containing the
    LP's feasible region.

    ``vertex`` holds Fractions, ``rays`` and ``facets`` Python ints.  The
    facets are the n tight constraints: a row's integer image, sigma e_j for
    a bound (sigma = -1 at an upper bound).  Facet p meets ray q at 0 for
    p != q and at a positive int for p = q, and the cone is
    {z : facet_p (z - vertex) >= 0 for every p}.
    ``bound_supports`` lists the (variable index, at_upper) bound constraints
    among them; callers that share cuts across a search tree use it to
    reject cones resting on node-local bounds.
    """

    vertex: tuple
    rays: tuple
    bound_supports: tuple
    facets: tuple


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


def _recover(problem: LpProblem, solution: LpSolution):
    """(rows, bound_supports, vertex) of the basis's n tight constraints.

    The tight set is the nonbasic rows, then the nonbasic bounds; a solver
    basis leaves exactly n columns nonbasic, and any other count is refused.
    Coordinates at a tight bound are read off it, the others solve the tight
    rows' integer image.  Raises DegenerateConeError.
    """
    n, st, image = problem.n, solution.col_status, problem.integer_rows()
    rows = [i for i in range(problem.m) if st[n + i] != BASIC]
    bounds = tuple((j, st[j] == AT_UPPER) for j in range(n) if st[j] != BASIC)
    if len(rows) + len(bounds) != n:
        raise DegenerateConeError(f"{len(rows) + len(bounds)} tight constraints, not n = {n}")
    fixed = {j: problem.upper[j] if up else problem.lower[j] for j, up in bounds}
    free = [j for j in range(n) if j not in fixed]
    # int bounds stay ints: scale is 1 unless a fixed bound is a Fraction
    scale = math.lcm(*(v.denominator for v in fixed.values()))
    values = [v.numerator * (scale // v.denominator) for v in fixed.values()]
    rhs = [image[i][1] * scale - sum(map(mul, [image[i][0][j] for j in fixed], values))
           for i in rows]
    solved = _fraction_free_solve([[image[i][0][j] for j in free] for i in rows], [rhs])
    if solved is None:
        raise DegenerateConeError("tight constraints are rank deficient")
    vertex = [Fraction(fixed[j]) if j in fixed else None for j in range(n)]
    for j, v in zip(free, solved[1][0]):
        vertex[j] = Fraction(v, solved[0] * scale)
    return rows, bounds, tuple(vertex)


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
        if sum(map(mul, coeffs, scaled)) < b * denom:
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
    """Simplicial cone at the solved basis's vertex, exactly, in ints.

    The n constraints are the tight set, rows first, then bounds; ray q
    relaxes constraint q and keeps the others tight.  Any feasible point z
    then satisfies z = vertex + sum lambda_q ray_q with lambda >= 0, so the
    cone contains the feasible region regardless of degeneracy.  Every ray
    meets its own facet at |det|, the determinant of the eliminated rows.
    """
    rows, bounds, vertex = _recovered(problem, solution)
    n, image = problem.n, problem.integer_rows()
    fixed = [j for j, _ in bounds]
    free = [j for j in range(n) if j not in fixed]
    # a row's ray meets its integer row at det and the other tight rows at 0;
    # a bound's ray moves its variable by sigma det, which the rows absorb
    cols = [[int(i == r) for r in rows] for i in rows]
    cols += [[-image[i][0][j] for i in rows] for j in fixed]
    det, nums = _fraction_free_solve([[image[i][0][j] for j in free] for i in rows], cols)
    sign, det = (1, det) if det > 0 else (-1, -det)
    sigmas = [1] * len(rows) + [-1 if up else 1 for _, up in bounds]
    rays, facets = [], [tuple(image[i][0]) for i in rows]
    for sigma, own, num in zip(sigmas, [None] * len(rows) + fixed, nums):
        ray = [sigma * (j == own) for j in range(n)]
        if own is not None:
            facets.append(tuple(ray))       # sigma e_own
            ray[own] *= det
        for j, v in zip(free, num):
            ray[j] = sigma * sign * v
        rays.append(tuple(ray))
    return SimplicialCone(vertex=vertex, rays=tuple(rays), bound_supports=bounds,
                          facets=tuple(facets))
