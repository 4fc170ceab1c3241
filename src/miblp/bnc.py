"""Branch-and-cut driver.

The search keeps a best-first queue ordered by parent dual bound (FIFO on
ties).  Bounds of integer variables are Python ints, rounded inward from
the instance's box, and a split puts floor(v) and floor(v) + 1 into the
children.  Each popped node first tightens its box with ``milp.propagate``,
the activity-bound propagation with integer rounding that the direction
MILP runs too, over the instance rows and the pooled cuts whose columns are
all integer, and then the incumbent's objective cutoff.  With the costs
scaled to ints by their common denominator cden, step the gcd of the
integer columns' costs and low the least the continuous columns' costs
reach over the instance's box, every point better than the incumbent's
value v has cost_int . z < v cden - low, a multiple of step, so it meets
cost_int . z <= step (ceil((v cden - low) / step) - 1); on a pure integer
instance that is cost . z <= v cden - step.  No row is built when no
integer column has a cost, and it is a propagation row only: the node LP
never holds it.  Pooling a cut or improving the incumbent drops the
propagation rows, and the next box to propagate rebuilds them.  As in the
direction MILP, the root propagates from every integer column and a child
from its branched column only.  A box left with no integer point better
than the incumbent closes without an LP (``SolveStats.propagated``, trace
action ``pruned-propagated``) and is not counted in ``SolveStats.nodes``,
which counts the other popped nodes.  The root is popped before any
incumbent exists, so its propagated box follows from the rows and the
instance's box alone, and it becomes the root box of the globality test
below; a bound the cutoff moved is not a root bound, so no pooled cut rests
on it.  Node boxes never reach the follower's problem: the oracle, the
value function and the free sets read the instance's own bounds.

A box that fixes every linking variable (the leader columns of the
follower rows) at x needs no LP either.  The follower's value phi(x) is
then one number, so a point of the box is bilevel feasible exactly when it
meets the rows, the pool and d2 . y <= phi(x).  Two exact MILPs settle the
box (Tahernejad, Ralphs and DeNegre, Math. Prog. Comp. 12, 2020): phi(x)
over the instance's follower box, cached by the linking values and shared
with legacy mode's checks, and the leader's problem over the box, the
pooled rows, that row and the incumbent's cutoff, whose optimum, if any,
is offered as the incumbent.  The leader MILP's rows are dropped when the
pool grows or the first incumbent arrives, as a better one moves only the
cutoff's rhs; the next such box rebuilds them, and each box shares them
through ``LpProblem.with_rhs``.  The box then closes
(``SolveStats.linking_closed``, trace action ``pruned-linking-fixed``;
``linking_nodes`` counts the two MILPs' node LPs).  Both MILPs stop at
the solve's deadline; a limit or a failure in either leaves the box to
the node LP.  Each branch splits the most fractional unfixed linking
variable, so only such a box branches on another integer column.  One
with every integer column fixed closes at its LP's integral vertex: as
incumbent where no step improves the follower there, and where a pooled
or found step, or legacy mode's value-function check, refutes it, as
infeasible (trace action ``pruned-refuted``), since its points share the
vertex's integer part and continuous leaders stay out of the follower
rows.  One whose LP cannot settle it, or whose direction search fails, is
set aside (``SolveStats.unsettled``, trace action ``unsettled``).  The search goes
on, and ends LIMIT_REACHED at the least set-aside bound while one is below
the final incumbent's value or there is no incumbent.

Each node solves its LP over the instance rows, the global cut pool, and the
node's own bounds, then runs a cut loop at the exact LP vertex.  The LP
starts from the parent's final basis, or in a later cut round from the
previous round's; rows the pool has gained since enter with their surplus
columns basic.  The root, and an LP its start cannot settle, use the slack
basis.  Every prune is exact: a node closes once ``simplex.dual_bound`` of
its LP's multipliers, rounded up to the objective's lattice, or its parent's
bound when it is popped, reaches the incumbent's value, "infeasible" rests
on the simplex's Farkas certificate, and a box that propagation closes rests
on integer rows that every better bilevel-feasible point meets.  An unproven
verdict, or a vertex with no exact recovery, is a numerical failure: the
node splits its first unfixed integer column at the midpoint, and its
children keep the best bound known.

The improving-direction oracle is queried only where its answer can change
the tree: where a found direction can still become a cut (cut rounds remain
and the vertex's cone rests on root bounds, see below), or at an integral
vertex that no direction from the solve's pool refutes.  A certificate of "no
improving direction" at an integral vertex makes it the incumbent, a found
direction feeds intersection-cut generation where it can, and anything else
branches.  Every subsolver MILP, direction searches included, stops at the
solve's one deadline, the ``time.monotonic()`` value at which its time limit
runs out; a query that reaches it branches.

Legacy mode, the value-function baseline, takes the same path with two
differences: every fractional vertex branches without a query (both modes
count these in ``SolveStats.oracle_skipped``), and at an integral vertex the
follower value compared against the value function, not the pool or the
direction search, gives the verdict.  A refuted vertex is then searched by
the exact (ID), whatever the configured method, only where a cut can follow.

Cuts are pooled globally, so a cut is only generated from cones resting on
globally valid constraints: when the cone's tight set uses a variable bound
that branching or propagation has tightened away from its root value, the
node branches instead.  A free set swallowing the entire cone certifies that the cone, and
hence the node, holds no bilevel feasible point, so the node is pruned.
"""
from __future__ import annotations

import heapq
import itertools
import math
import operator
import sys
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction

from . import cuts as cuts_mod
from . import milp
from . import oracle as oracle_mod
from . import simplex
from .cuts import ConeContainedError, NotSeparableError
from .instance import MiblpInstance, Point
from .milp import MilpProblem, MilpStatus, propagate, propagation_rows
from .oracle import (DirectionMethod, OracleConfig, OracleInconclusive,
                     OutcomeKind)
from .simplex import DegenerateConeError, LpProblem, LpStatus

MAX_CUT_ROUNDS = 20
TAILING_OFF_ROUNDS = 3


class OracleMode(Enum):
    IMPROVING_DIRECTION = "id"
    LEGACY = "legacy"


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    LIMIT_REACHED = "limit reached"


@dataclass(frozen=True)
class SolverConfig:
    oracle_mode: OracleMode = OracleMode.IMPROVING_DIRECTION
    oracle: OracleConfig = field(default_factory=OracleConfig)
    use_idic: bool = True
    use_isic: bool = False
    node_limit: int | None = None
    time_limit: float | None = None
    trace: bool = False

    def __post_init__(self):
        if not self.use_idic and not self.use_isic:
            raise ValueError("at least one cut family must be enabled")


@dataclass
class SolveStats:
    nodes: int = 0
    lp_solves: int = 0
    cut_rounds: int = 0
    cuts_idic: int = 0
    cuts_isic: int = 0
    oracle_calls: int = 0
    oracle_time: float = 0.0
    oracle_nodes: int = 0       # node LPs of the direction-search MILPs
    oracle_skipped: int = 0     # fractional vertices branched without a query
    pool_refutations: int = 0   # integral vertices refuted by a pooled direction
    certificates: int = 0
    propagated: int = 0         # boxes closed by propagation, without an LP
    linking_closed: int = 0     # boxes with every linking variable fixed, closed by MILPs
    linking_nodes: int = 0      # node LPs of those boxes' value-function and leader MILPs
    unsettled: int = 0          # boxes set aside with every integer column fixed
    # cuts computed and not pooled, by reason
    cut_rejects: dict = field(default_factory=lambda: dict.fromkeys(
        ("not-separable", "duplicate", "coefficient-cap"), 0))


@dataclass
class SolveResult:
    status: SolveStatus
    incumbent: Point | None
    value: Fraction | None
    bound: float
    gap: float
    stats: SolveStats
    trace: tuple = ()
    cut_log: tuple = ()     # the pooled Cuts, in pooling order


@dataclass
class _Node:
    id: int
    depth: int
    parent_bound: Fraction | float     # exact, or -inf
    lower: list
    upper: list
    start: simplex.Basis | None = None     # the parent's final LP basis
    branched: int | None = None            # the column split to make it; None at the root


class DirectionPool:
    """Improving directions found earlier in the solve, most recently used
    first, each with its activity on the rows of the oracle's integer step
    image, so that re-checking a pooled w at a point is exact and needs
    only the image's right-hand side and box there."""

    def __init__(self, inst: MiblpInstance):
        self.inst = inst
        self.rows = inst.step_rows
        self.entries = []            # (w, rows . w), move-to-front

    def add(self, w):
        if all(w != e[0] for e in self.entries):
            self.entries.insert(0, (w, tuple(sum(map(operator.mul, row, w))
                                             for row in self.rows)))

    def refute(self, point: Point):
        """A pooled w improving the follower at the point, or None."""
        image = oracle_mod.step_image(self.inst, point)
        for i, (w, activity) in enumerate(self.entries):
            if image.admits(w, activity):
                self.entries.insert(0, self.entries.pop(i))
                return w
        return None


def solve(inst: MiblpInstance, cfg: SolverConfig | None = None) -> SolveResult:
    return BranchAndCut(inst, cfg or SolverConfig()).run()


def choose_branch_variable(inst: MiblpInstance, point: Point, node):
    """Pick (index, exact value) to branch on, or None if every integer
    variable is fixed.

    The most fractional unfixed linking variable, integral values allowed.
    A box with every linking variable fixed reaches its LP only when its
    fixed-linking MILPs failed; it takes the most fractional integer
    variable, or if all are integral, the lowest-index unfixed one.  Ties
    go to the lowest index.
    """
    z = point.joint()

    def distance(j):
        """z_j = p / q's distance min(r, q - r) / q, r = p mod q, to the
        nearest integer."""
        q = z[j].denominator
        r = z[j].numerator % q
        return Fraction(min(r, q - r), q)

    candidates = [j for j in inst.linking_indices() if node.lower[j] < node.upper[j]]
    if not candidates:
        candidates = inst.integer_indices()
        if all(z[j].denominator == 1 for j in candidates):
            candidates = [j for j in candidates if node.lower[j] < node.upper[j]][:1]
    if not candidates:
        return None
    j = max(candidates, key=distance)
    return j, z[j]


class BranchAndCut:
    def __init__(self, inst: MiblpInstance, cfg: SolverConfig):
        self.inst = inst
        self.cfg = cfg
        self.stats = SolveStats()
        self.trace_lines = []
        self.pool = []               # list[Cut]
        self.pool_keys = set()
        self.integer = inst.integer_indices()
        self.linking = inst.linking_indices()
        # integer columns' bounds are ints, rounded inward; the root's
        # propagated box replaces these once the root is popped
        integer = set(self.integer)
        self.root_lower = [math.ceil(v) if j in integer else v
                           for j, v in enumerate(inst.lower)]
        self.root_upper = [math.floor(v) if j in integer else v
                           for j, v in enumerate(inst.upper)]
        obj = list(inst.c) + list(inst.d1)
        rows = [list(co) for co, _ in inst.all_rows()]
        rhs = [b for _, b in inst.all_rows()]
        # the instance rows, then the pool; derived rows are None until used
        self.lp = LpProblem(obj, rows, rhs, self.root_lower, self.root_upper)
        self._propagation = None        # the propagation rows, cutoff last
        self._leader_lp = None          # the leader MILP's LP
        self._cutoff_image = self._cutoff_terms()
        self.incumbent: Point | None = None
        self.value: Fraction | None = None
        self.phi_cache: dict = {}      # linking values -> phi there, None for +inf
        self.directions = DirectionPool(inst)
        # legacy mode searches directions only to cut from, by the exact (ID)
        self.oracle_cfg = cfg.oracle if cfg.oracle_mode is OracleMode.IMPROVING_DIRECTION \
            else replace(cfg.oracle, method=DirectionMethod.EXACT_MILP)
        self._deadline = None           # time.monotonic() at the time limit, set by run()

    # -- plumbing -------------------------------------------------------

    def _cutoff_terms(self):
        """(terms, cden, step, low) of the objective cutoff, or None when no
        integer column has a cost: the integer columns' costs times cden as
        ``propagate`` terms, negated; step, their gcd; and low, the least
        cost times cden of the continuous columns over the instance's box."""
        cost, cden, _ = simplex._cost_image(self.lp, self.integer)
        step = math.gcd(*(cost[j] for j in self.integer))
        if not step:
            return None
        integer, low = set(self.integer), 0
        for j, c in enumerate(cost):
            if c and j not in integer:
                low += c * (self.inst.lower[j] if c > 0 else self.inst.upper[j])
        return [(j, -cost[j]) for j in self.integer if cost[j]], cden, step, low

    def _cutoff(self):
        """The row (terms, rhs) in the ``propagate`` form of cost_int . z <=
        step (ceil((v cden - low) / step) - 1), or None without an incumbent
        or a ``_cutoff_terms`` row.  A point better than the incumbent's value
        v has cost_int . z < v cden - low, and cost_int . z is a multiple of
        step, so it meets the row; with no continuous cost, low = 0 and the
        bound is v cden - step."""
        if self.value is None or self._cutoff_image is None:
            return None
        terms, cden, step, low = self._cutoff_image
        gap = self.value * cden - low
        return terms, step * (1 - -(-gap.numerator // (gap.denominator * step)))

    def _node_lp(self, node: _Node) -> LpProblem:
        return self.lp.with_bounds(node.lower, node.upper)

    def _tighten(self, node: _Node) -> bool:
        """Propagate the node's integer bounds in place over the instance
        rows, the pool and the incumbent's cutoff; False when its box holds
        no integer point better than the incumbent.  The root starts from
        every integer column, a child from its branched column."""
        if self._propagation is None:
            cutoff = self._cutoff()
            self._propagation = propagation_rows(
                self.lp, self.integer, () if cutoff is None else (cutoff,))
        moved = self.integer if node.branched is None else (node.branched,)
        rows, by_col, visits = self._propagation
        return propagate(rows, by_col, node.lower, node.upper, moved, visits)

    def _trace(self, node: _Node, bound, action: str):
        if self.cfg.trace:
            b = "inf" if bound is None else f"{float(bound):.9g}"
            self.trace_lines.append(
                f"node {node.id} depth {node.depth} bound {b} {action}")

    def _accept(self, node: _Node, point: Point, bound):
        """Record a certified bilevel feasible point as incumbent if better."""
        value = self.inst.leader_value(point)
        if self.value is None or value < self.value:
            if self.value is None:
                self._leader_lp = None      # it gains the cutoff row
            self.incumbent, self.value = point, value
            self._propagation = None
        self._trace(node, bound, f"incumbent value {value}")

    def _oracle(self, point: Point, depth: int):
        """The direction search, held to the solve's deadline; every direction
        it finds joins the pool."""
        self.stats.oracle_calls += 1
        t0 = time.perf_counter()
        try:
            outcome = oracle_mod.find_improving_direction(self.inst, point, depth,
                                                          self.oracle_cfg, self._deadline)
        finally:
            self.stats.oracle_time += time.perf_counter() - t0
        self.stats.oracle_nodes += outcome.nodes
        if outcome.kind is OutcomeKind.FOUND:
            self.directions.add(outcome.direction.w)
        return outcome

    def _phi(self, x):
        """(phi(x), node LPs its MILP took): phi is None for +inf and is
        cached by the linking values, which alone decide it, so a cached
        value took 0.  A limit or failure raises OracleInconclusive."""
        key = tuple(x[j] for j in self.linking)
        if key in self.phi_cache:
            return self.phi_cache[key], 0
        sol = oracle_mod.solve_phi(self.inst, x, self._deadline)
        self.phi_cache[key] = sol.objective
        return sol.objective, sol.nodes

    def _legacy_check(self, point: Point) -> bool:
        phi, _ = self._phi(point.x)
        return phi is not None and self.inst.follower_value(point.y) <= phi

    def _close_fixed_linking(self, node: _Node) -> bool:
        """Settle a box that fixes every linking variable at x with two exact
        MILPs, phi(x) and the leader's problem over the box, the pooled
        rows, d2 . y <= phi(x) and the incumbent's cutoff: a point of the box
        is bilevel feasible exactly when it meets that row, so the leader
        MILP's optimum, if any, is the best point the box has left.  False,
        leaving the node to the LP path, when either MILP hit a limit or
        failed."""
        n1 = self.inst.n1
        try:
            phi, spent = self._phi(node.lower[:n1])
            self.stats.linking_nodes += spent
            sol = None if phi is None else milp.solve_milp(
                self._leader_milp(node, phi), deadline=self._deadline)
        except (OracleInconclusive, milp.MilpError):
            return False
        if sol is not None:
            self.stats.linking_nodes += sol.nodes
            if sol.status is MilpStatus.LIMIT_REACHED:
                return False
        self.stats.linking_closed += 1
        self._prune(node, "linking-fixed")
        if sol is not None and sol.status is MilpStatus.OPTIMAL:
            self._accept(node, Point(tuple(sol.x[:n1]), tuple(sol.x[n1:])), sol.objective)
        return True

    def _leader_milp(self, node: _Node, phi) -> MilpProblem:
        """The leader's MILP over the node's box, the pooled rows, -d2 . y >=
        -phi and, with an incumbent, the cutoff row.  Its rows are rebuilt
        here once the pool has grown or the first incumbent has arrived;
        only -phi, the cutoff's rhs and the box change from one box to the
        next."""
        cutoff = self._cutoff()
        if self._leader_lp is None:
            n1, n = self.inst.n1, self.inst.num_vars
            rows = [[0] * n1 + [-d for d in self.inst.d2]]
            if cutoff is not None:
                row = [0] * n
                for j, a in cutoff[0]:
                    row[j] = a
                rows.append(row)
            self._leader_lp = self.lp.with_extra_rows(rows, [0] * len(rows))
        rhs = self.lp.rhs + [-phi] + ([] if cutoff is None else [cutoff[1]])
        return MilpProblem(self._leader_lp.with_rhs(rhs, node.lower, node.upper),
                           self.integer)

    def _cone_is_global(self, bound_supports, node: _Node) -> bool:
        """Whether every bound the cone rests on in the node's box is a
        root bound."""
        for j, at_upper in bound_supports:
            if at_upper:
                if node.upper[j] != self.root_upper[j]:
                    return False
            elif node.lower[j] != self.root_lower[j]:
                return False
        return True

    def _can_cut(self, prob: LpProblem, sol, node: _Node, rounds: int, tail: int) -> bool:
        """Whether a direction found at the node's solved vertex could become
        a pooled cut; uses the cached recovery, so computes no ray."""
        return (rounds < MAX_CUT_ROUNDS and tail < TAILING_OFF_ROUNDS
                and self._cone_is_global(simplex.tight_bound_supports(prob, sol), node))

    def _make_cuts(self, cone, point: Point, direction) -> int:
        """Generate enabled cuts from the direction; returns cuts added.

        A cut is pooled unless it is a duplicate or one of its ints has more
        bits than a float's mantissa: the node LP's float image of a row
        that fits is exact, as its row scaling is by a power of two.  The
        cut needs no violation test, since the point is the cone's vertex,
        which every cut computed there cuts off.  The round's pooled cuts
        join ``self.lp`` and drop the rows derived from it, also when a
        later free set swallows the cone."""
        free_sets = []
        if self.cfg.use_idic:
            free_sets.append(("idic", cuts_mod.bfs_from_direction(self.inst, direction)))
        if self.cfg.use_isic:
            y_star = tuple(a + b for a, b in zip(point.y, direction.w))
            if all(v.denominator == 1 for v in y_star):
                free_sets.append(("isic", cuts_mod.bfs_from_solution(self.inst, y_star)))
        rejects = self.stats.cut_rejects
        start = len(self.pool)
        try:
            for family, fs in free_sets:
                try:
                    cut = cuts_mod.intersection_cut(cone, fs, self.inst.n1)
                except NotSeparableError:
                    rejects["not-separable"] += 1
                    continue
                row = cut.row() + [cut.beta]
                reject = ("duplicate" if cut.key() in self.pool_keys else
                          "coefficient-cap"
                          if max(map(abs, row)).bit_length() > sys.float_info.mant_dig
                          else None)
                if reject:
                    rejects[reject] += 1
                    continue
                self.pool.append(cut)
                self.pool_keys.add(cut.key())
                if family == "idic":
                    self.stats.cuts_idic += 1
                else:
                    self.stats.cuts_isic += 1
        finally:
            new = self.pool[start:]
            if new:
                self.lp = self.lp.with_extra_rows([c.row() for c in new],
                                                  [c.beta for c in new])
                self._propagation = self._leader_lp = None
        return len(new)

    # -- node processing --------------------------------------------------

    def bound_node(self, node: _Node):
        """Bound the node with the LP + cut loop, and close it where it can.

        Returns None once the node is closed: pruned (trace action
        ``pruned-<reason>``) or its vertex taken as incumbent.  Otherwise
        returns (point, bound) to branch on, point None on a numerical
        failure.  Legacy mode differs in the two conditions that read
        ``legacy``.  A box that fixes every integer column and whose
        vertex is refuted is pruned as "refuted": its points share the
        vertex's integer part, and continuous leaders stay out of the
        follower rows, so the step improves the follower at every point of
        the box.
        """
        legacy = self.cfg.oracle_mode is OracleMode.LEGACY
        rounds = 0
        tail = 0
        bound = None
        while True:
            prob = self._node_lp(node)
            sol = simplex.solve_lp(prob, node.start)
            node.start = sol.basis      # the next round's and the children's start
            self.stats.lp_solves += 1
            if sol.status is LpStatus.INFEASIBLE:
                return self._prune(node, "infeasible")
            if sol.status is LpStatus.UNSTABLE:
                return None, bound
            prev = bound
            bound = simplex.dual_bound(prob, sol.y, self.integer, basis=sol.basis)
            if prev is not None:
                tail = tail + 1 if bound <= prev else 0
            if self.value is not None and bound >= self.value:
                return self._prune(node, "bound")
            exact = simplex.exact_primal(prob, sol)
            if exact is None:
                return None, bound
            point = Point(tuple(exact[:self.inst.n1]), tuple(exact[self.inst.n1:]))
            integral = self.inst.is_integral(point)
            can_cut = self._can_cut(prob, sol, node, rounds, tail)
            if not integral and (legacy or not can_cut):
                # every oracle outcome at such a vertex branches
                self.stats.oracle_skipped += 1
                return point, bound

            refuted = False
            if integral and legacy:
                try:
                    feasible = self._legacy_check(point)
                except OracleInconclusive:
                    return point, bound
                if feasible:
                    return self._certified(node, point, bound)
                refuted = True
            elif integral and not can_cut and self.directions.refute(point) is not None:
                self.stats.pool_refutations += 1
                refuted = True
            # a refuted vertex is queried only for a direction to cut from
            if refuted and not can_cut:
                return self._branch(node, point, bound, refuted)
            try:
                outcome = self._oracle(point, node.depth)
            except OracleInconclusive:
                return self._branch(node, point, bound, refuted)
            if outcome.kind is OutcomeKind.NO_IMPROVING_DIRECTION and integral and not refuted:
                return self._certified(node, point, bound)
            found = outcome.kind is OutcomeKind.FOUND
            refuted = refuted or integral and found

            # anything but a direction to cut from branches
            if not found or not can_cut:
                return self._branch(node, point, bound, refuted)
            try:
                cone = simplex.extract_cone(prob, sol)
            except DegenerateConeError:
                return self._branch(node, point, bound, refuted)
            try:
                added = self._make_cuts(cone, point, outcome.direction)
            except ConeContainedError:
                return self._prune(node, "cone-contained")
            if added == 0:
                return self._branch(node, point, bound, refuted)
            rounds += 1
            self.stats.cut_rounds += 1

    def _prune(self, node: _Node, reason: str):
        """Trace the node as pruned for ``reason``; returns None, as
        ``bound_node`` does for a closed node."""
        self._trace(node, None, f"pruned-{reason}")

    def _certified(self, node: _Node, point: Point, bound):
        """Take an integral vertex that a check certified bilevel feasible."""
        self.stats.certificates += 1
        self._accept(node, point, bound)

    def _branch(self, node: _Node, point: Point, bound, refuted: bool):
        """(point, bound) to branch on, or a prune where a step ``refuted``
        the vertex and the box fixes every integer column (see
        ``bound_node``)."""
        if refuted and all(node.lower[j] == node.upper[j] for j in self.integer):
            return self._prune(node, "refuted")
        return point, bound

    # -- main loop --------------------------------------------------------

    def run(self) -> SolveResult:
        cfg = self.cfg
        self._deadline = None if cfg.time_limit is None else time.monotonic() + cfg.time_limit
        next_id = itertools.count()
        seq = itertools.count()
        root = _Node(next(next_id), 0, -math.inf,
                     list(self.root_lower), list(self.root_upper))
        queue = [(-math.inf, next(seq), root)]      # (float(bound), FIFO, node)
        unsettled = []                              # exact bounds of set-aside boxes
        limited = False

        while queue:
            if cfg.node_limit is not None and self.stats.nodes >= cfg.node_limit or \
                    self._deadline is not None and time.monotonic() >= self._deadline:
                limited = True
                break
            node = heapq.heappop(queue)[2]
            if self.value is not None and node.parent_bound >= self.value:
                continue
            if not self._tighten(node):
                self.stats.propagated += 1
                self._prune(node, "propagated")
                continue
            if node.id == 0:
                # the root's box follows from the rows and the instance's box
                # alone, so a cone resting on it is still global
                self.root_lower, self.root_upper = list(node.lower), list(node.upper)
            self.stats.nodes += 1
            if all(node.lower[j] == node.upper[j] for j in self.linking) and \
                    self._close_fixed_linking(node):
                continue
            branch = self.bound_node(node)
            if branch is None:
                continue

            # the children, or a set-aside box, keep the best bound known
            point, bound = branch
            child_bound = node.parent_bound if bound is None else bound
            if point is not None:
                decision = choose_branch_variable(self.inst, point, node)
            else:   # a numerical failure: the midpoint of the first unfixed column
                decision = next(((j, node.lower[j] + (node.upper[j] - node.lower[j]) // 2)
                                 for j in self.integer if node.lower[j] < node.upper[j]), None)
            if decision is None:
                # every integer variable is fixed, so the linking ones are,
                # and the MILPs that settle such a box hit a limit or failed
                unsettled.append(child_bound)
                self.stats.unsettled += 1
                self._trace(node, child_bound, "unsettled")
                continue
            j, v = decision
            # clamp the split inside the box so both children strictly shrink;
            # otherwise a child repeats its parent and the search cycles
            down_hi = max(node.lower[j], min(math.floor(v), node.upper[j] - 1))
            for lo_j, hi_j in ((node.lower[j], down_hi), (down_hi + 1, node.upper[j])):
                lo = list(node.lower)
                hi = list(node.upper)
                lo[j], hi[j] = lo_j, hi_j
                child = _Node(next(next_id), node.depth + 1, child_bound, lo, hi,
                              start=node.start, branched=j)
                heapq.heappush(queue, (float(child_bound), next(seq), child))
            self._trace(node, bound, f"branched on {j}")

        value = None if self.value is None else float(self.value)
        open_bounds = [float(b) for b in unsettled if self.value is None or b < self.value]
        if limited:
            open_bounds += [b for b, _, _ in queue]
        if open_bounds:
            status = SolveStatus.LIMIT_REACHED
            lb = min(open_bounds)
            gap = math.inf
            if value is not None and not math.isinf(lb):
                gap = max(0.0, (value - lb) / max(1.0, abs(value)))
        elif value is None:
            status, lb, gap = SolveStatus.INFEASIBLE, math.inf, math.inf
        else:
            status, lb, gap = SolveStatus.OPTIMAL, value, 0.0
        return SolveResult(status, self.incumbent, self.value, lb, gap, self.stats,
                           tuple(self.trace_lines), tuple(self.pool))
