"""Branch-and-cut driver.

The search keeps a best-first queue ordered by parent dual bound (FIFO on
ties).  Bounds of integer variables are Python ints, rounded inward from
the instance's box, and a split puts floor(v) and floor(v) + 1 into the
children.  Each popped node first tightens its box with ``milp.propagate``,
the activity-bound propagation with integer rounding that the direction
MILP runs too, over the instance rows and the pooled cuts whose columns are
all integer; the rows are rebuilt only when the pool has grown, and a child
propagates from its branched column unless the pool has grown since its
parent's box was.  A box left with no integer point closes without an LP
(``SolveStats.propagated``, trace action ``pruned-propagated``) and is not
counted in ``SolveStats.nodes``, which counts the nodes whose LP was solved.
The root's propagated box follows from the rows and the instance's box
alone, so it becomes the root box of the globality test below.  Node boxes
never reach the follower's problem: the oracle, the value function and the
free sets read the instance's own bounds.

Each node solves its LP over the instance rows, the global cut pool,
and the node's own bounds, then runs a cut loop at the exact LP vertex.  The
LP starts from the parent's final basis, or in a later cut round from the
previous round's; rows the pool has gained since enter with their surplus
columns basic.  The root and a retried node start from the slack basis.
Every prune is exact: a node closes once ``simplex.dual_bound`` of its LP's
multipliers, rounded up to the objective's lattice, or its parent's bound
when it is popped, reaches the incumbent's value, and "infeasible" rests on
the simplex's Farkas certificate.  An unproven verdict is a numerical
failure, which retries the node once and then branches.

The improving-direction oracle is queried only where its answer can change
the tree: where a found direction can still become a cut (cut rounds remain
and the vertex's cone rests on root bounds, see below), or at an integral
vertex that no direction from the solve's pool refutes.  A certificate of "no
improving direction" at an integral vertex makes it the incumbent, a found
direction feeds intersection-cut generation where it can, and anything else
branches.

In legacy mode integral vertices are instead checked by comparing the
follower value against the value function, before any separation; a failed
check escalates to the exact direction search only where a cut can follow.

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
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction

from . import cuts as cuts_mod
from . import oracle as oracle_mod
from . import simplex
from .cuts import ConeContainedError, NotSeparableError
from .instance import MiblpInstance, Point
from .milp import propagate, propagation_rows
from .oracle import (DirectionMethod, OracleConfig, OracleInconclusive,
                     OutcomeKind)
from .simplex import DegenerateConeError, LpProblem, LpStatus

CUT_VIOLATION_MIN = 1e-7
CUT_COEFF_CAP = 1e12    # beyond this the float image of the row is garbage
MAX_CUT_ROUNDS = 20
TAILING_OFF_EPS = 1e-6
TAILING_OFF_ROUNDS = 3


class OracleMode(Enum):
    IMPROVING_DIRECTION = "id"
    LEGACY = "legacy"


class Branching(Enum):
    FRACTIONAL = "fractional"
    LINKING_PRIORITY = "linking"


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
    branching: Branching = Branching.FRACTIONAL
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
    oracle_skipped: int = 0     # fractional vertices branched without a query
    pool_refutations: int = 0   # integral vertices refuted by a pooled direction
    phi_calls: int = 0
    certificates: int = 0
    propagated: int = 0         # boxes closed by propagation, without an LP


@dataclass(frozen=True)
class CutRecord:
    """One pooled cut with the free set and LP vertex it came from."""
    cut: object
    free_set: object
    vertex: tuple


@dataclass
class SolveResult:
    status: SolveStatus
    incumbent: Point | None
    value: Fraction | None
    bound: float
    gap: float
    stats: SolveStats
    trace: tuple = ()
    cut_log: tuple = ()


@dataclass
class _Node:
    id: int
    depth: int
    parent_bound: Fraction | float     # exact, or -inf
    lower: list
    upper: list
    retried: bool = False
    start: simplex.Basis | None = None     # the parent's final LP basis
    branched: int | None = None            # the column split to make it; None at the root
    cuts_seen: int = 0                     # pooled cuts its box was propagated over


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


def choose_branch_variable(inst: MiblpInstance, point: Point, node, strategy):
    """Pick (index, exact value) to branch on, or None if every candidate
    integer variable is fixed.

    Fractional: the integer variable with fractional part closest to 1/2,
    ties by lowest index; if all are integral, the lowest-index unfixed one.
    LinkingPriority: the most fractional unfixed linking variable (integral
    values allowed), falling back to Fractional when all linking are fixed.
    """
    z = point.joint()

    def unfixed(j):
        return node.lower[j] < node.upper[j]

    def most_fractional(candidates):
        """The first j whose distance min(r, q - r) / q to the nearest
        integer is largest, z_j = p / q and r = p mod q, compared by
        cross-multiplication; (None, 0) for no candidate."""
        best_j, best_d, best_q = None, -1, 1
        for j in candidates:
            q = z[j].denominator
            r = z[j].numerator % q
            d = min(r, q - r)
            if d * best_q > best_d * q:
                best_j, best_d, best_q = j, d, q
        return best_j, best_d

    if strategy is Branching.LINKING_PRIORITY:
        j, _ = most_fractional(j for j in inst.linking_indices() if unfixed(j))
        if j is not None:
            return j, z[j]

    j, d = most_fractional(inst.integer_indices())
    if d > 0:
        return j, z[j]
    for j in inst.integer_indices():
        if unfixed(j):
            return j, z[j]
    return None


class BranchAndCut:
    def __init__(self, inst: MiblpInstance, cfg: SolverConfig):
        self.inst = inst
        self.cfg = cfg
        self.stats = SolveStats()
        self.trace_lines = []
        self.pool = []               # list[Cut]
        self.pool_keys = set()
        self.cut_log = []
        self.integer = inst.integer_indices()
        # integer columns' bounds are ints, rounded inward; the root's
        # propagated box replaces these once the root is popped
        integer = set(self.integer)
        self.root_lower = [math.ceil(v) if j in integer else v
                           for j, v in enumerate(inst.lower)]
        self.root_upper = [math.floor(v) if j in integer and v is not None else v
                           for j, v in enumerate(inst.upper)]
        obj = list(inst.c) + list(inst.d1)
        rows = [list(co) for co, _ in inst.all_rows()]
        rhs = [b for _, b in inst.all_rows()]
        self.base = LpProblem(obj, rows, rhs, self.root_lower, self.root_upper)
        self._pooled_lp = self.base
        self._pooled_size = 0
        self._propagation = propagation_rows(self.base, self.integer)
        self.incumbent: Point | None = None
        self.value: Fraction | None = None
        self.phi_cache: dict = {}
        self.directions = DirectionPool(inst)
        self._deadline = None

    # -- plumbing -------------------------------------------------------

    def _pooled(self) -> LpProblem:
        """The LP over the instance rows and the pool, and the rows that
        propagate over it, rebuilt only when the pool has grown."""
        if self._pooled_size != len(self.pool):
            rows = [c.row() for c in self.pool]
            rhs = [c.beta for c in self.pool]
            self._pooled_lp = self.base.with_extra_rows(rows, rhs)
            self._pooled_size = len(self.pool)
            self._propagation = propagation_rows(self._pooled_lp, self.integer)
        return self._pooled_lp

    def _node_lp(self, node: _Node) -> LpProblem:
        return self._pooled().with_bounds(node.lower, node.upper)

    def _tighten(self, node: _Node) -> bool:
        """Propagate the node's integer bounds in place over the instance
        rows and the pool; False when its box holds no integer point.  A
        child starts from its branched column, unless the pool has grown
        since its parent's box was propagated."""
        self._pooled()
        moved = (self.integer if node.branched is None or node.cuts_seen != self._pooled_size
                 else (node.branched,))
        node.cuts_seen = self._pooled_size
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
            self.incumbent, self.value = point, value
        self._trace(node, bound, f"incumbent value {value}")

    def _time_limit(self, cfg: OracleConfig) -> float | None:
        """The time left in the solve, or the oracle's own limit when that is
        smaller."""
        if self._deadline is None:
            return cfg.time_limit
        left = max(0.0, self._deadline - time.monotonic())
        return left if cfg.time_limit is None else min(left, cfg.time_limit)

    def _oracle(self, point: Point, depth: int, oracle_cfg: OracleConfig | None = None):
        """The direction search, held to the solve's deadline; every direction
        it finds joins the pool."""
        cfg = oracle_cfg or self.cfg.oracle
        cfg = replace(cfg, time_limit=self._time_limit(cfg))
        self.stats.oracle_calls += 1
        t0 = time.perf_counter()
        try:
            outcome = oracle_mod.find_improving_direction(self.inst, point, depth, cfg)
        finally:
            self.stats.oracle_time += time.perf_counter() - t0
        if outcome.kind is OutcomeKind.FOUND:
            self.directions.add(outcome.direction.w)
        return outcome

    def _exact_direction(self, point: Point):
        """Exact (ID), used by legacy mode to source cuts at infeasible points."""
        return self._oracle(point, 0, replace(self.cfg.oracle,
                                              method=DirectionMethod.EXACT_MILP))

    def _legacy_check(self, point: Point) -> bool:
        self.stats.phi_calls += 1
        x = point.x
        if x not in self.phi_cache:
            self.phi_cache[x] = oracle_mod.evaluate_phi(
                self.inst, x, self._time_limit(self.cfg.oracle))
        phi = self.phi_cache[x]
        return phi is not None and self.inst.follower_value(point.y) <= phi

    def _resolve_singleton(self, node: "_Node"):
        """Decide a fully fixed pure-integer box exactly, without the node LP.

        Returns the box's single point when it is bilevel feasible, the string
        "infeasible" when it is not, and None when the check hit a limit.
        """
        z = Point.make(node.lower[:self.inst.n1], node.lower[self.inst.n1:])
        if not self.inst.in_s(z):
            return "infeasible"
        try:
            if self.cfg.oracle_mode is OracleMode.LEGACY:
                feasible = self._legacy_check(z)
            else:
                feasible = (self._exact_direction(z).kind
                            is OutcomeKind.NO_IMPROVING_DIRECTION)
        except OracleInconclusive:
            return None
        return z if feasible else "infeasible"

    def _cone_is_global(self, bound_supports) -> bool:
        for j, at_upper in bound_supports:
            if at_upper:
                if self._current_upper[j] != self.root_upper[j]:
                    return False
            elif self._current_lower[j] != self.root_lower[j]:
                return False
        return True

    def _can_cut(self, prob: LpProblem, sol, rounds: int, tail: int) -> bool:
        """Whether a direction found at the solved vertex could become a
        pooled cut; uses the cached recovery, so computes no ray."""
        return (rounds < MAX_CUT_ROUNDS and tail < TAILING_OFF_ROUNDS
                and self._cone_is_global(simplex.tight_bound_supports(prob, sol)))

    def _make_cuts(self, cone, point: Point, direction) -> int:
        """Generate enabled cuts from the direction; returns cuts added."""
        added = 0
        free_sets = []
        if self.cfg.use_idic:
            free_sets.append(("idic", cuts_mod.bfs_from_direction(self.inst, direction)))
        if self.cfg.use_isic:
            y_star = tuple(a + b for a, b in zip(point.y, direction.w))
            if all(v.denominator == 1 for v in y_star):
                free_sets.append(("isic", cuts_mod.bfs_from_solution(self.inst, y_star)))
        for family, fs in free_sets:
            try:
                cut = cuts_mod.intersection_cut(cone, fs, self.inst.n1)
            except NotSeparableError:
                continue
            if cut.key() in self.pool_keys:
                continue
            if any(abs(c) > CUT_COEFF_CAP for c in cut.row()) or \
                    abs(cut.beta) > CUT_COEFF_CAP:
                continue
            if cuts_mod.cut_violation(cut, point) < CUT_VIOLATION_MIN:
                continue
            self.pool.append(cut)
            self.pool_keys.add(cut.key())
            self.cut_log.append(CutRecord(cut, fs, cone.vertex))
            if family == "idic":
                self.stats.cuts_idic += 1
            else:
                self.stats.cuts_isic += 1
            added += 1
        return added

    # -- node processing --------------------------------------------------

    def bound_node(self, node: _Node):
        """Bound the node with the LP + cut loop.

        Returns (action, payload): ("prune", reason) | ("incumbent", (point,
        bound)) | ("branch", (point, bound, proven)) | ("retry", None).
        `proven` records whether the vertex was certified not bilevel
        feasible, which is what licenses pruning a fully fixed box later.
        """
        self._current_lower = node.lower
        self._current_upper = node.upper
        rounds = 0
        tail = 0
        bound = None
        while True:
            prob = self._node_lp(node)
            sol = simplex.solve_lp(prob, node.start)
            node.start = sol.basis      # the next round's and the children's start
            self.stats.lp_solves += 1
            if sol.status is LpStatus.INFEASIBLE:
                return "prune", "infeasible"
            if sol.status is LpStatus.UNSTABLE:
                return ("retry", None) if not node.retried else ("branch", (None, bound, False))
            prev = bound
            bound = simplex.dual_bound(prob, sol.y, self.integer, basis=sol.basis)
            if prev is not None:
                tail = tail + 1 if bound - prev < TAILING_OFF_EPS else 0
            if self.value is not None and bound >= self.value:
                return "prune", "bound"
            exact = simplex.exact_primal(prob, sol)
            if exact is None:
                return ("retry", None) if not node.retried else ("branch", (None, bound, False))
            point = Point(tuple(exact[:self.inst.n1]), tuple(exact[self.inst.n1:]))
            integral = self.inst.is_integral(point)
            can_cut = self._can_cut(prob, sol, rounds, tail)

            if self.cfg.oracle_mode is OracleMode.LEGACY:
                if not integral:
                    return "branch", (point, bound, False)
                try:
                    feasible = self._legacy_check(point)
                except OracleInconclusive:
                    return "branch", (point, bound, False)
                if feasible:
                    self.stats.certificates += 1
                    return "incumbent", (point, bound)
                # the value function already proved infeasibility; a direction
                # is needed only to build cuts from
                if not can_cut:
                    return "branch", (point, bound, True)
                try:
                    outcome = self._exact_direction(point)
                except OracleInconclusive:
                    return "branch", (point, bound, True)
                if outcome.kind is not OutcomeKind.FOUND:
                    return "branch", (point, bound, True)
            else:
                if not can_cut:
                    # every oracle outcome at a fractional vertex branches; at
                    # an integral one any exactly checked direction refutes it
                    if not integral:
                        self.stats.oracle_skipped += 1
                        return "branch", (point, bound, False)
                    if self.directions.refute(point) is not None:
                        self.stats.pool_refutations += 1
                        return "branch", (point, bound, True)
                try:
                    outcome = self._oracle(point, node.depth)
                except OracleInconclusive:
                    return "branch", (point, bound, False)
                if outcome.kind is OutcomeKind.NO_IMPROVING_DIRECTION:
                    if integral:
                        self.stats.certificates += 1
                        return "incumbent", (point, bound)
                    return "branch", (point, bound, False)
                if outcome.kind is OutcomeKind.HEURISTIC_EXHAUSTED:
                    return "branch", (point, bound, False)

            # a direction exists: the vertex is not bilevel feasible
            if not can_cut:
                return "branch", (point, bound, True)
            try:
                cone = simplex.extract_cone(prob, sol)
            except DegenerateConeError:
                return "branch", (point, bound, True)
            try:
                added = self._make_cuts(cone, point, outcome.direction)
            except ConeContainedError:
                return "prune", "cone-contained"
            if added == 0:
                return "branch", (point, bound, True)
            rounds += 1
            self.stats.cut_rounds += 1

    # -- main loop --------------------------------------------------------

    def run(self) -> SolveResult:
        cfg = self.cfg
        deadline = self._deadline = \
            None if cfg.time_limit is None else time.monotonic() + cfg.time_limit
        next_id = itertools.count()
        seq = itertools.count()
        root = _Node(next(next_id), 0, -math.inf,
                     list(self.root_lower), list(self.root_upper))
        queue = [(-math.inf, next(seq), root)]      # (float(bound), FIFO, node)
        limited = False

        while queue:
            if cfg.node_limit is not None and self.stats.nodes >= cfg.node_limit or \
                    deadline is not None and time.monotonic() > deadline:
                limited = True
                break
            node = heapq.heappop(queue)[2]
            if self.value is not None and node.parent_bound >= self.value:
                continue
            if not self._tighten(node):
                self.stats.propagated += 1
                self._trace(node, None, "pruned-propagated")
                continue
            if node.id == 0:
                # the root's box follows from the rows and the instance's box
                # alone, so a cone resting on it is still global
                self.root_lower, self.root_upper = list(node.lower), list(node.upper)
            self.stats.nodes += 1
            action, payload = self.bound_node(node)

            if action == "retry":
                node.retried, node.start = True, None
                heapq.heappush(queue, (float(node.parent_bound), next(seq), node))
                self._trace(node, None, "requeued")
                continue
            if action == "prune":
                self._trace(node, None, f"pruned-{payload}")
                continue
            if action == "incumbent":
                point, bound = payload
                self._accept(node, point, bound)
                continue

            # branch; the children, or a stalled node, keep the best bound known
            point, bound, proven = payload
            child_bound = node.parent_bound if bound is None else bound
            decision = None if point is None else choose_branch_variable(
                self.inst, point, node, cfg.branching)
            if decision is None and point is None:
                for j in self.integer:
                    if node.lower[j] < node.upper[j]:
                        decision = (j, node.lower[j] + (node.upper[j] - node.lower[j]) // 2)
                        break
            if decision is None:
                if proven:
                    # every integer variable is fixed and continuous leaders
                    # stay out of the follower rows: the whole box shares the
                    # linking x and the y just certified not bilevel feasible
                    self._trace(node, bound, "pruned-exhausted")
                    continue
                if self.inst.is_pure_integer():
                    # the box is a single integer point: settle it exactly
                    # instead of trusting a possibly unstable node LP
                    resolved = self._resolve_singleton(node)
                    if resolved == "infeasible":
                        self._trace(node, bound, "pruned-exhausted")
                        continue
                    if resolved is not None:
                        self._accept(node, resolved, bound)
                        continue
                # cannot split further and cannot certify: give up soundly
                self._trace(node, bound, "stalled")
                heapq.heappush(queue, (float(child_bound), next(seq), node))
                limited = True
                break
            j, v = decision
            # clamp the split inside the box so both children strictly shrink;
            # otherwise a child repeats its parent and the search cycles
            down_hi = max(node.lower[j], min(math.floor(v), node.upper[j] - 1))
            for lo_j, hi_j in ((node.lower[j], down_hi), (down_hi + 1, node.upper[j])):
                lo = list(node.lower)
                hi = list(node.upper)
                lo[j], hi[j] = lo_j, hi_j
                child = _Node(next(next_id), node.depth + 1, child_bound, lo, hi,
                              start=node.start, branched=j, cuts_seen=node.cuts_seen)
                heapq.heappush(queue, (float(child_bound), next(seq), child))
            self._trace(node, bound, f"branched on {j}")

        value = None if self.value is None else float(self.value)
        if limited:
            status = SolveStatus.LIMIT_REACHED
            lb = min((b for b, _, _ in queue), default=-math.inf if value is None else value)
            gap = math.inf
            if value is not None and not math.isinf(lb):
                gap = max(0.0, (value - lb) / max(1.0, abs(value)))
        elif value is None:
            status, lb, gap = SolveStatus.INFEASIBLE, math.inf, math.inf
        else:
            status, lb, gap = SolveStatus.OPTIMAL, value, 0.0
        return SolveResult(status, self.incumbent, self.value, lb, gap, self.stats,
                           tuple(self.trace_lines), tuple(self.cut_log))
