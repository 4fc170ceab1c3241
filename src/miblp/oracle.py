"""Improving-direction oracle.

Given a point (x̂, ŷ) of the relaxation, an improving feasible direction is an
integer follower-space step w that keeps ŷ + w inside the follower's feasible
set for x̂ and improves the follower objective by at least one unit.  Parsing
makes every follower variable integer and scales d2 to integers, so any
improvement is at least one unit and a point of S is bilevel feasible exactly
when no such w exists, which turns feasibility checking and cut separation
into the same search problem.

Every search reads the point's ``StepImage``, the step conditions in ints.
Three searches are provided: the exact MILP over all directions, the exact
MILP restricted to 1-norm radius k, and a direct enumeration of the integer
directions of 1-norm at most k (cheap, no subsolver).  The restricted forms
are heuristics: a failed search is only a certificate when the radius covers
the whole follower box, so the dispatcher escalates a failed heuristic to the
exact MILP whenever a certificate is required (point in S).

Every MILP question about steps is the one split form, (ID) or (k-ID) over
w = w+ − w−, under an objective or, for a certificate, none.  Its rows
[−d2; G2] are the instance's: only the rhs ceil(rho) and the box move from
one point to the next.  So the split problem per (k, objective), and the
follower's problem that ``solve_phi`` solves, has its LP built once per
instance, on its first query, and held in ``MiblpInstance.lp_templates``;
every query shares its row-level caches through ``LpProblem.with_rhs``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from operator import ge, mul

from . import milp
from .instance import MiblpInstance, Point
from .milp import MilpProblem, MilpStatus
from .simplex import LpProblem


class OracleInconclusive(Exception):
    """A subsolver limit was exhausted or the subsolver failed; the answer is
    unknown, not 'no'."""


class DirectionMethod(Enum):
    EXACT_MILP = "milp"
    EXACT_MILP_K = "milp-k"
    LOCAL_SEARCH = "local-search"


class DirectionObjective(Enum):
    NORM1 = "norm1"
    IDIC_FRIENDLY = "idic"
    STEEPEST = "steepest"


class OutcomeKind(Enum):
    NO_IMPROVING_DIRECTION = "no improving direction"
    FOUND = "found"
    HEURISTIC_EXHAUSTED = "heuristic exhausted"


@dataclass(frozen=True)
class Direction:
    """An integer follower step w with its 1-norm and objective change d2 w."""

    w: tuple
    norm1: int
    improvement: int

    @classmethod
    def from_w(cls, inst: MiblpInstance, w) -> "Direction":
        """The direction of the step w; a non-integral w raises ValueError."""
        w = tuple(w)
        ints = tuple(map(int, w))
        if ints != w:
            raise ValueError(f"step {w} is not integral")
        return cls(w=ints, norm1=sum(map(abs, ints)),
                   improvement=-sum(map(mul, inst.step_rows[0], ints)))


@dataclass(frozen=True)
class OracleOutcome:
    kind: OutcomeKind
    direction: Direction | None = None
    nodes: int = field(default=0, compare=False)    # direction-MILP node LPs

    @classmethod
    def found(cls, direction: Direction) -> "OracleOutcome":
        return cls(OutcomeKind.FOUND, direction)

    @classmethod
    def no_direction(cls) -> "OracleOutcome":
        return cls(OutcomeKind.NO_IMPROVING_DIRECTION)

    @classmethod
    def exhausted(cls) -> "OracleOutcome":
        return cls(OutcomeKind.HEURISTIC_EXHAUSTED)


@dataclass(frozen=True)
class OracleConfig:
    method: DirectionMethod = DirectionMethod.EXACT_MILP
    k: int = 2
    depth_lb: float = 0
    depth_ub: float = math.inf
    objective: DirectionObjective = DirectionObjective.NORM1

    def __post_init__(self):
        if self.depth_lb > self.depth_ub:
            raise ValueError("depth window is empty (lb > ub)")
        if self.method is not DirectionMethod.EXACT_MILP and self.k < 1:
            raise ValueError("radius k must be at least 1")


def _rho(inst: MiblpInstance, point: Point):
    """(numerators, D) with rho = b2 - A2 x - G2 y = numerators / D, in ints
    over the point's common denominator D."""
    rows, b2 = inst.follower_ints
    z = point.joint()
    den = math.lcm(*(v.denominator for v in z))
    scaled = [v.numerator * (den // v.denominator) for v in z]
    return [b * den - sum(map(mul, row, scaled)) for row, b in zip(rows, b2)], den


@dataclass(frozen=True)
class StepImage:
    """The conditions on an integer step w at a point, in ints.

    w improves the follower at (x, y) when d2 w <= -1, G2 w >= rho =
    b2 - A2 x - G2 y and lower <= y + w <= upper.  Parsing makes d2 and G2
    integral, so for an integer w these hold exactly when ``rows`` w >=
    ``rhs`` = [1; ceil(rho)] and w lies in ``box`` = [ceil(lower - y),
    floor(upper - y)], whether or not the point is integral.
    """

    rows: tuple
    rhs: tuple
    box: tuple      # (lo, hi) per follower variable

    def admits(self, w, activity=None) -> bool:
        """Whether w passes; ``activity`` may give ``rows`` w precomputed."""
        if any(v < lo or v > hi for v, (lo, hi) in zip(w, self.box)):
            return False
        if activity is None:
            activity = (sum(map(mul, row, w)) for row in self.rows)
        return all(map(ge, activity, self.rhs))


def step_image(inst: MiblpInstance, point: Point) -> StepImage:
    """The step conditions at the point, as a ``StepImage``."""
    nums, den = _rho(inst, point)
    box = []
    for lo, hi, y in zip(inst.lower[inst.n1:], inst.upper[inst.n1:], point.y):
        p, q = y.numerator, y.denominator    # ceil(lo - y), floor(hi - y)
        box.append((-((p * lo.denominator - lo.numerator * q) // (lo.denominator * q)),
                    (hi.numerator * q - p * hi.denominator) // (hi.denominator * q)))
    return StepImage(inst.step_rows, (1,) + tuple(-(-v // den) for v in nums), tuple(box))


def _split_problem(inst: MiblpInstance, image: StepImage, k: int | None,
                   objective: DirectionObjective | None) -> MilpProblem:
    """(ID)/(k-ID) over split variables w = w+ − w−, plus aux s for IdicFriendly.

    Each pair (w+_j, w−_j) is complementary (see ``milp``): every row reads
    the step only through w+ − w−, except the radius row, which has −1 on
    both; and both cost 1 under Norm1 and IdicFriendly, d_j and −d_j under
    Steepest, and 0 with no objective (None: does a step exist?).  So no step
    needs both halves nonzero, and a branch with w+_j >= 1 fixes w−_j = 0.
    The rows and costs are the instance's, built once per (k, objective);
    only the rhs and the box are the point's.
    """
    n2 = len(image.box)
    with_s = objective is DirectionObjective.IDIC_FRIENDLY
    ns = len(image.rows) - 1 if with_s else 0
    rhs = list(image.rhs) + ([] if k is None else [-k]) + [0] * ns
    lower = [0] * (2 * n2 + ns)
    upper = [max(0, hi) for _, hi in image.box] + \
        [max(0, -lo) for lo, _ in image.box] + [None] * ns
    key = "split", k, objective
    template = inst.lp_templates.get(key)
    if template is None:
        rows = [list(row) + [-v for v in row] + [0] * ns for row in image.rows]
        if k is not None:
            rows.append([-1] * (2 * n2) + [0] * ns)
        if with_s:
            for i, g in enumerate(image.rows[1:]):
                rows.append([-v for v in g] + list(g) + [int(j == i) for j in range(ns)])
        if objective is DirectionObjective.STEEPEST:
            obj = [-v for v in image.rows[0]] + list(image.rows[0])
        else:
            obj = [0 if objective is None else 1] * (2 * n2 + ns)
        template = inst.lp_templates[key] = LpProblem(obj, rows, rhs, lower, upper)
    return MilpProblem(template.with_rhs(rhs, lower, upper), tuple(range(2 * n2)),
                       tuple((j, n2 + j) for j in range(n2)))


def build_id_milp(inst: MiblpInstance, point: Point,
                  objective: DirectionObjective | None = DirectionObjective.NORM1) -> MilpProblem:
    """Exact improving-direction search over the full follower box."""
    return _split_problem(inst, step_image(inst, point), None, objective)


def build_k_id_milp(inst: MiblpInstance, point: Point, k: int,
                    objective: DirectionObjective | None = DirectionObjective.NORM1) -> MilpProblem:
    """Improving-direction search restricted to 1-norm radius k."""
    if k < 0:
        raise ValueError("radius k must be nonnegative")
    return _split_problem(inst, step_image(inst, point), k, objective)


def decode_direction(inst: MiblpInstance, x: list) -> Direction:
    """The step w = w+ − w− of a solution vector of build_id_milp or
    build_k_id_milp, whose first 2 n2 columns are w+ and w−."""
    n2 = inst.n2
    return Direction.from_w(inst, [x[i] - x[n2 + i] for i in range(n2)])


def _solve(problem: MilpProblem, what: str, deadline: float | None = None):
    """``milp.solve_milp`` held to ``deadline``; a subsolver limit or failure
    leaves the answer unknown, so both raise OracleInconclusive."""
    try:
        sol = milp.solve_milp(problem, deadline=deadline)
    except milp.MilpError as exc:
        raise OracleInconclusive(f"{what} failed: {exc}") from exc
    if sol.status is MilpStatus.LIMIT_REACHED:
        raise OracleInconclusive(f"{what} hit a subsolver limit")
    return sol


def _solve_direction_milp(inst: MiblpInstance, problem: MilpProblem, deadline: float | None,
                          infeasible: OutcomeKind, spent: int = 0) -> OracleOutcome:
    """The step found, or ``infeasible``, which names what that certifies;
    either counts the MILP's nodes on top of the ``spent`` ones."""
    sol = _solve(problem, "direction search", deadline)
    nodes = spent + sol.nodes
    if sol.status is MilpStatus.INFEASIBLE:
        return OracleOutcome(infeasible, nodes=nodes)
    return OracleOutcome(OutcomeKind.FOUND, decode_direction(inst, sol.x), nodes)


# ---------------------------------------------------------------------------
# direct neighborhood enumeration (no subsolver)


def _shell_vectors(r: int, k: int):
    """Integer vectors of 1-norm s for s = 1..k, lexicographic within a shell."""
    def rec(prefix, budget, pos):
        if pos == r - 1:
            for v in ((-budget, budget) if budget else (0,)):
                yield prefix + (v,)
            return
        for v in range(-budget, budget + 1):
            yield from rec(prefix + (v,), budget - abs(v), pos + 1)

    if r == 0:
        return
    for s in range(1, k + 1):
        yield from rec((), s, 0)


def local_search_neighbors(inst: MiblpInstance, k: int, point: Point,
                           objective=DirectionObjective.NORM1) -> OracleOutcome:
    """Enumerate integer directions of 1-norm <= k, each checked against the
    point's integer step image.

    Vectors are visited by increasing 1-norm, lexicographically within a
    shell, so under the Norm1 objective the first survivor is already optimal
    and stops the scan.
    """
    if k < 1:
        raise ValueError("radius k must be at least 1")
    image = step_image(inst, point)
    step, follower = image.rows[0], image.rows[1:]

    short_circuit = objective is DirectionObjective.NORM1
    if short_circuit:
        score = lambda w: sum(map(abs, w))
    elif objective is DirectionObjective.STEEPEST:
        score = lambda w: -sum(map(mul, step, w))
    else:
        score = lambda w: sum(max(0, sum(map(mul, g, w))) for g in follower) \
            + sum(map(abs, w))

    best_w, best_score = None, None
    for w in _shell_vectors(inst.n2, k):
        if not image.admits(w):
            continue
        s = score(w)
        if best_score is None or s < best_score:
            best_w, best_score = w, s
            if short_circuit:
                break
    if best_w is None:
        return OracleOutcome.exhausted()
    return OracleOutcome.found(Direction.from_w(inst, best_w))


# ---------------------------------------------------------------------------
# dispatch and feasibility checks


def find_improving_direction(inst: MiblpInstance, point: Point, depth: int,
                             cfg: OracleConfig, deadline: float | None = None) -> OracleOutcome:
    """Heuristic-then-exact dispatch.

    A heuristic runs only when the node depth lies in the configured window;
    a failed heuristic escalates to the exact search when the point is in S
    (a certificate is required there), and otherwise reports exhaustion so
    the caller can branch.  Every direction MILP of the query, an escalated
    one included, stops at the one ``deadline``, a ``time.monotonic()``
    value; one that reaches it raises OracleInconclusive.
    """
    method = cfg.method
    in_window = cfg.depth_lb <= depth <= cfg.depth_ub
    spent = 0           # nodes of a failed k-ID search
    if method is not DirectionMethod.EXACT_MILP and in_window:
        if method is DirectionMethod.LOCAL_SEARCH:
            outcome = local_search_neighbors(inst, cfg.k, point, cfg.objective)
        else:
            problem = build_k_id_milp(inst, point, cfg.k, cfg.objective)
            outcome = _solve_direction_milp(inst, problem, deadline,
                                            OutcomeKind.HEURISTIC_EXHAUSTED)
        if outcome.kind is OutcomeKind.FOUND or not inst.in_s(point):
            return outcome
        spent = outcome.nodes
    problem = build_id_milp(inst, point, cfg.objective)
    return _solve_direction_milp(inst, problem, deadline,
                                 OutcomeKind.NO_IMPROVING_DIRECTION, spent)


def certify_bilevel_feasible(inst: MiblpInstance, point: Point) -> bool:
    """True iff no improving feasible direction exists: the exact search
    with no objective, which stops at the first step it finds."""
    if not inst.in_s(point):
        raise ValueError("point not in S")
    problem = build_id_milp(inst, point, objective=None)
    return _solve(problem, "certification").status is MilpStatus.INFEASIBLE


def solve_phi(inst: MiblpInstance, x, deadline: float | None = None) -> milp.MilpSolution:
    """The follower's problem at x, solved exactly by ``deadline``: its
    ``objective`` is the value function at x, None when the problem is
    infeasible, and its ``nodes`` the node LPs it took."""
    # a step from y = 0 is y itself: the image's follower rows, with
    # rhs ceil(b2 - A2 x), and its box are the follower's problem at x,
    # whose rows and costs are built once per instance
    image = step_image(inst, Point.make(x, [0] * inst.n2))
    rhs, lower, upper = image.rhs[1:], [lo for lo, _ in image.box], [hi for _, hi in image.box]
    template = inst.lp_templates.get("phi")
    if template is None:
        template = inst.lp_templates["phi"] = LpProblem(
            [-v for v in image.rows[0]], [list(row) for row in image.rows[1:]],
            list(rhs), lower, upper)
    return _solve(MilpProblem(template.with_rhs(rhs, lower, upper), tuple(range(inst.n2))),
                  "value function solve", deadline)


def legacy_feasibility_check(inst: MiblpInstance, point: Point) -> bool:
    """True iff the point's follower value attains the value function."""
    if not inst.in_s(point):
        raise ValueError("point not in S")
    phi = solve_phi(inst, point.x).objective
    return phi is not None and inst.follower_value(point.y) <= phi
