import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from miblp.exactlin import dot
from miblp.instance import Point, generate_random_instance
from miblp.milp import MilpStatus, solve_milp
from miblp.oracle import (DirectionMethod, DirectionObjective, OracleConfig,
                          OracleInconclusive, OutcomeKind, build_id_milp,
                          build_k_id_milp, certify_bilevel_feasible,
                          decode_direction, evaluate_phi,
                          find_improving_direction, legacy_feasibility_check,
                          local_search_neighbors)
from miblp.simplex import LpProblem, LpStatus, exact_primal, solve_lp

EXACT = OracleConfig(method=DirectionMethod.EXACT_MILP)


def test_exact_direction_at_suboptimal_point(moore_bard):
    out = find_improving_direction(moore_bard, Point.make((2,), (4,)), 0, EXACT)
    assert out.kind is OutcomeKind.FOUND
    assert out.direction.w == (Fraction(-1),)
    assert out.direction.norm1 == 1
    assert out.direction.improvement == -1


def test_steepest_objective_prefers_larger_step(moore_bard):
    cfg = OracleConfig(method=DirectionMethod.EXACT_MILP,
                       objective=DirectionObjective.STEEPEST)
    out = find_improving_direction(moore_bard, Point.make((2,), (4,)), 0, cfg)
    assert out.kind is OutcomeKind.FOUND
    assert out.direction.w == (Fraction(-2),)
    assert out.direction.improvement == -2


def test_idic_friendly_objective_finds_valid_step(moore_bard):
    p = Point.make((2,), (4,))
    prob = build_id_milp(moore_bard, p, DirectionObjective.IDIC_FRIENDLY)
    sol = solve_milp(prob)
    assert sol.status is MilpStatus.OPTIMAL
    d = decode_direction(moore_bard, DirectionObjective.IDIC_FRIENDLY, sol.x)
    assert d.improvement <= -1
    y2 = tuple(a + b for a, b in zip(p.y, d.w))
    assert moore_bard.follower_feasible(p.x, y2)


def test_no_direction_at_best_response(moore_bard):
    p = Point.make((2,), (2,))
    out = find_improving_direction(moore_bard, p, 0, EXACT)
    assert out.kind is OutcomeKind.NO_IMPROVING_DIRECTION
    assert out.direction is None
    assert certify_bilevel_feasible(moore_bard, p)
    assert legacy_feasibility_check(moore_bard, p)


def test_legacy_check_rejects_suboptimal_response(moore_bard):
    assert not legacy_feasibility_check(moore_bard, Point.make((2,), (4,)))


def test_exact_certificate_at_fractional_point(moore_bard):
    p = Point.make((1,), (Fraction(22, 10),))
    assert moore_bard.in_relaxation(p) and not moore_bard.in_s(p)
    out = find_improving_direction(moore_bard, p, 0, EXACT)
    assert out.kind is OutcomeKind.NO_IMPROVING_DIRECTION


def test_k_id_milp_radius(moore_bard):
    p = Point.make((2,), (4,))
    assert solve_milp(build_k_id_milp(moore_bard, p, 0)).status \
        is MilpStatus.INFEASIBLE
    sol = solve_milp(build_k_id_milp(moore_bard, p, 1))
    assert sol.status is MilpStatus.OPTIMAL
    d = decode_direction(moore_bard, DirectionObjective.NORM1, sol.x)
    assert d.w == (Fraction(-1),)
    with pytest.raises(ValueError):
        build_k_id_milp(moore_bard, p, -1)


def test_local_search_finds_and_exhausts(moore_bard):
    out = local_search_neighbors(moore_bard, 1, Point.make((2,), (4,)))
    assert out.kind is OutcomeKind.FOUND
    assert out.direction.w == (Fraction(-1),)
    out = local_search_neighbors(moore_bard, 1, Point.make((2,), (2,)))
    assert out.kind is OutcomeKind.HEURISTIC_EXHAUSTED
    with pytest.raises(ValueError):
        local_search_neighbors(moore_bard, 0, Point.make((2,), (4,)))


def _fractional_vertices(inst, rng, want):
    """Fractional exact vertices of the relaxation, under random objectives
    and boxes narrowed as branching would."""
    rows = [list(co) for co, _ in inst.all_rows()]
    rhs = [b for _, b in inst.all_rows()]
    found = []
    for _ in range(20 * want):
        lower, upper = list(inst.lower), list(inst.upper)
        for j in rng.sample(range(inst.num_vars), 2):
            cut = Fraction(rng.randint(int(lower[j]), int(upper[j])))
            if rng.random() < 0.5:
                lower[j] = cut
            else:
                upper[j] = cut
        prob = LpProblem([rng.randint(-5, 5) for _ in range(inst.num_vars)],
                         rows, rhs, lower, upper)
        sol = solve_lp(prob)
        z = exact_primal(prob, sol) if sol.status is LpStatus.OPTIMAL else None
        if z is None:
            continue
        point = Point(tuple(z[:inst.n1]), tuple(z[inst.n1:]))
        if not inst.is_integral(point) and point not in found:
            found.append(point)
            if len(found) == want:
                break
    return found


def _reference_local_search(inst, k, point):
    """The first improving step of least 1-norm, lexicographically, among
    the Fraction steps of 1-norm <= k, checked on the follower's problem."""
    best = None
    for w in itertools.product(range(-k, k + 1), repeat=inst.n2):
        norm = sum(map(abs, w))
        w = tuple(Fraction(v) for v in w)
        if 1 <= norm <= k and dot(inst.d2, w) <= -1 and inst.follower_feasible(
                point.x, [a + b for a, b in zip(point.y, w)]):
            best = min(best or (norm, w), (norm, w))
    return None if best is None else best[1]


@pytest.mark.parametrize("shape", [(1, 2, 1, 2, 4), (2, 3, 2, 4, 8)])
def test_local_search_at_fractional_vertices(shape):
    """The integer step check rounds the row right-hand sides up and the box
    inward, which at a fractional point is exact for integer steps."""
    rng = random.Random(7)
    tally = Counter()
    for seed in range(12):
        inst = generate_random_instance(seed, *shape[:4], bound=shape[4])
        for point in _fractional_vertices(inst, rng, 6):
            tally["fractional y"] += any(v.denominator != 1 for v in point.y)
            for k in (1, 2, 3):
                want = _reference_local_search(inst, k, point)
                out = local_search_neighbors(inst, k, point)
                if want is None:
                    assert out.kind is OutcomeKind.HEURISTIC_EXHAUSTED, (seed, point, k)
                else:
                    assert out.kind is OutcomeKind.FOUND, (seed, point, k)
                    assert out.direction.w == want, (seed, point, k)
                tally["found" if want else "exhausted"] += 1
    assert tally["found"] > 50 and tally["exhausted"] > 20
    assert tally["fractional y"] > 20


def test_local_search_prefers_smallest_norm(moore_bard):
    out = local_search_neighbors(moore_bard, 2, Point.make((2,), (4,)))
    assert out.kind is OutcomeKind.FOUND
    assert out.direction.norm1 == 1


def test_heuristic_escalates_for_s_points(moore_bard):
    cfg = OracleConfig(method=DirectionMethod.LOCAL_SEARCH, k=1)
    out = find_improving_direction(moore_bard, Point.make((2,), (2,)), 0, cfg)
    assert out.kind is OutcomeKind.NO_IMPROVING_DIRECTION


def test_depth_window_gates_heuristic(moore_bard):
    p = Point.make((1,), (Fraction(22, 10),))
    cfg = OracleConfig(method=DirectionMethod.LOCAL_SEARCH, k=1,
                       depth_lb=0, depth_ub=10)
    inside = find_improving_direction(moore_bard, p, 5, cfg)
    assert inside.kind is OutcomeKind.HEURISTIC_EXHAUSTED
    outside = find_improving_direction(moore_bard, p, 11, cfg)
    assert outside.kind is OutcomeKind.NO_IMPROVING_DIRECTION


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(method=DirectionMethod.LOCAL_SEARCH, k=0)
    with pytest.raises(ValueError):
        OracleConfig(depth_lb=5, depth_ub=1)
    OracleConfig(method=DirectionMethod.EXACT_MILP, k=0)  # k unused: fine


def test_evaluate_phi(moore_bard):
    assert evaluate_phi(moore_bard, (2,)) == 2
    assert evaluate_phi(moore_bard, (8,)) == 1
    assert evaluate_phi(moore_bard, (0,)) is None


def test_checks_require_s_membership(moore_bard):
    outside = Point.make((0,), (0,))
    with pytest.raises(ValueError):
        certify_bilevel_feasible(moore_bard, outside)
    with pytest.raises(ValueError):
        legacy_feasibility_check(moore_bard, outside)


def test_subsolver_limit_raises(moore_bard):
    cfg = OracleConfig(method=DirectionMethod.EXACT_MILP, node_limit=0)
    with pytest.raises(OracleInconclusive):
        find_improving_direction(moore_bard, Point.make((2,), (4,)), 0, cfg)


def test_agreement_with_level_table(three_d):
    from miblp import kopt
    ctx = kopt.make_context(three_d)
    p = Point.make((3,), (4, 1))
    out = find_improving_direction(three_d, p, 0, EXACT)
    assert out.kind is OutcomeKind.FOUND
    assert out.direction.norm1 == kopt.min_ifd_norm(ctx, p) == 5
    assert tuple(out.direction.w) in set(map(tuple, kopt.minimal_ifds(ctx, p)))
