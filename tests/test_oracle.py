import itertools
import math
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from miblp import bnc, milp, simplex
from miblp.bruteforce import follower_points
from miblp.instance import Point, dot, generate_random_instance
from miblp.milp import MilpSolution, MilpStatus, solve_milp
from miblp.oracle import (Direction, DirectionMethod, DirectionObjective,
                          OracleConfig, OracleInconclusive, OutcomeKind,
                          build_id_milp, build_k_id_milp,
                          certify_bilevel_feasible, decode_direction,
                          find_improving_direction, legacy_feasibility_check,
                          local_search_neighbors, solve_phi, step_image)
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
    d = decode_direction(moore_bard, sol.x)
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
    d = decode_direction(moore_bard, sol.x)
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
    assert solve_phi(moore_bard, (2,)).objective == 2
    assert solve_phi(moore_bard, (8,)).objective == 1
    assert solve_phi(moore_bard, (0,)).objective is None


def test_checks_require_s_membership(moore_bard):
    outside = Point.make((0,), (0,))
    with pytest.raises(ValueError):
        certify_bilevel_feasible(moore_bard, outside)
    with pytest.raises(ValueError):
        legacy_feasibility_check(moore_bard, outside)


def test_subsolver_limit_raises(moore_bard, monkeypatch):
    monkeypatch.setattr(milp, "solve_milp", lambda *args, **kwargs:
                        MilpSolution(MilpStatus.LIMIT_REACHED))
    with pytest.raises(OracleInconclusive):
        find_improving_direction(moore_bard, Point.make((2,), (4,)), 0, EXACT)


@pytest.mark.parametrize("cfg", [EXACT, OracleConfig(method=DirectionMethod.EXACT_MILP_K, k=1)])
def test_a_spent_time_limit_leaves_the_query_inconclusive(moore_bard, cfg):
    """With no time left, the direction MILP at a point of S stops before its
    first node, so the query can neither find a step nor certify that none
    exists."""
    point = Point.make((2,), (4,))
    assert moore_bard.in_s(point)
    with pytest.raises(OracleInconclusive):
        find_improving_direction(moore_bard, point, 0, cfg, deadline=time.monotonic())


def test_agreement_with_level_table(three_d):
    from miblp import kopt
    ctx = kopt.make_context(three_d)
    p = Point.make((3,), (4, 1))
    out = find_improving_direction(three_d, p, 0, EXACT)
    assert out.kind is OutcomeKind.FOUND
    assert out.direction.norm1 == kopt.min_ifd_norm(ctx, p) == 5
    assert tuple(out.direction.w) in set(map(tuple, kopt.minimal_ifds(ctx, p)))


def _integer_points(inst, rng, want):
    """Up to ``want`` distinct integer points of the relaxation, drawn from
    the grid, each followed by the follower's first best response at its x
    where that lies in the relaxation too."""
    found = []
    for _ in range(100 * want):
        z = [rng.randint(int(lo), int(hi)) for lo, hi in zip(inst.lower, inst.upper)]
        point = Point.make(z[:inst.n1], z[inst.n1:])
        if inst.in_relaxation(point) and point not in found:
            found.append(point)
            best = Point(point.x, min(follower_points(inst, point.x), key=inst.follower_value))
            if inst.in_relaxation(best) and best not in found:
                found.append(best)
            if len(found) >= want:
                break
    return found


def _brute_force_scores(inst, point):
    """Per improving integer step w in the follower box, found by checking
    the follower's problem at y + w, its score under each objective."""
    ranges = [range(math.ceil(lo - y), math.floor(hi - y) + 1) for lo, hi, y in
              zip(inst.lower[inst.n1:], inst.upper[inst.n1:], point.y)]
    scores = {}
    for w in itertools.product(*ranges):
        if dot(inst.d2, w) <= -1 and inst.follower_feasible(
                point.x, [a + b for a, b in zip(point.y, w)]):
            norm = sum(map(abs, w))
            scores[w] = {
                DirectionObjective.NORM1: norm,
                DirectionObjective.STEEPEST: dot(inst.d2, w),
                DirectionObjective.IDIC_FRIENDLY:
                    sum(max(0, dot(g, w)) for g in inst.g2) + norm,
            }
    return scores


def test_every_objective_under_every_method_matches_brute_force():
    """The exact MILP, the radius-2 MILP and radius-2 local search each find
    a step of the least score under each objective, over the whole follower
    box or within the radius, at integer points of S and at fractional
    relaxation vertices, and report none exactly when brute force finds
    none."""
    rng = random.Random(11)
    tally = Counter()
    for seed in range(20):
        inst = generate_random_instance(seed, 2, 3, 2, 3, bound=5)
        points = _integer_points(inst, rng, 4) + _fractional_vertices(inst, rng, 3)
        for point in points:
            image = step_image(inst, point)
            scores = _brute_force_scores(inst, point)
            for objective in DirectionObjective:
                def least(radius):
                    return min((s[objective] for w, s in scores.items()
                                if sum(map(abs, w)) <= radius), default=None)

                def check(direction, want, what):
                    if want is None:
                        assert direction is None, what
                        return
                    assert direction is not None, what
                    w = direction.w
                    assert all(type(v) is int for v in w), what
                    assert image.admits(w), what
                    assert scores[w][objective] == want, what

                what = (seed, point, objective)
                out = find_improving_direction(inst, point, 0, OracleConfig(objective=objective))
                assert out.kind is not OutcomeKind.HEURISTIC_EXHAUSTED
                check(out.direction, least(math.inf), what + ("exact",))
                sol = solve_milp(build_k_id_milp(inst, point, 2, objective))
                check(None if sol.status is MilpStatus.INFEASIBLE
                      else decode_direction(inst, sol.x), least(2), what + ("milp-k",))
                out = local_search_neighbors(inst, 2, point, objective)
                assert out.kind is not OutcomeKind.NO_IMPROVING_DIRECTION
                check(out.direction, least(2), what + ("local search",))
            norms = [sum(map(abs, w)) for w in scores]
            tally[inst.in_s(point), not norms, min(norms, default=3) > 2] += 1
    # found and none at both kinds of point, and steps found only beyond radius 2
    assert all(tally[in_s, False, False] > 15 and tally[in_s, True, True] > 5
               for in_s in (True, False)), tally
    assert tally[True, False, True] + tally[False, False, True] >= 3, tally


def _int_data(lp):
    return all(type(v) is int for v in itertools.chain(
        lp.objective, lp.rhs, lp.lower, (v for v in lp.upper if v is not None),
        *lp.rows))


def test_direction_problems_hold_only_ints(three_d, monkeypatch):
    """Every direction problem, the certificate's and the value function's,
    holds ints only, and every template behind them is the split form of
    (ID)/(k-ID) per (k, objective), None for the certificate, or the
    follower's problem."""
    built = []
    solve = milp.solve_milp

    def recording(problem, *args, **kwargs):
        built.append(problem.lp)
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(milp, "solve_milp", recording)
    point = Point.make((3,), (4, 1))
    vertex = Point.make((Fraction(5, 2),), (Fraction(7, 3), 1))
    for p in (point, vertex):
        for objective in DirectionObjective:
            built.append(build_id_milp(three_d, p, objective).lp)
            built.append(build_k_id_milp(three_d, p, 2, objective).lp)
    certify_bilevel_feasible(three_d, point)
    solve_phi(three_d, (Fraction(5, 2),))
    assert len(built) == 14
    assert all(map(_int_data, built))
    split = {("split", k, objective) for k in (None, 2) for objective in DirectionObjective}
    assert split | {("split", None, None), "phi"} <= set(three_d.lp_templates)
    assert all(key == "phi" or key[0] == "split" for key in three_d.lp_templates)


def test_direction_from_w_refuses_a_fractional_step(moore_bard):
    d = Direction.from_w(moore_bard, (Fraction(-2),))
    assert (d.w, d.norm1, d.improvement) == ((-2,), 2, -2)
    assert all(type(v) is int for v in (*d.w, d.norm1, d.improvement))
    with pytest.raises(ValueError):
        Direction.from_w(moore_bard, (Fraction(-1, 2),))


def test_outcome_counts_the_nodes_of_its_direction_milps(monkeypatch):
    """``OracleOutcome.nodes`` sums the node LPs of every direction MILP a
    query solves, a failed k-ID search included; local search adds none, and
    the count takes no part in comparing outcomes."""
    spent = []
    solve = milp.solve_milp

    def recording(*args, **kwargs):
        sol = solve(*args, **kwargs)
        spent.append(sol.nodes)
        return sol

    monkeypatch.setattr(milp, "solve_milp", recording)
    configs = [EXACT, OracleConfig(method=DirectionMethod.EXACT_MILP_K, k=1),
               OracleConfig(method=DirectionMethod.LOCAL_SEARCH, k=1)]
    inst = generate_random_instance(2, 2, 3, 2, 4, bound=8)     # a corpus seed
    escalated = 0
    for x, y in itertools.product(((0, 6), (1, 7), (2, 7)), itertools.product(range(9), repeat=3)):
        point = Point.make(x, y)
        if not inst.in_s(point):
            continue
        for cfg in configs:
            spent.clear()
            out = find_improving_direction(inst, point, 0, cfg)
            assert out.nodes == sum(spent), (point, cfg)
            assert out == replace(out, nodes=out.nodes + 1)
            escalated += len(spent) == 2 and all(spent)
    assert escalated > 0


def _fresh(lp):
    """The same LP with no cache entry shared."""
    return LpProblem(list(lp.objective), [list(r) for r in lp.rows], list(lp.rhs),
                     list(lp.lower), list(lp.upper))


def test_template_built_problems_read_as_fresh_ones():
    """On corpus-family seeds 2-40, at a few points each, every subsolver
    MILP built from the instance's template reads as one built from the
    same lists with fresh caches: float and integer images, propagation
    rows, the LP solution and the dual bound of its multipliers."""
    forms = [lambda inst, p: build_id_milp(inst, p),
             lambda inst, p: build_k_id_milp(inst, p, 2),
             lambda inst, p: build_id_milp(inst, p, DirectionObjective.IDIC_FRIENDLY),
             lambda inst, p: build_id_milp(inst, p, DirectionObjective.STEEPEST)]
    rng = random.Random(29)
    checked = 0
    for seed in range(2, 41):
        inst = generate_random_instance(seed, 2, 3, 2, 4, bound=8)
        for _ in range(3):
            x = [rng.randint(int(lo), int(hi)) for lo, hi in
                 zip(inst.lower[:inst.n1], inst.upper[:inst.n1])]
            y = [Fraction(rng.randint(0, 16), rng.choice((1, 2))) for _ in range(inst.n2)]
            point = Point.make(x, y)
            for form in forms:
                problem = form(inst, point)
                lp, fresh = problem.lp, _fresh(problem.lp)
                ints = problem.integer_indices
                assert lp.float_data() == fresh.float_data()
                assert lp.integer_rows() == fresh.integer_rows()
                assert milp.propagation_rows(lp, ints) == milp.propagation_rows(fresh, ints)
                sol, sol_fresh = solve_lp(lp), solve_lp(fresh)
                assert (sol.status, sol.x, sol.y) == (sol_fresh.status, sol_fresh.x, sol_fresh.y)
                if sol.status is LpStatus.OPTIMAL:
                    assert simplex.dual_bound(lp, sol.y, ints) == \
                        simplex.dual_bound(fresh, sol.y, ints)
                    checked += 1
    assert checked > 100


def test_a_query_repeats_after_another_point():
    """At one instance, a query at A, then at B, then at A again, gives the
    same outcome and node count at A both times: B's rhs and box stay in
    its own problem."""
    inst = generate_random_instance(5, 2, 3, 2, 4, bound=8)      # a corpus seed
    a, b = Point.make((3, 4), (0, 0, 0)), Point.make((6, 2), (5, 1, 2))
    for cfg in (EXACT, OracleConfig(method=DirectionMethod.EXACT_MILP_K, k=1)):
        first = find_improving_direction(inst, a, 0, cfg)
        find_improving_direction(inst, b, 0, cfg)
        again = find_improving_direction(inst, a, 0, cfg)
        assert (again.kind, again.direction, again.nodes) == \
            (first.kind, first.direction, first.nodes)
    assert inst.lp_templates


def test_every_subsolver_call_goes_through_its_module(monkeypatch):
    """A direction query, ``solve_phi`` and a solve that closes a box with
    fixed linking variables reach ``milp.solve_milp`` and
    ``simplex.solve_lp`` through those module bindings, which the
    benchmark's node counter and tracer replace: every node LP of every
    MILP is counted by the wrappers."""
    counts = Counter()
    solve_milp_, solve_lp_ = milp.solve_milp, simplex.solve_lp

    def counting_milp(*args, **kwargs):
        sol = solve_milp_(*args, **kwargs)
        counts["milp"] += 1
        counts["milp nodes"] += sol.nodes
        return sol

    def counting_lp(*args, **kwargs):
        counts["lp"] += 1
        return solve_lp_(*args, **kwargs)

    monkeypatch.setattr(milp, "solve_milp", counting_milp)
    monkeypatch.setattr(simplex, "solve_lp", counting_lp)
    inst = generate_random_instance(2, 2, 3, 2, 4, bound=8)      # a corpus seed
    out = find_improving_direction(inst, Point.make((0, 6), (0, 0, 0)), 0, EXACT)
    assert counts["milp"] == 1 and counts["milp nodes"] == counts["lp"] == out.nodes > 0
    counts.clear()
    sol = solve_phi(inst, (0, 6))
    assert counts["milp"] == 1 and counts["milp nodes"] == counts["lp"] == sol.nodes > 0
    counts.clear()
    stats = bnc.solve(generate_random_instance(9, 2, 3, 2, 4, bound=8)).stats
    assert stats.linking_closed > 0 and stats.oracle_nodes > 0
    assert counts["milp nodes"] == stats.oracle_nodes + stats.linking_nodes
    assert counts["lp"] == stats.lp_solves + counts["milp nodes"]
