import functools
import itertools
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from miblp import bnc, cuts, milp, oracle, simplex
from miblp.bnc import (BranchAndCut, DirectionPool, OracleMode, SolveStatus, SolverConfig,
                       choose_branch_variable, solve)
from miblp.bruteforce import (bilevel_points, enumerate_F, enumerate_S,
                              optimal_by_enumeration)
from miblp.cuts import cut_violation
from miblp.instance import Point, generate_random_instance, parse_instance
from miblp.oracle import (DirectionMethod, DirectionObjective, OracleConfig,
                          OracleInconclusive, OutcomeKind)

from helpers import bench_corpus, mixed_leader_instance

LS2 = OracleConfig(method=DirectionMethod.LOCAL_SEARCH, k=2)


def all_mode_configs(**kw):
    for mode in OracleMode:
        yield SolverConfig(oracle_mode=mode, **kw)


def test_small_example_all_modes(moore_bard):
    for cfg in all_mode_configs():
        res = solve(moore_bard, cfg)
        assert res.status is SolveStatus.OPTIMAL
        assert res.value == -22
        assert res.incumbent == Point.make((2,), (2,))
        assert res.stats.nodes < 100
    res = solve(moore_bard, SolverConfig(oracle=LS2))
    assert res.value == -22


def test_three_d_example_matches_enumeration(three_d):
    best = optimal_by_enumeration(three_d)
    assert best is not None
    point, value = best
    assert value == -21 and point == Point.make((2,), (7, 1))
    for cfg in (SolverConfig(),
                SolverConfig(use_isic=True),
                SolverConfig(oracle_mode=OracleMode.LEGACY),
                SolverConfig(oracle=LS2)):
        res = solve(three_d, cfg)
        assert res.status is SolveStatus.OPTIMAL
        assert res.value == value
        assert res.incumbent in enumerate_F(three_d)
    assert solve(three_d, SolverConfig()).stats.nodes < 100


def test_random_instances_match_enumeration():
    configs = [
        SolverConfig(),
        SolverConfig(oracle_mode=OracleMode.LEGACY, use_isic=True),
        SolverConfig(oracle=LS2),
        SolverConfig(use_isic=True, use_idic=False),
    ]
    checked = 0
    for seed in range(12):
        inst = generate_random_instance(seed, n1=1, n2=2, m1=1, m2=2, bound=3)
        best = optimal_by_enumeration(inst)
        for cfg in configs:
            res = solve(inst, cfg)
            if best is None:
                assert res.status is SolveStatus.INFEASIBLE, inst.name
            else:
                assert res.status is SolveStatus.OPTIMAL, inst.name
                assert res.value == best[1], inst.name
                assert res.incumbent in enumerate_F(inst), inst.name
        checked += 1
    assert checked == 12


def test_determinism(three_d):
    cfg = SolverConfig(trace=True)
    a = solve(three_d, cfg)
    b = solve(three_d, cfg)
    assert a.value == b.value
    assert a.stats.nodes == b.stats.nodes
    assert a.trace == b.trace
    assert a.trace and a.trace[0].startswith("node 0 depth 0")
    assert solve(three_d, SolverConfig()).trace == ()


@pytest.mark.parametrize("seed, cfg, counts", [
    (14, SolverConfig(), (32, 2, 0)),
    (19, SolverConfig(), (16, 4, 1)),
    (19, SolverConfig(oracle=LS2), (7, 3, 1)),
])
def test_rays_only_for_global_cones(monkeypatch, seed, cfg, counts):
    """Every cone follows a passing globality test at the same vertex, and
    every passing test is followed by a cone or by an oracle outcome other
    than FOUND; the cut counts are those of the driver that queried the
    oracle at every vertex and built every cone before testing it, the node
    and certificate counts those of the exact, lattice-rounded bound prune
    over node boxes propagated under the incumbent's cutoff, with each box
    that fixes the linking variables closed by its MILPs."""
    solver = BranchAndCut(generate_random_instance(seed, 2, 3, 2, 4, bound=8), cfg)
    events = []
    is_global, supports = solver._cone_is_global, simplex.tight_bound_supports
    extract, find = simplex.extract_cone, oracle.find_improving_direction
    vertex, box = [], []

    def checked_supports(prob, sol):
        vertex[:] = [sol]
        return supports(prob, sol)

    def checked_is_global(bound_supports, node):
        box[:] = [node]
        events.append(("test", vertex[0], is_global(bound_supports, node)))
        return events[-1][2]

    def checked_find(*args):
        try:
            outcome = find(*args)
        except OracleInconclusive:
            events.append(("oracle", None))
            raise
        events.append(("oracle", outcome.kind))
        return outcome

    def checked_extract(prob, sol):
        tests = [e for e in events if e[0] == "test"]
        assert tests and tests[-1][1] is sol and tests[-1][2] is True
        cone = extract(prob, sol)
        assert is_global(cone.bound_supports, box[0])
        events.append(("cone", sol))
        return cone

    monkeypatch.setattr(solver, "_cone_is_global", checked_is_global)
    monkeypatch.setattr(simplex, "tight_bound_supports", checked_supports)
    monkeypatch.setattr(simplex, "extract_cone", checked_extract)
    monkeypatch.setattr(oracle, "find_improving_direction", checked_find)
    res = solver.run()
    assert (res.stats.nodes, res.stats.cuts_idic, res.stats.certificates) == counts
    for i, event in enumerate(events):
        if event[0] == "test" and event[2]:
            nxt = events[i + 1]
            if nxt == ("oracle", OutcomeKind.FOUND):
                nxt = events[i + 2]
            assert nxt == ("cone", event[1]) or \
                (nxt[0] == "oracle" and nxt[1] is not OutcomeKind.FOUND)
    assert sum(e[0] == "cone" for e in events) > 0
    assert any(e[0] == "test" and not e[2] for e in events)


def _nan_objectives(monkeypatch):
    """Every Optimal LP from now on reports a NaN float objective."""
    solve_lp = simplex.solve_lp

    def nan_objective(problem, start=None):
        sol = solve_lp(problem, start)
        if sol.status is simplex.LpStatus.OPTIMAL:
            sol.objective = math.nan
        return sol
    monkeypatch.setattr(simplex, "solve_lp", nan_objective)


def test_no_prune_or_queue_decision_reads_the_float_objective(monkeypatch):
    """Both trees prune and order on the exact dual bound alone: with every
    LP's float objective NaN, B&C gives the same nodes, cuts and answers,
    and the direction MILPs the same nodes and directions."""
    instances = [generate_random_instance(seed, 2, 3, 2, 4, bound=8) for seed in (12, 19, 38)]
    configs = (SolverConfig(), SolverConfig(oracle_mode=OracleMode.LEGACY))
    inst = instances[0]
    points = random.Random(5).sample(sorted(enumerate_S(inst), key=Point.joint), 20)
    queries = [oracle.build_id_milp(inst, point) for point in points]

    def run():
        solves = [solve(i, cfg) for i in instances for cfg in configs]
        milps = [milp.solve_milp(q) for q in queries]
        return ([(r.status, r.value, r.incumbent, r.stats.nodes,
                  [cut.key() for cut in r.cut_log]) for r in solves],
                [(m.status, m.x, m.objective, m.nodes, m.propagated) for m in milps])

    before = run()
    assert sum(m[3] for m in before[1]) > len(queries)     # the MILPs branch
    _nan_objectives(monkeypatch)
    assert run() == before


@pytest.mark.parametrize("seed, cfg", [
    (19, SolverConfig()),
    (19, SolverConfig(oracle=LS2)),
    (13, SolverConfig(use_isic=True)),
])
def test_oracle_runs_only_where_its_answer_counts(monkeypatch, seed, cfg):
    """No query at a fractional vertex that cannot be cut from, and no pool
    lookup at a vertex that can."""
    solver = BranchAndCut(generate_random_instance(seed, 2, 3, 2, 4, bound=8), cfg)
    can_cut, find, refute = solver._can_cut, oracle.find_improving_direction, \
        solver.directions.refute
    last = []

    def recording_can_cut(*args):
        last[:] = [can_cut(*args)]
        return last[0]

    def checked_find(inst, point, depth, ocfg, deadline=None):
        assert inst.is_integral(point) or last == [True]
        return find(inst, point, depth, ocfg, deadline)

    def checked_refute(point):
        assert last == [False] and solver.inst.is_integral(point)
        return refute(point)

    monkeypatch.setattr(solver, "_can_cut", recording_can_cut)
    monkeypatch.setattr(oracle, "find_improving_direction", checked_find)
    monkeypatch.setattr(solver.directions, "refute", checked_refute)
    res = solver.run()
    assert res.status is SolveStatus.OPTIMAL
    assert res.stats.oracle_skipped > 0 and res.stats.pool_refutations > 0


@pytest.mark.parametrize("cfg, nodes, cuts", [
    (SolverConfig(oracle_mode=OracleMode.LEGACY), 333, 1),
    (SolverConfig(use_isic=True), 203, 31),
    (SolverConfig(oracle=OracleConfig(method=DirectionMethod.EXACT_MILP_K, k=1)), 276, 15),
    (SolverConfig(oracle=OracleConfig(objective=DirectionObjective.STEEPEST)), 320, 33),
], ids=["legacy", "isic", "milp-k1", "steepest"])
def test_corpus_trees_of_the_ungated_configurations(cfg, nodes, cuts):
    """The benchmark records the corpus trees of the default and the
    local-search configurations only; these are the B&C nodes and pooled
    cuts of four others over the same seeds, the same on every Python."""
    corpus = bench_corpus()
    results = [solve(corpus.generate(seed), cfg) for seed in corpus.CORPUS_SEEDS]
    assert sum(r.stats.nodes for r in results) == nodes
    assert sum(len(r.cut_log) for r in results) == cuts


def test_pool_hits_are_improving_directions():
    """At every integral point of S, the pool answers with a pooled w exactly
    when some pooled w improves the follower there, and the exact direction
    MILP then finds a direction too."""
    hits = misses = 0
    for seed in range(8):
        inst = generate_random_instance(seed, n1=1, n2=2, m1=1, m2=2, bound=3)
        points = sorted(enumerate_S(inst), key=lambda p: p.joint())
        pool = DirectionPool(inst)
        pooled = [w for w in itertools.product(range(-3, 4), repeat=2)
                  if sum(d * v for d, v in zip(inst.d2, w)) <= -1]
        for w in reversed(pooled):
            pool.add(w)
        for p in points:
            hit = pool.refute(p)
            fits = [w for w in pooled
                    if inst.follower_feasible(p.x, [a + b for a, b in zip(p.y, w)])]
            assert (hit is None) == (not fits), (inst.name, p)
            if hit is None:
                misses += 1
                continue
            hits += 1
            assert hit in fits
            outcome = oracle.find_improving_direction(inst, p, 0, OracleConfig())
            assert outcome.kind is OutcomeKind.FOUND, (inst.name, p)
    assert hits > 0 and misses > 0


# one follower row, x + y1 + y2 >= 3, and the box 0 <= y <= 5
POOL_ROW = """MIBLP 1
VARS 1 1 2 2
OBJ_UPPER 0 0 0
OBJ_LOWER 1 1
BOUNDS 0 5 0 5 0 5
UPPER 0
LOWER 1
1 1 1 >= 3
"""


@pytest.mark.parametrize("point, w, fits", [
    ((1, 2, 2), (-1, -1), True),      # row tight
    ((1, 2, 2), (-2, -1), False),     # row broken by one unit
    ((3, 0, 2), (0, -2), True),       # row and lower bound tight
    ((3, 0, 2), (-1, 0), False),      # lower bound broken by one unit
    ((0, 4, 2), (1, -2), True),       # upper bound tight
    ((0, 5, 2), (1, -2), False),      # upper bound broken by one unit
])
def test_pool_check_is_exact_to_the_unit(point, w, fits):
    inst = parse_instance(POOL_ROW)
    pool = DirectionPool(inst)
    pool.add(w)
    found = pool.refute(Point.make(point[:1], point[1:]))
    assert found == (w if fits else None)
    assert inst.follower_feasible(point[:1], [a + b for a, b in zip(point[1:], w)]) is fits


def test_pool_moves_hits_to_front_and_deduplicates():
    inst = parse_instance(POOL_ROW)
    pool = DirectionPool(inst)
    for w in ((-1, 0), (0, -1), (-1, 0)):
        pool.add(w)
    assert [w for w, _ in pool.entries] == [(0, -1), (-1, 0)]
    assert pool.refute(Point.make((1,), (2, 2))) == (0, -1)    # both fit
    assert pool.refute(Point.make((1,), (3, 0))) == (-1, 0)    # only y1 can fall
    assert pool.refute(Point.make((1,), (2, 2))) == (-1, 0)
    assert pool.refute(Point.make((3,), (0, 0))) is None


@pytest.mark.parametrize("cfg, cap", [
    (SolverConfig(time_limit=600.0), 600.0),
    (SolverConfig(time_limit=600.0,
                  oracle=OracleConfig(method=DirectionMethod.EXACT_MILP_K, k=1)), 600.0),
    (SolverConfig(time_limit=600.0, oracle=LS2), 600.0),
    (SolverConfig(time_limit=600.0, oracle_mode=OracleMode.LEGACY), 600.0),
    (SolverConfig(), None),
])
def test_direction_search_held_to_the_deadline(monkeypatch, cfg, cap):
    """Every direction MILP, a failed radius-k search's included, and in
    legacy mode every MILP the solve runs, value-function MILPs included,
    gets the solve's own deadline, ``cap`` seconds after its start; with no
    solve limit nothing changes."""
    # seed 19 is the corpus seed where legacy mode sources a cut
    solver = BranchAndCut(generate_random_instance(19, 2, 3, 2, 4, bound=8), cfg)
    direction_search, solve_milp = solver._oracle, milp.solve_milp
    inside, limits = [], []

    def tracked_oracle(*args):
        inside.append(True)
        try:
            return direction_search(*args)
        finally:
            inside.pop()

    def recording_milp(problem, deadline=None):
        if inside or cfg.oracle_mode is OracleMode.LEGACY:
            limits.append(deadline)
        return solve_milp(problem, deadline=deadline)

    monkeypatch.setattr(solver, "_oracle", tracked_oracle)
    monkeypatch.setattr(milp, "solve_milp", recording_milp)
    start = time.monotonic()
    assert solver.run().status is SolveStatus.OPTIMAL
    assert limits
    if cap is None:
        assert solver._deadline is None
    else:
        assert start + cap <= solver._deadline <= time.monotonic() + cap
    assert all(t == solver._deadline for t in limits)


def test_an_escalated_direction_search_keeps_the_solve_deadline(monkeypatch):
    """Under milp-k, a radius-k MILP at a point of S that finds no step
    escalates to the exact MILP, which stops at the solve's deadline: with
    the clock moved past it while the radius-k MILP ran, the exact MILP
    reaches its limit at once, and the solve ends LIMIT_REACHED."""
    now = [time.monotonic()]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    build_k, solve_milp = oracle.build_k_id_milp, milp.solve_milp
    radius_k, escalated = [], []

    def building_k(inst, point, *args):
        problem = build_k(inst, point, *args)
        if inst.in_s(point):
            radius_k.append(problem)
        return problem

    def clocked_milp(problem, **kwargs):
        sol = solve_milp(problem, **kwargs)
        if escalated == [None]:
            escalated[0] = sol.status       # the exact MILP the query escalated to
        elif not escalated and sol.status is milp.MilpStatus.INFEASIBLE and \
                any(problem is p for p in radius_k):
            now[0] += 601.0
            escalated.append(None)
        return sol

    monkeypatch.setattr(oracle, "build_k_id_milp", building_k)
    monkeypatch.setattr(milp, "solve_milp", clocked_milp)
    cfg = SolverConfig(time_limit=600.0,
                       oracle=OracleConfig(method=DirectionMethod.EXACT_MILP_K, k=1))
    res = solve(generate_random_instance(19, 2, 3, 2, 4, bound=8), cfg)
    assert escalated == [milp.MilpStatus.LIMIT_REACHED]
    assert res.status is SolveStatus.LIMIT_REACHED


# With cuts of coefficients near 1e11 pooled, a float phase 1 calls node LPs
# of these trees infeasible that are not; pruning on those verdicts lost the
# optimum, and the Farkas check refuses them.  Integer enumeration gives the
# optima below
@pytest.mark.parametrize("seed, bound, optimum", [(36, 8, -7), (18, 6, 1)])
def test_infeasible_prunes_need_a_farkas_certificate(seed, bound, optimum):
    res = solve(generate_random_instance(seed, 2, 3, 2, 4, bound=bound), SolverConfig())
    assert res.status is SolveStatus.OPTIMAL
    assert res.value == optimum


def test_every_infeasible_verdict_is_proven_under_large_cuts(monkeypatch):
    # seed 38 of family 3 3 2 5 10 pools cuts with coefficients up to
    # ~1.2e11 (37 bits; the family's seeds 2-40 pool up to ~5.1e14, 49 bits);
    # with those rows scaled by powers of two every "infeasible" the dual
    # loop reaches carries a certificate, so no node pays a midpoint split
    certified, unproven = simplex._Simplex._certified, []

    def spy(self, *args):
        status = certified(self, *args)
        unproven.append(status is not simplex.LpStatus.INFEASIBLE)
        return status

    monkeypatch.setattr(simplex._Simplex, "_certified", spy)
    res = solve(generate_random_instance(38, 3, 3, 2, 5, bound=10), SolverConfig())
    assert res.status is SolveStatus.OPTIMAL and res.value == -53
    assert unproven and not any(unproven)


def test_infeasible_instance(moore_bard):
    from conftest import MOORE_BARD
    # fixing x = 0 leaves only the fractional follower point y = 3/2
    inst = parse_instance(MOORE_BARD.replace("BOUNDS 0 8 0 5",
                                             "BOUNDS 0 0 0 5"))
    for cfg in (SolverConfig(),
                SolverConfig(oracle_mode=OracleMode.LEGACY)):
        res = solve(inst, cfg)
        assert res.status is SolveStatus.INFEASIBLE
        assert res.incumbent is None and res.value is None


def test_root_box_without_an_integer_point_needs_no_lp():
    from conftest import MOORE_BARD
    # the leader row 2x = 1 leaves the relaxation x = 1/2, y in [7/5, 17/8]
    inst = parse_instance(MOORE_BARD.replace("UPPER 0", "UPPER 1\n2 0 = 1"))
    for cfg in (SolverConfig(trace=True),
                SolverConfig(oracle_mode=OracleMode.LEGACY, trace=True)):
        res = solve(inst, cfg)
        assert res.status is SolveStatus.INFEASIBLE
        assert (res.stats.nodes, res.stats.lp_solves, res.stats.propagated) == (0, 0, 1)
        assert res.trace == ("node 0 depth 0 bound inf pruned-propagated",)


def test_no_integer_cost_builds_no_cutoff():
    """With no cost on an integer column the objective cutoff has no row:
    the solve reaches the enumerated optimum without one."""
    from conftest import MOORE_BARD
    inst = parse_instance(MOORE_BARD.replace("OBJ_UPPER -1 -10", "OBJ_UPPER 0 0"))
    assert optimal_by_enumeration(inst)[1] == 0
    solver = BranchAndCut(inst, SolverConfig())
    res = solver.run()
    assert res.status is SolveStatus.OPTIMAL and res.value == 0
    assert solver._cutoff_image is None and solver._cutoff() is None


@pytest.mark.parametrize("name, optimum", [("moore_bard", -22), ("three_d", -21)])
def test_an_inconclusive_value_function_in_legacy_mode_sets_boxes_aside(
        monkeypatch, request, name, optimum):
    """With phi(x) inconclusive everywhere, legacy mode can neither certify
    nor refute an integral vertex: each box with every integer column fixed
    is set aside, and the solve ends LIMIT_REACHED with no incumbent and a
    bound at or below the optimum."""
    inst = request.getfixturevalue(name)

    def inconclusive(*args, **kwargs):
        raise OracleInconclusive("injected")

    monkeypatch.setattr(oracle, "solve_phi", inconclusive)
    res = solve(inst, SolverConfig(oracle_mode=OracleMode.LEGACY, trace=True))
    assert res.status is SolveStatus.LIMIT_REACHED
    assert res.incumbent is None and res.bound <= optimum
    assert res.stats.unsettled > 0 and res.stats.linking_closed == 0
    assert sum(line.endswith(" unsettled") for line in res.trace) == res.stats.unsettled


@pytest.mark.parametrize("family, seeds", [((2, 3, 2, 4, 4), range(2, 32)),
                                           ((3, 3, 2, 5, 3), range(2, 12)),
                                           ((2, 3, 2, 4, 6), range(2, 61))])
def test_propagated_trees_match_enumeration(monkeypatch, family, seeds):
    """Node propagation keeps every answer, under the exact direction MILP
    and under local search of radius 2, and closes boxes on the way.  Once
    an incumbent of value v exists, every propagation keeps in the box each
    bilevel-feasible point better than v that was in it, and closes only a
    box that holds none; the cutoff row alone closes some boxes that the
    instance rows and the pool leave open."""
    n1, n2, m1, m2, bound = family
    propagated = checked = by_cutoff = 0
    for seed in seeds:
        inst = generate_random_instance(seed, n1, n2, m1, m2, bound=bound)
        points = [(p.joint(), inst.leader_value(p)) for p in enumerate_F(inst)]
        best = min((value for _, value in points), default=None)
        for cfg in (SolverConfig(), SolverConfig(oracle=LS2)):
            solver = BranchAndCut(inst, cfg)

            def checked_propagate(rows, by_col, lower, upper, moved, visits):
                nonlocal checked, by_cutoff
                if solver.value is None:
                    return milp.propagate(rows, by_col, lower, upper, moved, visits)
                inside = [z for z, value in points if value < solver.value and
                          all(lo <= v <= hi for v, lo, hi in zip(z, lower, upper))]
                before = list(lower), list(upper)
                feasible = milp.propagate(rows, by_col, lower, upper, moved, visits)
                checked += 1
                assert feasible or not inside, inst.name
                if feasible:
                    assert all(lo <= v <= hi for z in inside
                               for v, lo, hi in zip(z, lower, upper)), inst.name
                elif rows[-1] == solver._cutoff() and milp.propagate(
                        rows[:-1], [[i for i in col if i < len(rows) - 1] for col in by_col],
                        *before, solver.integer, visits):
                    by_cutoff += 1
                return feasible

            monkeypatch.setattr(bnc, "propagate", checked_propagate)
            res = solver.run()
            if best is None:
                assert res.status is SolveStatus.INFEASIBLE, inst.name
            else:
                assert res.status is SolveStatus.OPTIMAL, inst.name
                assert res.value == best, inst.name
            propagated += res.stats.propagated
    assert propagated > 0 and checked > 0 and by_cutoff > 0


def test_the_node_lp_never_holds_the_cutoff(monkeypatch):
    """Each node LP holds exactly the instance rows and the pool, before
    and after an incumbent exists, while the propagation rows end with
    the cutoff once there is one."""
    seen = []
    for seed in (10, 13, 14, 19):
        inst = generate_random_instance(seed, 2, 3, 2, 4, bound=8)
        solver = BranchAndCut(inst, SolverConfig())
        rows = [list(co) for co, _ in inst.all_rows()]
        rhs = [b for _, b in inst.all_rows()]
        node_lp, tighten = solver._node_lp, solver._tighten

        def checked_node_lp(node):
            prob = node_lp(node)
            assert prob.rows == rows + [c.row() for c in solver.pool]
            assert prob.rhs == rhs + [c.beta for c in solver.pool]
            assert (prob.lower, prob.upper) == (node.lower, node.upper)
            seen.append((solver._cutoff() is not None, len(solver.pool)))
            return prob

        def checked_tighten(node):
            feasible = tighten(node)
            cutoff = solver._cutoff()
            assert (solver._propagation[0][-1] == cutoff) is (cutoff is not None)
            return feasible

        monkeypatch.setattr(solver, "_node_lp", checked_node_lp)
        monkeypatch.setattr(solver, "_tighten", checked_tighten)
        assert solver.run().status is SolveStatus.OPTIMAL
    assert any(has_cutoff and pool for has_cutoff, pool in seen)


@pytest.mark.parametrize("cfg", [SolverConfig(), SolverConfig(oracle=LS2),
                                 SolverConfig(oracle_mode=OracleMode.LEGACY)])
def test_the_follower_problem_never_sees_a_node_box(monkeypatch, cfg):
    """Propagation tightens node boxes and the root box, but the follower's
    problem is the instance's: every step image and value function is
    built from the instance's own bounds, which the solve leaves as they
    are."""
    inst = generate_random_instance(9, 2, 3, 2, 4, bound=8)
    lower, upper = inst.lower, inst.upper
    seen = []

    def own_bounds(fn):
        def wrapper(instance, *args, **kwargs):
            assert instance.lower == lower and instance.upper == upper
            seen.append(fn.__name__)
            return fn(instance, *args, **kwargs)
        return wrapper
    monkeypatch.setattr(oracle, "step_image", own_bounds(oracle.step_image))
    monkeypatch.setattr(oracle, "solve_phi", own_bounds(oracle.solve_phi))
    solver = BranchAndCut(inst, cfg)
    res = solver.run()
    assert res.stats.propagated > 0
    assert solver.root_upper[inst.n1:] == [4, 6, 2]     # the follower box, tightened
    assert {"solve_phi", "step_image"} <= set(seen)
    assert inst.lower == lower and inst.upper == upper


def test_node_limit(moore_bard):
    res = solve(moore_bard, SolverConfig(node_limit=1))
    assert res.status is SolveStatus.LIMIT_REACHED
    assert res.bound <= -22 + 1e-9
    res = solve(moore_bard, SolverConfig(time_limit=0.0))
    assert res.status is SolveStatus.LIMIT_REACHED
    assert res.stats.nodes == 0


def test_limit_bound_counts_nodes_whose_lp_failed(monkeypatch):
    """The first two node LPs fail, the root's and its first child's, so
    the boxes they split carry bound -inf; a limit reached before those are
    bounded leaves -inf as the proven bound, where the queue's finite keys
    alone would claim -76 above the optimum -78."""
    solve_lp, failed = simplex.solve_lp, []

    def failing(*args):
        if len(failed) < 2:
            failed.append(args)
            return simplex.LpSolution(simplex.LpStatus.UNSTABLE)
        return solve_lp(*args)

    monkeypatch.setattr(simplex, "solve_lp", failing)
    res = solve(generate_random_instance(2, 2, 3, 2, 4, bound=8), SolverConfig(node_limit=3))
    assert len(failed) == 2
    assert res.status is SolveStatus.LIMIT_REACHED
    assert res.bound <= -78


# seeds 5, 10, 11, 13, 14, 18, 19, 27, 29, 33 and 36 ended LIMIT_REACHED before
# a proven, fully fixed integer box was pruned whatever its continuous leaders
@pytest.mark.parametrize("seed", range(2, 41))
def test_fixed_integer_box_closes_whatever_its_continuous_leaders(seed):
    """Every box settles, and the answer is right.  The cutoff row runs
    over the integer columns, with the continuous leader's cost at its
    least over the instance's box, so every seed with an incumbent has
    one, whether or not that leader has a cost."""
    inst = mixed_leader_instance(seed)
    assert not inst.is_pure_integer()
    solver = BranchAndCut(inst, SolverConfig(trace=True))
    res = solver.run()
    assert res.stats.unsettled == 0
    assert (solver._cutoff() is None) is (res.incumbent is None)
    best = optimal_by_enumeration(inst)
    if best is None:
        assert res.status is SolveStatus.INFEASIBLE
    else:
        assert res.status is SolveStatus.OPTIMAL and res.value == best[1]
        assert inst.in_relaxation(res.incumbent)


def test_no_mixed_cutoff_row_excludes_a_better_optimum(monkeypatch):
    """Each cutoff row built during a mixed-leader solve, while the
    enumerated optimum beats the incumbent, holds at every optimal point:
    the continuous leader's cost is bounded by its least over the box, not
    dropped."""
    checked = 0
    for seed in range(2, 41):
        inst = mixed_leader_instance(seed)
        points = list(bilevel_points(inst))
        if not points:
            continue
        best = min(value for value, _ in points)
        optima = [p.joint() for value, p in points if value == best]
        solver = BranchAndCut(inst, SolverConfig())
        cutoff = solver._cutoff

        def checked_cutoff():
            nonlocal checked
            row = cutoff()
            if row is not None and best < solver.value:
                terms, rhs = row
                for z in optima:
                    assert sum(a * z[j] for j, a in terms) >= rhs, inst.name
                checked += 1
            return row

        monkeypatch.setattr(solver, "_cutoff", checked_cutoff)
        assert solver.run().value == best
    assert checked > 0


@functools.cache
def _enumerated(family, seed):
    """The instance and its feasible set F, as {joint point: leader value}."""
    inst = generate_random_instance(seed, *family[:4], bound=family[4])
    return inst, {p.joint(): inst.leader_value(p) for p in enumerate_F(inst)}


def _best_in_box(inst, lower, upper):
    """The least leader value of a bilevel-feasible point in the box, or None."""
    return min((value for value, _ in bilevel_points(inst, lower, upper)), default=None)


def _in_box(z, lower, upper):
    return all(lo <= v <= hi for v, lo, hi in zip(z, lower, upper))


@pytest.mark.parametrize("family, seeds", [((2, 3, 2, 4, 4), range(2, 32)),
                                           ((3, 3, 2, 5, 3), range(2, 12)),
                                           ("mixed", range(2, 41, 2))])
def test_boxes_closed_with_fixed_linking_keep_their_best_point(monkeypatch, family, seeds):
    """Each box that the fixed-linking rule closes yields its best
    bilevel-feasible point, or holds none better than the incumbent it was
    closed under, against enumeration: the feasible set F on pure
    instances, and on mixed-leader ones the best point of the box, whose
    follower responses are the best over the instance's own follower box."""
    accepted_boxes = empty_boxes = 0
    for seed in seeds:
        if family == "mixed":
            inst, feasible = mixed_leader_instance(seed), None
        else:
            inst, feasible = _enumerated(family, seed)
        solver = BranchAndCut(inst, SolverConfig())
        close, accept, accepted = solver._close_fixed_linking, solver._accept, []

        def recording_accept(node, point, bound):
            accepted.append(point)
            accept(node, point, bound)

        def checked_close(node):
            nonlocal accepted_boxes, empty_boxes
            lower, upper, before = list(node.lower), list(node.upper), solver.value
            accepted.clear()
            assert close(node), inst.name
            if feasible is None:
                best = _best_in_box(inst, lower, upper)
            else:
                best = min((v for z, v in feasible.items() if _in_box(z, lower, upper)),
                           default=None)
            if accepted:
                (point,) = accepted
                z = point.joint()
                assert _in_box(z, lower, upper), inst.name
                assert inst.leader_value(point) == best, inst.name
                if feasible is None:
                    assert _best_in_box(inst, z, z) == best, inst.name
                else:
                    assert z in feasible, inst.name
                accepted_boxes += 1
            else:
                assert best is None or before is not None and best >= before, inst.name
                empty_boxes += 1
            return True

        monkeypatch.setattr(solver, "_accept", recording_accept)
        monkeypatch.setattr(solver, "_close_fixed_linking", checked_close)
        solver.run()
    assert accepted_boxes > 0 and empty_boxes > 0


@pytest.mark.parametrize("failure", ["error", "limit"])
def test_a_failed_fixed_linking_milp_leaves_the_box_to_the_lp(monkeypatch, failure):
    """A MilpError or a limit in the value-function or leader MILP of a box
    with fixed linking variables leaves that box to the node LP, so no
    answer rests on an unfinished MILP.  When the MILPs fail at the first
    such box that still has a free integer column, the LP bounds and
    branches it, and every solve ends with the enumerated optimum; so it
    does when only the leader MILP fails, at every box where phi(x) is
    finite.  When they fail at every box, a box whose integer columns are
    all fixed closes at its integral vertex: as incumbent where no step
    improves the follower, pruned as refuted where one does, and every solve
    still ends with the enumerated answer.  Only when the direction search
    fails in such a box too is the box set aside and the search goes on: a
    solve then ends LIMIT_REACHED, with a bound at or below the optimum and
    any incumbent in F, or ends with the enumerated answer."""
    solve_milp = milp.solve_milp
    for fail in ("first", "all", "all-and-oracle", "leader"):
        fallbacks = limited = refuted = 0
        for seed in range(2, 32):
            inst, feasible = _enumerated((2, 3, 2, 4, 4), seed)
            solver = BranchAndCut(inst, SolverConfig(trace=True))
            close, bound_node = solver._close_fixed_linking, solver.bound_node
            leader_milp = solver._leader_milp
            failing_box, current = [], []

            def closing(node):
                free = any(node.lower[j] < node.upper[j] for j in solver.integer)
                if fail.startswith("all") or fail == "first" and free and not failing_box:
                    failing_box.append(node.id)
                current[:] = [node.id]
                closed = close(node)
                current.clear()
                assert closed is (node.id not in failing_box), inst.name
                return closed

            def bounding(node):
                fixed = all(node.lower[j] == node.upper[j] for j in solver.integer)
                current[:] = [node.id] if fixed and fail == "all-and-oracle" else []
                try:
                    return bound_node(node)
                finally:
                    current.clear()

            def failing_leader_milp(node, phi):
                # phi(x) has been solved: only the leader MILP is to fail
                if fail == "leader":
                    failing_box.append(node.id)
                return leader_milp(node, phi)

            def failing(problem, deadline=None):
                if current and current[0] in failing_box:
                    if failure == "error":
                        raise milp.MilpError("injected")
                    return milp.MilpSolution(milp.MilpStatus.LIMIT_REACHED)
                return solve_milp(problem, deadline=deadline)

            monkeypatch.setattr(solver, "_close_fixed_linking", closing)
            monkeypatch.setattr(solver, "bound_node", bounding)
            monkeypatch.setattr(solver, "_leader_milp", failing_leader_milp)
            monkeypatch.setattr(milp, "solve_milp", failing)
            res = solver.run()
            monkeypatch.setattr(milp, "solve_milp", solve_milp)
            fallbacks += len(failing_box)
            refuted += sum(line.endswith(" pruned-refuted") for line in res.trace)
            if res.status is SolveStatus.LIMIT_REACHED:
                assert fail == "all-and-oracle" and res.stats.unsettled > 0, inst.name
                assert any(line.endswith(" unsettled") for line in res.trace), inst.name
                assert not feasible or res.bound <= min(feasible.values()), inst.name
                assert res.incumbent is None or res.incumbent.joint() in feasible, inst.name
                limited += 1
            elif not feasible:
                assert res.status is SolveStatus.INFEASIBLE, inst.name
            else:
                assert res.status is SolveStatus.OPTIMAL, inst.name
                assert res.value == min(feasible.values()), inst.name
                assert res.incumbent.joint() in feasible, inst.name
        assert fallbacks > 0
        assert (refuted > 0) is (fail != "first")
        assert (limited > 0) is (fail == "all-and-oracle")


def test_a_refuted_box_with_every_integer_column_fixed_closes(monkeypatch):
    """With a MilpError in every fixed-linking MILP, corpus-range seed 29,
    which is infeasible, reaches hundreds of boxes with every integer
    column fixed at a refuted integral vertex.  Each is pruned as refuted,
    and the solve ends INFEASIBLE, where it once set them all aside and
    ended LIMIT_REACHED."""
    inst = generate_random_instance(29, 2, 3, 2, 4, bound=8)
    assert optimal_by_enumeration(inst) is None
    solver = BranchAndCut(inst, SolverConfig(trace=True))
    close, solve_milp, current = solver._close_fixed_linking, milp.solve_milp, []

    def closing(node):
        current.append(node.id)
        try:
            return close(node)
        finally:
            current.clear()

    def failing(problem, deadline=None):
        if current:
            raise milp.MilpError("injected")
        return solve_milp(problem, deadline=deadline)

    monkeypatch.setattr(solver, "_close_fixed_linking", closing)
    monkeypatch.setattr(milp, "solve_milp", failing)
    res = solver.run()
    assert res.status is SolveStatus.INFEASIBLE
    assert res.stats.unsettled == 0 and res.stats.linking_closed == 0
    assert sum(line.endswith(" pruned-refuted") for line in res.trace) > 100


def test_cut_log(moore_bard):
    res = solve(moore_bard, SolverConfig(use_isic=True))
    assert res.status is SolveStatus.OPTIMAL
    assert len(res.cut_log) == res.stats.cuts_idic + res.stats.cuts_isic
    assert res.cut_log
    keys = [cut.key() for cut in res.cut_log]
    assert len(keys) == len(set(keys))
    f_points = enumerate_F(moore_bard)
    for cut in res.cut_log:
        src = Point(tuple(cut.vertex[:moore_bard.n1]),
                    tuple(cut.vertex[moore_bard.n1:]))
        assert cut_violation(cut, src) > 0
        assert cut.free_set.strictly_contains(src)
        # pooled rows must survive the float image used by the node LPs
        assert all(abs(c).bit_length() <= sys.float_info.mant_dig
                   for c in cut.row() + [cut.beta])
        for p in f_points:
            assert cut_violation(cut, p) <= 0


@pytest.mark.parametrize("cfg", [SolverConfig(), SolverConfig(oracle=LS2)])
def test_corpus_cuts_are_primitive_int_rows_and_every_reject_is_counted(monkeypatch, cfg):
    """On the benchmark corpus every pooled cut is a row of Python ints with
    gcd 1, each of which a float holds exactly, and every cut computed, that
    is each intersection_cut call that does not prune its node, is either
    pooled or counted as a reject."""
    calls = Counter()
    intersection_cut = cuts.intersection_cut

    def counted(*args):
        try:
            cut = intersection_cut(*args)
        except cuts.NotSeparableError:
            calls["not separable"] += 1
            raise
        calls["cuts"] += 1
        return cut
    monkeypatch.setattr(cuts, "intersection_cut", counted)
    pooled = rejects = 0
    for seed in bench_corpus().CORPUS_SEEDS:
        res = solve(bench_corpus().generate(seed), cfg)
        for cut in res.cut_log:
            row = cut.row() + [cut.beta]
            assert all(type(v) is int for v in row) and math.gcd(*row) == 1
            assert all(float(v) == v for v in row)
        pooled += len(res.cut_log)
        rejects += sum(res.stats.cut_rejects.values())
    assert pooled > 0 and rejects > 0
    assert pooled + rejects == calls["cuts"] + calls["not separable"]


def test_a_cut_is_pooled_when_a_float_holds_each_of_its_ints(moore_bard, monkeypatch):
    """A row whose largest entry has as many bits as a float's mantissa is
    pooled; one with a bit more is counted as over the coefficient cap."""
    solver = BranchAndCut(moore_bard, SolverConfig())
    mantissa = sys.float_info.mant_dig
    cone = SimpleNamespace(vertex=(Fraction(2), Fraction(4)))
    for bits, added in ((mantissa, 1), (mantissa + 1, 0)):
        cut = cuts.Cut(alpha_x=(1 - 2 ** bits,), alpha_y=(1,), beta=-3)
        monkeypatch.setattr(cuts, "intersection_cut", lambda *args, cut=cut: cut)
        assert solver._make_cuts(cone, Point.make((2,), (4,)), (-1,)) == added
    assert [c.alpha_x for c in solver.pool] == [(1 - 2 ** mantissa,)]
    assert float(solver.pool[0].alpha_x[0]) == solver.pool[0].alpha_x[0]
    assert solver.stats.cut_rejects == {"not-separable": 0, "duplicate": 0,
                                        "coefficient-cap": 1}


def test_a_cut_pooled_before_the_cone_is_found_contained_joins_the_lp(moore_bard, monkeypatch):
    """A round that pools its direction cut and then finds the cone inside
    the solution free set still adds the cut to the LP rows, and drops
    the propagation rows derived from them."""
    solver = BranchAndCut(moore_bard, SolverConfig(use_isic=True))
    root = bnc._Node(0, 0, -math.inf, list(solver.root_lower), list(solver.root_upper))
    assert solver._tighten(root) and solver._propagation is not None
    cut = cuts.Cut(alpha_x=(-37,), alpha_y=(-214,), beta=-510)

    def contained_after_the_first(cone, fs, n1):
        if fs.origin[0] == "solution":
            raise cuts.ConeContainedError("forced")
        return cut
    monkeypatch.setattr(cuts, "intersection_cut", contained_after_the_first)
    with pytest.raises(cuts.ConeContainedError):
        solver._make_cuts(None, Point.make((2,), (4,)), SimpleNamespace(w=(-1,)))
    assert solver.pool == [cut]
    assert (solver.lp.rows[-1], solver.lp.rhs[-1]) == (cut.row(), cut.beta)
    assert solver._propagation is None


def test_cut_rounds_disabled(moore_bard, monkeypatch):
    monkeypatch.setattr(bnc, "MAX_CUT_ROUNDS", 0)
    res = solve(moore_bard, SolverConfig())
    assert res.status is SolveStatus.OPTIMAL
    assert res.value == -22
    assert res.stats.cut_rounds == 0 and res.cut_log == ()


def _raising(error):
    def fail(*args):
        raise error("forced")
    return fail


def test_a_vertex_the_free_set_cannot_separate_is_counted_and_branched(moore_bard, monkeypatch):
    monkeypatch.setattr(cuts, "intersection_cut", _raising(cuts.NotSeparableError))
    res = solve(moore_bard, SolverConfig())
    assert res.stats.cut_rejects["not-separable"] > 0
    assert res.cut_log == () and res.stats.cut_rounds == 0
    assert res.status is SolveStatus.OPTIMAL and res.value == -22


def test_a_degenerate_cone_branches(moore_bard, monkeypatch):
    monkeypatch.setattr(simplex, "extract_cone", _raising(simplex.DegenerateConeError))
    res = solve(moore_bard, SolverConfig())
    assert res.cut_log == () and res.stats.cut_rounds == 0
    assert res.status is SolveStatus.OPTIMAL and res.value == -22


def test_a_cone_inside_the_free_set_prunes_its_node(moore_bard, monkeypatch):
    monkeypatch.setattr(cuts, "intersection_cut", _raising(cuts.ConeContainedError))
    res = solve(moore_bard, SolverConfig(trace=True))
    assert any(line.endswith(" pruned-cone-contained") for line in res.trace)
    assert res.cut_log == ()


def test_inconclusive_oracle_stalls_soundly(moore_bard, monkeypatch):
    monkeypatch.setattr(milp, "solve_milp", lambda *args, **kwargs:
                        milp.MilpSolution(milp.MilpStatus.LIMIT_REACHED))
    res = solve(moore_bard, SolverConfig())
    assert res.status is SolveStatus.LIMIT_REACHED
    assert res.incumbent is None


def test_subsolver_failure_costs_one_node(three_d, monkeypatch):
    """An UNSTABLE LP inside a direction-search MILP makes that query
    inconclusive; the driver branches and still proves the optimum."""
    solve_lp, solve_milp = simplex.solve_lp, milp.solve_milp
    inside, lps = [], []

    def failing_lp(problem, start=None):
        if inside:
            lps.append(problem)
            if len(lps) == 3:
                return simplex.LpSolution(simplex.LpStatus.UNSTABLE)
        return solve_lp(problem, start)

    def tracked_milp(*args, **kwargs):
        inside.append(True)
        try:
            return solve_milp(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(simplex, "solve_lp", failing_lp)
    monkeypatch.setattr(milp, "solve_milp", tracked_milp)
    res = solve(three_d, SolverConfig())
    assert len(lps) >= 3            # the failure was injected
    assert res.status is SolveStatus.OPTIMAL and res.value == -21


def test_config_requires_a_cut_family():
    with pytest.raises(ValueError):
        SolverConfig(use_idic=False, use_isic=False)


# After a few cut rounds this instance's node LPs hand the simplex a basis
# whose tight set is mislabelled, and the recovered vertex used to land
# outside the node box: branching on it left one child equal to its parent
# and the search cycled forever instead of terminating.
UNSTABLE_BASIS = """MIBLP 1
VARS 2 2 3 3
OBJ_UPPER 4 4 1 -5 -4
OBJ_LOWER -2 5 2
BOUNDS 0 3 0 3 0 3 0 3 0 3
UPPER 1
2 -4 2 3 -1 >= -4
LOWER 3
2 3 0 4 4 >= -1
4 -2 3 0 -4 >= 0
-4 2 0 1 -5 >= -4
"""


def test_unstable_basis_still_terminates():
    inst = parse_instance(UNSTABLE_BASIS)
    truth_point, truth_value = optimal_by_enumeration(inst)
    for method in (DirectionMethod.LOCAL_SEARCH, DirectionMethod.EXACT_MILP):
        cfg = SolverConfig(oracle=OracleConfig(method=method, k=2),
                           node_limit=2000)
        res = solve(inst, cfg)
        assert res.status is SolveStatus.OPTIMAL
        assert res.value == truth_value == inst.leader_value(truth_point)


def node_stub(lower, upper):
    return SimpleNamespace(lower=[Fraction(v) for v in lower],
                           upper=[Fraction(v) for v in upper])


def test_choose_branch_variable_fractional(three_d):
    """A box whose linking variable is fixed, which reaches its LP only when
    its fixed-linking MILPs failed, branches on its most fractional integer
    variable, ties by lowest index, or if all are integral, on the
    lowest-index unfixed one."""
    fixed = node_stub([2, 0, 0], [2, 11, 5])
    pick = choose_branch_variable(
        three_d, Point.make((2,), (Fraction(7, 3), Fraction(3, 2))), fixed)
    assert pick == (2, Fraction(3, 2))
    pick = choose_branch_variable(
        three_d, Point.make((2,), (Fraction(5, 2), Fraction(3, 2))), fixed)
    assert pick == (1, Fraction(5, 2))          # tie goes to the lower index
    pick = choose_branch_variable(three_d, Point.make((2,), (7, 1)), fixed)
    assert pick == (1, Fraction(7))             # integral: lowest unfixed
    pick = choose_branch_variable(
        three_d, Point.make((2,), (7, 1)), node_stub([2, 7, 0], [2, 7, 5]))
    assert pick == (2, Fraction(1))
    assert choose_branch_variable(
        three_d, Point.make((2,), (7, 1)), node_stub([2, 7, 1], [2, 7, 1])) is None


def test_choose_branch_variable_linking(moore_bard):
    node = node_stub([0, 0], [8, 5])
    pick = choose_branch_variable(
        moore_bard, Point.make((2,), (Fraction(5, 2),)), node)
    assert pick == (0, Fraction(2))             # linking beats fractionality
    pick = choose_branch_variable(
        moore_bard, Point.make((2,), (Fraction(5, 2),)),
        node_stub([2, 0], [2, 5]))
    assert pick == (1, Fraction(5, 2))          # linking fixed: fall back


@pytest.mark.parametrize("fail", ["unstable LP", "no exact vertex"])
def test_numerical_failure_splits_at_the_midpoint(three_d, monkeypatch, fail):
    """The root's LP fails: the node branches at once at the midpoint of its
    first unfixed integer variable, as no vertex names one, and the solve
    still ends at the optimum."""
    failed = []
    if fail == "unstable LP":
        target, name = simplex.solve_lp, "solve_lp"
        result = simplex.LpSolution(simplex.LpStatus.UNSTABLE)
    else:
        target, name, result = simplex.exact_primal, "exact_primal", None

    def failing(*args):
        if not failed:              # the first call is the root's
            failed.append(name)
            return result
        return target(*args)

    monkeypatch.setattr(simplex, name, failing)
    boxes = {}
    bound_node = BranchAndCut.bound_node

    def recording(self, node):
        boxes[node.id] = (list(node.lower), list(node.upper))
        return bound_node(self, node)

    monkeypatch.setattr(BranchAndCut, "bound_node", recording)
    res = solve(three_d, SolverConfig(trace=True))
    assert len(failed) == 1
    assert res.trace[0].startswith("node 0 depth 0 ") and res.trace[0].endswith(" branched on 0")
    lo, hi = three_d.lower[0], three_d.upper[0]
    mid = lo + (hi - lo) // 2
    assert lo < hi
    assert boxes[1][1][0] == mid and boxes[2][0][0] == mid + 1
    point, value = optimal_by_enumeration(three_d)
    assert res.status is SolveStatus.OPTIMAL
    assert res.value == value and res.incumbent == point
