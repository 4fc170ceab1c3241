import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from miblp import bnc, milp, oracle, simplex
from miblp.bnc import (BranchAndCut, Branching, DirectionPool, OracleMode, SolveStatus,
                       SolverConfig, choose_branch_variable, solve)
from miblp.bruteforce import enumerate_F, enumerate_S, optimal_by_enumeration
from miblp.cuts import cut_violation
from miblp.instance import Point, generate_random_instance, parse_instance
from miblp.oracle import DirectionMethod, OracleConfig, OracleInconclusive, OutcomeKind

from helpers import mixed_bilevel_optimum, mixed_leader_instance

LS2 = OracleConfig(method=DirectionMethod.LOCAL_SEARCH, k=2)


def all_mode_configs(**kw):
    for mode in OracleMode:
        for branching in Branching:
            yield SolverConfig(oracle_mode=mode, branching=branching, **kw)


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
                SolverConfig(oracle=LS2, branching=Branching.LINKING_PRIORITY)):
        res = solve(three_d, cfg)
        assert res.status is SolveStatus.OPTIMAL
        assert res.value == value
        assert res.incumbent in enumerate_F(three_d)
    assert solve(three_d, SolverConfig()).stats.nodes < 100


def test_random_instances_match_enumeration():
    configs = [
        SolverConfig(),
        SolverConfig(oracle_mode=OracleMode.LEGACY, use_isic=True),
        SolverConfig(oracle=LS2, branching=Branching.LINKING_PRIORITY),
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
    (14, SolverConfig(), (187, 2, 1)),
    (19, SolverConfig(), (55, 4, 2)),
    (19, SolverConfig(oracle=LS2), (13, 3, 2)),
])
def test_rays_only_for_global_cones(monkeypatch, seed, cfg, counts):
    """Every cone follows a passing globality test at the same vertex, and
    every passing test is followed by a cone or by an oracle outcome other
    than FOUND; the cut and certificate counts are those of the driver
    that queried the oracle at every vertex and built every cone before
    testing it, the node counts those of the exact, lattice-rounded bound
    prune over propagated node boxes."""
    solver = BranchAndCut(generate_random_instance(seed, 2, 3, 2, 4, bound=8), cfg)
    events = []
    is_global, supports = solver._cone_is_global, simplex.tight_bound_supports
    extract, find = simplex.extract_cone, oracle.find_improving_direction
    vertex = []

    def checked_supports(prob, sol):
        vertex[:] = [sol]
        return supports(prob, sol)

    def checked_is_global(bound_supports):
        events.append(("test", vertex[0], is_global(bound_supports)))
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
        assert is_global(cone.bound_supports)
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
                  [rec.cut.key() for rec in r.cut_log]) for r in solves],
                [(m.status, m.x, m.objective, m.nodes, m.propagated) for m in milps])

    before = run()
    assert sum(m[3] for m in before[1]) > len(queries)     # the MILPs branch
    _nan_objectives(monkeypatch)
    assert run() == before


@pytest.mark.parametrize("seed, cfg", [
    (19, SolverConfig()),
    (12, SolverConfig(oracle=LS2)),
    (13, SolverConfig(branching=Branching.LINKING_PRIORITY, use_isic=True)),
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

    def checked_find(inst, point, depth, ocfg):
        assert inst.is_integral(point) or last == [True]
        return find(inst, point, depth, ocfg)

    def checked_refute(point):
        assert last == [False] and solver.inst.is_integral(point)
        return refute(point)

    monkeypatch.setattr(solver, "_can_cut", recording_can_cut)
    monkeypatch.setattr(oracle, "find_improving_direction", checked_find)
    monkeypatch.setattr(solver.directions, "refute", checked_refute)
    res = solver.run()
    assert res.status is SolveStatus.OPTIMAL
    assert res.stats.oracle_skipped > 0 and res.stats.pool_refutations > 0


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
    (SolverConfig(time_limit=600.0, oracle=OracleConfig(time_limit=5.0)), 5.0),
    (SolverConfig(time_limit=600.0, oracle=LS2), 600.0),
    (SolverConfig(time_limit=600.0, oracle_mode=OracleMode.LEGACY), 600.0),
    (SolverConfig(), None),
])
def test_direction_search_held_to_the_deadline(monkeypatch, cfg, cap):
    """Every direction MILP, and in legacy mode every MILP the solve runs,
    value-function MILPs included, gets the time left in the solve, or the
    oracle's own limit when that is smaller; with no solve limit nothing
    changes."""
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

    def recording_milp(problem, node_limit=None, time_limit=None):
        if inside or cfg.oracle_mode is OracleMode.LEGACY:
            limits.append(time_limit)
        return solve_milp(problem, node_limit=node_limit, time_limit=time_limit)

    monkeypatch.setattr(solver, "_oracle", tracked_oracle)
    monkeypatch.setattr(milp, "solve_milp", recording_milp)
    assert solver.run().status is SolveStatus.OPTIMAL
    assert limits
    if cap is None:
        assert all(t is None for t in limits)
    else:
        assert all(t is not None and t <= cap for t in limits)


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
    # family 3 3 2 5 10 pools cuts with coefficients up to ~2.5e11; with
    # those rows scaled by powers of two every "infeasible" the dual loop
    # reaches carries a certificate, so no node pays a retry and a branch
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


@pytest.mark.parametrize("family, seeds", [((2, 3, 2, 4, 4), range(2, 32)),
                                           ((3, 3, 2, 5, 3), range(2, 12))])
def test_propagated_trees_match_enumeration(family, seeds):
    """Node propagation keeps every answer, under the exact direction MILP
    and under local search of radius 2, and closes boxes on the way."""
    n1, n2, m1, m2, bound = family
    propagated = 0
    for seed in seeds:
        inst = generate_random_instance(seed, n1, n2, m1, m2, bound=bound)
        best = optimal_by_enumeration(inst)
        for cfg in (SolverConfig(), SolverConfig(oracle=LS2)):
            res = solve(inst, cfg)
            if best is None:
                assert res.status is SolveStatus.INFEASIBLE, inst.name
            else:
                assert res.status is SolveStatus.OPTIMAL, inst.name
                assert res.value == best[1], inst.name
            propagated += res.stats.propagated
    assert propagated > 0


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
    monkeypatch.setattr(oracle, "evaluate_phi", own_bounds(oracle.evaluate_phi))
    solver = BranchAndCut(inst, cfg)
    res = solver.run()
    assert res.stats.propagated > 0
    assert solver.root_upper[inst.n1:] == [4, 6, 2]     # the follower box, tightened
    assert ("evaluate_phi" if cfg.oracle_mode is OracleMode.LEGACY else "step_image") in seen
    assert inst.lower == lower and inst.upper == upper


def test_node_limit(moore_bard):
    res = solve(moore_bard, SolverConfig(node_limit=1))
    assert res.status is SolveStatus.LIMIT_REACHED
    assert res.bound <= -22 + 1e-9
    res = solve(moore_bard, SolverConfig(time_limit=0.0))
    assert res.status is SolveStatus.LIMIT_REACHED
    assert res.stats.nodes == 0


def test_limit_bound_counts_nodes_whose_lp_failed(monkeypatch):
    """The root's LP fails twice, so its children carry bound -inf; a limit
    reached before they are bounded leaves -inf as the proven bound, where
    the queue's finite keys alone would claim -76 above the optimum -78."""
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


# corpus-family seeds with a continuous leader that stalled before a proven,
# fully fixed integer box was pruned whatever its continuous leaders
MIXED_STALLED = (5, 10, 11, 13, 14, 18, 19, 27, 29, 33, 36)


@pytest.mark.parametrize("seed", MIXED_STALLED)
def test_fixed_integer_box_closes_whatever_its_continuous_leaders(seed):
    inst = mixed_leader_instance(seed)
    assert not inst.is_pure_integer()
    res = solve(inst, SolverConfig(trace=True))
    assert not any(line.endswith("stalled") for line in res.trace)
    value = mixed_bilevel_optimum(inst)
    if value is None:
        assert res.status is SolveStatus.INFEASIBLE
    else:
        assert res.status is SolveStatus.OPTIMAL and res.value == value
        assert inst.in_relaxation(res.incumbent)


def test_cut_log(moore_bard):
    res = solve(moore_bard, SolverConfig(use_isic=True))
    assert res.status is SolveStatus.OPTIMAL
    assert len(res.cut_log) == res.stats.cuts_idic + res.stats.cuts_isic
    assert res.cut_log
    keys = [rec.cut.key() for rec in res.cut_log]
    assert len(keys) == len(set(keys))
    f_points = enumerate_F(moore_bard)
    for rec in res.cut_log:
        src = Point(tuple(rec.vertex[:moore_bard.n1]),
                    tuple(rec.vertex[moore_bard.n1:]))
        assert cut_violation(rec.cut, src) > 0
        assert rec.free_set.strictly_contains(src)
        # pooled rows must survive the float image used by the node LPs
        assert all(abs(c) <= 1e12 for c in rec.cut.row() + [rec.cut.beta])
        for p in f_points:
            assert cut_violation(rec.cut, p) <= 0


def test_cut_rounds_disabled(moore_bard, monkeypatch):
    monkeypatch.setattr(bnc, "MAX_CUT_ROUNDS", 0)
    res = solve(moore_bard, SolverConfig())
    assert res.status is SolveStatus.OPTIMAL
    assert res.value == -22
    assert res.stats.cut_rounds == 0 and res.cut_log == ()


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
            if len(lps) == 5:
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
    assert len(lps) > 5
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


def test_choose_branch_variable_fractional(moore_bard):
    node = node_stub([0, 0], [8, 5])
    pick = choose_branch_variable(
        moore_bard, Point.make((Fraction(3, 2),), (Fraction(7, 3),)),
        node, Branching.FRACTIONAL)
    assert pick == (0, Fraction(3, 2))
    pick = choose_branch_variable(
        moore_bard, Point.make((Fraction(3, 2),), (Fraction(5, 2),)),
        node, Branching.FRACTIONAL)
    assert pick == (0, Fraction(3, 2))          # tie goes to the lower index
    pick = choose_branch_variable(
        moore_bard, Point.make((2,), (4,)), node, Branching.FRACTIONAL)
    assert pick == (0, Fraction(2))             # integral: lowest unfixed
    pick = choose_branch_variable(
        moore_bard, Point.make((2,), (4,)),
        node_stub([2, 0], [2, 5]), Branching.FRACTIONAL)
    assert pick == (1, Fraction(4))
    assert choose_branch_variable(
        moore_bard, Point.make((2,), (4,)),
        node_stub([2, 4], [2, 4]), Branching.FRACTIONAL) is None


def test_choose_branch_variable_linking(moore_bard):
    node = node_stub([0, 0], [8, 5])
    pick = choose_branch_variable(
        moore_bard, Point.make((2,), (Fraction(5, 2),)),
        node, Branching.LINKING_PRIORITY)
    assert pick == (0, Fraction(2))             # linking beats fractionality
    pick = choose_branch_variable(
        moore_bard, Point.make((2,), (Fraction(5, 2),)),
        node_stub([2, 0], [2, 5]), Branching.LINKING_PRIORITY)
    assert pick == (1, Fraction(5, 2))          # linking fixed: fall back


@pytest.mark.parametrize("fail", ["unstable LP", "no exact vertex"])
def test_numerical_failure_requeues_then_splits_at_the_midpoint(three_d, monkeypatch, fail):
    """The root's LP fails twice: the first failure requeues the node, the
    second branches at the midpoint of its first unfixed integer variable,
    as no vertex names one, and the solve still ends at the optimum."""
    failed = []
    if fail == "unstable LP":
        target, name = simplex.solve_lp, "solve_lp"
        result = simplex.LpSolution(simplex.LpStatus.UNSTABLE)
    else:
        target, name, result = simplex.exact_primal, "exact_primal", None

    def failing(*args):
        if len(failed) < 2:         # the first two calls are the root's
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
    assert len(failed) == 2
    assert res.trace[0].startswith("node 0 depth 0 ") and res.trace[0].endswith(" requeued")
    assert res.trace[1].startswith("node 0 depth 0 ") and res.trace[1].endswith(" branched on 0")
    lo, hi = three_d.lower[0], three_d.upper[0]
    mid = lo + (hi - lo) // 2
    assert lo < hi
    assert boxes[1][1][0] == mid and boxes[2][0][0] == mid + 1
    point, value = optimal_by_enumeration(three_d)
    assert res.status is SolveStatus.OPTIMAL
    assert res.value == value and res.incumbent == point
