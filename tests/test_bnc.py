from fractions import Fraction
from types import SimpleNamespace

import pytest

from miblp import milp, simplex
from miblp.bnc import (BranchAndCut, Branching, OracleMode, SolveStatus, SolverConfig,
                       choose_branch_variable, solve)
from miblp.bruteforce import enumerate_F, optimal_by_enumeration
from miblp.cuts import cut_violation
from miblp.instance import Point, generate_random_instance, parse_instance
from miblp.oracle import DirectionMethod, OracleConfig

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
    (12, SolverConfig(), (79, 2, 1)),
    (19, SolverConfig(), (79, 4, 2)),
    (19, SolverConfig(oracle=LS2), (19, 3, 2)),
])
def test_rays_only_for_global_cones(monkeypatch, seed, cfg, counts):
    """A cone's rays are computed only right after its bound supports pass
    the globality test, and the (nodes, cuts, certificates) counts are those
    of the driver that built every cone before testing it."""
    solver = BranchAndCut(generate_random_instance(seed, 2, 3, 2, 4, bound=8), cfg)
    events = []
    is_global, extract = solver._cone_is_global, simplex.extract_cone

    def checked_is_global(bound_supports):
        events.append(is_global(bound_supports))
        return events[-1]

    def checked_extract(prob, sol):
        assert events and events[-1] is True
        cone = extract(prob, sol)
        assert is_global(cone.bound_supports)
        events.append("cone")
        return cone

    monkeypatch.setattr(solver, "_cone_is_global", checked_is_global)
    monkeypatch.setattr(simplex, "extract_cone", checked_extract)
    res = solver.run()
    assert (res.stats.nodes, res.stats.cuts_idic, res.stats.certificates) == counts
    assert events.count("cone") == events.count(True) > 0
    assert events.count(False) > 0


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


def test_node_limit(moore_bard):
    res = solve(moore_bard, SolverConfig(node_limit=1))
    assert res.status is SolveStatus.LIMIT_REACHED
    assert res.bound <= -22 + 1e-9
    res = solve(moore_bard, SolverConfig(time_limit=0.0))
    assert res.status is SolveStatus.LIMIT_REACHED
    assert res.stats.nodes == 0


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


def test_cut_rounds_disabled(moore_bard):
    res = solve(moore_bard, SolverConfig(max_cut_rounds=0))
    assert res.status is SolveStatus.OPTIMAL
    assert res.value == -22
    assert res.stats.cut_rounds == 0 and res.cut_log == ()


def test_inconclusive_oracle_stalls_soundly(moore_bard):
    cfg = SolverConfig(oracle=OracleConfig(node_limit=0))
    res = solve(moore_bard, cfg)
    assert res.status is SolveStatus.LIMIT_REACHED
    assert res.incumbent is None


def test_subsolver_failure_costs_one_node(three_d, monkeypatch):
    """An UNSTABLE LP inside a direction-search MILP makes that query
    inconclusive; the driver branches and still proves the optimum."""
    solve_lp, solve_milp = simplex.solve_lp, milp.solve_milp
    inside, lps = [], []

    def failing_lp(problem):
        if inside:
            lps.append(problem)
            if len(lps) == 5:
                return simplex.LpSolution(simplex.LpStatus.UNSTABLE)
        return solve_lp(problem)

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
