"""End-to-end acceptance suite: one pass/fail line per shipped guarantee.

Each test pins an externally visible behavior of the package: the reference
instances solve to their known optima under every solver configuration, the
level-set machinery reproduces hand-checked sets exactly, oracle answers
agree with brute-force enumeration on a 200-instance generated corpus,
generated cuts never touch enumerated feasible points, the subsolvers match
independent reference implementations, and the benchmark harness produces
well-formed profile data at desk scale.  Numeric tolerances and time budgets
appear literally in the assertions so the whole contract is readable in this
one file.
"""
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import lp_vertex_optimum, milp_grid_optimum, random_lp, random_milp
from miblp import bruteforce, kopt
from miblp.bench import (RunRecord, baseline_profile, cumulative_profile,
                         performance_profile, read_records, run_matrix,
                         write_profile_data)
from miblp.bnc import OracleMode, SolveStatus, SolverConfig, solve
from miblp.cuts import cut_violation
from miblp.instance import GenerationError, Point, dot, generate_random_instance
from miblp.milp import MilpProblem, MilpStatus, solve_milp
from miblp.oracle import (DirectionMethod, OracleConfig, OutcomeKind,
                          build_k_id_milp, certify_bilevel_feasible,
                          legacy_feasibility_check, local_search_neighbors)
from miblp.simplex import LpStatus, solve_lp


# -- shared generated corpus --------------------------------------------------

@dataclass
class SuiteEntry:
    inst: object
    ctx: object
    S: set                  # integer points of the relaxation
    F: set                  # bilevel feasible points, by enumeration
    fk_cache: dict = field(default_factory=dict)
    cert_cache: dict = field(default_factory=dict)


@dataclass
class Suite:
    entries: list
    build_seconds: float


def _fk(entry: SuiteEntry, k: int) -> set:
    got = entry.fk_cache.get(k)
    if got is None:
        got = kopt.enumerate_Fk(entry.ctx, k)
        entry.fk_cache[k] = got
    return got


def _certified(entry: SuiteEntry, point: Point) -> bool:
    got = entry.cert_cache.get(point)
    if got is None:
        got = certify_bilevel_feasible(entry.inst, point)
        entry.cert_cache[point] = got
    return got


def _draw_small_instance(seed: int):
    """One deterministic draw; shapes keep every grid enumerable in ms."""
    rng = random.Random(seed)
    while True:
        n1, n2 = rng.choice((1, 2)), rng.choice((1, 2, 3))
        m1, m2 = rng.choice((1, 2)), rng.randint(1, 4)
        bound = rng.randint(2, 5)
        if (bound + 1) ** (n1 + n2) <= 1500 and (bound + 1) ** n2 <= 80:
            return generate_random_instance(rng.randrange(2 ** 30),
                                            n1, n2, m1, m2, bound=bound)


@pytest.fixture(scope="session")
def suite200():
    """200 deterministic pure-integer instances with a nonempty integer
    relaxation; enumeration artifacts are cached once and shared by the
    agreement, cut, hierarchy, and search tests."""
    t0 = time.perf_counter()
    entries = []
    seed = 0
    while len(entries) < 200:
        seed += 1
        try:
            inst = _draw_small_instance(seed)
        except GenerationError:
            continue
        s_points = bruteforce.enumerate_S(inst)
        if not s_points:
            continue
        entries.append(SuiteEntry(inst=inst, ctx=kopt.make_context(inst),
                                  S=s_points, F=bruteforce.enumerate_F(inst)))
    return Suite(entries, time.perf_counter() - t0)


# -- criteria -----------------------------------------------------------------

DIRECTION_METHODS = (
    ("exact-milp", OracleConfig(method=DirectionMethod.EXACT_MILP)),
    ("exact-milp-k2", OracleConfig(method=DirectionMethod.EXACT_MILP_K, k=2)),
    ("local-search-early", OracleConfig(method=DirectionMethod.LOCAL_SEARCH,
                                        k=2, depth_lb=0, depth_ub=10)),
    ("local-search-late", OracleConfig(method=DirectionMethod.LOCAL_SEARCH,
                                       k=2, depth_lb=10, depth_ub=math.inf)),
)


def test_criterion_1_reference_instance_solves_under_all_16_configurations(moore_bard):
    truth = bruteforce.optimal_by_enumeration(moore_bard)
    assert truth == (Point.make((2,), (2,)), Fraction(-22))
    for mode in (OracleMode.IMPROVING_DIRECTION, OracleMode.LEGACY):
        for method_name, oracle_cfg in DIRECTION_METHODS:
            for use_isic in (False, True):
                cfg = SolverConfig(oracle_mode=mode, oracle=oracle_cfg,
                                   use_isic=use_isic)
                t0 = time.perf_counter()
                res = solve(moore_bard, cfg)
                elapsed = time.perf_counter() - t0
                label = f"{mode.value}/{method_name}/{'idic+isic' if use_isic else 'idic'}"
                assert res.status is SolveStatus.OPTIMAL, label
                assert res.incumbent == truth[0], label
                assert res.value == Fraction(-22), label
                assert res.stats.nodes < 100, label
                assert elapsed < 1.0, label


def test_criterion_2_three_variable_example_level_sets_match_exactly(three_d):
    t0 = time.perf_counter()
    ctx = kopt.make_context(three_d)
    x = (Fraction(1),)
    best = kopt.reaction_set(ctx, x)

    def extra(k):
        return {tuple(int(v) for v in y)
                for y in kopt.reaction_set_k(ctx, x, k) - best}

    assert extra(1) == {(3, 2), (7, 3), (2, 2), (1, 2)}
    assert extra(2) == {(2, 2), (1, 2)}
    assert extra(3) == {(1, 2)}
    feasible = bruteforce.enumerate_F(three_d)
    outlier = Point.make((3,), (4, 1))
    assert kopt.enumerate_Fk(ctx, 4) == feasible | {outlier}
    assert kopt.min_ifd_norm(ctx, outlier) == 5
    assert kopt.minimal_ifds(ctx, outlier) == [(Fraction(4), Fraction(-1))]
    for k in range(5, ctx.k_bar + 3):
        assert kopt.enumerate_Fk(ctx, k) == feasible
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3_oracle_value_function_and_enumeration_agree_on_200_instances(suite200):
    t0 = time.perf_counter()
    assert len(suite200.entries) == 200
    mismatches = []
    for idx, entry in enumerate(suite200.entries):
        inst, ctx = entry.inst, entry.ctx
        radii = sorted({1, 2, 3, ctx.k_bar})
        for point in sorted(entry.S, key=lambda p: p.joint()):
            cert = _certified(entry, point)
            legacy = legacy_feasibility_check(inst, point)
            member = point in entry.F
            if not (cert == legacy == member):
                mismatches.append(("feasibility", idx, point.joint(),
                                   cert, legacy, member))
            norm = kopt.min_ifd_norm(ctx, point)
            for k in radii:
                # a feasibility question: no objective
                search_found = solve_milp(build_k_id_milp(inst, point, k, None)).x is not None
                within_k = norm is not None and norm <= k
                outside_fk = point not in _fk(entry, k)
                if not (search_found == within_k == outside_fk):
                    mismatches.append(("radius", idx, point.joint(), k,
                                       search_found, within_k, outside_fk))
    assert mismatches == [], mismatches[:10]
    assert suite200.build_seconds + time.perf_counter() - t0 < 600.0


def _cut_harvest_configs():
    exact = SolverConfig(oracle_mode=OracleMode.IMPROVING_DIRECTION,
                         oracle=OracleConfig(method=DirectionMethod.EXACT_MILP),
                         use_idic=True, use_isic=True)
    local = SolverConfig(oracle_mode=OracleMode.IMPROVING_DIRECTION,
                         oracle=OracleConfig(method=DirectionMethod.LOCAL_SEARCH,
                                             k=2))
    return exact, local


def test_criterion_4_every_generated_cut_is_valid_and_free_sets_exclude_feasible_points(suite200):
    min_source_violation = Fraction(1, 10 ** 7)
    cuts_seen = 0
    direction_sets = 0
    violations = []
    for idx, entry in enumerate(suite200.entries):
        pooled = []
        for cfg in _cut_harvest_configs():
            pooled.extend(solve(entry.inst, cfg).cut_log)
        cuts_seen += len(pooled)
        for cut in pooled:
            for point in entry.F:
                if cut_violation(cut, point) > 0:
                    violations.append(("cuts-off-feasible", idx, cut.key(),
                                       point.joint()))
            source_violation = cut.beta - dot(cut.row(), cut.vertex)
            if source_violation < min_source_violation:
                violations.append(("weak-at-source", idx, cut.key()))
            kind, payload = cut.free_set.origin
            if kind != "direction":
                continue
            direction_sets += 1
            w_norm = sum(abs(v) for v in payload)
            for k in (1, 2, 3):
                if w_norm > k:
                    continue
                for point in _fk(entry, k):
                    if cut.free_set.strictly_contains(point):
                        violations.append(("feasible-point-interior", idx, k,
                                           cut.key(), point.joint()))
    assert violations == [], violations[:10]
    assert cuts_seen > 0 and direction_sets > 0


def test_criterion_5_level_set_hierarchy_descends_from_relaxation_to_feasible_set(suite200):
    for idx, entry in enumerate(suite200.entries):
        previous = None
        for k in range(entry.ctx.k_bar + 1):
            current = _fk(entry, k)
            if k == 0:
                assert current == entry.S, idx
            else:
                assert current <= previous, (idx, k)
            previous = current
        assert previous == entry.F, idx


def test_criterion_6_full_radius_local_search_matches_exact_search(suite200):
    for idx, entry in enumerate(suite200.entries):
        # zero-width follower boxes admit no integer step at all, so radius 1
        # asks the same question as radius 0 and keeps the search well-formed
        radius = max(1, entry.ctx.k_bar)
        for point in entry.S:
            outcome = local_search_neighbors(entry.inst, radius, point)
            found = outcome.kind is OutcomeKind.FOUND
            assert found == (not _certified(entry, point)), (idx, point.joint())


def test_criterion_7_subsolvers_match_independent_references_on_500_problems():
    rng = random.Random(416923)
    for trial in range(250):
        problem = random_lp(rng)
        status, value, _ = lp_vertex_optimum(problem)
        sol = solve_lp(problem)
        if status == "infeasible":
            assert sol.status is LpStatus.INFEASIBLE, trial
        else:
            assert sol.status is LpStatus.OPTIMAL, trial
            assert abs(sol.objective - float(value)) <= 1e-7, trial
    for trial in range(250):
        problem, integer_indices = random_milp(rng)
        status, value, _ = milp_grid_optimum(problem, integer_indices)
        sol = solve_milp(MilpProblem(problem, integer_indices))
        if status == "infeasible":
            assert sol.status is MilpStatus.INFEASIBLE, trial
        else:
            assert sol.status is MilpStatus.OPTIMAL, trial
            assert sol.objective == value, trial


def test_criterion_8_profile_curves_match_hand_computed_fixture():
    def rec(instance, config, status="Optimal", wall=1.0, gap=0.0):
        return RunRecord(instance=instance, config=config, status=status,
                         wall_s=wall, cpu_s=wall, nodes=3, ifd_total_s=0.1,
                         ifd_avg_s=0.01, gap=gap)

    records = [rec("i1", "A", wall=1.0), rec("i1", "B", wall=2.0),
               rec("i2", "A", wall=4.0), rec("i2", "B", wall=2.0),
               rec("i3", "B", wall=1.0)]          # A has no record on i3
    perf = performance_profile(records, "wall_s", time_filter=0.0)
    assert perf.n_instances == 3
    # ratios to the per-instance best: i1 A 1, B 2; i2 A 2, B 1; i3 B 1,
    # A censored
    assert perf.curves["A"] == ((1.0, 1 / 3), (2.0, 2 / 3))
    assert perf.curves["B"] == ((1.0, 2 / 3), (2.0, 1.0))
    assert perf.censored == {"A": 1, "B": 0}
    base = baseline_profile(records, "wall_s", baseline="B", time_filter=0.0)
    assert base.curves["A"] == ((0.5, 1 / 3), (2.0, 2 / 3))
    assert base.curves["B"] == ((1.0, 1.0),)
    assert base.censored["A"] == 1
    assert base.annotations == {"A": {"better": 1 / 3, "worse": 2 / 3}}
    cum = cumulative_profile(records)
    assert cum.curves["A.time"] == ((1.0, 1 / 3), (4.0, 2 / 3))
    assert cum.curves["B.time"] == ((1.0, 1 / 3), (2.0, 1.0))
    assert cum.curves["A.gap"] == ((0.0, 2 / 3),)
    assert cum.curves["B.gap"] == ((0.0, 1.0),)
    for table in (perf, base, cum):
        for curve in table.curves.values():
            fractions = [f for _, f in curve]
            assert fractions == sorted(fractions)
            assert all(0.0 <= f <= 1.0 for f in fractions)


def test_criterion_9_bench_harness_completes_desk_scale_matrix_with_well_formed_profiles(tmp_path):
    t0 = time.perf_counter()
    instances = []
    seed = 9000
    while len(instances) < 30:
        seed += 1
        try:
            inst = generate_random_instance(seed, 2, 2, 2, 3, bound=4)
        except GenerationError:
            continue
        instances.append((f"gen{seed}", inst))
    presets = (
        ("id-milp", OracleMode.IMPROVING_DIRECTION,
         OracleConfig(method=DirectionMethod.EXACT_MILP)),
        ("id-milp-k2", OracleMode.IMPROVING_DIRECTION,
         OracleConfig(method=DirectionMethod.EXACT_MILP_K, k=2)),
        ("id-ls-k2", OracleMode.IMPROVING_DIRECTION,
         OracleConfig(method=DirectionMethod.LOCAL_SEARCH, k=2)),
        ("legacy", OracleMode.LEGACY,
         OracleConfig(method=DirectionMethod.EXACT_MILP)),
    )
    configurations = [(name, SolverConfig(oracle_mode=mode, oracle=oracle_cfg))
                      for name, mode, oracle_cfg in presets]
    csv_path = tmp_path / "matrix.csv"
    records = run_matrix(instances, configurations, csv_path=csv_path)
    assert len(records) == 120
    assert len(read_records(csv_path)) == 120
    assert {r.status for r in records} <= {"Optimal", "Infeasible",
                                           "LimitReached", "Error"}
    assert all(r.wall_s >= 0.0 and r.nodes >= 0 for r in records)
    # desk-scale runs say nothing about which configuration is faster, so no
    # performance ordering is asserted here, only output well-formedness
    tables = (performance_profile(records, "wall_s", time_filter=0.0),
              baseline_profile(records, "wall_s", "id-milp", time_filter=0.0),
              cumulative_profile(records))
    written = []
    for prefix, table in zip(("perf", "base", "cum"), tables):
        written.extend(write_profile_data(table, tmp_path, prefix=prefix))
    assert len(written) == len(set(written)) >= 4 + 3 + 8
    for path in written:
        lines = Path(path).read_text().splitlines()
        assert lines[0].startswith("# measure=")
        data = [line.split() for line in lines if not line.startswith("#")]
        assert all(len(row) == 2 for row in data)
        fractions = [float(b) for _, b in data]
        assert fractions == sorted(fractions)
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert all(math.isfinite(float(a)) for a, _ in data)
    assert time.perf_counter() - t0 < 1800.0
