"""The benchmark's reference, its checks, its corpus and its tracing.

Run with ``python3 -m pytest bench/tests``.
"""
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

import corpus
import reference
import run
import tracing
from miblp import bnc, kopt, simplex
from miblp.bruteforce import enumerate_F, optimal_by_enumeration, phi_by_enumeration
from miblp.instance import Point, generate_random_instance, parse_instance
from miblp.oracle import Direction, OracleConfig, OracleOutcome, find_improving_direction

DATA = Path(__file__).resolve().parents[2] / "tests" / "data"


def load(name):
    return parse_instance((DATA / f"{name}.miblp").read_text(), name=name)


SMALL = [generate_random_instance(s, 1, 2, 1, 3, bound=4) for s in range(8)] + \
        [generate_random_instance(s, 2, 2, 1, 3, bound=3) for s in range(4)]


@pytest.mark.parametrize("inst", SMALL, ids=lambda i: i.name)
def test_agrees_with_bruteforce(inst):
    ref = reference.Enumeration(inst)
    brute = optimal_by_enumeration(inst)
    opt = ref.optimum()
    if brute is None:
        assert opt is None
    else:
        point, value = brute
        assert opt[0] == value
        assert ref.in_F(point.x, point.y)
    assert set(ref.points("F")) == {(tuple(int(v) for v in p.x), tuple(int(v) for v in p.y))
                                    for p in enumerate_F(inst)}
    for x in itertools.product(*(range(int(inst.lower[j]), int(inst.upper[j]) + 1)
                                 for j in range(inst.n1))):
        assert ref.phi(x) == phi_by_enumeration(inst, tuple(Fraction(v) for v in x))


def test_known_optima():
    assert reference.Enumeration(load("moore_bard")).optimum() == (-22, (2,), (2,))
    assert reference.Enumeration(load("three_d")).optimum() == (-21, (2,), (7, 1))


# -- the checks fail on bad outputs ------------------------------------------


@pytest.fixture(scope="module")
def three_d():
    inst = load("three_d")
    return inst, reference.Enumeration(inst)


def _steps(ref, x, y, radius=4):
    """(w, feasible, gain, norm) for every integer w with |w|_1 <= radius."""
    out = []
    for w in itertools.product(range(-radius, radius + 1), repeat=ref.n2):
        norm = sum(abs(v) for v in w)
        if 0 < norm <= radius:
            gain = -sum(int(d) * v for d, v in zip(ref.d2, w))
            out.append((w, ref.step_is_feasible(x, y, w), gain, norm))
    return out


def _infeasible_point(ref):
    """A point of S minus F with a nontrivial set of candidate steps."""
    for x, y in ref.points("S"):
        if not ref.in_F(x, y):
            return x, y
    raise AssertionError("no infeasible point")


def test_solve_check_accepts_the_optimum(three_d):
    _, ref = three_d
    assert reference.check_solve(ref, "optimal", -21, (2,), (7, 1)) is None
    assert reference.check_solve(ref, "optimal", Fraction(-21), (Fraction(2),),
                                 (Fraction(7), Fraction(1))) is None


def test_solve_check_rejects_bad_outputs(three_d):
    _, ref = three_d
    value, x, y = ref.optimum()
    outside = next(p for p in ref.points("S") if not ref.in_F(*p))
    bad = [
        ("optimal", value + 1, x, y),                 # wrong optimal value
        ("optimal", value, *outside),                 # incumbent outside F
        ("infeasible", None, None, None),             # F is not empty
        ("limit reached", value, x, y),
    ]
    for status, v, bx, by in bad:
        assert reference.check_solve(ref, status, v, bx, by) is not None


def test_direction_check_rejects_bad_outputs(three_d):
    _, ref = three_d
    x, y = _infeasible_point(ref)
    best = ref.min_step_norm(x, y)
    assert best is not None
    steps = _steps(ref, x, y)
    leaves_box = tuple(-(v + 1) if i == 0 else 0 for i, v in enumerate(y))
    leaves_rows = next(w for w, ok, gain, _ in steps
                       if not ok and all(lo <= a + b <= hi for a, b, lo, hi in
                                         zip(y, w, ref.y_lo, ref.y_hi)))
    weak = next(w for w, ok, gain, _ in steps if ok and gain < 1)
    longer = next(w for w, ok, gain, norm in steps if ok and gain >= 1 and norm > best)
    shortest = next(w for w, ok, gain, norm in steps if ok and gain >= 1 and norm == best)
    assert reference.check_direction(ref, x, y, "found", shortest) is None
    for w in (leaves_box, leaves_rows, weak, longer):
        assert reference.check_direction(ref, x, y, "found", w) is not None
    assert reference.check_direction(ref, x, y, "found", (Fraction(1, 2), 0)) is not None
    assert reference.check_direction(ref, x, y, "none") is not None
    assert reference.check_direction(ref, x, y, "heuristic exhausted") is not None


def test_direction_check_accepts_the_oracle_and_certificates(three_d):
    inst, ref = three_d
    for x, y in ref.points("S")[:40]:
        out = find_improving_direction(inst, Point.make(x, y), 0, OracleConfig())
        kind = run.QueryWorkload.OUTCOMES[out.kind.name]
        w = out.direction.w if out.direction else None
        assert reference.check_direction(ref, x, y, kind, w) is None


class _Canned:
    """Replays fixed outputs in place of solver calls; op[-1] indexes them."""

    def __init__(self, ops, outputs):
        self.ops, self.outputs = ops, outputs

    def call(self, op):
        return self.outputs[op[-1]]


class _CannedSolves(_Canned, run.SolveWorkload):
    pass


class _CannedQueries(_Canned, run.QueryWorkload):
    pass


def test_benchmark_counts_each_bad_output_as_failed(three_d):
    inst, ref = three_d
    value, x, y = ref.optimum()
    outside = next(p for p in ref.points("S") if not ref.in_F(*p))

    def result(status, v, point):
        return bnc.SolveResult(status, point, v, 0.0, 0.0, bnc.SolveStats())

    solves = [
        result(bnc.SolveStatus.OPTIMAL, Fraction(value), Point.make(x, y)),        # good
        result(bnc.SolveStatus.OPTIMAL, Fraction(value + 1), Point.make(x, y)),
        result(bnc.SolveStatus.OPTIMAL, Fraction(value), Point.make(*outside)),
        result(bnc.SolveStatus.INFEASIBLE, None, None),
    ]
    work = _CannedSolves([(inst, ref, i) for i in range(len(solves))], solves)
    _, failures, _ = run.run_pass(work, range(len(solves)))
    assert sorted(i for i, _ in failures) == [1, 2, 3]

    px, py = _infeasible_point(ref)
    best = ref.min_step_norm(px, py)
    steps = _steps(ref, px, py)
    chosen = [
        next(w for w, ok, gain, norm in steps if ok and gain >= 1 and norm == best),  # good
        tuple(-(v + 1) if i == 0 else 0 for i, v in enumerate(py)),                   # box
        next(w for w, ok, gain, _ in steps
             if not ok and all(lo <= a + b <= hi for a, b, lo, hi in
                               zip(py, w, ref.y_lo, ref.y_hi))),                      # rows
        next(w for w, ok, gain, _ in steps if ok and gain < 1),                       # weak
        next(w for w, ok, gain, norm in steps if ok and gain >= 1 and norm > best),   # long
    ]
    outcomes = [OracleOutcome.found(Direction.from_w(inst, w)) for w in chosen]
    outcomes.append(OracleOutcome.no_direction())
    point = Point.make(px, py)
    work = _CannedQueries([(inst, ref, point, i) for i in range(len(outcomes))], outcomes)
    _, failures, _ = run.run_pass(work, range(len(outcomes)))
    assert sorted(i for i, _ in failures) == [1, 2, 3, 4, 5]


# -- corpus ------------------------------------------------------------------


def test_corpus_follows_its_rule():
    selected = []
    for seed in corpus.SEED_RANGE:
        ref = reference.Enumeration(corpus.generate(seed))
        if ref.S.any() and seed not in corpus.LEFT_OUT and seed not in corpus.HEAVY:
            selected.append(seed)
    assert tuple(selected) == corpus.CORPUS_SEEDS


def test_query_sample_mixes_feasible_and_infeasible_points():
    feasible = infeasible = 0
    for seed in corpus.CORPUS_SEEDS:
        ref = reference.Enumeration(corpus.generate(seed))
        points = corpus.sample_points(seed, ref)
        assert points == corpus.sample_points(seed, ref)
        for p in points:
            assert ref.in_S(*p)
            if ref.in_F(*p):
                feasible += 1
            else:
                infeasible += 1
    assert feasible > 0 and infeasible > 0
    assert feasible + infeasible >= 1000     # p99 keeps at least ten samples beyond it


# -- tracing -----------------------------------------------------------------


def test_patched_wraps_every_binding_and_restores():
    original = simplex.solve_lp
    tracer = tracing.Tracer()
    wrapper = tracer.wrap("simplex.solve_lp", original)
    with tracing.patched({original: wrapper}):
        assert simplex.solve_lp is wrapper
        assert kopt.solve_lp is wrapper          # bound by name in kopt
    assert simplex.solve_lp is original and kopt.solve_lp is original


def test_self_times_partition_the_root_span():
    inst = load("moore_bard")
    tracer = tracing.Tracer()
    with tracing.patched(run.layer_wrappers(tracer)):
        with tracer.span("root"):
            bnc.solve(inst, bnc.SolverConfig())
    assert tracer.calls["simplex.solve_lp"] > 0
    assert tracer.calls["milp.solve_milp"] > 0
    assert sum(tracer.self_time.values()) == pytest.approx(tracer.total["root"], rel=1e-9)
