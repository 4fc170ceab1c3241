import random
import time
from fractions import Fraction

import pytest

from helpers import milp_grid_optimum, mixed_grid_optimum, random_milp
from miblp import simplex
from miblp.milp import MilpProblem, MilpStatus, propagate, propagation_rows, solve_milp
from miblp.simplex import LpProblem


@pytest.fixture
def lp_boxes(monkeypatch):
    """Records the (lower, upper) box of every LP the MILP solves."""
    boxes = []
    solve_lp = simplex.solve_lp

    def spy(problem, start=None):
        boxes.append((list(problem.lower), list(problem.upper)))
        return solve_lp(problem, start)

    monkeypatch.setattr(simplex, "solve_lp", spy)
    return boxes


def test_simple_rounding_gap():
    # LP optimum x = 1/3, integer optimum x = 1
    prob = MilpProblem(LpProblem([1], [[3]], [1], [0], [5]), (0,))
    sol = solve_milp(prob)
    assert sol.status is MilpStatus.OPTIMAL
    assert tuple(sol.x) == (1,) and sol.objective == 1


def test_moore_bard_relaxation_integer_optimum(moore_bard):
    rows = [list(co) for co, _ in moore_bard.all_rows()]
    rhs = [b for _, b in moore_bard.all_rows()]
    lp = LpProblem([-1, -10], rows, rhs, list(moore_bard.lower),
                   list(moore_bard.upper))
    sol = solve_milp(MilpProblem(lp, (0, 1)))
    assert sol.status is MilpStatus.OPTIMAL
    assert sol.objective == -42 and tuple(sol.x) == (2, 4)


def test_infeasible():
    prob = MilpProblem(LpProblem([1], [[2]], [3], [0], [1]), (0,))
    # 2x >= 3 forces x = 3/2; no integer in [0, 1] works
    assert solve_milp(prob).status is MilpStatus.INFEASIBLE


def test_mixed_integrality():
    # y continuous, so the optimum sits at fractional y = 3/2 with x = 0
    lp = LpProblem([2, 1], [[2, 2]], [3], [0, 0], [5, 5])
    sol = solve_milp(MilpProblem(lp, (0,)))
    assert sol.status is MilpStatus.OPTIMAL
    assert tuple(sol.x) == (0, Fraction(3, 2))
    assert sol.objective == Fraction(3, 2)


def test_exact_objective_with_fractional_data():
    lp = LpProblem([Fraction(1, 3)], [[1]], [2], [0], [9], )
    sol = solve_milp(MilpProblem(lp, (0,)))
    assert sol.objective == Fraction(2, 3)


def test_zero_objective_stops_at_the_first_integral_vertex():
    lp = LpProblem([0, 0], [[1, 1], [-1, -1]], [1, -6], [0, 0], [5, 5])
    sol = solve_milp(MilpProblem(lp, (0, 1)))
    assert sol.status is MilpStatus.OPTIMAL and sol.objective == 0
    x = sol.x
    assert all(v.denominator == 1 for v in x)
    assert 1 <= x[0] + x[1] <= 6
    # the root vertex (3/2, 0, 0) dives up to the integral (2, 0, 0); the
    # down child left open has bound 0 too, so it is pruned unsolved
    lp = LpProblem([0, 0, 0], [[2, 2, 2]], [3], [0, 0, 0], [9, 9, 9])
    sol = solve_milp(MilpProblem(lp, (0, 1, 2)))
    assert sol.status is MilpStatus.OPTIMAL and sol.nodes == 2
    assert tuple(sol.x) == (2, 0, 0)


def test_time_limit():
    lp = LpProblem([-1, -1, -1], [[2, 2, 2]], [3], [0, 0, 0], [9, 9, 9])
    sol = solve_milp(MilpProblem(lp, (0, 1, 2)), deadline=time.monotonic())
    assert sol.status is MilpStatus.LIMIT_REACHED and sol.nodes == 0
    assert solve_milp(MilpProblem(lp, (0, 1, 2)),
                      deadline=time.monotonic() + 60).status is MilpStatus.OPTIMAL


def test_validation():
    lp = LpProblem([1], [[1]], [0], [0], [1])
    with pytest.raises(ValueError):
        MilpProblem(lp, (2,))          # index out of range


# z = (z+_0, z+_1, z-_0, z-_1): rows and costs read z+ - z- and a radius row
SPLIT = LpProblem([1, 0, 1, 2], [[2, -1, -2, 1], [-1, -1, -1, -1]], [1, -4],
                  [0, 0, 0, 0], [3, 3, 3, 3])


@pytest.mark.parametrize("change, complements", [
    (lambda lp: lp, ((0, 2), (1, 3), (0, 1))),          # a column in two pairs
    (lambda lp: lp, ((0, 0),)),
    (lambda lp: lp.with_bounds([1, 0, 0, 0], lp.upper), ((0, 2),)),
    (lambda lp: lp.with_extra_rows([[1, 0, 0, 0]], [0]), ((0, 2),)),
    (lambda lp: lp.with_objective([1, -1, 1, 0]), ((1, 3),)),
])
def test_complements_refuse_a_pair_that_could_need_both_halves(change, complements):
    assert MilpProblem(SPLIT, (0, 1, 2, 3), ((0, 2), (1, 3))).complements
    with pytest.raises(ValueError):
        MilpProblem(change(SPLIT), (0, 1, 2, 3), complements)


def test_complements_refuse_a_continuous_column():
    with pytest.raises(ValueError):
        MilpProblem(SPLIT, (0, 1, 2), ((0, 2), (1, 3)))


def test_propagate_fixes_the_partner():
    rows, by_col, visits = propagation_rows(SPLIT, range(4))
    partner = {0: 2, 2: 0, 1: 3, 3: 1}
    lower, upper = [1, 0, 0, 0], [3, 3, 3, 3]
    assert propagate(rows, by_col, lower, upper, (0,), visits, partner)
    assert upper[2] == 0 and lower == [1, 0, 0, 0]
    lower, upper = [1, 0, 1, 0], [3, 3, 3, 3]
    assert not propagate(rows, by_col, lower, upper, (0,), visits, partner)
    # without the pairs the same box propagates as it always did
    lower, upper = [1, 0, 0, 0], [3, 3, 3, 3]
    assert propagate(rows, by_col, lower, upper, (0,), visits)
    assert upper == [3, 3, 3, 3]


def _random_split_milp(rng):
    """A random MILP of ``helpers.random_milp`` in split form x = mid + z+ - z-
    around an integer mid of its box, as the direction search builds it: an
    optional radius row, and a cost c z+ - c z- plus t (z+ + z-), t in {0, 1}."""
    prob, _ = random_milp(rng)
    n = prob.n
    mid = [rng.randint(lo, hi) for lo, hi in zip(prob.lower, prob.upper)]
    rows = [list(row) + [-a for a in row] for row in prob.rows]
    rhs = [b - sum(a * v for a, v in zip(row, mid)) for row, b in zip(prob.rows, prob.rhs)]
    if rng.random() < 0.5:
        rows.append([-1] * (2 * n))
        rhs.append(-rng.randint(1, 4))
    t = rng.randint(0, 1)
    objective = [c + t for c in prob.objective] + [t - c for c in prob.objective]
    upper = [hi - v for hi, v in zip(prob.upper, mid)] + \
        [v - lo for lo, v in zip(prob.lower, mid)]
    lp = LpProblem(objective, rows, rhs, [0] * (2 * n), upper)
    return lp, tuple(range(2 * n)), tuple((j, n + j) for j in range(n))


def test_complements_keep_the_optimum_in_fewer_nodes():
    rng = random.Random(22)
    plain_nodes = paired_nodes = optimal = 0
    for _ in range(120):
        lp, ints, pairs = _random_split_milp(rng)
        status, value, _ = milp_grid_optimum(lp, ints)
        plain = solve_milp(MilpProblem(lp, ints))
        paired = solve_milp(MilpProblem(lp, ints, pairs))
        plain_nodes += plain.nodes
        paired_nodes += paired.nodes
        assert plain.status is paired.status
        if status == "infeasible":
            assert paired.status is MilpStatus.INFEASIBLE
            continue
        optimal += 1
        assert paired.status is MilpStatus.OPTIMAL
        assert paired.objective == plain.objective == value
        assert all(paired.x[j] * paired.x[k] == 0 for j, k in pairs)
    assert optimal > 20
    assert paired_nodes < plain_nodes


def test_against_grid_enumeration():
    rng = random.Random(99)
    agree = 0
    for _ in range(120):
        prob, ints = random_milp(rng)
        status, value, _ = milp_grid_optimum(prob, ints)
        sol = solve_milp(MilpProblem(prob, ints))
        if status == "optimal":
            assert sol.status is MilpStatus.OPTIMAL
            assert sol.objective == value
            agree += 1
        else:
            assert sol.status is MilpStatus.INFEASIBLE
    assert agree > 20


def test_solution_vector_is_exact():
    rng = random.Random(5)
    for _ in range(40):
        prob, ints = random_milp(rng)
        sol = solve_milp(MilpProblem(prob, ints))
        if sol.status is not MilpStatus.OPTIMAL:
            continue
        for v in sol.x:
            assert isinstance(v, Fraction) and v.denominator == 1
        for row, b in zip(prob.rows, prob.rhs):
            assert sum(c * v for c, v in zip(row, sol.x)) >= b


def test_integer_empty_box_closes_without_an_lp(lp_boxes):
    # 2x >= 1 and -2x >= -1 hold at x = 1/2, but no integer x does
    prob = MilpProblem(LpProblem([1], [[2], [-2]], [1, -1], [0], [1]), (0,))
    sol = solve_milp(prob)
    assert sol.status is MilpStatus.INFEASIBLE
    assert lp_boxes == [] and sol.nodes == 0 and sol.propagated == 1


def test_root_lp_sees_the_rounded_box(lp_boxes):
    # 2x >= 3 lifts x to ceil(3/2) = 2, -2y >= -5 caps y at floor(5/2) = 2,
    # y + 2z >= 11 lifts the open-ended z to ceil((11 - 2)/2) = 5, and the
    # fractional bounds of x and y are rounded inward first
    lp = LpProblem([1, -1, 1], [[2, 0, 0], [0, -2, 0], [0, 1, 2]], [3, -5, 11],
                   [Fraction(-1, 2), Fraction(1, 3), 0], [Fraction(7, 2), 3, None])
    sol = solve_milp(MilpProblem(lp, (0, 1, 2)))
    assert lp_boxes == [([2, 1, 5], [3, 2, None])]
    assert sol.status is MilpStatus.OPTIMAL and sol.objective == 5
    assert (sol.nodes, sol.propagated) == (1, 0)


def test_child_propagates_from_its_branched_column(lp_boxes):
    # max x + y with 2x + 2y <= 3: the root LP sets one variable to 1/2;
    # the child that lifts it to 1 gets the other capped at 0 by the row,
    # so its LP is already integral and needs no further branch; the root's
    # dual bound -3/2 rounds up to -1 on the integer lattice, so that
    # incumbent closes the sibling without its LP
    lp = LpProblem([-1, -1], [[-2, -2]], [-3], [0, 0], [1, 1])
    sol = solve_milp(MilpProblem(lp, (0, 1)))
    assert sol.status is MilpStatus.OPTIMAL and sol.objective == -1
    assert ([0, 1], [0, 1]) in lp_boxes or ([1, 0], [1, 0]) in lp_boxes
    assert (sol.nodes, sol.propagated) == (2, 0)


def test_endless_tightening_chain_stops():
    # x >= y and y >= x + 1 over open-ended boxes lift both lower bounds
    # forever; propagation gives up and the LP proves the box empty
    lp = LpProblem([1, 1], [[1, -1], [-1, 1]], [0, 1], [0, 0], [None, None])
    sol = solve_milp(MilpProblem(lp, (0, 1)))
    assert sol.status is MilpStatus.INFEASIBLE and sol.nodes == 1


def _random_mixed_milp(rng):
    """Integer columns with fractional bounds, then one continuous column
    with an open upper bound and a nonnegative cost; rows touch it or not."""
    k = rng.randint(2, 3)
    lower = [Fraction(rng.randint(-6, 2), rng.choice((1, 2, 3))) for _ in range(k)]
    upper = [lo + Fraction(rng.randint(0, 12), rng.choice((1, 2, 3))) for lo in lower]
    rows = [[rng.randint(-5, 5) for _ in range(k)] + [rng.choice((0, 0, -2, -1, 1, 3))]
            for _ in range(rng.randint(2, 4))]
    rhs = [rng.randint(-8, 6) for _ in rows]
    objective = [rng.randint(-5, 5) for _ in range(k)] + [rng.randint(0, 3)]
    lp = LpProblem(objective, rows, rhs, lower + [Fraction(rng.randint(-3, 0), 2)],
                   upper + [None])
    return lp, tuple(range(k))


def test_mixed_integer_against_grid_enumeration():
    rng = random.Random(12)
    optimal = propagated = 0
    for _ in range(300):
        lp, ints = _random_mixed_milp(rng)
        status, value = mixed_grid_optimum(lp, ints)
        sol = solve_milp(MilpProblem(lp, ints))
        propagated += sol.propagated
        if status == "infeasible":
            assert sol.status is MilpStatus.INFEASIBLE
            continue
        optimal += 1
        assert sol.status is MilpStatus.OPTIMAL and sol.objective == value
        assert all(sol.x[j].denominator == 1 for j in ints)
        assert all(lo <= v and (hi is None or v <= hi)
                   for v, lo, hi in zip(sol.x, lp.lower, lp.upper))
        for row, b in zip(lp.rows, lp.rhs):
            assert sum(c * v for c, v in zip(row, sol.x)) >= b
    assert optimal > 60 and propagated > 60


# rows with denominators: row 0 has LCM 6, row 1 LCM 1
TEMPLATE = LpProblem([1, 2, 0], [[Fraction(1, 2), Fraction(1, 3), 0], [1, -1, 1]], [1, 0],
                     [0, 0, 0], [4, 4, 4])


def _fresh(lp):
    """The same problem with no cache entry shared."""
    return LpProblem(list(lp.objective), [list(r) for r in lp.rows], list(lp.rhs),
                     list(lp.lower), list(lp.upper))


def test_problems_from_one_template_keep_their_own_rhs():
    """Two ``with_rhs`` copies of one template, read in interleaved order,
    share the row-level entries and keep their own rhs-level ones: float
    rhs, integer rhs and scale, and propagation rows."""
    a = TEMPLATE.with_rhs([2, -3], [0, 1, 0], [3, 4, 2])
    b = TEMPLATE.with_rhs([Fraction(1, 4), 5], [1, 0, 0], [4, 3, 4])
    reads = [lambda p: p.float_data(), lambda p: p.integer_rows(),
             lambda p: propagation_rows(p, (0, 1, 2))[:2]]
    for read in reads:
        for p in (a, b, a):
            assert read(p) == read(_fresh(p))
    assert a._row_cache is b._row_cache is TEMPLATE._row_cache
    assert a._cache is not b._cache
    assert a.float_data()[1] is b.float_data()[1]       # the float rows
    assert a.float_data()[3] != b.float_data()[3]
    for p in (a, b):
        assert solve_milp(MilpProblem(p, (0, 1, 2))) == solve_milp(MilpProblem(_fresh(p), (0, 1, 2)))


def test_an_rhs_off_the_rows_lcm_rescales_its_row():
    """An rhs whose denominator does not divide its row's LCM gives that
    row a larger scale, and its integer image and propagation terms match
    a fresh build's; the other rows keep the template's coefficient lists."""
    TEMPLATE.integer_rows()
    p = TEMPLATE.with_rhs([Fraction(1, 4), Fraction(7)], TEMPLATE.lower, TEMPLATE.upper)
    image = p.integer_rows()
    assert image == _fresh(p).integer_rows()
    assert image[0] == ([6, 4, 0], 3, 12)
    assert image[1][0] is TEMPLATE.row_integers()[1][0]
    assert propagation_rows(p, (0, 1, 2))[:2] == propagation_rows(_fresh(p), (0, 1, 2))[:2]


def test_copies_share_what_their_rows_decide():
    """``with_bounds`` shares both cache parts, ``with_rhs`` the row-level
    one, and ``with_extra_rows`` and ``with_objective`` neither."""
    lp = _fresh(TEMPLATE)
    MilpProblem(lp, (0, 1, 2))
    propagation_rows(lp, (0, 1, 2))
    simplex.dual_bound(lp, [0.0, 1.0], (0, 1, 2))
    assert lp._row_cache and lp._cache
    bounded = lp.with_bounds([0, 0, 1], [1, 1, 1])
    assert bounded._cache is lp._cache and bounded._row_cache is lp._row_cache
    moved = lp.with_rhs([0, 1], lp.lower, lp.upper)
    assert moved._row_cache is lp._row_cache and not moved._cache
    for other in (lp.with_extra_rows([[1, 0, 0]], [1]), lp.with_objective([0, 0, 1])):
        assert not other._row_cache and not other._cache
        other.float_data()
        other.integer_rows()
        propagation_rows(other, (0, 1, 2))
        simplex.dual_bound(other, [0.0] * other.m, (0, 1, 2))
        assert not any(v is w for v in other._row_cache.values()
                       for w in lp._row_cache.values())
