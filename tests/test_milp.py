import random
from fractions import Fraction

import pytest

from helpers import milp_grid_optimum, random_milp
from miblp.milp import MilpProblem, MilpStatus, solve_milp
from miblp.simplex import LpProblem


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


def test_node_limit():
    lp = LpProblem([-1, -1, -1], [[2, 2, 2]], [3], [0, 0, 0], [9, 9, 9])
    sol = solve_milp(MilpProblem(lp, (0, 1, 2)), node_limit=1)
    assert sol.status in (MilpStatus.LIMIT_REACHED, MilpStatus.OPTIMAL)
    sol0 = solve_milp(MilpProblem(lp, (0, 1, 2)), node_limit=0)
    assert sol0.status is MilpStatus.LIMIT_REACHED


def test_validation():
    lp = LpProblem([1], [[1]], [0], [0], [1])
    with pytest.raises(ValueError):
        MilpProblem(lp, (2,))          # index out of range


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
