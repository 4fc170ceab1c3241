from fractions import Fraction

import pytest

from miblp.bruteforce import (ENUMERATION_BUDGET, EnumerationBudgetError,
                              bilevel_points, enumerate_F, enumerate_S,
                              follower_points, optimal_by_enumeration,
                              phi_by_enumeration)
from miblp.instance import Point, parse_instance


def test_enumerate_s_moore_bard(moore_bard):
    s = enumerate_S(moore_bard)
    assert Point.make((2,), (4,)) in s
    assert Point.make((2,), (2,)) in s
    assert Point.make((8,), (1,)) in s
    assert Point.make((0,), (0,)) not in s
    assert len(s) == 16


def test_enumerate_f_moore_bard(moore_bard):
    f = enumerate_F(moore_bard)
    assert Point.make((2,), (2,)) in f
    assert Point.make((2,), (4,)) not in f
    assert f <= enumerate_S(moore_bard)


def test_phi_moore_bard(moore_bard):
    assert phi_by_enumeration(moore_bard, (Fraction(2),)) == 2
    assert phi_by_enumeration(moore_bard, (Fraction(8),)) == 1
    assert phi_by_enumeration(moore_bard, (Fraction(0),)) is None


def test_optimum_moore_bard(moore_bard):
    point, value = optimal_by_enumeration(moore_bard)
    assert (point.x, point.y) == ((2,), (2,)) and value == -22


def test_three_d_sets(three_d):
    s = enumerate_S(three_d)
    assert Point.make((3,), (4, 1)) in s
    assert Point.make((1,), (3, 2)) in s
    point, value = optimal_by_enumeration(three_d)
    assert (point.x, point.y) == ((2,), (7, 1)) and value == -21
    assert Point.make((3,), (4, 1)) not in enumerate_F(three_d)


def test_follower_points_ignore_leader_rows(three_d):
    pts = follower_points(three_d, (Fraction(1),))
    assert (Fraction(3), Fraction(2)) in pts
    assert all(three_d.follower_feasible((Fraction(1),), y) for y in pts)


def test_empty_box_gives_empty_s():
    text = """MIBLP 1
VARS 1 1 1 1
OBJ_UPPER 0 1
OBJ_LOWER 1
BOUNDS 0 2 0 2
UPPER 0
LOWER 1
1 1 >= 99
"""
    inst = parse_instance(text)
    assert enumerate_S(inst) == set()
    assert enumerate_F(inst) == set()
    assert optimal_by_enumeration(inst) is None


def test_budget_guard():
    text = """MIBLP 1
VARS 2 2 2 2
OBJ_UPPER 0 0 1 1
OBJ_LOWER 1 1
BOUNDS 0 99 0 99 0 99 0 99
UPPER 0
LOWER 1
1 1 1 1 >= 0
"""
    inst = parse_instance(text)
    assert (99 + 1) ** 4 > ENUMERATION_BUDGET
    with pytest.raises(EnumerationBudgetError):
        enumerate_S(inst)


def test_pure_integer_guard():
    # the continuous leader stays out of the follower rows, which parsing allows
    text = """MIBLP 1
VARS 1 0 1 1
OBJ_UPPER 0 1
OBJ_LOWER 1
BOUNDS 0 2 0 2
UPPER 1
1 1 >= 1
LOWER 1
0 1 >= 1
"""
    inst = parse_instance(text)
    assert not inst.is_pure_integer()
    with pytest.raises(ValueError):
        enumerate_S(inst)


def test_two_continuous_leaders_are_refused():
    text = """MIBLP 1
VARS 2 0 1 1
OBJ_UPPER 1 1 1
OBJ_LOWER 1
BOUNDS 0 2 0 2 0 2
UPPER 1
1 1 1 >= 1
LOWER 1
0 0 1 >= 1
"""
    inst = parse_instance(text)
    with pytest.raises(ValueError, match="at most one continuous leader"):
        next(bilevel_points(inst))
