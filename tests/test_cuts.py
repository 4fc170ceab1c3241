from fractions import Fraction

import pytest

from miblp.bruteforce import enumerate_F
from miblp.cuts import (BilevelFreeSet, ConeContainedError, Cut,
                        NotSeparableError, bfs_from_direction,
                        bfs_from_solution, cut_violation, intersection_cut)
from miblp.instance import Point, parse_instance
from miblp.simplex import LpProblem, SimplicialCone, extract_cone, solve_lp

from helpers import reference_intersection_cut


def root_cone(inst):
    rows = [list(co) for co, _ in inst.all_rows()]
    rhs = [b for _, b in inst.all_rows()]
    obj = list(inst.c) + list(inst.d1)
    prob = LpProblem(obj, rows, rhs, list(inst.lower), list(inst.upper))
    return extract_cone(prob, solve_lp(prob))


def test_direction_free_set_rows(moore_bard):
    fs = bfs_from_direction(moore_bard, (-1,))
    assert fs.origin == ("direction", (Fraction(-1),))
    assert [tuple(c) for c, _ in fs.rows] == \
        [(5, -4), (-1, -2), (-2, 1), (2, 10), (0, 1)]
    assert [b for _, b in fs.rows] == [-11, -13, -15, 24, 0]
    assert fs.strictly_contains(Point.make((2,), (4,)))


def test_direction_free_set_rejects_bad_w(moore_bard):
    with pytest.raises(ValueError):
        bfs_from_direction(moore_bard, (1,))          # worsens the follower
    with pytest.raises(ValueError):
        bfs_from_direction(moore_bard, (Fraction(-1, 2),))   # not integral
    with pytest.raises(ValueError):
        bfs_from_direction(moore_bard, (-1, 0))       # wrong length


def test_direction_free_set_upper_rows():
    text = """MIBLP 1
VARS 1 1 1 1
OBJ_UPPER 0 1
OBJ_LOWER -1
BOUNDS 0 3 0 5
UPPER 0
LOWER 1
1 1 <= 7
"""
    inst = parse_instance(text)
    fs = bfs_from_direction(inst, (1,))
    assert fs.rows == (
        ((-1, -1), -7),    # follower row at y + w, relaxed by one unit
        ((0, 1), -2),      # lower box side
        ((0, -1), -5),     # upper box side, present because w steps up
    )


def test_fractional_row_scaled_to_unit_relaxation(moore_bard):
    from conftest import MOORE_BARD
    frac = parse_instance(MOORE_BARD.replace("2 10 >= 15", "2 10 >= 31/2"))
    assert (frac.a2[3], frac.g2[3], frac.b2[3]) == ((4,), (20,), 31)
    fs = bfs_from_direction(frac, (-1,))
    assert fs.rows[3] == ((4, 20), 31 - 1 - 20 * (-1))
    assert fs.rows[4] == ((0, 1), 0 - 1 - (-1))


def test_root_intersection_cut(moore_bard):
    cone = root_cone(moore_bard)
    fs = bfs_from_direction(moore_bard, (-1,))
    cut = intersection_cut(cone, fs, moore_bard.n1)
    assert cut.alpha_x == (-37,)
    assert cut.alpha_y == (-214,)
    assert cut.beta == -510
    assert cut.free_set is fs and cut.vertex == (2, 4)
    assert cut_violation(cut, Point.make((2,), (4,))) > 0
    for p in enumerate_F(moore_bard):
        assert cut_violation(cut, p) <= 0
    assert cut_violation(cut, Point.make((8,), (1,))) == 0


def test_cut_coefficients_coprime(moore_bard):
    import math
    cut = intersection_cut(root_cone(moore_bard),
                           bfs_from_direction(moore_bard, (-1,)),
                           moore_bard.n1)
    ints = list(cut.row()) + [cut.beta]
    assert all(type(v) is int for v in ints)
    assert math.gcd(*ints) == 1


def test_solution_free_set_cut(moore_bard):
    fs = bfs_from_solution(moore_bard, (2,))
    assert fs.rows[0] == ((0, 1), 2)      # interior means follower value > 2
    cut = intersection_cut(root_cone(moore_bard), fs, moore_bard.n1)
    assert (cut.alpha_x, cut.alpha_y, cut.beta) == ((0,), (-1,), -2)
    for p in enumerate_F(moore_bard):
        assert cut_violation(cut, p) <= 0


def test_solution_free_set_rejects_bad_y(moore_bard):
    with pytest.raises(ValueError):
        bfs_from_solution(moore_bard, (Fraction(3, 2),))   # fractional
    with pytest.raises(ValueError):
        bfs_from_solution(moore_bard, (9,))                # outside the box
    with pytest.raises(ValueError):
        bfs_from_solution(moore_bard, (2, 2))              # wrong length


def _unit_cone(vertex):
    return SimplicialCone(vertex=vertex, rays=((1, 0), (0, 1)), bound_supports=(),
                          facets=((1, 0), (0, 1)))


def test_not_separable_on_boundary_vertex():
    fs = BilevelFreeSet(rows=(((0, 1), 0),), origin=("direction", (-1,)))
    with pytest.raises(NotSeparableError):
        intersection_cut(_unit_cone((Fraction(0), Fraction(0))), fs, 1)


def test_separability_is_exact():
    # a vertex 1e-8 inside the free set x >= 0 is strictly interior, so the
    # cut through the point where ray (-1, 0) leaves the set is x <= 0
    fs = BilevelFreeSet(rows=(((1, 0), 0),), origin=("direction", (-1,)))
    cone = SimplicialCone(vertex=(Fraction(1, 10 ** 8), Fraction(0)),
                          rays=((-1, 0), (0, 1)), bound_supports=(),
                          facets=((-1, 0), (0, 1)))
    cut = intersection_cut(cone, fs, 1)
    assert (cut.alpha_x, cut.alpha_y, cut.beta) == ((-1,), (0,), 0) == \
        reference_intersection_cut(cone, fs, 1)


def test_cone_contained_detected():
    fs = BilevelFreeSet(rows=(((0, 1), 0),), origin=("direction", (-1,)))
    with pytest.raises(ConeContainedError):
        intersection_cut(_unit_cone((Fraction(0), Fraction(1))), fs, 1)


def test_cut_violation_sign():
    cut = Cut(alpha_x=(0,), alpha_y=(-1,), beta=-2)
    assert cut_violation(cut, Point.make((2,), (4,))) == 2    # cut off
    assert cut_violation(cut, Point.make((2,), (1,))) == -1   # satisfied
    assert cut.key() == ((0,), (-1,), -2)
