from fractions import Fraction

import pytest

from miblp import bruteforce
from miblp.bruteforce import enumerate_F, enumerate_S
from miblp.instance import InstanceError, Point, parse_instance
from miblp.kopt import (compute_k_bar, enumerate_Fk, level_table,
                        make_context, min_ifd_norm, minimal_ifds,
                        reaction_set, reaction_set_k, slice_csv)


def F1(v):
    return Fraction(v)


def test_k_bar_values(moore_bard, three_d):
    assert compute_k_bar(moore_bard) == 4
    assert compute_k_bar(three_d) == 13


def test_k_bar_zero_width():
    text = """MIBLP 1
VARS 1 1 1 1
OBJ_UPPER 0 1
OBJ_LOWER 1
BOUNDS 0 2 3 3
UPPER 0
LOWER 1
0 1 >= 0
"""
    assert compute_k_bar(parse_instance(text)) == 0


def test_k_bar_empty_relaxation():
    text = """MIBLP 1
VARS 1 1 1 1
OBJ_UPPER 0 1
OBJ_LOWER 1
BOUNDS 0 2 0 2
UPPER 0
LOWER 1
1 1 >= 99
"""
    assert compute_k_bar(parse_instance(text)) == 0


def test_k_bar_covers_leader_pinched_slices():
    # Leader rows pin the joint region to the single point (0, 5, 5), yet the
    # follower can still walk to (4, 8) inside its own rows.  A cap taken over
    # the joint region would be 0 and wrongly accept (0, 5, 5) as feasible.
    text = """MIBLP 1
VARS 1 1 2 2
OBJ_UPPER 0 1 1
OBJ_LOWER 1 0
BOUNDS 0 0 0 9 0 9
UPPER 4
0 1 0 <= 5
0 1 0 >= 4
0 0 1 <= 5
0 0 1 >= 5
LOWER 1
0 3 1 >= 20
"""
    inst = parse_instance(text)
    ctx = make_context(inst)
    assert ctx.k_bar == 14
    assert enumerate_F(inst) == set()
    assert enumerate_Fk(ctx, ctx.k_bar) == set()
    assert enumerate_Fk(ctx, 0) == enumerate_S(inst) != set()


def test_k_bar_unbounded_rejected():
    text = """MIBLP 1
VARS 1 1 1 1
OBJ_UPPER 0 1
OBJ_LOWER 1
BOUNDS 0 3 0 inf
UPPER 0
LOWER 1
1 1 >= 4
"""
    with pytest.raises(InstanceError):
        make_context(parse_instance(text))


def test_reaction_sets_three_d(three_d):
    ctx = make_context(three_d)
    x = (F1(1),)
    r = reaction_set(ctx, x)
    diffs = {
        1: {(F1(3), F1(2)), (F1(7), F1(3)), (F1(2), F1(2)), (F1(1), F1(2))},
        2: {(F1(2), F1(2)), (F1(1), F1(2))},
        3: {(F1(1), F1(2))},
    }
    for k, expected in diffs.items():
        assert reaction_set_k(ctx, x, k) - r == expected
    assert reaction_set_k(ctx, x, 0) >= r


def test_reaction_set_k0_is_slice(moore_bard):
    ctx = make_context(moore_bard)
    for xv in range(0, 9):
        x = (F1(xv),)
        table = level_table(ctx, x)
        assert reaction_set_k(ctx, x, 0) == set(table)


def test_fk_hierarchy_three_d(three_d):
    ctx = make_context(three_d)
    f = enumerate_F(three_d)
    f4 = enumerate_Fk(ctx, 4)
    assert f4 == f | {Point.make((3,), (4, 1))}
    for k in range(5, ctx.k_bar + 1):
        assert enumerate_Fk(ctx, k) == f
    assert enumerate_Fk(ctx, 0) == enumerate_S(three_d)


def test_min_ifd_norm(moore_bard, three_d):
    mb = make_context(moore_bard)
    assert min_ifd_norm(mb, Point.make((2,), (4,))) == 1
    assert min_ifd_norm(mb, Point.make((2,), (2,))) is None
    td = make_context(three_d)
    assert min_ifd_norm(td, Point.make((3,), (4, 1))) == 5
    assert minimal_ifds(td, Point.make((3,), (4, 1))) == [(F1(4), F1(-1))]


def test_min_ifd_norm_outside_relaxation(moore_bard):
    ctx = make_context(moore_bard)
    with pytest.raises(ValueError):
        min_ifd_norm(ctx, Point.make((0,), (0,)))


def test_level_table_levels(three_d):
    ctx = make_context(three_d)
    table = level_table(ctx, (F1(1),))
    assert table[(F1(3), F1(2))] == 2
    assert table[(F1(7), F1(3))] == 2
    assert table[(F1(2), F1(2))] == 3
    assert table[(F1(1), F1(2))] == 4
    best = {y for y, lvl in table.items() if lvl is None}
    assert best == reaction_set(ctx, (F1(1),))


def test_level_table_memoized(three_d):
    ctx = make_context(three_d)
    assert level_table(ctx, (F1(1),)) is level_table(ctx, (F1(1),))


def test_one_follower_grid_per_context(monkeypatch, three_d):
    """Every level set, level table, reaction set, step list and slice of a
    context reads one follower grid, built on first use."""
    built = []
    slicer = bruteforce._slicer
    monkeypatch.setattr(bruteforce, "_slicer", lambda inst: built.append(inst) or slicer(inst))
    ctx = make_context(three_d)
    assert built == []
    levels = [enumerate_Fk(ctx, k) for k in range(ctx.k_bar + 1)]
    for point in sorted(levels[0], key=Point.joint):
        min_ifd_norm(ctx, point)
        minimal_ifds(ctx, point)
        reaction_set(ctx, point.x)
    slice_csv(ctx, (F1(1),))
    assert built == [three_d] and len(ctx._tables) > 1
    assert levels[0] == enumerate_S(three_d) and levels[-1] == enumerate_F(three_d)


def test_reaction_set_k_negative(three_d):
    ctx = make_context(three_d)
    with pytest.raises(ValueError):
        reaction_set_k(ctx, (F1(1),), -1)


def test_slice_csv(three_d):
    ctx = make_context(three_d)
    text = slice_csv(ctx, (F1(1),))
    lines = text.strip().splitlines()
    assert lines[0].split(",")[:2] == ["y0", "y1"]
    rows = {tuple(line.split(",")[:2]): line.split(",")[2:]
            for line in lines[1:]}
    assert rows[("3", "2")] == ["1", "2"]       # in slice, level 2
    out_of_slice = [v for v in rows.values() if v[0] == "0"]
    assert all(v[1] == "" for v in out_of_slice)
    assert any(v == ["1", "none"] for v in rows.values())
