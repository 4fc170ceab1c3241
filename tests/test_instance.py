import math
from dataclasses import replace
from fractions import Fraction

import pytest

from miblp import kopt
from miblp.bnc import OracleMode, SolverConfig, SolveStatus, solve
from miblp.bruteforce import optimal_by_enumeration
from miblp.instance import (InstanceError, MiblpInstance, ParseError, Point,
                            generate_random_instance, parse_instance,
                            validate_assumptions, write_instance)

from conftest import DATA, MOORE_BARD, THREE_D
from helpers import bench_corpus


def test_moore_bard_shape(moore_bard):
    inst = moore_bard
    assert (inst.n1, inst.r1, inst.n2, inst.r2) == (1, 1, 1, 1)
    assert inst.c == (Fraction(-1),)
    assert inst.d1 == (Fraction(-10),)
    assert inst.d2 == (Fraction(1),)
    assert inst.m1 == 0 and inst.m2 == 4
    assert inst.lower == (0, 0) and inst.upper == (8, 5)


def test_rows_normalized_to_ge(moore_bard):
    # the file's "-5 4 <= 6" row must appear negated
    assert (tuple([Fraction(5)]), tuple([Fraction(-4)]), Fraction(-6)) == (
        moore_bard.a2[0], moore_bard.g2[0], moore_bard.b2[0])
    for (coeffs, rhs) in moore_bard.all_rows():
        assert len(coeffs) == 2


def test_membership_helpers(moore_bard):
    inst = moore_bard
    assert inst.in_s(Point.make((2,), (4,)))
    assert inst.in_s(Point.make((2,), (2,)))
    assert inst.in_s(Point.make((8,), (1,)))
    assert not inst.in_relaxation(Point.make((0,), (0,)))   # 2x+10y >= 15 fails
    assert inst.in_relaxation(Point.make((1,), (Fraction(22, 10),)))
    assert not inst.in_s(Point.make((1,), (Fraction(22, 10),)))   # fractional y
    assert not inst.in_box(Point.make((9,), (0,)))


def test_follower_feasible_ignores_leader_rows():
    text = """MIBLP 1
VARS 1 1 1 1
OBJ_UPPER 0 1
OBJ_LOWER 1
BOUNDS 0 5 0 5
UPPER 1
1 1 <= 2
LOWER 1
1 1 <= 9
"""
    inst = parse_instance(text)
    # (4, 4) violates the leader row x+y <= 2 but not the follower row
    assert inst.follower_feasible((Fraction(4),), (Fraction(4),))
    assert not inst.in_relaxation(Point.make((4,), (4,)))


def test_linking_and_integer_indices(moore_bard, three_d):
    assert moore_bard.linking_indices() == (0,)
    assert moore_bard.integer_indices() == (0, 1)
    assert three_d.integer_indices() == (0, 1, 2)
    assert moore_bard.is_pure_integer() and three_d.is_pure_integer()


def test_values(moore_bard):
    p = Point.make((2,), (2,))
    assert moore_bard.leader_value(p) == -22
    assert moore_bard.follower_value(p.y) == 2


def test_write_parse_round_trip(moore_bard, three_d):
    for inst in (moore_bard, three_d):
        again = parse_instance(write_instance(inst), name=inst.name)
        assert again.c == inst.c and again.d2 == inst.d2
        assert again.a2 == inst.a2 and again.g2 == inst.g2 and again.b2 == inst.b2
        assert again.lower == inst.lower and again.upper == inst.upper


def _mutated(old, new):
    assert MOORE_BARD.count(old) == 1
    return MOORE_BARD.replace(old, new)


# moore_bard.miblp: a comment, then the header on line 2, VARS on 3,
# OBJ_UPPER 4, OBJ_LOWER 5, BOUNDS 6, UPPER 7, LOWER 8 and its rows 9-12
@pytest.mark.parametrize("text, lineno, message", [
    ("NOPE 1\n", 1, "expected header 'MIBLP 1'"),
    ("MIBLP 1\nVARS 1 2 1 1\n", 2, "inconsistent variable counts"),     # r1 > n1
    (MOORE_BARD[:MOORE_BARD.index("UPPER 0")], 6, "missing section: expected UPPER"),
    (_mutated("VARS 1 1 1 1", "VAR 1 1 1 1"), 3, "expected VARS"),
    (_mutated("VARS 1 1 1 1", "VARS 1 1 1"), 3, "VARS takes 4 value(s), got 3"),
    (_mutated("OBJ_UPPER -1 -10", "OBJ_UP -1 -10"), 4, "expected OBJ_UPPER"),
    (_mutated("OBJ_UPPER -1 -10", "OBJ_UPPER -1"), 4, "OBJ_UPPER needs 2 coefficients"),
    (_mutated("OBJ_UPPER -1 -10", "OBJ_UPPER -1 ten"), 4, "not a number: 'ten'"),
    (_mutated("OBJ_LOWER 1", "OBJ_LO 1"), 5, "expected OBJ_LOWER"),
    (_mutated("OBJ_LOWER 1", "OBJ_LOWER 1 2"), 5, "OBJ_LOWER needs 1 coefficients"),
    (_mutated("BOUNDS 0 8 0 5", "BOUND 0 8 0 5"), 6, "expected BOUNDS"),
    (_mutated("BOUNDS 0 8 0 5", "BOUNDS 0 8 0"), 6, "BOUNDS needs 2 lo/hi pairs"),
    (_mutated("BOUNDS 0 8 0 5", "BOUNDS 0 8 6 5"), 6, "empty bound interval for variable 1"),
    (_mutated("UPPER 0", "UPPER -1"), 7, "UPPER count must be nonnegative"),
    (_mutated("LOWER 4", "LOWER 0"), 8, "missing section: LOWER needs at least one row"),
    (_mutated("1 2 <= 10", "1 2 < 10"), 10, "unknown sense '<'"),
    (_mutated("2 10 >= 15", "2 10 >="), 12, "row needs 2 coefficients, a sense and a rhs"),
    (MOORE_BARD + "1 1 >= 0\n", 13, "trailing content after LOWER block"),
], ids=["header", "counts", "truncated", "keyword", "count", "obj-upper-keyword",
        "obj-upper-width", "number", "obj-lower-keyword", "obj-lower-width",
        "bounds-keyword", "bounds-width", "empty-interval", "negative-block",
        "lower-empty", "sense", "row-width", "trailing"])
def test_parse_errors(text, lineno, message):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == f"line {lineno}: {message}"
    assert err.value.lineno == lineno


@pytest.mark.parametrize("old, new", [("VARS 1 1 1 1", "VARS --1 1 1 1"),
                                      ("UPPER 0", "UPPER --2")])
def test_malformed_header_count_is_a_parse_error(old, new):
    with pytest.raises(ParseError, match="not an integer: '--"):
        parse_instance(MOORE_BARD.replace(old, new))


@pytest.mark.parametrize("old, new, part", [
    ("OBJ_LOWER 1", "OBJ_LOWER 1e400", "OBJ_LOWER"),
    ("BOUNDS 0 8 0 5", "BOUNDS 0 8 0 1e999", "BOUNDS"),
    # within range as written, beyond it once the row is scaled to integers
    ("-5 4 <= 6", "-1e-300 4 <= 1e10", "LOWER")])
def test_number_beyond_the_float_range_is_refused(old, new, part):
    with pytest.raises(InstanceError, match=f"{part} holds a number beyond the float range"):
        parse_instance(MOORE_BARD.replace(old, new))


def test_validation_tightens_infinite_bounds():
    text = """MIBLP 1
VARS 1 1 1 1
OBJ_UPPER 0 1
OBJ_LOWER 1
BOUNDS 0 3 0 inf
UPPER 0
LOWER 1
1 1 <= 4
"""
    inst = parse_instance(text)
    # y <= 4 - x <= 4 over the relaxation
    assert inst.upper == (3, 4)


def test_validation_flags_unbounded():
    text = """MIBLP 1
VARS 1 1 1 1
OBJ_UPPER 0 1
OBJ_LOWER 1
BOUNDS 0 3 0 inf
UPPER 0
LOWER 1
1 1 >= 4
"""
    with pytest.raises(InstanceError, match="unbounded"):
        parse_instance(text)


def test_infinite_bound_found_under_a_doubling_cap(monkeypatch):
    # x1 is a continuous leader variable outside the follower rows, with
    # maximum 1000/3: the cap x1 <= 2^k binds up to 2^8 and is slack at 2^9
    solve_lp, calls = kopt.solve_lp, []
    monkeypatch.setattr(kopt, "solve_lp", lambda prob: calls.append(prob) or solve_lp(prob))
    text = """MIBLP 1
VARS 2 1 1 1
OBJ_UPPER 0 -1 1
OBJ_LOWER 1
BOUNDS 0 3 0 inf 0 5
UPPER 1
0 3 0 <= 1000
LOWER 1
1 0 1 <= 4
"""
    assert parse_instance(text).upper == (3, Fraction(1000, 3), 5)
    # the minimum (which settles emptiness), the recession LP, then caps
    # 1, 2, 4, ..., 512
    assert [p.upper[1] for p in calls[2:]] == [2**k for k in range(10)]


# -- an open follower bound comes from the follower's own rows ------------------

LEADER_ROW_PINCHES_Y = """MIBLP 1
VARS 1 1 1 1
OBJ_UPPER 0 1
OBJ_LOWER -1
BOUNDS 0 1 0 inf
UPPER 1
0 1 <= 5
LOWER 1
0 1 <= 10
"""


def test_leader_row_never_bounds_the_follower():
    # the follower's only response is y = 10, which breaks the leader row
    # y <= 5; a bound of 5 would have accepted y = 5 as optimal
    inst = parse_instance(LEADER_ROW_PINCHES_Y)
    assert inst.upper == (1, 10)
    assert solve(inst).status is SolveStatus.INFEASIBLE


def _open_follower_bounds(seed):
    """Corpus-family instance ``seed`` with every follower bound ``inf``,
    as text."""
    inst = generate_random_instance(seed, 2, 3, 2, 4, bound=8)
    return write_instance(replace(inst, upper=inst.upper[:2] + (None,) * 3))


def test_open_follower_bounds_come_from_the_follower_rows():
    inst = parse_instance(_open_follower_bounds(47))
    assert inst.upper == (8, 8, 18, 24, 11)
    assert solve(inst).status is SolveStatus.INFEASIBLE


def test_follower_unbounded_over_its_rows_is_refused():
    with pytest.raises(InstanceError,
                       match="variable 4 is unbounded over the follower rows"):
        parse_instance(_open_follower_bounds(5))


def test_no_leader_row_tightens_a_follower_bound():
    """Each open follower bound is the floor of its maximum over the
    follower rows and the box, whatever the leader rows say; on some seeds
    the maximum over the whole relaxation is lower."""
    pinched = 0
    for seed in range(2, 31):
        try:
            inst = parse_instance(_open_follower_bounds(seed))
        except InstanceError as err:
            assert "unbounded over the follower rows" in str(err)
            continue
        upper = inst.upper[:2] + (None,) * 3

        def extrema(rows):
            return kopt.region_extrema(rows, inst.lower, upper, range(2, 5), "")
        whole = extrema(inst.all_rows())
        if whole is None:       # an empty relaxation collapses every open bound
            assert inst.upper[2:] == inst.lower[2:]
            continue
        follower = extrema(inst.follower_rows())[1]
        assert inst.upper[2:] == tuple(math.floor(hi) for hi in follower)
        pinched += whole[1] != follower
    assert pinched


def test_unbounded_variable_is_named():
    text = """MIBLP 1
VARS 1 1 1 1
OBJ_UPPER 0 1
OBJ_LOWER 1
BOUNDS 0 inf 0 inf
UPPER 1
1 0 <= 4
LOWER 1
1 -1 <= 2
"""
    # x0 <= 4 is bounded; y >= x0 - 2 leaves y unbounded above
    with pytest.raises(InstanceError, match="variable 1 is unbounded"):
        parse_instance(text)


def test_empty_relaxation_collapses_infinite_bounds():
    text = """MIBLP 1
VARS 1 1 1 1
OBJ_UPPER 0 1
OBJ_LOWER 1
BOUNDS 0 inf 1 inf
UPPER 0
LOWER 1
1 1 <= 0
"""
    inst = parse_instance(text)
    assert inst.upper == inst.lower == (0, 1)
    assert solve(inst).status is SolveStatus.INFEASIBLE


def test_empty_relaxation_report():
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
    assert solve(inst).status is SolveStatus.INFEASIBLE


def test_generator_deterministic_and_valid():
    a = generate_random_instance(3, 2, 2, 2, 3, bound=4)
    b = generate_random_instance(3, 2, 2, 2, 3, bound=4)
    assert write_instance(a) == write_instance(b)
    assert a.is_pure_integer()
    assert all(hi == 4 for hi in a.upper) and all(lo == 0 for lo in a.lower)
    assert a.m2 == 3 and a.m1 == 2
    c = generate_random_instance(4, 2, 2, 2, 3, bound=4)
    assert write_instance(c) != write_instance(a)


def test_fractional_coefficients_parse():
    text = MOORE_BARD.replace("OBJ_LOWER 1", "OBJ_LOWER 1/2")
    inst = parse_instance(text)
    assert inst.d2 == (Fraction(1),)


def test_fast_number_paths_parse_identical_instances(monkeypatch):
    """A plain integer token skips Fraction's string regex, and a follower
    vector already integral is kept as it is; every corpus instance, every
    tests/data file and a text of every token shape parse to the very
    instance the Fraction(token) path gives."""
    from miblp import instance
    corpus = bench_corpus()
    texts = [write_instance(corpus.generate(seed)) for seed in corpus.CORPUS_SEEDS]
    texts += [path.read_text() for path in sorted(DATA.glob("*.miblp"))]
    texts.append(MOORE_BARD.replace("OBJ_UPPER -1 -10", "OBJ_UPPER -007 -1e1")
                 .replace("OBJ_LOWER 1", "OBJ_LOWER +1.5")
                 .replace("BOUNDS 0 8 0 5", "BOUNDS -0 16/2 0 5.0"))
    fast = [parse_instance(text) for text in texts]

    def number(token, lineno):
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, f"not a number: {token!r}") from None

    def integral(vec):
        scale = math.lcm(*(v.denominator for v in vec))
        return tuple(v * scale for v in vec)
    monkeypatch.setattr(instance, "_number", number)
    monkeypatch.setattr(instance, "_integral", integral)
    assert [parse_instance(text) for text in texts] == fast
    for inst in fast:
        assert all(type(v) is Fraction for v in inst.c + inst.d1 + inst.d2 + inst.b1
                   + inst.b2 + inst.lower + inst.upper + sum(inst.a1 + inst.g1, ())
                   + sum(inst.a2 + inst.g2, ()))


# -- the scope gate ------------------------------------------------------------


@pytest.mark.parametrize("mode", list(OracleMode))
def test_fractional_follower_objective_is_scaled(mode):
    # d2 = 1/2 has the argmin of d2 = 1; without scaling, a half-unit follower
    # improvement escapes the unit-step certificate
    inst = parse_instance(MOORE_BARD.replace("OBJ_LOWER 1", "OBJ_LOWER 1/2"))
    res = solve(inst, SolverConfig(oracle_mode=mode))
    assert res.status is SolveStatus.OPTIMAL and res.value == -22
    assert (res.incumbent.x, res.incumbent.y) == ((2,), (2,))


def test_integer_bounds_rounded():
    inst = parse_instance(MOORE_BARD.replace("BOUNDS 0 8 0 5", "BOUNDS 1/2 8 0 11/2"))
    assert inst.lower == (1, 0) and inst.upper == (8, 5)
    with pytest.raises(InstanceError, match="no value"):
        parse_instance(MOORE_BARD.replace("BOUNDS 0 8 0 5", "BOUNDS 0 8 1/3 1/2"))


def test_unrecoverable_bound_refused(monkeypatch):
    text = MOORE_BARD.replace("BOUNDS 0 8 0 5", "BOUNDS 0 8 0 inf")
    assert parse_instance(text).upper == (8, 4)
    monkeypatch.setattr(kopt, "exact_primal", lambda problem, sol: None)
    with pytest.raises(InstanceError, match="exact upper bound"):
        parse_instance(text)


def test_scaled_follower_rows_give_back_integral_data():
    # primes above the coefficient range are coprime to every row's content,
    # so scaling by the LCM of the denominators undoes the division exactly
    primes = (7, 11, 13, 17)
    for seed in range(20):
        inst = generate_random_instance(seed, 2, 2, 0, 3, bound=4)
        divided = replace(
            inst, d2=tuple(v / 2 for v in inst.d2),
            a2=tuple(tuple(v / p for v in row) for row, p in zip(inst.a2, primes)),
            g2=tuple(tuple(v / p for v in row) for row, p in zip(inst.g2, primes)),
            b2=tuple(v / p for v, p in zip(inst.b2, primes)))
        again = parse_instance(write_instance(divided))
        content = math.gcd(*(int(v) for v in inst.d2))
        assert again.d2 == tuple(v / math.gcd(2, content) for v in inst.d2)
        assert (again.a2, again.g2, again.b2) == (inst.a2, inst.g2, inst.b2)
        best = optimal_by_enumeration(inst)
        res = solve(again)
        if best is None:
            assert res.status is SolveStatus.INFEASIBLE
        else:
            assert res.status is SolveStatus.OPTIMAL and res.value == best[1]
