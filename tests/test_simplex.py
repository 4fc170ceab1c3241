import builtins
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import (lp_vertex_optimum, mixed_grid_optimum, random_lp,
                     reference_exact_primal, reference_extract_cone,
                     reference_intersection_cut, solve_vector)
from miblp import simplex
from miblp.cuts import (ConeContainedError, bfs_from_direction, cut_violation,
                        intersection_cut)
from miblp.instance import MiblpInstance, Point, dot
from miblp.simplex import (AT_LOWER, AT_UPPER, BASIC, DegenerateConeError,
                           LpProblem, LpSolution, LpStatus, dual_bound, exact_primal,
                           extract_cone, farkas, solve_lp, tight_bound_supports)


def moore_bard_lp(moore_bard):
    rows = [list(co) for co, _ in moore_bard.all_rows()]
    rhs = [b for _, b in moore_bard.all_rows()]
    return LpProblem([-1, -10], rows, rhs, list(moore_bard.lower),
                     list(moore_bard.upper))


def test_moore_bard_relaxation(moore_bard):
    sol = solve_lp(moore_bard_lp(moore_bard))
    assert sol.status is LpStatus.OPTIMAL
    assert abs(sol.objective - (-42.0)) <= 1e-7
    exact = exact_primal(moore_bard_lp(moore_bard), sol)
    assert exact == [Fraction(2), Fraction(4)]


def test_infeasible_detected():
    prob = LpProblem([1], [[1], [-1]], [4, -2], [0], [10])   # x >= 4 and x <= 2
    assert solve_lp(prob).status is LpStatus.INFEASIBLE


def test_negative_cost_needs_a_finite_upper_bound():
    # the slack basis would start x at +inf: no start is dual feasible
    with pytest.raises(ValueError, match="finite upper bound"):
        solve_lp(LpProblem([-1], [[1]], [0], [0], [None]))
    # a cost of 0 or more may leave the upper bound open
    sol = solve_lp(LpProblem([1, 0], [[1, 1]], [2], [0, 0], [None, None]))
    assert sol.status is LpStatus.OPTIMAL and abs(sol.objective) <= 1e-12


def test_bounds_only_problem():
    prob = LpProblem([3, -2], [], [], [1, 0], [5, 7])
    sol = solve_lp(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert exact_primal(prob, sol) == [1, 7]


def test_negative_lower_bounds():
    prob = LpProblem([1, 1], [[1, 1]], [-3], [-5, -5], [5, 5])
    sol = solve_lp(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert abs(sol.objective - (-3.0)) <= 1e-7


def test_degenerate_vertex_terminates():
    # three rows through one point plus bounds; objective pushes into it
    prob = LpProblem([-1, -1],
                     [[-1, 0], [0, -1], [-1, -1]],
                     [-2, -2, -4],
                     [0, 0], [10, 10])
    sol = solve_lp(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert abs(sol.objective - (-4.0)) <= 1e-7


def _check_against_vertex_enumeration():
    rng = random.Random(42)
    for _ in range(120):
        prob = random_lp(rng)
        status, value, _ = lp_vertex_optimum(prob)
        sol = solve_lp(prob)
        if status == "optimal":
            assert sol.status is LpStatus.OPTIMAL
            assert abs(sol.objective - float(value)) <= 1e-7
            exact = exact_primal(prob, sol)
            assert exact is not None
            assert dot(prob.objective, exact) == value
        else:
            assert sol.status is LpStatus.INFEASIBLE


def test_against_vertex_enumeration():
    _check_against_vertex_enumeration()


def test_exact_primal_satisfies_constraints():
    rng = random.Random(7)
    for _ in range(60):
        prob = random_lp(rng)
        sol = solve_lp(prob)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        exact = exact_primal(prob, sol)
        for row, b in zip(prob.rows, prob.rhs):
            assert dot(row, exact) >= b
        for j, v in enumerate(exact):
            assert prob.lower[j] <= v <= prob.upper[j]


def test_extract_cone_geometry(moore_bard):
    prob = moore_bard_lp(moore_bard)
    sol = solve_lp(prob)
    cone = extract_cone(prob, sol)
    assert list(cone.vertex) == [2, 4]
    assert len(cone.rays) == 2
    tight = []
    for row, b in zip(prob.rows, prob.rhs):
        if dot(row, cone.vertex) == b:
            tight.append((row, b))
    assert len(tight) >= 2
    # rays leave the vertex without violating any tight row, and each ray
    # moves off exactly the rows not defining it (simplicial structure)
    for ray in cone.rays:
        assert any(v != 0 for v in ray)
        for row, _ in tight:
            assert dot(row, ray) >= 0
    # the LP feasible set near the vertex lies inside the cone: walk each
    # edge a tiny exact step and stay feasible in all tight rows
    for ray in cone.rays:
        step = [v + Fraction(1, 1000) * r for v, r in zip(cone.vertex, ray)]
        for row, b in zip(prob.rows, prob.rhs):
            if dot(row, cone.vertex) == b:
                assert dot(row, step) >= b


def test_extract_cone_random():
    rng = random.Random(11)
    cones = 0
    for _ in range(60):
        prob = random_lp(rng)
        sol = solve_lp(prob)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        try:
            cone = extract_cone(prob, sol)
        except DegenerateConeError:
            continue
        cones += 1
        assert list(cone.vertex) == exact_primal(prob, sol)
        assert len(cone.rays) == prob.n
    assert cones > 10


def test_with_bounds_shares_float_cache():
    prob = LpProblem([1, 1], [[1, 1], [Fraction(1, 2), Fraction(-1, 3)]],
                     [1, Fraction(1, 4)], [0, 0], [5, 5])
    prob.float_data()
    narrowed = prob.with_bounds([0, 0], [2, 2])
    assert narrowed._cache is prob._cache
    assert narrowed.integer_rows() is prob.integer_rows()
    assert prob.integer_rows() == [([1, 1], 1, 1), ([6, -4], 3, 12)]
    sol = solve_lp(narrowed)
    assert sol.status is LpStatus.OPTIMAL


def test_bad_bounds_rejected():
    prob = LpProblem([1], [], [], [3], [2])
    assert solve_lp(prob).status is LpStatus.INFEASIBLE


# -- warm starts and Farkas certificates ---------------------------------------


def _tightened(rng, prob):
    """The problem with one variable's lower or upper bound moved inward."""
    lower, upper = list(prob.lower), list(prob.upper)
    j = rng.randrange(prob.n)
    if rng.random() < 0.5:
        upper[j] = Fraction(rng.randint(int(lower[j]), int(upper[j])))
    else:
        lower[j] = Fraction(rng.randint(int(lower[j]), int(upper[j])))
    return prob.with_bounds(lower, upper)


def _spy_on_runs(monkeypatch):
    """Every ``_Simplex.run`` result, in order; None marks a start that gave
    way to the slack basis or, from the slack basis, an UNSTABLE LP."""
    run, results = simplex._Simplex.run, []

    def spy(self):
        results.append(run(self))
        return results[-1]

    monkeypatch.setattr(simplex._Simplex, "run", spy)
    return results


def test_warm_and_cold_solves_agree_after_bound_tightenings(monkeypatch):
    # chains of children, each warm-started from its parent's final basis
    runs = _spy_on_runs(monkeypatch)
    rng = random.Random(9)
    tally = Counter()
    for _ in range(600):
        prob = random_lp(rng, n=rng.randint(2, 6), m=rng.randint(2, 8))
        parent = solve_lp(prob)
        for _ in range(6):
            if parent.status is not LpStatus.OPTIMAL:
                break
            prob = _tightened(rng, prob)
            warm, cold = solve_lp(prob, parent.basis), solve_lp(prob)
            assert warm.status is cold.status
            tally[warm.status] += 1
            if warm.status is LpStatus.OPTIMAL:
                assert abs(warm.objective - cold.objective) <= \
                    1e-9 * max(1.0, abs(cold.objective))
                assert exact_primal(prob, warm) is not None
                tally["warm pivots"] += warm.iterations
                tally["cold pivots"] += cold.iterations
            parent = warm
    assert tally[LpStatus.OPTIMAL] > 700 and tally[LpStatus.INFEASIBLE] > 80
    # every start settles its LP, and the parent's basis saves pivots
    assert None not in runs
    assert tally["warm pivots"] < tally["cold pivots"]


def test_start_that_is_not_dual_feasible_gives_way(monkeypatch):
    # the final basis of the same LP under another objective, some bounds
    # then tightened, is in general not dual feasible: the dual loop still
    # reaches primal feasibility, the pricing pass refuses the vertex, and
    # the slack basis finds the optimum vertex enumeration finds
    runs = _spy_on_runs(monkeypatch)
    rng = random.Random(13)
    refused = 0
    for _ in range(300):
        prob = random_lp(rng)
        other = solve_lp(prob.with_objective([rng.randint(-5, 5) for _ in range(prob.n)]))
        if other.status is not LpStatus.OPTIMAL:
            continue
        if rng.random() < 0.5:
            prob = _tightened(rng, prob)
        runs.clear()
        sol = solve_lp(prob, other.basis)
        status, value, _ = lp_vertex_optimum(prob)
        assert sol.status.value == status
        if status == "optimal":
            assert dot(prob.objective, exact_primal(prob, sol)) == value
        if runs[0] is None:             # the slack basis ran next
            refused += 1
            assert len(runs) == 2 and runs[1] is sol
    assert refused > 30


def test_start_with_fewer_rows_extends_itself(monkeypatch):
    # the appended row y >= x cuts off the parent's vertex (2, 1); it enters
    # with its surplus column basic and the dual loop moves to (3/2, 3/2)
    runs = _spy_on_runs(monkeypatch)
    prob = LpProblem([-2, -1], [[-1, -1]], [-3], [0, 0], [2, 5])
    parent = solve_lp(prob)
    grown = prob.with_extra_rows([[-1, 1]], [0])
    sol = solve_lp(grown, parent.basis)
    assert sol.status is LpStatus.OPTIMAL
    assert exact_primal(grown, sol) == [Fraction(3, 2), Fraction(3, 2)]
    assert len(runs) == 2 and None not in runs
    assert len(sol.basis.header) == 2
    assert sol.iterations < solve_lp(grown).iterations


def test_grown_problems_warm_and_cold_agree(monkeypatch):
    # rows appended to a solved LP, as a cut round appends pool rows; some
    # are cut-like, with coefficients near 1e11 through an integer point
    runs = _spy_on_runs(monkeypatch)
    rng = random.Random(27)
    tally = Counter()
    for _ in range(300):
        n = rng.randint(2, 5)
        prob = random_lp(rng, n=n, m=rng.randint(1, 5))
        parent = solve_lp(prob)
        for _ in range(3):
            if parent.status is not LpStatus.OPTIMAL:
                break
            centre = [Fraction(rng.randint(int(lo), int(hi)))
                      for lo, hi in zip(prob.lower, prob.upper)]
            size = 10**10 if rng.random() < 0.5 else 5
            rows = [[rng.randint(-size, size) for _ in range(n)]
                    for _ in range(rng.randint(1, 2))]
            prob = prob.with_extra_rows(rows, [dot(row, centre) - rng.randint(0, size)
                                               for row in rows])
            warm, cold = solve_lp(prob, parent.basis), solve_lp(prob)
            assert warm.status is cold.status
            tally[warm.status] += 1
            if warm.status is LpStatus.OPTIMAL:
                assert abs(warm.objective - cold.objective) <= \
                    1e-9 * max(1.0, abs(cold.objective))
                assert exact_primal(prob, warm) is not None
                tally["warm pivots"] += warm.iterations
                tally["cold pivots"] += cold.iterations
            parent = warm
    assert tally[LpStatus.OPTIMAL] > 200 and tally[LpStatus.INFEASIBLE] > 20
    # every extended start settles its LP, and saves pivots
    assert None not in runs
    assert tally["warm pivots"] < tally["cold pivots"]


def test_fixed_nonbasic_variable_is_reported_at_lower():
    # the parent leaves x at its upper bound 2; the child raises x's lower
    # bound to 2, and a warm start keeps x nonbasic at that bound
    prob = LpProblem([-2, -1], [[-1, -1]], [-3], [0, 0], [2, 5])
    parent = solve_lp(prob)
    assert parent.col_status[0] == AT_UPPER
    child = prob.with_bounds([2, 0], [2, 5])
    warm = solve_lp(child, parent.basis)
    assert warm.col_status == solve_lp(child).col_status
    assert warm.col_status[0] == AT_LOWER
    assert tight_bound_supports(child, warm) == ((0, False),)
    assert exact_primal(child, warm) == [2, 1]


def _farkas(prob, y):
    """``farkas``, checked to decide as the dual bound of a zero objective."""
    proved = farkas(prob, y)
    assert proved == (min(y) >= 0 and dual_bound(prob.with_objective([0] * prob.n), y) > 0)
    return proved


def test_farkas_checks_the_certificate_exactly():
    # x >= 4 and x <= 2: the sum of the two rows reads 0 >= 2
    prob = LpProblem([1], [[1], [-1]], [4, -2], [0], [10])
    assert _farkas(prob, [1.0, 1.0]) and _farkas(prob, [0.5, 0.5])
    assert not _farkas(prob, [1.0, 0.0])          # x <= 10 reaches 4
    assert not _farkas(prob, [1.0, -1.0])         # multipliers must be >= 0
    assert not _farkas(prob, [0.0, 0.0])
    # x/3 >= 1/3 and -x/3 >= -1/3 meet at x = 1; moving the second rhs by
    # 1e-20, below float resolution, makes them conflict, and only an exact
    # check tells the two apart
    third = Fraction(1, 3)
    prob = LpProblem([1], [[third], [-third]], [third, -third], [0], [1])
    assert not _farkas(prob, [1.0, 1.0])
    prob = LpProblem([1], [[third], [-third]], [third, -third + Fraction(1, 10**20)],
                     [0], [1])
    assert _farkas(prob, [1.0, 1.0])
    assert not _farkas(prob.with_bounds([0], [None]), [1.0, 0.0])


def test_dual_bound_is_tight_at_the_solver_basis():
    rng = random.Random(17)
    solved = 0
    for _ in range(150):
        prob = random_lp(rng)
        status, value, _ = lp_vertex_optimum(prob)
        if status == "optimal":
            bound = dual_bound(prob, solve_lp(prob).y)
            assert isinstance(bound, Fraction) and bound <= value
            assert value - bound <= 1e-9 * max(1, abs(value))
            solved += 1
    assert solved > 40


def _random_mixed_lp(rng):
    """``random_lp`` with costs over 1, 2 or 3 on its integer columns, plus a
    continuous column with an open upper bound and a cost of 0 or 1."""
    prob = random_lp(rng)
    return LpProblem([Fraction(c, rng.choice((1, 2, 3))) for c in prob.objective]
                     + [rng.choice((0, 0, 1))],
                     [row + [rng.choice((0, -1, 1, 2))] for row in prob.rows], prob.rhs,
                     prob.lower + [0], prob.upper + [None]), tuple(range(prob.n))


def test_lattice_rounded_dual_bound_stays_below_the_mixed_integer_optimum():
    """Every bound is finite: where float noise leaves a reduced cost on the
    basic column with an open bound, the bound comes from the duals
    re-derived exactly from the final basis."""
    rng = random.Random(23)
    rounded = noisy = 0
    for _ in range(200):
        prob, ints = _random_mixed_lp(rng)
        sol = solve_lp(prob)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        bound = dual_bound(prob, sol.y, ints, basis=sol.basis)
        assert bound > -math.inf
        noisy += dual_bound(prob, sol.y, ints) == -math.inf
        status, value = mixed_grid_optimum(prob, ints)
        if status == "optimal":
            assert bound <= value
        plain = dual_bound(prob, sol.y, basis=sol.basis)
        costs = [Fraction(c) for c in prob.objective if c]
        if prob.objective[-1] == 0 and costs:
            den = math.lcm(*(c.denominator for c in costs))
            step = Fraction(math.gcd(*(int(c * den) for c in costs)), den)
            assert (bound / step).denominator == 1
            rounded += bound > plain
        else:
            assert bound == plain
    assert rounded > 20 and noisy == 1


@pytest.mark.parametrize("warm", [False, True])
def test_unproven_infeasible_verdict_is_unstable(monkeypatch, warm):
    prob = LpProblem([1, 1], [[1, 1], [1, -1]], [2, -1], [0, 0], [3, 3])
    parent = solve_lp(prob)
    child = prob.with_bounds([0, 0], [0, 0])
    start = parent.basis if warm else None
    assert solve_lp(child, start).status is LpStatus.INFEASIBLE
    monkeypatch.setattr(simplex, "farkas", lambda problem, y: False)
    assert solve_lp(child, start).status is LpStatus.UNSTABLE


def _ulp_noise(first_sign):
    """A ``sum`` that moves each nonzero float result by one ulp, up and
    down in turn, starting with ``first_sign``."""
    sign = [first_sign]

    def noisy(values, start=0):
        total = builtins.sum(values, start)
        if isinstance(total, float) and total:
            total = math.nextafter(total, sign[0] * math.inf)
            sign[0] = -sign[0]
        return total
    return noisy


@pytest.mark.parametrize("first_sign", [1, -1])
def test_an_exact_ratio_tie_goes_to_the_lowest_index_whatever_the_noise(monkeypatch,
                                                                         first_sign):
    """Columns 0 and 1 are identical, so they tie exactly in the ratio test
    and their float pivots differ only by summation noise, which differs
    between interpreters (the built-in ``sum`` is compensated since Python
    3.12).  With every float sum in ``simplex`` one ulp off, favouring
    either column, the basis takes column 0."""
    prob = LpProblem([1, 1, 3], [[1, 1, 2], [1, 1, 1]], [3, 2], [0, 0, 0], [5, 5, 5])
    monkeypatch.setattr(simplex, "sum", _ulp_noise(first_sign), raising=False)
    sol = solve_lp(prob)
    assert sol.status is LpStatus.OPTIMAL
    assert 0 in sol.basis.header and 1 not in sol.basis.header
    assert sol.x == pytest.approx([3, 0, 0])


def test_infeasible_lp_with_an_open_upper_bound_is_certified(monkeypatch):
    # the float row of B^-1 is (1/4, 7/12, 5/12, 0) up to rounding, which
    # leaves 1.7e-16 on the open column z3; only the exact row proves the
    # LP empty, as the float one's combination is unbounded above over the box
    prob = LpProblem([1, -3, -4, 2],
                     [[-3, 5, -5, 3], [-3, 0, -1, -2], [1, -3, 2, 1], [5, -2, -2, 0]],
                     [6, 4, -5, -1], [0, -1, 0, -1], [5, 1, 1, None])
    calls = []
    check = simplex.farkas
    monkeypatch.setattr(simplex, "farkas", lambda problem, y: calls.append(y) or check(problem, y))
    assert solve_lp(prob).status is LpStatus.INFEASIBLE
    assert len(calls) == 2 and not check(prob, calls[0])
    assert calls[1] == [Fraction(1, 4), Fraction(7, 12), Fraction(5, 12), 0]


# -- exact recovery against the Fraction-elimination reference ---------------


def _outcome(fn, prob, sol):
    try:
        return fn(prob, sol)
    except DegenerateConeError:
        return "degenerate"


def _free_set_around(vertex, rng):
    """``bfs_from_direction`` of a random instance whose follower rows, box
    and direction are placed so that the vertex is strictly interior."""
    n = len(vertex)
    n1 = rng.randint(1, n - 1)
    w = [rng.randint(-2, 2) for _ in range(n - n1)]
    w[rng.randrange(n - n1)] = rng.choice((-1, 1))
    y_step = [v + s for v, s in zip(vertex[n1:], w)]
    rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(rng.randint(1, 3))]
    b2 = [math.floor(dot(r, vertex) + dot(r[n1:], w)) - rng.randint(0, 2) for r in rows]
    zero = (Fraction(0),) * n1
    inst = MiblpInstance(
        n1=n1, r1=n1, n2=n - n1, r2=n - n1, c=zero, d1=(Fraction(0),) * (n - n1),
        d2=tuple(Fraction(-s) for s in w), a1=(), g1=(), b1=(),
        a2=tuple(tuple(r[:n1]) for r in rows), g2=tuple(tuple(r[n1:]) for r in rows),
        b2=tuple(Fraction(b) for b in b2),
        lower=zero + tuple(Fraction(math.floor(v) - rng.randint(0, 2)) for v in y_step),
        upper=zero + tuple(Fraction(math.ceil(v) + rng.randint(0, 2)) for v in y_step))
    return bfs_from_direction(inst, w), n1


def _check_cut(cone, tally):
    """The closed-form intersection cut equals the one the reference gets by
    solving the rays for it, on a free set around the cone's vertex, and
    stays the same when each ray and each facet is scaled by a positive int."""
    rng = random.Random(repr(cone))        # a fixed free set per cone
    free_set, n1 = _free_set_around(cone.vertex, rng)
    want = reference_intersection_cut(cone, free_set, n1)
    scaled = replace(cone, rays=tuple(tuple((q + 2) * v for v in ray)
                                      for q, ray in enumerate(cone.rays)),
                     facets=tuple(tuple((2 * q + 3) * v for v in facet)
                                  for q, facet in enumerate(cone.facets)))
    try:
        cut = intersection_cut(cone, free_set, n1)
    except ConeContainedError:
        assert want is None
        with pytest.raises(ConeContainedError):
            intersection_cut(scaled, free_set, n1)
        tally["cone contained"] += 1
        return
    assert (cut.alpha_x, cut.alpha_y, cut.beta) == want
    assert cut_violation(cut, Point(cone.vertex[:n1], cone.vertex[n1:])) > 0
    assert intersection_cut(scaled, free_set, n1).key() == cut.key()
    tally["cuts"] += 1


def _scale_normal_form(cone):
    """The cone with each facet scaled to coprime ints and each ray to meet
    its own facet at 1; two cones with the same form are the same cone."""
    if cone == "degenerate":
        return cone
    facets, rays = [], []
    for facet, ray in zip(cone.facets, cone.rays):
        ints = [int(v * math.lcm(*(Fraction(u).denominator for u in facet))) for v in facet]
        facet = tuple(v // math.gcd(*ints) for v in ints)
        facets.append(facet)
        rays.append(tuple(Fraction(v) / dot(facet, ray) for v in ray))
    return replace(cone, rays=tuple(rays), facets=tuple(facets))


def _check_recovery(prob, sol, tally):
    """exact_primal, extract_cone and tight_bound_supports agree with the
    reference in both call orders, cones compared in their scale normal
    form; facet p meets ray q at 0 for p != q and at a positive int for
    p = q; and the cone's intersection cut matches the reference and cuts
    off the vertex, exactly.  The outcome kinds go into ``tally``."""
    vertex = _outcome(reference_exact_primal, prob, sol)
    cone = _scale_normal_form(_outcome(reference_extract_cone, prob, sol))
    fresh = LpSolution(sol.status, col_status=sol.col_status)
    assert exact_primal(prob, fresh) == vertex
    assert _scale_normal_form(_outcome(extract_cone, prob, fresh)) == cone
    fresh = LpSolution(sol.status, col_status=sol.col_status)
    got = _outcome(extract_cone, prob, fresh)
    assert _scale_normal_form(got) == cone
    assert exact_primal(prob, fresh) == vertex
    if cone == "degenerate":
        tally["degenerate"] += 1
    else:
        assert tight_bound_supports(prob, fresh) == cone.bound_supports
        meets = [[dot(f, r) for r in got.rays] for f in got.facets]
        for p, row in enumerate(meets):
            assert all(type(v) is int for v in got.facets[p] + got.rays[p])
            assert all(v == 0 for q, v in enumerate(row) if q != p) and row[p] > 0
        _check_cut(got, tally)
        tally["bound rays"] += len(cone.bound_supports) > 0
        tally["upper bound rays"] += any(up for _, up in cone.bound_supports)
        tally["infeasible vertex" if vertex is None else "vertex"] += 1


def _random_basis(rng, prob):
    """An Optimal solution whose n nonbasic members, as in any solver basis,
    are drawn at random from the rows and the bounds."""
    n, m = prob.n, prob.m
    status = [BASIC] * (n + m)
    for idx in rng.sample(range(n + m), n):
        status[idx] = rng.choice((AT_LOWER, AT_UPPER)) if idx < n else AT_LOWER
    return LpSolution(LpStatus.OPTIMAL, col_status=status)


def _check_random_bases(rng, make_lp, trials):
    tally = Counter()
    for _ in range(trials):
        prob = make_lp(rng)
        sol = solve_lp(prob)
        if sol.status is LpStatus.OPTIMAL:
            _check_recovery(prob, sol, tally)
            tally["solved"] += 1
        for _ in range(4):
            _check_recovery(prob, _random_basis(rng, prob), tally)
    return tally


def _rational(rng, lo, hi):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 7))


def test_recovery_matches_reference_integer_rows():
    tally = _check_random_bases(random.Random(3), random_lp, 150)
    assert tally["solved"] > 30 and tally["vertex"] > 50
    assert tally["degenerate"] > 30 and tally["infeasible vertex"] > 50
    assert tally["bound rays"] > 50
    assert tally["upper bound rays"] > 50 and tally["cuts"] > 200


def test_recovery_matches_reference_rational_rows_and_bounds():
    def make(rng):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        lower = [_rational(rng, -6, 3) for _ in range(n)]
        return LpProblem([_rational(rng, -5, 5) for _ in range(n)],
                         [[_rational(rng, -9, 9) for _ in range(n)] for _ in range(m)],
                         [_rational(rng, -9, 6) for _ in range(m)],
                         lower, [lo + _rational(rng, 0, 9) for lo in lower])
    tally = _check_random_bases(random.Random(5), make, 120)
    assert tally["solved"] > 20 and tally["vertex"] > 40
    assert tally["infeasible vertex"] > 50
    assert tally["upper bound rays"] > 50 and tally["cuts"] > 200


def test_recovery_matches_reference_cut_like_rows():
    # pooled intersection cuts are integer rows with coefficients up to ~1e11
    def make(rng):
        n = rng.randint(2, 4)
        prob = random_lp(rng, n=n)
        centre = [Fraction(rng.randint(0, 3)) for _ in range(n)]
        for _ in range(rng.randint(1, 3)):
            row = [rng.choice((-1, 1)) * rng.randint(10**10, 3 * 10**11) for _ in range(n)]
            prob = prob.with_extra_rows([row], [dot(row, centre) - rng.randint(0, 10**10)])
        return prob
    tally = _check_random_bases(random.Random(18), make, 120)
    assert tally["solved"] > 20 and tally["vertex"] > 20
    assert tally["infeasible vertex"] > 50
    assert tally["upper bound rays"] > 50 and tally["cuts"] > 200


def test_cut_like_rows_solve_to_certified_answers():
    # rows of |coef| 1e10-3e11 around an integer point, as pooled cuts are:
    # their float image is scaled by powers of two, so every LP settles and
    # every optimal vertex is exactly feasible
    rng = random.Random(18)
    statuses = Counter()
    for _ in range(1000):
        n = rng.randint(2, 4)
        prob = random_lp(rng, n=n)
        centre = [Fraction(rng.randint(0, 3)) for _ in range(n)]
        for _ in range(rng.randint(1, 3)):
            row = [rng.choice((-1, 1)) * rng.randint(10**10, 3 * 10**11) for _ in range(n)]
            prob = prob.with_extra_rows([row], [dot(row, centre) - rng.randint(0, 10**10)])
        sol = solve_lp(prob)
        statuses[sol.status] += 1
        if sol.status is LpStatus.OPTIMAL:
            assert exact_primal(prob, sol) is not None
    assert set(statuses) == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}
    assert statuses[LpStatus.OPTIMAL] > 200


def test_recovery_matches_reference_degenerate_vertices():
    # several rows and bounds through one point: n of them drawn as the
    # tight set, some choices rank deficient
    rng = random.Random(36)
    tally = Counter()
    for _ in range(150):
        n = rng.randint(2, 3)
        point = [Fraction(rng.randint(0, 3)) for _ in range(n)]
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(n, n + 2))]
        rows.append([2 * v for v in rows[0]])
        prob = LpProblem([rng.randint(-3, 3) for _ in range(n)], rows,
                         [dot(r, point) for r in rows], [Fraction(0)] * n,
                         [v if rng.random() < 0.5 else v + 2 for v in point])
        sol = solve_lp(prob)
        if sol.status is LpStatus.OPTIMAL:
            _check_recovery(prob, sol, tally)
        status = [BASIC] * (n + prob.m)
        through = [n + i for i in range(prob.m)]
        through += [j for j in range(n) if point[j] == prob.upper[j]]
        for k in rng.sample(through, n):
            status[k] = AT_UPPER if k < n else AT_LOWER
        _check_recovery(prob, LpSolution(LpStatus.OPTIMAL, col_status=status), tally)
    assert tally["vertex"] > 80 and tally["degenerate"] > 20
    assert tally["upper bound rays"] > 50 and tally["cuts"] > 200


def test_recovery_refuses_a_status_without_n_nonbasic_columns():
    # x + y >= 2 twice, with neither copy's surplus column basic and x at its
    # upper bound 3 as well: n + 1 = 3 tight members, which no solver basis
    # leaves; n - 1 members are refused too
    prob = LpProblem([1, 1], [[1, 1], [1, 1], [1, -1]], [2, 2, -4], [0, 0], [3, 5])
    for status in ([AT_UPPER, BASIC, AT_LOWER, AT_LOWER, BASIC],
                   [BASIC, BASIC, AT_LOWER, BASIC, BASIC]):
        sol = LpSolution(LpStatus.OPTIMAL, col_status=status)
        assert exact_primal(prob, sol) is None
        with pytest.raises(DegenerateConeError):
            extract_cone(prob, sol)
        with pytest.raises(DegenerateConeError):
            tight_bound_supports(prob, sol)


def test_recovery_of_a_basis_whose_vertex_violates_a_row():
    # x, y at their lower bounds claim (0, 0), which violates the slack-basic
    # row x + y >= 1: no certified vertex, though the cone is still defined
    prob = LpProblem([1, 1], [[1, 1], [1, -1]], [1, -5], [0, 0], [4, 4])
    status = [AT_LOWER, AT_LOWER, BASIC, BASIC]
    tally = Counter()
    _check_recovery(prob, LpSolution(LpStatus.OPTIMAL, col_status=status), tally)
    assert tally["infeasible vertex"] == 1
    sol = LpSolution(LpStatus.OPTIMAL, col_status=status)
    assert exact_primal(prob, sol) is None
    assert extract_cone(prob, sol).vertex == (0, 0)


def test_recovery_cache_is_per_problem():
    prob = LpProblem([1, 1], [[1, 1]], [1], [0, 0], [5, 5])
    sol = LpSolution(LpStatus.OPTIMAL, col_status=[AT_LOWER, BASIC, AT_LOWER])
    assert exact_primal(prob, sol) == [0, 1]
    shifted = prob.with_bounds([Fraction(1, 2), 0], [5, 5])
    assert exact_primal(shifted, sol) == [Fraction(1, 2), Fraction(1, 2)]
    assert extract_cone(shifted, sol).vertex == (Fraction(1, 2), Fraction(1, 2))


def test_non_optimal_solution_is_refused():
    prob = LpProblem([1], [[1]], [2], [0], [1])
    sol = solve_lp(prob)
    assert sol.status is LpStatus.INFEASIBLE
    with pytest.raises(ValueError):
        exact_primal(prob, sol)
    with pytest.raises(DegenerateConeError):
        extract_cone(prob, sol)


# -- pivoting paths the corpus barely reaches ---------------------------------


def test_refactoring_after_every_pivot(monkeypatch):
    monkeypatch.setattr(simplex, "REFACTOR_INTERVAL", 1)
    _check_against_vertex_enumeration()


def test_tiny_pivot_refactors(monkeypatch):
    # a pivot element below PIVOT_TOL rebuilds B^-1 from the new basis
    update = simplex._Simplex._update_binv

    def tiny_pivot(self, u, p):
        return update(self, u[:p] + [0.0] + u[p + 1:], p)

    monkeypatch.setattr(simplex._Simplex, "_update_binv", tiny_pivot)
    _check_against_vertex_enumeration()


def test_singular_basis_is_unstable_not_optimal(monkeypatch):
    prob = LpProblem([1, 1], [[1, 2], [2, 4], [1, -1]], [1, 2, -3], [0, 0], [5, 5])
    engine = simplex._Simplex(prob, [0.0, 0.0], [5.0, 5.0])
    engine.basis = [0, 1, 3]
    assert engine._refactor()
    assert all(abs(sum(a * b for a, b in zip(row, engine._column(j))) - (i == k)) < 1e-12
               for i, row in enumerate(engine.binv) for k, j in enumerate(engine.basis))
    # x and y alone span only one direction of the first two rows, and a
    # repeated column is singular too
    for basis in ([0, 1, 4], [4, 1, 0], [2, 3, 3]):
        engine.basis = basis
        assert not engine._refactor()
    near = LpProblem([1, 1], [[1, 1], [1, 1 + 1e-12]], [1, 1], [0, 0], [5, 5])
    engine = simplex._Simplex(near, [0.0, 0.0], [5.0, 5.0])
    engine.basis = [0, 1]
    assert not engine._refactor()
    # every pivot lands on a singular basis: an LP that needs one is
    # Unstable, and only LPs whose slack basis is already optimal get an answer
    monkeypatch.setattr(simplex._Simplex, "_refactor", lambda self: False)
    monkeypatch.setattr(simplex._Simplex, "_update_binv",
                        lambda self, u, p: self._refactor())
    rng = random.Random(42)
    statuses = Counter()
    for _ in range(60):
        prob = random_lp(rng)
        sol = solve_lp(prob)
        statuses[sol.status] += 1
        if sol.status is not LpStatus.UNSTABLE:
            status, value, _ = lp_vertex_optimum(prob)
            assert sol.status.value == status
            assert status != "optimal" or dot(prob.objective, exact_primal(prob, sol)) == value
    assert statuses[LpStatus.UNSTABLE] > 20


def _proved_optimal(prob, sol):
    """Exact vertex and dual multipliers from the basis, checked to satisfy
    primal feasibility, dual feasibility and complementary slackness."""
    n = prob.n
    x = exact_primal(prob, sol)
    assert x is not None
    tight = [i for i in range(prob.m) if sol.col_status[n + i] != BASIC]
    basic = [j for j in range(n) if sol.col_status[j] == BASIC]
    assert len(tight) == len(basic)
    lam = solve_vector([[Fraction(prob.rows[i][j]) for i in tight] for j in basic],
                       [Fraction(prob.objective[j]) for j in basic])
    assert lam is not None and all(v >= 0 for v in lam)
    assert all(dot(prob.rows[i], x) == prob.rhs[i] for i, v in zip(tight, lam) if v)
    for j in range(n):
        d = prob.objective[j] - sum(v * prob.rows[i][j] for i, v in zip(tight, lam))
        assert d <= 0 or x[j] == prob.lower[j]
        assert d >= 0 or x[j] == prob.upper[j]
    return x


@pytest.mark.parametrize("m, n", [(15, 10), (12, 8), (6, 12), (14, 3)])
def test_larger_lps_than_the_corpus(m, n):
    # feasible by construction around an integer point, or made infeasible
    # by a contradictory pair of rows; optimality is proved by duality, and
    # by vertex enumeration where the C(m + 2n, n) candidate bases are few
    rng = random.Random(m * n)
    enumerate_bases = math.comb(m + 2 * n, n) <= 2000
    for trial in range(12):
        lower = [rng.randint(-3, 1) for _ in range(n)]
        upper = [lo + rng.randint(1, 6) for lo in lower]
        point = [rng.randint(lo, hi) for lo, hi in zip(lower, upper)]
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        rhs = [dot(row, point) - rng.randint(0, 6) for row in rows]
        infeasible = trial % 3 == 0
        if infeasible:
            rows[-1], rhs[-1] = [-v for v in rows[0]], 1 - rhs[0]
        prob = LpProblem([rng.randint(-5, 5) for _ in range(n)], rows, rhs, lower, upper)
        sol = solve_lp(prob)
        if enumerate_bases:
            status, value, _ = lp_vertex_optimum(prob)
            assert status == ("infeasible" if infeasible else "optimal")
        if infeasible:
            assert sol.status is LpStatus.INFEASIBLE
            continue
        assert sol.status is LpStatus.OPTIMAL
        x = _proved_optimal(prob, sol)
        assert abs(sol.objective - float(dot(prob.objective, x))) <= 1e-7
        assert not enumerate_bases or dot(prob.objective, x) == value
