import math
from dataclasses import replace
from fractions import Fraction

import pytest

from miblp.bench import (CSV_HEADER, ProfileTable, RunRecord,
                         baseline_profile, cumulative_profile,
                         performance_profile, read_records, record_from_row,
                         record_to_row, run_matrix, write_profile_data)
from miblp.bnc import SolverConfig
from miblp.instance import parse_instance


def rec(instance, config, status="Optimal", wall=1.0, gap=0.0):
    return RunRecord(instance=instance, config=config, status=status,
                     wall_s=wall, cpu_s=wall, nodes=3, ifd_total_s=0.1,
                     ifd_avg_s=0.01, gap=gap)


FIXTURE = [
    rec("i1", "A", wall=1.0), rec("i1", "B", wall=2.0),
    rec("i2", "A", wall=4.0), rec("i2", "B", wall=2.0),
    rec("i3", "B", wall=1.0),                       # A has no record on i3
]


def test_performance_profile_fixture():
    prof = performance_profile(FIXTURE, "wall_s", time_filter=0.0)
    assert prof.n_instances == 3
    assert prof.curves["A"] == ((1.0, 1 / 3), (2.0, 2 / 3))
    assert prof.curves["B"] == ((1.0, 2 / 3), (2.0, 1.0))
    assert prof.censored == {"A": 1, "B": 0}


def test_baseline_profile_fixture():
    prof = baseline_profile(FIXTURE, "wall_s", baseline="B", time_filter=0.0)
    assert prof.curves["A"] == ((0.5, 1 / 3), (2.0, 2 / 3))
    assert prof.curves["B"] == ((1.0, 1.0),)
    assert prof.censored["A"] == 1
    assert prof.annotations == {"A": {"better": 1 / 3, "worse": 2 / 3}}


def test_cumulative_profile_fixture():
    prof = cumulative_profile(FIXTURE)
    assert prof.n_instances == 3
    assert prof.curves["A.time"] == ((1.0, 1 / 3), (4.0, 2 / 3))
    assert prof.curves["B.time"] == ((1.0, 1 / 3), (2.0, 1.0))
    assert prof.curves["A.gap"] == ((0.0, 2 / 3),)
    assert prof.curves["B.gap"] == ((0.0, 1.0),)
    # the time plateau meets the gap curve at zero
    assert prof.curves["A.time"][-1][1] == prof.curves["A.gap"][0][1]
    assert prof.censored["A.time"] == prof.censored["A.gap"] == 1


def test_profile_filters():
    fast = [rec("i1", "A", wall=0.001), rec("i1", "B", wall=0.002)]
    prof = performance_profile(fast, "wall_s")      # default 0.05s filter
    assert prof.n_instances == 0 and prof.curves["A"] == ()
    unsolved = [rec("i1", "A", status="LimitReached", gap=math.inf),
                rec("i1", "B", status="LimitReached", gap=math.inf),
                rec("i2", "A", wall=1.0), rec("i2", "B", wall=3.0)]
    prof = performance_profile(unsolved, "wall_s", time_filter=0.0)
    assert prof.n_instances == 1
    assert prof.curves["A"] == ((1.0, 1.0),)
    assert prof.curves["B"] == ((3.0, 1.0),)


def test_equal_configs_step_at_one():
    records = [rec(f"i{k}", c, wall=2.0) for k in range(4) for c in "AB"]
    prof = performance_profile(records, "wall_s", time_filter=0.0)
    assert prof.curves["A"] == prof.curves["B"] == ((1.0, 1.0),)
    base = baseline_profile(records, "wall_s", baseline="A", time_filter=0.0)
    assert base.curves["B"] == ((1.0, 1.0),)
    assert base.annotations["B"] == {"better": 0.0, "worse": 0.0}


def test_twice_as_slow_baseline():
    records = []
    for k in range(3):
        records.append(rec(f"i{k}", "fast", wall=1.0))
        records.append(rec(f"i{k}", "slow", wall=2.0))
    prof = baseline_profile(records, "wall_s", baseline="slow", time_filter=0.0)
    assert prof.curves["fast"] == ((0.5, 1.0),)
    assert prof.annotations["fast"] == {"better": 1.0, "worse": 0.0}


def test_profile_errors():
    with pytest.raises(ValueError):
        performance_profile(FIXTURE, "bogus")
    with pytest.raises(ValueError):
        performance_profile([rec("i1", "A")], "wall_s")
    with pytest.raises(ValueError):
        baseline_profile(FIXTURE, "wall_s", baseline="missing")


def test_curves_are_cdfs():
    for prof in (performance_profile(FIXTURE, "wall_s", time_filter=0.0),
                 baseline_profile(FIXTURE, "wall_s", baseline="B",
                                  time_filter=0.0),
                 cumulative_profile(FIXTURE)):
        for points in prof.curves.values():
            xs = [x for x, _ in points]
            ys = [y for _, y in points]
            assert xs == sorted(xs) and len(set(xs)) == len(xs)
            assert all(0.0 <= y <= 1.0 for y in ys)
            assert ys == sorted(ys)


def test_record_csv_round_trip():
    r = rec("i1", "A", status="LimitReached", wall=1.25, gap=math.inf)
    assert record_from_row(record_to_row(r)) == r
    assert len(CSV_HEADER) == len(record_to_row(r))


def test_run_matrix(moore_bard, tmp_path):
    csv_path = tmp_path / "runs.csv"
    instances = [("mb", moore_bard)]
    configs = [("a", SolverConfig()), ("b", SolverConfig(use_isic=True))]
    records = run_matrix(instances, configs, csv_path=csv_path)
    assert [(r.instance, r.config) for r in records] == [("mb", "a"), ("mb", "b")]
    assert all(r.solved() and r.gap == 0.0 and r.nodes > 0 for r in records)
    assert all(r.wall_s > 0 and r.cpu_s >= 0 and r.ifd_total_s >= 0
               for r in records)
    # appending a second matrix keeps a single header and all eight rows
    run_matrix(instances, configs, csv_path=csv_path)
    text = csv_path.read_text().strip().splitlines()
    assert sum(1 for line in text if line == ",".join(CSV_HEADER)) == 1
    assert len(read_records(csv_path)) == 4
    assert read_records(csv_path)[0].status == "Optimal"
    assert run_matrix([], configs) == []


def test_run_matrix_limit_and_error(moore_bard, tmp_path):
    records = run_matrix([("mb", moore_bard)],
                         [("tight", SolverConfig(node_limit=1))])
    assert records[0].status == "LimitReached"
    assert not records[0].solved()
    assert records[0].gap == math.inf
    # parsing refuses an unbounded relaxation, so build one past the gate
    unbounded = replace(parse_instance("""MIBLP 1
VARS 1 1 1 1
OBJ_UPPER 0 -1
OBJ_LOWER 1
BOUNDS 0 3 0 9
UPPER 0
LOWER 1
1 1 >= 4
"""), upper=(Fraction(3), None))
    records = run_matrix([("ub", unbounded)], [("a", SolverConfig())])
    assert records[0].status == "Error"
    assert math.isinf(records[0].gap)


def test_write_profile_data(tmp_path):
    prof = cumulative_profile(FIXTURE)
    paths = write_profile_data(prof, tmp_path, prefix="p")
    assert sorted(p.name for p in paths) == \
        ["p_A.gap.dat", "p_A.time.dat", "p_B.gap.dat", "p_B.time.dat"]
    text = (tmp_path / "p_A.time.dat").read_text().splitlines()
    assert text[0].startswith("# measure=cumulative curve=A.time instances=3")
    assert text[1] == "# right-censored at +inf: 1"
    data = [[float(a), float(b)] for a, b in
            (line.split() for line in text if not line.startswith("#"))]
    expect = [[1.0, 1 / 3], [4.0, 2 / 3]]
    assert len(data) == len(expect)
    for got, want in zip(data, expect):
        assert got[0] == want[0] and abs(got[1] - want[1]) < 1e-8
    empty = ProfileTable("wall_s", {"A": ()}, 0, {}, {})
    (path,) = write_profile_data(empty, tmp_path)
    assert path.read_text().startswith("# measure=wall_s")
