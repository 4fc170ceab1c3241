"""The committed benchmark records, ``BENCH_<n>.json`` at the repository root.

Each record holds, per workload of ``BENCHMARK.json``, the median, the
quartiles and the range of every end-to-end metric over alternating pairs
of runs of the parent and of the change, the corpus seeds, and the counts
of one traced run.  ``nodes`` repeats exactly from run to run, so the
newest record's change-side value is the node count of the current tree.
"""
import builtins
import json
import math
import re
from pathlib import Path

import pytest

from miblp import simplex
from miblp.bnc import SolverConfig, solve
from miblp.instance import generate_random_instance

from helpers import bench_corpus

ROOT = Path(__file__).parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"),
                 key=lambda p: int(re.fullmatch(r"BENCH_(\d+)\.json", p.name).group(1)))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")
STATS = ("median", "q1", "q3", "min", "max")


def test_a_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_schema(path):
    record = json.loads(path.read_text())
    assert record["command"].startswith("python3 bench/run.py")
    assert record["pairs"] >= 10 and record["seconds"] > 0
    corpus, defined = record["corpus"], bench_corpus()
    assert corpus["seeds"] == list(defined.CORPUS_SEEDS)
    assert [corpus[k] for k in ("n1", "n2", "m1", "m2", "bound")] == \
        [defined.N1, defined.N2, defined.M1, defined.M2, defined.BOUND]
    metrics = [m["name"] for m in BENCHMARK["end_to_end"]]
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(record["workloads"]) == sorted(workloads)
    for name in workloads:
        entry = record["workloads"][name]
        for side in SIDES:
            assert sorted(entry[side]) == sorted(metrics), (name, side)
            for metric in metrics:
                s = entry[side][metric]
                assert all(isinstance(s[k], (int, float)) for k in STATS)
                assert s["min"] <= s["q1"] <= s["median"] <= s["q3"] <= s["max"]
            # a count repeats exactly, so its spread is nil
            assert entry[side]["nodes"]["min"] == entry[side]["nodes"]["max"]
        traced = record["traced"][name]
        for side in SIDES:
            assert traced[side]["correct"] is True
            assert all(isinstance(v, (int, float)) for v in traced[side]["counts"].values())


def _corpus_nodes(record, cfg=SolverConfig()):
    corpus = record["corpus"]
    family = corpus["n1"], corpus["n2"], corpus["m1"], corpus["m2"]
    return sum(solve(generate_random_instance(seed, *family, bound=corpus["bound"]),
                     cfg).stats.nodes for seed in corpus["seeds"])


def test_newest_record_counts_the_current_tree():
    record = json.loads(RECORDS[-1].read_text())
    assert _corpus_nodes(record) == record["workloads"]["solve-id-milp"]["change"]["nodes"]["median"]


def _fsum_of_floats(values, start=0):
    values = list(values)
    if isinstance(start, float) or any(isinstance(v, float) for v in values):
        return math.fsum(values) + start
    return builtins.sum(values, start)


def test_the_tree_does_not_read_float_summation_noise(monkeypatch):
    """The built-in float sum is compensated since Python 3.12, which once
    broke an exact tie in the simplex's ratio test the other way and grew
    the corpus tree; with every float sum in ``simplex`` taken by
    ``math.fsum``, both solve workloads take the newest record's trees.
    ``tests/test_simplex.py`` guards the tie itself, which these trees no
    longer reach."""
    record = json.loads(RECORDS[-1].read_text())
    configs = bench_corpus().SOLVE_CONFIGS
    monkeypatch.setattr(simplex, "sum", _fsum_of_floats, raising=False)
    for name, cfg in configs.items():
        assert _corpus_nodes(record, cfg) == \
            record["workloads"][name]["change"]["nodes"]["median"], name
