"""Configuration-matrix benchmark runner and profile curves.

``run_matrix`` solves every (instance, configuration) pair sequentially and
appends each record to the CSV as it finishes, flushing after each row so a
crash loses at most the in-flight run.  The profile functions turn a
pile of records into step curves: classic performance profiles (ratio to the
virtual best), baseline profiles (ratio to one named configuration), and
cumulative curves (fraction solved over time on the left, fraction within a
final gap on the right; the two sides meet at the time limit).

Instances that no configuration solved are dropped, as are instances where
every configuration finished faster than a threshold (too easy to rank;
default 0.05 seconds at desk scale).  A configuration that failed to solve a
retained instance is right-censored at ratio +inf: it inflates the instance
count without ever lifting the curve.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .bnc import SolveStatus, SolverConfig, solve
from .instance import MiblpInstance

DEFAULT_TIME_FILTER = 0.05

_STATUS_NAMES = {
    SolveStatus.OPTIMAL: "Optimal",
    SolveStatus.INFEASIBLE: "Infeasible",
    SolveStatus.LIMIT_REACHED: "LimitReached",
}


@dataclass(frozen=True)
class RunRecord:
    instance: str
    config: str
    status: str
    wall_s: float
    cpu_s: float
    nodes: int
    ifd_total_s: float
    ifd_avg_s: float
    gap: float

    def solved(self) -> bool:
        return self.status == "Optimal"


_NUMERIC = {"wall_s": float, "cpu_s": float, "nodes": int,
            "ifd_total_s": float, "ifd_avg_s": float, "gap": float}
CSV_HEADER = [f.name for f in fields(RunRecord)]


def record_to_row(rec: RunRecord) -> list[str]:
    return [str(getattr(rec, name)) for name in CSV_HEADER]


def record_from_row(row: list[str]) -> RunRecord:
    if len(row) != len(CSV_HEADER):
        raise ValueError(f"{len(row)} fields, expected {len(CSV_HEADER)}")
    vals = {}
    for name, raw in zip(CSV_HEADER, row):
        conv = _NUMERIC.get(name)
        vals[name] = raw if conv is None else conv(raw)
    statuses = (*_STATUS_NAMES.values(), "Error")
    if vals["status"] not in statuses:
        raise ValueError(f"unknown status {vals['status']!r}, expected one of "
                         + ", ".join(statuses))
    return RunRecord(**vals)


def read_records(path) -> list[RunRecord]:
    """The records of a CSV written by ``run_matrix``; a row of the wrong
    length or with a malformed number raises ValueError naming its line."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    records = []
    for line, row in enumerate(rows, 1):
        if row and not (line == 1 and row == CSV_HEADER):
            try:
                records.append(record_from_row(row))
            except ValueError as exc:
                raise ValueError(f"{path}, line {line}: {exc}") from None
    return records


def _run_one(name: str, inst: MiblpInstance, config_name: str,
             cfg: SolverConfig) -> RunRecord:
    t_wall = time.perf_counter()
    t_cpu = time.process_time()
    try:
        res = solve(inst, cfg)
        status = _STATUS_NAMES[res.status]
        nodes, gap = res.stats.nodes, res.gap
        ifd, calls = res.stats.oracle_time, res.stats.oracle_calls
    except Exception:
        status, nodes, gap, ifd, calls = "Error", 0, math.inf, 0.0, 0
    wall = time.perf_counter() - t_wall
    cpu = time.process_time() - t_cpu
    return RunRecord(name, config_name, status, wall, cpu, nodes,
                     ifd, ifd / max(1, calls), gap)


def run_matrix(instances, configurations, csv_path=None) -> list[RunRecord]:
    """Solve every instance under every configuration, one run at a time.

    ``instances`` is a sequence of (name, MiblpInstance) pairs and
    ``configurations`` of (name, SolverConfig) pairs.  A failing run becomes
    an Error record rather than aborting the matrix.  Records return, and
    reach the CSV, in job order.
    """
    records = []
    writer = fh = None
    if csv_path is not None:
        path = Path(csv_path)
        fresh = not path.exists() or path.stat().st_size == 0
        fh = open(path, "a", newline="")
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(CSV_HEADER)
            fh.flush()
    try:
        for iname, inst in instances:
            for cname, cfg in configurations:
                rec = _run_one(iname, inst, cname, cfg)
                records.append(rec)
                if writer is not None:
                    writer.writerow(record_to_row(rec))
                    fh.flush()
    finally:
        if fh is not None:
            fh.close()
    return records


@dataclass
class ProfileTable:
    measure: str
    curves: dict           # curve name -> tuple of (x, fraction) step points
    n_instances: int
    censored: dict         # curve name -> count of +inf (right-censored) points
    annotations: dict      # e.g. better/worse fractions vs a baseline


def _by_instance(records) -> dict[str, dict[str, RunRecord]]:
    table: dict[str, dict[str, RunRecord]] = {}
    for rec in records:
        table.setdefault(rec.instance, {})[rec.config] = rec
    return table


def _measure_value(rec: RunRecord, measure: str) -> float:
    return float(getattr(rec, measure))


def _filtered_instances(table, time_filter: float):
    """Apply the shared profile filters; returns instance names kept."""
    kept = []
    for name, per_cfg in sorted(table.items()):
        if not any(rec.solved() for rec in per_cfg.values()):
            continue
        if all(rec.wall_s < time_filter for rec in per_cfg.values()):
            continue
        kept.append(name)
    return kept


def _cdf(ratios) -> tuple:
    finite = sorted(r for r in ratios if not math.isinf(r))
    n = len(ratios)
    points = []
    for i, r in enumerate(finite, start=1):
        if points and points[-1][0] == r:
            points[-1] = (r, i / n)
        else:
            points.append((r, i / n))
    return tuple(points)


def _ratio_profile(records, measure: str, time_filter: float, kind: str, reference):
    """The CDFs of measure / ``reference(records of an instance by config)``
    per configuration over the kept instances, and the ratios behind them.
    An instance a configuration did not solve is censored at +inf; where it
    did, a reference of None scores 0, and a zero reference 1 or +inf."""
    if measure not in _NUMERIC:
        raise ValueError(f"unknown measure {measure!r}; choose from "
                         f"{sorted(_NUMERIC)}")
    table = _by_instance(records)
    configs = sorted({rec.config for rec in records})
    if len(configs) < 2:
        raise ValueError(f"{kind} profiles need at least two configurations")
    kept = _filtered_instances(table, time_filter)
    ratios = {c: [] for c in configs}
    for name in kept:
        ref = reference(table[name])
        for c in configs:
            rec = table[name].get(c)
            if rec is None or not rec.solved():
                ratios[c].append(math.inf)
                continue
            v = _measure_value(rec, measure)
            if ref is None:
                ratios[c].append(0.0)
            elif ref == 0:
                ratios[c].append(1.0 if v == 0 else math.inf)
            else:
                ratios[c].append(v / ref)
    curves = {c: _cdf(rs) for c, rs in ratios.items()}
    censored = {c: sum(math.isinf(r) for r in rs) for c, rs in ratios.items()}
    return ProfileTable(measure, curves, len(kept), censored, {}), ratios


def performance_profile(records, measure: str,
                        time_filter: float = DEFAULT_TIME_FILTER) -> ProfileTable:
    """CDFs of measure / virtual-best per configuration."""
    def best(per_cfg):
        return min(_measure_value(r, measure) for r in per_cfg.values() if r.solved())

    return _ratio_profile(records, measure, time_filter, "performance", best)[0]


def baseline_profile(records, measure: str, baseline: str,
                     time_filter: float = DEFAULT_TIME_FILTER) -> ProfileTable:
    """CDFs of measure / baseline's measure, with better/worse fractions; a
    configuration solving an instance the baseline did not scores 0."""
    if baseline not in {rec.config for rec in records}:
        raise ValueError(f"baseline configuration {baseline!r} has no records")

    def base(per_cfg):
        rec = per_cfg.get(baseline)
        return _measure_value(rec, measure) if rec is not None and rec.solved() else None

    profile, ratios = _ratio_profile(records, measure, time_filter, "baseline", base)
    n = profile.n_instances
    for c, rs in ratios.items():
        if c != baseline and n:
            profile.annotations[c] = {"better": sum(r < 1 for r in rs) / n,
                                      "worse": sum(r > 1 for r in rs) / n}
    return profile


def cumulative_profile(records) -> ProfileTable:
    """Solved-fraction over time and fraction within a final gap.

    Curve ``<config>.time`` gives (seconds, fraction solved by then); curve
    ``<config>.gap`` gives (g, fraction finishing with gap <= g).  The time
    curve's plateau equals the gap curve's value at g = 0, so the two sides
    of the plot join.
    """
    table = _by_instance(records)
    configs = sorted({rec.config for rec in records})
    n = len(table)
    curves = {}
    censored = {}
    for c in configs:
        recs = [per_cfg[c] for per_cfg in table.values() if c in per_cfg]
        # unsolved and missing records are censored at +inf, so both curves
        # share the instance count as denominator and the plateau property holds
        missing = [math.inf] * (n - len(recs))
        times = [r.wall_s if r.solved() else math.inf for r in recs] + missing
        gaps = [r.gap for r in recs] + missing
        for kind, values in (("time", times), ("gap", gaps)):
            curves[f"{c}.{kind}"] = _cdf(values)
            censored[f"{c}.{kind}"] = sum(math.isinf(v) for v in values)
    return ProfileTable("cumulative", curves, n, censored, {})


def write_profile_data(profile: ProfileTable, directory, prefix: str = "profile"):
    """Write each curve as a two-column gnuplot data file; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, points in sorted(profile.curves.items()):
        safe = "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in name)
        path = directory / f"{prefix}_{safe}.dat"
        with open(path, "w") as fh:
            fh.write(f"# measure={profile.measure} curve={name} "
                     f"instances={profile.n_instances}\n")
            cens = profile.censored.get(name, 0)
            if cens:
                fh.write(f"# right-censored at +inf: {cens}\n")
            for x, y in points:
                fh.write(f"{x:.9g} {y:.9g}\n")
        paths.append(path)
    return paths
