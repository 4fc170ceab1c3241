"""Benchmark of the miblp solver: one workload per run, in one process.

    python3 bench/run.py --workload solve-id-milp --seed 1 --seconds 25 --trace 0

Workloads (see README.md):

    solve-id-milp    solve the corpus with the default SolverConfig()
    solve-id-ls-k2   solve the corpus with local search of radius 2
    oracle-queries   exact improving-direction queries at sampled points

A run builds the corpus (timed as ``setup_s``), recomputes the independent
enumeration reference outside every timed region, then repeats whole passes
over the workload's operations, in an order drawn from ``--seed``, until
``--seconds`` have elapsed.  Every output is checked against the reference;
an operation whose check fails counts in ``failed``.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics,
with ``--trace 1`` one with the per-layer metrics of a separate traced run.
Results and traces are also written under ``bench/out/``.
"""
from __future__ import annotations

import os

# single-threaded BLAS, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse      # noqa: E402
import dataclasses   # noqa: E402
import json          # noqa: E402
import math          # noqa: E402
import random        # noqa: E402
import resource      # noqa: E402
import statistics    # noqa: E402
import sys           # noqa: E402
import time          # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import miblp                                    # noqa: E402
from miblp import bnc, cuts, instance, milp, oracle, simplex  # noqa: E402

import corpus      # noqa: E402
import reference   # noqa: E402
import tracing     # noqa: E402

WORKLOADS = ("solve-id-milp", "solve-id-ls-k2", "oracle-queries")
SETUP_REPEATS = 9
SGM_SHIFT_MS = 1.0


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def shifted_geomean_ms(seconds):
    logs = [math.log(1000 * s + SGM_SHIFT_MS) for s in seconds]
    return math.exp(sum(logs) / len(logs)) - SGM_SHIFT_MS


# ---------------------------------------------------------------------------
# workloads: a list of operations, a call into the solver, and a check


class SolveWorkload:
    """Solve each corpus instance once per pass; check against enumeration."""

    def __init__(self, name, instances, refs):
        self.cfg = corpus.SOLVE_CONFIGS[name]
        self.ops = list(zip(instances, refs))

    def call(self, op):
        return bnc.solve(op[0], self.cfg)

    def check(self, op, res):
        inc = res.incumbent
        return reference.check_solve(op[1], res.status.value, res.value,
                                     inc.x if inc else None, inc.y if inc else None)


class QueryWorkload:
    """Exact direction query at each sampled point once per pass."""

    OUTCOMES = {"FOUND": "found", "NO_IMPROVING_DIRECTION": "none"}

    def __init__(self, instances, refs):
        self.cfg = corpus.QUERY_CONFIG
        self.ops = []
        for inst, ref, seed in zip(instances, refs, corpus.CORPUS_SEEDS):
            for x, y in corpus.sample_points(seed, ref):
                self.ops.append((inst, ref, instance.Point.make(x, y)))

    def call(self, op):
        return oracle.find_improving_direction(op[0], op[2], 0, self.cfg)

    def check(self, op, outcome):
        ref, point = op[1], op[2]
        kind = self.OUTCOMES.get(outcome.kind.name, outcome.kind.name)
        w = outcome.direction.w if outcome.direction is not None else None
        return reference.check_direction(ref, point.x, point.y, kind, w)


class MilpNodeCounter:
    """Sums MilpSolution.nodes over the direction-search MILPs; no timing."""

    def __init__(self, fn):
        self.fn = fn
        self.nodes = 0

    def __call__(self, *args, **kwargs):
        sol = self.fn(*args, **kwargs)
        self.nodes += sol.nodes
        return sol


def run_pass(workload, order):
    """One pass over every operation, in ``order``: per-op latencies (by op
    index), failed checks as (op index, reason), and the outputs."""
    lat = [0.0] * len(workload.ops)
    failures = []
    outputs = []
    for i in order:
        op = workload.ops[i]
        t0 = time.perf_counter()
        out = workload.call(op)
        lat[i] = time.perf_counter() - t0
        reason = workload.check(op, out)
        if reason is not None:
            failures.append((i, reason))
        outputs.append(out)
    return lat, failures, outputs


def passes(workload, rng, seconds, run_one):
    """Repeat whole passes until ``seconds`` have elapsed (at least one)."""
    done = []
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        order = list(range(len(workload.ops)))
        rng.shuffle(order)
        done.append(run_one(order))
    return done


# ---------------------------------------------------------------------------
# end-to-end metrics


def end_to_end(workload, rng, seconds, setup_s):
    """Untraced passes; returns (metrics, attempted, failures, deterministic).

    ``nodes`` is B&C nodes per pass on the solve workloads and direction-search
    MILP nodes per pass on oracle-queries."""
    counter = MilpNodeCounter(milp.solve_milp)
    is_query = isinstance(workload, QueryWorkload)

    def run_one(order):
        before = counter.nodes
        lat, failures, outputs = run_pass(workload, order)
        work = counter.nodes - before if is_query else sum(r.stats.nodes for r in outputs)
        return lat, failures, work

    with tracing.patched({milp.solve_milp: counter} if is_query else {}):
        done = passes(workload, rng, seconds, run_one)
    n_ops = len(workload.ops)
    per_op = [statistics.median(p[0][i] for p in done) for i in range(n_ops)]
    total_time = sum(sum(p[0]) for p in done)
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s": (sum(per_op), "s"),
        "solve_sgm_ms": (shifted_geomean_ms(per_op), "ms"),
        "nodes": (done[0][2], "count"),
        "queries_per_s": (n_ops * len(done) / total_time, "1/s"),
        "query_p50_us": (1e6 * percentile(per_op, 50), "us"),
        "query_p99_us": (1e6 * percentile(per_op, 99), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    failures = [f for p in done for f in p[1]]
    return metrics, n_ops * len(done), failures, len({p[2] for p in done}) == 1


# ---------------------------------------------------------------------------
# per-layer metrics

# span name -> (module, function, outcome classifier returning (tag, count))
LAYERS = {
    "simplex.solve_lp": (simplex, "solve_lp", lambda sol: (sol.status.name, sol.iterations)),
    "simplex.exact_primal": (simplex, "exact_primal",
                             lambda v: ("none" if v is None else "ok", 0)),
    "simplex.extract_cone": (simplex, "extract_cone", None),
    "milp.solve_milp": (milp, "solve_milp", lambda sol: (sol.status.name, sol.nodes)),
    "oracle.find_improving_direction": (oracle, "find_improving_direction",
                                        lambda out: (out.kind.name, 0)),
    "oracle.local_search_neighbors": (oracle, "local_search_neighbors",
                                      lambda out: (out.kind.name, 0)),
    "cuts.intersection_cut": (cuts, "intersection_cut", None),
    "bnc.solve": (bnc, "solve", lambda res: (res.status.name, 0)),
}

# substrings of the solver's trace lines (SolverConfig(trace=True)) per action
BNC_ACTIONS = {
    "prune.infeasible": "pruned-infeasible",
    "prune.bound": "pruned-bound",
    "prune.cone_contained": "pruned-cone-contained",
    "prune.exhausted": "pruned-exhausted",
    "branched": "branched on",
    "requeued": "requeued",
}
BNC_STATS = ("lp_solves", "oracle_calls", "cut_rounds", "certificates")


def layer_wrappers(tracer):
    """{original function: span-recording wrapper} for every layer."""
    out = {}
    for name, (module, attr, classify) in LAYERS.items():
        fn = getattr(module, attr)
        out[fn] = tracer.wrap(name, fn, classify)
    return out


def per_layer(workload, rng, seconds, setup_tracer):
    """One untraced pass, then traced passes until ``seconds`` have elapsed.

    Returns (metrics, tracer, attempted, failures).  Counts and times are per
    traced pass; the B&C action counts come from the solver's own trace lines,
    switched on for the traced passes only."""
    tracer = tracing.Tracer()
    is_solve = isinstance(workload, SolveWorkload)
    start = time.perf_counter()
    _, failures, _ = run_pass(workload, range(len(workload.ops)))
    untraced = time.perf_counter() - start
    solve_results = []

    def run_one(order):
        t0 = time.perf_counter()
        with tracer.span("bench.pass"):
            _, failed, outputs = run_pass(workload, order)
        failures.extend(failed)
        if is_solve:
            solve_results.extend(outputs)
        return time.perf_counter() - t0

    if is_solve:
        workload.cfg = dataclasses.replace(workload.cfg, trace=True)
    with tracing.patched(layer_wrappers(tracer)):
        walls = passes(workload, rng, seconds - untraced, run_one)
    k = len(walls)
    calls, self_t, tags, counts = tracer.calls, tracer.self_time, tracer.tags, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    parse = "instance.parse_instance"
    m = {
        f"{parse}.calls": (setup_tracer.calls[parse], "count"),
        f"{parse}.self_s": (setup_tracer.self_time[parse], "s"),
        f"{parse}.total_s": (setup_tracer.total[parse], "s"),
        f"{parse}.lp_calls": (setup_tracer.calls["simplex.solve_lp"], "count"),
    }
    for name in LAYERS:
        m[f"{name}.calls"] = (calls[name] / k, "count")
        m[f"{name}.self_s"] = (self_t[name] / k, "s")
    lp, cone, mp = "simplex.solve_lp", "simplex.extract_cone", "milp.solve_milp"
    fid, ls, ic = ("oracle.find_improving_direction", "oracle.local_search_neighbors",
                   "cuts.intersection_cut")
    m[f"{lp}.us_per_call"] = (1e6 * ratio(tracer.total[lp], calls[lp]), "us")
    m[f"{lp}.pivots"] = (counts[lp] / k, "count")
    m[f"{lp}.infeasible"] = (tags[lp]["INFEASIBLE"] / k, "count")
    m[f"{lp}.unstable"] = (tags[lp]["UNSTABLE"] / k, "count")
    m["simplex.exact_primal.failed"] = (tags["simplex.exact_primal"]["none"] / k, "count")
    m[f"{cone}.degenerate"] = (tags[cone]["DegenerateConeError"] / k, "count")
    m[f"{cone}.useful_ratio"] = (ratio(calls[ic], tags[cone]["ok"]), "ratio")
    m[f"{mp}.nodes"] = (counts[mp] / k, "count")
    m[f"{mp}.nodes_per_call"] = (ratio(counts[mp], calls[mp]), "count")
    m[f"{mp}.errors"] = (tags[mp]["MilpError"] / k, "count")
    for metric, tag in (("found", "FOUND"), ("no_direction", "NO_IMPROVING_DIRECTION"),
                        ("exhausted", "HEURISTIC_EXHAUSTED"),
                        ("inconclusive", "OracleInconclusive")):
        m[f"{fid}.{metric}"] = (tags[fid][tag] / k, "count")
    m[f"{ls}.hit_ratio"] = (ratio(tags[ls]["FOUND"], calls[ls]), "ratio")
    m[f"{ic}.not_separable"] = (tags[ic]["NotSeparableError"] / k, "count")
    m[f"{ic}.cone_contained"] = (tags[ic]["ConeContainedError"] / k, "count")

    totals = dict.fromkeys(("cuts",) + BNC_STATS + tuple(BNC_ACTIONS), 0)
    for res in solve_results:
        totals["cuts"] += res.stats.cuts_idic + res.stats.cuts_isic
        for key in BNC_STATS:
            totals[key] += getattr(res.stats, key)
        for line in res.trace:
            for key, needle in BNC_ACTIONS.items():
                if needle in line:
                    totals[key] += 1
    for key, v in totals.items():
        m[f"bnc.{key}"] = (v / k, "count")

    traced = statistics.median(walls)
    m["bench.self_s"] = (self_t["bench.pass"] / k, "s")
    m["trace.pass_s"] = (traced, "s")
    m["trace.untraced_pass_s"] = (untraced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    m["trace.unaccounted_s"] = ((sum(walls) - sum(self_t.values())) / k, "s")
    return m, tracer, (k + 1) * len(workload.ops), failures


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(miblp.__file__).resolve().parent != SRC / "miblp":
        sys.exit(f"error: imported miblp from {miblp.__file__}, not from {SRC}")

    generated = [corpus.generate(s) for s in corpus.CORPUS_SEEDS]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        instances = corpus.read_all(corpus.write_all(generated))
        setup_times.append(time.perf_counter() - t0)
    setup_tracer = tracing.Tracer()
    if args.trace:
        wrappers = layer_wrappers(setup_tracer)
        wrappers[instance.parse_instance] = setup_tracer.wrap(
            "instance.parse_instance", instance.parse_instance)
        with tracing.patched(wrappers):
            corpus.read_all(corpus.write_all(generated))

    refs = [reference.Enumeration(inst) for inst in instances]
    workload = (QueryWorkload(instances, refs) if args.workload == "oracle-queries"
                else SolveWorkload(args.workload, instances, refs))
    rng = random.Random(args.seed)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deterministic = True
    if args.trace:
        metrics, tracer, attempted, failures = per_layer(
            workload, rng, args.seconds, setup_tracer)
        tracer.write_jsonl(OUT / f"trace-{stem}.jsonl")
    else:
        metrics, attempted, failures, deterministic = end_to_end(
            workload, rng, args.seconds, statistics.median(setup_times))
    for i, reason in failures[:10]:
        print(f"FAILED op {i}: {reason}", file=sys.stderr)
    if not deterministic:
        print("work counts differ between passes", file=sys.stderr)

    result = {
        "correct": not failures and deterministic,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
