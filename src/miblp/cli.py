"""Command-line frontend.

Subcommands: ``solve`` runs the branch-and-cut solver, ``oracle`` queries the
improving-direction search at one point, ``kopt`` enumerates relaxation
levels or exports a follower-slice CSV, ``verify`` cross-checks a single
instance against brute-force enumeration, ``gen`` writes random instances,
and ``bench``/``profile`` drive the benchmark matrix and its profile curves.

Exit codes: 0 when the requested computation completed, 1 when it failed or
was cut short (limits, enumeration budget), 2 for usage and input errors.
Every command ends with a single machine-readable ``RESULT key=value`` line.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import bench as bench_mod
from . import bruteforce, kopt
from . import oracle as oracle_mod
from .bnc import OracleMode, SolveStatus, SolverConfig, solve
from .bruteforce import EnumerationBudgetError
from .instance import (InstanceError, MiblpInstance, Point,
                       generate_random_instance, parse_instance,
                       write_instance)
from .milp import MilpError, solve_milp
from .oracle import (DirectionMethod, DirectionObjective, OracleConfig,
                     OracleInconclusive, OutcomeKind)

BENCH_PRESETS = {
    "id-milp": SolverConfig(),
    "id-milp-k2": SolverConfig(oracle=OracleConfig(method=DirectionMethod.EXACT_MILP_K, k=2)),
    "id-ls-k2": SolverConfig(oracle=OracleConfig(method=DirectionMethod.LOCAL_SEARCH, k=2)),
    "id-ls-k2-w10": SolverConfig(oracle=OracleConfig(method=DirectionMethod.LOCAL_SEARCH,
                                                     k=2, depth_lb=10)),
    "legacy": SolverConfig(oracle_mode=OracleMode.LEGACY),
}


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _load(path: str) -> MiblpInstance:
    with open(path) as fh:
        text = fh.read()
    return parse_instance(text, name=Path(path).stem)


def _vector(parser, text: str) -> tuple:
    try:
        return tuple(Fraction(p) for chunk in text.split(",") for p in chunk.split())
    except (ValueError, ZeroDivisionError):
        parser.error(f"not a list of numbers: {text!r}")


def _fmt_vec(vec) -> str:
    return ",".join(str(v) for v in vec)


def _result_line(cmd: str, **kv):
    pairs = " ".join(f"{k}={v}" for k, v in kv.items())
    print(f"RESULT cmd={cmd} {pairs}")


def _depth_bound(text: str) -> float:
    if text == "inf":
        return math.inf
    return int(text)


def _add_oracle_flags(p: argparse.ArgumentParser):
    p.add_argument("--direction-method", choices=["milp", "milp-k", "local-search"],
                   default="milp")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--ls-depth-lb", type=int, default=None)
    p.add_argument("--ls-depth-ub", type=_depth_bound, default=None)
    p.add_argument("--obj", choices=["norm1", "idic", "steepest"], default="norm1")


def _oracle_config(parser: argparse.ArgumentParser, args) -> OracleConfig:
    method = DirectionMethod(args.direction_method)
    if args.k is not None and method is DirectionMethod.EXACT_MILP:
        parser.error("--k requires --direction-method milp-k or local-search")
    if method is not DirectionMethod.LOCAL_SEARCH and (
            args.ls_depth_lb is not None or args.ls_depth_ub is not None):
        parser.error("--ls-depth-lb/--ls-depth-ub require "
                     "--direction-method local-search")
    kwargs = {"method": method, "objective": DirectionObjective(args.obj)}
    if args.k is not None:
        kwargs["k"] = args.k
    if args.ls_depth_lb is not None:
        kwargs["depth_lb"] = args.ls_depth_lb
    if args.ls_depth_ub is not None:
        kwargs["depth_ub"] = args.ls_depth_ub
    try:
        return OracleConfig(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _solver_config(parser: argparse.ArgumentParser, args) -> SolverConfig:
    families = [f.strip() for f in args.cuts.split(",") if f.strip()]
    bad = set(families) - {"idic", "isic"}
    if bad or not families:
        parser.error("--cuts takes a non-empty subset of idic,isic")
    if args.oracle == "legacy" and args.direction_method != "milp":
        parser.error("--oracle legacy searches by the exact MILP only: no "
                     "--direction-method, --k or --ls-depth-lb/--ls-depth-ub")
    return SolverConfig(
        oracle_mode=OracleMode(args.oracle),
        oracle=_oracle_config(parser, args),
        use_idic="idic" in families,
        use_isic="isic" in families,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
        trace=args.trace is not None,
    )


# -- solve -----------------------------------------------------------------

def _cmd_solve(parser, args) -> int:
    cfg = _solver_config(parser, args)
    inst = _load(args.file)
    t0 = time.perf_counter()
    res = solve(inst, cfg)
    wall = time.perf_counter() - t0
    print(f"status: {res.status.value}")
    if res.incumbent is not None:
        print(f"incumbent: x={_fmt_vec(res.incumbent.x)} y={_fmt_vec(res.incumbent.y)}")
        print(f"value: {res.value}")
    print(f"bound: {res.bound:.9g}")
    print(f"gap: {res.gap:.9g}")
    rejects = res.stats.cut_rejects
    print(f"nodes: {res.stats.nodes} ({res.stats.propagated} more closed by propagation, "
          f"{res.stats.unsettled} unsettled)  "
          f"cuts: {res.stats.cuts_idic} idic, {res.stats.cuts_isic} isic (rejected: "
          + ", ".join(f"{n} {reason}" for reason, n in rejects.items()) + ")")
    print(f"oracle: {res.stats.oracle_calls} calls, "
          f"{res.stats.oracle_nodes} direction-MILP nodes, "
          f"{res.stats.oracle_time:.3f}s finding directions, "
          f"{res.stats.oracle_skipped} skipped, "
          f"{res.stats.pool_refutations} refuted from pool")
    print(f"fixed linking: {res.stats.linking_closed} boxes closed, "
          f"{res.stats.linking_nodes} value-function and leader MILP nodes")
    if args.trace is not None:
        Path(args.trace).write_text("\n".join(res.trace) + "\n")
        print(f"trace written to {args.trace}")
    _result_line("solve", instance=inst.name or args.file,
                 status=res.status.value.replace(" ", "-"),
                 value="none" if res.value is None else res.value,
                 bound=f"{res.bound:.9g}", gap=f"{res.gap:.9g}",
                 nodes=res.stats.nodes, propagated=res.stats.propagated,
                 unsettled=res.stats.unsettled,
                 cuts=res.stats.cuts_idic + res.stats.cuts_isic,
                 cut_rejects=",".join(f"{reason}:{n}" for reason, n in rejects.items()),
                 oracle_calls=res.stats.oracle_calls,
                 oracle_nodes=res.stats.oracle_nodes,
                 linking_closed=res.stats.linking_closed,
                 linking_nodes=res.stats.linking_nodes,
                 oracle_skipped=res.stats.oracle_skipped,
                 pool_refutations=res.stats.pool_refutations,
                 ifd_time=f"{res.stats.oracle_time:.6f}",
                 wall=f"{wall:.6f}")
    return 0 if res.status is not SolveStatus.LIMIT_REACHED else 1


# -- oracle ----------------------------------------------------------------

def _cmd_oracle(parser, args) -> int:
    inst = _load(args.file)
    cfg = _oracle_config(parser, args)
    x, y = _vector(parser, args.x), _vector(parser, args.y)
    if len(x) != inst.n1 or len(y) != inst.n2:
        parser.error(f"point must have {inst.n1} leader and "
                     f"{inst.n2} follower coordinates")
    point = Point(x, y)
    in_s = inst.in_s(point)
    if not inst.in_relaxation(point):
        print("note: point lies outside the linear relaxation")
    try:
        outcome = oracle_mod.find_improving_direction(inst, point, args.depth, cfg)
    except OracleInconclusive as exc:
        print(f"inconclusive: {exc}")
        _result_line("oracle", outcome="inconclusive")
        return 1
    print(f"outcome: {outcome.kind.value}")
    print(f"direction-MILP nodes: {outcome.nodes}")
    kv = {"outcome": outcome.kind.value.replace(" ", "-"),
          "in_s": "yes" if in_s else "no", "nodes": outcome.nodes}
    if outcome.kind is OutcomeKind.FOUND:
        d = outcome.direction
        print(f"direction w: {_fmt_vec(d.w)}")
        print(f"norm1: {d.norm1}")
        print(f"objective change d2.w: {d.improvement}")
        kv.update(w=_fmt_vec(d.w), norm1=d.norm1, d2w=d.improvement)
    if in_s:
        feasible = outcome.kind is OutcomeKind.NO_IMPROVING_DIRECTION
        print(f"bilevel feasible: {'yes' if feasible else 'no'}")
        kv["bilevel_feasible"] = "yes" if feasible else "no"
    _result_line("oracle", **kv)
    return 0


# -- kopt ------------------------------------------------------------------

def _cmd_kopt(parser, args) -> int:
    inst = _load(args.file)
    if args.k < 0:
        parser.error("--k must be nonnegative")
    ctx = kopt.make_context(inst)
    if args.slice is not None:
        text = args.slice
        if text.startswith("x="):
            text = text[2:]
        x = _vector(parser, text)
        if len(x) != inst.n1:
            parser.error(f"--slice needs {inst.n1} leader coordinates")
        csv_text = kopt.slice_csv(ctx, x)
        if args.out is None:
            sys.stdout.write(csv_text)
        else:
            Path(args.out).write_text(csv_text)
            print(f"slice written to {args.out}")
        _result_line("kopt", kbar=ctx.k_bar, slice=_fmt_vec(x))
        return 0
    fk = kopt.enumerate_Fk(ctx, args.k)
    f_exact = bruteforce.enumerate_F(inst)
    for point in sorted(fk, key=lambda p: p.joint()):
        tag = "" if point in f_exact else "  [in F(k) but not bilevel feasible]"
        print(f"x={_fmt_vec(point.x)} y={_fmt_vec(point.y)}{tag}")
    extra = len(fk) - len(fk & f_exact)
    print(f"F({args.k}): {len(fk)} points, {extra} beyond the bilevel "
          f"feasible set (k-bar {ctx.k_bar})")
    _result_line("kopt", k=args.k, kbar=ctx.k_bar, points=len(fk), extra=extra)
    return 0


# -- verify ------------------------------------------------------------------

def agreement_failures(inst: MiblpInstance) -> list:
    """Cross-check oracle, value-function, and level machinery against
    enumeration on one pure-integer instance; returns mismatch descriptions.

    The level-k sets must descend from the relaxation's integer set at k = 0
    to the enumerated bilevel feasible set at the hierarchy cap.  Per point
    of the relaxation's integer set: the exact direction oracle's
    feasibility certificate, the value-function comparison, and enumerated
    membership in the bilevel feasible set must agree; and for each radius k
    in {1, 2, 3} and the hierarchy cap, the radius-limited direction search,
    the minimum improving-direction norm, and level-k membership must tell
    one story.  The solver, in each oracle mode, must reach the enumerated
    optimum.
    """
    failures = []
    ctx = kopt.make_context(inst)
    k_bar = ctx.k_bar
    s_points = bruteforce.enumerate_S(inst)
    f_points = bruteforce.enumerate_F(inst)
    levels = [kopt.enumerate_Fk(ctx, k) for k in range(k_bar + 1)]
    if levels[0] != s_points:
        failures.append("level-0 set differs from the integer relaxation")
    for k in range(1, k_bar + 1):
        if not levels[k] <= levels[k - 1]:
            failures.append(f"level {k} set is not contained in level {k - 1}")
    if levels[-1] != f_points:
        failures.append("level k-bar set differs from enumerated bilevel feasible set")

    for point in sorted(s_points, key=lambda p: p.joint()):
        cert = oracle_mod.certify_bilevel_feasible(inst, point)
        legacy = oracle_mod.legacy_feasibility_check(inst, point)
        enum_f = point in f_points
        if not (cert == legacy == enum_f):
            failures.append(f"feasibility disagreement at {point.joint()}: "
                            f"certificate {cert}, value-function {legacy}, "
                            f"enumeration {enum_f}")
        level = kopt.level_table(ctx, point.x).get(point.y)
        for k in sorted({1, 2, 3, k_bar}):
            # a feasibility question: with no objective the first integral
            # vertex closes the tree
            sol = solve_milp(oracle_mod.build_k_id_milp(inst, point, k, objective=None))
            kid_feasible = sol.x is not None
            norm_le = level is not None and level <= k
            not_in_fk = not (level is None or level > k)
            if not (kid_feasible == norm_le == not_in_fk):
                failures.append(
                    f"radius-{k} disagreement at {point.joint()}: "
                    f"search {kid_feasible}, norm {norm_le}, level {not_in_fk}")

    best = bruteforce.optimal_by_enumeration(inst)
    for mode in OracleMode:
        res = solve(inst, SolverConfig(oracle_mode=mode))
        if best is None:
            if res.status is not SolveStatus.INFEASIBLE:
                failures.append(f"{mode.value} solver found a solution on an "
                                "instance with no bilevel feasible point")
        elif res.status is not SolveStatus.OPTIMAL or res.value != best[1]:
            failures.append(f"{mode.value} solver value {res.value} differs "
                            f"from enumerated optimum {best[1]}")
    return failures


def _cmd_verify(parser, args) -> int:
    inst = _load(args.file)
    if not inst.is_pure_integer():
        return _fail(2, "verify requires a pure-integer instance")
    failures = agreement_failures(inst)
    for line in failures:
        print(f"FAIL: {line}")
    if not failures:
        print("all checks passed")
    _result_line("verify", instance=inst.name or args.file,
                 failures=len(failures))
    return 0 if not failures else 1


# -- gen ---------------------------------------------------------------------

def _cmd_gen(parser, args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for seed in range(args.seed, args.seed + args.count):
        inst = generate_random_instance(
            seed, args.n1, args.n2, args.m1, args.m2,
            coeff_range=(args.coeff_lo, args.coeff_hi), bound=args.bound)
        path = out_dir / f"{args.prefix}_{seed}.miblp"
        path.write_text(write_instance(inst))
        print(path)
        paths.append(path)
    _result_line("gen", count=len(paths), out_dir=out_dir)
    return 0


# -- bench / profile ---------------------------------------------------------

def _cmd_bench(parser, args) -> int:
    names = [c.strip() for c in args.configs.split(",") if c.strip()]
    unknown = [c for c in names if c not in BENCH_PRESETS]
    if unknown or not names:
        parser.error(f"unknown configurations {unknown}; "
                     f"choose from {sorted(BENCH_PRESETS)}")
    configurations = [(name, replace(BENCH_PRESETS[name], node_limit=args.node_limit,
                                     time_limit=args.time_limit)) for name in names]
    instances = []
    for path in args.files:
        inst = _load(path)
        instances.append((inst.name or Path(path).stem, inst))
    records = bench_mod.run_matrix(instances, configurations, csv_path=args.out)
    solved = sum(r.solved() for r in records)
    for rec in records:
        print(f"{rec.instance} {rec.config}: {rec.status} "
              f"{rec.wall_s:.3f}s {rec.nodes} nodes gap {rec.gap:.4g}")
    _result_line("bench", records=len(records), solved=solved, csv=args.out)
    return 0


def _cmd_profile(parser, args) -> int:
    try:
        records = bench_mod.read_records(args.csv)
        if args.kind == "performance":
            table = bench_mod.performance_profile(records, args.measure,
                                                  time_filter=args.time_filter)
        elif args.kind == "baseline":
            if args.baseline is None:
                parser.error("--kind baseline requires --baseline")
            table = bench_mod.baseline_profile(records, args.measure,
                                               args.baseline,
                                               time_filter=args.time_filter)
        else:
            table = bench_mod.cumulative_profile(records)
    except ValueError as exc:
        return _fail(2, str(exc))
    paths = bench_mod.write_profile_data(table, args.out_dir, prefix=args.prefix)
    for path in paths:
        print(path)
    for config, note in sorted(table.annotations.items()):
        print(f"{config}: better than baseline on {note['better']:.1%}, "
              f"worse on {note['worse']:.1%}")
    _result_line("profile", kind=args.kind, curves=len(paths),
                 instances=table.n_instances)
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miblp",
        description="Branch-and-cut for mixed-integer bilevel linear programs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("file")
    p.add_argument("--oracle", choices=["id", "legacy"], default="id")
    _add_oracle_flags(p)
    p.add_argument("--cuts", default="idic",
                   help="comma list of cut families: idic,isic")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--trace", metavar="PATH", default=None)

    p = sub.add_parser("oracle", help="query the improving-direction search")
    p.add_argument("file")
    p.add_argument("--x", required=True, help="leader point, comma separated")
    p.add_argument("--y", required=True, help="follower point, comma separated")
    p.add_argument("--depth", type=int, default=0,
                   help="node depth used by the search window")
    _add_oracle_flags(p)

    p = sub.add_parser("kopt", help="enumerate level-k sets or export a slice")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--slice", default=None,
                   help="fixed leader point x=<v1>,<v2>,... for a CSV slice")
    p.add_argument("--out", default=None, help="slice CSV output path")

    p = sub.add_parser("verify", help="cross-check one instance by enumeration")
    p.add_argument("file")

    p = sub.add_parser("gen", help="write random pure-integer instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--n1", type=int, default=2)
    p.add_argument("--n2", type=int, default=2)
    p.add_argument("--m1", type=int, default=2)
    p.add_argument("--m2", type=int, default=3)
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--coeff-lo", type=int, default=-5)
    p.add_argument("--coeff-hi", type=int, default=5)
    p.add_argument("--prefix", default="rand")
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("bench", help="run a configuration matrix")
    p.add_argument("files", nargs="+")
    p.add_argument("--configs", default="id-milp,id-ls-k2,legacy")
    p.add_argument("--out", default="results.csv")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--node-limit", type=int, default=None)

    p = sub.add_parser("profile", help="compute profile curves from a bench CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--kind", choices=["performance", "baseline", "cumulative"],
                   default="performance")
    p.add_argument("--measure", default="wall_s")
    p.add_argument("--baseline", default=None)
    p.add_argument("--time-filter", type=float, default=bench_mod.DEFAULT_TIME_FILTER)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--prefix", default="profile")
    return parser


_HANDLERS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "kopt": _cmd_kopt,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
    "profile": _cmd_profile,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](parser, args)
    except OSError as exc:
        return _fail(2, f"cannot read input: {exc}")
    except InstanceError as exc:
        return _fail(2, str(exc))
    except (EnumerationBudgetError, MilpError, OracleInconclusive) as exc:
        return _fail(1, str(exc))


if __name__ == "__main__":
    sys.exit(main())
