from fractions import Fraction

import pytest

from conftest import DATA, MOORE_BARD, THREE_D
from helpers import mixed_leader_instance
from miblp import cli, kopt
from miblp.bnc import OracleMode
from miblp.bruteforce import enumerate_F, enumerate_S
from miblp.bench import CSV_HEADER, read_records
from miblp.cli import agreement_failures, build_parser, main
from miblp.instance import (InstanceError, Point, generate_random_instance,
                            parse_instance, write_instance)
from miblp.oracle import OracleInconclusive

MB = str(DATA / "moore_bard.miblp")
TD = str(DATA / "three_d.miblp")


def result_kv(out: str, cmd: str) -> dict:
    lines = [l for l in out.splitlines() if l.startswith(f"RESULT cmd={cmd}")]
    assert lines, out
    return dict(pair.split("=", 1) for pair in lines[-1].split()[1:])


def test_solve_reports_optimum(capsys):
    assert main(["solve", MB]) == 0
    kv = result_kv(capsys.readouterr().out, "solve")
    assert kv["status"] == "optimal"
    assert kv["value"] == "-22"
    assert kv["gap"] == "0"
    assert int(kv["nodes"]) < 100


def test_solve_reports_oracle_savings(capsys, tmp_path):
    # seed 13 of the corpus family reaches integral vertices that the pool refutes
    assert main(["gen", "--seed", "13", "--n1", "2", "--n2", "3", "--m1", "2",
                 "--m2", "4", "--bound", "8", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(tmp_path / "rand_13.miblp")]) == 0
    out = capsys.readouterr().out
    kv = result_kv(out, "solve")
    skipped, refuted = int(kv["oracle_skipped"]), int(kv["pool_refutations"])
    assert (kv["nodes"], skipped, refuted) == ("58", 25, 4)
    assert f"{skipped} skipped, {refuted} refuted from pool" in out
    assert kv["propagated"] == "5" and kv["unsettled"] == "0"
    assert "nodes: 58 (5 more closed by propagation, 0 unsettled)" in out
    # the direction-search MILPs of its 3 queries solve 3 node LPs in all
    assert kv["oracle_calls"] == "3" and kv["oracle_nodes"] == "3"
    assert "oracle: 3 calls, 3 direction-MILP nodes, " in out
    # 22 boxes fix both leader variables, each closed by its MILPs
    assert kv["linking_closed"] == "22" and kv["linking_nodes"] == "64"
    assert "fixed linking: 22 boxes closed, 64 value-function and leader MILP nodes" in out


def test_solve_reports_cut_rejects(capsys, tmp_path):
    # corpus seed 19: one of its five intersection cuts is over the cap
    path = tmp_path / "seed19.miblp"
    path.write_text(write_instance(generate_random_instance(19, 2, 3, 2, 4, bound=8)))
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    kv = result_kv(out, "solve")
    assert kv["cuts"] == "4"
    assert kv["cut_rejects"] == "not-separable:0,duplicate:0,coefficient-cap:1"
    assert "cuts: 4 idic, 0 isic (rejected: 0 not-separable, 0 duplicate, " \
        "1 coefficient-cap)" in out


def test_solve_flags_and_trace(capsys, tmp_path):
    trace = tmp_path / "trace.txt"
    for flags in (["--oracle", "legacy"],
                  ["--direction-method", "local-search", "--k", "2"]):
        rc = main(["solve", MB, *flags, "--cuts", "idic,isic", "--trace", str(trace)])
        assert rc == 0
        kv = result_kv(capsys.readouterr().out, "solve")
        assert kv["value"] == "-22"
        text = trace.read_text().splitlines()
        assert text and text[0].startswith("node 0 depth 0")


def test_solve_limit_exit_code(capsys):
    assert main(["solve", MB, "--node-limit", "0"]) == 1
    kv = result_kv(capsys.readouterr().out, "solve")
    assert kv["status"] == "limit-reached"


def test_solve_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", MB, "--k", "2"])            # needs milp-k/local-search
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", MB, "--cuts", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", MB, "--ls-depth-lb", "3"])  # needs local-search
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", MB, "--branch", "fractional"])    # one branching rule
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:              # legacy searches by the exact MILP
        main(["solve", TD, "--oracle", "legacy", "--direction-method", "local-search",
              "--k", "1", "--ls-depth-lb", "3"])
    assert exc.value.code == 2
    for flags, message in ((["--k", "0"], "radius k must be at least 1"),
                           (["--ls-depth-lb", "5", "--ls-depth-ub", "3"],
                            "depth window is empty (lb > ub)")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["solve", MB, "--direction-method", "local-search", *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    assert main(["solve", str(tmp_path / "missing.miblp")]) == 2


def test_oracle_found(capsys):
    assert main(["oracle", MB, "--x", "2", "--y", "4"]) == 0
    out = capsys.readouterr().out
    kv = result_kv(out, "oracle")
    assert kv["outcome"] == "found" and kv["nodes"] == "1"
    assert "direction-MILP nodes: 1" in out
    assert kv["w"] == "-1" and kv["norm1"] == "1" and kv["d2w"] == "-1"
    assert kv["in_s"] == "yes" and kv["bilevel_feasible"] == "no"


def test_oracle_certificate(capsys):
    assert main(["oracle", MB, "--x", "2", "--y", "2"]) == 0
    kv = result_kv(capsys.readouterr().out, "oracle")
    assert kv["outcome"] == "no-improving-direction"
    assert kv["bilevel_feasible"] == "yes"


def test_oracle_heuristic_window(capsys):
    rc = main(["oracle", MB, "--x", "2", "--y", "4",
               "--direction-method", "local-search", "--k", "1",
               "--ls-depth-lb", "0", "--ls-depth-ub", "inf"])
    assert rc == 0
    kv = result_kv(capsys.readouterr().out, "oracle")
    assert kv["outcome"] == "found" and kv["nodes"] == "0"     # local search
    args = build_parser().parse_args(["oracle", MB, "--x", "2", "--y", "4",
                                      "--direction-method", "local-search",
                                      "--ls-depth-ub", "4"])
    assert args.ls_depth_ub == 4 and type(args.ls_depth_ub) is int
    assert main(["oracle", MB, "--x", "2", "--y", "4", "--direction-method",
                 "local-search", "--ls-depth-ub", "4"]) == 0
    assert result_kv(capsys.readouterr().out, "oracle")["outcome"] == "found"
    with pytest.raises(SystemExit):
        main(["oracle", MB, "--x", "2", "--y", "4,4"])   # wrong dimension


@pytest.mark.parametrize("argv", [["oracle", MB, "--x", "abc", "--y", "4"],
                                  ["oracle", MB, "--x", "2", "--y", "1/0"],
                                  ["kopt", MB, "--k", "0", "--slice", "x=1/0"]])
def test_malformed_vector_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not a list of numbers" in capsys.readouterr().err


def test_malformed_header_count_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.miblp"
    path.write_text(MOORE_BARD.replace("UPPER 0", "UPPER --2"))
    assert main(["solve", str(path)]) == 2
    assert "not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [("OBJ_LOWER 1", "OBJ_LOWER 1e400"),
                                      ("BOUNDS 0 8 0 5", "BOUNDS 0 8 0 1e999")])
def test_number_beyond_the_float_range_exits_2(tmp_path, capsys, old, new):
    path = tmp_path / "big.miblp"
    path.write_text(MOORE_BARD.replace(old, new))
    assert main(["solve", str(path)]) == 2
    assert "beyond the float range" in capsys.readouterr().err


def test_kopt_listing(capsys):
    assert main(["kopt", TD, "--k", "4"]) == 0
    out = capsys.readouterr().out
    kv = result_kv(out, "kopt")
    assert kv["kbar"] == "13" and kv["points"] == "12" and kv["extra"] == "1"
    tagged = [l for l in out.splitlines() if "not bilevel feasible" in l]
    assert tagged == ["x=3 y=4,1  [in F(k) but not bilevel feasible]"]


def test_kopt_level_zero_counts(capsys):
    assert main(["kopt", MB, "--k", "0"]) == 0
    kv = result_kv(capsys.readouterr().out, "kopt")
    assert kv["points"] == "16" and kv["extra"] == "8"
    with pytest.raises(SystemExit):
        main(["kopt", MB, "--k", "-1"])


def test_kopt_slice(capsys, tmp_path, three_d):
    out_file = tmp_path / "slice.csv"
    assert main(["kopt", TD, "--k", "0", "--slice", "x=1",
                 "--out", str(out_file)]) == 0
    expected = kopt.slice_csv(kopt.make_context(three_d), (Fraction(1),))
    assert out_file.read_text() == expected
    assert main(["kopt", TD, "--k", "0", "--slice", "1"]) == 0
    out = capsys.readouterr().out
    assert "y0,y1,in_slice,level" in out
    with pytest.raises(SystemExit) as exc:
        main(["kopt", MB, "--k", "0", "--slice", "1,2"])
    assert exc.value.code == 2
    assert "--slice needs 1 leader coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("path", [MB, TD], ids=["moore_bard", "three_d"])
def test_verify_examples(capsys, path):
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert result_kv(out, "verify")["failures"] == "0"


def test_verify_rejects_mixed(tmp_path, capsys):
    mixed = tmp_path / "mixed.miblp"
    mixed.write_text(MOORE_BARD.replace("VARS 1 1 1 1", "VARS 1 1 1 0"))
    assert main(["verify", str(mixed)]) == 2
    # a continuous leader outside the follower rows parses, and verify refuses it
    leader = tmp_path / "leader.miblp"
    leader.write_text(write_instance(mixed_leader_instance(2)))
    capsys.readouterr()
    assert main(["verify", str(leader)]) == 2
    assert "verify requires a pure-integer instance" in capsys.readouterr().err
    # fractional follower data is scaled to integers at parse time
    frac = tmp_path / "frac.miblp"
    frac.write_text(MOORE_BARD.replace("2 10 >= 15", "2 10 >= 31/2"))
    assert main(["verify", str(frac)]) == 0


def test_agreement_failures_clean(moore_bard):
    assert agreement_failures(moore_bard) == []


def test_agreement_failures_check_legacy_mode(monkeypatch, moore_bard):
    real_solve = cli.solve

    def legacy_off_by_one(inst, cfg):
        res = real_solve(inst, cfg)
        if cfg.oracle_mode is OracleMode.LEGACY:
            res.value += 1
        return res

    monkeypatch.setattr(cli, "solve", legacy_off_by_one)
    assert agreement_failures(moore_bard) == [
        "legacy solver value -21 differs from enumerated optimum -22"]


def test_verify_reports_a_lying_check(monkeypatch, capsys, moore_bard):
    # the certificate calls one bilevel-infeasible point feasible
    liar = min(enumerate_S(moore_bard) - enumerate_F(moore_bard), key=Point.joint)
    certify = cli.oracle_mod.certify_bilevel_feasible
    monkeypatch.setattr(cli.oracle_mod, "certify_bilevel_feasible",
                        lambda inst, point: point == liar or certify(inst, point))
    expected = [f"feasibility disagreement at {liar.joint()}: "
                "certificate True, value-function False, enumeration False"]
    assert agreement_failures(moore_bard) == expected
    assert main(["verify", MB]) == 1
    out = capsys.readouterr().out
    assert f"FAIL: {expected[0]}" in out and result_kv(out, "verify")["failures"] == "1"


def test_oracle_inconclusive_exits_1(monkeypatch, capsys):
    def inconclusive(*args):
        raise OracleInconclusive("direction search hit its limit")
    monkeypatch.setattr(cli.oracle_mod, "find_improving_direction", inconclusive)
    assert main(["oracle", MB, "--x", "2", "--y", "4"]) == 1
    out = capsys.readouterr().out
    assert "inconclusive: direction search hit its limit" in out
    assert result_kv(out, "oracle") == {"cmd": "oracle", "outcome": "inconclusive"}


def test_enumeration_over_budget_exits_1(tmp_path, capsys):
    # a 100^4 grid: the level sets refuse it before any scanning starts
    path = tmp_path / "big.miblp"
    path.write_text("MIBLP 1\nVARS 2 2 2 2\nOBJ_UPPER 0 0 1 1\nOBJ_LOWER 1 1\n"
                    "BOUNDS 0 99 0 99 0 99 0 99\nUPPER 0\nLOWER 1\n1 1 1 1 >= 0\n")
    assert main(["kopt", str(path), "--k", "0"]) == 1
    assert "exceeds budget" in capsys.readouterr().err


@pytest.mark.parametrize("text, cause", [
    (MOORE_BARD.replace("VARS 1 1 1 1", "VARS 1 1 1 0"), "continuous follower"),
    (MOORE_BARD.replace("VARS 1 1 1 1", "VARS 1 0 1 1"), "continuous leader"),
    (THREE_D.replace("VARS 1 1 2 2", "VARS 1 1 2 1"), "continuous follower"),
])
def test_solve_refuses_out_of_scope(tmp_path, capsys, text, cause):
    with pytest.raises(InstanceError, match=cause):
        parse_instance(text)
    path = tmp_path / "bad.miblp"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    assert cause in capsys.readouterr().err


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen", "--seed", "3", "--count", "2", "--n1", "1",
                     "--n2", "1", "--m1", "1", "--m2", "2", "--bound", "3",
                     "--out-dir", str(out)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == ["rand_3.miblp", "rand_4.miblp"]
    for name in names:
        assert (a / name).read_text() == (b / name).read_text()
        inst = parse_instance((a / name).read_text())
        assert inst.is_pure_integer()
    kv = result_kv(capsys.readouterr().out, "gen")
    assert kv["count"] == "2"


def test_bench_and_profile(tmp_path, capsys):
    csv_path = tmp_path / "runs.csv"
    rc = main(["bench", MB, TD, "--configs", "id-milp,legacy",
               "--out", str(csv_path)])
    assert rc == 0
    kv = result_kv(capsys.readouterr().out, "bench")
    assert kv["records"] == "4" and kv["solved"] == "4"
    assert len(read_records(csv_path)) == 4

    out_dir = tmp_path / "prof"
    rc = main(["profile", "--csv", str(csv_path), "--kind", "performance",
               "--time-filter", "0", "--out-dir", str(out_dir)])
    assert rc == 0
    kv = result_kv(capsys.readouterr().out, "profile")
    assert kv["curves"] == "2" and kv["instances"] == "2"
    assert sorted(p.name for p in out_dir.iterdir()) == \
        ["profile_id-milp.dat", "profile_legacy.dat"]

    rc = main(["profile", "--csv", str(csv_path), "--kind", "baseline",
               "--baseline", "legacy", "--time-filter", "0",
               "--out-dir", str(out_dir), "--prefix", "base"])
    assert rc == 0
    assert "better than baseline" in capsys.readouterr().out

    rc = main(["profile", "--csv", str(csv_path), "--kind", "cumulative",
               "--out-dir", str(out_dir), "--prefix", "cum"])
    assert rc == 0
    assert result_kv(capsys.readouterr().out, "profile")["curves"] == "4"


@pytest.mark.parametrize("row, message", [
    (["mb", "id-milp", "Optimal", "fast", "0.1", "3", "0.0", "0.0", "0.0"],
     "line 3: could not convert"),
    (["mb", "id-milp", "Optimal", "0.1"], "line 3: 4 fields, expected 9"),
    (["mb", "id-milp", "Optimal", "0.1", "0.1", "inf", "0.0", "0.0", "0.0"],
     "line 3: invalid literal for int"),
    (["mb", "id-milp", "Optimal", "0.1", "0.1", "3.7", "0.0", "0.0", "0.0"],
     "line 3: invalid literal for int"),
    (["mb", "id-milp", "optimal", "0.1", "0.1", "3", "0.0", "0.0", "0.0"],
     "line 3: unknown status 'optimal'"),
])
def test_profile_refuses_a_malformed_csv(tmp_path, capsys, row, message):
    good = ["mb", "legacy", "Optimal", "0.2", "0.2", "5", "0.0", "0.0", "0.0"]
    csv_path = tmp_path / "runs.csv"
    csv_path.write_text("\n".join(",".join(r) for r in (CSV_HEADER, good, row)) + "\n")
    assert main(["profile", "--csv", str(csv_path)]) == 2
    assert message in capsys.readouterr().err
    with pytest.raises(ValueError, match=message):
        read_records(csv_path)


def test_profile_usage_errors(tmp_path, capsys):
    csv_path = tmp_path / "runs.csv"
    main(["bench", MB, "--configs", "id-milp,legacy", "--out", str(csv_path)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--csv", str(csv_path), "--kind", "baseline"])
    assert exc.value.code == 2
    assert main(["profile", "--csv", str(csv_path), "--measure", "bogus"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", MB, "--configs", "nope"])
    assert exc.value.code == 2
