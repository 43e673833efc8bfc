import csv
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

import parkroute.cli
from parkroute import exact
from parkroute.benchmarks import no_parking_benchmark
from parkroute.cli import build_parser, main
from parkroute.instance import gen_geo_instance, load_instance, save_instance
from parkroute.model import parse_lp

from brutes import ring_walk_instance


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gen_then_solve_pipeline(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    sol_path = tmp_path / "sol.json"
    assert main(["gen", "--geo", "-n", "8", "--seed", "1", "-o", str(inst_path)]) == 0
    assert main(["solve", "--method", "exact", str(inst_path), "-o", str(sol_path)]) == 0
    doc = json.loads(sol_path.read_text())
    assert doc["status"] == "optimal"
    assert doc["config"]["seed"] == 1
    assert doc["config"]["method"] == "exact"
    assert set(doc["breakdown"]) == {"park_min", "drive_min", "walk_min", "load_min"}
    out = capsys.readouterr().out
    assert "status=optimal" in out


def test_solve_heuristic_exit_code(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--geo", "-n", "6", "--seed", "3", "-o", str(inst_path)])
    code = main(["solve", "--method", "heuristic", str(inst_path), "-o", str(tmp_path / "h.json")])
    assert code == 2  # feasible without proof
    doc = json.loads((tmp_path / "h.json").read_text())
    assert doc["status"] == "feasible"
    assert "routing_exact" in doc["config"]


def test_benchmark_csv_dominates_optimum(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--geo", "-n", "6", "--seed", "5", "-p", "4.0", "-o", str(inst_path)])
    out_csv = tmp_path / "bench.csv"
    code = main([
        "benchmark", "--models", "npt,mtsp,ms:0.6,ms:0.8", "--with-optimum",
        str(inst_path), "-o", str(out_csv),
    ])
    assert code == 0
    rows = _read_csv(out_csv)
    assert [r["model"] for r in rows] == ["no-parking-time", "modified-tsp", "relaxed-ms:0.6", "relaxed-ms:0.8"]
    for row in rows:
        assert float(row["completion"]) >= float(row["optimum"]) - 1e-6
        parts = sum(float(row[k]) for k in ("park_min", "drive_min", "walk_min", "load_min"))
        assert abs(parts - float(row["completion"])) < 1e-5


def test_the_parser_is_built_once_and_parses_each_line_afresh():
    # one parser serves every call in a process; a flag given to one call
    # must not become the default of the next
    assert build_parser() is build_parser()
    first = build_parser().parse_args(["solve", "a.json", "--method", "heuristic", "--reduced"])
    second = build_parser().parse_args(["solve", "b.json"])
    assert (first.instance, first.method, first.reduced) == ("a.json", "heuristic", True)
    assert (second.instance, second.method, second.reduced) == ("b.json", "exact", False)
    runs = [build_parser().parse_args(["benchmark", *files]).instances for files in (["x", "y"], ["z"])]
    assert runs == [["x", "y"], ["z"]]


def test_benchmark_leaves_an_unproven_optimum_empty(tmp_path, monkeypatch):
    # free parking on a skewed drive matrix: the closure DP's solution misses
    # its floor, and a small search limit stops the branch-and-bound with that
    # solution unproven
    base = gen_geo_instance(9, 1, p=0.0, q=3)
    skew = np.random.default_rng(9).uniform(1.0, 1.6, size=base.drive.shape)
    inst_path = tmp_path / "inst.json"
    save_instance(replace(base, drive=base.drive * skew), inst_path)
    monkeypatch.setattr(exact, "SEARCH_LIMIT", 20_000)
    out_csv = tmp_path / "bench.csv"
    assert main(["benchmark", "--models", "mtsp", "--with-optimum", str(inst_path), "-o", str(out_csv)]) == 0
    assert [r["optimum"] for r in _read_csv(out_csv)] == [""]


def test_benchmark_leaves_the_optimum_empty_above_the_exact_limit(tmp_path):
    # a file too large for the exact solver must not abort the run
    paths = []
    for n in (6, 19):
        paths.append(str(tmp_path / f"inst{n}.json"))
        main(["gen", "--geo", "-n", str(n), "--seed", "1", "-o", paths[-1]])
    out_csv = tmp_path / "bench.csv"
    assert main(["benchmark", "--models", "mtsp", "--with-optimum", *paths, "-o", str(out_csv)]) == 0
    rows = _read_csv(out_csv)
    assert [r["instance"] for r in rows] == paths
    assert rows[0]["optimum"] != "" and float(rows[0]["completion"]) >= float(rows[0]["optimum"]) - 1e-6
    assert rows[1]["optimum"] == ""


def test_benchmark_above_the_exact_limit_falls_back_to_the_heuristic(tmp_path):
    # 19 customers exceed the exact solver's limit, so the no-parking variant
    # is solved by the heuristic and the run still writes its row
    inst_path = tmp_path / "inst.json"
    main(["gen", "--geo", "-n", "19", "--seed", "1", "-o", str(inst_path)])
    out_csv = tmp_path / "bench.csv"
    assert main(["benchmark", "--models", "npt", str(inst_path), "-o", str(out_csv)]) == 0
    npt = no_parking_benchmark(load_instance(inst_path))
    assert (npt.solver, npt.exact) == ("heuristic", False)
    assert [r["completion"] for r in _read_csv(out_csv)] == [f"{npt.completion:.6f}"]


def test_benchmark_jobs_write_the_same_csv(tmp_path):
    paths = []
    for seed in (1, 2):
        paths.append(str(tmp_path / f"inst{seed}.json"))
        main(["gen", "--geo", "-n", "5", "--seed", str(seed), "-o", paths[-1]])
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(["benchmark", "--models", "npt,mtsp", "--jobs", jobs, *paths, "-o", str(out)]) == 0
    assert (tmp_path / "jobs1.csv").read_text() == (tmp_path / "jobs2.csv").read_text()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_benchmark_refuses_fewer_than_one_job(tmp_path, capsys, jobs):
    paths = []
    for seed in (1, 2):
        paths.append(str(tmp_path / f"inst{seed}.json"))
        main(["gen", "--geo", "-n", "4", "--seed", str(seed), "-o", paths[-1]])
    out_csv = tmp_path / "bench.csv"
    capsys.readouterr()
    assert main(["benchmark", "--models", "npt", "--jobs", jobs, *paths, "-o", str(out_csv)]) == 1
    assert capsys.readouterr().err.startswith("error: --jobs must be at least 1")
    assert not out_csv.exists()


_GOOD = {"n": 2, "drive": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "walk": [[0, 1], [1, 0]], "park_time": [1, 1], "q": 2}


@pytest.mark.parametrize("field, value", [
    ("cap_weight", "3"), ("f", "x"), ("weights", ["a", 1]), ("parking", [1.5, 2]),
    ("parking", ["1", 2]), ("meta", [1, 2]), ("q", 2.7), ("n", 2.5), ("parking", 2),
], ids=str)
def test_malformed_instance_field_is_an_error(tmp_path, capsys, field, value):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(_GOOD, **{field: value})))
    assert main(["solve", str(path), "-o", str(tmp_path / "sol.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_grid_sweep_csv_regime_flip(tmp_path):
    out_csv = tmp_path / "grid.csv"
    code = main([
        "grid", "--q", "3", "--sqrt-n", "6", "--walk-rate", "1.6",
        "--sweep", "p=0:0.25:2", "-o", str(out_csv),
    ])
    assert code == 0
    rows = _read_csv(out_csv)
    threshold = 4.0 / 3.0 * 1.6 - 1.0
    for row in rows:
        expected = "tsp_optimal" if float(row["p"]) <= threshold + 1e-9 else "tsp_suboptimal"
        assert row["regime"] == expected
        if row["regime"] == "tsp_suboptimal":
            assert float(row["witness_value"]) < float(row["tsp_value"])
    assert {r["regime"] for r in rows} == {"tsp_optimal", "tsp_suboptimal"}


def test_grid_sweep_csv_marks_uncertified_rows(tmp_path):
    # on 2x2 a single stop beats the park-everywhere tour from p = 5.6 / 3,
    # below the capacity-2 threshold of 2.2; the rows must say so
    out_csv = tmp_path / "grid.csv"
    code = main([
        "grid", "--q", "2", "--sqrt-n", "2", "--walk-rate", "1.6",
        "--sweep", "p=1.8:0.2:2.2", "-o", str(out_csv),
    ])
    assert code == 0
    rows = _read_csv(out_csv)
    assert [r["regime"] for r in rows] == ["tsp_optimal"] * 3
    assert [r["certified"] for r in rows] == ["true", "false", "false"]
    for row in rows[1:]:
        assert float(row["oracle_value"]) < float(row["tsp_value"])


def test_grid_oracle_defaults_to_the_dp_limit(tmp_path):
    # the 4x4 grid (n = 16) is within the exact limit, so the row below the
    # capacity-2 threshold is proven by one DP solve
    out_csv = tmp_path / "grid.csv"
    code = main([
        "grid", "--q", "2", "--sqrt-n", "4", "--walk-rate", "1.6",
        "--sweep", "p=2.0:0.1:2.0", "-o", str(out_csv),
    ])
    assert code == 0
    rows = _read_csv(out_csv)
    assert [(r["regime"], r["certified"], r["oracle_value"]) for r in rows] == [
        ("tsp_optimal", "true", "52.000000")
    ]


@pytest.mark.parametrize("sweep", ["p=0:1e-6:1", "p=0:1e-300:1", "p=0:5e-324:1", "p=0:1:10000"])
def test_grid_sweep_with_too_many_points_is_an_error(tmp_path, capsys, monkeypatch, sweep):
    # counted before the list is built: 1e-300 steps would never end
    def no_loop(*args):
        raise AssertionError("the sweep loop ran")

    monkeypatch.setattr(parkroute.cli, "round", no_loop, raising=False)
    out_csv = tmp_path / "grid.csv"
    assert main(["grid", "--q", "2", "--sqrt-n", "2", "--sweep", sweep, "-o", str(out_csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sweep") and f"more than {parkroute.cli.MAX_SWEEP_POINTS} points" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("sweep", ["p=5:1:1", "p=2:0.5:1.999"])
def test_grid_sweep_with_no_points_is_an_error(tmp_path, capsys, sweep):
    # a start above the stop used to write a header-only CSV and exit 0
    out_csv = tmp_path / "grid.csv"
    assert main(["grid", "--q", "2", "--sqrt-n", "2", "--sweep", sweep, "-o", str(out_csv)]) == 1
    assert capsys.readouterr().err.startswith(f"error: sweep {sweep!r} has no points")
    assert not out_csv.exists()


def test_a_sweep_at_the_point_limit_is_built():
    values = parkroute.cli._parse_sweep(f"p=1:1:{parkroute.cli.MAX_SWEEP_POINTS}")
    assert len(values) == parkroute.cli.MAX_SWEEP_POINTS and values[-1] == parkroute.cli.MAX_SWEEP_POINTS


@pytest.mark.parametrize("sweep", ["p=0:1:inf", "p=nan:1:2", "p=0:nan:2", "p=-inf:1:0", "p=0:inf:1"])
def test_grid_sweep_with_a_non_finite_number_is_an_error(tmp_path, capsys, monkeypatch, sweep):
    # refused before the sweep's loop runs: an infinite stop would never end
    # it, and a NaN start would give an empty CSV
    def no_loop(*args):
        raise AssertionError("the sweep loop ran")

    monkeypatch.setattr(parkroute.cli, "round", no_loop, raising=False)
    out_csv = tmp_path / "grid.csv"
    assert main(["grid", "--q", "2", "--sqrt-n", "2", "--sweep", sweep, "-o", str(out_csv)]) == 1
    assert capsys.readouterr().err.startswith("error: sweep numbers must be finite")
    assert not out_csv.exists()


def test_export_lp_round_trips(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--geo", "-n", "3", "--seed", "2", "-q", "2", "-o", str(inst_path)])
    lp_path = tmp_path / "model.lp"
    assert main(["export-lp", str(inst_path), "--vi-claim4", "--reduce", "-o", str(lp_path)]) == 0
    model = parse_lp(lp_path.read_text())
    assert any(r.name.startswith("vi.claim4") for r in model.constraints)
    assert model.count_vars("x_") == 12  # 4x4 off-diagonal


def test_export_lp_refuses_self_singleton_rows_on_a_non_metric_walk(tmp_path, capsys):
    inst_path = tmp_path / "ring.json"
    save_instance(ring_walk_instance(), inst_path)
    lp_path = tmp_path / "model.lp"
    assert main(["export-lp", str(inst_path), "--vi-claim4", "-o", str(lp_path)]) == 1
    assert "error: " in capsys.readouterr().err
    assert not lp_path.exists()


def test_report_aggregates_solutions(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--geo", "-n", "5", "--seed", "8", "-o", str(inst_path)])
    s1 = tmp_path / "a.json"
    s2 = tmp_path / "b.json"
    main(["solve", str(inst_path), "-o", str(s1)])
    main(["solve", "--method", "heuristic", str(inst_path), "-o", str(s2)])
    out_csv = tmp_path / "report.csv"
    assert main(["report", str(s1), str(s2), "-o", str(out_csv)]) == 0
    rows = _read_csv(out_csv)
    assert len(rows) == 2
    assert rows[0]["file"] == str(s1)


@pytest.mark.parametrize("text, message", [
    ('{"total": 1}', "has no 'breakdown' field"),
    ('{"total": 1, "breakdown": {"park_min": 1}, "stops": []}', "has no 'drive_min' field"),
    ('{"total": "x", "breakdown": {}, "stops": []}', "is not a solution file"),
    ("[1, 2]", "is not a solution file"),
    ("total = 1", "is not JSON"),
])
def test_report_refuses_a_file_that_is_not_a_solution(tmp_path, capsys, text, message):
    path = tmp_path / "sol.json"
    path.write_text(text)
    assert main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_benchmark_checks_every_model_name_before_solving(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--geo", "-n", "4", "--seed", "1", "-o", str(inst_path)])
    monkeypatch.setattr(parkroute.cli, "load_instance", None)  # nothing may be loaded or solved
    capsys.readouterr()
    for models, message in [
        ("npt,bogus", "unknown benchmark model"), ("npt,ms:2", "unknown benchmark model"),
        ("mtsp,ms:abc", "unknown benchmark model"), (",", "no benchmark model named"),
    ]:
        assert main(["benchmark", "--models", models, str(inst_path)]) == 1
        assert capsys.readouterr().err.startswith("error: " + message)


def test_outputs_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(); b.mkdir()
    for d in (a, b):
        main(["gen", "--geo", "-n", "6", "--seed", "9", "-o", str(d / "inst.json")])
        main(["solve", str(d / "inst.json"), "-o", str(d / "sol.json")])
        main(["benchmark", "--models", "npt,mtsp", str(d / "inst.json"), "-o", str(d / "bench.csv")])
    assert (a / "inst.json").read_bytes() == (b / "inst.json").read_bytes()
    sa = json.loads((a / "sol.json").read_text()); sb = json.loads((b / "sol.json").read_text())
    sa["config"].pop("instance"); sb["config"].pop("instance")
    assert sa == sb
    ba = (a / "bench.csv").read_text().replace(str(a), "X")
    bb = (b / "bench.csv").read_text().replace(str(b), "X")
    assert ba == bb


def test_solve_reduced_catalog_matches_full(tmp_path):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--geo", "-n", "7", "--seed", "11", "-p", "4.0", "-o", str(inst_path)])
    full = tmp_path / "full.json"
    reduced = tmp_path / "reduced.json"
    main(["solve", str(inst_path), "-o", str(full)])
    main(["solve", "--reduced", str(inst_path), "-o", str(reduced)])
    assert json.loads(full.read_text())["total"] == pytest.approx(
        json.loads(reduced.read_text())["total"], abs=1e-6
    )


def test_gen_requires_exactly_one_mode(tmp_path):
    assert main(["gen", "--geo", "--grid", "-o", str(tmp_path / "x.json")]) == 1
    assert main(["gen", "-o", str(tmp_path / "x.json")]) == 1


def test_unreadable_instance_is_an_error(tmp_path):
    assert main(["solve", str(tmp_path / "missing.json")]) == 1


def test_non_finite_instance_is_an_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text('{"n": 1, "drive": [[0, NaN], [2, 0]], "walk": [[0]], "park_time": [1], "q": 1}')
    assert main(["solve", str(path)]) == 1
    assert "non-finite value in drive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "--geo", "--walk-factor", "inf"],
    ["gen", "--geo", "--drive-factor", "inf", "--walk-factor", "inf"],
    ["gen", "--geo", "--drive-factor", "nan"],
    ["gen", "--grid", "--walk-rate", "inf"],
    ["gen", "--grid", "--block-len", "inf"],
    ["gen", "--grid", "--drive-rate", "nan"],
    ["grid", "--q", "2", "--sqrt-n", "2", "--sweep", "p=0:1:2", "--block-len", "inf"],
    ["grid", "--q", "2", "--sqrt-n", "2", "--sweep", "p=0:1:2", "--walk-rate", "inf"],
], ids=" ".join)
def test_non_finite_generator_number_is_refused_before_any_arithmetic(tmp_path, capsys, argv):
    # an infinite rate times the zero diagonal used to print numpy's
    # "invalid value encountered in multiply" before the clean error
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite "), err
    assert not out.exists()


def test_gen_grid_records_seed_and_loads(tmp_path):
    inst_path = tmp_path / "grid.json"
    assert main([
        "gen", "--grid", "--sqrt-n", "4", "--walk-rate", "1.6", "--seed", "4",
        "-p", "1.0", "-q", "2", "-o", str(inst_path),
    ]) == 0
    inst = load_instance(inst_path)
    assert inst.n == 16
    assert inst.meta["seed"] == 4
    assert inst.meta["min_distance"] == 2.0


@pytest.mark.parametrize("argv", [
    ["solve", "x.json", "--budget-seconds", "5"],
    ["benchmark", "x.json", "--budget-seconds", "5"],
    ["solve", "x.json", "--method", "exactt"],
    ["solvee", "x.json"],
], ids=["solve-budget-seconds", "benchmark-budget-seconds", "bad-method", "unknown-subcommand"])
def test_a_usage_error_exits_1_not_the_feasible_code(capsys, argv):
    # argparse's own exit code, 2, is the code of a feasible solve without proof
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: parkroute") and "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]], ids=["top", "solve"])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: parkroute")


def test_solve_refuses_the_reduced_catalog_for_the_heuristic(tmp_path, capsys):
    # the heuristic reads no catalog, so the flag would be recorded but unused
    inst_path = tmp_path / "inst.json"
    main(["gen", "--geo", "-n", "5", "--seed", "1", "-o", str(inst_path)])
    sol_path = tmp_path / "sol.json"
    capsys.readouterr()
    assert main(["solve", str(inst_path), "--method", "heuristic", "--reduced", "-o", str(sol_path)]) == 1
    assert capsys.readouterr().err.startswith("error: --reduced")
    assert not sol_path.exists()


def test_gen_refuses_a_negative_load(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--geo", "-n", "5", "-f", "-2", "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: negative load_per_package")
    assert not out.exists()
