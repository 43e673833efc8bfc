"""Tests for the benchmark itself, at toy sizes."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from parkroute.cli import main as cli_main  # noqa: E402
from parkroute.instance import gen_geo_instance, load_instance, save_instance  # noqa: E402
from parkroute.model import build_model  # noqa: E402
from parkroute.servicesets import enumerate_catalog  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY_SIZES = {
    "exact-metric": {"n": [5, 6]},
    "exact-nonmetric": {"n": 5, "count": 2},
    "paper-n50": {"n": 12},
}


@pytest.fixture(autouse=True)
def one_setup_sample(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_at_toy_size_and_emits_every_metric(name, trace, tmp_path):
    res = run.run_workload(name, 3, 0.0, trace, TOY_SIZES[name], tmp_path / "work")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    emitted = {k: m["unit"] for k, m in res["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for m in res["metrics"].values():
        assert isinstance(m["value"], float) and m["value"] == m["value"]
    if not trace:
        assert res["metrics"]["ok_frac"]["value"] == 1.0
        assert res["metrics"]["proven_frac"]["value"] > 0.0


def test_pacer_scales_wall_time_to_the_reference_speed(monkeypatch):
    # a host at half the reference speed: each probe takes twice the reference
    monkeypatch.setattr(pace, "probe", lambda: 2 * pace.REF_PROBE_S)
    handler = signal.getsignal(signal.SIGALRM)
    with pace.Pacer() as pacer:
        start = time.perf_counter()
        while time.perf_counter() - start < 2.5 * pace.INTERVAL_S:
            pass
        wall = time.perf_counter() - start
    assert len(pacer.samples) >= 4  # entry, exit and the timer's
    assert 0 <= pacer.overhead_s < 0.1 * wall
    assert pace.ref_seconds(wall, pacer) == pytest.approx(0.5 * (wall - pacer.overhead_s))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _solved(tmp_path, inst, method="exact"):
    path = tmp_path / "inst.json"
    out = tmp_path / "sol.json"
    save_instance(inst, path)
    call = workloads.Call(method, ("solve", "--method", method, str(path), "-o", str(out)), "inst", out)
    code = cli_main(list(call.argv))
    return {"inst": load_instance(path)}, gate.read_outcome(call, code, None)


def test_gate_passes_a_true_solution_and_rejects_corrupted_ones(tmp_path):
    instances, good = _solved(tmp_path, gen_geo_instance(5, 11, p=5.0, q=3))
    check = gate.Gate(instances, frozenset({"inst"}))
    assert check.check(good) == []

    def corrupted(edit):
        doc = json.loads(json.dumps(good.doc))
        edit(doc)
        return check.check(replace(good, doc=doc, failures=[]))

    def drop_customer(doc):
        stop = next(s for s in doc["served"] if s and s[0])
        stop[0].pop()

    def lower_total(doc):
        doc["total"] -= 1.0

    def raise_bound(doc):
        doc["config"]["bound"] = doc["total"] + 1.0

    for edit in (drop_customer, lower_total, raise_bound):
        assert corrupted(edit), edit.__name__


@pytest.mark.parametrize("pinned", [False, True])
def test_gate_rejects_a_feasible_tour_passed_off_as_optimal(tmp_path, pinned):
    # on this instance the heuristic's tour (61.69) is above the optimum (60.25)
    instances, heur = _solved(tmp_path, gen_geo_instance(5, 12, p=5.0, q=3), "heuristic")
    doc = dict(heur.doc, status="optimal", config={"bound": heur.total})
    out = gate.Outcome(replace(heur.call, kind="exact"), 0, doc=doc)
    if pinned:
        inst = instances["inst"]
        check = gate.Gate(instances, pinned={"inst": gate.milp_optimum(build_model(inst, enumerate_catalog(inst)))})
    else:
        check = gate.Gate(instances, frozenset({"inst"}))
    failures = check.check(out)
    assert any("HiGHS" in f for f in failures), failures


def test_pinned_optima_match_the_files_the_workload_writes(tmp_path):
    optima = gate.load_optima()
    assert optima
    for entry in optima.values():
        workload, seed = entry["workload"], entry["seed"]
        paths = workloads.write_inputs(workload, seed, workloads.SIZES[workload], tmp_path / f"{workload}-{seed}")
        assert entry["instance"] in gate.pinned_optima(paths)


def test_self_check_refuses_the_wrong_regime():
    metric = gen_geo_instance(6, 1, p=5.0, q=3)
    skewed = workloads.make_instances("exact-nonmetric", 1, TOY_SIZES["exact-nonmetric"])
    with pytest.raises(workloads.WorkloadRefused):
        workloads.self_check("exact-nonmetric", {"metric": metric})
    with pytest.raises(workloads.WorkloadRefused):
        workloads.self_check("exact-metric", skewed)
    workloads.self_check("exact-nonmetric", skewed)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.write_inputs("exact-nonmetric", 5, TOY_SIZES["exact-nonmetric"], tmp_path / "a")
    b = workloads.write_inputs("exact-nonmetric", 5, TOY_SIZES["exact-nonmetric"], tmp_path / "b")
    c = workloads.write_inputs("exact-nonmetric", 6, TOY_SIZES["exact-nonmetric"], tmp_path / "c")
    assert [p.read_text() for p in a.values()] == [p.read_text() for p in b.values()]
    assert [p.read_text() for p in a.values()] != [p.read_text() for p in c.values()]


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-metric", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
