"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream.
"""

import os
import time
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from brutes import (
    brute_mtsp, brute_optimum, brute_par, brute_walk, encode_assignment, milp_optimum, model_violations,
    self_singleton_form,
)
from parkroute.benchmarks import modified_tsp, no_parking_benchmark, relaxed_ms, run_benchmarks
from parkroute.exact import check_feasible, solve_exact
from parkroute.gridlab import (
    construct_q2,
    construct_q2_value,
    construct_q3,
    threshold_p,
    tsp_park_all_solution,
    tsp_park_all_value,
)
from parkroute.heuristic import heuristic_solve, solve_par, solve_ssa
from parkroute.instance import GridParams, gen_geo_instance, gen_grid_instance, load_instance
from parkroute.model import ModelOptions, build_model
from parkroute.servicesets import (
    enumerate_catalog,
    pair_count,
    reduce_catalog,
    reduced_pair_count,
    walk_time,
)
from parkroute.tsp import solve_tsp


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _mixed_instances(count, n_lo, n_hi, q_max, seed0=100, zero_p_every=None):
    instances = []
    for k in range(count):
        n = n_lo + k % (n_hi - n_lo + 1)
        q = 1 + k % q_max
        p = 0.0 if (zero_p_every and k % zero_p_every == 0) else [0.5, 2.0, 5.0, 9.0][k % 4]
        instances.append(gen_geo_instance(n, seed=seed0 + k, p=p, q=q, f=0.3))
    return instances


def test_criterion_1_variable_reduction_counts():
    start = time.monotonic()
    expected_full = {1: 2_500, 2: 63_750, 3: 1_043_750, 4: 12_558_750}
    expected_reduced = {1: 2_500, 2: 61_300, 3: 982_500, 4: 11_576_300}
    failures = []
    for q in (1, 2, 3):
        inst = gen_geo_instance(50, seed=1, q=q)
        cat = enumerate_catalog(inst)
        red = reduce_catalog(cat)
        if cat.pair_count() != expected_full[q]:
            failures.append(f"q={q} enumerated {cat.pair_count()}")
        if red.admissible_pair_count() != expected_reduced[q]:
            failures.append(f"q={q} reduced {red.admissible_pair_count()}")
    if pair_count(50, 4) != expected_full[4] or reduced_pair_count(50, 4) != expected_reduced[4]:
        failures.append("q=4 analytic counts")
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s")
    _report(1, not failures, f"pair counts n=50 q=1..4, {elapsed:.1f}s" + (f"; {failures}" if failures else ""))


def test_criterion_2_tsp_threshold_sweep_2x2():
    start = time.monotonic()
    failures = []
    sweep = (0.0, 1.0, 2.0, 2.2, 2.3, 3.0)

    # The threshold l(2w - d) = 2.2 does not hold on 2x2.  Parking at all four
    # customers drives 2 * MinDistance + n = 8 blocks: 8 + 4p.  Parking once at
    # (1,1) drives 2 + 2 blocks, walks {(1,2), (2,2)} as one 4-block loop and
    # (2,1) out and back in 2 blocks (6 * 1.6 = 9.6), and searches once:
    # 13.6 + p.  It also saves the closing block back from (1,2), so it wins
    # from p = 5.6 / 3 (about 1.87), below the threshold.
    small = GridParams(sqrt_n=2, walk_rate=1.6, capacity=2)
    thr = threshold_p(2, small)
    if abs(thr - 2.2) > 1e-9:
        failures.append(f"2x2 threshold {thr}")
    for p in sweep:
        inst = gen_grid_instance(replace(small, park_time=p))
        res = solve_exact(inst, enumerate_catalog(inst))
        want = min(8.0 + 4.0 * p, 13.6 + p)
        if abs(res.value - want) > 1e-6:
            failures.append(f"2x2 p={p}: optimum {res.value:.6f} != {want}")

    # On 4x4 the threshold is sharp: HiGHS proves the park-everywhere tour
    # optimal up to it, and the capacity-2 witness beats the tour above it.
    grid = GridParams(sqrt_n=4, walk_rate=1.6, capacity=2)
    thr = threshold_p(2, grid)
    if abs(thr - 2.2) > 1e-9:
        failures.append(f"4x4 threshold {thr}")
    strengthened = ModelOptions(
        vi_claim4=True, vi_corollary1=True, vi_claim5=True, vi_corollary3=True, var_reduction=True,
    )
    for p in sweep:
        gp = replace(grid, park_time=p)
        tsp_v = tsp_park_all_value(gp)
        if p <= thr + 1e-9:
            inst, tour = tsp_park_all_solution(gp)
            opt = milp_optimum(build_model(inst, enumerate_catalog(inst), strengthened))
            if abs(opt - tsp_v) > 1e-6 or abs(tour.total - tsp_v) > 1e-6:
                failures.append(f"4x4 p={p}: optimum {opt:.6f}, tour {tour.total:.6f} != {tsp_v}")
        else:
            witness = construct_q2(gp).total
            if abs(witness - construct_q2_value(gp)) > 1e-6:
                failures.append(f"4x4 p={p}: witness {witness:.6f} != closed form {construct_q2_value(gp)}")
            if not witness < tsp_v - 1e-9:
                failures.append(f"4x4 p={p}: witness {witness:.6f} not below {tsp_v}")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s")
    _report(2, not failures, f"2x2 and 4x4 sweeps, {elapsed:.1f}s" + (f"; {failures}" if failures else ""))


def test_criterion_3_capacity3_witness_6x6():
    start = time.monotonic()
    base = GridParams(sqrt_n=6, capacity=3)
    p = threshold_p(3, base) + 0.01
    gp = replace(base, park_time=p)
    sol = construct_q3(gp)
    want = 34.0 * gp.block_len * gp.drive_rate + 30.0 * p + 8.0 * gp.block_len * gp.walk_rate + gp.n * gp.load
    elapsed = time.monotonic() - start
    ok = abs(sol.total - want) <= 1e-9 and sol.total < tsp_park_all_value(gp) - 1e-9 and elapsed < 1.0
    _report(3, ok, f"witness {sol.total:.6f} vs closed form {want:.6f} vs tour value "
                   f"{tsp_park_all_value(gp):.6f}, {elapsed:.2f}s")


def test_criterion_4_option_invariance_20_instances():
    # the reduced catalog keeps the optimum, and the optimum's self-singleton
    # form keeps its total and meets every row of the model with all four
    # valid inequalities and the variable reduction, so none of them cuts
    # the optimum off
    start = time.monotonic()
    failures = []
    reshaped = 0
    strengthened = ModelOptions(
        vi_claim4=True, vi_corollary1=True, vi_claim5=True, vi_corollary3=True, var_reduction=True,
    )
    for inst in _mixed_instances(20, n_lo=4, n_hi=8, q_max=3):
        cat = enumerate_catalog(inst)
        base = solve_exact(inst, cat)
        reduced = solve_exact(inst, reduce_catalog(cat)).value
        if abs(reduced - base.value) > 1e-6:
            failures.append(f"n={inst.n} reduced catalog: {reduced} != {base.value}")
        form = self_singleton_form(inst, base.solution)
        reshaped += form.served != base.solution.served
        if abs(form.total - base.value) > 1e-9:
            failures.append(f"n={inst.n} self-singleton form: {form.total} != {base.value}")
        broken = model_violations(build_model(inst, cat, strengthened), encode_assignment(inst, form), form.total)
        if broken:
            failures.append(f"n={inst.n} self-singleton form breaks {broken}")
    elapsed = time.monotonic() - start
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s")
    _report(4, not failures, f"20 instances, reduced catalog and strengthened model, {reshaped} optima reshaped, "
                             f"{elapsed:.1f}s" + (f"; {failures}" if failures else ""))


def test_criterion_5_benchmark_dominance_20_instances():
    start = time.monotonic()
    failures = []
    for inst in _mixed_instances(20, n_lo=4, n_hi=8, q_max=3, seed0=200, zero_p_every=5):
        cat = enumerate_catalog(inst)
        opt = solve_exact(inst, cat).value
        results = [
            no_parking_benchmark(inst),
            modified_tsp(inst),
            relaxed_ms(inst, alpha=0.6),
            relaxed_ms(inst, alpha=0.8),
        ]
        for res in results:
            if res.completion < opt - 1e-9:
                failures.append(f"n={inst.n} {res.name}: completion {res.completion} < opt {opt}")
            bd = res.solution.breakdown
            if abs(bd.park_min + bd.drive_min + bd.walk_min + bd.load_min - res.completion) > 1e-9:
                failures.append(f"{res.name}: breakdown does not sum to completion")
        if float(inst.park_time[1:].max()) == 0.0:
            npt = results[0]
            if abs(npt.completion - opt) > 1e-9:
                failures.append(f"zero-p instance: no-parking {npt.completion} != opt {opt}")
    elapsed = time.monotonic() - start
    _report(5, not failures, f"benchmark dominance on 20 instances, {elapsed:.1f}s" + (f"; {failures}" if failures else ""))


@pytest.mark.skipif(
    "PARKROUTE_DATASET_DIR" not in os.environ,
    reason="published instances not present; set PARKROUTE_DATASET_DIR to enable",
)
def test_criterion_5_gated_published_dataset_gaps():
    root = os.environ["PARKROUTE_DATASET_DIR"]
    gaps = []
    for entry in sorted(os.listdir(root)):
        inst = load_instance(os.path.join(root, entry), format="published-dataset")
        if inst.capacity_count is None or inst.capacity_count > 2:
            continue
        res = solve_exact(inst, enumerate_catalog(inst))
        if res.status != "optimal":
            pytest.skip("no optimality proof available at this size without an external solver")
        heur = heuristic_solve(inst)
        gaps.append((heur.total - res.value) / res.value)
    assert gaps and max(gaps) <= 0.08


def test_criterion_6_heuristic_quality_20_instances():
    start = time.monotonic()
    failures = []
    gaps = []
    for inst in _mixed_instances(20, n_lo=5, n_hi=10, q_max=3, seed0=300):
        cat = enumerate_catalog(inst)
        sol = heuristic_solve(inst, cat)
        if check_feasible(inst, cat, sol):
            failures.append(f"n={inst.n}: heuristic infeasible")
            continue
        opt = solve_exact(inst, cat).value
        gaps.append((sol.total - opt) / opt)
        pa = solve_par(inst)
        if abs(pa.objective - brute_par(inst)) > 1e-9:
            failures.append(f"n={inst.n}: PA objective {pa.objective} != enumeration {brute_par(inst)}")
        by_spot = {}
        for c, s in pa.assign.items():
            by_spot.setdefault(s, []).append(c)
        for s, members in by_spot.items():
            if len(members) <= 6:
                _, cost, exact = solve_ssa(inst, cat, s, members)
                best = min(
                    sum(brute_walk(inst, s, g) for g in part)
                    for part in _partitions_capped(members, inst.capacity_count)
                )
                if not exact or abs(cost - best) > 1e-9:
                    failures.append(f"n={inst.n} spot {s}: SSA {cost} != partition brute force {best}")
    mean_gap = sum(gaps) / len(gaps) if gaps else 1.0
    max_gap = max(gaps) if gaps else 1.0
    if mean_gap > 0.15:
        failures.append(f"mean gap {mean_gap:.3f} > 0.15")
    if max_gap > 0.30:
        failures.append(f"max gap {max_gap:.3f} > 0.30")
    elapsed = time.monotonic() - start
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s")
    _report(6, not failures,
            f"mean gap {mean_gap * 100:.2f}%, max {max_gap * 100:.2f}%, {elapsed:.1f}s"
            + (f"; {failures}" if failures else ""))


def _partitions_capped(items, q):
    from brutes import all_partitions

    for part in all_partitions(list(items)):
        if q is None or all(len(g) <= q for g in part):
            yield part


def test_criterion_7_brute_force_equivalences():
    start = time.monotonic()
    failures = []
    # walking tours vs permutation enumeration up to size 6
    inst = gen_geo_instance(8, seed=400, q=6)
    for size in range(2, 7):
        members = tuple(range(2, 2 + size))
        if abs(walk_time(inst, 1, members) - brute_walk(inst, 1, members)) > 1e-9:
            failures.append(f"walk size {size}")
    # order-respecting clustering DP vs enumeration at n=8
    for seed in (401, 402):
        inst8 = gen_geo_instance(8, seed=seed, p=4.0, q=3, f=0.3)
        nodes = list(range(9))
        _, oi, _ = solve_tsp(inst8.drive[np.ix_(nodes, nodes)])
        order = [nodes[v] for v in oi]
        dp = modified_tsp(inst8).completion
        bf = brute_mtsp(inst8, order)
        if abs(dp - bf) > 1e-9:
            failures.append(f"clustering DP seed {seed}: {dp} != {bf}")
    # exact solver vs full structural enumeration at n<=5
    for seed in (403, 404, 405):
        n = 3 + seed % 3
        inst5 = gen_geo_instance(n, seed=seed, p=2.0, q=2, f=0.2)
        res = solve_exact(inst5, enumerate_catalog(inst5))
        bf = brute_optimum(inst5)
        if abs(res.value - bf) > 1e-9:
            failures.append(f"oracle n={n}: {res.value} != {bf}")
    elapsed = time.monotonic() - start
    _report(7, not failures, f"component equivalences, {elapsed:.1f}s" + (f"; {failures}" if failures else ""))


def test_criterion_8_threshold_curve_values():
    urban = GridParams(sqrt_n=4, block_len=0.07, drive_rate=12.5, walk_rate=20.0)
    rural = GridParams(sqrt_n=4, block_len=0.29, drive_rate=12.5, walk_rate=20.0)
    checks = [
        (threshold_p(2, urban), 1.925),
        (threshold_p(3, urban), 0.992),
        (threshold_p(2, rural), 7.975),
        (threshold_p(3, rural), 4.108),
    ]
    failures = [f"{got:.4f} != {want}" for got, want in checks if abs(got - want) > 1e-3]
    if round(threshold_p(3, urban)) != 1:
        failures.append("urban capacity-3 cutoff does not round to one minute")
    _report(8, not failures, "threshold curve values" + (f"; {failures}" if failures else ""))


def test_criterion_9_parking_matters_at_proven_optima():
    # the paper's headline at proven optima, n = 12, seeds 1-5: the DP optimum
    # is at or below every benchmark, whose variants are proven by the DP too,
    # and the mean ratio of no-parking and of modified TSP to the optimum
    # rises with the search time.  The ms ratios fall with p here, so they
    # are reported and not asserted.
    start = time.monotonic()
    failures = []
    mean = {}
    for p in (1.0, 8.0):
        ratios = {}
        for seed in range(1, 6):
            inst = gen_geo_instance(12, seed, p=p, q=3)
            opt = solve_exact(inst, enumerate_catalog(inst))
            if opt.status != "optimal":
                failures.append(f"p={p} seed={seed}: optimum not proven")
                continue
            for res in run_benchmarks(inst, ["npt", "mtsp", "ms:0.6", "ms:0.8"]):
                if res.completion < opt.value - 1e-9:
                    failures.append(f"p={p} seed={seed} {res.name}: {res.completion} < opt {opt.value}")
                if res.name != "modified-tsp" and (res.solver, res.exact) != ("exact", True):
                    failures.append(f"p={p} seed={seed} {res.name}: variant not proven")
                ratios.setdefault(res.name, []).append(res.completion / opt.value)
        mean[p] = {name: float(np.mean(r)) for name, r in ratios.items()}
    for name in ("no-parking-time", "modified-tsp"):
        if not mean[8.0][name] > mean[1.0][name]:
            failures.append(f"{name} ratio does not rise with p")
    ratios = ", ".join(f"{name} {mean[1.0][name]:.4f} -> {mean[8.0][name]:.4f}" for name in mean[1.0])
    elapsed = time.monotonic() - start
    _report(9, not failures, f"mean ratio to the optimum, p = 1 -> 8: {ratios}, {elapsed:.1f}s"
                             + (f"; {failures}" if failures else ""))
