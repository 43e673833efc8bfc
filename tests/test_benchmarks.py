import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import parkroute.benchmarks
from brutes import brute_mtsp, loop_modified_tsp
from parkroute.errors import InfeasibleInstanceError, UnsupportedError
from parkroute.benchmarks import modified_tsp, no_parking_benchmark, relaxed_ms, run_benchmarks
from parkroute.exact import solve_exact
from parkroute.cli import main
from parkroute.instance import Instance, gen_geo_instance, save_instance
from parkroute.model import evaluate_solution
from parkroute.servicesets import enumerate_catalog
from parkroute.tsp import solve_tsp


def _opt(inst):
    return solve_exact(inst, enumerate_catalog(inst)).value


def test_no_parking_completion_adds_search_times():
    inst = gen_geo_instance(6, seed=4, p=5.0, q=3)
    res = no_parking_benchmark(inst)
    sol = res.solution
    assert res.completion == pytest.approx(res.model_objective + 5.0 * sol.num_stops)
    assert res.completion >= _opt(inst) - 1e-9


def test_no_parking_with_zero_p_input_equals_oracle():
    inst = gen_geo_instance(6, seed=2, p=0.0, q=2)
    res = no_parking_benchmark(inst)
    assert res.model_objective == pytest.approx(res.completion)
    assert res.completion == pytest.approx(_opt(inst), abs=1e-9)


def test_no_parking_drive_dominant_parks_everywhere():
    # driving strictly faster than walking everywhere and p=0 in the variant
    inst = gen_geo_instance(6, seed=7, drive_factor=5.0, walk_factor=20.0, p=5.0, q=3)
    res = no_parking_benchmark(inst)
    assert res.stops == inst.n
    assert res.completion == pytest.approx(res.model_objective + 5.0 * inst.n)


@pytest.mark.parametrize("seed", range(4))
def test_modified_tsp_matches_order_respecting_enumeration(seed):
    inst = gen_geo_instance(6, seed=seed, p=3.0, q=2, f=0.5)
    res = modified_tsp(inst)
    nodes = list(range(inst.n + 1))
    _, order_idx, _ = solve_tsp(inst.drive[np.ix_(nodes, nodes)])
    order = [nodes[v] for v in order_idx]
    assert res.completion == pytest.approx(brute_mtsp(inst, order), abs=1e-9)
    assert res.model_objective == pytest.approx(res.completion)


def test_modified_tsp_p0_drive_dominant_parks_everywhere():
    inst = gen_geo_instance(7, seed=3, drive_factor=5.0, walk_factor=20.0, p=0.0, q=3, f=0.4)
    res = modified_tsp(inst)
    assert res.stops == inst.n
    nodes = list(range(inst.n + 1))
    tsp_cost, _, _ = solve_tsp(inst.drive[np.ix_(nodes, nodes)])
    assert res.completion == pytest.approx(tsp_cost + inst.n * 0.4)


def test_modified_tsp_two_customers_picks_cheapest_clustering():
    # n=2 candidate structures: one stop with two singletons, one stop with a
    # pair, or two stops; the DP must match explicit enumeration
    drive = np.array([[0, 2, 3], [2, 0, 2], [3, 2, 0.0]])
    walk = np.array([[0, 2.5], [2.5, 0.0]])
    inst = Instance(drive=drive, walk=walk, park_time=[4.0, 4.0], capacity_count=2)
    res = modified_tsp(inst)
    D, W = inst.D, inst.W
    one_stop_singles = min(
        D(0, s) + 4.0 + D(s, 0) + 2 * W(s, 1) + 2 * W(s, 2) for s in (1, 2)
    )
    one_stop_pair_at_1 = D(0, 1) + 4.0 + D(1, 0) + W(1, 2) + W(2, 1)
    one_stop_pair_at_2 = D(0, 2) + 4.0 + D(2, 0) + W(2, 1) + W(1, 2)
    two_stops = D(0, 1) + D(1, 2) + D(2, 0) + 8.0
    want = min(one_stop_singles, one_stop_pair_at_1, one_stop_pair_at_2, two_stops)
    assert res.completion == pytest.approx(want, abs=1e-9)


def test_modified_tsp_order_starting_at_a_non_spot(tmp_path):
    # the service order starts at customer 5, which is not a spot, so no
    # block ends at position 1 and the block starting at 2 has no arrival
    inst = replace(gen_geo_instance(8, 1, p=2.0, q=3), parking_locations=(2, 4, 6, 8))
    _, order, _ = solve_tsp(inst.drive)
    assert order[0] == 5
    res = modified_tsp(inst)
    assert res.completion == pytest.approx(brute_mtsp(inst, order), abs=1e-9)
    assert res.model_objective == pytest.approx(res.completion, abs=1e-9)
    assert set(res.solution.stops) <= {2, 4, 6, 8}
    save_instance(inst, tmp_path / "inst.json")
    assert main(["benchmark", "--models", "mtsp", str(tmp_path / "inst.json"), "-o", str(tmp_path / "b.csv")]) == 0


def test_modified_tsp_n100_is_fast():
    inst = gen_geo_instance(100, 1, p=5, q=3)
    start = time.perf_counter()
    res = modified_tsp(inst)
    assert time.perf_counter() - start < 10.0
    # completion of the earlier per-(start, end, spot) DP on this instance
    assert res.completion == pytest.approx(335.1091004269853, abs=1e-9)


def _mtsp_cases():
    # every n up to 20, then sizes up to 80; q = 1..4; half the cases park at
    # a random subset of the customers
    for n in [*range(1, 21), 25, 33, 41, 50, 64, 80]:
        for q in (1, 2, 3, 4):
            for seed in (1, 2):
                inst = gen_geo_instance(n, seed, p=3.0, q=q, f=0.2)
                if seed == 2 and n > 2:
                    rng = np.random.default_rng([n, q])
                    subset = rng.choice(np.arange(1, n + 1), max(1, n // 2), replace=False)
                    inst = replace(inst, parking_locations=tuple(subset.tolist()))
                yield inst
    # weights and volumes bind before the count does
    rng = np.random.default_rng(5)
    base = gen_geo_instance(30, 5, p=4.0, q=4)
    yield replace(base, weights=rng.uniform(0.5, 2.0, 30), capacity_weight=3.0,
                  volumes=rng.uniform(0.5, 2.0, 30), capacity_volume=3.5)
    for n in (2, 5, 9, 16, 30, 50):
        # p = 0: opening a block at the spot that closed the last one costs
        # exactly what carrying that block on does, so the two tie
        for q in (1, 3):
            yield gen_geo_instance(n, 3, p=0.0, q=q)
        rng = np.random.default_rng(n)
        base = gen_geo_instance(n, 4, p=0.0, q=3, f=0.1)
        subset = rng.choice(np.arange(1, n + 1), max(1, 2 * n // 3), replace=False)
        # per-spot search times at a subset of the customers
        yield replace(base, park_time=rng.uniform(0.5, 8.0, n), parking_locations=tuple(subset.tolist()))
        # a weight capacity alone: the count does not bound a set
        yield replace(gen_geo_instance(n, 5, p=2.0, q=None), weights=rng.uniform(0.2, 1.5, n), capacity_weight=3.0)


def test_modified_tsp_matches_the_per_start_split():
    # the forward DP over service positions against one split per block
    # start: the same objective, stops and sets, bit for bit
    for inst in _mtsp_cases():
        res = modified_tsp(inst)
        got = (res.completion, res.model_objective, res.stops, res.solution.served)
        assert tuple(map(repr, got)) == tuple(map(repr, loop_modified_tsp(inst)))


def test_modified_tsp_memory_stays_within_the_split_block():
    # one split table over every block start would hold n^2 m floats (27 MB
    # here); the forward DP keeps a few (n, m) tables, and the whole run
    # peaks near 2.3 MB
    inst = gen_geo_instance(150, 1, p=5.0, q=3)
    tracemalloc.start()
    try:
        modified_tsp(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_modified_tsp_dominates_oracle():
    for seed in range(3):
        inst = gen_geo_instance(7, seed=seed, p=6.0, q=3)
        res = modified_tsp(inst)
        assert res.completion >= _opt(inst) - 1e-9


def test_relaxed_ms_alpha_validation():
    inst = gen_geo_instance(4, seed=1)
    with pytest.raises(ValueError):
        relaxed_ms(inst, alpha=1.2)
    with pytest.raises(ValueError):
        relaxed_ms(inst, alpha=-0.1)


def test_relaxed_ms_alpha_steers_structure():
    inst = gen_geo_instance(6, seed=5, drive_factor=5.0, walk_factor=20.0, p=2.0, q=3)
    # walking weighted heavily: driving dominates, so park at every customer
    low = relaxed_ms(inst, alpha=0.6)
    assert low.stops == inst.n
    assert low.solution.breakdown.walk_min == pytest.approx(0.0)
    # walking nearly free: consolidate into a single stop and walk
    high = relaxed_ms(inst, alpha=1.0 - 1e-6)
    assert high.stops < inst.n
    assert high.solution.breakdown.walk_min > 0.0


def test_relaxed_ms_walking_increases_with_alpha():
    # higher alpha penalizes driving more, so optimal walking minutes cannot drop
    inst = gen_geo_instance(6, seed=8, drive_factor=12.0, walk_factor=13.0, p=4.0, q=3)
    lo = relaxed_ms(inst, alpha=0.6)
    hi = relaxed_ms(inst, alpha=0.8)
    assert hi.solution.breakdown.walk_min >= lo.solution.breakdown.walk_min - 1e-9


def test_relaxed_ms_objective_excludes_search_time():
    inst = gen_geo_instance(5, seed=9, p=7.0, q=2, f=0.25)
    res = relaxed_ms(inst, alpha=0.6)
    bd = res.solution.breakdown
    assert res.model_objective == pytest.approx(0.6 * bd.drive_min + 0.4 * bd.walk_min + bd.load_min)
    assert res.completion == pytest.approx(bd.park_min + bd.drive_min + bd.walk_min + bd.load_min)
    assert res.completion >= res.model_objective - 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_all_benchmarks_dominate_oracle(seed):
    inst = gen_geo_instance(6, seed=seed + 30, p=4.0, q=2, f=0.3)
    opt = _opt(inst)
    results = run_benchmarks(inst, ["npt", "mtsp", "ms:0.6", "ms:0.8"])
    assert [r.name for r in results] == ["no-parking-time", "modified-tsp", "relaxed-ms:0.6", "relaxed-ms:0.8"]
    for res in results:
        assert res.completion >= opt - 1e-9
        assert res.completion == pytest.approx(evaluate_solution(inst, res.solution).total)


def test_unknown_model_name_rejected():
    inst = gen_geo_instance(3, seed=1)
    with pytest.raises(UnsupportedError, match="unknown benchmark model 'bogus'"):
        run_benchmarks(inst, ["npt", "bogus"])


@pytest.mark.parametrize("bad", ["bogus", "ms:", "ms:x", "ms:1.5", "ms:nan", "npt:0.6"])
def test_model_names_are_checked_before_any_model_runs(bad, monkeypatch):
    monkeypatch.setattr(parkroute.benchmarks, "no_parking_benchmark", None)
    inst = gen_geo_instance(3, seed=1)
    with pytest.raises(UnsupportedError, match="unknown benchmark model"):
        run_benchmarks(inst, ["npt", bad])


def test_modified_tsp_names_a_package_over_capacity():
    # the constructor refuses such a package, so neither modified TSP nor the
    # catalog can be handed an instance that holds one
    msg = r"packages \[2\] exceed the weight capacity 3.0 on their own"
    with pytest.raises(InfeasibleInstanceError, match=msg):
        replace(gen_geo_instance(4, 1), weights=np.array([1.0, 5.0, 1.0, 1.0]), capacity_weight=3.0)
