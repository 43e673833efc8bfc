import gc
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import parkroute.heuristic
from brutes import (
    brute_optimum, dense_table_decode, loop_completion_table, loop_partition_values, loop_set_completion_table,
    loop_walk_costs, milp_optimum, ring_walk_instance, self_singleton_form,
)
from parkroute.benchmarks import modified_tsp
from parkroute.errors import InfeasibleInstanceError, ResourceLimitError, UnsupportedError
from parkroute import exact, servicesets
from parkroute.cli import main
from parkroute.exact import _Completion, _Searcher, _closure, _materialize, check_feasible, solve_exact
from parkroute.gridlab import construct_q2_value, tsp_park_all_value
from parkroute.heuristic import heuristic_solve, heuristic_solve_full, solve_ssa
from parkroute.instance import (
    GridParams, Instance, gen_geo_instance, gen_grid_instance, save_instance, validate_instance,
)
from parkroute.model import Breakdown, ModelOptions, Solution, assemble_solution, build_model, evaluate_solution
from parkroute.servicesets import (
    PartitionTable, ServiceSet, ServiceSetCatalog, enumerate_catalog, reduce_catalog,
)


def _skew(inst, seed):
    """``inst`` with each drive time stretched by a seeded factor in [1, 1.6),
    which breaks the triangle inequality."""
    factor = np.random.default_rng(seed).uniform(1.0, 1.6, size=inst.drive.shape)
    return replace(inst, drive=inst.drive * factor)


def _kernel(inst, cat):
    """The completion DP on the operands ``solve_exact`` gives it (the drive
    matrix, or its closure off the triangle inequality, over the spots in
    ascending id) and the depot's entry legs."""
    S = list(inst.spots)
    D = inst.drive if validate_instance(inst).drive_triangle_violations == 0 else _closure(inst.drive)
    largest = max(s.size for s in cat.sets)
    dp = _Completion(inst.n, cat.masks, cat.walk_cost_table(), largest, inst.park_time[S], D[np.ix_(S, S)], D[S, 0])
    return dp, D[0, S]


def _solve_dp(inst, cat):
    """The kernel, its value and its decoded stops and bundles, as ``solve_exact`` reads them."""
    dp, entry = _kernel(inst, cat)
    value = dp.value(entry)
    cols, bundles = dp.decode(entry, value)
    return dp, value, tuple(inst.spots[k] for k in cols), tuple(bundles)


def test_single_customer_closed_form():
    inst = Instance(drive=[[0, 2], [2, 0]], walk=[[0.0]], park_time=[1.0], load_per_package=0.5, capacity_count=1)
    res = solve_exact(inst, enumerate_catalog(inst))
    assert res.status == "optimal"
    assert res.value == pytest.approx(2 + 1 + 2 + 0.5)
    assert res.solution.stops == (1,)


def test_two_customers_huge_search_time_consolidates():
    # customers adjacent by walk: one stop serving both beats parking twice
    drive = [[0, 5, 5], [5, 0, 1], [5, 1, 0]]
    walk = [[0, 0.5], [0.5, 0]]
    inst = Instance(drive=drive, walk=walk, park_time=[40.0, 40.0], capacity_count=2)
    res = solve_exact(inst, enumerate_catalog(inst))
    assert res.value == pytest.approx(brute_optimum(inst), abs=1e-9)
    assert res.solution.num_stops == 1


@pytest.mark.parametrize("seed", range(6))
def test_matches_structural_enumeration(seed):
    n = 3 + seed % 3  # n in {3,4,5}
    inst = gen_geo_instance(n, seed=seed, p=float(seed) / 2, q=2, f=0.3)
    res = solve_exact(inst, enumerate_catalog(inst))
    assert res.status == "optimal"
    assert res.value == pytest.approx(brute_optimum(inst), abs=1e-9)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_n7_optimum_matches_highs(seed):
    # brute force is out of reach at n = 7; HiGHS with a zero gap is not
    inst = gen_geo_instance(7, seed, p=5.0, q=3)
    cat = enumerate_catalog(inst)
    res = solve_exact(inst, cat)
    assert res.status == "optimal"
    assert res.value == pytest.approx(milp_optimum(build_model(inst, cat)), abs=1e-6)


@pytest.mark.parametrize("seed, p", [(1, 5.0), (2, 5.0), (3, 0.0), (4, 1.0)])
def test_n7_optimum_on_a_skewed_drive_matches_highs(seed, p):
    # the closure DP's solution meets its floor and proves itself, except on
    # seed 2, where the branch-and-bound runs from it.  The MIP's routes may
    # enter a spot twice, which the search forbids, so HiGHS is a reference
    # only where that does not pay, as on these inputs
    inst = _skew(gen_geo_instance(7, seed, p=p, q=3), seed)
    cat = enumerate_catalog(inst)
    res = solve_exact(inst, cat)
    assert res.status == "optimal"
    assert res.bound <= res.value + 1e-9
    assert res.value == pytest.approx(milp_optimum(build_model(inst, cat)), abs=1e-6)


def test_more_than_18_customers_are_refused_at_once():
    inst = gen_geo_instance(19, seed=1)
    start = time.monotonic()
    with pytest.raises(ResourceLimitError, match="up to 18 customers"):
        solve_exact(inst, enumerate_catalog(inst))
    assert time.monotonic() - start < 1.0


def test_17_customers_are_proven_by_the_dp():
    inst = gen_geo_instance(17, seed=1, p=5.0, q=3)
    cat = enumerate_catalog(inst)
    res = solve_exact(inst, cat)
    assert res.status == "optimal"
    assert res.bound == pytest.approx(res.value, abs=1e-9)
    assert evaluate_solution(inst, res.solution).total == pytest.approx(res.value, abs=1e-9)
    assert check_feasible(inst, cat, res.solution) == []
    assert res.value <= heuristic_solve(inst, cat).total + 1e-9
    assert res.value <= modified_tsp(inst).completion + 1e-9
    again = solve_exact(inst, cat)
    assert (again.status, again.value, again.bound, again.solution) == (res.status, res.value, res.bound, res.solution)


def test_the_dp_builds_no_partition_table_over_all_customers(monkeypatch):
    # the DP path splits each stop on its own bundle; only the
    # branch-and-bound builds the table over every customer
    counts = []
    build = PartitionTable.__init__

    def record(self, customers, candidates, costs):
        counts.append(len(customers))
        build(self, customers, candidates, costs)

    monkeypatch.setattr(PartitionTable, "__init__", record)
    inst = gen_geo_instance(12, 1, p=5.0, q=3)
    res = solve_exact(inst, enumerate_catalog(inst))
    assert res.status == "optimal"
    assert counts and inst.n not in counts

    # free parking on a skewed drive: the closure DP's solution, costed on
    # the true drive, misses the DP's floor, so the search runs
    counts.clear()
    skewed = _skew(gen_geo_instance(12, 0, p=0.0, q=3), 0)
    monkeypatch.setattr(exact, "SEARCH_LIMIT", 100_000)
    solve_exact(skewed, enumerate_catalog(skewed))
    assert inst.n in counts


def test_true_optima_on_2x2_grid_sweep():
    # independent brute-force values; a single consolidated stop takes over at
    # p > 5.6/3, before the two-stop structures do
    expected = {0.0: 8.0, 1.0: 12.0, 2.0: 15.6, 2.2: 15.8, 2.3: 15.9, 3.0: 16.6}
    for p, want in expected.items():
        gp = GridParams(sqrt_n=2, walk_rate=1.6, park_time=p, capacity=2)
        inst = gen_grid_instance(gp)
        res = solve_exact(inst, enumerate_catalog(inst))
        assert res.value == pytest.approx(want, abs=1e-9)
        assert res.value == pytest.approx(brute_optimum(inst), abs=1e-9)


def test_dp_proves_the_4x4_grid_threshold():
    # n = 16, the paper's grid: the completion DP proves the park-everywhere
    # tour optimal at the capacity-2 threshold and finds a cheaper tour just
    # above it, which HiGHS confirms
    start = time.monotonic()
    at = GridParams(sqrt_n=4, walk_rate=1.6, park_time=2.2, capacity=2)
    inst = gen_grid_instance(at)
    res = solve_exact(inst, enumerate_catalog(inst))
    assert res.status == "optimal"
    assert res.value == pytest.approx(tsp_park_all_value(at), abs=1e-6)

    above = GridParams(sqrt_n=4, walk_rate=1.6, park_time=2.3, capacity=2)
    inst = gen_grid_instance(above)
    cat = enumerate_catalog(inst)
    res = solve_exact(inst, cat)
    assert res.status == "optimal"
    assert res.value < construct_q2_value(above) - 1e-9
    assert res.value < tsp_park_all_value(above) - 1e-9
    assert time.monotonic() - start < 60.0
    strengthened = ModelOptions(
        vi_claim4=True, vi_corollary1=True, vi_claim5=True, vi_corollary3=True, var_reduction=True,
    )
    assert res.value == pytest.approx(milp_optimum(build_model(inst, cat, strengthened)), abs=1e-6)


def test_the_search_runs_without_the_heuristic(monkeypatch):
    # on this skewed drive the closure DP's solution misses its floor and the
    # branch-and-bound runs from it; the heuristic has no part in the solve
    inst = _skew(gen_geo_instance(4, 12, p=0.5, q=3), 7)
    cat = enumerate_catalog(inst)

    def fail(*args, **kwargs):
        raise RuntimeError("the exact solver called the heuristic")

    searched = []
    setup = _Searcher.__init__

    def record(self, *args):
        searched.append(True)
        setup(self, *args)

    monkeypatch.setattr(parkroute.heuristic, "heuristic_solve", fail)
    monkeypatch.setattr(_Searcher, "__init__", record)
    res = solve_exact(inst, cat)
    assert searched == [True]
    assert res.status == "optimal"
    assert res.value == pytest.approx(brute_optimum(inst), abs=1e-9)


def test_a_decode_tie_falls_back_to_the_search(monkeypatch):
    # a DP decode that every optimal continuation sends back to a visited
    # spot raises _ReconstructionTie; the branch-and-bound must then prove
    # the DP's value
    inst = gen_geo_instance(6, seed=31, p=3.0, q=2)
    cat = enumerate_catalog(inst)
    dp = solve_exact(inst, cat)
    targets = []

    def tie(self, entry, target):
        targets.append(target)
        raise exact._ReconstructionTie

    monkeypatch.setattr(_Completion, "decode", tie)
    searched = solve_exact(inst, cat)
    assert targets == [pytest.approx(dp.bound - inst.n * inst.load_per_package, abs=1e-9)]
    assert searched.status == dp.status == "optimal"
    assert searched.value == pytest.approx(dp.value, abs=1e-9)
    assert searched.bound == pytest.approx(searched.value, abs=1e-9)
    assert check_feasible(inst, cat, searched.solution) == []

    # a search cut short by its limit keeps the DP's proven value as its
    # bound (the search's own bound is far lower here)
    inst = gen_geo_instance(12, 1, p=5, q=3)
    cat = enumerate_catalog(inst)
    monkeypatch.undo()
    dp = solve_exact(inst, cat)
    monkeypatch.setattr(_Completion, "decode", tie)
    monkeypatch.setattr(exact, "SEARCH_LIMIT", 200_000)
    cut = solve_exact(inst, cat)
    assert cut.status == "feasible"
    assert dp.bound - 1e-9 <= cut.bound <= cut.value
    assert check_feasible(inst, cat, cut.solution) == []


def test_option_invariance_single_instance():
    # the reduced catalog bans pairs that never help, so the optimum stays
    inst = gen_geo_instance(7, seed=3, p=4.0, q=3)
    cat = enumerate_catalog(inst)
    base = solve_exact(inst, cat).value
    assert solve_exact(inst, reduce_catalog(cat)).value == pytest.approx(base, abs=1e-6)


def test_self_singleton_option_binds_on_a_non_metric_walk():
    # on the ring walk the optimum serves a stop's own customer from another
    # stop, and its self-singleton form costs more, so the self-singleton MIP
    # rows would cut the optimum off (``build_model`` refuses them there).
    # The drive matrix is metric, so the DP decides the solve.
    inst = ring_walk_instance()
    cat = enumerate_catalog(inst)
    free = solve_exact(inst, cat)
    assert free.status == "optimal"
    assert any(
        stop not in [c for order in stop_sets for c in order]
        for stop, stop_sets in zip(free.solution.stops, free.solution.served)
    )
    assert self_singleton_form(inst, free.solution).total > free.value + 1e-9


def test_every_stop_serves_and_stops_bounded_by_sets():
    inst = gen_geo_instance(7, seed=13, p=5.0, q=3)
    res = solve_exact(inst, enumerate_catalog(inst))
    sol = res.solution
    assert all(len(stop_sets) >= 1 for stop_sets in sol.served)
    assert sol.num_stops <= sol.num_sets


def test_weak_monotonicity_in_search_time():
    for seed in range(3):
        base = gen_geo_instance(5, seed=seed, p=1.0, q=2)
        bumped = Instance(
            drive=base.drive, walk=base.walk, park_time=base.park_time + np.where(np.arange(6) > 0, 0.7, 0.0),
            capacity_count=2,
        )
        v0 = solve_exact(base, enumerate_catalog(base)).value
        v1 = solve_exact(bumped, enumerate_catalog(bumped)).value
        assert v1 >= v0 + 0.7 - 1e-9


def test_determinism_two_runs():
    inst = gen_geo_instance(7, seed=21, p=2.0, q=2)
    cat = enumerate_catalog(inst)
    a = solve_exact(inst, cat)
    b = solve_exact(inst, cat)
    assert a.value == b.value
    assert a.solution.stops == b.solution.stops
    assert a.solution.served == b.solution.served


def test_budget_exhaustion_keeps_valid_bound(monkeypatch):
    # a skewed drive whose closure DP solution misses its floor, so the
    # search runs.  The root prices 4 spots << 4 customers = 64 candidates
    # and any child at least 3 spots << 1 customer, so a limit of 65 stops
    # the search at its second node
    inst = _skew(gen_geo_instance(4, 7, p=0.5, q=3), 7)
    cat = enumerate_catalog(inst)
    full = solve_exact(inst, cat)
    monkeypatch.setattr(exact, "SEARCH_LIMIT", 65)
    capped = solve_exact(inst, cat)
    assert capped.nodes == 2
    assert capped.status == "feasible"
    assert capped.bound <= full.value + 1e-9
    assert capped.value >= full.value - 1e-9


def test_a_stopped_search_stops_at_the_same_node_whatever_the_clock_says(monkeypatch):
    # the search limit counts work, so a stopped search's result is a
    # function of its input: pinned node for node, the same on a second
    # run, and the same when every clock read jumps an hour
    inst = _skew(gen_geo_instance(10, 1, p=5, q=3), 1)
    cat = enumerate_catalog(inst)
    monkeypatch.setattr(exact, "SEARCH_LIMIT", 2_000_000)

    def outcome():
        res = solve_exact(inst, cat)
        return res.status, res.value, res.bound, res.nodes, res.solution.stops

    first = outcome()
    assert first == ("feasible", 83.67392655700792, 82.76322277826966, 11_432, (6, 2, 5))
    assert outcome() == first
    for name in ("monotonic", "perf_counter"):
        ticks = iter(range(0, 10**9, 3600))
        monkeypatch.setattr(time, name, lambda ticks=ticks: float(next(ticks)))
    assert outcome() == first


def test_a_search_stopped_before_any_incumbent_times_out(monkeypatch, tmp_path, capsys):
    # a decode tie leaves the search without the DP's solution, and a limit
    # of one candidate stops it at its root: no incumbent, the floor as the
    # bound, and the CLI's exit code 4
    inst = _skew(gen_geo_instance(7, 1, p=0, q=3), 3)

    def tie(self, entry, target):
        raise exact._ReconstructionTie

    monkeypatch.setattr(_Completion, "decode", tie)
    monkeypatch.setattr(exact, "SEARCH_LIMIT", 1)
    res = solve_exact(inst, enumerate_catalog(inst))
    assert (res.status, res.solution, res.value) == ("timeout", None, None)
    assert (res.bound, res.nodes) == (39.600638176591914, 1)

    path = tmp_path / "n7-skewed.json"
    save_instance(inst, path)
    assert main(["solve", "--method", "exact", str(path), "-o", str(tmp_path / "sol.json")]) == 4
    assert capsys.readouterr().err == "no incumbent found (bound 39.600638)\n"
    assert not (tmp_path / "sol.json").exists()


@pytest.mark.parametrize("seed, r, value, nodes, stops", [
    (1, 3, 39.60390461995722, 18_696, (5, 3, 4, 7, 2, 6, 1)),
    (8, 0, 36.92447734687476, 16_499, (1, 7, 3, 6, 5, 4)),
    (8, 9, 35.34390989076377, 10_851, (1, 4, 6, 5, 3, 7, 2)),
    (11, 2, 48.758808286812034, 19_332, (7, 2, 5, 4, 6, 1, 3)),
])
def test_the_search_proves_the_same_optimum_node_for_node(seed, r, value, nodes, stops):
    # skewed inputs where the closure DP's solution misses its floor and the
    # branch-and-bound proves the optimum: its value, its tie-broken stops
    # and its node count are pinned exactly, so any change to the order in
    # which it prices, bounds or prunes candidates shows up here
    inst = _skew(gen_geo_instance(7, seed, p=0, q=3), r)
    res = solve_exact(inst, enumerate_catalog(inst))
    assert (res.status, res.value, res.bound, res.nodes) == ("optimal", value, value, nodes)
    assert res.solution.stops == stops


def test_the_search_views_copy_no_table():
    # the branch-and-bound reads its 2^n-row tables, bundle (4,096 rows by
    # 12 spots here) and dsum, through memoryviews, which copy nothing:
    # without any view the constructor leaves 461,332 bytes allocated, and
    # lists of the tables' floats would leave 2.1 MB
    inst = _skew(gen_geo_instance(12, 1, p=5, q=3), 7)
    cat = enumerate_catalog(inst)
    cat.walk_cost_table()
    tracemalloc.start()
    try:
        searcher = _Searcher(inst, cat, False)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert searcher.bundle.shape == (4096, 12)
    assert retained <= 1.1 * 461_332


def test_restricted_parking_and_empty_coverage():
    inst = Instance(
        drive=[[0, 1, 1], [1, 0, 1], [1, 1, 0]], walk=[[0, 1], [1, 0]],
        park_time=[1.0, 1.0], capacity_count=1, parking_locations=(1,),
    )
    cat = enumerate_catalog(inst)
    res = solve_exact(inst, cat)  # spot 1 can serve both customers on foot
    assert res.status == "optimal"
    # a catalog that covers only part of the customers cannot serve everyone
    partial = ServiceSetCatalog(inst=inst, sets=(ServiceSet((1,)),))
    with pytest.raises(InfeasibleInstanceError):
        solve_exact(inst, partial)


def test_check_feasible_accepts_oracle_output():
    inst = gen_geo_instance(6, seed=2, p=2.0, q=2)
    cat = enumerate_catalog(inst)
    res = solve_exact(inst, cat)
    assert check_feasible(inst, cat, res.solution) == []


def test_check_feasible_flags_reduced_pair():
    inst = gen_geo_instance(4, seed=5, q=2)
    red = reduce_catalog(enumerate_catalog(inst))
    sol = assemble_solution(inst, [1, 3], [((1, 2),), ((3,), (4,))])
    violations = check_feasible(inst, red, sol)
    assert any("inadmissible" in v for v in violations)


def test_check_feasible_flags_missing_coverage():
    inst = gen_geo_instance(3, seed=6, q=1)
    cat = enumerate_catalog(inst)
    empty = Solution(stops=(), served=(), breakdown=Breakdown(0, 0, 0, 0), total=0.0)
    violations = check_feasible(inst, cat, empty)
    assert any("not served" in v for v in violations)


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("n, seed", [(1, 0), (4, 1), (7, 2), (9, 3)])
def test_bound_table_matches_the_per_customer_loop(n, seed, reduced):
    # reference: each customer's least walk share plus park share over its
    # admissible (spot, set) pairs, summed over a mask lowest bit last; walk
    # costs from the permutation brute force
    inst = gen_geo_instance(n, seed, p=1.3, q=3)
    if seed == 3:
        inst = replace(inst, parking_locations=(1, 4, 7, 8))
    cat = enumerate_catalog(inst)
    if reduced:
        cat = reduce_catalog(cat)
    searcher = _Searcher(inst, cat, True)
    walk = loop_walk_costs(cat)
    delta = np.full(n + 1, np.inf)
    for col, i in enumerate(inst.spots):
        for c in inst.customers:
            for j in cat.sets_containing(c):
                if cat.admissible(i, j):
                    delta[c] = min(delta[c], walk[j, col] / cat.sets[j].size + inst.park_time[i] / n)
    dsum = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length()
        dsum[mask] = dsum[mask & (mask - 1)] + delta[low]
    assert np.array_equal(searcher.dsum, dsum)


def test_a_pass_through_stop_materialises_as_an_empty_stop():
    # bit b of a bundle is customer b + 1; the catalog walks customer 1 only
    # together with customer 2.  Off the triangle inequality the search may
    # park at a stop and serve no one there
    inst = gen_geo_instance(3, seed=1, p=2.0, q=3)
    drive = inst.drive.copy()
    drive[0, 2] = drive[0, 1] + drive[1, 2] + 1.0
    skewed = replace(inst, drive=drive)
    cat = ServiceSetCatalog(inst=skewed, sets=(ServiceSet((1, 2)), ServiceSet((3,))))
    assert validate_instance(skewed).drive_triangle_violations > 0
    sol = _materialize(skewed, cat, (1, 2), (0b000, 0b111))
    assert sol.served[0] == ()
    assert [[sorted(o) for o in stop_sets] for stop_sets in sol.served] == [[], [[1, 2], [3]]]
    assert check_feasible(skewed, cat, sol) == []


def test_a_pass_through_stop_that_pays_is_found():
    # the drive reaches spot 1 cheaply only through spot 3, and customer 2
    # is cheap to walk only on the tour 1 -> 3 -> 2 -> 1, so the optimum parks
    # at 3 without serving anyone there.  The closure DP's floor prices that
    # detour; its solution, parked at 1 alone, drives the direct leg on the
    # true matrix, so the search runs and finds the detour
    drive = np.full((4, 4), 20.0)
    np.fill_diagonal(drive, 0.0)
    drive[0, 3] = drive[3, 1] = drive[1, 0] = 1.0
    walk = np.full((3, 3), 10.0)  # customers only: row and column c - 1
    np.fill_diagonal(walk, 0.0)
    walk[0, 2] = walk[2, 1] = walk[1, 0] = 1.0
    inst = Instance(drive=drive, walk=walk, park_time=[1.0, 1.0, 1.0], capacity_count=3)
    res = solve_exact(inst, enumerate_catalog(inst))
    assert res.status == "optimal"
    assert res.value == pytest.approx(brute_optimum(inst), abs=1e-9) == 8.0
    assert res.solution.stops == (3, 1) and res.solution.served[0] == ()
    assert res.bound == pytest.approx(res.value, abs=1e-9)


def _identity_case(name):
    if name == "grid-4x4-first-9":  # rectilinear times, full of ties
        grid = gen_grid_instance(GridParams(sqrt_n=4, walk_rate=1.6, park_time=2.3, capacity=3))
        return Instance(drive=grid.drive[:10, :10], walk=grid.walk[:10, :10], park_time=grid.park_time[1:10],
                        capacity_count=3)
    return {
        "geo-n6": lambda: gen_geo_instance(6, 1, p=5.0, q=3),
        "geo-n12": lambda: gen_geo_instance(12, 2, p=5.0, q=3),
        "parking-subset": lambda: replace(gen_geo_instance(8, 3, p=2.0, q=3), parking_locations=(2, 5, 7)),
        "weight-volume": lambda: replace(
            gen_geo_instance(7, 5, p=3.0, q=4),
            weights=np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]), capacity_weight=5.0,
            volumes=np.array([2.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0]), capacity_volume=4.0,
        ),
        "grid-2x2": lambda: gen_grid_instance(GridParams(sqrt_n=2, walk_rate=1.6, park_time=2.2, capacity=2)),
    }[name]()


# the ids of this test and the next two keep the "False" of the
# self-singleton flag the fill once took, so each case runs under its old name
_CASES = [
    (case, reduced)
    for case in ["geo-n6", "parking-subset", "weight-volume", "grid-2x2", "grid-4x4-first-9"]
    for reduced in (False, True)
] + [("geo-n12", False)]


def _assert_decode_rows(dp, B):
    # every B row the decode rebuilt from F is the loop's row, bit for bit
    assert all(np.array_equal(row, B[mask]) for mask, row in dp._rows.items())


@pytest.mark.parametrize("case, reduced", _CASES, ids=[f"{case}-{reduced}-False" for case, reduced in _CASES])
def test_layered_tables_equal_the_per_mask_loops(case, reduced):
    # the walk costs, the partition table, the completion table F and every
    # rebuilt B row, bit for bit against the loops that add the same operands
    # in the same order; the bundle-form completion loop adds them in another
    # order, so it agrees to within the decode's tolerance
    inst = _identity_case(case)
    cat = enumerate_catalog(inst)
    if reduced:
        cat = reduce_catalog(cat)
    dp = _solve_dp(inst, cat)[0]
    part = PartitionTable(inst.customers, [s.members for s in cat.sets], cat.walk_cost_table())
    costs = loop_walk_costs(cat)
    assert np.array_equal(part.costs, costs)
    assert np.array_equal(part.value, loop_partition_values(inst.customers, [s.members for s in cat.sets], costs))
    B, F = loop_set_completion_table([s.members for s in cat.sets], costs, inst.drive, inst.park_time, inst.spots)
    assert np.array_equal(dp.F, F)
    _assert_decode_rows(dp, B)
    rebuilt = np.array([dp._b_row(mask) for mask in range(len(F))])
    assert np.array_equal(rebuilt, B)
    per_mask = loop_completion_table(part.value, inst.drive, inst.park_time, inst.spots)
    assert np.allclose(rebuilt, per_mask, atol=1e-9, rtol=0)


@pytest.mark.parametrize("make", [lambda: gen_geo_instance(9, 1, p=5.0, q=3),
                                  lambda: _skew(gen_geo_instance(7, 1, p=0, q=3), 3)], ids=["geo-n9", "skewed-n7"])
def test_b_row_takes_the_drive_on_minimum_of_the_fill_bit_for_bit(make):
    # the decode's one-step drive-on row against the fill's column-by-column
    # step, from the same C row, for every mask (the closure on skewed-n7)
    inst = make()
    dp = _solve_dp(inst, enumerate_catalog(inst))[0]
    dp._rows = {}
    for mask in range(len(dp.F)):
        fit = np.flatnonzero((dp.masks & ~mask) == 0)
        c = np.min(dp.costs[fit] + dp.F[mask ^ dp.masks[fit]], axis=0, initial=np.inf)
        assert np.array_equal(dp._b_row(mask), dp._drive_on(c[None])[0]), mask


@pytest.mark.parametrize("case", ["geo-n6", "weight-volume", "grid-4x4-first-9", "geo-n11-q6"],
                         ids=lambda case: f"False-{case}")
def test_layers_with_more_subsets_than_a_chunk(monkeypatch, case):
    # a layer with more than 2 * CHUNK small subsets goes one mask at a time,
    # its subsets 2 * CHUNK at a time: a CHUNK of 16 sends the toy cases
    # there, and half the default CHUNK sends the full mask at n = 11 with
    # sets of up to six there (1,485 subsets); at n = 11 the default CHUNK's
    # F is checked against the same loop
    if case == "geo-n11-q6":
        inst = gen_geo_instance(11, 4, p=5.0, q=6)
        monkeypatch.setattr(servicesets, "CHUNK", 512)
    else:
        inst = _identity_case(case)
        monkeypatch.setattr(servicesets, "CHUNK", 16)
    cat = enumerate_catalog(inst)
    dp, value, stops, bundles = _solve_dp(inst, cat)
    B, F = loop_set_completion_table([s.members for s in cat.sets], cat.walk_cost_table(), inst.drive,
                                     inst.park_time, inst.spots)
    assert np.array_equal(dp.F, F)
    _assert_decode_rows(dp, B)
    monkeypatch.undo()
    plain = _solve_dp(inst, cat)
    assert plain[2:4] == (stops, bundles)
    assert np.array_equal(plain[0].F, F)


@pytest.mark.parametrize("case", ["geo-n6", "geo-n12", "parking-subset", "weight-volume", "grid-2x2", "grid-4x4-first-9"],
                         ids=lambda case: f"False-{case}")
def test_decode_reads_the_same_solution_from_the_per_mask_table(case):
    # the per-set fill and the bundle-form loop differ in their last bits;
    # the decode, which compares within 1e-9, must not see the difference
    # when it reads its B rows from the bundle-form table
    inst = _identity_case(case)
    cat = enumerate_catalog(inst)
    dp, value, stops, bundles = _solve_dp(inst, cat)
    part = PartitionTable(inst.customers, [s.members for s in cat.sets], cat.walk_cost_table())
    per_mask = loop_completion_table(part.value, inst.drive, inst.park_time, inst.spots)
    read = []
    dp._b_row = lambda mask: read.append(mask) or per_mask[mask]
    d_depot = inst.drive[0, list(inst.spots)]
    cols, decoded = dp.decode(d_depot, value)
    assert ([inst.spots[k] for k in cols], decoded) == (list(stops), list(bundles))
    assert read


def _decode_cases():
    for case in ["geo-n6", "geo-n12", "parking-subset", "weight-volume", "grid-2x2", "grid-4x4-first-9"]:
        yield case, lambda case=case: _identity_case(case)
    for p in (1.0, 2.0, 2.3, 3.0):
        yield f"grid-2x2-p{p}", lambda p=p: gen_grid_instance(GridParams(sqrt_n=2, walk_rate=1.6, park_time=p, capacity=2))
    for p in (2.2, 2.3):
        yield f"grid-4x4-p{p}", lambda p=p: gen_grid_instance(GridParams(sqrt_n=4, walk_rate=1.6, park_time=p, capacity=2))
    for n in range(8, 13):
        for seed in range(1, 6):
            for p in (1.0, 5.0, 8.0):
                yield f"geo-n{n}-s{seed}-p{p:g}", lambda n=n, seed=seed, p=p: gen_geo_instance(n, seed, p=p, q=3)


_DECODE_CASES = dict(_decode_cases())


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("case", list(_DECODE_CASES))
def test_decode_matches_the_dense_table_decode(case, reduced):
    # one catalog set per step against every submask priced as a bundle by
    # the dense partition table: the same stops, bundles and walking sets
    inst = _DECODE_CASES[case]()
    cat = enumerate_catalog(inst)
    if reduced:
        cat = reduce_catalog(cat)
    dp, value, stops, bundles = _solve_dp(inst, cat)
    B, F = loop_set_completion_table([s.members for s in cat.sets], cat.walk_cost_table(), inst.drive,
                                     inst.park_time, inst.spots)
    assert np.array_equal(dp.F, F)
    _assert_decode_rows(dp, B)
    ref_stops, ref_bundles, ref_served = dense_table_decode(inst, cat, value, B)
    assert (stops, bundles) == (tuple(ref_stops), tuple(ref_bundles))
    assert _materialize(inst, cat, stops, bundles).served == tuple(ref_served)


@pytest.mark.parametrize("skew", [False, True])
def test_solve_exact_frees_its_searcher(monkeypatch, skew):
    # with the collector off, the DP kernel, the searcher and their tables
    # must go as soon as the solve returns: nothing they built may hold a
    # reference cycle.  Every solve builds the kernel; only the skewed one
    # builds the searcher
    inst = gen_geo_instance(6, seed=4, p=2.0, q=2)
    if skew:  # the closure DP's solution misses its floor: the search runs
        inst = _skew(gen_geo_instance(4, 12, p=0.5, q=3), 7)
    built = {_Completion: [], _Searcher: []}

    def tracked(cls):
        class Tracked(cls):
            def __init__(self, *args):
                super().__init__(*args)
                built[cls].append(weakref.ref(self))
        return Tracked

    monkeypatch.setattr(exact, "_Completion", tracked(_Completion))
    monkeypatch.setattr(exact, "_Searcher", tracked(_Searcher))
    cat = enumerate_catalog(inst)
    gc.collect()
    gc.disable()
    try:
        res = solve_exact(inst, cat)
        alive = {cls.__name__: [ref() is not None for ref in refs] for cls, refs in built.items()}
    finally:
        gc.enable()
    assert res.status == "optimal"
    assert alive == {"_Completion": [False], "_Searcher": [False] if skew else []}


def test_the_dp_keeps_one_table_of_2_to_the_n_rows():
    # F, the one (2^n, spots) table, takes 1.8 MB at n = 14, and a stored B
    # table would take as much again.  Besides F the fill holds a few
    # run-sized arrays (CHUNK rows of one float per spot): the run being
    # priced, the one before it and its drive-on step, and two gathered
    # blocks of 2 * CHUNK (subset, mask) pairs; the decode keeps a few rows
    inst = gen_geo_instance(14, 1, p=5.0, q=3)
    cat = enumerate_catalog(inst)
    cat.walk_cost_table()
    tracemalloc.start()
    try:
        dp = _solve_dp(inst, cat)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    run = servicesets.CHUNK * len(inst.spots) * 8
    assert peak <= dp.F.nbytes + 12 * run


@pytest.mark.parametrize("entry", [
    lambda inst, cat: build_model(inst, cat),
    solve_exact,
    lambda inst, cat: check_feasible(inst, cat, heuristic_solve(inst)),
    heuristic_solve_full,
    lambda inst, cat: solve_ssa(inst, cat, 1, [1, 2]),
], ids=["build_model", "solve_exact", "check_feasible", "heuristic_solve_full", "solve_ssa"])
def test_a_catalog_of_another_instance_is_refused(entry):
    # unchecked, seed 2's catalog makes seed 1 "optimal" at 90.70, above its true optimum 69.47
    a = gen_geo_instance(8, 1, p=5, q=3)
    with pytest.raises(UnsupportedError, match="different instance"):
        entry(a, enumerate_catalog(gen_geo_instance(8, 2, p=5, q=3)))
