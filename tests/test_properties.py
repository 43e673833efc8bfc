"""Randomized agreement between the shared subset-partition table, the exact
solver, the parking assignment, modified TSP and the brute-force oracles, on
small instances with count, weight and volume capacities and a restricted set
of parking spots; plus the evaluator identities and the JSON and LP round
trips on the same instances."""

import json
from dataclasses import replace
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brutes import (
    _set_ok, brute_mtsp, brute_open_path, brute_optimum, brute_par, brute_partition_cost, milp_optimum,
)
from parkroute.benchmarks import modified_tsp
from parkroute import exact
from parkroute.exact import check_feasible, solve_exact
from parkroute.heuristic import PAR_EXACT_SPOTS, _assignment_cost, heuristic_solve, solve_par
from parkroute.instance import (
    GridParams,
    gen_geo_instance,
    gen_grid_instance,
    instance_from_dict,
    instance_to_dict,
    validate_instance,
)
from parkroute.model import (
    ModelOptions,
    assemble_solution,
    build_model,
    evaluate_solution,
    export_lp,
    parse_lp,
    solution_from_dict,
)
from parkroute.servicesets import PartitionTable, enumerate_catalog, walk_time
from parkroute.tsp import solve_tsp

# fixed example sequence, so a Tier-1 run is reproducible; no example database
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw, min_n=1, max_n=6):
    """Geometric instance with integer package weights and volumes (so set
    totals hit the capacities exactly), optional weight and volume limits that
    every single package fits, and 1-3 parking spots (all spots when n <= 4)."""
    n = draw(st.sampled_from(range(max_n, min_n - 1, -1)))  # larger n first
    inst = gen_geo_instance(
        n, draw(st.integers(0, 10_000)), p=draw(st.sampled_from([0.0, 1.0, 5.0])), q=draw(st.integers(1, 3))
    )
    spots = draw(st.lists(st.integers(1, n), min_size=1, max_size=min(n, 3), unique=True))
    return replace(
        inst,
        weights=np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), dtype=float),
        volumes=np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), dtype=float),
        capacity_weight=draw(st.none() | st.integers(4, 8)),
        capacity_volume=draw(st.none() | st.integers(4, 8)),
        parking_locations=tuple(spots) if n > 4 else (),
    )


@SETTINGS
@given(instances())
def test_the_catalog_holds_every_subset_that_fits_in_size_then_member_order(inst):
    cat = enumerate_catalog(inst)
    fits = [m for k in range(1, inst.n + 1) for m in combinations(inst.customers, k) if _set_ok(inst, m)]
    assert [s.members for s in cat.sets] == fits


@SETTINGS
@given(instances())
def test_partition_table_matches_brute_force(inst):
    cat = enumerate_catalog(inst)
    costs = np.array([[walk_time(inst, i, s.members) for i in inst.spots] for s in cat.sets])
    part = PartitionTable(inst.customers, [s.members for s in cat.sets], costs)
    for mask in range(1 << inst.n):
        members = [c for c in inst.customers if mask >> (c - 1) & 1]
        for col, spot in enumerate(inst.spots):
            want = brute_partition_cost(inst, spot, members)
            assert part.value[mask, col] == pytest.approx(want, abs=1e-9)
            split = part.split(mask, col)
            assert sorted(c for j in split for c in cat.sets[j].members) == members
            assert sum(costs[j, col] for j in split) == pytest.approx(want, abs=1e-9)


@SETTINGS
@given(instances())
def test_exact_dp_matches_brute_force_on_metric_drive(inst):
    assert validate_instance(inst).drive_triangle_violations == 0
    res = solve_exact(inst, enumerate_catalog(inst))
    assert res.status == "optimal"
    assert res.value == pytest.approx(brute_optimum(inst), abs=1e-9)


@settings(SETTINGS, max_examples=20)
@given(instances(max_n=5))
def test_exact_optimum_matches_highs(inst):
    cat = enumerate_catalog(inst)
    res = solve_exact(inst, cat)
    assert res.status == "optimal"
    assert res.value == pytest.approx(milp_optimum(build_model(inst, cat)), abs=1e-6)


@SETTINGS
@given(instances(), st.integers(0, 10_000))
def test_the_open_ended_dp_kernel_matches_the_open_path_brute_force(inst, end_seed):
    # a window over every customer, entered from one point and left to
    # another as from a route's neighbouring stops: two more points of the
    # unit square, or the depot, with their drive legs at the instance's rate
    # of 12.5 a unit, so the whole drive matrix stays metric
    cat = enumerate_catalog(inst)
    rng = np.random.default_rng(end_seed)
    ends = rng.random((2, 2))
    if rng.random() < 0.25:
        ends[rng.integers(2)] = inst.coords[0]
    leg = np.sqrt(((inst.coords[:, None, :] - ends[None, :, :]) ** 2).sum(axis=2)) * 12.5
    entry, exit = leg[:, 0], leg[:, 1]
    S = list(inst.spots)
    largest = max(s.size for s in cat.sets)
    dp = exact._Completion(inst.n, cat.masks, cat.walk_cost_table(), largest, inst.park_time[S],
                           inst.drive[np.ix_(S, S)], exit[S])
    value = dp.value(entry[S])
    assert value == pytest.approx(brute_open_path(inst, entry, exit), abs=1e-9)
    # the decoded path, priced stop by stop, has the kernel's value
    cols, bundles = dp.decode(entry[S], value)
    stops = [S[k] for k in cols]
    assert sorted(c for A in bundles for c in inst.customers if A >> (c - 1) & 1) == list(inst.customers)
    cost = entry[stops[0]] + exit[stops[-1]] + sum(inst.drive[a, b] for a, b in zip(stops, stops[1:]))
    cost += sum(inst.park_time[s] + brute_partition_cost(inst, s, [c for c in inst.customers if A >> (c - 1) & 1])
                for s, A in zip(stops, bundles))
    assert cost == pytest.approx(value, abs=1e-9)


def _skewed(inst, skew_seed):
    """Random skew, plus one depot leg longer than its detour through another
    customer, so the triangle inequality fails and the DP runs on the
    closure of the drive matrix."""
    drive = inst.drive * np.random.default_rng(skew_seed).uniform(1.0, 1.6, size=inst.drive.shape)
    np.fill_diagonal(drive, 0.0)
    drive[0, 1] = drive[0, 2] + drive[2, 1] + 1.0
    inst = replace(inst, drive=drive)
    assert validate_instance(inst).drive_triangle_violations > 0
    return inst


@SETTINGS
@given(instances(min_n=2), st.integers(0, 10_000))
def test_exact_search_matches_brute_force_on_skewed_drive(inst, skew_seed):
    # the closure DP's value, loading included, is a floor whether or not
    # its decode ties, and the reported bound never exceeds the optimum
    inst = _skewed(inst, skew_seed)
    cat = enumerate_catalog(inst)
    res = solve_exact(inst, cat)
    best = brute_optimum(inst)
    assert res.status == "optimal"
    assert res.value == pytest.approx(best, abs=1e-9)
    assert res.bound <= best + 1e-9
    S = list(inst.spots)
    D = exact._closure(inst.drive)  # the closure DP, as solve_exact runs it off the triangle inequality
    largest = max(s.size for s in cat.sets)
    dp = exact._Completion(inst.n, cat.masks, cat.walk_cost_table(), largest, inst.park_time[S], D[np.ix_(S, S)],
                           D[S, 0])
    assert dp.value(D[0, S]) + inst.n * inst.load_per_package <= best + 1e-9


@SETTINGS
@given(instances(min_n=2), st.integers(0, 10_000), st.integers(1, 2_000))
def test_budgeted_search_keeps_its_warm_start(inst, skew_seed, limit):
    # the closure DP's solution proves itself or is the search's incumbent
    # from the first node on; a search stops exactly when its candidates
    # reach the limit
    inst = _skewed(inst, skew_seed)
    cat = enumerate_catalog(inst)
    controls = []

    class Recorded(exact._Control):
        def __init__(self):
            super().__init__()
            controls.append(self)

    with mock.patch.object(exact, "SEARCH_LIMIT", limit), mock.patch.object(exact, "_Control", Recorded):
        res = solve_exact(inst, cat)
    assert res.status in ("optimal", "feasible")
    if res.status == "optimal":
        assert res.bound == pytest.approx(res.value, abs=1e-9)
        assert all(ctl.work < limit for ctl in controls)
    else:
        (ctl,) = controls
        assert ctl.work >= limit and res.nodes == ctl.nodes
    best = brute_optimum(inst)
    assert res.bound <= best + 1e-9
    if res.solution is None:
        return
    sol = res.solution
    assert best <= res.value + 1e-9
    assert check_feasible(inst, cat, sol) == []


def _check_parking_assignment(inst):
    """``solve_par`` is proven, matches the opening brute force, sends every
    customer to an opened spot at minimal walk, and among the openings that
    tie the optimum picks the fewest spots, then the smallest spot tuple."""
    pa = solve_par(inst)
    assert pa.proof
    best = brute_par(inst)
    assert pa.objective == pytest.approx(best, abs=1e-9)
    W = inst.walk
    for c in inst.customers:
        assert pa.assign[c] in pa.opened
        assert W[pa.assign[c], c] == pytest.approx(min(W[s, c] for s in pa.opened), abs=1e-9)

    def cost(opened):
        return sum(inst.park_time[s] for s in opened) + sum(min(W[s, c] for s in opened) for c in inst.customers)

    openings = [o for k in range(1, len(inst.spots) + 1) for o in combinations(inst.spots, k)]
    assert pa.opened == next(o for o in openings if cost(o) <= best + 1e-9)


@SETTINGS
@given(instances())
def test_parking_assignment_enumeration_matches_brute_force(inst):
    _check_parking_assignment(inst)


@pytest.mark.parametrize("spots", [4, 8, 12])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
def test_parking_assignment_enumeration_breaks_grid_ties(spots, p):
    # on a complete grid many openings cost the same; 4 spots is the 2x2 grid
    sqrt_n = 2 if spots == 4 else 4
    inst = gen_grid_instance(GridParams(sqrt_n=sqrt_n, park_time=p, capacity=2))
    _check_parking_assignment(replace(inst, parking_locations=tuple(range(1, spots + 1))))


@SETTINGS
@given(st.integers(0, 10_000), st.sampled_from([0.5, 2.0, 5.0, 12.0]))
def test_parking_assignment_local_search_above_the_enumeration_limit(seed, p):
    inst = gen_geo_instance(PAR_EXACT_SPOTS + 1, seed, p=p, q=3)
    pa = solve_par(inst)
    assert not pa.proof
    W = inst.walk[np.ix_(inst.spots, inst.customers)]
    park = inst.park_time[list(inst.spots)]
    mask = np.isin(inst.spots, pa.opened)
    assert pa.objective == _assignment_cost(W, park, mask)
    # no single add, drop or swap lowers the objective
    neighbours = []
    for t in range(len(mask)):
        flip = mask.copy()
        flip[t] = not flip[t]
        neighbours.append(flip)
    for t in np.flatnonzero(mask):
        for u in np.flatnonzero(~mask):
            swap = mask.copy()
            swap[t], swap[u] = False, True
            neighbours.append(swap)
    for cand in neighbours:
        assert _assignment_cost(W, park, cand) >= pa.objective - 1e-9


@SETTINGS
@given(instances())
def test_modified_tsp_matches_order_respecting_enumeration(inst):
    res = modified_tsp(inst)
    assert res.completion == pytest.approx(brute_mtsp(inst, solve_tsp(inst.drive)[1]), abs=1e-9)
    assert res.model_objective == pytest.approx(res.completion, abs=1e-9)


@SETTINGS
@given(instances())
def test_instance_and_solution_json_round_trips(inst):
    back = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
    assert instance_to_dict(back) == instance_to_dict(inst)
    for name in ("drive", "walk", "park_time", "weights", "volumes", "coords"):
        assert np.array_equal(getattr(back, name), getattr(inst, name))
    for name in ("n", "spots", "capacity_count", "capacity_weight", "capacity_volume", "load_per_package", "meta"):
        assert getattr(back, name) == getattr(inst, name)
    sol = solve_exact(inst, enumerate_catalog(inst)).solution
    assert solution_from_dict(json.loads(json.dumps(sol.to_dict()))) == sol


@SETTINGS
@given(instances(max_n=4), st.booleans())
def test_lp_text_round_trips(inst, reduced):
    options = ModelOptions(
        vi_claim4=True, vi_corollary1=True, vi_claim5=True, vi_corollary3=True, var_reduction=reduced
    )
    model = build_model(inst, enumerate_catalog(inst), options)
    text = export_lp(model)
    back = parse_lp(text)
    assert export_lp(back) == text
    assert back.objective == model.objective
    assert [(r.name, r.terms, r.sense, r.rhs) for r in back.constraints] == [
        (r.name, r.terms, r.sense, r.rhs) for r in model.constraints
    ]
    assert sorted(back.variables, key=str) == sorted(model.variables, key=str)


@SETTINGS
@given(instances())
def test_evaluator_identities(inst):
    cat = enumerate_catalog(inst)
    for sol in (solve_exact(inst, cat).solution, heuristic_solve(inst, cat), modified_tsp(inst).solution):
        bd = sol.breakdown
        assert sol.total == bd.park_min + bd.drive_min + bd.walk_min + bd.load_min == bd.total
        assert evaluate_solution(inst, sol) == bd
        assert assemble_solution(inst, sol.stops, sol.served) == sol
