import time
from dataclasses import replace

import numpy as np
import pytest

import parkroute.heuristic
from brutes import all_partitions, brute_par, brute_walk, loop_local_search
from parkroute.cli import main
from parkroute.errors import InfeasibleInstanceError
from parkroute.exact import check_feasible, solve_exact
from parkroute.heuristic import (
    _assignment_cost,
    _first_swap,
    _flip_costs,
    heuristic_solve,
    heuristic_solve_full,
    route_parking,
    solve_par,
    solve_ssa,
)
from parkroute.instance import Instance, gen_geo_instance, save_instance
from parkroute.model import structural_violations
from parkroute.servicesets import (
    PartitionTable, ServiceSet, ServiceSetCatalog, enumerate_catalog, reduce_catalog, walk_tour,
)
from parkroute.tsp import solve_tsp


def test_par_single_customer_opens_own_location():
    inst = Instance(drive=[[0, 2], [2, 0]], walk=[[0.0]], park_time=[1.0], capacity_count=1)
    pa = solve_par(inst)
    assert pa.opened == (1,)
    assert pa.objective == pytest.approx(1.0)
    assert pa.assign == {1: 1}


def test_par_high_search_time_consolidates():
    drive = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    walk = [[0, 1], [1, 0]]
    inst = Instance(drive=drive, walk=walk, park_time=[10.0, 10.0], capacity_count=2)
    pa = solve_par(inst)
    assert pa.objective == pytest.approx(11.0)  # one opening plus one unit walk
    assert pa.opened == (1,)  # symmetric tie broken toward the smaller spot


def test_par_low_search_time_opens_everything():
    drive = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    walk = [[0, 1], [1, 0]]
    inst = Instance(drive=drive, walk=walk, park_time=[0.1, 0.1], capacity_count=2)
    pa = solve_par(inst)
    assert pa.opened == (1, 2)
    assert pa.objective == pytest.approx(0.2)


def test_par_uses_per_location_search_times():
    drive = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    walk = [[0, 0.4], [0.4, 0]]
    inst = Instance(drive=drive, walk=walk, park_time=[5.0, 0.3], capacity_count=2)
    pa = solve_par(inst)
    assert pa.opened == (2,)
    assert pa.objective == pytest.approx(0.3 + 0.4)


@pytest.mark.parametrize("seed", range(5))
def test_par_matches_opening_enumeration(seed):
    inst = gen_geo_instance(4 + seed, seed=seed, p=0.5 + seed, q=3)
    pa = solve_par(inst)
    assert pa.proof
    assert pa.objective == pytest.approx(brute_par(inst), abs=1e-9)


def test_par_neighbourhood_prices_are_bit_identical_to_assignment_cost():
    # random search times make every park sum depend on its summation order
    rng = np.random.default_rng(3)
    for m, n in ((14, 14), (20, 33), (45, 60)):
        W = rng.uniform(0.0, 30.0, (m, n))
        park = rng.uniform(0.1, 12.0, m)
        for trial in range(7):
            if trial < 6:
                mask = rng.random(m) < rng.uniform(0.2, 0.9)
                if trial == 0:
                    mask[:] = False  # one spot open: dropping it costs inf
                mask[rng.integers(m)] = True
                start = int(rng.integers(m))
            else:  # every spot open: no swap exists, so _first_swap returns None
                mask, start = np.ones(m, dtype=bool), 0
            loop = []
            for t in range(start, m):
                cand = mask.copy()
                cand[t] = not cand[t]
                loop.append(_assignment_cost(W, park, cand))
            assert list(map(repr, _flip_costs(W, park, mask, start).tolist())) == list(map(repr, loop))
            pairs = []
            for t in np.flatnonzero(mask):
                for u in np.flatnonzero(~mask):
                    cand = mask.copy()
                    cand[t], cand[u] = False, True
                    pairs.append((int(t), int(u), _assignment_cost(W, park, cand)))
            bests = (np.inf, *np.quantile([c for *_, c in pairs], [0.0, 0.5]) + 2e-9) if pairs else (np.inf,)
            for best in bests:
                expect = next(((t, u, c) for t, u, c in pairs if c < best - 1e-9), None)
                assert _first_swap(W, park, mask, best) == expect


def _local_search_cases():
    # n = 14..100 with m > 13 spots; odd seeds draw a search time per spot,
    # seeds 0 and 3 (mod 4) park at a random subset of at least 14 customers
    for n in (14, 20, 27, 35, 44, 50, 60, 61, 75, 100):
        for seed in range(1, 9):
            for p in (0.5, 2.0, 5.0, 12.0):
                inst = gen_geo_instance(n, seed, p=p, q=3)
                rng = np.random.default_rng([n, seed, int(4 * p)])
                if seed % 2:
                    inst = replace(inst, park_time=rng.uniform(0.2 * p, 2.0 * p, n))
                if seed % 4 in (0, 3) and n > 14:
                    size = int(rng.integers(14, n))
                    inst = replace(inst, parking_locations=tuple(rng.choice(np.arange(1, n + 1), size, replace=False).tolist()))
                yield inst


def test_par_local_search_takes_the_moves_of_the_per_candidate_loop(monkeypatch):
    # one _assignment_cost call per candidate against numpy steps over the
    # neighbourhood: the same opening, assignment and bits of the objective
    swaps = []
    first_swap = parkroute.heuristic._first_swap

    def recorded(*args):
        swaps.append(first_swap(*args))
        return swaps[-1]

    monkeypatch.setattr(parkroute.heuristic, "_first_swap", recorded)
    sizes = []
    for inst in _local_search_cases():
        pa = solve_par(inst)
        with monkeypatch.context() as patched:
            patched.setattr(parkroute.heuristic, "local_search", loop_local_search)
            ref = solve_par(inst)
        assert not pa.proof
        assert (pa.opened, pa.assign, repr(pa.objective), pa.proof) == (ref.opened, ref.assign, repr(ref.objective), ref.proof)
        sizes.append(len(inst.spots))
    assert any(s is not None for s in swaps)  # the sweep accepts swaps
    assert max(sizes) > 60  # and reaches the spot counts that try none


def test_route_single_spot():
    inst = gen_geo_instance(4, seed=1)
    stops, cost, exact = route_parking(inst, [3])
    assert stops == [3]
    assert cost == pytest.approx(inst.D(0, 3) + inst.D(3, 0))
    assert exact


def test_route_avoids_long_edge():
    # triangle with one long edge between spots 1 and 2
    drive = np.array([
        [0, 1, 1, 5],
        [1, 0, 9, 1],
        [1, 9, 0, 1],
        [5, 1, 1, 0.0],
    ])
    walk = np.zeros((3, 3))
    inst = Instance(drive=drive, walk=walk, park_time=[0, 0, 0], capacity_count=1)
    stops, cost, exact = route_parking(inst, [1, 2, 3])
    assert exact
    legs = list(zip([0] + stops, stops + [0]))
    assert (1, 2) not in legs and (2, 1) not in legs
    tours = [(0, 1, 3, 2, 0), (0, 2, 3, 1, 0)]
    best = min(sum(drive[a, b] for a, b in zip(t, t[1:])) for t in tours)
    assert cost == pytest.approx(best)


def test_route_13_spots_exact_beats_improvement_heuristic():
    inst = gen_geo_instance(13, seed=2, p=1.0, q=2)
    spots = list(range(1, 14))
    stops, hk_cost, exact = route_parking(inst, spots)
    assert exact
    from parkroute.tsp import nearest_neighbor_cycle, tour_cost, two_opt

    sub = inst.drive[np.ix_([0] + spots, [0] + spots)]
    local = tour_cost(sub, two_opt(sub, nearest_neighbor_cycle(sub)))
    assert hk_cost <= local + 1e-9


def test_route_many_spots_falls_back_to_local_search():
    inst = gen_geo_instance(16, seed=6, p=1.0, q=2)
    stops, cost, exact = route_parking(inst, list(range(1, 17)))
    assert not exact
    assert sorted(stops) == list(range(1, 17))
    sub = inst.drive[np.ix_([0] + sorted(stops), [0] + sorted(stops))]
    # the polished tour is a valid cycle cost over those nodes
    order = [sorted(stops).index(s) + 1 for s in stops]
    from parkroute.tsp import tour_cost

    assert cost == pytest.approx(tour_cost(sub, order))


def test_ssa_singleton_out_and_back():
    inst = gen_geo_instance(4, seed=3, q=2)
    orders, walk, exact = solve_ssa(inst, None, 1, [3])
    assert orders == [(3,)]
    assert walk == pytest.approx(2 * inst.W(1, 3))
    assert exact


def test_ssa_spot_serves_itself_for_free():
    inst = gen_geo_instance(4, seed=3, q=2)
    orders, walk, _ = solve_ssa(inst, None, 2, [2])
    assert orders == [(2,)]
    assert walk == 0.0



def _ssa_from_the_table(inst, spot, group):
    """``solve_ssa``'s table path for a group whose only candidate is itself."""
    cost, order = walk_tour(inst, spot, group)
    part = PartitionTable(group, [group], np.array([[cost]]))
    full = (1 << len(group)) - 1
    return [order for _ in part.split(full, 0)], float(part.value[full, 0]), True


@pytest.mark.parametrize("spot, group", [(1, (3,)), (4, (4,)), (2, (4,)), (3, (1, 2))])
def test_ssa_lone_candidate_skips_the_table(monkeypatch, spot, group):
    # a group that is its own only candidate, as a lone customer is, takes
    # the shortcut: the table path's tour and walk, bit for bit, no table
    inst = gen_geo_instance(4, seed=3, q=2)
    want = _ssa_from_the_table(inst, spot, group)
    pair_only = ServiceSetCatalog(inst=inst, sets=(ServiceSet((1, 2)), ServiceSet((3,)), ServiceSet((4,))))
    monkeypatch.setattr(parkroute.heuristic, "PartitionTable", None)
    assert solve_ssa(inst, pair_only, spot, group) == want
    if len(group) == 1:
        assert solve_ssa(inst, None, spot, group) == want
        assert solve_ssa(inst, enumerate_catalog(inst), spot, group) == want


def test_ssa_lone_customer_without_its_singleton_is_infeasible():
    inst = gen_geo_instance(4, seed=3, q=2)
    pair_only = ServiceSetCatalog(inst=inst, sets=(ServiceSet((1, 2)), ServiceSet((3,)), ServiceSet((4,))))
    with pytest.raises(InfeasibleInstanceError):
        solve_ssa(inst, pair_only, 3, [1])

def test_ssa_prefers_pair_when_cheaper():
    # walking a->b is nearly free, so the pair beats two out-and-backs
    walk = np.array([[0, 1, 1.1], [1, 0, 0.05], [1.1, 0.05, 0.0]])
    inst = Instance(drive=np.zeros((4, 4)), walk=walk, park_time=[1, 1, 1], capacity_count=2)
    orders, cost, _ = solve_ssa(inst, None, 1, [2, 3])
    assert len(orders) == 1 and sorted(orders[0]) == [2, 3]
    assert cost == pytest.approx(1 + 0.05 + 1.1)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_ssa_matches_partition_brute_force(k):
    inst = gen_geo_instance(8, seed=k, p=1.0, q=3)
    cat = enumerate_catalog(inst)
    members = list(range(2, 2 + k))
    _, cost, exact = solve_ssa(inst, cat, 1, members)
    assert exact
    best = min(
        sum(brute_walk(inst, 1, g) for g in part)
        for part in all_partitions(members)
        if all(len(g) <= 3 for g in part)
    )
    assert cost == pytest.approx(best, abs=1e-9)


def test_ssa_size_cap_and_greedy_fallback():
    inst = gen_geo_instance(25, seed=1, p=1.0, q=3)
    members = list(range(1, 22))
    # more than 20 customers: a greedy split, flagged non-exact
    orders, walk, exact = solve_ssa(inst, None, 1, members)
    assert not exact
    assert sorted(c for o in orders for c in o) == members


def test_a_group_above_the_walk_set_cap_takes_the_greedy_split(tmp_path):
    # no count capacity and a weight capacity every set fits: the one opened
    # spot's group of 14 has candidate sets above MAX_WALK_SET
    inst = replace(gen_geo_instance(14, 1, p=500, q=None), capacity_weight=100.0, weights=np.ones(14))
    res = heuristic_solve_full(inst)
    assert not res.ssa_exact
    assert structural_violations(inst, res.solution.stops, res.solution.served) == []
    save_instance(inst, tmp_path / "inst.json")
    assert main(["solve", "--method", "heuristic", str(tmp_path / "inst.json"), "-o", str(tmp_path / "h.json")]) == 2
    # a weight capacity of 3 keeps every candidate set within the cap: still exact
    assert heuristic_solve_full(replace(inst, capacity_weight=3.0)).ssa_exact


def test_the_greedy_split_keeps_to_the_catalog():
    # high search time opens one spot for all 21 customers, above the exact
    # split's 20; on a reduced catalog no set of two or more may hold spot 7
    inst = gen_geo_instance(21, 1, p=1000.0, q=3)
    red = reduce_catalog(enumerate_catalog(inst))
    res = heuristic_solve_full(inst, red)
    assert res.solution.stops == (7,) and not res.ssa_exact
    assert check_feasible(inst, red, res.solution) == []
    assert (7,) in res.solution.served[0]
    # without a catalog the chunks follow capacity alone, and 7 joins a set
    free = heuristic_solve_full(inst).solution.served[0]
    assert any(7 in order and len(order) > 1 for order in free)


def test_the_greedy_split_refuses_a_customer_without_a_set():
    inst = gen_geo_instance(21, 1, p=1000.0, q=3)
    sets = tuple(ServiceSet((c,)) for c in inst.customers if c != 4)
    with pytest.raises(InfeasibleInstanceError):
        solve_ssa(inst, ServiceSetCatalog(inst=inst, sets=sets), 7, inst.customers)


def test_heuristic_single_customer_equals_exact():
    inst = Instance(drive=[[0, 2], [2, 0]], walk=[[0.0]], park_time=[1.0], load_per_package=0.3, capacity_count=1)
    cat = enumerate_catalog(inst)
    sol = heuristic_solve(inst, cat)
    res = solve_exact(inst, cat)
    assert sol.total == pytest.approx(res.value)


def test_heuristic_two_far_customers_small_p():
    drive = [[0, 4, 4], [4, 0, 8], [4, 8, 0]]
    walk = [[0, 9], [9, 0]]
    inst = Instance(drive=drive, walk=walk, park_time=[0.1, 0.1], capacity_count=2)
    cat = enumerate_catalog(inst)
    sol = heuristic_solve(inst, cat)
    assert sol.num_stops == 2
    assert all(len(order) == 1 for stop in sol.served for order in stop)
    assert sol.total == pytest.approx(solve_exact(inst, cat).value)


@pytest.mark.parametrize("seed", range(6))
def test_heuristic_always_feasible_and_dominated(seed):
    inst = gen_geo_instance(8, seed=seed, p=1.0 + seed, q=3, f=0.2)
    cat = enumerate_catalog(inst)
    sol = heuristic_solve(inst, cat)
    assert check_feasible(inst, cat, sol) == []
    opt = solve_exact(inst, cat).value
    assert sol.total >= opt - 1e-9


def test_heuristic_pipeline_deterministic():
    inst = gen_geo_instance(12, seed=4, p=3.0, q=3)
    a = heuristic_solve_full(inst)
    b = heuristic_solve_full(inst)
    assert a.solution == b.solution
    assert a.opened == b.opened


def test_heuristic_runtime_n100():
    start = time.monotonic()
    inst = gen_geo_instance(100, seed=17, p=3.0, q=6)
    out = heuristic_solve_full(inst)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert out.solution.num_stops == len(out.opened)
    served = sorted(c for stop in out.solution.served for order in stop for c in order)
    assert served == list(inst.customers)
