from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from parkroute import exact, gridlab
from parkroute.errors import UnsupportedError
from parkroute.exact import check_feasible, solve_exact
from parkroute.gridlab import (
    construct_q2,
    construct_q2_value,
    construct_q3,
    construct_q3_value,
    grid_sweep,
    threshold_p,
    tsp_park_all_solution,
    tsp_park_all_value,
    verify_claims,
)
from parkroute.instance import GridParams, gen_grid_instance, grid_coord
from parkroute.servicesets import enumerate_catalog


URBAN = dict(block_len=0.07, drive_rate=12.5, walk_rate=20.0)
RURAL = dict(block_len=0.29, drive_rate=12.5, walk_rate=20.0)


def test_threshold_formulas():
    gp = GridParams(sqrt_n=4, block_len=2.0, drive_rate=1.5, walk_rate=3.0)
    assert threshold_p(1, gp) == pytest.approx(2.0 * (2 * 3.0 - 1.5))
    assert threshold_p(2, gp) == pytest.approx(2.0 * (2 * 3.0 - 1.5))
    assert threshold_p(3, gp) == pytest.approx(2.0 * (4.0 / 3.0 * 3.0 - 1.5))
    with pytest.raises(UnsupportedError):
        threshold_p(4, gp)


def test_threshold_urban_rural_values():
    urban = GridParams(sqrt_n=4, **URBAN)
    rural = GridParams(sqrt_n=4, **RURAL)
    assert threshold_p(2, urban) == pytest.approx(1.925, abs=1e-3)
    assert threshold_p(3, urban) == pytest.approx(0.992, abs=1e-3)
    assert threshold_p(2, rural) == pytest.approx(7.975, abs=1e-3)
    assert threshold_p(3, rural) == pytest.approx(4.108, abs=1e-3)
    # the urban capacity-3 cutoff is the "about one minute" statement
    assert round(threshold_p(3, urban)) == 1


def test_threshold_linear_in_block_length():
    ls = np.linspace(0.05, 0.30, 6)
    for q, slope in [(2, 2 * 20.0 - 12.5), (3, 4.0 / 3.0 * 20.0 - 12.5)]:
        vals = [threshold_p(q, GridParams(sqrt_n=4, block_len=l, drive_rate=12.5, walk_rate=20.0)) for l in ls]
        fitted = np.polyfit(ls, vals, 1)
        assert fitted[0] == pytest.approx(slope, rel=1e-9)
        assert fitted[1] == pytest.approx(0.0, abs=1e-9)


def test_park_all_value_2x2_matches_tour_enumeration():
    gp = GridParams(sqrt_n=2, park_time=1.0)
    inst = gen_grid_instance(gp)
    best_drive = min(
        inst.D(0, o[0]) + sum(inst.D(a, b) for a, b in zip(o, o[1:])) + inst.D(o[-1], 0)
        for o in permutations(inst.customers)
    )
    assert tsp_park_all_value(gp) == pytest.approx(best_drive + 4 * 1.0)
    assert tsp_park_all_value(gp) == pytest.approx(12.0)


def test_park_all_value_6x6_and_load_term():
    gp = GridParams(sqrt_n=6)
    assert tsp_park_all_value(gp) == pytest.approx(40.0)  # 2*2 + 36 unit drive legs
    assert tsp_park_all_value(replace(gp, load=1.0)) == pytest.approx(40.0 + 36.0)


def test_park_all_solution_materializes_the_closed_form():
    for m in (2, 4, 6):
        gp = GridParams(sqrt_n=m, walk_rate=1.4, park_time=0.9, load=0.2)
        inst, sol = tsp_park_all_solution(gp)
        assert sol.total == pytest.approx(tsp_park_all_value(gp), abs=1e-9)
        assert sol.num_stops == gp.n
        assert check_feasible(inst, enumerate_catalog(inst), sol) == []


def test_construct_q2_example_value():
    gp = GridParams(sqrt_n=6, park_time=3.0, capacity=2)
    sol = construct_q2(gp)
    assert sol.total == pytest.approx(136.0, abs=1e-9)
    assert sol.total == pytest.approx(construct_q2_value(gp), abs=1e-9)


def test_construct_q2_feasible_and_beats_tsp_above_threshold():
    thr = threshold_p(2, GridParams(sqrt_n=6, walk_rate=1.6))
    for bump in (0.01, 0.5, 2.0):
        gp = GridParams(sqrt_n=6, walk_rate=1.6, park_time=thr + bump, capacity=2)
        sol = construct_q2(gp)
        inst = gen_grid_instance(gp)
        assert check_feasible(inst, enumerate_catalog(inst), sol) == []
        assert sol.total == pytest.approx(construct_q2_value(gp), abs=1e-9)
        assert sol.total < tsp_park_all_value(gp) - 1e-9


def test_construct_q2_no_gain_at_zero_search_time():
    gp = GridParams(sqrt_n=6, walk_rate=1.6, park_time=0.0, capacity=2)
    assert construct_q2(gp).total >= tsp_park_all_value(gp)


def test_construct_q2_needs_room():
    with pytest.raises(UnsupportedError):
        construct_q2(GridParams(sqrt_n=2, capacity=2))


def test_construct_q3_example_value_and_structure():
    gp = GridParams(sqrt_n=6, park_time=2.0, capacity=3)
    sol = construct_q3(gp)
    assert sol.total == pytest.approx(102.0, abs=1e-9)
    assert sol.total == pytest.approx(construct_q3_value(gp), abs=1e-9)
    assert sol.num_stops == gp.n - 6
    served = sorted(c for stop in sol.served for order in stop for c in order)
    assert served == list(range(1, 37))
    triples = [order for stop in sol.served for order in stop if len(order) == 3]
    assert len(triples) == 2
    multi = [stop for stop in sol.served if len(stop) == 2]
    assert len(multi) == 2  # the two stops serving themselves plus a walked triple
    inst = gen_grid_instance(gp)
    assert check_feasible(inst, enumerate_catalog(inst), sol) == []


def test_construct_q3_scales_to_larger_grids():
    for m in (6, 8, 10):
        gp = GridParams(sqrt_n=m, walk_rate=2.0, park_time=1.0, capacity=3)
        sol = construct_q3(gp)
        assert sol.total == pytest.approx(construct_q3_value(gp), abs=1e-9)
        assert sol.num_stops == gp.n - 6


def test_construct_q3_beats_tsp_above_threshold():
    thr = threshold_p(3, GridParams(sqrt_n=6, walk_rate=1.6))
    gp = GridParams(sqrt_n=6, walk_rate=1.6, park_time=thr + 0.01, capacity=3)
    assert construct_q3(gp).total < tsp_park_all_value(gp) - 1e-9


def test_construct_q3_needs_room():
    with pytest.raises(UnsupportedError):
        construct_q3(GridParams(sqrt_n=4, capacity=3))


def test_verify_claims_q1_oracle_certifies_below_threshold():
    # capacity 1 on the 2x2 grid: the park-everywhere tour is optimal up to the cutoff
    base = GridParams(sqrt_n=2, walk_rate=1.6, capacity=1)
    thr = threshold_p(1, base)
    gps = [replace(base, park_time=p) for p in (0.0, 1.0, 2.0, thr)]
    reports = verify_claims(gps, q=1)
    for rep in reports:
        assert rep.regime == "tsp_optimal"
        assert rep.certified
        assert rep.oracle_value == pytest.approx(rep.tsp_value, abs=1e-6)


def test_verify_claims_witness_above_threshold():
    base = GridParams(sqrt_n=6, walk_rate=1.6, capacity=3)
    thr = threshold_p(3, base)
    reports = verify_claims([replace(base, park_time=thr + 0.01)], q=3)
    rep = reports[0]
    assert rep.regime == "tsp_suboptimal"
    assert rep.certified
    assert rep.witness_value < rep.tsp_value - 1e-9


def test_verify_claims_small_grid_witness_from_oracle():
    base = GridParams(sqrt_n=2, walk_rate=1.6, capacity=1)
    reports = verify_claims([replace(base, park_time=3.0)], q=1)
    rep = reports[0]
    assert rep.regime == "tsp_suboptimal"
    assert rep.witness is not None
    assert rep.certified


def test_grid_sweep_regime_flip():
    base = GridParams(sqrt_n=6, walk_rate=1.6, capacity=3)
    thr = threshold_p(3, base)
    ps = [0.0, 0.5, thr, thr + 0.05, 2.0]
    reports = grid_sweep(base, q=3, p_values=ps)
    regimes = [r.regime for r in reports]
    assert regimes == ["tsp_optimal"] * 3 + ["tsp_suboptimal"] * 2
    for rep in reports[3:]:
        assert rep.witness_value < rep.tsp_value - 1e-9


@pytest.mark.parametrize("sqrt_n", [2, 4])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_grid_oracle_proves_every_row_without_the_search(monkeypatch, q, sqrt_n):
    # grid drive matrices are metric, so each oracle solve is proven by the
    # DP alone: the branch-and-bound, the one part with a search limit, never runs
    def no_search(self, *args):
        raise AssertionError("the oracle reached the branch-and-bound")

    solves = []

    def recorded(inst, cat):
        res = solve_exact(inst, cat)
        solves.append(res.status)
        return res

    monkeypatch.setattr(exact._Searcher, "__init__", no_search)
    monkeypatch.setattr(gridlab, "solve_exact", recorded)
    for walk_rate in (1.0, 1.6):
        base = GridParams(sqrt_n=sqrt_n, walk_rate=walk_rate)
        reports = grid_sweep(base, q, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        assert [r.status for r in reports] == ["ok"] * 7
    assert solves and set(solves) == {"optimal"}
