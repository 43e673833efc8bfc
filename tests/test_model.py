import json
from itertools import permutations

import numpy as np
import pytest

from parkroute.errors import InfeasibleSolutionError, UnsupportedError
from parkroute.instance import GridParams, Instance, gen_geo_instance, gen_grid_instance, grid_id
from parkroute.model import (
    Breakdown,
    ModelOptions,
    Solution,
    assemble_solution,
    build_model,
    evaluate_solution,
    export_lp,
    parse_lp,
    solution_from_dict,
)
from parkroute.servicesets import enumerate_catalog, reduce_catalog

from brutes import encode_assignment, milp_optimum, model_violations, ring_walk_instance, self_singleton_form


def _n2_instance(q=1):
    return Instance(
        drive=[[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        walk=[[0, 1.5], [1.5, 0]],
        park_time=[0.5, 0.5],
        capacity_count=q,
    )


def test_variable_counts_n2():
    inst = _n2_instance(q=1)
    cat = enumerate_catalog(inst)
    model = build_model(inst, cat, ModelOptions(var_reduction=True))
    assert model.count_vars("x_") == 6
    assert model.count_vars("y_") == 4
    # package flow exists into every parking spot from anywhere, never into the depot
    assert model.count_vars("v_") == 4


def test_y_variables_equal_admissible_pairs():
    inst = gen_geo_instance(5, seed=4, q=2)
    cat = reduce_catalog(enumerate_catalog(inst))
    model = build_model(inst, cat)
    y_names = {v.name for v in model.variables if v.name.startswith("y_")}
    expected = {
        f"y_{i}__" + "_".join(map(str, cat.sets[j].members))
        for i in inst.spots
        for j in range(len(cat.sets))
        if cat.admissible(i, j)
    }
    assert y_names == expected
    assert len(y_names) == cat.admissible_pair_count()


def test_reduced_pair_accounting_n50_q3():
    inst = gen_geo_instance(50, seed=1, q=3)
    red = reduce_catalog(enumerate_catalog(inst))
    assert red.pair_count() == 1_043_750
    assert red.admissible_pair_count() == 982_500


def test_self_singleton_rows_shape():
    inst = _n2_instance(q=1)
    cat = enumerate_catalog(inst)
    model = build_model(inst, cat, ModelOptions(vi_claim4=True, vi_corollary1=True))
    rows = model.rows_tagged("vi.claim4")
    assert len(rows) == 2
    row = next(r for r in rows if r.name == "vi.claim4.1")
    terms = dict(row.terms)
    assert row.sense == "=" and row.rhs == 0.0
    assert terms["x_0_1"] == 1.0 and terms["x_2_1"] == 1.0 and terms["y_1__1"] == -1.0
    assert len(model.rows_tagged("vi.corollary1")) == 1


def test_claim5_and_corollary3_rows_present():
    inst = _n2_instance(q=1)
    cat = enumerate_catalog(inst)
    model = build_model(inst, cat, ModelOptions(vi_claim5=True, vi_corollary3=True))
    assert len(model.rows_tagged("vi.claim5")) == 4  # (i, k) pairs over 2 spots
    assert len(model.rows_tagged("vi.corollary3")) == 1


def test_structural_rows_cover_each_equation_family_once():
    inst = _n2_instance(q=1)
    model = build_model(inst, enumerate_catalog(inst))
    tags = {r.tag for r in model.constraints}
    assert tags == {
        "eq2.depart", "eq3.return", "eq4.cover", "eq5.balance",
        "eq6.link", "eq7.flow.source", "eq8.flow.ub", "eq9.flow.balance",
    }
    assert len(model.rows_tagged("eq2.depart")) == 1
    assert len(model.rows_tagged("eq7.flow.source")) == 1


def test_self_singleton_rows_require_a_metric_walk():
    # the ring walk breaks the triangle inequality; the other rows stay valid
    inst = ring_walk_instance()
    cat = enumerate_catalog(inst)
    for rows in (ModelOptions(vi_claim4=True), ModelOptions(vi_corollary1=True)):
        with pytest.raises(UnsupportedError, match="triangle inequality"):
            build_model(inst, cat, rows)
    model = build_model(inst, cat, ModelOptions(vi_claim5=True, vi_corollary3=True))
    assert model.rows_tagged("vi.claim5") and model.rows_tagged("vi.corollary3")


def test_vi_rows_require_full_customer_parking():
    inst = Instance(
        drive=[[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        walk=[[0, 1.5], [1.5, 0]],
        park_time=[0.5, 0.5],
        capacity_count=1,
        parking_locations=(1,),
    )
    cat = enumerate_catalog(inst)
    with pytest.raises(UnsupportedError):
        build_model(inst, cat, ModelOptions(vi_claim4=True))


def test_lp_single_customer_objective_coefficient():
    inst = Instance(drive=[[0, 2], [2, 0]], walk=[[0.0]], park_time=[1.0], capacity_count=1)
    model = build_model(inst, enumerate_catalog(inst))
    obj = dict(model.objective)
    assert obj["x_0_1"] == pytest.approx(3.0)  # drive 2 plus search 1
    assert obj["x_1_0"] == pytest.approx(2.0)  # return leg has no search
    assert "x_0_1" in export_lp(model)


def test_lp_export_parse_idempotent():
    inst = _n2_instance(q=2)
    model = build_model(
        inst, enumerate_catalog(inst),
        ModelOptions(vi_claim4=True, vi_corollary1=True, vi_claim5=True, vi_corollary3=True),
    )
    text = export_lp(model)
    assert export_lp(parse_lp(text)) == text


def test_lp_line_count_matches_sections():
    inst = _n2_instance(q=1)
    model = build_model(inst, enumerate_catalog(inst))
    lines = export_lp(model).splitlines()
    n_int = sum(1 for v in model.variables if v.kind == "I")
    expected = (
        1  # comment
        + 2  # Minimize + objective
        + 1 + len(model.constraints)  # Subject To + rows
        + 1 + n_int  # Bounds
        + 2  # Binaries header + list
        + 2  # Generals header + list
        + 1  # End
    )
    assert len(lines) == expected


# ---------------------------------------------------------------------------
# solution evaluation


def test_single_customer_forced_structure():
    inst = Instance(drive=[[0, 2], [2, 0]], walk=[[0.0]], park_time=[1.5], load_per_package=0.7, capacity_count=1)
    sol = assemble_solution(inst, [1], [((1,),)])
    assert sol.total == pytest.approx(inst.D(0, 1) + 1.5 + inst.D(1, 0) + 0.7)
    assert sol.breakdown.load_min == pytest.approx(0.7)
    assert sol.breakdown.walk_min == 0.0


def test_grid_park_everywhere_value_by_enumeration():
    gp = GridParams(sqrt_n=2, park_time=1.0)
    inst = gen_grid_instance(gp)
    best_drive = min(
        inst.D(0, o[0]) + sum(inst.D(a, b) for a, b in zip(o, o[1:])) + inst.D(o[-1], 0)
        for o in permutations(inst.customers)
    )
    assert best_drive == pytest.approx(8.0)
    order = min(
        (o for o in permutations(inst.customers)),
        key=lambda o: inst.D(0, o[0]) + sum(inst.D(a, b) for a, b in zip(o, o[1:])) + inst.D(o[-1], 0),
    )
    sol = assemble_solution(inst, list(order), [((c,),) for c in order])
    assert sol.total == pytest.approx(12.0)  # 8 driving + 4 searches


def test_duplicate_customer_diagnostic():
    inst = gen_geo_instance(3, seed=1, q=2)
    with pytest.raises(InfeasibleSolutionError) as err:
        assemble_solution(inst, [1, 2], [((1, 3),), ((3,),)])
    assert any("served 2 times" in v for v in err.value.violations)


def test_missing_customer_diagnostic():
    inst = gen_geo_instance(3, seed=1, q=2)
    with pytest.raises(InfeasibleSolutionError) as err:
        assemble_solution(inst, [1], [((1,),)])
    joined = " ".join(err.value.violations)
    assert "customer 2 not served" in joined and "customer 3 not served" in joined


def test_capacity_violation_diagnostic():
    inst = gen_geo_instance(4, seed=2, q=2)
    with pytest.raises(InfeasibleSolutionError) as err:
        assemble_solution(inst, [1], [((1, 2, 3), (4,))])
    assert any("exceeds package capacity" in v for v in err.value.violations)


def test_unknown_customer_id_diagnostic_with_weights():
    # the id check comes before the weight sum, which would index past the
    # weight vector
    inst = gen_geo_instance(3, seed=1, q=2)
    inst = Instance(
        drive=inst.drive, walk=inst.walk, park_time=inst.park_time, capacity_count=2,
        capacity_weight=5.0, weights=[1.0, 1.0, 1.0],
    )
    with pytest.raises(InfeasibleSolutionError) as err:
        assemble_solution(inst, [1], [((1, 99),)])
    assert "unknown customer id 99" in err.value.violations


def test_breakdown_identity():
    inst = gen_geo_instance(6, seed=5, p=2.0, q=2, f=1.3)
    sol = assemble_solution(inst, list(inst.customers), [((c,),) for c in inst.customers])
    bd = sol.breakdown
    assert sol.total == bd.park_min + bd.drive_min + bd.walk_min + bd.load_min
    assert bd.load_min == pytest.approx(inst.n * 1.3)
    recomputed = evaluate_solution(inst, sol)
    assert recomputed.total == pytest.approx(sol.total)


def test_solution_json_round_trip():
    inst = gen_geo_instance(3, seed=4, q=2)
    sol = assemble_solution(inst, [2, 1], [((2, 3),), ((1,),)])
    doc = json.loads(json.dumps(sol.to_dict()))
    back = solution_from_dict(doc)
    assert back == sol


@pytest.mark.parametrize("seed", range(4))
def test_oracle_solution_satisfies_every_model_row(seed):
    # the self-singleton rows hold on the optimum's self-singleton form,
    # which on a metric walk costs what the optimum costs
    from parkroute.exact import solve_exact

    inst = gen_geo_instance(5, seed=seed + 60, p=3.0, q=2, f=0.6)
    cat = enumerate_catalog(inst)
    model = build_model(
        inst, cat,
        ModelOptions(vi_claim4=True, vi_corollary1=True, vi_claim5=True, vi_corollary3=True),
    )
    res = solve_exact(inst, cat)
    form = self_singleton_form(inst, res.solution)
    assert form.total == pytest.approx(res.value, abs=1e-9)
    assert model_violations(model, encode_assignment(inst, form), form.total) == []


@pytest.mark.parametrize("seed", [70, 71, 72])
def test_built_model_agrees_with_external_milp_solver(seed):
    from parkroute.exact import solve_exact

    inst = gen_geo_instance(5, seed=seed, p=4.0, q=2, f=0.5)
    cat = enumerate_catalog(inst)
    external = milp_optimum(build_model(inst, cat))
    internal = solve_exact(inst, cat).value
    assert external == pytest.approx(internal, abs=1e-6)


def test_external_milp_confirms_2x2_grid_optima():
    from parkroute.exact import solve_exact

    for p, want in [(2.0, 15.6), (2.2, 15.8)]:
        gp = GridParams(sqrt_n=2, walk_rate=1.6, park_time=p, capacity=2)
        inst = gen_grid_instance(gp)
        cat = enumerate_catalog(inst)
        external = milp_optimum(build_model(inst, cat))
        assert external == pytest.approx(want, abs=1e-6)
        assert solve_exact(inst, cat).value == pytest.approx(want, abs=1e-9)


def test_random_feasible_solutions_dominate_the_optimum():
    from parkroute.exact import solve_exact

    rng = np.random.default_rng(42)
    inst = gen_geo_instance(6, seed=42, p=3.0, q=2, f=0.4)
    cat = enumerate_catalog(inst)
    opt = solve_exact(inst, cat).value
    for _ in range(25):
        order = list(rng.permutation(list(inst.customers)))
        n_stops = int(rng.integers(1, inst.n + 1))
        stops = sorted(rng.choice(list(inst.customers), size=n_stops, replace=False).tolist())
        served = [[] for _ in stops]
        for c in order:
            served[int(rng.integers(0, n_stops))].append(c)
        stops, served = zip(*[(s, grp) for s, grp in zip(stops, served) if grp])
        packed = [tuple(tuple(grp[i : i + 2]) for i in range(0, len(grp), 2)) for grp in served]
        sol = assemble_solution(inst, list(stops), packed)
        assert sol.total >= opt - 1e-9
