import json

import numpy as np
import pytest

from parkroute.cli import main
from parkroute.errors import InfeasibleInstanceError, InstanceFormatError, UnsupportedError
from parkroute.instance import (
    GridParams,
    Instance,
    gen_geo_instance,
    gen_grid_instance,
    grid_coord,
    grid_id,
    instance_to_dict,
    load_instance,
    save_instance,
    validate_instance,
)


def test_minimal_json_instance(tmp_path):
    doc = {"n": 1, "drive": [[0, 2], [2, 0]], "walk": [[0]], "park_time": [1], "q": 1, "f": 0}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    inst = load_instance(path)
    assert inst.n == 1
    assert list(inst.customers) == [1]
    assert inst.D(0, 1) == 2
    assert inst.d(0, 1) == 3  # drive plus search time at the customer
    assert inst.d(1, 0) == 2  # no search time back at the depot


def test_missing_walk_row_rejected():
    doc = {"n": 2, "drive": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "walk": [[0, 1]], "park_time": [1, 1], "q": 1}
    with pytest.raises(InstanceFormatError):
        load_instance(json.dumps(doc))


def test_negative_time_rejected():
    with pytest.raises(InstanceFormatError):
        Instance(drive=[[0, -1], [1, 0]], walk=[[0.0]], park_time=[1.0])


def test_nonzero_diagonal_rejected():
    with pytest.raises(InstanceFormatError):
        Instance(drive=[[0.5, 1], [1, 0]], walk=[[0.0]], park_time=[1.0])


_FINITE = dict(
    drive=[[0, 1, 1], [1, 0, 1], [1, 1, 0]], walk=[[0, 1], [1, 0]], park_time=[1.0, 1.0],
    weights=[1.0, 2.0], volumes=[1.0, 2.0], load_per_package=0.5, capacity_weight=3.0, capacity_volume=3.0,
)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", sorted(_FINITE))
def test_non_finite_number_rejected(field, bad):
    kwargs = {k: np.array(v, dtype=float) if isinstance(v, list) else v for k, v in _FINITE.items()}
    Instance(**kwargs)
    value = kwargs[field]
    if np.ndim(value) == 2:
        value[0, 1] = bad
    elif np.ndim(value) == 1:
        value[1] = bad
    else:
        kwargs[field] = bad
    with pytest.raises(InstanceFormatError, match="non-finite"):
        Instance(**kwargs)


@pytest.mark.parametrize("change, message", [
    (dict(load_per_package=-2.0), "negative load_per_package"),
    (dict(load_per_package=None), "load_per_package must be a number"),
    (dict(weights=None), "a weight capacity needs per-package weights"),
    (dict(volumes=None), "a volume capacity needs per-package volumes"),
], ids=["negative-load", "null-load", "weight-capacity-without-weights", "volume-capacity-without-volumes"])
def test_malformed_load_or_capacity_rejected(change, message):
    # a negative load would lower every completion time, and a capacity
    # without its per-package amounts would never be applied
    Instance(**_FINITE)
    with pytest.raises(InstanceFormatError, match=message):
        Instance(**{**_FINITE, **change})


@pytest.mark.parametrize("field, literal", [("drive", "[[0, NaN], [2, 0]]"), ("park_time", "[Infinity]"), ("q", "NaN")])
def test_non_finite_json_literal_rejected(tmp_path, field, literal):
    doc = {"n": 1, "drive": "[[0, 2], [2, 0]]", "walk": "[[0]]", "park_time": "[1]", "q": "1"}
    doc[field] = literal
    path = tmp_path / "inst.json"
    path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}")
    with pytest.raises(InstanceFormatError):
        load_instance(path)


def test_an_empty_parking_list_is_refused_not_read_as_every_customer(tmp_path, capsys):
    doc = {"n": 2, "drive": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "walk": [[0, 1], [1, 0]], "park_time": [1, 1], "q": 2}
    assert load_instance(json.dumps(doc)).spots == (1, 2)  # no key: every customer is a spot
    with pytest.raises(InstanceFormatError, match="at least one customer id"):
        load_instance(json.dumps(dict(doc, parking=[])))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(doc, parking=[])))
    assert main(["solve", str(path), "-o", str(tmp_path / "sol.json")]) == 1
    assert capsys.readouterr().err.startswith("error: parking must list at least one customer id")
    assert not (tmp_path / "sol.json").exists()


def test_round_trip_identity(tmp_path):
    inst = gen_geo_instance(6, seed=5, p=2.5, q=3, f=1.1)
    path = tmp_path / "roundtrip.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert np.array_equal(back.drive, inst.drive)
    assert np.array_equal(back.walk, inst.walk)
    assert np.array_equal(back.park_time, inst.park_time)
    assert back.capacity_count == inst.capacity_count
    assert back.load_per_package == inst.load_per_package
    assert back.parking_locations == inst.parking_locations
    assert np.array_equal(back.coords, inst.coords)
    # saving the reloaded instance reproduces the same document
    assert instance_to_dict(back) == instance_to_dict(inst)


def test_validator_reports_constructed_triangle_violation():
    drive = np.array([[0.0, 2, 10], [2, 0, 3], [10, 3, 0]])  # 0->2 direct beats 10 via 1
    walk = np.zeros((2, 2))
    inst = Instance(drive=drive, walk=walk, park_time=[1, 1], capacity_count=1)
    report = validate_instance(inst)
    assert report.drive_triangle_violations > 0
    assert report.drive_triangle_worst_excess == pytest.approx(5.0)
    assert not report.ok
    assert any("triangle" in msg for msg in report.messages)


def test_metric_instance_validates_clean():
    inst = gen_geo_instance(10, seed=3)
    report = validate_instance(inst)
    assert report.ok
    assert report.drive_triangle_violations == 0
    assert report.walk_triangle_violations == 0


def test_single_package_over_capacity_is_hard_error():
    with pytest.raises(InfeasibleInstanceError):
        Instance(
            drive=[[0, 1], [1, 0]], walk=[[0.0]], park_time=[1.0],
            capacity_weight=10.0, weights=[12.0],
        )


def test_validator_and_catalog_share_the_capacity_tolerance():
    # 5e-7 over the capacity: past the catalog's 1e-9 tolerance, so the
    # constructor must reject the package too
    with pytest.raises(InfeasibleInstanceError, match=r"packages \[2\] exceed the weight capacity 3.0 on their own"):
        Instance(
            drive=[[0, 1, 1], [1, 0, 1], [1, 1, 0]], walk=[[0.0, 1.0], [1.0, 0.0]], park_time=[1.0, 1.0],
            capacity_weight=3.0, weights=[1.0, 3.0000005],
        )


def test_geo_generator_deterministic():
    a = gen_geo_instance(5, seed=7)
    b = gen_geo_instance(5, seed=7)
    c = gen_geo_instance(5, seed=8)
    assert np.array_equal(a.drive, b.drive)
    assert np.array_equal(a.walk, b.walk)
    assert not np.array_equal(a.coords, c.coords)


def test_geo_walk_slower_than_drive_required():
    with pytest.raises(UnsupportedError):
        gen_geo_instance(4, seed=1, drive_factor=20.0, walk_factor=12.0)


def test_grid_2x2_min_distance_by_scan():
    gp = GridParams(sqrt_n=2, park_time=1.0)
    inst = gen_grid_instance(gp)
    assert inst.n == 4
    # brute rectilinear scan from the depot over all grid points
    dists = sorted(inst.D(0, c) for c in inst.customers)
    assert dists[0] == pytest.approx(2.0)
    assert inst.meta["min_distance"] == pytest.approx(2.0)
    assert gp.min_distance == 2
    # rectilinear between opposite corners
    assert inst.D(grid_id(gp, 1, 1), grid_id(gp, 2, 2)) == pytest.approx(2.0 * gp.block_len * gp.drive_rate)


def test_grid_second_closest_is_min_distance_plus_one():
    gp = GridParams(sqrt_n=6)
    inst = gen_grid_instance(gp)
    dists = sorted(inst.D(0, c) for c in inst.customers)
    assert dists[0] == pytest.approx(2.0)
    assert dists[1] == pytest.approx(3.0)
    assert dists[2] == pytest.approx(3.0)
    # the closest customer is unique
    assert sum(1 for c in inst.customers if inst.D(0, c) == pytest.approx(2.0)) == 1


def test_grid_ids_round_trip():
    gp = GridParams(sqrt_n=4)
    for cid in range(1, 17):
        a, b = grid_coord(gp, cid)
        assert grid_id(gp, a, b) == cid


def test_grid_rejects_odd_side():
    with pytest.raises(UnsupportedError):
        GridParams(sqrt_n=3)
    with pytest.raises(UnsupportedError):
        GridParams(sqrt_n=4, drive_rate=2.0, walk_rate=1.0)


def test_generated_instances_pass_their_validator():
    for inst in (gen_geo_instance(6, seed=0), gen_grid_instance(GridParams(sqrt_n=4, walk_rate=1.5))):
        assert validate_instance(inst).ok


def test_published_dataset_dir_loader(tmp_path):
    inst = gen_geo_instance(4, seed=2, p=3.0, q=2)
    np.savetxt(tmp_path / "drive.csv", inst.drive, delimiter=",")
    np.savetxt(tmp_path / "walk.csv", inst.walk[1:, 1:], delimiter=",")
    (tmp_path / "meta.json").write_text(json.dumps({"p": 3.0, "q": 2, "f": 0.0}))
    back = load_instance(tmp_path, format="published-dataset")
    assert back.n == 4
    assert np.allclose(back.drive, inst.drive)
    assert np.allclose(back.walk, inst.walk)
    assert back.capacity_count == 2
    assert np.allclose(back.park_time[1:], 3.0)


def test_unknown_format_rejected():
    with pytest.raises(InstanceFormatError):
        load_instance("{}", format="yaml")
