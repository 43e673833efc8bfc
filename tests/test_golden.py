"""Exact solutions and benchmark tables pinned byte for byte.

``golden/`` holds the solution JSONs that ``parkroute solve --method exact``
writes for five instances, with ``config.instance`` (the input's path)
dropped.  A change to the DP, its decode or the branch-and-bound that moves
any answer, bound or node count fails here.  One of them runs at q = 6,
whose 12-bit layer holds more than 2 * ``CHUNK`` small subsets, so the
fill prices it one mask at a time.  ``solve --method heuristic`` at
n = 50 is pinned the same way: it opens 13 spots, so its route is a
14-node Held-Karp.  It also holds the CSVs that
``parkroute benchmark`` writes for a 50-customer input and, with
``--with-optimum``, for the weight-subset input and the skewed input with
loading, with the ``instance`` column set to a fixed name, so a benchmark
model that moves any completion, stop count or breakdown fails too.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from parkroute.cli import main
from parkroute.instance import gen_geo_instance, save_instance

GOLDEN = Path(__file__).parent / "golden"


def _skewed_n7():
    # CI's skewed n = 7 input, whose closure DP misses its floor
    base = gen_geo_instance(7, 1, p=0.0, q=3)
    skew = np.random.default_rng(3).uniform(1.0, 1.6, size=base.drive.shape)
    return replace(base, drive=base.drive * skew)


def _weight_subset_n11():
    # per-spot search times, a weight capacity alone and seven of the eleven
    # customers as spots, so the DP's spot columns are not the spot ids
    base = gen_geo_instance(11, 1, p=0.0, q=None, f=0.25)
    rng = np.random.default_rng(1)
    return replace(base, park_time=rng.uniform(1.0, 8.0, 11), parking_locations=(2, 3, 5, 6, 8, 9, 11),
                   weights=rng.integers(1, 4, 11).astype(float), capacity_weight=5.0)


INSTANCES = {
    "geo-n12-s1": lambda: gen_geo_instance(12, 1, p=5.0, q=3),
    "geo-n13-s1": lambda: gen_geo_instance(13, 1, p=5.0, q=3),
    "geo-n12-q6-s1": lambda: gen_geo_instance(12, 1, p=5.0, q=6),
    "skewed-n7": _skewed_n7,
    "weight-subset-n11": _weight_subset_n11,
}


def solve_document(tmp_path, name, method="exact"):
    """The text ``solve --method method`` writes for instance ``name``, without ``config.instance``;
    the heuristic exits 2, feasible without proof."""
    make = HEURISTIC_INSTANCES[name] if method == "heuristic" else INSTANCES[name]
    save_instance(make(), tmp_path / "instance.json")
    rc = main(["solve", "--method", method, str(tmp_path / "instance.json"), "-o", str(tmp_path / "out.json")])
    assert rc == (2 if method == "heuristic" else 0)
    doc = json.loads((tmp_path / "out.json").read_text())
    del doc["config"]["instance"]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", list(INSTANCES))
def test_exact_solutions_match_the_golden_files_byte_for_byte(tmp_path, name):
    assert solve_document(tmp_path, name) == (GOLDEN / f"solve-exact-{name}.json").read_text()


HEURISTIC_INSTANCES = {
    "geo-n50-s1": lambda: gen_geo_instance(50, 1, p=5.0, q=3),
}


@pytest.mark.parametrize("name", list(HEURISTIC_INSTANCES))
def test_heuristic_solutions_match_the_golden_files_byte_for_byte(tmp_path, name):
    assert solve_document(tmp_path, name, "heuristic") == (GOLDEN / f"solve-heuristic-{name}.json").read_text()


BENCHMARKS = {
    "geo-n50-s1": (lambda: gen_geo_instance(50, 1, p=5.0, q=3), ["--models", "npt,mtsp,ms:0.6,ms:0.8"]),
    "weight-subset-n11": (_weight_subset_n11, ["--with-optimum"]),
    # loading on a skewed input: the no-parking variant's inner solve runs the branch-and-bound
    "skewed-n7-load": (lambda: replace(_skewed_n7(), load_per_package=0.3),
                       ["--models", "npt,mtsp,ms:0.6,ms:0.8", "--with-optimum"]),
}


def benchmark_document(tmp_path, name):
    """The CSV ``benchmark`` writes for input ``name``, its ``instance`` column set to ``name``."""
    make, flags = BENCHMARKS[name]
    save_instance(make(), tmp_path / "instance.json")
    assert main(["benchmark", *flags, str(tmp_path / "instance.json"), "-o", str(tmp_path / "out.csv")]) == 0
    return (tmp_path / "out.csv").read_text().replace(str(tmp_path / "instance.json"), name)


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_benchmark_tables_match_the_golden_files_byte_for_byte(tmp_path, name):
    assert benchmark_document(tmp_path, name) == (GOLDEN / f"benchmark-{name}.csv").read_text()
