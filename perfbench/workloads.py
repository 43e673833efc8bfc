"""The benchmark's workloads: seeded instance files and the CLI calls run on them.

Each workload turns ``--seed`` into instance files with the package's own
generator, then runs the command lines a user would type, as
``parkroute.cli.main([...])`` calls in this one process.  The program sees only
the generated files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from parkroute.instance import Instance, gen_geo_instance, save_instance, validate_instance

# Sizes used by the benchmark.  ``exact-nonmetric`` uses many n = 6 instances
# rather than two n = 7 ones: branch-and-bound time varies about fivefold
# between seeded n = 7 instances (3-19 s, 42k-243k nodes), so a two-instance
# batch spread about 50% from seed to seed.  Its layouts are fixed and the seed
# draws only the skew of their drive matrices: per-layout effort is heavy-tailed
# (median 8.7k nodes, 1% above 35k), so 20 freshly drawn layouts still spread
# their node total by 14-20% between seeds, against 4% for 20 fixed ones.
SIZES = {
    "exact-metric": {"n": [12, 13]},
    "exact-nonmetric": {"n": 6, "count": 20},
    "paper-n50": {"n": 50},
}

PARK_MIN = 5.0
CAPACITY = 3
DRIVE_NOISE = (1.0, 1.6)
LAYOUT_SEED = 1000  # exact-nonmetric layout k is gen_geo_instance(n, LAYOUT_SEED + k)
BENCH_MODELS = "npt,mtsp,ms:0.6,ms:0.8"
HIGHS_CHECKS = 4  # exact-nonmetric instances per run checked against HiGHS


class WorkloadRefused(RuntimeError):
    """The generated inputs would not exercise the path the workload claims."""


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the file it writes."""

    kind: str  # "exact", "heuristic" or "benchmark"
    argv: tuple[str, ...]
    instance: str  # instance file stem, also the trace's instance id
    output: Path


def make_instances(name: str, seed: int, sizes: dict) -> dict[str, Instance]:
    """Instances of one workload, keyed by file stem; a pure function of the seed."""
    if name == "exact-metric":
        return {f"metric-n{n}": gen_geo_instance(n, seed, p=PARK_MIN, q=CAPACITY) for n in sizes["n"]}
    if name == "exact-nonmetric":
        out = {}
        for k in range(sizes["count"]):
            base = gen_geo_instance(sizes["n"], LAYOUT_SEED + k, p=PARK_MIN, q=CAPACITY)
            rng = np.random.default_rng([seed, k])
            factor = rng.uniform(*DRIVE_NOISE, size=base.drive.shape)
            meta = dict(base.meta, drive_noise=list(DRIVE_NOISE))
            out[f"nonmetric-{k:02d}"] = replace(base, drive=base.drive * factor, meta=meta)
        return out
    if name == "paper-n50":
        return {f"geo-n{sizes['n']}": gen_geo_instance(sizes["n"], seed, p=PARK_MIN, q=CAPACITY)}
    raise KeyError(f"unknown workload {name!r}")


def write_inputs(name: str, seed: int, sizes: dict, workdir: Path) -> dict[str, Path]:
    """Generate the workload's instances and write them as JSON files."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stem, inst in make_instances(name, seed, sizes).items():
        paths[stem] = workdir / f"{stem}.json"
        save_instance(inst, paths[stem])
    return paths


def self_check(name: str, instances: dict[str, Instance]) -> None:
    """Refuse inputs that would take another solver path than the workload claims:
    the exact DP runs only on metric drive matrices, branch-and-bound on the rest."""
    for stem, inst in instances.items():
        violations = validate_instance(inst).drive_triangle_violations
        if name == "exact-metric" and violations:
            raise WorkloadRefused(f"{stem}: drive matrix has {violations} triangle violations")
        if name == "exact-nonmetric" and not violations:
            raise WorkloadRefused(f"{stem}: drive matrix is metric, the DP would run")


def calls(name: str, paths: dict[str, Path], workdir: Path) -> list[Call]:
    """The workload's batch of CLI calls, in the order they run."""
    out = []
    for stem, path in paths.items():
        if name.startswith("exact-"):
            sol = workdir / f"{stem}.exact.json"
            out.append(Call("exact", ("solve", "--method", "exact", str(path), "-o", str(sol)), stem, sol))
        else:
            sol = workdir / f"{stem}.heuristic.json"
            csv = workdir / f"{stem}.benchmark.csv"
            out.append(Call("heuristic", ("solve", "--method", "heuristic", str(path), "-o", str(sol)), stem, sol))
            out.append(Call("benchmark", ("benchmark", "--models", BENCH_MODELS, str(path), "-o", str(csv)), stem, csv))
    return out
