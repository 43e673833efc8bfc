"""Pin HiGHS optima of the ``exact-metric`` instances.

    python3 perfbench/make_optima.py SEED [SEED ...]

HiGHS needs minutes per ``exact-metric`` instance, far longer than a run, so
the gate cannot solve them itself.  This script solves them once and adds
each to ``perfbench/optima.json`` as the interval HiGHS proved to hold the
optimum: its dual bound and its objective, at most HiGHS's default relative
gap (1e-4) apart.  The entries are keyed by the SHA-256 of the instance file;
the gate checks an exact solve against the entry of its file whenever there
is one.  Each entry is written as soon as it is proven, and instances already
listed are skipped.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gate  # noqa: E402
import workloads  # noqa: E402
from parkroute.instance import load_instance  # noqa: E402
from parkroute.model import build_model  # noqa: E402
from parkroute.servicesets import enumerate_catalog  # noqa: E402

WORKLOAD = "exact-metric"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    pinned = gate.load_optima()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            paths = workloads.write_inputs(WORKLOAD, seed, workloads.SIZES[WORKLOAD], Path(tmp) / str(seed))
            for stem, path in paths.items():
                key = gate.file_digest(path)
                if key in pinned:
                    continue
                inst = load_instance(path)
                start = time.perf_counter()
                lo, hi = gate.milp_optimum(build_model(inst, enumerate_catalog(inst)))
                secs = time.perf_counter() - start
                pinned[key] = {"workload": WORKLOAD, "seed": seed, "instance": stem,
                               "dual_bound": lo, "objective": hi}
                gate.OPTIMA.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
                print(f"seed {seed} {stem}: [{lo!r}, {hi!r}] in {secs:.0f} s", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
