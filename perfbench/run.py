"""parkroute benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from BENCHMARK.json as a closed loop with one client: the
workload's CLI calls run back to back in this single-threaded process, each
starting when the previous one ends.  Batches repeat while another one still
fits in ``--seconds``; there is always at least one.  Batch and set-up times
are scaled to a reference host speed sampled while they run (see
``pace.py``).  Outputs are checked after the timed region.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 16  # half before the timed batches, half after
SETUP_TIMEOUT_S = 120

TARGET_STATUS = {"exact": "optimal", "heuristic": "feasible"}

# One fresh interpreter writing the workload's inputs: the set-up a user pays.
# It prints the clock once the files are written.
_SETUP_CHILD = (
    "import json, sys, time; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
    "import workloads; spec = json.loads(sys.argv[3]); "
    "workloads.write_inputs(spec['name'], spec['seed'], spec['sizes'], Path(sys.argv[4])); "
    "print(repr(time.perf_counter()))"
)


def declared(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def time_setup(name: str, seed: int, sizes: dict, workdir: Path, samples: int) -> list[float]:
    """Wall times of separate processes that import the package and write the
    inputs, from the spawn to the child's own clock reading after the writes,
    at the reference host speed probed just before and just after each.
    The parent's clock would add the polling of a wait with a timeout, which
    sleeps in steps of up to 50 ms.  ``perf_counter`` is the system-wide
    monotonic clock on Linux, so the two readings compare."""
    import pace

    spec = json.dumps({"name": name, "seed": seed, "sizes": sizes})
    cmd = [sys.executable, "-c", _SETUP_CHILD, str(HERE), str(SRC), spec, str(workdir)]
    walls = []
    for _ in range(samples):
        before = pace.spot_speed()
        start = time.perf_counter()
        proc = subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, capture_output=True, text=True)
        wall = float(proc.stdout.split()[-1]) - start
        walls.append(wall * (before + pace.spot_speed()) / 2)
    return walls


def run_batch(calls, tracer=None):
    """Run the calls back to back; returns the batch wall time and, per call,
    (call, exit code, error).  A call that raises is recorded, not fatal."""
    from parkroute import cli

    ended = []
    start = time.perf_counter()
    for call in calls:
        sink = io.StringIO()
        if tracer is not None:
            tracer.instance = call.instance
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                with tracer.span("cli.main") if tracer is not None else nullcontext():
                    code = cli.main(list(call.argv))
            error = None if code in (0, 2) else f"exit code {code}: {sink.getvalue().strip()[-200:]}"
        except Exception as exc:  # the batch must go on; the call counts as failed
            code, error = None, f"{type(exc).__name__}: {exc}"
        ended.append((call, code, error))
    return time.perf_counter() - start, ended


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: dict, workdir: Path) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    import gate
    import pace
    import spans
    import workloads
    from parkroute.instance import load_instance

    # set-up samples straddle the timed batches, so one slow spell of a shared
    # machine does not shift them all
    setup = [] if trace else time_setup(name, seed, sizes, workdir, SETUP_SAMPLES // 2)
    paths = workloads.write_inputs(name, seed, sizes, workdir)
    instances = {stem: load_instance(path) for stem, path in paths.items()}
    workloads.self_check(name, instances)
    calls = workloads.calls(name, paths, workdir)

    def measured(batch):
        return [gate.read_outcome(*e) for e in batch]

    outcomes: list = []
    walls: list[float] = []  # at the reference host speed
    raw: list[tuple[float, float]] = []  # per batch: wall time as measured, host speed
    if trace:
        with pace.Pacer() as pacer:
            untraced_wall, batch = run_batch(calls)
        outcomes += measured(batch)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            _, batch = run_batch(calls, tracer)
        traced = measured(batch)
        if name.startswith("exact-"):
            spans.trace_model_build(tracer, instances)
    else:
        start = time.perf_counter()
        while True:
            with pace.Pacer() as pacer:
                wall, batch = run_batch(calls)
            walls.append(pace.ref_seconds(wall, pacer))
            raw.append((wall, pacer.speed()))
            outcomes += measured(batch)
            if time.perf_counter() - start + wall > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(
            f"{len(raw)} batches; as measured: median wall {statistics.median(w for w, _ in raw):.3f} s, "
            f"host speed {statistics.median(v for _, v in raw):.3f} of the reference",
            file=sys.stderr,
        )
        setup += time_setup(name, seed, sizes, workdir, SETUP_SAMPLES - len(setup))

    highs = frozenset(list(instances)[: workloads.HIGHS_CHECKS]) if name == "exact-nonmetric" else frozenset()
    check = gate.Gate(instances, highs, gate.pinned_optima(paths))
    for out in outcomes:
        check.check(out)
    if trace:
        for before, after in zip(outcomes, traced):
            check.check(after)
            if before.doc is not None and after.doc is not None and before.total != after.total:
                after.failures.append(f"traced total {after.total} differs from untraced {before.total}")
        outcomes += traced
    failed = [o for o in outcomes if o.failures]
    for o in failed:
        print(f"FAILED {' '.join(o.call.argv[:3])} {o.call.instance}: {'; '.join(o.failures)}", file=sys.stderr)

    if trace:
        values = spans.layer_metrics(tracer, untraced_wall - pacer.overhead_s, pacer.speed())
        trace_file = workdir.parent / f"spans-{name}-s{seed}.json"
        trace_file.write_text(json.dumps(tracer.spans) + "\n")
    else:
        values = {
            "ref_wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - len(failed) / len(outcomes),
            **quality(name, outcomes, check),
        }
    units = declared("per_layer" if trace else "end_to_end")
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def quality(name: str, outcomes: list, check) -> dict[str, float]:
    """Proven share, mean completion and heuristic-over-modified-TSP ratio,
    over the outputs that passed the gate (0 when none did)."""
    from gate import mtsp_completion

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    if name.startswith("exact-"):
        solves = [o for o in outcomes if o.call.kind == "exact" and not o.failures]
        ratios = [r["heuristic"] / r["mtsp"] for r in map(check.reference, dict.fromkeys(o.call.instance for o in solves))]
    else:
        # calls alternate: the heuristic solve, then the benchmark on the same file
        pairs = [(s, b) for s, b in zip(outcomes[::2], outcomes[1::2]) if not (s.failures or b.failures)]
        solves = [s for s, _ in pairs]
        ratios = [s.total / mtsp_completion(b.rows) for s, b in pairs]
    return {
        # the status each method aims for: a proof for exact solves; the
        # heuristic promises only feasibility (the gate checks its status)
        "proven_frac": mean([o.doc["status"] == TARGET_STATUS[o.call.kind] for o in solves]),
        "completion_mean": mean([o.total for o in solves]),
        "heur_over_mtsp": mean(ratios),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "parkroute" / "__init__.py").is_file():
        print(f"perfbench: parkroute sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.SIZES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workloads.SIZES[args.workload], workdir
        )
    except workloads.WorkloadRefused as exc:
        print(f"perfbench: refusing to run {args.workload}: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{args.workload:16s} {name:28s} {m['value']:14.6f} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
