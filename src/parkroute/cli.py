"""Batch command-line front-end.

Commands: gen, solve, benchmark, grid, export-lp, report.  Outputs are
reproducible: JSON is key-sorted, CSV floats are printed with six decimals,
and the generator seed is recorded in everything derived from it.

Exit codes follow the solver statuses: 0 optimal/success, 2 feasible without
proof, 3 infeasible, 4 timeout without an incumbent; 1 for usage errors,
whether the command line cannot be parsed or its values are refused at
runtime, and for I/O errors.  The exact solver's search limit is fixed, so
the same input gives the same output on every machine.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

from . import benchmarks as bm
from .errors import InfeasibleInstanceError, ParkrouteError
from .exact import DP_MAX_CUSTOMERS, solve_exact
from .gridlab import grid_sweep
from .heuristic import heuristic_solve_full
from .instance import (
    GridParams,
    gen_geo_instance,
    gen_grid_instance,
    load_instance,
    save_instance,
)
from .model import ModelOptions, build_model, export_lp
from .servicesets import enumerate_catalog, reduce_catalog

def _fmt6(x: float) -> str:
    return f"{x:.6f}"


def _emit_csv(rows: list[dict], path: str | None, header: list[str]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    if args.geo == args.grid:
        raise ParkrouteError("choose exactly one of --geo / --grid")
    if args.geo:
        inst = gen_geo_instance(
            n=args.n, seed=args.seed, drive_factor=args.drive_factor,
            walk_factor=args.walk_factor, p=args.park, q=args.q, f=args.load,
        )
    else:
        gp = GridParams(
            sqrt_n=args.sqrt_n, block_len=args.block_len, drive_rate=args.drive_rate,
            walk_rate=args.walk_rate, park_time=args.park, load=args.load, capacity=args.q,
        )
        inst = gen_grid_instance(gp)
        inst.meta["seed"] = args.seed
    save_instance(inst, args.output)
    print(f"wrote {args.output} (n={inst.n})")
    return 0


def _solution_doc(sol, status: str, config: dict) -> dict:
    doc = sol.to_dict()
    doc["status"] = status
    doc["config"] = config
    return doc


def _cmd_solve(args) -> int:
    if args.reduced and args.method != "exact":
        raise ParkrouteError("--reduced applies to --method exact only: the heuristic reads no catalog")
    inst = load_instance(args.instance)
    config = {
        "command": "solve",
        "method": args.method,
        "instance": str(args.instance),
        "seed": inst.meta.get("seed"),
        "reduced_catalog": args.reduced,
    }
    if args.method == "exact":
        cat = enumerate_catalog(inst)
        if args.reduced:
            cat = reduce_catalog(cat)
        res = solve_exact(inst, cat)
        if res.solution is None:
            print(f"no incumbent found (bound {_fmt6(res.bound)})", file=sys.stderr)
            return 4
        sol, status = res.solution, res.status
        config["bound"] = res.bound
        config["nodes"] = res.nodes
    else:
        out = heuristic_solve_full(inst)
        sol, status = out.solution, "feasible"
        config.update(
            opened=len(out.opened),
            assignment_objective=out.assignment_objective,
            par_exact=out.par_exact,
            routing_exact=out.routing_exact,
            ssa_exact=out.ssa_exact,
        )
    doc = _solution_doc(sol, status, config)
    if args.output:
        Path(args.output).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    bd = sol.breakdown
    print(
        f"status={status} total={_fmt6(sol.total)} park={_fmt6(bd.park_min)} "
        f"drive={_fmt6(bd.drive_min)} walk={_fmt6(bd.walk_min)} load={_fmt6(bd.load_min)}"
    )
    return 0 if status == "optimal" else 2


_BENCH_HEADER = [
    "instance", "model", "objective", "completion", "stops",
    "park_min", "drive_min", "walk_min", "load_min", "optimum",
]
MAX_SWEEP_POINTS = 10_000  # a grid sweep solves every point; more is a typo, not a study


def _bench_one(path: str, models: list[str], with_optimum: bool) -> list[dict]:
    inst = load_instance(path)
    optimum = ""  # left empty above the exact limit and where no proof came
    if with_optimum and inst.n <= DP_MAX_CUSTOMERS:
        res = solve_exact(inst, enumerate_catalog(inst))
        if res.status == "optimal":
            optimum = _fmt6(res.value)
    rows = []
    for result in bm.run_benchmarks(inst, models):
        bd = result.solution.breakdown
        rows.append({
            "instance": path,
            "model": result.name,
            "objective": _fmt6(result.model_objective),
            "completion": _fmt6(result.completion),
            "stops": result.stops,
            "park_min": _fmt6(bd.park_min),
            "drive_min": _fmt6(bd.drive_min),
            "walk_min": _fmt6(bd.walk_min),
            "load_min": _fmt6(bd.load_min),
            "optimum": optimum,
        })
    return rows


def _cmd_benchmark(args) -> int:
    if args.jobs < 1:
        raise ParkrouteError(f"--jobs must be at least 1, got {args.jobs}")
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    bm.parse_models(models)  # a bad name fails before any model is solved
    rows: list[dict] = []
    if args.jobs > 1 and len(args.instances) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [
                pool.submit(_bench_one, path, models, args.with_optimum)
                for path in args.instances
            ]
            for fut in futures:
                rows.extend(fut.result())
    else:
        for path in args.instances:
            rows.extend(_bench_one(path, models, args.with_optimum))
    _emit_csv(rows, args.output, _BENCH_HEADER)
    return 0


def _parse_sweep(text: str) -> list[float]:
    if not text.startswith("p="):
        raise ParkrouteError("sweep must look like p=start:step:stop")
    try:
        start, step, stop = (float(v) for v in text[2:].split(":"))
    except ValueError as exc:
        raise ParkrouteError(f"bad sweep argument {text!r}") from exc
    if not all(map(math.isfinite, (start, step, stop))):
        raise ParkrouteError(f"sweep numbers must be finite, got {text!r}")
    if step <= 0:
        raise ParkrouteError("sweep step must be positive")
    if start > stop + 1e-12:  # the first point already lies past the stop
        raise ParkrouteError(f"sweep {text!r} has no points: its start is above its stop")
    span = (stop + 1e-12 - start) / step  # the sweep has floor(span) + 1 points, give or take rounding
    if span >= MAX_SWEEP_POINTS:
        raise ParkrouteError(f"sweep {text!r} has more than {MAX_SWEEP_POINTS} points")
    return [round(start + k * step, 12) for k in range(int(span) + 2) if start + k * step <= stop + 1e-12]


def _cmd_grid(args) -> int:
    gp = GridParams(
        sqrt_n=args.sqrt_n, block_len=args.block_len, drive_rate=args.drive_rate,
        walk_rate=args.walk_rate, load=args.load, capacity=args.q,
    )
    p_values = _parse_sweep(args.sweep)
    reports = grid_sweep(gp, args.q, p_values)
    rows = []
    for rep in reports:
        rows.append({
            "p": _fmt6(rep.gp.park_time),
            "threshold": _fmt6(rep.threshold),
            "tsp_value": _fmt6(rep.tsp_value),
            "oracle_value": "" if rep.oracle_value is None else _fmt6(rep.oracle_value),
            "witness_value": "" if rep.witness_value is None else _fmt6(rep.witness_value),
            "regime": rep.regime,
            "certified": "true" if rep.certified else "false",
        })
    _emit_csv(rows, args.output,
              ["p", "threshold", "tsp_value", "oracle_value", "witness_value", "regime", "certified"])
    return 0


def _cmd_export_lp(args) -> int:
    inst = load_instance(args.instance)
    cat = enumerate_catalog(inst)
    options = ModelOptions(
        vi_claim4=args.vi_claim4,
        vi_corollary1=args.vi_corollary1,
        vi_claim5=args.vi_claim5,
        vi_corollary3=args.vi_corollary3,
        var_reduction=args.reduce,
    )
    text = export_lp(build_model(inst, cat, options))
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _report_row(path: str) -> dict:
    """The report row of one solution file; raises ParkrouteError when the
    file is not JSON or lacks a field the row reads."""
    try:
        doc = json.loads(Path(path).read_text())
        bd = doc["breakdown"]
        return {
            "file": path,
            "total": _fmt6(doc["total"]),
            "park_min": _fmt6(bd["park_min"]),
            "drive_min": _fmt6(bd["drive_min"]),
            "walk_min": _fmt6(bd["walk_min"]),
            "load_min": _fmt6(bd["load_min"]),
            "stops": len(doc["stops"]),
        }
    except json.JSONDecodeError as exc:
        raise ParkrouteError(f"{path} is not JSON: {exc}") from exc
    except KeyError as exc:
        raise ParkrouteError(f"{path} is not a solution file: it has no {exc} field") from exc
    except (TypeError, ValueError) as exc:
        raise ParkrouteError(f"{path} is not a solution file: {exc}") from exc


def _cmd_report(args) -> int:
    rows = [_report_row(path) for path in args.solutions]
    _emit_csv(rows, args.output, ["file", "total", "park_min", "drive_min", "walk_min", "load_min", "stops"])
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged,
    and building it costs more than parsing a command line."""
    parser = argparse.ArgumentParser(prog="parkroute", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--geo", action="store_true")
    g.add_argument("--grid", action="store_true")
    g.add_argument("-n", type=int, default=8)
    g.add_argument("--sqrt-n", type=int, default=4)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--drive-factor", type=float, default=12.5)
    g.add_argument("--walk-factor", type=float, default=20.0)
    g.add_argument("--block-len", type=float, default=1.0)
    g.add_argument("--drive-rate", type=float, default=1.0)
    g.add_argument("--walk-rate", type=float, default=1.0)
    g.add_argument("-p", "--park", type=float, default=1.0)
    g.add_argument("-q", type=int, default=3)
    g.add_argument("-f", "--load", type=float, default=0.0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="solve one instance")
    s.add_argument("instance")
    s.add_argument("--method", choices=["exact", "heuristic"], default="exact")
    s.add_argument("--reduced", action="store_true", help="use the reduced catalog")
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(func=_cmd_solve)

    b = sub.add_parser("benchmark", help="run comparison models")
    b.add_argument("instances", nargs="+")
    b.add_argument("--models", default="npt,mtsp,ms:0.6,ms:0.8")
    b.add_argument("--jobs", type=int, default=1)
    b.add_argument("--with-optimum", action="store_true")
    b.add_argument("-o", "--output", default=None)
    b.set_defaults(func=_cmd_benchmark)

    gr = sub.add_parser("grid", help="threshold sweep on a complete grid")
    gr.add_argument("--q", type=int, required=True)
    gr.add_argument("--sqrt-n", type=int, required=True)
    gr.add_argument("--sweep", required=True, help="p=start:step:stop")
    gr.add_argument("--block-len", type=float, default=1.0)
    gr.add_argument("--drive-rate", type=float, default=1.0)
    gr.add_argument("--walk-rate", type=float, default=1.0)
    gr.add_argument("--load", type=float, default=0.0)
    gr.add_argument("-o", "--output", default=None)
    gr.set_defaults(func=_cmd_grid)

    e = sub.add_parser("export-lp", help="write the MIP as LP text")
    e.add_argument("instance")
    e.add_argument("--vi-claim4", action="store_true")
    e.add_argument("--vi-corollary1", action="store_true")
    e.add_argument("--vi-claim5", action="store_true")
    e.add_argument("--vi-corollary3", action="store_true")
    e.add_argument("--reduce", action="store_true")
    e.add_argument("-o", "--output", default=None)
    e.set_defaults(func=_cmd_export_lp)

    r = sub.add_parser("report", help="aggregate solution JSONs into a CSV")
    r.add_argument("solutions", nargs="+")
    r.add_argument("-o", "--output", default=None)
    r.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (or --help) and exits 2 on an
        # error, which would read as "feasible without proof"
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ParkrouteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
