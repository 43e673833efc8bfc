"""Spans around calls into each layer of parkroute, for the traced run.

The traced run replaces public functions of the package's modules with
wrappers from this file for the length of one batch; nothing inside the
package changes.  Spans stay in memory and are written out when the run ends.
A layer's self time is its spans' durations minus the time of their direct
children.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import parkroute.benchmarks
import parkroute.cli
import parkroute.heuristic
from parkroute.model import build_model
from parkroute.servicesets import enumerate_catalog

LAYERS = ("cli", "instance", "servicesets", "model", "exact", "heuristic", "benchmarks")

# Heuristic stages are traced only where the heuristic is the solver the user
# (or the exact solver's warm start) asked for.  The comparison models run it on
# modified instances; that time stays in the benchmarks layer.
STAGE_PARENTS = ("heuristic.solve", "heuristic.warm")

class Tracer:
    """In-memory span recorder; spans of one instance share its id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.instance: str | None = None

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "instance": self.instance,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, observe=None, under=None):
        """``fn`` inside a span; ``observe`` maps its result to span fields, and
        ``under`` limits tracing to calls whose caller's span has one of these names."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if under is not None and (not self._open or self.spans[self._open[-1]]["name"] not in under):
                return fn(*args, **kwargs)
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if observe is not None:
                    rec.update(observe(result))
            return result

        return traced


def _traced_catalog(tracer: Tracer, enumerate_fn):
    """Enumeration, then the walk-cost fill the solver would otherwise do lazily."""

    @functools.wraps(enumerate_fn)
    def traced(inst, *args, **kwargs):
        with tracer.span("servicesets.enumerate") as rec:
            cat = enumerate_fn(inst, *args, **kwargs)
            rec["sets"] = len(cat.sets)
        with tracer.span("servicesets.walk_fill") as rec:
            cat.precompute_walk_costs()
            rec["pairs"] = cat.admissible_pair_count()
        return cat

    return traced


def _exact_fields(res) -> dict:
    return {"states": res.nodes, "value": res.value, "bound": res.bound}


@contextmanager
def installed(tracer: Tracer):
    """Replace the traced functions for the duration of the block."""
    cli, heur, bm = parkroute.cli, parkroute.heuristic, parkroute.benchmarks
    w = tracer.wrap
    patches = [
        (cli, "load_instance", w("instance.load", cli.load_instance)),
        (cli, "enumerate_catalog", _traced_catalog(tracer, cli.enumerate_catalog)),
        (cli, "solve_exact", w("exact.solve", cli.solve_exact, _exact_fields)),
        (cli, "heuristic_solve_full", w("heuristic.solve", cli.heuristic_solve_full)),
        (heur, "heuristic_solve", w("heuristic.warm", heur.heuristic_solve)),
        (heur, "solve_par", w("heuristic.par", heur.solve_par,
                              lambda pa: {"exact": pa.proof, "opened": len(pa.opened)}, STAGE_PARENTS)),
        (heur, "route_parking", w("heuristic.route", heur.route_parking,
                                  lambda r: {"exact": r[2]}, STAGE_PARENTS)),
        (heur, "solve_ssa", w("heuristic.ssa", heur.solve_ssa, lambda r: {"exact": r[2]}, STAGE_PARENTS)),
        (bm, "no_parking_benchmark", w("benchmarks.npt", bm.no_parking_benchmark)),
        (bm, "modified_tsp", w("benchmarks.mtsp", bm.modified_tsp)),
        (bm, "relaxed_ms", w("benchmarks.ms", bm.relaxed_ms)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def trace_model_build(tracer: Tracer, instances: dict) -> None:
    """Build the MIP of each instance.  Off the CLI's solve path today, so
    these spans are roots outside the traced wall time."""
    for stem, inst in instances.items():
        tracer.instance = stem
        cat = enumerate_catalog(inst)
        with tracer.span("model.build") as rec:
            model = build_model(inst, cat)
            rec["rows"] = len(model.constraints)
            rec["cols"] = len(model.variables)


def span_cost(rounds: int = 5, calls: int = 10_000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one,
    the median of ``rounds`` timings of ``calls`` calls each."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)

    def per_call(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    return statistics.median(per_call(traced) - per_call(noop) for _ in range(rounds))


def layer_metrics(tracer: Tracer, untraced_wall: float, host_speed: float) -> dict[str, float]:
    """Every per-layer metric from the recorded spans, plus the untraced
    batch's wall time and the host speed sampled during it.  Counts are totals over
    the batch; a stage that did not run reports 0 time, 0 count and 0 share.
    The tracing overhead is the cost of one span times the number of spans:
    the traced and untraced batches differ by more than that from host noise."""
    spans = tracer.spans
    by_name: dict[str, list[dict]] = defaultdict(list)
    children = defaultdict(float)
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]] += s["dur"]

    def secs(name):
        return sum(s["dur"] for s in by_name[name])

    def count(name, key):
        return sum(s[key] for s in by_name[name])

    def share(name):
        xs = by_name[name]
        return sum(bool(s["exact"]) for s in xs) / len(xs) if xs else 0.0

    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_s[s["name"].split(".")[0]] += s["dur"] - children[s["id"]]
    gaps = [100.0 * (s["value"] - s["bound"]) / s["value"] for s in by_name["exact.solve"] if s["value"]]
    traced_wall = secs("cli.main")
    values = {
        "instance.load_s": secs("instance.load"),
        "servicesets.enumerate_s": secs("servicesets.enumerate"),
        "servicesets.sets": count("servicesets.enumerate", "sets"),
        "servicesets.walk_fill_s": secs("servicesets.walk_fill"),
        "servicesets.walk_pairs": count("servicesets.walk_fill", "pairs"),
        "exact.solve_s": secs("exact.solve"),
        "exact.states": count("exact.solve", "states"),
        "exact.gap_pct": max(gaps, default=0.0),
        "heuristic.par_s": secs("heuristic.par"),
        "heuristic.par_exact_frac": share("heuristic.par"),
        "heuristic.opened": count("heuristic.par", "opened"),
        "heuristic.route_s": secs("heuristic.route"),
        "heuristic.route_exact_frac": share("heuristic.route"),
        "heuristic.ssa_s": secs("heuristic.ssa"),
        "heuristic.ssa_exact_frac": share("heuristic.ssa"),
        "heuristic.warm_s": secs("heuristic.warm"),
        "benchmarks.npt_s": secs("benchmarks.npt"),
        "benchmarks.mtsp_s": secs("benchmarks.mtsp"),
        "benchmarks.ms_s": secs("benchmarks.ms"),
        "model.build_s": secs("model.build"),
        "model.rows": count("model.build", "rows"),
        "model.cols": count("model.build", "cols"),
        **{f"{layer}.self_s": v for layer, v in self_s.items()},
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": span_cost() * len(spans),
        "trace.spans": len(spans),
        "trace.host_speed": host_speed,
    }
    return {name: float(v) for name, v in values.items()}
