"""Correctness gate for the benchmark's CLI outputs, run outside the timed region.

Every solution must be feasible against a freshly enumerated catalog and its
reported total must match the evaluator.  Exact results must carry a valid
bound, must not exceed the heuristic's or the modified-TSP benchmark's
completion on the same instance, and, where a HiGHS solve of the
materialised MIP is run or pinned, must lie in the interval it proved to
hold the optimum.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from parkroute.benchmarks import modified_tsp
from parkroute.errors import ParkrouteError
from parkroute.exact import check_feasible
from parkroute.heuristic import heuristic_solve
from parkroute.instance import Instance
from parkroute.model import build_model, evaluate_solution, solution_from_dict
from parkroute.servicesets import enumerate_catalog

from workloads import Call

TOL = 1e-6
OPTIMA = Path(__file__).resolve().parent / "optima.json"  # written by make_optima.py
CSV_TOL = 1e-5  # CSV floats carry six decimals
BENCH_NAMES = ("no-parking-time", "modified-tsp", "relaxed-ms:0.6", "relaxed-ms:0.8")


@dataclass
class Outcome:
    """One CLI call as it ended, with the output it wrote."""

    call: Call
    code: int | None
    error: str | None = None
    doc: dict | None = None  # solution JSON of a solve
    rows: list[dict] | None = None  # CSV rows of a benchmark
    failures: list[str] = field(default_factory=list)

    @property
    def total(self) -> float:
        return float(self.doc["total"])


def read_outcome(call: Call, code: int | None, error: str | None) -> Outcome:
    """Read back what the call wrote; a missing or unreadable file is a failure."""
    out = Outcome(call, code, error)
    if error is None and call.output.exists():
        text = call.output.read_text()
        try:
            if call.kind == "benchmark":
                out.rows = list(csv.DictReader(text.splitlines()))
            else:
                out.doc = json.loads(text)
        except (ValueError, csv.Error) as exc:
            out.error = f"unreadable output: {exc}"
    return out


def milp_optimum(model) -> tuple[float, float]:
    """Solve a built model with scipy's HiGHS backend, independent of every
    solver path in the package.  Returns the interval (dual bound, objective)
    that holds the optimum."""
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    names = [v.name for v in model.variables]
    idx = {name: k for k, name in enumerate(names)}
    c = np.zeros(len(names))
    for name, coef in model.objective:
        c[idx[name]] += coef
    rows, cols, data, lo, hi = [], [], [], [], []
    for r, row in enumerate(model.constraints):
        for name, coef in row.terms:
            rows.append(r), cols.append(idx[name]), data.append(coef)
        if row.sense == "=":
            lo.append(row.rhs), hi.append(row.rhs)
        elif row.sense == "<=":
            lo.append(-np.inf), hi.append(row.rhs)
        else:
            lo.append(row.rhs), hi.append(np.inf)
    A = sparse.csr_matrix((data, (rows, cols)), shape=(len(model.constraints), len(names)))
    lb = np.zeros(len(names))
    ub = np.ones(len(names))
    for v in model.variables:
        if v.kind == "I":
            lb[idx[v.name]] = v.lb
            ub[idx[v.name]] = v.ub if v.ub is not None else np.inf
    res = milp(
        c=c,
        constraints=LinearConstraint(A, lo, hi),
        bounds=Bounds(lb, ub),
        integrality=np.ones(len(names)),
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return float(res.mip_dual_bound), float(res.fun)


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_optima() -> dict[str, dict]:
    return json.loads(OPTIMA.read_text()) if OPTIMA.exists() else {}


def pinned_optima(paths: dict[str, Path]) -> dict[str, tuple[float, float]]:
    """HiGHS intervals from ``optima.json`` for the instance files listed there."""
    optima = load_optima()
    out = {}
    for stem, path in paths.items():
        entry = optima.get(file_digest(path))
        if entry is not None:
            out[stem] = (entry["dual_bound"], entry["objective"])
    return out


class Gate:
    """Checks outcomes against references computed once per instance.

    ``highs`` names the instances whose HiGHS optimum is solved here;
    ``pinned`` gives the HiGHS intervals already known for others."""

    def __init__(self, instances: dict[str, Instance], highs: frozenset[str] = frozenset(),
                 pinned: dict[str, tuple[float, float]] | None = None):
        self.instances = instances
        self.highs = highs
        self.pinned = pinned or {}
        self._refs: dict[str, dict] = {}

    def reference(self, stem: str) -> dict:
        """Heuristic and modified-TSP completions, plus the HiGHS interval
        (dual bound, objective) where one is asked for or pinned."""
        if stem not in self._refs:
            inst = self.instances[stem]
            cat = enumerate_catalog(inst)
            ref = {
                "heuristic": heuristic_solve(inst, cat).total,
                "mtsp": modified_tsp(inst).completion,
            }
            if stem in self.pinned:
                ref["highs"] = self.pinned[stem]
            elif stem in self.highs:
                ref["highs"] = milp_optimum(build_model(inst, cat))
            self._refs[stem] = ref
        return self._refs[stem]

    def check(self, out: Outcome) -> list[str]:
        """Record and return every failed check of one outcome."""
        f = out.failures
        kind = out.call.kind
        if out.error is not None:
            f.append(out.error)
        elif out.code not in (0, 2):
            f.append(f"exit code {out.code}")
        elif (out.rows if kind == "benchmark" else out.doc) is None:
            f.append(f"missing output {out.call.output.name}")
        else:
            try:
                f.extend(self._check_rows(out.rows) if kind == "benchmark" else self._check_solution(out))
            except (KeyError, TypeError, ValueError, ParkrouteError) as exc:
                f.append(f"malformed output {out.call.output.name}: {exc!r}")
        return f

    def _check_solution(self, out: Outcome) -> list[str]:
        inst = self.instances[out.call.instance]
        doc = out.doc
        sol = solution_from_dict(doc)
        f = check_feasible(inst, enumerate_catalog(inst), sol)
        if f:  # the evaluator and the bounds below assume a feasible solution
            return f
        total = float(doc["total"])
        evaluated = evaluate_solution(inst, sol).total
        if not abs(evaluated - total) <= TOL:
            f.append(f"reported total {total} but the evaluator gives {evaluated}")
        status = doc.get("status")
        if out.call.kind == "heuristic":
            if status != "feasible" or out.code != 2:
                f.append(f"heuristic status {status!r} with exit code {out.code}")
            return f
        if (status == "optimal") != (out.code == 0) or status not in ("optimal", "feasible"):
            f.append(f"exact status {status!r} with exit code {out.code}")
        bound = float(doc["config"]["bound"])
        if not bound <= total + TOL:
            f.append(f"bound {bound} above value {total}")
        ref = self.reference(out.call.instance)
        for name in ("heuristic", "mtsp"):
            if not total <= ref[name] + TOL:
                f.append(f"exact value {total} above the {name} completion {ref[name]}")
        if "highs" in ref:
            lo, hi = ref["highs"]
            if not total >= lo - TOL:
                f.append(f"exact value {total} below the HiGHS bound {lo}")
            elif status == "optimal" and not total <= hi + TOL:
                f.append(f"exact optimum {total} but HiGHS finds {hi}")
        return f

    @staticmethod
    def _check_rows(rows: list[dict]) -> list[str]:
        names = tuple(r["model"] for r in rows)
        if names != BENCH_NAMES:
            return [f"benchmark models {names}, expected {BENCH_NAMES}"]
        f = []
        for r in rows:
            completion = float(r["completion"])
            parts = sum(float(r[k]) for k in ("park_min", "drive_min", "walk_min", "load_min"))
            if not (math.isfinite(completion) and completion > 0):
                f.append(f"{r['model']}: completion {completion}")
            elif not abs(completion - parts) <= CSV_TOL:
                f.append(f"{r['model']}: completion {completion} but the breakdown sums to {parts}")
        return f


def mtsp_completion(rows: list[dict]) -> float:
    return next(float(r["completion"]) for r in rows if r["model"] == "modified-tsp")
