"""MIP construction for the parking-aware delivery problem, LP-text export,
and evaluation of candidate solutions.

The model uses three variable families: x (drive-and-park arcs), y (serve a
set from a spot), and v (single-commodity package flow for subtour
elimination).  Constraint rows carry stable tags so tests can assert row
presence.  Building materializes every coefficient; it is intended for
desk-scale export, not for the 50-customer instances (their row count is
memory-prohibitive here -- variable accounting covers those).
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass

from .errors import InfeasibleSolutionError, ResourceLimitError, UnsupportedError
from .instance import Instance, validate_instance
from .servicesets import ServiceSetCatalog, check_catalog, reduce_catalog


# ---------------------------------------------------------------------------
# solutions

@dataclass(frozen=True)
class Breakdown:
    """Completion-time split: parking search, driving, walking, loading."""

    park_min: float
    drive_min: float
    walk_min: float
    load_min: float

    @property
    def total(self) -> float:
        return self.park_min + self.drive_min + self.walk_min + self.load_min

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Solution:
    """Ordered parking stops (tour is depot -> stops -> depot) and, per stop,
    the walking orders of the sets served there."""

    stops: tuple[int, ...]
    served: tuple[tuple[tuple[int, ...], ...], ...]
    breakdown: Breakdown
    total: float

    @property
    def num_stops(self) -> int:
        return len(self.stops)

    @property
    def num_sets(self) -> int:
        return sum(len(s) for s in self.served)

    def to_dict(self) -> dict:
        return {
            "stops": list(self.stops),
            "served": [[list(order) for order in stop] for stop in self.served],
            "breakdown": self.breakdown.to_dict(),
            "total": self.total,
        }


def solution_from_dict(doc: dict) -> Solution:
    bd = doc["breakdown"]
    return Solution(
        stops=tuple(doc["stops"]),
        served=tuple(tuple(tuple(o) for o in stop) for stop in doc["served"]),
        breakdown=Breakdown(bd["park_min"], bd["drive_min"], bd["walk_min"], bd["load_min"]),
        total=float(doc["total"]),
    )


def structural_violations(inst: Instance, stops, served) -> list[str]:
    """Coverage, capacity, and stop-structure checks shared by the evaluator
    and the feasibility checker."""
    violations = []
    stops = list(stops)
    if len(set(stops)) != len(stops):
        violations.append("duplicate parking stop")
    spot_set = set(inst.spots)
    for s in stops:
        if s not in spot_set:
            violations.append(f"stop {s} is not a parking location")
    if len(served) != len(stops):
        violations.append(f"served lists ({len(served)}) do not match stops ({len(stops)})")

    customers = inst.customers
    seen: dict[int, int] = {}
    for stop_sets in served:
        for order in stop_sets:
            if not order:
                violations.append("empty service set")
                continue
            if len(set(order)) != len(order):
                violations.append(f"repeated customer inside set {tuple(order)}")
            for c in order:
                seen[c] = seen.get(c, 0) + 1
            if any(c not in customers for c in order):
                continue  # no load to check; the unknown id is reported below
            for kind in inst.over_capacity(order):
                limit = f" {inst.capacity_count}" if kind == "package" else ""
                violations.append(f"set {tuple(order)} exceeds {kind} capacity{limit}")
    for c in customers:
        k = seen.get(c, 0)
        if k == 0:
            violations.append(f"customer {c} not served")
        elif k > 1:
            violations.append(f"customer {c} served {k} times")
    for c in seen:
        if c not in customers:
            violations.append(f"unknown customer id {c}")
    return violations


def evaluate_solution(inst: Instance, sol: Solution) -> Breakdown:
    """Recompute the completion-time breakdown of a candidate from scratch.

    Raises InfeasibleSolutionError listing every violation if the candidate
    misses or duplicates a customer, breaks a capacity, or repeats a stop.
    """
    return evaluate_route(inst, sol.stops, sol.served)


def evaluate_route(inst: Instance, stops, served) -> Breakdown:
    violations = structural_violations(inst, stops, served)
    if violations:
        raise InfeasibleSolutionError(violations)
    drive = 0.0
    prev = 0
    for s in stops:
        drive += inst.D(prev, s)
        prev = s
    drive += inst.D(prev, 0)
    park = float(sum(inst.park_time[s] for s in stops))
    walk = 0.0
    for s, stop_sets in zip(stops, served):
        for order in stop_sets:
            walk += inst.W(s, order[0])
            for a, b in zip(order, order[1:]):
                walk += inst.W(a, b)
            walk += inst.W(order[-1], s)
    load = inst.n * inst.load_per_package
    return Breakdown(park_min=park, drive_min=drive, walk_min=walk, load_min=load)


def assemble_solution(inst: Instance, stops, served) -> Solution:
    """Evaluate a structural candidate and wrap it as a Solution."""
    bd = evaluate_route(inst, stops, served)
    return Solution(
        stops=tuple(stops),
        served=tuple(tuple(tuple(o) for o in stop) for stop in served),
        breakdown=bd,
        total=bd.total,
    )


# ---------------------------------------------------------------------------
# MIP construction

@dataclass(frozen=True)
class ModelOptions:
    """Optional strengthening rows and the variable reduction.

    All of them preserve the optimal value and only tighten the formulation.
    ``vi_claim4`` and ``vi_corollary1`` serve a parked customer alone at its
    own spot.  That is free only when every customer location is a parking
    spot and the walk matrix satisfies the triangle inequality; elsewhere the
    rows can cut off the optimum, so ``build_model`` refuses them there.
    """

    vi_claim4: bool = False
    vi_corollary1: bool = False
    vi_claim5: bool = False
    vi_corollary3: bool = False
    var_reduction: bool = False


@dataclass(frozen=True)
class VarDef:
    name: str
    kind: str  # "B" binary, "I" general integer
    lb: float = 0.0
    ub: float | None = None


@dataclass(frozen=True)
class LinearRow:
    tag: str
    name: str
    terms: tuple[tuple[str, float], ...]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class MipModel:
    variables: tuple[VarDef, ...]
    objective: tuple[tuple[str, float], ...]
    constraints: tuple[LinearRow, ...]
    options: ModelOptions = ModelOptions()

    def count_vars(self, prefix: str) -> int:
        return sum(1 for v in self.variables if v.name.startswith(prefix))

    def rows_tagged(self, tag: str) -> list[LinearRow]:
        return [r for r in self.constraints if r.tag == tag or r.tag.startswith(tag + ".")]


MAX_BUILD_PAIRS = 250_000


def _yname(i: int, members) -> str:
    return f"y_{i}__" + "_".join(map(str, members))


def build_model(inst: Instance, cat: ServiceSetCatalog, options: ModelOptions | None = None) -> MipModel:
    """Materialize the completion-time MIP for the given catalog.

    The objective is sum(x * drive-and-park) + sum(y * (walk + load-per-set));
    solving with the load rate forced to zero and adding n*f afterwards yields
    the same argmin, which is how the exact solver handles loading.
    """
    options = options or ModelOptions()
    check_catalog(inst, cat)
    if options.var_reduction and not cat.reduced:
        cat = reduce_catalog(cat)
    all_customers = tuple(inst.customers)
    if options.vi_claim4 or options.vi_corollary1:
        if inst.spots != all_customers:
            raise UnsupportedError(
                "the self-singleton rows assume every customer location is a parking spot"
            )
        if validate_instance(inst).walk_triangle_violations:
            raise UnsupportedError(
                "the self-singleton rows assume a walk matrix that satisfies the triangle inequality"
            )

    spots = inst.spots
    pi = (0,) + spots
    n = inst.n
    f = inst.load_per_package

    admissible = [
        (i, j) for i in spots for j in range(len(cat.sets)) if cat.admissible(i, j)
    ]
    if len(admissible) > MAX_BUILD_PAIRS:
        raise ResourceLimitError(
            f"{len(admissible)} admissible pairs exceed the build cap {MAX_BUILD_PAIRS}; "
            "use variable accounting instead of a materialized model at this size"
        )

    walk = cat.walk_cost_table()
    col = {i: si for si, i in enumerate(spots)}
    variables: list[VarDef] = []
    objective: list[tuple[str, float]] = []
    for i in pi:
        for k in pi:
            if i != k:
                name = f"x_{i}_{k}"
                variables.append(VarDef(name, "B"))
                objective.append((name, inst.d(i, k)))
    for i, j in admissible:
        s = cat.sets[j]
        name = _yname(i, s.members)
        variables.append(VarDef(name, "B"))
        objective.append((name, float(walk[j, col[i]]) + f * s.size))
    for i in pi:
        for k in spots:
            if i != k:
                variables.append(VarDef(f"v_{i}_{k}", "I", lb=0.0, ub=float(n)))

    rows: list[LinearRow] = []

    rows.append(LinearRow(
        "eq2.depart", "eq2.depart",
        tuple((f"x_0_{k}", 1.0) for k in spots), "=", 1.0,
    ))
    rows.append(LinearRow(
        "eq3.return", "eq3.return",
        tuple((f"x_{i}_0", 1.0) for i in spots), "=", 1.0,
    ))
    for c in all_customers:
        terms = [
            (_yname(i, cat.sets[j].members), 1.0)
            for i in spots
            for j in cat.sets_containing(c)
            if cat.admissible(i, j)
        ]
        rows.append(LinearRow("eq4.cover", f"eq4.cover.{c}", tuple(terms), "=", 1.0))
    for i in spots:
        terms = [(f"x_{k}_{i}", 1.0) for k in pi if k != i]
        terms += [(f"x_{i}_{k}", -1.0) for k in pi if k != i]
        rows.append(LinearRow("eq5.balance", f"eq5.balance.{i}", tuple(terms), "=", 0.0))
    for i, j in admissible:
        terms = [(_yname(i, cat.sets[j].members), 1.0)]
        terms += [(f"x_{k}_{i}", -1.0) for k in pi if k != i]
        rows.append(LinearRow("eq6.link", f"eq6.link.{i}.{j}", tuple(terms), "<=", 0.0))
    rows.append(LinearRow(
        "eq7.flow.source", "eq7.flow.source",
        tuple((f"v_0_{k}", 1.0) for k in spots), "=", float(n),
    ))
    for i in pi:
        for k in spots:
            if i != k:
                rows.append(LinearRow(
                    "eq8.flow.ub", f"eq8.flow.ub.{i}.{k}",
                    ((f"v_{i}_{k}", 1.0), (f"x_{i}_{k}", -float(n))), "<=", 0.0,
                ))
    by_spot: dict[int, list[tuple[str, float]]] = {i: [] for i in spots}
    for i, j in admissible:
        by_spot[i].append((_yname(i, cat.sets[j].members), -float(cat.sets[j].size)))
    for i in spots:
        terms = [(f"v_{k}_{i}", 1.0) for k in pi if k != i]
        terms += [(f"v_{i}_{k}", -1.0) for k in spots if k != i]
        terms += by_spot[i]
        rows.append(LinearRow("eq9.flow.balance", f"eq9.flow.balance.{i}", tuple(terms), "=", 0.0))

    if options.vi_claim4 or options.vi_corollary1:
        singleton = {i: _yname(i, (i,)) for i in spots}
    if options.vi_claim4:
        for i in spots:
            terms = [(f"x_{k}_{i}", 1.0) for k in pi if k != i]
            terms.append((singleton[i], -1.0))
            rows.append(LinearRow("vi.claim4", f"vi.claim4.{i}", tuple(terms), "=", 0.0))
    if options.vi_corollary1:
        terms = [(f"x_{k}_{i}", 1.0) for i in spots for k in pi if k != i]
        terms += [(singleton[i], -1.0) for i in spots]
        rows.append(LinearRow("vi.corollary1", "vi.corollary1", tuple(terms), "=", 0.0))
    if options.vi_claim5:
        sets_at: dict[int, list[tuple[str, float]]] = {i: [] for i in spots}
        for i, j in admissible:
            sets_at[i].append((_yname(i, cat.sets[j].members), -1.0))
        for i in spots:
            for k in pi:
                if k != i:
                    rows.append(LinearRow(
                        "vi.claim5", f"vi.claim5.{i}.{k}",
                        tuple([(f"x_{k}_{i}", 1.0)] + sets_at[i]), "<=", 0.0,
                    ))
    if options.vi_corollary3:
        terms = [(f"x_{i}_{k}", 1.0) for i in pi for k in spots if k != i]
        terms += [(_yname(i, cat.sets[j].members), -1.0) for i, j in admissible]
        rows.append(LinearRow("vi.corollary3", "vi.corollary3", tuple(terms), "<=", 0.0))

    return MipModel(
        variables=tuple(variables),
        objective=tuple(objective),
        constraints=tuple(rows),
        options=options,
    )


# ---------------------------------------------------------------------------
# LP text (CPLEX-LP dialect)

def _fmt(x: float) -> str:
    return repr(float(x))


def _expr(terms) -> str:
    parts = []
    for idx, (name, coef) in enumerate(terms):
        if idx == 0:
            parts.append(f"{_fmt(coef)} {name}" if coef >= 0 else f"- {_fmt(-coef)} {name}")
        elif coef >= 0:
            parts.append(f"+ {_fmt(coef)} {name}")
        else:
            parts.append(f"- {_fmt(-coef)} {name}")
    return " ".join(parts)


def export_lp(model: MipModel) -> str:
    """Deterministic LP text for external solvers; our own parser reads it back."""
    lines = ["\\ parkroute model export", "Minimize", f" obj: {_expr(model.objective)}"]
    lines.append("Subject To")
    for row in model.constraints:
        lines.append(f" {row.name}: {_expr(row.terms)} {row.sense} {_fmt(row.rhs)}")
    bounded = [v for v in model.variables if v.kind == "I"]
    if bounded:
        lines.append("Bounds")
        for v in bounded:
            ub = "+inf" if v.ub is None else _fmt(v.ub)
            lines.append(f" {_fmt(v.lb)} <= {v.name} <= {ub}")
    binaries = [v.name for v in model.variables if v.kind == "B"]
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(binaries))
    generals = [v.name for v in model.variables if v.kind == "I"]
    if generals:
        lines.append("Generals")
        lines.append(" " + " ".join(generals))
    lines.append("End")
    return "\n".join(lines) + "\n"


_TERM_RE = re.compile(r"([+-])?\s*([0-9.eE+-]+)\s+([A-Za-z][\w.]*)")


def _parse_expr(text: str) -> tuple[tuple[str, float], ...]:
    terms = []
    for sign, coef, name in _TERM_RE.findall(text):
        value = float(coef)
        if sign == "-":
            value = -value
        terms.append((name, value))
    return tuple(terms)


def parse_lp(text: str) -> MipModel:
    """Parse the dialect emitted by export_lp back into a model skeleton."""
    section = None
    objective: tuple[tuple[str, float], ...] = ()
    rows: list[LinearRow] = []
    bounds: dict[str, tuple[float, float | None]] = {}
    binaries: list[str] = []
    generals: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        lowered = line.lower()
        if lowered in ("minimize", "subject to", "bounds", "binaries", "generals", "end"):
            section = lowered
            continue
        if section == "minimize":
            _, expr = line.split(":", 1)
            objective = _parse_expr(expr)
        elif section == "subject to":
            name, rest = line.split(":", 1)
            m = re.search(r"(<=|>=|=)\s*([^<>=]+)$", rest)
            sense, rhs = m.group(1), float(m.group(2))
            terms = _parse_expr(rest[: m.start()])
            rows.append(LinearRow(tag=name.strip(), name=name.strip(), terms=terms, sense=sense, rhs=rhs))
        elif section == "bounds":
            lb, _, name, _, ub = line.split()
            bounds[name] = (float(lb), None if ub == "+inf" else float(ub))
        elif section == "binaries":
            binaries.extend(line.split())
        elif section == "generals":
            generals.extend(line.split())
    variables = [VarDef(name, "B") for name in binaries]
    for name in generals:
        lb, ub = bounds.get(name, (0.0, None))
        variables.append(VarDef(name, "I", lb=lb, ub=ub))
    return MipModel(variables=tuple(variables), objective=objective, constraints=tuple(rows))
