"""Benchmark models: no-parking-time, Modified TSP (route-first
cluster-second on a fixed service order), and the relaxed weighted
drive/walk objective.

Every benchmark returns a feasible solution re-costed under the true
completion-time objective, so each one is an upper bound on the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParkrouteError
from .instance import Instance
from .model import Solution, assemble_solution
from .servicesets import enumerate_catalog
from .tsp import solve_tsp

DESK_EXACT_N = 10


@dataclass
class BenchmarkResult:
    name: str
    solution: Solution
    model_objective: float
    completion: float
    stops: int
    solver: str
    exact: bool
    degenerate: bool = False


def _solve_variant(variant: Instance, budget, exact_n_max: int):
    """Inner solve on a modified instance: exact oracle at desk scale,
    the two-echelon heuristic beyond."""
    if variant.n <= exact_n_max:
        from .exact import solve_exact

        cat = enumerate_catalog(variant)
        res = solve_exact(variant, cat, budget=budget)
        if res.solution is None:
            raise ParkrouteError("benchmark inner solve returned no incumbent")
        return res.solution, "exact", res.status == "optimal"
    from .heuristic import heuristic_solve_full

    out = heuristic_solve_full(variant)
    return out.solution, "heuristic", False


def no_parking_benchmark(
    inst: Instance,
    budget=None,
    exact_n_max: int = DESK_EXACT_N,
) -> BenchmarkResult:
    """Solve with all search times forced to zero, then re-cost the resulting
    structure with the true parking times (completion = v + sum of p over the
    stops actually used)."""
    n = inst.n
    variant = replace(inst, park_time=np.zeros(n + 1))
    sol0, solver, exact = _solve_variant(variant, budget, exact_n_max)
    recosted = assemble_solution(inst, sol0.stops, sol0.served)
    return BenchmarkResult(
        name="no-parking-time",
        solution=recosted,
        model_objective=sol0.total,
        completion=recosted.total,
        stops=recosted.num_stops,
        solver=solver,
        exact=exact,
    )


def relaxed_ms(
    inst: Instance,
    alpha: float = 0.6,
    budget=None,
    exact_n_max: int = DESK_EXACT_N,
) -> BenchmarkResult:
    """Optimize alpha*drive + (1-alpha)*walk (parking search time absent from
    the objective, loading constant added), multiple sets per spot allowed;
    completion is recomputed with the true parking times."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    n = inst.n
    variant = replace(
        inst,
        drive=inst.drive * alpha,
        walk=inst.walk * (1.0 - alpha),
        park_time=np.zeros(n + 1),
        load_per_package=0.0,
    )
    sol0, solver, exact = _solve_variant(variant, budget, exact_n_max)
    recosted = assemble_solution(inst, sol0.stops, sol0.served)
    bd = recosted.breakdown
    objective = alpha * bd.drive_min + (1.0 - alpha) * bd.walk_min + bd.load_min
    return BenchmarkResult(
        name=f"relaxed-ms:{alpha:g}",
        solution=recosted,
        model_objective=objective,
        completion=recosted.total,
        stops=recosted.num_stops,
        solver=solver,
        exact=exact,
        degenerate=alpha in (0.0, 1.0),
    )


def modified_tsp(inst: Instance) -> BenchmarkResult:
    """Fix the service order by a driving-time TSP, then choose parking events
    and contiguous service sets along that order by dynamic programming.

    A stop's block may hold several consecutive sets; its parking spot is the
    cheapest customer location inside the block.  Walking follows the fixed
    order within each set.
    """
    n = inst.n
    nodes = list(range(n + 1))
    cost_tsp, order_idx, tsp_exact = solve_tsp(inst.drive[np.ix_(nodes, nodes)])
    order = [nodes[v] for v in order_idx]  # customer ids, fixed service order

    D = inst.drive
    W = inst.walk
    P = inst.park_time
    q = inst.capacity_count if inst.capacity_count is not None else n
    spots = set(inst.spots)

    # prefix sums along the order for chain walks and capacity checks; seg_ok
    # stays separate from Instance.over_capacity because it is O(1) per segment
    # in the innermost loop
    chain = np.zeros(n + 1)
    for t in range(2, n + 1):
        chain[t] = chain[t - 1] + W[order[t - 2], order[t - 1]]
    wsum = np.zeros(n + 1)
    vsum = np.zeros(n + 1)
    if inst.weights is not None:
        for t in range(1, n + 1):
            wsum[t] = wsum[t - 1] + inst.weights[order[t - 1]]
    if inst.volumes is not None:
        for t in range(1, n + 1):
            vsum[t] = vsum[t - 1] + inst.volumes[order[t - 1]]

    def seg_ok(s: int, t: int) -> bool:
        if t - s + 1 > q:
            return False
        if inst.capacity_weight is not None and wsum[t] - wsum[s - 1] > inst.capacity_weight + 1e-9:
            return False
        if inst.capacity_volume is not None and vsum[t] - vsum[s - 1] > inst.capacity_volume + 1e-9:
            return False
        return True

    def wseg(i: int, s: int, t: int) -> float:
        return W[i, order[s - 1]] + (chain[t] - chain[s]) + W[order[t - 1], i]

    def block_cost(a: int, b: int, i: int):
        """Optimal split of positions a..b into order-respecting sets walked
        from spot i; returns (cost, segment cut list)."""
        g = np.full(b - a + 2, np.inf)
        cut = [0] * (b - a + 2)
        g[0] = 0.0
        for t in range(a, b + 1):
            for s in range(a, t + 1):
                if not seg_ok(s, t):
                    continue
                v = g[s - a] + wseg(i, s, t)
                if v < g[t - a + 1] - 1e-12:
                    g[t - a + 1] = v
                    cut[t - a + 1] = s
        return g[b - a + 1], cut

    INF = float("inf")
    F = np.full((n + 1, n + 1), INF)  # F[t][i]: served first t, last spot i
    F[0][0] = 0.0
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    for b in range(1, n + 1):
        for a in range(1, b + 1):
            block = order[a - 1 : b]
            bspots = [c for c in block if c in spots]
            if not bspots:
                continue
            g_prev = F[a - 1]
            for i in bspots:
                bc, _ = block_cost(a, b, i)
                arrive = min(
                    (g_prev[j] + D[j, i], j)
                    for j in range(n + 1)
                    if np.isfinite(g_prev[j])
                )
                total = arrive[0] + P[i] + bc
                if total < F[b][i] - 1e-12:
                    F[b][i] = total
                    parent[(b, i)] = (a, arrive[1])
    finish = min((F[n][i] + D[i, 0], i) for i in range(1, n + 1) if np.isfinite(F[n][i]))
    objective = finish[0] + n * inst.load_per_package

    # reconstruct blocks back to front
    blocks = []
    b, i = n, finish[1]
    while b > 0:
        a, j = parent[(b, i)]
        blocks.append((a, b, i))
        b, i = a - 1, j
    blocks.reverse()

    stops = []
    served = []
    for a, b, i in blocks:
        stops.append(i)
        _, cut = block_cost(a, b, i)
        segs = []
        t = b
        while t >= a:
            s = cut[t - a + 1]
            segs.append(tuple(order[s - 1 : t]))
            t = s - 1
        segs.reverse()
        served.append(tuple(segs))
    solution = assemble_solution(inst, stops, served)
    return BenchmarkResult(
        name="modified-tsp",
        solution=solution,
        model_objective=objective,
        completion=solution.total,
        stops=solution.num_stops,
        solver="dp",
        exact=tsp_exact,
    )


def run_benchmarks(
    inst: Instance,
    models,
    budget=None,
    exact_n_max: int = DESK_EXACT_N,
) -> list[BenchmarkResult]:
    """Run benchmarks named 'npt', 'mtsp', or 'ms:<alpha>'."""
    results = []
    for spec_name in models:
        if spec_name == "npt":
            results.append(no_parking_benchmark(inst, budget, exact_n_max))
        elif spec_name == "mtsp":
            results.append(modified_tsp(inst))
        elif spec_name.startswith("ms:"):
            alpha = float(spec_name.split(":", 1)[1])
            results.append(relaxed_ms(inst, alpha, budget, exact_n_max))
        else:
            raise ValueError(f"unknown benchmark model {spec_name!r}")
    return results
