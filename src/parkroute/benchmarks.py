"""Benchmark models: no-parking-time, Modified TSP (route-first
cluster-second on a fixed service order), and the relaxed weighted
drive/walk objective.

No-parking-time is the relaxed model at weights (1, 1): both minimize
``drive_w * drive + walk_w * walk`` with the search times dropped, on one
park-free variant of the instance.

Modified TSP splits its order by one forward DP over the service positions:
after t customers, each spot holds the cheapest closed route and the
cheapest open block parked there, and each set ending at t extends the open
block or opens a new one.  Ties keep the earlier choice: a candidate
replaces another only when cheaper by more than 1e-12.

Every benchmark returns a feasible solution re-costed under the true
completion-time objective, so each one is an upper bound on the optimum; a
result's completion and stop count are read from that solution.  The
park-free variants are solved exactly, by ``exact.solve_exact``, up to
``exact.DP_MAX_CUSTOMERS`` customers, and by the two-echelon heuristic
above that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParkrouteError, UnsupportedError
from .instance import Instance
from .model import Solution, assemble_solution
from .servicesets import enumerate_catalog
from .tsp import solve_tsp

@dataclass
class BenchmarkResult:
    name: str
    solution: Solution
    model_objective: float
    solver: str
    exact: bool

    @property
    def completion(self) -> float:
        return self.solution.total

    @property
    def stops(self) -> int:
        return self.solution.num_stops


def _solve_variant(variant: Instance):
    """Inner solve on a modified instance: ``solve_exact`` up to the exact
    limit ``DP_MAX_CUSTOMERS``, the two-echelon heuristic beyond.  The DP
    proves a metric variant, and mostly a non-metric one too, through the
    closure of its drive matrix; otherwise the branch-and-bound starts from
    the DP's solution, and an incumbent it cannot prove within
    ``exact.SEARCH_LIMIT`` is flagged not exact."""
    from .exact import DP_MAX_CUSTOMERS, solve_exact

    if variant.n <= DP_MAX_CUSTOMERS:
        cat = enumerate_catalog(variant)
        res = solve_exact(variant, cat)
        if res.solution is None:
            raise ParkrouteError("benchmark inner solve returned no incumbent")
        return res.solution, "exact", res.status == "optimal"
    from .heuristic import heuristic_solve_full

    out = heuristic_solve_full(variant)
    return out.solution, "heuristic", False


def _park_free(inst: Instance, name: str, drive_w: float, walk_w: float) -> BenchmarkResult:
    """Minimize drive_w * drive + walk_w * walk with the search times set to
    zero (loading, a constant, left out of the variant), then re-cost the
    route on ``inst``.  The model objective is the weighted sum plus loading,
    read from the re-costed breakdown."""
    variant = replace(inst, drive=inst.drive * drive_w, walk=inst.walk * walk_w,
                      park_time=np.zeros(inst.n + 1), load_per_package=0.0)
    sol0, solver, exact = _solve_variant(variant)
    solution = assemble_solution(inst, sol0.stops, sol0.served)
    bd = solution.breakdown
    objective = drive_w * bd.drive_min + walk_w * bd.walk_min + bd.load_min
    return BenchmarkResult(name, solution, objective, solver, exact)


def no_parking_benchmark(inst: Instance) -> BenchmarkResult:
    """Drive + walk with all search times forced to zero; the completion adds
    the true search times of the stops actually used."""
    return _park_free(inst, "no-parking-time", 1.0, 1.0)


def relaxed_ms(inst: Instance, alpha: float = 0.6) -> BenchmarkResult:
    """alpha * drive + (1 - alpha) * walk with the search times dropped,
    multiple sets per spot allowed; the completion uses the true search
    times."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return _park_free(inst, f"relaxed-ms:{alpha:g}", alpha, 1.0 - alpha)


def modified_tsp(inst: Instance) -> BenchmarkResult:
    """Fix the service order by a driving-time TSP, then choose parking events
    and contiguous service sets along that order by dynamic programming.

    A stop's block may hold several consecutive sets; its parking spot is a
    customer location inside the block.  Walking follows the fixed order
    within each set.

    The DP is the route-first/cluster-second split of Beasley (1983) and
    Prins (2004), run forward over the service positions t = 1..n, with one
    numpy step over the spots per set ending at t.  ``close[t, j]``: the
    first t customers served, the last block closed at spot column j (column
    0 is the depot).  A block at k opens at t if k is served at t or later,
    for ``op = min_j close[t - 1, j] + D[j, k] + park[k]`` (first j on
    ties), and carries its pair (op, g), g its walks so far.  A set s..t
    extends the pair before s: the open block's, or a new block's (op, 0.0)
    where that is cheaper by more than 1e-12.  Of the sets ending at t, in
    increasing s, a later one wins only when cheaper by more than 1e-12.
    Each total is the float sum op + g; the block closes at k from k's
    position on.  O(n (m^2 + q m)) work for m spots.
    """
    n = inst.n
    _, order, tsp_exact = solve_tsp(inst.drive)  # customer ids, fixed service order
    D, W = inst.drive, inst.walk
    pos = {c: t for t, c in enumerate(order, 1)}
    sp = np.array(sorted(inst.spots))  # spot columns 1..m, by id
    spos = np.array([pos[i] for i in sp])  # their service positions
    m = len(sp)

    # prefix sums along the order for chain walks
    chain = np.zeros(n + 1)
    for t in range(2, n + 1):
        chain[t] = chain[t - 1] + W[order[t - 2], order[t - 1]]

    out = W[np.ix_(sp, order)].T  # out[s - 1, k]: spot k to the s-th customer
    back = W[np.ix_(order, sp)]  # back[t - 1, k]: the t-th customer to spot k
    into = D[np.ix_(np.r_[0, sp], sp)]  # into[j, k]: column j to spot k
    # park[t, k]: spot k's search time where a block may open at t, else inf;
    # shut[t, k]: 0 where a block at k may close at t, else inf
    steps = np.arange(n + 1)[:, None]
    park = np.where(spos >= steps, inst.park_time[sp], np.inf)
    shut = np.where(spos <= steps, 0.0, np.inf)
    close = np.full((n + 1, m + 1), np.inf)
    close[0, 0] = 0.0
    # row p: at each spot, the pair that serves position p + 1, whether its
    # block opens there, and the column the block came from
    pair_op, pair_g = np.empty((n, m)), np.empty((n, m))
    opened = np.zeros((n, m), dtype=bool)
    prev = np.zeros((n, m), dtype=int)
    cut = np.zeros((n + 1, m), dtype=int)  # first position of the last set
    op = g = total = np.full(m, np.inf)  # the open block after t - 1 customers
    cols = np.arange(m)
    for t in range(1, n + 1):
        arrive = close[t - 1][:, None] + into
        j = arrive.argmin(axis=0)  # first column on ties
        new = arrive[j, cols] + park[t]
        fresh = new < total - 1e-12
        pair_op[t - 1] = np.where(fresh, new, op)
        pair_g[t - 1] = np.where(fresh, 0.0, g)
        opened[t - 1], prev[t - 1] = fresh, j
        first = t  # sets s..t fit for s >= first: a set inside one that fits fits too
        while first > 1 and not inst.over_capacity(order[first - 2 : t]):
            first -= 1
        walks = out[first - 1 : t] + (chain[t] - chain[first : t + 1])[:, None] + back[t - 1]
        gs = pair_g[first - 1 : t] + walks
        totals = pair_op[first - 1 : t] + gs
        best = np.zeros(m, dtype=int)
        total = totals[0]
        for r in range(1, t + 1 - first):
            better = totals[r] < total - 1e-12
            best[better] = r
            total = np.where(better, totals[r], total)
        op, g = pair_op[first - 1 + best, cols], gs[best, cols]
        cut[t] = first + best
        close[t, 1:] = total + shut[t]
    finish = close[n, 1:] + D[sp, 0]
    k = int(finish.argmin())
    objective = finish[k] + n * inst.load_per_package

    # decode blocks back to front
    stops, served = [], []
    t = n
    while t > 0:
        sets = []
        while not sets or not opened[t, k]:
            s = int(cut[t, k])
            sets.append(tuple(order[s - 1 : t]))
            t = s - 1
        stops.append(int(sp[k]))
        served.append(tuple(reversed(sets)))
        k = int(prev[t, k]) - 1
    stops.reverse()
    served.reverse()
    return BenchmarkResult("modified-tsp", assemble_solution(inst, stops, served), objective, "dp", tsp_exact)


def run_benchmarks(inst: Instance, models) -> list[BenchmarkResult]:
    """Run benchmarks named 'npt', 'mtsp', or 'ms:<alpha>'; every name is
    checked by ``parse_models`` before the first model runs."""
    results = []
    for name, alpha in parse_models(models):
        if name == "npt":
            results.append(no_parking_benchmark(inst))
        elif name == "mtsp":
            results.append(modified_tsp(inst))
        else:
            results.append(relaxed_ms(inst, alpha))
    return results


def parse_models(models) -> list[tuple[str, float | None]]:
    """(name, alpha) per benchmark model name: 'npt' and 'mtsp' take no
    alpha, 'ms:<alpha>' needs a number in [0, 1].  Raises UnsupportedError on
    any other name, or when ``models`` names none."""
    if not models:
        raise UnsupportedError("no benchmark model named; use npt, mtsp or ms:<alpha> with alpha in [0, 1]")
    parsed: list[tuple[str, float | None]] = []
    for spec in models:
        if spec in ("npt", "mtsp"):
            parsed.append((spec, None))
            continue
        kind, _, text = spec.partition(":")
        try:
            alpha = float(text)
        except ValueError:
            alpha = math.nan
        if kind != "ms" or not 0.0 <= alpha <= 1.0:
            raise UnsupportedError(
                f"unknown benchmark model {spec!r}; use npt, mtsp or ms:<alpha> with alpha in [0, 1]"
            )
        parsed.append(("ms", alpha))
    return parsed
