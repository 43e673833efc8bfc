"""Benchmark models: no-parking-time, Modified TSP (route-first
cluster-second on a fixed service order), and the relaxed weighted
drive/walk objective.

Every benchmark returns a feasible solution re-costed under the true
completion-time objective, so each one is an upper bound on the optimum.
The no-parking and relaxed benchmarks solve a modified instance: exactly, by
``exact.solve_exact``, up to ``exact.DP_MAX_CUSTOMERS`` customers, and by the
two-echelon heuristic above that.
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

# floats in one block of modified TSP's split table: n = 50 takes two blocks.
# Blocks four times larger save under a millisecond there and raise the
# process's peak resident memory by about 1 MB.
SPLIT_CELLS = 1 << 16


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


def no_parking_benchmark(inst: Instance) -> BenchmarkResult:
    """Solve with all search times forced to zero, then re-cost the resulting
    structure with the true parking times (completion = v + sum of p over the
    stops actually used)."""
    n = inst.n
    variant = replace(inst, park_time=np.zeros(n + 1))
    sol0, solver, exact = _solve_variant(variant)
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


def relaxed_ms(inst: Instance, alpha: float = 0.6) -> BenchmarkResult:
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
    sol0, solver, exact = _solve_variant(variant)
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


def _split_block(segs, lo: int, hi: int, cols: slice, end: int, with_cut: bool = False):
    """Optimal splits of positions a..t into order-respecting sets walked
    from each spot in ``cols``, for every block start lo <= a <= hi and every
    a <= t <= end, filled together.

    ``g[a - lo, t + 1 - lo]`` holds the split of a..t (``g[a - lo, a - lo]``
    = 0 is the empty one).  Each t tries the sets of ``segs[t]`` in
    increasing s, and one numpy step updates every start a <= s, so each
    start sees the additions a one-start fill makes, in its order.  With
    ``with_cut``, ``cut`` holds the first position of the split's last set.
    """
    starts = hi - lo + 1
    g = np.full((starts, end + 2 - lo, cols.stop - cols.start), np.inf)
    g[np.arange(starts), np.arange(starts)] = 0.0
    cut = np.zeros(g.shape, dtype=int) if with_cut else None
    for t in range(lo, end + 1):
        row = g[:, t + 1 - lo]
        for s, w in segs[t]:
            if s < lo:
                continue
            k = min(s, hi) - lo + 1  # starts a <= s
            v = g[:k, s - lo] + w[cols]
            better = v < row[:k] - 1e-12
            np.copyto(row[:k], v, where=better)
            if with_cut:
                np.copyto(cut[:k, t + 1 - lo], s, where=better)
    return g, cut


def modified_tsp(inst: Instance) -> BenchmarkResult:
    """Fix the service order by a driving-time TSP, then choose parking events
    and contiguous service sets along that order by dynamic programming.

    A stop's block may hold several consecutive sets; its parking spot is the
    cheapest customer location inside the block.  Walking follows the fixed
    order within each set.

    The DP is the route-first/cluster-second split of Beasley (1983) and
    Prins (2004).  Block starts a run in increasing order, so the best prefix
    ending at a - 1 is final when a is reached.  The order-respecting split
    from a to n, vectorised over the spots at or after a, then prices the
    block a..b for every end b at once.  As in Vidal (2016), the split is
    shared across block starts: ``_split_block`` fills it for a run of starts
    at once, as many as keep its table within ``SPLIT_CELLS`` floats, so the
    O(n^2 q) cells take O(n q) numpy steps per run.  The decode re-runs a
    one-start split for each chosen block.
    """
    n = inst.n
    _, order, tsp_exact = solve_tsp(inst.drive)  # customer ids, fixed service order
    D = inst.drive
    W = inst.walk
    q = inst.capacity_count if inst.capacity_count is not None else n
    pos = {c: t for t, c in enumerate(order, 1)}
    sp = np.array(sorted(inst.spots, key=pos.get))  # spots in service order
    spos = np.array([pos[i] for i in sp])

    # prefix sums along the order for chain walks
    chain = np.zeros(n + 1)
    for t in range(2, n + 1):
        chain[t] = chain[t - 1] + W[order[t - 2], order[t - 1]]

    # segs[t]: (s, walk of positions s..t from every spot) for each set that
    # may end at t, s increasing; longer than q never fits
    out = W[np.ix_(sp, order)].T  # out[s - 1, k]: spot k to the s-th customer
    back = W[np.ix_(order, sp)]  # back[t - 1, k]: the t-th customer to spot k
    segs = [
        [(s, out[s - 1] + (chain[t] - chain[s]) + back[t - 1])
         for s in range(max(1, t - q + 1), t + 1) if not inst.over_capacity(order[s - 1:t])]
        for t in range(n + 1)
    ]

    F = np.full((n + 1, n + 1), np.inf)  # F[t, i]: served first t, last spot i
    F[0, 0] = 0.0
    start = np.zeros((n + 1, n + 1), dtype=int)  # block start of the best F[t, i]
    prev = np.zeros((n + 1, n + 1), dtype=int)  # and the spot before it
    lo, last = 1, int(spos[-1])  # no block starts after the last spot
    while lo <= last:
        k_lo = int(np.searchsorted(spos, lo))
        per_start = (n + 2 - lo) * (len(sp) - k_lo)
        hi = min(last, lo + max(1, SPLIT_CELLS // per_start) - 1)
        g, _ = _split_block(segs, lo, hi, slice(k_lo, len(sp)), n)
        for a in range(lo, hi + 1):
            if not np.isfinite(F[a - 1]).any():
                continue  # no feasible prefix ends at a - 1
            k0 = int(np.searchsorted(spos, a))
            ids = sp[k0:]
            arrive = F[a - 1][:, None] + D[:, ids]
            j = arrive.argmin(axis=0)  # first index on ties
            total = (arrive[j, np.arange(len(ids))] + inst.park_time[ids]) + g[a - lo, a + 1 - lo :, k0 - k_lo :]
            cur = F[a:, ids]
            better = (np.arange(a, n + 1)[:, None] >= spos[k0:]) & (total < cur - 1e-12)
            F[a:, ids] = np.where(better, total, cur)
            start[a:, ids] = np.where(better, a, start[a:, ids])
            prev[a:, ids] = np.where(better, j, prev[a:, ids])
        lo = hi + 1
    finish = F[n, 1:] + D[1:, 0]
    i = int(finish.argmin()) + 1
    objective = finish[i - 1] + n * inst.load_per_package

    # decode blocks back to front
    stops, served = [], []
    b = n
    while b > 0:
        a, k = int(start[b, i]), int(np.searchsorted(spos, pos[i]))
        cut = _split_block(segs, a, a, slice(k, k + 1), b, with_cut=True)[1][0, :, 0]
        sets = []
        t = b
        while t >= a:
            s = int(cut[t - a + 1])
            sets.append(tuple(order[s - 1 : t]))
            t = s - 1
        stops.append(i)
        served.append(tuple(reversed(sets)))
        b, i = a - 1, int(prev[b, i])
    stops.reverse()
    served.reverse()
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
