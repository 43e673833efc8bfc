"""Two-echelon location-routing heuristic.

Stage 1 (PA-R) opens parking spots and assigns every customer to one, trading
the per-spot search time against one-way walking distances.  Up to
``PAR_EXACT_SPOTS`` = 13 spots it is exact: one numpy table prices every
opening at once.  With more spots an add/drop/swap local search from the
all-open set decides, flagged non-exact.  The vehicle is then routed over
the opened spots.  Stage 2 (SSA) optimally partitions each spot's customers
into walking sets with the shared subset-partition table.
The stages are independent subproblems, so the pipeline is fast and its
output is always feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InfeasibleInstanceError
from .instance import Instance
from .model import Solution, assemble_solution
from .servicesets import MAX_WALK_SET, PartitionTable, ServiceSetCatalog, walk_tour
from .tsp import solve_tsp

_EPS = 1e-9

PAR_EXACT_SPOTS = 13  # PA-R enumerates every opening up to this many spots


@dataclass
class ParkingAssignment:
    """Opened spots plus the customer-to-spot map; objective is
    sum(search time of opened spots) + sum(one-way walk to assigned spot)."""

    opened: tuple[int, ...]
    assign: dict[int, int]
    objective: float
    proof: bool


def _assignment_cost(W: np.ndarray, park: np.ndarray, open_mask: np.ndarray) -> float:
    if not open_mask.any():
        return float("inf")
    walk = W[open_mask].min(axis=0).sum()
    return float(park[open_mask].sum() + walk)


def _best_opening(W: np.ndarray, park: np.ndarray) -> np.ndarray:
    """The cheapest opening over all 2^m spot subsets, as a boolean mask.

    Row ``mask`` of the table holds every customer's cheapest walk to the
    spots in ``mask``; it is built by doubling on each spot's bit.  Among the
    openings within _EPS of the minimum, the fewest opened spots win, then the
    lexicographically smallest spot tuple.
    """
    m, n = W.shape
    walk = np.full((1, n), np.inf)
    cost = np.zeros(1)
    for t in range(m):
        walk = np.concatenate((walk, np.minimum(walk, W[t])))
        cost = np.concatenate((cost, cost + park[t]))
    cost += walk.sum(axis=1)
    ties = np.flatnonzero(cost <= cost.min() + _EPS)
    bits = [[t for t in range(m) if k >> t & 1] for k in ties.tolist()]
    best = min(bits, key=lambda b: (len(b), b))
    mask = np.zeros(m, dtype=bool)
    mask[best] = True
    return mask


def solve_par(inst: Instance) -> ParkingAssignment:
    """Open parking spots and assign every customer to one.

    Given the opened set, each customer independently takes its cheapest
    opened spot, so the search is over openings only.  Up to
    ``PAR_EXACT_SPOTS`` spots every opening is enumerated at once
    (``proof=True``); ties prefer fewer opened spots, then the
    lexicographically smallest spot set.  Above that limit an add/drop/swap
    local search from the all-open set decides (``proof=False``); it tries
    swaps only up to 60 spots.
    """
    spots = inst.spots
    m = len(spots)
    customers = list(inst.customers)
    W = inst.walk[np.ix_(spots, customers)]
    park = inst.park_time[list(spots)]

    def local_search(mask: np.ndarray) -> np.ndarray:
        best = _assignment_cost(W, park, mask)
        improved = True
        do_swaps = m <= 60
        while improved:
            improved = False
            for t in range(m):
                cand = mask.copy()
                cand[t] = not cand[t]
                c = _assignment_cost(W, park, cand)
                if c < best - _EPS:
                    mask, best = cand, c
                    improved = True
            if do_swaps and not improved:
                for t in range(m):
                    if not mask[t]:
                        continue
                    for u in range(m):
                        if mask[u]:
                            continue
                        cand = mask.copy()
                        cand[t], cand[u] = False, True
                        c = _assignment_cost(W, park, cand)
                        if c < best - _EPS:
                            mask, best = cand, c
                            improved = True
                            break
                    if improved:
                        break
        return mask

    proof = m <= PAR_EXACT_SPOTS
    best_mask = _best_opening(W, park) if proof else local_search(np.ones(m, dtype=bool))
    best_cost = _assignment_cost(W, park, best_mask)

    opened_ids = tuple(spots[t] for t in np.flatnonzero(best_mask))
    sub = W[best_mask]
    assign = {}
    for ci, c in enumerate(customers):
        col = sub[:, ci]
        assign[c] = opened_ids[int(np.flatnonzero(col <= col.min() + _EPS)[0])]
    return ParkingAssignment(opened=opened_ids, assign=assign, objective=best_cost, proof=proof)


def route_parking(inst: Instance, opened) -> tuple[list[int], float, bool]:
    """Vehicle tour over the opened spots w.r.t. driving times.

    Exact Held-Karp up to 13 spots, otherwise nearest-neighbor + 2-opt/Or-opt
    flagged non-exact.  Returns (ordered stops, drive minutes, exact flag).
    """
    opened = sorted(opened)
    if not opened:
        raise InfeasibleInstanceError("no opened parking spots to route")
    nodes = [0] + opened
    dist = inst.drive[np.ix_(nodes, nodes)]
    cost, order, exact = solve_tsp(dist)
    return [nodes[v] for v in order], float(cost), exact


def solve_ssa(
    inst: Instance,
    cat: ServiceSetCatalog | None,
    spot: int,
    customers,
) -> tuple[list[tuple[int, ...]], float, bool]:
    """Cheapest partition of ``customers`` into admissible walking sets from
    ``spot`` (exact up to 20 customers, read from a ``PartitionTable``; a
    flagged greedy split beyond).

    Returns (walking orders, walk minutes, exact flag).  A catalog, if given,
    only filters the candidate sets (membership and any reduction); without
    one, capacity limits are read from the instance.  ``walk_tour`` prices
    every candidate: a spot's few customers do not pay for a numpy table.
    """
    K = tuple(sorted(customers))
    k = len(K)
    if k == 0:
        return [], 0.0, True
    if k > 20:
        return _greedy_ssa(inst, spot, K)

    q = inst.capacity_count if inst.capacity_count is not None else k
    cands: list[tuple[int, ...]] = []
    tours: list[tuple[float, tuple[int, ...]]] = []
    for size in range(1, min(q, k) + 1):
        for members in combinations(K, size):
            if cat is None:
                if inst.over_capacity(members):
                    continue
            else:
                try:
                    j = cat.index_of(members)
                except KeyError:
                    continue
                if not cat.admissible(spot, j):
                    continue
            cands.append(members)
            tours.append(walk_tour(inst, spot, members))

    part = PartitionTable(K, cands, np.array([cost for cost, _ in tours], dtype=float)[:, None])
    full = (1 << k) - 1
    walk = float(part.value[full, 0])
    if not np.isfinite(walk):
        raise InfeasibleInstanceError(f"customers {K} cannot be partitioned into admissible sets")
    return [tours[c][1] for c in part.split(full, 0)], walk, True


def _greedy_ssa(inst: Instance, spot: int, K) -> tuple[list[tuple[int, ...]], float, bool]:
    """Chunk customers by walking distance from the spot; flagged non-exact."""
    q = inst.capacity_count if inst.capacity_count is not None else len(K)
    q = min(q, MAX_WALK_SET)
    remaining = sorted(K, key=lambda c: (inst.W(spot, c), c))
    orders = []
    walk = 0.0
    while remaining:
        chunk = []
        for c in list(remaining):
            if len(chunk) >= q:
                break
            if not inst.over_capacity(chunk + [c]):
                chunk.append(c)
                remaining.remove(c)
        cost, order = walk_tour(inst, spot, chunk)
        orders.append(order)
        walk += cost
    return orders, walk, False


@dataclass
class TwoEchelonResult:
    solution: Solution
    opened: tuple[int, ...]
    assignment_objective: float
    par_exact: bool
    routing_exact: bool
    ssa_exact: bool


def heuristic_solve_full(
    inst: Instance,
    cat: ServiceSetCatalog | None = None,
) -> TwoEchelonResult:
    """Run PA-R, route the opened spots, then split each spot's customers."""
    pa = solve_par(inst)
    stops, _, routing_exact = route_parking(inst, pa.opened)
    assigned: dict[int, list[int]] = {s: [] for s in stops}
    for c, s in pa.assign.items():
        assigned[s].append(c)
    served = []
    ssa_exact = True
    for s in stops:
        orders, _, exact = solve_ssa(inst, cat, s, assigned[s])
        ssa_exact = ssa_exact and exact
        served.append(tuple(orders))
    solution = assemble_solution(inst, stops, served)
    return TwoEchelonResult(
        solution=solution,
        opened=pa.opened,
        assignment_objective=pa.objective,
        par_exact=pa.proof,
        routing_exact=routing_exact,
        ssa_exact=ssa_exact,
    )


def heuristic_solve(inst: Instance, cat: ServiceSetCatalog | None = None) -> Solution:
    """Two-echelon pipeline returning a feasible Solution."""
    return heuristic_solve_full(inst, cat).solution
