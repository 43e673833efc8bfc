"""Two-echelon location-routing heuristic.

Stage 1 (PA-R) opens parking spots and assigns every customer to one, trading
the per-spot search time against one-way walking distances; the vehicle is
then routed over the opened spots.  Stage 2 (SSA) optimally partitions each
spot's customers into walking sets with the shared subset-partition table.
The stages are independent subproblems, so the pipeline is fast and its
output is always feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InfeasibleInstanceError, ResourceLimitError
from .instance import Instance
from .model import Solution, assemble_solution
from .servicesets import MAX_WALK_SET, PartitionTable, ServiceSetCatalog, walk_tour
from .tsp import solve_tsp

_EPS = 1e-9

PAR_MAX_NODES = 300_000  # PA-R branch-and-bound nodes before local search takes over


@dataclass
class ParkingAssignment:
    """Opened spots plus the customer-to-spot map; objective is
    sum(search time of opened spots) + sum(one-way walk to assigned spot)."""

    opened: tuple[int, ...]
    assign: dict[int, int]
    objective: float
    proof: bool = True


def _assignment_cost(W: np.ndarray, park: np.ndarray, spots, open_mask: np.ndarray) -> float:
    if not open_mask.any():
        return float("inf")
    walk = W[open_mask].min(axis=0).sum()
    return float(park[open_mask].sum() + walk)


def solve_par(inst: Instance) -> ParkingAssignment:
    """Exact opening/assignment via branch-and-bound over the spot subsets.

    Given the opened set, each customer independently takes its cheapest
    opened spot, so the search is over openings only.  Ties prefer fewer
    opened spots, then the lexicographically smallest spot set.  Falls back to
    add/drop/swap local search (``proof=False``) when the node cap is hit.
    """
    spots = inst.spots
    if not spots:
        raise InfeasibleInstanceError("no parking locations")
    m = len(spots)
    n = inst.n
    customers = list(inst.customers)
    W = inst.walk[np.ix_(spots, customers)]
    park = inst.park_time[list(spots)]

    def local_search(mask: np.ndarray) -> np.ndarray:
        best = _assignment_cost(W, park, spots, mask)
        improved = True
        do_swaps = m <= 60
        while improved:
            improved = False
            for t in range(m):
                cand = mask.copy()
                cand[t] = not cand[t]
                c = _assignment_cost(W, park, spots, cand)
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
                        c = _assignment_cost(W, park, spots, cand)
                        if c < best - _EPS:
                            mask, best = cand, c
                            improved = True
                            break
                    if improved:
                        break
        return mask

    start = local_search(np.ones(m, dtype=bool))
    best_cost = _assignment_cost(W, park, spots, start)
    best_mask = start
    best_key = (int(start.sum()), tuple(np.flatnonzero(start)))

    nodes = 0
    # exhaustive proof is a desk-scale promise; very large spot sets go
    # straight to local search
    exhausted = m <= 60
    allowed = np.ones(m, dtype=bool)  # open or undecided
    opened = np.zeros(m, dtype=bool)
    # Two complementary valid bounds, combined by max:
    #  - share: undecided spots may serve customers at walking cost plus a
    #    1/n share of their opening cost (strong when few spots open);
    #  - savings: start from the open-only cost and credit every undecided
    #    spot its net benefit, sum of walking discounts minus its opening
    #    cost, floored at zero (strong when many spots must open).
    w_shared = W + (park / n)[:, None]

    def node_state():
        """(lower bound, per-undecided-spot net savings or None)."""
        base = float(park[opened].sum())
        und = allowed & ~opened
        best = np.full(n, np.inf)
        if opened.any():
            best = W[opened].min(axis=0)
        share = base
        if und.any():
            share += float(np.minimum(best, w_shared[und].min(axis=0)).sum())
        else:
            share += float(best.sum())
        if not opened.any() or not und.any():
            return share, None
        discounts = np.clip(best[None, :] - W[und], 0.0, None).sum(axis=1)
        nets = np.clip(discounts - park[und], 0.0, None)
        open_cost = base + float(best.sum()) - float(nets.sum())
        return max(share, open_cost), nets

    def offer(cost: float, mask: np.ndarray):
        nonlocal best_cost, best_mask, best_key
        key = (int(mask.sum()), tuple(np.flatnonzero(mask)))
        if cost < best_cost - _EPS or (cost <= best_cost + _EPS and key < best_key):
            best_cost = min(best_cost, cost)
            best_mask = mask.copy()
            best_key = key

    def rec():
        nonlocal nodes, exhausted
        nodes += 1
        if nodes > PAR_MAX_NODES:
            exhausted = False
            return
        if not allowed.any():
            return
        lb, nets = node_state()
        if lb > best_cost + _EPS:
            return
        und_idx = np.flatnonzero(allowed & ~opened)
        if und_idx.size == 0:
            offer(_assignment_cost(W, park, spots, opened), opened)
            return
        # decide the most consequential spot next: the one whose opening
        # would save the most; both children then diverge quickly
        if nets is not None:
            t = int(und_idx[int(np.argmax(nets))])
        else:
            t = int(und_idx[int(np.argmin(w_shared[und_idx].sum(axis=1)))])
        for choice in (True, False):
            if choice:
                opened[t] = True
                rec()
                opened[t] = False
            else:
                allowed[t] = False
                if allowed.any():
                    rec()
                allowed[t] = True
            if not exhausted:
                return

    if m <= 60:
        rec()
    if not exhausted:
        best_mask = local_search(best_mask)
        best_cost = _assignment_cost(W, park, spots, best_mask)

    opened_ids = tuple(spots[t] for t in np.flatnonzero(best_mask))
    sub = W[best_mask]
    assign = {}
    for ci, c in enumerate(customers):
        col = sub[:, ci]
        assign[c] = opened_ids[int(np.flatnonzero(col <= col.min() + _EPS)[0])]
    return ParkingAssignment(
        opened=opened_ids, assign=assign, objective=best_cost, proof=exhausted
    )


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
    allow_greedy: bool = False,
) -> tuple[list[tuple[int, ...]], float, bool]:
    """Cheapest partition of ``customers`` into admissible walking sets from
    ``spot`` (exact up to 20 customers, read from a ``PartitionTable``).

    Returns (walking orders, walk minutes, exact flag).  With a catalog, set
    admissibility follows the catalog (including any reduction); without one,
    capacity limits are read from the instance.
    """
    K = tuple(sorted(customers))
    k = len(K)
    if k == 0:
        return [], 0.0, True
    if k > 20:
        if not allow_greedy:
            raise ResourceLimitError(
                f"set partition over {k} customers exceeds the exact limit 20; "
                "pass allow_greedy=True for a flagged fallback"
            )
        return _greedy_ssa(inst, spot, K)

    q = inst.capacity_count if inst.capacity_count is not None else k
    cands: list[tuple[int, ...]] = []
    tours: list[tuple[float, tuple[int, ...]]] = []
    for size in range(1, min(q, k) + 1):
        for members in combinations(K, size):
            if cat is None:
                if inst.over_capacity(members):
                    continue
                tours.append(walk_tour(inst, spot, members))
            else:
                try:
                    j = cat.index_of(members)
                except KeyError:
                    continue
                if not cat.admissible(spot, j):
                    continue
                tours.append(cat.walk_entry(spot, j))
            cands.append(members)

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
        orders, _, exact = solve_ssa(inst, cat, s, assigned[s], allow_greedy=True)
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
