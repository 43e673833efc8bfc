"""Two-echelon location-routing heuristic.

Stage 1 (PA-R) opens parking spots and assigns every customer to one, trading
the per-spot search time against one-way walking distances.  Up to
``PAR_EXACT_SPOTS`` = 13 spots it is exact: one numpy table prices every
opening at once.  With more spots an add/drop/swap local search from the
all-open set decides, flagged non-exact.  One cost rule sums m search times
and n walks per opening, so a numpy step prices a whole neighbourhood as row
sums, bit for bit the per-candidate costs.  The vehicle is then routed over
the opened spots.  Stage 2 (SSA) optimally partitions each spot's customers
into walking sets with the shared subset-partition table.  The stages are
independent subproblems, so the pipeline is fast and its output is always
feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleInstanceError
from .instance import Instance
from .model import Solution, assemble_solution
from .servicesets import MAX_WALK_SET, PartitionTable, ServiceSetCatalog, _fitting_sets, check_catalog, walk_tour
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
    """Search time of the opened spots plus each customer's cheapest walk to
    one, as sums of m park entries (0.0 where closed) and n walks: a row sum
    over a table of candidates is each candidate's own cost, bit for bit."""
    if not open_mask.any():
        return float("inf")
    return float(np.where(open_mask, park, 0.0).sum() + W[open_mask].min(axis=0).sum())


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


def _nearest(W: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per customer: the cheapest walk to an opened spot, the first spot that
    attains it, and the cheapest walk once that spot closes (inf when it is
    the only one)."""
    opened = np.flatnonzero(mask)
    walk = W[opened]
    first, b1 = walk.argmin(axis=0), walk.min(axis=0)
    walk[first, np.arange(W.shape[1])] = np.inf
    return b1, opened[first], walk.min(axis=0)


def _flip_costs(W: np.ndarray, park: np.ndarray, mask: np.ndarray, start: int) -> np.ndarray:
    """``_assignment_cost`` of ``mask`` with spot t flipped, for every
    t >= start, in one numpy step.  Dropping t walks the second-cheapest
    opened spot where t was the cheapest; adding t walks the cheaper of the
    two.  An open t's walk row ``min(b1, W[t])`` is b1, as t is opened."""
    b1, first, b2 = _nearest(W, mask)
    t = np.arange(start, len(mask))
    parks = np.tile(np.where(mask, park, 0.0), (len(t), 1))
    parks[np.arange(len(t)), t] = np.where(mask[t], 0.0, park[t])
    walks = np.minimum(b1, W[start:])
    hit = np.flatnonzero(first >= start)
    walks[first[hit] - start, hit] = b2[hit]
    return parks.sum(axis=1) + walks.sum(axis=1)


def _first_swap(W: np.ndarray, park: np.ndarray, mask: np.ndarray, best: float):
    """The first (open t, closed u) swap in row-major order whose
    ``_assignment_cost`` is below ``best - _EPS``, as (t, u, cost), or None.
    Each step prices one open t against every closed u."""
    closed = np.flatnonzero(~mask)
    if not len(closed):
        return None
    b1, first, b2 = _nearest(W, mask)
    parks = np.tile(np.where(mask, park, 0.0), (len(closed), 1))
    parks[np.arange(len(closed)), closed] = park[closed]
    adds = W[closed]
    for t in np.flatnonzero(mask).tolist():
        row = parks.copy()
        row[:, t] = 0.0
        cost = row.sum(axis=1) + np.minimum(np.where(first == t, b2, b1), adds).sum(axis=1)
        hit = np.flatnonzero(cost < best - _EPS)
        if len(hit):
            return t, int(closed[hit[0]]), float(cost[hit[0]])
    return None


def local_search(W: np.ndarray, park: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """First-improvement add/drop/swap search over openings, from ``mask``.

    A pass scans the spots in ascending order and flips the first one whose
    flip improves by more than _EPS, then goes on from the next spot under
    the new opening.  Passes repeat while one improves; when a pass does not,
    the first improving (open, closed) swap in row-major order is taken, up
    to 60 spots.  The moves and costs are those of a loop that calls
    ``_assignment_cost`` once per candidate.
    """
    m, mask = len(mask), mask.copy()
    best = _assignment_cost(W, park, mask)
    improved = True
    while improved:
        improved = False
        t = 0
        while t < m:
            cost = _flip_costs(W, park, mask, t)
            hit = np.flatnonzero(cost < best - _EPS)
            if not len(hit):
                break
            t, best = t + int(hit[0]), float(cost[hit[0]])
            mask[t] = not mask[t]
            improved = True
            t += 1
        swap = _first_swap(W, park, mask, best) if m <= 60 and not improved else None
        if swap is not None:
            t, u, best = swap
            mask[t], mask[u], improved = False, True, True
    return mask


def solve_par(inst: Instance) -> ParkingAssignment:
    """Open parking spots and assign every customer to one.

    Given the opened set, each customer independently takes its cheapest
    opened spot, so the search is over openings only.  Up to
    ``PAR_EXACT_SPOTS`` spots every opening is enumerated at once
    (``proof=True``); ties prefer fewer opened spots, then the
    lexicographically smallest spot set.  Above that limit ``local_search``
    decides from the all-open set (``proof=False``); it tries swaps only up
    to 60 spots.  A customer's spot is the first opened one within _EPS of
    its cheapest walk.
    """
    spots = inst.spots
    m = len(spots)
    customers = list(inst.customers)
    W = inst.walk[np.ix_(spots, customers)]
    park = inst.park_time[list(spots)]

    proof = m <= PAR_EXACT_SPOTS
    best_mask = _best_opening(W, park) if proof else local_search(W, park, np.ones(m, dtype=bool))
    best_cost = _assignment_cost(W, park, best_mask)

    opened_ids = tuple(spots[t] for t in np.flatnonzero(best_mask))
    sub = W[best_mask]
    first = (sub <= sub.min(axis=0) + _EPS).argmax(axis=0)
    assign = {c: opened_ids[r] for c, r in zip(customers, first.tolist())}
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
    flagged greedy split beyond, and where a candidate set holds more than
    ``MAX_WALK_SET`` customers).

    Returns (walking orders, walk minutes, exact flag).  A catalog, if given,
    only filters the candidate sets (membership and any reduction); without
    one, capacity limits are read from the instance.  ``walk_tour`` prices
    every candidate: a spot's few customers do not pay for a numpy table.
    """
    check_catalog(inst, cat)
    K = tuple(sorted(customers))
    k = len(K)
    if k == 0:
        return [], 0.0, True
    if k > 20:
        return _greedy_ssa(inst, cat, spot, K)

    cands = [members for members in _fitting_sets(inst, K) if _walkable(inst, cat, spot, members)]
    if cands and len(cands[-1]) > MAX_WALK_SET:  # the largest comes last
        return _greedy_ssa(inst, cat, spot, K)

    tours = [walk_tour(inst, spot, members) for members in cands]
    if cands == [K]:  # the group is its only candidate, as a lone customer's singleton
        return [tours[0][1]], float(tours[0][0]), True
    part = PartitionTable(K, cands, np.array([cost for cost, _ in tours], dtype=float)[:, None])
    full = (1 << k) - 1
    walk = float(part.value[full, 0])
    if not np.isfinite(walk):
        raise InfeasibleInstanceError(f"customers {K} cannot be partitioned into admissible sets")
    return [tours[c][1] for c in part.split(full, 0)], walk, True


def _walkable(inst: Instance, cat, spot: int, members) -> bool:
    """Whether ``members`` may walk from ``spot``: a catalog set admissible
    there, or without a catalog a group within capacity."""
    if cat is None:
        return not inst.over_capacity(members)
    try:
        return cat.admissible(spot, cat.index_of(members))
    except KeyError:
        return False


def _greedy_ssa(inst: Instance, cat, spot: int, K) -> tuple[list[tuple[int, ...]], float, bool]:
    """Chunk customers by walking distance while each chunk stays ``_walkable``; flagged non-exact."""
    q = min(len(K) if inst.capacity_count is None else inst.capacity_count, MAX_WALK_SET)
    remaining = sorted(K, key=lambda c: (inst.W(spot, c), c))
    orders = []
    walk = 0.0
    while remaining:
        chunk = []
        for c in list(remaining):
            if len(chunk) >= q:
                break
            if _walkable(inst, cat, spot, chunk + [c]):
                chunk.append(c)
                remaining.remove(c)
        if not chunk:
            raise InfeasibleInstanceError(f"customers {remaining} cannot be partitioned into admissible sets")
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
    check_catalog(inst, cat)
    pa = solve_par(inst)
    stops, _, routing_exact = route_parking(inst, pa.opened)
    splits = [solve_ssa(inst, cat, s, [c for c, a in pa.assign.items() if a == s]) for s in stops]
    solution = assemble_solution(inst, stops, [tuple(orders) for orders, _, _ in splits])
    return TwoEchelonResult(
        solution=solution,
        opened=pa.opened,
        assignment_objective=pa.objective,
        par_exact=pa.proof,
        routing_exact=routing_exact,
        ssa_exact=all(exact for *_, exact in splits),
    )


def heuristic_solve(inst: Instance, cat: ServiceSetCatalog | None = None) -> Solution:
    """Two-echelon pipeline returning a feasible Solution."""
    return heuristic_solve_full(inst, cat).solution
