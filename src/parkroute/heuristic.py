"""Two-echelon location-routing heuristic.

Stage 1 (PA-R) opens parking spots and assigns every customer to one, trading
the per-spot search time against one-way walking distances.  Up to
``PAR_EXACT_SPOTS`` = 13 spots it is exact: one numpy table prices every
opening at once.  With more spots an add/drop/swap local search from the
all-open set decides, flagged non-exact.  It prices its neighbourhood from
one per-customer table of the cheapest and second-cheapest opened walk, a
scan per numpy step, and takes the moves of a loop that prices one
candidate at a time, bit for bit.  The vehicle is then routed over
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
from .servicesets import MAX_WALK_SET, PartitionTable, ServiceSetCatalog, check_catalog, walk_tour
from .tsp import solve_tsp

_EPS = 1e-9

PAR_EXACT_SPOTS = 13  # PA-R enumerates every opening up to this many spots
PROBE = 3  # flips PA-R's local search prices one call at a time before a numpy step
SWAP_BLOCK = 1 << 18  # walk cells priced per swap step; bounds its temporaries


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


def _nearest(W: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """The opened rows of ``mask`` and, per customer, the cheapest walk to
    one of them, the position in the opened rows that attains it first, and
    the cheapest walk once that row closes (inf when it is the only one)."""
    opened = np.flatnonzero(mask)
    sub = W[opened]
    first = sub.argmin(axis=0)
    cols = np.arange(sub.shape[1])
    b1 = sub[first, cols]
    sub[first, cols] = np.inf
    return opened, b1, first, sub.min(axis=0)


def _drop_walks(b1: np.ndarray, first: np.ndarray, b2: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Row r: every customer's cheapest walk once opened row lo + r closes."""
    walk = np.repeat(b1[None], hi - lo, axis=0)
    hit = np.flatnonzero((first >= lo) & (first < hi))
    walk[first[hit] - lo, hit] = b2[hit]
    return walk


def _dropped(rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """``rows`` (..., L) without the entry at ``pos``, broadcast over pos's axes."""
    keep = np.arange(rows.shape[-1]) != pos[..., None]
    return np.broadcast_to(rows, keep.shape)[keep].reshape(pos.shape + (rows.shape[-1] - 1,))


def _inserted(row: np.ndarray, pos: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Row i: ``row`` with ``new[i]`` inserted before its entry ``pos[i]``."""
    slot = np.arange(len(row) + 1) == pos[:, None]
    out = np.empty(slot.shape)
    out[slot] = new
    out[~slot] = np.tile(row, len(pos))
    return out


def _flip_costs(W: np.ndarray, park: np.ndarray, mask: np.ndarray, start: int) -> np.ndarray:
    """``_assignment_cost`` of ``mask`` with spot t flipped, for every
    t >= start, in one numpy step.  Dropping t walks the second-cheapest
    opened spot where t was the cheapest; adding u walks the cheaper of the
    two.  Each candidate sums one contiguous row holding the values its own
    ``_assignment_cost`` call sums, in the same order, so the costs are
    bit-identical."""
    opened, b1, first, b2 = _nearest(W, mask)
    pv = park[opened]
    i0 = int(np.searchsorted(opened, start))
    adds = np.flatnonzero(~mask[start:]) + start
    cost = np.empty(len(mask) - start)
    walk = _drop_walks(b1, first, b2, i0, len(opened)).sum(axis=1)
    cost[opened[i0:] - start] = _dropped(pv, np.arange(i0, len(opened))).sum(axis=1) + walk
    walk = np.minimum(b1, W[adds]).sum(axis=1)
    cost[adds - start] = _inserted(pv, np.searchsorted(opened, adds), park[adds]).sum(axis=1) + walk
    return cost


def _first_flip(W: np.ndarray, park: np.ndarray, mask: np.ndarray, start: int, best: float):
    """The first spot t >= start whose flip costs below ``best - _EPS``, as
    (t, cost), or None.  Right after an accepted flip the next one often
    improves too, so the first ``PROBE`` spots are priced by one
    ``_assignment_cost`` call each, which is cheaper than a numpy step; the
    rest by one ``_flip_costs`` step."""
    for t in range(start, min(start + PROBE, len(mask))):
        cand = mask.copy()
        cand[t] = not cand[t]
        c = _assignment_cost(W, park, cand)
        if c < best - _EPS:
            return t, c
    start += PROBE
    if start >= len(mask):
        return None
    cost = _flip_costs(W, park, mask, start)
    hit = np.flatnonzero(cost < best - _EPS)
    return (start + int(hit[0]), float(cost[hit[0]])) if len(hit) else None


def _first_swap(W: np.ndarray, park: np.ndarray, mask: np.ndarray, best: float):
    """The first (open t, closed u) swap in row-major order whose
    ``_assignment_cost`` is below ``best - _EPS``, as (t, u, cost), or None.
    Priced like ``_flip_costs``, a block of open rows of at most
    ``SWAP_BLOCK`` walk cells per numpy step."""
    opened, b1, first, b2 = _nearest(W, mask)
    closed = np.flatnonzero(~mask)
    if not len(closed):
        return None
    pos = np.searchsorted(opened, closed)
    added = _inserted(park[opened], pos, park[closed])
    step = max(1, SWAP_BLOCK // (len(closed) * W.shape[1]))
    for lo in range(0, len(opened), step):
        hi = min(lo + step, len(opened))
        walk = np.minimum(_drop_walks(b1, first, b2, lo, hi)[:, None, :], W[closed]).sum(axis=2)
        at = np.arange(lo, hi)[:, None]
        cost = _dropped(added, at + (pos <= at)).sum(axis=2) + walk
        hit = np.flatnonzero(cost < best - _EPS)
        if len(hit):
            i, j = divmod(int(hit[0]), len(closed))
            return int(opened[lo + i]), int(closed[j]), float(cost[i, j])
    return None


def local_search(W: np.ndarray, park: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """First-improvement add/drop/swap search over openings, from ``mask``.

    A pass scans the spots in ascending order and flips the first one whose
    flip improves by more than _EPS, then goes on from the next spot under
    the new opening.  Passes repeat while one improves; when a pass does not,
    the first improving (open, closed) swap in row-major order is taken, up
    to 60 spots.  The moves and costs are those of a loop that calls
    ``_assignment_cost`` once per candidate.  ``_first_flip`` prices the next
    ``PROBE`` flips that way and the rest of the pass in one numpy step;
    ``_first_swap`` prices every swap in one step per block.
    """
    m = len(mask)
    best = _assignment_cost(W, park, mask)
    improved = True
    while improved:
        improved = False
        t = 0
        while t < m:
            hit = _first_flip(W, park, mask, t, best)
            if hit is None:
                break
            t, best = hit
            mask = mask.copy()
            mask[t] = not mask[t]
            improved = True
            t += 1
        if m <= 60 and not improved:
            swap = _first_swap(W, park, mask, best)
            if swap is not None:
                t, u, best = swap
                mask = mask.copy()
                mask[t], mask[u] = False, True
                improved = True
    return mask


def solve_par(inst: Instance) -> ParkingAssignment:
    """Open parking spots and assign every customer to one.

    Given the opened set, each customer independently takes its cheapest
    opened spot, so the search is over openings only.  Up to
    ``PAR_EXACT_SPOTS`` spots every opening is enumerated at once
    (``proof=True``); ties prefer fewer opened spots, then the
    lexicographically smallest spot set.  Above that limit ``local_search``
    decides from the all-open set (``proof=False``), pricing each scan of its
    add/drop/swap neighbourhood in one numpy step; it tries swaps only up to
    60 spots.  A customer's spot is the first opened one within _EPS of its
    cheapest walk.
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

    q = inst.capacity_count if inst.capacity_count is not None else k
    cands = [members for size in range(1, min(q, k) + 1) for members in combinations(K, size)
             if _walkable(inst, cat, spot, members)]
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
