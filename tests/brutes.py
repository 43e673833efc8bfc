"""Independent oracles used to pin expected values.

The brute forces enumerate structures directly (permutations, set partitions,
assignments) and never call the solver code paths under test.  The HiGHS
reference solves a built model with scipy and shares no code with the
package's solvers either.  ``model_violations`` checks a solution, encoded by
``encode_assignment``, against every row of a built model.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np
import pytest


def all_partitions(items):
    """Every partition of ``items`` into nonempty groups."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in all_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def brute_walk(inst, parking, members):
    """Minimum walking loop by trying every service order."""
    best = float("inf")
    W = inst.walk
    for perm in permutations(members):
        cost = W[parking, perm[0]]
        for a, b in zip(perm, perm[1:]):
            cost += W[a, b]
        cost += W[perm[-1], parking]
        best = min(best, cost)
    return float(best)


def _set_ok(inst, group):
    q = inst.capacity_count
    if q is not None and len(group) > q:
        return False
    if inst.capacity_weight is not None and inst.weights is not None:
        if sum(inst.weights[c] for c in group) > inst.capacity_weight + 1e-9:
            return False
    if inst.capacity_volume is not None and inst.volumes is not None:
        if sum(inst.volumes[c] for c in group) > inst.capacity_volume + 1e-9:
            return False
    return True


def brute_partition_cost(inst, parking, customers):
    """Cheapest split of ``customers`` into capacity-feasible walking sets."""
    best = float("inf")
    for part in all_partitions(list(customers)):
        if not all(_set_ok(inst, g) for g in part):
            continue
        best = min(best, sum(brute_walk(inst, parking, g) for g in part))
    return best


def brute_optimum(inst):
    """Exact optimum by enumerating stop sequences, customer-to-stop
    assignments, and per-stop partitions.  Only usable for tiny n."""
    return brute_open_path(inst, inst.drive[0], inst.drive[:, 0]) + inst.n * inst.load_per_package


def brute_open_path(inst, entry, exit):
    """The cheapest path, loading left out, that serves every customer: it
    drives ``entry[s]`` to its first stop s, the drive matrix between stops
    (none entered twice), and ``exit[s]`` from its last stop s.  It
    enumerates stop sequences, customer-to-stop assignments, and per-stop
    partitions; ``entry`` and ``exit`` are indexed by spot id."""
    n = inst.n
    D, P = inst.drive, inst.park_time
    customers = list(range(1, n + 1))
    part_memo = {}

    def pcost(spot, group):
        key = (spot, tuple(sorted(group)))
        if key not in part_memo:
            part_memo[key] = brute_partition_cost(inst, spot, key[1])
        return part_memo[key]

    best = float("inf")
    for r in range(1, n + 1):
        for stops in permutations(inst.spots, r):
            drive = entry[stops[0]] + sum(D[a, b] for a, b in zip(stops, stops[1:])) + exit[stops[-1]]
            park = sum(P[s] for s in stops)
            base = drive + park
            if base >= best:
                continue
            for assign in product(range(r), repeat=n):
                by_stop = [[] for _ in range(r)]
                for c, t in zip(customers, assign):
                    by_stop[t].append(c)
                walk = 0.0
                for t, s in enumerate(stops):
                    if by_stop[t]:
                        walk += pcost(s, by_stop[t])
                        if base + walk >= best:
                            break
                else:
                    best = min(best, base + walk)
    return best


def brute_par(inst):
    """Exact spot-opening objective by enumerating all opening patterns with
    greedy per-customer assignment."""
    spots = inst.spots
    m = len(spots)
    W = inst.walk
    P = inst.park_time
    best = float("inf")
    for mask in range(1, 1 << m):
        opened = [spots[t] for t in range(m) if mask >> t & 1]
        cost = sum(P[s] for s in opened)
        cost += sum(min(W[s, c] for s in opened) for c in inst.customers)
        best = min(best, cost)
    return best


def brute_mtsp(inst, order):
    """Optimal order-respecting parking/clustering along a fixed customer
    order, by recursive enumeration of blocks, in-block spots, and
    contiguous segmentations."""
    n = inst.n
    D, W, P = inst.drive, inst.walk, inst.park_time
    q = inst.capacity_count if inst.capacity_count is not None else n
    spots = set(inst.spots)
    best = [float("inf")]

    def wseg(i, seg):
        return W[i, seg[0]] + sum(W[a, b] for a, b in zip(seg, seg[1:])) + W[seg[-1], i]

    def seg_ok(seg):
        return _set_ok(inst, seg)

    def rec(t, loc, acc):
        if acc >= best[0] - 1e-12:
            return
        if t > n:
            best[0] = min(best[0], acc + D[loc, 0])
            return
        for b in range(t, n + 1):
            block = order[t - 1 : b]
            for i in block:
                if i not in spots:
                    continue

                def segs(s, walk):
                    if s > b:
                        rec(b + 1, i, acc + D[loc, i] + P[i] + walk)
                        return
                    for e in range(s, min(b, s + q - 1) + 1):
                        seg = order[s - 1 : e]
                        if seg_ok(seg):
                            segs(e + 1, walk + wseg(i, seg))

                segs(t, 0.0)

    rec(1, 0, 0.0)
    return best[0] + n * inst.load_per_package


def milp_optimum(model):
    """Proven optimum of a built model, from scipy's HiGHS backend.

    The relative gap is set to zero: at HiGHS's default of 1e-4 a status of 0
    only bounds the optimum to within about 0.0055 at a value of 55, which is
    no proof at the 1e-6 tolerance the tests compare with.
    """
    scipy_opt = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
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
    res = scipy_opt.milp(
        c=c,
        constraints=scipy_opt.LinearConstraint(A, lo, hi),
        bounds=scipy_opt.Bounds(lb, ub),
        integrality=np.ones(len(names)),
        options={"mip_rel_gap": 0},
    )
    assert res.status == 0, res.message
    return res.fun


def encode_assignment(inst, sol):
    """Variable values of a solution under the model's naming scheme."""
    values = {}
    route = [0] + list(sol.stops) + [0]
    for a, b in zip(route, route[1:]):
        values[f"x_{a}_{b}"] = 1.0
    for stop, stop_sets in zip(sol.stops, sol.served):
        for order in stop_sets:
            members = tuple(sorted(order))
            values[f"y_{stop}__" + "_".join(map(str, members))] = 1.0
    # package flow: each arc into a stop carries the not-yet-delivered count
    remaining = inst.n
    prev = 0
    for stop, stop_sets in zip(sol.stops, sol.served):
        values[f"v_{prev}_{stop}"] = float(remaining)
        remaining -= sum(len(o) for o in stop_sets)
        prev = stop
    return values


def model_violations(model, values, total):
    """What a variable assignment breaks in a built model: a variable the
    model lacks, an objective other than ``total`` (within 1e-9), or a row."""
    names = {v.name for v in model.variables}
    bad = [f"no variable {name}" for name in values if name not in names]
    objective = sum(values.get(name, 0.0) * coef for name, coef in model.objective)
    if abs(objective - total) > 1e-9:
        bad.append(f"objective {objective} != {total}")
    for row in model.constraints:
        lhs = sum(values.get(name, 0.0) * coef for name, coef in row.terms)
        if {"=": abs(lhs - row.rhs), "<=": lhs - row.rhs, ">=": row.rhs - lhs}[row.sense] > 1e-9:
            bad.append(row.name)
    return bad


def ring_walk_instance():
    """Seven customers whose walk breaks the triangle inequality: a ring
    1-2-3-4-5-1 with 0.5 per edge and 20 for every chord, so W[1,3] >
    W[1,2] + W[2,3].  Customer 6 is near spot 4 only and 7 near spot 1 only,
    so the vehicle parks at both.  The ring walked as one loop (2.5) beats
    any split of it, but that loop serves one of the two stop customers from
    the other stop.  The drive matrix is metric."""
    from parkroute.instance import Instance

    W = np.full((7, 7), 20.0)
    np.fill_diagonal(W, 0.0)
    for a, b in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (4, 6), (1, 7)]:
        W[a - 1, b - 1] = W[b - 1, a - 1] = 0.5
    xy = np.array([[0, 0], [1, 0], [1, 1], [2, 1], [3, 0], [2, 0], [3, 1], [0, 1]], dtype=float)
    drive = np.abs(xy[:, None] - xy[None]).sum(axis=-1)
    return Instance(drive=drive, walk=W, park_time=[3.0] * 7, capacity_count=4)


def self_singleton_form(inst, sol):
    """The solution with each stop's own customer served alone at that stop
    and dropped from the set that served it before, the structure the
    ``vi.claim4`` and ``vi.corollary1`` rows demand.  Every stop must be a
    customer location.  On a metric walk the shortcut never costs more."""
    from parkroute.model import assemble_solution

    own = set(sol.stops)
    served = []
    for stop, stop_sets in zip(sol.stops, sol.served):
        rest = [tuple(c for c in order if c not in own) for order in stop_sets]
        served.append(((stop,),) + tuple(order for order in rest if order))
    return assemble_solution(inst, sol.stops, served)


# ---------------------------------------------------------------------------
# per-mask references for the layered numpy fills; each uses the same
# operands in the same order (``loop_walk_costs`` every order's legs, whose
# minimum the walk table's subset DP reaches because float addition is
# monotone), so the tables must agree bit for bit, except
# ``loop_completion_table``, which prices whole bundles and so agrees with the
# per-set fill only to rounding


def loop_walk_costs(cat):
    """Walk cost of every catalog set (rows) from every spot (columns), inf
    where the pair is inadmissible: the float minimum over the set's service
    orders of the loop's legs summed left to right, each order priced over
    all the sets of its size class and all spots at once."""
    W = cat.inst.walk
    p = np.array(cat.inst.spots)
    sizes = np.array([s.size for s in cat.sets])
    costs = np.empty((len(cat.sets), len(p)))
    for k in set(sizes.tolist()):
        rows = np.flatnonzero(sizes == k)
        m = np.array([cat.sets[j].members for j in rows])
        best = np.full((len(rows), len(p)), np.inf)
        for order in permutations(range(k)):
            cost = W[p, m[:, order[0], None]]
            for a, b in zip(order, order[1:]):
                cost = cost + W[m[:, a], m[:, b]][:, None]
            best = np.minimum(best, cost + W[m[:, order[-1], None], p])
        costs[rows] = best
    banned = [[not cat.admissible(i, j) for i in cat.inst.spots] for j in range(len(cat.sets))]
    costs[np.array(banned, dtype=bool).reshape(costs.shape)] = np.inf
    return costs


def loop_partition_values(customers, candidates, costs):
    """``PartitionTable.value`` one mask at a time, in increasing order: each
    mask takes the least cost over the fitting candidates that hold its
    lowest bit."""
    pos = {c: b for b, c in enumerate(customers)}
    masks = np.array([sum(1 << pos[c] for c in members) for members in candidates], dtype=np.int64)
    costs = np.asarray(costs, dtype=float)
    low = masks & -masks
    value = np.full((1 << len(pos), costs.shape[1]), np.inf)
    value[0] = 0.0
    for mask in range(1, 1 << len(pos)):
        fit = (low == mask & -mask) & ((masks & ~mask) == 0)
        value[mask] = np.min(costs[fit] + value[mask ^ masks[fit]], axis=0, initial=np.inf)
    return value


def loop_completion_table(bundle, drive, park_time, spots):
    """The exact DP's completion table ``B[mask, j]`` one mask at a time, in
    increasing order: park, walk a bundle (every nonempty submask, priced by
    ``bundle``) and complete the rest, then take the cheapest arrival leg
    from each spot."""
    S = list(spots)
    d_spot = drive[np.ix_(S, S)]
    park = np.array([float(park_time[j]) for j in S])
    B = np.empty((bundle.shape[0], len(S)))
    B[0] = [drive[j, 0] for j in S]
    for mask in range(1, bundle.shape[0]):
        subs, a = [], mask
        while a:
            subs.append(a)
            a = (a - 1) & mask
        qp = (bundle[subs] + B[[mask ^ a for a in subs]]).min(axis=0) + park
        B[mask] = (d_spot + qp[None, :]).min(axis=1)
    return B


def loop_set_completion_table(candidates, costs, drive, park_time, spots):
    """The exact DP's tables ``(B, F)`` one mask at a time, in increasing
    order, one catalog set per transition: ``B[mask, j]`` completes the mask
    parked at spot j, and ``F[mask, k]`` is the least of ``B[mask, k]`` and
    ``C[mask, k]``, the least walk cost of a set S within the mask from spot
    k plus ``F[mask ^ S, k]``.  Parking at k costs ``C + park``.
    ``candidates`` lists the sets' member tuples, ``costs`` their walk costs
    per spot column; bit b of a mask is customer b + 1."""
    S = list(spots)
    d_spot = drive[np.ix_(S, S)]
    park = np.array([float(park_time[j]) for j in S])
    set_masks = np.array([sum(1 << (c - 1) for c in members) for members in candidates])
    B = np.empty((1 << (drive.shape[0] - 1), len(S)))
    B[0] = [drive[j, 0] for j in S]
    F = B.copy()
    for mask in range(1, B.shape[0]):
        fit = (set_masks & ~mask) == 0
        c = np.min(costs[fit] + F[mask ^ set_masks[fit]], axis=0, initial=np.inf)
        qp = c + park
        B[mask] = (d_spot + qp[None, :]).min(axis=1)
        F[mask] = np.minimum(B[mask], c)
    return B, F


def dense_table_decode(inst, cat, target, B):
    """The exact DP's decode over the dense partition table and the whole
    completion table ``B`` (``loop_set_completion_table``'s on the drive
    matrix), from the DP's value ``target``: from each remaining mask, every
    nonempty submask A priced as a bundle, ``(arrival + park + bundle[A]) +
    B[mask ^ A]``, against the target within 1e-9; the canonical choice is
    the fewest stops, then the smallest stop, then the smallest bundle mask.
    Returns (stops, bundles, served), each stop's sets split by the dense
    table and listed in walking order."""
    from parkroute.exact import _ReconstructionTie
    from parkroute.servicesets import PartitionTable, walk_tour

    S = list(inst.spots)
    part = PartitionTable(inst.customers, [s.members for s in cat.sets], cat.walk_cost_table())
    d_spot = inst.drive[np.ix_(S, S)]
    park = np.array([float(inst.park_time[j]) for j in S])

    def transitions(mask, arrival, target):
        subs, a = [], mask
        while a:
            subs.append(a)
            a = (a - 1) & mask
        subs = np.array(subs, dtype=np.int64)
        v = ((arrival + park) + part.value[subs]) + B[mask ^ subs]
        rows, cols = np.nonzero(v <= target + 1e-9)
        return [(int(k), int(subs[r])) for r, k in zip(rows, cols)]

    memo = {}

    def fewest(mask, si):
        if mask == 0:
            return 0
        if (mask, si) not in memo:
            memo[mask, si] = min(
                (1 + fewest(mask ^ A, sj) for sj, A in transitions(mask, d_spot[si], B[mask, si])),
                default=len(S) + inst.n,
            )
        return memo[mask, si]

    stops, bundles, served = [], [], []
    mask, arrival, visited = (1 << inst.n) - 1, inst.drive[0, S], 0
    while mask:
        choices = [
            (1 + fewest(mask ^ A, sj), S[sj], A, sj)
            for sj, A in transitions(mask, arrival, target)
            if not visited >> sj & 1
        ]
        if not choices:
            raise _ReconstructionTie
        _, j, A, sj = min(choices)
        stops.append(j)
        bundles.append(A)
        sets = [cat.sets[c].members for c in part.split(A, sj)]
        served.append(tuple(walk_tour(inst, j, members)[1] for members in sets))
        visited |= 1 << sj
        mask ^= A
        arrival = d_spot[sj]
        if mask:
            target = float(B[mask, sj])
    return stops, bundles, served


# ---------------------------------------------------------------------------
# per-mask and per-move references for the vectorised tour layer; each uses
# the same operands in the same order, so tours and costs must agree bit for
# bit


def loop_held_karp_cycle(dist):
    """``tsp.held_karp_cycle`` one mask and one (mask, bit) pair at a time."""
    from parkroute.tsp import tour_cost

    m = dist.shape[0]
    if m == 1:
        return 0.0, []
    k = m - 1
    full = (1 << k) - 1
    tail = [None] * (full + 1)
    tail[0] = dist[1:, 0].astype(float)
    for mask in range(1, full + 1):
        best = np.full(k, np.inf)
        rem = mask
        while rem:
            v = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            cand = dist[1:, 1 + v] + tail[mask ^ (1 << v)][v]
            np.minimum(best, cand, out=best)
        tail[mask] = best
    order = []
    mask = full
    cur = 0
    while mask:
        steps = {v: dist[cur, 1 + v] + tail[mask ^ (1 << v)][v] for v in range(k) if mask >> v & 1}
        cheapest = min(steps.values())
        v = next(v for v, step in steps.items() if step <= cheapest + 1e-12)
        order.append(1 + v)
        mask ^= 1 << v
        cur = 1 + v
    return tour_cost(dist, order), order


def loop_two_opt(dist, order):
    """``tsp.two_opt`` one (i, j) move at a time."""
    symmetric = bool(np.array_equal(dist, dist.T))
    tour = [0] + list(order) + [0]
    improved = True
    while improved:
        improved = False
        for i in range(len(tour) - 3):
            for j in range(i + 2, len(tour) - 1):
                a, b = tour[i], tour[i + 1]
                c, d = tour[j], tour[j + 1]
                delta = dist[a, c] + dist[b, d] - dist[a, b] - dist[c, d]
                if not symmetric:
                    seg_fwd = sum(dist[tour[t], tour[t + 1]] for t in range(i + 1, j))
                    seg_rev = sum(dist[tour[t + 1], tour[t]] for t in range(i + 1, j))
                    delta += seg_rev - seg_fwd
                if delta < -1e-9:
                    tour[i + 1 : j + 1] = reversed(tour[i + 1 : j + 1])
                    improved = True
    return tour[1:-1]


def loop_or_opt(dist, order):
    """``tsp.or_opt`` one (segment, insertion point) move at a time."""
    tour = [0] + list(order) + [0]
    improved = True
    while improved:
        improved = False
        for seg_len in (1, 2, 3):
            for i in range(1, len(tour) - seg_len):
                seg = tour[i : i + seg_len]
                rest = tour[:i] + tour[i + seg_len :]
                removed = (
                    dist[tour[i - 1], seg[0]]
                    + dist[seg[-1], tour[i + seg_len]]
                    - dist[tour[i - 1], tour[i + seg_len]]
                )
                for k in range(len(rest) - 1):
                    added = dist[rest[k], seg[0]] + dist[seg[-1], rest[k + 1]] - dist[rest[k], rest[k + 1]]
                    if added - removed < -1e-9:
                        tour = rest[: k + 1] + seg + rest[k + 1 :]
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
    return tour[1:-1]


def loop_nearest_neighbor_cycle(dist):
    """``tsp.nearest_neighbor_cycle`` with a keyed ``min`` per step."""
    unvisited = set(range(1, dist.shape[0]))
    order = []
    cur = 0
    while unvisited:
        cur = min(unvisited, key=lambda v: (dist[cur, v], v))
        order.append(cur)
        unvisited.remove(cur)
    return order


# ---------------------------------------------------------------------------
# per-candidate and per-start references for PA-R's local search and the
# modified-TSP split; the vectorised code must take the same moves and splits


def loop_local_search(W, park, mask):
    """``heuristic.local_search`` with one ``_assignment_cost`` call per
    candidate opening."""
    from parkroute.heuristic import _EPS, _assignment_cost

    m = len(mask)
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


def loop_split(n, sp, segs, a, cols):
    """Optimal split of positions a..t into order-respecting sets walked
    from each spot in cols, for every t >= a, one start at a time; row
    t - a + 1 holds t."""
    g = np.full((n - a + 2, len(sp[cols])), np.inf)
    cut = np.zeros(g.shape, dtype=int)
    g[0] = 0.0
    for t in range(a, n + 1):
        row, crow = g[t - a + 1], cut[t - a + 1]
        for s, w in segs[t]:
            if s >= a:
                v = g[s - a] + w[cols]
                better = v < row - 1e-12
                np.copyto(row, v, where=better)
                np.copyto(crow, s, where=better)
    return g, cut


def loop_modified_tsp(inst):
    """The block-start split that ``benchmarks.modified_tsp`` once ran: for
    each block start a in increasing order, one ``loop_split`` prices the
    block a..b at every spot for every end b, and the best prefix ending at
    a - 1 is final when a is reached.  The reference that the forward DP
    over service positions must match bit for bit; returns (completion,
    model objective, stops, served)."""
    from parkroute.model import assemble_solution
    from parkroute.tsp import solve_tsp

    n = inst.n
    _, order, _ = solve_tsp(inst.drive)
    D = inst.drive
    W = inst.walk
    q = inst.capacity_count if inst.capacity_count is not None else n
    pos = {c: t for t, c in enumerate(order, 1)}
    sp = np.array(sorted(inst.spots, key=pos.get))
    spos = np.array([pos[i] for i in sp])
    chain = np.zeros(n + 1)
    for t in range(2, n + 1):
        chain[t] = chain[t - 1] + W[order[t - 2], order[t - 1]]
    out = W[np.ix_(sp, order)].T
    back = W[np.ix_(order, sp)]
    segs = [
        [(s, out[s - 1] + (chain[t] - chain[s]) + back[t - 1])
         for s in range(max(1, t - q + 1), t + 1) if not inst.over_capacity(order[s - 1:t])]
        for t in range(n + 1)
    ]
    F = np.full((n + 1, n + 1), np.inf)
    F[0, 0] = 0.0
    start = np.zeros((n + 1, n + 1), dtype=int)
    prev = np.zeros((n + 1, n + 1), dtype=int)
    for a in range(1, n + 1):
        k0 = int(np.searchsorted(spos, a))
        if k0 == len(sp):
            break
        if not np.isfinite(F[a - 1]).any():
            continue
        cols, ids = slice(k0, None), sp[k0:]
        arrive = F[a - 1][:, None] + D[:, ids]
        j = arrive.argmin(axis=0)
        total = (arrive[j, np.arange(len(ids))] + inst.park_time[ids]) + loop_split(n, sp, segs, a, cols)[0][1:]
        cur = F[a:, ids]
        better = (np.arange(a, n + 1)[:, None] >= spos[cols]) & (total < cur - 1e-12)
        F[a:, ids] = np.where(better, total, cur)
        start[a:, ids] = np.where(better, a, start[a:, ids])
        prev[a:, ids] = np.where(better, j, prev[a:, ids])
    finish = F[n, 1:] + D[1:, 0]
    i = int(finish.argmin()) + 1
    objective = finish[i - 1] + n * inst.load_per_package
    stops, served = [], []
    b = n
    while b > 0:
        a, k = int(start[b, i]), int(np.searchsorted(spos, pos[i]))
        cut = loop_split(n, sp, segs, a, slice(k, k + 1))[1][:, 0]
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
    return solution.total, objective, solution.num_stops, tuple(served)
