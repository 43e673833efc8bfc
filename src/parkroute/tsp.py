"""Shared tour machinery: exact Held-Karp and 2-opt/Or-opt improvement.

All routines work on a dense cost matrix indexed 0..m-1 where node 0 is the
fixed start/end of the cycle.  Ties are broken toward the lexicographically
smallest node order so downstream output is reproducible.

No routine loops over masks or moves in Python.  Held-Karp fills a dense
table one popcount layer at a time, in runs of masks from ``layer_runs``,
the mask walker the exact DP's subset fill shares; like that fill, it takes
each run's minimum over contiguous slabs, one per set bit.  The walker
reads one plan per n, built once per process: each layer's masks and their
set-bit positions, one byte per (mask, set bit), 53 KB at n = 13 and
2.25 MiB at n = 18.  2-opt and Or-opt price a block of moves at once, at
most ``CHUNK`` of them, and apply the first improving move in the order a
scalar double loop over the moves meets it.  Each priced entry adds the
operands that loop adds, in the same order, and a minimum is exact, so
tours and costs are bit-identical to the loops (``tests/brutes.py`` keeps
them as references).
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError

_EPS = 1e-9

HELD_KARP_MAX_NODES = 14
CHUNK = 1024  # masks per subset-fill run, or (bit and mask, tour move) pairs priced per vectorised step
_LAYERS: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}  # n: per popcount layer, its masks and their bits


def layer_runs(n: int, layers: range, step):
    """Yield (M, pos) for the masks of n bits with a popcount in ``layers``, a layer at a time in
    runs of at most ``step(bits)`` increasing masks M; ``pos[i]`` lists M[i]'s set bits, lowest first,
    as ``uint8``: shift an ``int64`` one by them, since a ``uint8`` shift wraps past bit 7.  Both are
    read-only slices of n's plan, n * 2^(n - 1) bytes of positions."""
    if n not in _LAYERS:
        count = np.zeros(1, dtype=np.int8)
        for _ in range(n):  # count[M], the bits of M: each bit doubles the range
            count = np.concatenate((count, count + 1))
        order = np.argsort(count, kind="stable")
        order.flags.writeable = False
        plan = []
        for bits, layer in enumerate(np.split(order, np.cumsum(np.bincount(count))[:-1])):
            pos = np.empty((len(layer), bits), dtype=np.uint8)
            for lo in range(0, len(layer), CHUNK):  # a run at a time, to keep the shifts small
                M = layer[lo:lo + CHUNK]
                pos[lo:lo + CHUNK] = np.nonzero(M[:, None] >> np.arange(n) & 1)[1].reshape(len(M), bits)
            pos.flags.writeable = False
            plan.append((layer, pos))
        _LAYERS[n] = plan
    for bits in layers:
        (layer, pos), size = _LAYERS[n][bits], step(bits)
        for lo in range(0, len(layer), size):
            yield layer[lo:lo + size], pos[lo:lo + size]


def tour_cost(dist: np.ndarray, order: list[int]) -> float:
    """Cost of the closed tour 0 -> order -> 0 (order excludes node 0)."""
    cost = 0.0
    prev = 0
    for node in order:
        cost += dist[prev, node]
        prev = node
    return cost + dist[prev, 0]


def held_karp_cycle(dist: np.ndarray) -> tuple[float, list[int]]:
    """Exact minimum cycle through all nodes starting and ending at node 0.

    Returns (cost, order) with order excluding node 0.  Supports asymmetric
    matrices.  The table ``tail[mask, u]`` over the k = m - 1 other nodes is
    filled one popcount layer at a time, since a mask reads only masks with
    one bit fewer, in runs of at most ``CHUNK`` (mask, bit) pairs gathered
    bit-major, so the minimum over a mask's bits runs over contiguous slabs.
    The full mask's row is never read, so its layer is skipped.  Among
    optimal orders the lexicographically smallest is decoded.  Exponential
    state space; refuses more than HELD_KARP_MAX_NODES nodes.
    """
    m = dist.shape[0]
    if m > HELD_KARP_MAX_NODES:
        raise ResourceLimitError(f"Held-Karp limited to {HELD_KARP_MAX_NODES} nodes, got {m}")
    if m == 1:
        return 0.0, []
    if m == 2:
        return tour_cost(dist, [1]), [1]
    k = m - 1
    full = (1 << k) - 1
    # leg[v, u] = dist[u + 1, v + 1], the step from node u + 1 to node v + 1
    leg = dist[1:, 1:].T.astype(float)

    # tail[mask, u]: cheapest path from node u + 1 through mask then back to 0
    tail = np.empty((full + 1, k))
    tail[0] = dist[1:, 0]
    tail[np.left_shift(1, np.arange(k))] = leg + tail[0][:, None]
    for M, pos in layer_runs(k, range(2, k), lambda bits: CHUNK // bits):
        # cand[b, a, u]: leave node u + 1 for the b-th bit v of mask a, then
        # finish mask a without v
        v = pos.T
        cand = leg[v]
        cand += tail[M ^ np.left_shift(np.int64(1), v), v][:, :, None]
        tail[M] = cand.min(axis=0)

    # lexicographically smallest optimal order via greedy front construction:
    # the first v whose step is within 1e-12 of the cheapest step
    order: list[int] = []
    mask = full
    cur = 0
    while mask:
        steps = {v: dist[cur, 1 + v] + tail[mask ^ (1 << v), v] for v in range(k) if mask >> v & 1}
        cheapest = min(steps.values())
        v = next(v for v, step in steps.items() if step <= cheapest + 1e-12)
        order.append(1 + v)
        mask ^= 1 << v
        cur = 1 + v
    return tour_cost(dist, order), order


def nearest_neighbor_cycle(dist: np.ndarray) -> list[int]:
    """Greedy tour from node 0: always the cheapest unvisited node next, the
    lowest id on ties."""
    left = list(range(1, dist.shape[0]))
    order = []
    cur = 0
    while left:
        cur = left.pop(int(dist[cur].take(left).argmin()))  # first index on ties
        order.append(cur)
    return order


def two_opt(dist: np.ndarray, order: list[int]) -> list[int]:
    """First-improvement 2-opt on the closed tour; deterministic sweeps.

    The move (i, j) replaces edges (i, i + 1) and (j, j + 1) by reversing
    positions i + 1..j.  Moves are priced a block of first edges at a time,
    about ``CHUNK`` moves per block, and the first improving move in (i, j)
    order is applied; the scan resumes at (i, j + 1) on the changed tour.
    """
    symmetric = np.array_equal(dist, dist.T)
    tour = np.array([0, *order, 0])
    n = len(tour)
    cols = np.arange(n - 1)
    step = max(1, CHUNK // n)
    improved = True
    while improved:
        improved = False
        i = j = 0  # the first move not yet priced is (i, max(j, i + 2))
        while i < n - 3:
            rows = np.arange(i, min(i + step, n - 3))
            edge = dist[tour[:-1], tour[1:]]
            a, b, c, d = tour[rows, None], tour[rows + 1, None], tour[:-1], tour[1:]
            delta = dist[a, c] + dist[b, d] - edge[rows, None] - edge
            if not symmetric:
                # reversal also flips interior arcs on asymmetric matrices:
                # running sums of arcs i + 1..j - 1, each from zeros, which
                # add exactly, so they match a left-to-right sum per move
                inner = cols[None, :-1] > rows[:, None]
                fwd = np.add.accumulate(np.where(inner, edge[:-1], 0), axis=1)
                rev = np.add.accumulate(np.where(inner, dist[tour[1:-1], tour[:-2]], 0), axis=1)
                delta[:, 1:] += rev - fwd
            ok = (delta < -_EPS) & (cols >= rows[:, None] + 2)
            ok[0, :j] = False
            hit = np.flatnonzero(ok)
            if not len(hit):
                i, j = int(rows[-1]) + 1, 0
                continue
            i, j = divmod(int(hit[0]), n - 1)
            i += int(rows[0])
            tour[i + 1:j + 1] = tour[j:i:-1].copy()
            improved = True
            j += 1
    return tour[1:-1].tolist()


def or_opt(dist: np.ndarray, order: list[int]) -> list[int]:
    """Relocate segments of length 1..3 while improving; deterministic.

    The segment at positions i..i + len - 1 may move between positions k
    and k + 1 of the rest of the tour.  For each length, segments are priced
    against every insertion point a block at a time, about ``CHUNK`` moves
    per block; the first improving move in (length, i, k) order is applied
    and the scan restarts.
    """
    tour = np.array([0, *order, 0])
    n = len(tour)
    step = max(1, CHUNK // n)
    improved = True
    while improved:
        improved = False
        for seg_len in (1, 2, 3):
            ks = np.arange(n - seg_len)
            for lo in range(1, n - seg_len, step):
                rows = np.arange(lo, min(lo + step, n - seg_len))[:, None]
                first, last = tour[rows], tour[rows + seg_len - 1]
                before, after = tour[rows - 1], tour[rows + seg_len]
                removed = dist[before, first] + dist[last, after] - dist[before, after]
                # the rest of the tour without each segment: position k before
                # the segment's start, k + seg_len from it on
                rest = tour[ks + seg_len * (ks >= rows)]
                r0, r1 = rest[:, :-1], rest[:, 1:]
                added = dist[r0, first] + dist[last, r1] - dist[r0, r1]
                hit = np.flatnonzero(added - removed < -_EPS)
                if len(hit):
                    r, k = divmod(int(hit[0]), n - seg_len - 1)
                    i = lo + r
                    tour = np.concatenate((rest[r, :k + 1], tour[i:i + seg_len], rest[r, k + 1:]))
                    improved = True
                    break
            if improved:
                break
    return tour[1:-1].tolist()


def solve_tsp(dist: np.ndarray) -> tuple[float, list[int], bool]:
    """Cycle through all nodes from node 0: Held-Karp when small enough,
    otherwise nearest-neighbor with 2-opt and Or-opt polishing.

    Returns (cost, order, exact_flag).
    """
    if dist.shape[0] <= HELD_KARP_MAX_NODES:
        cost, order = held_karp_cycle(dist)
        return cost, order, True
    order = nearest_neighbor_cycle(dist)
    order = two_opt(dist, order)
    order = or_opt(dist, order)
    order = two_opt(dist, order)
    return tour_cost(dist, order), order, False
