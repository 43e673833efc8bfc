"""Shared tour machinery: exact Held-Karp and 2-opt/Or-opt improvement.

All routines work on a dense cost matrix indexed 0..m-1 where node 0 is the
fixed start/end of the cycle.  Ties are broken toward the lexicographically
smallest node order so downstream output is reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError

_EPS = 1e-9

HELD_KARP_MAX_NODES = 14


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
    matrices.  Exponential state space; refuses more than
    HELD_KARP_MAX_NODES nodes.
    """
    m = dist.shape[0]
    if m > HELD_KARP_MAX_NODES:
        raise ResourceLimitError(f"Held-Karp limited to {HELD_KARP_MAX_NODES} nodes, got {m}")
    if m == 1:
        return 0.0, []
    k = m - 1
    full = (1 << k) - 1

    # tail[mask][u]: cheapest path from node u + 1 through mask then back to 0
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

    # lexicographically smallest optimal order via greedy front construction:
    # the first v whose step is within 1e-12 of the cheapest step
    order: list[int] = []
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


def nearest_neighbor_cycle(dist: np.ndarray) -> list[int]:
    m = dist.shape[0]
    unvisited = set(range(1, m))
    order = []
    cur = 0
    while unvisited:
        nxt = min(unvisited, key=lambda v: (dist[cur, v], v))
        order.append(nxt)
        unvisited.remove(nxt)
        cur = nxt
    return order


def two_opt(dist: np.ndarray, order: list[int]) -> list[int]:
    """First-improvement 2-opt on the closed tour; deterministic sweeps."""
    symmetric = bool(np.allclose(dist, dist.T))
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
                    # reversal also flips interior arcs on asymmetric matrices
                    seg_fwd = sum(dist[tour[t], tour[t + 1]] for t in range(i + 1, j))
                    seg_rev = sum(dist[tour[t + 1], tour[t]] for t in range(i + 1, j))
                    delta += seg_rev - seg_fwd
                if delta < -_EPS:
                    tour[i + 1 : j + 1] = reversed(tour[i + 1 : j + 1])
                    improved = True
    return tour[1:-1]


def or_opt(dist: np.ndarray, order: list[int]) -> list[int]:
    """Relocate segments of length 1..3 while improving; deterministic."""
    tour = [0] + list(order) + [0]
    improved = True
    while improved:
        improved = False
        for seg_len in (1, 2, 3):
            for i in range(1, len(tour) - seg_len):
                seg = tour[i : i + seg_len]
                if 0 in seg:
                    continue
                rest = tour[:i] + tour[i + seg_len :]
                removed = (
                    dist[tour[i - 1], seg[0]]
                    + dist[seg[-1], tour[i + seg_len]]
                    - dist[tour[i - 1], tour[i + seg_len]]
                )
                for k in range(len(rest) - 1):
                    added = dist[rest[k], seg[0]] + dist[seg[-1], rest[k + 1]] - dist[rest[k], rest[k + 1]]
                    if added - removed < -_EPS:
                        tour = rest[: k + 1] + seg + rest[k + 1 :]
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
    return tour[1:-1]


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
