"""Desk-scale exact solver, LP-free.

A bitmask dynamic program over (unserved customers, last parking spot) runs
on every input; its transitions pick the next spot and the customer bundle
walked from it.  The fill walks one catalog set per transition, so a mask is
priced against its subsets of at most the largest set size rather than
against every submask.  That per-set step is ``servicesets._set_layers``,
the subset fill ``PartitionTable`` shares: it yields the walk-then-finish
minimum one run of masks of a popcount layer at a time, and the DP adds its
park and drive terms to each run.  The decode reads the same per-set
transitions back, one catalog set per step; a stop's bundle is the union of
the sets walked there.  The fill and the decode are one kernel,
``_Completion``, of its operands alone: the sets' bit masks and walk costs,
each spot column's park time, the column-to-column legs, an exit leg per
column for the fill and an entry leg per column for its value and decode.
``solve_exact`` gives it the depot's legs.

On a metric drive matrix revisits and pass-through stops (stops that park
and serve no one) never improve, so the DP's solution is optimal.  Off the
triangle inequality a pass-through stop can pay off, and the DP drives on
the matrix's shortest-path closure instead.  The closure is never above the
true matrix and prices a detour through a pass-through stop without its park
time, so the DP's value is a proven floor.  Its solution, costed on the true
matrix, is optimal when it meets the floor; otherwise it is the incumbent of
a depth-first branch-and-bound, ``_Searcher``, over parking sequences whose
root bound is the floor.  The search's per-node bound combines the
unavoidable drive legs with a per-customer share of the cheapest admissible
walk-plus-park increment, which stays admissible on any input, and it allows
pass-through stops exactly when the drive matrix breaks the triangle
inequality.  Either path accepts at most ``DP_MAX_CUSTOMERS`` = 18
customers: the DP's one table holds 2^n rows per spot, and the
branch-and-bound proves nothing that large within ``SEARCH_LIMIT``.

The search stops on a count of work, not on a clock: each node adds its
candidate (spot, bundle) pairs, its unvisited spots times the 2^|unserved|
subsets of its unserved customers, and the search stops once the total
reaches ``SEARCH_LIMIT``.  A stopped search thus ends at the same node on
every machine, and the solve's output depends on its input alone.

The branch-and-bound prices bundles from one dense
``servicesets.PartitionTable`` over all customers and spots; ``_Searcher``
is built only when that search runs.  A solution's stops are split into
walking sets by the heuristic's per-spot set partition,
``heuristic.solve_ssa``, over each stop's own bundle, which gives the same
split as the dense table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleInstanceError, ResourceLimitError
from .heuristic import solve_ssa
from .instance import Instance, _triangle_stats
from .model import Solution, assemble_solution, structural_violations
from .servicesets import PartitionTable, ServiceSetCatalog, _set_layers, check_catalog

_EPS = 1e-9
_INF = float("inf")

DP_MAX_CUSTOMERS = 18

# candidate (spot, bundle) pairs the branch-and-bound prices before it stops:
# searches stopped by it price 3.7-5.2e6 pairs a second at n = 8-10 on a
# 2-vCPU x86-64 host, so it stands for about 58-81 s there
SEARCH_LIMIT = 300_000_000


def _closure(drive: np.ndarray) -> np.ndarray:
    """The shortest-path closure of a drive matrix (Floyd-Warshall): the
    cheapest drive between every two nodes through any others; never above
    ``drive``."""
    for k in range(len(drive)):
        drive = np.minimum(drive, drive[:, k, None] + drive[k])
    return drive


class _ReconstructionTie(Exception):
    """Raised when tie-filtering leaves the DP reconstruction without a
    revisit-free continuation; the solver then reruns as a sequence search."""


@dataclass
class ExactResult:
    solution: Solution | None
    status: str  # "optimal" | "feasible" | "timeout"
    bound: float
    value: float | None
    nodes: int

    @property
    def proof(self) -> bool:
        return self.status == "optimal"


class _Control:
    def __init__(self):
        self.nodes = 0
        self.work = 0
        self.stopped = False
        self.abandoned_lb = float("inf")
        self.best_value = float("inf")
        self.best_key: tuple | None = None
        self.best_state: tuple | None = None  # (stops, bundles)

    def abandon(self, lb: float) -> None:
        if lb < self.abandoned_lb:
            self.abandoned_lb = lb

    def offer(self, value: float, stops: tuple, bundles: tuple) -> None:
        """Keep the cheapest path; ties go to fewer stops, then smaller stops."""
        key = (len(stops), stops)
        state = (stops, bundles)
        if value < self.best_value - _EPS:
            self.best_value, self.best_key, self.best_state = value, key, state
        elif value <= self.best_value + _EPS and key < self.best_key:
            self.best_value = min(self.best_value, value)
            self.best_key, self.best_state = key, state


class _Completion:
    """The completion DP and its decode, over ``n`` customer bits and the
    spot columns of its operands: set j holds the bits of ``masks[j]`` and
    walks ``costs[j, k]`` from column k (inf where it may not), its largest
    set holds ``largest`` bits, parking at column k takes ``park[k]``,
    driving from column j to k ``legs[j, k]``, and the route leaves column k
    by ``exit[k]``.  It reads no instance, catalog or depot: the caller
    gives each column's entry leg to ``value`` and ``decode``, and the decode
    breaks ties by column, so columns in ascending spot id break them by spot.

    B[mask, j] is the cheapest way to serve ``mask`` and leave, starting
    parked at column j.  A transition walks one set.  F[mask, k] is the
    cheapest way to finish ``mask`` once parked at column k: drive on,
    B[mask, k], or walk a set S from k and finish ``mask ^ S`` from there,
    C[mask, k] = min over sets S of walk[S, k] + F[mask ^ S, k].  So
    C[mask, k] walks the cheapest split of some nonempty bundle from k before
    driving on, and parking at k first costs qp[mask, k] = C[mask, k] +
    park[k].  A mask reads only masks with fewer customers: ``_set_layers``
    yields C a run of one popcount layer at a time, reading F, and each run's
    F rows are written before the next run is drawn; only F is kept, and the
    decode rebuilds the B rows it reads.  It needs distinct sets.

    The DP allows revisits and pass-through stops.  On metric legs neither
    improves a route, so the value is the optimum; otherwise it is a floor."""

    def __init__(self, n: int, masks: np.ndarray, costs: np.ndarray, largest: int,
                 park: np.ndarray, legs: np.ndarray, exit: np.ndarray):
        self.n, self.masks, self.costs, self.park, self.legs = n, masks, costs, park, legs
        self.F = F = np.empty((1 << n, len(park)))
        F[0] = exit
        for M, c in _set_layers(n, masks, costs, largest, F, False):
            F[M] = np.minimum(self._drive_on(c), c)
        self._parked = c + park  # c is the full mask's row

    def value(self, entry: np.ndarray) -> float:
        """The least route over every customer that enters column k by ``entry[k]``."""
        return float((entry + self._parked).min())

    def _drive_on(self, c: np.ndarray) -> np.ndarray:
        """B rows from C rows: min over k of (C[:, k] + park[k]) + legs[j, k], column by column."""
        qp = c + self.park
        b = qp[:, :1] + self.legs[:, 0]
        for k in range(1, qp.shape[1]):
            np.minimum(b, qp[:, k, None] + self.legs[:, k], out=b)
        return b

    def _b_row(self, mask: int) -> np.ndarray:
        """B[mask] from the fill's operands in the fill's order, so the fill's
        row bit for bit: the drive-on minimum in one step over ``_drive_on``'s
        sums; memoized for the decode in a dict of rows alone."""
        if mask not in self._rows:
            fit = np.flatnonzero((self.masks & ~mask) == 0)
            c = np.min(self.costs[fit] + self.F[mask ^ self.masks[fit]], axis=0, initial=np.inf)
            self._rows[mask] = (c + self.park + self.legs).min(axis=1)
        return self._rows[mask]

    def _transitions(self, mask: int, arrival: np.ndarray, target: float) -> set[tuple[int, int]]:
        """The distinct (column, bundle) pairs that, arriving with the
        per-column drive times ``arrival``, complete ``mask`` within _EPS of
        ``target``, read back one set at a time the way the fill prices
        them: a stop at column k starts with a set S within ``mask`` for
        which ``arrival + ((walk[S] + F[mask ^ S]) + park)`` attains the
        target at k, then walks on as ``_stop_tails`` allows from
        ``mask ^ S``.  Its bundle is the union of the sets walked."""
        fit = np.flatnonzero((self.masks & ~mask) == 0)
        first = self.masks[fit]
        v = self.costs[fit] + self.F[mask ^ first]
        v += self.park
        v += arrival
        rows, cols = np.nonzero(v <= target + _EPS)
        return {
            (int(k), int(S) | T)
            for S, k in zip(first[rows], cols)
            for T in self._stop_tails(mask ^ int(S), int(k))
        }

    def _stop_tails(self, rest: int, k: int) -> set[int]:
        """The bundles within ``rest`` that a stop at column k can still
        walk on an optimal completion of ``rest`` before it drives on: the
        empty bundle where B[rest, k] attains F[rest, k], and S plus a tail of
        ``rest ^ S`` for each set S whose walk[S, k] + F[rest ^ S, k]
        attains it.  Memoized on (rest, k) for the whole decode."""
        if (rest, k) not in self._tails:
            f = self.F[rest, k] + _EPS
            tails = {0} if self._b_row(rest)[k] <= f else set()
            fit = np.flatnonzero((self.masks & ~rest) == 0)
            sets = self.masks[fit]
            for S in sets[self.costs[fit, k] + self.F[rest ^ sets, k] <= f]:
                tails.update(int(S) | T for T in self._stop_tails(rest ^ int(S), k))
            self._tails[rest, k] = tails
        return self._tails[rest, k]

    def decode(self, entry: np.ndarray, target: float) -> tuple[list[int], list[int]]:
        """Greedy front construction of the canonical route of value
        ``target``, entering column k by ``entry[k]``: value first, then
        fewest stops, then the lexicographically smallest column sequence
        (bundles canonicalized by smallest bit mask).  Returns its columns
        and bundles; raises ``_ReconstructionTie`` when every continuation
        of value ``target`` revisits a column."""
        memo: dict[tuple[int, int], int] = {}
        self._tails = {}
        self._rows = {0: self.F[0]}
        cols: list[int] = []
        bundles: list[int] = []
        mask = len(self.F) - 1
        arrival = entry
        visited = 0
        while mask:
            choices = [
                (1 + self._fewest_stops(mask ^ A, k, memo), k, A)
                for k, A in self._transitions(mask, arrival, target)
                if not visited >> k & 1
            ]
            if not choices:
                raise _ReconstructionTie
            _, k, A = min(choices)
            cols.append(k)
            bundles.append(A)
            visited |= 1 << k
            mask ^= A
            arrival = self.legs[k]
            if mask:
                target = float(self._b_row(mask)[k])
        return cols, bundles

    def _fewest_stops(self, mask: int, si: int, memo: dict) -> int:
        """Fewest stops of an optimal completion of ``mask`` from column si,
        memoized in ``memo``.  A method rather than a cached closure: a
        closure that calls itself is a reference cycle, which would keep the
        tables alive after the solve until the collector runs."""
        if mask == 0:
            return 0
        if (mask, si) not in memo:
            memo[mask, si] = min(
                (1 + self._fewest_stops(mask ^ A, sj, memo)
                 for sj, A in self._transitions(mask, self.legs[si], self._b_row(mask)[si])),
                default=len(self.park) + self.n,
            )
        return memo[mask, si]


class _Searcher:
    """The branch-and-bound over parking sequences, on the true drive matrix.
    bundle[A, s]: walk cost of bundle A from spot column s, inf where A
    cannot be served from there.  dsum[mask]: the summed per-customer share
    of the cheapest walk-plus-park increment over the customers of ``mask``;
    a customer's share is the least, over its sets and the spots, of the
    set's walk cost divided by its size plus the spot's park time divided by
    n.  Off the triangle inequality (``metric_drive`` false) a stop may pass
    through, serving no one."""

    def __init__(self, inst: Instance, cat: ServiceSetCatalog, metric_drive: bool):
        n = inst.n
        self.full = (1 << n) - 1
        self.spots = inst.spots
        self.metric_drive = metric_drive
        costs = cat.walk_cost_table()
        self.bundle = PartitionTable(inst.customers, [s.members for s in cat.sets], costs).value
        sizes = np.array([s.size for s in cat.sets])
        share = (costs / sizes[:, None] + inst.park_time[list(self.spots)] / n).min(axis=1)
        holds = (cat.masks[:, None] >> np.arange(n) & 1) == 1
        delta = np.where(holds, share[:, None], np.inf).min(axis=0)  # per bit
        # dsum[mask] = dsum[mask minus its lowest bit] + delta[lowest bit]:
        # double over the bits from the highest down, interleaving each new bit
        dsum = np.zeros(1)
        for b in range(n - 1, -1, -1):
            dsum = np.stack((dsum, dsum + delta[b]), axis=1).ravel()
        self.dsum = dsum
        # the search reads Python floats, not boxed np.float64 scalars: the
        # (n+1)^2 drive matrix and the park times as lists, and the 2^n-row
        # tables through zero-copy memoryviews, one per spot column of bundle
        self.drive_rows = D = inst.drive.tolist()
        self.park_list = inst.park_time.tolist()
        self.walk_cols = [memoryview(self.bundle[:, bi]) for bi in range(len(self.spots))]
        self.dsum_view = memoryview(dsum)
        # the tail bounds' minima, sorted once: per spot the (drive to spot k,
        # column of k) pairs, and the (drive home from k, column of k) pairs;
        # a node's minimum over its unvisited spots is the first unvisited entry
        self.legs = [sorted((D[i][k], bk) for bk, k in enumerate(self.spots)) for i in self.spots]
        self.homes = sorted((D[k][0], bk) for bk, k in enumerate(self.spots))

    def expand(self, ctl: _Control, served: int, visited: int, loc: int, g: float,
               stops: tuple[int, ...], bundles: tuple[int, ...], node_lb: float):
        U = self.full & ~served
        if not ctl.stopped:
            ctl.nodes += 1
            ctl.work += (len(self.spots) - visited.bit_count()) << U.bit_count()
            ctl.stopped = ctl.work >= SEARCH_LIMIT
        if ctl.stopped:
            ctl.abandon(node_lb)
            return
        D, P, dsum = self.drive_rows, self.park_list, self.dsum_view
        cut = ctl.best_value + _EPS
        kids = []
        for bi, i in enumerate(self.spots):
            if visited >> bi & 1:
                continue
            arrive = g + D[loc][i] + P[i]
            vis2 = visited | (1 << bi)
            tail_leg = tail_home = _INF
            for d, bk in self.legs[bi]:
                if not vis2 >> bk & 1:
                    tail_leg = d
                    break
            for d, bk in self.homes:
                if not vis2 >> bk & 1:
                    tail_home = d
                    break
            walks = self.walk_cols[bi]
            A = U
            while A:
                walk = walks[A]
                if walk < _INF:
                    cg = arrive + walk
                    rem = U & ~A
                    if rem == 0:
                        cand = cg + D[i][0]
                        if cand <= cut:
                            ctl.offer(cand, stops + (i,), bundles + (A,))
                            cut = ctl.best_value + _EPS
                    else:
                        lb = cg + dsum[rem] + tail_leg + tail_home
                        if lb <= cut:
                            kids.append((lb, i, A, bi, cg))
                A = (A - 1) & U
            if not self.metric_drive and U:
                lb = arrive + dsum[U] + tail_leg + tail_home
                if lb <= cut:
                    kids.append((lb, i, 0, bi, arrive))
        # (i, A) is unique within a node, so bi and cg never decide the order
        kids.sort()
        for lb, i, A, bi, cg in kids:
            if ctl.stopped:
                ctl.abandon(lb)
                continue
            if lb > ctl.best_value + _EPS:
                continue
            self.expand(
                ctl, served | A, visited | (1 << bi), i, cg,
                stops + (i,), bundles + (A,), lb,
            )


def _materialize(inst: Instance, cat: ServiceSetCatalog, stops: tuple[int, ...], bundles) -> Solution:
    """Split each stop's bundle into walking sets with ``solve_ssa``: its
    candidates come in catalog order and ``walk_tour`` prices them within
    1e-12 of the catalog's table, inside the split's 1e-9 tolerance."""
    served = []
    for i, mask in zip(stops, bundles):
        members = [c for c in inst.customers if mask >> (c - 1) & 1]
        served.append(tuple(solve_ssa(inst, cat, i, members)[0]))
    return assemble_solution(inst, stops, served)


def solve_exact(inst: Instance, cat: ServiceSetCatalog) -> ExactResult:
    """Solve to proven optimality within ``SEARCH_LIMIT``.

    Returns the solution, a status, and a lower bound valid in every status.
    Deterministic: cost ties resolve the same way on every run, and the
    search limit counts work, so a stopped search stops at the same node.
    The DP runs first and has no limit: on the drive matrix itself when it
    is metric, else on its closure, whose value is a proven floor.  Its
    decoded solution, costed on the true drive matrix, is optimal when it
    meets the floor, which always holds on a metric matrix.  Otherwise it is
    the branch-and-bound's incumbent and the floor its root bound; after a
    decode tie the search starts with the floor alone.
    """
    check_catalog(inst, cat)
    n = inst.n
    if n > DP_MAX_CUSTOMERS:
        raise ResourceLimitError(f"exact search supports up to {DP_MAX_CUSTOMERS} customers, got {n}")
    costs = cat.walk_cost_table()
    covered = int(np.bitwise_or.reduce(cat.masks[np.isfinite(costs).any(axis=1)]))
    missing = [c for c in inst.customers if not covered >> (c - 1) & 1]
    if missing:
        raise InfeasibleInstanceError(f"customers {missing} appear in no admissible set")
    # off the triangle inequality the branch-and-bound lets a stop pass
    # through, serving no one, and the DP drives on the closure instead
    metric_drive = _triangle_stats(inst.drive)[0] == 0
    D = inst.drive if metric_drive else _closure(inst.drive)
    S = list(inst.spots)  # the DP's columns, in ascending spot id
    dp = _Completion(n, cat.masks, costs, max(s.size for s in cat.sets), inst.park_time[S], D[np.ix_(S, S)], D[S, 0])
    entry, states = D[0, S], dp.F.size

    load = n * inst.load_per_package
    # the DP relaxes every solution, so its value plus loading is a floor
    value = dp.value(entry)
    floor = value + load
    try:
        cols, bundles = dp.decode(entry, value)
        stops, bundles = tuple(S[k] for k in cols), tuple(bundles)
        sol = _materialize(inst, cat, stops, bundles)
    except _ReconstructionTie:
        sol = None  # no canonical decode; the search starts without an incumbent
    del dp  # the search reads none of the DP's tables
    if sol is not None and sol.total <= floor + _EPS:
        return ExactResult(solution=sol, status="optimal", bound=floor, value=sol.total, nodes=states)

    searcher = _Searcher(inst, cat, metric_drive)
    ctl = _Control()
    if sol is not None:
        ctl.offer(sol.total, stops, bundles)
    # search in completion-time space: the constant loading term is folded in
    # up front so incumbent totals and bounds are directly comparable
    searcher.expand(ctl, 0, 0, 0, load, (), (), floor)

    if ctl.best_state is None:
        return ExactResult(solution=None, status="timeout", bound=floor, value=None, nodes=ctl.nodes)
    sol = _materialize(inst, cat, *ctl.best_state)
    if ctl.stopped:
        return ExactResult(
            solution=sol, status="feasible",
            bound=max(min(ctl.abandoned_lb, ctl.best_value), floor), value=sol.total, nodes=ctl.nodes,
        )
    return ExactResult(
        solution=sol, status="optimal", bound=ctl.best_value, value=sol.total, nodes=ctl.nodes,
    )


def check_feasible(inst: Instance, cat: ServiceSetCatalog, sol: Solution) -> list[str]:
    """Coverage, capacity, stop-structure, and catalog-admissibility checks.
    Returns an empty list when the solution is feasible."""
    check_catalog(inst, cat)
    violations = structural_violations(inst, sol.stops, sol.served)
    for s, stop_sets in zip(sol.stops, sol.served):
        for order in stop_sets:
            members = tuple(sorted(order))
            try:
                j = cat.index_of(members)
            except KeyError:
                violations.append(f"set {members} not in catalog")
                continue
            if not cat.admissible(s, j):
                violations.append(f"pair (spot {s}, set {members}) inadmissible under reduced catalog")
    return violations
