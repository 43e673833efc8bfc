"""Service-set catalog: feasible customer sets, exact walking-tour costs, the
parked-customer variable reduction, and the subset-partition table.

A service set is a group of customers served in one walking loop from a parked
vehicle.  The catalog enumerates every set that fits the carrier capacity
(count, weight, volume), growing each from a smaller set that fits, as the
heuristic's candidates grow.  ``walk_cost_table`` prices every (set, spot)
pair by one subset DP, once per catalog, in one table every reader shares.
``walk_tour``, the one scalar pricer, also returns the walking order: an order
loop up to ``ORDER_LOOP_MAX`` customers, Held-Karp above; its cost lies within
1e-12 above the table's.
``PartitionTable`` splits every subset of a customer group into candidate
walking sets at least cost, per parking spot; the exact solver and the
heuristic's set assignment both read their splits from it.  It fills its
table with ``_set_layers``, the one subset fill, which the exact DP's
completion step reads too.  The fill reads set-bit positions from the plan
of ``tsp.layer_runs``, one byte per (mask, set bit), built once per n, and
each layer's small subsets as an incidence matrix, built once per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, combinations, pairwise, permutations

import numpy as np

from .errors import ResourceLimitError, UnsupportedError
from .instance import Instance
from .tsp import CHUNK, held_karp_cycle, layer_runs

MAX_WALK_SET = 12
ORDER_LOOP_MAX = 4  # walk_tour's larger sets go through Held-Karp, faster from five customers on
DEFAULT_PAIR_CAP = 20_000_000


@dataclass(frozen=True, order=True)
class ServiceSet:
    """A nonempty, sorted, duplicate-free customer group within capacity;
    ``ServiceSetCatalog`` checks all but the capacity."""

    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class ServiceSetCatalog:
    """Enumerated sets in lexicographic (size, members) order plus pair
    admissibility after the reduction that bans serving a multi-customer set
    from the location of one of its own members.
    """

    inst: Instance
    sets: tuple[ServiceSet, ...]
    reduced: bool = False
    _index: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)
    masks: np.ndarray = field(init=False, repr=False, compare=False)  # set j: bit c - 1 for customer c
    _table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        """Refuse a set that is empty, is not strictly increasing customer ids
        in 1..n, or repeats another, then build the sets' bit masks."""
        self._index = {s.members: j for j, s in enumerate(self.sets)}
        sizes = np.array([s.size for s in self.sets], dtype=np.intp)
        members = np.fromiter(chain.from_iterable(s.members for s in self.sets), dtype=np.intp)
        next_set = np.diff(np.repeat(np.arange(len(sizes)), sizes)) > 0  # between members of two sets
        if not sizes.all() or not (next_set | (np.diff(members) > 0)).all() \
                or ((members < 1) | (members > self.inst.n)).any() or len(self._index) < len(self.sets):
            raise UnsupportedError(
                f"catalog sets must be nonempty, distinct and strictly increasing customer ids in 1..{self.inst.n}"
            )
        one = np.ones((), dtype=np.int64 if self.inst.n < 64 else object)  # Python ints past 63 customers
        self.masks = np.add.reduceat(np.left_shift(one, members - 1), np.cumsum(sizes) - sizes)
        self.masks.flags.writeable = False

    def index_of(self, members) -> int:
        return self._index[tuple(sorted(members))]

    def sets_containing(self, customer: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.masks >> (customer - 1) & 1).tolist())

    def admissible(self, parking: int, j: int) -> bool:
        return not (self.reduced and self.sets[j].size >= 2 and parking in self.sets[j].members)

    def pair_count(self) -> int:
        return len(self.inst.spots) * len(self.sets)

    def admissible_pair_count(self) -> int:
        return self.pair_count() - self.removed_pair_count()

    def removed_pair_count(self) -> int:
        if not self.reduced:
            return 0
        spots = set(self.inst.spots)  # admissible refuses only a spot inside the set
        return sum(not self.admissible(c, j) for j, s in enumerate(self.sets) for c in s.members if c in spots)

    def precompute_walk_costs(self) -> None:
        """Fill the walk-cost table that ``walk_cost_table`` returns."""
        self.walk_cost_table()

    def walk_cost_table(self) -> np.ndarray:
        """``table[j, s]``: the walk cost of set j from spot ``inst.spots[s]``,
        inf where the pair is inadmissible.  Filled on the first call and
        returned, read-only, by every later one.  A forward subset DP (Held &
        Karp 1962) over the sets' subsets T, a popcount layer at a time:
        ``path[T, j, s] = min_i path[T - j, i, s] + W[i, j]``, and a set's loop
        is ``min_j path[T, j, s] + W[j, s]``.  Float addition is monotone, so
        each entry is the least left-to-right sum of legs over the set's orders."""
        if self._table is not None:
            return self._table
        W = self.inst.walk
        p = np.array(self.inst.spots)
        sizes = np.array([s.size for s in self.sets], dtype=np.intp)
        top = int(sizes.max(initial=0))
        if top > MAX_WALK_SET:
            raise UnsupportedError(f"walking sets larger than {MAX_WALK_SET} are unsupported, got {top}")
        one = np.ones((), dtype=self.masks.dtype)
        layers, below = [], self.masks[:0]  # layers[k - 1]: the distinct k-subsets, increasing, and their bits
        for k in range(top, 0, -1):
            keys = np.sort(np.concatenate((self.masks[sizes == k], below)))
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            pos = np.nonzero(keys[:, None] >> np.arange(self.inst.n) & 1)[1].reshape(-1, k)
            layers.insert(0, (keys, pos))
            below = (keys[:, None] ^ np.left_shift(one, pos)).ravel()
        table = np.empty((len(self.sets), len(p)))
        for k, (keys, pos) in enumerate(layers, 1):
            if k == 1:
                path = W[p, pos + 1][:, None]
            else:
                step = np.empty((len(keys), k, len(p)))
                for t in range(k):
                    v = path[np.searchsorted(layers[k - 2][0], keys ^ np.left_shift(one, pos[:, t]))]
                    v += W[pos[:, np.arange(k) != t] + 1, pos[:, t, None] + 1][:, :, None]
                    step[:, t] = v.min(axis=1)
                path = step
            js = np.flatnonzero(sizes == k)
            r = np.searchsorted(keys, self.masks[js])
            table[js] = np.min([path[r, t] + W[pos[r, t, None] + 1, p] for t in range(k)], axis=0)
        if self.reduced:  # admissible's ban: a set of two or more from a member's spot
            table[(sizes[:, None] >= 2) & (self.masks[:, None] >> (p - 1) & 1 == 1)] = np.inf
        table.flags.writeable = False
        self._table = table
        return table


def check_catalog(inst: Instance, cat: ServiceSetCatalog | None) -> None:
    """Refuse a catalog enumerated for another instance, whose sets and costs it holds."""
    if cat is not None and cat.inst is not inst:
        raise UnsupportedError("catalog was enumerated for a different instance")


def enumerate_catalog(inst: Instance) -> ServiceSetCatalog:
    """All customer subsets satisfying every active capacity, smallest first.

    Raises once the (parking, set) pair count would exceed
    ``DEFAULT_PAIR_CAP``; at that point use the heuristic pipeline instead.
    """
    if inst.capacity_count is None and inst.capacity_weight is None and inst.capacity_volume is None:
        raise UnsupportedError("need a package-count, weight, or volume capacity to bound the catalog")
    sets = _fitting_sets(inst, inst.customers, DEFAULT_PAIR_CAP // len(inst.spots))
    return ServiceSetCatalog(inst=inst, sets=tuple(ServiceSet(members) for members in sets))


def _fitting_sets(inst: Instance, customers, limit: float = math.inf) -> list[tuple[int, ...]]:
    """Every nonempty group of the increasing ``customers`` that fits the
    instance's capacities, in (size, members) order.  Weights and volumes
    are non-negative, so every subset of a group that fits fits too: each
    group grows from a fitting one by a customer above its largest member.
    A lone package always fits, as the ``Instance`` constructor checks.
    Growth ends at the first group over the count capacity, since every group
    still to grow is as large.  Raises once more than ``limit`` groups fit,
    the catalog's pair cap over its spots."""
    after = {c: customers[i + 1:] for i, c in enumerate(customers)}
    sets = [(c,) for c in customers]
    for members in sets:  # the list grows as it is read: one size after another
        for c in after[members[-1]]:
            over = inst.over_capacity(grown := members + (c,))
            if "package" in over:
                return sets
            if not over:
                sets.append(grown)
        if len(sets) > limit:
            raise ResourceLimitError(
                f"catalog would hold more than {DEFAULT_PAIR_CAP} (parking, set) pairs. "
                "Use the heuristic solver for instances of this size."
            )
    return sets


def reduce_catalog(cat: ServiceSetCatalog) -> ServiceSetCatalog:
    """Ban every (parking i, set) pair where i is a member of a set of size
    >= 2: serving the parked customer alone first is never worse, so the pairs
    can be dropped without losing any optimal value."""
    return ServiceSetCatalog(inst=cat.inst, sets=cat.sets, reduced=True)


# ---------------------------------------------------------------------------
# walking tours

def walk_time(inst: Instance, parking: int, members) -> float:
    """Minimum walking-loop time from the parking spot through all members and
    back.  Exact for up to MAX_WALK_SET customers."""
    return walk_tour(inst, parking, members)[0]


def walk_tour(inst: Instance, parking: int, members) -> tuple[float, tuple[int, ...]]:
    """Exact minimum walking loop plus its service order.

    Up to ``ORDER_LOOP_MAX`` customers the order loop decides: of the orders
    within 1e-12 of the cheapest, the first in lexicographic order wins, so
    decoded solutions are deterministic.  Larger sets go through Held-Karp.
    The cost lies within 1e-12 above ``walk_cost_table``'s.
    """
    ms = tuple(sorted(members))
    m = len(ms)
    if m == 0:
        raise UnsupportedError("walking tour of an empty set")
    if m > MAX_WALK_SET:
        raise UnsupportedError(f"walking sets larger than {MAX_WALK_SET} are unsupported, got {m}")
    W = inst.walk
    if m <= ORDER_LOOP_MAX:
        best = None
        for order in permutations(ms):
            cost = 0.0  # plus the legs, left to right
            for a, b in pairwise((parking, *order, parking)):
                cost += W.item(a, b)
            if best is None or cost < best[0] - 1e-12:
                best = (cost, order)
        return best
    ids = (parking,) + ms
    cost, order = held_karp_cycle(W[np.ix_(ids, ids)])
    return cost, tuple(ms[v - 1] for v in order)


# ---------------------------------------------------------------------------
# subset partition

@cache
def _small_subsets(bits: int, largest: int, lowest: bool) -> np.ndarray:
    """The nonempty subsets of at most ``largest`` of ``bits`` positions,
    smallest first and each size in lexicographic order, as the rows of a
    read-only (count, bits) 0/1 ``float64`` incidence matrix; with
    ``lowest``, only those holding position 0."""
    subsets = [s for k in range(1, min(bits, largest) + 1)
               for s in combinations(range(bits), k) if s[0] == 0 or not lowest]
    table = np.zeros((len(subsets), bits))
    rows = np.repeat(np.arange(len(subsets)), [len(s) for s in subsets])
    table[rows, list(chain.from_iterable(subsets))] = 1.0
    table.flags.writeable = False
    return table


def _set_layers(n: int, masks: np.ndarray, costs: np.ndarray, largest: int, table: np.ndarray, lowest: bool):
    """Yield (M, least) for runs of the nonempty masks of n bits from
    ``layer_runs``, one popcount layer at a time from one bit up:
    ``least[i, s]`` is the least ``costs[j, s] + table[M[i] ^ masks[j], s]``
    over the sets j inside M[i], or with ``lowest`` over those holding its
    lowest bit; inf where none.

    Sets are distinct and hold at most ``largest`` bits.  A mask reads
    ``table`` only at masks with fewer bits, which the caller has written by
    then.  A run holds at most ``CHUNK`` masks.  Each mask is priced against
    its subsets of at most ``largest`` bits, in blocks of at most
    ``2 * CHUNK`` (subset, mask) pairs; a layer with more subsets than that
    goes one mask at a time, its subsets ``2 * CHUNK`` at a time.  A block's
    subset masks are one float64 product of the layer's incidence matrix with
    the masks' bit values, exact in any order of summation up to n = 53."""
    cols = table.shape[1]
    # walk[row[A]]: the cost of set A; a mask that is no set reads the
    # trailing inf row
    walk = np.vstack((costs, np.full(cols, np.inf)))
    row = np.full(1 << n, len(masks), dtype=np.int32)
    row[masks] = np.arange(len(masks))
    bits = 0
    for M, pos in layer_runs(n, range(1, n + 1), lambda _: CHUNK):
        if pos.shape[1] != bits:  # a new layer
            bits = pos.shape[1]
            subsets = _small_subsets(bits, largest, lowest)
            step = max(1, 2 * CHUNK // len(subsets))
        least = np.empty((len(M), cols))
        for i in range(0, len(M), step):
            m = M[i:i + step]
            # A[k, j]: the k-th small subset of m[j], the sum of its bit values
            A = (subsets @ np.ldexp(1.0, pos[i:i + step].T)).astype(np.int64)
            for lo in range(0, len(A), 2 * CHUNK):  # one pass unless the block is one mask
                a = A[lo:lo + 2 * CHUNK]
                v = np.take(walk, np.take(row, a.ravel()), axis=0)
                v += np.take(table, (m ^ a).ravel(), axis=0)
                # subset by subset: the least is over contiguous slabs
                c = v.reshape(len(a), len(m), cols).min(axis=0)
                least[i:i + step] = c if lo == 0 else np.minimum(least[i:i + step], c)
        yield M, least


class PartitionTable:
    """Cheapest split of every subset of ``customers`` into candidate walking
    sets, for several parking spots at once.

    Bit b of a mask stands for ``customers[b]``.  ``candidates`` lists
    member tuples in catalog order and ``costs[c, s]`` is the walk cost of
    candidate c from spot column s (inf where the pair is inadmissible).
    Candidates must be distinct: the fill looks a set up by its mask, which
    keeps one row per mask.  ``value[mask, s]`` is the least total cost, inf
    when no split exists.  Each mask's split takes a candidate holding its
    lowest bit, so the table is ``_set_layers`` with ``lowest``, the exact
    DP's per-set layer fill.
    """

    def __init__(self, customers, candidates, costs: np.ndarray):
        pos = {c: b for b, c in enumerate(customers)}
        self.masks = np.array(
            [sum(1 << pos[c] for c in members) for members in candidates], dtype=np.int64
        )
        self.costs = np.asarray(costs, dtype=float)
        self._low = self.masks & -self.masks
        k = len(pos)
        self.value = value = np.full((1 << k, self.costs.shape[1]), np.inf)
        value[0] = 0.0
        # without candidates every one-bit subset reads the inf row
        largest = max((len(members) for members in candidates), default=1)
        for M, least in _set_layers(k, self.masks, self.costs, largest, value, True):
            value[M] = least

    def split(self, mask: int, col: int) -> list[int]:
        """Candidate indices of the optimal split of ``mask`` from spot column
        ``col``: at each step, the first candidate in catalog order that holds
        the lowest remaining bit and attains the table value."""
        parts: list[int] = []
        value = self.value[:, col]
        costs = self.costs[:, col]
        while mask:
            fit = np.flatnonzero((self._low == (mask & -mask)) & ((self.masks & ~mask) == 0))
            attains = costs[fit] + value[mask ^ self.masks[fit]] <= value[mask] + 1e-9
            if not attains.any():  # numeric guard; cannot happen for a finite value
                raise RuntimeError("subset partition split failed")
            j = int(fit[np.argmax(attains)])
            parts.append(j)
            mask ^= int(self.masks[j])
        return parts


# ---------------------------------------------------------------------------
# closed-form accounting (count capacity only)

def count_sets(n: int, q: int) -> int:
    """Number of service sets with at most q of n packages."""
    return sum(math.comb(n, s) for s in range(1, q + 1))


def pair_count(n: int, q: int) -> int:
    """Total (parking, set) pairs when every customer location is a spot."""
    return n * count_sets(n, q)


def removed_pair_count(n: int, q: int) -> int:
    """Pairs dropped by the reduction: per spot i, the sets of size >= 2 that
    contain i."""
    return n * sum(math.comb(n - 1, s - 1) for s in range(2, q + 1))


def reduced_pair_count(n: int, q: int) -> int:
    return pair_count(n, q) - removed_pair_count(n, q)
