import time
from dataclasses import replace
from itertools import combinations, permutations, product

import numpy as np
import pytest

from brutes import brute_walk, loop_partition_values, loop_walk_costs
from parkroute import servicesets
from parkroute.errors import ResourceLimitError, UnsupportedError
from parkroute.instance import GridParams, Instance, gen_geo_instance, gen_grid_instance
from parkroute.servicesets import (
    PartitionTable,
    ServiceSet,
    ServiceSetCatalog,
    count_sets,
    enumerate_catalog,
    pair_count,
    reduce_catalog,
    reduced_pair_count,
    removed_pair_count,
    walk_time,
    walk_tour,
)
from parkroute.tsp import layer_runs


def test_pair_counts_n50_reference_values():
    assert pair_count(50, 1) == 2_500
    assert pair_count(50, 2) == 63_750
    assert pair_count(50, 3) == 1_043_750
    assert pair_count(50, 4) == 12_558_750
    assert reduced_pair_count(50, 1) == 2_500
    assert reduced_pair_count(50, 2) == 61_300
    assert reduced_pair_count(50, 3) == 982_500
    assert reduced_pair_count(50, 4) == 11_576_300


def test_enumerated_counts_agree_with_closed_forms():
    inst = gen_geo_instance(9, seed=1, q=3)
    cat = enumerate_catalog(inst)
    assert len(cat.sets) == count_sets(9, 3)
    assert cat.pair_count() == pair_count(9, 3)
    red = reduce_catalog(cat)
    assert red.removed_pair_count() == removed_pair_count(9, 3)
    assert red.admissible_pair_count() == reduced_pair_count(9, 3)


def test_weight_capacity_filters_sets():
    inst = Instance(
        drive=np.zeros((4, 4)), walk=np.zeros((3, 3)), park_time=[1, 1, 1],
        capacity_count=2, capacity_weight=10.0, weights=[5.0, 5.0, 9.0],
    )
    cat = enumerate_catalog(inst)
    assert [s.members for s in cat.sets] == [(1,), (2,), (3,), (1, 2)]


def test_unbounded_count_with_weight_cap_enumerates():
    inst = Instance(
        drive=np.zeros((4, 4)), walk=np.zeros((3, 3)), park_time=[1, 1, 1],
        capacity_count=None, capacity_weight=10.0, weights=[5.0, 5.0, 9.0],
    )
    cat = enumerate_catalog(inst)
    assert [s.members for s in cat.sets] == [(1,), (2,), (3,), (1, 2)]


def test_no_capacity_at_all_is_unsupported():
    inst = Instance(drive=np.zeros((3, 3)), walk=np.zeros((2, 2)), park_time=[1, 1])
    with pytest.raises(UnsupportedError):
        enumerate_catalog(inst)


def test_catalog_order_is_size_then_lexicographic():
    inst = gen_geo_instance(4, seed=0, q=3)
    cat = enumerate_catalog(inst)
    keys = [(s.size, s.members) for s in cat.sets]
    assert keys == sorted(keys)


def test_reduction_predicate():
    inst = gen_geo_instance(5, seed=2, q=3)
    cat = enumerate_catalog(inst)
    red = reduce_catalog(cat)
    for j, s in enumerate(red.sets):
        for i in inst.spots:
            expected = not (s.size >= 2 and i in s.members)
            assert red.admissible(i, j) == expected
            assert cat.admissible(i, j)  # unreduced admits everything


def test_walk_time_zero_at_own_singleton():
    inst = gen_geo_instance(4, seed=3)
    assert walk_time(inst, 2, (2,)) == 0.0


def test_a_near_zero_diagonal_is_stored_as_exact_zero():
    walk = np.array([[5e-10, 2.0, 3.0], [2.0, 5e-10, 1.0], [3.0, 1.0, 5e-10]])
    drive = np.array([[5e-10, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 5e-10]])
    given = walk.copy(), drive.copy()
    inst = Instance(drive=drive, walk=walk, park_time=[1, 1, 1], capacity_count=2)
    for mat in (inst.walk, inst.drive):
        assert (np.diag(mat) == 0.0).all()
    for c in inst.customers:
        assert walk_tour(inst, c, (c,)) == (0.0, (c,))
    assert np.array_equal(walk, given[0]) and np.array_equal(drive, given[1])


def test_walk_time_out_and_back():
    inst = gen_geo_instance(4, seed=3)
    assert walk_time(inst, 1, (3,)) == pytest.approx(2 * inst.W(1, 3))


def test_walk_time_pair_example():
    # W(i,a)=2, W(i,b)=5, W(a,b)=2 with i=1, a=2, b=3 -> tour 2+2+5 = 9 via (a, b)
    walk = np.array([[0, 2, 5], [2, 0, 2], [5, 2, 0.0]])
    inst = Instance(drive=np.zeros((4, 4)), walk=walk, park_time=[1, 1, 1], capacity_count=2)
    cost, order = walk_tour(inst, 1, (2, 3))
    assert cost == pytest.approx(9.0)
    assert order == (2, 3)


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_walk_time_matches_permutation_brute_force(size):
    inst = gen_geo_instance(8, seed=size, q=6)
    members = tuple(range(2, 2 + size))
    for parking in (1, 2):
        assert walk_time(inst, parking, members) == pytest.approx(
            brute_walk(inst, parking, members), abs=1e-9
        )
    if size > 5:
        return
    # every set of this size in a q = 4 or 5 catalog, from every spot, reduced and not
    cat = enumerate_catalog(gen_geo_instance(7, seed=size, q=max(4, size)))
    for c in (cat, reduce_catalog(cat)):
        table = c.walk_cost_table()
        for j, s in enumerate(c.sets):
            if s.size != size:
                continue
            for col, i in enumerate(c.inst.spots):
                cost = pytest.approx(brute_walk(c.inst, i, s.members), abs=1e-9)
                assert walk_time(c.inst, i, s.members) == cost
                assert table[j, col] == (cost if c.admissible(i, j) else np.inf)


def test_walk_tour_takes_the_first_order_within_the_tie_tolerance():
    # rectilinear walks at a rate of 1.6 tie exactly on many orders of four
    inst = gen_grid_instance(GridParams(sqrt_n=4, walk_rate=1.6, capacity=4))
    W = inst.walk
    p = np.array(inst.spots)
    members = np.array(list(combinations(inst.customers, 4)))
    orders = list(permutations(range(4)))
    # costs[k, set, spot]: order k's loop, legs summed left to right
    costs = np.array([
        W[p, members[:, o[0], None]] + W[members[:, o[0]], members[:, o[1]]][:, None]
        + W[members[:, o[1]], members[:, o[2]]][:, None] + W[members[:, o[2]], members[:, o[3]]][:, None]
        + W[members[:, o[3], None], p]
        for o in orders
    ])
    near = costs <= costs.min(axis=0) + 1e-12
    assert (near.sum(axis=0) > 1).any()  # ties do occur
    first = np.argmax(near, axis=0)
    for r, ms in enumerate(members.tolist()):
        for col, i in enumerate(inst.spots):
            k = first[r, col]
            assert walk_tour(inst, i, ms) == (costs[k, r, col], tuple(ms[v] for v in orders[k]))


def test_walk_tour_ties_break_lexicographically():
    # symmetric W makes both pair orders equal; the smaller sequence wins
    inst = gen_geo_instance(5, seed=9)
    cost, order = walk_tour(inst, 1, (4, 3))
    assert cost == pytest.approx(brute_walk(inst, 1, (3, 4)), abs=1e-12)
    assert order == (3, 4)


def test_walk_time_respects_asymmetric_matrices():
    walk = np.array([[0, 3, 1], [5, 0, 1], [1, 1, 0.0]])
    inst = Instance(drive=np.zeros((4, 4)), walk=walk, park_time=[1, 1, 1], capacity_count=2)
    assert walk_time(inst, 1, (2,)) == pytest.approx(3 + 5)  # out and back differ
    assert walk_time(inst, 1, (2, 3)) == pytest.approx(
        min(3 + 1 + 1, 1 + 1 + 5)  # both service orders priced directionally
    )


def test_walk_set_size_cap():
    inst = gen_geo_instance(14, seed=1, q=13)
    with pytest.raises(UnsupportedError):
        walk_time(inst, 1, tuple(range(1, 14)))


def test_pair_cap_resource_error(monkeypatch):
    inst = gen_geo_instance(12, seed=4, q=4)
    monkeypatch.setattr(servicesets, "DEFAULT_PAIR_CAP", 100)
    with pytest.raises(ResourceLimitError):
        enumerate_catalog(inst)


def test_pair_cap_stops_the_enumeration_as_the_catalog_grows():
    # 100 spots cap the catalog at 200,000 sets; the sets of up to three
    # customers number 166,750, and those of four 3,921,225, which the
    # enumeration must not build before it stops
    inst = gen_geo_instance(100, seed=1, q=5)
    start = time.monotonic()
    with pytest.raises(ResourceLimitError, match="more than 20000000"):
        enumerate_catalog(inst)
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("n", [14, 16])
def test_weight_and_volume_catalogs_hold_every_subset_that_fits(n):
    # no count capacity: the catalog grows only the sets that fit, and holds
    # exactly the subsets that fit, in (size, members) order
    rng = np.random.default_rng(n)
    inst = replace(gen_geo_instance(n, seed=n, q=None), weights=rng.integers(1, 5, n).astype(float),
                   capacity_weight=7.0, volumes=rng.uniform(0.5, 3.0, n), capacity_volume=4.5)
    cat = enumerate_catalog(inst)
    fits = [m for k in range(1, n + 1) for m in combinations(inst.customers, k)
            if sum(inst.weights[list(m)]) <= 7.0 + 1e-9 and sum(inst.volumes[list(m)]) <= 4.5 + 1e-9]
    assert [s.members for s in cat.sets] == fits


def test_a_weight_only_catalog_at_n_30_is_enumerated_at_once():
    # unit weights and a weight capacity of 3: the 4,525 sets of at most
    # three customers, without testing the other 2^30 subsets
    inst = replace(gen_geo_instance(30, seed=1, q=None), weights=np.ones(30), capacity_weight=3.0)
    start = time.monotonic()
    cat = enumerate_catalog(inst)
    assert time.monotonic() - start < 1.0
    assert [s.members for s in cat.sets] == [m for k in (1, 2, 3) for m in combinations(inst.customers, k)]


def test_removed_pairs_closed_form_small():
    # removed = n * sum_{s=2..q} C(n-1, s-1)
    for n, q in [(4, 2), (5, 3), (6, 3)]:
        inst = gen_geo_instance(n, seed=n, q=q)
        red = reduce_catalog(enumerate_catalog(inst))
        assert red.removed_pair_count() == removed_pair_count(n, q)


def test_walk_cost_table_is_filled_once_and_matches_walk_tour():
    # sets of up to five customers, reduced and not: the table is the
    # permutation minimum, and walk_tour's cost lies within 1e-12 above it
    for q, reduced in product((4, 5), (False, True)):
        inst = gen_geo_instance(7, seed=12, q=q)
        cat = enumerate_catalog(inst)
        if reduced:
            cat = reduce_catalog(cat)
        assert cat._table is None
        cat.precompute_walk_costs()
        table = cat._table
        assert table is not None
        assert cat.walk_cost_table() is table
        assert cat.walk_cost_table() is table
        assert not table.flags.writeable
        assert np.array_equal(table, loop_walk_costs(cat))
        j = cat.index_of((2, 4))
        cost, order = walk_tour(inst, 1, (2, 4))
        assert table[j, inst.spots.index(1)] <= cost <= table[j, inst.spots.index(1)] + 1e-12
        assert sorted(order) == [2, 4]


def _table_cases():
    for q in range(1, 7):
        yield f"geo-q{q}", enumerate_catalog(gen_geo_instance(9 if q <= 4 else 7, seed=q, p=5.0, q=q))
    yield "grid", enumerate_catalog(gen_grid_instance(GridParams(sqrt_n=4, walk_rate=1.6, capacity=4)))
    yield "parking-subset", enumerate_catalog(replace(gen_geo_instance(9, 3, p=1.3, q=4), parking_locations=(1, 4, 7, 8)))
    # no singletons of 1 and 2: the fill adds the subsets itself
    inst = gen_geo_instance(3, seed=1, p=2.0, q=3)
    yield "hand-made", ServiceSetCatalog(inst=inst, sets=(ServiceSet((1, 2)), ServiceSet((3,))))


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("name", [name for name, _ in _table_cases()])
def test_walk_cost_table_is_the_permutation_minimum(name, reduced):
    cat = dict(_table_cases())[name]
    if reduced:
        cat = reduce_catalog(cat)
    table = cat.walk_cost_table()
    assert np.array_equal(table, loop_walk_costs(cat))
    for j, s in enumerate(cat.sets):
        for col, i in enumerate(cat.inst.spots):
            if np.isfinite(table[j, col]):
                assert table[j, col] <= walk_tour(cat.inst, i, s.members)[0] <= table[j, col] + 1e-12


def test_walk_cost_table_refuses_a_set_above_the_walk_set_cap():
    inst = gen_geo_instance(14, seed=1, q=13)
    cat = ServiceSetCatalog(inst=inst, sets=(ServiceSet((1,)), ServiceSet(tuple(range(1, 14)))))
    with pytest.raises(UnsupportedError):
        cat.walk_cost_table()


def test_walk_cost_table_loads_no_masked_arrays(monkeypatch):
    # np.unique and np.union1d import numpy.ma, which the fill does not need
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(np, "unique", refuse)
    monkeypatch.setattr(np, "union1d", refuse)
    cat = reduce_catalog(enumerate_catalog(gen_geo_instance(8, seed=2, q=4)))
    assert np.array_equal(cat.walk_cost_table(), loop_walk_costs(cat))


def test_catalog_masks_past_63_customers():
    # the masks hold Python ints once a customer's bit leaves int64
    inst = gen_geo_instance(70, seed=1, q=1)
    cat = ServiceSetCatalog(inst=inst, sets=(ServiceSet((1,)), ServiceSet((69, 70)), ServiceSet((70,))))
    assert cat.masks.tolist() == [1, (1 << 68) | (1 << 69), 1 << 69]
    assert np.array_equal(cat.walk_cost_table(), loop_walk_costs(cat))
    small = enumerate_catalog(gen_geo_instance(6, seed=1, q=3))
    assert small.masks.dtype == np.int64
    assert small.masks.tolist() == [sum(1 << (c - 1) for c in s.members) for s in small.sets]


@pytest.mark.parametrize("sets", [
    ((1, 1), (3,)),  # a repeated customer would take customer 2's bit
    ((2, 1), (3,)),  # unsorted: the catalog's index would miss the set
    ((), (1,)),
    ((1,), (5,)),  # past n
    ((0, 1),),
    ((1, 2), (3,), (1, 2)),  # a set twice
], ids=["repeat", "unsorted", "empty", "past-n", "zero", "twice"])
def test_a_malformed_catalog_is_refused_where_it_is_built(sets):
    inst = gen_geo_instance(4, seed=1, q=3)
    with pytest.raises(UnsupportedError, match="catalog sets must be"):
        ServiceSetCatalog(inst=inst, sets=tuple(ServiceSet(s) for s in sets))


def test_removed_pair_count_of_an_unreduced_catalog_is_zero_at_once(monkeypatch):
    cat = enumerate_catalog(gen_geo_instance(8, seed=2, q=3))
    monkeypatch.setattr(ServiceSetCatalog, "admissible", None)
    assert cat.removed_pair_count() == 0
    assert cat.admissible_pair_count() == cat.pair_count()


@pytest.mark.parametrize(
    "make", [reduce_catalog, lambda cat: replace(cat, reduced=True)], ids=["reduce_catalog", "replace"]
)
def test_reduced_catalog_gets_its_own_walk_cost_table(make):
    inst = gen_geo_instance(6, seed=12, q=4)
    cat = enumerate_catalog(inst)
    full = cat.walk_cost_table()
    assert np.isfinite(full).all()
    red = make(cat)
    assert red.reduced and red._table is None
    table = red.walk_cost_table()
    assert table is not full
    assert np.array_equal(table, loop_walk_costs(red))
    banned = [
        (j, col) for j in range(len(red.sets)) for col, i in enumerate(inst.spots) if not red.admissible(i, j)
    ]
    assert len(banned) == red.removed_pair_count() > 0
    assert all(np.isinf(table[j, col]) for j, col in banned)
    assert cat.walk_cost_table() is full


def test_every_customer_has_its_singleton():
    inst = gen_geo_instance(7, seed=8, q=2)
    cat = enumerate_catalog(inst)
    for c in inst.customers:
        assert cat.index_of((c,)) in cat.sets_containing(c)


@pytest.mark.parametrize("k", range(5))
def test_partition_table_equals_the_per_mask_loop_at_small_k(k):
    # a customer without a singleton and two only served together leave masks
    # that no candidate split covers (inf rows); integer costs make ties
    customers = tuple(range(11, 11 + k))
    candidates = [m for m in [(11,), (13,), (11, 12), (13, 14), (11, 12, 13), (12, 13, 14)] if set(m) <= set(customers)]
    rng = np.random.default_rng(k)
    costs = rng.integers(0, 4, size=(len(candidates), 2)).astype(float)
    costs[rng.random(costs.shape) < 0.2] = np.inf
    part = PartitionTable(customers, candidates, costs)
    want = loop_partition_values(customers, candidates, costs)
    assert np.array_equal(part.value, want)
    if k == 4:
        assert np.isinf(part.value[0b0010]).all()  # customer 12 alone


@pytest.mark.parametrize("chunk", [2, 5, 16])
def test_partition_table_in_small_chunks(monkeypatch, chunk):
    # a CHUNK below a layer's subset count sends every mask through one at a
    # time, its subsets a CHUNK at a time
    inst = gen_geo_instance(8, 2, p=5.0, q=4)
    cat = enumerate_catalog(inst)
    candidates = [s.members for s in cat.sets]
    costs = cat.walk_cost_table()
    monkeypatch.setattr(servicesets, "CHUNK", chunk)
    assert np.array_equal(
        PartitionTable(inst.customers, candidates, costs).value,
        loop_partition_values(inst.customers, candidates, costs),
    )


def test_partition_table_with_more_spot_columns_than_subsets():
    # 300 columns, integer costs with ties and inf entries: more columns
    # than any layer has subsets
    customers = (2, 3, 5, 7, 11, 13)
    candidates = [m for size in (1, 2, 3) for m in combinations(customers, size)]
    rng = np.random.default_rng(3)
    costs = rng.integers(0, 6, size=(len(candidates), 300)).astype(float)
    costs[rng.random(costs.shape) < 0.3] = np.inf
    assert np.array_equal(
        PartitionTable(customers, candidates, costs).value,
        loop_partition_values(customers, candidates, costs),
    )


@pytest.mark.parametrize("k", [0, 1, 3])
def test_partition_table_without_candidates(k):
    customers = tuple(range(1, k + 1))
    part = PartitionTable(customers, [], np.empty((0, 2)))
    assert np.array_equal(part.value, loop_partition_values(customers, [], np.empty((0, 2))))
    assert (part.value[0] == 0.0).all() and np.isinf(part.value[1:]).all()


@pytest.mark.parametrize("largest", range(1, 7))
@pytest.mark.parametrize("lowest", [False, True], ids=["all", "lowest"])
def test_small_subsets_are_the_combinations_in_size_then_lexicographic_order(largest, lowest):
    # row i of the 0/1 incidence matrix holds the positions of the i-th
    # combination; with lowest, only those holding position 0 (uncached, so
    # the test keeps no tables)
    for bits in range(1, 19):
        table = servicesets._small_subsets.__wrapped__(bits, largest, lowest)
        want = [s for k in range(1, min(bits, largest) + 1) for s in combinations(range(bits), k)
                if s[0] == 0 or not lowest]
        assert table.shape == (len(want), bits) and table.dtype == np.float64 and not table.flags.writeable
        assert np.isin(table, (0.0, 1.0)).all()
        assert [tuple(np.flatnonzero(row)) for row in table] == want


def _product_blocks(runs, largest, lowest):
    # the fill's blocks of at most 2 * CHUNK (subset, mask) pairs, or one
    # mask, and the product that gives each block's subset masks
    for M, pos in runs:
        subsets = servicesets._small_subsets(pos.shape[1], largest, lowest)
        step = max(1, 2 * servicesets.CHUNK // len(subsets))
        for i in range(0, len(M), step):
            p = pos[i:i + step]
            yield subsets, p, (subsets @ np.ldexp(1.0, p.T)).astype(np.int64)


def _or_of_positions(subsets, pos):
    # A[k, j]: the OR of 1 << pos[j, b] over the positions b of subset k
    bit = np.left_shift(np.int64(1), pos.T)
    return np.bitwise_or.reduce(np.where(subsets[:, :, None] == 1, bit[None], 0), axis=1)


@pytest.mark.parametrize("lowest", [False, True], ids=["all", "lowest"])
def test_the_products_subset_masks_are_the_or_of_their_bits(lowest):
    # the float64 product sums distinct powers of two below 2^n, exact in
    # any order: on every run of every n <= 14 and on a sample of the runs
    # at n = 18, one-mask blocks (the full layers) included
    def runs(n):
        return list(layer_runs(n, range(1, n + 1), lambda _: servicesets.CHUNK))

    for n in range(1, 15):
        for subsets, pos, A in _product_blocks(runs(n), 6, lowest):
            assert np.array_equal(A, _or_of_positions(subsets, pos))
    for subsets, pos, A in _product_blocks(runs(18)[::23] + runs(18)[-1:], 6, lowest):
        assert np.array_equal(A, _or_of_positions(subsets, pos))

@pytest.mark.parametrize("reduced", [False, True])
def test_walk_costs_and_partition_table_on_the_4x4_grid(reduced):
    # n = 16, walk rate 1.6: rectilinear walks tie everywhere
    inst = gen_grid_instance(GridParams(sqrt_n=4, walk_rate=1.6, park_time=2.3, capacity=3))
    cat = enumerate_catalog(inst)
    if reduced:
        cat = reduce_catalog(cat)
    costs = cat.walk_cost_table()
    assert np.array_equal(costs, loop_walk_costs(cat))
    candidates = [s.members for s in cat.sets]
    assert np.array_equal(
        PartitionTable(inst.customers, candidates, costs).value,
        loop_partition_values(inst.customers, candidates, costs),
    )
