import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest

from brutes import loop_held_karp_cycle, loop_nearest_neighbor_cycle, loop_or_opt, loop_two_opt
from parkroute import tsp
from parkroute.errors import ResourceLimitError
from parkroute.tsp import (
    CHUNK,
    held_karp_cycle,
    layer_runs,
    nearest_neighbor_cycle,
    or_opt,
    solve_tsp,
    tour_cost,
    two_opt,
)


def _random_metric(rng, m):
    pts = rng.random((m, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return d


@pytest.mark.parametrize("n, layers", [(1, range(1, 2)), (5, range(1, 6)), (8, range(2, 8)), (9, range(1, 10)),
                                       (12, range(3, 7))])
@pytest.mark.parametrize("step", [lambda bits: 7, lambda bits: 21 // bits], ids=["7-masks", "21-pairs"])
def test_layer_runs_walk_each_layer_once_in_increasing_order(n, layers, step):
    # every mask of each chosen layer once, in runs of at most step(bits)
    # masks, with the positions of its set bits, lowest first
    runs = list(layer_runs(n, layers, step))
    masks = np.concatenate([M for M, _ in runs])
    want = [sum(1 << b for b in c) for bits in layers for c in combinations(range(n), bits)]
    want.sort(key=lambda m: (bin(m).count("1"), m))
    assert masks.tolist() == want
    for M, pos in runs:
        assert 1 <= len(M) <= step(pos.shape[1])
        assert pos.tolist() == [[b for b in range(n) if m >> b & 1] for m in M.tolist()]


@pytest.mark.parametrize("n", range(1, 17))
@pytest.mark.parametrize("step", [lambda _: CHUNK, lambda bits: CHUNK // bits], ids=["fill", "held-karp"])
def test_layer_runs_read_one_read_only_plan_per_n(n, step):
    # the step rules of the DP fill and Held-Karp: each run's positions give
    # back its masks through int64 shifts (a uint8 shift wraps past bit 7),
    # lowest bit first, and a second walk reads the same plan
    first = list(layer_runs(n, range(1, n + 1), step))
    assert sum(len(M) for M, _ in first) == 2**n - 1
    for M, pos in first:
        assert pos.dtype == np.uint8
        assert not M.flags.writeable and not pos.flags.writeable
        assert np.array_equal(np.bitwise_or.reduce(np.left_shift(np.int64(1), pos), axis=1), M)
        assert (np.diff(pos.astype(int), axis=1) > 0).all()
    again = list(layer_runs(n, range(1, n + 1), step))
    assert len(again) == len(first)
    for (M, pos), (M2, pos2) in zip(first, again):
        assert np.array_equal(M, M2) and np.array_equal(pos, pos2)
        assert np.shares_memory(pos, pos2)
    if n == 16:  # one byte per (mask, set bit)
        assert sum(pos.nbytes for _, pos in tsp._LAYERS[16]) == 16 * 2**15


def _brute_cycle(dist):
    m = dist.shape[0]
    return min(tour_cost(dist, list(p)) for p in permutations(range(1, m)))


@pytest.mark.parametrize("m", [2, 3, 5, 7, 8])
def test_held_karp_matches_permutation_brute_force(m):
    rng = np.random.default_rng(m)
    dist = _random_metric(rng, m)
    cost, order = held_karp_cycle(dist)
    assert cost == pytest.approx(_brute_cycle(dist), abs=1e-12)
    assert sorted(order) == list(range(1, m))
    assert cost == pytest.approx(tour_cost(dist, order))


def test_held_karp_asymmetric():
    rng = np.random.default_rng(99)
    dist = rng.random((6, 6)) * 10
    np.fill_diagonal(dist, 0.0)
    cost, order = held_karp_cycle(dist)
    assert cost == pytest.approx(_brute_cycle(dist), abs=1e-12)


def test_held_karp_lexicographic_on_uniform_costs():
    dist = np.ones((5, 5)) - np.eye(5)
    cost, order = held_karp_cycle(dist)
    assert cost == pytest.approx(5.0)
    assert order == [1, 2, 3, 4]  # every tour ties; smallest sequence wins


def test_held_karp_node_cap():
    with pytest.raises(ResourceLimitError):
        held_karp_cycle(np.zeros((15, 15)))


def test_improvement_heuristics_never_hurt():
    rng = np.random.default_rng(7)
    dist = _random_metric(rng, 18)
    start = nearest_neighbor_cycle(dist)
    improved = or_opt(dist, two_opt(dist, start))
    assert sorted(improved) == list(range(1, 18))
    assert tour_cost(dist, improved) <= tour_cost(dist, start) + 1e-9


def test_two_opt_handles_asymmetric_matrices():
    rng = np.random.default_rng(11)
    dist = rng.random((7, 7)) * 5
    np.fill_diagonal(dist, 0.0)
    start = nearest_neighbor_cycle(dist)
    improved = two_opt(dist, start)
    assert sorted(improved) == list(range(1, 7))
    assert tour_cost(dist, improved) <= tour_cost(dist, start) + 1e-9
    # the true optimum is a floor for the polished tour
    assert tour_cost(dist, improved) >= _brute_cycle(dist) - 1e-9


def test_solve_tsp_flags_exactness_by_size():
    rng = np.random.default_rng(13)
    small = _random_metric(rng, 10)
    cost, order, exact = solve_tsp(small)
    assert exact and cost == pytest.approx(_brute_cycle(small), abs=1e-12)
    large = _random_metric(rng, 20)
    _, order_l, exact_l = solve_tsp(large)
    assert not exact_l
    assert sorted(order_l) == list(range(1, 20))


def _matrix(kind, rng, m):
    """A symmetric metric, a skewed asymmetric, or a symmetric integer matrix
    (integer dtype) full of ties."""
    d = _random_metric(rng, m)
    if kind == "skewed":
        d = d * rng.uniform(1.0, 1.6, (m, m))
    elif kind == "tied":
        d = rng.integers(1, 4, (m, m))
        d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0)
    return d


def _same(result, reference):
    cost, order = result
    ref_cost, ref_order = reference
    assert (repr(cost), order) == (repr(ref_cost), ref_order)


@pytest.mark.parametrize("kind", ["symmetric", "skewed", "tied"])
def test_held_karp_is_bit_identical_to_the_per_mask_loop(kind):
    rng = np.random.default_rng(len(kind))
    for m in range(2, 15):  # up to the 14-node cap
        dist = _matrix(kind, rng, m)
        _same(held_karp_cycle(dist), loop_held_karp_cycle(dist))


@pytest.mark.parametrize("kind", ["symmetric", "skewed", "tied"])
def test_polishing_is_bit_identical_to_the_per_move_loops(kind):
    rng = np.random.default_rng(100 + len(kind))
    for m in (4, 5, 9, 15, 23, 40, 60):
        dist = _matrix(kind, rng, m)
        nn = nearest_neighbor_cycle(dist)
        assert nn == loop_nearest_neighbor_cycle(dist)
        for start in (nn, rng.permutation(np.arange(1, m)).tolist()):
            for new, loop in ((two_opt, loop_two_opt), (or_opt, loop_or_opt)):
                order, ref = new(dist, start), loop(dist, start)
                _same((tour_cost(dist, order), order), (tour_cost(dist, ref), ref))


def test_two_opt_never_ends_above_its_start_on_nearly_symmetric_matrices():
    # a relative skew far below np.allclose's tolerance still makes the matrix
    # asymmetric, so every reversal must price its interior arcs both ways
    for seed in range(300):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(5, 12))
        dist = _random_metric(rng, m) * (1 + 5e-6 * rng.uniform(-1, 1, (m, m)))
        start = rng.permutation(np.arange(1, m)).tolist()
        assert tour_cost(dist, two_opt(dist, start)) <= tour_cost(dist, start), seed


def test_held_karp_memory_at_the_node_cap():
    # the dense (2^13, 13) table takes 0.85 MB; blocks of CHUNK (bit, mask)
    # pairs, gathered bit-major into (bits, masks, 13) arrays of at most
    # 106 KB, keep the temporaries beside it small
    dist = _random_metric(np.random.default_rng(14), 14)
    held_karp_cycle(dist)
    tracemalloc.start()
    try:
        held_karp_cycle(dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2e6
