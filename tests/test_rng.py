"""``rng.child_doubles`` against numpy's own child and grandchild Generators, bit for bit.

The kernel computes only the draw positions its caller names. Reading
every position up to k must give numpy's first k doubles, and reading any
set of positions must give those columns of the full draws.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from qvote import rng as rngmod
from qvote.errors import ConfigurationError

WORDS = st.integers(0, 2 ** 70)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.shape == b.shape and a.dtype == b.dtype == np.float64
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


# How a parent has spawned before the call: through real ``spawn`` calls, or
# born with the constructor's counter, up to 64 below the 2**32 limit where
# numpy's own spawn, the reference, still returns.
SPAWNED = (st.tuples(st.just("spawn"), st.integers(0, 4))
           | st.tuples(st.just("counter"), st.integers(0, 2 ** 32 - 64)))


def parent(entropy, spawn_key, spawned, pool_size) -> np.random.Generator:
    """A PCG64 parent keyed by ``entropy`` and ``spawn_key`` that has spawned as ``spawned`` says."""
    how, count = spawned
    seed_seq = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key), pool_size=pool_size,
                                      n_children_spawned=count if how == "counter" else 0)
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    if how == "spawn":
        rng.spawn(count)
    return rng


def same_children(a: list, b: list) -> bool:
    """Two spawns' children: the same keys, counters, pools and first draws."""
    keys = ("entropy", "spawn_key", "pool_size", "n_children_spawned")
    return len(a) == len(b) and all(
        all(getattr(x.bit_generator.seed_seq, key) == getattr(y.bit_generator.seed_seq, key)
            for key in keys)
        and np.array_equal(x.bit_generator.seed_seq.pool, y.bit_generator.seed_seq.pool)
        and same_bits(x.random(3), y.random(3)) for x, y in zip(a, b))


@given(entropy=WORDS | st.lists(WORDS, min_size=1, max_size=6),
       spawn_key=st.lists(st.integers(0, 3) | WORDS, max_size=3),
       spawned=SPAWNED, pool_size=st.sampled_from([4, 4, 4, 5, 8]), trials=st.integers(0, 12),
       k=st.integers(0, 7), reps=st.integers(0, 4), rep_k=st.integers(0, 7))
@example(entropy=0, spawn_key=[], spawned=("spawn", 0), pool_size=4, trials=0, k=1, reps=3,
         rep_k=4)
@example(entropy=0, spawn_key=[], spawned=("spawn", 0), pool_size=4, trials=1, k=1, reps=3,
         rep_k=4)
@example(entropy=[102, 3, 2 ** 33], spawn_key=[1], spawned=("spawn", 2), pool_size=4, trials=1,
         k=6, reps=0, rep_k=0)
# Empty sides: no trial draws (the mismatched attack), no repetitions with
# or without a draw count (collusion, product ballot), no repetition draws.
@example(entropy=7, spawn_key=[], spawned=("spawn", 1), pool_size=4, trials=5, k=0, reps=3,
         rep_k=4)
@example(entropy=7, spawn_key=[2], spawned=("spawn", 0), pool_size=4, trials=5, k=6, reps=0,
         rep_k=4)
@example(entropy=2 ** 40 + 3, spawn_key=[], spawned=("spawn", 0), pool_size=4, trials=3, k=2,
         reps=2, rep_k=0)
@example(entropy=7, spawn_key=[], spawned=("spawn", 0), pool_size=4, trials=4, k=0, reps=0,
         rep_k=0)
# A child side wider than the grandchild side, and the mismatched voting
# states' shape: no trial draws, many repetition draws.
@example(entropy=[9, 2 ** 35], spawn_key=[], spawned=("spawn", 1), pool_size=4, trials=3, k=7,
         reps=2, rep_k=1)
@example(entropy=11, spawn_key=[1], spawned=("spawn", 0), pool_size=4, trials=4, k=0, reps=3,
         rep_k=21)
# Child indices that need all 32 bits, as close to the limit as the reference goes.
@example(entropy=[5, 2 ** 64], spawn_key=[3], spawned=("counter", 2 ** 32 - 64), pool_size=4,
         trials=12, k=2, reps=2, rep_k=3)
# A pool wider than the 4 words that seed PCG64.
@example(entropy=[1, 2 ** 40], spawn_key=[], spawned=("counter", 9), pool_size=8, trials=5,
         k=3, reps=2, rep_k=4)
@settings(max_examples=150, deadline=None)
def test_child_doubles_match_spawned_generators(entropy, spawn_key, spawned, pool_size, trials,
                                                k, reps, rep_k):
    got_rng, ref_rng = (parent(entropy, spawn_key, spawned, pool_size) for _ in range(2))
    seed_seq = got_rng.bit_generator.seed_seq
    before = (seed_seq.entropy, seed_seq.spawn_key, seed_seq.pool_size, seed_seq.pool.copy())
    u, rep_u = rngmod.child_doubles(got_rng, trials, tuple(range(k)), reps, tuple(range(rep_k)))
    ref_u, ref_rep_u = reference.child_doubles(ref_rng, trials, k, reps, rep_k)
    assert same_bits(u, ref_u) and same_bits(rep_u, ref_rep_u)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    # The counter moves in place: the same object, its keys and pool as they were.
    assert got_rng.bit_generator.seed_seq is seed_seq
    assert (seed_seq.entropy, seed_seq.spawn_key, seed_seq.pool_size) == before[:3]
    assert np.array_equal(seed_seq.pool, before[3]) and seed_seq.pool.dtype == before[3].dtype
    assert seed_seq.n_children_spawned == ref_rng.bit_generator.seed_seq.n_children_spawned
    assert same_children(got_rng.spawn(2), ref_rng.spawn(2))


# A sorted set of draw positions, possibly empty.
POSITIONS = st.sets(st.integers(0, 9), max_size=6).map(sorted).map(tuple)


@given(entropy=WORDS | st.lists(WORDS, min_size=1, max_size=4), spawned=SPAWNED,
       trials=st.integers(0, 12), reads=POSITIONS, reps=st.integers(0, 4), rep_reads=POSITIONS)
# The attacks' positions at N = 3: the forgery's (0,) and (N,), mismatched
# voting states' () and (N,), collusion's (5,), and the malicious product
# ballot's () against the honest one's (0, ..., N - 1).
@example(entropy=3, spawned=("spawn", 0), trials=6, reads=(0,), reps=3, rep_reads=(3,))
@example(entropy=3, spawned=("spawn", 2), trials=6, reads=(), reps=3, rep_reads=(3,))
@example(entropy=3, spawned=("spawn", 0), trials=8, reads=(5,), reps=0, rep_reads=())
@example(entropy=3, spawned=("spawn", 0), trials=8, reads=(), reps=0, rep_reads=())
@example(entropy=3, spawned=("spawn", 0), trials=8, reads=(0, 1, 2), reps=0, rep_reads=())
@settings(max_examples=150, deadline=None)
def test_selected_reads_equal_the_full_draws_columns(entropy, spawned, trials, reads, reps,
                                                     rep_reads):
    # The full side reads every position up to the largest one named.
    got_rng, full_rng = (parent(entropy, [], spawned, 4) for _ in range(2))
    u, rep_u = rngmod.child_doubles(got_rng, trials, reads, reps, rep_reads)
    full, rep_full = (tuple(range(max(p, default=-1) + 1)) for p in (reads, rep_reads))
    full_u, full_rep_u = rngmod.child_doubles(full_rng, trials, full, reps, rep_full)
    assert same_bits(u, full_u[:, list(reads)])
    assert same_bits(rep_u, full_rep_u[..., list(rep_reads)])
    assert got_rng.bit_generator.state == full_rng.bit_generator.state
    assert (got_rng.bit_generator.seed_seq.n_children_spawned
            == full_rng.bit_generator.seed_seq.n_children_spawned)
    assert same_children(got_rng.spawn(2), full_rng.spawn(2))


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.PCG64DXSM,
                                           np.random.SFC64, np.random.MT19937])
def test_parents_that_are_not_pcg64_raise_untouched(bit_generator):
    # Their children are not PCG64 either, so the kernel's doubles would be wrong.
    rng = np.random.Generator(bit_generator(np.random.SeedSequence(5, n_children_spawned=3)))
    state = rng.bit_generator.state
    with pytest.raises(ConfigurationError, match="PCG64"):
        rngmod.child_doubles(rng, 2, (0, 1), 1, (0,))
    assert rng.bit_generator.seed_seq.n_children_spawned == 3
    np.testing.assert_equal(rng.bit_generator.state, state)


@pytest.mark.parametrize("trials", [5, 6, 2 ** 32])
def test_child_indices_past_the_limit_raise_untouched(trials):
    # numpy's own spawn does not return across this limit, so no reference is drawn here.
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([5, 2 ** 40], spawn_key=(1,), n_children_spawned=2 ** 32 - 5)))
    state = rng.bit_generator.state
    with pytest.raises(ConfigurationError, match="2\\*\\*32"):
        rngmod.child_doubles(rng, trials, (0,))
    assert rng.bit_generator.seed_seq.n_children_spawned == 2 ** 32 - 5
    assert rng.bit_generator.state == state
    u, _ = rngmod.child_doubles(rng, 4, (0,))
    assert u.shape == (4, 1) and rng.bit_generator.seed_seq.n_children_spawned == 2 ** 32 - 1


@given(seed=WORDS, trials=st.integers(1, 20),
       half_width=st.floats(0, 10, exclude_min=True, allow_subnormal=True))
@settings(max_examples=100, deadline=None)
def test_uniform_is_low_plus_range_times_double(seed, trials, half_width):
    # The forgery draws its estimate error as uniform(-w, w) = -w + 2w u.
    u, _ = rngmod.child_doubles(np.random.default_rng(seed), trials, (0,))
    lo, hi = -half_width, half_width
    got = lo + (hi - lo) * u[:, 0]
    ref = np.array([g.uniform(lo, hi) for g in np.random.default_rng(seed).spawn(trials)])
    assert same_bits(got, ref)


def test_stream_children_match_at_criterion_size():
    # Criterion 08's parent: a 3-word entropy list, 10k trials, 3 repetitions.
    got_rng, ref_rng = rngmod.stream(0, rngmod.TRIAL), rngmod.stream(0, rngmod.TRIAL)
    u, rep_u = rngmod.child_doubles(got_rng, 2000, (0,), 3, (0, 1, 2, 3))
    ref_u, ref_rep_u = reference.child_doubles(ref_rng, 2000, 1, 3, 4)
    assert same_bits(u, ref_u) and same_bits(rep_u, ref_rep_u)


@pytest.mark.parametrize("reads,rep_reads", [((2 ** 19 - 1, 2 ** 19), (2 ** 20,)),
                                             ((2 ** 20 - 1, 2 ** 20, 2 ** 20 + 1), (2 ** 19 + 1,))])
def test_far_read_positions_match_spawned_generators(reads, rep_reads):
    # Jumps of 2**19 and 2**20 steps: numpy's children draw every double up to them.
    got_rng, ref_rng = (parent([7, 2 ** 40], [1], ("spawn", 1), 4) for _ in range(2))
    u, rep_u = rngmod.child_doubles(got_rng, 3, reads, 2, rep_reads)
    kids = ref_rng.spawn(3)
    ref_u = np.array([g.random(max(reads) + 1)[list(reads)] for g in kids])
    ref_rep_u = np.array([[g.random(max(rep_reads) + 1)[list(rep_reads)] for g in kid.spawn(2)]
                          for kid in kids])
    assert same_bits(u, ref_u) and same_bits(rep_u, ref_rep_u)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("pool_size", [5, 8])
def test_wide_pools_with_spawn_keys_near_the_counter_limit(pool_size):
    # Pools wider than PCG64's four seed words, a parent with its own spawn
    # key, and child indices that take all 32 bits.
    spawned = ("counter", 2 ** 32 - 20)
    got_rng, ref_rng = (parent([3, 2 ** 64 + 5], [2, 2 ** 33], spawned, pool_size)
                        for _ in range(2))
    u, rep_u = rngmod.child_doubles(got_rng, 12, (0, 2), 3, (1, 4))
    ref_u, ref_rep_u = reference.child_doubles(ref_rng, 12, 3, 3, 5)
    assert same_bits(u, ref_u[:, [0, 2]]) and same_bits(rep_u, ref_rep_u[..., [1, 4]])
    assert got_rng.bit_generator.seed_seq.n_children_spawned == 2 ** 32 - 8
    assert same_children(got_rng.spawn(2), ref_rng.spawn(2))


def test_memory_at_forgery_criterion_size_stays_bounded():
    # Every (stream, draw) pair of 10k trials with 3 repetitions holds its 18
    # products on one flat axis: about 22 MB at this size.
    rng = rngmod.stream(0, rngmod.TRIAL)
    tracemalloc.start()
    try:
        u, rep_u = rngmod.child_doubles(rng, 10_000, (0,), 3, (0, 1, 2, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.shape == (10_000, 1) and rep_u.shape == (10_000, 3, 4)
    assert peak < 29e6
