"""``rng.child_doubles`` against numpy's own child and grandchild Generators, bit for bit."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from qvote import rng as rngmod

WORDS = st.integers(0, 2 ** 70)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.shape == b.shape and a.dtype == b.dtype == np.float64
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def parent(entropy, spawn_key, spawned: int) -> np.random.Generator:
    """A PCG64 parent keyed by ``entropy`` and ``spawn_key`` that has spawned ``spawned`` times."""
    seed_seq = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key))
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    rng.spawn(spawned)
    return rng


@given(entropy=WORDS | st.lists(WORDS, min_size=1, max_size=6),
       spawn_key=st.lists(st.integers(0, 3) | WORDS, max_size=3),
       spawned=st.integers(0, 4), trials=st.integers(0, 12), k=st.integers(0, 7),
       reps=st.integers(0, 4), rep_k=st.integers(0, 7))
@example(entropy=0, spawn_key=[], spawned=0, trials=0, k=1, reps=3, rep_k=4)
@example(entropy=0, spawn_key=[], spawned=0, trials=1, k=1, reps=3, rep_k=4)
@example(entropy=[102, 3, 2 ** 33], spawn_key=[1], spawned=2, trials=1, k=6, reps=0, rep_k=0)
# Empty sides: no trial draws (the mismatched attack), no repetitions with
# or without a draw count (collusion, product ballot), no repetition draws.
@example(entropy=7, spawn_key=[], spawned=1, trials=5, k=0, reps=3, rep_k=4)
@example(entropy=7, spawn_key=[2], spawned=0, trials=5, k=6, reps=0, rep_k=4)
@example(entropy=2 ** 40 + 3, spawn_key=[], spawned=0, trials=3, k=2, reps=2, rep_k=0)
@example(entropy=7, spawn_key=[], spawned=0, trials=4, k=0, reps=0, rep_k=0)
@settings(max_examples=150, deadline=None)
def test_child_doubles_match_spawned_generators(entropy, spawn_key, spawned, trials, k,
                                                reps, rep_k):
    got_rng, ref_rng = (parent(entropy, spawn_key, spawned) for _ in range(2))
    u, rep_u = rngmod.child_doubles(got_rng, trials, k, reps, rep_k)
    ref_u, ref_rep_u = reference.child_doubles(ref_rng, trials, k, reps, rep_k)
    assert same_bits(u, ref_u) and same_bits(rep_u, ref_rep_u)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    assert (got_rng.bit_generator.seed_seq.n_children_spawned
            == ref_rng.bit_generator.seed_seq.n_children_spawned)


@given(seed=WORDS, trials=st.integers(1, 20),
       half_width=st.floats(0, 10, exclude_min=True, allow_subnormal=True))
@settings(max_examples=100, deadline=None)
def test_uniform_is_low_plus_range_times_double(seed, trials, half_width):
    # The forgery draws its estimate error as uniform(-w, w) = -w + 2w u.
    u, _ = rngmod.child_doubles(np.random.default_rng(seed), trials, 1)
    lo, hi = -half_width, half_width
    got = lo + (hi - lo) * u[:, 0]
    ref = np.array([g.uniform(lo, hi) for g in np.random.default_rng(seed).spawn(trials)])
    assert same_bits(got, ref)


def test_stream_children_match_at_criterion_size():
    # Criterion 08's parent: a 3-word entropy list, 10k trials, 3 repetitions.
    got_rng, ref_rng = rngmod.stream(0, rngmod.TRIAL), rngmod.stream(0, rngmod.TRIAL)
    u, rep_u = rngmod.child_doubles(got_rng, 2000, 1, 3, 4)
    ref_u, ref_rep_u = reference.child_doubles(ref_rng, 2000, 1, 3, 4)
    assert same_bits(u, ref_u) and same_bits(rep_u, ref_rep_u)
