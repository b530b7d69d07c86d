"""Deterministic random-stream derivation.

Every run owns a single master seed. All randomness is drawn from numpy
PCG64 generators keyed by ``SeedSequence([master_seed, *path])``, where
``path`` is a tuple of small integers naming the consumer (authority
secrets, repetition index, trial index, ...). The same seed therefore
reproduces every transcript bit-exactly, and independent consumers never
share a stream.

Monte Carlo attacks give each trial its own child stream, ``rng.spawn(T)``,
and the SECURE attacks give each trial's repetitions grandchildren.
``child_doubles`` returns the doubles those streams draw without building
a Generator per stream. It advances the parent through its real
``SeedSequence.spawn``, the one way to move ``n_children_spawned``, and
takes each child's pool from it. It then mixes each grandchild's pool,
expands pools as ``generate_state(4, uint64)`` does, seeds PCG64 and
computes every draw's 128-bit LCG state in closed form, then applies the
XSL-RR output and the 53-bit double conversion, all as integer numpy
arithmetic over every row at once. Only integer operations and one exact
power-of-two scale touch the bits, so SIMD dispatch cannot change them.
"""

from functools import lru_cache

import numpy as np

# Stream name -> fixed path prefix. Kept stable so transcripts replay.
AUTHORITY = 0
REPETITION = 1
TRIAL = 2
COMMITMENT = 3
DETECTION = 4
VOTES = 5

_M32 = 0xFFFFFFFF
# SeedSequence's hash constants and PCG64's LCG multiplier, as numpy fixes them.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# generate_state's hash constants: output word i xors constant i, then multiplies by i + 1.
_STATE_HASH = np.array([_INIT_B * pow(_MULT_B, n, 1 << 32) & _M32 for n in range(9)],
                       dtype=np.uint64)


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for ``path`` under ``master_seed``."""
    ss = np.random.SeedSequence([int(master_seed), *[int(p) for p in path]])
    return np.random.Generator(np.random.PCG64(ss))


def _word_count(value) -> int:
    """How many uint32 words SeedSequence makes of an int or a sequence of ints."""
    values = [value] if np.ndim(value) == 0 else value
    return sum(max(1, -(-int(v).bit_length() // 32)) for v in values)


def _hashmix(value: int, n: int) -> int:
    """SeedSequence's n-th hash of a word: xor constant n, multiply by constant n + 1."""
    hc = _INIT_A * pow(_MULT_A, n, 1 << 32)
    x = (value ^ hc & _M32) * (hc * _MULT_A) & _M32
    return x ^ x >> 16


@lru_cache(maxsize=None)
def _lcg_columns(k: int):
    """Limbs of (M^(j+2), 2 B_j) and of B_j, B_j = M^0 + ... + M^(j+2), for draws j < k.

    Seeding sets inc = 2 initseq + 1 and steps the LCG twice around adding
    initstate; draw j steps once more, so it reads
    M^(j+2) initstate + 2 B_j initseq + B_j (mod 2**128).
    """
    mod = 1 << 128
    powers = [pow(_PCG_MULT, j, mod) for j in range(k + 2)]
    sums = [sum(powers[:j + 3]) % mod for j in range(k)]
    columns = [[powers[j + 2] for j in range(k)], [2 * s % mod for s in sums], sums]
    limbs = np.array([[[c >> 32 * l & _M32 for c in col] for l in range(4)] for col in columns],
                     dtype=np.uint64).reshape(3, 4, 1, k)
    limbs.flags.writeable = False
    return limbs[:2], limbs[2]


def _draws(pools: np.ndarray, k: int) -> np.ndarray:
    """The first k doubles of the PCG64 generator seeded from each row's 4-word pool."""
    words = (pools[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ _STATE_HASH[:8]) * _STATE_HASH[1:] & _M32
    words ^= words >> 16
    # 32-bit limbs, least significant first, of initstate and of initseq.
    seeds = words[:, [2, 3, 0, 1, 6, 7, 4, 5]].reshape(-1, 2, 4).transpose(1, 2, 0)[..., None]
    factors, acc = _lcg_columns(k)
    acc = acc + np.zeros((1, len(pools), 1), dtype=np.uint64)
    for i in range(4):
        # Limb i of each seed times the limbs of its factor that land below 2**128.
        p = seeds[:, i, None] * factors[:, :4 - i]
        acc[i:] += (p & _M32).sum(axis=0)
        acc[i + 1:] += (p[:, :3 - i] >> 32).sum(axis=0)
    for l in range(3):
        acc[l + 1] += acc[l] >> 32
    acc &= _M32
    x = (acc[3] << 32 | acc[2]) ^ (acc[1] << 32 | acc[0])
    rot = acc[3] >> 26
    return ((x >> rot | x << (64 - rot & 63)) >> 11) * 2.0 ** -53


def child_doubles(rng: np.random.Generator, trials: int, k: int,
                  reps: int = 0, rep_k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The doubles ``rng.spawn(trials)`` children and their ``spawn(reps)`` children draw.

    Returns (u, rep_u): row t of u is ``children[t].random(k)``, and
    ``rep_u[t, r]`` is ``children[t].spawn(reps)[r].random(rep_k)``.
    The parent advances as ``rng.spawn(trials)`` advances it; child indices
    must stay below 2**32.
    """
    seed_seq = rng.bit_generator.seed_seq
    pools = np.array([s.pool for s in seed_seq.spawn(trials)], dtype=np.uint64).reshape(-1, 4)
    # A grandchild's entropy is its parent's, padded to 4 words, then one
    # more word r; its child's mixing ran 4 hashes per entropy word.
    n = 4 * (max(_word_count(seed_seq.entropy), 4) + _word_count(seed_seq.spawn_key) + 1)
    hashed = np.array([[_MIX_R * _hashmix(r, n + dst) & _M32 for dst in range(4)]
                       for r in range(reps)], dtype=np.uint64).reshape(-1, 4)
    grand = (_MIX_L * pools[:, None] - hashed) & _M32
    grand ^= grand >> 16
    return _draws(pools, k), _draws(grand.reshape(-1, 4), rep_k).reshape(trials, reps, rep_k)
