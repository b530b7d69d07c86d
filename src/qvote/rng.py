"""Deterministic random-stream derivation.

Every run owns a single master seed. All randomness is drawn from numpy
PCG64 generators keyed by ``SeedSequence([master_seed, *path])``, where
``path`` is a tuple of small integers naming the consumer (authority
secrets, repetition index, trial index, ...). The same seed therefore
reproduces every transcript bit-exactly, and independent consumers never
share a stream.

Monte Carlo attacks give each trial its own child stream, ``rng.spawn(T)``,
and the SECURE attacks give each trial's repetitions grandchildren.
``child_doubles`` returns the doubles those streams draw at the positions
its caller reads, without building a Generator or a SeedSequence per
stream. A child's pool is its parent's with one more entropy word, its
index, mixed in, and a grandchild's adds its own index; the kernel mixes
those words into every row at once, and mixes no grandchildren when none
is read. It then expands pools as ``generate_state(4, uint64)`` does,
seeds PCG64 and computes each read draw's 128-bit LCG state alone, in
closed form, then applies the XSL-RR output and the 53-bit double
conversion. Every (stream, read) pair of a call, the children's and then the
grandchildren's, sits on one flat axis:
each side writes its limb products there by broadcasting, and the rest
of that arithmetic runs once per call whatever the shape. Only integer
operations and one exact power-of-two scale touch the bits, so SIMD
dispatch cannot change them.
The parent's ``n_children_spawned`` moves as ``spawn`` would move it, in
place, through one constructor call. A parent whose bit generator is not
PCG64, or whose child indices would reach 2**32 - 1, raises
ConfigurationError and is left as it was.
"""

from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import ConfigurationError

# Stream name -> fixed path prefix. Kept stable so transcripts replay.
AUTHORITY = 0
REPETITION = 1
TRIAL = 2
COMMITMENT = 3
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
    values = [value] if isinstance(value, (int, np.integer)) else value
    return sum(max(1, -(-int(v).bit_length() // 32)) for v in values)


@lru_cache(maxsize=None)
def _mix_hashes(n: int, size: int):
    """The hashes n, ..., n + size - 1 a mixed-in word takes, and their multipliers."""
    hc = np.array([_INIT_A * pow(_MULT_A, n + dst, 1 << 32) & _M32 for dst in range(size)],
                  dtype=np.uint64)
    mult = hc * _MULT_A & _M32
    hc.flags.writeable = mult.flags.writeable = False
    return hc, mult


def _mix(pools: np.ndarray, words: np.ndarray, n: int) -> np.ndarray:
    """Pools after SeedSequence mixes one more entropy word into them: hashes n, n + 1, ...

    ``pools`` (..., P) broadcasts against ``words`` (...); each pool word
    takes the word's next hash, as entropy past the pool size is mixed in.
    """
    hc, mult = _mix_hashes(n, pools.shape[-1])
    hashed = (words[..., None] ^ hc) * mult & _M32
    hashed ^= hashed >> 16
    mixed = (_MIX_L * pools - _MIX_R * hashed) & _M32
    return mixed ^ mixed >> 16


@lru_cache(maxsize=None)
def _lcg_columns(reads: tuple) -> np.ndarray:
    """Limbs of M^(j+2), of 2 B_j and of B_j, B_j = M^0 + ... + M^(j+2), for each draw j in reads.

    Seeding sets inc = 2 initseq + 1 and steps the LCG twice around adding
    initstate; draw j steps once more, so it reads
    M^(j+2) initstate + 2 B_j initseq + B_j (mod 2**128) (Brown's
    arbitrary-stride jump). Shape (3, 4, len(reads), 1): factor, limb, draw.
    """
    mod = 1 << 128
    powers = [pow(_PCG_MULT, i, mod) for i in range(max(reads, default=-1) + 3)]
    sums = list(accumulate(powers, lambda a, b: (a + b) % mod))
    columns = [[powers[j + 2] for j in reads], [2 * sums[j + 2] % mod for j in reads],
               [sums[j + 2] for j in reads]]
    limbs = np.array([[[c >> 32 * l & _M32 for c in col] for l in range(4)] for col in columns],
                     dtype=np.uint64).reshape(3, 4, len(reads), 1)
    limbs.flags.writeable = False
    return limbs


# The 32-bit words of generate_state's four 64-bit outputs in limb order,
# least significant first: initstate is outputs 1 then 0, initseq 3 then 2.
_SEED_WORDS = np.array([2, 3, 0, 1, 6, 7, 4, 5])
_SEED_XOR, _SEED_MULT = _STATE_HASH[_SEED_WORDS, None], _STATE_HASH[_SEED_WORDS + 1, None]


def _draws(blocks: list) -> np.ndarray:
    """The doubles of PCG64 generators seeded from pools, all on one flat axis.

    ``blocks`` lists (pools, reads) pairs: each row of ``pools`` seeds a
    generator, read at the draw positions ``reads``. The flat axis holds
    block after block, and within a block read after read, each read's
    rows in order. A block
    writes its limb products into that axis straight from its rows' seed
    limbs and its draws' factor limbs, broadcast against each other; the
    rest of the 128-bit limb arithmetic, the carries and the output then
    run once over the whole axis.
    """
    pools = np.concatenate([rows for rows, _ in blocks])
    words = pools.T[_SEED_WORDS % pools.shape[1]]
    words = (words ^ _SEED_XOR) * _SEED_MULT & _M32
    words ^= words >> 16
    # 32-bit limbs, least significant first, of initstate and of initseq.
    seeds = words.reshape(2, 4, 1, -1)
    flat = sum(len(rows) * len(reads) for rows, reads in blocks)
    acc = np.empty((4, flat), np.uint64)
    low, high = np.empty((2, 4, flat), np.uint64), np.empty((2, 3, flat), np.uint64)
    products = []
    row = at = 0
    for rows, reads in blocks:
        n, k = len(rows), len(reads)
        columns = _lcg_columns(reads)
        # The sum starts at B_j.
        acc[:, at:at + n * k].reshape(4, k, n)[...] = columns[2]
        products.append((seeds[..., row:row + n], columns[:2],
                         low[..., at:at + n * k].reshape(2, 4, k, n)))
        row, at = row + n, at + n * k
    for i in range(4):
        # Limb i of each seed times the limbs of its factor that land below 2**128.
        for seed, factor, out in products:
            np.multiply(seed[:, i, None], factor[:, :4 - i], out=out[:, :4 - i])
        lo, hi = low[:, :4 - i], high[:, :3 - i]
        np.right_shift(lo[:, :3 - i], 32, out=hi)
        lo &= _M32
        acc[i:] += lo[0]
        acc[i:] += lo[1]
        acc[i + 1:] += hi[0]
        acc[i + 1:] += hi[1]
    for l in range(3):
        acc[l + 1] += acc[l] >> 32
    acc &= _M32
    x = (acc[3] << 32 | acc[2]) ^ (acc[1] << 32 | acc[0])
    rot = acc[3] >> 26
    return ((x >> rot | x << (64 - rot & 63)) >> 11) * 2.0 ** -53


def child_doubles(rng: np.random.Generator, trials: int, reads=(),
                  reps: int = 0, rep_reads=()) -> tuple[np.ndarray, np.ndarray]:
    """The doubles ``rng.spawn(trials)`` children and their ``spawn(reps)`` children read.

    ``reads`` and ``rep_reads`` are tuples of draw positions, 0 for the
    first. Returns (u, rep_u): ``u[t, i]`` is double ``reads[i]`` of
    ``children[t]``, ``rep_u[t, r, i]`` double ``rep_reads[i]`` of
    ``children[t].spawn(reps)[r]``, and a draw no one reads costs nothing.
    The parent advances as ``rng.spawn(trials)`` advances it, in place:
    ``n_children_spawned`` is read-only, and unpickling's ``__setstate__``
    is the one writer that works in place, so the state of a fresh
    SeedSequence holding the new count is copied in. Raises
    ConfigurationError, leaving the parent as it was, unless its bit
    generator is PCG64 (other children draw other doubles) and its child
    indices stay below 2**32 - 1.
    """
    if type(rng.bit_generator) is not np.random.PCG64:
        raise ConfigurationError(
            f"child streams need a PCG64 parent, got {type(rng.bit_generator).__name__}")
    seed_seq = rng.bit_generator.seed_seq
    first, size = seed_seq.n_children_spawned, seed_seq.pool_size
    if first + trials > _M32:
        raise ConfigurationError(
            f"{trials} children after {first} would pass SeedSequence's 2**32 - 1 limit")
    # A child's entropy is its parent's, padded to the pool size, then the
    # parent's spawn key, then one word i: its pool is the parent's with i
    # mixed in. A grandchild's adds one more word r.
    n = size * (max(_word_count(seed_seq.entropy), size) + _word_count(seed_seq.spawn_key))
    k, rep_k = len(reads), len(rep_reads)
    blocks = []
    if trials and (k or reps and rep_k):
        pools = _mix(np.array(seed_seq.pool, dtype=np.uint64),
                     np.arange(first, first + trials, dtype=np.uint64), n)
        if k:
            blocks.append((pools, reads))
        if reps and rep_k:
            grand = _mix(pools[:, None], np.arange(reps, dtype=np.uint64), n + size)
            blocks.append((grand.reshape(-1, size), rep_reads))
    out = _draws(blocks) if blocks else np.empty(0)
    seed_seq.__setstate__(type(seed_seq)(
        seed_seq.entropy, spawn_key=seed_seq.spawn_key, pool_size=size,
        n_children_spawned=first + trials).__reduce__()[2])
    u = out[:trials * k].reshape(k, trials).T.copy()
    return u, out[trials * k:].reshape(rep_k, trials, reps).transpose(1, 2, 0).copy()
