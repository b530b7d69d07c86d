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
stream. It mixes child and grandchild indices into one pool array in
wrapping uint32, hashes the pools into PCG64's two 128-bit seeds in 64-bit
halves and takes each read draw's LCG state alone, in closed form:
wrapping uint64 products, one high product in 32-bit limbs per factor and
two comparisons for the carries, on one flat axis of every (stream, read)
pair. Only integer operations and one exact power-of-two scale touch the
bits, so SIMD dispatch cannot change them. The parent's
``n_children_spawned`` moves as ``spawn`` would move it, in place.
"""

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

# Stream name -> fixed path prefix. Kept stable so transcripts replay.
AUTHORITY = 0
REPETITION = 1
TRIAL = 2
COMMITMENT = 3
VOTES = 5

_M32, _M64 = 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF
# SeedSequence's hash constants and PCG64's LCG multiplier, as numpy fixes them.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Scalars as 0-d arrays of the other operand's dtype: numpy takes them fastest.
_MIX_L, _MIX_R, _SH16 = (np.array(c, np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))
_SH11, _SH32, _SH58, _SH64, _LOW = (np.array(c, np.uint64) for c in (11, 32, 58, 64, _M32))
_SCALE = np.array(2.0 ** -53)
# generate_state's word i xors hash i, then multiplies by hash i + 1. Its words
# hold initstate a1:a0 as 1:0:3:2 and initseq c1:c0 as 5:4:7:6, so with
# a0 = ah:al, these rows are al, cl, ah, ch, then a1's and c1's low and high.
_SEED_WORDS = np.array([2, 6, 3, 7, 0, 4, 1, 5])
_SEED_XOR, _SEED_MULT = (np.array([[_INIT_B * pow(_MULT_B, int(i) + shift, 1 << 32) & _M32]
                                   for i in _SEED_WORDS], dtype=np.uint32) for shift in (0, 1))


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for ``path`` under ``master_seed``."""
    ss = np.random.SeedSequence([int(master_seed), *[int(p) for p in path]])
    return np.random.Generator(np.random.PCG64(ss))


def _word_count(value) -> int:
    """How many uint32 words SeedSequence makes of an int or a sequence of ints."""
    values = [value] if isinstance(value, (int, np.integer)) else value
    return sum(max(1, -(-int(v).bit_length() // 32)) for v in values)


@lru_cache(maxsize=None)
def _mix_hashes(n: int, size: int, ndim: int):
    """Hashes n, ..., n + size - 1 of a mixed-in word, and their multipliers: (size, 1, ...)."""
    hc = np.array([_INIT_A * pow(_MULT_A, n + i, 1 << 32) & _M32 for i in range(size)],
                  dtype=np.uint32).reshape((size,) + (1,) * ndim)
    mult = hc * np.uint32(_MULT_A)
    hc.flags.writeable = mult.flags.writeable = False
    return hc, mult


def _mix(pools: np.ndarray, words: np.ndarray, n: int, out: np.ndarray) -> None:
    """Write to ``out`` the ``pools`` (word i on axis 0) that mix in ``words`` at hash n."""
    hc, mult = _mix_hashes(n, len(out), words.ndim)
    hashed = np.bitwise_xor(words, hc)
    hashed *= mult
    hashed ^= hashed >> _SH16
    hashed *= _MIX_R
    out ^= np.subtract(_MIX_L * pools, hashed, out=out) >> _SH16


@lru_cache(maxsize=None)
def _lcg_columns(reads: tuple) -> np.ndarray:
    """Each draw's factors for ``_draws``' seed rows, shape (2, 9, len(reads), 1).

    Seeding sets inc = 2 initseq + 1 and steps the LCG twice around adding
    initstate, so draw j reads f initstate + g initseq + B (mod 2**128) with
    f = M^(j+2), B = M^0 + ... + M^(j+2) = (M^(j+3) - 1) / (M - 1), exact
    with M^(j+3) taken mod (M - 1) 2**128, and g = 2B (Brown's arbitrary-
    stride jump). In halves f1:f0, f0 = fh:fl, the products are 0-1 fl al,
    gl cl, whose carries make 9-12 high products; 2-12 the high half's terms
    fh ah, gh ch, f1 a0, g1 c0, f0 a1, g0 c1, B, fh al, gh cl, fl ah, gl ch;
    13-17 the low half's f0 a0, g0 c0, 0, 0, B.
    """
    mod, columns = 1 << 128, []
    for j in reads:
        b = (pow(_PCG_MULT, j + 3, (_PCG_MULT - 1) << 128) - 1) // (_PCG_MULT - 1) % mod
        f, g = pow(_PCG_MULT, j + 2, mod), 2 * b % mod
        f0, g0 = f & _M64, g & _M64
        fh, gh, fl, gl = f0 >> 32, g0 >> 32, f0 & _M32, g0 & _M32
        columns.append([[fl, gl, fh, gh, f >> 64, g >> 64, f0, g0, b >> 64],
                        [fh, gh, fl, gl, f0, g0, 0, 0, b & _M64]])
    table = np.ascontiguousarray(
        np.array(columns, dtype=np.uint64).reshape(-1, 2, 9).transpose(1, 2, 0)[..., None])
    table.flags.writeable = False
    return table


def _draws(pools: np.ndarray, blocks: list) -> np.ndarray:
    """The doubles of PCG64 generators seeded from ``pools``' columns, all on one flat axis.

    ``blocks`` lists (rows, reads) pairs that take the columns in order:
    block after block, read after read, row after row. The columns hash to
    seed rows al, cl, ah, ch, a0, c0, a1, c1 and 1; a block fills its stretch
    in one multiply of its rows' seeds by its draws' ``_lcg_columns``, and
    the rest runs once, in place.
    """
    words = pools.take(_SEED_WORDS, axis=0, mode="wrap")
    words ^= _SEED_XOR
    words *= _SEED_MULT
    words ^= words >> _SH16
    seeds, row, at = np.empty((9, pools.shape[1]), np.uint64), 0, 0
    seeds[:4], seeds[8] = words[:4], 1
    halves, pairs = words.reshape(2, 2, 2, -1), seeds[4:8].reshape(2, 2, -1)
    np.left_shift(halves[:, 1], _SH32, out=pairs, dtype=np.uint64)
    pairs |= halves[:, 0]
    del words, halves, pairs
    prod = np.empty((2, 9, sum(rows * len(reads) for rows, reads in blocks)), np.uint64)
    for rows, reads in blocks:
        np.multiply(_lcg_columns(reads), seeds[:, None, row:row + rows],
                    out=prod[..., at:at + rows * len(reads)].reshape(2, 9, -1, rows))
        row, at = row + rows, at + rows * len(reads)
    del seeds
    prod = prod.reshape(18, -1)
    # Hacker's Delight's mulhu carries; then rows 0-1 hold the high half and rotation.
    ll, high, low = prod[:2], prod[9:11], prod[11:13]
    ll >>= _SH32
    high += ll
    np.bitwise_and(high, _LOW, out=ll)
    low += ll
    prod[9:13] >>= _SH32
    hi, lo = np.add.reduce(prod[2:13], out=prod[0]), prod[13]
    lo += prod[14]
    hi += lo < prod[14]
    lo += prod[17]
    hi += lo < prod[17]
    # XSL-RR: the halves' xor, rotated right by the top six bits; a shift
    # by 64 gives 0 or x, and either or'ed with x >> 0 is x.
    lo ^= hi
    hi >>= _SH58
    right = np.right_shift(lo, hi, out=prod[1])
    lo <<= np.subtract(_SH64, hi, out=hi)
    lo |= right
    lo >>= _SH11
    return lo * _SCALE


@lru_cache(maxsize=None)
def _counter_slot(cls) -> int:
    """Where ``cls``'s pickled state holds ``n_children_spawned``."""
    one, two = (cls(0, n_children_spawned=n).__reduce__()[2] for n in (1, 2))
    return next(i for i, (a, b) in enumerate(zip(one, two)) if type(a) is int and (a, b) == (1, 2))


def child_doubles(rng: np.random.Generator, trials: int, reads=(),
                  reps: int = 0, rep_reads=()) -> tuple[np.ndarray, np.ndarray]:
    """The doubles ``rng.spawn(trials)`` children and their ``spawn(reps)`` children read.

    ``reads`` and ``rep_reads`` are tuples of draw positions, 0 for the
    first. Returns (u, rep_u): ``u[t, i]`` is double ``reads[i]`` of
    ``children[t]``, ``rep_u[t, r, i]`` double ``rep_reads[i]`` of
    ``children[t].spawn(reps)[r]``, and a draw no one reads costs nothing.
    The parent advances as ``rng.spawn(trials)`` advances it, in place:
    ``n_children_spawned`` is read-only, so its pickled state goes back in
    through ``__setstate__`` with the new count. Raises ConfigurationError,
    leaving the parent as it was, unless its bit generator is PCG64 (other
    children draw other doubles) and its child indices stay below 2**32 - 1.
    """
    if type(rng.bit_generator) is not np.random.PCG64:
        raise ConfigurationError(
            f"child streams need a PCG64 parent, got {type(rng.bit_generator).__name__}")
    seed_seq = rng.bit_generator.seed_seq
    first, size = seed_seq.n_children_spawned, seed_seq.pool_size
    if first + trials > _M32:
        raise ConfigurationError(
            f"{trials} children after {first} would pass SeedSequence's 2**32 - 1 limit")
    # A child's entropy is its parent's, padded to the pool size, then its
    # spawn key, then one word i: its pool is the parent's with i mixed in.
    # A grandchild's adds one more word r; grandchildren go r-major.
    n = size * (max(_word_count(seed_seq.entropy), size) + _word_count(seed_seq.spawn_key))
    k, rep_k, grand = len(reads), len(rep_reads), reps if rep_reads else 0
    blocks = [(trials, reads)] * bool(k) + [(trials * grand, rep_reads)] * bool(grand)
    out = np.empty(0)
    if trials and blocks:
        pools = np.empty((size, trials * (1 + grand)), np.uint32)
        _mix(seed_seq.pool[:, None], np.arange(first, first + trials, dtype=np.uint32), n,
             pools[:, :trials])
        if grand:
            _mix(pools[:, None, :trials], np.arange(grand, dtype=np.uint32)[:, None], n + size,
                 pools[:, trials:].reshape(size, grand, trials))
        out = _draws(pools[:, 0 if k else trials:], blocks)
    state = list(seed_seq.__reduce__()[2])
    state[_counter_slot(type(seed_seq))] = first + trials
    seed_seq.__setstate__(tuple(state))
    return (np.ascontiguousarray(out[:trials * k].reshape(k, trials).T),
            np.ascontiguousarray(out[trials * k:].reshape(rep_k, reps, trials).transpose(2, 1, 0)))
