"""Closed-form attack kernels against their dense references, and RNG stream use.

Each kernel must return the report its per-trial reference in
``reference.py`` returns, and each trial must read fixed draws of its
stream: transcripts replay bit-exactly only while that holds. The stream
tests compare ``bit_generator.state`` with a fresh generator that made
exactly that many draws, so one extra or missing draw fails them. The
Monte Carlo attacks take their trials' doubles from ``rng.child_doubles``,
naming the draw positions they read; their tests record those positions
and doubles and compare the doubles with the same columns of a fresh
``rng.spawn`` loop's draws.
"""

import hashlib
import json
import math
import tracemalloc
import weakref
from collections import Counter
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import reference
from conftest import random_state
from qvote import ballots, protocols
from qvote import rng as rngmod
from qvote.adversary import (
    CHEATING,
    CLEAN,
    _SWAP_TABLES,
    _swap_thresholds,
    authority_product_ballot,
    collusion_attack_tb,
    detect_symmetry,
    mismatched_voting_states,
    multi_vote_plain,
    phase_estimate_attack,
    swap_test_trials,
)
from qvote.ballots import (
    CHEAT_DETECTED,
    BallotConfig,
    Scheme,
    SecureSecrets,
    Vote,
    _grid_rows,
    _phase_basis_probs,
    _secrets_problem,
    cast_vote_db,
    decode_db,
    decode_tb,
    phase_readings,
    prepare_db_ballot,
    voting_qudit_state,
)
from qvote.cli import verdict
from qvote.errors import ConfigurationError
from qvote.protocols import (
    Transcript,
    _pairing_outcomes,
    _secure_trials,
    _vote_patterns,
    run_db_vote,
    run_secure_vote,
    run_survey,
    run_tb_vote,
)
from qvote.qstate import (
    INVALID,
    CorrelatedState,
    ProjectorSet,
    PureState,
    _cdf,
    measure_computational,
    measure_projective,
)

# Dense product-ballot references hold d**N amplitudes per trial.
REFERENCE_BUDGET = 20_000


class Recording:
    """A generator that keeps the children it spawns, for stream inspection."""

    def __init__(self, gen: np.random.Generator):
        self.gen = gen
        self.children = []

    def spawn(self, n):
        kids = [Recording(g) for g in self.gen.spawn(n)]
        self.children += kids
        return kids

    def __getattr__(self, name):
        return getattr(self.gen, name)


@pytest.fixture
def drawn(monkeypatch):
    """Each ``rng.child_doubles`` call made during the test: the positions it reads, its arrays."""
    calls, real = [], rngmod.child_doubles

    def record(rng, trials, reads=(), reps=0, rep_reads=()):
        out = real(rng, trials, reads, reps, rep_reads)
        calls.append({"reads": (trials, reads, reps, rep_reads), "u": out[0], "rep_u": out[1]})
        return out

    monkeypatch.setattr(rngmod, "child_doubles", record)
    return calls


def parent_state(rng: np.random.Generator) -> tuple:
    return rng.bit_generator.state, rng.bit_generator.seed_seq.n_children_spawned


def assert_consumed(rng, calls, seed, reads):
    """One ``child_doubles`` call that read ``reads``: (trials, positions, reps, rep positions).

    Its doubles must be those columns of a fresh spawn loop's draws, and
    the parent must stand where that loop leaves it.
    """
    [call] = calls
    assert call["reads"] == reads
    trials, positions, reps, rep_positions = reads
    fresh = np.random.default_rng(seed)
    u, rep_u = reference.child_doubles(fresh, trials, max(positions, default=-1) + 1, reps,
                                       max(rep_positions, default=-1) + 1)
    assert np.array_equal(call["u"], u[:, list(positions)])
    assert np.array_equal(call["rep_u"], rep_u[..., list(rep_positions)])
    assert parent_state(rng) == parent_state(fresh)


def advanced(gen: np.random.Generator, draws: int) -> dict:
    """The state ``gen`` reaches after ``draws`` doubles."""
    gen.random(draws)
    return gen.bit_generator.state


def children(seed: int, n: int) -> list[np.random.Generator]:
    """Fresh copies of the first n children spawned from ``default_rng(seed)``."""
    return np.random.default_rng(seed).spawn(n)


def draws(gens, k: int) -> np.ndarray:
    """The next k doubles of each generator, one row per generator."""
    return np.array([g.random(k) for g in gens]).reshape(len(gens), k)


@st.composite
def votes_for(draw, n):
    return draw(st.lists(st.sampled_from("YN"), min_size=n, max_size=n))


@st.composite
def tb_case(draw):
    d = draw(st.integers(3, 12))
    n = draw(st.integers(2, d - 1))
    i = draw(st.integers(0, n - 2))
    j = draw(st.integers(i + 1, n - 1))
    return BallotConfig(d, n, Scheme.TB), draw(votes_for(n)), (i, j)


@st.composite
def db_case(draw):
    d = draw(st.integers(2, 12))
    n = draw(st.integers(1, max(n for n in range(1, d) if d ** n <= REFERENCE_BUDGET)))
    return BallotConfig(d, n, Scheme.DB), draw(votes_for(n))


@st.composite
def secure_config(draw):
    d = draw(st.integers(2, 16))
    l_n = draw(st.integers(0, d - 1))
    l_y = draw(st.integers(0, d - 1).filter(lambda l: l != l_n))
    n = draw(st.integers(1, (d - 1) // abs(l_y - l_n)))
    delta = draw(st.floats(0, 2 * np.pi / d, exclude_max=True))
    return BallotConfig(d, n, Scheme.SECURE, secrets=SecureSecrets(l_y, l_n, delta))


SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def theta_pairs(draw, config):
    """(theta_yes, theta_no) per voter: on the 2 pi / d grid plus delta, or anywhere."""
    d, delta = config.d, config.secrets.delta
    angle = st.integers(0, d - 1).map(lambda l: 2 * np.pi * l / d + delta) | st.floats(-7, 7)
    return draw(st.lists(st.tuples(angle, angle), min_size=config.N, max_size=config.N))


def mismatched_pairs(config):
    """Voter i's yes angle sits i grid steps plus 0.3 above theta_yes, so repetitions disagree."""
    return [(config.theta_yes + 2 * np.pi * i / config.d + 0.3, config.theta_no)
            for i in range(config.N)]


@st.composite
def swap_pool(draw):
    """2-5 single qudits: voting states, random states and repeats of the first."""
    d = draw(st.integers(2, 8))
    states_rng = np.random.default_rng(draw(SEEDS))
    pool = []
    for kind in draw(st.lists(st.sampled_from(["voting", "random", "repeat"]),
                              min_size=2, max_size=5)):
        if kind == "repeat" and pool:
            pool.append(pool[0])
        elif kind == "random":
            pool.append(random_state((d,), states_rng))
        else:
            step = draw(st.integers(0, d - 1))
            offset = draw(st.sampled_from([0.0, 1e-9, 0.05, 0.5]))
            pool.append(voting_qudit_state(d, 2 * np.pi * step / d + offset))
    return pool


class Scripted:
    """A stand-in generator whose ``random()`` returns the given doubles in order."""

    def __init__(self, doubles):
        self.doubles = list(doubles)

    def random(self):
        return self.doubles.pop(0)


class Fixed:
    """A stand-in generator whose every draw, and every draw of its children, is one double."""

    def __init__(self, u):
        self.u = u

    def spawn(self, n):
        return [self] * n

    def random(self):
        return self.u


class Children:
    """A stand-in generator whose k-th spawned child draws row k of ``rows``.

    A child's ``random(n)`` takes a size, as ``run_secure_vote`` calls it,
    and returns the whole row, which must hold n doubles.
    """

    def __init__(self, rows):
        self.rows = [np.asarray(row, dtype=float) for row in rows]

    def spawn(self, n):
        assert n == len(self.rows)
        return [Row(row) for row in self.rows]


class Row:
    def __init__(self, row):
        self.row = row

    def random(self, size):
        assert size == len(self.row)
        return self.row.copy()


EDGE_DOUBLES = (0.0, 1 - 2 ** -53)
EXTREMES = pytest.mark.parametrize("u", EDGE_DOUBLES, ids=["zero", "last"])


class TestKernelsMatchReferences:
    @given(tb_case(), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_collusion(self, case, seed):
        config, votes, colluders = case
        got = collusion_attack_tb(config, votes, colluders, 25, np.random.default_rng(seed))
        ref = reference.collusion_attack_tb(config, votes, colluders, 25,
                                            np.random.default_rng(seed))
        assert got.to_dict() == ref.to_dict()

    @given(db_case(), st.booleans(), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_product_ballot(self, case, honest, seed):
        config, votes = case
        got = authority_product_ballot(config, votes, np.random.default_rng(seed), trials=25,
                                       honest_ballot=honest)
        ref = reference.authority_product_ballot(config, votes, np.random.default_rng(seed),
                                                 trials=25, honest_ballot=honest)
        assert got.to_dict() == ref.to_dict()

    @given(secure_config(), st.data(), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_forgery_against_per_trial_runs(self, config, data, seed):
        cheater = data.draw(st.integers(0, config.N - 1))
        scale = data.draw(st.floats(0, 3))
        repetitions = data.draw(st.integers(1, 4))
        votes = data.draw(votes_for(config.N))
        args = (config, cheater, scale, 15)
        got = phase_estimate_attack(*args, np.random.default_rng(seed), votes=votes,
                                    repetitions=repetitions)
        ref = reference.phase_estimate_attack(*args, np.random.default_rng(seed), votes=votes,
                                              repetitions=repetitions)
        assert got.to_dict() == ref.to_dict()

    @given(secure_config(), st.data(), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_mismatched_against_per_trial_runs(self, config, data, seed):
        pairs = data.draw(theta_pairs(config))
        votes = data.draw(votes_for(config.N))
        trials = data.draw(st.sampled_from([0, 1, 3, 15]))
        repetitions = data.draw(st.integers(1, 4))
        got = mismatched_voting_states(config, pairs, votes, np.random.default_rng(seed),
                                       trials=trials, repetitions=repetitions)
        runs = reference.mismatched_runs(config, pairs, votes, np.random.default_rng(seed),
                                         trials, repetitions)
        assert got.extras["runs"] == runs
        assert got.outcome_histogram == dict(Counter(run["m"] for run in runs))

    def test_mismatched_against_per_trial_runs_above_the_elision_mark(self):
        # 600 trials of 3 repetitions at d=11: 19800 complex elements per batch.
        config = BallotConfig(11, 3, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.2))
        args = (config, mismatched_pairs(config), "YNY")
        got = mismatched_voting_states(*args, np.random.default_rng(3), trials=600)
        runs = reference.mismatched_runs(*args, np.random.default_rng(3), 600, 3)
        assert got.extras["runs"] == runs
        assert len({run["m"] for run in runs}) > 1

    def test_mismatched_memory_stays_per_trial(self):
        # One shared row holds O(d) amplitudes and CDFs, plus T*R*d one-byte
        # comparisons (1.5 MB here). A copy of the row per repetition holds
        # T*R*d of each, above 80 MB at this size.
        d, n = 1009, 20
        config = BallotConfig(d, n, Scheme.SECURE, secrets=SecureSecrets(3, 1, 0.001))
        pairs = [(config.theta_yes + 0.01 * i, config.theta_no) for i in range(n)]
        tracemalloc.start()
        try:
            report = mismatched_voting_states(config, pairs, "YN" * (n // 2),
                                              np.random.default_rng(1), trials=500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(report.outcome_histogram.values()) == 500
        assert peak < 16e6

    @given(secure_config(), st.data(), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_secure_rows_against_scalar_rounds(self, config, data, seed):
        # Each (index, offset) row against a scalar round in which voter 0
        # casts theta_no plus that phase and the others cast theta_no.
        d = config.d
        pairs = data.draw(st.lists(st.tuples(st.integers(-2 * d, 2 * d),
                                             st.floats(-2 * np.pi, 2 * np.pi)),
                                   min_size=1, max_size=6))
        index, offset = np.array(pairs).T
        u = draws(children(seed, len(pairs)), config.N + 1)[:, None]
        tallies, outcomes, ps = _secure_trials(config, index.astype(int), offset, u)
        # r is what run_secure_vote logs: its own pick from the same doubles.
        got = [list(zip(*trial)) for trial in zip(outcomes, ps, _pairing_outcomes(config, u))]
        rows = [[config.theta_no + 2 * np.pi * i / d + o] + [config.theta_no] * (config.N - 1)
                for i, o in pairs]
        ref = [[reference.secure_round(config, thetas, g)]
               for thetas, g in zip(rows, children(seed, len(rows)))]
        assert got == ref
        assert tallies == [reference.agreed_tally([m]) for [(m, _, _)] in ref]

    @given(secure_config(), st.data(), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_repeated_rows_against_one_cast_per_stream(self, config, data, seed):
        # One shared row is cast once for every trial; the reference repeats
        # it, one row per trial.
        trials, repetitions = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
        index = data.draw(st.integers(-2 * config.d, 2 * config.d))
        offset = data.draw(st.floats(-2 * np.pi, 2 * np.pi))
        u = draws(children(seed, trials * repetitions), config.N + 1)
        u = u.reshape(trials, repetitions, config.N + 1)
        assert (_secure_trials(config, index, offset, u)
                == _secure_trials(config, [index] * trials, [offset] * trials, u))

    @given(swap_pool(), st.integers(1, 12), SEEDS)
    @settings(max_examples=200, deadline=None)
    def test_swap_test_against_per_call_cdf(self, pool, comparisons, seed):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = detect_symmetry(pool, got_rng, comparisons=comparisons)
        assert got == reference.detect_symmetry(pool, ref_rng, comparisons=comparisons)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("theta_b", [0.7, 0.7 + 1e-9, 0.71, 1.2, 0.7 + 2 * np.pi / 5,
                                         0.7 + 2 * np.pi])
    def test_swap_test_threshold_at_its_boundary_doubles(self, theta_b):
        # The antisymmetric outcome starts at s = (1 + f^2)/2: the double
        # just below s passes, s itself and the double above it convict.
        pair = [voting_qudit_state(5, 0.7), voting_qudit_state(5, theta_b)]
        f2 = float(abs(np.vdot(pair[0].amps, pair[1].amps)) ** 2)
        s = (1 + f2) / 2
        below, above = np.nextafter(s, 0.0), np.nextafter(s, 2.0)
        last = np.nextafter(1.0, 0.0)
        for u in (below, s, above, last):
            if u >= 1.0:
                continue
            got = detect_symmetry(pair, Scripted([u]), comparisons=1)
            assert got == reference.detect_symmetry(pair, Scripted([u]), comparisons=1)
            assert got == (CHEATING if u >= s else CLEAN)

    @EXTREMES
    def test_collusion_at_the_extreme_doubles(self, u):
        # Every double of every trial is u; the dense reference's rounding
        # tails must not turn u into a reading the state rules out.
        for d in range(3, 11):
            for n in sorted({2, d - 1}):
                config, votes = BallotConfig(d, n, Scheme.TB), ("YYN" * d)[:n]
                with fed([np.full((3, 6), u)]):
                    got = collusion_attack_tb(config, votes, (0, n - 1), 3, None)
                ref = reference.collusion_attack_tb(config, votes, (0, n - 1), 3, Fixed(u))
                assert got.to_dict() == ref.to_dict(), (d, n)

    @EXTREMES
    @pytest.mark.parametrize("honest", [False, True])
    def test_product_ballot_at_the_extreme_doubles(self, u, honest):
        for d in range(2, 9):
            for n in range(1, d):
                if d ** n > REFERENCE_BUDGET:
                    break
                config, votes = BallotConfig(d, n, Scheme.DB), ("YNY" * d)[:n]
                with fed([np.full((3, n), u)]):
                    got = authority_product_ballot(config, votes, None, trials=3,
                                                   honest_ballot=honest)
                ref = reference.authority_product_ballot(config, votes, Fixed(u), trials=3,
                                                         honest_ballot=honest)
                assert got.to_dict() == ref.to_dict(), (d, n)

    def test_zero_rows_give_no_rounds(self):
        config = BallotConfig(11, 3, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.2))
        assert _secure_trials(config, [], [], np.zeros((0, 3, 4))) == ([], [], [])
        assert _secure_trials(config, 1, 0.3, np.zeros((0, 3, 4))) == ([], [], [])
        assert _pairing_outcomes(config, np.zeros((0, 3, 4))) == []


@contextmanager
def fed(doubles):
    """``rng.child_doubles`` patched to return each array of ``doubles`` in turn, for any rng.

    Each array holds one row of draws per trial; a call gets the columns
    at the positions it reads, and no repetition doubles.
    """
    feed = iter(doubles)

    def child_doubles(rng, trials, reads, reps=0, rep_reads=()):
        return next(feed)[:, list(reads)], None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rngmod, "child_doubles", child_doubles)
        yield


class TestCollusionBatch:
    # Shrinking thousands of trials takes minutes and finds nothing simpler.
    @given(tb_case(), SEEDS)
    @settings(max_examples=6, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    def test_trials_equal_their_one_trial_runs(self, case, seed):
        # A T-trial batch must report what T one-trial runs on the same
        # doubles report: each trial's count, and the histograms of the
        # trials' readings in first-seen order.
        config, votes, colluders = case
        trials = 1 + seed % 3000
        u = np.random.default_rng(seed).random((trials, 6))
        with fed([u] + [u[t:t + 1] for t in range(trials)]):
            batch = collusion_attack_tb(config, votes, colluders, trials, None)
            singles = [collusion_attack_tb(config, votes, colluders, 1, None)
                       for _ in range(trials)]
        assert batch.inferred_secrets["in_between_yes_counts"] == [
            s.inferred_secrets["in_between_yes_counts"][0] for s in singles]
        readings = [p for s in singles for p in s.outcome_histogram]
        assert list(batch.outcome_histogram.items()) == list(Counter(readings).items())
        for name in ("difference_decoder_histogram", "phase_decoder_histogram"):
            counts = Counter(k for s in singles for k in s.extras[name])
            assert list(batch.extras[name].items()) == list(counts.items())


class TestEdgeDoubles:
    """The closed-form readings hold at the extreme doubles 0.0 and 1 - 2**-53.

    Rounding leaves weights near 1e-32 on the p an honest row rules out.
    Unzeroed, 0.0 read such a p below the tally, and an INVALID column of
    about 1e-16 took 1 - 2**-53. The honest-readout probes count misreads
    over every row of a class, so a failure says how many rows moved.
    """

    def test_db_readout_of_every_pattern(self):
        # Every yes/no pattern of every (d, N) with d <= 199 and N <= 6, cast
        # at the DB yes angle: 48,864 readings, each the pattern's yes count.
        misreads = 0
        for d in range(2, 200):
            for n in range(1, min(6, d - 1) + 1):
                patterns = _vote_patterns(n)
                rows = _grid_rows(d, patterns.sum(axis=1), 0.0)
                for u in EDGE_DOUBLES:
                    got = phase_readings(rows, np.full(len(rows), u))
                    misreads += int(np.count_nonzero(got != patterns.sum(axis=1)))
        assert misreads == 0

    def test_survey_readout_of_every_total(self):
        # Every amount vector with a total below d, for d <= 24 and N <= 3.
        misreads = 0
        for d in range(2, 25):
            for n in range(1, min(3, d - 1) + 1):
                amounts = np.array([a for a in product(range(d), repeat=n) if sum(a) < d])
                rows = _grid_rows(d, amounts.sum(axis=1), 0.0)
                for u in EDGE_DOUBLES:
                    got = phase_readings(rows, np.full(len(rows), u))
                    misreads += int(np.count_nonzero(got != amounts.sum(axis=1)))
        assert misreads == 0

    def test_secure_readout_of_every_accepted_pair(self):
        # Every pattern of every (l_y, l_n) BallotConfig accepts, for d <= 19,
        # N <= 3; the two doubles are a trial's two repetitions, so the trial
        # agrees on its tally only if both read it.
        misreads = 0
        for d in range(2, 20):
            for n in range(1, min(3, d - 1) + 1):
                patterns = _vote_patterns(n)
                yes = patterns.sum(axis=1).tolist()
                u = np.zeros((len(patterns), len(EDGE_DOUBLES), n + 1))
                u[..., -1] = EDGE_DOUBLES
                for l_y, l_n in product(range(d), repeat=2):
                    if _secrets_problem(d, n, l_y, l_n) is None:
                        config = BallotConfig(d, n, Scheme.SECURE,
                                              secrets=SecureSecrets(l_y, l_n, 0.1))
                        tallies, _, _ = _secure_trials(config, np.multiply(yes, l_y - l_n),
                                                       0.0, u)
                        misreads += sum(t != m for t, m in zip(tallies, yes))
        assert misreads == 0

    @EXTREMES
    def test_honest_db_run_is_clean_at_the_edge(self, u):
        # d = 7, votes YYN: the row read INVALID at 1 - 2**-53 and 0 at 0.0.
        config = BallotConfig(7, 3, Scheme.DB)
        transcript = Transcript("db-d7-n3", 1)
        result = run_db_vote(config, "YYN", Scripted([u]), transcript=transcript)
        assert result.m == 2 and verdict(transcript.events)[2] == CLEAN

    def test_collusion_phase_decode_stays_on_the_tallies(self):
        # First colluder reads 0; the decode double passes every CDF step
        # but the last, so it must read d - 1, never INVALID.
        config, last = BallotConfig(5, 4, Scheme.TB), 1 - 2 ** -53
        u = np.random.default_rng(0).random((4, 6))
        u[:, 3], u[:, 5] = 0.0, last
        with fed([u]):
            report = collusion_attack_tb(config, "YNYY", (0, 3), 4, None)
        assert report.outcome_histogram == {config.d - 1: 4}

    def test_product_ballot_reads_every_vote_at_zero(self):
        config = BallotConfig(5, 3, Scheme.DB)
        with fed([np.zeros((6, 3))]):
            report = authority_product_ballot(config, "YNY", None, trials=6)
        assert report.inferred_secrets["per_voter_accuracy"] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("d", [11, 12])
    def test_secure_readout_on_every_step(self, d):
        # A forged row read by 0.0, each CDF step below 1, the double just
        # below each step and 1 - 2**-53, one repetition each. At d=12,
        # l_y - l_n = 2 shares the gcd 2 with d, so odd p are no tally. The
        # CDF runs over the d outcomes alone, so the last double reads
        # p = d - 1, a real outcome of the forged row.
        # Two yes votes, one of them forged 0.03 off its grid step.
        config = BallotConfig(d, 3, Scheme.SECURE, secrets=SecureSecrets(2, 0, 0.2 / d))
        probs = _phase_basis_probs(_grid_rows(d, 4, 0.03))
        cdf = _cdf(probs)
        assert cdf.shape[-1] == d
        steps = cdf[cdf < 1.0]
        doubles = [0.0, *steps, *np.nextafter(steps, 0.0), 1 - 2 ** -53]
        u = np.zeros((1, len(doubles), config.N + 1))
        u[0, :, -1] = doubles
        [tally], [outcomes], [ps] = _secure_trials(config, 4, 0.03, u)
        ref = [(reference.solve_tally(p, config), p)
               for p in (reference.reading(probs, x) for x in doubles)]
        assert list(zip(outcomes, ps)) == ref
        gcd = 2 if d == 12 else 1
        assert ps[-1] == d - 1 and set(ps) == set(range(d)) and tally == CHEAT_DETECTED
        assert {m for m, p in zip(outcomes, ps) if p % gcd} == ({CHEAT_DETECTED} if gcd > 1
                                                               else set())
        assert CHEAT_DETECTED not in [m for m, p in zip(outcomes, ps) if p % gcd == 0]


# A double as Generator.random() returns it; the edge doubles are drawn often.
DOUBLES = st.sampled_from(EDGE_DOUBLES) | st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def phase_case(draw, max_d, max_n):
    """A DB config with d <= max_d and N <= max_n, and its votes."""
    d = draw(st.integers(2, max_d))
    n = draw(st.integers(1, min(max_n, d - 1)))
    return BallotConfig(d, n, Scheme.DB), draw(votes_for(n))


@st.composite
def survey_case(draw):
    """A SURVEY config with d <= 24 and N <= 3, and amounts whose total stays below d."""
    d = draw(st.integers(2, 24))
    n = draw(st.integers(1, min(3, d - 1)))
    amounts, left = [], d - 1
    for _ in range(n):
        amounts.append(draw(st.integers(0, left)))
        left -= amounts[-1]
    return BallotConfig(d, n, Scheme.SURVEY, max_total=d - 1), amounts


@st.composite
def secure_case(draw):
    """A SECURE config with d <= 19, N <= 3 and delta 0 or 0.1, its votes, R rows of doubles."""
    d = draw(st.integers(2, 19))
    n = draw(st.integers(1, min(3, d - 1)))
    l_y, l_n = draw(st.sampled_from([pair for pair in product(range(d), repeat=2)
                                     if _secrets_problem(d, n, *pair) is None]))
    config = BallotConfig(d, n, Scheme.SECURE,
                          secrets=SecureSecrets(l_y, l_n, draw(st.sampled_from([0.0, 0.1]))))
    rows = draw(st.lists(st.lists(DOUBLES, min_size=n + 1, max_size=n + 1),
                         min_size=1, max_size=3))
    return config, draw(votes_for(n)), rows


def engine_tally(d: int, exponents, u: float) -> int:
    """What ``phase_readings`` reads at ``u`` from the grid row of voter i casting exponents[i]."""
    return int(phase_readings(_grid_rows(d, [sum(exponents)], 0.0), [u])[0])


class TestHonestRoundsAreClosedForm:
    """Honest DB, SURVEY and SECURE rounds read their tally without the engine.

    Where ``TestEdgeDoubles`` shows the engine exact (DB d <= 199, N <= 6;
    SURVEY d <= 24, N <= 3, the sizes multi-voting takes here too; SECURE
    d <= 19, N <= 3), the closed form must read what ``_grid_rows`` and
    ``phase_readings`` (SECURE: ``_secure_trials``) read from the same
    doubles. At d = 1009 both read every honest SECURE row at 0.0.
    """

    @given(phase_case(199, 6), DOUBLES)
    @settings(max_examples=60, deadline=None)
    def test_db_reads_as_the_engine(self, case, u):
        config, votes = case
        m = run_db_vote(config, votes, Scripted([u])).m
        assert m == engine_tally(config.d, [int(v == "Y") for v in votes], u)

    @given(survey_case(), DOUBLES)
    @settings(max_examples=60, deadline=None)
    def test_survey_reads_as_the_engine(self, case, u):
        config, amounts = case
        assert run_survey(config, amounts, Scripted([u])).m == engine_tally(config.d, amounts, u)

    # extra >= d makes the tally wrap: without its mod d, the round reads past d - 1.
    @given(phase_case(24, 3), st.integers(0, 2), st.integers(0, 48), DOUBLES)
    @example((BallotConfig(5, 2, Scheme.DB), "YN"), 0, 0, 0.5)
    @settings(max_examples=60, deadline=None)
    def test_multi_vote_reads_as_the_engine(self, case, cheater, above, u):
        config, votes = case
        cheater, extra = cheater % config.N, config.d + above
        exponents = [int(v == "Y") for v in votes]
        exponents[cheater] += extra
        m = multi_vote_plain(config, votes, cheater, extra, Scripted([u])).m
        assert m == engine_tally(config.d, exponents, u)

    # l_y - l_n = -1 reads p = d - 1 for one yes vote: a flipped sign reads 1,
    # and a dropped mod d reads -1.
    @given(secure_case())
    @example((BallotConfig(5, 1, Scheme.SECURE, secrets=SecureSecrets(0, 1, 0.1)), "Y",
              [[0.5, 0.5]]))
    @example((BallotConfig(5, 1, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.0)), "Y",
              [[0.5, 0.0], [0.5, 1 - 2 ** -53]]))
    @settings(max_examples=60, deadline=None)
    def test_secure_reads_as_the_engine(self, case):
        config, votes, rows = case
        result = run_secure_vote(config, votes, Children(rows), repetitions=len(rows))
        yes = sum(Vote.parse(v) is Vote.YES for v in votes)
        index = yes * (config.secrets.l_y - config.secrets.l_n)
        [m], [outcomes], [ps] = _secure_trials(config, index, 0.0, [rows])
        assert (result.m, result.outcomes, result.p) == (m, outcomes, ps)

    def test_honest_runs_never_reach_the_engine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an honest round called the correlated engine")

        for module, name in ((ballots, "_grid_rows"), (protocols, "_grid_rows"),
                             (protocols, "_secure_trials"), (ballots, "phase_readings"),
                             (protocols, "phase_readings")):
            monkeypatch.setattr(module, name, refuse)
        rng = np.random.default_rng(1)
        db = BallotConfig(11, 6, Scheme.DB)
        assert run_db_vote(db, "YNYYNY", rng, Transcript("db", 1)).m == 4
        assert multi_vote_plain(db, "YNYYNY", 1, 12, rng).m == 5
        survey = BallotConfig(7, 3, Scheme.SURVEY, max_total=6)
        assert run_survey(survey, [1, 2, 0], rng, Transcript("survey", 1)).m == 3
        assert run_tb_vote(BallotConfig(5, 4, Scheme.TB), "YNYY", rng).m == 3
        secure = BallotConfig(1009, 20, Scheme.SECURE, secrets=SecureSecrets(17, 5, 0.004))
        result = run_secure_vote(secure, "YN" * 10, rng, transcript=Transcript("secure", 1))
        assert (result.m, result.p) == (10, [120] * 3)

    def test_secure_d1009_reads_its_tally_at_the_edges(self):
        # Float-angle rows read outcomes [10, 11, 11], so CHEAT_DETECTED: at
        # 0.0 their residue on p = 10 stood above RESIDUE_FLOOR.
        config = BallotConfig(1009, 20, Scheme.SECURE, secrets=SecureSecrets(400, 399, 0.0))
        rows = [[0.5] * 20 + [u] for u in (0.0, 1 - 2 ** -53, 0.3)]
        result = run_secure_vote(config, "Y" * 11 + "N" * 9, Children(rows))
        assert (result.m, result.outcomes, result.p) == (11, [11] * 3, [11] * 3)
        # l_y - l_n = 1, so the engine's grid index is the yes count.
        assert _secure_trials(config, 11, 0.0, [rows]) == ([11], [[11] * 3], [[11] * 3])

    @pytest.mark.parametrize("d", [1009, 2003])
    def test_secure_reads_every_yes_count_at_zero(self, d):
        config = BallotConfig(d, 20, Scheme.SECURE, secrets=SecureSecrets(400, 399, 0.0))
        misreads = 0
        for yes in range(21):
            result = run_secure_vote(config, "Y" * yes + "N" * (20 - yes),
                                     Children([[0.0] * 21] * 3))
            misreads += (result.m, result.p) != (yes, [yes] * 3)
        assert misreads == 0

    @pytest.mark.parametrize("d", [1009, 2003])
    def test_engine_reads_every_yes_count_at_zero(self, d):
        # l_y - l_n = 1, so the grid index of y yes votes is y.
        config = BallotConfig(d, 20, Scheme.SECURE, secrets=SecureSecrets(400, 399, 0.0))
        tallies, _, _ = _secure_trials(config, np.arange(21), 0.0, np.zeros((21, 1, 21)))
        assert tallies == list(range(21))

    @pytest.mark.parametrize("d", [1009, 2003, 4001])
    def test_grid_rows_leave_no_weight_on_ruled_out_outcomes(self, d):
        # Float-angle rows left up to 6.1e-24 at d = 1009, N = 20, above
        # RESIDUE_FLOOR; a grid row leaves only the FFT's ~1e-32.
        worst = 0.0
        for start in range(0, d, 256):
            index = np.arange(start, min(d, start + 256))
            probs = _phase_basis_probs(_grid_rows(d, index, 0.0))
            probs[np.arange(len(index)), index] = 0.0
            worst = max(worst, float(probs.max()))
        assert worst < 1e-27


def dense_db_state(d: int, pattern) -> PureState:
    """The honest dense DB ballot after each voter of ``pattern`` (1 = yes) has cast."""
    state = prepare_db_ballot(d, len(pattern))
    for site, yes in enumerate(pattern):
        if yes:
            state = cast_vote_db(state, site, "Y")
    return state


def round_trip(amps: np.ndarray, axis: int = -1) -> np.ndarray:
    """``amps`` through an FFT and back, which leaves ~1e-17 where they were 0."""
    return np.fft.ifft(np.fft.fft(amps, axis=axis), axis=axis)


def fourier_rows(d: int) -> np.ndarray:
    """The correlated amplitudes of the tally states: row p is e^{i 2 pi p k / d} / sqrt(d)."""
    return np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / math.sqrt(d)


def fourier_projectors(d: int, n: int) -> ProjectorSet:
    """Projectors onto the DB tally states omega_p over n sites of dimension d."""
    return ProjectorSet.from_states([CorrelatedState(d, n, row).to_pure()
                                     for row in fourier_rows(d)])


class TestDenseReadersAtTheEdge:
    """The dense readers never read a zero-weight outcome, at 0.0 and 1 - 2**-53 too.

    Each probe counts misreads over a whole class of states. Before the
    readers dropped rounding residues, ``decode_db`` misread 302 of these
    352 states at 0.0 and 97 at 1 - 2**-53 (INVALID), ``measure_computational``
    84 of 119 and ``decode_tb`` 98 of 119 at 0.0, and ``measure_projective``
    raised on 92 of 200 states at 1 - 2**-53.
    """

    def test_decode_db_reads_every_honest_pattern(self):
        # Every yes/no pattern of every (d, N) with d <= 15 and N <= 4.
        misreads = 0
        for d in range(2, 16):
            for n in range(1, min(4, d - 1) + 1):
                for pattern in product((0, 1), repeat=n):
                    state = dense_db_state(d, pattern)
                    misreads += sum(decode_db(state, d, n, Scripted([u])) != sum(pattern)
                                    for u in EDGE_DOUBLES)
        assert misreads == 0

    def test_measure_computational_reads_round_tripped_basis_states(self):
        misreads = 0
        for d in range(2, 16):
            for k, e_k in enumerate(np.eye(d)):
                state = PureState((d,), round_trip(e_k))
                misreads += sum(measure_computational(state, 0, Scripted([u]))[0] != k
                                for u in EDGE_DOUBLES)
        assert misreads == 0

    def test_decode_tb_reads_round_tripped_shifts(self):
        # The pair sum_k |k>|k + r> / sqrt(d), its travelling site through an FFT and back.
        misreads = 0
        for d in range(2, 16):
            k = np.arange(d)
            for r in range(d):
                pair = np.zeros((d, d), dtype=complex)
                pair[k, (k + r) % d] = 1 / math.sqrt(d)
                state = PureState((d, d), round_trip(pair, axis=1).reshape(-1))
                misreads += sum(decode_tb(state, d, Scripted([u])) != r for u in EDGE_DOUBLES)
        assert misreads == 0

    def test_measure_projective_skips_a_zero_amplitude(self):
        # A complete computational basis leaves INVALID no weight, and the
        # zero amplitude's outcome none: reading either raised, since its
        # post state is the zero vector.
        rng = np.random.default_rng(0)
        bases = {n: ProjectorSet.from_states([PureState.basis((n,), (j,)) for j in range(n)])
                 for n in range(2, 9)}
        misreads = 0
        for _ in range(200):
            n = int(rng.integers(2, 9))
            amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            amps[rng.integers(n)] = 0
            state = PureState.from_amplitudes((n,), amps)
            for u in EDGE_DOUBLES:
                k = measure_projective(state, bases[n], Scripted([u]))[0]
                misreads += k == INVALID or state.amps[k] == 0
        assert misreads == 0

    def test_measure_projective_reads_fourier_basis_states(self):
        # The 65 phase states omega_p with d <= 11, as given and times e^{0.3i},
        # in the complete Fourier basis. As <psi|P psi>, a ruled-out weight kept
        # its ~1e-17 residue, and 0.0 read such an outcome 34 times (33).
        misreads = 0
        for d in range(2, 12):
            proj = fourier_projectors(d, 1)
            for p, row in enumerate(fourier_rows(d)):
                for phase in (1.0, np.exp(0.3j)):
                    state = PureState((d,), phase * row)
                    misreads += sum(measure_projective(state, proj, Scripted([u]))[0] != p
                                    for u in EDGE_DOUBLES)
        assert misreads == 0

    @pytest.mark.parametrize("votes", [(1, 1, 0), (1, 0)], ids=["N3", "N2"])
    def test_a_real_complement_still_reads_invalid(self, votes):
        # Amplitude 0.99e-6 moved off the correlated diagonal leaves INVALID
        # a weight just under 1e-12, far above the n-term rounding bound
        # n 2**-52, so a bound of 1e-12 or more would drop it. Dense tally
        # projectors hold d**(2N) entries each, so only N = 2 measures them.
        d, n, eps = 11, len(votes), 0.99e-6
        honest = dense_db_state(d, votes)
        off = np.zeros(honest.dim)
        off[1] = 1.0
        state = PureState(honest.dims, math.sqrt(1 - eps ** 2) * honest.amps + eps * off)
        want = [sum(votes), sum(votes), INVALID]
        doubles = (0.0, 0.5, 1 - 2 ** -53)
        assert [decode_db(state, d, n, Scripted([u])) for u in doubles] == want
        if n == 2:
            proj = fourier_projectors(d, n)
            assert [measure_projective(state, proj, Scripted([u]))[0] for u in doubles] == want


def parent(seed: int, spawned: int) -> np.random.Generator:
    """``default_rng(seed)`` after it has already spawned ``spawned`` children."""
    rng = np.random.default_rng(seed)
    rng.spawn(spawned)
    return rng


class TestTrialPrefixes:
    """The first k trials of a T-trial report equal a k-trial report.

    T runs on both sides of a batch-size mark: 744 trials, where one d=11
    amplitude row per trial reaches 8192 complex elements, and for the
    mismatched attack's three repetitions per trial 497 trials, where its
    rows reach 16384. The parent may have spawned already.
    """

    K = 40

    @pytest.mark.parametrize("trials", [700, 1600])
    @pytest.mark.parametrize("spawned", [0, 3])
    def test_forgery(self, trials, spawned):
        config = BallotConfig(11, 3, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.2))
        long, short = (phase_estimate_attack(config, 0, 1.0, t, parent(11, spawned),
                                             votes="YNY").extras["per_trial"]
                       for t in (trials, self.K))
        assert long[:self.K] == short

    @pytest.mark.parametrize("trials", [400, 700])
    @pytest.mark.parametrize("spawned", [0, 3])
    def test_mismatched(self, trials, spawned):
        config = BallotConfig(11, 3, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.2))
        long, short = (mismatched_voting_states(config, mismatched_pairs(config), "YNY",
                                                parent(14, spawned), trials=t).extras["runs"]
                       for t in (trials, self.K))
        assert long[:self.K] == short

    @pytest.mark.parametrize("trials", [700, 1600])
    @pytest.mark.parametrize("spawned", [0, 3])
    def test_collusion(self, trials, spawned):
        config = BallotConfig(11, 5, Scheme.TB)
        long, short = (collusion_attack_tb(config, "YNYYN", (0, 4), t, parent(12, spawned))
                       .inferred_secrets["in_between_yes_counts"] for t in (trials, self.K))
        assert long[:self.K] == short

    @pytest.mark.parametrize("trials", [700, 1600])
    @pytest.mark.parametrize("spawned", [0, 3])
    @pytest.mark.parametrize("honest", [False, True])
    def test_product_ballot(self, trials, spawned, honest):
        config = BallotConfig(11, 4, Scheme.DB)
        long, short = (authority_product_ballot(config, "YNYY", parent(13, spawned), trials=t,
                                                honest_ballot=honest)
                       .extras["per_trial_correct"] for t in (trials, self.K))
        assert long[:self.K] == short


class TestStreamConsumption:
    def test_collusion_trial_makes_six_draws(self, drawn):
        rng = np.random.default_rng(5)
        collusion_attack_tb(BallotConfig(5, 4, Scheme.TB), "YNYY", (0, 3), 8, rng)
        # Six doubles per trial, of which the phase decode reads the last.
        assert_consumed(rng, drawn, 5, (8, (5,), 0, ()))

    @pytest.mark.parametrize("honest", [False, True])
    def test_product_ballot_trial_makes_n_draws(self, drawn, honest):
        rng = np.random.default_rng(6)
        authority_product_ballot(BallotConfig(7, 4, Scheme.DB), "YNYY", rng, trials=8,
                                 honest_ballot=honest)
        # Four doubles per trial, one per site; the product ballot reads none.
        assert_consumed(rng, drawn, 6, (8, (0, 1, 2, 3) if honest else (), 0, ()))

    def test_forgery_trial_makes_one_draw_and_spawns_repetitions(self, drawn):
        config = BallotConfig(11, 3, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.2))
        rng = np.random.default_rng(7)
        phase_estimate_attack(config, 0, 1.0, 6, rng, repetitions=3)
        # The eps double, then N + 1 per repetition, of which the tally double is read.
        assert_consumed(rng, drawn, 7, (6, (0,), 3, (config.N,)))

    def test_mismatched_trial_spawns_repetitions(self, drawn):
        config = BallotConfig(11, 3, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.2))
        rng = np.random.default_rng(11)
        mismatched_voting_states(config, mismatched_pairs(config), "YNY", rng, trials=6,
                                 repetitions=3)
        assert_consumed(rng, drawn, 11, (6, (), 3, (config.N,)))

    def test_secure_repetition_makes_n_plus_one_draws(self):
        config = BallotConfig(11, 3, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.2))
        rng = Recording(np.random.default_rng(8))
        run_secure_vote(config, "YNY", rng, repetitions=4)
        assert rng.bit_generator.state == np.random.default_rng(8).bit_generator.state
        for got, fresh in zip(rng.children, children(8, 4), strict=True):
            assert got.bit_generator.state == advanced(fresh, config.N + 1)

    def test_db_and_survey_runs_make_one_draw(self):
        rng = np.random.default_rng(9)
        run_db_vote(BallotConfig(7, 3, Scheme.DB), "YNY", rng)
        assert rng.bit_generator.state == advanced(np.random.default_rng(9), 1)
        rng = np.random.default_rng(9)
        run_survey(BallotConfig(7, 3, Scheme.SURVEY, max_total=6), [1, 2, 0], rng)
        assert rng.bit_generator.state == advanced(np.random.default_rng(9), 1)
        rng = np.random.default_rng(9)
        run_tb_vote(BallotConfig(7, 3, Scheme.TB), "YNY", rng)
        assert rng.bit_generator.state == advanced(np.random.default_rng(9), 1)

    def test_swap_test_makes_one_draw_per_comparison(self):
        same = [voting_qudit_state(5, 0.9)] * 3
        rng = np.random.default_rng(10)
        assert detect_symmetry(same, rng, comparisons=7) == CLEAN
        assert rng.bit_generator.state == advanced(np.random.default_rng(10), 7)

    def test_swap_test_trials_read_every_comparison(self, drawn):
        pair = [voting_qudit_state(5, 0.9), voting_qudit_state(5, 0.9 + 2 * np.pi / 5)]
        rng = np.random.default_rng(12)
        swap_test_trials(pair, 9, rng, comparisons=4)
        assert_consumed(rng, drawn, 12, (9, (0, 1, 2, 3), 0, ()))

    def test_swap_test_stops_at_the_first_antisymmetric_outcome(self):
        pair = [voting_qudit_state(5, 0.9), voting_qudit_state(5, 0.9 + 2 * np.pi / 5)]
        used = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            verdict = detect_symmetry(pair, rng, comparisons=7)
            fresh = np.random.default_rng(seed)
            states = [fresh.bit_generator.state]
            for _ in range(7):
                fresh.random()
                states.append(fresh.bit_generator.state)
            used.append(states.index(rng.bit_generator.state))
            assert used[-1] == 7 if verdict == CLEAN else 1 <= used[-1] <= 7
        assert min(used) < 7


def swap_pools() -> dict:
    """Pools of 2-4 single qudits: identical, orthogonal and mixed overlaps."""
    a, b = voting_qudit_state(5, 0.9), voting_qudit_state(5, 0.9 + 2 * np.pi / 5)
    near = voting_qudit_state(5, 1.3)
    states_rng = np.random.default_rng(30)
    randoms = [random_state((3,), states_rng) for _ in range(3)]
    return {"identical": [a, a, a], "twins": [a, PureState(a.dims, a.amps)],
            "orthogonal": [a, b], "mixed": [a, near, b, a], "random": randoms}


SWAP_POOLS = swap_pools()


class TestSwapTestTrials:
    """The batched swap test is ``detect_symmetry`` over ``rng.spawn(T)``, verdict for verdict."""

    @pytest.mark.parametrize("trials", [0, 1, 500])
    @pytest.mark.parametrize("pool", list(SWAP_POOLS))
    def test_equals_the_per_call_spawn_loop(self, pool, trials):
        states = SWAP_POOLS[pool]
        for comparisons in range(1, 10):
            rng, loop = parent(comparisons, 3), parent(comparisons, 3)
            got = swap_test_trials(states, trials, rng, comparisons=comparisons)
            assert got == [detect_symmetry(states, g, comparisons) for g in loop.spawn(trials)]
            assert parent_state(rng) == parent_state(loop)

    @given(swap_pool(), st.integers(0, 20), st.integers(1, 12), SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_against_the_per_call_cdf(self, pool, trials, comparisons, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = swap_test_trials(pool, trials, rng, comparisons=comparisons)
        assert got == [reference.detect_symmetry(pool, g, comparisons)
                       for g in ref.spawn(trials)]
        assert parent_state(rng) == parent_state(ref)

    def test_needs_a_pcg64_parent(self):
        rng = np.random.Generator(np.random.MT19937(5))
        with pytest.raises(ConfigurationError, match="need a PCG64 parent, got MT19937"):
            swap_test_trials(SWAP_POOLS["orthogonal"], 10, rng)
        assert rng.bit_generator.seed_seq.n_children_spawned == 0
        assert np.array_equal(rng.random(4), np.random.Generator(np.random.MT19937(5)).random(4))


class TestSwapThresholdCache:
    """A cached threshold table gives what a fresh computation gives, on every call."""

    def test_equal_amplitudes_give_the_results_of_one_shared_state(self):
        a, b = SWAP_POOLS["orthogonal"]
        twin_a, twin_b = (PureState(s.dims, s.amps) for s in (a, b))
        pools = {"shared": [a, b], "twins": [twin_a, twin_b], "one state": [a, twin_a]}
        for seed in range(40):
            out = {}
            for name, states in pools.items():
                rng = np.random.default_rng(seed)
                out[name] = (detect_symmetry(states, rng), rng.bit_generator.state,
                             swap_test_trials(states, 8, np.random.default_rng(seed)))
            assert out["twins"] == out["shared"]
            assert out["one state"] == (CLEAN, advanced(np.random.default_rng(seed), 7),
                                        [CLEAN] * 8)

    def test_a_bad_pool_raises_on_every_call(self):
        a, b = SWAP_POOLS["orthogonal"]
        qutrit, two_sites = voting_qudit_state(3, 0.9), PureState.basis((5, 5), (0, 0))
        # The checks run in order: pool size, comparisons, then each state's shape.
        bad = [([a], 0, "at least two states"),
               ([a, qutrit], 0, "comparisons must be >= 1"),
               ([a, b, qutrit], 7, "single qudits of equal dimension"),
               ([a, two_sites], 7, "single qudits of equal dimension")]
        for states, comparisons, message in bad * 3:
            for run in (detect_symmetry, lambda s, g, c: swap_test_trials(s, 4, g, c)):
                rng = np.random.default_rng(3)
                with pytest.raises(ConfigurationError, match=message):
                    run(states, rng, comparisons)
                assert parent_state(rng) == parent_state(np.random.default_rng(3))
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        assert detect_symmetry([a, b], rng) == reference.detect_symmetry([a, b], ref)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_fresh_pools_get_their_own_tables_within_the_bound(self):
        # Each pair is built, tested and dropped, so a new pair may take the
        # memory of the one before it: equal pairs pass at u = 0.75 (threshold
        # 1), orthogonal ones convict (threshold 1/2), whatever came before.
        a, b = (voting_qudit_state(3, theta).amps for theta in (0.0, 2 * np.pi / 3))
        for i in range(1000):
            pair = [PureState((3,), a), PureState((3,), b if i % 2 else a)]
            verdict = detect_symmetry(pair, Scripted([0.75]), comparisons=1)
            assert verdict == (CHEATING if i % 2 else CLEAN)
            if i == 0:
                held = weakref.ref(pair[0])
            del pair
        assert _swap_thresholds.cache_info().currsize <= _SWAP_TABLES
        # An evicted pool's states are not kept alive.
        assert held() is None


def test_product_ballot_rejects_a_wrong_vote_count():
    with pytest.raises(ConfigurationError, match="expected 3 votes, got 2"):
        authority_product_ballot(BallotConfig(5, 3, Scheme.DB), "YN",
                                 np.random.default_rng(0), trials=5)


class TestReportPins:
    # sha256 of json.dumps(report.to_dict(), sort_keys=True) for 2000 trials
    # on rngmod.stream(23, TRIAL). Both attacks read closed forms: the
    # collusion decode and the honest control read the uniform CDF, and the
    # product ballot reads every vote, so these hashes move only with the
    # doubles the trials draw.
    COLLUSION = {
        (11, "YNYYNYYN", (1, 6)):
            "0d7e90c2be2866e4157049bd61fa050eb7391eb7626e59bc0c447a40150ed7bc",
        (101, "YYNYNYYNYY", (0, 8)):
            "791b9d31ad9144baad4c85a4d55ded72477944f35dbb50aa5211d8692eac2c6b",
    }
    PRODUCT = {
        (11, "YNYYN", False): "56846d24ac9d74acdc6ae95c5a625e7481d3a38eab72de27532cea5fe54b9f63",
        (11, "YNYYN", True): "4efc821f8872391cd6d8361d76683993806b2e2c325434da9afb655df7adba41",
        (101, "YYNYNNYNYY", False):
            "d8074680f4bd07b453848221631d6f7356622377dfa86aa84c03b884a63dda4d",
        (101, "YYNYNNYNYY", True):
            "40f4db8282c6025fd654d56354759ddf15f85b3917f52ced64be07bd78959e9c",
    }

    @staticmethod
    def digest(report) -> str:
        return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()

    @pytest.mark.parametrize("case", list(COLLUSION), ids=lambda c: f"d{c[0]}")
    def test_collusion(self, case):
        d, votes, colluders = case
        report = collusion_attack_tb(BallotConfig(d, len(votes), Scheme.TB), votes, colluders,
                                     2000, rngmod.stream(23, rngmod.TRIAL))
        assert self.digest(report) == self.COLLUSION[case]

    @pytest.mark.parametrize("case", list(PRODUCT), ids=lambda c: f"d{c[0]}-honest{c[2]}")
    def test_product_ballot(self, case):
        d, votes, honest = case
        report = authority_product_ballot(BallotConfig(d, len(votes), Scheme.DB), votes,
                                          rngmod.stream(23, rngmod.TRIAL), trials=2000,
                                          honest_ballot=honest)
        assert self.digest(report) == self.PRODUCT[case]
