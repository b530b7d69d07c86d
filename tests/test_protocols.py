import json
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qvote.ballots import (
    CHEAT_DETECTED,
    BallotConfig,
    Scheme,
    SecureSecrets,
    Vote,
    cast_vote_db,
    _grid_rows,
    _roots,
    decode_db,
    prepare_db_ballot,
    voting_qudit_state,
)
from qvote.adversary import (
    authority_product_ballot,
    collusion_attack_tb,
    mismatched_voting_states,
    multi_vote_plain,
    phase_estimate_attack,
)
from qvote.errors import ConfigurationError
from qvote.protocols import (
    DiningResult,
    RunResult,
    Transcript,
    _pairing_outcomes,
    _secure_trials,
    classical_dining,
    classical_modular_vote,
    dining_announcements,
    load_transcript_events,
    run_db_vote,
    run_secure_vote,
    run_survey,
    run_tb_vote,
)
from qvote.qstate import CorrelatedState, LocalUnitary, apply_local
from qvote import protocols
from qvote import rng as rngmod

import reference
from conftest import batch_rows


def weight(votes):
    return sum(1 for v in votes if Vote.parse(v) is Vote.YES)


class TestRunDbVote:
    def test_three_of_four(self):
        config = BallotConfig(5, 4, Scheme.DB)
        result = run_db_vote(config, "YNYY", rngmod.stream(42, 1))
        assert result.m == 3
        assert result.outcomes == [3]

    def test_all_no(self):
        config = BallotConfig(5, 4, Scheme.DB)
        assert run_db_vote(config, "NNNN", rngmod.stream(0, 1)).m == 0

    def test_exhaustive_hamming_weight(self):
        config = BallotConfig(5, 4, Scheme.DB)
        for votes in product("YN", repeat=4):
            result = run_db_vote(config, votes, rngmod.stream(7, 1))
            assert result.m == weight(votes)

    def test_scheme_mismatch(self):
        with pytest.raises(ConfigurationError):
            run_db_vote(BallotConfig(5, 2, Scheme.TB), "YN", rngmod.stream(0, 1))

    def test_wrong_vote_count(self):
        with pytest.raises(ConfigurationError):
            run_db_vote(BallotConfig(5, 4, Scheme.DB), "YN", rngmod.stream(0, 1))


class TestRunTbVote:
    def test_qutrit_disagreement_is_undecided(self):
        config = BallotConfig(3, 2, Scheme.TB)
        result = run_tb_vote(config, "YN", rngmod.stream(1, 1))
        assert result.m == 1
        assert result.statistics["label"] == "undecided"

    def test_three_voters(self):
        config = BallotConfig(4, 3, Scheme.TB)
        assert run_tb_vote(config, "YYY", rngmod.stream(2, 1)).m == 3

    def test_empty_pipeline(self):
        config = BallotConfig(3, 0, Scheme.TB)
        assert run_tb_vote(config, [], rngmod.stream(3, 1)).m == 0


class TestRunSecureVote:
    def test_honest_agreement(self):
        config = BallotConfig(11, 3, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.2))
        result = run_secure_vote(config, "YNY", rngmod.stream(4, 1), repetitions=5)
        assert result.m == 2
        assert result.outcomes == [2] * 5
        assert result.p == [2] * 5
        assert result.statistics["agreement"]

    def test_all_no(self):
        config = BallotConfig(11, 3, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.2))
        result = run_secure_vote(config, "NNN", rngmod.stream(5, 1))
        assert result.m == 0 and result.p == [0, 0, 0]

    # run_secure_vote always casts the honest angles; tampered angles enter
    # through mismatched_voting_states, one (theta_yes, theta_no) pair per voter.
    def test_forged_extra_phase_gets_flagged(self):
        config = BallotConfig(11, 2, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.2))
        pairs = [(config.theta_yes, config.theta_no + 2 * np.pi / 11 + np.pi / 11),
                 (config.theta_yes, config.theta_no)]
        report = mismatched_voting_states(config, pairs, "NN", rngmod.stream(6, 1), trials=60,
                                          repetitions=3)
        flagged = sum(run["m"] == CHEAT_DETECTED for run in report.extras["runs"])
        assert flagged > 30

    def test_thetas_need_one_angle_per_voter(self):
        config = BallotConfig(11, 2, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.2))
        with pytest.raises(ConfigurationError, match="need 2 theta pairs, got 1"):
            mismatched_voting_states(config, [(config.theta_yes, config.theta_no)], "NN",
                                     rngmod.stream(6, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_angle_rejected(self, bad):
        config = BallotConfig(11, 3, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.2))
        pairs = [(bad, config.theta_no)] + [(config.theta_yes, config.theta_no)] * 2
        with pytest.raises(ConfigurationError, match="voting angles must be finite"):
            mismatched_voting_states(config, pairs, "YNY", rngmod.stream(6, 1))

    def test_no_false_cheat_detection_across_1000_seeds(self):
        config = BallotConfig(7, 2, Scheme.SECURE, secrets=SecureSecrets(2, 1, 0.1))
        for seed in range(1000):
            result = run_secure_vote(config, "YN", rngmod.stream(seed, 1))
            assert result.m == 1

    def test_large_dimension_stays_fast(self):
        config = BallotConfig(13, 4, Scheme.SECURE, secrets=SecureSecrets(5, 2, 0.11))
        result = run_secure_vote(config, "YNYY", rngmod.stream(8, 1))
        assert result.m == 3
        assert result.p == [(3 * 3) % 13] * 3


# (m, p) readings at d = 12 with l_y - l_n = 2: tallies, and odd p, which
# no tally reads, the last outcome d - 1 among them. The tally index d is
# CHEAT_DETECTED; every p is an outcome in 0..d-1.
SCRIPTED_D = 12
SCRIPTED_READINGS = [(2, 4), (1, 2), (0, 0), (SCRIPTED_D, 3), (SCRIPTED_D, SCRIPTED_D - 1)]


def scripted_label(index, label):
    return label if index == SCRIPTED_D else index


class TestSecureTrialsSlicing:
    @pytest.mark.parametrize("repetitions", [1, 3])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-row", "per-trial-rows"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_scripted_readings_cut_trial_major(self, repetitions, shared, data):
        # Each trial's R readings either repeat one reading or are drawn freely.
        reading = st.sampled_from(SCRIPTED_READINGS)
        script = data.draw(st.lists(
            reading.map(lambda r: [r] * repetitions)
            | st.lists(reading, min_size=repetitions, max_size=repetitions),
            max_size=5))
        config = BallotConfig(SCRIPTED_D, 3, Scheme.SECURE, secrets=SecureSecrets(2, 0, 0.2))
        trials = len(script)
        index, offset = (1, 0.3) if shared else (np.arange(trials), 0.1 * np.arange(trials))
        u = np.random.default_rng(trials).random((trials, repetitions, config.N + 1))
        calls = []

        def scripted_readings(corr_rows, read_u):
            calls.append((corr_rows.shape, np.array(read_u)))
            return np.array(script, dtype=int).reshape(trials, repetitions, 2)[..., 1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocols, "phase_readings", scripted_readings)
            tallies, outcomes, ps = _secure_trials(config, index, offset, u)

        [(shape, read_u)] = calls
        assert shape == (1 if shared else trials, 1, config.d)
        assert np.array_equal(read_u, u[..., config.N])
        assert outcomes == [[scripted_label(m, CHEAT_DETECTED) for m, _ in trial]
                            for trial in script]
        assert ps == [[p for _, p in trial] for trial in script]
        assert all(type(p) is int for trial in ps for p in trial)
        assert tallies == [reference.agreed_tally(o) for o in outcomes]


class TestRunSurvey:
    def test_total_euros(self):
        config = BallotConfig(7, 3, Scheme.SURVEY, max_total=6)
        assert run_survey(config, [2, 0, 3], rngmod.stream(9, 1)).m == 5

    def test_all_zero(self):
        config = BallotConfig(7, 3, Scheme.SURVEY, max_total=6)
        assert run_survey(config, [0, 0, 0], rngmod.stream(10, 1)).m == 0

    def test_aliasing_rejected(self):
        config = BallotConfig(7, 2, Scheme.SURVEY, max_total=6)
        with pytest.raises(ConfigurationError):
            run_survey(config, [4, 4], rngmod.stream(11, 1))

    def test_negative_rejected(self):
        config = BallotConfig(7, 2, Scheme.SURVEY, max_total=6)
        with pytest.raises(ConfigurationError):
            run_survey(config, [3, -1], rngmod.stream(12, 1))


DENSE_BUDGET = 2_000_000


@st.composite
def dense_sized_config(draw):
    """(d, N) with N < d and d**N within the dense budget."""
    d = draw(st.integers(2, 16))
    n_max = max(n for n in range(1, d) if d ** n <= DENSE_BUDGET)
    return d, draw(st.integers(1, n_max))


@st.composite
def dense_sized_secure_config(draw):
    """A valid SECURE config whose 2N-qudit dense state fits the dense budget."""
    d = draw(st.integers(2, 16))
    n = draw(st.integers(1, max(n for n in range(1, d) if d ** (2 * n) <= DENSE_BUDGET)))
    l_n = draw(st.integers(0, d - 1))
    l_y = draw(st.sampled_from([l for l in range(d) if l != l_n and abs(l - l_n) * n < d]))
    delta = draw(st.floats(0, 2 * np.pi / d, exclude_max=True))
    return BallotConfig(d, n, Scheme.SECURE, secrets=SecureSecrets(l_y, l_n, delta))


@pytest.mark.parametrize("scheme,call", [
    (Scheme.DB, lambda c, rng: run_db_vote(c, "Y", rng)),
    (Scheme.TB, lambda c, rng: run_tb_vote(c, "Y", rng)),
    (Scheme.SECURE, lambda c, rng: run_secure_vote(c, "Y", rng, repetitions=0)),
    (Scheme.SURVEY, lambda c, rng: run_survey(c, [9], rng)),
    (Scheme.TB, lambda c, rng: collusion_attack_tb(c, "Y", (1, 0), -1, rng)),
    (Scheme.DB, lambda c, rng: multi_vote_plain(c, "Y", 9, -1, rng)),
    (Scheme.SECURE, lambda c, rng: phase_estimate_attack(c, 9, -1.0, -1, rng, votes="Y")),
    (Scheme.DB, lambda c, rng: authority_product_ballot(c, "Y", rng, trials=0)),
    (Scheme.SECURE, lambda c, rng: mismatched_voting_states(c, [], "Y", rng, repetitions=0)),
], ids=["db", "tb", "secure", "survey", "collusion", "multi-vote", "phase-estimate",
        "product-ballot", "mismatched-states"])
def test_wrong_scheme_is_reported_first(scheme, call):
    # Every other argument is bad too: the scheme guard must speak before them.
    config = BallotConfig(5, 2, Scheme.TB if scheme is Scheme.DB else Scheme.DB)
    with pytest.raises(ConfigurationError) as exc:
        call(config, rngmod.stream(0, 1))
    assert str(exc.value) == f"needs a {scheme.value} config, got {config.scheme.value}"


class TestCorrelatedMatchesDense:
    """Honest runs against the dense cast_vote_db and cast_vote_secure references."""

    @given(dense_sized_config(), st.data(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_db_stages_and_tally(self, dn, data, seed):
        d, n = dn
        votes = data.draw(st.lists(st.sampled_from([Vote.YES, Vote.NO]),
                                   min_size=n, max_size=n))
        state = prepare_db_ballot(d, n)
        for i in range(n + 1):
            if i:
                state = cast_vote_db(state, i - 1, votes[i - 1])
            compact = CorrelatedState(d, n, _grid_rows(d, weight(votes[:i]), 0.0)).to_pure()
            assert compact.dims == state.dims
            assert np.max(np.abs(compact.amps - state.amps)) <= 1e-12
        result = run_db_vote(BallotConfig(d, n, Scheme.DB), votes, rngmod.stream(seed, 1))
        assert result.m == decode_db(state, d, n, rngmod.stream(seed, 1))
        assert result.m == weight(votes)

    @given(dense_sized_config(), st.data(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_survey_tally(self, dn, data, seed):
        d, n = dn
        amounts = data.draw(st.lists(st.integers(0, (d - 1) // n), min_size=n, max_size=n))
        config = BallotConfig(d, n, Scheme.SURVEY, max_total=d - 1)
        state = prepare_db_ballot(d, n)
        for i, amount in enumerate(amounts):
            state = cast_vote_db(state, i, amount)
        result = run_survey(config, amounts, rngmod.stream(seed, 1))
        assert result.m == decode_db(state, d, n, rngmod.stream(seed, 1))
        assert result.m == sum(amounts)

    @given(st.integers(2, 16).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d - 1))),
           st.data(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_tb_stages_and_tally(self, dn, data, seed):
        d, n = dn
        config = BallotConfig(d, n, Scheme.TB)
        votes = data.draw(st.lists(st.sampled_from([Vote.YES, Vote.NO]),
                                   min_size=n, max_size=n))
        rng, ref_rng = rngmod.stream(seed, 1), rngmod.stream(seed, 1)
        result = run_tb_vote(config, votes, rng)
        assert result.m == reference.tb_vote(config, votes, ref_rng) == weight(votes) % d
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(dense_sized_secure_config(), st.data(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_secure_round(self, config, data, seed):
        d, n = config.d, config.N
        votes = data.draw(st.lists(st.sampled_from([Vote.YES, Vote.NO]),
                                   min_size=n, max_size=n))
        extra = data.draw(st.none() | st.tuples(st.integers(0, n - 1),
                                                st.floats(-np.pi, np.pi)))
        # Measured against the no-phase, the yes votes step the grid index and
        # the extra phase is the row's offset.
        index = weight(votes) * (config.secrets.l_y - config.secrets.l_n)
        u = np.random.default_rng(seed).random((1, 1, n + 1))
        _, [[m]], [[p]] = _secure_trials(config, index, 0.0 if extra is None else extra[1], u)
        [[rs]] = _pairing_outcomes(config, u)

        # Dense reference: every pairing outcome r also multiplies the
        # state by e^{-i r theta}, a global phase the correlated form drops.
        rng = np.random.default_rng(seed)
        state, ref_rs = prepare_db_ballot(d, n), []
        for i, vote in enumerate(votes):
            theta = config.theta_yes if vote is Vote.YES else config.theta_no
            state, r = reference.cast_vote_secure(state, i, voting_qudit_state(d, theta),
                                                  rng)
            ref_rs.append(r)
            if extra is not None and i == extra[0]:
                phase = np.diag(np.exp(1j * np.arange(d) * extra[1]))
                state = apply_local(state, i, LocalUnitary(d, phase))
        assert rs == ref_rs
        assert (m, p) == reference.decode_secure(state, config, rng)

    def test_runs_beyond_the_dense_budget(self):
        # 13**12 amplitudes could never be held densely.
        votes = "YNYYNYNNYYYN"
        result = run_db_vote(BallotConfig(13, 12, Scheme.DB), votes, rngmod.stream(4, 1))
        assert result.m == weight(votes)
        config = BallotConfig(13, 12, Scheme.SURVEY, max_total=12)
        amounts = [1, 0, 2, 0, 0, 3, 1, 0, 0, 2, 1, 0]
        assert run_survey(config, amounts, rngmod.stream(5, 1)).m == 10


NO_SHRINK = settings(max_examples=8, deadline=None,
                     phases=[Phase.explicit, Phase.reuse, Phase.generate])


class TestCastBatch:
    # A failing seed shrinks to nothing simpler, and shrinking batches of
    # thousands of rows takes minutes, so the first failure is reported.
    @NO_SHRINK
    @given(st.integers(2, 16), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_rows_equal_their_one_row_casts(self, d, above, seed):
        # Per-row pairs, one index every offset shares (the forgery's shape)
        # and one offset every index shares (check_privacy's).
        rng = np.random.default_rng(seed)
        rows = batch_rows(d, above, seed)
        index, offset = rng.integers(-3 * d, 3 * d, rows), rng.uniform(-2 * np.pi, 2 * np.pi, rows)
        for i, o in ((index, offset), (index[:1], offset), (index, offset[:1])):
            singles = np.array([_grid_rows(d, a, b) for a, b in np.broadcast(i, o)])
            assert _same_bits(_grid_rows(d, i, o), singles)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_yes_angle_arrays_have_the_scalar_bits():
    # ``check_privacy`` builds rows from arrays of yes counts, the engine
    # tests from one int at a time.
    for d in (*range(2, 40), 101, 1009):
        exponents = np.arange(2 * d + 1)
        scalars = np.array([_grid_rows(d, int(e), 0.0) for e in exponents])
        assert _same_bits(_grid_rows(d, exponents, 0.0), scalars)


@st.composite
def forged_round(draw):
    """An accepted SECURE config with d <= 64, its votes, and a forged (voter, offset) or None."""
    d = draw(st.integers(2, 64))
    n = draw(st.integers(1, min(5, d - 1)))
    l_n = draw(st.integers(0, d - 1))
    l_y = draw(st.sampled_from([l for l in range(d) if l != l_n and abs(l - l_n) * n < d]))
    delta = draw(st.floats(0, 2 * np.pi / d, exclude_max=True))
    config = BallotConfig(d, n, Scheme.SECURE, secrets=SecureSecrets(l_y, l_n, delta))
    votes = draw(st.lists(st.sampled_from([Vote.YES, Vote.NO]), min_size=n, max_size=n))
    forged = draw(st.none() | st.tuples(st.integers(0, n - 1), st.floats(-np.pi, np.pi)))
    return config, votes, forged


class TestCastMatchesReference:
    """``_grid_rows`` against ``reference.cast``, one exp per voter, and against its own table.

    Shrinking is off, as in TestCastBatch.
    """

    @given(forged_round())
    @settings(max_examples=200, deadline=None)
    def test_grid_rows_equal_the_compensated_cast(self, case):
        # The voters' angles, a forger's Delta + eps included, less the no-phase
        # e^{ik N theta_n}: the grid row at (yes count + forged) (l_y - l_n), offset eps.
        config, votes, forged = case
        d, dl = config.d, config.secrets.l_y - config.secrets.l_n
        thetas = reference.honest_thetas(config, votes)
        index, offset = weight(votes) * dl, 0.0
        if forged is not None:
            thetas[forged[0]] += 2 * np.pi * dl / d + forged[1]
            index, offset = index + dl, forged[1]
        compensation = np.exp(-1j * np.arange(d) * config.N * config.theta_no)
        want = reference.cast(d, thetas) * compensation
        assert np.max(np.abs(_grid_rows(d, index, offset) - want)) <= 1e-12

    @NO_SHRINK
    @given(st.integers(2, 16), st.lists(st.floats(-4 * np.pi, 4 * np.pi), min_size=1,
                                        max_size=4), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_repeated_angles_match_bit_for_bit(self, d, table, above, seed):
        # (index, offset) pairs from a small table repeat within and across
        # rows, as honest and forged rows do. Given strided, contiguous and as
        # one pair, on either side of 16384 complex elements, each row keeps
        # the bits of its one-pair build.
        rng = np.random.default_rng(seed)
        rows = batch_rows(d, above, seed)
        indices, offsets = rng.integers(-2 * d, 2 * d, 3), np.array([0.0, -0.0, *table])
        wide_index = indices[rng.integers(len(indices), size=2 * rows)]
        wide_offset = offsets[rng.integers(len(offsets), size=2 * rows)]
        index, offset = wide_index[::2], wide_offset[::2]
        singles = np.array([_grid_rows(d, i, o) for i, o in zip(index, offset)])
        for i, o in ((index, offset), (np.ascontiguousarray(index), np.ascontiguousarray(offset))):
            assert _same_bits(_grid_rows(d, i, o), singles)
        assert _same_bits(_grid_rows(d, index[0], offset[0]), singles[0])

    def test_row_with_both_zeros(self):
        # At offset 0.0 or -0.0 a row is its table entries over sqrt(d), bit for bit.
        for d in (2, 7, 1009):
            for index in (0, 1, d - 1, 3 * d + 2, -5):
                want = _roots(d)[index * np.arange(d) % d] / np.sqrt(d)
                for offset in (0.0, -0.0, [0.0, -0.0]):
                    rows = _grid_rows(d, index, offset)
                    assert all(_same_bits(row, want) for row in rows.reshape(-1, d))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @NO_SHRINK
    @given(st.integers(2, 16), st.data(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_angle_anywhere_raises(self, d, data, seed, bad):
        # A non-finite yes or no angle of any voter, cast or not, is refused
        # before any trial; the reference cast refuses a cast one by its norm.
        n = data.draw(st.integers(1, d - 1))
        config = BallotConfig(d, n, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.1 / d))
        votes = data.draw(st.lists(st.sampled_from("YN"), min_size=n, max_size=n))
        rng = np.random.default_rng(seed)
        pairs = rng.uniform(-4 * np.pi, 4 * np.pi, (n, 2))
        voter, slot = rng.integers(n), rng.integers(2)
        pairs[voter, slot] = bad
        with pytest.raises(ConfigurationError, match="voting angles must be finite"):
            mismatched_voting_states(config, pairs.tolist(), votes, rngmod.stream(seed, 1))
        cast = [pair[0 if v == "Y" else 1] for pair, v in zip(pairs, votes)]
        if slot == (0 if votes[voter] == "Y" else 1):
            with pytest.raises(ConfigurationError, match="not normalized"):
                reference.cast(d, cast)


class TestOutcomePermutationInvariance:
    @pytest.mark.parametrize("scheme,d,n", [(Scheme.DB, 5, 3), (Scheme.DB, 5, 4),
                                            (Scheme.TB, 5, 3), (Scheme.TB, 5, 4)])
    def test_all_permutations_same_tally(self, scheme, d, n):
        config = BallotConfig(d, n, scheme)
        run = run_db_vote if scheme is Scheme.DB else run_tb_vote
        for base in product("YN", repeat=n):
            tallies = {run(config, list(p), rngmod.stream(13, 1)).m
                       for p in set(permutations(base))}
            assert tallies == {weight(base)}


class TestTranscript:
    def make_transcript(self, seed=42):
        config = BallotConfig(5, 4, Scheme.DB)
        t = Transcript("db-test", seed)
        run_db_vote(config, "YNYY", rngmod.stream(seed, rngmod.REPETITION), transcript=t)
        return t

    def test_event_order_and_single_measure(self):
        t = self.make_transcript()
        steps = [e["step"] for e in t.events]
        assert steps == ["PREPARE", "DISTRIBUTE", "VOTE", "VOTE", "VOTE", "VOTE",
                         "RETURN", "MEASURE"]
        t.validate()

    def test_replay_is_bit_exact(self):
        assert self.make_transcript().jsonl() == self.make_transcript().jsonl()

    def test_commitments_hide_choices(self):
        t = self.make_transcript()
        for event in t.events:
            payload = event.get("payload") or {}
            for value in payload.values():
                assert value not in ("Y", "N", "YES", "NO")
        # different sites commit to different digests even for equal votes
        votes = [e["payload"]["commitment"] for e in t.events if e["step"] == "VOTE"]
        assert len(set(votes)) == len(votes)

    def test_salt_depends_on_seed(self):
        a, b = self.make_transcript(seed=1), self.make_transcript(seed=2)
        assert a.commit(0, 0, "Y") != b.commit(0, 0, "Y")

    def test_jsonl_equals_json_dumps_per_event(self):
        # Non-ASCII text must be escaped and separators compact, as json.dumps
        # writes them: transcripts replay byte for byte.
        t = Transcript("enc-test", 0)
        t.event(0, "PREPARE",
                payload={"note": "Zoë ✓ 投票", "d": {"z": [-0.0, 1e-300], "a": None}})
        t.event(0, "DISTRIBUTE")
        t.event(0, "VOTE", site=3, payload={"r": 2, "x": {"nested": {"y": "ü"}}})
        t.event(0, "MEASURE", outcome={"p": -0.0, "m": 1e-300, "label": "≠"})
        expected = "".join(json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n"
                           for e in t.events)
        assert t.jsonl() == expected

    def test_validate_rejects_double_measure(self):
        t = Transcript("x", 0)
        t.event(0, "MEASURE", outcome=1)
        t.event(0, "MEASURE", outcome=1)
        with pytest.raises(ConfigurationError):
            t.validate()

    def test_write_and_load_roundtrip(self, tmp_path):
        t = self.make_transcript()
        path = tmp_path / "t.jsonl"
        t.write(path)
        events = load_transcript_events(path)
        assert events == t.events

    def test_load_reports_corrupt_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"step": "MEASURE", "rep": 0}\nnot json\n{"rep": 1}\n')
        with pytest.raises(ConfigurationError, match="2, 3"):
            load_transcript_events(path)

    def test_load_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            load_transcript_events(path)

    def test_secure_transcript_one_measure_per_repetition(self):
        config = BallotConfig(7, 2, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.1))
        t = Transcript("sec", 3)
        run_secure_vote(config, "YY", rngmod.stream(3, rngmod.REPETITION),
                        repetitions=3, transcript=t)
        t.validate()
        measures = [e for e in t.events if e["step"] == "MEASURE"]
        assert [e["rep"] for e in measures] == [0, 1, 2]
        assert all(e["outcome"]["m"] == 2 for e in measures)


class TestClassicalDining:
    def test_exhaustive_three_diners(self):
        pairs = [(0, 1), (0, 2), (1, 2)]
        for bits in product([0, 1], repeat=3):
            coins = dict(zip(pairs, bits))
            for payer in (None, 0, 1, 2):
                ann = dining_announcements(3, payer, coins)
                parity = sum(ann) % 2
                assert parity == (0 if payer is None else 1)

    def test_seeded_wrapper(self):
        res = classical_dining(3, None, rngmod.stream(1, 4))
        assert isinstance(res, DiningResult) and res.nsa_paid
        res = classical_dining(3, 2, rngmod.stream(1, 4))
        assert not res.nsa_paid

    def test_larger_group(self):
        for seed in range(50):
            payer = seed % 7 if seed % 2 else None
            res = classical_dining(7, payer, rngmod.stream(seed, 4))
            assert res.nsa_paid == (payer is None)

    def test_too_few_diners(self):
        with pytest.raises(ConfigurationError):
            classical_dining(2, None, rngmod.stream(0, 4))


class TestClassicalModularVote:
    def test_known_vector(self):
        assert classical_modular_vote([1, 0, 1, 1], rngmod.stream(6, 4)) == 3

    def test_all_zero(self):
        assert classical_modular_vote([0, 0, 0, 0], rngmod.stream(6, 4)) == 0

    def test_monte_carlo_exact(self):
        rng = rngmod.stream(21, 4)
        for _ in range(1000):
            votes = [int(rng.integers(0, 2)) for _ in range(6)]
            assert classical_modular_vote(votes, rng) == sum(votes)

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=9),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_antisymmetric_keys_cancel(self, votes, seed):
        assert classical_modular_vote(votes, np.random.default_rng(seed)) == sum(votes)

    def test_rejects_non_bits(self):
        with pytest.raises(ConfigurationError):
            classical_modular_vote([0, 2], rngmod.stream(0, 4))


class TestRunResult:
    def test_honest_outcomes_identical(self):
        config = BallotConfig(7, 2, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.1))
        result = run_secure_vote(config, "YN", rngmod.stream(30, 1), repetitions=4)
        assert len(set(result.outcomes)) == 1

    def test_serializable(self):
        result = RunResult("DB", 3, [3], statistics={"x": 1})
        assert json.loads(json.dumps(result.to_dict()))["m"] == 3
