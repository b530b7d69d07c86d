import math
from itertools import product

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from qvote.ballots import (
    CHEAT_DETECTED,
    BallotConfig,
    Scheme,
    SecureSecrets,
    Vote,
    cast_vote_db,
    decode_db,
    decode_tb,
    draw_secrets,
    phase_readings,
    prepare_db_ballot,
    prepare_tb_ballot,
    voting_qudit_state,
    _grid_rows,
    _phase_basis_probs,
    _roots,
)
from qvote.errors import ConfigurationError
from qvote import protocols
from qvote.protocols import _secure_trials
from qvote.qstate import (
    INVALID,
    CorrelatedState,
    LocalUnitary,
    ProjectorSet,
    PureState,
    apply_local,
    measure_projective,
    reduced_density,
    tensor,
    _cdf,
    _pick,
)

from conftest import batch_rows, random_state
from reference import (
    cast_vote_secure,
    decode_secure,
    inner,
    phase_vote_unitary,
    shift_unitary,
    solve_tally,
)


def states_equal_up_to_phase(a, b, atol=1e-10):
    return abs(abs(np.vdot(a.amps, b.amps)) - 1) < atol


def omega_state(d, n, m):
    """Post-vote tally state with m yes phases, built independently."""
    c = np.exp(2j * np.pi * m * np.arange(d) / d) / math.sqrt(d)
    return CorrelatedState(d, n, c).to_pure()


class TestBallotConfig:
    def test_db_requires_d_above_n(self):
        with pytest.raises(ConfigurationError):
            BallotConfig(3, 3, Scheme.DB)
        BallotConfig(4, 3, Scheme.DB)

    def test_tb_allows_observer_only_run(self):
        BallotConfig(3, 0, Scheme.TB)

    def test_tb_needs_all_tallies_distinguishable(self):
        with pytest.raises(ConfigurationError):
            BallotConfig(3, 3, Scheme.TB)
        BallotConfig(4, 3, Scheme.TB)

    def test_survey_needs_declared_max(self):
        with pytest.raises(ConfigurationError):
            BallotConfig(7, 3, Scheme.SURVEY)
        with pytest.raises(ConfigurationError):
            BallotConfig(7, 3, Scheme.SURVEY, max_total=7)
        BallotConfig(7, 3, Scheme.SURVEY, max_total=6)

    def test_secure_secret_constraints(self):
        BallotConfig(7, 2, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.3))
        with pytest.raises(ConfigurationError):
            BallotConfig(7, 2, Scheme.SECURE)
        with pytest.raises(ConfigurationError):
            BallotConfig(7, 2, Scheme.SECURE, secrets=SecureSecrets(1, 1, 0.3))
        with pytest.raises(ConfigurationError):  # |l_y - l_n| * N >= d
            BallotConfig(7, 2, Scheme.SECURE, secrets=SecureSecrets(5, 1, 0.3))
        with pytest.raises(ConfigurationError, match="got 8 >= 8"):  # |l_y - l_n| * N == d
            BallotConfig(8, 2, Scheme.SECURE, secrets=SecureSecrets(4, 0, 0.1))
        with pytest.raises(ConfigurationError):  # delta out of [0, 2pi/d)
            BallotConfig(7, 2, Scheme.SECURE, secrets=SecureSecrets(1, 0, 1.0))

    def test_secrets_rejected_outside_secure(self):
        with pytest.raises(ConfigurationError):
            BallotConfig(5, 2, Scheme.DB, secrets=SecureSecrets(1, 0, 0.1))

    def test_max_total_rejected_outside_survey(self):
        with pytest.raises(ConfigurationError):
            BallotConfig(5, 2, Scheme.DB, max_total=4)

    @pytest.mark.parametrize("d", range(3, 13))
    def test_every_accepted_secret_pair_decodes_every_tally(self, d):
        # The aliasing rule is sharp: at |l_y - l_n| * N = d, N yes votes read as 0.
        for n in range(1, min(d, 5)):
            for l_y, l_n in product(range(d), repeat=2):
                try:
                    config = BallotConfig(d, n, Scheme.SECURE,
                                          secrets=SecureSecrets(l_y, l_n, 0.1 / d))
                except ConfigurationError:
                    continue
                # w yes votes sit w (l_y - l_n) grid steps off the no-phase.
                tallies, _, _ = _secure_trials(config, np.arange(n + 1) * (l_y - l_n), 0.0,
                                               np.full((n + 1, 1, n + 1), 0.5))
                assert tallies == list(range(n + 1)), (d, n, l_y, l_n)

    def test_drawn_secrets_are_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = draw_secrets(11, 4, rng)
            BallotConfig(11, 4, Scheme.SECURE, secrets=s)
        for d, n in ((2, 2), (3, 4)):  # no valid pair: refused, not drawn forever
            with pytest.raises(ConfigurationError, match="must stay below d"):
                draw_secrets(d, n, rng)


class TestPrepare:
    def test_db_qutrit_pair(self):
        state = prepare_db_ballot(3, 2)
        expected = np.zeros(9, dtype=complex)
        expected[[0, 4, 8]] = 1 / math.sqrt(3)
        np.testing.assert_allclose(state.amps, expected, atol=1e-12)

    def test_db_single_voter_uniform(self):
        state = prepare_db_ballot(2, 1)
        np.testing.assert_allclose(state.amps, np.full(2, 1 / math.sqrt(2)), atol=1e-12)

    def test_db_structure_oracle(self):
        state = prepare_db_ballot(5, 4)
        nonzero = np.flatnonzero(np.abs(state.amps) > 1e-14)
        # only the |jjjj> positions carry weight
        expected_positions = [int(np.ravel_multi_index((j,) * 4, (5,) * 4)) for j in range(5)]
        assert nonzero.tolist() == expected_positions
        np.testing.assert_allclose(state.amps[nonzero], np.full(5, 1 / math.sqrt(5)),
                                   atol=1e-12)

    def test_db_rejects_undersized_dimension(self):
        with pytest.raises(ConfigurationError):
            prepare_db_ballot(3, 3)

    def test_tb_pair_and_travelling_mixture(self):
        state = prepare_tb_ballot(3)
        np.testing.assert_allclose(state.amps, prepare_db_ballot(3, 2).amps, atol=1e-12)
        bell = prepare_tb_ballot(2)
        np.testing.assert_allclose(bell.amps, np.array([1, 0, 0, 1]) / math.sqrt(2),
                                   atol=1e-12)
        rho = reduced_density(state, [1])
        np.testing.assert_allclose(rho.mat, np.eye(3) / 3, atol=1e-12)


class TestVotingOperators:
    def test_phase_vote_qubit(self):
        np.testing.assert_allclose(phase_vote_unitary(2).mat, np.diag([1, -1]), atol=1e-12)

    def test_phase_vote_qutrit_matches_stated_solution_up_to_phase(self):
        u = phase_vote_unitary(3).mat
        stated = np.diag(np.exp(1j * np.array([2 * np.pi / 3, 4 * np.pi / 3, 2 * np.pi])))
        np.testing.assert_allclose(stated, np.exp(2j * np.pi / 3) * u, atol=1e-12)

    def test_phase_vote_order_d(self):
        u = phase_vote_unitary(7).mat
        acc = np.eye(7, dtype=complex)
        for _ in range(7):
            acc = acc @ u
        np.testing.assert_allclose(acc, np.eye(7), atol=1e-12)

    def test_shift_wraps(self):
        out = apply_local(PureState.basis((3,), (2,)), 0, shift_unitary(3))
        assert out.amps[0] == pytest.approx(1)

    def test_shift_qubit_is_x(self):
        np.testing.assert_allclose(shift_unitary(2).mat, [[0, 1], [1, 0]], atol=1e-12)

    def test_shift_order_d(self):
        np.testing.assert_allclose(np.linalg.matrix_power(shift_unitary(5).mat, 5), np.eye(5),
                                   atol=1e-12)


class TestVotePhases:
    def test_dense_operator_and_cast_carry_the_table_bits(self):
        # cast_vote_db indexes the roots table at e k mod d. It must keep the
        # bits of the yes table e^{i 2 pi k / d} indexed there, which the
        # dense operator in reference.py holds.
        g = np.random.default_rng(31)
        for d in range(2, 65):
            k = np.arange(d)
            table = np.exp(2j * np.pi * k / d)
            assert np.array_equal(_roots(d).view(np.uint64), table.view(np.uint64))
            assert np.array_equal(phase_vote_unitary(d).mat.diagonal().copy().view(np.uint64),
                                  table.view(np.uint64))
            amps = g.normal(size=4 * d) + 1j * g.normal(size=4 * d)
            state = PureState.from_amplitudes((2, d, 2), amps)
            for e in range(2 * d + 1):
                expected = state.shaped() * table[e * k % d].reshape(1, d, 1)
                assert np.array_equal(cast_vote_db(state, 1, e).amps.view(np.uint64),
                                      expected.reshape(-1).view(np.uint64)), (d, e)


class TestPhaseBasisProbs:
    def test_product_ballot_cdfs_equal_the_orthonormal_fft(self):
        # The grid rows of no and one yes vote, read in one batch. At offset 0
        # each row must be its roots-table entries over sqrt(d), bit for bit,
        # and each CDF must keep the bits of |fft(row, norm="ortho")|^2 taken
        # on its own, here for every d up to 1009.
        for d in range(2, 1010):
            k = np.arange(d)
            rows = _grid_rows(d, np.array([0, 1]), 0.0)
            got = _cdf(_phase_basis_probs(rows))
            for e, row in enumerate(rows):
                x = _roots(d)[e * k % d] / math.sqrt(d)
                assert np.array_equal(row.view(np.uint64), x.view(np.uint64)), (d, e)
                ref = _cdf(np.abs(np.fft.fft(x, norm="ortho")) ** 2)
                assert np.array_equal(got[e].view(np.uint64), ref.view(np.uint64)), (d, e)


class TestVotingQuditState:
    def test_theta_zero_qubit(self):
        np.testing.assert_allclose(voting_qudit_state(2, 0.0).amps,
                                   np.full(2, 1 / math.sqrt(2)), atol=1e-12)

    def test_qutrit_amplitudes_direct_evaluation(self):
        theta = 2 * np.pi / 3
        psi = voting_qudit_state(3, theta)
        oracle = np.array([np.exp(1j * k * theta) for k in range(3)]) / math.sqrt(3)
        np.testing.assert_allclose(psi.amps, oracle, atol=1e-12)

    def test_lattice_shifted_states_orthogonal_geometric_sum(self):
        d, l = 5, 2
        theta = 0.37
        a = voting_qudit_state(d, theta)
        b = voting_qudit_state(d, theta + 2 * np.pi * l / d)
        geometric = sum(np.exp(1j * k * 2 * np.pi * l / d) for k in range(d)) / d
        assert abs(geometric) < 1e-12
        assert abs(inner(a, b)) < 1e-12


class TestCastVoteDb:
    def test_yes_no_pair_produces_omega1(self):
        state = prepare_db_ballot(3, 2)
        state = cast_vote_db(state, 0, Vote.YES)
        state = cast_vote_db(state, 1, Vote.NO)
        np.testing.assert_allclose(state.amps, omega_state(3, 2, 1).amps, atol=1e-12)

    def test_no_is_identity(self):
        state = prepare_db_ballot(3, 2)
        out = cast_vote_db(state, 0, Vote.NO)
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)

    def test_yes_repeated_d_times_wraps(self):
        state = prepare_db_ballot(3, 2)
        out = cast_vote_db(state, 1, 3)
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)

    def test_survey_multiplicity(self):
        state = cast_vote_db(prepare_db_ballot(7, 2), 0, 4)
        np.testing.assert_allclose(state.amps, omega_state(7, 2, 4).amps, atol=1e-12)

    def test_site_out_of_range(self):
        with pytest.raises(ConfigurationError):
            cast_vote_db(prepare_db_ballot(3, 2), 2, Vote.NO)

    @given(st.lists(st.integers(2, 6), min_size=1, max_size=4), st.data(),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_matrix_power_on_random_states(self, dims, data, seed):
        # A DB ballot is the same on every site, so only a random state with
        # mixed dimensions shows a phase applied along the wrong axis.
        site = data.draw(st.integers(0, len(dims) - 1))
        d = dims[site]
        choice = data.draw(st.sampled_from([Vote.YES, Vote.NO]) | st.integers(0, 3 * d))
        g = np.random.default_rng(seed)
        amps = g.normal(size=math.prod(dims)) + 1j * g.normal(size=math.prod(dims))
        state = PureState.from_amplitudes(dims, amps)
        exponent = int(choice is Vote.YES) if isinstance(choice, Vote) else choice
        op = LocalUnitary(d, np.linalg.matrix_power(phase_vote_unitary(d).mat, exponent))
        np.testing.assert_allclose(cast_vote_db(state, site, choice).amps,
                                   apply_local(state, site, op).amps, rtol=0, atol=1e-12)


def pairing_projectors(d):
    """Explicit P_r matrices on (ballot, voting) for the dense oracle."""
    projs = []
    for r in range(d):
        p = np.zeros((d * d, d * d), dtype=complex)
        for j in range(d):
            idx = ((j + r) % d) * d + j
            p[idx, idx] = 1.0
        projs.append(p)
    return projs


class TestCastVoteSecure:
    def test_outcome_uniform_against_projector_oracle(self):
        d, theta = 3, 0.9
        ballot = voting_qudit_state(d, 0.0)  # N=1 ballot: uniform single qudit
        joint = tensor(ballot, voting_qudit_state(d, theta))
        for p in pairing_projectors(d):
            assert np.vdot(joint.amps, p @ joint.amps).real == pytest.approx(1 / 3, abs=1e-12)
        counts = np.zeros(d)
        for g in np.random.default_rng(0).spawn(600):
            _, r = cast_vote_secure(ballot, 0, voting_qudit_state(d, theta), g)
            counts[r] += 1
        assert counts.min() > 140

    def test_post_state_matches_stated_form(self):
        d = 3
        theta = 2 * np.pi * 1 / d + 0.4
        ballot = voting_qudit_state(d, 0.0)
        for g in np.random.default_rng(1).spawn(10):
            new_state, r = cast_vote_secure(ballot, 0, voting_qudit_state(d, theta), g)
            c = np.exp(-1j * r * theta) * np.exp(1j * np.arange(d) * theta) / math.sqrt(d)
            expected = CorrelatedState(d, 2, c / np.linalg.norm(c)).to_pure()
            np.testing.assert_allclose(new_state.amps, expected.amps, atol=1e-10)

    def test_no_token_produces_no_phases(self):
        d = 3
        theta_n = 0.2
        ballot = voting_qudit_state(d, 0.0)
        new_state, r = cast_vote_secure(ballot, 0, voting_qudit_state(d, theta_n),
                                        np.random.default_rng(2))
        expected = CorrelatedState(
            d, 2, np.exp(1j * np.arange(d) * theta_n) / math.sqrt(d)).to_pure()
        assert states_equal_up_to_phase(new_state, expected)

    def test_multi_site_ballot_keeps_cross_site_correlation(self):
        d = 3
        theta = 0.5
        state = prepare_db_ballot(d, 2)
        new_state, r = cast_vote_secure(state, 0, voting_qudit_state(d, theta),
                                        np.random.default_rng(3))
        expected = CorrelatedState(
            d, 3, np.exp(1j * np.arange(d) * theta) / math.sqrt(d)).to_pure()
        assert states_equal_up_to_phase(new_state, expected)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            cast_vote_secure(prepare_db_ballot(3, 2), 0, voting_qudit_state(4, 0.1),
                             np.random.default_rng(0))

    def test_non_ladder_token_collapses_physically(self):
        # a basis-state token pins the ballot digit to the measured r
        d = 3
        token = PureState.basis((d,), (0,))
        for g in np.random.default_rng(4).spawn(10):
            new_state, r = cast_vote_secure(prepare_db_ballot(d, 2), 0, token, g)
            expected = PureState.basis((d, d, d), (r, r, r))
            np.testing.assert_allclose(np.abs(new_state.amps), expected.amps, atol=1e-12)


class TestDecodeDb:
    def test_two_yes_one_no(self):
        state = prepare_db_ballot(5, 3)
        for site, choice in enumerate([Vote.YES, Vote.YES, Vote.NO]):
            state = cast_vote_db(state, site, choice)
        for g in np.random.default_rng(4).spawn(10):
            assert decode_db(state, 5, 3, g) == 2

    def test_all_no(self):
        state = prepare_db_ballot(5, 3)
        assert decode_db(state, 5, 3, np.random.default_rng(5)) == 0

    def test_collapsed_state_decodes_uniformly(self):
        collapsed = PureState.basis((5,) * 3, (0, 0, 0))
        # |<Omega_m|000>|^2 = 1/5 for every m
        for m in range(5):
            overlap = inner(omega_state(5, 3, m), collapsed)
            assert abs(overlap) ** 2 == pytest.approx(1 / 5, abs=1e-12)
        counts = np.zeros(5)
        for g in np.random.default_rng(6).spawn(2000):
            out = decode_db(collapsed, 5, 3, g)
            assert out != INVALID
            counts[out] += 1
        assert chisquare(counts).pvalue > 0.01

    def test_leaky_state_hits_invalid(self):
        state = PureState.from_amplitudes((3, 3), [1, 1, 0, 0, 1, 0, 0, 0, 1])
        outs = {decode_db(state, 3, 2, g) for g in np.random.default_rng(7).spawn(200)}
        assert INVALID in outs

    def test_matches_projective_measurement_semantics(self):
        state = prepare_db_ballot(3, 2)
        state = cast_vote_db(state, 0, Vote.YES)
        proj = ProjectorSet.from_states([omega_state(3, 2, m) for m in range(3)])
        outcome, _, prob = measure_projective(state, proj, np.random.default_rng(8))
        assert outcome == decode_db(state, 3, 2, np.random.default_rng(9)) == 1
        assert prob == pytest.approx(1, abs=1e-12)

    def test_phase_readings_break_ties_as_pick_does(self):
        # A double equal to a CDF step reads the next outcome, as _pick does.
        # The CDF runs over the d = 7 outcomes alone, with no INVALID entry,
        # so the last step, about 1, still reads p = 6.
        rng = np.random.default_rng(21)
        corr = rng.normal(size=(4, 7)) + 1j * rng.normal(size=(4, 7))
        corr *= 0.999 / np.linalg.norm(corr, axis=1, keepdims=True)
        cdf = _cdf(_phase_basis_probs(corr))
        assert cdf.shape == (4, 7)
        for steps in cdf.T:
            picks = [int(_pick(row, u)) for row, u in zip(cdf, steps)]
            assert phase_readings(corr, steps).tolist() == picks
        assert phase_readings(corr, cdf[:, -1]).tolist() == [6] * 4


class TestDecodeTb:
    def test_two_voter_outcomes(self):
        d = 3
        state = prepare_tb_ballot(d)
        shift = shift_unitary(d)
        rng = np.random.default_rng(10)
        assert decode_tb(state, d, rng) == 0
        state = apply_local(state, 1, shift)
        assert decode_tb(state, d, rng) == 1
        state = apply_local(state, 1, shift)
        assert decode_tb(state, d, rng) == 2

    def test_collapse_preserves_difference(self):
        from qvote.qstate import measure_computational
        d = 5
        rng = np.random.default_rng(11)
        state = prepare_tb_ballot(d)
        state = apply_local(state, 1, shift_unitary(d))       # one yes vote
        _, state = measure_computational(state, 1, rng)       # colluder collapse
        state = apply_local(state, 1, shift_unitary(d))       # another yes vote
        assert decode_tb(state, d, rng) == 2

    @pytest.mark.parametrize("d", [2, 5, 9, 16])
    def test_reads_as_the_loop_over_shifts(self, d):
        # decode_tb sums its d weights in one bincount; the loop sums
        # |<k, k + r|psi>|^2 per shift r. Random states leave no weight zero.
        rng = np.random.default_rng(d)
        k = np.arange(d)
        for seed in range(40):
            shaped = random_state((d, d), rng).shaped()
            loop = np.array([np.sum(np.abs(shaped[k, (k + r) % d]) ** 2) for r in range(d)])
            want = _pick(_cdf(loop), np.random.default_rng(seed).random())
            assert decode_tb(PureState((d, d), shaped.reshape(-1)), d,
                             np.random.default_rng(seed)) == want


class TestDecodeSecure:
    def config(self, d=7, n=2, l_y=1, l_n=0, delta=0.3):
        return BallotConfig(d, n, Scheme.SECURE, secrets=SecureSecrets(l_y, l_n, delta))

    def run_dense(self, config, votes, rng):
        state = prepare_db_ballot(config.d, config.N)
        for site, v in enumerate(votes):
            theta = config.theta_yes if v == "Y" else config.theta_no
            state, _ = cast_vote_secure(state, site, voting_qudit_state(config.d, theta), rng)
        return decode_secure(state, config, rng)

    def test_full_statevector_yes_yes(self):
        config = self.config()
        for g in np.random.default_rng(12).spawn(5):
            m, p = self.run_dense(config, "YY", g)
            assert (m, p) == (2, 2)

    def test_all_no(self):
        config = self.config()
        m, p = self.run_dense(config, "NN", np.random.default_rng(13))
        assert (m, p) == (0, 0)

    def test_negative_phase_difference(self):
        config = self.config(l_y=0, l_n=3, delta=0.1)
        m, p = self.run_dense(config, "YY", np.random.default_rng(14))
        assert m == 2
        assert p == (2 * (0 - 3)) % 7

    def test_forged_phase_scatters_across_repeats(self):
        from qvote.qstate import LocalUnitary
        config = self.config(d=7, n=1, l_y=1, l_n=0, delta=0.2)
        eps = 1.1  # far from any multiple of 2 pi / 7
        forged = LocalUnitary(7, np.diag(np.exp(1j * eps * np.arange(7))))
        outcomes = set()
        for g in np.random.default_rng(15).spawn(40):
            state = prepare_db_ballot(7, 1)
            state, _ = cast_vote_secure(state, 0, voting_qudit_state(7, config.theta_yes), g)
            state = apply_local(state, 0, forged)
            outcomes.add(decode_secure(state, config, g))
        assert len(outcomes) > 1

    @pytest.mark.parametrize("d", [7, 11, 1009])
    def test_roots_table_is_cached_read_only_and_bit_equal(self, d):
        # Every grid row and cast_vote_db index this table; the cached table
        # must carry the bits the expression gives fresh, and no caller may
        # write to it.
        table = _roots(d)
        fresh = np.exp(2j * np.pi * np.arange(d) / d)
        assert np.array_equal(table.view(np.uint64), fresh.view(np.uint64))
        assert _roots(d) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
        assert _roots.cache_info().maxsize == 64

    def test_wrong_scheme_raises(self):
        with pytest.raises(ConfigurationError):
            decode_secure(prepare_db_ballot(5, 2), BallotConfig(5, 2, Scheme.DB),
                          np.random.default_rng(0))

    def test_solve_tally_flags_non_multiples(self, monkeypatch):
        # The reference map and _secure_trials agree where gcd(l_y - l_n, d) = 3.
        config = BallotConfig(9, 2, Scheme.SECURE, secrets=SecureSecrets(3, 0, 0.1))
        assert solve_tally(3, config) == 1
        assert solve_tally(6, config) == 2
        assert solve_tally(4, config) == CHEAT_DETECTED
        monkeypatch.setattr(protocols, "phase_readings",
                            lambda rows, u: np.array([[3], [6], [4]]))
        tallies, outcomes, ps = _secure_trials(config, [0, 0, 0], 0.0, np.zeros((3, 1, 3)))
        assert outcomes == [[1], [2], [CHEAT_DETECTED]] and ps == [[3], [6], [4]]

    def test_secure_tally_maps_every_reading_as_solve_tally(self, monkeypatch):
        # Every p in 0..d-1, the readings phase_readings can return, for every
        # secret pair: gcd(l_y - l_n, d) > 1 included. The reference is
        # tests/reference.py's solve_tally, one solve per reading. One trial
        # holds the d readings as its repetitions.
        for d in range(2, 61):
            readings = np.arange(d)[None]
            monkeypatch.setattr(protocols, "phase_readings", lambda rows, u: readings)
            # solve_tally reads the secrets only as (l_y - l_n) mod d.
            want = {dl: [solve_tally(p, config) for p in range(d)]
                    for dl in range(1, d)
                    for config in [BallotConfig(d, 1, Scheme.SECURE, secrets=(dl, 0, 0.0))]}
            for l_y, l_n in product(range(d), repeat=2):
                if l_y == l_n:
                    continue
                config = BallotConfig(d, 1, Scheme.SECURE, secrets=SecureSecrets(l_y, l_n, 0.0))
                _, [outcomes], [ps] = _secure_trials(config, 0, 0.0, np.zeros((1, d, 2)))
                assert outcomes == want[(l_y - l_n) % d]
                assert ps == list(range(d))


class TestOrthogonalityInvariant:
    @pytest.mark.parametrize("d", range(2, 9))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_tally_states_pairwise_orthogonal(self, d, n):
        states = [omega_state(d, n, m) for m in range(d)]
        for a in range(d):
            for b in range(a + 1, d):
                assert abs(inner(states[a], states[b])) <= 1e-10

    def test_secure_p_states_orthogonal(self):
        d = 7
        states = [omega_state(d, 4, p) for p in range(d)]
        for a in range(d):
            for b in range(a + 1, d):
                assert abs(inner(states[a], states[b])) <= 1e-10


class TestStateLevelAnonymity:
    @pytest.mark.parametrize("d,n", [(5, 3), (5, 4), (8, 3)])
    def test_equal_weight_vote_vectors_indistinguishable(self, d, n):
        by_weight = {}
        for votes in product([Vote.YES, Vote.NO], repeat=n):
            state = prepare_db_ballot(d, n)
            for site, v in enumerate(votes):
                state = cast_vote_db(state, site, v)
            w = sum(v is Vote.YES for v in votes)
            by_weight.setdefault(w, []).append(state)
        for states in by_weight.values():
            for s in states[1:]:
                assert abs(abs(inner(states[0], s)) - 1) <= 1e-10


class TestSecurePhaseIdentity:
    @pytest.mark.parametrize("d,n,l_y,l_n", [(7, 2, 1, 0), (11, 3, 4, 1), (13, 4, 0, 3)])
    def test_p_equals_m_times_difference(self, d, n, l_y, l_n):
        from qvote.protocols import run_secure_vote
        config = BallotConfig(d, n, Scheme.SECURE, secrets=SecureSecrets(l_y, l_n, 0.11))
        for votes in product([Vote.YES, Vote.NO], repeat=n):
            result = run_secure_vote(config, list(votes), np.random.default_rng(17),
                                     repetitions=2)
            m = sum(v is Vote.YES for v in votes)
            assert result.m == m
            assert all(p == (m * (l_y - l_n)) % d for p in result.p)


class TestCompactDenseAgreement:
    def test_honest_round_same_tally_both_lanes(self):
        from qvote.protocols import run_secure_vote
        config = BallotConfig(5, 2, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.21))
        compact = run_secure_vote(config, "YN", np.random.default_rng(18), repetitions=3)
        rng = np.random.default_rng(19)
        state = prepare_db_ballot(5, 2)
        state, _ = cast_vote_secure(state, 0, voting_qudit_state(5, config.theta_yes), rng)
        state, _ = cast_vote_secure(state, 1, voting_qudit_state(5, config.theta_no), rng)
        dense = decode_secure(state, config, rng)
        assert (compact.m, compact.p[0]) == dense == (1, 1)

    def test_forged_round_same_outcome_distribution_both_lanes(self):
        from qvote.ballots import _correlated_overlaps, _phase_basis_probs
        from qvote.qstate import LocalUnitary
        d = 7
        config = BallotConfig(d, 2, Scheme.SECURE, secrets=SecureSecrets(2, 0, 0.15))
        forged_angle = 2 * np.pi * 2 / d + 0.31

        rng = np.random.default_rng(20)
        state = prepare_db_ballot(d, 2)
        state, _ = cast_vote_secure(state, 0, voting_qudit_state(d, config.theta_yes), rng)
        state = apply_local(state, 0, LocalUnitary(d, np.diag(np.exp(1j * forged_angle
                                                                     * np.arange(d)))))
        state, _ = cast_vote_secure(state, 1, voting_qudit_state(d, config.theta_no), rng)
        corr = _correlated_overlaps(state)
        corr = corr * np.exp(-1j * np.arange(d) * 2 * config.theta_no)
        dense_probs = _phase_basis_probs(corr)

        # One yes vote and the forged angle: 2 + 2 grid steps off the no-phase, and 0.31.
        compact_probs = _phase_basis_probs(_grid_rows(d, 4, 0.31))

        np.testing.assert_allclose(dense_probs, compact_probs, atol=1e-12)


class TestCastSecureUniformityChiSquare:
    def test_r_distribution_uniform(self):
        d = 5
        config_theta = 2 * np.pi / d + 0.19
        counts = np.zeros(d)
        for g in np.random.default_rng(20).spawn(1000):
            _, r = cast_vote_secure(voting_qudit_state(d, 0.0), 0,
                                    voting_qudit_state(d, config_theta), g)
            counts[r] += 1
        assert chisquare(counts).pvalue > 0.01


NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


def leaky_rows(rows: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Random correlated amplitudes with norms in [0.5, 1], so the CDFs normalize by their sums."""
    corr = rng.normal(size=(rows, d)) + 1j * rng.normal(size=(rows, d))
    return corr * (rng.uniform(0.5, 1.0, (rows, 1)) / np.linalg.norm(corr, axis=1, keepdims=True))


def step_doubles(corr_rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per row, one of its one-row CDF steps or the double below it.

    A reading at such a double flips if the batch moves that step by one
    ulp, so equal readings mean equal steps.
    """
    cdfs = np.array([_cdf(_phase_basis_probs(row[None]))[0] for row in corr_rows])
    steps = cdfs[np.arange(len(cdfs)), rng.integers(0, cdfs.shape[1] - 1, len(cdfs))]
    return np.where(rng.random(len(steps)) < 0.5, steps, np.nextafter(steps, 0.0))


class TestReadBatch:
    """Each row of a batched read equals its one-row read, above and below 16384 elements.

    Above that size numpy may reuse a temporary in place, and its complex
    kernels are not bitwise commutative on every SIMD target. A failing
    size and seed shrink to nothing simpler, and shrinking batches of
    thousands of rows takes minutes, so these tests report the first one.
    """

    @given(st.integers(2, 16), st.booleans(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=8, deadline=None, phases=NO_SHRINK)
    def test_phase_readings_rows_equal_their_one_row_reads(self, d, above, seed):
        rng = np.random.default_rng(seed)
        corr = leaky_rows(batch_rows(d, above, seed), d, rng)
        probs = np.array([_phase_basis_probs(row[None])[0] for row in corr])
        assert np.array_equal(_phase_basis_probs(corr).view(np.uint64), probs.view(np.uint64))
        u = step_doubles(corr, rng)
        assert phase_readings(corr, u).tolist() == [int(phase_readings(row[None], [x])[0])
                                                    for row, x in zip(corr, u)]

    @given(st.integers(3, 16), st.data(), st.booleans(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=8, deadline=None, phases=NO_SHRINK)
    def test_secure_tally_rows_equal_their_one_row_tallies(self, d, data, above, seed):
        n = data.draw(st.integers(1, d - 1))
        delta = data.draw(st.floats(0, 2 * np.pi / d, exclude_max=True))
        config = BallotConfig(d, n, Scheme.SECURE, secrets=SecureSecrets(1, 0, delta))
        rng = np.random.default_rng(seed)
        rows = batch_rows(d, above, seed)
        index, offset = rng.integers(-2 * d, 2 * d, rows), rng.uniform(-7, 7, rows)
        u = step_doubles(_grid_rows(d, index, offset), rng)[:, None, None]
        singles = [_secure_trials(config, [i], [o], [x]) for i, o, x in zip(index, offset, u)]
        assert _secure_trials(config, index, offset, u) == tuple(
            [one[part][0] for one in singles] for part in range(3))
