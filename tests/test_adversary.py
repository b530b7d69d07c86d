from itertools import product

import numpy as np
import pytest
from scipy.stats import chisquare

from qvote.adversary import (
    CHEATING,
    CLEAN,
    INCONCLUSIVE,
    AttackReport,
    authority_product_ballot,
    collusion_attack_tb,
    detect_inconsistent_results,
    detect_subset_correlation,
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
    prepare_db_ballot,
    voting_qudit_state,
)
from qvote.errors import ConfigurationError
from qvote.qstate import (
    INVALID,
    LocalUnitary,
    ProjectorSet,
    apply_local,
    measure_computational,
    measure_projective,
    tensor,
)
from qvote import rng as rngmod

from conftest import random_state
from reference import inner, phase_basis_measure


def product_ballot(d, n):
    state = voting_qudit_state(d, 0.0)
    for _ in range(n - 1):
        state = tensor(state, voting_qudit_state(d, 0.0))
    return state


class TestCollusionAttack:
    def test_in_between_count_exact(self):
        config = BallotConfig(5, 4, Scheme.TB)
        report = collusion_attack_tb(config, "NYNY", (0, 3), 100, rngmod.stream(1, 2))
        assert report.inferred_secrets["expected"] == 1
        assert set(report.inferred_secrets["in_between_yes_counts"]) == {1}

    def test_adjacent_colluders_infer_zero(self):
        config = BallotConfig(5, 3, Scheme.TB)
        report = collusion_attack_tb(config, "YYY", (1, 2), 50, rngmod.stream(2, 2))
        assert set(report.inferred_secrets["in_between_yes_counts"]) == {0}

    @pytest.mark.parametrize("d,n", [(5, 4), (8, 5), (6, 5)])
    def test_exact_for_all_colluder_pairs(self, d, n):
        config = BallotConfig(d, n, Scheme.TB)
        rng = rngmod.stream(3, 2)
        votes = [Vote.YES if rng.random() < 0.5 else Vote.NO for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                report = collusion_attack_tb(config, votes, (i, j), 20, rng)
                counts = set(report.inferred_secrets["in_between_yes_counts"])
                assert counts == {report.inferred_secrets["expected"]}

    def test_difference_decoder_still_correct(self):
        config = BallotConfig(5, 4, Scheme.TB)
        report = collusion_attack_tb(config, "YYNY", (0, 3), 60, rngmod.stream(4, 2))
        assert report.extras["difference_decoder_histogram"] == {"3": 60}

    def test_phase_decoder_randomized_chi_square(self):
        config = BallotConfig(5, 4, Scheme.TB)
        report = collusion_attack_tb(config, "NYNY", (0, 3), 1000, rngmod.stream(5, 2))
        hist = report.outcome_histogram
        assert INVALID not in hist
        counts = [hist.get(m, 0) for m in range(5)]
        stat, p = chisquare(counts)
        assert p > 0.01

    def test_requires_tb(self):
        with pytest.raises(ConfigurationError):
            collusion_attack_tb(BallotConfig(5, 4, Scheme.DB), "NYNY", (0, 3), 5,
                                rngmod.stream(0, 2))

    def test_bad_colluder_order(self):
        with pytest.raises(ConfigurationError):
            collusion_attack_tb(BallotConfig(5, 4, Scheme.TB), "NYNY", (3, 0), 5,
                                rngmod.stream(0, 2))


class TestMultiVotePlain:
    def test_wraps_modulo_d(self):
        config = BallotConfig(5, 3, Scheme.DB)
        result = multi_vote_plain(config, "YYN", 0, 4, np.random.default_rng(0))
        assert result.m == (2 + 4) % 5 == 1

    def test_zero_extra_is_honest(self):
        config = BallotConfig(5, 3, Scheme.DB)
        assert multi_vote_plain(config, "YYN", 1, 0, np.random.default_rng(0)).m == 2

    def test_full_wrap_restores_honest_result(self):
        config = BallotConfig(5, 3, Scheme.DB)
        assert multi_vote_plain(config, "YYN", 2, 5, np.random.default_rng(0)).m == 2

    def test_wrong_vote_count_rejected(self):
        with pytest.raises(ConfigurationError):
            multi_vote_plain(BallotConfig(5, 3, Scheme.DB), "YYNY", 0, 1,
                             np.random.default_rng(0))

    def test_exhaustive_modular_arithmetic(self):
        config = BallotConfig(5, 3, Scheme.DB)
        for votes in product("YN", repeat=3):
            w = sum(1 for v in votes if v == "Y")
            for extra in range(10):
                assert multi_vote_plain(config, votes, 0, extra,
                                        np.random.default_rng(0)).m == (w + extra) % 5


class TestPhaseEstimateAttack:
    def config(self, l_y=1, l_n=0):
        return BallotConfig(11, 3, Scheme.SECURE, secrets=SecureSecrets(l_y, l_n, 0.2))

    def test_perfect_estimate_is_never_detected_and_shifts_tally(self):
        report = phase_estimate_attack(self.config(), 0, 0.0, 50, rngmod.stream(6, 2))
        assert report.detection_verdicts == [False] * 50
        assert report.outcome_histogram == {1: 50}  # honest tally 0, forged +1

    def test_detection_rate_tracks_oracle(self, forgery_fixture):
        report = phase_estimate_attack(self.config(), 0, 1.0, 2000, rngmod.stream(7, 2))
        assert abs(report.detection_rate - forgery_fixture["detection_rate"]) < 0.05

    def test_fixed_error_at_half_bin_disagrees_often(self):
        # per-repetition disagreement probability must clear 0.05 at
        # eps = pi/d; empirically two repetitions disagree far more often.
        config = self.config()
        eps = np.pi / 11
        delta = 2 * np.pi / 11
        pairs = [(config.theta_yes, config.theta_no + (delta + eps))]
        pairs += [(config.theta_yes, config.theta_no)] * 2
        report = mismatched_voting_states(config, pairs, "NNN", rngmod.stream(8, 2), trials=300,
                                          repetitions=2)
        disagreements = sum(run["outcomes"][0] != run["outcomes"][1]
                            for run in report.extras["runs"])
        assert disagreements / 300 > 0.05

    def test_unit_difference_no_worse_than_three(self, forgery_fixture):
        rate1 = phase_estimate_attack(self.config(1, 0), 0, 1.0, 2000,
                                      rngmod.stream(9, 2)).detection_rate
        rate3 = phase_estimate_attack(self.config(3, 0), 0, 1.0, 2000,
                                      rngmod.stream(9, 2)).detection_rate
        assert abs(rate1 - forgery_fixture["detection_rate_dl3_quadrature"]) < 0.05
        assert abs(rate3 - forgery_fixture["detection_rate_dl3_quadrature"]) < 0.05

    def test_requires_secure(self):
        with pytest.raises(ConfigurationError):
            phase_estimate_attack(BallotConfig(5, 2, Scheme.DB), 0, 1.0, 5,
                                  rngmod.stream(0, 2))

    def test_error_scale_must_be_non_negative(self):
        # Neither may pass for a perfect estimate, as a scale of 0 does.
        for scale in (-1.0, float("nan")):
            with pytest.raises(ConfigurationError, match="error scale must be >= 0"):
                phase_estimate_attack(self.config(), 0, scale, 5, rngmod.stream(6, 2))
        report = phase_estimate_attack(self.config(), 0, 0.0, 5, rngmod.stream(6, 2))
        assert [t["eps"] for t in report.extras["per_trial"]] == [0.0] * 5


class TestAuthorityProductBallot:
    def test_product_ballot_reads_every_vote(self):
        config = BallotConfig(5, 3, Scheme.DB)
        report = authority_product_ballot(config, "YNY", rngmod.stream(10, 2), trials=100)
        assert report.inferred_secrets["per_voter_accuracy"] == [1.0, 1.0, 1.0]
        assert report.outcome_histogram == {3: 100}

    def test_orthogonality_oracle(self):
        # <psi(0)|psi(2 pi/d)> = 0 underlies the exact identification
        d = 5
        assert abs(inner(voting_qudit_state(d, 0.0),
                         voting_qudit_state(d, 2 * np.pi / d))) < 1e-12

    def test_honest_ballot_control_is_chance(self):
        config = BallotConfig(5, 3, Scheme.DB)
        report = authority_product_ballot(config, "YNY", rngmod.stream(11, 2),
                                          trials=600, honest_ballot=True)
        for acc in report.inferred_secrets["per_voter_accuracy"]:
            assert abs(acc - 1 / 5) < 0.06

    @pytest.mark.parametrize("dims,site", [((5,), 0), ((3, 4), 1), ((4, 2, 3), 0),
                                           ((2, 3, 5), 2)])
    def test_phase_basis_measure_matches_dft_unitary(self, dims, site):
        # Reference: rotate with the explicit DFT's adjoint, then measure.
        d = dims[site]
        f = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
        states_rng = np.random.default_rng(len(dims) * 10 + site)
        for seed in range(50):
            state = random_state(dims, states_rng)
            l, post = phase_basis_measure(state, site, np.random.default_rng(seed))
            rotated = apply_local(state, site, LocalUnitary(d, f.conj().T))
            ref_l, ref_post = measure_computational(rotated, site,
                                                    np.random.default_rng(seed))
            assert l == ref_l
            assert np.max(np.abs(post.amps - ref_post.amps)) <= 1e-12

    def test_single_voter_is_identified_either_way(self):
        config = BallotConfig(5, 1, Scheme.DB)
        for honest in (False, True):
            report = authority_product_ballot(config, "Y", rngmod.stream(12, 2),
                                              trials=40, honest_ballot=honest)
            assert report.inferred_secrets["per_voter_accuracy"] == [1.0]


class TestMismatchedVotingStates:
    def config(self, d=13, n=3):
        return BallotConfig(d, n, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.15))

    def test_identical_thetas_reduce_to_honest_run(self):
        config = self.config()
        thetas = [(config.theta_yes, config.theta_no)] * 3
        report = mismatched_voting_states(config, thetas, "YNY", rngmod.stream(13, 2))
        assert report.extras["runs"][0]["m"] == 2
        assert not any(report.inferred_secrets["equal_weight_patterns_distinguishable"].values())

    def test_indexed_shifts_tag_voters(self):
        config = self.config()
        d, s = config.d, config.secrets
        thetas = [(2 * np.pi * (s.l_y + i) / d + s.delta, config.theta_no) for i in range(3)]
        report = mismatched_voting_states(config, thetas, "YNY", rngmod.stream(14, 2))
        # p = sum over yes voters of (l_y + i - l_n) mod d
        expected_p = ((s.l_y + 0 - s.l_n) + (s.l_y + 2 - s.l_n)) % d
        assert report.extras["runs"][0]["p"] == [expected_p] * 3
        tags = report.inferred_secrets["phase_tags"]
        assert tags["YNY"] != tags["NYY"] != tags["YYN"]
        assert report.inferred_secrets["equal_weight_patterns_distinguishable"][2]

    @pytest.mark.parametrize("trials", [0, 2])
    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_needs_a_repetition(self, trials, repetitions):
        # Rejected up front, as the forgery rejects it, even with no trial to run.
        config = self.config()
        with pytest.raises(ConfigurationError, match="repetitions must be >= 1"):
            mismatched_voting_states(config, [(config.theta_yes, config.theta_no)] * 3, "YNY",
                                     rngmod.stream(13, 2), trials=trials,
                                     repetitions=repetitions)

    def test_symmetry_test_flags_the_mismatch(self):
        config = self.config()
        d, s = config.d, config.secrets
        yes_states = [voting_qudit_state(d, 2 * np.pi * (s.l_y + i) / d + s.delta)
                      for i in range(3)]
        flags = swap_test_trials(yes_states, 200, rngmod.stream(15, 2)).count(CHEATING)
        assert flags > 190


class TestDetectSymmetry:
    def test_identical_states_always_pass(self):
        states = [voting_qudit_state(5, 0.7)] * 4
        assert detect_symmetry(states, rngmod.stream(16, 2), comparisons=100) == CLEAN

    def test_single_comparison_failure_rate_half(self):
        a = voting_qudit_state(5, 0.7)
        b = voting_qudit_state(5, 0.7 + 2 * np.pi / 5)
        # analytic oracle: overlap 0, so failure probability (1 - 0)/2
        assert abs(inner(a, b)) < 1e-12
        fails = swap_test_trials([a, b], 2000, rngmod.stream(17, 2),
                                 comparisons=1).count(CHEATING)
        assert abs(fails / 2000 - 0.5) < 0.04

    def test_seven_comparisons_reach_target_confidence(self):
        a = voting_qudit_state(5, 0.7)
        b = voting_qudit_state(5, 0.7 + 2 * np.pi / 5)
        hits = swap_test_trials([a, b], 2000, rngmod.stream(18, 2)).count(CHEATING)
        assert hits / 2000 > 0.97  # analytic rate 1 - 2^-7 = 0.9922

    def test_same_state_different_claims_pass(self):
        # state identity is what is tested, not the label on the box
        a = voting_qudit_state(5, 0.3)
        b = voting_qudit_state(5, 0.3 + 2 * np.pi)
        assert detect_symmetry([a, b], rngmod.stream(19, 2), comparisons=50) == CLEAN

    def test_needs_two_states(self):
        with pytest.raises(ConfigurationError):
            detect_symmetry([voting_qudit_state(5, 0.1)], rngmod.stream(0, 2))

    @pytest.mark.parametrize("comparisons", [0, -1, -3])
    def test_needs_a_comparison(self, comparisons):
        # No comparison checks nothing; it must not read as CLEAN.
        a, b = voting_qudit_state(5, 0.7), voting_qudit_state(5, 0.7 + 2 * np.pi / 5)
        with pytest.raises(ConfigurationError, match="comparisons must be >= 1"):
            detect_symmetry([a, b], rngmod.stream(0, 2), comparisons=comparisons)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_swap_projector_measurement(self, d):
        # Reference: measure (I +- SWAP)/2 on the dense pair |a>|b>.
        swap = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                swap[j * d + i, i * d + j] = 1.0
        eye = np.eye(d * d)
        proj = ProjectorSet(d * d, ((eye + swap) / 2, (eye - swap) / 2))
        states_rng = np.random.default_rng(d)
        for seed in range(200):
            a, b = random_state((d,), states_rng), random_state((d,), states_rng)
            outcome, _, _ = measure_projective(tensor(a, b), proj,
                                               np.random.default_rng(seed))
            verdict = detect_symmetry([a, b], np.random.default_rng(seed), comparisons=1)
            assert verdict == (CHEATING if outcome == 1 else CLEAN)


class TestDetectSubsetCorrelation:
    def test_honest_ballot_clean(self):
        state = prepare_db_ballot(5, 4)
        verdict = detect_subset_correlation(state, [0, 2], rngmod.stream(20, 2), trials=100)
        assert verdict == CLEAN

    def test_product_ballot_flagged(self):
        state = product_ballot(5, 2)
        verdict = detect_subset_correlation(state, [0, 1], rngmod.stream(21, 2), trials=10)
        assert verdict == CHEATING

    @pytest.mark.parametrize("trials", [0, -2])
    def test_needs_a_trial(self, trials):
        # Five trials convict this forged ballot; zero must not clear it.
        state = product_ballot(5, 2)
        assert detect_subset_correlation(state, [0, 1], rngmod.stream(21, 2),
                                         trials=5) == CHEATING
        with pytest.raises(ConfigurationError, match="trials must be >= 1"):
            detect_subset_correlation(state, [0, 1], rngmod.stream(21, 2), trials=trials)

    def test_single_site_inconclusive(self):
        state = prepare_db_ballot(5, 3)
        assert detect_subset_correlation(state, [1], rngmod.stream(22, 2)) == INCONCLUSIVE


class TestDetectInconsistentResults:
    def test_agreeing_runs_clean(self):
        assert detect_inconsistent_results([3, 3, 3]) == CLEAN

    def test_divergent_runs_flagged(self):
        assert detect_inconsistent_results([3, 4, 3]) == CHEATING

    def test_cheat_marker_flagged(self):
        assert detect_inconsistent_results([3, CHEAT_DETECTED, 3]) == CHEATING
        assert detect_inconsistent_results([3, INVALID, 3]) == CHEATING

    def test_single_outcome(self):
        # A lone run agrees with itself unless it is itself a cheat marker.
        assert detect_inconsistent_results([3]) == CLEAN
        assert detect_inconsistent_results([CHEAT_DETECTED]) == CHEATING
        assert detect_inconsistent_results([INVALID]) == CHEATING
        with pytest.raises(ConfigurationError, match="at least one outcome"):
            detect_inconsistent_results([])


class TestAttackReport:
    def test_histogram_must_sum_to_trials(self):
        with pytest.raises(ConfigurationError):
            AttackReport("x", 5, outcome_histogram={"0": 3})

    def test_serializable(self):
        import json
        report = AttackReport("x", 2, outcome_histogram={0: 1, CHEAT_DETECTED: 1},
                              detection_verdicts=[False, True])
        data = json.loads(json.dumps(report.to_dict()))
        assert data["detection_rate"] == 0.5


class TestTrialCounts:
    TB = BallotConfig(5, 4, Scheme.TB)
    SECURE = BallotConfig(11, 3, Scheme.SECURE, secrets=SecureSecrets(1, 0, 0.2))
    DB = BallotConfig(5, 3, Scheme.DB)

    def run(self, attack, trials):
        rng = np.random.default_rng(1)
        if attack == "collusion":
            return collusion_attack_tb(self.TB, "YNYY", (0, 3), trials, rng)
        if attack == "forgery":
            return phase_estimate_attack(self.SECURE, 0, 1.0, trials, rng)
        if attack == "mismatched":
            thetas = [(self.SECURE.theta_yes, self.SECURE.theta_no)] * 3
            return mismatched_voting_states(self.SECURE, thetas, "YNY", rng, trials=trials)
        return authority_product_ballot(self.DB, "YNY", rng, trials=trials)

    def test_zero_trials_give_empty_reports(self):
        empty = {"detection_rate": None, "detection_verdicts": None, "outcome_histogram": {},
                 "seed": None, "trials": 0}
        assert self.run("collusion", 0).to_dict() == {
            **empty, "attack": "collusion_tb",
            "extras": {"difference_decoder_histogram": {}, "phase_decoder_histogram": {}},
            "inferred_secrets": {"colluders": [0, 3], "expected": 1,
                                 "in_between_yes_counts": []}}
        assert self.run("forgery", 0).to_dict() == {
            **empty, "attack": "phase_estimate", "detection_rate": 0.0,
            "detection_verdicts": [],
            "extras": {"honest_tally": 0, "per_trial": [], "repetitions": 3},
            "inferred_secrets": {"delta_phase": 0.5711986642890533,
                                 "error_half_width": 0.28559933214452665}}
        tags = {"NNN": 0, "NNY": 1, "NYN": 1, "NYY": 2, "YNN": 1, "YNY": 2, "YYN": 2, "YYY": 3}
        assert self.run("mismatched", 0).to_dict() == {
            **empty, "attack": "mismatched_voting_states", "extras": {"runs": []},
            "inferred_secrets": {"equal_weight_patterns_distinguishable":
                                 {0: False, 1: False, 2: False, 3: False},
                                 "phase_tags": tags}}

    @pytest.mark.parametrize("attack", ["collusion", "forgery", "mismatched", "product"])
    def test_negative_trials_rejected(self, attack):
        with pytest.raises(ConfigurationError, match="trials must be >= "):
            self.run(attack, -1)

    def test_product_ballot_needs_a_trial(self):
        # Its per-voter accuracy divides by the trial count.
        with pytest.raises(ConfigurationError, match="trials must be >= 1, got 0"):
            self.run("product", 0)
