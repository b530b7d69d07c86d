import math
import tracemalloc
from dataclasses import astuple
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvote.ballots import BallotConfig, Scheme, Vote, cast_vote_db, prepare_db_ballot
from qvote.errors import ConfigurationError
from qvote.qstate import CorrelatedState, PureState, reduced_density
from qvote import ballots, protocols, verify
from qvote.protocols import run_tb_vote
from qvote.verify import (
    AnsatzResult,
    QubitSchemeParams,
    ansatz_check,
    check_privacy,
    check_reduced_identity,
    general_residual,
    qubit_nogo_search,
    qubit_residual,
    qutrit_solution_check,
)
from qvote import rng as rngmod

from reference import inner, residual_and_grad, tb_privacy


class TestCheckPrivacy:
    @pytest.mark.parametrize("d", [3, 5, 8])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_db_passes_when_dimension_suffices(self, d, n):
        if d <= n:
            pytest.skip("requires d > N")
        report = check_privacy("DB", d, n)
        assert report.passed
        assert report.worst_same_tally_deviation <= 1e-12
        assert report.worst_cross_tally_overlap <= 1e-12

    @pytest.mark.parametrize("d,n", [(5, 2), (5, 4), (8, 4)])
    def test_tb_passes(self, d, n):
        assert check_privacy("TB", d, n).passed

    def test_single_voter_trivially_passes(self):
        assert check_privacy("DB", 3, 1).passed

    def test_undersized_dimension_aliases_tallies(self):
        report = check_privacy("DB", 3, 3)
        assert not report.passed
        assert report.worst_cross_tally_overlap == pytest.approx(1, abs=1e-12)

    def test_wrong_db_vote_operator_fails(self, monkeypatch):
        # Half the yes angle: equal tallies still agree, but neighbouring
        # tallies are no longer orthogonal.
        monkeypatch.setattr(verify, "_grid_rows",
                            lambda d, index, offset: ballots._grid_rows(d, 0, np.pi * index / d))
        report = check_privacy("DB", 5, 3)
        assert report.passed is False
        assert report.worst_cross_tally_overlap > 0.1

    def test_wrong_tb_vote_operator_fails(self, monkeypatch):
        # A yes vote that leaves the travelling qudit where it was.
        monkeypatch.setattr(verify, "_yes_count", lambda d, yes: 0 * yes[0])
        report = check_privacy("TB", 5, 3)
        assert report.passed is False
        assert report.worst_cross_tally_overlap == pytest.approx(1, abs=1e-12)

    def test_tb_shift_that_drops_a_voter_fails(self, monkeypatch):
        # The run's shift ignores voter 0: equal tallies land on different
        # shifts, and voter 0's lone yes reads as tally 0.
        real = protocols._yes_count
        monkeypatch.setattr(verify, "_yes_count", lambda d, yes: real(d, yes[1:]))
        report = check_privacy("TB", 5, 3)
        assert report.passed is False
        assert report.worst_same_tally_deviation == pytest.approx(1, abs=1e-12)
        assert report.worst_cross_tally_overlap == pytest.approx(1, abs=1e-12)

    def test_tb_matches_the_dense_pairs(self):
        # Unit rows e_s stand for the pairs sum_k |k, k + s> / sqrt(d).
        for d in range(2, 12):
            for n in range(1, 9):
                report = check_privacy("TB", d, n)
                same, cross = tb_privacy(d, n)
                assert report.worst_same_tally_deviation == round(same, 12), (d, n)
                assert report.worst_cross_tally_overlap == round(cross, 12), (d, n)
                assert report.passed is (max(same, cross) <= report.tolerance), (d, n)

    def test_tb_memory_stays_linear_in_d(self):
        # N + 1 dense d x d pairs at d=509 peak near 150 MB.
        tracemalloc.start()
        try:
            assert check_privacy("TB", 509, 16).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_tb_reads_the_runs_shift(self):
        # Each pattern's shift is the tally run_tb_vote reports for it.
        config = BallotConfig(5, 3, Scheme.TB)
        for bits in product([0, 1], repeat=3):
            votes = ["Y" if b else "N" for b in bits]
            assert (run_tb_vote(config, votes, np.random.default_rng(0)).m
                    == protocols._yes_count(5, bits))

    def test_voter_dependent_cast_fails(self, monkeypatch):
        # Every voter casts voter 0's vote, so equal tallies differ.
        real = protocols._yes_count
        monkeypatch.setattr(verify, "_yes_count", lambda d, yes: real(d, [yes[0]] * len(yes)))
        report = check_privacy("DB", 5, 4)
        assert report.passed is False
        assert report.worst_same_tally_deviation > 0.1

    def test_enumeration_guard(self):
        with pytest.raises(ConfigurationError):
            check_privacy("DB", 19, 17)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            check_privacy("SECURE", 7, 2)

    def test_compact_states_match_dense_pipeline(self):
        # the report's overlap values must agree with full-state runs,
        # including the aliased d = n = 3
        for d, n in ((5, 3), (3, 3)):
            classes = {}
            for votes in product([Vote.YES, Vote.NO], repeat=n):
                state = CorrelatedState.uniform(d, n).to_pure()
                for site, v in enumerate(votes):
                    state = cast_vote_db(state, site, v)
                classes.setdefault(votes.count(Vote.YES), []).append(state)
            same = max(abs(1 - abs(inner(members[0], s)))
                       for members in classes.values() for s in members)
            cross = max(abs(inner(classes[a][0], classes[b][0]))
                        for a in classes for b in classes if a < b)
            report = check_privacy("DB", d, n)
            assert report.worst_same_tally_deviation == pytest.approx(same, abs=1e-12)
            assert report.worst_cross_tally_overlap == pytest.approx(cross, abs=1e-12)
            assert report.passed is (max(same, cross) <= report.tolerance)


class TestCheckReducedIdentity:
    def test_ballot_single_sites_totally_mixed(self):
        state = prepare_db_ballot(5, 3)
        for site in range(3):
            assert check_reduced_identity(state, [site]) <= 1e-12

    def test_post_vote_states_stay_mixed_per_site(self):
        state = prepare_db_ballot(5, 3)
        state = cast_vote_db(state, 0, Vote.YES)
        state = cast_vote_db(state, 2, Vote.YES)
        for site in range(3):
            assert check_reduced_identity(state, [site]) <= 1e-12

    def test_two_site_subset_known_deviation(self):
        # exact value 1/d - 1/d^2: the pair is correlated, not uniform
        state = prepare_db_ballot(5, 3)
        assert check_reduced_identity(state, [0, 1]) == pytest.approx(1 / 5 - 1 / 25,
                                                                      abs=1e-12)

    def test_subsets_carry_no_vote_information(self):
        d, n = 5, 4
        reference = {}
        for votes in product([Vote.YES, Vote.NO], repeat=n):
            state = prepare_db_ballot(d, n)
            for site, v in enumerate(votes):
                state = cast_vote_db(state, site, v)
            for size in (1, 2, 3):
                for sites in product(range(n), repeat=size):
                    if len(set(sites)) != size:
                        continue
                    rho = reduced_density(state, list(sites))
                    key = sites
                    if key in reference:
                        assert np.max(np.abs(rho.mat - reference[key])) <= 1e-12
                    else:
                        reference[key] = rho.mat

    def test_product_state_maximally_deviates(self):
        state = PureState.basis((5, 5, 5), (0, 0, 0))
        assert check_reduced_identity(state, [0]) == pytest.approx(1 - 1 / 5, abs=1e-12)

    def test_rejects_full_subset(self):
        with pytest.raises(ConfigurationError):
            check_reduced_identity(prepare_db_ballot(3, 2), [0, 1])

    def test_rejects_empty_subset(self):
        with pytest.raises(ConfigurationError):
            check_reduced_identity(prepare_db_ballot(3, 2), [])


def bell_state():
    return np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)


def kron_residual(u, v, omega):
    """Reference residual from the full A x B operators."""
    du, dv = u.shape[0], v.shape[0]
    a = np.vdot(omega, np.kron(u, np.eye(dv)) @ omega)
    b = np.vdot(omega, np.kron(np.eye(du), v) @ omega)
    c = np.vdot(omega, np.kron(u, v) @ omega)
    e = np.vdot(omega, np.kron(u, v.conj().T) @ omega)
    return float(abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(1 - e) ** 2)


def random_unitary(d, rng):
    return np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]


def random_packed_point(rng):
    """A search point with raw, unnormalized m, n and omega."""
    x = rng.standard_normal(16) * rng.uniform(0.2, 3.0)
    x[0:2] = rng.uniform(0, 2 * np.pi, 2)
    return x


# nu and theta anywhere, or within 1e-6 of pi/2, where the floor is 1/2.
NOGO_ANGLES = st.one_of(st.floats(0, 2 * math.pi),
                        st.floats(-1e-6, 1e-6).map(lambda e: math.pi / 2 + e))


class TestQubitNogo:
    def test_identity_operations_score_three(self):
        params = QubitSchemeParams(0.0, np.array([0, 0, 1.0]), 0.0,
                                   np.array([0, 0, 1.0]), bell_state())
        assert qubit_residual(params) == pytest.approx(3.0, abs=1e-12)

    def test_analytic_obstruction_point(self):
        # cos nu = cos theta = 0 with perfectly correlated directions: the
        # third zero condition and the unit condition fight each other.
        params = QubitSchemeParams(np.pi / 2, np.array([0, 0, 1.0]), np.pi / 2,
                                   np.array([0, 0, 1.0]), bell_state())
        # <sigma_z x sigma_z> = 1 on the Bell state: residual |<UxV>|^2 = 1
        assert qubit_residual(params) == pytest.approx(1.0, abs=1e-12)

    def test_search_respects_grid_oracle_floor(self, nogo_fixture):
        minimum, params = qubit_nogo_search(40, 300, rngmod.stream(7, 2))
        assert minimum >= nogo_fixture["epsilon0"] > 0
        # qubit_floor proves the minimum is exactly 1/2: the search must reach it.
        assert 0.5 - 1e-12 <= minimum <= 0.5 + 1e-6
        assert qubit_residual(params) == pytest.approx(minimum, abs=1e-12)

    def test_single_restart_reaches_one_half(self):
        # The bench's no-go op, one restart of 500 iterations, from 75 seeds.
        minima = np.array([qubit_nogo_search(1, 500, rngmod.stream(seed, rngmod.TRIAL))[0]
                           for seed in range(75)])
        assert minima.min() >= 0.5 - 1e-12
        assert minima.max() <= 0.5 + 1e-6

    def test_residual_invariant_under_global_phase_and_sign_flip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.standard_normal(3)
            n = rng.standard_normal(3)
            m, n = m / np.linalg.norm(m), n / np.linalg.norm(n)
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            w = w / np.linalg.norm(w)
            nu, theta = rng.uniform(0, 2 * np.pi, 2)
            base = qubit_residual(QubitSchemeParams(nu, m, theta, n, w))
            phased = qubit_residual(QubitSchemeParams(nu, m, theta, n, w * np.exp(0.37j)))
            flipped = qubit_residual(QubitSchemeParams(-nu, -m, theta, n, w))
            assert phased == pytest.approx(base, abs=1e-12)
            assert flipped == pytest.approx(base, abs=1e-12)

    def test_closed_form_matches_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = random_packed_point(rng)
            value, _ = verify._residual_and_grad(x)
            assert value == pytest.approx(qubit_residual(verify._unpack(x)), abs=1e-12)

    def test_gradient_matches_central_differences(self):
        # Differences of the reference residual, so the check does not
        # share the closed form it tests.
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(50):
            x = random_packed_point(rng)
            _, grad = verify._residual_and_grad(x)
            central = np.array([
                (qubit_residual(verify._unpack(x + h * e))
                 - qubit_residual(verify._unpack(x - h * e))) / (2 * h)
                for e in np.eye(16)])
            assert np.linalg.norm(grad - central) <= 1e-5 * np.linalg.norm(central)

    def test_closed_form_matches_blas_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            x = random_packed_point(rng)
            value, grad = verify._residual_and_grad(x)
            ref_value, ref_grad = residual_and_grad(x)
            assert abs(value - ref_value) <= 1e-12
            assert np.abs(grad - ref_grad).max() <= 1e-10

    def test_search_calls_minimize_with_exact_gradient(self, monkeypatch):
        # A tracer rebinds the module attribute and reads these result fields.
        assert "minimize" in vars(verify)
        real, calls, results = verify.minimize, [], []

        def spy(fun, x0, iterations):
            calls.append((fun, iterations))
            results.append(real(fun, x0, iterations))
            return results[-1]

        plain_min, plain_params = qubit_nogo_search(3, 50, rngmod.stream(7, 2))
        monkeypatch.setattr(verify, "minimize", spy)
        spied_min, spied_params = qubit_nogo_search(3, 50, rngmod.stream(7, 2))
        assert calls == [(verify._residual_and_grad, 50)] * 3
        assert all(hasattr(res, field) for res in results for field in ("fun", "x", "nit", "nfev"))
        assert all(0 < res.nit <= 50 and res.nfev > res.nit for res in results)
        assert spied_min == plain_min
        for spied, plain in zip(astuple(spied_params), astuple(plain_params)):
            np.testing.assert_array_equal(spied, plain)

    @given(NOGO_ANGLES, NOGO_ANGLES, st.lists(st.floats(-3, 3), min_size=14, max_size=14))
    @settings(max_examples=300, deadline=None)
    def test_residual_never_below_certified_floor(self, nu, theta, rest):
        x = np.array([nu, theta, *rest])
        floor = verify.qubit_floor(x)
        assert verify._residual_and_grad(x)[0] >= floor - 1e-12
        assert floor >= 0.5 - 1e-12

    def test_floor_is_reached_by_a_bell_state_scheme(self):
        # alpha = 0, r = 1/2 and p = q = 0: m_hat along x, n_hat 60 degrees
        # from it in the x-z plane, omega = (|00> + |11>) / sqrt 2.
        x = np.zeros(16)
        x[0] = x[1] = math.pi / 2
        x[2:5] = 1, 0, 0
        x[5:8] = 1 / 2, 0, math.sqrt(3) / 2
        x[8] = x[11] = 1 / math.sqrt(2)
        assert verify._residual_and_grad(x)[0] == 0.5
        assert verify.qubit_floor(x) == 0.5

    def test_minimize_solves_a_convex_quadratic_within_its_iterations(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((6, 6))
        a, b = q @ q.T + np.eye(6), rng.standard_normal(6)

        def quadratic(x):
            return float(x @ a @ x / 2 - b @ x), a @ x - b

        res = verify.minimize(quadratic, np.zeros(6), 200)
        np.testing.assert_allclose(res.x, np.linalg.solve(a, b), atol=1e-6)
        assert res.nit < 200
        assert verify.minimize(quadratic, np.zeros(6), 1).nit == 1

    def test_requires_restarts(self):
        with pytest.raises(ConfigurationError):
            qubit_nogo_search(0, 10, rngmod.stream(0, 2))

    def test_params_validate_unit_norms(self):
        with pytest.raises(ConfigurationError):
            QubitSchemeParams(0.1, np.array([0, 0, 2.0]), 0.1,
                              np.array([0, 0, 1.0]), bell_state())


class TestGeneralResidual:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_trace_form_matches_kron_form(self, d):
        rng = np.random.default_rng(d)
        for _ in range(50):
            u, v = random_unitary(d, rng), random_unitary(d, rng)
            omega = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
            omega /= np.linalg.norm(omega)
            assert general_residual(u, v, omega) == pytest.approx(
                kron_residual(u, v, omega), abs=1e-12)


class TestQutritSolution:
    def test_residual_vanishes(self):
        assert qutrit_solution_check() <= 1e-12

    def test_global_phase_shift_gives_identical_residual(self):
        u = np.diag(np.exp(1j * np.array([2 * np.pi / 3, 4 * np.pi / 3, 2 * np.pi])))
        omega = np.zeros(9, dtype=complex)
        omega[[0, 4, 8]] = 1 / math.sqrt(3)
        base = general_residual(u, u, omega)
        shifted = general_residual(np.exp(0.9j) * u, np.exp(0.9j) * u, omega)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_perturbed_eigenphase_breaks_solution(self):
        etas = np.array([2 * np.pi / 3 + 0.1, 4 * np.pi / 3, 2 * np.pi])
        u = np.diag(np.exp(1j * etas))
        omega = np.zeros(9, dtype=complex)
        omega[[0, 4, 8]] = 1 / math.sqrt(3)
        residual = general_residual(u, u, omega)
        # direct evaluation oracle over the eigenphase sums
        w = np.full(3, 1 / 3)
        first = abs((w * np.exp(1j * etas)).sum()) ** 2
        second = abs((w * np.exp(2j * etas)).sum()) ** 2
        assert residual == pytest.approx(2 * first + second, abs=1e-12)
        assert residual > 1e-3

    def test_qubit_landscape_never_reaches_qutrit_zero(self, nogo_fixture):
        # the dimensional separation: zero in d=3, bounded away in d=2
        assert qutrit_solution_check() <= 1e-12 < nogo_fixture["epsilon0"]


class TestAnsatzCheck:
    def test_uniform_roots_of_unity_pass(self):
        d = 3
        result = ansatz_check(d, [2 * np.pi * j / d for j in range(d)],
                              [1 / math.sqrt(d)] * d)
        assert result.passed

    def test_qubit_grid_has_no_solution(self):
        # small grid oracle over (eta0, eta1, w0): both phase conditions
        # can never hold at once with positive weights in d=2
        etas = np.linspace(0, 2 * np.pi, 25, endpoint=False)
        weights = np.linspace(0.0, 1.0, 21)
        best = np.inf
        for e0 in etas:
            for e1 in etas:
                for w0 in weights:
                    r = ansatz_check(2, [e0, e1], [math.sqrt(w0), math.sqrt(1 - w0)])
                    assert not r.passed
                    best = min(best, max(r.first_harmonic, r.second_harmonic))
        assert best > 0.05

    @pytest.mark.parametrize("d", range(3, 13))
    def test_uniform_solution_extends_to_higher_dimensions(self, d):
        result = ansatz_check(d, [2 * np.pi * j / d for j in range(d)],
                              [1 / math.sqrt(d)] * d)
        assert result.passed

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            ansatz_check(3, [0.0, 1.0], [1.0, 0.0, 0.0])

    def test_reports_residuals(self):
        result = ansatz_check(2, [0.0, np.pi], [1 / math.sqrt(2)] * 2)
        assert isinstance(result, AnsatzResult)
        assert result.first_harmonic == pytest.approx(0, abs=1e-12)
        assert result.second_harmonic == pytest.approx(1, abs=1e-12)
        assert not result.passed
