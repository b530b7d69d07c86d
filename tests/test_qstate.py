import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvote.errors import ConfigurationError
from qvote.qstate import (
    INVALID,
    CorrelatedState,
    DensityMatrix,
    LocalUnitary,
    ProjectorSet,
    PureState,
    apply_local,
    measure_computational,
    measure_projective,
    reduced_density,
    tensor,
    _cdf,
    _pick,
    _with_invalid,
)
from qvote.ballots import (
    _correlated_overlaps,
    voting_qudit_state,
)
from qvote.protocols import _cast

from conftest import random_state, random_unitary
from reference import inner, phase_vote_unitary, shift_unitary


def ghz(d, n):
    return CorrelatedState.uniform(d, n).to_pure()


class TestPureState:
    def test_basis_state_indexing_is_big_endian(self):
        s = PureState.basis((2, 3), (1, 2))
        # site 0 is the most significant digit: index = 1*3 + 2
        assert s.amps[5] == 1.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ConfigurationError):
            PureState((2, 2), np.array([1.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ConfigurationError):
            PureState((2,), np.array([1.0, 1.0]))

    def test_rejects_dimension_below_two(self):
        with pytest.raises(ConfigurationError):
            PureState((1, 2), np.array([1.0, 0.0]))

    def test_amps_frozen(self):
        s = PureState.basis((2,), (0,))
        with pytest.raises(ValueError):
            s.amps[0] = 0.0

    def test_equals_only_itself(self):
        # Identity, not amplitudes: the swap-test threshold cache keys on it.
        s = PureState.basis((3,), (1,))
        twin = PureState(s.dims, s.amps)
        assert s == s and not s != s
        assert s != twin and not s == twin
        assert hash(s) == hash(s) and len({s, twin, s}) == 2

    @pytest.mark.parametrize("values,build", [
        ([1, 0], lambda a: PureState((2,), a).amps),
        ([1, 0], lambda a: CorrelatedState(2, 3, a).c),
        ([[1, 0], [0, 1]], lambda a: LocalUnitary(2, a).mat),
        ([[1, 0], [0, 0]], lambda a: DensityMatrix(2, a).mat),
        ([[1, 0], [0, 0]], lambda a: ProjectorSet(2, (a,)).projectors[0]),
    ], ids=["PureState", "CorrelatedState", "LocalUnitary", "DensityMatrix", "ProjectorSet"])
    def test_callers_array_stays_the_callers(self, values, build):
        # Each type keeps its own frozen copy: the caller's complex array
        # stays writeable, and writing to it leaves the object unchanged.
        a = np.array(values, dtype=complex)
        held = build(a)
        kept = held.copy()
        assert a.flags.writeable and not np.shares_memory(held, a)
        a[...] = 7
        assert np.array_equal(held, kept) and not held.flags.writeable


class TestTensor:
    def test_basis_product(self):
        out = tensor(PureState.basis((2,), (0,)), PureState.basis((2,), (1,)))
        assert out.dims == (2, 2)
        assert out.amps[1] == 1.0 and np.count_nonzero(out.amps) == 1

    def test_superposition_linearity(self):
        plus = PureState.from_amplitudes((2,), [1, 1])
        out = tensor(plus, PureState.basis((2,), (0,)))
        expected = np.array([1, 0, 1, 0]) / math.sqrt(2)
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)

    def test_uniform_qutrits_outer_product_oracle(self):
        psi = voting_qudit_state(3, 0.0)
        out = tensor(psi, psi)
        oracle = np.outer(psi.amps, psi.amps).reshape(-1)
        np.testing.assert_allclose(out.amps, oracle, atol=1e-12)
        np.testing.assert_allclose(out.amps, np.full(9, 1 / 3), atol=1e-12)


class TestApplyLocal:
    def test_shift_on_basis(self):
        out = apply_local(PureState.basis((3,), (0,)), 0, shift_unitary(3))
        assert out.amps[1] == 1.0

    def test_identity_is_noop(self):
        s = random_state((3, 2), np.random.default_rng(3))
        out = apply_local(s, 1, LocalUnitary(2, np.eye(2)))
        np.testing.assert_allclose(out.amps, s.amps, atol=1e-12)

    def test_phase_vote_matches_dense_matvec_oracle(self):
        state = ghz(3, 2)
        u = phase_vote_unitary(3)
        out = apply_local(state, 0, u)
        oracle = np.kron(u.mat, np.eye(3)) @ state.amps
        np.testing.assert_allclose(out.amps, oracle, atol=1e-12)
        k = np.arange(3)
        expected = np.zeros(9, dtype=complex)
        expected[k * 4] = np.exp(2j * np.pi * k / 3) / math.sqrt(3)
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            apply_local(PureState.basis((3,), (0,)), 0, LocalUnitary(2, np.eye(2)))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_norm_preserved_for_random_unitaries(self, seed, site):
        rng = np.random.default_rng(seed)
        dims = (2, 3, 4)
        s = random_state(dims, rng)
        u = random_unitary(dims[site], rng)
        out = apply_local(s, site, u)
        assert abs(np.linalg.norm(out.amps) - 1) < 1e-12


class TestInner:
    def test_orthonormal_basis(self):
        zero, one = PureState.basis((2,), (0,)), PureState.basis((2,), (1,))
        assert inner(zero, zero) == pytest.approx(1)
        assert inner(zero, one) == pytest.approx(0)

    def test_tally_states_orthogonal(self):
        omega0 = ghz(3, 2)
        omega1 = apply_local(omega0, 0, phase_vote_unitary(3))
        assert abs(inner(omega0, omega1)) < 1e-12

    def test_conjugate_linear_in_first_argument(self):
        rng = np.random.default_rng(5)
        a, b = random_state((4,), rng), random_state((4,), rng)
        scaled = PureState((4,), a.amps * np.exp(0.7j))
        assert inner(scaled, b) == pytest.approx(np.exp(-0.7j) * inner(a, b))

    def test_dims_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            inner(PureState.basis((2,), (0,)), PureState.basis((4,), (0,)))

    def test_self_inner_is_one_for_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = random_state((3, 3), rng)
            assert inner(s, s) == pytest.approx(1, abs=1e-12)


class TestReducedDensity:
    def test_ghz_single_site_is_total_mixture(self):
        rho = reduced_density(ghz(3, 2), [0])
        np.testing.assert_allclose(rho.mat, np.eye(3) / 3, atol=1e-12)

    def test_keep_everything_returns_projector(self):
        s = random_state((2, 3), np.random.default_rng(7))
        rho = reduced_density(s, [0, 1])
        np.testing.assert_allclose(rho.mat, np.outer(s.amps, s.amps.conj()), atol=1e-12)

    def test_product_state_site(self):
        rho = reduced_density(PureState.basis((2, 2), (0, 1)), [1])
        np.testing.assert_allclose(rho.mat, [[0, 0], [0, 1]], atol=1e-12)

    def test_product_factorization(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a, b = random_state((2, 3), rng), random_state((4,), rng)
            rho = reduced_density(tensor(a, b), [0, 1])
            np.testing.assert_allclose(rho.mat, np.outer(a.amps, a.amps.conj()), atol=1e-10)

    def test_out_of_range_raises(self):
        with pytest.raises(ConfigurationError):
            reduced_density(ghz(2, 2), [2])
        with pytest.raises(ConfigurationError):
            reduced_density(ghz(2, 2), [0, 0])


def computational_projectors(d):
    return ProjectorSet.from_states([PureState.basis((d,), (k,)) for k in range(d)])


def tally_projectors(d, n):
    states = []
    for m in range(d):
        c = np.exp(2j * np.pi * m * np.arange(d) / d) / math.sqrt(d)
        states.append(CorrelatedState(d, n, c).to_pure())
    return ProjectorSet.from_states(states)


class TestMeasureProjective:
    def test_tally_state_read_deterministically(self):
        # |Omega_2> for d=5, N=3: two yes votes applied to the ballot.
        state = ghz(5, 3)
        for site in (0, 1):
            state = apply_local(state, site, phase_vote_unitary(5))
        outcome, _, prob = measure_projective(state, tally_projectors(5, 3),
                                              np.random.default_rng(0))
        assert outcome == 2
        assert prob == pytest.approx(1, abs=1e-12)

    def test_basis_measurement(self):
        outcome, post, prob = measure_projective(
            PureState.basis((2,), (0,)), computational_projectors(2),
            np.random.default_rng(1))
        assert outcome == 0 and prob == pytest.approx(1)
        np.testing.assert_allclose(post.amps, [1, 0], atol=1e-12)

    def test_uniform_state_probabilities_match_oracle(self):
        psi = voting_qudit_state(3, 0.0)
        proj = computational_projectors(3)
        oracle = [np.vdot(psi.amps, p @ psi.amps).real for p in proj.projectors]
        np.testing.assert_allclose(oracle, [1 / 3] * 3, atol=1e-12)
        counts = np.zeros(3)
        for g in np.random.default_rng(2).spawn(600):
            outcome, _, prob = measure_projective(psi, proj, g)
            counts[outcome] += 1
            assert prob == pytest.approx(1 / 3, abs=1e-12)
        assert counts.min() > 120

    def test_invalid_outcome_covers_complement(self):
        proj = ProjectorSet.from_states([PureState.basis((3,), (0,))])
        psi = PureState.basis((3,), (2,))
        outcome, post, prob = measure_projective(psi, proj, np.random.default_rng(3))
        assert outcome == INVALID
        assert prob == pytest.approx(1, abs=1e-12)
        np.testing.assert_allclose(post.amps, psi.amps, atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_completeness_probabilities_sum_to_one(self, seed, d, keep):
        rng = np.random.default_rng(seed)
        keep = min(keep, d)
        u = random_unitary(d, rng)
        states = [PureState((d,), u.mat[:, k]) for k in range(keep)]
        proj = ProjectorSet.from_states(states)
        psi = random_state((d,), rng)
        probs = [np.vdot(psi.amps, p @ psi.amps).real for p in proj.projectors]
        p_invalid = 1 - sum(probs)
        assert -1e-10 <= p_invalid <= 1 + 1e-10
        assert sum(probs) + max(p_invalid, 0) == pytest.approx(1, abs=1e-10)

    def test_dim_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            measure_projective(ghz(2, 2), computational_projectors(2),
                               np.random.default_rng(0))


def _pick_loop(probs, u):
    """Reference inverse-CDF lookup: the first k whose running sum exceeds u."""
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if u < acc:
            return k
    return len(probs) - 1


class TestSample:
    def test_matches_loop_reference(self):
        gen = np.random.default_rng(2024)
        for trial in range(2000):
            probs = gen.random(int(gen.integers(1, 40))) ** 4
            # Two of every three distributions sum below one, so some doubles
            # fall past the last bucket and must clamp to the last index.
            probs /= probs.sum() * (1.02 if trial % 3 else 1.0)
            u = np.random.default_rng(trial).random()
            assert _pick(probs.cumsum(), u) == _pick_loop(probs, u)

    def test_rows_pick_as_their_one_row_picks(self):
        # A 2-D CDF with one double per row must pick what the 1-D CDF of
        # each row picks alone: at random doubles, at doubles on each step
        # (repeated where a weight is 0), at 0.0 and at 1 - 2**-53, which
        # passes the last step of an under-normalized row.
        gen = np.random.default_rng(77)
        for trial in range(300):
            rows, d = int(gen.integers(1, 30)), int(gen.integers(1, 20))
            weights = gen.random((rows, d)) ** 4 * (gen.random((rows, d)) < 0.8)
            weights[:, -1] += 1e-3
            scale = np.where(gen.random((rows, 1)) < 0.5, 1.02, 1.0)
            cdf = (weights / (weights.sum(axis=1, keepdims=True) * scale)).cumsum(axis=1)
            doubles = [gen.random(rows), np.zeros(rows), np.full(rows, 1 - 2 ** -53),
                       *cdf.T, *np.nextafter(cdf.T, 0.0)]
            for u in doubles:
                picks = _pick(cdf, u)
                assert picks.tolist() == [int(_pick(row, x)) for row, x in zip(cdf, u)]

    def test_stacked_rows_pick_as_their_one_row_picks(self):
        # A (rows, 1, m) CDF serves its row's R doubles: each pick must equal
        # the 1-D pick of that double, at random doubles and on the steps.
        gen = np.random.default_rng(78)
        for trial in range(200):
            rows, reps, m = (int(x) for x in gen.integers(1, [20, 6, 20]))
            weights = gen.random((rows, m)) ** 4 * (gen.random((rows, m)) < 0.8)
            weights[:, -1] += 1e-3
            cdf = _cdf(weights)
            on_steps = cdf[np.arange(rows)[:, None], gen.integers(0, m, (rows, reps))]
            for u in (gen.random((rows, reps)), on_steps, np.nextafter(on_steps, 0.0)):
                picks = _pick(cdf[:, None], u)
                assert picks.shape == (rows, reps)
                assert picks.tolist() == [[int(_pick(row, x)) for x in us]
                                          for row, us in zip(cdf, u)]

    @pytest.mark.parametrize("shared", [True, False], ids=["shared-row", "row-per-trial"])
    def test_row_stacks_read_each_trials_repetitions(self, shared):
        # How the SECURE engine reads: a (rows, 1, m) CDF stack against (T, R)
        # doubles, with one row every trial shares or one row per trial. Each
        # pick must equal the 1-D pick of its trial's row, at random doubles,
        # at 0.0 and 1 - 2**-53, and exactly on and just below every step.
        gen = np.random.default_rng(79)
        for trial in range(200):
            t, reps, m = (int(x) for x in gen.integers(1, [20, 6, 20]))
            rows = 1 if shared else t
            weights = gen.random((rows, m)) ** 4 * (gen.random((rows, m)) < 0.8)
            weights[:, -1] += 1e-3
            scale = np.where(gen.random((rows, 1)) < 0.5, 1.02, 1.0)
            cdf = (weights / (weights.sum(axis=1, keepdims=True) * scale)).cumsum(axis=1)
            row_of = np.zeros(t, dtype=int) if shared else np.arange(t)
            on_steps = cdf[row_of[:, None], gen.integers(0, m, (t, reps))]
            for u in (gen.random((t, reps)), np.zeros((t, reps)), np.full((t, reps), 1 - 2 ** -53),
                      on_steps, np.nextafter(on_steps, 0.0)):
                picks = _pick(cdf[:, None], u)
                assert picks.shape == (t, reps)
                assert picks.tolist() == [[int(_pick(cdf[r], x)) for x in us]
                                          for r, us in zip(row_of, u)]

    def test_invalid_complement_is_the_last_index(self):
        full = _with_invalid(np.array([0.0, -1e-17]))
        assert _pick(_cdf(full), np.random.default_rng(0).random()) == 2
        assert full[2] == 1.0


class TestMeasureComputational:
    def test_ghz_collapse_correlates_both_sites(self):
        counts = np.zeros(3)
        for g in np.random.default_rng(4).spawn(300):
            k, post = measure_computational(ghz(3, 2), 1, g)
            counts[k] += 1
            expected = PureState.basis((3, 3), (k, k))
            np.testing.assert_allclose(post.amps, expected.amps, atol=1e-12)
        assert counts.min() > 60

    def test_basis_state_deterministic(self):
        k, _ = measure_computational(PureState.basis((3, 2), (2, 1)), 0,
                                     np.random.default_rng(5))
        assert k == 2

    def test_marginal_leaves_other_site_untouched(self):
        psi = PureState.from_amplitudes((2, 2), [1, 1, 0, 0])
        k, post = measure_computational(psi, 0, np.random.default_rng(6))
        assert k == 0
        np.testing.assert_allclose(post.amps, psi.amps, atol=1e-12)


class TestValidation:
    def test_local_unitary_rejects_non_unitary(self):
        with pytest.raises(ConfigurationError):
            LocalUnitary(2, np.array([[1, 0], [0, 2]], dtype=complex))

    def test_nan_state_and_unitary_rejected(self):
        with pytest.raises(ConfigurationError):
            voting_qudit_state(5, np.nan)
        with pytest.raises(ConfigurationError):
            PureState((2,), [np.nan, 0])
        with pytest.raises(ConfigurationError):
            LocalUnitary(2, np.array([[np.nan, 0], [0, 1]], dtype=complex))
        with pytest.raises(ConfigurationError):
            DensityMatrix(2, np.array([[np.nan, 0], [0, 1]], dtype=complex))
        with pytest.raises(ConfigurationError):
            ProjectorSet(2, (np.array([[np.nan, 0], [0, 0]], dtype=complex),))
        with pytest.raises(ConfigurationError):
            CorrelatedState(2, 3, np.array([np.nan, 1], dtype=complex))

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ConfigurationError):
            DensityMatrix(2, np.eye(2))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(ConfigurationError):
            DensityMatrix(2, np.diag([1.5, -0.5]))

    def test_projector_set_rejects_non_orthogonal(self):
        v = np.array([1, 1]) / math.sqrt(2)
        with pytest.raises(ConfigurationError):
            ProjectorSet.from_states([PureState.basis((2,), (0,)), PureState((2,), v)])

    def test_projector_set_rejects_non_idempotent(self):
        with pytest.raises(ConfigurationError):
            ProjectorSet(2, (np.eye(2) * 0.5,))


class TestCorrelatedState:
    def test_roundtrip_through_dense(self):
        c = CorrelatedState(3, 4, np.exp(1j * np.array([0.1, 0.9, 2.2])) / math.sqrt(3))
        np.testing.assert_allclose(_correlated_overlaps(c.to_pure()), c.c, atol=1e-12)

    def test_site_phase_matches_dense_apply(self):
        d, theta = 4, 0.83
        via_compact = CorrelatedState(d, 3, _cast(d, [theta])).to_pure()
        u = LocalUnitary(d, np.diag(np.exp(1j * theta * np.arange(d))))
        via_dense = apply_local(CorrelatedState.uniform(d, 3).to_pure(), 2, u)
        np.testing.assert_allclose(via_compact.amps, via_dense.amps, atol=1e-12)

    def test_dense_budget_guard(self):
        with pytest.raises(ConfigurationError):
            CorrelatedState.uniform(13, 8).to_pure()
