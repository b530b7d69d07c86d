"""Formal checks: privacy conditions, mixedness, and the qubit no-go.

The privacy conditions require post-vote states to have unit-modulus
overlap exactly when their tallies agree and zero overlap otherwise.
For two qubit voters those conditions reduce to four expectation-value
equations with no solution; ``qubit_nogo_search`` witnesses that
numerically by minimizing the summed violation, while
``qutrit_solution_check`` confirms the explicit qutrit solution reaches
zero residual.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import minimize

from .ballots import phase_vote_unitary, prepare_tb_ballot, shift_unitary
from .errors import ConfigurationError
from .qstate import CorrelatedState, PureState, apply_local, inner, reduced_density

SIGMA = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
I2 = np.eye(2, dtype=complex)
# sigma_j x sigma_k for j, k = 0..3 (sigma_0 = I), row-major in (j, k), as
# real symmetric 8x8 forms acting on (Re omega, Im omega).
PAULI_PAIRS_REAL = np.array([np.block([[k.real, -k.imag], [k.imag, k.real]])
                             for k in (np.kron(a, b) for a in (I2, *SIGMA) for b in (I2, *SIGMA))])

ENUMERATION_GUARD = 16


@dataclass(frozen=True)
class QubitSchemeParams:
    """su(2)-parametrized vote-difference operators plus a shared state.

    U = I cos(nu) + i (m_hat . sigma) sin(nu), V likewise with theta and
    n_hat; omega is the two-qubit ballot state.
    """

    nu: float
    m_hat: np.ndarray
    theta: float
    n_hat: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m_hat, dtype=float)
        n = np.asarray(self.n_hat, dtype=float)
        w = np.asarray(self.omega, dtype=complex)
        if m.shape != (3,) or n.shape != (3,) or w.shape != (4,):
            raise ConfigurationError("need 3-vectors m_hat, n_hat and a 4-vector omega")
        if abs(np.linalg.norm(m) - 1) > 1e-10 or abs(np.linalg.norm(n) - 1) > 1e-10:
            raise ConfigurationError("m_hat and n_hat must be unit vectors")
        if abs(np.linalg.norm(w) - 1) > 1e-10:
            raise ConfigurationError("omega must be normalized")
        object.__setattr__(self, "m_hat", m)
        object.__setattr__(self, "n_hat", n)
        object.__setattr__(self, "omega", w)

    def u_mat(self) -> np.ndarray:
        return np.cos(self.nu) * I2 + 1j * np.sin(self.nu) * np.tensordot(self.m_hat, SIGMA, 1)

    def v_mat(self) -> np.ndarray:
        return np.cos(self.theta) * I2 + 1j * np.sin(self.theta) * np.tensordot(self.n_hat, SIGMA, 1)


@dataclass
class PrivacyReport:
    """Worst-case deviations from the overlap conditions."""

    scheme: str
    d: int
    N: int
    tolerance: float
    passed: bool
    worst_same_tally_deviation: float
    worst_cross_tally_overlap: float
    same_tally_pairs: int
    cross_tally_pairs: int

    def to_dict(self) -> dict:
        return asdict(self)


def _vote_patterns(initial, vote, N: int):
    """Yield (yes count, state) for all 2^N patterns; each yes voter applies ``vote``.

    Depth-first, so patterns share their prefix's states: 2^N - 1 applications.
    """
    stack = [(0, 0, initial)]
    while stack:
        voter, weight, state = stack.pop()
        if voter == N:
            yield weight, state
        else:
            stack.append((voter + 1, weight + 1, vote(state)))
            stack.append((voter + 1, weight, state))


def check_privacy(scheme: str, d: int, N: int, tolerance: float = 1e-10) -> PrivacyReport:
    """Exhaustively test the overlap conditions over all 2^N vote vectors.

    Each yes voter applies the real vote operator: the diagonal of
    ``phase_vote_unitary`` on the correlated DB amplitudes, or
    ``shift_unitary`` on site 1 of the TB pair. States of equal tally
    must coincide up to phase (checked against a class representative,
    which is equivalent for unit-modulus overlaps) and states of
    different tally must be orthogonal. The tally map is the plain yes
    count, so undersized d is reported as a failure, not an error:
    aliased tallies produce unit cross-tally overlaps.
    """
    scheme = str(scheme).upper()
    if scheme not in ("DB", "TB"):
        raise ConfigurationError(f"check_privacy supports DB and TB, got {scheme}")
    if N > ENUMERATION_GUARD:
        raise ConfigurationError(
            f"refusing to enumerate 2^{N} vote vectors (guard is N <= {ENUMERATION_GUARD})")
    if d < 2 or N < 1:
        raise ConfigurationError(f"need d >= 2 and N >= 1, got d={d}, N={N}")

    if scheme == "DB":
        phases = np.diag(phase_vote_unitary(d).mat)
        initial, overlap = CorrelatedState.uniform(d, N).c, np.vdot

        def vote(c):
            return c * phases
    else:
        shift = shift_unitary(d)
        initial, overlap = prepare_tb_ballot(d), inner

        def vote(state):
            return apply_local(state, 1, shift)

    # Each weight class is checked member-against-representative (its
    # first pattern); a unit modulus there makes every pair unit.
    reps = {}
    worst_same, same_pairs = 0.0, 0
    for weight, state in _vote_patterns(initial, vote, N):
        rep = reps.setdefault(weight, state)
        worst_same = max(worst_same, abs(1 - abs(overlap(rep, state))))
        same_pairs += 1
    worst_cross, cross_pairs = 0.0, 0
    for w1 in range(N + 1):
        for w2 in range(w1 + 1, N + 1):
            worst_cross = max(worst_cross, abs(overlap(reps[w1], reps[w2])))
            cross_pairs += 1
    passed = bool(worst_same <= tolerance and worst_cross <= tolerance)
    return PrivacyReport(scheme, d, N, tolerance, passed, float(worst_same),
                         float(worst_cross), same_pairs, cross_pairs)


def check_reduced_identity(state: PureState, sites) -> float:
    """Max-norm distance of the reduced density matrix from I/D."""
    sites = [int(s) for s in sites]
    if len(sites) == 0:
        raise ConfigurationError("need at least one site to reduce onto")
    if len(set(sites)) == state.num_sites:
        raise ConfigurationError("subset must be strict; a pure state is never maximally mixed")
    rho = reduced_density(state, sites)
    return float(np.max(np.abs(rho.mat - np.eye(rho.dim) / rho.dim)))


def qubit_residual(params: QubitSchemeParams) -> float:
    return general_residual(params.u_mat(), params.v_mat(), params.omega)


def _unpack(x: np.ndarray) -> QubitSchemeParams:
    m = x[2:5]
    n = x[5:8]
    w = x[8:16].reshape(2, 4)
    omega = w[0] + 1j * w[1]
    return QubitSchemeParams(
        nu=float(x[0]),
        m_hat=m / max(np.linalg.norm(m), 1e-12),
        theta=float(x[1]),
        n_hat=n / max(np.linalg.norm(n), 1e-12),
        omega=omega / max(np.linalg.norm(omega), 1e-12),
    )


def _tangent(direction: np.ndarray, length: float, grad: np.ndarray) -> np.ndarray:
    """Chain a gradient in a unit vector back to the raw vector it normalizes."""
    return (grad - direction * (direction @ grad)) / length


def _residual_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
    """``qubit_residual(_unpack(x))`` in closed form, with its gradient in x.

    See ``qubit_nogo_search`` for the closed form. omega is packed as the
    real 8-vector psi = x[8:16] / |x[8:16]|, so M_jk = psi^T K_jk psi with
    real symmetric K_jk, and dR/dM defines K_H = sum dR/dM_jk K_jk with
    dR/dx[8:16] = 2 (K_H psi - (psi^T K_H psi) psi) / |x[8:16]|.
    """
    nu, theta = x[0], x[1]
    len_m, len_n, len_w = (max(np.linalg.norm(x[k:l]), 1e-12)
                           for k, l in ((2, 5), (5, 8), (8, 16)))
    m_hat, n_hat, psi = x[2:5] / len_m, x[5:8] / len_n, x[8:16] / len_w
    k_psi = PAULI_PAIRS_REAL @ psi
    corr = (k_psi @ psi).reshape(4, 4)
    s, t, tt = corr[1:, 0], corr[0, 1:], corr[1:, 1:]
    u0, v0, sin_nu, sin_theta = math.cos(nu), math.cos(theta), math.sin(nu), math.sin(theta)
    u, v = sin_nu * m_hat, sin_theta * n_hat
    tv = tt @ v
    p, q, r, alpha = u @ s, v @ t, u @ tv, u0 * v0
    value = (u0 ** 2 + v0 ** 2 + p ** 2 + q ** 2 + (alpha - r) ** 2 + (1 - alpha - r) ** 2
             + 2 * (u0 ** 2 * q ** 2 + v0 ** 2 * p ** 2))
    d_p, d_q = 2 * p * (1 + 2 * v0 ** 2), 2 * q * (1 + 2 * u0 ** 2)
    d_alpha, d_r = 2 * (2 * alpha - 1), 2 * (2 * r - 1)
    d_u0 = 2 * u0 * (1 + 2 * q ** 2) + d_alpha * v0
    d_v0 = 2 * v0 * (1 + 2 * p ** 2) + d_alpha * u0
    d_u = d_p * s + d_r * tv
    d_v = d_q * t + d_r * (u @ tt)
    d_corr = np.zeros((4, 4))
    d_corr[1:, 0], d_corr[0, 1:], d_corr[1:, 1:] = d_p * u, d_q * v, d_r * np.outer(u, v)
    h_psi = d_corr.reshape(16) @ k_psi
    grad = np.empty(16)
    grad[0] = u0 * (m_hat @ d_u) - sin_nu * d_u0
    grad[1] = v0 * (n_hat @ d_v) - sin_theta * d_v0
    grad[2:5] = _tangent(m_hat, len_m, sin_nu * d_u)
    grad[5:8] = _tangent(n_hat, len_n, sin_theta * d_v)
    grad[8:16] = _tangent(psi, len_w, 2 * h_psi)
    return float(value), grad


def qubit_nogo_search(restarts: int, iterations: int,
                      rng: np.random.Generator) -> tuple[float, QubitSchemeParams]:
    """Multi-start local descent over all two-qubit voting schemes.

    The residual cannot reach zero for qubits; the returned minimum is
    the numerical witness. Restarts draw independent starting points
    from ``rng``; L-BFGS-B gets the residual and its exact gradient from
    one closed-form evaluation.

    With U = u0 I + i u.sigma (u0 = cos nu, u = sin nu m_hat), V likewise
    (v0, v from theta and n_hat), and the real correlations
    M_jk = <omega|sigma_j x sigma_k|omega> (sigma_0 = I), take
    s = M[1:, 0], t = M[0, 1:], T = M[1:, 1:], p = u.s, q = v.t,
    r = u.T.v and alpha = u0 v0. Then

        R = u0^2 + v0^2 + p^2 + q^2 + (alpha - r)^2 + (1 - alpha - r)^2
            + 2 (u0^2 q^2 + v0^2 p^2),

    which equals ``qubit_residual``.
    """
    if restarts < 1:
        raise ConfigurationError(f"restarts must be >= 1, got {restarts}")

    best_val, best_x = np.inf, None
    for _ in range(int(restarts)):
        x0 = np.empty(16)
        x0[0:2] = rng.uniform(0, 2 * np.pi, 2)
        x0[2:] = rng.standard_normal(14)
        res = minimize(_residual_and_grad, x0, jac=True, method="L-BFGS-B",
                       options={"maxiter": int(iterations)})
        if res.fun < best_val:
            best_val, best_x = float(res.fun), res.x
    return best_val, _unpack(best_x)


def qutrit_solution_check() -> float:
    """Residual of the explicit qutrit scheme; zero up to rounding.

    U has eigenphases 2pi/3, 4pi/3, 2pi on the correlated eigenbasis of
    the maximally entangled two-qutrit ballot.
    """
    u = np.diag(np.exp(1j * np.array([2 * np.pi / 3, 4 * np.pi / 3, 2 * np.pi])))
    omega = np.zeros(9, dtype=complex)
    omega[[0, 4, 8]] = 1 / math.sqrt(3)
    return general_residual(u, u, omega)


def general_residual(u_mat: np.ndarray, v_mat: np.ndarray, omega: np.ndarray) -> float:
    """privacy_residual for arbitrary equal-dimension voter operators.

    Each <omega|A x B|omega> is tr(W^dagger A W B^T), with W = omega as a
    du x dv matrix.
    """
    u = np.asarray(u_mat, dtype=complex)
    v = np.asarray(v_mat, dtype=complex)
    w = np.asarray(omega, dtype=complex).reshape(u.shape[0], v.shape[0])
    uw = u @ w
    a = np.vdot(w, uw)
    b = np.vdot(w, w @ v.T)
    c = np.vdot(w, uw @ v.T)
    e = np.vdot(w, uw @ v.conj())
    return float(abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(1 - e) ** 2)


@dataclass
class AnsatzResult:
    """Residuals of the eigenbasis conditions for a candidate scheme."""

    second_harmonic: float
    first_harmonic: float
    normalization: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def ansatz_check(d: int, etas, alphas, tolerance: float = 1e-10) -> AnsatzResult:
    """Test eigenphases and weights against the correlated-state conditions.

    With U = sum_j e^{i eta_j}|j><j| and the ballot carrying weights
    |alpha_j|^2 on |j>|j>, privacy requires sum |a_j|^2 e^{2i eta_j} = 0,
    sum |a_j|^2 e^{i eta_j} = 0, and sum |a_j|^2 = 1.
    """
    etas = np.asarray(etas, dtype=float)
    weights = np.abs(np.asarray(alphas, dtype=complex)) ** 2
    if etas.shape != (d,) or weights.shape != (d,):
        raise ConfigurationError(f"need {d} eigenphases and {d} moduli")
    second = float(abs(np.sum(weights * np.exp(2j * etas))))
    first = float(abs(np.sum(weights * np.exp(1j * etas))))
    norm = float(abs(np.sum(weights) - 1.0))
    passed = second <= tolerance and first <= tolerance and norm <= tolerance
    return AnsatzResult(second, first, norm, bool(passed))
