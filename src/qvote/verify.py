"""Formal checks: privacy conditions, mixedness, and the qubit no-go.

The privacy conditions require post-vote states to have unit-modulus
overlap exactly when their tallies agree and zero overlap otherwise.
``check_privacy`` tests them on the states the runs produce, one block
of yes/no patterns at a time: a DB pattern is its ``protocols._cast``
row at the angles the runs use, and a TB pattern is the unit row e_s of
its ``protocols._tb_shift``, the shift ``run_tb_vote`` reports, which
stands for the pair sum_k |k, k + s> / sqrt(d) with the same overlaps.
For two qubit voters those conditions reduce to four expectation-value
equations with no solution; ``qubit_nogo_search`` witnesses that
numerically by minimizing the summed violation, while
``qutrit_solution_check`` confirms the explicit qutrit solution reaches
zero residual. Every check passes by a fixed bound: ``TOLERANCE`` for
overlaps, reduced states and the ansatz; ``NOGO_FLOOR``, 1e-12 under the
1/2 that ``qubit_floor`` proves, for the search's minimum. scipy, which
only that search needs, loads on the first search, so importing this
module (or ``qvote.cli``) does not load it.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError, _at_least
from .protocols import _cast, _tb_shift, _vote_patterns, _yes_angle
from .qstate import PureState, reduced_density

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
TOLERANCE = 1e-10
NOGO_FLOOR = 0.5 - 1e-12


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


# Rows per block of the same-tally check: a ``_cast`` row's bits do not
# depend on its batch, and 2^16 patterns cast about twice as fast in blocks
# of this size as in one. TB unit rows use the same blocks.
CAST_BLOCK = 1024


def _same_tally_deviation(reps: np.ndarray, rows: np.ndarray) -> float:
    """Worst |1 - |<rep|row>||, row by row."""
    return float(np.abs(1 - np.abs((reps.conj() * rows).sum(axis=-1))).max())


def check_privacy(scheme: str, d: int, N: int) -> PrivacyReport:
    """Exhaustively test the overlap conditions over all 2^N vote vectors.

    States of equal tally must coincide up to phase (checked against a
    class representative, which is equivalent for unit-modulus overlaps)
    and states of different tally must be orthogonal. The tally map is the
    plain yes count, so undersized d is reported as a failure, not an
    error: aliased tallies produce unit cross-tally overlaps. ``passed``
    compares the exact values with ``TOLERANCE``; the report holds them
    rounded to 12 decimals, since their low bits depend on numpy's SIMD
    target and the BLAS kernel.
    """
    scheme = str(scheme).upper()
    if scheme not in ("DB", "TB"):
        raise ConfigurationError(f"check_privacy supports DB and TB, got {scheme}")
    if N > ENUMERATION_GUARD:
        raise ConfigurationError(
            f"refusing to enumerate 2^{N} vote vectors (guard is N <= {ENUMERATION_GUARD})")
    if d < 2 or N < 1:
        raise ConfigurationError(f"need d >= 2 and N >= 1, got d={d}, N={N}")

    # Bit j of pattern i is voter j's vote, so tally w first occurs at i = 2^w - 1.
    patterns = _vote_patterns(N)
    if scheme == "DB":
        angles = _yes_angle(d, patterns)

        def rows(i):
            return _cast(d, angles[i])
    else:
        # e_s -> sum_k |k, k + s> / sqrt(d) is an isometry, so the unit rows
        # of the run's shifts have exactly the overlaps of the TB pairs.
        shifts, unit = _tb_shift(d, patterns.T), np.eye(d)

        def rows(i):
            return unit[shifts[i]]
    tallies = patterns.sum(axis=1)
    reps = rows(2 ** np.arange(N + 1) - 1)
    worst_same = 0.0
    for start in range(0, len(patterns), CAST_BLOCK):
        block = slice(start, start + CAST_BLOCK)
        worst_same = max(worst_same, _same_tally_deviation(reps[tallies[block]], rows(block)))
    cross = np.abs(reps.conj() @ reps.T)[np.triu_indices(N + 1, 1)]
    worst_cross = float(cross.max())
    passed = bool(worst_same <= TOLERANCE and worst_cross <= TOLERANCE)
    return PrivacyReport(scheme, d, N, TOLERANCE, passed, round(worst_same, 12),
                         round(worst_cross, 12), 2 ** N, len(cross))


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


def qubit_floor(x: np.ndarray) -> float:
    """Certified lower bound on ``_residual_and_grad(x)[0]``; never below 1/2.

    In the closed form of ``qubit_nogo_search`` every term is
    non-negative, u0^2 + v0^2 >= 2|alpha|, and a^2 + b^2 >= (b - a)^2 / 2
    with b - a = 1 - 2 alpha, so

        R >= 1/2 + 2 alpha^2 + 2 (|alpha| - alpha),  alpha = cos nu cos theta.

    No two-qubit scheme reaches zero residual.
    """
    alpha = math.cos(x[0]) * math.cos(x[1])
    return 0.5 + 2 * alpha ** 2 + 2 * (abs(alpha) - alpha)


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize(fun, x0, **kwargs)``, imported on first call.

    A module-level name, so a test or tracer can rebind the optimizer that
    ``qubit_nogo_search`` calls.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def qubit_nogo_search(restarts: int, iterations: int,
                      rng: np.random.Generator) -> tuple[float, QubitSchemeParams]:
    """Multi-start local descent over all two-qubit voting schemes.

    The residual cannot reach zero for qubits; the returned minimum is
    the numerical witness. Restarts draw independent starting points
    from ``rng``; L-BFGS-B gets the residual and its exact gradient from
    one closed-form evaluation. scipy is imported on the first search.

    With U = u0 I + i u.sigma (u0 = cos nu, u = sin nu m_hat), V likewise
    (v0, v from theta and n_hat), and the real correlations
    M_jk = <omega|sigma_j x sigma_k|omega> (sigma_0 = I), take
    s = M[1:, 0], t = M[0, 1:], T = M[1:, 1:], p = u.s, q = v.t,
    r = u.T.v and alpha = u0 v0. Then

        R = u0^2 + v0^2 + p^2 + q^2 + (alpha - r)^2 + (1 - alpha - r)^2
            + 2 (u0^2 q^2 + v0^2 p^2),

    which equals ``qubit_residual``.
    """
    restarts = _at_least("restarts", restarts, 1)
    iterations = _at_least("iterations", iterations, 1)

    best_val, best_x = np.inf, None
    for _ in range(restarts):
        x0 = np.empty(16)
        x0[0:2] = rng.uniform(0, 2 * np.pi, 2)
        x0[2:] = rng.standard_normal(14)
        res = minimize(_residual_and_grad, x0, jac=True, method="L-BFGS-B",
                       options={"maxiter": iterations})
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


def ansatz_check(d: int, etas=None, alphas=None) -> AnsatzResult:
    """Test eigenphases and weights against the correlated-state conditions.

    With U = sum_j e^{i eta_j}|j><j| and the ballot carrying weights
    |alpha_j|^2 on |j>|j>, privacy requires sum |a_j|^2 e^{2i eta_j} = 0,
    sum |a_j|^2 e^{i eta_j} = 0, and sum |a_j|^2 = 1. ``etas`` defaults
    to the d-th roots of unity and ``alphas`` to uniform moduli 1/sqrt(d).
    """
    _at_least("d", d, 1)
    if etas is None:
        etas = [2 * np.pi * j / d for j in range(d)]
    if alphas is None:
        alphas = [1 / math.sqrt(d)] * d
    etas = np.asarray(etas, dtype=float)
    weights = np.abs(np.asarray(alphas, dtype=complex)) ** 2
    if etas.shape != (d,) or weights.shape != (d,):
        raise ConfigurationError(f"need {d} eigenphases and {d} moduli")
    second = float(abs(np.sum(weights * np.exp(2j * etas))))
    first = float(abs(np.sum(weights * np.exp(1j * etas))))
    norm = float(abs(np.sum(weights) - 1.0))
    passed = second <= TOLERANCE and first <= TOLERANCE and norm <= TOLERANCE
    return AnsatzResult(second, first, norm, bool(passed))
