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
1/2 that ``qubit_floor`` proves, for the search's minimum. The search
and the qutrit check run on numpy elementwise arithmetic and Python
scalars, with no BLAS call, so their outputs are the same on every BLAS
kernel and SIMD target.
"""

import math
from dataclasses import asdict, dataclass
from functools import reduce
from operator import add, mul

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
    w = x[8:16]
    psi = w / max(math.sqrt((w * w).sum()), 1e-12)
    return QubitSchemeParams(
        nu=float(x[0]),
        m_hat=m / max(math.sqrt((m * m).sum()), 1e-12),
        theta=float(x[1]),
        n_hat=n / max(math.sqrt((n * n).sum()), 1e-12),
        omega=psi[:4] + 1j * psi[4:],
    )


def _residual_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
    """``qubit_residual(_unpack(x))`` in closed form, with its gradient in x.

    See ``qubit_nogo_search`` for the closed form. omega is packed as
    (a, b) = x[8:16] / |x[8:16]|, omega_i = a_i + i b_i. Each correlation
    M_jk is a signed sum of the bilinears n_i = |omega_i|^2 and
    re_ik + i im_ik = conj(omega_i) omega_k. F = sum_jk dR/dM_jk M_jk is
    then a quadratic form in (a, b); dR/d(a, b) is the part of its
    gradient orthogonal to (a, b), divided by |x[8:16]|. Every step is a
    Python float operation, so the bits depend on no BLAS kernel or SIMD
    target.
    """
    nu, theta, mx, my, mz, nx, ny, nz, a0, a1, a2, a3, b0, b1, b2, b3 = x.tolist()
    len_m = max(math.sqrt(mx * mx + my * my + mz * mz), 1e-12)
    len_n = max(math.sqrt(nx * nx + ny * ny + nz * nz), 1e-12)
    len_w = max(math.sqrt(a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
                          + b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3), 1e-12)
    mx, my, mz = mx / len_m, my / len_m, mz / len_m
    nx, ny, nz = nx / len_n, ny / len_n, nz / len_n
    a0, a1, a2, a3 = a0 / len_w, a1 / len_w, a2 / len_w, a3 / len_w
    b0, b1, b2, b3 = b0 / len_w, b1 / len_w, b2 / len_w, b3 / len_w

    n0, n1, n2, n3 = a0 * a0 + b0 * b0, a1 * a1 + b1 * b1, a2 * a2 + b2 * b2, a3 * a3 + b3 * b3
    re01, im01 = a0 * a1 + b0 * b1, a0 * b1 - b0 * a1
    re02, im02 = a0 * a2 + b0 * b2, a0 * b2 - b0 * a2
    re03, im03 = a0 * a3 + b0 * b3, a0 * b3 - b0 * a3
    re12, im12 = a1 * a2 + b1 * b2, a1 * b2 - b1 * a2
    re13, im13 = a1 * a3 + b1 * b3, a1 * b3 - b1 * a3
    re23, im23 = a2 * a3 + b2 * b3, a2 * b3 - b2 * a3
    # s = M[1:, 0], t = M[0, 1:] and T = M[1:, 1:], with basis index 2 j + k
    # for qubit states j and k.
    sx, sy, sz = 2 * (re02 + re13), 2 * (im02 + im13), n0 + n1 - n2 - n3
    tx, ty, tz = 2 * (re01 + re23), 2 * (im01 + im23), n0 - n1 + n2 - n3
    txx, txy, txz = 2 * (re03 + re12), 2 * (im03 - im12), 2 * (re02 - re13)
    tyx, tyy, tyz = 2 * (im03 + im12), 2 * (re12 - re03), 2 * (im02 - im13)
    tzx, tzy, tzz = 2 * (re01 - re23), 2 * (im01 - im23), n0 - n1 - n2 + n3

    u0, v0, sin_nu, sin_theta = math.cos(nu), math.cos(theta), math.sin(nu), math.sin(theta)
    ux, uy, uz = sin_nu * mx, sin_nu * my, sin_nu * mz
    vx, vy, vz = sin_theta * nx, sin_theta * ny, sin_theta * nz
    tvx, tvy, tvz = (txx * vx + txy * vy + txz * vz, tyx * vx + tyy * vy + tyz * vz,
                     tzx * vx + tzy * vy + tzz * vz)
    utx, uty, utz = (ux * txx + uy * tyx + uz * tzx, ux * txy + uy * tyy + uz * tzy,
                     ux * txz + uy * tyz + uz * tzz)
    p, q = ux * sx + uy * sy + uz * sz, vx * tx + vy * ty + vz * tz
    r, alpha = ux * tvx + uy * tvy + uz * tvz, u0 * v0
    value = (u0 ** 2 + v0 ** 2 + p ** 2 + q ** 2 + (alpha - r) ** 2 + (1 - alpha - r) ** 2
             + 2 * (u0 ** 2 * q ** 2 + v0 ** 2 * p ** 2))
    d_p, d_q = 2 * p * (1 + 2 * v0 ** 2), 2 * q * (1 + 2 * u0 ** 2)
    d_alpha, d_r = 2 * (2 * alpha - 1), 2 * (2 * r - 1)
    d_u0 = 2 * u0 * (1 + 2 * q ** 2) + d_alpha * v0
    d_v0 = 2 * v0 * (1 + 2 * p ** 2) + d_alpha * u0
    d_ux, d_uy, d_uz = d_p * sx + d_r * tvx, d_p * sy + d_r * tvy, d_p * sz + d_r * tvz
    d_vx, d_vy, d_vz = d_q * tx + d_r * utx, d_q * ty + d_r * uty, d_q * tz + d_r * utz
    # u = sin(nu) m_hat: d/dnu through u0 and u, d/dm through the tangent
    # projection of sin(nu) dR/du onto m_hat's sphere; likewise for v.
    m_du, n_dv = mx * d_ux + my * d_uy + mz * d_uz, nx * d_vx + ny * d_vy + nz * d_vz
    g_nu, g_theta = u0 * m_du - sin_nu * d_u0, v0 * n_dv - sin_theta * d_v0
    scale_m, scale_n = sin_nu / len_m, sin_theta / len_n

    # Half the coefficients of F in n_i, re_ik and im_ik, from dR/ds = d_p u,
    # dR/dt = d_q v and dR/dT = d_r u v^T.
    ps_x, ps_y, ps_z = d_p * ux, d_p * uy, d_p * uz
    qt_x, qt_y, qt_z = d_q * vx, d_q * vy, d_q * vz
    ru_x, ru_y, ru_z = d_r * ux, d_r * uy, d_r * uz
    e0, e1 = ps_z + qt_z + ru_z * vz, ps_z - qt_z - ru_z * vz
    e2, e3 = -ps_z + qt_z - ru_z * vz, -ps_z - qt_z + ru_z * vz
    f01, f23 = qt_x + ru_z * vx, qt_x - ru_z * vx
    g01, g23 = qt_y + ru_z * vy, qt_y - ru_z * vy
    f02, f13 = ps_x + ru_x * vz, ps_x - ru_x * vz
    g02, g13 = ps_y + ru_y * vz, ps_y - ru_y * vz
    f03, f12 = ru_x * vx - ru_y * vy, ru_x * vx + ru_y * vy
    g03, g12 = ru_x * vy + ru_y * vx, ru_y * vx - ru_x * vy
    # Half of dF/da_i and dF/db_i.
    ha0 = e0 * a0 + f01 * a1 + f02 * a2 + f03 * a3 + g01 * b1 + g02 * b2 + g03 * b3
    ha1 = e1 * a1 + f01 * a0 + f12 * a2 + f13 * a3 - g01 * b0 + g12 * b2 + g13 * b3
    ha2 = e2 * a2 + f02 * a0 + f12 * a1 + f23 * a3 - g02 * b0 - g12 * b1 + g23 * b3
    ha3 = e3 * a3 + f03 * a0 + f13 * a1 + f23 * a2 - g03 * b0 - g13 * b1 - g23 * b2
    hb0 = e0 * b0 + f01 * b1 + f02 * b2 + f03 * b3 - g01 * a1 - g02 * a2 - g03 * a3
    hb1 = e1 * b1 + f01 * b0 + f12 * b2 + f13 * b3 + g01 * a0 - g12 * a2 - g13 * a3
    hb2 = e2 * b2 + f02 * b0 + f12 * b1 + f23 * b3 + g02 * a0 + g12 * a1 - g23 * a3
    hb3 = e3 * b3 + f03 * b0 + f13 * b1 + f23 * b2 + g03 * a0 + g13 * a1 + g23 * a2
    w_h = (a0 * ha0 + a1 * ha1 + a2 * ha2 + a3 * ha3
           + b0 * hb0 + b1 * hb1 + b2 * hb2 + b3 * hb3)
    scale_w = 2 / len_w
    return value, np.array([
        g_nu, g_theta,
        scale_m * (d_ux - mx * m_du), scale_m * (d_uy - my * m_du), scale_m * (d_uz - mz * m_du),
        scale_n * (d_vx - nx * n_dv), scale_n * (d_vy - ny * n_dv), scale_n * (d_vz - nz * n_dv),
        scale_w * (ha0 - a0 * w_h), scale_w * (ha1 - a1 * w_h),
        scale_w * (ha2 - a2 * w_h), scale_w * (ha3 - a3 * w_h),
        scale_w * (hb0 - b0 * w_h), scale_w * (hb1 - b1 * w_h),
        scale_w * (hb2 - b2 * w_h), scale_w * (hb3 - b3 * w_h)])


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


@dataclass(frozen=True)
class Minimum:
    """Where ``minimize`` stopped: value, point, iterations and objective calls."""

    fun: float
    x: np.ndarray
    nit: int
    nfev: int


# BFGS stops once an iteration lowers f by at most FTOL max(|f_old|, |f_new|, 1),
# L-BFGS-B's default of 1e7 machine epsilons, once max |grad| is at most GTOL, or
# once MAX_HALVINGS halvings of the step find no sufficient decrease (f is flat
# to rounding there). ARMIJO is the sufficient-decrease constant c1.
FTOL = 2.2e-9
GTOL = 1e-9
ARMIJO = 1e-4
MAX_HALVINGS = 60


def minimize(fun, x0: np.ndarray, iterations: int) -> Minimum:
    """BFGS with Armijo backtracking, for at most ``iterations`` iterations.

    ``fun(x)`` returns f(x) and its gradient. The inverse Hessian estimate H
    starts at the identity and takes the BFGS update whenever y^T s > 0
    (Nocedal and Wright, *Numerical Optimization*, 2nd ed., Algorithm 6.1).
    Each step tries a step length of 1 and halves it until f falls by at
    least ARMIJO times the predicted decrease. Every product is elementwise
    and every sum runs in numpy's fixed order, with no BLAS call, so the
    iterates are the same on every BLAS kernel. A module-level name, so a
    test or tracer can rebind the optimizer that ``qubit_nogo_search``
    calls.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    nit, nfev = 0, 1
    eye = np.eye(len(x))
    h = eye
    while nit < iterations and np.abs(g).max() > GTOL:
        d = -(h * g).sum(axis=1)
        slope = (g * d).sum()
        if slope >= 0:
            # Rounding has made H indefinite: restart from steepest descent.
            h, d, slope = eye, -g, -(g * g).sum()
        step = 1.0
        for _ in range(MAX_HALVINGS):
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            nfev += 1
            if f_new <= f + ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        nit += 1
        s, y = x_new - x, g_new - g
        done = f - f_new <= FTOL * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if done:
            break
        ys = (y * s).sum()
        if ys > 0:
            hy = (h * y).sum(axis=1)
            rho = 1 / ys
            h = (h + ((rho + rho * rho * (y * hy).sum()) * s)[:, None] * s
                 - (rho * s)[:, None] * hy - (rho * hy)[:, None] * s)
    return Minimum(float(f), x, nit, nfev)


def qubit_nogo_search(restarts: int, iterations: int,
                      rng: np.random.Generator) -> tuple[float, QubitSchemeParams]:
    """Multi-start local descent over all two-qubit voting schemes.

    The residual cannot reach zero for qubits; the returned minimum is
    the numerical witness. Restarts draw independent starting points
    from ``rng``, one at a time; ``minimize`` runs BFGS on each, with the
    residual and its exact gradient from one closed-form evaluation.

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
        res = minimize(_residual_and_grad, x0, iterations)
        if res.fun < best_val:
            best_val, best_x = res.fun, res.x
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


def _dot(xs, ys) -> complex:
    """sum_i xs[i] ys[i], accumulated left to right in Python complex scalars."""
    return reduce(add, map(mul, xs, ys))


def general_residual(u_mat: np.ndarray, v_mat: np.ndarray, omega: np.ndarray) -> float:
    """privacy_residual for arbitrary equal-dimension voter operators.

    Each <omega|A x B|omega> is sum_jk (W^dagger A W)_jk B_jk, with
    W = omega as a du x dv matrix. The matrices are small, so the sums run
    on Python complex scalars, whose bits depend on no BLAS kernel or SIMD
    target.
    """
    u, v = (np.asarray(m, dtype=complex).tolist() for m in (u_mat, v_mat))
    w_cols = list(zip(*np.asarray(omega, dtype=complex).reshape(len(u), len(v)).tolist()))
    w_dagger = [[z.conjugate() for z in col] for col in w_cols]
    uw_cols = [[_dot(u_i, col) for u_i in u] for col in w_cols]
    # W^dagger U W and W^dagger W, and V and V^dagger, flattened row by row.
    wuw = [_dot(row, col) for row in w_dagger for col in uw_cols]
    ww = [_dot(row, col) for row in w_dagger for col in w_cols]
    v_flat = [z for row in v for z in row]
    v_dagger = [z.conjugate() for col in zip(*v) for z in col]
    a = reduce(add, wuw[::len(v) + 1])
    b = _dot(ww, v_flat)
    c = _dot(wuw, v_flat)
    e = _dot(wuw, v_dagger)
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
