"""Ballot preparation, voting operations, and authority-side decoders.

Three quantum schemes share these primitives:

* DB (distributed ballot): every voter holds one qudit of
  (1/sqrt d) sum_j |j>^N and votes with the diagonal phase operator.
* TB (travelling ballot): a two-qudit entangled pair; one qudit visits
  the voters in turn and yes-votes cyclically shift it.
* SECURE: DB plus single-use "voting qudits" in secret-angle states,
  which stop anyone from voting twice undetected.

The anti-reuse cast follows the protocol's stated output state: after
the voter's pairing measurement returns r and the shift correction is
applied, the voting qudit contributes e^{i(k-r) theta} to the k-th
correlated component (the integer k - r, not its mod-d residue, which
is what keeps the secret offset delta from leaking into the tally).

The omega_p reading has one implementation, ``phase_readings``; the dense
functions serve verification, single qudits and the tests.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .qstate import (
    INVALID,
    CorrelatedState,
    LocalUnitary,
    PureState,
    _cdf,
    _sample,
    _with_invalid,
)

CHEAT_DETECTED = "CHEAT_DETECTED"


class Scheme(str, Enum):
    DB = "DB"
    TB = "TB"
    SECURE = "SECURE"
    SURVEY = "SURVEY"


class Vote(str, Enum):
    YES = "Y"
    NO = "N"

    @staticmethod
    def parse(value) -> "Vote":
        if isinstance(value, Vote):
            return value
        v = str(value).strip().upper()
        if v in ("Y", "YES", "1"):
            return Vote.YES
        if v in ("N", "NO", "0"):
            return Vote.NO
        raise ConfigurationError(f"cannot parse vote {value!r}")

# Two-voter travelling-ballot outcome map: the tally is the number of
# yes votes, and only this assignment is order-consistent.
TWO_VOTER_TB_LABELS = {0: "refusal", 1: "undecided", 2: "acceptance"}


class SecureSecrets(NamedTuple):
    l_y: int
    l_n: int
    delta: float


@dataclass(frozen=True)
class BallotConfig:
    """Scheme parameters plus, for SECURE, the authority's secret angles."""

    d: int
    N: int
    scheme: Scheme
    secrets: SecureSecrets | None = None
    max_total: int | None = None  # SURVEY only: declared cap on the total

    def __post_init__(self):
        d, N = self.d, self.N
        if d < 2:
            raise ConfigurationError(f"d must be >= 2, got {d}")
        if N < 0:
            raise ConfigurationError(f"N must be >= 0, got {N}")
        scheme = Scheme(self.scheme)
        object.__setattr__(self, "scheme", scheme)
        if scheme in (Scheme.DB, Scheme.SURVEY, Scheme.SECURE):
            if N < 1:
                raise ConfigurationError(f"{scheme.value} needs at least one voter")
            if d <= N:
                raise ConfigurationError(f"{scheme.value} requires d > N, got d={d}, N={N}")
        if scheme is Scheme.TB and d < N + 1:
            raise ConfigurationError(f"TB requires d >= N + 1, got d={d}, N={N}")
        if scheme is Scheme.SURVEY:
            if self.max_total is None or not 0 <= self.max_total < d:
                raise ConfigurationError(
                    f"SURVEY requires a declared max total below d, got {self.max_total}")
        elif self.max_total is not None:
            raise ConfigurationError(f"max_total is only meaningful for SURVEY, not {scheme}")
        if scheme is Scheme.SECURE:
            if self.secrets is None:
                raise ConfigurationError("SECURE requires secrets (l_y, l_n, delta)")
            s = SecureSecrets(int(self.secrets[0]), int(self.secrets[1]),
                              float(self.secrets[2]))
            object.__setattr__(self, "secrets", s)
            if not (0 <= s.l_y < d and 0 <= s.l_n < d):
                raise ConfigurationError(f"l_y, l_n must lie in [0, d), got {s.l_y}, {s.l_n}")
            if s.l_y == s.l_n:
                raise ConfigurationError("l_y and l_n must differ")
            if abs(s.l_y - s.l_n) * N >= d:
                raise ConfigurationError(
                    f"|l_y - l_n| * N must stay below d, got {abs(s.l_y - s.l_n) * N} >= {d}")
            if not 0 <= s.delta < 2 * np.pi / d:
                raise ConfigurationError(f"delta must lie in [0, 2pi/d), got {s.delta}")
        elif self.secrets is not None:
            raise ConfigurationError(f"secrets are only meaningful for SECURE, not {scheme}")

    @property
    def theta_yes(self) -> float:
        s = self.secrets
        return 2 * np.pi * s.l_y / self.d + s.delta

    @property
    def theta_no(self) -> float:
        s = self.secrets
        return 2 * np.pi * s.l_n / self.d + s.delta


def draw_secrets(d: int, N: int, rng: np.random.Generator) -> SecureSecrets:
    """Draw valid SECURE secrets from the authority's stream."""
    while True:
        l_y = int(rng.integers(0, d))
        l_n = int(rng.integers(0, d))
        if l_y != l_n and abs(l_y - l_n) * N < d:
            break
    delta = float(rng.uniform(0, 2 * np.pi / d))
    return SecureSecrets(l_y, l_n, delta)


def prepare_db_ballot(d: int, N: int) -> PureState:
    """(1/sqrt d) sum_j |j>^N over N sites of dimension d."""
    if d <= N or N < 1:
        raise ConfigurationError(f"DB ballot needs d > N >= 1, got d={d}, N={N}")
    return CorrelatedState.uniform(d, N).to_pure()


def prepare_tb_ballot(d: int) -> PureState:
    """Two-qudit pair (1/sqrt d) sum_k |k>|k>; site 1 travels."""
    if d < 2:
        raise ConfigurationError(f"TB ballot needs d >= 2, got {d}")
    return CorrelatedState.uniform(d, 2).to_pure()


def phase_vote_unitary(d: int) -> LocalUnitary:
    """Yes-vote operator diag(e^{i 2 pi k / d})."""
    return LocalUnitary(d, np.diag(np.exp(2j * np.pi * np.arange(d) / d)))


def shift_unitary(d: int) -> LocalUnitary:
    """Cyclic shift |k> -> |k+1 mod d>."""
    mat = np.zeros((d, d), dtype=complex)
    mat[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return LocalUnitary(d, mat)


def voting_qudit_state(d: int, theta: float) -> PureState:
    """Single-use vote token (1/sqrt d) sum_k e^{ik theta} |k>."""
    amps = np.exp(1j * np.arange(d) * theta) / math.sqrt(d)
    return PureState((d,), amps)


def cast_vote_db(state: PureState, voter_site: int, choice) -> PureState:
    """Apply the voter's phase vote at ``voter_site`` of a dense state.

    YES applies the yes operator diag(e^{i 2 pi k / d}) once, NO leaves the
    state alone, and an integer survey multiplicity e applies it e times:
    the amplitudes with digit k at that site gain e^{i 2 pi e k / d}.
    """
    if not 0 <= voter_site < state.num_sites:
        raise ConfigurationError(f"voter_site {voter_site} out of range")
    if isinstance(choice, (int, np.integer)) and not isinstance(choice, bool):
        if choice < 0:
            raise ConfigurationError(f"survey multiplicity must be >= 0, got {choice}")
        exponent = int(choice)
    else:
        exponent = int(Vote.parse(choice) is Vote.YES)
    d = state.dims[voter_site]
    if exponent % d == 0:
        return state
    axis = [1] * state.num_sites
    axis[voter_site] = d
    phase = np.exp(2j * np.pi * (exponent * np.arange(d) % d) / d).reshape(axis)
    return PureState(state.dims, (state.shaped() * phase).reshape(-1))


def _fit_phase_ladder(voting_state: PureState):
    """Return (g, theta) if amplitudes are g * e^{ij theta} / sqrt(d)."""
    psi = voting_state.amps
    d = voting_state.dims[0]
    if np.max(np.abs(np.abs(psi) - 1 / math.sqrt(d))) > 1e-9:
        return None
    theta = float(np.angle(psi[1] / psi[0])) if d > 1 else 0.0
    g = psi[0] * math.sqrt(d)
    ladder = g * np.exp(1j * np.arange(d) * theta) / math.sqrt(d)
    if np.max(np.abs(psi - ladder)) > 1e-9:
        return None
    return g, theta


def cast_vote_secure(state: PureState, ballot_site: int, voting_state: PureState,
                     rng: np.random.Generator):
    """Entangle a voting qudit with the ballot; returns (new_state, r).

    The voting qudit is appended as the last site. The voter measures
    the pairing projectors P_r (ballot digit = voting digit + r mod d),
    then shifts the voting digit up by r so it matches the ballot. For
    a phase-ladder token e^{ij theta} the surviving k-component picks up
    e^{i(k - r) theta} exactly, as the protocol requires.
    """
    if voting_state.num_sites != 1:
        raise ConfigurationError("voting_state must be a single qudit")
    d = voting_state.dims[0]
    if not 0 <= ballot_site < state.num_sites:
        raise ConfigurationError(f"ballot_site {ballot_site} out of range")
    if state.dims[ballot_site] != d:
        raise ConfigurationError(
            f"voting qudit dimension {d} != ballot site dimension {state.dims[ballot_site]}")

    shaped = state.shaped()
    ballot_digits = np.moveaxis(shaped, ballot_site, -1)  # (..., k)
    weights = np.sum(np.abs(ballot_digits) ** 2, axis=tuple(range(ballot_digits.ndim - 1)))
    psi = voting_state.amps
    # P_r keeps pairs (ballot k, voting (k - r) mod d).
    probs = np.array([float(np.sum(weights * np.abs(psi[(np.arange(d) - r) % d]) ** 2))
                      for r in range(d)])
    r = _sample(probs / probs.sum(), rng)

    fit = _fit_phase_ladder(voting_state)
    if fit is not None:
        g, theta = fit
        token = g * np.exp(1j * (np.arange(d) - r) * theta) / math.sqrt(d)
    else:
        # Forged token: plain collapse and shift keep the measured phases.
        token = psi[(np.arange(d) - r) % d]
    # Post-measurement the voting digit equals the ballot digit k and
    # carries token[k]; axes become (..., ballot digit, voting digit).
    new_shaped = ballot_digits[..., :, None] * np.diag(token)
    new_shaped = np.moveaxis(new_shaped, -2, ballot_site)
    new_state = PureState.from_amplitudes(state.dims + (d,), new_shaped.reshape(-1))
    return new_state, int(r)


def _correlated_overlaps(state: PureState) -> np.ndarray:
    """Amplitudes <k..k|psi> along the correlated diagonal."""
    d = state.dims[0]
    if any(dd != d for dd in state.dims):
        raise ConfigurationError("decoder requires equal site dimensions")
    step = (state.dim - 1) // (d - 1)
    return state.amps[np.arange(d) * step]


def _phase_basis_probs(corr: np.ndarray) -> np.ndarray:
    """|<omega_p|psi>|^2 for omega_p = (1/sqrt d) sum_k e^{i 2 pi p k/d}|k..k>, by FFT.

    A 2-D ``corr`` holds one state per row.
    """
    return np.abs(np.fft.fft(corr) / math.sqrt(corr.shape[-1])) ** 2


def phase_readings(corr_rows: np.ndarray, u) -> list:
    """Read each row of correlated amplitudes in the omega_p basis; INVALID is the complement.

    ``corr_rows`` holds one state per row, shape (rows, d), and ``u`` one
    uniform double per row. Row t reads the p whose CDF step ``u[t]`` falls
    in, the index ``_pick`` returns, or INVALID for the last entry.
    """
    cdf = _cdf(_with_invalid(_phase_basis_probs(corr_rows)))
    picks = (cdf[:, :-1] <= np.asarray(u)[:, None]).sum(axis=1)
    d = corr_rows.shape[-1]
    return [INVALID if p == d else p for p in picks.tolist()]


def decode_db(state: PureState, d: int, N: int, rng: np.random.Generator):
    """Project onto the tally states; INVALID covers the complement."""
    if state.dims != (d,) * N:
        raise ConfigurationError(f"expected {N} sites of dimension {d}, got {state.dims}")
    return phase_readings(_correlated_overlaps(state)[None], [rng.random()])[0]


def decode_tb(state: PureState, d: int, rng: np.random.Generator) -> int:
    """Measure the cyclic difference (site1 - site0) mod d."""
    if state.dims != (d, d):
        raise ConfigurationError(f"expected two sites of dimension {d}, got {state.dims}")
    shaped = state.shaped()
    k = np.arange(d)
    probs = np.array([float(np.sum(np.abs(shaped[k, (k + r) % d]) ** 2)) for r in range(d)])
    return int(_sample(probs / probs.sum(), rng))


def solve_tally(p: int, config: BallotConfig):
    """Invert p = m (l_y - l_n) mod d; non-multiples signal cheating."""
    d = config.d
    dl = (config.secrets.l_y - config.secrets.l_n) % d
    g = math.gcd(dl, d)
    if p % g != 0:
        return CHEAT_DETECTED
    return (p // g) * pow(dl // g, -1, d // g) % (d // g)


def secure_tally(corr_rows: np.ndarray, config: BallotConfig, u) -> list[tuple]:
    """Compensate the known no-phase, read p, and map it to a tally; one (m, p) per row.

    m is the tally or CHEAT_DETECTED and p is the raw phase index or
    INVALID. The authority knows N, l_n and delta, so it removes
    e^{i k N theta_n} before projecting row t onto the p-states with ``u[t]``.
    """
    compensation = np.exp(-1j * np.arange(config.d) * config.N * config.theta_no)
    return [(CHEAT_DETECTED, p) if p == INVALID else (solve_tally(p, config), p)
            for p in phase_readings(corr_rows * compensation, u)]


def decode_secure(state: PureState, config: BallotConfig, rng: np.random.Generator):
    """Decode the returned 2N-qudit state; see ``secure_tally``."""
    if config.scheme is not Scheme.SECURE:
        raise ConfigurationError(f"decode_secure needs a SECURE config, got {config.scheme}")
    if state.dims != (config.d,) * (2 * config.N):
        raise ConfigurationError(
            f"expected {2 * config.N} sites of dimension {config.d}, got {state.dims}")
    return secure_tally(_correlated_overlaps(state)[None], config, [rng.random()])[0]
