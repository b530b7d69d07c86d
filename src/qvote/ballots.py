"""Ballot preparation, voting operations, and authority-side decoders.

Three quantum schemes share these primitives:

* DB (distributed ballot): every voter holds one qudit of
  (1/sqrt d) sum_j |j>^N and votes with the diagonal phase operator.
* TB (travelling ballot): a two-qudit entangled pair; one qudit visits
  the voters in turn and yes-votes cyclically shift it.
* SECURE: DB plus single-use "voting qudits" in secret-angle states,
  which stop anyone from voting twice undetected.

Every correlated row a vote pattern, a forgery or a mismatched authority
leaves is one grid row, ``_grid_rows``: the d-th roots of unity ``_roots``
indexed at (k index) mod d, times e^{ik offset}, over sqrt(d). The index
counts the votes' steps of 2 pi / d and the offset is the float remainder,
0 on every honest row, both taken relative to the known no-phase. Rows are
read through ``phase_readings`` over the d outcomes omega_p, which span
every correlated row; honest runs, closed form, build none. INVALID, the
complement, arises only in the dense ``decode_db`` and
``qstate.measure_projective``. The dense ``cast_vote_db`` (no run or
attack calls it) takes its phases from the same ``_roots`` table;
``tests/reference.py`` keeps the dense anti-reuse cast and the dense yes
and shift operators. ``BallotConfig.theta`` is the one secret-angle
formula, and ``_secrets_problem`` the one check.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, _at_least
from .qstate import (
    INVALID,
    RESIDUE_FLOOR,
    CorrelatedState,
    PureState,
    _cdf,
    _pick,
    _read,
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
        _at_least("d", d, 2)
        _at_least("N", N, 0)
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
            if problem := _secrets_problem(d, N, s.l_y, s.l_n):
                raise ConfigurationError(problem)
            if not 0 <= s.delta < 2 * np.pi / d:
                raise ConfigurationError(f"delta must lie in [0, 2pi/d), got {s.delta}")
        elif self.secrets is not None:
            raise ConfigurationError(f"secrets are only meaningful for SECURE, not {scheme}")

    def theta(self, l) -> float:
        """The secret angle 2 pi l / d + delta of index ``l``."""
        return 2 * np.pi * l / self.d + self.secrets.delta

    @property
    def theta_yes(self) -> float:
        return self.theta(self.secrets.l_y)

    @property
    def theta_no(self) -> float:
        return self.theta(self.secrets.l_n)


def _secrets_problem(d: int, N: int, l_y: int, l_n: int) -> str | None:
    """The first rule that indices (l_y, l_n) break at (d, N), or None; the last stops aliasing."""
    if not (0 <= l_y < d and 0 <= l_n < d):
        return f"l_y, l_n must lie in [0, d), got {l_y}, {l_n}"
    if l_y == l_n:
        return "l_y and l_n must differ"
    if abs(l_y - l_n) * N >= d:
        return f"|l_y - l_n| * N must stay below d, got {abs(l_y - l_n) * N} >= {d}"
    return None


def draw_secrets(d: int, N: int, rng: np.random.Generator) -> SecureSecrets:
    """Draw valid SECURE secrets from the authority's stream."""
    if problem := _secrets_problem(d, N, 1, 0):  # the smallest gap: if it fails, all do
        raise ConfigurationError(problem)
    while True:
        l_y = int(rng.integers(0, d))
        l_n = int(rng.integers(0, d))
        if _secrets_problem(d, N, l_y, l_n) is None:
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
        exponent = _at_least("survey multiplicity", choice, 0)
    else:
        exponent = int(Vote.parse(choice) is Vote.YES)
    d = state.dims[voter_site]
    if exponent % d == 0:
        return state
    axis = [1] * state.num_sites
    axis[voter_site] = d
    phase = _roots(d)[exponent * np.arange(d) % d].reshape(axis)
    return PureState(state.dims, (state.shaped() * phase).reshape(-1))


@lru_cache(maxsize=64)
def _roots(d: int) -> np.ndarray:
    """The d-th roots of unity e^{i 2 pi j / d}, j < d; cached and read-only."""
    table = np.exp(2j * np.pi * np.arange(d) / d)
    table.flags.writeable = False
    return table


def _grid_rows(d: int, index, offset) -> np.ndarray:
    """Correlated rows e^{ik (2 pi index / d + offset)} / sqrt(d), k < d, one per (index, offset).

    ``index`` (integers) and ``offset`` (floats) broadcast against each
    other, and the rows take their shape plus a last axis of d. The grid
    part is exact table entries, so a row with offset 0 leaves only the
    FFT's ~1e-32 residue on the outcomes it rules out. The product is
    always ``np.multiply(grid, phase)``, which runs element by element,
    so a row's bits do not depend on its batch.
    """
    k = np.arange(d)
    grid = _roots(d)[np.multiply.outer(np.asarray(index, dtype=int) % d, k) % d]
    phase = np.exp(1j * k * np.asarray(offset, dtype=float)[..., None])
    return np.multiply(grid, phase) / math.sqrt(d)


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


def phase_readings(corr_rows: np.ndarray, u) -> np.ndarray:
    """Read correlated amplitudes in the omega_p basis: each double's ``_pick`` index p < d.

    ``corr_rows`` holds one state per row, shape (rows, d), and ``u`` one
    uniform double per row; or (rows, 1, d) states, each read once for its
    row of (rows, R) doubles; p is shaped as ``u``. It keeps ``qstate``'s
    reading rule, never reads a zero-weight outcome, in batch: weights
    below ``RESIDUE_FLOOR`` (rounding leaves ~1e-32 on the p a row rules
    out) are zeroed before the CDF.
    """
    probs = _phase_basis_probs(corr_rows)
    return _pick(_cdf(np.where(probs < RESIDUE_FLOOR, 0.0, probs)), u)


@lru_cache(maxsize=64)
def _labels(d: int) -> np.ndarray:
    """0, ..., d - 1, then CHEAT_DETECTED; indexed by tallies, ``tolist()`` gives the report's."""
    table = np.array([*range(d), CHEAT_DETECTED], dtype=object)
    table.flags.writeable = False
    return table


def decode_db(state: PureState, d: int, N: int, rng: np.random.Generator):
    """Project onto the tally states; INVALID covers the complement a dense state may hold."""
    if state.dims != (d,) * N:
        raise ConfigurationError(f"expected {N} sites of dimension {d}, got {state.dims}")
    p = _read(_with_invalid(_phase_basis_probs(_correlated_overlaps(state))), rng.random())
    return INVALID if p == d else p


def decode_tb(state: PureState, d: int, rng: np.random.Generator) -> int:
    """Measure the cyclic difference (site1 - site0) mod d."""
    if state.dims != (d, d):
        raise ConfigurationError(f"expected two sites of dimension {d}, got {state.dims}")
    k = np.arange(d)
    weights = np.bincount(((k - k[:, None]) % d).ravel(), np.abs(state.amps) ** 2, d)
    return _read(weights, rng.random())


@lru_cache(maxsize=64)
def _tally_table(d: int, dl: int) -> np.ndarray:
    """The tally m of each p = m dl mod d, by a gcd and inverse; d (cheating) off the multiples."""
    g = math.gcd(dl, d)
    p = np.arange(d)
    table = np.where(p % g == 0, p // g * pow(dl // g, -1, d // g) % (d // g), d)
    table.flags.writeable = False
    return table
