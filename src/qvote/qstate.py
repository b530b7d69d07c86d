"""Dense linear algebra for multi-qudit pure states.

States are flat complex vectors indexed big-endian over the subsystem
list: site 0 is the most significant digit, so ``amps.reshape(dims)``
exposes one axis per site in order. All operations return new objects,
and the amplitude buffers are frozen after construction.

The reading rule: a measurement never reads a zero-weight outcome.
``_read``, the scalar reader of every dense measurement here and in
``ballots``, drops weights below ``RESIDUE_FLOOR``, the rounding residue
an outcome the state rules out keeps (about 1e-32 after an FFT, far below
any real weight), and picks among the outcomes that remain. So 0.0 reads
the first outcome the state allows and 1 - 2**-53 the last.
``ballots.phase_readings``, the engine's batched reader, drops the same residues.

A ``PureState`` compares and hashes by identity: it equals only itself,
whatever amplitudes another state holds. ``adversary``'s swap-test
threshold cache keys on its states by that identity, which is sound only
because the amplitude buffer a state holds is frozen and cannot change
under its key.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# Tolerance for exact algebraic identities (norms, unitarity).
ATOL = 1e-12
# Tolerance for composed pipelines (projector algebra, measurement sums).
PIPELINE_ATOL = 1e-10

# Measurement outcome for the complement of an incomplete projector set.
INVALID = "INVALID"
# Weights below this are rounding residues, not outcomes the state allows.
RESIDUE_FLOOR = 1e-24


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only complex copy of ``arr``; the caller's array stays theirs.

    The copy lies on an immutable bytes object, so ``setflags(write=True)``
    raises and no one can write to it after construction.
    """
    arr = np.asarray(arr, dtype=complex)
    return np.frombuffer(arr.tobytes(), dtype=complex).reshape(arr.shape)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state over an ordered list of qudit subsystems."""

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if any(d < 2 for d in self.dims):
            raise ConfigurationError(f"subsystem dimensions must be >= 2, got {self.dims}")
        object.__setattr__(self, "amps", _frozen(self.amps))
        if self.amps.shape != (self.dim,):
            raise ConfigurationError(
                f"amplitude vector has length {self.amps.shape}, expected {self.dim}")
        norm = np.linalg.norm(self.amps)
        if not abs(norm - 1.0) <= ATOL:
            raise ConfigurationError(f"state norm {norm} deviates from 1 beyond {ATOL}")

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def num_sites(self) -> int:
        return len(self.dims)

    def shaped(self) -> np.ndarray:
        return self.amps.reshape(self.dims)

    @staticmethod
    def basis(dims, digits) -> "PureState":
        """Computational basis state |digits> over ``dims``."""
        dims = tuple(int(d) for d in dims)
        amps = np.zeros(math.prod(dims), dtype=complex)
        amps[int(np.ravel_multi_index(tuple(digits), dims))] = 1.0
        return PureState(dims, amps)

    @staticmethod
    def from_amplitudes(dims, amps) -> "PureState":
        """Normalize ``amps`` and wrap; rejects the zero vector."""
        amps = np.asarray(amps, dtype=complex)
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise ConfigurationError("cannot normalize the zero vector")
        return PureState(tuple(dims), amps / norm)


@dataclass(frozen=True)
class LocalUnitary:
    """Single-site unitary of a given qudit dimension."""

    dim: int
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _frozen(self.mat))
        if self.mat.shape != (self.dim, self.dim):
            raise ConfigurationError(f"matrix shape {self.mat.shape} != ({self.dim}, {self.dim})")
        dev = np.max(np.abs(self.mat.conj().T @ self.mat - np.eye(self.dim)))
        if not dev <= ATOL:
            raise ConfigurationError(f"matrix is not unitary (deviation {dev})")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    dim: int
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _frozen(self.mat))
        if self.mat.shape != (self.dim, self.dim):
            raise ConfigurationError(f"matrix shape {self.mat.shape} != ({self.dim}, {self.dim})")
        if not np.max(np.abs(self.mat - self.mat.conj().T)) <= ATOL:
            raise ConfigurationError("density matrix is not Hermitian")
        if not abs(np.trace(self.mat).real - 1.0) <= ATOL:
            raise ConfigurationError("density matrix trace deviates from 1")
        if not np.min(np.linalg.eigvalsh(self.mat)) >= -ATOL:
            raise ConfigurationError("density matrix has a negative eigenvalue")


@dataclass(frozen=True)
class ProjectorSet:
    """Mutually orthogonal Hermitian idempotents over one total dimension.

    Completeness is not required: the residual I - sum(P) is reported by
    measurements as the INVALID outcome.
    """

    dim: int
    projectors: tuple[np.ndarray, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "projectors", tuple(_frozen(p) for p in self.projectors))
        for i, p in enumerate(self.projectors):
            if p.shape != (self.dim, self.dim):
                raise ConfigurationError(f"projector {i} has shape {p.shape}")
            if not np.max(np.abs(p - p.conj().T)) <= PIPELINE_ATOL:
                raise ConfigurationError(f"projector {i} is not Hermitian")
            if not np.max(np.abs(p @ p - p)) <= PIPELINE_ATOL:
                raise ConfigurationError(f"projector {i} is not idempotent")
        for i, p in enumerate(self.projectors):
            for j in range(i + 1, len(self.projectors)):
                if not np.max(np.abs(p @ self.projectors[j])) <= PIPELINE_ATOL:
                    raise ConfigurationError(f"projectors {i} and {j} are not orthogonal")

    @staticmethod
    def from_states(states) -> "ProjectorSet":
        """Rank-1 projectors |s><s| for each state in ``states``."""
        vecs = [np.asarray(s.amps if isinstance(s, PureState) else s, dtype=complex)
                for s in states]
        dim = len(vecs[0])
        return ProjectorSet(dim, tuple(np.outer(v, v.conj()) for v in vecs))


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; dims concatenate, big-endian order preserved."""
    return PureState(a.dims + b.dims, np.kron(a.amps, b.amps))


def apply_local(state: PureState, site: int, u: LocalUnitary) -> PureState:
    """Apply ``u`` to one site: (I x .. x u x .. x I)|state>."""
    if not 0 <= site < state.num_sites:
        raise ConfigurationError(f"site {site} out of range for {state.num_sites} sites")
    if u.dim != state.dims[site]:
        raise ConfigurationError(
            f"unitary dimension {u.dim} != site dimension {state.dims[site]}")
    shaped = np.tensordot(u.mat, state.shaped(), axes=([1], [site]))
    # tensordot puts the contracted axis first; move it back.
    shaped = np.moveaxis(shaped, 0, site)
    return PureState(state.dims, shaped.reshape(-1))


def reduced_density(state: PureState, keep_sites) -> DensityMatrix:
    """Partial trace onto ``keep_sites`` (order preserved)."""
    keep = [int(s) for s in keep_sites]
    if len(set(keep)) != len(keep):
        raise ConfigurationError(f"keep_sites contains duplicates: {keep}")
    if any(not 0 <= s < state.num_sites for s in keep):
        raise ConfigurationError(f"keep_sites out of range: {keep}")
    rest = [s for s in range(state.num_sites) if s not in keep]
    d_keep = math.prod(state.dims[s] for s in keep) if keep else 1
    psi = np.transpose(state.shaped(), keep + rest).reshape(d_keep, -1)
    rho = psi @ psi.conj().T
    # Clean the tiny Hermiticity drift from the matmul.
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(d_keep, rho)


def _pick(cdf: np.ndarray, u):
    """Inverse-CDF lookup, the one place a uniform double becomes an outcome index.

    A 1-D ``cdf`` serves every double in ``u``. Otherwise the CDFs run along
    the last axis and broadcast against ``u``: (rows, d) CDFs take one double
    per row, and a (rows, 1, d) stack serves each row's (rows, R) doubles.
    The outcome counts the steps before the last that are <= u, so a ``u``
    at or past the last step picks the last index. The callers that must
    never read a zero-weight outcome drop residues first, ``_read`` and
    ``ballots.phase_readings`` by ``RESIDUE_FLOOR``.
    """
    if cdf.ndim == 1:
        return cdf[:-1].searchsorted(u, side="right")
    return (cdf[..., :-1] <= np.asarray(u)[..., None]).sum(axis=-1)


def _cdf(weights: np.ndarray) -> np.ndarray:
    """The CDF of ``weights`` normalized by their sum, along the last axis."""
    return (weights / weights.sum(axis=-1, keepdims=True)).cumsum(axis=-1)


def _read(weights: np.ndarray, u: float) -> int:
    """The index double ``u`` reads from 1-D ``weights``; never a zero-weight outcome.

    Weights below ``RESIDUE_FLOOR`` (negative rounding included) drop out,
    and ``u`` picks among the rest, so past the last step it reads the last
    outcome that remains.
    """
    live = np.flatnonzero(weights >= RESIDUE_FLOOR)
    return int(live[_pick(_cdf(weights[live]), u)])


def _with_invalid(probs: np.ndarray) -> np.ndarray:
    """``probs`` plus the complement 1 - sum(probs) as last entry, along the last axis.

    This is the one place INVALID gets its weight; only the dense readers,
    ``ballots.decode_db`` and ``measure_projective``, call it, through
    ``_read``. The complement weighs 0 unless it exceeds n 2**-52, the
    rounding of the n-term sum, so a state inside the projectors' span
    never reads INVALID, while a real complement keeps its weight.
    """
    rest = 1.0 - probs.sum(axis=-1, keepdims=True)
    return np.concatenate((probs, np.where(rest > probs.shape[-1] * 2.0 ** -52, rest, 0.0)),
                          axis=-1)


def measure_projective(state: PureState, proj: ProjectorSet,
                       rng: np.random.Generator):
    """Measure ``proj``; returns (outcome, post_state, probability).

    Outcome k fires with ||P_k psi||^2 / ||psi||^2, and the complement
    I - sum(P) as INVALID; the post state is the renormalized projection.
    A projector that rules the state out leaves ~1e-17 on ``p @ amps``,
    whose square falls below ``RESIDUE_FLOOR``; <psi|P_k psi> kept 1e-17.
    """
    if proj.dim != state.dim:
        raise ConfigurationError(f"projector dim {proj.dim} != state dim {state.dim}")
    projected = [p @ state.amps for p in proj.projectors]
    weights = np.array([np.vdot(v, v).real for v in projected])
    full = _with_invalid(weights / np.vdot(state.amps, state.amps).real)
    k = _read(full, rng.random())
    invalid = k == len(projected)
    post = state.amps - sum(projected) if invalid else projected[k]
    return INVALID if invalid else k, PureState.from_amplitudes(state.dims, post), float(full[k])


def measure_computational(state: PureState, site: int, rng: np.random.Generator):
    """Computational-basis measurement of one site; returns (digit, post)."""
    if not 0 <= site < state.num_sites:
        raise ConfigurationError(f"site {site} out of range for {state.num_sites} sites")
    shaped = state.shaped()
    axes = tuple(a for a in range(state.num_sites) if a != site)
    k = _read(np.sum(np.abs(shaped) ** 2, axis=axes), rng.random())
    idx = [slice(None)] * state.num_sites
    idx[site] = slice(k, k + 1)
    collapsed = np.zeros_like(shaped)
    collapsed[tuple(idx)] = shaped[tuple(idx)]
    return k, PureState.from_amplitudes(state.dims, collapsed.reshape(-1))


@dataclass(frozen=True)
class CorrelatedState:
    """Compact form of sum_k c_k |k>^(x sites): only d amplitudes stored.

    Honest ballots, phase votes, the anti-reuse cast and the tally
    measurement all preserve this family, so protocol runs scale as O(d)
    regardless of how many qudits travel. Converting to a dense
    PureState is only possible while d**sites stays small.
    """

    d: int
    sites: int
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", _frozen(self.c))
        if self.c.shape != (self.d,):
            raise ConfigurationError(f"need {self.d} amplitudes, got {self.c.shape}")
        if not abs(np.linalg.norm(self.c) - 1.0) <= ATOL:
            raise ConfigurationError("correlated amplitudes are not normalized")

    def to_pure(self) -> PureState:
        total = self.d ** self.sites
        if total > 2_000_000:
            raise ConfigurationError(f"dense form of size {total} exceeds the dense budget")
        amps = np.zeros(total, dtype=complex)
        step = (total - 1) // (self.d - 1) if self.sites > 0 else 0
        amps[np.arange(self.d) * step] = self.c
        return PureState((self.d,) * self.sites, amps)

    @staticmethod
    def uniform(d: int, sites: int) -> "CorrelatedState":
        return CorrelatedState(d, sites, np.full(d, 1 / math.sqrt(d), dtype=complex))
