"""Per-trial state simulations that the closed-form kernels and runs replace.

These are the loops the attacks ran before their kernels: the child
streams built one Generator at a time, the dense collusion and
product-ballot attacks, the dense TB round, the scalar SECURE round, the
forgery and mismatched-state attacks run one trial of scalar SECURE
rounds at a time, and the swap test that drew from a three-entry CDF per
pair. They make the same draws in the same order as the kernels, so
tests require equal reports, draw for draw. The dense collusion and
product-ballot loops and the scalar SECURE round measure through
``reading``, which zeroes the rounding tails of dense sums and FFTs, so
they read what the state allows at the extreme doubles 0.0 and 1 - 2**-53
too; the SECURE round does not call ``protocols._secure_trials``, which
it checks.

``inner``, ``phase_vote_unitary`` and ``shift_unitary`` are the dense
overlap and the dense yes and shift operators. No run or check in the
package needs them; the dense references and the tests do.

The dense anti-reuse cast and its decoder live here too. The cast
follows the protocol's stated output state: after the voter's pairing
measurement returns r and the shift correction is applied, the voting
qudit contributes e^{i(k-r) theta} to the k-th correlated component (the
integer k - r, not its mod-d residue, which is what keeps the secret
offset delta from leaking into the tally). ``cast`` is the phase each
voter's angle leaves on the correlated amplitudes, one exp per voter, at
the angles ``honest_thetas`` or an attack gives; times the compensation
e^{-ik N theta_n}, it is the grid row ``ballots._grid_rows`` builds from
one index and offset. ``solve_tally`` is the per-reading tally map that
``protocols._secure_trials`` must reproduce, and ``agreed_tally`` the
agreement rule it must apply to each trial's readings. ``tb_privacy`` is
the TB privacy check on the dense pairs, which ``check_privacy`` replaces
with unit rows. The references count their histograms with their own
``_bump`` loop.

``CONFIG_SCHEMA`` is the scenario config as a JSON Schema, and
``CONFIG_VALIDATOR`` checks it with an int-only "integer" type: the
reference that ``cli.check_config`` must agree with, accept for accept, and
message for message where a config has exactly one error.

``residual_and_grad`` is the no-go objective as it was written with one
BLAS matmul per call over the 16 Pauli-pair forms ``PAULI_PAIRS_REAL``;
``verify._residual_and_grad`` computes the same value and gradient in
Python floats, so tests compare the two within a tolerance.
"""

import math

import jsonschema
import numpy as np

from qvote.adversary import CHEATING, CLEAN, AttackReport
from qvote.ballots import (
    CHEAT_DETECTED,
    BallotConfig,
    Scheme,
    Vote,
    _correlated_overlaps,
    _phase_basis_probs,
    cast_vote_db,
    decode_tb,
    prepare_db_ballot,
    prepare_tb_ballot,
    voting_qudit_state,
)
from qvote.errors import ConfigurationError
from qvote.protocols import _parse_votes, _yes_count
from qvote.qstate import (
    ATOL,
    INVALID,
    CorrelatedState,
    LocalUnitary,
    PureState,
    _cdf,
    _pick,
    _with_invalid,
    apply_local,
    tensor,
)
from qvote.verify import I2, SIGMA

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["scheme", "d", "n", "seed"],
    "properties": {
        "scheme": {"enum": ["DB", "TB", "SECURE", "SURVEY"]},
        "d": {"type": "integer", "minimum": 2},
        "n": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "votes": {"type": "array", "items": {"type": ["string", "integer"]}},
        "vote_distribution": {
            "type": "object", "additionalProperties": False,
            "properties": {"p_yes": {"type": "number", "minimum": 0, "maximum": 1}},
            "required": ["p_yes"],
        },
        "secrets": {
            "type": "object", "additionalProperties": False,
            "properties": {"l_y": {"type": "integer"}, "l_n": {"type": "integer"},
                           "delta": {"type": "number"}},
            "required": ["l_y", "l_n", "delta"],
        },
        "repetitions": {"type": "integer", "minimum": 1},
        "max_total": {"type": "integer", "minimum": 0},
        "trials": {"type": "integer", "minimum": 1},
        "attack": {
            "type": "object", "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"enum": ["collusion", "multi_vote", "phase_estimate",
                                  "product_ballot", "mismatched_thetas"]},
                "colluders": {"type": "array", "items": {"type": "integer"},
                              "minItems": 2, "maxItems": 2},
                "cheater": {"type": "integer", "minimum": 0},
                "extra": {"type": "integer", "minimum": 0},
                "scale": {"type": "number", "minimum": 0},
                "honest_ballot": {"type": "boolean"},
                "yes_l_shifts": {"type": "array", "items": {"type": "integer"}},
            },
        },
    },
}
# JSON Schema's "integer" admits 7.0; a dimension, count or seed must be an int.
_BASE = jsonschema.validators.validator_for(CONFIG_SCHEMA)
_INTEGER = _BASE.TYPE_CHECKER.redefine("integer", lambda _, v: type(v) is int)
CONFIG_VALIDATOR = jsonschema.validators.extend(_BASE, type_checker=_INTEGER)(CONFIG_SCHEMA)


def inner(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugate-linear in ``a``."""
    if a.dims != b.dims:
        raise ConfigurationError(f"dims mismatch: {a.dims} vs {b.dims}")
    return complex(np.vdot(a.amps, b.amps))


def phase_vote_unitary(d: int) -> LocalUnitary:
    """Yes-vote operator diag(e^{i 2 pi k / d})."""
    return LocalUnitary(d, np.diag(np.exp(2j * np.pi * np.arange(d) / d)))


def shift_unitary(d: int) -> LocalUnitary:
    """Cyclic shift |k> -> |k+1 mod d>."""
    mat = np.zeros((d, d), dtype=complex)
    mat[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return LocalUnitary(d, mat)


def _bump(hist: dict, key):
    hist[key] = hist.get(key, 0) + 1


def child_doubles(rng: np.random.Generator, trials: int, k: int, reps: int = 0,
                  rep_k: int = 0):
    """``rng.spawn(trials)``: k doubles per child, then rep_k per child of each ``spawn(reps)``."""
    kids = rng.spawn(int(trials))
    u = np.array([g.random(k) for g in kids]).reshape(len(kids), k)
    rep_u = np.array([rep.random(rep_k) for g in kids for rep in g.spawn(reps)])
    return u, rep_u.reshape(len(kids), reps, rep_k)


def reading(probs: np.ndarray, u: float) -> int:
    """The outcome ``u`` reads from ``probs`` once their rounding tails, below 1e-12, are zeroed.

    Dense sums leave weights near 1e-16 on outcomes the state rules out,
    INVALID included. A zero-weight outcome is never read, so 0.0 reads
    the first outcome the state allows and 1 - 2**-53 the last.
    """
    live = np.flatnonzero(probs >= 1e-12)
    return int(live[_pick(_cdf(probs[live]), u)])


def measure(state: PureState, site: int, rng: np.random.Generator):
    """A computational-basis measurement of one site through ``reading``; returns (digit, post)."""
    shaped = state.shaped()
    marginal = np.sum(np.abs(shaped) ** 2,
                      axis=tuple(a for a in range(state.num_sites) if a != site))
    k = reading(marginal, rng.random())
    at = (slice(None),) * site + (k,)
    collapsed = np.zeros_like(shaped)
    collapsed[at] = shaped[at]
    return k, PureState.from_amplitudes(state.dims, collapsed.reshape(-1))


def phase_basis_measure(state: PureState, site: int, rng: np.random.Generator):
    """Measure one site in the {|psi(2 pi l / d)>} basis; returns (l, post).

    <psi(2 pi l / d)|k> = e^{-i 2 pi k l / d} / sqrt(d), so an orthonormal
    FFT along the site rotates the basis onto the computational one.
    """
    rotated = np.fft.fft(state.shaped(), axis=site, norm="ortho")
    return measure(PureState(state.dims, rotated.reshape(-1)), site, rng)


def phase_decode(state: PureState, d: int, rng: np.random.Generator):
    """``decode_db``'s omega_p reading with INVALID as the complement, through ``reading``."""
    p = reading(_with_invalid(_phase_basis_probs(_correlated_overlaps(state))), rng.random())
    return INVALID if p == d else p


def collusion_attack_tb(config: BallotConfig, votes, colluders, trials: int,
                        rng: np.random.Generator) -> AttackReport:
    """The TB collusion attack on the dense travelling pair, one state per variant."""
    i, j = int(colluders[0]), int(colluders[1])
    choices = _parse_votes(config, votes, config.scheme)
    expected = sum(1 for t in range(i + 1, j) if choices[t] is Vote.YES)
    d = config.d
    inferred, diff_hist, phase_hist = [], {}, {}
    shift_op, phase_op = shift_unitary(d), phase_vote_unitary(d)
    for trial_rng in rng.spawn(int(trials)):
        for op in (shift_op, phase_op):
            state = prepare_tb_ballot(d)
            for t, choice in enumerate(choices):
                if t == j:
                    second, state = measure(state, 1, trial_rng)
                if choice is Vote.YES:
                    state = apply_local(state, 1, op)
                if t == i:
                    first, state = measure(state, 1, trial_rng)
            if op is shift_op:
                inferred.append((second - first) % d)
                _bump(diff_hist, decode_tb(state, d, trial_rng))
            else:
                _bump(phase_hist, phase_decode(state, d, trial_rng))
    return AttackReport(
        attack="collusion_tb",
        trials=int(trials),
        inferred_secrets={"in_between_yes_counts": inferred, "expected": expected,
                          "colluders": [i, j]},
        outcome_histogram=phase_hist,
        extras={"difference_decoder_histogram": {str(k): v for k, v in diff_hist.items()},
                "phase_decoder_histogram": {str(k): v for k, v in phase_hist.items()}},
    )


def authority_product_ballot(config: BallotConfig, votes, rng: np.random.Generator,
                             trials: int = 100, honest_ballot: bool = False) -> AttackReport:
    """The product-ballot attack on the dense N-site state, one site read at a time."""
    choices = _parse_votes(config, votes, config.scheme)
    actual = [1 if c is Vote.YES else 0 for c in choices]
    correct = np.zeros(config.N, dtype=int)
    hist, per_trial_correct = {}, []
    for trial_rng in rng.spawn(int(trials)):
        if honest_ballot:
            state = prepare_db_ballot(config.d, config.N)
        else:
            state = voting_qudit_state(config.d, 0.0)
            for _ in range(config.N - 1):
                state = tensor(state, voting_qudit_state(config.d, 0.0))
        for t, choice in enumerate(choices):
            state = cast_vote_db(state, t, choice)
        guesses = []
        for site in range(config.N):
            l, state = phase_basis_measure(state, site, trial_rng)
            guesses.append(l)
        hits = [g == a for g, a in zip(guesses, actual)]
        correct += np.array(hits, dtype=int)
        per_trial_correct.append(sum(hits))
        _bump(hist, sum(hits))
    accuracy = (correct / int(trials)).tolist()
    return AttackReport(
        attack="authority_product_ballot",
        trials=int(trials),
        inferred_secrets={"per_voter_accuracy": accuracy, "actual_votes": actual},
        outcome_histogram=hist,
        extras={"honest_ballot": honest_ballot,
                "per_trial_correct": per_trial_correct,
                "mean_accuracy": float(np.mean(accuracy))},
    )


def tb_vote(config: BallotConfig, votes, rng: np.random.Generator, stage_hook=None) -> int:
    """The honest TB round on the dense pair: shift per yes vote, then ``decode_tb``."""
    state = prepare_tb_ballot(config.d)
    shift = shift_unitary(config.d)
    if stage_hook:
        stage_hook("prepared", state)
    for i, choice in enumerate(_parse_votes(config, votes, config.scheme)):
        if choice is Vote.YES:
            state = apply_local(state, 1, shift)
        if stage_hook:
            stage_hook(f"after_vote_{i}", state)
    return decode_tb(state, config.d, rng)


def tb_privacy(d: int, N: int) -> tuple[float, float]:
    """``check_privacy("TB", d, N)``'s (worst same-tally, worst cross-tally) values on dense pairs.

    A pattern's pair is the uniform pair rolled on site 1 by its
    ``_yes_count``. Each distinct (tally, shift) class is rolled once and
    compared with its tally's first pattern.
    """
    patterns = (np.arange(2 ** N)[:, None] >> np.arange(N)) & 1
    shifts = _yes_count(d, patterns.T)
    pair = prepare_tb_ballot(d).shaped()
    reps = np.stack([np.roll(pair, s, axis=1).ravel() for s in shifts[2 ** np.arange(N + 1) - 1]])
    classes = np.unique(patterns.sum(axis=1) * d + shifts)
    same = max(abs(1 - abs((reps[t].conj() * np.roll(pair, s, axis=1).ravel()).sum()))
               for t, s in zip(*divmod(classes, d)))
    cross = np.abs(reps.conj() @ reps.T)[np.triu_indices(N + 1, 1)]
    return float(same), float(cross.max())


def honest_thetas(config: BallotConfig, choices) -> list[float]:
    """The angle each SECURE voter casts: theta_yes for a yes vote, else theta_no."""
    return [config.theta_yes if c is Vote.YES else config.theta_no for c in choices]


def cast(d: int, thetas) -> np.ndarray:
    """The correlated amplitudes after each voter's phase, one exp per voter.

    ``thetas`` is (N,) for one row or (rows, N); a row whose norm leaves 1
    by more than ATOL, as a non-finite angle makes it, is refused.
    """
    thetas = np.asarray(thetas, dtype=float)
    c = np.full(thetas.shape[:-1] + (d,), 1 / math.sqrt(d), dtype=complex)
    norms = np.empty(thetas.shape)
    ik = 1j * np.arange(d)
    for i in range(thetas.shape[-1]):
        c = np.multiply(c, np.exp(ik * thetas[..., i, None]))
        norms[..., i] = np.linalg.norm(c, axis=-1)
    if not (np.abs(norms - 1.0) <= ATOL).all():
        raise ConfigurationError("correlated amplitudes are not normalized")
    return c


def secure_round(config: BallotConfig, thetas, rep_rng):
    """One SECURE repetition with scalar draws and a validated state per voter."""
    d = config.d
    state = CorrelatedState.uniform(d, 2 * config.N)
    rs = []
    for theta in thetas:
        rs.append(int(_pick(np.full(d, 1 / d).cumsum(), rep_rng.random())))
        state = CorrelatedState(d, state.sites, state.c * np.exp(1j * np.arange(d) * theta))
    return (*secure_reading(state.c, config, rep_rng.random()), rs)


def secure_reading(corr: np.ndarray, config: BallotConfig, u: float):
    """One (m, p) reading of a correlated row: compensated, read through ``reading``, solved here.

    The authority removes the known no-phase e^{ik N theta_n}; p is then one
    of the d outcomes omega_p, whose projectors span the correlated rows.
    """
    compensation = np.exp(-1j * np.arange(config.d) * config.N * config.theta_no)
    p = reading(_phase_basis_probs(corr * compensation), u)
    return solve_tally(p, config), p


def secure_vote(config: BallotConfig, thetas, trial_rng: np.random.Generator,
                repetitions: int):
    """One ``secure_round`` per child of ``trial_rng.spawn(repetitions)``; (m, outcomes, p).

    m is ``agreed_tally(outcomes)``.
    """
    rounds = [secure_round(config, thetas, g) for g in trial_rng.spawn(repetitions)]
    outcomes = [m for m, _, _ in rounds]
    return agreed_tally(outcomes), outcomes, [p for _, p, _ in rounds]


def agreed_tally(outcomes):
    """The common tally if every repetition decodes the same valid multiple, else CHEAT_DETECTED.

    This is the rule written out on its own, not ``protocols._secure_trials``' array form.
    """
    agree = len(set(outcomes)) == 1 and CHEAT_DETECTED not in outcomes
    return outcomes[0] if agree else CHEAT_DETECTED


def phase_estimate_attack(config: BallotConfig, cheater: int,
                          estimation_error_scale: float, trials: int,
                          rng: np.random.Generator, votes=None,
                          repetitions: int = 3) -> AttackReport:
    """The forgery attack with one ``secure_vote`` per trial."""
    if votes is None:
        votes = [Vote.NO] * config.N
    choices = _parse_votes(config, votes, config.scheme)
    delta_phase = 2 * np.pi * (config.secrets.l_y - config.secrets.l_n) / config.d
    half_width = np.pi * float(estimation_error_scale) / config.d
    verdicts, hist, per_trial = [], {}, []
    for trial_rng in rng.spawn(int(trials)):
        eps = float(trial_rng.uniform(-half_width, half_width)) if half_width > 0 else 0.0
        thetas = honest_thetas(config, choices)
        thetas[int(cheater)] += float(delta_phase + eps)
        m, outcomes, p = secure_vote(config, thetas, trial_rng, repetitions)
        detected = m == CHEAT_DETECTED
        verdicts.append(detected)
        per_trial.append({"eps": eps, "outcomes": outcomes, "p": p, "detected": detected})
        _bump(hist, m)
    return AttackReport(
        attack="phase_estimate",
        trials=int(trials),
        inferred_secrets={"delta_phase": delta_phase, "error_half_width": half_width},
        outcome_histogram=hist,
        detection_verdicts=verdicts,
        extras={"per_trial": per_trial, "repetitions": repetitions,
                "honest_tally": sum(1 for c in choices if c is Vote.YES)},
    )


def mismatched_runs(config: BallotConfig, per_voter_thetas, votes,
                    rng: np.random.Generator, trials: int, repetitions: int) -> list[dict]:
    """The mismatched-state attack's ``extras["runs"]``, one ``secure_vote`` per trial."""
    choices = _parse_votes(config, votes, config.scheme)
    thetas = [pair[0 if c is Vote.YES else 1] for pair, c in zip(per_voter_thetas, choices)]
    runs = []
    for trial_rng in rng.spawn(int(trials)):
        m, outcomes, p = secure_vote(config, thetas, trial_rng, repetitions)
        runs.append({"m": m, "outcomes": outcomes, "p": p})
    return runs


def detect_symmetry(sampled_states, rng: np.random.Generator, comparisons: int = 7) -> str:
    """The swap test drawing each comparison from its (symmetric, antisymmetric, INVALID) CDF."""
    states = list(sampled_states)
    cdfs = []
    for other in states[1:1 + int(comparisons)]:
        f2 = abs(np.vdot(states[0].amps, other.amps)) ** 2
        cdfs.append(_cdf(_with_invalid(np.array([(1 + f2) / 2, (1 - f2) / 2]))))
    for t in range(int(comparisons)):
        if _pick(cdfs[t % (len(states) - 1)], rng.random()) == 1:
            return CHEATING
    return CLEAN


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
    r = int(_pick(_cdf(probs), rng.random()))

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


def decode_secure(state: PureState, config: BallotConfig, rng: np.random.Generator):
    """Decode the returned 2N-qudit state; see ``secure_reading``."""
    if config.scheme is not Scheme.SECURE:
        raise ConfigurationError(f"decode_secure needs a SECURE config, got {config.scheme}")
    if state.dims != (config.d,) * (2 * config.N):
        raise ConfigurationError(
            f"expected {2 * config.N} sites of dimension {config.d}, got {state.dims}")
    return secure_reading(_correlated_overlaps(state), config, rng.random())


def solve_tally(p: int, config: BallotConfig):
    """Invert p = m (l_y - l_n) mod d; non-multiples signal cheating."""
    d = config.d
    dl = (config.secrets.l_y - config.secrets.l_n) % d
    g = math.gcd(dl, d)
    if p % g != 0:
        return CHEAT_DETECTED
    return (p // g) * pow(dl // g, -1, d // g) % (d // g)


# sigma_j x sigma_k for j, k = 0..3 (sigma_0 = I), row-major in (j, k), as
# real symmetric 8x8 forms acting on (Re omega, Im omega).
PAULI_PAIRS_REAL = np.array([np.block([[k.real, -k.imag], [k.imag, k.real]])
                             for k in (np.kron(a, b) for a in (I2, *SIGMA) for b in (I2, *SIGMA))])


def _tangent(direction: np.ndarray, length: float, grad: np.ndarray) -> np.ndarray:
    """Chain a gradient in a unit vector back to the raw vector it normalizes."""
    return (grad - direction * (direction @ grad)) / length


def residual_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
    """The no-go residual and its gradient in x, through the Pauli-pair forms.

    omega is packed as the real 8-vector psi = x[8:16] / |x[8:16]|, so
    M_jk = psi^T K_jk psi with real symmetric K_jk, and dR/dM defines
    K_H = sum dR/dM_jk K_jk with
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
