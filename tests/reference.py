"""Per-trial state simulations that the closed-form kernels and runs replace.

These are the loops the attacks ran before their kernels: the child
streams built one Generator at a time, the dense collusion and
product-ballot attacks, the dense TB round, the scalar SECURE round, the
forgery and mismatched-state attacks run one trial of scalar SECURE
rounds at a time, and the swap test that drew from a three-entry CDF per
pair. They make the same draws in the same order as the kernels, so
tests require equal reports, draw for draw.

The dense anti-reuse cast and its decoder live here too. The cast
follows the protocol's stated output state: after the voter's pairing
measurement returns r and the shift correction is applied, the voting
qudit contributes e^{i(k-r) theta} to the k-th correlated component (the
integer k - r, not its mod-d residue, which is what keeps the secret
offset delta from leaking into the tally). SECURE runs replace it with
one phase per voter on the correlated amplitudes. ``cast`` is that
phase cast with one exp per voter, which ``protocols._cast`` must match
bit for bit with one exp per distinct angle. ``solve_tally`` is the
per-reading tally map that ``secure_tally`` must reproduce.
"""

import math

import numpy as np

from qvote.adversary import CHEATING, CLEAN, AttackReport, _bump
from qvote.ballots import (
    CHEAT_DETECTED,
    BallotConfig,
    Scheme,
    Vote,
    _correlated_overlaps,
    cast_vote_db,
    decode_db,
    decode_tb,
    phase_vote_unitary,
    prepare_db_ballot,
    prepare_tb_ballot,
    secure_tally,
    shift_unitary,
    voting_qudit_state,
)
from qvote.errors import ConfigurationError
from qvote.protocols import _parse_votes, honest_thetas
from qvote.qstate import (
    ATOL,
    CorrelatedState,
    PureState,
    _cdf,
    _pick,
    _with_invalid,
    apply_local,
    measure_computational,
    tensor,
)


def child_doubles(rng: np.random.Generator, trials: int, k: int, reps: int = 0,
                  rep_k: int = 0):
    """``rng.spawn(trials)``: k doubles per child, then rep_k per child of each ``spawn(reps)``."""
    kids = rng.spawn(int(trials))
    u = np.array([g.random(k) for g in kids]).reshape(len(kids), k)
    rep_u = np.array([rep.random(rep_k) for g in kids for rep in g.spawn(reps)])
    return u, rep_u.reshape(len(kids), reps, rep_k)


def phase_basis_measure(state: PureState, site: int, rng: np.random.Generator):
    """Measure one site in the {|psi(2 pi l / d)>} basis; returns (l, post).

    <psi(2 pi l / d)|k> = e^{-i 2 pi k l / d} / sqrt(d), so an orthonormal
    FFT along the site rotates the basis onto the computational one.
    """
    rotated = np.fft.fft(state.shaped(), axis=site, norm="ortho")
    return measure_computational(PureState(state.dims, rotated.reshape(-1)), site, rng)


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
                    second, state = measure_computational(state, 1, trial_rng)
                if choice is Vote.YES:
                    state = apply_local(state, 1, op)
                if t == i:
                    first, state = measure_computational(state, 1, trial_rng)
            if op is shift_op:
                inferred.append((second - first) % d)
                _bump(diff_hist, decode_tb(state, d, trial_rng))
            else:
                _bump(phase_hist, decode_db(state, d, 2, trial_rng))
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


def cast(d: int, thetas) -> np.ndarray:
    """``protocols._cast`` with one exp per voter: rows of (N,) or (rows, N) angles, in order."""
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
    return (*secure_tally(state.c[None], config, [rep_rng.random()])[0], rs)


def secure_vote(config: BallotConfig, thetas, trial_rng: np.random.Generator,
                repetitions: int):
    """One ``secure_round`` per child of ``trial_rng.spawn(repetitions)``; (m, outcomes, p).

    m is the common tally when every repetition decodes the same valid
    multiple, else CHEAT_DETECTED.
    """
    rounds = [secure_round(config, thetas, g) for g in trial_rng.spawn(repetitions)]
    outcomes = [m for m, _, _ in rounds]
    agree = len(set(outcomes)) == 1 and CHEAT_DETECTED not in outcomes
    return outcomes[0] if agree else CHEAT_DETECTED, outcomes, [p for _, p, _ in rounds]


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
    """Decode the returned 2N-qudit state; see ``secure_tally``."""
    if config.scheme is not Scheme.SECURE:
        raise ConfigurationError(f"decode_secure needs a SECURE config, got {config.scheme}")
    if state.dims != (config.d,) * (2 * config.N):
        raise ConfigurationError(
            f"expected {2 * config.N} sites of dimension {config.d}, got {state.dims}")
    return secure_tally(_correlated_overlaps(state)[None], config, [rng.random()])[0]


def solve_tally(p: int, config: BallotConfig):
    """Invert p = m (l_y - l_n) mod d; non-multiples signal cheating."""
    d = config.d
    dl = (config.secrets.l_y - config.secrets.l_n) % d
    g = math.gcd(dl, d)
    if p % g != 0:
        return CHEAT_DETECTED
    return (p // g) * pow(dl // g, -1, d // g) % (d // g)
