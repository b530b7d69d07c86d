"""Attacks on the voting schemes and the matching detection procedures.

Conventions fixed here:

* Collusion counting: colluder i measures the travelling qudit after
  applying their own vote, colluder j measures before applying theirs,
  so (k_j - k_i) mod d counts the yes votes cast strictly between them.
* The multi-vote forger estimates the secret yes/no phase difference
  and applies it directly; the estimate carries a uniform error of
  half-width pi * scale / d, the single-copy estimation floor.

SECURE forgeries run in the correlated form; dense states carry only the
TB collusion and product-ballot attacks. The swap test draws from its
closed-form weights (1 +- |<a|b>|^2)/2 (Buhrman et al., PRL 87, 167902
(2001)), and the phase-basis readout is an orthonormal FFT on one site.
"""

from dataclasses import dataclass, field

import numpy as np

from .ballots import (
    CHEAT_DETECTED,
    BallotConfig,
    Scheme,
    Vote,
    cast_vote_db,
    decode_db,
    decode_tb,
    phase_vote_unitary,
    prepare_db_ballot,
    prepare_tb_ballot,
    shift_unitary,
    voting_qudit_state,
)
from .errors import ConfigurationError
from .protocols import RunResult, _parse_votes, _phase_round, honest_thetas, run_secure_vote
from .qstate import (
    INVALID,
    PureState,
    _sample_with_invalid,
    apply_local,
    measure_computational,
    tensor,
)

CLEAN = "CLEAN"
CHEATING = "CHEATING"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class AttackReport:
    """Summary of an attack simulation across independent trials."""

    attack: str
    trials: int
    inferred_secrets: dict = field(default_factory=dict)
    outcome_histogram: dict = field(default_factory=dict)
    detection_verdicts: list | None = None
    extras: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.outcome_histogram:
            total = sum(self.outcome_histogram.values())
            if total != self.trials:
                raise ConfigurationError(
                    f"histogram counts sum to {total}, expected {self.trials}")

    @property
    def detection_rate(self) -> float | None:
        if not self.detection_verdicts:
            return 0.0 if self.detection_verdicts == [] else None
        return sum(bool(v) for v in self.detection_verdicts) / len(self.detection_verdicts)

    def to_dict(self) -> dict:
        return {
            "attack": self.attack,
            "trials": self.trials,
            "inferred_secrets": self.inferred_secrets,
            "outcome_histogram": {str(k): v for k, v in self.outcome_histogram.items()},
            "detection_verdicts": self.detection_verdicts,
            "detection_rate": self.detection_rate,
            "extras": self.extras,
            "seed": self.seed,
        }


def _bump(hist: dict, key):
    hist[key] = hist.get(key, 0) + 1


def collusion_attack_tb(config: BallotConfig, votes, colluders, trials: int,
                        rng: np.random.Generator) -> AttackReport:
    """Two voters bracket the others by measuring the travelling qudit.

    The difference of their computational outcomes equals the number of
    yes votes cast strictly between them, every time. The cost shows up
    at the authority: the difference decoder still reads the correct
    tally (collapse commutes with shifts), but the phase-decoded variant
    of the same protocol is completely randomized by the collapse. Both
    authority histograms are reported.
    """
    if config.scheme is not Scheme.TB:
        raise ConfigurationError(f"collusion attack needs a TB config, got {config.scheme}")
    i, j = int(colluders[0]), int(colluders[1])
    if not 0 <= i < j < config.N:
        raise ConfigurationError(f"colluders must satisfy 0 <= i < j < N, got {colluders}")
    choices = _parse_votes(config, votes)
    expected = sum(1 for t in range(i + 1, j) if choices[t] is Vote.YES)

    d = config.d
    inferred = []
    diff_hist: dict = {}
    phase_hist: dict = {}
    shift_op, phase_op = shift_unitary(d), phase_vote_unitary(d)
    for trial_rng in rng.spawn(int(trials)):
        # The travelling ballot with shift votes, then its phase-voting
        # variant, whose relative phases the collapse erases.
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


def multi_vote_plain(config: BallotConfig, votes, cheater: int, extra: int,
                     rng: np.random.Generator | None = None) -> RunResult:
    """Undetectable multi-voting in the plain DB scheme.

    The cheater applies ``extra`` additional yes operations, so the
    decoded tally is (true tally + extra) mod d and nothing flags it.
    """
    if config.scheme is not Scheme.DB:
        raise ConfigurationError(f"multi_vote_plain needs a DB config, got {config.scheme}")
    if not 0 <= cheater < config.N:
        raise ConfigurationError(f"cheater index {cheater} out of range")
    if extra < 0:
        raise ConfigurationError(f"extra must be >= 0, got {extra}")
    if rng is None:
        rng = np.random.default_rng(0)  # decode is deterministic on this path
    choices = _parse_votes(config, votes)
    exponents = [int(c is Vote.YES) for c in choices]
    exponents[cheater] += int(extra)
    m = _phase_round(config, exponents, [c.value for c in choices], rng)
    tally = sum(1 for c in choices if c is Vote.YES)
    return RunResult("DB", m, [m],
                     statistics={"cheater": int(cheater), "extra": int(extra),
                                 "honest_tally": tally})


def phase_estimate_attack(config: BallotConfig, cheater: int,
                          estimation_error_scale: float, trials: int,
                          rng: np.random.Generator, votes=None,
                          repetitions: int = 3) -> AttackReport:
    """A voter forges an extra vote from an estimated phase.

    The forger casts their honest vote, then applies the diagonal phase
    diag(e^{ik (Delta + eps)}) to their ballot qudit, where Delta is the
    true yes/no phase difference and eps is the per-trial estimation
    error, drawn uniformly from [-pi*scale/d, +pi*scale/d]. The estimate
    is made once per trial and reused across all repetitions.
    """
    if config.scheme is not Scheme.SECURE:
        raise ConfigurationError(f"phase attack needs a SECURE config, got {config.scheme}")
    if not 0 <= cheater < config.N:
        raise ConfigurationError(f"cheater index {cheater} out of range")
    if votes is None:
        votes = [Vote.NO] * config.N
    choices = _parse_votes(config, votes)
    delta_phase = 2 * np.pi * (config.secrets.l_y - config.secrets.l_n) / config.d
    half_width = np.pi * float(estimation_error_scale) / config.d

    verdicts, hist, per_trial = [], {}, []
    for trial_rng in rng.spawn(int(trials)):
        eps = float(trial_rng.uniform(-half_width, half_width)) if half_width > 0 else 0.0
        thetas = honest_thetas(config, choices)
        thetas[int(cheater)] += float(delta_phase + eps)
        result = run_secure_vote(config, choices, trial_rng, repetitions=repetitions,
                                 thetas=thetas)
        detected = result.m == CHEAT_DETECTED
        verdicts.append(detected)
        per_trial.append({"eps": eps, "outcomes": result.outcomes, "p": result.p,
                          "detected": detected})
        _bump(hist, result.m)

    return AttackReport(
        attack="phase_estimate",
        trials=int(trials),
        inferred_secrets={"delta_phase": delta_phase, "error_half_width": half_width},
        outcome_histogram=hist,
        detection_verdicts=verdicts,
        extras={"per_trial": per_trial, "repetitions": repetitions,
                "honest_tally": sum(1 for c in choices if c is Vote.YES)},
    )


def _phase_basis_measure(state: PureState, site: int, rng: np.random.Generator):
    """Measure one site in the {|psi(2 pi l / d)>} basis; returns (l, post).

    <psi(2 pi l / d)|k> = e^{-i 2 pi k l / d} / sqrt(d), so an orthonormal
    FFT along the site rotates the basis onto the computational one.
    """
    rotated = np.fft.fft(state.shaped(), axis=site, norm="ortho")
    return measure_computational(PureState(state.dims, rotated.reshape(-1)), site, rng)


def authority_product_ballot(config: BallotConfig, votes, rng: np.random.Generator,
                             trials: int = 100, honest_ballot: bool = False) -> AttackReport:
    """Malicious authority sends unentangled ballots and reads the votes.

    Each voter's qudit starts in the uniform superposition; a yes vote
    rotates it onto an orthogonal basis state, so measuring in the
    phase-state basis identifies every vote exactly. Running the same
    measurement against the honest entangled ballot yields chance-level
    identification (the control).
    """
    if config.scheme is not Scheme.DB:
        raise ConfigurationError(f"product-ballot attack needs a DB config, got {config.scheme}")
    choices = [Vote.parse(v) for v in votes]
    actual = [1 if c is Vote.YES else 0 for c in choices]

    correct = np.zeros(config.N, dtype=int)
    hist: dict = {}
    per_trial_correct = []
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
            l, state = _phase_basis_measure(state, site, trial_rng)
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


def mismatched_voting_states(config: BallotConfig, per_voter_thetas, votes,
                             rng: np.random.Generator, trials: int = 1,
                             repetitions: int = 3) -> AttackReport:
    """Malicious authority issues different voting angles per voter.

    ``per_voter_thetas`` lists (theta_yes, theta_no) per voter. The
    decoded p then encodes which voters said yes, not just how many;
    the report tabulates the deterministic phase tag of every vote
    pattern so equal-weight patterns can be compared.
    """
    if config.scheme is not Scheme.SECURE:
        raise ConfigurationError(f"mismatched states need a SECURE config, got {config.scheme}")
    if len(per_voter_thetas) != config.N:
        raise ConfigurationError(f"need {config.N} theta pairs, got {len(per_voter_thetas)}")
    choices = _parse_votes(config, votes)
    thetas = [pair[0 if c is Vote.YES else 1] for pair, c in zip(per_voter_thetas, choices)]

    hist: dict = {}
    results = []
    for trial_rng in rng.spawn(int(trials)):
        result = run_secure_vote(config, choices, trial_rng, repetitions=repetitions,
                                 thetas=thetas)
        results.append({"m": result.m, "outcomes": result.outcomes, "p": result.p})
        _bump(hist, result.m)

    tags = {}
    if config.N <= 12:
        d = config.d
        for pattern in range(2 ** config.N):
            bits = [(pattern >> t) & 1 for t in range(config.N)]
            phase = sum(per_voter_thetas[t][0] if bits[t] else per_voter_thetas[t][1]
                        for t in range(config.N)) - config.N * config.theta_no
            x = (phase * d / (2 * np.pi)) % d
            tag = int(round(x)) % d if abs(x - round(x)) < 1e-9 else None
            tags["".join("YN"[1 - b] for b in bits)] = tag
    by_weight: dict = {}
    for pattern, tag in tags.items():
        by_weight.setdefault(pattern.count("Y"), set()).add(tag)
    distinguishable = {w: len(t) > 1 for w, t in by_weight.items()}

    return AttackReport(
        attack="mismatched_voting_states",
        trials=int(trials),
        inferred_secrets={"phase_tags": tags,
                          "equal_weight_patterns_distinguishable": distinguishable},
        outcome_histogram=hist,
        extras={"runs": results},
    )


def detect_symmetry(sampled_states, rng: np.random.Generator,
                    comparisons: int = 7) -> str:
    """Swap-test a pool of voting states that claim to be identical.

    Identical pure states always land in the symmetric subspace; states
    whose overlap has modulus f fail with probability (1 - f^2)/2 per
    comparison. Comparisons pair the first state against the others in
    round-robin order on fresh copies. Any antisymmetric outcome means
    the authority sent unequal states.
    """
    states = list(sampled_states)
    if len(states) < 2:
        raise ConfigurationError("symmetry test needs at least two states")
    d = states[0].dims[0]
    for s in states:
        if s.num_sites != 1 or s.dims[0] != d:
            raise ConfigurationError("symmetry test compares single qudits of equal dimension")
    for t in range(int(comparisons)):
        other = states[1 + t % (len(states) - 1)]
        f2 = abs(np.vdot(states[0].amps, other.amps)) ** 2
        outcome, _ = _sample_with_invalid(np.array([(1 + f2) / 2, (1 - f2) / 2]), rng)
        if outcome == 1:
            return CHEATING
    return CLEAN


def detect_subset_correlation(ballot_state: PureState, subset, rng: np.random.Generator,
                              trials: int = 10) -> str:
    """Sacrifice ballot copies: honest ballots show identical digits.

    Measures the subset computationally on a fresh copy per trial. A
    proper distributed ballot gives perfectly correlated digits; a
    product ballot gives independent ones, so any mismatch convicts.
    Single-site subsets have nothing to correlate.
    """
    sites = [int(s) for s in subset]
    if len(sites) < 2:
        return INCONCLUSIVE
    for _ in range(int(trials)):
        state = ballot_state
        digits = []
        for site in sites:
            digit, state = measure_computational(state, site, rng)
            digits.append(digit)
        if len(set(digits)) > 1:
            return CHEATING
    return CLEAN


def detect_inconsistent_results(outcomes) -> str:
    """Repeated runs must agree; disagreement or invalid reads convict."""
    outs = list(outcomes)
    if len(outs) < 2:
        raise ConfigurationError("need at least two outcomes to compare")
    if any(o in (CHEAT_DETECTED, INVALID) for o in outs):
        return CHEATING
    if len(set(outs)) > 1:
        return CHEATING
    return CLEAN
