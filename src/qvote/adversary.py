"""Attacks on the voting schemes and the matching detection procedures.

Conventions fixed here:

* Collusion counting: colluder i measures the travelling qudit after
  applying their own vote, colluder j measures before applying theirs,
  so (k_j - k_i) mod d counts the yes votes cast strictly between them.
* The multi-vote forger estimates the secret yes/no phase difference
  and applies it directly; the estimate carries a uniform error of
  half-width pi * scale / d, the single-copy estimation floor.

No attack builds a dense state. Each Monte Carlo attack spends a fixed
number of doubles per trial from the trial's own stream, takes them in
one call, and maps them through closed forms: SECURE forgeries run every
trial's repetitions through one batched ``_secure_rounds``; the TB
collusion attack follows the pair in its d amplitudes, where only the
first colluder's reading is random; the product-ballot readout is an
orthonormal FFT of one voter's qudit, or uniform on the honest ballot.
The swap test draws from its closed-form weights (1 +- |<a|b>|^2)/2
(Buhrman et al., PRL 87, 167902 (2001)). Only ``detect_subset_correlation``
measures a dense state, the one it is given. ``tests/reference.py`` keeps
the dense per-trial loops these kernels must match draw for draw.
"""

from dataclasses import dataclass, field

import numpy as np

from .ballots import (
    CHEAT_DETECTED,
    BallotConfig,
    Scheme,
    Vote,
    cast_vote_db,
    phase_readings,
    phase_vote_unitary,
    voting_qudit_state,
)
from .errors import ConfigurationError
from .protocols import (
    RunResult,
    _parse_votes,
    _phase_round,
    _secure_result,
    _secure_rounds,
    honest_thetas,
    run_secure_vote,
)
from .qstate import (
    INVALID,
    CorrelatedState,
    PureState,
    _cdf,
    _pick,
    _with_invalid,
    measure_computational,
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


def _trial_streams(rng: np.random.Generator, trials: int, least: int = 0) -> list:
    """One child stream per trial; fewer than ``least`` trials is a configuration error."""
    if trials < least:
        raise ConfigurationError(f"trials must be >= {least}, got {trials}")
    return rng.spawn(int(trials))


def _renormalized(c: np.ndarray) -> np.ndarray:
    """Each amplitude over its modulus, rounded as ``np.linalg.norm`` rounds a one-hot state."""
    return c / np.sqrt(c.real * c.real + c.imag * c.imag)


def collusion_attack_tb(config: BallotConfig, votes, colluders, trials: int,
                        rng: np.random.Generator) -> AttackReport:
    """Two voters bracket the others by measuring the travelling qudit.

    The difference of their computational outcomes equals the number of
    yes votes cast strictly between them, every time. The cost shows up
    at the authority: the difference decoder still reads the correct
    tally (collapse commutes with shifts), but the phase-decoded variant
    of the same protocol is completely randomized by the collapse. Both
    authority histograms are reported.

    Each trial runs the shift-vote variant, then the phase-vote variant,
    and spends three doubles of its stream on each: the first colluder's
    reading, the second's and the authority's decode. The pair stays in
    sum_k c_k |k, k + s>, so the first reading is the only random one; it
    leaves a product state on which the rest is determined.
    """
    if config.scheme is not Scheme.TB:
        raise ConfigurationError(f"collusion attack needs a TB config, got {config.scheme}")
    i, j = int(colluders[0]), int(colluders[1])
    if not 0 <= i < j < config.N:
        raise ConfigurationError(f"colluders must satisfy 0 <= i < j < N, got {colluders}")
    choices = _parse_votes(config, votes)
    yes = [c is Vote.YES for c in choices]
    expected = sum(yes[i + 1:j])

    d = config.d
    u = np.array([g.random(6) for g in _trial_streams(rng, trials)]).reshape(-1, 6)
    c = CorrelatedState.uniform(d, 2).c
    # Shift votes only permute the pair's amplitudes, so the first reading
    # sees the |c_k|^2 in some order. The second reading and the difference
    # decode are determined and spend u[:, 1] and u[:, 2].
    first = _pick(_cdf(np.abs(c) ** 2), u[:, 0])
    second = (first + expected) % d
    inferred = ((second - first) % d).tolist()
    diff_hist = {sum(yes) % d: len(u)} if len(u) else {}

    # Phase votes keep the pair diagonal. The first reading k leaves c_k on
    # |k, k>, renormalized; the second reads k again (spending u[:, 4]) and
    # renormalizes once more. The phase decode of that one-hot state spends
    # u[:, 5]. Entry k of c follows the outcome-k branch.
    phase = phase_vote_unitary(d).mat.diagonal()
    for t in range(i + 1):
        if yes[t]:
            c = c * phase
    first_phase = _pick(_cdf(np.abs(c) ** 2), u[:, 3])
    c = _renormalized(c)
    for t in range(i + 1, config.N):
        if t == j:
            c = _renormalized(c)
        if yes[t]:
            c = c * phase
    one_hot = np.zeros((len(u), d), dtype=complex)
    one_hot[np.arange(len(u)), first_phase] = c[first_phase]
    phase_hist: dict = {}
    for p in phase_readings(one_hot, u[:, 5]):
        _bump(phase_hist, p)

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
                     rng: np.random.Generator) -> RunResult:
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
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    if votes is None:
        votes = [Vote.NO] * config.N
    choices = _parse_votes(config, votes)
    delta_phase = 2 * np.pi * (config.secrets.l_y - config.secrets.l_n) / config.d
    half_width = np.pi * float(estimation_error_scale) / config.d

    # Per trial: the estimate error, then one child stream per repetition,
    # as run_secure_vote spawns them. All trials' repetitions run as one batch.
    honest = honest_thetas(config, choices)
    errors, theta_rows, rep_rngs = [], [], []
    for trial_rng in _trial_streams(rng, trials):
        eps = float(trial_rng.uniform(-half_width, half_width)) if half_width > 0 else 0.0
        thetas = list(honest)
        thetas[int(cheater)] += float(delta_phase + eps)
        errors.append(eps)
        theta_rows += [thetas] * repetitions
        rep_rngs += trial_rng.spawn(repetitions)
    rounds = _secure_rounds(config, theta_rows, rep_rngs)

    verdicts, hist, per_trial = [], {}, []
    for t, eps in enumerate(errors):
        result = _secure_result(rounds[t * repetitions:(t + 1) * repetitions], repetitions)
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


def authority_product_ballot(config: BallotConfig, votes, rng: np.random.Generator,
                             trials: int = 100, honest_ballot: bool = False) -> AttackReport:
    """Malicious authority sends unentangled ballots and reads the votes.

    Each voter's qudit starts in the uniform superposition; a yes vote
    rotates it onto an orthogonal basis state, so measuring in the
    phase-state basis identifies every vote exactly. Running the same
    measurement against the honest entangled ballot yields chance-level
    identification (the control).

    The authority reads the sites in order, one double each from the
    trial's stream. A product ballot's sites are independent, so each
    reading is drawn from the orthonormal FFT of that voter's qudit. On
    the honest ballot, a reading l is uniform and leaves
    c_k e^{-i 2 pi k l / d} on the other sites, so the last site reads the
    tally minus the earlier readings, mod d; that reading is determined
    but still spends its double.
    """
    if config.scheme is not Scheme.DB:
        raise ConfigurationError(f"product-ballot attack needs a DB config, got {config.scheme}")
    choices = _parse_votes(config, votes)
    actual = [1 if c is Vote.YES else 0 for c in choices]

    d = config.d
    u = np.array([g.random(config.N) for g in _trial_streams(rng, trials, least=1)])
    u = u.reshape(-1, config.N)
    if honest_ballot:
        guesses = _pick(np.full(d, 1 / d).cumsum(), u)
        guesses[:, -1] = (sum(actual) - guesses[:, :-1].sum(axis=1)) % d
    else:
        qudit = voting_qudit_state(d, 0.0)
        guesses = np.empty(u.shape, dtype=int)
        for t, choice in enumerate(choices):
            readout = np.fft.fft(cast_vote_db(qudit, 0, choice).amps, norm="ortho")
            guesses[:, t] = _pick(_cdf(np.abs(readout) ** 2), u[:, t])
    hits = guesses == np.array(actual)
    per_trial_correct = hits.sum(axis=1).tolist()
    hist: dict = {}
    for k in per_trial_correct:
        _bump(hist, k)

    accuracy = (hits.sum(axis=0) / int(trials)).tolist()
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
    for trial_rng in _trial_streams(rng, trials):
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
    cdfs = []
    for other in states[1:1 + int(comparisons)]:
        f2 = abs(np.vdot(states[0].amps, other.amps)) ** 2
        cdfs.append(_cdf(_with_invalid(np.array([(1 + f2) / 2, (1 - f2) / 2]))))
    for t in range(int(comparisons)):
        if _pick(cdfs[t % (len(states) - 1)], rng.random()) == 1:
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
