"""Attacks on the voting schemes and the matching detection procedures.

Conventions fixed here:

* Collusion counting: colluder i measures the travelling qudit after
  applying their own vote, colluder j measures before applying theirs,
  so (k_j - k_i) mod d counts the yes votes cast strictly between them.
* The multi-vote forger estimates the secret yes/no phase difference
  and applies it directly; the estimate carries a uniform error of
  half-width pi * scale / d, the single-copy estimation floor.

No attack builds a dense state. The forgery, mismatched-state, TB
collusion and product-ballot attacks draw a fixed number of doubles per
trial from the trial's own child stream and read only the named ones.
One ``rng.child_doubles`` call computes those, as ``rng.spawn`` children
would draw them, without a Generator per trial or the unread draws, and
closed forms map them; so their ``rng`` must be PCG64, or they raise
ConfigurationError. Only the SECURE attacks read a correlated row, one
grid row per trial measured against the no-phase: the forgery's index is
the honest yes count plus its forged vote, times l_y - l_n, and its offset
the trial's estimation error; mismatched voting states share one row at
index 0, offset by the cast angles' sum less N theta_no. Both run all
trials through one ``_secure_trials`` call, which builds and reads each
row once for all its repetitions, and zip its per-trial
tallies, outcomes and ps into their report; histograms are
``collections.Counter`` counts in first-seen key order. The tag table
reads ``protocols._vote_patterns``. The TB collusion attack's phase
decode and the product ballot read distributions the physics fixes: the
collapsed pair |k, k> reads uniformly in the omega_p basis, and a product
ballot's phase-basis reading is each vote, exactly; on the honest ballot
the control reads uniformly.
The swap test compares each double with one threshold per pair, its
symmetric weight (1 + |<a|b>|^2)/2 (Buhrman et al., PRL 87, 167902
(2001)). ``_swap_thresholds`` checks a pool and computes its table, one
threshold per comparison, once; a bounded cache keyed by the pool's
states, which compare by identity, serves it to every later call.
``detect_symmetry`` walks that table with one ``rng.random()`` per
comparison and stops at the first conviction; ``swap_test_trials`` runs
it on every child of ``rng.spawn(trials)`` at once, reading each child's
doubles through one ``rng.child_doubles`` call, with the same verdicts.
Only ``detect_subset_correlation`` measures a dense state, the one it is
given. ``tests/reference.py`` keeps the dense per-trial loops,
with their own histogram loop, and the per-call swap-test CDF that these
kernels must match draw for draw.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import rng as rngmod
from .ballots import (
    CHEAT_DETECTED,
    BallotConfig,
    Scheme,
    Vote,
)
from .errors import ConfigurationError, _at_least
from .protocols import (
    RunResult,
    _parse_votes,
    _phase_round,
    _secure_trials,
    _vote_patterns,
    _yes_count,
    run_secure_vote,  # unused here; bench/test_bench.py reads adversary.run_secure_vote
)
from .qstate import (
    INVALID,
    PureState,
    _cdf,
    _pick,
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
    leaves a product state on which the rest is determined. In the shift
    variant the difference is ``expected`` whatever the first reading is,
    so its doubles 0-2 are drawn but not read. In the phase variant the
    first reading k leaves |k, k> times a unit phase, which reads uniformly
    on 0..d-1 in the omega_p basis whatever k is, so only the decode's
    double 5 is read, and doubles 3-4 are drawn but not read.
    """
    choices = _parse_votes(config, votes, Scheme.TB)
    i, j = int(colluders[0]), int(colluders[1])
    if not 0 <= i < j < config.N:
        raise ConfigurationError(f"colluders must satisfy 0 <= i < j < N, got {colluders}")
    yes = [c is Vote.YES for c in choices]
    expected = sum(yes[i + 1:j])

    d = config.d
    u = rngmod.child_doubles(rng, _at_least("trials", trials, 0), (5,))[0]
    # Shift variant: the readings differ by ``expected`` (< d) whatever doubles 0-2 hold.
    inferred = [expected] * len(u)
    diff_hist = {_yes_count(d, yes): len(u)} if len(u) else {}
    # Phase variant: |<omega_p|k, k>|^2 = 1/d for every p, whatever doubles 3-4 hold.
    phase_hist = dict(Counter(_pick(_cdf(np.ones(d)), u[:, 0]).tolist()))

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
    choices = _parse_votes(config, votes, Scheme.DB)
    if not 0 <= cheater < config.N:
        raise ConfigurationError(f"cheater index {cheater} out of range")
    extra = _at_least("extra", extra, 0)
    exponents = [int(c is Vote.YES) for c in choices]
    exponents[cheater] += extra
    m = _phase_round(config, exponents, [c.value for c in choices], rng)
    tally = sum(1 for c in choices if c is Vote.YES)
    return RunResult("DB", m, [m],
                     statistics={"cheater": int(cheater), "extra": extra,
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
    choices = _parse_votes(config, [Vote.NO] * config.N if votes is None else votes,
                           Scheme.SECURE)
    if not 0 <= cheater < config.N:
        raise ConfigurationError(f"cheater index {cheater} out of range")
    _at_least("repetitions", repetitions, 1)
    if not 0 <= estimation_error_scale < math.inf:  # NaN fails too
        raise ConfigurationError(
            f"error scale must be >= 0 and finite, got {estimation_error_scale}")
    dl = config.secrets.l_y - config.secrets.l_n
    delta_phase = 2 * np.pi * dl / config.d
    half_width = np.pi * float(estimation_error_scale) / config.d
    honest_tally = sum(1 for c in choices if c is Vote.YES)

    # Per trial: the estimate error, drawn as numpy's uniform draws it, then
    # one child stream per repetition, as run_secure_vote spawns them, of
    # which only the tally double N is read. All trials run as one batch:
    # the honest votes and the forged one step the grid index by l_y - l_n
    # each, and the error is the row's offset, shared by its repetitions.
    u, rep_u = rngmod.child_doubles(rng, _at_least("trials", trials, 0), (0,), repetitions,
                                    (config.N,))
    lo, hi = -half_width, half_width
    errors = lo + (hi - lo) * u[:, 0]
    tallies, outcomes, ps = _secure_trials(config, (honest_tally + 1) * dl, errors, rep_u)
    verdicts = [m == CHEAT_DETECTED for m in tallies]
    per_trial = [{"eps": eps, "outcomes": o, "p": p, "detected": detected}
                 for eps, o, p, detected in zip(errors.tolist(), outcomes, ps, verdicts)]

    return AttackReport(
        attack="phase_estimate",
        trials=int(trials),
        inferred_secrets={"delta_phase": delta_phase, "error_half_width": half_width},
        outcome_histogram=dict(Counter(tallies)),
        detection_verdicts=verdicts,
        extras={"per_trial": per_trial, "repetitions": repetitions,
                "honest_tally": honest_tally},
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
    trial's stream. A product ballot's voter qudit sits on the phase-basis
    state of its vote, so each reading is that vote and no double is read.
    On the honest ballot, a reading l is uniform and leaves
    c_k e^{-i 2 pi k l / d} on the other sites, so the last site reads the
    tally minus the earlier readings, mod d; that reading is determined
    but still reads its double.
    """
    choices = _parse_votes(config, votes, Scheme.DB)
    actual = [1 if c is Vote.YES else 0 for c in choices]

    d = config.d
    reads = tuple(range(config.N)) if honest_ballot else ()
    u = rngmod.child_doubles(rng, _at_least("trials", trials, 1), reads)[0]
    if honest_ballot:
        guesses = _pick(_cdf(np.ones(d)), u)
        guesses[:, -1] = (sum(actual) - guesses[:, :-1].sum(axis=1)) % d
    else:
        guesses = np.tile(actual, (len(u), 1))
    hits = guesses == np.array(actual)
    per_trial_correct = hits.sum(axis=1).tolist()

    accuracy = (hits.sum(axis=0) / int(trials)).tolist()
    return AttackReport(
        attack="authority_product_ballot",
        trials=int(trials),
        inferred_secrets={"per_voter_accuracy": accuracy, "actual_votes": actual},
        outcome_histogram=dict(Counter(per_trial_correct)),
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

    All trials cast the same angle row and run as one batch; repetition r
    of trial t reads the tally double, double N, of
    ``rng.spawn(trials)[t].spawn(repetitions)[r]``, as ``run_secure_vote`` does.
    """
    choices = _parse_votes(config, votes, Scheme.SECURE)
    if len(per_voter_thetas) != config.N:
        raise ConfigurationError(f"need {config.N} theta pairs, got {len(per_voter_thetas)}")
    if not all(math.isfinite(theta) for pair in per_voter_thetas for theta in pair):
        raise ConfigurationError(f"voting angles must be finite, got {per_voter_thetas}")
    _at_least("repetitions", repetitions, 1)
    thetas = [pair[0 if c is Vote.YES else 1] for pair, c in zip(per_voter_thetas, choices)]

    # The cast angles sit off the no-phase by their sum less N theta_no: an
    # offset on grid index 0, one row that every trial shares.
    trials = _at_least("trials", trials, 0)
    rep_u = rngmod.child_doubles(rng, trials, (), repetitions, (config.N,))[1]
    tallies, outcomes, ps = _secure_trials(config, 0, sum(thetas) - config.N * config.theta_no,
                                           rep_u)
    runs = [{"m": m, "outcomes": o, "p": p} for m, o, p in zip(tallies, outcomes, ps)]

    tags = {}
    if config.N <= 12:
        # Summed from 0 in voter order, as Python's sum; np.remainder is float %, np.round half-even.
        d, patterns = config.d, _vote_patterns(config.N)
        phase = sum(np.where(patterns[:, t], *pair) for t, pair in enumerate(per_voter_thetas))
        x = np.remainder((phase - config.N * config.theta_no) * d / (2 * np.pi), d)
        nearest = np.round(x)
        names = ["".join(row) for row in np.array(["N", "Y"])[patterns].tolist()]
        tags = {name: int(n) % d if abs(off) < 1e-9 else None
                for name, n, off in zip(names, nearest.tolist(), (x - nearest).tolist())}
    by_weight: dict = {}
    for pattern, tag in tags.items():
        by_weight.setdefault(pattern.count("Y"), set()).add(tag)
    distinguishable = {w: len(t) > 1 for w, t in by_weight.items()}

    return AttackReport(
        attack="mismatched_voting_states",
        trials=trials,
        inferred_secrets={"phase_tags": tags,
                          "equal_weight_patterns_distinguishable": distinguishable},
        outcome_histogram=dict(Counter(tallies)),
        extras={"runs": runs},
    )


# Swap-test threshold tables kept at once; each holds its pool's states alive.
_SWAP_TABLES = 256


@lru_cache(maxsize=_SWAP_TABLES)
def _swap_thresholds(states: tuple, comparisons) -> tuple:
    """The swap test's threshold per comparison, (1 + |<s_0|s_j>|^2)/2, j cycling 1..n-1.

    Keyed by the pool's states, which hash and compare by identity and hold
    frozen amplitudes, so a cached table is the one a fresh call computes.
    A bad pool raises on every call: lru_cache does not store exceptions.
    """
    if len(states) < 2:
        raise ConfigurationError("symmetry test needs at least two states")
    comparisons = _at_least("comparisons", comparisons, 1)
    d = states[0].dims[0]
    for s in states:
        if s.num_sites != 1 or s.dims[0] != d:
            raise ConfigurationError("symmetry test compares single qudits of equal dimension")
    thresholds = [(1 + float(abs(np.vdot(states[0].amps, other.amps)) ** 2)) / 2
                  for other in states[1:1 + comparisons]]
    return tuple(thresholds[t % (len(states) - 1)] for t in range(comparisons))


def detect_symmetry(sampled_states, rng: np.random.Generator,
                    comparisons: int = 7) -> str:
    """Swap-test a pool of voting states that claim to be identical.

    Identical pure states always land in the symmetric subspace; states
    whose overlap has modulus f fail with probability (1 - f^2)/2 per
    comparison. Comparisons pair the first state against the others in
    round-robin order on fresh copies. Any antisymmetric outcome means
    the authority sent unequal states.

    Each comparison spends one double u and convicts when u >= (1 + f^2)/2.
    That is the inverse-CDF draw over (symmetric, antisymmetric, INVALID),
    exactly: for f^2 in [0, 1] the two weights round to a sum of exactly 1,
    so INVALID weighs 0; an f^2 rounded above 1 gives a threshold >= 1,
    which no double reaches. The first conviction ends the test, so a
    convicted pool leaves later doubles undrawn.
    """
    for threshold in _swap_thresholds(tuple(sampled_states), comparisons):
        if rng.random() >= threshold:
            return CHEATING
    return CLEAN


def swap_test_trials(sampled_states, trials: int, rng: np.random.Generator,
                     comparisons: int = 7) -> list[str]:
    """``detect_symmetry`` on each child of ``rng.spawn(trials)``, as one batch.

    Trial t reads doubles 0..comparisons-1 of child t through one
    ``rng.child_doubles`` call and convicts when any double reaches its
    comparison's threshold, so it returns the per-call verdicts in trial
    order and leaves ``rng`` as the spawn does. A convicted child's later
    doubles are drawn here but not by the per-call test; a discarded
    child's unread doubles cannot be seen. ``rng`` must be PCG64.
    """
    table = _swap_thresholds(tuple(sampled_states), comparisons)
    u = rngmod.child_doubles(rng, _at_least("trials", trials, 0), tuple(range(len(table))))[0]
    return np.where((u >= table).any(axis=1), CHEATING, CLEAN).tolist()


def detect_subset_correlation(ballot_state: PureState, subset, rng: np.random.Generator,
                              trials: int = 10) -> str:
    """Sacrifice ballot copies: honest ballots show identical digits.

    Measures the subset computationally on a fresh copy per trial. A
    proper distributed ballot gives perfectly correlated digits; a
    product ballot gives independent ones, so any mismatch convicts.
    Single-site subsets have nothing to correlate.
    """
    trials = _at_least("trials", trials, 1)
    sites = [int(s) for s in subset]
    if len(sites) < 2:
        return INCONCLUSIVE
    for _ in range(trials):
        state = ballot_state
        digits = []
        for site in sites:
            digit, state = measure_computational(state, site, rng)
            digits.append(digit)
        if len(set(digits)) > 1:
            return CHEATING
    return CLEAN


def detect_inconsistent_results(outcomes) -> str:
    """Runs agree as SECURE repetitions do: one outcome, not CHEAT_DETECTED or INVALID."""
    distinct = set(outcomes)
    if not distinct:
        raise ConfigurationError("need at least one outcome")
    return CLEAN if len(distinct) == 1 and not distinct & {CHEAT_DETECTED, INVALID} else CHEATING
