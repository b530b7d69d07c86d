"""End-to-end protocol runs, transcript logging, and classical baselines.

A run consumes a seeded generator and optionally appends events to a
Transcript. Events never contain plaintext choices, only salted
commitments, so a persisted transcript does not reveal votes; the salt
is derived from the master seed and is not serialized.

The honest runs share one engine: ``_cast`` applies the voters' phases to
the d correlated amplitudes, ``ballots.phase_readings`` reads an outcome
p < d, never INVALID, and ``_log_round`` writes each round's events. A TB
run is closed form. ``_cast`` exponentiates once per distinct angle,
matched by bit pattern, not once per voter, and multiplies as
``np.multiply(c, phase)`` so that a row's bits do not depend on its batch.
SECURE trials go through ``_secure_trials``, which returns flat per-trial
lists (tallies, outcomes, ps) and no per-trial result; ``run_secure_vote``
builds its one ``RunResult`` and picks the pairing outcomes it logs.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .ballots import (
    CHEAT_DETECTED,
    BallotConfig,
    Scheme,
    TWO_VOTER_TB_LABELS,
    Vote,
    _labels,
    phase_readings,
    secure_tally,
)
from .errors import ConfigurationError, _at_least
from .qstate import ATOL, _cdf, _pick

EVENT_STEPS = ("PREPARE", "DISTRIBUTE", "VOTE", "RETURN", "MEASURE")
# json.dumps builds an encoder per call; transcripts reuse this one.
_EVENT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass
class Transcript:
    """Ordered protocol events plus the run's identifying metadata."""

    run_id: str
    master_seed: int
    events: list[dict] = field(default_factory=list)

    def __post_init__(self):
        self._salt = rngmod.stream(self.master_seed, rngmod.COMMITMENT).bytes(16)

    def commit(self, rep: int, site: int, value) -> str:
        """Salted commitment hiding a vote value in the event log."""
        msg = self._salt + f"{self.run_id}|{rep}|{site}|{value}".encode()
        return hashlib.sha256(msg).hexdigest()

    def event(self, rep: int, step: str, site=None, payload=None, outcome=None):
        if step not in EVENT_STEPS:
            raise ConfigurationError(f"unknown transcript step {step!r}")
        self.events.append({
            "run_id": self.run_id,
            "rep": int(rep),
            "step": step,
            "site": site if site is None else int(site),
            "payload": payload,
            "outcome": outcome,
        })

    def validate(self):
        reps = {}
        for e in self.events:
            if e["step"] == "MEASURE":
                reps[e["rep"]] = reps.get(e["rep"], 0) + 1
        for rep, count in reps.items():
            if count != 1:
                raise ConfigurationError(f"repetition {rep} has {count} MEASURE events")

    def jsonl(self) -> str:
        return "".join(_EVENT_ENCODER.encode(e) + "\n" for e in self.events)

    def write(self, path):
        self.validate()
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.jsonl())


def load_transcript_events(path) -> list[dict]:
    """Parse a transcript JSONL file; reports every corrupt line, undecodable bytes included."""
    events, bad = [], []
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        lines = f.readlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            bad.append(lineno)
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict) or "step" not in obj or "rep" not in obj:
                raise ValueError("not an event object")
            events.append(obj)
        except ValueError:
            bad.append(lineno)
    if bad:
        raise ConfigurationError(
            f"corrupt transcript lines: {', '.join(str(b) for b in bad)}")
    if not events:
        raise ConfigurationError("transcript is empty")
    return events


@dataclass
class RunResult:
    """Decoded tally plus per-repetition detail."""

    scheme: str
    m: int | str
    outcomes: list
    p: list | None = None
    statistics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"scheme": self.scheme, "m": self.m, "outcomes": self.outcomes,
                "p": self.p, "statistics": self.statistics}


def _require_scheme(config: BallotConfig, scheme: Scheme):
    if config.scheme is not scheme:
        raise ConfigurationError(f"needs a {scheme.value} config, got {config.scheme.value}")


def _parse_votes(config: BallotConfig, votes, scheme: Scheme) -> list[Vote]:
    """The votes of a ``scheme`` run, parsed and counted; a wrong scheme is reported first."""
    _require_scheme(config, scheme)
    parsed = [Vote.parse(v) for v in votes]
    if len(parsed) != config.N:
        raise ConfigurationError(f"expected {config.N} votes, got {len(parsed)}")
    return parsed


def _cast(d: int, thetas) -> np.ndarray:
    """Correlated amplitudes after voter i multiplies c_k by e^{ik thetas[..., i]}, in order.

    ``thetas`` is (N,) for one round or (rows, N); each cast row's norm
    must be within ATOL of 1. A non-finite angle makes its phase row, and
    so its cast row, NaN, which fails that check. There is one phase row
    e^{ik theta} per distinct angle, matched by bit pattern (0.0 and -0.0
    stay apart), so a DB or honest SECURE row, which holds at most two
    angles, takes at most two complex exps. numpy's complex exp is
    elementwise, so a shared row has the bits of a per-voter exp. The
    product is still always ``np.multiply(c, phase)``: numpy's complex
    multiply is not bitwise commutative on every SIMD target, and
    ``c * phase`` with a large temporary phase would run in place as phase
    times c, so a row's bits would depend on its batch.
    """
    thetas = np.asarray(thetas, dtype=float)
    # The distinct bit patterns, sorted, and each voter's index among them:
    # np.unique(..., return_inverse=True) without its fixed cost.
    bits = thetas.view(np.uint64)
    ordered = np.sort(bits, axis=None)
    first = np.ones(ordered.shape, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    which = np.searchsorted(distinct, bits)
    phases = np.exp(1j * np.arange(d) * distinct.view(float)[:, None])
    c = np.full(thetas.shape[:-1] + (d,), 1 / math.sqrt(d), dtype=complex)
    for i in range(thetas.shape[-1]):
        c = np.multiply(c, phases[which[..., i]])
    # np.linalg.norm's own formula for complex rows, without its dispatch.
    norms = np.sqrt(np.add.reduce((c.conj() * c).real, axis=-1))
    if not (np.abs(norms - 1.0) <= ATOL).all():
        raise ConfigurationError("correlated amplitudes are not normalized")
    return c


def _log_round(transcript: Transcript, rep: int, prepare: dict, votes, outcome):
    """Append one round's PREPARE ... MEASURE events; ``votes`` lists (site, payload) per voter."""
    transcript.event(rep, "PREPARE", payload=prepare)
    transcript.event(rep, "DISTRIBUTE")
    for site, payload in votes:
        transcript.event(rep, "VOTE", site=site, payload=payload)
    transcript.event(rep, "RETURN")
    transcript.event(rep, "MEASURE", outcome=outcome)


def _yes_angle(d: int, exponent):
    """The angle 2 pi (e mod d) / d cast for e yes votes; int arrays get the scalar bits."""
    return 2 * np.pi * (exponent % d) / d


def _vote_patterns(N: int) -> np.ndarray:
    """All 2^N yes/no patterns, (2^N, N): bit j of pattern i is voter j's vote, 1 if yes."""
    return (np.arange(2 ** N)[:, None] >> np.arange(N)) & 1


def _tb_shift(d: int, yes):
    """The travelling qudit's shift, the yes count mod d; ``yes`` has one entry per voter, 1 if yes.

    Entries may be arrays, one pattern per element.
    """
    return sum(yes) % d


def _phase_round(config: BallotConfig, exponents, commit_values, rng: np.random.Generator,
                 transcript: Transcript | None = None):
    """One DB or SURVEY round in the correlated basis; returns the decoded tally.

    Voter i applies the yes operator ``exponents[i]`` times: c_k *= e^{i 2 pi k e_i / d}.
    This costs O(d) per voter at any N.
    """
    d = config.d
    thetas = [_yes_angle(d, exponent) for exponent in exponents]
    m = int(phase_readings(_cast(d, thetas)[None], [rng.random()])[0])
    if transcript:
        _log_round(transcript, 0, {"scheme": config.scheme.value, "d": d, "N": config.N},
                   [(i, {"commitment": transcript.commit(0, i, value)})
                    for i, value in enumerate(commit_values)], m)
    return m


def run_db_vote(config: BallotConfig, votes, rng: np.random.Generator,
                transcript: Transcript | None = None) -> RunResult:
    """Distributed-ballot round: the tally is the number of yes votes."""
    choices = _parse_votes(config, votes, Scheme.DB)
    m = _phase_round(config, [int(c is Vote.YES) for c in choices],
                     [c.value for c in choices], rng, transcript)
    return RunResult("DB", m, [m])


def run_tb_vote(config: BallotConfig, votes, rng: np.random.Generator,
                transcript: Transcript | None = None) -> RunResult:
    """Travelling-ballot round; yes votes shift the moving qudit (site 1).

    The pair stays sum_k |k, k + s> / sqrt(d) with s = ``_tb_shift``, so
    ``decode_tb`` reads s whatever its one double is; the run draws that
    double and never builds the pair.
    """
    choices = _parse_votes(config, votes, Scheme.TB)
    rng.random()
    m = _tb_shift(config.d, [c is Vote.YES for c in choices])
    if transcript:
        _log_round(transcript, 0, {"scheme": "TB", "d": config.d, "N": config.N},
                   [(1, {"commitment": transcript.commit(0, i, c.value)})
                    for i, c in enumerate(choices)], m)
    stats = {}
    if config.N == 2 and m in TWO_VOTER_TB_LABELS:
        stats["label"] = TWO_VOTER_TB_LABELS[m]
    return RunResult("TB", m, [m], statistics=stats)


def honest_thetas(config: BallotConfig, choices) -> list[float]:
    """The angle each SECURE voter casts: theta_yes for a yes vote, else theta_no."""
    return [config.theta_yes if c is Vote.YES else config.theta_no for c in choices]


def _pairing_outcomes(config: BallotConfig, u) -> list:
    """Each voter's pairing outcome r, uniform on 0..d-1, from its double in ``u[..., :N]``."""
    return _pick(_cdf(np.ones(config.d)), np.asarray(u)[..., :config.N]).tolist()


def _secure_trials(config: BallotConfig, theta_rows, u) -> tuple[list, list, list]:
    """Anti-reuse trials in the correlated basis; per-trial (tallies, outcomes, ps) lists.

    ``u`` is (T, R, k): trial, repetition, then doubles of that repetition's
    stream, of which only the last, the tally double (N of all N + 1, or
    the one an attack computes), is read. ``theta_rows`` holds one angle
    row per trial, or one row every trial shares. Voter i's pairing outcome
    r_i only multiplies the state by the global phase e^{-i r_i theta_i},
    so the cast is c_k *= e^{ik theta_i} and ``run_secure_vote`` alone picks
    r_i, for its transcript. Each row is cast and read once for all its
    repetitions, and the (T, R) readings stay index arrays until the lists
    are built: ``outcomes[t]`` and ``ps[t]`` are trial t's R readings (m,
    then p), and ``tallies[t]`` their common m if all R are equal, else
    CHEAT_DETECTED. So a trial agrees when its R tallies are one valid m.
    """
    u = np.asarray(u, dtype=float)
    d = config.d
    ms, ps = secure_tally(_cast(d, np.reshape(theta_rows, (-1, config.N)))[:, None], config,
                          u[..., -1])
    agreed = np.where(np.logical_and.reduce(ms == ms[:, :1], axis=1), ms[:, 0], d)
    cheat = _labels(d)
    return cheat[agreed].tolist(), cheat[ms].tolist(), ps.tolist()


def run_secure_vote(config: BallotConfig, votes, rng: np.random.Generator,
                    repetitions: int = 3, transcript: Transcript | None = None) -> RunResult:
    """Anti-reuse scheme: R independent executions must agree.

    Each repetition prepares a fresh ballot and fresh voting qudits from
    its own child stream, and every voter casts ``honest_thetas``; tallies
    that are not one valid m report CHEAT_DETECTED. A logged VOTE event
    carries the voter's pairing outcome r.
    """
    choices = _parse_votes(config, votes, Scheme.SECURE)
    _at_least("repetitions", repetitions, 1)
    u = [g.random(config.N + 1) for g in rng.spawn(repetitions)]
    [m], [outcomes], [ps] = _secure_trials(config, [honest_thetas(config, choices)], [u])
    if transcript:
        for rep, (rs, rep_m, p) in enumerate(zip(_pairing_outcomes(config, u), outcomes, ps)):
            _log_round(transcript, rep, {"scheme": "SECURE", "d": config.d, "N": config.N,
                                         "repetitions": repetitions},
                       [(i, {"commitment": transcript.commit(rep, i, c.value), "r": rs[i]})
                        for i, c in enumerate(choices)], {"p": p, "m": rep_m})
    return RunResult("SECURE", m, outcomes, ps,
                     {"repetitions": repetitions, "agreement": m != CHEAT_DETECTED})


def run_survey(config: BallotConfig, euros, rng: np.random.Generator,
               transcript: Transcript | None = None) -> RunResult:
    """Anonymous survey: each participant votes yes once per Euro."""
    _require_scheme(config, Scheme.SURVEY)
    try:
        amounts = [int(e) for e in euros]
    except ValueError:
        raise ConfigurationError(f"SURVEY amounts must be integers, got {euros}")
    if len(amounts) != config.N:
        raise ConfigurationError(f"expected {config.N} amounts, got {len(amounts)}")
    if any(e < 0 for e in amounts):
        raise ConfigurationError("amounts must be non-negative")
    total = sum(amounts)
    if total > config.max_total:  # BallotConfig keeps max_total below d, so no alias
        raise ConfigurationError(f"total {total} exceeds the declared max {config.max_total}")
    m = _phase_round(config, amounts, amounts, rng, transcript)
    return RunResult("SURVEY", m, [m], statistics={"total": m})


@dataclass
class DiningResult:
    announcements: list[int]
    parity: int
    nsa_paid: bool


def dining_announcements(n: int, payer: int | None, coins: dict) -> list[int]:
    """Deterministic core: coins[(j, k)] with j < k are the shared bits."""
    out = []
    for k in range(n):
        s = sum(coins[(min(j, k), max(j, k))] for j in range(n) if j != k) % 2
        if payer == k:
            s ^= 1
        out.append(s)
    return out


def classical_dining(n: int, payer: int | None, rng: np.random.Generator) -> DiningResult:
    """Chaum's protocol: the announced parity is 1 iff a participant paid."""
    if n < 3:
        raise ConfigurationError(f"dining cryptographers needs n >= 3, got {n}")
    if payer is not None and not 0 <= payer < n:
        raise ConfigurationError(f"payer index {payer} out of range")
    coins = {(j, k): int(rng.integers(0, 2)) for j in range(n) for k in range(j + 1, n)}
    ann = dining_announcements(n, payer, coins)
    parity = sum(ann) % 2
    return DiningResult(ann, parity, nsa_paid=(parity == 0))


def classical_modular_vote(votes, rng: np.random.Generator) -> int:
    """Pairwise-key tally: antisymmetric keys cancel in the broadcast sum.

    Arithmetic runs modulo N + 1 so that every tally 0..N is
    representable, mirroring the d > N requirement of the quantum
    scheme.
    """
    bits = [int(v) for v in votes]
    n = len(bits)
    if n < 2:
        raise ConfigurationError(f"modular vote needs N >= 2, got {n}")
    if any(b not in (0, 1) for b in bits):
        raise ConfigurationError("votes must be bits")
    modulus = n + 1
    keys = {}
    for j in range(n):
        for k in range(j + 1, n):
            c = int(rng.integers(0, modulus))
            keys[(j, k)] = c
            keys[(k, j)] = (-c) % modulus
    messages = [(bits[k] + sum(keys[(j, k)] for j in range(n) if j != k)) % modulus
                for k in range(n)]
    return sum(messages) % modulus
