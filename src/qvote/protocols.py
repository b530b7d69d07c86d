"""End-to-end protocol runs, transcript logging, and classical baselines.

A run consumes a seeded generator and optionally appends events to a
Transcript. Events never contain plaintext choices, only salted
commitments, so a persisted transcript does not reveal votes; the salt
is derived from the master seed and is not serialized.

The honest runs are closed form: an honest ballot ends on one phase
state, read with certainty, so DB and SURVEY return m = sum e_i mod d, TB
its shift and SECURE p = m (l_y - l_n) mod d per repetition. Each still
draws the doubles its measurements would read; ``_log_round`` writes each
round's events. The SECURE attacks read their rows through
``_secure_trials``: each row is ``ballots._grid_rows`` at one (index,
offset) already measured against the no-phase the authority removes, read
once for all its repetitions, and the trials come back as flat per-trial
lists (tallies, outcomes, ps), with no per-trial result.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .ballots import (
    BallotConfig,
    Scheme,
    TWO_VOTER_TB_LABELS,
    Vote,
    _grid_rows,
    _labels,
    _tally_table,
    phase_readings,
)
from .errors import ConfigurationError, _at_least
from .qstate import _cdf, _pick

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


def _log_round(transcript: Transcript, rep: int, prepare: dict, votes, outcome):
    """Append one round's PREPARE ... MEASURE events; ``votes`` lists (site, payload) per voter."""
    transcript.event(rep, "PREPARE", payload=prepare)
    transcript.event(rep, "DISTRIBUTE")
    for site, payload in votes:
        transcript.event(rep, "VOTE", site=site, payload=payload)
    transcript.event(rep, "RETURN")
    transcript.event(rep, "MEASURE", outcome=outcome)


def _vote_patterns(N: int) -> np.ndarray:
    """All 2^N yes/no patterns, (2^N, N): bit j of pattern i is voter j's vote, 1 if yes."""
    return (np.arange(2 ** N)[:, None] >> np.arange(N)) & 1


def _yes_count(d: int, yes):
    """The yes count mod d, a DB tally and a TB shift; ``yes`` has one entry per voter, 1 if yes.

    Entries may be arrays, one pattern per element.
    """
    return sum(yes) % d


def _phase_round(config: BallotConfig, exponents, commit_values, rng: np.random.Generator,
                 transcript: Transcript | None = None):
    """One DB or SURVEY round; returns the decoded tally m = sum(exponents) mod d.

    Voter i applies the yes operator ``exponents[i]`` times, which leaves the
    ballot on omega_m: the round's one double reads m whatever it is.
    """
    d = config.d
    rng.random()
    m = sum(exponents) % d
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

    The pair stays sum_k |k, k + s> / sqrt(d) with s = ``_yes_count``, so
    ``decode_tb`` reads s whatever its one double is; the run draws that
    double and never builds the pair.
    """
    choices = _parse_votes(config, votes, Scheme.TB)
    rng.random()
    m = _yes_count(config.d, [c is Vote.YES for c in choices])
    if transcript:
        _log_round(transcript, 0, {"scheme": "TB", "d": config.d, "N": config.N},
                   [(1, {"commitment": transcript.commit(0, i, c.value)})
                    for i, c in enumerate(choices)], m)
    stats = {}
    if config.N == 2 and m in TWO_VOTER_TB_LABELS:
        stats["label"] = TWO_VOTER_TB_LABELS[m]
    return RunResult("TB", m, [m], statistics=stats)


def _pairing_outcomes(config: BallotConfig, u) -> list:
    """Each voter's pairing outcome r, uniform on 0..d-1, from its double in ``u[..., :N]``."""
    return _pick(_cdf(np.ones(config.d)), np.asarray(u)[..., :config.N]).tolist()


def _secure_trials(config: BallotConfig, index, offset, u) -> tuple[list, list, list]:
    """The SECURE attacks' anti-reuse trials in the correlated basis; per-trial lists.

    ``u`` is (T, R, k): trial, repetition, then doubles of that repetition's
    stream, of which only the last, the tally double (N of all N + 1, or
    the one an attack computes), is read. Each trial's state, once the
    authority removes the known no-phase e^{ik N theta_n}, is the grid row
    ``_grid_rows(d, index, offset)``: ``index`` and ``offset`` broadcast to
    one (index, offset) per trial, or one that every trial shares. Voter
    i's pairing outcome r_i only multiplies the state by the global phase
    e^{-i r_i theta_i}, so no trial picks r_i. Each row is read once for
    all its repetitions, p through ``phase_readings`` and m through
    ``_tally_table``, and the (T, R) readings stay index arrays until the
    lists are built: ``outcomes[t]`` and ``ps[t]`` are trial t's R readings
    (m, then p), and ``tallies[t]`` their common m if all R are equal, else
    CHEAT_DETECTED. So a trial agrees when its R tallies are one valid m.
    """
    d, s = config.d, config.secrets
    rows = _grid_rows(d, index, offset).reshape(-1, 1, d)
    ps = phase_readings(rows, np.asarray(u, dtype=float)[..., -1])
    ms = _tally_table(d, (s.l_y - s.l_n) % d)[ps]
    agreed = np.where(np.logical_and.reduce(ms == ms[:, :1], axis=1), ms[:, 0], d)
    cheat = _labels(d)
    return cheat[agreed].tolist(), cheat[ms].tolist(), ps.tolist()


def run_secure_vote(config: BallotConfig, votes, rng: np.random.Generator,
                    repetitions: int = 3, transcript: Transcript | None = None) -> RunResult:
    """Anti-reuse scheme: R independent executions must agree.

    Each repetition prepares a fresh ballot and voting qudits from its own
    child stream, which draws N + 1 doubles, and reads p = m (l_y - l_n) mod d
    once the no-phase is removed, m the yes count; so the R executions agree.
    A logged VOTE event carries the voter's pairing outcome r, from double i.
    """
    choices = _parse_votes(config, votes, Scheme.SECURE)
    _at_least("repetitions", repetitions, 1)
    u = [g.random(config.N + 1) for g in rng.spawn(repetitions)]
    m = sum(c is Vote.YES for c in choices)
    p = m * (config.secrets.l_y - config.secrets.l_n) % config.d
    if transcript:
        for rep, rs in enumerate(_pairing_outcomes(config, u)):
            _log_round(transcript, rep, {"scheme": "SECURE", "d": config.d, "N": config.N,
                                         "repetitions": repetitions},
                       [(i, {"commitment": transcript.commit(rep, i, c.value), "r": rs[i]})
                        for i, c in enumerate(choices)], {"p": p, "m": m})
    return RunResult("SECURE", m, [m] * repetitions, [p] * repetitions,
                     {"repetitions": repetitions, "agreement": True})


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
