"""Command-line front end: run scenarios, verify invariants, read reports.

Exit codes: 0 clean / pass, 1 cheating detected or verification failed,
2 configuration problem; ``run`` and ``report`` exit by one rule,
``verdict`` on a transcript's MEASURE events. Scenario configs are
strict JSON (unknown keys, integral floats, NaN and Infinity rejected)
and every run requires an explicit seed; ``run`` sets fields only by
``--override`` and reads no environment variable. ``check_config``
checks a config by hand and reports its first problem as
``field <path>: <message>``: the object's type, its unknown keys, its
missing keys, then each present field in the table's order, depth first;
a value's type before its bounds, an array's length before its items.
"""

import argparse
import json
import math
import sys
from collections import Counter
from pathlib import Path

from . import rng as rngmod
from .adversary import (
    CHEATING,
    CLEAN,
    authority_product_ballot,
    collusion_attack_tb,
    detect_inconsistent_results,
    mismatched_voting_states,
    multi_vote_plain,
    phase_estimate_attack,
)
from .ballots import (
    BallotConfig,
    Scheme,
    SecureSecrets,
    Vote,
    draw_secrets,
    prepare_db_ballot,
    prepare_tb_ballot,
)
from .errors import ConfigurationError, _at_least
from .protocols import (
    Transcript,
    _require_scheme,
    load_transcript_events,
    run_db_vote,
    run_secure_vote,
    run_survey,
    run_tb_vote,
)
from .verify import (
    NOGO_FLOOR,
    TOLERANCE,
    ansatz_check,
    check_privacy,
    check_reduced_identity,
    qubit_nogo_search,
    qutrit_solution_check,
)

EXIT_CLEAN = 0
EXIT_CHEATING = 1
EXIT_CONFIG = 2

# JSON types by exact Python type: an integer is an int (not 7.0), a number never a bool.
_TYPES = {"integer": (int,), "number": (int, float), "string": (str,), "boolean": (bool,),
          "array": (list,), "object": (dict,)}


def _fail(path: tuple, message: str):
    raise ConfigurationError(f"field {'.'.join(map(str, path)) or '<root>'}: {message}")


def _spec(*types, low=None, high=None, enum=None, items=None, size=None, required=(),
          fields=None):
    """A checker of one JSON value that raises on its first problem, in this order."""
    def check(value, path=()):
        if enum is not None and value not in enum:
            _fail(path, f"{value!r} is not one of {enum!r}")
        if types and not any(type(value) in _TYPES[t] for t in types):
            _fail(path, f"{value!r} is not of type {', '.join(map(repr, types))}")
        if low is not None and value < low:
            _fail(path, f"{value!r} is less than the minimum of {low!r}")
        if high is not None and value > high:
            _fail(path, f"{value!r} is greater than the maximum of {high!r}")
        if size is not None and len(value) != size:
            _fail(path, f"{value!r} is too {'short' if len(value) < size else 'long'}")
        for i, item in enumerate(value if items else ()):
            items(item, path + (i,))
        extra = sorted(k for k in value if k not in fields) if fields else ()
        if extra:
            _fail(path, f"Additional properties are not allowed ({', '.join(map(repr, extra))}"
                        f" {'was' if len(extra) == 1 else 'were'} unexpected)")
        for key in required:
            if key not in value:
                _fail(path, f"{key!r} is a required property")
        for key, field in (fields or {}).items():
            if key in value:
                field(value[key], path + (key,))
    return check


_INT, _NONNEG = _spec("integer"), _spec("integer", low=0)
check_config = _spec("object", required=("scheme", "d", "n", "seed"), fields=dict(
    scheme=_spec(enum=["DB", "TB", "SECURE", "SURVEY"]),
    d=_spec("integer", low=2), n=_NONNEG, seed=_NONNEG,
    votes=_spec("array", items=_spec("string", "integer")),
    vote_distribution=_spec("object", required=("p_yes",),
                            fields=dict(p_yes=_spec("number", low=0, high=1))),
    secrets=_spec("object", required=("l_y", "l_n", "delta"),
                  fields=dict(l_y=_INT, l_n=_INT, delta=_spec("number"))),
    repetitions=_spec("integer", low=1), max_total=_NONNEG, trials=_spec("integer", low=1),
    attack=_spec("object", required=("name",), fields=dict(
        name=_spec(enum=["collusion", "multi_vote", "phase_estimate", "product_ballot",
                         "mismatched_thetas"]),
        colluders=_spec("array", size=2, items=_INT), cheater=_NONNEG, extra=_NONNEG,
        scale=_spec("number", low=0), honest_ballot=_spec("boolean"),
        yes_l_shifts=_spec("array", items=_INT))),
))


def __getattr__(name: str):
    # Imports jsonschema only when read: bench/tracing.py proxies cli.jsonschema
    # until the bench refresh (ROADMAP item 1) drops that, and this hook with it.
    if name != "jsonschema":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return __import__(name)


def _no_constant(name: str):
    raise ConfigurationError(f"{name} is not allowed in a config")


def _coerce(value: str):
    try:
        return json.loads(value, parse_constant=_no_constant)
    except json.JSONDecodeError:
        return value


def _apply_overrides(cfg: dict, overrides):
    for item in overrides or []:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not key=value")
        key, _, raw = item.partition("=")
        target, parts = cfg, key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigurationError(f"override {key!r}: {part!r} is not an object")
        target[parts[-1]] = _coerce(raw)


def _load_scenario(args) -> dict:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}")
    try:
        cfg = json.loads(text, parse_constant=_no_constant)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if isinstance(cfg, dict):  # any other root fails check_config on its type
        _apply_overrides(cfg, args.override)
    check_config(cfg)
    return cfg


def _resolve_votes(cfg: dict, n: int, scheme: Scheme):
    """The config's votes as given (every run and attack parses and counts them), or drawn."""
    if "votes" in cfg:
        return cfg["votes"]
    if scheme is Scheme.SURVEY:
        raise ConfigurationError("SURVEY scenarios require explicit amounts in 'votes'")
    p_yes = cfg.get("vote_distribution", {}).get("p_yes", 0.5)
    vote_rng = rngmod.stream(cfg["seed"], rngmod.VOTES)
    return [Vote.YES if vote_rng.random() < p_yes else Vote.NO for _ in range(n)]


def _build_config(cfg: dict) -> BallotConfig:
    scheme = Scheme(cfg["scheme"])
    secrets = None
    max_total = None
    if scheme is Scheme.SECURE:
        if "secrets" in cfg:
            s = cfg["secrets"]
            secrets = SecureSecrets(s["l_y"], s["l_n"], s["delta"])
        else:
            secrets = draw_secrets(cfg["d"], cfg["n"],
                                   rngmod.stream(cfg["seed"], rngmod.AUTHORITY))
    if scheme is Scheme.SURVEY:
        max_total = cfg.get("max_total", cfg["d"] - 1)
    return BallotConfig(cfg["d"], cfg["n"], scheme, secrets=secrets, max_total=max_total)


def _attack_transcript(run_id: str, seed: int, config: BallotConfig, outcomes) -> Transcript:
    """Minimal event log for attack scenarios: one MEASURE per trial."""
    t = Transcript(run_id, seed)
    for trial, outcome in enumerate(outcomes):
        t.event(trial, "PREPARE",
                payload={"scheme": config.scheme.value, "d": config.d, "N": config.N})
        t.event(trial, "MEASURE", outcome=outcome)
    return t


def _run_attack(cfg: dict, config: BallotConfig, votes):
    attack = cfg["attack"]
    name = attack["name"]
    trials = cfg.get("trials", 1)
    rng = rngmod.stream(cfg["seed"], rngmod.TRIAL)
    if name == "collusion":
        if "colluders" not in attack:
            raise ConfigurationError("collusion attack requires 'colluders'")
        report = collusion_attack_tb(config, votes, attack["colluders"], trials, rng)
        outcomes = report.inferred_secrets["in_between_yes_counts"]
    elif name == "multi_vote":
        report = multi_vote_plain(config, votes, attack.get("cheater", 0),
                                  attack.get("extra", 1), rng)
        outcomes = [report.m]
    elif name == "phase_estimate":
        report = phase_estimate_attack(config, attack.get("cheater", 0),
                                       attack.get("scale", 1.0), trials, rng,
                                       votes=votes,
                                       repetitions=cfg.get("repetitions", 3))
        outcomes = [t["outcomes"] for t in report.extras["per_trial"]]
    elif name == "product_ballot":
        report = authority_product_ballot(config, votes, rng, trials=trials,
                                          honest_ballot=attack.get("honest_ballot", False))
        # Hit counts are not tallies; the key keeps verdict from comparing them.
        outcomes = [{"hits": k} for k in report.extras["per_trial_correct"]]
    else:  # mismatched_thetas: check_config admits no other name
        _require_scheme(config, Scheme.SECURE)  # before config.secrets is read
        shifts = attack.get("yes_l_shifts", list(range(config.N)))
        thetas = [(config.theta(config.secrets.l_y + shift), config.theta_no)
                  for shift in shifts]
        report = mismatched_voting_states(config, thetas, votes, rng, trials=trials,
                                          repetitions=cfg.get("repetitions", 3))
        outcomes = [r["m"] for r in report.extras["runs"]]
    payload = report.to_dict()
    payload["seed"] = cfg["seed"]
    return payload, outcomes


def verdict(events) -> tuple[list, list, str | None]:
    """The exit rule of ``run`` and ``report``: (outcomes, tallies, CLEAN or CHEATING).

    The tallies of a transcript's MEASURE outcomes must agree: a list
    outcome holds one attack trial's repetition tallies, a dict one
    round's ``m``. Product-ballot trials log {"hits": k}, votes the
    authority read that differ between trials by design: the hit counts
    come back uncompared, with verdict None.
    """
    outcomes = [e.get("outcome") for e in events if e["step"] == "MEASURE"]
    if not outcomes:
        raise ConfigurationError("transcript holds no MEASURE events")
    hits = [o["hits"] for o in outcomes if isinstance(o, dict) and "hits" in o]
    if hits:
        return outcomes, hits, None
    tallies = [t for o in outcomes
               for t in (o if isinstance(o, list) else [o.get("m") if isinstance(o, dict) else o])]
    if not all(type(t) in (int, str) for t in tallies):
        raise ConfigurationError("MEASURE outcomes must hold integer or string tallies")
    return outcomes, tallies, detect_inconsistent_results(tallies)


def cmd_run(args) -> int:
    cfg = _load_scenario(args)
    config = _build_config(cfg)
    scheme = config.scheme
    votes = _resolve_votes(cfg, config.N, scheme)
    seed = cfg["seed"]
    run_id = f"{scheme.value.lower()}-d{config.d}-n{config.N}-seed{seed}"
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if "attack" in cfg:
        result_payload, outcomes = _run_attack(cfg, config, votes)
        transcript = _attack_transcript(run_id, seed, config, outcomes)
    else:
        transcript = Transcript(run_id, seed)
        run_rng = rngmod.stream(seed, rngmod.REPETITION)
        if scheme is Scheme.DB:
            result = run_db_vote(config, votes, run_rng, transcript=transcript)
        elif scheme is Scheme.TB:
            result = run_tb_vote(config, votes, run_rng, transcript=transcript)
        elif scheme is Scheme.SECURE:
            result = run_secure_vote(config, votes, run_rng,
                                     repetitions=cfg.get("repetitions", 3),
                                     transcript=transcript)
        else:
            result = run_survey(config, votes, run_rng, transcript=transcript)
        result_payload = result.to_dict()
        result_payload["seed"] = seed

    transcript_path = out_dir / f"{run_id}.transcript.jsonl"
    result_path = out_dir / f"{run_id}.result.json"
    transcript.write(transcript_path)
    result_path.write_text(json.dumps(result_payload, sort_keys=True, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {transcript_path}")
    print(f"wrote {result_path}")
    print(json.dumps(result_payload, sort_keys=True))
    return EXIT_CHEATING if verdict(transcript.events)[2] == CHEATING else EXIT_CLEAN


def _floats(name: str, text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",")]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise ConfigurationError(f"--{name} needs comma-separated finite numbers, got {text!r}")


def cmd_verify_privacy(args) -> int:
    report = check_privacy(args.scheme, args.d, args.n)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return EXIT_CLEAN if report.passed else EXIT_CHEATING


def cmd_verify_reduced(args) -> int:
    config = BallotConfig(args.d, args.n, Scheme(args.scheme.upper()))
    state = (prepare_db_ballot(config.d, config.N) if config.scheme is Scheme.DB
             else prepare_tb_ballot(config.d))
    deviations = {site: check_reduced_identity(state, [site])
                  for site in range(state.num_sites)}
    print(json.dumps({"single_site_deviations": deviations,
                      "tolerance": TOLERANCE}, sort_keys=True, indent=2))
    return EXIT_CLEAN if max(deviations.values()) <= TOLERANCE else EXIT_CHEATING


def cmd_verify_nogo(args) -> int:
    rng = rngmod.stream(_at_least("seed", args.seed, 0), rngmod.TRIAL)
    minimum, params = qubit_nogo_search(args.restarts, args.iterations, rng)
    qutrit = qutrit_solution_check()
    print(json.dumps({
        "qubit_min_residual": minimum,
        "qutrit_residual": qutrit,
        "floor": NOGO_FLOOR,
        "best": {"nu": params.nu, "theta": params.theta,
                 "m_hat": params.m_hat.tolist(), "n_hat": params.n_hat.tolist()},
    }, sort_keys=True, indent=2))
    ok = minimum >= NOGO_FLOOR and qutrit <= 1e-12
    return EXIT_CLEAN if ok else EXIT_CHEATING


def cmd_verify_ansatz(args) -> int:
    etas = _floats("etas", args.etas) if args.etas else None
    alphas = _floats("alphas", args.alphas) if args.alphas else None
    result = ansatz_check(args.d, etas, alphas)
    print(json.dumps(result.to_dict(), sort_keys=True, indent=2))
    return EXIT_CLEAN if result.passed else EXIT_CHEATING


def cmd_report(args) -> int:
    try:
        events = load_transcript_events(args.transcript)
    except OSError as exc:
        raise ConfigurationError(str(exc)) from exc

    prepare = next((e for e in events if e["step"] == "PREPARE"), None)
    meta = (prepare or {}).get("payload") or {}
    if not isinstance(meta, dict):
        raise ConfigurationError(f"PREPARE payload must be an object, got {meta!r}")
    n = meta.get("N")
    if isinstance(n, int) and not 0 <= n <= sys.float_info.max:
        raise ConfigurationError(f"PREPARE payload N must be a voter count, got {n}")
    outcomes, tallies, found = verdict(events)
    histogram = Counter(map(str, tallies))

    print(f"scheme: {meta.get('scheme', '?')}  d={meta.get('d', '?')}  N={meta.get('N', '?')}")
    print(f"repetitions: {len(tallies)}")
    print(f"outcomes: {tallies}")
    print(f"histogram: {json.dumps(histogram, sort_keys=True)}")
    if found is None:
        print("verdict: CLEAN, hit counts of a product-ballot attack are not tallies")
    elif found == CLEAN:
        ps = [o.get("p") for o in outcomes if isinstance(o, dict)]
        suffix = f", p={ps[0]}" if ps else ""
        print(f"verdict: CLEAN, m={tallies[0]}{suffix}")
    else:
        print("verdict: CHEATING suspected, results discarded")
    if isinstance(n, int) and meta.get("scheme") in ("DB", "TB", "SECURE"):
        # Information accounting labels for yes/no votes: N voters times
        # log2 of the option count in, log2 of the result count out.
        print(f"I_i = N log2|X| = {n * math.log2(2):.3f} bits")
        print(f"I_f = log2|Y| = {math.log2(n + 1):.3f} bits")
    return EXIT_CHEATING if found == CHEATING else EXIT_CLEAN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qvote",
                                     description="Qudit anonymous-voting simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario config")
    run.add_argument("--config", required=True, help="scenario JSON path")
    run.add_argument("--out", default=".", help="output directory")
    run.add_argument("--override", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config field (dotted paths)")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="check protocol invariants")
    vsub = verify.add_subparsers(dest="target", required=True)

    privacy = vsub.add_parser("privacy", help="overlap conditions over all vote vectors")
    privacy.add_argument("--scheme", required=True, choices=["db", "tb", "DB", "TB"])
    privacy.add_argument("--d", type=int, required=True)
    privacy.add_argument("--n", type=int, required=True)
    privacy.set_defaults(func=cmd_verify_privacy)

    reduced = vsub.add_parser("reduced", help="single-site total-mixture check")
    reduced.add_argument("--scheme", default="db", choices=["db", "tb", "DB", "TB"])
    reduced.add_argument("--d", type=int, required=True)
    reduced.add_argument("--n", type=int, required=True)
    reduced.set_defaults(func=cmd_verify_reduced)

    nogo = vsub.add_parser("nogo", help="two-qubit feasibility search")
    nogo.add_argument("--restarts", type=int, default=200)
    nogo.add_argument("--iterations", type=int, default=500)
    nogo.add_argument("--seed", type=int, default=0)
    nogo.set_defaults(func=cmd_verify_nogo)

    ansatz = vsub.add_parser("ansatz", help="eigenphase condition check")
    ansatz.add_argument("--d", type=int, required=True)
    ansatz.add_argument("--etas", default=None, help="comma-separated eigenphases")
    ansatz.add_argument("--alphas", default=None, help="comma-separated moduli")
    ansatz.set_defaults(func=cmd_verify_ansatz)

    report = sub.add_parser("report", help="summarize a transcript JSONL file")
    report.add_argument("transcript", help="path to the transcript")
    report.set_defaults(func=cmd_report)

    return parser


# Built once: parse_args returns a fresh Namespace per call and copies the
# --override default list before appending, so calls share no state.
PARSER = build_parser()


def main(argv=None) -> int:
    """Run one command; bad input of any command ends here, in exit 2."""
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
