"""Command-line front end: run scenarios, verify invariants, read reports.

Exit codes: 0 clean / pass, 1 cheating detected or verification failed,
2 configuration problem. Scenario configs are strict JSON (unknown keys
rejected) and every run requires an explicit seed; the only environment
override honored is QVOTE_OUT_DIR for the output directory.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import rng as rngmod
from .adversary import (
    authority_product_ballot,
    collusion_attack_tb,
    detect_inconsistent_results,
    mismatched_voting_states,
    multi_vote_plain,
    phase_estimate_attack,
)
from .ballots import (
    CHEAT_DETECTED,
    BallotConfig,
    Scheme,
    SecureSecrets,
    Vote,
    draw_secrets,
    prepare_db_ballot,
    prepare_tb_ballot,
)
from .errors import ConfigurationError
from .protocols import (
    Transcript,
    load_transcript_events,
    run_db_vote,
    run_secure_vote,
    run_survey,
    run_tb_vote,
)
from .verify import (
    ansatz_check,
    check_privacy,
    check_reduced_identity,
    qubit_nogo_search,
    qutrit_solution_check,
)

EXIT_CLEAN = 0
EXIT_CHEATING = 1
EXIT_CONFIG = 2

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
        "out_dir": {"type": "string"},
    },
}
# Built once: jsonschema.validate would check the schema itself on every call.
CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def _fail_config(message: str) -> int:
    print(f"config error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _coerce(value: str):
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        return value


def _apply_overrides(cfg: dict, overrides) -> dict:
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
    return cfg


def _load_scenario(args) -> dict:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.trials is not None:
        cfg["trials"] = args.trials
    if args.out is not None:
        cfg["out_dir"] = args.out
    _apply_overrides(cfg, args.override)
    error = jsonschema.exceptions.best_match(CONFIG_VALIDATOR.iter_errors(cfg))
    if error is not None:
        path = ".".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigurationError(f"field {path}: {error.message}")
    return cfg


def _resolve_votes(cfg: dict, n: int, scheme: Scheme):
    if "votes" in cfg:
        votes = cfg["votes"]
        if len(votes) != n:
            raise ConfigurationError(f"votes has length {len(votes)}, expected {n}")
        if scheme is Scheme.SURVEY:
            try:
                return [int(v) for v in votes]
            except ValueError:
                raise ConfigurationError(f"SURVEY amounts must be integers, got {votes}")
        return [Vote.parse(v) for v in votes]
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


def _attack_transcript(run_id: str, seed: int, scheme: str, d: int, n: int,
                       outcomes: list) -> Transcript:
    """Minimal event log for attack scenarios: one MEASURE per trial."""
    t = Transcript(run_id, seed)
    for trial, outcome in enumerate(outcomes):
        t.event(trial, "PREPARE", payload={"scheme": scheme, "d": d, "N": n})
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
        detected = False
    elif name == "multi_vote":
        report = multi_vote_plain(config, votes, attack.get("cheater", 0),
                                  attack.get("extra", 1), rng)
        outcomes = [report.m]
        detected = report.m == CHEAT_DETECTED
    elif name == "phase_estimate":
        report = phase_estimate_attack(config, attack.get("cheater", 0),
                                       attack.get("scale", 1.0), trials, rng,
                                       votes=votes,
                                       repetitions=cfg.get("repetitions", 3))
        outcomes = [t["outcomes"] for t in report.extras["per_trial"]]
        detected = any(report.detection_verdicts)
    elif name == "product_ballot":
        report = authority_product_ballot(config, votes, rng, trials=trials,
                                          honest_ballot=attack.get("honest_ballot", False))
        # Hit counts are not tallies; the key keeps report from comparing them.
        outcomes = [{"hits": k} for k in report.extras["per_trial_correct"]]
        detected = False
    elif name == "mismatched_thetas":
        shifts = attack.get("yes_l_shifts", list(range(config.N)))
        if len(shifts) != config.N:
            raise ConfigurationError(f"yes_l_shifts needs {config.N} entries")
        d, s = config.d, config.secrets
        thetas = [(2 * np.pi * (s.l_y + shift) / d + s.delta, config.theta_no)
                  for shift in shifts]
        report = mismatched_voting_states(config, thetas, votes, rng, trials=trials,
                                          repetitions=cfg.get("repetitions", 3))
        outcomes = [r["m"] for r in report.extras["runs"]]
        detected = any(m == CHEAT_DETECTED for m in outcomes)
    else:
        raise ConfigurationError(f"unknown attack {name!r}")
    payload = report.to_dict()
    payload["seed"] = cfg["seed"]
    return payload, outcomes, detected


def cmd_run(args) -> int:
    try:
        cfg = _load_scenario(args)
        config = _build_config(cfg)
        scheme = config.scheme
        votes = _resolve_votes(cfg, config.N, scheme)
        seed = cfg["seed"]
        run_id = f"{scheme.value.lower()}-d{config.d}-n{config.N}-seed{seed}"
        out_dir = Path(os.environ.get("QVOTE_OUT_DIR") or cfg.get("out_dir", "."))
        out_dir.mkdir(parents=True, exist_ok=True)

        if "attack" in cfg:
            result_payload, outcomes, detected = _run_attack(cfg, config, votes)
            transcript = _attack_transcript(run_id, seed, scheme.value, config.d,
                                            config.N, outcomes)
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
            detected = result.m == CHEAT_DETECTED
    except ConfigurationError as exc:
        return _fail_config(str(exc))

    transcript_path = out_dir / f"{run_id}.transcript.jsonl"
    result_path = out_dir / f"{run_id}.result.json"
    transcript.write(transcript_path)
    result_path.write_text(json.dumps(result_payload, sort_keys=True, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {transcript_path}")
    print(f"wrote {result_path}")
    print(json.dumps(result_payload, sort_keys=True))
    return EXIT_CHEATING if detected else EXIT_CLEAN


def _floats(name: str, text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigurationError(f"--{name} needs comma-separated numbers, got {text!r}")


def cmd_verify(args) -> int:
    try:
        if args.target == "privacy":
            report = check_privacy(args.scheme, args.d, args.n, tolerance=args.tolerance)
            print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
            return EXIT_CLEAN if report.passed else EXIT_CHEATING
        if args.target == "reduced":
            if args.scheme.upper() == "DB":
                state = prepare_db_ballot(args.d, args.n)
            else:
                state = prepare_tb_ballot(args.d)
            deviations = {site: check_reduced_identity(state, [site])
                          for site in range(state.num_sites)}
            print(json.dumps({"single_site_deviations": deviations,
                              "tolerance": args.tolerance}, sort_keys=True, indent=2))
            worst = max(deviations.values())
            return EXIT_CLEAN if worst <= args.tolerance else EXIT_CHEATING
        if args.target == "nogo":
            rng = rngmod.stream(args.seed, rngmod.TRIAL)
            minimum, params = qubit_nogo_search(args.restarts, args.iterations, rng)
            qutrit = qutrit_solution_check()
            print(json.dumps({
                "qubit_min_residual": minimum,
                "qutrit_residual": qutrit,
                "floor": args.floor,
                "best": {"nu": params.nu, "theta": params.theta,
                         "m_hat": params.m_hat.tolist(), "n_hat": params.n_hat.tolist()},
            }, sort_keys=True, indent=2))
            ok = minimum >= args.floor and qutrit <= 1e-12
            return EXIT_CLEAN if ok else EXIT_CHEATING
        if args.target == "ansatz":
            d = args.d
            etas = (_floats("etas", args.etas) if args.etas
                    else [2 * np.pi * j / d for j in range(d)])
            alphas = (_floats("alphas", args.alphas) if args.alphas
                      else [1 / math.sqrt(d)] * d)
            result = ansatz_check(d, etas, alphas, tolerance=args.tolerance)
            print(json.dumps(result.to_dict(), sort_keys=True, indent=2))
            return EXIT_CLEAN if result.passed else EXIT_CHEATING
        raise ConfigurationError(f"unknown verify target {args.target!r}")
    except ConfigurationError as exc:
        return _fail_config(str(exc))


def cmd_report(args) -> int:
    try:
        events = load_transcript_events(args.transcript)
    except (ConfigurationError, OSError) as exc:
        return _fail_config(str(exc))

    prepare = next((e for e in events if e["step"] == "PREPARE"), None)
    meta = (prepare or {}).get("payload") or {}
    outcomes = [e["outcome"] for e in events if e["step"] == "MEASURE"]
    if not outcomes:
        return _fail_config("transcript holds no MEASURE events")

    def tallies_of(outcome):
        # A list outcome holds one attack trial's repetition tallies.
        if isinstance(outcome, list):
            return outcome
        return [outcome.get("m") if isinstance(outcome, dict) else outcome]

    # Product-ballot trials log {"hits": k}, the votes the authority read:
    # counts that differ between trials by design, so nothing is compared.
    hits = [o["hits"] for o in outcomes if isinstance(o, dict) and "hits" in o]
    tallies = hits or [t for o in outcomes for t in tallies_of(o)]
    histogram: dict = {}
    for t in tallies:
        histogram[str(t)] = histogram.get(str(t), 0) + 1
    # Doubling lets a lone tally through the two-outcome rule; no verdict changes.
    verdict = "CLEAN" if hits else detect_inconsistent_results(tallies * 2)

    print(f"scheme: {meta.get('scheme', '?')}  d={meta.get('d', '?')}  N={meta.get('N', '?')}")
    print(f"repetitions: {len(tallies)}")
    print(f"outcomes: {tallies}")
    print(f"histogram: {json.dumps(histogram, sort_keys=True)}")
    if hits:
        print("verdict: CLEAN, hit counts of a product-ballot attack are not tallies")
    elif verdict == "CLEAN":
        head = tallies[0]
        ps = [o.get("p") for o in outcomes if isinstance(o, dict)]
        suffix = f", p={ps[0]}" if ps else ""
        print(f"verdict: CLEAN, m={head}{suffix}")
    else:
        print("verdict: CHEATING suspected, results discarded")
    n = meta.get("N")
    if isinstance(n, int) and meta.get("scheme") in ("DB", "TB", "SECURE"):
        # Information accounting labels for yes/no votes: N voters times
        # log2 of the option count in, log2 of the result count out.
        print(f"I_i = N log2|X| = {n * math.log2(2):.3f} bits")
        print(f"I_f = log2|Y| = {math.log2(n + 1):.3f} bits")
    return EXIT_CLEAN if verdict == "CLEAN" else EXIT_CHEATING


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qvote",
                                     description="Qudit anonymous-voting simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario config")
    run.add_argument("--config", required=True, help="scenario JSON path")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument("--trials", type=int, default=None, help="override attack trials")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--override", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config field (dotted paths)")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="check protocol invariants")
    vsub = verify.add_subparsers(dest="target", required=True)

    privacy = vsub.add_parser("privacy", help="overlap conditions over all vote vectors")
    privacy.add_argument("--scheme", required=True, choices=["db", "tb", "DB", "TB"])
    privacy.add_argument("--d", type=int, required=True)
    privacy.add_argument("--n", type=int, required=True)
    privacy.add_argument("--tolerance", type=float, default=1e-10)
    privacy.set_defaults(func=cmd_verify)

    reduced = vsub.add_parser("reduced", help="single-site total-mixture check")
    reduced.add_argument("--scheme", default="db", choices=["db", "tb", "DB", "TB"])
    reduced.add_argument("--d", type=int, required=True)
    reduced.add_argument("--n", type=int, required=True)
    reduced.add_argument("--tolerance", type=float, default=1e-10)
    reduced.set_defaults(func=cmd_verify)

    nogo = vsub.add_parser("nogo", help="two-qubit feasibility search")
    nogo.add_argument("--restarts", type=int, default=200)
    nogo.add_argument("--iterations", type=int, default=500)
    nogo.add_argument("--seed", type=int, default=0)
    nogo.add_argument("--floor", type=float, default=0.0,
                      help="fail if the minimum residual drops below this")
    nogo.set_defaults(func=cmd_verify)

    ansatz = vsub.add_parser("ansatz", help="eigenphase condition check")
    ansatz.add_argument("--d", type=int, required=True)
    ansatz.add_argument("--etas", default=None, help="comma-separated eigenphases")
    ansatz.add_argument("--alphas", default=None, help="comma-separated moduli")
    ansatz.add_argument("--tolerance", type=float, default=1e-10)
    ansatz.set_defaults(func=cmd_verify)

    report = sub.add_parser("report", help="summarize a transcript JSONL file")
    report.add_argument("transcript", help="path to the transcript")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
