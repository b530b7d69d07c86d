import json
import random
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

import reference
from qvote import verify
from qvote.cli import PARSER, check_config, main
from qvote.errors import ConfigurationError

SCENARIOS = Path(__file__).parent / "fixtures" / "scenarios"
GOLDEN = Path(__file__).parent / "fixtures" / "golden"
GOLDEN_RUNS = json.loads((GOLDEN / "runs.json").read_text())


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


class TestCmdRun:
    def test_db_honest_scenario(self, outdir, capsys):
        code = run_cli("run", "--config", SCENARIOS / "db_honest.json", "--out", outdir)
        assert code == 0
        result = json.loads((outdir / "db-d5-n4-seed42.result.json").read_text())
        assert result["m"] == 3
        assert (outdir / "db-d5-n4-seed42.transcript.jsonl").exists()

    def test_phase_attack_detection_exits_one(self, outdir):
        code = run_cli("run", "--config", SCENARIOS / "secure_phase_attack.json",
                       "--out", outdir)
        assert code == 1
        result = json.loads((outdir / "secure-d11-n3-seed3.result.json").read_text())
        assert any(result["detection_verdicts"])

    def test_undersized_dimension_exits_two(self, outdir, capsys):
        code = run_cli("run", "--config", SCENARIOS / "invalid_dimension.json",
                       "--out", outdir)
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"scheme": "DB",\n  "d": }')
        assert run_cli("run", "--config", bad) == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "extra.json"
        cfg.write_text(json.dumps({"scheme": "DB", "d": 5, "n": 2,
                                   "votes": ["Y", "N"], "seed": 1, "typo_field": 1}))
        assert run_cli("run", "--config", cfg) == 2
        assert "typo_field" in capsys.readouterr().err

    def test_missing_seed_rejected(self, tmp_path):
        cfg = tmp_path / "noseed.json"
        cfg.write_text(json.dumps({"scheme": "DB", "d": 5, "n": 2, "votes": ["Y", "N"]}))
        assert run_cli("run", "--config", cfg) == 2

    def test_flag_overrides_beat_config(self, outdir):
        code = run_cli("run", "--config", SCENARIOS / "db_honest.json",
                       "--out", outdir, "--override", "seed=7")
        assert code == 0
        assert (outdir / "db-d5-n4-seed7.result.json").exists()

    @pytest.mark.parametrize("flag", [["--seed", 7], ["--trials", 3]], ids=["seed", "trials"])
    def test_alias_flags_exit_two(self, flag, outdir, capsys):
        # --override key=N is the one way to set a config field from the command line.
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", SCENARIOS / "db_honest.json", "--out", outdir, *flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not outdir.exists()

    def test_override_key_value(self, outdir):
        code = run_cli("run", "--config", SCENARIOS / "db_honest.json",
                       "--out", outdir, "--override", 'votes=["N","N","N","N"]')
        assert code == 0
        result = json.loads((outdir / "db-d5-n4-seed42.result.json").read_text())
        assert result["m"] == 0

    def test_env_output_dir_ignored(self, tmp_path, monkeypatch):
        # Outputs go to --out, by default the working directory; no variable moves them.
        env_dir = tmp_path / "envout"
        monkeypatch.setenv("QVOTE_OUT_DIR", str(env_dir))
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", "--config", SCENARIOS / "db_honest.json") == 0
        assert (tmp_path / "db-d5-n4-seed42.result.json").exists()
        assert run_cli("run", "--config", SCENARIOS / "db_honest.json", "--out", "o") == 0
        assert (tmp_path / "o" / "db-d5-n4-seed42.result.json").exists()
        assert not env_dir.exists()

    def test_drawn_votes_and_secrets(self, tmp_path, outdir):
        cfg = tmp_path / "drawn.json"
        cfg.write_text(json.dumps({"scheme": "SECURE", "d": 11, "n": 3, "seed": 77,
                                   "vote_distribution": {"p_yes": 0.5}}))
        assert run_cli("run", "--config", cfg, "--out", outdir) == 0
        result = json.loads((outdir / "secure-d11-n3-seed77.result.json").read_text())
        assert result["m"] in list(range(4))

    def test_db_beyond_dense_budget_runs(self, outdir):
        # 13**6 amplitudes exceed the 2M dense budget; honest DB runs
        # stay in the correlated form and never build the dense state.
        code = run_cli("run", "--config", SCENARIOS / "db_honest.json", "--out", outdir,
                       "--override", "d=13", "--override", "n=6",
                       "--override", 'votes=["Y","Y","N","Y","N","Y"]')
        assert code == 0
        result = json.loads((outdir / "db-d13-n6-seed42.result.json").read_text())
        assert result["m"] == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("run", "--config", SCENARIOS / "secure_honest.json",
                           "--out", out) == 0
        name = "secure-d7-n2-seed11"
        assert ((out1 / f"{name}.transcript.jsonl").read_bytes()
                == (out2 / f"{name}.transcript.jsonl").read_bytes())
        assert ((out1 / f"{name}.result.json").read_bytes()
                == (out2 / f"{name}.result.json").read_bytes())

    def test_shared_parser_keeps_nothing_between_calls(self, tmp_path, capsys):
        # main parses with one module-level parser: no call may leak into the next.
        assert run_cli("run", "--config", SCENARIOS / "db_honest.json",
                       "--out", tmp_path / "a", "--override", "d=7") == 0
        assert (tmp_path / "a" / "db-d7-n4-seed42.result.json").exists()
        assert PARSER.parse_args(["run", "--config", "x.json"]).override == []
        assert run_cli("run", "--config", SCENARIOS / "db_honest.json",
                       "--out", tmp_path / "b") == 0
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
            "db-d5-n4-seed42.result.json", "db-d5-n4-seed42.transcript.jsonl"]
        with pytest.raises(SystemExit) as exc:
            run_cli("run")
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        golden = tmp_path / "golden"
        assert run_cli("run", "--config", SCENARIOS / "secure_honest.json",
                       "--out", golden) == 0
        for path in golden.iterdir():
            assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


@pytest.mark.parametrize("argv", [
    ["run", "--config", SCENARIOS / "survey_euros.json",
     "--override", 'votes=["Y","N","Y"]'],
    ["run", "--config", SCENARIOS / "db_honest.json", "--override", "d.x=1"],
    ["verify", "ansatz", "--d", 3, "--etas", "a,b,c"],
    ["verify", "ansatz", "--d", 2, "--alphas", "0.7,x"],
    ["verify", "ansatz", "--d", 0],
    ["verify", "ansatz", "--d", -1],
    ["verify", "nogo", "--restarts", 1, "--iterations", 0],
    ["verify", "privacy", "--scheme", "db", "--d", 19, "--n", 17],
    ["report", "missing.jsonl"],
    ["report", "no-measure.jsonl"],
    ["report", "not-utf8.jsonl"],
    ["run", "--config", SCENARIOS / "db_honest.json",
     "--override", 'attack={"name":"mismatched_thetas"}'],
    ["run", "--config", SCENARIOS / "secure_honest.json",
     "--override", 'attack={"name":"mismatched_thetas","yes_l_shifts":[0]}'],
    ["run", "--config", SCENARIOS / "secure_honest.json", "--override", "d=7.0"],
    ["run", "--config", SCENARIOS / "db_honest.json", "--override", "seed=42.0"],
    ["run", "--config", SCENARIOS / "db_honest.json", "--override", "n=4.0"],
    ["run", "--config", SCENARIOS / "secure_phase_attack.json", "--override", "trials=3.0"],
    ["run", "--config", SCENARIOS / "secure_honest.json", "--override", "repetitions=3.0"],
    ["run", "--config", "nan-p-yes.json"],
    ["run", "--config", SCENARIOS / "secure_phase_attack.json",
     "--override", "attack.scale=Infinity"],
    ["run", "--config", SCENARIOS / "db_honest.json",
     "--override", "vote_distribution.p_yes=NaN"],
    ["run", "--config", "root-list.json", "--override", "d=5"],
    ["run", "--config", "root-string.json", "--override", "a.b=5"],
    ["run", "--config", "secure-drawn-d-le-n.json"],
    ["verify", "reduced", "--scheme", "tb", "--d", 5, "--n", 99],
    ["verify", "reduced", "--scheme", "tb", "--d", 5, "--n", -3],
    ["verify", "nogo", "--restarts", 1, "--iterations", 5, "--seed", -1],
    ["verify", "ansatz", "--d", 3, "--etas", "nan,0,0"],
    ["verify", "ansatz", "--d", 3, "--alphas", "inf,0,0"],
    ["report", "payload-list.jsonl"],
    ["report", "nested-outcome.jsonl"],
    ["report", "negative-n.jsonl"],
], ids=["survey-votes-not-integers", "override-into-number", "bad-etas", "bad-alphas",
        "ansatz-d-zero", "ansatz-d-negative", "nogo-no-iterations", "privacy-over-guard",
        "report-missing-file", "report-no-measure", "report-not-utf8",
        "mismatched-not-secure", "mismatched-shifts-wrong-length", "d-float", "seed-float",
        "n-float", "trials-float", "repetitions-float", "config-nan", "override-infinity",
        "override-nan", "root-list-override", "root-string-override-path",
        "secure-drawn-secrets-d-le-n", "reduced-tb-n-above-d", "reduced-tb-n-negative",
        "nogo-seed-negative", "etas-nan", "alphas-inf", "report-payload-not-object",
        "report-nested-outcome", "report-negative-n"])
def test_malformed_input_exits_two(argv, tmp_path, monkeypatch, capsys):
    # Exit 1 means cheating detected or a failed check; bad input must not read as that.
    monkeypatch.chdir(tmp_path)
    Path("nan-p-yes.json").write_text(
        '{"scheme": "DB", "d": 5, "n": 4, "seed": 1, "vote_distribution": {"p_yes": NaN}}')
    Path("no-measure.jsonl").write_text(json.dumps(
        {"run_id": "x", "rep": 0, "step": "PREPARE", "site": None,
         "payload": {"scheme": "DB", "d": 5, "N": 2}, "outcome": None}) + "\n")
    Path("not-utf8.jsonl").write_bytes(b"\x80\x81\n")
    Path("root-list.json").write_text("[1, 2]")
    Path("root-string.json").write_text('"x"')
    Path("secure-drawn-d-le-n.json").write_text('{"scheme": "SECURE", "d": 3, "n": 4, "seed": 1}')
    for name, payload, outcome in [("payload-list", [5, 2], 1),
                                   ("nested-outcome", {"scheme": "DB", "d": 5, "N": 2}, [[1, 2]]),
                                   ("negative-n", {"scheme": "DB", "d": 5, "N": -1}, 1)]:
        events = [("PREPARE", payload, None), ("MEASURE", None, outcome)]
        Path(f"{name}.jsonl").write_text("".join(json.dumps(
            {"run_id": "x", "rep": 0, "step": s, "site": None, "payload": p, "outcome": o}) + "\n"
            for s, p, o in events))
    assert run_cli(*argv) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "privacy", "--scheme", "db", "--d", 5, "--n", 4, "--tolerance", 0.1],
    ["verify", "reduced", "--scheme", "db", "--d", 5, "--n", 3, "--tolerance", 0.1],
    ["verify", "ansatz", "--d", 3, "--tolerance", 0.1],
    ["verify", "nogo", "--restarts", 1, "--iterations", 1, "--floor", 0.45],
], ids=["privacy-tolerance", "reduced-tolerance", "ansatz-tolerance", "nogo-floor"])
def test_pass_bounds_are_not_options(argv, capsys):
    # The bounds are verify.TOLERANCE and verify.NOGO_FLOOR; argparse rejects the flags.
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(map(str, argv[-2:])) in capsys.readouterr().err


def test_wrong_vote_count_names_both_counts(capsys):
    assert run_cli("run", "--config", SCENARIOS / "db_honest.json",
                   "--override", 'votes=["Y"]') == 2
    assert capsys.readouterr().err == "config error: expected 4 votes, got 1\n"


class TestCmdVerify:
    def test_privacy_pass(self, capsys):
        assert run_cli("verify", "privacy", "--scheme", "db", "--d", 5, "--n", 4) == 0
        assert json.loads(capsys.readouterr().out)["passed"]

    def test_privacy_aliasing_fails(self, capsys):
        assert run_cli("verify", "privacy", "--scheme", "db", "--d", 3, "--n", 3) == 1
        assert not json.loads(capsys.readouterr().out)["passed"]

    def test_privacy_guard_exits_two(self):
        assert run_cli("verify", "privacy", "--scheme", "db", "--d", 19, "--n", 17) == 2

    def test_reduced(self, capsys):
        assert run_cli("verify", "reduced", "--scheme", "db", "--d", 5, "--n", 3) == 0
        data = json.loads(capsys.readouterr().out)
        assert max(data["single_site_deviations"].values()) <= 1e-10

    def test_nogo_quick(self, capsys, nogo_fixture):
        code = run_cli("verify", "nogo", "--restarts", 8, "--iterations", 200, "--seed", 7)
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["qubit_min_residual"] >= nogo_fixture["epsilon0"]
        assert 0.5 - 1e-12 <= data["qubit_min_residual"] <= 0.5 + 1e-6
        assert data["qutrit_residual"] <= 1e-12

    def test_nogo_default_floor_catches_a_search_below_one_half(self, monkeypatch, capsys):
        # verify.qubit_floor proves every two-qubit residual >= 1/2; a lower minimum is a bug.
        exact = verify._residual_and_grad
        monkeypatch.setattr(verify, "_residual_and_grad",
                            lambda x: (exact(x)[0] - 0.1, exact(x)[1]))
        assert run_cli("verify", "nogo", "--restarts", 1, "--iterations", 20) == 1
        assert json.loads(capsys.readouterr().out)["floor"] == 0.5 - 1e-12

    def test_ansatz_default_roots(self, capsys):
        assert run_cli("verify", "ansatz", "--d", 3) == 0
        assert json.loads(capsys.readouterr().out)["passed"]

    def test_ansatz_explicit_failure(self, capsys):
        assert run_cli("verify", "ansatz", "--d", 2, "--etas", "0.0,3.14159") == 1


def test_config_schema_is_valid():
    # The reference validator is built once at import and does not check its schema.
    schema = reference.CONFIG_SCHEMA
    jsonschema.validators.validator_for(schema).check_schema(schema)


# Values of the wrong type or range for any field: integral floats, bools,
# out-of-range numbers, strings, arrays and objects.
ODD = [None, True, False, -1, 0, 1, 7.0, 0.5, 1.5, -0.5, "x", "Y", [], [1, 2, 3], {}, {"x": 1}]


def _pick(*values):
    return lambda rng: rng.choice(values)


def _draw(rng, field):
    return field(rng) if rng.random() < 0.96 else rng.choice(ODD)


def _list(item, sizes=(0, 1, 2, 3)):
    return lambda rng: [_draw(rng, item) for _ in range(rng.choice(sizes))]


def _obj(required, fields):
    """Required keys mostly present, others sometimes, an unknown key rarely; shuffled."""
    def draw(rng):
        keys = [k for k in fields if rng.random() < (0.97 if k in required else 0.25)]
        keys += [k for k in ("aa", "typo") if rng.random() < 0.03]
        return {k: _draw(rng, fields.get(k, _pick(1))) for k in rng.sample(keys, len(keys))}
    return draw


# Near-valid draws for every config key, each with values at and past its bounds.
CONFIG_DRAW = _obj(("scheme", "d", "n", "seed"), {
    "scheme": _pick("DB", "TB", "SECURE", "SURVEY", "db"),
    "d": _pick(1, 2, 3, 5, 11, 11), "n": _pick(-1, 0, 2, 3, 4), "seed": _pick(-1, 0, 5, 7, 42),
    "votes": _list(_pick("Y", "N", 0, 2)),
    "vote_distribution": _obj(("p_yes",), {"p_yes": _pick(-0.5, 0, 0.5, 1, 0.25, 1.5)}),
    "secrets": _obj(("l_y", "l_n", "delta"), {"l_y": _pick(-1, 0, 3), "l_n": _pick(0, 2),
                                              "delta": _pick(-0.2, 0, 0.2)}),
    "repetitions": _pick(0, 1, 3, 5), "max_total": _pick(-1, 0, 4, 6),
    "trials": _pick(0, 1, 5, 9),
    "attack": _obj(("name",), {
        "name": _pick("collusion", "multi_vote", "phase_estimate", "product_ballot",
                      "mismatched_thetas", "swap", "collusion"),
        "colluders": _list(_pick(0, 2), sizes=(0, 1, 2, 2, 3)),
        "cheater": _pick(-1, 0, 1, 2), "extra": _pick(-1, 0, 2, 3), "scale": _pick(-1, 0, 1.5, 2),
        "honest_ballot": _pick(True, False), "yes_l_shifts": _list(_pick(0, -2))}),
})


def test_check_config_agrees_with_reference_schema(tmp_path, capsys):
    # Accept exactly what the schema accepts; where it finds one error, print its text.
    rng = random.Random(2025)
    path = tmp_path / "config.json"
    accepted, kinds, several = 0, Counter(), 0
    for _ in range(4000):
        cfg = _draw(rng, CONFIG_DRAW)
        errors = list(reference.CONFIG_VALIDATOR.iter_errors(cfg))
        try:
            check_config(cfg)
        except ConfigurationError:
            assert errors, cfg
        else:
            assert not errors, cfg
            accepted += 1
        several += len(errors) > 1
        if len(errors) == 1:
            (error,) = errors
            kinds[error.validator] += 1
            where = ".".join(map(str, error.absolute_path)) or "<root>"
            path.write_text(json.dumps(cfg))
            assert run_cli("run", "--config", path) == 2
            assert capsys.readouterr().err == f"config error: field {where}: {error.message}\n"
    assert set(kinds) == {"type", "minimum", "maximum", "enum", "required",
                          "additionalProperties", "minItems", "maxItems"}
    assert min(accepted, sum(kinds.values()), several) > 400, (accepted, kinds, several)


# Dotted override paths: fields, nested fields, unknown keys, and paths into
# scalars and lists; values are JSON of every type, bad literals and bare text.
OVERRIDE_KEYS = ["d", "n", "seed", "scheme", "votes", "trials", "repetitions", "max_total",
                 "secrets", "secrets.l_y", "secrets.delta", "attack", "attack.name",
                 "attack.colluders", "attack.yes_l_shifts", "vote_distribution.p_yes",
                 "d.x", "votes.0", "attack.colluders.1", "seed.a.b", "zz", "a.b", ""]
OVERRIDE_VALUES = ["0", "1", "2", "3", "5", "-1", "7.0", "0.25", "true", "null", '"Y"', "x",
                   "[]", '["Y", "N", "Y"]', "[0, 2]", "{}", '{"name": "mismatched_thetas"}',
                   '{"l_y": 1, "l_n": 0, "delta": 0.1}', "NaN", "Infinity"]
NON_OBJECT_ROOTS = [[1, 2], [], "x", 5, 1.5, None, True]


def test_run_never_raises_on_configs_and_overrides(tmp_path, capsys):
    # Any config file and overrides end in exit 0, 1 or 2, never a traceback; a
    # non-object root reports its type, with or without overrides.
    rng = random.Random(26)
    path, out = tmp_path / "config.json", tmp_path / "out"
    scenarios = [json.loads(f.read_text()) for f in sorted(SCENARIOS.glob("*.json"))]
    codes = Counter()
    for case in range(400):
        root = (rng.choice(NON_OBJECT_ROOTS), rng.choice(scenarios),
                _draw(rng, CONFIG_DRAW), _draw(rng, CONFIG_DRAW))[case % 4]
        path.write_text(json.dumps(root))
        overrides = []
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            key = rng.choice(OVERRIDE_KEYS)
            overrides += ["--override", key if rng.random() < 0.03
                          else f"{key}={rng.choice(OVERRIDE_VALUES)}"]
        code = run_cli("run", "--config", path, "--out", out, *overrides)
        assert code in (0, 1, 2), (root, overrides)
        codes[code] += 1
        err = capsys.readouterr().err
        if not isinstance(root, dict):
            assert code == 2
            assert err == f"config error: field <root>: {root!r} is not of type 'object'\n"
    assert len(codes) == 3 and min(codes.values()) >= 5, codes  # pass, convict, refuse


# Event values past what a run writes: odd JSON of every type, nested
# outcomes, payloads with bad counts, and tallies that convict.
EVENT_ODD = ODD + [-7, 2 ** 1100, [[1, 2]], [[]], [3, [3]], {"m": [1]}, {"m": None},
                   {"hits": 2}, {"p": 3, "m": 3}, {"scheme": "DB", "d": 5, "N": -3},
                   {"scheme": "TB", "d": 5, "N": 2 ** 1100}, "CHEAT_DETECTED", "INVALID"]
EVENT_KEYS = ["payload", "outcome", "outcome", "step", "rep", "site"]


def test_report_never_raises_on_transcripts(tmp_path, capsys):
    # Golden transcripts with events edited or keys dropped, the first
    # PREPARE and the MEASURE events most often, end in exit 0, 1 or 2,
    # never a traceback.
    rng = random.Random(31)
    transcripts = [[json.loads(line) for line in f.read_text().splitlines()]
                   for f in sorted(GOLDEN.glob("*.transcript.jsonl"))]
    path = tmp_path / "transcript.jsonl"
    codes = Counter()
    for _ in range(400):
        events = [dict(e) for e in rng.choice(transcripts)]
        measures = [e for e in events if e["step"] == "MEASURE"]
        for _ in range(rng.choice((1, 1, 2, 3))):
            event = rng.choice((events[0], rng.choice(measures), rng.choice(events)))
            key = rng.choice(EVENT_KEYS)
            if rng.random() < 0.1:
                event.pop(key, None)
            else:
                event[key] = rng.choice(EVENT_ODD)
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        code = run_cli("report", path)
        assert code in (0, 1, 2), events
        codes[code] += 1
        capsys.readouterr()
    assert len(codes) == 3 and min(codes.values()) >= 5, codes  # pass, convict, refuse


class TestCmdReport:
    def make_transcript(self, tmp_path, scenario="secure_honest.json"):
        out = tmp_path / "runout"
        run_cli("run", "--config", SCENARIOS / scenario, "--out", out)
        return next(out.glob("*.transcript.jsonl"))

    def test_clean_secure_report(self, tmp_path, capsys):
        path = self.make_transcript(tmp_path)
        assert run_cli("report", path) == 0
        out = capsys.readouterr().out
        assert "CLEAN, m=2, p=2" in out
        assert "I_i" in out and "I_f" in out

    def test_divergent_repetitions_flagged(self, tmp_path, capsys):
        path = tmp_path / "divergent.jsonl"
        rows = []
        for rep, m in enumerate([3, 4, 3]):
            rows.append({"run_id": "x", "rep": rep, "step": "PREPARE", "site": None,
                         "payload": {"scheme": "SECURE", "d": 7, "N": 2}, "outcome": None})
            rows.append({"run_id": "x", "rep": rep, "step": "MEASURE", "site": None,
                         "payload": None, "outcome": m})
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert run_cli("report", path) == 1
        assert "CHEATING suspected" in capsys.readouterr().out

    def test_empty_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert run_cli("report", path) == 2

    def test_corrupt_lines_listed(self, tmp_path, capsys):
        good = self.make_transcript(tmp_path).read_text().splitlines()
        path = tmp_path / "corrupt.jsonl"
        path.write_text(good[0] + "\n{oops\n" + good[1] + "\n")
        assert run_cli("report", path) == 2
        assert "2" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert run_cli("report", tmp_path / "nope.jsonl") == 2

    @pytest.mark.parametrize("entry", GOLDEN_RUNS,
                             ids=[e.get("id") or
                                  f"{e['scenario']}{'+override' if e['override'] else ''}"
                                  for e in GOLDEN_RUNS])
    def test_golden_transcript_exit_matches_run(self, entry, tmp_path):
        # Report the written transcript and its committed copy.
        overrides = [arg for item in entry["override"] for arg in ("--override", item)]
        assert run_cli("run", "--config", SCENARIOS / entry["scenario"], "--out", tmp_path,
                       *overrides) == entry["exit"]
        written = next(tmp_path.glob("*.transcript.jsonl"))
        assert run_cli("report", written) == entry["exit"]
        assert run_cli("report", GOLDEN / written.name) == entry["exit"]

    @pytest.mark.parametrize("scenario,overrides", [
        # One trial: its lone CHEAT_DETECTED tally must still convict.
        ("secure_honest.json", ["d=8", "secrets.l_y=2", 'attack={"name":"mismatched_thetas"}']),
        # Per-trial hit counts differ by design and are not tallies.
        ("product_ballot_control.json", []),
        # One repetition per forgery trial: no trial disagrees with itself, but
        # the trials decode tallies [1, 1, 1, 0, 1, 1].
        ("secure_honest.json", ["seed=2", 'attack={"name":"phase_estimate","scale":0.2}',
                                "trials=6", "d=11", "n=3", 'votes=["N","N","N"]',
                                "secrets.l_y=1", "secrets.l_n=0", "repetitions=1"]),
    ], ids=["single-cheat-tally", "product-ballot-hits", "forgery-trials-disagree"])
    def test_report_exit_matches_run(self, scenario, overrides, tmp_path, capsys):
        args = [arg for item in overrides for arg in ("--override", item)]
        code = run_cli("run", "--config", SCENARIOS / scenario, "--out", tmp_path, *args)
        assert run_cli("report", next(tmp_path.glob("*.transcript.jsonl"))) == code
