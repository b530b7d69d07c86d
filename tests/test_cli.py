import json
from pathlib import Path

import pytest

from qvote.cli import main

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
                       "--out", outdir, "--seed", 7)
        assert code == 0
        assert (outdir / "db-d5-n4-seed7.result.json").exists()

    def test_override_key_value(self, outdir):
        code = run_cli("run", "--config", SCENARIOS / "db_honest.json",
                       "--out", outdir, "--override", 'votes=["N","N","N","N"]')
        assert code == 0
        result = json.loads((outdir / "db-d5-n4-seed42.result.json").read_text())
        assert result["m"] == 0

    def test_env_output_dir_override(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "envout"
        monkeypatch.setenv("QVOTE_OUT_DIR", str(env_dir))
        assert run_cli("run", "--config", SCENARIOS / "db_honest.json") == 0
        assert (env_dir / "db-d5-n4-seed42.result.json").exists()

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


@pytest.mark.parametrize("argv", [
    ["run", "--config", SCENARIOS / "survey_euros.json",
     "--override", 'votes=["Y","N","Y"]'],
    ["run", "--config", SCENARIOS / "db_honest.json", "--override", "d.x=1"],
    ["verify", "ansatz", "--d", 3, "--etas", "a,b,c"],
    ["verify", "ansatz", "--d", 2, "--alphas", "0.7,x"],
], ids=["survey-votes-not-integers", "override-into-number", "bad-etas", "bad-alphas"])
def test_malformed_input_exits_two(argv, capsys):
    # Exit 1 means cheating detected; bad input must not read as that.
    assert run_cli(*argv) == 2
    assert "config error:" in capsys.readouterr().err


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
        code = run_cli("verify", "nogo", "--restarts", 8, "--iterations", 200,
                       "--seed", 7, "--floor", nogo_fixture["epsilon0"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["qubit_min_residual"] >= nogo_fixture["epsilon0"]
        assert data["qutrit_residual"] <= 1e-12

    def test_ansatz_default_roots(self, capsys):
        assert run_cli("verify", "ansatz", "--d", 3) == 0
        assert json.loads(capsys.readouterr().out)["passed"]

    def test_ansatz_explicit_failure(self, capsys):
        assert run_cli("verify", "ansatz", "--d", 2, "--etas", "0.0,3.14159") == 1


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
                             ids=[f"{e['scenario']}{'+override' if e['override'] else ''}"
                                  for e in GOLDEN_RUNS])
    def test_golden_transcript_exit_matches_run(self, entry, tmp_path):
        # Rerun only to learn the transcript's name, then report the committed copy.
        overrides = [arg for item in entry["override"] for arg in ("--override", item)]
        run_cli("run", "--config", SCENARIOS / entry["scenario"], "--out", tmp_path,
                *overrides)
        name = next(tmp_path.glob("*.transcript.jsonl")).name
        assert run_cli("report", GOLDEN / name) == entry["exit"]
