import json
import os
import subprocess
import sys
from pathlib import Path

import qvote

SRC = str(Path(qvote.__file__).parents[1])
SCENARIOS = Path(__file__).parent / "fixtures" / "scenarios"
SCENARIO_EXIT_CODES = {"db_honest": 0, "invalid_dimension": 2, "product_ballot_control": 0,
                       "secure_honest": 0, "secure_phase_attack": 1, "survey_euros": 0,
                       "tb_collusion": 0}


def run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


def test_package_root_holds_only_version():
    # Names come from their modules; the root is no second import path.
    out = run_python("import qvote; print(sorted(n for n in vars(qvote) if n[0] != '_'))")
    assert out == "[]"
    assert qvote.__version__ == "0.1.0"


def test_attacks_and_runs_load_no_verification_or_cli():
    out = run_python(
        "import sys, qvote.adversary, qvote.protocols\n"
        "print(sorted(m for m in ('scipy', 'jsonschema', 'qvote.cli', 'qvote.verify')"
        " if m in sys.modules))")
    assert out == "[]"


def test_no_import_or_command_loads_scipy_or_jsonschema(tmp_path):
    # (argv, expected exit code), in order; after each, neither scipy nor
    # jsonschema may be loaded. Only reading cli.jsonschema loads jsonschema, last.
    assert sorted(SCENARIO_EXIT_CODES) == sorted(p.stem for p in SCENARIOS.glob("*.json"))
    steps = [(["run", "--config", f"{SCENARIOS / name}.json", "--out", str(tmp_path)], code)
             for name, code in SCENARIO_EXIT_CODES.items()]
    steps += [(["report", str(tmp_path / "db-d5-n4-seed42.transcript.jsonl")], 0),
              ("verify privacy --scheme tb --d 5 --n 4".split(), 0),
              ("verify reduced --scheme db --d 5 --n 3".split(), 0),
              ("verify ansatz --d 3".split(), 0),
              ("verify nogo --restarts 1 --iterations 20".split(), 0)]
    out = run_python(
        "import contextlib, io, json, sys\n"
        "import qvote.cli, qvote.verify\n"
        "def loaded(): return 'scipy' in sys.modules, 'jsonschema' in sys.modules\n"
        "seen = [(['import'], 0, *loaded())]\n"
        f"for argv in {[argv for argv, _ in steps]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = qvote.cli.main(argv)\n"
        "    seen.append((argv, code, *loaded()))\n"
        "seen.append((['cli.jsonschema'], qvote.cli.jsonschema is sys.modules['jsonschema'],"
        " *loaded()))\n"
        "print(json.dumps(seen))")
    assert [tuple(step) for step in json.loads(out)] == [
        (["import"], 0, False, False), *[(argv, code, False, False) for argv, code in steps],
        (["cli.jsonschema"], True, False, True)]
