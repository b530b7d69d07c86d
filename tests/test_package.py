import os
import subprocess
import sys
from pathlib import Path

import qvote

SRC = str(Path(qvote.__file__).parents[1])


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
