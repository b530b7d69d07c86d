"""Regenerate the golden `qvote run` outputs and `qvote verify` stdouts in golden/.

golden/runs.json lists each run as a scenario file under scenarios/, the
``--override`` arguments applied to it, the expected exit code and, where
two entries share a scenario with overrides, an ``id`` naming the test. This
script runs every entry and writes its transcript and result files into
golden/. test_golden.py reruns the same entries and compares the files
byte for byte, so a change that alters any output fails there even when
two runs of one build agree with each other.

golden/verify.json lists ``qvote verify`` argument lists, each with an
``id`` and its expected exit code; the script writes each one's stdout to
golden/verify-<id>.stdout, which test_golden.py compares byte for byte too.

Regenerate only when an output change is intended, and record it in
CHANGES.md. Run from the repository root:

    PYTHONPATH=src python3 tests/fixtures/make_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from qvote.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"


def entry_id(entry: dict) -> str:
    """Test id of one golden entry: its ``id`` if given, else the scenario name."""
    return entry.get("id") or f"{entry['scenario']}{'+override' if entry['override'] else ''}"


def verify_stdout(entry: dict) -> tuple[int, str]:
    """Exit code and stdout of one golden ``qvote verify`` entry."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(entry["args"])
    return code, out.getvalue()


def run_args(entry: dict, out_dir) -> list[str]:
    """``qvote run`` arguments for one golden entry, writing to ``out_dir``."""
    args = ["run", "--config", str(HERE / "scenarios" / entry["scenario"]),
            "--out", str(out_dir)]
    for item in entry["override"]:
        args += ["--override", item]
    return args


if __name__ == "__main__":
    for entry in json.loads((GOLDEN / "runs.json").read_text()):
        code = main(run_args(entry, GOLDEN))
        if code != entry["exit"]:
            sys.exit(f"{entry['scenario']} exited {code}, expected {entry['exit']}")
    for entry in json.loads((GOLDEN / "verify.json").read_text()):
        code, stdout = verify_stdout(entry)
        if code != entry["exit"]:
            sys.exit(f"verify {entry['id']} exited {code}, expected {entry['exit']}")
        (GOLDEN / f"verify-{entry['id']}.stdout").write_text(stdout, encoding="utf-8")
