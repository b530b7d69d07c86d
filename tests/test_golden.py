"""Golden outputs: every `qvote run` in golden/runs.json and every `qvote verify`
in golden/verify.json repeats byte for byte.

The files under tests/fixtures/golden/ were written by make_golden.py
before the honest runs moved to the correlated-basis engine; a refactor
that keeps outputs must leave every one of them unchanged.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from qvote.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
ENTRIES = json.loads((GOLDEN / "runs.json").read_text())
VERIFY_ENTRIES = json.loads((GOLDEN / "verify.json").read_text())

_spec = importlib.util.spec_from_file_location("make_golden", FIXTURES / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=[make_golden.entry_id(e) for e in ENTRIES])
def test_run_matches_golden_bytes(entry, tmp_path):
    assert main(make_golden.run_args(entry, tmp_path)) == entry["exit"]
    written = sorted(tmp_path.iterdir())
    assert len(written) == 2
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


@pytest.mark.parametrize("entry", VERIFY_ENTRIES, ids=[e["id"] for e in VERIFY_ENTRIES])
def test_verify_matches_golden_stdout(entry):
    code, stdout = make_golden.verify_stdout(entry)
    assert code == entry["exit"]
    assert stdout.encode() == (GOLDEN / f"verify-{entry['id']}.stdout").read_bytes()
