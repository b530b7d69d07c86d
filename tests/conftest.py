import json
from pathlib import Path

import numpy as np
import pytest

FIXTURES = Path(__file__).parent / "fixtures"


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per acceptance criterion at the end of a run."""
    lines = []
    for status, label in (("passed", "PASS"), ("failed", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            name = report.nodeid.split("::")[-1]
            if name.startswith("test_criterion_"):
                lines.append(f"{name}: {label}")
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def nogo_fixture() -> dict:
    return json.loads((FIXTURES / "nogo_grid.json").read_text())


@pytest.fixture(scope="session")
def forgery_fixture() -> dict:
    return json.loads((FIXTURES / "forgery_rate.json").read_text())


def random_state(dims, rng: np.random.Generator):
    """Haar-ish random pure state for property tests."""
    import math

    from qvote.qstate import PureState
    dim = math.prod(dims)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState.from_amplitudes(dims, amps)


def random_unitary(d, rng: np.random.Generator):
    """Haar random unitary via QR of a complex Gaussian matrix."""
    from qvote.qstate import LocalUnitary
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return LocalUnitary(d, q)


def batch_rows(d: int, above: bool, seed: int) -> int:
    """A row count whose (rows, d) complex batch lies above or below 16384 elements.

    Above that size numpy may reuse a temporary in place, and its complex
    kernels are not bitwise commutative on every SIMD target.
    """
    return 16384 // d + 1 + seed % 64 if above else 1 + seed % (16384 // d)
