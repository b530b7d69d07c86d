"""Tests of the benchmark itself: every gate can fail, digests repeat.

Run from the checkout root with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    check_collusion,
    check_forgery,
    check_nogo,
    check_product,
    check_scenario,
    check_swap,
)


def test_scenario_gate_rejects_wrong_tally_and_exit_code():
    assert check_scenario(0, {"m": 3}, 3)
    assert not check_scenario(0, {"m": 2}, 3)
    assert not check_scenario(1, {"m": 3}, 3)
    assert not check_scenario(0, None, 3)


def test_attack_gates_reject_wrong_results():
    assert check_collusion([1, 1, 1], 1, 3)
    assert not check_collusion([1, 2, 1], 1, 3)
    assert not check_collusion([1, 1], 1, 3)
    assert check_product([1.0, 1.0, 1.0])
    assert not check_product([1.0, 0.99, 1.0])
    assert check_forgery(448, 1000, 0.448)
    assert not check_forgery(479, 1000, 0.448)
    assert not check_forgery(417, 1000, 0.448)
    assert check_swap(990, 1000)
    assert not check_swap(989, 1000)


def test_nogo_gate_rejects_residual_below_floor():
    assert check_nogo(0.5, 0.0, 0.45)
    assert not check_nogo(0.44, 0.0, 0.45)
    assert not check_nogo(0.5, 2e-12, 0.45)


def test_scenario_op_fails_on_wrong_planted_tally():
    wl = workloads.Scenarios(7, ROOT)
    try:
        code = wl.prepare(0)()
        assert wl.check(0, code).ok
        cfg, expected = wl.inputs[0]
        wl.inputs[0] = (cfg, expected + 1)
        assert not wl.check(0, code).ok
    finally:
        wl.close()


def test_pooled_attack_gates_fail_every_pooled_op():
    wl = workloads.Analysis(7, ROOT)
    good = {"phase.detected": 448, "phase.trials": 1000, "phase.ops": 10,
            "symmetry.detected": 993, "symmetry.trials": 1000, "symmetry.ops": 2}
    assert wl.pooled_failures(good) == 0
    assert wl.pooled_failures({**good, "phase.detected": 600}) == 10
    assert wl.pooled_failures({**good, "symmetry.detected": 980}) == 2


def test_nogo_op_fails_when_floor_is_above_its_minimum():
    wl = workloads.Analysis(7, ROOT)
    i = workloads.ANALYSIS_KINDS.index("nogo")
    result = wl.prepare(i)()
    assert wl.check(i, result).ok
    wl.epsilon0 = result[0] + 1e-9
    assert not wl.check(i, result).ok


def test_same_seed_same_digest_and_tracing_keeps_outputs():
    def digest(seed, tracer=None):
        wl = workloads.Analysis(seed, ROOT)
        if tracer:
            tracer.install()
        try:
            return run.run_loop(wl, None, count=wl.cycle, tracer=tracer).sha.hexdigest()
        finally:
            if tracer:
                tracer.uninstall()

    first = digest(3)
    assert digest(3) == first
    assert digest(4) != first
    original = workloads.adversary.run_secure_vote
    assert digest(3, tracing.Tracer()) == first
    assert workloads.adversary.run_secure_vote is original


def test_times_are_scaled_by_the_reference_kernel():
    pace = speed.Speed()
    pace.samples = [speed.NOMINAL_MS * 2e-3] * 3  # a machine at half the nominal speed
    assert pace.scale() == 0.5
    loop = run.Run(0)
    for seconds in (0.1, 0.2, 0.3):
        loop.times.append(seconds)
    metrics = run.end_to_end(loop, [1.0], pace.scale())
    assert metrics["op_ms.p50"]["value"] == pytest.approx(100.0)
    assert metrics["ops_per_s"]["value"] == pytest.approx(10.0)
    assert metrics["setup_s"]["value"] == 1.0


def test_benchmark_json_names_every_metric_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
    layer.update(run.TRACE_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_fails_without_a_source_checkout(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "analysis", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_inputs_depend_only_on_seed(name):
    a, b, c = (workloads.WORKLOADS[name](seed, ROOT) for seed in (5, 5, 6))
    assert a.inputs == b.inputs
    assert a.inputs != c.inputs
