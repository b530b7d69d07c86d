"""The two benchmark workloads: inputs from a seed, one op each, and gates.

Every workload is a closed loop with one client in one process: the next
op starts only after the previous one returned. Inputs come only from the
workload seed; the program sees nothing but the generated inputs.

* ``scenarios`` -- one op is one in-process ``qvote.cli.main(["run", ...])``
  on a generated honest config. Configs cycle round-robin through seven
  classes (``SCENARIO_CLASSES``). This is what ``qvote run`` users pay for.
  The five small classes (about 15 ms, mostly jsonschema validation) put
  ``cli`` on ``op_ms.p50``. The dense DB d=11 N=6 class (165 MB peak RSS)
  and the O(d^2) decode of SECURE d=1009 put ``qstate``, ``ballots`` and
  ``protocols`` on ``op_ms.p90``, ``ops_per_s`` and ``peak_rss_mb``. It never
  touches ``adversary`` or ``verify``.
* ``analysis`` -- one op is one analysts' call with a fixed amount of
  work, cycling through five kinds. Four are attack calls: the forgery
  attack at criterion 08's config, TB collusion, the swap test on
  criterion 11's orthogonal pair and the product-ballot attack. This is
  the Monte Carlo loop, where trial batching lands. It uses ``qstate`` in
  both forms: correlated (phase attack) and dense (collusion, swap test,
  product ballot), so a change built for one form that costs the other
  shows up. The fifth is the no-go witness: one single-restart
  ``qubit_nogo_search`` plus ``qutrit_solution_check``, pure ``verify``
  plus scipy, which protocol and adversary changes should not move. The
  workload never touches ``cli`` or large-d decoding.

The no-go witness shares a workload with the attack calls, instead of
having one of its own, because the CPU speed of the 2-core VM this was
built on drifts by a quarter over tens of seconds, so each workload needs
long runs, and the benchmark's time budget (every run of every workload
within 57 minutes) allows two workloads of 50 s but not three. The run
prints each kind's median op time on its own line, so ``verify`` and
``adversary`` changes can still be told apart there. Five kinds in equal
shares also keep ``op_ms.p50`` and ``op_ms.p90`` inside one kind's spread
(third and fifth by cost) instead of on the gap between two kinds, where
the four attack kinds alone put the median.

``check_privacy`` is left out on purpose: making it apply the real
per-voter operations is a correctness fix whose cost must not read as a
regression. The test suite's wall time is left out because tests are not
traffic.

Which per-layer metric (see ``tracing.LAYER_METRICS``) should move which
end-to-end metric:

* ``cli.*`` -> ``op_ms.p50`` on ``scenarios``; no change on ``analysis``.
* ``protocols.*`` -> ``op_ms.p90`` and ``ops_per_s`` on ``scenarios``
  (d=1009 class) and ``ops_per_s`` on ``analysis`` (d=11, small share).
* ``ballots.*`` -> ``op_ms.p90``, ``ops_per_s`` and ``peak_rss_mb`` on
  ``scenarios`` (dense DB class) and ``ops_per_s`` on ``analysis``
  (collusion).
* ``qstate.*`` -> ``peak_rss_mb`` and ``op_ms.p90`` on ``scenarios`` and
  ``ops_per_s`` on ``analysis``.
* ``adversary.*`` -> ``ops_per_s`` and ``op_ms.p90`` (swap test) on
  ``analysis`` only.
* ``verify.*`` -> ``ops_per_s`` and ``op_ms.p50`` (no-go ops share the
  third cost rank with the phase attack) on ``analysis`` only.

Gates (a failed gate makes the op count as failed):

* ``scenarios``: exit code 0 and the decoded ``m`` equals the planted
  yes-count or euro total.
* ``analysis``: collusion counts are exact; product-ballot per-voter
  accuracy is 1.0; pooled over the run, the forgery detection rate lies
  within 0.03 of ``tests/fixtures/forgery_rate.json`` and the swap test
  detects at least 0.99 (a pooled gate that fails fails every op it
  pooled); each no-go restart's residual is at least ``epsilon0`` from
  ``tests/fixtures/nogo_grid.json`` and the qutrit residual is at most
  1e-12.
"""

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qvote import adversary, cli, verify
from qvote.ballots import BallotConfig, Scheme, SecureSecrets, voting_qudit_state

# Distinct first words of the seed sequences, so workloads given the same
# seed still draw unrelated inputs. Op i of a workload draws from its own
# stream, keyed [tag, seed, i]; a fresh generator per call matters, because
# Generator.spawn advances the SeedSequence it was built from.
SCENARIOS_TAG, ANALYSIS_TAG = 101, 102

# Inputs built at set-up; a run that outlasts them wraps round to op 0's.
POOL = 2048

# (scheme, d, N). DB d=11 N=6 is the largest DB size within the dense
# budget of two million amplitudes.
SCENARIO_CLASSES = [
    ("DB", 5, 4), ("DB", 11, 6), ("TB", 5, 4), ("SURVEY", 7, 3),
    ("SECURE", 7, 2), ("SECURE", 101, 10), ("SECURE", 1009, 20),
]
# Each yes vote in the dense class costs one apply_local over 1.77M
# amplitudes, so its yes count is fixed (positions still vary) to keep the
# class's cost, and with it op_ms.p90, the same from op to op.
DENSE_CLASS, DENSE_YES = ("DB", 11, 6), 3

ANALYSIS_KINDS = ("phase_estimate", "collusion", "symmetry", "product_ballot", "nogo")
# Trials per call. The swap test's true detection rate, 1 - 2**-7 = 0.9922,
# sits 0.0022 above its gate, so it gets more trials per call: at
# ``Analysis.min_ops`` (75 swap-test calls) the pooled gate has 37,500
# trials, a margin of 4.8 standard errors.
ATTACK_TRIALS = {"phase_estimate": 100, "collusion": 100, "symmetry": 500,
                 "product_ballot": 100}
FORGERY_BAND = 0.03
SWAP_FLOOR = 0.99
QUTRIT_CEILING = 1e-12

NOGO_RESTARTS, NOGO_ITERATIONS = 1, 500


@dataclass
class Outcome:
    """What one op produced, judged by the op's own gate."""

    ok: bool
    output: bytes
    # Counts pooled over the run for gates judged at the end.
    pooled: dict = field(default_factory=dict)
    output_bytes: int = 0


def check_scenario(code: int, result: dict | None, expected_m: int) -> bool:
    return code == 0 and result is not None and result.get("m") == expected_m


def check_collusion(inferred: list, expected: int, trials: int) -> bool:
    return len(inferred) == trials and all(k == expected for k in inferred)


def check_product(accuracy: list) -> bool:
    return len(accuracy) > 0 and all(a == 1.0 for a in accuracy)


def check_forgery(detected: int, trials: int, oracle: float) -> bool:
    return trials > 0 and abs(detected / trials - oracle) <= FORGERY_BAND


def check_swap(detected: int, trials: int) -> bool:
    return trials > 0 and detected / trials >= SWAP_FLOOR


def check_nogo(minimum: float, qutrit: float, epsilon0: float) -> bool:
    return minimum >= epsilon0 and qutrit <= QUTRIT_CEILING


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class Workload:
    """Defaults for a workload with no pooled gates and no scratch files."""

    def pooled_failures(self, pooled: dict) -> int:
        """Ops failed by gates judged over the whole run."""
        return 0

    def close(self):
        pass


class Scenarios(Workload):
    """Honest ``qvote run`` calls through the CLI, one config per op."""

    name = "scenarios"
    cycle = len(SCENARIO_CLASSES)
    min_ops = 105

    def __init__(self, seed: int, root: Path):
        self.workdir = root / ".bench_out" / f"scenarios-seed{seed}"
        rng = np.random.default_rng([SCENARIOS_TAG, seed])
        self.inputs = [self._config(i, rng) for i in range(POOL)]

    @staticmethod
    def _config(i: int, rng: np.random.Generator):
        scheme, d, n = SCENARIO_CLASSES[i % len(SCENARIO_CLASSES)]
        cfg = {"scheme": scheme, "d": d, "n": n, "seed": int(rng.integers(0, 2**31))}
        if scheme == "SURVEY":
            cfg["votes"] = [int(e) for e in rng.integers(0, (d - 1) // n + 1, size=n)]
            return cfg, sum(cfg["votes"])
        if (scheme, d, n) == DENSE_CLASS:
            yes = rng.permutation(n) < DENSE_YES
        else:
            yes = rng.random(n) < 0.5
        cfg["votes"] = ["Y" if y else "N" for y in yes]
        return cfg, int(yes.sum())

    @staticmethod
    def kind(i: int) -> str:
        scheme, d, n = SCENARIO_CLASSES[i % len(SCENARIO_CLASSES)]
        return f"{scheme}_d{d}_N{n}"

    def prepare(self, i: int):
        cfg, _ = self.inputs[i % POOL]
        shutil.rmtree(self.workdir, ignore_errors=True)
        out = self.workdir / "out"
        out.mkdir(parents=True)
        path = self.workdir / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = ["run", "--config", str(path), "--out", str(out)]
        return lambda: cli.main(argv)

    def check(self, i: int, code) -> Outcome:
        _, expected = self.inputs[i % POOL]
        files = sorted((self.workdir / "out").iterdir())
        output = b"".join(f.name.encode() + b"\0" + f.read_bytes() for f in files)
        results = [f for f in files if f.name.endswith(".result.json")]
        result = json.loads(results[0].read_text()) if len(results) == 1 else None
        return Outcome(check_scenario(code, result, expected), output,
                       output_bytes=sum(f.stat().st_size for f in files))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class Analysis(Workload):
    """Monte Carlo attack calls and no-go searches, each on its own child stream."""

    name = "analysis"
    cycle = len(ANALYSIS_KINDS)
    min_ops = 375

    def __init__(self, seed: int, root: Path):
        fixtures = root / "tests" / "fixtures"
        fixture = json.loads((fixtures / "forgery_rate.json").read_text())
        self.oracle = fixture["detection_rate"]
        self.phase_config = BallotConfig(fixture["d"], 3, Scheme.SECURE,
                                         secrets=SecureSecrets(1, 0, 0.2))
        self.phase_scale = fixture["error_scale"]
        self.phase_reps = fixture["repetitions"]
        self.tb_config = BallotConfig(5, 4, Scheme.TB)
        self.db_config = BallotConfig(5, 3, Scheme.DB)
        self.pair = [voting_qudit_state(5, 0.9), voting_qudit_state(5, 0.9 + 2 * np.pi / 5)]
        self.epsilon0 = json.loads((fixtures / "nogo_grid.json").read_text())["epsilon0"]
        rng = np.random.default_rng([ANALYSIS_TAG, seed])
        self.inputs = [([ANALYSIS_TAG, seed, i],
                        ["Y" if y else "N" for y in rng.random(4) < 0.5])
                       for i in range(POOL)]

    @staticmethod
    def kind(i: int) -> str:
        return ANALYSIS_KINDS[i % len(ANALYSIS_KINDS)]

    def prepare(self, i: int):
        key, votes = self.inputs[i % POOL]
        rng = np.random.default_rng(key)
        kind = self.kind(i)
        trials = ATTACK_TRIALS.get(kind)
        if kind == "phase_estimate":
            return lambda: adversary.phase_estimate_attack(
                self.phase_config, 0, self.phase_scale, trials, rng,
                votes=["N"] * self.phase_config.N, repetitions=self.phase_reps)
        if kind == "collusion":
            return lambda: adversary.collusion_attack_tb(self.tb_config, votes, (0, 3),
                                                         trials, rng)
        if kind == "symmetry":
            return lambda: [adversary.detect_symmetry(self.pair, g, comparisons=7)
                            for g in rng.spawn(trials)]
        if kind == "product_ballot":
            return lambda: adversary.authority_product_ballot(self.db_config, votes[:3], rng,
                                                              trials=trials)

        def nogo():
            minimum, params = verify.qubit_nogo_search(NOGO_RESTARTS, NOGO_ITERATIONS, rng)
            return minimum, params, verify.qutrit_solution_check()
        return nogo

    def check(self, i: int, result) -> Outcome:
        _, votes = self.inputs[i % POOL]
        kind = self.kind(i)
        if kind == "nogo":
            minimum, params, qutrit = result
            output = _json_bytes({"min": minimum, "qutrit": qutrit, "nu": params.nu,
                                  "theta": params.theta, "m_hat": params.m_hat.tolist(),
                                  "n_hat": params.n_hat.tolist(),
                                  "omega": [[z.real, z.imag] for z in params.omega.tolist()]})
            return Outcome(check_nogo(minimum, qutrit, self.epsilon0), output)
        if kind == "symmetry":
            detected = sum(v == adversary.CHEATING for v in result)
            return Outcome(True, _json_bytes(result),
                           pooled={"symmetry.detected": detected,
                                   "symmetry.trials": len(result), "symmetry.ops": 1})
        output = _json_bytes(result.to_dict())
        if kind == "phase_estimate":
            return Outcome(True, output,
                           pooled={"phase.detected": sum(map(bool, result.detection_verdicts)),
                                   "phase.trials": result.trials, "phase.ops": 1})
        if kind == "collusion":
            expected = sum(v == "Y" for v in votes[1:3])
            return Outcome(check_collusion(result.inferred_secrets["in_between_yes_counts"],
                                           expected, ATTACK_TRIALS["collusion"]), output)
        return Outcome(check_product(result.inferred_secrets["per_voter_accuracy"]), output)

    def pooled_failures(self, pooled: dict) -> int:
        """Ops failed by the pooled gates: every op a failed gate pooled."""
        gates = {"phase": lambda d, t: check_forgery(d, t, self.oracle),
                 "symmetry": check_swap}
        return sum(pooled[f"{kind}.ops"] for kind, gate in gates.items()
                   if pooled.get(f"{kind}.ops")
                   and not gate(pooled[f"{kind}.detected"], pooled[f"{kind}.trials"]))


WORKLOADS = {w.name: w for w in (Scenarios, Analysis)}
