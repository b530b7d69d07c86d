"""qvote benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload scenarios|analysis --seed N \\
        --seconds S --trace 0|1
    python3 bench/run.py --workload all ...   # one table row per workload

Each run imports ``qvote`` from ``src/`` of the checkout and reads the
oracle fixtures under ``tests/fixtures/``; without them it exits with code
2 and prints no result. Scratch files go under ``.bench_out/``.

``--trace 0`` measures the end-to-end metrics with no tracing: set-up
time, ops per second of op time, op latency at p50 and p90, peak resident
memory and the share of ops that passed their gates. One op is timed from
call to return; the loop stops after ``--seconds`` once at least the
workload's ``min_ops`` ops and a whole number of input cycles are done.

``--trace 1`` gives the per-layer metrics. It first replays the first
``min_ops`` ops untraced, then installs the wrappers of ``tracing.py`` and
runs the loop for ``--seconds``. The trace overhead is the traced over the
untraced op time on those same ops, and the traced ops must reproduce the
untraced outputs byte for byte.

Both modes print a sha256 digest over the outputs of the first ``min_ops``
ops, in op order. Every run completes those ops, so two runs with the same
seed print the same digest. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Noise seen on the 2-core VM this was built on: the same 12 s run repeated
with the same seed spread about 25%, and one no-go restart's median moved
from 70 to 78 ms between back-to-back processes with CPU time equal to wall
time. One process timing no-go restarts saw 7.2 to 11.5 ops/s across 5 s
windows; over five minutes their mean moved between 84 and 136 ms across
10 s windows but only between 106 and 119 ms across 60 s windows, while a
fixed pure-Python loop moved with them. Ten-seed medians of 35 s runs
moved by up to a quarter between sets run ten minutes apart, and ten 50 s
runs of one workload saw 10.1 to 14.1 ops/s. The noise is CPU speed, not
waiting, so a run lasts 50 s, times hundreds of ops and reports medians,
``setup_s`` is the median of several fresh interpreters (single fresh
imports ranged 0.47-0.84 s), and every end-to-end time is scaled by the
reference kernel of ``speed.py``, timed between ops in the same run, to a
machine of fixed speed. A line before the result gives the reference time
and the unscaled figures. Each kind of op also gets its median time on a
line of its own, to see which kind moved. Per-layer times are unscaled.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
REQUIRED = [SRC / "qvote" / "__init__.py", ROOT / "tests" / "fixtures" / "forgery_rate.json",
            ROOT / "tests" / "fixtures" / "nogo_grid.json"]
WORKLOAD_NAMES = ("scenarios", "analysis")

# Fresh interpreters started for set-up time, besides this process.
SETUP_CHILDREN = 4
SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import qvote.cli, workloads\n"
    "workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), workloads.Path(sys.argv[5]))\n"
    "elapsed = time.perf_counter() - t0\n"
    "import speed\n"
    "print(elapsed, speed.sampled(int(sys.argv[6])).reference_ms())\n"
)
# Reference-kernel times each set-up child takes after its set-up.
SPEED_SAMPLES = 20

SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_ms.p50": "ms",
                    "op_ms.p90": "ms", "peak_rss_mb": "MB", "ok_share": "ratio"}
# Trace overhead, on the first min_ops ops: traced over untraced op time.
TRACE_UNITS = {"trace.overhead": "ratio", "trace.ops_per_s": "ops/s",
               "trace.untraced_ops_per_s": "ops/s"}


class Run:
    """The ops of one loop: times, gate verdicts and output digest."""

    def __init__(self, digest_ops: int):
        self.times = []
        self.kind_ms = {}
        self.failed = 0
        self.pooled = {}
        self.digest_ops = digest_ops
        self.sha = hashlib.sha256()

    def record(self, i: int, kind: str, seconds: float, outcome):
        self.times.append(seconds)
        self.kind_ms.setdefault(kind, []).append(seconds * 1e3)
        self.failed += not outcome.ok
        for key, value in outcome.pooled.items():
            self.pooled[key] = self.pooled.get(key, 0) + value
        if i < self.digest_ops:
            self.sha.update(len(outcome.output).to_bytes(8, "little") + outcome.output)


def run_loop(wl, seconds: float | None, count: int | None = None, tracer=None,
             speed=None) -> Run:
    """Run ops 0, 1, ... for ``seconds``, or exactly ``count`` ops.

    With ``speed``, the reference kernel is timed between ops, outside the
    op times.
    """
    from workloads import Outcome

    run = Run(wl.min_ops)
    start = perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif perf_counter() - start >= seconds and i >= wl.min_ops and i % wl.cycle == 0:
            break
        op = wl.prepare(i)
        if tracer:
            tracer.begin_op(i)
        t = perf_counter()
        try:
            result = op()
        except Exception:
            elapsed = perf_counter() - t
            traceback.print_exc()
            outcome = Outcome(False, b"")
        else:
            elapsed = perf_counter() - t
            outcome = wl.check(i, result)
        if tracer:
            tracer.end_op()
            tracer.count("cli.output.bytes", outcome.output_bytes)
        run.record(i, wl.kind(i), elapsed, outcome)
        if speed:
            speed.maybe_sample()
        i += 1
    run.failed += wl.pooled_failures(run.pooled)
    return run


def setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh interpreters, each scaled by its own reference time."""
    import speed

    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH), workload, str(seed),
             str(ROOT), str(SPEED_SAMPLES)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds, reference_ms = map(float, proc.stdout.split())
        samples.append(seconds * speed.NOMINAL_MS / reference_ms)
    return samples


def end_to_end(run: Run, setup: list[float], scale: float) -> dict:
    """The end-to-end metrics, with run times multiplied by ``scale``."""
    ms = [t * 1e3 * scale for t in run.times]
    n = len(ms)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / (sum(run.times) * scale),
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": (n - run.failed) / n,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def run_workload(args) -> int:
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"bench: missing {', '.join(missing)}; run from a qvote source checkout",
              file=sys.stderr)
        return 2
    # The CLI honours QVOTE_OUT_DIR over --out; keep every output in the checkout.
    os.environ.pop("QVOTE_OUT_DIR", None)
    # One client, no extra threads: BLAS pools would otherwise spin a second
    # core on tiny matrices. Set before numpy loads; set-up children inherit it.
    os.environ.update(SINGLE_THREAD)
    t0 = perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import qvote.cli  # noqa: F401  (part of the timed set-up)
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    setup = perf_counter() - t0

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    try:
        with open(os.devnull, "w") as devnull:
            stdout, sys.stdout = sys.stdout, devnull  # the CLI prints per op
            try:
                result = traced(wl, args) if args.trace else untraced(wl, args, setup)
            finally:
                sys.stdout = stdout
    finally:
        wl.close()
    run, correct, metrics, notes = result
    n = len(run.times)
    print(f"workload {args.workload} seed {args.seed}: {n} ops, {run.failed} failed")
    print(f"digest {args.workload} seed {args.seed} ops 0..{wl.min_ops - 1}: "
          f"sha256 {run.sha.hexdigest()}")
    print("\n".join(notes))
    print(json.dumps({"correct": correct, "attempted": n, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def by_kind(run: Run, scale: float) -> str:
    return " ".join(f"{kind}={statistics.median(ms) * scale:.4g}"
                    for kind, ms in run.kind_ms.items())


def untraced(wl, args, setup: float):
    """The end-to-end run: set-up children, warm-up, then the timed loop."""
    import speed

    children = setup_samples(args.workload, args.seed)
    run_loop(wl, None, count=wl.cycle)  # warm-up, not recorded
    pace = speed.Speed()
    run = run_loop(wl, args.seconds, speed=pace)
    scale = pace.scale()
    metrics = end_to_end(run, [setup * scale] + children, scale)
    n = len(run.times)
    notes = [
        f"reference kernel: median {pace.reference_ms():.4g} ms over {len(pace.samples)} "
        f"samples, nominal {speed.NOMINAL_MS} ms; times below are scaled by {scale:.4g}",
        f"unscaled: ops_per_s={n / sum(run.times):.4g} "
        f"op_ms.p50={statistics.median(run.times) * 1e3:.4g} setup_s={setup:.4g}",
        f"op_ms.p50 by kind: {by_kind(run, scale)}",
        f"op_ms.p90 from {n} samples, {n - int(0.9 * n)} beyond it",
    ]
    return run, run.failed == 0, metrics, notes


def traced(wl, args):
    import tracing

    run_loop(wl, None, count=wl.cycle)  # warm-up, not recorded
    plain = run_loop(wl, None, count=wl.min_ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run = run_loop(wl, args.seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.tsv")
    metrics = tracer.metrics(len(run.times), wl.min_ops)
    traced_s = sum(run.times[:wl.min_ops])
    plain_s = sum(plain.times)
    values = {"trace.overhead": traced_s / plain_s, "trace.ops_per_s": wl.min_ops / traced_s,
              "trace.untraced_ops_per_s": wl.min_ops / plain_s}
    metrics.update({k: {"value": v, "unit": TRACE_UNITS[k]} for k, v in values.items()})
    same = run.sha.digest() == plain.sha.digest()
    if not same:
        print("bench: traced outputs differ from untraced outputs", file=sys.stderr)
    notes = [f"op_ms.p50 by kind, traced and unscaled: {by_kind(run, 1.0)}",
             f"trace row {args.workload}: " + " ".join(
                 f"{k}={v['value']:.6g}{v['unit']}" for k, v in metrics.items())]
    return run, same and run.failed == 0 and plain.failed == 0, metrics, notes


def run_all(args) -> int:
    """Run each workload in its own process and print one row per workload."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        status |= not result["correct"]
        rows.append((name, result))
    names = list(rows[0][1]["metrics"])
    print("\t".join(["workload", "correct", "attempted", "failed"]
                    + [f"{k} [{rows[0][1]['metrics'][k]['unit']}]" for k in names]))
    for name, result in rows:
        print("\t".join([name, str(result["correct"]), str(result["attempted"]),
                         str(result["failed"])]
                        + [f"{result['metrics'][k]['value']:.6g}" for k in names]))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
