"""Spans around the public functions of each qvote module, for the traced run.

``Tracer.install`` replaces every binding of each function in
``SPANNED`` in the loaded ``qvote`` modules (``qvote.run_secure_vote``,
``qvote.protocols.run_secure_vote``, ``qvote.adversary.run_secure_vote``
and ``qvote.cli.run_secure_vote`` are all the same function and all get
the same wrapper). ``jsonschema.validate`` is wrapped only as ``cli``
calls it, ``Transcript.write`` on its class, and the ``PureState`` and
``CorrelatedState`` constructors are counted, not spanned. ``uninstall``
puts every original back, so the untraced runs execute the program as it
is.

A span records its name, start, end, parent span and op id. Spans are kept
in flat arrays in memory and written out when the run ends. Private helpers
(``_secure_round``, ``_sample``, ``_unpack``) are not wrapped; their time is
their public caller's self time. Self time is a span's duration minus the
durations of its child spans.
"""

import functools
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import jsonschema

from qvote import adversary, ballots, cli, protocols, qstate, verify
from qvote.qstate import INVALID

ROOT = "op"


def _count_invalid(tracer, args, result):
    if result == INVALID:
        tracer.count("ballots.decode.invalid")


def _count_apply_bytes(tracer, args, result):
    # Computed, not measured: one read and one write of the complex128 state.
    tracer.count("qstate.apply_local.bytes", 2 * 16 * result.dim)


def _count_attack(tracer, args, result):
    tracer.count("adversary.trials", result.trials)
    tracer.count("adversary.cheat_verdicts", sum(map(bool, result.detection_verdicts or [])))


def _count_symmetry(tracer, args, result):
    tracer.count("adversary.trials")
    tracer.count("adversary.cheat_verdicts", int(result == adversary.CHEATING))


def _count_pure(tracer, state):
    tracer.count("qstate.PureState.constructed")
    key = ("qstate.dense_amps", tracer.op)
    tracer.maxima[key] = max(tracer.maxima[key], state.amps.size)


def _count_correlated(tracer, state):
    tracer.count("qstate.CorrelatedState.constructed")


def _count_minimize(tracer, args, result):
    tracer.count("verify.minimize.nit", result.nit)
    tracer.count("verify.minimize.nfev", result.nfev)


# Span name -> (module, attribute, counter hook run on the result).
SPANNED = {
    "cli.main": (cli, "main", None),
    "protocols.run_db_vote": (protocols, "run_db_vote", None),
    "protocols.run_tb_vote": (protocols, "run_tb_vote", None),
    "protocols.run_secure_vote": (protocols, "run_secure_vote", None),
    "protocols.run_survey": (protocols, "run_survey", None),
    "ballots.prepare_db_ballot": (ballots, "prepare_db_ballot", None),
    "ballots.cast_vote_db": (ballots, "cast_vote_db", None),
    "ballots.decode_db": (ballots, "decode_db", _count_invalid),
    "ballots.decode_tb": (ballots, "decode_tb", _count_invalid),
    "qstate.apply_local": (qstate, "apply_local", _count_apply_bytes),
    "qstate.measure_computational": (qstate, "measure_computational", None),
    "qstate.measure_projective": (qstate, "measure_projective", None),
    "qstate.tensor": (qstate, "tensor", None),
    "adversary.phase_estimate_attack": (adversary, "phase_estimate_attack", _count_attack),
    "adversary.collusion_attack_tb": (adversary, "collusion_attack_tb", _count_attack),
    "adversary.detect_symmetry": (adversary, "detect_symmetry", _count_symmetry),
    "adversary.authority_product_ballot": (adversary, "authority_product_ballot",
                                           _count_attack),
    "verify.qubit_residual": (verify, "qubit_residual", None),
    "verify.minimize": (verify, "minimize", _count_minimize),
}

# Per-layer metrics: (name, unit, kind, source). Times are per op over
# every traced op. Counts are per op over the first ``window`` ops, which
# every run completes, so they repeat exactly for a given seed.
LAYER_METRICS = [
    ("cli.main.self_ms", "ms", "self", "cli.main"),
    ("cli.validate.ms", "ms", "total", "cli.validate"),
    ("cli.output.bytes", "bytes", "counter", "cli.output.bytes"),
    ("protocols.run_secure_vote.self_ms", "ms", "self", "protocols.run_secure_vote"),
    ("protocols.run_secure_vote.calls", "count", "calls", "protocols.run_secure_vote"),
    ("protocols.run_db_vote.self_ms", "ms", "self", "protocols.run_db_vote"),
    ("protocols.run_tb_vote.self_ms", "ms", "self", "protocols.run_tb_vote"),
    ("protocols.run_survey.self_ms", "ms", "self", "protocols.run_survey"),
    ("protocols.Transcript.write.ms", "ms", "total", "protocols.Transcript.write"),
    ("protocols.Transcript.events", "count", "counter", "protocols.Transcript.events"),
    ("ballots.prepare_db_ballot.self_ms", "ms", "self", "ballots.prepare_db_ballot"),
    ("ballots.cast_vote_db.calls", "count", "calls", "ballots.cast_vote_db"),
    ("ballots.cast_vote_db.self_ms", "ms", "self", "ballots.cast_vote_db"),
    ("ballots.decode_db.self_ms", "ms", "self", "ballots.decode_db"),
    ("ballots.decode_tb.self_ms", "ms", "self", "ballots.decode_tb"),
    ("ballots.decode.invalid", "count", "counter", "ballots.decode.invalid"),
    ("qstate.apply_local.calls", "count", "calls", "qstate.apply_local"),
    ("qstate.apply_local.self_ms", "ms", "self", "qstate.apply_local"),
    ("qstate.apply_local.bytes", "bytes", "counter", "qstate.apply_local.bytes"),
    ("qstate.measure_computational.calls", "count", "calls", "qstate.measure_computational"),
    ("qstate.measure_computational.self_ms", "ms", "self", "qstate.measure_computational"),
    ("qstate.measure_projective.calls", "count", "calls", "qstate.measure_projective"),
    ("qstate.measure_projective.self_ms", "ms", "self", "qstate.measure_projective"),
    ("qstate.tensor.calls", "count", "calls", "qstate.tensor"),
    ("qstate.PureState.constructed", "count", "counter", "qstate.PureState.constructed"),
    ("qstate.CorrelatedState.constructed", "count", "counter",
     "qstate.CorrelatedState.constructed"),
    ("qstate.dense_amps.max", "count", "max", "qstate.dense_amps"),
    ("adversary.phase_estimate_attack.self_ms", "ms", "self",
     "adversary.phase_estimate_attack"),
    ("adversary.collusion_attack_tb.self_ms", "ms", "self", "adversary.collusion_attack_tb"),
    ("adversary.detect_symmetry.self_ms", "ms", "self", "adversary.detect_symmetry"),
    ("adversary.authority_product_ballot.self_ms", "ms", "self",
     "adversary.authority_product_ballot"),
    ("adversary.trials", "count", "counter", "adversary.trials"),
    ("adversary.cheat_verdicts", "count", "counter", "adversary.cheat_verdicts"),
    ("verify.qubit_residual.calls", "count", "calls", "verify.qubit_residual"),
    ("verify.qubit_residual.us_per_call", "us", "per_call", "verify.qubit_residual"),
    ("verify.minimize.self_ms", "ms", "self", "verify.minimize"),
    ("verify.minimize.nit", "count", "counter", "verify.minimize.nit"),
    ("verify.minimize.nfev", "count", "counter", "verify.minimize.nfev"),
    # Share of op time inside spans other than the op's root span; the
    # rest is time no wrapped function accounts for.
    ("trace.covered_share", "ratio", "covered", ROOT),
]


class _Proxy:
    """Stands in for a module, with some attributes replaced."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    """In-memory span store plus per-op counters."""

    def __init__(self):
        self.names = [ROOT]
        self.name_ids = {ROOT: 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.op = -1
        self.counters = defaultdict(int)   # (name, op) -> sum
        self.maxima = defaultdict(int)     # (name, op) -> max
        self._restore = []

    def open(self, name: str) -> int:
        sid = len(self.span_start)
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(self.name_ids[name])
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.stack.append(sid)
        self.span_start.append(perf_counter())
        return sid

    def close(self, sid: int):
        self.span_end[sid] = perf_counter()
        self.stack.pop()

    def count(self, name: str, value=1):
        self.counters[(name, self.op)] += value

    def begin_op(self, op: int):
        self.op = op
        self.open(ROOT)

    def end_op(self):
        self.close(self.stack[0])
        self.stack.clear()

    def _span(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def _counted(self, cls, hook):
        original = cls.__post_init__

        def post_init(obj):
            original(obj)
            hook(self, obj)
        return post_init

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qvote" or name.startswith("qvote."))]
        for name, (module, attr, hook) in SPANNED.items():
            original = getattr(module, attr)
            wrapper = self._span(name, original, hook)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._replace(m, attr, wrapper)
        self._replace(cli, "jsonschema", _Proxy(
            jsonschema, validate=self._span("cli.validate", jsonschema.validate)))
        self._replace(protocols.Transcript, "write", self._span(
            "protocols.Transcript.write", protocols.Transcript.write,
            lambda tr, args, result: tr.count("protocols.Transcript.events",
                                              len(args[0].events))))
        self._replace(qstate.PureState, "__post_init__",
                      self._counted(qstate.PureState, _count_pure))
        self._replace(qstate.CorrelatedState, "__post_init__",
                      self._counted(qstate.CorrelatedState, _count_correlated))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def metrics(self, ops: int, window: int) -> dict:
        """Per-layer metrics per op: times over ``ops`` ops, counts over ``window``."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.span_parent[i] >= 0:
                child[self.span_parent[i]] += dur[i]
        by_name = defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0,
                                       "window_calls": 0})
        covered = root = 0.0
        for i in range(n):
            agg = by_name[self.names[self.span_name[i]]]
            agg["total"] += dur[i]
            agg["self"] += dur[i] - child[i]
            agg["calls"] += 1
            agg["window_calls"] += self.span_op[i] < window
            parent = self.span_parent[i]
            if parent < 0:
                root += dur[i]
            elif self.span_parent[parent] < 0:
                covered += dur[i]

        out = {}
        for metric, unit, kind, source in LAYER_METRICS:
            agg = by_name[source]
            if kind == "self":
                value = agg["self"] * 1e3 / ops
            elif kind == "total":
                value = agg["total"] * 1e3 / ops
            elif kind == "calls":
                value = agg["window_calls"] / window
            elif kind == "per_call":
                value = agg["total"] * 1e6 / agg["calls"] if agg["calls"] else 0.0
            elif kind == "counter":
                value = sum(v for (name, op), v in self.counters.items()
                            if name == source and op < window) / window
            elif kind == "max":
                value = max((v for (name, op), v in self.maxima.items()
                             if name == source and op < window), default=0)
            else:
                value = covered / root if root else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tname\tparent\top\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                f.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                        f"{self.span_op[i]}\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n")
