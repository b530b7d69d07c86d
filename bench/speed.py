"""Machine speed from a fixed reference kernel, to scale the benchmark's times.

The CPU speed of the 2-core VM this benchmark was built on drifts by a
quarter to two fifths over minutes: ten 50 s runs of one workload saw 10.1
to 14.1 ops/s, every kind of op faster or slower together. No statistic
over one run removes a drift that outlasts the run, so each run also times
``reference_work``, fixed work that calls nothing in ``qvote``, every
``EVERY_S`` seconds between ops, and reports its times scaled to a machine
on which that work takes ``NOMINAL_MS`` (about this VM's uncontended
speed). A change to ``qvote`` moves the scaled times as it moves the raw
ones; a slower or faster machine moves the op and the reference times
together and cancels out.

The kernel does the kinds of work the workloads do, through the same
libraries: a ``jsonschema.validate`` call (what ``cli`` spends most of a
small scenario on), a few L-BFGS-B steps of scipy on the Rosenbrock
function (the no-go search's loop) and small complex ``tensordot`` calls
(``qstate``). Over four minutes of ``analysis`` ops in which the machine
slowed and sped up by 40%, the log of the mean op time across 10 s windows
had a standard deviation of 0.20; divided by this kernel's median time in
the same windows it had 0.038, with a slope of 1.02 between the two.
"""

import statistics
from time import perf_counter

import jsonschema
import numpy as np
from scipy.optimize import minimize, rosen

EVERY_S = 0.2
NOMINAL_MS = 4.0

_SCHEMA = {
    "type": "object",
    "required": ["scheme", "votes"],
    "properties": {
        "d": {"type": "integer", "minimum": 2},
        "votes": {"type": "array", "items": {"enum": ["Y", "N"]}},
        "scheme": {"type": "string", "pattern": "^[A-Z]+$"},
    },
    "additionalProperties": False,
}
_DOC = {"scheme": "DB", "d": 5, "votes": ["Y", "N", "Y", "N"]}
_X0 = np.array([-1.2, 1.0, -0.5, 0.8])
_GATE = np.linspace(0.0, 1.0, 25).reshape(5, 5) + 0j


def reference_work() -> float:
    jsonschema.validate(_DOC, _SCHEMA)
    total = minimize(rosen, _X0, method="L-BFGS-B", options={"maxiter": 5}).fun
    for _ in range(4):
        psi = np.full(125, 125 ** -0.5, dtype=complex)
        for _ in range(10):
            psi = np.tensordot(_GATE, psi.reshape(5, 5, 5), axes=([1], [1])).reshape(-1)
            psi /= np.linalg.norm(psi)
        total += abs(psi[0])
    return total


def time_reference() -> float:
    """Seconds one call of ``reference_work`` takes."""
    t = perf_counter()
    reference_work()
    return perf_counter() - t


class Speed:
    """Reference-kernel times taken through a run, and the scale they give."""

    def __init__(self):
        self.samples = []
        self.last = float("-inf")

    def maybe_sample(self):
        """Time the reference kernel if ``EVERY_S`` passed since the last time."""
        if perf_counter() - self.last >= EVERY_S:
            self.samples.append(time_reference())
            self.last = perf_counter()

    def reference_ms(self) -> float:
        return statistics.median(self.samples) * 1e3

    def scale(self) -> float:
        """Factor that turns a time measured in this run into nominal-machine time."""
        return NOMINAL_MS / self.reference_ms()


def sampled(count: int) -> Speed:
    """A ``Speed`` from ``count`` back-to-back reference times."""
    speed = Speed()
    speed.samples = [time_reference() for _ in range(count)]
    return speed
