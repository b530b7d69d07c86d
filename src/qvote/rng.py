"""Deterministic random-stream derivation.

Every run owns a single master seed. All randomness is drawn from numpy
PCG64 generators keyed by ``SeedSequence([master_seed, *path])``, where
``path`` is a tuple of small integers naming the consumer (authority
secrets, repetition index, trial index, ...). The same seed therefore
reproduces every transcript bit-exactly, and independent consumers never
share a stream.
"""

import numpy as np

# Stream name -> fixed path prefix. Kept stable so transcripts replay.
AUTHORITY = 0
REPETITION = 1
TRIAL = 2
COMMITMENT = 3
DETECTION = 4
VOTES = 5


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for ``path`` under ``master_seed``."""
    ss = np.random.SeedSequence([int(master_seed), *[int(p) for p in path]])
    return np.random.Generator(np.random.PCG64(ss))

