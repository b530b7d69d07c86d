"""Entangled-qudit anonymous voting: simulator and verification harness.

Names are imported from their modules (``qvote.ballots``, ``qvote.protocols``,
...); the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
