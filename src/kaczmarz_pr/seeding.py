"""Deterministic seed derivation.

All randomness flows through numpy Generators (PCG64).  Derived seeds are
mixed with ``numpy.random.SeedSequence``, whose hashing is specified and
stable across platforms, so every run is reproducible from integer seeds
alone regardless of thread or process scheduling.  The checks of integer
and real settings live here too.
"""

from __future__ import annotations

import math

import numpy as np

# per-trial sub-stream indices
SIGNAL_STREAM = 0
ENSEMBLE_STREAM = 1
SPECTRAL_STREAM = 2
SOLVER_STREAM = 3


def derive_seed(*parts: int) -> int:
    """Mix integer parts into one 64-bit seed (stable across platforms)."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def check_int(name: str, value, low: int) -> None:
    """Raise ValueError unless ``value`` is a Python or numpy integer >=
    ``low``; a float such as 1.5 is refused rather than truncated, and a
    bool too."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


def check_real(name: str, value, low: float, *, strict: bool = False) -> None:
    """Raise ValueError unless ``value`` is a finite Python or numpy int or
    float >= ``low``, or > ``low`` where ``strict``; a bool is refused, and
    a string too."""
    if isinstance(value, bool) or not (
        isinstance(value, (int, np.integer)) or isinstance(value, (float, np.floating)) and math.isfinite(value)
    ):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if value < low or (strict and value == low):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {low:g}")
