"""The Haar sampling stream: Philox-keyed Ginibre matrices and their QR.

Reproducibility: sample ``i`` of a run is generated from its own Philox
substream keyed by ``(seed, start + i)``, so results are a pure function of
``(seed, start, n)`` and independent of batching.

The cycle-energy kernel lives in :mod:`qmcool.engine`.  This module keeps
its name because the benchmark harness (``perfbench/``) reads and wraps
the stream as ``qmcool._accel``.
"""

import operator

import numpy as np

from .errors import ValidationError


# Philox keys above this pass through float64 in numpy and alias other keys.
INT64_MAX = 2**63 - 1


def check_seed(seed):
    """The seed as an int, if it is an integer (not a bool, float or str) in [0, 2**63 - 1]."""
    try:
        value = None if isinstance(seed, bool) else operator.index(seed)
    except TypeError:
        value = None
    if value is None or not 0 <= value <= INT64_MAX:
        raise ValidationError(f"seed must be an integer in [0, 2**63 - 1], got {seed!r}")
    return value


def ginibre_batch(seed, start, n):
    """n complex standard-Gaussian 4x4 matrices from per-sample Philox substreams."""
    seed = check_seed(seed)
    if int(start) + n - 1 > INT64_MAX:
        raise ValidationError(f"sample counter {int(start) + n - 1} exceeds 2**63 - 1")
    out = np.empty((n, 4, 4), dtype=np.complex128)
    root = np.sqrt(2.0)
    for i in range(n):
        g = np.random.Generator(np.random.Philox(key=[seed, int(start) + i]))
        z = g.standard_normal((2, 4, 4))
        out[i] = (z[0] + 1j * z[1]) / root
    return out


def haar_from_ginibre(gin):
    """QR-orthonormalize Ginibre matrices into Haar-distributed unitaries.

    The gauge is fixed by rotating each column so the corresponding R-diagonal
    entry is real positive (Mezzadri, math-ph/0609050); this makes the map from
    Ginibre matrix to unitary single-valued and the unitaries Haar-distributed.
    """
    q, r = np.linalg.qr(gin)
    d = np.einsum("...ii->...i", r)
    return q * (d / np.abs(d))[..., None, :]
