"""The Haar sampling kernel: Ginibre stream, QR, and the closed-form cycle energies.

The expensive inner loop of the Monte Carlo sweeps draws a Haar-random
unitary U, rotates the measurement basis by it, and accumulates the three
cycle energy changes.  The initial state is the diagonal Gibbs product with
populations p, so the measurement only moves populations through the
unistochastic matrix P = |U C|^2 (C holds the unrotated basis vectors as
columns) and the energy changes have the closed form

    dE_i = p^T (P P^T - I) h_i,   dE = dE1 + dE2,

with h_i the diagonal of H_i on the joint space.

Reproducibility: sample ``i`` of a run is generated from its own Philox
substream keyed by ``(seed, start + i)``, so results are a pure function of
``(seed, start, n)`` and independent of batching.
"""

import numpy as np

from .errors import ValidationError


# Philox keys above this pass through float64 in numpy and alias other keys.
INT64_MAX = 2**63 - 1


def check_seed(seed):
    """The seed as an int, if it is a Philox key in [0, 2**63 - 1]."""
    if seed is None or not 0 <= int(seed) <= INT64_MAX:
        raise ValidationError(f"seed must be an integer in [0, 2**63 - 1], got {seed!r}")
    return int(seed)


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


def cycle_energies_from_ginibre(gin, p, h1, h2, basis_cols):
    """Kernel entry point on pre-generated Ginibre matrices.

    ``p`` holds the four populations of the diagonal initial state,
    ``h1``/``h2`` the diagonal 4-vectors of the two local Hamiltonians lifted
    to the joint space, and ``basis_cols`` the unrotated basis vectors as
    columns.  Returns an (n, 3) float array of (dE1, dE2, dE) triples, one
    per sample.
    """
    big_p = np.abs(haar_from_ginibre(gin) @ basis_cols) ** 2
    b = big_p @ big_p.transpose(0, 2, 1) - np.eye(4)
    out = np.empty((len(big_p), 3))
    out[:, :2] = p @ b @ np.column_stack([h1, h2])
    out[:, 2] = out[:, 0] + out[:, 1]
    return out


def cycle_energy_samples(p, h1, h2, basis_cols, seed, n, start=0):
    """Energy-change triples for n Haar-rotated-basis cycles from a seed."""
    gin = ginibre_batch(seed, start, n)
    return cycle_energies_from_ginibre(gin, p, h1, h2, basis_cols)
