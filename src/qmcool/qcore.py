"""Complex-matrix intake, the trace tolerance and the Uhlmann fidelity.

Two-qubit basis order is (|00>, |01>, |10>, |11>) with qubit 1 as the slow (left
Kronecker) index.  Matrices enter as complex128 ndarrays with finite entries
(:func:`as_complex`), and a map must keep the trace within ``TRACE_TOL``;
violations raise :class:`~qmcool.errors.ValidationError`.
"""

import numpy as np

from .errors import ValidationError

TRACE_TOL = 1e-12


def as_complex(matrix):
    """Return the input as a complex128 ndarray without copying when possible."""
    arr = np.asarray(matrix, dtype=np.complex128)
    if not np.isfinite(arr).all():  # a complex entry is finite when both its parts are
        raise ValidationError("matrix has non-finite entries")
    return arr


def _fidelity(a, b):
    """Uhlmann fidelity of two unvalidated Hermitian unit-trace operators, capped
    at 1; tiny negative eigenvalues are clipped to zero."""
    w, v = np.linalg.eigh(a)
    sa = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    w = np.linalg.eigvalsh(sa @ b @ sa)
    return min(float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2), 1.0)
