"""Density-operator validation and the distances between states.

Conventions used everywhere in the package:

* two-qubit basis order is (|00>, |01>, |10>, |11>) with qubit 1 as the slow
  (left Kronecker) index;
* density operators are plain complex ndarrays validated on entry — they must
  be Hermitian within 1e-12, unit trace within 1e-12, and have eigenvalues
  >= -1e-10.  Renormalization of an out-of-tolerance state is forbidden;
  violations raise :class:`~qmcool.errors.ValidationError`.
"""

import numpy as np

from .errors import ValidationError

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-10


def as_complex(matrix):
    """Return the input as a complex128 ndarray without copying when possible."""
    arr = np.asarray(matrix, dtype=np.complex128)
    if not np.isfinite(arr).all():  # a complex entry is finite when both its parts are
        raise ValidationError("matrix has non-finite entries")
    return arr


def validate_density(rho, dim=None, name="state"):
    """Validate a density operator and return it as a complex ndarray.

    Checks squareness (and ``dim`` when given), Hermiticity within 1e-12,
    unit trace within 1e-12, and eigenvalues >= -1e-10.
    """
    arr = as_complex(rho)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValidationError(f"{name} must be {dim}x{dim}, got {arr.shape[0]}x{arr.shape[0]}")
    herm_err = np.max(np.abs(arr - arr.conj().T))
    if herm_err > HERM_TOL:
        raise ValidationError(f"{name} is not Hermitian (max deviation {herm_err:.3e})")
    trace_err = abs(arr.trace() - 1.0)
    if trace_err > TRACE_TOL:
        raise ValidationError(f"{name} trace deviates from 1 by {trace_err:.3e}")
    min_eig = np.linalg.eigvalsh(arr).min()
    if min_eig < PSD_FLOOR:
        raise ValidationError(f"{name} has negative eigenvalue {min_eig:.3e}")
    return arr


def single_qubit_state(matrix):
    """Validate and return a 2x2 density operator."""
    return validate_density(matrix, dim=2, name="single-qubit state")


def two_qubit_state(matrix):
    """Validate and return a 4x4 density operator in the (|00>,|01>,|10>,|11>) basis."""
    return validate_density(matrix, dim=4, name="two-qubit state")


def _fidelity(a, b):
    """Uhlmann fidelity of two unvalidated Hermitian unit-trace operators, capped
    at 1; tiny negative eigenvalues are clipped to zero."""
    w, v = np.linalg.eigh(a)
    sa = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    w = np.linalg.eigvalsh(sa @ b @ sa)
    return min(float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2), 1.0)


def trace_distance(a, b):
    """Trace distance (1/2)*||a - b||_1 between two Hermitian operators."""
    diff = as_complex(a) - as_complex(b)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))

