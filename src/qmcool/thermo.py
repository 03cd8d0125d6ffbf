"""Thermal populations and the thermalizing channel.

A qubit with gap ``omega`` has Hamiltonian H = diag(-omega/2, +omega/2), i.e.
|0> is the ground state.  Contact with a bath at inverse temperature ``beta``
is modeled at the infinite-interaction-time limit: a four-operator Kraus
channel whose output is the Gibbs state diag(1-q, q) for *any* input, with
excited population q = e^(-beta*omega)/(1 + e^(-beta*omega)).  Matrices enter
as complex128 ndarrays with finite entries (:func:`as_complex`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def as_complex(matrix):
    """Return the input as a complex128 ndarray without copying when possible."""
    arr = np.asarray(matrix, dtype=np.complex128)
    if not np.isfinite(arr).all():  # a complex entry is finite when both its parts are
        raise ValidationError("matrix has non-finite entries")
    return arr


@dataclass(frozen=True)
class QubitSpec:
    """Energy gap of one qubit (dimensionless units, hbar = 1)."""

    omega: float

    def __post_init__(self):
        if not (self.omega > 0 and np.isfinite(self.omega)):
            raise ValidationError(f"qubit gap must be positive, got {self.omega!r}")


@dataclass(frozen=True)
class BathSpec:
    """Inverse temperature of one bath (dimensionless units, k_B = 1)."""

    beta: float

    def __post_init__(self):
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ValidationError(f"inverse temperature must be positive, got {self.beta!r}")


def _omega(qubit):
    return qubit.omega if isinstance(qubit, QubitSpec) else QubitSpec(float(qubit)).omega


def _beta(bath):
    return bath.beta if isinstance(bath, BathSpec) else BathSpec(float(bath)).beta


def thermal_populations(qubit, bath):
    """(ground, excited) populations (1 - q, q) of the Gibbs state.

    The excited population is computed directly, q = e^(-x)/(1 + e^(-x)) with
    x = beta*omega > 0: it underflows quietly to 0 and never overflows, and no
    difference of nearly equal numbers enters it.  (Taking it as 1 minus the
    ground population (1 + tanh(x/2))/2 rounds it to exactly 0 once x > ~38.)
    The ground population 1 - q is at least 1/2, so its rounding stays relative.
    """
    z = math.exp(-_beta(bath) * _omega(qubit))
    q = z / (1.0 + z)
    return 1.0 - q, q


@dataclass(frozen=True)
class KrausChannel:
    """A finite list of same-shape Kraus operators with sum_k K†K = I."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(as_complex(k) for k in self.operators)
        if not ops:
            raise ValidationError("channel needs at least one Kraus operator")
        d = ops[0].shape
        if any(k.shape != d for k in ops) or d[0] != d[1]:
            raise ValidationError("Kraus operators must share one square shape")
        total = sum(k.conj().T @ k for k in ops)
        err = np.max(np.abs(total - np.eye(d[0])))
        if err > 1e-12:
            raise ValidationError(f"completeness sum deviates from identity by {err:.3e}")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self):
        return self.operators[0].shape[0]


def thermalizing_channel(qubit, bath):
    """Infinite-time thermalization toward the Gibbs state diag(1 - q, q).

    The four operators move and keep population with weights p = 1 - q and q
    (:func:`thermal_populations`); the channel's output is exactly diag(p, q)
    regardless of the input state, with all coherences erased.
    """
    p, q = thermal_populations(qubit, bath)
    sp, sq = np.sqrt(p), np.sqrt(q)
    k1 = np.array([[sp, 0], [0, 0]], dtype=np.complex128)
    k2 = np.array([[0, sp], [0, 0]], dtype=np.complex128)
    k3 = np.array([[0, 0], [0, sq]], dtype=np.complex128)
    k4 = np.array([[0, 0], [sq, 0]], dtype=np.complex128)
    return KrausChannel((k1, k2, k3, k4))


def apply_channel(channel, rho):
    """Kraus-sum evaluation sum_k K rho K†; trace is preserved to 1e-10."""
    arr = as_complex(rho)
    if arr.shape != (channel.dim, channel.dim):
        raise ValidationError(
            f"state dimension {arr.shape} does not match channel dimension {channel.dim}"
        )
    out = np.zeros_like(arr)
    for k in channel.operators:
        out += k @ arr @ k.conj().T
    drift = abs(out.trace() - arr.trace())
    if drift > 1e-10:
        raise ValidationError(f"channel failed to preserve trace (drift {drift:.3e})")
    return out
