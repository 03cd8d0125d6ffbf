"""Path-polarization optics of the engine hardware: the rail grid and the
thermalizing hologram.

Encoding: a qubit with gap omega = 0.02*(d/8) lives on two beam-displacer
rails separated by d pixels of a 512-row spatial grid, with |0> = horizontal
polarization at row -d/2 and |1> = vertical polarization at row +d/2.  A
hologram row at height z carries a phase phi(z) that sets the local
amplitude-transfer of the thermalizing step; rows come in 4-pixel bands, one
band per 0.02 step of omega, antisymmetric between the two halves of the
grid: phi(-z) = phi(z) - pi.

Two half-wave-plate settings (population-keeping cosine pair and
population-moving sine pair), followed by path decoherence, make the
thermalizing step a linear map on the qubit: :func:`hologram_channel` reads
its four Kraus operators off the phases of the two rails, and it reproduces
the abstract thermalizing channel exactly.

The measurement half of the hardware (local unitaries and bias filters around
a two-photon singlet projection) is not simulated here: the engine takes its
distinguishable-photon trains in closed form on the canonical basis
(:func:`~qmcool.engine.noise_sweep`), and the test suite rebuilds the trains as
an independent check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .thermo import KrausChannel, _beta, thermal_populations

GRID_ROWS = 512
Z_MAX = GRID_ROWS // 2  # rows z = -256..-1, 1..256 (no row 0)
OMEGA_STEP = 0.02
PIXELS_PER_STEP = 8
OMEGA_MAX = OMEGA_STEP * (GRID_ROWS // PIXELS_PER_STEP)


def _whole(x):
    """x as an int if it is a whole number, else None; int() of NaN or +-inf raises."""
    try:
        return int(x) if int(x) == x else None
    except (ValueError, OverflowError):
        return None


def omega_of_d(d):
    """Gap encoded by a rail separation of d pixels: omega = 0.02*(d/8)."""
    if _whole(d) is None or d <= 0 or d % PIXELS_PER_STEP != 0 or d > GRID_ROWS:
        raise ValidationError(
            f"rail separation must be a positive multiple of {PIXELS_PER_STEP} "
            f"up to {GRID_ROWS}, got {d!r}"
        )
    return OMEGA_STEP * (int(d) // PIXELS_PER_STEP)


def d_of_omega(omega):
    """Rail separation for an on-grid gap (multiple of 0.02, at most 1.28)."""
    k = omega / OMEGA_STEP
    ki = _whole(np.rint(k))
    if ki is None or abs(k - ki) > 1e-9 or ki < 1 or ki > GRID_ROWS // PIXELS_PER_STEP:
        raise ValidationError(
            f"gap {omega!r} is not on the {OMEGA_STEP} grid up to {OMEGA_MAX}"
        )
    return ki * PIXELS_PER_STEP


def _row(z):
    """z as an int, if it is a grid row: a nonzero integer within +-Z_MAX."""
    if _whole(z) is None or z == 0 or abs(z) > Z_MAX:
        raise ValidationError(f"row must be a nonzero integer within +-{Z_MAX}, got {z!r}")
    return int(z)


def omega_of_z(z):
    """Gap of the 4-pixel band containing grid row z (rows carry their band value)."""
    return OMEGA_STEP * ((abs(_row(z)) + 3) // 4)


@dataclass(frozen=True, eq=False)
class Hologram:
    """Per-row phase profile phi(z) encoding one bath temperature.

    ``phases`` holds the 512 rows in ascending z order (-256..-1, 1..256).
    The upper half satisfies phi(z) = 2*arcsin(sqrt(p(omega(z), beta))) in
    [pi/2, pi]; the lower half is the antisymmetric partner phi(-z) = phi(z) - pi.
    """

    beta: float
    phases: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=np.float64)
        if phases.shape != (GRID_ROWS,):
            raise ValidationError(f"hologram needs {GRID_ROWS} rows, got {phases.shape}")
        upper = phases[Z_MAX:]
        lower = phases[:Z_MAX]
        if np.any(upper < 0.5 * np.pi - 1e-12) or np.any(upper > np.pi + 1e-12):
            raise ValidationError("upper-half phases must lie in [pi/2, pi]")
        if np.max(np.abs(lower[::-1] - (upper - np.pi))) > 1e-12:
            raise ValidationError("hologram halves are not antisymmetric partners")
        phases = phases.copy()
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)

    def phase_at(self, z):
        """Phase of row z (z in -256..-1, 1..256)."""
        z = _row(z)
        idx = Z_MAX + z - 1 if z > 0 else Z_MAX + z
        return float(self.phases[idx])

    def rows(self):
        """All (z, phase) pairs in ascending z order."""
        zs = list(range(-Z_MAX, 0)) + list(range(1, Z_MAX + 1))
        return list(zip(zs, self.phases.tolist()))


def solve_hologram(bath):
    """Phase profile realizing thermalization toward inverse temperature beta.

    Row z > 0 encodes sin^2(phi/2) = p(omega(z), beta), i.e.
    phi = 2*arcsin(sqrt(p)); the mirrored row carries phi - pi.
    """
    beta = _beta(bath)
    upper = np.empty(Z_MAX)
    for z in range(1, Z_MAX + 1):
        p = thermal_populations(omega_of_z(z), beta)[0]
        upper[z - 1] = 2.0 * np.arcsin(np.sqrt(p))
    phases = np.concatenate([(upper - np.pi)[::-1], upper])
    return Hologram(beta=beta, phases=phases)


def hologram_channel(holo, d):
    """The optical thermalizing step on the rails of separation d, as a Kraus channel.

    With phi_lo and phi_hi the hologram phases of rows -d/2 and +d/2, setting 1
    (the cosine pair) attenuates each rail by cos(phi/2) of its own row, and
    setting 2 (the sine pair) moves the amplitude across rails with a
    polarization flip, weighted by sin(phi/2) of the source row:

        cos(phi_lo/2)|0><0|,  cos(phi_hi/2)|1><1|,
        sin(phi_hi/2)|0><1|,  -sin(phi_lo/2)|1><0|.

    Rails differ in position, so each (setting, output rail) pair is one Kraus operator.
    """
    omega_of_d(d)  # validates the separation
    half = int(d) // 2
    phi_lo, phi_hi = holo.phase_at(-half), holo.phase_at(half)
    c_lo, s_lo = np.cos(0.5 * phi_lo), np.sin(0.5 * phi_lo)
    c_hi, s_hi = np.cos(0.5 * phi_hi), np.sin(0.5 * phi_hi)
    return KrausChannel((
        np.array([[c_lo, 0], [0, 0]]),
        np.array([[0, 0], [0, c_hi]]),
        np.array([[0, s_hi], [0, 0]]),
        np.array([[0, 0], [-s_lo, 0]]),
    ))

