"""Path-polarization optics simulation of the engine hardware.

Encoding: a qubit with gap omega = 0.02*(d/8) lives on two beam-displacer
rails separated by d pixels of a 512-row spatial grid, with |0> = horizontal
polarization at row -d/2 and |1> = vertical polarization at row +d/2.  A
hologram row at height z carries a phase phi(z) that sets the local
amplitude-transfer of the thermalizing step; rows come in 4-pixel bands, one
band per 0.02 step of omega, antisymmetric between the two halves of the
grid: phi(-z) = phi(z) - pi.

Two half-wave-plate settings realize the four Kraus operators of the
thermalizing channel as two setting branches (population-keeping cosine pair
and population-moving sine pair); summing both settings after path
decoherence reproduces the abstract channel exactly.

The measurement half of the hardware (local unitaries and bias filters around
a two-photon singlet projection) is not simulated here:
:func:`~qmcool.measure.hom_noisy_channel` evaluates its trains in closed form,
and the test suite rebuilds the trains as an independent check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .qcore import single_qubit_state
from .thermo import BathSpec, gibbs_population

GRID_ROWS = 512
Z_MAX = GRID_ROWS // 2  # rows z = -256..-1, 1..256 (no row 0)
OMEGA_STEP = 0.02
PIXELS_PER_STEP = 8
OMEGA_MAX = OMEGA_STEP * (GRID_ROWS // PIXELS_PER_STEP)


def omega_of_d(d):
    """Gap encoded by a rail separation of d pixels: omega = 0.02*(d/8)."""
    if int(d) != d or d <= 0 or d % PIXELS_PER_STEP != 0 or d > GRID_ROWS:
        raise ValidationError(
            f"rail separation must be a positive multiple of {PIXELS_PER_STEP} "
            f"up to {GRID_ROWS}, got {d!r}"
        )
    return OMEGA_STEP * (int(d) // PIXELS_PER_STEP)


def d_of_omega(omega):
    """Rail separation for an on-grid gap (multiple of 0.02, at most 1.28)."""
    k = omega / OMEGA_STEP
    ki = int(round(k))
    if abs(k - ki) > 1e-9 or ki < 1 or ki > GRID_ROWS // PIXELS_PER_STEP:
        raise ValidationError(
            f"gap {omega!r} is not on the {OMEGA_STEP} grid up to {OMEGA_MAX}"
        )
    return ki * PIXELS_PER_STEP


def omega_of_z(z):
    """Gap of the 4-pixel band containing grid row z (rows carry their band value)."""
    if int(z) != z or z == 0 or abs(z) > Z_MAX:
        raise ValidationError(f"row must be a nonzero integer within +-{Z_MAX}, got {z!r}")
    return OMEGA_STEP * ((abs(int(z)) + 3) // 4)


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
        if int(z) != z or z == 0 or abs(z) > Z_MAX:
            raise ValidationError(f"row must be a nonzero integer within +-{Z_MAX}, got {z!r}")
        z = int(z)
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
    beta = bath.beta if isinstance(bath, BathSpec) else BathSpec(float(bath)).beta
    upper = np.empty(Z_MAX)
    for z in range(1, Z_MAX + 1):
        p = gibbs_population(omega_of_z(z), beta)
        upper[z - 1] = 2.0 * np.arcsin(np.sqrt(p))
    phases = np.concatenate([(upper - np.pi)[::-1], upper])
    return Hologram(beta=beta, phases=phases)


@dataclass(frozen=True)
class PathPolState:
    """Single-photon amplitudes over (grid row, polarization) modes.

    Keys are (z, "H"|"V") with z a nonzero row within the grid; the total
    squared norm may be below 1 (post-selection losses are allowed).
    """

    amplitudes: dict

    def __post_init__(self):
        amps = {}
        for key, value in self.amplitudes.items():
            z, pol = key
            if int(z) != z or z == 0 or abs(z) > Z_MAX:
                raise ValidationError(f"row {z!r} is off the +-{Z_MAX} grid")
            if pol not in ("H", "V"):
                raise ValidationError(f"polarization must be 'H' or 'V', got {pol!r}")
            value = complex(value)
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValidationError("non-finite amplitude")
            amps[(int(z), pol)] = value
        total = sum(abs(v) ** 2 for v in amps.values())
        if total > 1.0 + 1e-12:
            raise ValidationError(f"squared norm {total:.6f} exceeds 1")
        object.__setattr__(self, "amplitudes", amps)


def encode_qubit(vec, d):
    """Put amplitude vec[0] on (-d/2, H) and vec[1] on (+d/2, V)."""
    omega_of_d(d)  # validates the separation
    vec = np.asarray(vec, dtype=np.complex128)
    if vec.shape != (2,):
        raise ValidationError(f"expected a length-2 amplitude vector, got shape {vec.shape}")
    half = int(d) // 2
    return PathPolState({(-half, "H"): vec[0], (half, "V"): vec[1]})


def decode_qubit(state, d):
    """Amplitudes on the (-d/2, H) and (+d/2, V) rails as a length-2 vector."""
    half = int(d) // 2
    allowed = {(-half, "H"), (half, "V")}
    extra = set(state.amplitudes) - allowed
    if extra:
        raise ValidationError(f"state occupies modes off the +-{half} rails: {sorted(extra)}")
    return np.array(
        [state.amplitudes.get((-half, "H"), 0.0), state.amplitudes.get((half, "V"), 0.0)],
        dtype=np.complex128,
    )


def _rail_half_separation(state):
    half = None
    for z, pol in state.amplitudes:
        z0 = -z if pol == "H" else z
        if z0 <= 0 or z0 % (PIXELS_PER_STEP // 2) != 0:
            raise ValidationError(f"mode ({z}, {pol}) is off the +-d/2 rails")
        if half is None:
            half = z0
        elif half != z0:
            raise ValidationError("state occupies rails of different separations")
    if half is None:
        raise ValidationError("empty state carries no rail information")
    return half


def thermalize_optically(state, holo, setting):
    """One half-wave-plate setting of the optical thermalizing step.

    Setting 1 is the population-keeping (cosine) pair: each rail is attenuated
    by cos(phi/2) of its own hologram row.  Setting 2 is the population-moving
    (sine) pair: amplitudes hop rails with a polarization flip, weighted by
    sin(phi/2) of the source row (the interferometer's polarization flip is
    already folded in, so no stray sign is exposed).  Summing the two
    setting outputs after rail decoherence equals the abstract thermalizing
    channel.
    """
    half = _rail_half_separation(state)
    a_h = state.amplitudes.get((-half, "H"), 0.0)
    a_v = state.amplitudes.get((half, "V"), 0.0)
    phi_lo = holo.phase_at(-half)
    phi_hi = holo.phase_at(half)
    if setting == 1:
        amps = {
            (-half, "H"): np.cos(0.5 * phi_lo) * a_h,
            (half, "V"): np.cos(0.5 * phi_hi) * a_v,
        }
    elif setting == 2:
        amps = {
            (-half, "H"): np.sin(0.5 * phi_hi) * a_v,
            (half, "V"): -np.sin(0.5 * phi_lo) * a_h,
        }
    else:
        raise ValidationError(f"setting must be 1 or 2, got {setting!r}")
    return PathPolState(amps)


def rail_components(state):
    """Split a state into its per-row components (path decoherence).

    Amplitudes on different grid rows are distinguishable by position, so any
    coherence between them is lost; each row becomes its own branch.
    """
    by_row = {}
    for (z, pol), value in state.amplitudes.items():
        if value != 0:
            by_row.setdefault(z, {})[(z, pol)] = value
    return [PathPolState(amps) for _, amps in sorted(by_row.items())]


def thermal_channel_optical(rho, qubit, bath):
    """The thermalizing channel evaluated through the optics layer.

    Eigen-decomposes the input, pushes each eigenvector through both
    half-wave-plate settings and the path decoherence, and reassembles the
    output density operator.  Equals apply_channel(thermalizing_channel)
    up to floating-point rounding.
    """
    arr = single_qubit_state(rho)
    d = d_of_omega(qubit.omega if hasattr(qubit, "omega") else float(qubit))
    holo = solve_hologram(bath)
    out = np.zeros((2, 2), dtype=np.complex128)
    w, v = np.linalg.eigh(arr)
    for weight, column in zip(w, v.T):
        if weight <= 1e-15:
            continue
        encoded = encode_qubit(column, d)
        for setting in (1, 2):
            emitted = thermalize_optically(encoded, holo, setting)
            for component in rail_components(emitted):
                u = decode_qubit(component, d)
                out += weight * np.outer(u, u.conj())
    return out
