"""Single-qubit process tomography and two-qubit effect tomography, with an
optional shot-noise layer.

Reconstruction is plain linear inversion on one fixed, informationally
complete probe set per kind: process tomography feeds the single-qubit
channel the four states {|0>, |1>, |+>, |+i>}, effect tomography measures
their 16 two-qubit products.  The Pauli product stacks, the probe stacks
(Kronecker products with qubit 1 as the slow index) and both square design
matrices are built once, at import.  Output states are read out through
Pauli expectations.  In shot mode every non-identity Pauli G (eigenvalues
+-1, projectors (I +- G)/2) is sampled as a binomial, in Pauli order, and
reconstructed operators are eigenvalue-clipped at zero.  Probe j draws its
shots from its own Philox stream ``_accel.stream(seed, j)``, key (seed, j),
so its counts do not depend on the other probes and never share the seed's
Haar stream.  Exact mode performs a perfect round trip to 1e-10.
"""

import numpy as np

from ._accel import check_int, check_seed, stream
from .errors import ValidationError
from .measure import MeasurementBasis, PovmSet
from .qcore import _fidelity
from .thermo import KrausChannel, apply_channel

_P1 = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=np.complex128,
)
_KETS1 = np.array([[1, 0], [0, 1], [1, 1], [1, 1j]], dtype=np.complex128)
_KETS1 /= np.sqrt([[1], [1], [2], [2]])
_RHO1 = _KETS1[:, :, None] * _KETS1.conj()[:, None, :]


def _kron_pairs(singles):
    """All Kronecker products a (x) b of a stack of 2x2 matrices; qubit 1 (a) is the slow index."""
    products = singles[:, None, :, None, :, None] * singles[None, :, None, :, None, :]
    return products.reshape(len(singles) ** 2, 4, 4)


# Pauli products and probe states by operator dimension: {|0>, |1>, |+>, |+i>}
# for one qubit, their 16 products for two.
_PAULIS = {2: _P1, 4: _kron_pairs(_P1)}
_PROBES = {2: _RHO1, 4: _kron_pairs(_RHO1)}
# Rows (probe j, output entry ad), columns (m, n): (P_m probe_j P_n)_ad.
_PROCESS_DESIGN = np.einsum("mab,jbc,ncd->jadmn", _P1, _PROBES[2], _P1).reshape(16, 16)
# Rows probe j, columns m: Tr(probe_j P_m).
_EFFECT_DESIGN = np.real(np.einsum("jik,mki->jm", _PROBES[4], _PAULIS[4]))


def _paulis_of_dim(d):
    if d not in _PAULIS:
        raise ValidationError(f"unsupported operator dimension {d}")
    return _PAULIS[d]


def chi_from_kraus(channel):
    """Analytic chi matrix of a Kraus channel in the Pauli product basis."""
    d = channel.dim
    coeff = np.einsum("mij,kji->km", _paulis_of_dim(d), np.stack(channel.operators)) / d
    return coeff.T @ coeff.conj()


def _estimate_state(sigma, shots, rng):
    """Pauli-expectation state estimate from binomial sampling of each setting."""
    d = sigma.shape[0]
    paulis = _paulis_of_dim(d)
    p_plus = np.real(np.einsum("ik,gki->g", sigma, np.eye(d) + paulis[1:])) / 2.0
    k = rng.binomial(shots, np.clip(p_plus, 0.0, 1.0))
    mean = np.concatenate([[1.0], (2.0 * k - shots) / shots])
    return np.einsum("g,gij->ij", mean / d, paulis)


def process_tomography(channel, shots=None, seed=None):
    """Chi-matrix reconstruction of a single-qubit channel by linear inversion.

    ``channel`` is a 2x2 :class:`~qmcool.thermo.KrausChannel`; it is evaluated on
    the four probes.  With ``shots`` set, output states are estimated from sampled
    Pauli expectations using a per-probe Philox stream of ``seed``; the
    reconstructed chi is then eigenvalue-clipped at zero and renormalized to unit
    trace.
    """
    if not isinstance(channel, KrausChannel):
        raise ValidationError(f"channel must be a KrausChannel, got {type(channel)!r}")
    if channel.dim != 2:
        raise ValidationError(f"process tomography takes a single-qubit channel, "
                              f"got dimension {channel.dim}")
    if shots is not None:
        seed, shots = check_seed(seed), check_int(shots, "shots", 1)

    outputs = [apply_channel(channel, probe) for probe in _PROBES[2]]
    if shots is not None:
        outputs = [_estimate_state(s, shots, stream(seed, j)) for j, s in enumerate(outputs)]
    b = np.stack(outputs).reshape(-1)
    chi = np.linalg.lstsq(_PROCESS_DESIGN, b, rcond=None)[0].reshape(4, 4)
    chi = 0.5 * (chi + chi.conj().T)
    if shots is None:
        resid = np.max(np.abs(_PROCESS_DESIGN @ chi.reshape(-1) - b))
        if not resid <= 1e-10:  # NaN fails too
            raise ValidationError(f"exact-mode reconstruction residual {resid:.3e}")
        return chi
    w, v = np.linalg.eigh(chi)
    w = np.clip(w, 0.0, None)
    chi = (v * w) @ v.conj().T
    tr = chi.trace().real
    if tr <= 0:
        raise ValidationError("clipped chi has non-positive trace")
    return chi / tr


def _effects_of(measurement):
    if isinstance(measurement, MeasurementBasis):
        return np.stack([measurement.projector(k) for k in range(4)])
    if isinstance(measurement, PovmSet):
        return measurement.effects()
    raise ValidationError(f"measurement must be a basis or a POVM, got {type(measurement)!r}")


def measurement_tomography(measurement, shots=None, seed=None):
    """Least-squares reconstruction of the effects of a two-qubit basis or POVM from outcome data.

    Outcome probabilities over the 16 probes determine each effect in the
    Pauli operator basis.  In shot mode the outcome counts of every probe are
    a single multinomial draw (per-probe Philox stream of ``seed``) and each
    reconstructed effect is eigenvalue-clipped at zero.
    """
    effects = _effects_of(measurement)
    if shots is not None:
        seed, shots = check_seed(seed), check_int(shots, "shots", 1)

    freqs = np.clip(np.real(np.einsum("kil,jli->jk", effects, _PROBES[4])), 0.0, None)
    if shots is not None:
        freqs = np.stack([stream(seed, j).multinomial(shots, p / p.sum())
                          for j, p in enumerate(freqs)]) / shots
    coeffs = np.linalg.lstsq(_EFFECT_DESIGN, freqs, rcond=None)[0]
    recon = np.einsum("mk,mij->kij", coeffs, _PAULIS[4])
    recon = 0.5 * (recon + recon.conj().transpose(0, 2, 1))
    if shots is None:
        err = np.max(np.abs(recon - effects))
        if not err <= 1e-10:
            raise ValidationError(f"exact-mode reconstruction error {err:.3e}")
        return recon
    w, v = np.linalg.eigh(recon)
    return (v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _hermitian_and_trace(m):
    """The Hermitian part of m and its real trace, the step both fidelities normalize by."""
    m = np.asarray(m, dtype=np.complex128)
    m = 0.5 * (m + m.conj().T)
    return m, m.trace().real


def process_fidelity(chi_a, chi_b):
    """Uhlmann fidelity between two chi matrices (normalized to unit trace)."""
    if np.shape(chi_a) != np.shape(chi_b):
        raise ValidationError(f"chi shape mismatch: {np.shape(chi_a)} vs {np.shape(chi_b)}")
    (a, ta), (b, tb) = _hermitian_and_trace(chi_a), _hermitian_and_trace(chi_b)
    return _fidelity(a / ta, b / tb)


def effect_fidelity(effect_a, effect_b):
    """Uhlmann fidelity between two effects, each normalized to unit trace; 0 if
    either is the zero effect (a shot-mode estimate clipped to nothing)."""
    if not (np.any(effect_a) and np.any(effect_b)):
        return 0.0
    (a, ta), (b, tb) = _hermitian_and_trace(effect_a), _hermitian_and_trace(effect_b)
    if ta <= 0 or tb <= 0:
        raise ValidationError("effects must have positive trace")
    return _fidelity(a / ta, b / tb)
