"""Process and measurement tomography with an optional shot-noise layer.

Reconstruction is plain linear inversion on stacked tensors.  The Pauli
product basis and the probe states (the informationally complete
single-qubit set {|0>, |1>, |+>, |+i>} and its two-qubit products) are
stacks of Kronecker products with qubit 1 as the slow index; the Pauli
stacks for d = 2 and d = 4 are built once, at import.  Output states are
read out through Pauli expectations.  In shot mode every non-identity Pauli
G (eigenvalues +-1, projectors (I +- G)/2) is sampled as a binomial, in
Pauli order, and reconstructed operators are eigenvalue-clipped at zero.
Probe j draws its shots from its own Philox stream ``_accel.stream(seed, j)``,
key (seed, j), so its counts do not depend on the other probes and never
share the seed's Haar stream.  Exact mode performs a perfect round trip to
1e-10.
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


def _kron_stack(singles, n_qubits):
    """All n-fold Kronecker products of a stack of 2x2 matrices; qubit 1 is the slow index."""
    if n_qubits == 1:
        return singles.copy()
    if n_qubits == 2:
        products = singles[:, None, :, None, :, None] * singles[None, :, None, :, None, :]
        return products.reshape(len(singles) ** 2, 4, 4)
    raise ValidationError(f"only 1 or 2 qubits supported, got {n_qubits}")


_PAULIS = {2: _kron_stack(_P1, 1), 4: _kron_stack(_P1, 2)}  # by operator dimension


def _paulis_of_dim(d):
    if d not in _PAULIS:
        raise ValidationError(f"unsupported operator dimension {d}")
    return _PAULIS[d]


def default_probes(n_qubits):
    """{|0>, |1>, |+>, |+i>} for one qubit, the 16 products for two, as a stack of states."""
    return _kron_stack(_KETS1[:, :, None] * _KETS1.conj()[:, None, :], n_qubits)


def _probes_or_default(probes, dim):
    """The probe stack, or the default probes of one (d = 2) or two (d = 4) qubits."""
    return default_probes(dim // 2) if probes is None else np.asarray(probes)


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


def _process_design(probes):
    """Rows (probe j, output entry ab), columns (m, n): (P_m probe_j P_n)_ab."""
    paulis = _paulis_of_dim(probes.shape[1])
    npa, dim = paulis.shape[:2]
    a = np.einsum("mab,jbc,ncd->jadmn", paulis, probes, paulis)
    return a.reshape(len(probes) * dim * dim, npa * npa)


def process_tomography(channel, probes=None, shots=None, seed=None):
    """Chi-matrix reconstruction of a channel by linear inversion.

    ``channel`` is a :class:`~qmcool.thermo.KrausChannel` or any callable
    rho -> rho' (callables require ``probes``, a stack of states, to fix the
    dimension).  With ``shots`` set, output states are estimated from sampled
    Pauli expectations using a per-probe Philox stream of ``seed``; the
    reconstructed chi is then eigenvalue-clipped at zero and renormalized to
    unit trace.
    """
    if isinstance(channel, KrausChannel):
        dim = channel.dim
        evolve = lambda r: apply_channel(channel, r)
    elif callable(channel):
        if probes is None:
            raise ValidationError("callable channels need an explicit probe set")
        dim = np.shape(probes)[1]
        evolve = channel
    else:
        raise ValidationError(f"channel must be a KrausChannel or callable, got {type(channel)!r}")
    npa = len(_paulis_of_dim(dim))
    probes = _probes_or_default(probes, dim)
    if shots is not None:
        seed, shots = check_seed(seed), check_int(shots, "shots", 1)

    outputs = [np.asarray(evolve(probe), dtype=np.complex128) for probe in probes]
    if shots is not None:
        outputs = [_estimate_state(s, shots, stream(seed, j)) for j, s in enumerate(outputs)]
    a = _process_design(probes)
    b = np.stack(outputs).reshape(-1)
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < npa * npa:
        raise ValidationError(f"rank-deficient probe set (rank {rank} < {npa * npa})")
    chi = x.reshape(npa, npa)
    chi = 0.5 * (chi + chi.conj().T)
    if shots is None:
        resid = np.max(np.abs(a @ chi.reshape(-1) - b))
        if resid > 1e-10:
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


def measurement_tomography(measurement, probes=None, shots=None, seed=None):
    """Least-squares reconstruction of the effects of a basis or a POVM from outcome data.

    Outcome probabilities over the probe set (a stack of states) determine
    each effect in the Pauli operator basis.  In shot mode the outcome counts
    of every probe are a single multinomial draw (per-probe Philox stream
    of ``seed``) and each reconstructed effect is eigenvalue-clipped at zero.
    """
    effects = _effects_of(measurement)
    dim = effects.shape[1]
    paulis = _paulis_of_dim(dim)
    npa = len(paulis)
    probes = _probes_or_default(probes, dim)
    if shots is not None:
        seed, shots = check_seed(seed), check_int(shots, "shots", 1)

    design = np.real(np.einsum("jik,mki->jm", probes, paulis))
    freqs = np.clip(np.real(np.einsum("kil,jli->jk", effects, probes)), 0.0, None)
    if shots is not None:
        freqs = np.stack([stream(seed, j).multinomial(shots, p / p.sum())
                          for j, p in enumerate(freqs)]) / shots
    coeffs, _, rank, _ = np.linalg.lstsq(design, freqs, rcond=None)
    if rank < npa:
        raise ValidationError(f"rank-deficient probe set (rank {rank} < {npa})")
    recon = np.einsum("mk,mij->kij", coeffs, paulis)
    recon = 0.5 * (recon + recon.conj().transpose(0, 2, 1))
    if shots is None:
        err = np.max(np.abs(recon - effects))
        if err > 1e-10:
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
