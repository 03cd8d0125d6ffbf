"""Process and measurement tomography with an optional shot-noise layer.

Reconstruction is plain linear inversion.  Probe states are the standard
informationally complete single-qubit set {|0>, |1>, |+>, |+i>} and its
two-qubit products; output states are read out through Pauli expectations.
In shot mode every non-identity Pauli G (eigenvalues +-1, projectors
(I +- G)/2) is sampled as a binomial, and reconstructed operators are
eigenvalue-clipped at zero (the pre-clip matrix is available for
diagnostics).  Exact mode performs a perfect round trip to 1e-10.
"""

from dataclasses import dataclass

import numpy as np

from ._accel import check_int, check_seed
from .errors import ValidationError
from .measure import MeasurementBasis, PovmSet
from .qcore import _fidelity
from .thermo import KrausChannel, apply_channel

_P1 = [
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
]
_P1_LABELS = ["I", "X", "Y", "Z"]


def pauli_basis(n_qubits):
    """(labels, matrices) of the n-qubit Pauli product basis."""
    if n_qubits == 1:
        return list(_P1_LABELS), [p.copy() for p in _P1]
    if n_qubits == 2:
        labels, mats = [], []
        for la, a in zip(_P1_LABELS, _P1):
            for lb, b in zip(_P1_LABELS, _P1):
                labels.append(la + lb)
                mats.append(np.kron(a, b))
        return labels, mats
    raise ValidationError(f"only 1 or 2 qubits supported, got {n_qubits}")


@dataclass(frozen=True)
class ProbeSet:
    """Tomographically complete input states with display labels."""

    states: tuple
    labels: tuple


def default_probes(n_qubits):
    """{|0>, |1>, |+>, |+i>} for one qubit; the 16 products for two."""
    kets = [
        np.array([1, 0], dtype=np.complex128),
        np.array([0, 1], dtype=np.complex128),
        np.array([1, 1], dtype=np.complex128) / np.sqrt(2),
        np.array([1, 1j], dtype=np.complex128) / np.sqrt(2),
    ]
    labels1 = ["0", "1", "+", "+i"]
    singles = [np.outer(k, k.conj()) for k in kets]
    if n_qubits == 1:
        return ProbeSet(tuple(singles), tuple(labels1))
    if n_qubits == 2:
        states, labels = [], []
        for la, a in zip(labels1, singles):
            for lb, b in zip(labels1, singles):
                states.append(np.kron(a, b))
                labels.append(f"({la},{lb})")
        return ProbeSet(tuple(states), tuple(labels))
    raise ValidationError(f"only 1 or 2 qubits supported, got {n_qubits}")


def _n_qubits_of_dim(d):
    if d == 2:
        return 1
    if d == 4:
        return 2
    raise ValidationError(f"unsupported operator dimension {d}")


def chi_from_kraus(channel):
    """Analytic chi matrix of a Kraus channel in the Pauli product basis."""
    d = channel.dim
    _, paulis = pauli_basis(_n_qubits_of_dim(d))
    coeff = np.array([[np.trace(p @ k) / d for p in paulis] for k in channel.operators])
    return coeff.T @ coeff.conj()


def apply_chi(chi, rho):
    """Evaluate the channel sum_mn chi_mn P_m rho P_n on a state."""
    d = rho.shape[0]
    _, paulis = pauli_basis(_n_qubits_of_dim(d))
    out = np.zeros_like(np.asarray(rho, dtype=np.complex128))
    for m, pm in enumerate(paulis):
        for n, pn in enumerate(paulis):
            if chi[m, n] != 0:
                out += chi[m, n] * (pm @ rho @ pn)
    return out


def sample_counts(probabilities, shots, seed):
    """Multinomial outcome counts; deterministic per seed."""
    seed = check_seed(seed)
    p = np.asarray(probabilities, dtype=np.float64)
    if np.any(p < -1e-12):
        raise ValidationError(f"negative probability {p.min():.3e}")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"probabilities sum to {total:.6f}, not 1")
    p = p / total
    shots = check_int(shots, "shots")
    if shots == 0:
        return np.zeros(len(p), dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    return rng.multinomial(shots, p)


def _estimate_state(sigma, shots, rng):
    """Pauli-expectation state estimate from binomial sampling of each setting."""
    d = sigma.shape[0]
    _, paulis = pauli_basis(_n_qubits_of_dim(d))
    est = np.eye(d, dtype=np.complex128) / d
    for g in paulis[1:]:
        p_plus = float(np.real(np.trace(sigma @ (np.eye(d) + g))) / 2.0)
        p_plus = min(max(p_plus, 0.0), 1.0)
        k = rng.binomial(shots, p_plus)
        mean = (2.0 * k - shots) / shots
        est += (mean / d) * g
    return est


def process_tomography(channel, probes=None, shots=None, seed=None, return_raw=False):
    """Chi-matrix reconstruction of a channel by linear inversion.

    ``channel`` is a :class:`~qmcool.thermo.KrausChannel` or any callable
    rho -> rho' (callables require ``probes`` to fix the dimension).  With
    ``shots`` set, output states are estimated from sampled Pauli
    expectations using a per-probe Philox substream of ``seed``; the
    reconstructed chi is then eigenvalue-clipped at zero and renormalized to
    unit trace.  ``return_raw=True`` also returns the pre-clip matrix.
    """
    if isinstance(channel, KrausChannel):
        dim = channel.dim
        evolve = lambda r: apply_channel(channel, r)
    elif callable(channel):
        if probes is None:
            raise ValidationError("callable channels need an explicit probe set")
        dim = probes.states[0].shape[0]
        evolve = channel
    else:
        raise ValidationError(f"channel must be a KrausChannel or callable, got {type(channel)!r}")
    n = _n_qubits_of_dim(dim)
    if probes is None:
        probes = default_probes(n)
    if shots is not None:
        seed, shots = check_seed(seed), check_int(shots, "shots", 1)
    _, paulis = pauli_basis(n)
    npa = len(paulis)

    rows = []
    rhs = []
    for j, probe in enumerate(probes.states):
        sigma = evolve(probe)
        if shots is not None:
            rng = np.random.Generator(np.random.Philox(key=[seed, j]))
            sigma = _estimate_state(sigma, shots, rng)
        block = np.empty((dim * dim, npa * npa), dtype=np.complex128)
        for m, pm in enumerate(paulis):
            left = pm @ probe
            for q, pn in enumerate(paulis):
                block[:, m * npa + q] = (left @ pn).reshape(-1)
        rows.append(block)
        rhs.append(np.asarray(sigma, dtype=np.complex128).reshape(-1))
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < npa * npa:
        raise ValidationError(f"rank-deficient probe set (rank {rank} < {npa * npa})")
    chi = x.reshape(npa, npa)
    chi = 0.5 * (chi + chi.conj().T)
    if shots is None:
        resid = np.max(np.abs(a @ chi.reshape(-1) - b))
        if resid > 1e-10:
            raise ValidationError(f"exact-mode reconstruction residual {resid:.3e}")
        return (chi, chi.copy()) if return_raw else chi
    raw = chi
    w, v = np.linalg.eigh(raw)
    w = np.clip(w, 0.0, None)
    chi = (v * w) @ v.conj().T
    tr = chi.trace().real
    if tr <= 0:
        raise ValidationError("clipped chi has non-positive trace")
    chi = chi / tr
    return (chi, raw) if return_raw else chi


def _effects_of(measurement):
    if isinstance(measurement, MeasurementBasis):
        return np.stack([measurement.projector(k) for k in range(4)])
    if isinstance(measurement, PovmSet):
        return measurement.effects()
    m = np.asarray(measurement, dtype=np.complex128)
    if m.ndim == 3 and m.shape[1] == m.shape[2]:
        return m
    raise ValidationError("measurement must be a basis, a POVM, or a stack of effects")


def measurement_tomography(measurement, probes=None, shots=None, seed=None, return_raw=False):
    """Least-squares reconstruction of measurement effects from outcome data.

    Outcome probabilities over the probe set determine each effect in the
    Pauli operator basis.  In shot mode the outcome counts of every probe are
    a single multinomial draw (per-probe Philox substream of ``seed``) and
    each reconstructed effect is eigenvalue-clipped at zero.
    """
    effects = _effects_of(measurement)
    dim = effects.shape[1]
    n = _n_qubits_of_dim(dim)
    if probes is None:
        probes = default_probes(n)
    if shots is not None:
        seed, shots = check_seed(seed), check_int(shots, "shots", 1)
    _, paulis = pauli_basis(n)
    npa = len(paulis)

    design = np.empty((len(probes.states), npa))
    freqs = np.empty((len(probes.states), effects.shape[0]))
    for j, probe in enumerate(probes.states):
        design[j] = [np.real(np.trace(probe @ p)) for p in paulis]
        p_out = np.real(np.einsum("kij,ji->k", effects, probe))
        p_out = np.clip(p_out, 0.0, None)
        if shots is None:
            freqs[j] = p_out
        else:
            rng = np.random.Generator(np.random.Philox(key=[seed, j]))
            p_norm = p_out / p_out.sum()
            freqs[j] = rng.multinomial(shots, p_norm) / shots
    coeffs, _, rank, _ = np.linalg.lstsq(design, freqs, rcond=None)
    if rank < npa:
        raise ValidationError(f"rank-deficient probe set (rank {rank} < {npa})")
    recon = np.einsum("mk,mij->kij", coeffs, np.stack(paulis).astype(np.complex128))
    recon = 0.5 * (recon + recon.conj().transpose(0, 2, 1))
    if shots is None:
        err = np.max(np.abs(recon - effects))
        if err > 1e-10:
            raise ValidationError(f"exact-mode reconstruction error {err:.3e}")
        return (recon, recon.copy()) if return_raw else recon
    raw = recon.copy()
    for k in range(recon.shape[0]):
        w, v = np.linalg.eigh(recon[k])
        recon[k] = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return (recon, raw) if return_raw else recon


def process_fidelity(chi_a, chi_b):
    """Uhlmann fidelity between two chi matrices (normalized to unit trace)."""
    a = np.asarray(chi_a, dtype=np.complex128)
    b = np.asarray(chi_b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValidationError(f"chi shape mismatch: {a.shape} vs {b.shape}")
    a = 0.5 * (a + a.conj().T)
    b = 0.5 * (b + b.conj().T)
    return _fidelity(a / a.trace().real, b / b.trace().real)


def effect_fidelity(effect_a, effect_b):
    """Uhlmann fidelity between two effects, each normalized to unit trace; 0 if
    either is the zero effect (a shot-mode estimate clipped to nothing)."""
    a = np.asarray(effect_a, dtype=np.complex128)
    b = np.asarray(effect_b, dtype=np.complex128)
    if not (a.any() and b.any()):
        return 0.0
    a = 0.5 * (a + a.conj().T)
    b = 0.5 * (b + b.conj().T)
    ta, tb = a.trace().real, b.trace().real
    if ta <= 0 or tb <= 0:
        raise ValidationError("effects must have positive trace")
    return _fidelity(a / ta, b / tb)
