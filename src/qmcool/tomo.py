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
shots from its own PCG64DXSM stream ``_accel.stream(seed, j)``, spawn key j of
the seed, so its counts do not depend on the other probes and never share the
seed's Haar stream.  Exact mode performs a perfect round trip to 1e-10.

Each kind is one pass over a stack of targets: one matmul over the probes, one
``lstsq`` with a column per target, stacked clipping and fidelities.  The
public functions are the one-target case.
"""

import numpy as np

from ._accel import check_int, stream
from .errors import ValidationError
from .measure import MeasurementBasis, PovmSet
from .thermo import KrausChannel

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


def _dagger(m):
    return m.conj().swapaxes(-1, -2)


def _check(ok, labels, message, values):
    """Raise ValidationError naming the first target (leading row) where ``ok`` fails,
    with the largest of its ``values`` in ``message``."""
    bad = ~ok.reshape(len(labels), -1).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"{labels[i]}: {message.format(np.max(values[i]))}")


def chi_from_kraus(channel):
    """Analytic chi matrix of a Kraus channel in the Pauli product basis."""
    return _chis_from_kraus(np.stack(channel.operators)[None])[0]


def _chis_from_kraus(kraus):
    d = kraus.shape[-1]
    coeff = np.einsum("mij,tkji->tkm", _paulis_of_dim(d), kraus) / d
    return coeff.swapaxes(-1, -2) @ coeff.conj()


def _estimate_states(sigmas, shots, seed):
    """Pauli-expectation estimates of a (t, j, d, d) stack of states from binomial
    sampling of each setting; state (t, j) draws from probe j's stream at word 0."""
    shots, d = check_int(shots, "shots", 1), sigmas.shape[-1]
    paulis = _paulis_of_dim(d)
    p_plus = np.real(np.einsum("tjik,gki->tjg", sigmas, np.eye(d) + paulis[1:])) / 2.0
    k = np.array([[stream(seed, j).binomial(shots, p) for j, p in enumerate(row)]
                  for row in np.clip(p_plus, 0.0, 1.0)])
    mean = np.concatenate([np.ones(k.shape[:-1] + (1,)), (2.0 * k - shots) / shots], axis=-1)
    return np.einsum("tjg,gab->tjab", mean / d, paulis)


def process_tomography(channel, shots=None, seed=None):
    """Chi-matrix reconstruction of a single-qubit channel by linear inversion.

    ``channel`` is a 2x2 :class:`~qmcool.thermo.KrausChannel`; it is evaluated on
    the four probes.  With ``shots`` set, output states are estimated from sampled
    Pauli expectations using a per-probe stream of ``seed``; the
    reconstructed chi is then eigenvalue-clipped at zero and renormalized to unit
    trace.
    """
    return _process_tomographies([channel], ["channel"], shots, seed)[0]


def _process_tomographies(channels, labels, shots=None, seed=None):
    """:func:`process_tomography` of channels with equally many Kraus operators, a
    (t, 4, 4) stack; ``labels`` name them in errors."""
    for channel in channels:
        if not isinstance(channel, KrausChannel):
            raise ValidationError(f"channel must be a KrausChannel, got {type(channel)!r}")
        if channel.dim != 2:
            raise ValidationError(f"process tomography takes a single-qubit channel, "
                                  f"got dimension {channel.dim}")
    kraus = np.stack([channel.operators for channel in channels])[:, :, None]  # (t, r, 1, 2, 2)
    outputs = np.zeros((len(channels), 4, 2, 2), dtype=np.complex128)  # (t, probe, 2, 2)
    for k in kraus.swapaxes(0, 1):
        outputs += k @ _PROBES[2] @ _dagger(k)
    drift = np.abs(np.trace(outputs, axis1=2, axis2=3) - np.trace(_PROBES[2], axis1=1, axis2=2))
    _check(~(drift > 1e-10), labels, "channel failed to preserve trace (drift {:.3e})", drift)
    if shots is not None:
        outputs = _estimate_states(outputs, shots, seed)
    b = outputs.reshape(len(channels), 16).T
    chi = np.linalg.lstsq(_PROCESS_DESIGN, b, rcond=None)[0].T.reshape(-1, 4, 4)
    chi = 0.5 * (chi + _dagger(chi))
    if shots is None:
        resid = np.max(np.abs(_PROCESS_DESIGN @ chi.reshape(-1, 16).T - b), axis=0)
        _check(resid <= 1e-10, labels, "exact-mode reconstruction residual {:.3e}", resid)
        return chi
    w, v = np.linalg.eigh(chi)
    chi = (v * np.clip(w, 0.0, None)[:, None, :]) @ _dagger(v)
    tr = np.trace(chi, axis1=1, axis2=2).real
    _check(~(tr <= 0), labels, "clipped chi has non-positive trace ({:.3e})", tr)
    return chi / tr[:, None, None]


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
    a single multinomial draw (per-probe stream of ``seed``) and each
    reconstructed effect is eigenvalue-clipped at zero.
    """
    effects = _effects_of(measurement)[None]
    return _measurement_tomographies(effects, ["measurement"], shots, seed)[0]


def _measurement_tomographies(effects, labels, shots=None, seed=None):
    """:func:`measurement_tomography` of a (b, 4, 4, 4) stack of measurements' effects,
    labelled as in :func:`_process_tomographies`; probe j draws from ``stream(seed, j)``."""
    freqs = np.clip(np.real(np.einsum("bkil,jli->bjk", effects, _PROBES[4])), 0.0, None)
    if shots is not None:
        shots = check_int(shots, "shots", 1)
        freqs = np.array([[stream(seed, j).multinomial(shots, p / p.sum())
                           for j, p in enumerate(probes)] for probes in freqs]) / shots
    coeffs = np.linalg.lstsq(_EFFECT_DESIGN, freqs.transpose(1, 0, 2).reshape(16, -1),
                             rcond=None)[0]
    # complex coefficients, or einsum casts them through a buffer that grows with the stack
    recon = np.einsum("mk,mij->kij", coeffs.astype(np.complex128), _PAULIS[4])
    recon = 0.5 * (recon + _dagger(recon))
    if shots is None:
        err = np.max(np.abs(recon.reshape(effects.shape) - effects), axis=(1, 2, 3))
        _check(err <= 1e-10, labels, "exact-mode reconstruction error {:.3e}", err)
        return recon.reshape(effects.shape)
    w, v = np.linalg.eigh(recon)
    return ((v * np.clip(w, 0.0, None)[:, None, :]) @ _dagger(v)).reshape(effects.shape)


def _fidelities(a, b, kind):
    """Uhlmann fidelities of two stacks of operators, pair by pair, each made Hermitian
    and divided by its trace, as floats capped at 1; tiny negative eigenvalues are
    clipped to zero.  The stacks are made C-contiguous first: numpy sums the diagonal
    of otherwise strided matrices in another order."""
    if np.shape(a) != np.shape(b):
        raise ValidationError(f"{kind} shape mismatch: {np.shape(a)[1:]} vs {np.shape(b)[1:]}")
    units = []
    for m in (a, b):
        m = np.ascontiguousarray(m, dtype=np.complex128)
        m = 0.5 * (m + _dagger(m))
        tr = np.trace(m, axis1=1, axis2=2).real
        if np.any(tr <= 0):
            raise ValidationError(f"{kind} must have positive trace")
        units.append(m / tr[:, None, None])
    w, v = np.linalg.eigh(units[0])
    sa = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ _dagger(v)
    w = np.linalg.eigvalsh(sa @ units[1] @ sa)
    return [min(s ** 2, 1.0) for s in np.sum(np.sqrt(np.clip(w, 0.0, None)), axis=-1).tolist()]


def process_fidelity(chi_a, chi_b):
    """Uhlmann fidelity between two chi matrices (normalized to unit trace)."""
    return _fidelities(np.asarray(chi_a)[None], np.asarray(chi_b)[None], "chi")[0]


def effect_fidelity(effect_a, effect_b):
    """Uhlmann fidelity between two effects, each normalized to unit trace; 0 if
    either is the zero effect (a shot-mode estimate clipped to nothing)."""
    return _effect_fidelities(np.asarray(effect_a)[None], np.asarray(effect_b)[None])[0]


def _effect_fidelities(effects_a, effects_b):
    keep = (effects_a.reshape(len(effects_a), -1).any(axis=1)
            & effects_b.reshape(len(effects_b), -1).any(axis=1))
    fids = iter(_fidelities(effects_a[keep], effects_b[keep], "effects"))
    return [next(fids) if k else 0.0 for k in keep.tolist()]
