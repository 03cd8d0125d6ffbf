"""Measurement bases, the non-selective measurement channel, Haar sampling,
and the two detector-noise models (white-noise POVM and imperfect two-photon
interference).

The measurement stroke is non-selective: outcomes are discarded and the state
becomes the probability-weighted mixture of the projected states,
rho' = sum_k <psi_k|rho|psi_k> |psi_k><psi_k|.
"""

from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import ValidationError
from .qcore import as_complex, two_qubit_state

ORTHO_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Four orthonormal two-qubit vectors; row k of ``vectors`` is |psi_k>."""

    vectors: np.ndarray

    def __post_init__(self):
        v = as_complex(self.vectors)
        if v.shape != (4, 4):
            raise ValidationError(f"basis needs four 4-vectors, got shape {v.shape}")
        gram_err = np.max(np.abs(v @ v.conj().T - np.eye(4)))
        if gram_err > ORTHO_TOL:
            raise ValidationError(f"basis vectors not orthonormal (deviation {gram_err:.3e})")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    def projector(self, k):
        """Rank-1 projector |psi_k><psi_k|."""
        v = self.vectors[k]
        return np.outer(v, v.conj())


def canonical_basis():
    """{|00>, (|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2, |11>} — two product vectors
    and the two zero-magnetization Bell vectors."""
    s = 1.0 / np.sqrt(2.0)
    vectors = np.array(
        [
            [1, 0, 0, 0],
            [0, s, s, 0],
            [0, s, -s, 0],
            [0, 0, 0, 1],
        ],
        dtype=np.complex128,
    )
    return MeasurementBasis(vectors)


def measurement_channel(basis, rho):
    """Non-selective projective measurement of ``rho`` in ``basis``."""
    arr = two_qubit_state(rho)
    v = basis.vectors
    w = np.einsum("kr,rt,kt->k", v.conj(), arr, v).real
    return np.einsum("k,kr,kt->rt", w, v, v.conj())


def rotate_basis(u, basis):
    """Map every basis vector by the unitary ``u``."""
    u = as_complex(u)
    if u.shape != (4, 4):
        raise ValidationError(f"rotation must be 4x4, got {u.shape}")
    err = np.max(np.abs(u.conj().T @ u - np.eye(4)))
    if err > ORTHO_TOL:
        raise ValidationError(f"rotation is not unitary (deviation {err:.3e})")
    return MeasurementBasis(basis.vectors @ u.T)


@dataclass(frozen=True)
class HaarSampler:
    """Deterministic Haar-unitary source: (seed, counter) -> unitary.

    Counter i reads uniforms [32i, 32i + 32) of the seed's Haar stream (see
    :mod:`qmcool._accel`), so sample i is identical whether drawn one at a time
    or in batches.  To move on, build a new sampler with a later counter.
    """

    seed: int
    counter: int = 0

    def __post_init__(self):
        _accel.check_seed(self.seed)
        _accel.check_int(self.counter, "counter")


def haar_unitary(sampler):
    """One Haar-distributed 4x4 unitary for the sampler's (seed, counter)."""
    return haar_unitaries(sampler, 1)[0]


def haar_unitaries(sampler, n, work=None):
    """n Haar unitaries for counters [counter, counter + n); any split of a range
    into consecutive calls gives the same unitaries (the engine draws in chunks).

    ``work``, a C-contiguous complex (2, n, 4, 4) array, takes the Ginibre draw in
    ``work[0]`` and Gram-Schmidt in ``work[1]``, and the unitaries are a view of
    ``work[1]``; a caller that draws many batches reuses one.  By default both
    are fresh arrays.
    """
    gin, q = (None, None) if work is None else work
    gin = _accel.ginibre_batch(sampler.seed, sampler.counter, n, gin)
    return _accel.haar_from_ginibre(gin, q)


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Four measurement operators M_k with sum_k M†M = I (effects are M†M)."""

    operators: np.ndarray

    def __post_init__(self):
        m = as_complex(self.operators)
        if m.ndim != 3 or m.shape[1:] != (4, 4):
            raise ValidationError(f"POVM operators must be a stack of 4x4, got {m.shape}")
        total = np.einsum("kij,kil->jl", m.conj(), m)
        err = np.max(np.abs(total - np.eye(4)))
        if err > ORTHO_TOL:
            raise ValidationError(f"POVM completeness violated (deviation {err:.3e})")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "operators", m)

    def effects(self):
        """The positive effects E_k = M_k† M_k."""
        m = self.operators
        return np.einsum("kij,kil->kjl", m.conj(), m)


def white_noise_povm(basis, nu):
    """POVM with effects nu*|psi_k><psi_k| + (1-nu)*I/4.

    The measurement operators are M_k = A P_k + B I with
    A = (sqrt(1+3nu) - sqrt(1-nu))/2 and B = sqrt(1-nu)/2, which makes the
    post-measurement map an exact convex mixture c1*rho' + c2*rho of the ideal
    output and the input — see :func:`white_noise_mixture_weights`.
    """
    if not (0.0 <= nu <= 1.0):
        raise ValidationError(f"noise weight must lie in [0, 1], got {nu!r}")
    a = 0.5 * (np.sqrt(1.0 + 3.0 * nu) - np.sqrt(1.0 - nu))
    b = 0.5 * np.sqrt(1.0 - nu)
    eye = np.eye(4, dtype=np.complex128)
    ops = np.stack([a * basis.projector(k) + b * eye for k in range(4)])
    return PovmSet(ops)


def white_noise_mixture_weights(nu):
    """(c1, c2) with post-state = c1*rho' + c2*rho; c1 + c2 = 1.  Elementwise on arrays;
    float_power rounds like C pow on both (``**`` squares an array by multiplication)."""
    c1 = np.float_power(0.5 * (np.sqrt(1.0 + 3.0 * nu) - np.sqrt(1.0 - nu)), 2)
    c2 = 0.5 * (np.sqrt((1.0 + 3.0 * nu) * (1.0 - nu)) + (1.0 - nu))
    return c1, c2


def apply_povm(povm, rho):
    """Non-selective generalized measurement sum_k M_k rho M_k†."""
    arr = two_qubit_state(rho)
    return np.einsum("kij,jl,kml->im", povm.operators, arr, povm.operators.conj())


def _distinguishable(basis, rho):
    """D = sum_k A_k rho A_k + (A_k-V_k) rho (A_k-V_k) of :func:`hom_noisy_channel`;
    ``rho`` is not validated here."""
    arr = as_complex(rho)
    out = np.zeros((4, 4), dtype=np.complex128)
    for v in basis.vectors:
        c = v.reshape(2, 2)
        a = np.kron(c @ c.conj().T, np.eye(2))
        r = a - np.outer(v, v.conj())
        out += a @ arr @ a + r @ arr @ r
    return out


def _distinguishable_map(basis):
    """Q with diag(D) = Q p for rho = diag(p), D = :func:`_distinguishable`: column s is
    diag(D) at rho = |s><s|, so Q_rs = sum_k |A_k,rs|^2 + |(A_k - V_k)_rs|^2 >= 0."""
    return np.column_stack([_distinguishable(basis, np.diag(e)).diagonal().real for e in np.eye(4)])


def hom_noisy_channel(basis, visibility, rho):
    """Non-selective measurement through an imperfect two-photon interferometer.

    Each projector k is realized optically as local unitaries and bias filters
    around a polarization-singlet projection performed by two-photon
    interference.  With interference visibility ``nu``, a detected coincidence
    is the ideal interfering event with weight nu, or one of the two
    distinguishable-photon events — both photons transmitted, or both
    reflected (exchanged) — each with weight (1-nu)/4.  Per the detection
    bookkeeping, every projector branch is scaled by 1/eta_k^2 (its bias
    efficiency enters twice, once per photon arm).

    With V_k = |v_k><v_k| and A_k = Tr_2(V_k) x I, the singlet projection
    (I - SWAP)/2 makes the transmit and reflect trains 2*eta_k*A_k and
    2*eta_k*(A_k - V_k), so the weights cancel: the detected output is
    nu*G + (1-nu)*D with G = measurement_channel and D = :func:`_distinguishable`.
    It is renormalized by the total detected weight, so at nu = 1 this reduces
    exactly to :func:`measurement_channel`.  The tests check it against the
    trains themselves, built from any Schmidt decomposition of each v_k.
    """
    if not (0.0 <= visibility <= 1.0):
        raise ValidationError(f"visibility must lie in [0, 1], got {visibility!r}")
    ideal = measurement_channel(basis, rho)
    out = visibility * ideal + (1.0 - visibility) * _distinguishable(basis, rho)
    total = out.trace().real
    if total <= 1e-15:
        raise ValidationError("zero total detection probability")
    return out / total
