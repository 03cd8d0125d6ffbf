"""Measurement bases, Haar sampling, and the white-noise detector model; the
interference-noise model is the engine's closed form (:func:`~qmcool.engine.noise_sweep`).

The measurement stroke is non-selective: outcomes are discarded and the state
becomes the probability-weighted mixture of the projected states,
rho' = sum_k <psi_k|rho|psi_k> |psi_k><psi_k|.  On the diagonal Gibbs product it
moves populations only, so the engine reads it as a 4x4 population map.
Two-qubit basis order is (|00>, |01>, |10>, |11>) with qubit 1 as the slow (left
Kronecker) index.
"""

from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import ValidationError
from .thermo import as_complex

ORTHO_TOL = 1e-10
_EYE = np.eye(4)  # the Gram matrix of an orthonormal basis and of a complete POVM
# float64 words per sample of the engine's Haar draw, three columns (haar_planes)
WORK_WORDS = _accel.SCRATCH_WORDS + 8 * 3


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Four orthonormal two-qubit vectors; row k of ``vectors`` is |psi_k>."""

    vectors: np.ndarray

    def __post_init__(self):
        v = as_complex(self.vectors)
        if v.shape != (4, 4):
            raise ValidationError(f"basis needs four 4-vectors, got shape {v.shape}")
        gram_err = abs(v @ v.conj().T - _EYE).max()
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


def rotate_basis(u, basis):
    """Map every basis vector by the unitary ``u``.  The rotated basis checks its own
    orthonormality, which for an orthonormal ``basis`` holds exactly when u is unitary."""
    u = as_complex(u)
    if u.shape != (4, 4):
        raise ValidationError(f"rotation must be 4x4, got {u.shape}")
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
        _accel.check_int(self.seed, "seed")
        _accel.check_int(self.counter, "counter")


def haar_unitary(sampler):
    """One Haar-distributed 4x4 unitary for the sampler's (seed, counter), sample
    ``counter`` of :func:`haar_unitaries` bit for bit.  Its Ginibre matrix goes through
    the one-matrix Gram-Schmidt (:func:`~qmcool._accel._orthonormalize_one`), whose
    floats go straight into the complex matrix, row by row."""
    gin = _accel.ginibre_batch(sampler.seed, sampler.counter, 1)[0]  # (row, column, re/im)
    # column j is (re, im) of entries (0..3, j); row r interleaves them over j
    (a0, b0), (a1, b1), (a2, b2), (a3, b3) = _accel._orthonormalize_one(
        gin.transpose(1, 2, 0).tolist())
    return np.array([*zip(a0, b0, a1, b1, a2, b2, a3, b3)]).view(np.complex128)


def haar_unitaries(sampler, n):
    """n Haar unitaries for counters [counter, counter + n), a complex (n, 4, 4) array:
    the four columns of :func:`haar_planes`, the same in any split into consecutive calls."""
    pairs = haar_planes(sampler, n).transpose(3, 2, 0, 1)  # (sample, row, column, re/im)
    return np.ascontiguousarray(pairs).view(np.complex128)[..., 0]


def haar_planes(sampler, n, work=None, cols=4):
    """Columns 0..cols-1 of the n Haar unitaries for counters [counter, counter + n) as
    real planes, a float (cols, 2, 4, n) array: ``[j, c, r, i]`` is part c (0 real, 1
    imaginary) of entry (r, j) of unitary i.  The engine, which needs only |U C|^2,
    draws three (WORK_WORDS per sample), gauged by row (:mod:`qmcool._accel`): it
    measures DU, D diagonal and unitary, not this U bit for bit.  Others draw four.

    ``work``, a C-contiguous float64 array of (SCRATCH_WORDS + 8 cols) n words (by
    default fresh), holds the whole draw: its first SCRATCH_WORDS n words take the
    uniforms (:func:`~qmcool._accel.ginibre_batch`) and then Gram-Schmidt's scratch,
    and the rest the planes, orthonormalized in place and returned
    (:func:`~qmcool._accel.haar_from_ginibre`).  Which memory is used changes no bit.
    """
    n = _accel.check_int(n, "n")
    head = _accel.SCRATCH_WORDS * n
    work = _accel._buffer(work, (head + 8 * cols * n,), np.float64, "work")
    scratch, planes = work[:head], work[head:].reshape(cols, 2, 4, n)
    gin = _accel.ginibre_batch(sampler.seed, sampler.counter, n, cols, planes, scratch)
    _accel.haar_from_ginibre(gin, scratch)
    return planes


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Four measurement operators M_k with sum_k M†M = I (effects are M†M)."""

    operators: np.ndarray

    def __post_init__(self):
        m = as_complex(self.operators)
        if m.ndim != 3 or m.shape[1:] != (4, 4):
            raise ValidationError(f"POVM operators must be a stack of 4x4, got {m.shape}")
        total = np.einsum("kij,kil->jl", m.conj(), m)
        err = abs(total - _EYE).max()
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

