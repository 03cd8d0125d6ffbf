"""Measurement bases, Haar sampling, and the white-noise detector model; the
interference-noise model is the engine's closed form (:func:`~qmcool.engine.noise_sweep`).

The measurement stroke is non-selective: outcomes are discarded and the state
becomes the probability-weighted mixture of the projected states,
rho' = sum_k <psi_k|rho|psi_k> |psi_k><psi_k|.  On the diagonal Gibbs product it
moves populations only, so the engine reads it as a 4x4 population map.
Two-qubit basis order is (|00>, |01>, |10>, |11>) with qubit 1 as the slow (left
Kronecker) index.
"""

import contextlib
import threading
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .errors import ValidationError
from .thermo import _complex_and_square_sum, as_complex

ORTHO_TOL = 1e-10
_EYE = np.eye(4, dtype=np.complex128)  # an orthonormal basis's Gram matrix, a complete POVM's sum
_KEEP = contextlib.nullcontext()  # numpy's floating-point warnings, left as they are
# float64 words per sample of a Haar draw (haar_planes): the engine's three columns, and
# the four of every full unitary
WORK_WORDS = _accel.SCRATCH_WORDS + 8 * 3
UNITARY_WORDS = _accel.SCRATCH_WORDS + 8 * 4
# counters per block that haar_unitary reads ahead, a power of two, so it divides 2**63
READ_AHEAD = 256
# this thread's last block of haar_unitary: .key, its (seed, first counter), and .us
_BLOCK = threading.local()


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Four orthonormal two-qubit vectors; row k of ``vectors`` is |psi_k>."""

    vectors: np.ndarray

    def __post_init__(self):
        v, square_sum = _complex_and_square_sum(self.vectors)
        if v.shape != (4, 4):
            raise ValidationError(f"basis needs four 4-vectors, got shape {v.shape}")
        with _warnings_if_small(square_sum):
            _set_orthonormal(self, v.copy())

    def projector(self, k):
        """Rank-1 projector |psi_k><psi_k|, Hermitian bit for bit: numpy's complex
        product may fuse a multiply-add, so entries (r, s) and (s, r) of the outer product
        can differ from conjugates in their last bit, and a white-noise POVM would carry
        that into its map as an asymmetry.  The mean with its adjoint is exactly Hermitian
        and changes no bit of an outer product that already was."""
        v = self.vectors[k]
        p = np.outer(v, v.conj())
        return (p + p.conj().T) / 2


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


def _set_orthonormal(basis, v):
    """``basis`` with the complex (4, 4) ``v``, made read-only, as its vectors, if v's rows
    are orthonormal within ORTHO_TOL: the largest |V V^dag - I|, found by argmax, which
    like max takes the first NaN, so a non-finite row, whose Gram matrix is not finite, fails."""
    dev = np.abs(np.dot(v, v.conj().T) - _EYE)
    gram_err = dev.item(dev.argmax())
    if not gram_err <= ORTHO_TOL:
        raise ValidationError(f"basis vectors not orthonormal (deviation {gram_err:.3e})")
    v.setflags(write=False)
    object.__setattr__(basis, "vectors", v)
    return basis


def _warnings_if_small(square_sum):
    """The context of a basis check's products on a matrix whose entries' squares sum to
    ``square_sum``.  Orthonormal rows, and a unitary, have entries of at most 1 in
    magnitude, so a larger sum than 16 fails the check, and only then, where the products
    may overflow, are numpy's warnings turned off (np.errstate costs more than the check)."""
    return _KEEP if square_sum <= 16.0 else np.errstate(all="ignore")


def rotate_basis(u, basis):
    """Map every basis vector by the unitary ``u``.  The rotated basis checks its own
    orthonormality (:func:`_set_orthonormal`), which for an orthonormal ``basis`` holds
    exactly when u is unitary.  u's entries are checked finite here, and the product is
    not checked again: it is finite unless it overflows, and a u that large (its squared
    entries sum past 16) fails quietly (:func:`_warnings_if_small`)."""
    u, square_sum = _complex_and_square_sum(u)
    if u.shape != (4, 4):
        raise ValidationError(f"rotation must be 4x4, got {u.shape}")
    with _warnings_if_small(square_sum):
        return _set_orthonormal(object.__new__(MeasurementBasis), basis.vectors @ u.T)


@dataclass(frozen=True)
class HaarSampler:
    """Deterministic Haar-unitary source: (seed, counter) -> unitary.

    Counter i reads uniforms [32i, 32i + 32) of the seed's Haar stream, which the
    stream reaches by advancing its PCG64DXSM generator 32i words (see
    :mod:`qmcool._accel`), so sample i is identical whether drawn one at a time or in
    batches.  Every unitary comes from one planar draw, :func:`haar_unitaries`; a single
    :func:`haar_unitary` reads its aligned block of READ_AHEAD counters ahead, so a
    counter outside the block its thread keeps pays for a whole block.  To move on,
    build a new sampler with a later counter.
    """

    seed: int
    counter: int = 0

    def __post_init__(self):
        _accel.check_int(self.seed, "seed")
        _accel.check_int(self.counter, "counter")


def haar_unitary(sampler):
    """One Haar-distributed 4x4 unitary for the sampler's (seed, counter): a copy of
    sample ``counter`` of :func:`haar_unitaries`, bit for bit, from the aligned block of
    READ_AHEAD counters that holds it, [counter - counter % READ_AHEAD, + READ_AHEAD).
    Each thread keeps its last block, keyed by (seed, first counter), and a unitary is
    a pure function of (seed, counter), so the block is never stale.  A loop over
    consecutive counters draws one block per READ_AHEAD calls, a few us a unitary; a
    counter outside the kept block pays for a whole block, ~0.5 ms.  READ_AHEAD
    divides 2**63, so the last block ends at counter 2**63 - 1."""
    seed, i = sampler.seed, sampler.counter
    key = seed, i - i % READ_AHEAD
    if getattr(_BLOCK, "key", None) != key:
        _BLOCK.us, _BLOCK.key = haar_unitaries(HaarSampler(*key), READ_AHEAD), key
    return _BLOCK.us[i - key[1]].copy()


def haar_unitaries(sampler, n):
    """n Haar unitaries for counters [counter, counter + n), a complex (n, 4, 4) array:
    the four gauged columns of :func:`haar_planes`, row r of sample i turned back by
    (cos, sin) 2 pi u'_r0 (:mod:`qmcool._accel`), one ufunc per real product and sum,
    so no multiply-add is fused.  It draws pieces of at most READ_AHEAD samples in one
    work array, and every sample has the same bits in any split into consecutive calls.
    Every counter must be one a :class:`HaarSampler` can name."""
    n = _accel.check_int(n, "n")
    if sampler.counter + n - 1 > _accel.INT64_MAX:
        raise ValidationError(f"{n} unitaries from counter {sampler.counter} pass 2**63 - 1")
    out = np.empty((n, 4, 4), dtype=np.complex128)
    work = np.empty(UNITARY_WORDS * min(n, READ_AHEAD))
    for first in range(0, n, READ_AHEAD):
        m = min(READ_AHEAD, n - first)
        sample = HaarSampler(sampler.seed, sampler.counter + first)
        du = haar_planes(sample, m, work[:UNITARY_WORDS * m]).transpose(3, 2, 0, 1)  # [i, r, j, c]
        head = _accel.SCRATCH_WORDS * m  # the draw keeps u'_r0 in its scratch's last 4m words
        angle = 2 * np.pi * work[head - 4 * m:head].reshape(4, m).T[..., None]
        c, s, x, y = np.cos(angle), np.sin(angle), du[..., 0], du[..., 1]
        piece = out[first:first + m]
        piece.real, piece.imag = c * x - s * y, c * y + s * x
    return out


def haar_planes(sampler, n, work=None):
    """Columns 0..cols-1 of the n gauged Haar unitaries DU for counters
    [counter, counter + n) as real planes, a float (cols, 2, 4, n) array: ``[j, c, r, i]``
    is part c (0 real, 1 imaginary) of entry (r, j) of unitary i.  D is the row phase of
    :mod:`qmcool._accel`, which :func:`haar_unitaries` turns back; the engine, which
    needs only |U C|^2 = |DU C|^2, draws three columns, the first three of four bit for bit.

    ``work``, a C-contiguous float64 array (by default fresh, three columns), holds the
    whole draw, and its length sets cols: WORK_WORDS n words for three columns,
    UNITARY_WORDS n for four.  Its first SCRATCH_WORDS n words take the uniforms
    (:func:`~qmcool._accel.ginibre_batch`), then Gram-Schmidt's scratch, and for four
    columns keep the row phase's uniforms in their last 4n; the rest holds the planes,
    orthonormalized in place and returned (:func:`~qmcool._accel.haar_from_ginibre`).
    Which memory is used changes no bit.
    """
    n = _accel.check_int(n, "n")
    head = _accel.SCRATCH_WORDS * n
    cols = 4 if work is not None and n and work.size == UNITARY_WORDS * n else 3
    work = _accel._buffer(work, (head + 8 * cols * n,), np.float64, "work")
    scratch, planes = work[:head], work[head:].reshape(cols, 2, 4, n)
    gin = _accel.ginibre_batch(sampler.seed, sampler.counter, n, planes, scratch)
    _accel.haar_from_ginibre(gin, scratch)
    return planes


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Four measurement operators M_k with sum_k M†M = I (effects are M†M).

    ``unital`` records whether sum_k M M† = I too, within ORTHO_TOL: then the channel
    keeps the maximally mixed state, and its population map's columns sum to 1 as its
    rows do (a white-noise POVM is unital; a reset to |00> is not)."""

    operators: np.ndarray
    unital: bool = field(init=False)

    def __post_init__(self):
        m = as_complex(self.operators)
        if m.ndim != 3 or m.shape[1:] != (4, 4):
            raise ValidationError(f"POVM operators must be a stack of 4x4, got {m.shape}")
        total = np.einsum("kij,kil->jl", m.conj(), m)
        err = abs(total - _EYE).max()
        if err > ORTHO_TOL:
            raise ValidationError(f"POVM completeness violated (deviation {err:.3e})")
        unital = abs(np.einsum("kij,klj->il", m, m.conj()) - _EYE).max() <= ORTHO_TOL
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "operators", m)
        object.__setattr__(self, "unital", bool(unital))

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

