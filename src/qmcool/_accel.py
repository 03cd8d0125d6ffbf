"""The Haar sampling stream (stream version 3): Ginibre matrices, orthonormalized.

Every Philox key of the package is built here, as ``[seed, word]``.  The Haar
stream of a seed is key ``[seed, HAAR_WORD]``; probe j's tomography shots use
key ``[seed, j]``, and no probe index reaches ``HAAR_WORD``, so the two never
share a stream.  Sample i of the Haar stream reads uniforms [32i, 32i + 32)
(the counter set to 8i), so results are a pure function of
``(seed, start, n)`` and independent of batching: the engine draws its Haar
samples in fixed chunks, ``ginibre_batch(seed, start, m)`` for consecutive
starts, and gets the samples of one whole draw.

Both steps write into arrays that the caller may own: ``ginibre_batch`` fills
``out``, and ``haar_from_ginibre`` orthonormalizes in ``out`` and keeps its
conjugates in the Ginibre array it was given.  The engine passes the same two
buffers to every chunk, so a chunk allocates only small temporaries; a one-shot
draw passes none and gets fresh arrays from the same code.  Which memory is
used does not change a bit of the result.

Version 3 keeps version 2's keys and layout and changes only the step from a
Ginibre matrix to its unitary: a two-pass Gram-Schmidt over the columns
replaces ``np.linalg.qr`` and its gauge fix.  Both give the same unitary in
exact arithmetic; in floating point the unitaries agree to ~1e-14, so seeded
values move in their last bits and a sample that sits on a class boundary can
change class.

The cycle-energy kernel lives in :mod:`qmcool.engine`.  This module keeps
its name because the benchmark harness (``perfbench/``) reads and wraps
the stream as ``qmcool._accel``.
"""

import operator

import numpy as np

from .errors import ValidationError


# Philox keys above this pass through float64 in numpy and alias other keys.
INT64_MAX = 2**63 - 1
HAAR_WORD = INT64_MAX  # second key word of the Haar stream
STREAM_VERSION = 3  # printed by every command whose output reads the Haar stream


def check_int(value, name, low=0):
    """value as an int, if it is an integer (not a bool, float or str) in [low, 2**63 - 1]."""
    try:
        out = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        out = None
    if out is None or not low <= out <= INT64_MAX:
        raise ValidationError(f"{name} must be an integer in [{low}, 2**63 - 1], got {value!r}")
    return out


def check_seed(seed):
    """The seed as an int, if it is an integer (not a bool, float or str) in [0, 2**63 - 1]."""
    return check_int(seed, "seed")


def stream(seed, word, counter=0):
    """A Generator on Philox key [seed, word], its counter at ``counter``: word
    HAAR_WORD is the Haar stream, word j < HAAR_WORD the shots of tomography probe j."""
    return np.random.Generator(np.random.Philox(counter=counter, key=[check_seed(seed), word]))


def ginibre_batch(seed, start, n, out=None):
    """n complex standard-Gaussian 4x4 matrices, samples [start, start + n) of the Haar stream.

    Each entry is Box-Muller, in place, on two consecutive uniforms (u, u'): radius
    sqrt(-log(1 - u)) and angle 2 pi u', so E|z|^2 = 1 and u = 0 stays finite.  The
    matrices are written into ``out``, a C-contiguous complex (n, 4, 4) array, which
    is returned; by default it is a fresh array.
    """
    gen = stream(seed, HAAR_WORD, 8 * check_int(start, "sample counter"))
    out = _buffer(out, check_int(n, "n"))
    flat = out.reshape(-1)
    gen.random(out=flat.view(np.float64))
    r, theta = flat.real, flat.imag
    np.log1p(np.negative(r, out=r), out=r)
    np.sqrt(np.negative(r, out=r), out=r)
    theta *= 2 * np.pi
    cos = np.cos(theta)
    np.sin(theta, out=theta)
    theta *= r
    r *= cos
    return out


def haar_from_ginibre(gin, out=None):
    """Orthonormalize the columns of Ginibre matrices into Haar-distributed unitaries.

    Classical Gram-Schmidt, two passes per column ("twice is enough": Giraud,
    Langou and Rozloznik, 2005): column j loses its components along the finished
    columns 0..j-1 twice over, then is divided by its norm.  That norm is the R
    diagonal of the implied QR factorization, real and positive, which is the gauge
    that makes the map from Ginibre matrix to unitary single-valued and the
    unitaries Haar-distributed (Mezzadri, math-ph/0609050); no gauge step is needed.

    The columns are orthonormalized as the rows of ``out``, a C-contiguous complex
    array of gin's shape (by default a fresh one), which gets gin transposed; the
    unitaries are returned as its transposed view.  ``gin`` is then scratch for the
    conjugated finished rows, so it is overwritten.
    """
    q = _buffer(out, len(gin))  # row j of q is column j of gin
    np.copyto(q, gin.swapaxes(-1, -2))
    flat = q.view(np.float64)  # row j as 8 reals
    for j in range(4):
        col = q[..., j:j + 1, :]
        if j:
            done = q[..., :j, :]
            done_h = np.conjugate(done, out=gin[..., :j, :]).swapaxes(-1, -2)
            col -= (col @ done_h) @ done
            col -= (col @ done_h) @ done
        re = flat[..., j:j + 1, :]
        re /= np.sqrt(re @ re.swapaxes(-1, -2))
    return q.swapaxes(-1, -2)


def _buffer(out, n):
    """``out`` if it is a C-contiguous complex (n, 4, 4) array, a fresh one if it is None."""
    if out is None:
        return np.empty((n, 4, 4), dtype=np.complex128)
    if out.shape != (n, 4, 4) or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise ValidationError(f"out must be a C-contiguous complex128 array of shape {(n, 4, 4)}")
    return out
