"""The Haar sampling stream (stream version 5): Ginibre matrices, orthonormalized.

Every stream of the package comes from :func:`stream`, on Philox key
``[seed, word]``, rewound and advanced to a counter.  The Haar stream of a seed
is key ``[seed, HAAR_WORD]``; probe j's tomography shots use key ``[seed, j]``,
and no probe index reaches ``HAAR_WORD``, so the two never share a stream.
Sample i of the Haar stream reads uniforms [32i, 32i + 32) (the counter at
8i), so results are a pure function of ``(seed, start, n)`` and independent of
batching: the engine draws its Haar samples in fixed chunks,
``ginibre_batch(seed, start, m, 3)`` for consecutive starts, and gets the samples
of one whole draw.

Both steps work in arrays that the caller may own: ``ginibre_batch`` writes the
Ginibre matrices as real planes into ``out``, with ``scratch`` for the uniforms
and cosines, and ``haar_from_ginibre`` orthonormalizes those planes in place,
with the same scratch for its coefficients.  The engine passes the same memory
to every chunk (see :func:`qmcool.measure.haar_planes`), so a chunk's draw
allocates nothing of the chunk's size; a one-shot draw passes none and gets
fresh arrays from the same code.  Which memory is used does not change a bit of
the result.

Version 4 kept version 2's keys and layout and version 3's two-pass
Gram-Schmidt, and changed only how that Gram-Schmidt is evaluated: on real
planes with the sample index last, each projection, norm and division one
elementwise operation over the samples, where version 3 used small complex
matmuls on sample-major matrices.  Both give the same unitary in exact
arithmetic; in floating point they agree to ~1e-15, so seeded values moved in
their last bits and a sample that sits on a class boundary could change class.

Version 5 keeps version 4's uniforms and arithmetic, and the engine draws and
orthonormalizes only columns 0-2 of each unitary: it needs only P = |U C|^2,
whose rows sum to 1, so it forms P's last column from the other three
(:func:`qmcool.engine._canonical_p`).  This stays exact: Gram-Schmidt's column j
reads only columns 0..j, so columns 0-2 are the bits of a full draw, and they
have the Haar law of the first three columns of a unitary.  What moves is the
rounding of P's last column, by ~1e-16, so seeded triples move in their last
bits, as at version 4.  The unitaries themselves (``haar_unitaries``,
``haar_unitary``) keep version 4's bits: Box-Muller now runs on the planes
after one transposed copy of the uniforms, elementwise, which changes none.

The cycle-energy kernel lives in :mod:`qmcool.engine`.  This module keeps
its name because the benchmark harness (``perfbench/``) reads and wraps
the stream as ``qmcool._accel``.
"""

import math
import operator
import threading

import numpy as np

from .errors import ValidationError


# Philox keys above this pass through float64 in numpy and alias other keys.
INT64_MAX = 2**63 - 1
HAAR_WORD = INT64_MAX  # second key word of the Haar stream
STREAM_VERSION = 5  # printed by every command whose output reads the Haar stream
PLANAR_MIN = 8  # smallest batch for Box-Muller and Gram-Schmidt on the planes
SCRATCH_WORDS = 32  # float64 words per sample of the draw's scratch: one sample's uniforms
# this thread's generators: .seed, and .keys {word: (generator, its state at counter 0)}
_STREAMS = threading.local()


def check_int(value, name, low=0):
    """value as an int, if it is an integer (not a bool, float or str) in [low, 2**63 - 1]."""
    try:
        out = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        out = None
    if out is None or not low <= out <= INT64_MAX:
        raise ValidationError(f"{name} must be an integer in [{low}, 2**63 - 1], got {value!r}")
    return out


def stream(seed, word, counter=0):
    """A Generator on Philox key [seed, word], its counter at ``counter``: word
    HAAR_WORD is the Haar stream, word j < HAAR_WORD the shots of tomography probe j.

    Each thread builds a key's generator once, for the last seed it asked for (a new
    seed drops the old one's), and every call restores its state at counter 0 and
    advances it, which draws what a freshly built generator at that counter draws.
    The generator is valid until this thread's next call for the key or another seed.
    """
    seed = check_int(seed, "seed")
    if getattr(_STREAMS, "seed", None) != seed:
        _STREAMS.seed, _STREAMS.keys = seed, {}
    if word not in _STREAMS.keys:
        gen = np.random.Generator(np.random.Philox(key=[seed, word]))
        _STREAMS.keys[word] = gen, gen.bit_generator.state
    gen, start = _STREAMS.keys[word]
    gen.bit_generator.state = start
    if counter:  # advance(0) changes nothing and costs ~2 us
        gen.bit_generator.advance(counter)
    return gen


def ginibre_batch(seed, start, n, cols=4, out=None, scratch=None):
    """Columns 0..cols-1 of n complex standard-Gaussian 4x4 matrices, samples
    [start, start + n) of the Haar stream, as real planes.

    Entry (r, j) of sample i is Box-Muller on uniforms 32i + 8r + 2j and the one after
    it, (u, u'): radius sqrt(-log(1 - u)) and angle 2 pi u', so E|z|^2 = 1 and u = 0
    stays finite.  ``scratch``, a C-contiguous float array of SCRATCH_WORDS n words,
    takes the uniforms of every column; one transposed copy puts those of the wanted
    columns into ``out``, a C-contiguous float (cols, 2, 4, n) array, where Box-Muller
    runs in place (the cosines go back into ``scratch``).  Below PLANAR_MIN samples it
    runs on the uniforms before the copy instead, where each of its numpy calls costs
    ~1 us less.  ``out[j, c, r, i]`` is part c (0 real, 1 imaginary) of entry (r, j) of
    matrix i; by default each array is fresh.  Every step is elementwise, so a column
    has the same bits whatever ``cols`` or the layout is.

    Returns the sample-leading view ``out.transpose(3, 2, 0, 1)``, shape
    (n, 4, cols, 2): the real and imaginary parts of entry (r, j) of matrix i are
    ``[i, r, j]``.
    """
    gen = stream(seed, HAAR_WORD, 8 * check_int(start, "sample counter"))
    n = check_int(n, "n")
    q = _buffer(out, (cols, 2, 4, n), np.float64, "out")
    u = _buffer(scratch, (SCRATCH_WORDS * n,), np.float64, "scratch")
    gen.random(out=u)
    wanted = u.reshape(n, 4, 4, 2)[:, :, :cols].transpose(2, 3, 1, 0)
    if n < PLANAR_MIN:  # a ufunc call costs less on the 1-d views of the uniforms
        _box_muller(u[0::2], u[1::2], np.empty(16 * n))
        np.copyto(q, wanted)
    else:
        np.copyto(q, wanted)
        parts = q.reshape(cols, 2, 4 * n)
        _box_muller(parts[:, 0], parts[:, 1], u[:4 * cols * n].reshape(cols, 4 * n))
    return q.transpose(3, 2, 0, 1)


def _box_muller(r, theta, cos):
    """Box-Muller in place on same-shape uniforms: r <- sqrt(-log(1 - r)) cos(2 pi theta)
    and theta <- sqrt(-log(1 - r)) sin(2 pi theta), with ``cos`` as scratch.  Each
    step is elementwise, so an entry gets the same bits in any layout."""
    np.log1p(np.negative(r, out=r), out=r)
    np.sqrt(np.negative(r, out=r), out=r)
    theta *= 2 * np.pi
    np.cos(theta, out=cos)
    np.sin(theta, out=theta)
    theta *= r
    r *= cos


def haar_from_ginibre(gin, scratch=None):
    """Orthonormalize the columns of Ginibre matrices into Haar-distributed unitaries.

    Classical Gram-Schmidt, two passes per column ("twice is enough": Giraud,
    Langou and Rozloznik, 2005): column j loses its components along the finished
    columns 0..j-1 twice over, then is divided by its norm.  That norm is the R
    diagonal of the implied QR factorization, real and positive, which is the gauge
    that makes the map from Ginibre matrix to unitary single-valued and the
    unitaries Haar-distributed (Mezzadri, math-ph/0609050); no gauge step is needed.
    Column j reads only columns 0..j, so the first k columns are the same bits
    whether or not the later ones are there.

    ``gin`` is what :func:`ginibre_batch` returns, the view (n, 4, cols, 2) of
    C-contiguous planes (cols, 2, 4, n), and the planes are orthonormalized in place
    by :func:`_orthonormalize_planes`, with ``scratch`` (SCRATCH_WORDS n words, by
    default fresh) for the coefficients.  Fewer than PLANAR_MIN matrices take
    :func:`_orthonormalize_one` instead, one by one: the same operations in the same
    order on Python floats, which give the same bits.  It costs ~25-30 us per matrix
    against ~200-300 us for the ~150 numpy calls of the planar path at any small n,
    so the two tie near n = 8 (timeit, 2-vCPU Xeon VM).  Returns ``gin``, now the
    unitaries' first cols columns.
    """
    n, cols = len(gin), gin.shape[2]
    q = _buffer(gin.transpose(2, 3, 1, 0), (cols, 2, 4, n), np.float64, "the planes of gin")
    if n < PLANAR_MIN:
        for i in range(n):
            q[..., i] = _orthonormalize_one(q[..., i].tolist())
    else:
        _orthonormalize_planes(q, _buffer(scratch, (SCRATCH_WORDS * n,), np.float64, "scratch"))
    return gin


def _orthonormalize_planes(q, scratch):
    """Two-pass Gram-Schmidt, in place, on the planes ``q`` (cols, 2, 4, n) of
    :func:`haar_from_ginibre`, cols <= 4; ``scratch`` is a flat float array of at
    least 31 n.

    Every step is one elementwise +, -, *, / or sqrt over the n samples, written with
    ``out=`` into ``q`` or ``scratch``, and a sum over the four rows adds them in row
    order (:func:`_row_sum`), so each sample rounds as it would alone.  With
    c_k = <q_k, v> = sum_r conj(q_k,r) v_r, all from the same v (classical
    Gram-Schmidt), a pass takes v -= c_k q_k for k = 0..j-1 in turn.
    """
    n = q.shape[-1]
    prod = scratch[:24 * n].reshape(3, 2, 4, n)
    coef = scratch[24 * n:30 * n].reshape(2, 3, n)
    norm = scratch[30 * n:31 * n]
    t, t2 = prod[0], prod[1]  # (2, 4, n) each, free once the coefficients are formed
    for j in range(len(q)):
        v = q[j]
        for _ in range(2 if j else 0):
            p, c = prod[:j], coef[:, :j]
            # Re c = Re q Re v + Im q Im v and Im c = Re q Im v - Im q Re v, row by row
            for part, w, combine in ((0, v, np.add), (1, v[::-1], np.subtract)):
                np.multiply(q[:j], w, out=p)
                combine(p[:, 0], p[:, 1], out=p[:, 0])
                _row_sum(p[:, 0], c[part])
            for k in range(j):
                # c q = (Re c Re q - Im c Im q) + i (Re c Im q + Im c Re q)
                np.multiply(c[0, k], q[k], out=t)
                np.multiply(c[1, k], q[k], out=t2)
                t[0] -= t2[1]
                t[1] += t2[0]
                v -= t
        np.multiply(v, v, out=t)
        t[0] += t[1]
        np.sqrt(_row_sum(t[0], norm), out=norm)
        v /= norm


def _row_sum(x, out):
    """((x_0 + x_1) + x_2) + x_3 over the rows, axis -2, of ``x``, written into ``out``."""
    np.add(x[..., 0, :], x[..., 1, :], out=out)
    out += x[..., 2, :]
    out += x[..., 3, :]
    return out


def _orthonormalize_one(cols):
    """:func:`_orthonormalize_planes` on one matrix, as Python floats: ``cols[j][c][r]``
    is part c (real, imaginary) of entry (r, j), and column j is returned in ``cols[j]``.

    The same correctly rounded operations in the same order, written out per row
    (x the real parts of v, y the imaginary ones; (a, b) those of q_k; c + id = c_k).
    CPython fuses no multiply-add, so the result is bit for bit the sample's in any
    batch.
    """
    for j in range(len(cols)):
        (x0, x1, x2, x3), (y0, y1, y2, y3) = cols[j]
        for _ in range(2 if j else 0):
            coefs = [((((a0 * x0 + b0 * y0) + (a1 * x1 + b1 * y1)) + (a2 * x2 + b2 * y2))
                      + (a3 * x3 + b3 * y3),
                      (((a0 * y0 - b0 * x0) + (a1 * y1 - b1 * x1)) + (a2 * y2 - b2 * x2))
                      + (a3 * y3 - b3 * x3))
                     for (a0, a1, a2, a3), (b0, b1, b2, b3) in cols[:j]]
            for (c, d), ((a0, a1, a2, a3), (b0, b1, b2, b3)) in zip(coefs, cols):
                x0 -= c * a0 - d * b0
                x1 -= c * a1 - d * b1
                x2 -= c * a2 - d * b2
                x3 -= c * a3 - d * b3
                y0 -= c * b0 + d * a0
                y1 -= c * b1 + d * a1
                y2 -= c * b2 + d * a2
                y3 -= c * b3 + d * a3
        norm = math.sqrt((((x0 * x0 + y0 * y0) + (x1 * x1 + y1 * y1)) + (x2 * x2 + y2 * y2))
                         + (x3 * x3 + y3 * y3))
        cols[j] = ((x0 / norm, x1 / norm, x2 / norm, x3 / norm),
                   (y0 / norm, y1 / norm, y2 / norm, y3 / norm))
    return cols


def _buffer(out, shape, dtype, name):
    """``out`` if it is a C-contiguous array of that shape and dtype, a fresh one if it is None."""
    if out is None:
        return np.empty(shape, dtype=dtype)
    if out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ValidationError(f"{name} must be a C-contiguous {np.dtype(dtype).name} array "
                              f"of shape {shape}")
    return out
