"""The Haar sampling stream (stream version 8): Ginibre matrices, orthonormalized.

Every stream of the package comes from :func:`stream`: numpy's PCG64DXSM, seeded by
``SeedSequence(seed, spawn_key=(word,))`` and advanced to a 64-bit word of its output.
The Haar stream of a seed is word ``HAAR_WORD``; probe j's tomography shots use word
j, and no probe index reaches ``HAAR_WORD``, so the two never share a stream.  Sample
i of the Haar stream reads uniforms [32i, 32i + 32), one output word each (advanced
by 32i), so results are a pure function of ``(seed, start, n)`` and independent of
batching and of which memory the caller lends (:func:`qmcool.measure.haar_planes`).

The engine's draw, ``cols=3``, is gauged by row.  It needs only P = |U C|^2, whose
rows sum to 1, so it draws columns 0-2 and forms P's last column from the other
three (:func:`qmcool.engine._canonical_p`).  P does not change under U -> DU for a
diagonal unitary D, and Gram-Schmidt commutes with D, so with D_r = exp(-i theta_r0),
theta_r0 the angle of Ginibre entry (r, 0), the engine measures DU for the U of
:func:`qmcool.measure.haar_unitaries`.  Column 0 of its Ginibre matrix is then real,
its radii, and entry (r, j) has the angle 2 pi (u'_rj - u'_r0), a difference of two
uniforms, which is exact.  Box-Muller turns those entries by the half angle
(:func:`_half_turn`): one tan each, where cos and sin take two slower calls.  Each
sample is the ungauged one in exact arithmetic, and Gram-Schmidt skips every product
with column 0's zero imaginary plane.  Four columns are not gauged and take cos and
sin: U's phases reach ``haar_unitary``'s bases and tomography.

The cycle-energy kernel is in :mod:`qmcool.engine`; ``perfbench/`` wraps this module.
"""

import math
import operator
import threading

import numpy as np

from .errors import ValidationError


# the largest seed, sample counter and count: every integer input is one int64
INT64_MAX = 2**63 - 1
HAAR_WORD = INT64_MAX  # spawn key of the Haar stream, above every probe index
STREAM_VERSION = 8  # printed by every command whose output reads the Haar stream
PLANAR_MIN = 8  # smallest batch for Box-Muller and Gram-Schmidt on the planes
SCRATCH_WORDS = 32  # float64 words per sample of the draw's scratch: one sample's uniforms
# this thread's generators: .seed, .keys {word: (generator, its state at word 0)}, and
# .end, (HAAR_WORD, w) while the Haar generator is where the last fill left it, word w
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


def stream(seed, word, skip=0):
    """A Generator on PCG64DXSM seeded by ``SeedSequence(seed, spawn_key=(word,))``,
    ``skip`` 64-bit words into its output: word HAAR_WORD is the Haar stream, word
    j < HAAR_WORD the shots of tomography probe j.  The spawn key follows the seed's
    entropy padded to a fixed length, so distinct (seed, word) pairs get distinct keys,
    which a flat ``[seed, word]``, of words of variable width, would not.  Each thread
    builds a key's generator once, for the last seed it asked for, and each call
    restores its saved state and advances it ``skip`` words (O(log skip) steps), which
    draws what a fresh one advanced there draws.  A call for the word where the last
    :func:`ginibre_batch` fill of this thread ended finds the generator there and
    takes it as it is; every call clears that record, since its caller may draw.
    It is valid until this thread's next call for the key or another seed.
    """
    seed = check_int(seed, "seed")
    if getattr(_STREAMS, "seed", None) != seed:
        _STREAMS.seed, _STREAMS.keys, _STREAMS.end = seed, {}, None
    if word not in _STREAMS.keys:
        bits = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(word,)))
        _STREAMS.keys[word] = np.random.Generator(bits), bits.state
    gen, state = _STREAMS.keys[word]
    if _STREAMS.end != (word, skip):
        gen.bit_generator.state = state
        gen.bit_generator.advance(skip)
    _STREAMS.end = None
    return gen


def ginibre_batch(seed, start, n, cols=4, out=None, scratch=None):
    """Columns 0..cols-1 of n complex standard-Gaussian 4x4 matrices, samples
    [start, start + n) of the Haar stream, as real planes.

    Entry (r, j) of sample i is Box-Muller on uniforms 32i + 8r + 2j and the one after
    it, (u, u'): radius sqrt(-log(1 - u)) and angle 2 pi u', so E|z|^2 = 1 and u = 0
    stays finite.  ``cols=3`` is gauged by row (see above) at any n: column 0 keeps its
    radii and a zero imaginary plane, and columns 1-2 take the angle 2 pi d, with
    d = u' - u'_r0 less rint(d), exact in [-1/2, 1/2], turned by :func:`_half_turn`.
    ``scratch``, a float C-contiguous array of SCRATCH_WORDS n words, takes the
    uniforms, then the cosines or the half-angle weights; one transposed copy puts
    the wanted columns' uniforms into ``out``, a C-contiguous float
    (cols, 2, 4, n) array, where Box-Muller runs in place, elementwise, so an entry has
    the same bits in any layout.  Below PLANAR_MIN samples an ungauged draw runs it
    before the copy, where a numpy call costs ~1 us less.  By default both are fresh.
    ``out[j, c, r, i]`` is part c (0 real, 1 imaginary) of entry (r, j) of matrix i;
    returns the view ``out.transpose(3, 2, 0, 1)``, (n, 4, cols, 2), indexed [i, r, j, c].
    """
    start = check_int(start, "sample counter")
    gen = stream(seed, HAAR_WORD, SCRATCH_WORDS * start)
    n = check_int(n, "n")
    q = _buffer(out, (cols, 2, 4, n), np.float64, "out")
    u = _buffer(scratch, (SCRATCH_WORDS * n,), np.float64, "scratch")
    gen.random(out=u)  # one output word per double: the fill ends at sample start + n
    _STREAMS.end = HAAR_WORD, SCRATCH_WORDS * (start + n)
    wanted = u.reshape(n, 4, 4, 2)[:, :, :cols].transpose(2, 3, 1, 0)
    if cols == 3:
        np.copyto(q[:, 0], wanted[:, 0])
        d = np.subtract(wanted[1:, 1], wanted[0, 1], out=q[1:, 1])
        w = u[:8 * n].reshape(2, 4, n)  # every uniform is in q by now
        d -= np.rint(d, out=w)
        q[0, 1] = 0.0
        _half_turn(_radius(q[:, 0])[1:], d, w)
    elif n < PLANAR_MIN:  # a ufunc call costs less on the 1-d views of the uniforms
        _turn(_radius(u[0::2]), u[1::2], np.empty(16 * n))
        np.copyto(q, wanted)
    else:
        np.copyto(q, wanted)
        parts = q.reshape(cols, 2, 4 * n)
        _turn(_radius(parts[:, 0]), parts[:, 1], u[:4 * cols * n].reshape(cols, 4 * n))
    return q.transpose(3, 2, 0, 1)


def _radius(r):
    """r <- sqrt(-log(1 - r)) in place, Box-Muller's radius of uniforms r; returns r."""
    np.log1p(np.negative(r, out=r), out=r)
    return np.sqrt(np.negative(r, out=r), out=r)


def _turn(r, theta, cos):
    """(r, theta) <- r (cos 2 pi theta, sin 2 pi theta) in place, with ``cos`` as scratch."""
    theta *= 2 * np.pi
    np.cos(theta, out=cos)
    np.sin(theta, out=theta)
    theta *= r
    r *= cos


def _half_turn(r, d, w):
    """(r, d) <- r (cos 2 pi d, sin 2 pi d) in place, d in [-1/2, 1/2], with ``w`` as
    scratch.  With the half angle's t = tan(pi d), cos = (1 - t^2)/(1 + t^2) and
    sin = 2t/(1 + t^2), so r cos = W - r and r sin = t W for W = r/(t^2/2 + 1/2).
    numpy's float64 tan runs a SIMD loop, ~7x faster than its cos or sin; |pi d| <= pi/2
    keeps t finite."""
    d *= np.pi
    t = np.tan(d, out=d)  # never on a negative stride: numpy takes libm's tan there
    np.square(t, out=w)
    w *= 0.5
    w += 0.5
    np.divide(r, w, out=w)
    t *= w
    np.subtract(w, r, out=r)


def haar_from_ginibre(gin, scratch=None):
    """Orthonormalize the columns of Ginibre matrices into Haar-distributed unitaries.

    Classical Gram-Schmidt, two passes per column ("twice is enough": Giraud, Langou
    and Rozloznik, 2005): column j loses its components along columns 0..j-1 twice
    over, then is divided by its norm, the real and positive R diagonal of the implied
    QR factorization, which is the gauge that makes the unitaries Haar-distributed
    (Mezzadri, math-ph/0609050).  Column j reads only columns 0..j, so the first k
    columns are the same bits whether or not the later ones are there.

    ``gin`` is what :func:`ginibre_batch` returns, the view (n, 4, cols, 2) of
    C-contiguous planes (cols, 2, 4, n), orthonormalized in place by
    :func:`_orthonormalize_planes`, or, three columns being the engine's gauged ones, by
    :func:`_orthonormalize_gauged`, with ``scratch`` (SCRATCH_WORDS n words, by default fresh).
    Below PLANAR_MIN matrices :func:`_orthonormalize_one` takes them one by one, with
    the same bits, ~25-30 us each against ~150 numpy calls.  Returns ``gin``.
    """
    n, cols = len(gin), gin.shape[2]
    q = _buffer(gin.transpose(2, 3, 1, 0), (cols, 2, 4, n), np.float64, "the planes of gin")
    if n < PLANAR_MIN:
        for i in range(n):
            q[..., i] = _orthonormalize_one(q[..., i].tolist())
    else:
        planar = _orthonormalize_gauged if cols == 3 else _orthonormalize_planes
        planar(q, _buffer(scratch, (SCRATCH_WORDS * n,), np.float64, "scratch"))
    return gin


def _orthonormalize_planes(q, scratch):
    """Two-pass Gram-Schmidt, in place, on the planes ``q`` (cols, 2, 4, n) of
    :func:`haar_from_ginibre`, cols <= 4, with 31 n words of ``scratch``.  Each step is
    one elementwise +, -, *, / or sqrt over the samples, and a sum over the four rows
    adds them in row order (:func:`_row_sum`), so a sample rounds as it would alone.
    With c_k = <q_k, v> = sum_r conj(q_k,r) v_r, all from the same v (classical
    Gram-Schmidt), a pass takes v -= c_k q_k for k < j in turn."""
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
                _subtract_multiple(v, c[:, k], q[k], t, t2)
        _normalize(v, t, norm)


def _orthonormalize_gauged(q, scratch):
    """:func:`_orthonormalize_planes` on the engine's gauged planes (3, 2, 4, n), whose
    column 0 is real (``q[0, 1]`` is +0), less every product with that zero plane, with
    21 n words of ``scratch``.  The general code only adds those zeros to floats, which
    changes no bit unless every term of a sum is zero."""
    n = q.shape[-1]
    t, t2 = scratch[:16 * n].reshape(2, 2, 4, n)
    c0, c1 = scratch[16 * n:20 * n].reshape(2, 2, n)
    norm, a = scratch[20 * n:21 * n], q[0, 0]
    a /= np.sqrt(_row_sum(np.square(a, out=t[0]), norm), out=norm)
    for j in (1, 2):
        v = q[j]
        for _ in range(2):
            if j == 2:  # c_1 as in _orthonormalize_planes, from the same v as c_0
                for part, w, combine in ((0, v, np.add), (1, v[::-1], np.subtract)):
                    combine(*np.multiply(q[1], w, out=t), out=t[0])
                    _row_sum(t[0], c1[part])
            _row_sum(np.multiply(a, v, out=t), c0)  # c_0 = sum_r a_r v_r, a real
            v -= np.multiply(c0[:, None], a, out=t)
            if j == 2:
                _subtract_multiple(v, c1, q[1], t, t2)
        _normalize(v, t, norm)


def _subtract_multiple(v, c, qk, t, t2):
    """v -= c qk, c = (Re, Im) planes: (Re c Re q - Im c Im q) + i (Re c Im q + Im c Re q)."""
    np.multiply(c[0], qk, out=t)
    np.multiply(c[1], qk, out=t2)
    t[0] -= t2[1]
    t[1] += t2[0]
    v -= t


def _normalize(v, t, norm):
    """v /= its norm, sqrt(sum_r (Re v_r^2 + Im v_r^2)), with t and norm as scratch."""
    np.multiply(v, v, out=t)
    t[0] += t[1]
    v /= np.sqrt(_row_sum(t[0], norm), out=norm)


def _row_sum(x, out):
    """((x_0 + x_1) + x_2) + x_3 over the rows, axis -2, of ``x``, written into ``out``."""
    np.add(x[..., 0, :], x[..., 1, :], out=out)
    out += x[..., 2, :]
    out += x[..., 3, :]
    return out


def _orthonormalize_one(cols):
    """:func:`_orthonormalize_planes` on one matrix, as Python floats: ``cols[j][c][r]``
    is part c (real, imaginary) of entry (r, j), and column j is returned in ``cols[j]``.
    The same correctly rounded operations in the same order, per row (v = x + iy,
    q_k = a + ib, c_k = c + id); CPython fuses no multiply-add, so the bits are the same.
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
