"""The Haar sampling stream (stream version 9): Ginibre matrices, orthonormalized.

Every stream of the package comes from :func:`stream`: numpy's PCG64DXSM, seeded by
``SeedSequence(seed, spawn_key=(word,))`` and advanced to a 64-bit word of its output.
The Haar stream of a seed is word ``HAAR_WORD``; probe j's tomography shots use word
j, and no probe index reaches ``HAAR_WORD``, so the two never share a stream.  Sample
i of the Haar stream reads uniforms [32i, 32i + 32), one output word each (advanced
by 32i), so results are a pure function of ``(seed, start, n)`` and independent of
batching and of which memory the caller lends (:func:`qmcool.measure.haar_planes`).

Every draw is gauged by row.  Gram-Schmidt commutes with a diagonal unitary D, so
with D_r = exp(-i theta_r0), theta_r0 the angle of Ginibre entry (r, 0), it turns DG
into DU for the U of G.  Column 0 of DG is real, its radii, and entry (r, j) has the
angle 2 pi (u'_rj - u'_r0), a difference of two uniforms, which is exact.  Box-Muller
turns those entries by the half angle (:func:`_half_turn`): one tan each, where cos
and sin take two slower calls, and Gram-Schmidt skips every product with column 0's
zero imaginary plane.  There are two draws.  The engine needs only P = |U C|^2 =
|DU C|^2, whose rows sum to 1, so its planar draw (:func:`ginibre_batch`) takes
columns 0-2 and it forms P's last column from them (:func:`qmcool.engine._canonical_p`).
Every full unitary is one scalar draw (:func:`ginibre_one`), all four columns, whose
first three are the planar draw's bit for bit; ``haar_unitary`` turns its row r back
by exp(i theta_r0).

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
STREAM_VERSION = 9  # printed by every command whose output reads the Haar stream
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
    Haar fill of this thread (:func:`ginibre_batch`, :func:`ginibre_one`) ended finds
    the generator there and takes it as it is; every call clears that record, since
    its caller may draw.
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
        if skip:  # advance(0) costs ~0.5 us and moves nothing
            gen.bit_generator.advance(skip)
    _STREAMS.end = None
    return gen


def ginibre_batch(seed, start, n, out=None, scratch=None):
    """The engine's draw: columns 0-2 of n complex standard-Gaussian 4x4 matrices,
    samples [start, start + n) of the Haar stream, gauged by row (see above), as real planes.

    Entry (r, j) of sample i is Box-Muller on uniforms 32i + 8r + 2j and the one after
    it, (u, u'): radius sqrt(-log(1 - u)) and angle 2 pi u', so E|z|^2 = 1 and u = 0
    stays finite.  Column 0 keeps its radii and a zero imaginary plane, and column
    j > 0 takes the angle 2 pi d, with d = u' - u'_r0 less rint(d), exact in
    [-1/2, 1/2], turned by :func:`_half_turn`.  ``scratch``, a float C-contiguous array
    of SCRATCH_WORDS n words, takes the uniforms; one transposed copy puts columns 0-2's
    into ``out``, a C-contiguous float (3, 2, 4, n) array, where Box-Muller runs in
    place, elementwise, so an entry has the same bits in any layout.  The scratch's
    head then takes the half-angle weights.  By default both are fresh.
    ``out[j, c, r, i]`` is part c (0 real, 1 imaginary) of entry (r, j) of matrix i;
    returns the view ``out.transpose(3, 2, 0, 1)``, (n, 4, 3, 2), indexed [i, r, j, c].
    """
    start = check_int(start, "sample counter")
    gen = stream(seed, HAAR_WORD, SCRATCH_WORDS * start)
    n = check_int(n, "n")
    q = _buffer(out, (3, 2, 4, n), np.float64, "out")
    u = _buffer(scratch, (SCRATCH_WORDS * n,), np.float64, "scratch")
    gen.random(out=u)  # one output word per double: the fill ends at sample start + n
    _STREAMS.end = HAAR_WORD, SCRATCH_WORDS * (start + n)
    np.copyto(q, u.reshape(n, 4, 4, 2)[:, :, :3].transpose(2, 3, 1, 0))
    d = np.subtract(q[1:, 1], q[0, 1], out=q[1:, 1])
    w = u[:8 * n].reshape(2, 4, n)  # every uniform is in q by now
    d -= np.rint(d, out=w)
    q[0, 1] = 0.0
    _half_turn(_radius(q[:, 0])[1:], d, w)
    return q.transpose(3, 2, 0, 1)


def ginibre_one(seed, start):
    """All four columns of sample ``start`` of the Haar stream, gauged by row, on Python
    floats, for every full unitary: the columns as :func:`_orthonormalize_one` takes
    them, ``columns[j][c][r]``, and u'_r0 of its four rows, the row phase.  Columns 0-2
    have the bits of :func:`ginibre_batch`'s: numpy takes only log1p and tan, whose bits
    depend on its loops; negation, rint and the other steps are exact or correctly
    rounded alike in Python."""
    start = check_int(start, "sample counter")
    u = stream(seed, HAAR_WORD, SCRATCH_WORDS * start).random(SCRATCH_WORDS)
    _STREAMS.end = HAAR_WORD, SCRATCH_WORDS * (start + 1)
    r = [math.sqrt(-x) for x in np.log1p(-u[0::2]).tolist()]  # entry (row, j) at 4 row + j
    a, d, x, y = u[1::2].tolist(), [], [], []
    for k in range(0, 16, 4):
        for dk in a[k + 1:k + 4]:  # d less rint(d), exact, as the planar draw takes it
            dk -= a[k]
            d.append((dk - 1.0 if dk > 0.5 else dk + 1.0 if dk < -0.5 else dk) * math.pi)
    for k, t in enumerate(np.tan(d).tolist()):  # entry (row, j > 0) at 3 row + j - 1
        rk = r[k + k // 3 + 1]
        w = rk / (t * t * 0.5 + 0.5)
        x.append(w - rk)
        y.append(t * w)
    return [(r[0::4], [0.0] * 4)] + [(x[j::3], y[j::3]) for j in range(3)], a[0::4]


def _radius(r):
    """r <- sqrt(-log(1 - r)) in place, Box-Muller's radius of uniforms r; returns r."""
    np.log1p(np.negative(r, out=r), out=r)
    return np.sqrt(np.negative(r, out=r), out=r)


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
    """Orthonormalize the columns of gauged Ginibre matrices into Haar-distributed
    unitaries, turned by the row phase D of the draw (see above).

    Classical Gram-Schmidt, two passes per column ("twice is enough": Giraud, Langou and
    Rozloznik, 2005): column j loses its components along columns 0..j-1 twice over,
    then is divided by its norm, the real and positive R diagonal of the implied QR
    factorization, which is the gauge that makes the unitaries Haar-distributed
    (Mezzadri, math-ph/0609050).  Column j reads only columns 0..j, so the first k
    columns are the same bits whether or not the later ones are there.

    ``gin`` is what :func:`ginibre_batch` returns, the view (n, 4, cols, 2) of
    C-contiguous planes (cols, 2, 4, n), orthonormalized in place by
    :func:`_orthonormalize_gauged` with ``scratch`` (SCRATCH_WORDS n words, by default
    fresh), which rounds each matrix as :func:`_orthonormalize_one` does at any n.
    Returns ``gin``.
    """
    n, cols = len(gin), gin.shape[2]
    q = _buffer(gin.transpose(2, 3, 1, 0), (cols, 2, 4, n), np.float64, "the planes of gin")
    _orthonormalize_gauged(q, _buffer(scratch, (SCRATCH_WORDS * n,), np.float64, "scratch"))
    return gin


def _orthonormalize_gauged(q, scratch):
    """Two-pass Gram-Schmidt, in place, on the gauged planes ``q`` (cols, 2, 4, n),
    cols <= 4, whose column 0 is real (``q[0, 1]`` is +0 and is not read), with 23 n
    words of ``scratch``.  Each step is one elementwise +, -, *, / or sqrt over the
    samples, and a sum over the four rows, axis -2, adds them in row order from +0,
    (((+0 + x_0) + x_1) + x_2) + x_3, as numpy reduces an outer axis, so a sample
    rounds as it would alone.  With c_k = <q_k, v> = sum_r conj(q_k,r) v_r, all from
    the same v (classical Gram-Schmidt), a pass takes v -= c_k q_k for k < j in turn;
    c_0 skips column 0's zero imaginary plane."""
    n, a = q.shape[-1], q[0, 0]
    t, t2 = scratch[:16 * n].reshape(2, 2, 4, n)
    norm = scratch[16 * n:17 * n]
    a /= np.sqrt(np.add.reduce(np.square(a, out=t[0]), -2, out=norm), out=norm)
    for j in range(1, len(q)):
        v = q[j]
        c = scratch[17 * n:(17 + 2 * j) * n].reshape(2, j, n)
        p = scratch[:8 * (j - 1) * n].reshape(j - 1, 2, 4, n)
        for _ in range(2):
            # Re c = Re q Re v + Im q Im v and Im c = Re q Im v - Im q Re v, row by row
            for part, w, combine in ((0, v, np.add), (1, v[::-1], np.subtract)):
                combine(*np.multiply(q[1:j], w, out=p).swapaxes(0, 1), out=p[:, 0])
                np.add.reduce(p[:, 0], -2, out=c[part, 1:])
            np.add.reduce(np.multiply(a, v, out=t), -2, out=c[:, 0])  # c_0, a real
            v -= np.multiply(c[:, :1], a, out=t)
            for k in range(1, j):  # (Re c Re q - Im c Im q) + i (Re c Im q + Im c Re q)
                np.multiply(c[0, k], q[k], out=t)
                np.multiply(c[1, k], q[k], out=t2)
                t[0] -= t2[1]
                t[1] += t2[0]
                v -= t
        np.multiply(v, v, out=t)
        t[0] += t[1]
        v /= np.sqrt(np.add.reduce(t[0], -2, out=norm), out=norm)


def _orthonormalize_one(columns):
    """:func:`_orthonormalize_gauged` on one matrix, as Python floats: ``columns[j][c][r]``
    is part c (real, imaginary) of entry (r, j), column 0's imaginary part is zero and
    not read; returns the columns alike.  The same correctly rounded operations in the
    same order, per row (v = x + iy, q_k = a + ib for k = 0, e + ib after it, c_k =
    c + id); CPython fuses no multiply-add, so the bits are the same."""
    (a0, a1, a2, a3), zero = columns[0]
    norm = math.sqrt((((0.0 + a0 * a0) + a1 * a1) + a2 * a2) + a3 * a3)
    a0, a1, a2, a3 = a0 / norm, a1 / norm, a2 / norm, a3 / norm
    out = [((a0, a1, a2, a3), zero)]
    for (x0, x1, x2, x3), (y0, y1, y2, y3) in columns[1:]:
        for _ in (0, 1):
            c, d = ((((0.0 + a0 * x0) + a1 * x1) + a2 * x2) + a3 * x3,
                    (((0.0 + a0 * y0) + a1 * y1) + a2 * y2) + a3 * y3)
            coefs = [((((0.0 + (e0 * x0 + b0 * y0)) + (e1 * x1 + b1 * y1))
                       + (e2 * x2 + b2 * y2)) + (e3 * x3 + b3 * y3),
                      (((0.0 + (e0 * y0 - b0 * x0)) + (e1 * y1 - b1 * x1))
                       + (e2 * y2 - b2 * x2)) + (e3 * y3 - b3 * x3),
                      e0, e1, e2, e3, b0, b1, b2, b3)
                     for (e0, e1, e2, e3), (b0, b1, b2, b3) in out[1:]]
            x0, x1, x2, x3 = x0 - c * a0, x1 - c * a1, x2 - c * a2, x3 - c * a3
            y0, y1, y2, y3 = y0 - d * a0, y1 - d * a1, y2 - d * a2, y3 - d * a3
            for c, d, e0, e1, e2, e3, b0, b1, b2, b3 in coefs:
                x0, x1, x2, x3 = (x0 - (c * e0 - d * b0), x1 - (c * e1 - d * b1),
                                  x2 - (c * e2 - d * b2), x3 - (c * e3 - d * b3))
                y0, y1, y2, y3 = (y0 - (c * b0 + d * e0), y1 - (c * b1 + d * e1),
                                  y2 - (c * b2 + d * e2), y3 - (c * b3 + d * e3))
        norm = math.sqrt((((0.0 + (x0 * x0 + y0 * y0)) + (x1 * x1 + y1 * y1))
                          + (x2 * x2 + y2 * y2)) + (x3 * x3 + y3 * y3))
        out.append(((x0 / norm, x1 / norm, x2 / norm, x3 / norm),
                    (y0 / norm, y1 / norm, y2 / norm, y3 / norm)))
    return out


def _buffer(out, shape, dtype, name):
    """``out`` if it is a C-contiguous array of that shape and dtype, a fresh one if it is None."""
    if out is None:
        return np.empty(shape, dtype=dtype)
    if out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ValidationError(f"{name} must be a C-contiguous {np.dtype(dtype).name} array "
                              f"of shape {shape}")
    return out
