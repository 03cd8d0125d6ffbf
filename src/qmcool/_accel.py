"""The Haar sampling stream (stream version 9): Ginibre matrices, orthonormalized.

Every stream of the package comes from :func:`stream`: numpy's PCG64DXSM, seeded by
``SeedSequence(seed, spawn_key=(word,))`` and advanced to a 64-bit word of its output.
The Haar stream of a seed is word ``HAAR_WORD``; probe j's tomography shots use word
j, and no probe index reaches ``HAAR_WORD``, so the two never share a stream.  Sample
i of the Haar stream reads uniforms [32i, 32i + 32), one output word each (advanced
by 32i from the saved state, which :func:`stream` restores on every call), so results
are a pure function of ``(seed, start, n)`` and independent of batching, of the draw
before, and of which memory the caller lends (:func:`qmcool.measure.haar_planes`).

Every draw is gauged by row.  Gram-Schmidt commutes with a diagonal unitary D, so
with D_r = exp(-i theta_r0), theta_r0 the angle of Ginibre entry (r, 0), it turns DG
into DU for the U of G.  Column 0 of DG is real, its radii, and entry (r, j) has the
angle 2 pi (u'_rj - u'_r0), a difference of two uniforms, which is exact.  Box-Muller
turns those entries by the half angle (:func:`_half_turn`): one tan each, where cos
and sin take two slower calls, and Gram-Schmidt skips every product with column 0's
zero imaginary plane.  There is one planar draw (:func:`ginibre_batch`), and the
buffer its caller lends sets how many columns it takes.  The engine needs only
P = |U C|^2 = |DU C|^2, whose rows sum to 1, so it takes columns 0-2 and forms P's
last column from them (:func:`qmcool.engine._canonical_p`).  Every full unitary takes
all four, whose first three are the engine's bit for bit, and
:func:`qmcool.measure.haar_unitaries` turns its row r back by exp(i theta_r0); a
single :func:`qmcool.measure.haar_unitary` draws the aligned block that holds it.

The cycle-energy kernel is in :mod:`qmcool.engine`; ``perfbench/`` wraps this module.
"""

import operator
import threading

import numpy as np

from .errors import ValidationError


# the largest seed, sample counter and count: every integer input is one int64
INT64_MAX = 2**63 - 1
HAAR_WORD = INT64_MAX  # spawn key of the Haar stream, above every probe index
STREAM_VERSION = 9  # printed by every command whose output reads the Haar stream
SCRATCH_WORDS = 32  # float64 words per sample of the draw's scratch: one sample's uniforms
# this thread's generators: .seed, .keys {word: (generator, its state at word 0)}
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
    draws what a fresh one advanced there draws.
    It is valid until this thread's next call for the key or another seed.
    """
    seed = check_int(seed, "seed")
    if getattr(_STREAMS, "seed", None) != seed:
        _STREAMS.seed, _STREAMS.keys = seed, {}
    if word not in _STREAMS.keys:
        bits = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(word,)))
        _STREAMS.keys[word] = np.random.Generator(bits), bits.state
    gen, state = _STREAMS.keys[word]
    gen.bit_generator.state = state
    if skip:  # advance(0) costs ~0.5 us and moves nothing
        gen.bit_generator.advance(skip)
    return gen


def ginibre_batch(seed, start, n, out=None, scratch=None):
    """Columns 0..cols-1 of n complex standard-Gaussian 4x4 matrices, samples
    [start, start + n) of the Haar stream, gauged by row (see above), as real planes:
    cols = 4 if ``out`` has four columns, else 3, the engine's draw.

    Entry (r, j) of sample i is Box-Muller on uniforms 32i + 8r + 2j and the one after
    it, (u, u'): radius sqrt(-log(1 - u)) and angle 2 pi u', so E|z|^2 = 1 and u = 0
    stays finite.  Column 0 keeps its radii and a zero imaginary plane, and column
    j > 0 takes the angle 2 pi d, with d = u' - u'_r0 less rint(d), exact in
    [-1/2, 1/2], turned by :func:`_half_turn`.  ``scratch``, a float C-contiguous array
    of SCRATCH_WORDS n words, takes the uniforms; one transposed copy puts the wanted
    columns' into ``out``, a C-contiguous float (cols, 2, 4, n) array, where Box-Muller
    runs in place, elementwise, so an entry has the same bits in any layout.  The
    scratch's head then takes the half-angle weights, and for four columns its last 4n
    words the (4, n) plane of u'_r0, the row phase, which :func:`haar_from_ginibre`
    leaves alone.  By default both are fresh, three columns.
    ``out[j, c, r, i]`` is part c (0 real, 1 imaginary) of entry (r, j) of matrix i;
    returns the view ``out.transpose(3, 2, 0, 1)``, (n, 4, cols, 2), indexed [i, r, j, c].
    """
    start = check_int(start, "sample counter")
    gen = stream(seed, HAAR_WORD, SCRATCH_WORDS * start)
    n = check_int(n, "n")
    cols = 4 if out is not None and out.shape[:1] == (4,) else 3
    q = _buffer(out, (cols, 2, 4, n), np.float64, "out")
    u = _buffer(scratch, (SCRATCH_WORDS * n,), np.float64, "scratch")
    gen.random(out=u)  # one output word per double
    np.copyto(q, u.reshape(n, 4, 4, 2)[:, :, :cols].transpose(2, 3, 1, 0))
    d = np.subtract(q[1:, 1], q[0, 1], out=q[1:, 1])
    w = u[:4 * (cols - 1) * n].reshape(cols - 1, 4, n)  # every uniform is in q by now
    d -= np.rint(d, out=w)
    if cols == 4:
        np.copyto(u[(SCRATCH_WORDS - 4) * n:].reshape(4, n), q[0, 1])
    q[0, 1] = 0.0
    _half_turn(_radius(q[:, 0])[1:], d, w)
    return q.transpose(3, 2, 0, 1)


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
    :func:`_orthonormalize_gauged` with the first 23 n words of ``scratch``
    (SCRATCH_WORDS n words, by default fresh), which rounds each matrix as it would
    alone, at any n.  Returns ``gin``.
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


def _buffer(out, shape, dtype, name):
    """``out`` if it is a C-contiguous array of that shape and dtype, a fresh one if it is None."""
    if out is None:
        return np.empty(shape, dtype=dtype)
    if out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ValidationError(f"{name} must be a C-contiguous {np.dtype(dtype).name} array "
                              f"of shape {shape}")
    return out
