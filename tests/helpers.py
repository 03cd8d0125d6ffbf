"""Shared fixtures-in-plain-functions for the test suite."""

import decimal
import functools
import math

import numpy as np

from qmcool import (
    BathSpec,
    EngineConfig,
    HaarSampler,
    QubitSpec,
    ValidationError,
    canonical_basis,
    d_of_omega,
    haar_unitaries,
    haar_unitary,
    hologram_channel,
    rotate_basis,
    solve_hologram,
    thermalizing_channel,
)
from qmcool._accel import check_int, ginibre_batch, haar_from_ginibre
from qmcool.engine import TRACE_TOL, _haar_chunks, _pair_coefficients, _populations
from qmcool.measure import white_noise_mixture_weights
from qmcool.thermo import _omega, as_complex, thermal_populations
from qmcool.tomo import _EFFECT_DESIGN, _PAULIS, _PROBES, _PROCESS_DESIGN, _fidelities

EXPERIMENT_OMEGA2 = (0.02, 0.06, 0.14, 0.18, 0.46, 0.86, 1.10)

# canonical-basis closed form on the experimental grid, frozen from the
# analytic expression dE1 = omega1*delta, dE2 = -omega2*delta,
# delta = (tanh(beta1*omega1/2) - tanh(beta2*omega2/2))/4
EXPECTED_TRIPLES = {
    0.02: (0.04876027696775013, -0.0009560838621127477),
    0.06: (0.04366248614525086, -0.0025683815379559326),
    0.14: (0.0334892899404606, -0.0045965692075142),
    0.18: (0.028421956860624167, -0.0050156394459924996),
    0.46: (-0.006327037859911095, 0.0028533700152540233),
    0.86: (-0.05204674174466307, 0.04388254696118651),
    1.10: (-0.07632246188236, 0.08230853732411374),
}
EXPECTED_CLASSES = ("R", "R", "R", "R", "E", "E", "A")


def reference_config(omega2=0.18):
    return EngineConfig.from_values(1.02, omega2, 0.4, 1.0)


def joint_hamiltonian_diagonals(cfg):
    """Reference diagonals (h1, h2) of H1 x I and I x H2, in (|00>, |01>, |10>, |11>) order."""
    w1, w2 = cfg.qubit1.omega, cfg.qubit2.omega
    h1 = np.array([-0.5 * w1, -0.5 * w1, 0.5 * w1, 0.5 * w1])
    h2 = np.array([-0.5 * w2, 0.5 * w2, -0.5 * w2, 0.5 * w2])
    return h1, h2


def closed_form_triple(cfg):
    delta = (
        np.tanh(0.5 * cfg.bath1.beta * cfg.qubit1.omega)
        - np.tanh(0.5 * cfg.bath2.beta * cfg.qubit2.omega)
    ) / 4.0
    de1 = cfg.qubit1.omega * delta
    de2 = -cfg.qubit2.omega * delta
    return de1, de2, de1 + de2


def decimal_canonical_triple(cfg, digits=50):
    """Reference canonical-basis triple in ``digits``-digit decimal arithmetic.

    The canonical basis mixes only |01> and |10>, so with the excited populations
    q_i = e^(-beta_i*omega_i) / (1 + e^(-beta_i*omega_i)) the cycle moves
    dE1 = -(omega1/2)(q1 - q2) and dE2 = (omega2/2)(q1 - q2).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits

        def excited(qubit, bath):
            z = (-decimal.Decimal(bath.beta) * decimal.Decimal(qubit.omega)).exp()
            return z / (1 + z)

        gap = excited(cfg.qubit1, cfg.bath1) - excited(cfg.qubit2, cfg.bath2)
        de1 = -decimal.Decimal(cfg.qubit1.omega) / 2 * gap
        de2 = decimal.Decimal(cfg.qubit2.omega) / 2 * gap
        return float(de1), float(de2), float(de1 + de2)


def decimal_canonical_noise(cfg, nu_values=(), digits=50):
    """Reference interference rows and nu_c on the canonical basis, in ``digits``-digit
    decimal arithmetic.

    The populations come from q_i = e^(-x_i) / (1 + e^(-x_i)); the canonical basis's
    population map M and distinguishable-photon map Q are exact rationals,
    M = diag(1, 1/2, 1/2, 1) + 1/2 at (|01>, |10>) and Q = diag(2, 5/2, 5/2, 2) + 1/2
    there.  A row is dE_i = h_i^T (N p / 1^T N p - p) with N = nu*M + (1-nu)*Q, and
    nu_c is the root of dE2's numerator, which is affine in nu.  Returns (rows, nu_c):
    (dE1, dE2, dE) per nu as floats, and nu_c as a float, or None where it lies
    outside [0, 1] or dE2 is the same at every nu.
    """
    dec = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = digits

        def populations(qubit, bath):
            z = (-dec(bath.beta) * dec(qubit.omega)).exp()
            return 1 - z / (1 + z), z / (1 + z)

        (g1, q1), (g2, q2) = populations(cfg.qubit1, cfg.bath1), populations(cfg.qubit2, cfg.bath2)
        p = (g1 * g2, g1 * q2, q1 * g2, q1 * q2)
        w1, w2 = dec(cfg.qubit1.omega) / 2, dec(cfg.qubit2.omega) / 2
        hs = ((-w1, -w1, w1, w1), (-w2, w2, -w2, w2))
        half = dec(1) / 2

        def numerators(diag):
            # the energies h_i^T N p - e_i 1^T N p and the weight 1^T N p of one map
            out = [x * y for x, y in zip(diag, p)]
            out[1], out[2] = out[1] + half * p[2], out[2] + half * p[1]
            total = sum(out)
            return [sum(x * h for x, h in zip(out, hi)) - total * sum(x * h for x, h in zip(p, hi))
                    for hi in hs], total

        (num_m, tr_m), (num_q, tr_q) = numerators((1, half, half, 1)), numerators((2, 5 * half,
                                                                                  5 * half, 2))
        rows = []
        for nu in map(dec, nu_values):
            den = nu * tr_m + (1 - nu) * tr_q
            de1, de2 = ((nu * a + (1 - nu) * b) / den for a, b in zip(num_m, num_q))
            rows.append((float(de1), float(de2), float(de1 + de2)))
        if num_q[1] == num_m[1]:
            return rows, None
        nu_c = num_q[1] / (num_q[1] - num_m[1])
        return rows, float(nu_c) if 0 <= nu_c <= 1 else None


def decimal_canonical_nu_c(cfg, digits=50):
    """nu_c on the canonical basis from its closed form, in ``digits``-digit decimal
    arithmetic with the widest exponent range, so that it also runs where the excited
    populations lie below the double range.

    With the maps of :func:`decimal_canonical_noise`, dE2's numerator is
    (omega2/2)(nu (q1 - q2) + (1-nu) t2 S), t_i = 1 - 2q_i and S = g1 q2 + q1 g2 the
    population that the distinguishable photons move, so nu_c = t2 S / (t2 S + q2 - q1).
    Near infinite temperature t2 and q2 - q1 need |log10 x_i| + 30 digits, as in
    :func:`decimal_canonical_triple`; unlike :func:`decimal_canonical_noise` nothing of
    order q_i is taken from numbers of order 1, so low temperatures need no more.  None
    where the denominator vanishes or the root lies outside [0, 1].
    """
    dec = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = digits, decimal.MIN_EMIN, decimal.MAX_EMAX

        def populations(qubit, bath):
            z = (-dec(bath.beta) * dec(qubit.omega)).exp()
            return 1 / (1 + z), z / (1 + z), (1 - z) / (1 + z)

        (g1, q1, _), (g2, q2, t2) = (populations(cfg.qubit1, cfg.bath1),
                                     populations(cfg.qubit2, cfg.bath2))
        k2 = t2 * (g1 * q2 + q1 * g2)
        if k2 + q2 - q1 == 0:
            return None
        nu_c = k2 / (k2 + q2 - q1)
        return float(nu_c) if 0 <= nu_c <= 1 else None


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace()


def random_unit_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_engine_config(rng):
    beta1 = rng.uniform(0.1, 1.0)
    beta2 = beta1 + rng.uniform(0.1, 2.0)
    omega1 = rng.uniform(0.02, 1.28)
    omega2 = rng.uniform(0.02, 1.28)
    return EngineConfig.from_values(omega1, omega2, beta1, beta2)


def random_rotated_basis(seed, counter=0):
    return rotate_basis(haar_unitary(HaarSampler(seed, counter)), canonical_basis())


def bisect_critical_visibility(cfg, tol=1e-10):
    """Reference nu_c: bisection on the sign of dE2 under the interference model,
    measured in the canonical basis.

    Returns None when dE2 does not change sign on [0, 1].
    """
    basis = canonical_basis()

    def de2(nu):
        return energy_changes(cfg, hom_noisy_channel(basis, nu, initial_state(cfg)))[1]

    lo, hi = 0.0, 1.0
    f_lo, f_hi = de2(lo), de2(hi)
    if f_lo == 0.0:
        return 0.0
    if f_hi == 0.0:
        return 1.0
    if np.sign(f_lo) == np.sign(f_hi):
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if np.sign(de2(mid)) == np.sign(f_lo):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def qr_gauge_haar(gin):
    """Reference Haar unitaries of stream version 2: QR of each Ginibre matrix, each
    column rotated so that its R-diagonal entry is real positive (Mezzadri,
    math-ph/0609050)."""
    q, r = np.linalg.qr(gin)
    d = np.einsum("...ii->...i", r)
    return q * (d / np.abs(d))[..., None, :]


def canonical_column_sums(us):
    """P = |U C|^2 of a stack of unitaries, C the canonical basis vectors as columns,
    as the Haar path forms it from columns 0-2 of each (the engine draws only those):
    |u0|^2, |u1 + u2|^2/2 and |u1 - u2|^2/2, each |z|^2 as re^2 + im^2 (np.abs(z)**2
    goes through hypot and rounds differently), and the last column as
    max(0, 1 - P[r, 0] - P[r, 1] - P[r, 2]), subtracted in that order."""
    big_p = np.empty(us.shape[:2] + (4,))
    for k, col in enumerate((us[..., 0], us[..., 1] + us[..., 2], us[..., 1] - us[..., 2])):
        big_p[..., k] = col.real**2 + col.imag**2
    big_p[..., 1:3] /= 2
    big_p[..., 3] = np.maximum(1.0 - big_p[..., 0] - big_p[..., 1] - big_p[..., 2], 0.0)
    return big_p


def same_bits(a, b):
    """Whether two arrays have the same shape, dtype and bytes: array_equal with signed
    zeros told apart (and NaNs equal when their bits are)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def complex_matrices(pairs):
    """The complex (n, 4, k) matrices of the (n, 4, k, 2) real and imaginary parts that
    ``ginibre_batch`` and ``haar_from_ginibre`` return, bit for bit."""
    return np.ascontiguousarray(pairs).view(np.complex128)[..., 0]


def pair_entries(big_p):
    """Reference (6, n) pairwise entries sum_k P_rk P_sk of P P^T, r < s in the order
    01, 02, 03, 12, 13, 23, of an (n, 4, 4) stack of P, the four products added in k order."""
    return np.array([sum((big_p[:, r, k] * big_p[:, s, k] for k in range(1, 4)),
                         big_p[:, r, 0] * big_p[:, s, 0])
                     for r, s in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))])


def pair_kernel_rows(cfg, entries):
    """Reference (n, 3) triples of one config on (6, n) pairwise entries: the engine's
    coefficients C, each energy the sum of C_e m_e in entry order, and dE = dE1 + dE2."""
    coef = np.array(_pair_coefficients(cfg))
    out = np.empty((entries.shape[1], 3))
    for i in range(2):
        out[:, i] = sum((coef[i, e] * entries[e] for e in range(1, 6)), coef[i, 0] * entries[0])
    out[:, 2] = out[:, 0] + out[:, 1]
    return out


def per_row_haar_triples(cfg, n, seed):
    """Reference (n, 3) Haar triples of one config: the pairwise kernel row by row.

    Draws its own Ginibre batch for the one config, as the engine does (three columns,
    gauged by row); P P^T enters through its six pairwise entries only, as in the
    engine's kernel.
    """
    us = complex_matrices(haar_from_ginibre(ginibre_batch(seed, 0, n)))
    return pair_kernel_rows(cfg, pair_entries(canonical_column_sums(us)))


def whole_draw_haar_triples(cfgs, n_samples, seed):
    """Reference (len(cfgs), n, 3) Haar triples: one draw holding every sample at
    once, through the pairwise kernel; the chunked path must match it bit for bit.
    The draw is :func:`gauged_unitaries`, whose columns 0-2 are the engine's."""
    us = gauged_unitaries(seed, check_int(n_samples, "n_samples", 1))
    entries = pair_entries(canonical_column_sums(us))
    return np.array([pair_kernel_rows(cfg, entries) for cfg in cfgs]).reshape(-1, len(us), 3)


def general_population_triples(cfg, maps):
    """Reference (m, 3) triples of one config for an (m, 4, 4) stack of population
    maps A: the general form p^T (A - I) h_i, with no assumption on A's row or column
    sums or its symmetry."""
    x = np.einsum("r,mrs->ms", _populations(cfg), maps - np.eye(4))
    out = np.empty((len(maps), 3))
    out[:, :2] = x @ np.array(joint_hamiltonian_diagonals(cfg)).T
    out[:, 2] = out[:, 0] + out[:, 1]
    return out


def whole_draw_haar_moments(cfg, triples):
    """Reference (means, stderrs) of one config's (n, 3) triples: the one-draw
    reduction, np.mean and np.std(ddof=1) along the samples of each energy's
    contiguous plane, in power-of-two units of the larger gap."""
    k = math.frexp(max(cfg.qubit1.omega, cfg.qubit2.omega))[1]
    scaled = np.ldexp(np.ascontiguousarray(triples.T), -k)
    n = len(triples)
    errs = np.ldexp(scaled.std(axis=1, ddof=1) / math.sqrt(n), k) if n > 1 else np.full(3, np.nan)
    return np.ldexp(scaled.mean(axis=1), k), errs


def chunked_haar_triples(cfgs, n_samples, seed):
    """The chunks of the Haar path, concatenated into one (len(cfgs), n, 3) array."""
    planes = np.concatenate([t for _, t in _haar_chunks(cfgs, n_samples, seed)], axis=2)
    return np.ascontiguousarray(planes.transpose(0, 2, 1))


def box_muller_sample(seed, i):
    """Reference Ginibre sample i of the four-column draw: Box-Muller on uniforms
    [32i, 32i + 32) of the seed's Haar stream (:func:`fresh_stream`, word 2**63 - 1),
    (u, u') per entry, row-major."""
    u = fresh_stream(seed, 2**63 - 1, 32 * i).random(32)
    r = np.sqrt(-np.log1p(-u[0::2]))
    theta = 2 * np.pi * u[1::2]
    z = np.empty(16, dtype=np.complex128)
    z.real, z.imag = r * np.cos(theta), r * np.sin(theta)
    return z.reshape(4, 4)


def gauged_ginibre(seed, start, n):
    """Reference Ginibre matrices of every draw from stream version 9 (of the engine's
    since version 7), complex (n, 4, 4), samples [start, start + n): Box-Muller on the
    uniforms of :func:`box_muller_sample`, row r turned by minus the angle of entry (r, 0).
    Entry (r, j) has radius r = sqrt(-log(1 - u)) and angle 2 pi d, d = u'_rj - u'_r0
    less rint(d), both exact, taken by the half angle: with t = tan(pi d) and
    w = r / (t^2/2 + 1/2), the entry is (w - r) + i t w.  Column 0 gets d = +0, so
    w = 2r exactly, and holds its radii with a +0 imaginary part, as the engine writes
    them.  All four columns are gauged; the engine draws columns 0-2."""
    r, d = _gauged_polar(seed, start, n)
    t = np.tan(d * np.pi)
    w = r / (np.square(t) * 0.5 + 0.5)
    z = np.empty((n, 4, 4), dtype=np.complex128)
    z.real, z.imag = w - r, t * w
    return z


def gauged_ginibre_trig(seed, start, n):
    """:func:`gauged_ginibre` as stream version 6 drew it: the same radii and angles,
    turned by r cos(2 pi d) + i r sin(2 pi d)."""
    r, d = _gauged_polar(seed, start, n)
    theta = 2 * np.pi * d
    z = np.empty((n, 4, 4), dtype=np.complex128)
    z.real, z.imag = r * np.cos(theta), r * np.sin(theta)
    return z


def _gauged_polar(seed, start, n):
    """Radii and reduced angle differences d in [-1/2, 1/2] of the gauged draw, (n, 4, 4)."""
    u = fresh_stream(seed, 2**63 - 1, 32 * start).random(32 * n).reshape(n, 4, 4, 2)
    d = u[..., 1] - u[..., :1, 1]
    return np.sqrt(-np.log1p(-u[..., 0])), d - np.rint(d)


def planes_of(z):
    """The C-contiguous planes (cols, 2, 4, n) of complex (n, 4, cols) matrices, laid out
    as ``ginibre_batch`` writes them: ``.transpose(3, 2, 0, 1)`` is what it returns."""
    return np.ascontiguousarray(np.stack([z.real, z.imag]).transpose(3, 0, 2, 1))


def gauged_unitaries(seed, n):
    """All four columns of the gauged unitaries DU, complex (n, 4, 4): the package's
    Gram-Schmidt on :func:`gauged_ginibre`'s four columns.  Column j reads only columns
    0..j, so columns 0-2 are the engine's three-column draw bit for bit."""
    return complex_matrices(haar_from_ginibre(planes_of(gauged_ginibre(seed, 0, n))
                                              .transpose(3, 2, 0, 1)))


def general_gram_schmidt(cols):
    """Reference two-pass classical Gram-Schmidt on one matrix in the general complex
    form, as Python floats: ``cols[j][c][r]`` is part c (real, imaginary) of entry
    (r, j), and column j is returned in ``cols[j]``.  Every column, column 0 included,
    takes all four products of each entry; every sum over the rows starts from +0, as
    numpy's reduction over rows does.  The package's Gram-Schmidt skips the products
    with a gauged column 0's zero imaginary part."""
    for j in range(len(cols)):
        (x0, x1, x2, x3), (y0, y1, y2, y3) = cols[j]
        for _ in range(2 if j else 0):
            coefs = [((((0.0 + (a0 * x0 + b0 * y0)) + (a1 * x1 + b1 * y1))
                       + (a2 * x2 + b2 * y2)) + (a3 * x3 + b3 * y3),
                      (((0.0 + (a0 * y0 - b0 * x0)) + (a1 * y1 - b1 * x1))
                       + (a2 * y2 - b2 * x2)) + (a3 * y3 - b3 * x3))
                     for (a0, a1, a2, a3), (b0, b1, b2, b3) in cols[:j]]
            for (c, d), ((a0, a1, a2, a3), (b0, b1, b2, b3)) in zip(coefs, cols):
                x0, x1, x2, x3 = (x0 - (c * a0 - d * b0), x1 - (c * a1 - d * b1),
                                  x2 - (c * a2 - d * b2), x3 - (c * a3 - d * b3))
                y0, y1, y2, y3 = (y0 - (c * b0 + d * a0), y1 - (c * b1 + d * a1),
                                  y2 - (c * b2 + d * a2), y3 - (c * b3 + d * a3))
        norm = math.sqrt((((0.0 + (x0 * x0 + y0 * y0)) + (x1 * x1 + y1 * y1))
                          + (x2 * x2 + y2 * y2)) + (x3 * x3 + y3 * y3))
        cols[j] = ((x0 / norm, x1 / norm, x2 / norm, x3 / norm),
                   (y0 / norm, y1 / norm, y2 / norm, y3 / norm))
    return cols


def scalar_gram_schmidt(columns):
    """Reference two-pass classical Gram-Schmidt on one gauged matrix, as Python floats,
    with the operations of the package's planar ``_orthonormalize_gauged`` in its order:
    ``columns[j][c][r]`` is part c (real, imaginary) of entry (r, j); column 0's
    imaginary part is zero and not read.  Per row, v = x + iy, q_k = a + ib for k = 0
    and e + ib after it, and c_k = c + id, all from the same v; every sum over the rows
    starts from +0.  CPython fuses no multiply-add, so a planar matrix has these bits."""
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


def gibbs_state(qubit, bath):
    """Reference thermal state diag(1 - q, q) of one qubit."""
    return np.diag(thermal_populations(qubit, bath)).astype(np.complex128)


def kron_initial_state(cfg):
    """Reference initial state: the Kronecker product of the two Gibbs states."""
    return np.kron(gibbs_state(cfg.qubit1, cfg.bath1), gibbs_state(cfg.qubit2, cfg.bath2))


# The density-matrix layer that the package's population maps replace, as oracles.
# A state is Hermitian and of unit trace to 1e-12, with eigenvalues >= PSD_FLOOR.
HERM_TOL = 1e-12
PSD_FLOOR = -1e-10


def validate_density(rho, dim=None, name="state"):
    """Reference validation of a density operator, returned as a complex ndarray."""
    arr = as_complex(rho)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or dim not in (None, arr.shape[0]):
        raise ValidationError(f"{name} must be a square {dim or 'n'}-dimensional matrix, "
                              f"got shape {arr.shape}")
    herm_err = np.max(np.abs(arr - arr.conj().T))
    if herm_err > HERM_TOL:
        raise ValidationError(f"{name} is not Hermitian (max deviation {herm_err:.3e})")
    trace_err = abs(arr.trace() - 1.0)
    if trace_err > TRACE_TOL:
        raise ValidationError(f"{name} trace deviates from 1 by {trace_err:.3e}")
    min_eig = np.linalg.eigvalsh(arr).min()
    if min_eig < PSD_FLOOR:
        raise ValidationError(f"{name} has negative eigenvalue {min_eig:.3e}")
    return arr


single_qubit_state = functools.partial(validate_density, dim=2, name="single-qubit state")
two_qubit_state = functools.partial(validate_density, dim=4, name="two-qubit state")


def state_fidelity(a, b):
    """The package's Uhlmann fidelity of one pair of states, as the one-element case of its stacks."""
    return _fidelities(np.asarray(a)[None], np.asarray(b)[None], "states")[0]


def trace_distance(a, b):
    """Reference trace distance (1/2)*||a - b||_1 between two Hermitian operators."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(as_complex(a) - as_complex(b)))))


def initial_state(cfg):
    """Reference state before the measurement stroke: diag(p) of the engine's populations."""
    return np.diag(_populations(cfg)).astype(np.complex128)


def energy_changes(cfg, post_state):
    """Reference (dE1, dE2, dE) from diag(p) to a validated ``post_state``."""
    return _energy_triple(cfg, np.diagonal(two_qubit_state(post_state)).real - _populations(cfg))


def measurement_channel(basis, rho):
    """Reference non-selective projective measurement of a validated ``rho`` in ``basis``."""
    v = basis.vectors
    w = np.einsum("kr,rt,kt->k", v.conj(), two_qubit_state(rho), v).real
    return np.einsum("k,kr,kt->rt", w, v, v.conj())


def apply_povm(povm, rho):
    """Reference non-selective generalized measurement sum_k M_k rho M_k^dag."""
    m = povm.operators
    return np.einsum("kij,jl,kml->im", m, two_qubit_state(rho), m.conj())


def _distinguishable(basis, rho):
    """Reference D = sum_k A_k rho A_k + (A_k-V_k) rho (A_k-V_k), V_k = |v_k><v_k| and
    A_k = Tr_2(V_k) x I: the distinguishable-photon trains in closed form."""
    arr = as_complex(rho)
    out = np.zeros((4, 4), dtype=np.complex128)
    for v in basis.vectors:
        c = v.reshape(2, 2)
        a = np.kron(c @ c.conj().T, np.eye(2))
        r = a - np.outer(v, v.conj())
        out += a @ arr @ a + r @ arr @ r
    return out


def _distinguishable_map(basis):
    """Reference Q with d = Q p the diagonal of :func:`_distinguishable` at rho = diag(p),
    V_k = |v_k><v_k| and A_k = Tr_2(V_k) x I = (C_k C_k^dag) x I, C_k the 2x2 reshape of
    v_k: Q_rs = sum_k |A_k,rs|^2 + |(A_k - V_k)_rs|^2 >= 0.

    The interference model detects nu*G + (1-nu)*D, G the ideal measurement: the
    singlet projection (I - SWAP)/2 makes the transmit and reflect trains of
    projector k 2*eta_k*A_k and 2*eta_k*(A_k - V_k), and the weights (1-nu)/4 and
    1/eta_k^2 cancel.  On the canonical basis Q is diag(2, 5/2, 5/2, 2) plus 1/2 at
    (|01>, |10>), the map of the engine's closed-form interference rows.
    """
    v = basis.vectors
    c = v.reshape(4, 2, 2)
    a = np.einsum("kij,klj,mn->kimln", c, c.conj(), np.eye(2)).reshape(4, 4, 4)
    r = a - v[:, :, None] * v.conj()[:, None, :]
    return (a * a.conj() + r * r.conj()).real.sum(axis=0)


def hom_noisy_channel(basis, visibility, rho):
    """Reference interference-noise measurement: the optical trains' detected output,
    renormalized by its total detected weight."""
    out = trains_hom_detected(basis, visibility, rho)
    return out / out.trace().real


def apply_channel(channel, rho):
    """Reference Kraus-sum evaluation sum_k K rho K† of a channel on a state, with the
    former package check that the trace is preserved to 1e-10."""
    arr = as_complex(rho)
    if arr.shape != (channel.dim, channel.dim):
        raise ValidationError(
            f"state dimension {arr.shape} does not match channel dimension {channel.dim}"
        )
    out = np.zeros_like(arr)
    for k in channel.operators:
        out += k @ arr @ k.conj().T
    drift = abs(out.trace() - arr.trace())
    if drift > 1e-10:
        raise ValidationError(f"channel failed to preserve trace (drift {drift:.3e})")
    return out


def thermal_channel_optical(rho, qubit, bath):
    """Reference thermalizing step of the hologram solved for ``bath``, on the qubit's rails."""
    channel = hologram_channel(solve_hologram(bath), d_of_omega(_omega(qubit)))
    return apply_channel(channel, single_qubit_state(rho))


def partial_trace(rho, keep):
    """Reference reduced state of qubit ``keep`` (1: the slow, left factor; 2: the
    fast, right one) of a validated two-qubit density operator."""
    r = two_qubit_state(rho).reshape(2, 2, 2, 2)
    if keep == 1:
        return np.einsum("abcb->ac", r)
    if keep == 2:
        return np.einsum("abac->bc", r)
    raise ValidationError(f"keep must be 1 or 2, got {keep!r}")


def energy(rho, qubit):
    """Reference mean energy Tr(rho H) of a validated single-qubit state,
    H = diag(-omega/2, +omega/2)."""
    arr = single_qubit_state(rho)
    return float(0.5 * qubit.omega * (arr[1, 1].real - arr[0, 0].real))


def von_neumann_entropy(rho):
    """Reference von Neumann entropy -Tr(rho log rho) in nats of a validated state."""
    w = np.linalg.eigvalsh(validate_density(rho))
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log(w)))


def partial_trace_energy_changes(cfg, post_state):
    """Reference (dE1, dE2, dE): energies of the two reduced states."""
    rho = initial_state(cfg)
    post = two_qubit_state(post_state)
    de1 = energy(partial_trace(post, 1), cfg.qubit1) - energy(partial_trace(rho, 1), cfg.qubit1)
    de2 = energy(partial_trace(post, 2), cfg.qubit2) - energy(partial_trace(rho, 2), cfg.qubit2)
    return de1, de2, de1 + de2


# two-photon interference point: singlet projection for indistinguishable
# photons; both transmitted (I) or both reflected (SWAP) for distinguishable ones
SINGLET = np.array([[0, 0, 0, 0], [0, 0.5, -0.5, 0], [0, -0.5, 0.5, 0], [0, 0, 0, 0]])
SWAP = np.eye(4)[[0, 2, 1, 3]]


def optical_trains(vec):
    """(ideal, transmit, reflect, eta): the coincidence trains measuring vec.

    vec = (u1 x u2)(a|HV> - b|VH>) from any Schmidt decomposition; local
    unitaries and bias filters diag(a/b, 1) surround the interference point.
    Every train is invariant under the decomposition's gauge freedom.
    """
    u, s, vh = np.linalg.svd(np.reshape(vec, (2, 2)))
    ratio = s[1] / s[0]
    u1 = np.column_stack([u[:, 1], -u[:, 0]])
    dia = np.diag([ratio, 1.0])
    pre = np.kron(dia @ u1.conj().T, vh.conj())
    post = np.kron(u1 @ dia, vh.T)
    return post @ SINGLET @ pre, post @ pre, post @ SWAP @ pre, 0.5 * (ratio**2 + 1.0)


def trains_hom_detected(basis, visibility, rho):
    """Reference detected output of the interference model, built from the
    three optical trains of every projector (weights nu, (1-nu)/4, (1-nu)/4,
    each branch over eta_k^2); at nu = 1 it is the ideal optical measurement."""
    arr = two_qubit_state(rho)
    out = np.zeros((4, 4), dtype=np.complex128)
    for vec in basis.vectors:
        g, t, r, eta = optical_trains(vec)
        branch = visibility * (g @ arr @ g.conj().T)
        branch += 0.25 * (1.0 - visibility) * (t @ arr @ t.conj().T)
        branch += 0.25 * (1.0 - visibility) * (r @ arr @ r.conj().T)
        out += branch / eta**2
    return out


PAULI_1 = [
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
]


def looped_paulis(dim):
    """Reference Pauli product basis of dimension 2 or 4 as a list, qubit 1 slow."""
    return list(PAULI_1) if dim == 2 else [np.kron(a, b) for a in PAULI_1 for b in PAULI_1]


def apply_chi(chi, rho):
    """Reference evaluation of the channel sum_mn chi_mn P_m rho P_n on a state."""
    paulis = looped_paulis(len(rho))
    return sum(chi[m, n] * (pm @ rho @ pn)
               for m, pm in enumerate(paulis) for n, pn in enumerate(paulis))


def looped_process_design(probes):
    """Reference process design matrix: one block per probe, one column per
    Pauli pair (m, n) holding the flattened P_m @ probe @ P_n."""
    dim = probes[0].shape[0]
    paulis = looped_paulis(dim)
    npa = len(paulis)
    rows = []
    for probe in probes:
        block = np.empty((dim * dim, npa * npa), dtype=np.complex128)
        for m, pm in enumerate(paulis):
            left = pm @ probe
            for q, pn in enumerate(paulis):
                block[:, m * npa + q] = (left @ pn).reshape(-1)
        rows.append(block)
    return np.vstack(rows)


def fresh_stream(seed, word, skip=0):
    """A Generator on a freshly built PCG64DXSM, seeded by SeedSequence(seed,
    spawn_key=(word,)) and advanced ``skip`` 64-bit words: the oracle of
    :func:`qmcool._accel.stream`, which restores one generator per key or continues it."""
    bits = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(word,)))
    return np.random.Generator(bits.advance(skip))


def looped_estimate_state(sigma, shots, rng):
    """Reference shot-mode state estimate: one binomial per non-identity Pauli,
    in Pauli order, with p_plus = Tr(sigma (I + G))/2."""
    d = sigma.shape[0]
    paulis = looped_paulis(d)
    est = np.eye(d, dtype=np.complex128) / d
    for g in paulis[1:]:
        p_plus = float(np.real(np.trace(sigma @ (np.eye(d) + g))) / 2.0)
        p_plus = min(max(p_plus, 0.0), 1.0)
        k = rng.binomial(shots, p_plus)
        mean = (2.0 * k - shots) / shots
        est += (mean / d) * g
    return est


def scalar_white_noise_weights(nu):
    """Reference (c1, c2) of one noise weight: the former scalar body, as Python floats."""
    c1 = (0.5 * (np.sqrt(1.0 + 3.0 * nu) - np.sqrt(1.0 - nu))) ** 2
    c2 = 0.5 * (np.sqrt((1.0 + 3.0 * nu) * (1.0 - nu)) + (1.0 - nu))
    return float(c1), float(c2)


def _energy_triple(cfg, shift):
    """(dE1, dE2, dE) of a population shift diag(post) - p, one dot product per qubit."""
    h1, h2 = joint_hamiltonian_diagonals(cfg)
    de1, de2 = float(shift @ h1), float(shift @ h2)
    return de1, de2, de1 + de2


def looped_noise_rows(cfg, nu_values):
    """Reference ``noise_sweep`` of one config: the former per-nu loop on the density
    matrices rho, G and D of the canonical basis, two energy triples per row; returns
    (rows, nu_c)."""
    if any(not 0.0 <= nu <= 1.0 for nu in nu_values):
        raise ValidationError(f"noise weights must lie in [0, 1], got {nu_values!r}")
    basis = canonical_basis()
    p, rho = _populations(cfg), initial_state(cfg)
    big_g = two_qubit_state(measurement_channel(basis, rho))
    big_d = _distinguishable(basis, rho)
    g, d = np.diagonal(big_g).real, np.diagonal(big_d).real
    tr_g, tr_d = g.sum(), d.sum()
    if tr_d <= 1e-15:
        raise ValidationError("zero total detection probability")
    two_qubit_state(big_d / tr_d)
    rows = []
    for nu in nu_values:
        c1, _ = white_noise_mixture_weights(nu)
        detected = nu * g + (1.0 - nu) * d
        rows.append((nu, _energy_triple(cfg, c1 * (g - p)),
                     _energy_triple(cfg, detected / detected.sum() - p)))
    _, h2 = joint_hamiltonian_diagonals(cfg)
    e, e2_g, e2_d = float(p @ h2), float(g @ h2), float(d @ h2)
    den = e2_g - e2_d - e * (tr_g - tr_d)
    if den == 0.0:
        return rows, None
    nu_c = float((e * tr_d - e2_d) / den)
    return rows, (nu_c if 0.0 <= nu_c <= 1.0 else None)


def fmt_cell(value):
    """Reference CSV cell: the former ``cli._fmt`` body, with its isnan branch."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) and np.isnan(value):
        return "nan"
    return format(float(value), ".12g")


def looped_chi_from_kraus(channel):
    """Reference analytic chi matrix of one Kraus channel: the former one-channel body."""
    d = channel.dim
    coeff = np.einsum("mij,kji->km", looped_paulis(d), np.stack(channel.operators)) / d
    return coeff.T @ coeff.conj()


def looped_process_tomography(channel, shots=None, seed=None):
    """Reference chi of one single-qubit channel: the former one-channel body, a Kraus
    sum per probe, a freshly built stream per probe and a one-column solve (no checks)."""
    outputs = [apply_channel(channel, probe) for probe in _PROBES[2]]
    if shots is not None:
        outputs = [looped_estimate_state(s, shots, fresh_stream(seed, j))
                   for j, s in enumerate(outputs)]
    b = np.stack(outputs).reshape(-1)
    chi = np.linalg.lstsq(_PROCESS_DESIGN, b, rcond=None)[0].reshape(4, 4)
    chi = 0.5 * (chi + chi.conj().T)
    if shots is None:
        return chi
    w, v = np.linalg.eigh(chi)
    chi = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return chi / chi.trace().real


def looped_measurement_tomography(effects, shots=None, seed=None):
    """Reference effect estimates of one measurement from its (4, 4, 4) effects: the
    former one-measurement body, a freshly built stream per probe (no checks)."""
    freqs = np.clip(np.real(np.einsum("kil,jli->jk", effects, _PROBES[4])), 0.0, None)
    if shots is not None:
        freqs = np.stack([fresh_stream(seed, j).multinomial(shots, p / p.sum())
                          for j, p in enumerate(freqs)]) / shots
    coeffs = np.linalg.lstsq(_EFFECT_DESIGN, freqs, rcond=None)[0]
    recon = np.einsum("mk,mij->kij", coeffs, _PAULIS[4])
    recon = 0.5 * (recon + recon.conj().transpose(0, 2, 1))
    if shots is None:
        return recon
    w, v = np.linalg.eigh(recon)
    return (v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().transpose(0, 2, 1)


def looped_fidelity(a, b):
    """Reference Uhlmann fidelity of two operators, each made Hermitian and divided by
    its trace, capped at 1; 0 if either is zero.  The former one-pair body."""
    if not (np.any(a) and np.any(b)):
        return 0.0
    a, b = (0.5 * (m + m.conj().T) for m in (a, b))
    a, b = a / a.trace().real, b / b.trace().real
    w, v = np.linalg.eigh(a)
    sa = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    w = np.linalg.eigvalsh(sa @ b @ sa)
    return min(float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2), 1.0)


def looped_tomography_rows(cfg):
    """Reference rows of the ``tomography`` command: its former per-target loop, one
    channel, basis and fidelity at a time, on the looped tomography above."""
    targets = [(cfg.omega1, cfg.beta1)] + [(w2, cfg.beta2) for w2 in cfg.omega2]
    labels = [f"thermal(omega={fmt_cell(w)} beta={fmt_cell(beta)})" for w, beta in targets]
    rows, exact_chis = [], []
    for label, (w, beta) in zip(labels, targets):
        channel = thermalizing_channel(QubitSpec(w), BathSpec(beta))
        analytic = looped_chi_from_kraus(channel)
        chi = looped_process_tomography(channel)
        exact_chis.append(chi)
        rows.append(("process_exact", label, "", "", "", "", "", "", looped_fidelity(chi, analytic)))
        if cfg.shots is not None:
            chi_s = looped_process_tomography(channel, cfg.shots, cfg.seed)
            rows.append(("process_shots", label, "", "", "", "", cfg.shots, cfg.seed,
                         looped_fidelity(chi_s, analytic)))

    def mean_fidelity(estimates, basis):
        return float(np.mean([looped_fidelity(e, basis.projector(k))
                              for k, e in enumerate(estimates)]))

    def projectors(basis):
        return np.stack([basis.projector(k) for k in range(4)])

    basis = canonical_basis()
    fid = mean_fidelity(looped_measurement_tomography(projectors(basis)), basis)
    rows.append(("measurement_exact", "canonical", "", "", "", "", "", "", fid))
    if cfg.shots is not None:
        haar = haar_unitaries(HaarSampler(cfg.seed), 5)
        bases = [("canonical", basis)] + [(f"haar_{i}", rotate_basis(u, basis))
                                          for i, u in enumerate(haar)]
        for label, bas in bases:
            est = looped_measurement_tomography(projectors(bas), cfg.shots, cfg.seed)
            rows.append(("measurement_shots", label, "", "", "", "", cfg.shots, cfg.seed,
                         mean_fidelity(est, bas)))
    chi = exact_chis[0]
    for r in range(4):
        for c in range(4):
            rows.append(("chi_entry", labels[0], r, c, chi[r, c].real, chi[r, c].imag, "", "", ""))
    return rows
