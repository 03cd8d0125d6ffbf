"""The two-stroke cycle: energy accounting, operation taxonomy, regime map,
and Monte Carlo estimates over Haar-random measurement bases.

One cycle starts from the product of the two Gibbs states, applies a
non-selective measurement (stroke 1), and rethermalizes each qubit against
its own bath (stroke 2).  Because the thermalizing channel's fixed point is
exact, stroke 2 restores the initial state identically and all bookkeeping
reduces to the energy changes of stroke 1:

    dE_i = Tr((rho' - rho) H_i),   dE = dE1 + dE2,

with the second law demanding beta1*dE1 + beta2*dE2 >= 0 for any unital
measurement channel.  The four sign patterns of (dE1, dE2, dE) are labeled
R (refrigeration), E (energy extraction), A (thermal acceleration), and
H (heater).
"""

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._accel import check_int
from .errors import SecondLawViolation, ValidationError
from .measure import (
    HaarSampler,
    MeasurementBasis,
    PovmSet,
    WORK_WORDS,
    haar_planes,
    white_noise_mixture_weights,
)
from .thermo import BathSpec, QubitSpec, thermal_populations

SLACK_FLOOR = -1e-10
TRACE_TOL = 1e-12  # how far a population map's row sums may stray from 1
# Haar samples per chunk of frequency_sweep and haar_average_report: their memory
# is set by one chunk, whatever n_samples is.  At 2**10 a chunk's temporaries are
# small enough that the heap keeps them from one chunk to the next.  The draw runs
# BLOCK chunks at a time (_haar_chunks), which shares its ~100 numpy calls per block
CHUNK = 2**10
BLOCK = 4
CLASS_LABELS = ("R", "E", "A", "H")
# the code of each test of _class_rules: -2 a failed sum check, else an index in CLASS_LABELS
_CLASS_CODES = (-2, 3, 0, 1, 2, 3)
# the six pairs r < s of the populations (|00>, |01>, |10>, |11>): the order of the
# pairwise entries of a population map and of the coefficients that weigh them
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class RegimeLabel(Enum):
    R_RANGE = "R-range"
    E_RANGE = "E-range"
    A_RANGE = "A-range"


@dataclass(frozen=True)
class EngineConfig:
    """Two qubits, two baths; bath 1 must be the hotter one (beta1 < beta2)."""

    qubit1: QubitSpec
    qubit2: QubitSpec
    bath1: BathSpec
    bath2: BathSpec

    def __post_init__(self):
        if not (self.bath1.beta < self.bath2.beta):
            raise ValidationError(
                f"bath 1 must be hotter than bath 2 (need beta1 < beta2, "
                f"got {self.bath1.beta} >= {self.bath2.beta})"
            )

    @classmethod
    def from_values(cls, omega1, omega2, beta1, beta2):
        return cls(QubitSpec(omega1), QubitSpec(omega2), BathSpec(beta1), BathSpec(beta2))


@dataclass(frozen=True)
class EngineReport:
    """Energy accounting of one cycle."""

    dE1: float
    dE2: float
    dE: float
    classification: str
    second_law_slack: float


class FrequencyEstimate(NamedTuple):
    frequency: float
    stderr: float


@dataclass(frozen=True)
class HaarAverageReport:
    """Sample means of (dE1, dE2, dE) over Haar-random bases, their standard
    errors, the analytic depolarizing-map prediction, and the classification
    of the mean triple."""

    mean_dE1: float
    mean_dE2: float
    mean_dE: float
    stderr_dE1: float
    stderr_dE2: float
    stderr_dE: float
    predicted_dE1: float
    predicted_dE2: float
    predicted_dE: float
    classification: str
    n_samples: int


def _populations(cfg):
    """The four Gibbs populations p of gibbs1 x gibbs2, in (|00>, |01>, |10>, |11>) order."""
    return np.outer(thermal_populations(cfg.qubit1, cfg.bath1),
                    thermal_populations(cfg.qubit2, cfg.bath2)).ravel()


def classify(de1, de2, de, eps=1e-12):
    """Operation label of one energy triple: the first of :func:`_class_rules` that
    holds.  A triple that fails the sum check or matches no class raises."""
    for code, holds in zip(_CLASS_CODES, _class_rules(de1, de2, de, eps)):
        if holds:
            break
    else:
        code = -1
    if code < 0:
        raise ValidationError(_class_error(code, de1, de2, de, eps))
    return CLASS_LABELS[code]


def _class_rules(de1, de2, de, eps):
    """The six tests of the taxonomy on (dE1, dE2, dE), in priority order, coded by
    _CLASS_CODES.

    First the sum check, which fails beyond eps and the rounding of one addition,
    2^-52*(|dE1| + |dE2|).  The all-zero triple (within eps) is H by convention — a
    non-invasive measurement heats nothing, and H is the only label that degenerates
    gracefully to a no-op.  Then the four sign patterns, as weak inequalities at
    tolerance eps in priority order R, E, A, H, which makes the taxonomy total and
    deterministic on boundary ties.  Only abs, comparisons and & are used, so the
    triple may be three floats or three same-shape arrays, and a test a bool or a mask.
    """
    a1, a2, gap = abs(de1), abs(de2), abs(de - de1 - de2)
    up1, down1, up2, down2 = de1 >= -eps, de1 <= eps, de2 >= -eps, de2 <= eps
    up, down = de >= -eps, de <= eps
    return [(gap > eps) & (gap > 2.0**-52 * (a1 + a2)),
            (a1 <= eps) & (a2 <= eps) & (abs(de) <= eps),
            up1 & down2 & up, down1 & up2 & down, down1 & up2 & up, up1 & up2 & up]


def _class_error(code, de1, de2, de, eps):
    """Why :func:`classify` rejects a triple: code -2 fails the sum check, -1 matches
    no class."""
    if code == -2:
        return f"inconsistent triple: |dE - dE1 - dE2| = {abs(de - de1 - de2):.3e} > {eps:.3e}"
    return (f"no operation class matches ({de1:.3e}, {de2:.3e}, {de:.3e}); "
            "such a triple violates the second law")


def regime(cfg):
    """Parameter-space regime of the gap ratio omega2/omega1.

    R-range for ratio <= beta1/beta2, E-range up to 1, A-range above.  The first
    boundary is the tanh-equality condition beta1*omega1 = beta2*omega2 (tanh is
    strictly monotone), decided by the sign of :func:`_exact_gap`, the same exact gap
    that decides whether :func:`critical_visibility` exists.  So the regime, the
    sign-flip of the canonical-basis energy transfer and the existence of nu_c agree
    identically, in floats as in exact arithmetic.
    """
    if _exact_gap(cfg)[0] >= 0:
        return RegimeLabel.R_RANGE
    if cfg.qubit2.omega <= cfg.qubit1.omega:
        return RegimeLabel.E_RANGE
    return RegimeLabel.A_RANGE


def run_cycle(cfg, measurement=None, eps=1e-12):
    """One full engine cycle; returns the :class:`EngineReport`.

    ``measurement`` is a :class:`~qmcool.measure.MeasurementBasis` or a
    :class:`~qmcool.measure.PovmSet`.  The rethermalization stroke is implicit — the
    thermalizing channel restores the Gibbs product exactly.

    By default it measures in the canonical basis: (dE1, dE2) is the closed form N_M
    of :func:`_canonical_terms`, else that of :func:`_measurement_triple`, and
    dE = dE1 + dE2.  No post state is built or validated: the basis checks its
    orthonormality and the POVM its completeness on construction, and the population
    map checks that it keeps the trace.
    """
    de1, de2 = (_canonical_terms(cfg) if measurement is None
                else _measurement_triple(cfg, measurement))[:2]
    de = de1 + de2
    slack = cfg.bath1.beta * de1 + cfg.bath2.beta * de2
    if slack < SLACK_FLOOR:
        raise SecondLawViolation(_second_law_breach(slack))
    return EngineReport(
        dE1=de1,
        dE2=de2,
        dE=de,
        classification=classify(de1, de2, de, eps),
        second_law_slack=slack,
    )


def _second_law_breach(slack):
    """Why a cycle with slack beta1*dE1 + beta2*dE2 below SLACK_FLOOR is rejected."""
    return f"beta1*dE1 + beta2*dE2 = {slack:.3e} below tolerance {SLACK_FLOOR:.1e}"


def _measurement_triple(cfg, measurement):
    """(dE1, dE2, dE) of one cycle measured by a basis or a POVM, as Python floats.

    Either kind of measurement moves only the populations of the diagonal Gibbs
    product, so its triple is the Haar path's kernel :func:`_pair_triples` on the six
    pairwise entries A_rs (r < s) of its population map A (:func:`_population_map`).
    A POVM's map keeps its row sums but need not be symmetric, and
    dE_i = sum_{r<s} (p_r A_rs - p_s A_sr)(h_i,s - h_i,r) exactly; the bracket is
    A_rs (p_r - p_s) + p_s (A_rs - A_sr), so for a POVM the kernel also takes the six
    asymmetries A_rs - A_sr, with the weights of :func:`_asymmetry_weights`.  They
    vanish for a basis.

    On one map the kernel runs on Python floats (:func:`_row_dot`), which gives the
    stack's bits at a fraction of its numpy calls; only A stays a numpy product.
    """
    big_a = _population_map(measurement).tolist()
    rows = _pair_coefficients(cfg)
    entries = [big_a[r][s] for r, s in _PAIRS]
    if isinstance(measurement, PovmSet):
        weights = _asymmetry_weights(cfg, measurement)
        for row, extra in zip(rows, _pair_matrix(cfg, weights)):
            row += extra
        entries += [a - big_a[s][r] for a, (r, s) in zip(entries, _PAIRS)]
    de1, de2 = _row_dot(rows[0], entries), _row_dot(rows[1], entries)
    return de1, de2, de1 + de2


def _asymmetry_weights(cfg, povm):
    """The weight of each asymmetry A_rs - A_sr of a POVM's map in the cycle energies,
    pair by pair in _PAIRS order: p_s, or p_s - p_00 if the POVM is unital.

    For any map with row sums rho and column sums kappa,
    sum_{r<s} (A_rs - A_sr)(h_s - h_r) = sum_s h_s (kappa_s - rho_s), so shifting every
    weight by p_00 moves the energies by p_00 times that sum, which is 0 for a unital
    POVM, whose columns sum to 1 as its rows do; in floats that term is rounding noise,
    so it is dropped.  A unital POVM's asymmetries may be rounding noise too (~1e-17;
    a white-noise POVM's are 0, its projectors being Hermitian bit for bit), and weights
    p_s ~ 1/4 let them outweigh the population gaps near infinite temperature, where
    they decided the class; p_s - p_00 is minus a gap of :func:`_pair_gaps`, and
    scales with the other weights."""
    if povm.unital:
        gaps = _pair_gaps(cfg)  # gaps[s - 1] = p_00 - p_s for s = 1, 2, 3
        return [-gaps[s - 1] for _, s in _PAIRS]
    p = _populations(cfg).tolist()
    return [p[s] for _, s in _PAIRS]


def _row_dot(row, entries):
    """sum_e row_e entries_e of two lists of Python floats, added left to right from
    0.0: the order in which :func:`_pair_triples`' einsum adds one map's products, so
    the sum has its bits (CPython fuses no multiply-add)."""
    acc = 0.0
    for c, m in zip(row, entries):
        acc += c * m
    return acc


def _population_map(measurement):
    """The 4x4 map A that takes the populations p of a diagonal state to those of the
    post state, p^T A: A[s, r] is the probability that |s> ends in |r>.

    A basis {v_k} (the rows of V) gives A = P P^T with the unistochastic
    P = |V^T|^2, P[r, k] = |<r|v_k>|^2.  A POVM {M_k} gives A[s, r] =
    sum_k |M_k[r, s]|^2, whose row sums are the diagonal of sum_k M_k^dag M_k; each
    must be 1 within TRACE_TOL, the trace tolerance of a density matrix, which is
    tighter than the POVM's own completeness check.
    """
    if isinstance(measurement, MeasurementBasis):
        big_p = np.square(np.abs(measurement.vectors.T))
        return big_p @ big_p.T
    if isinstance(measurement, PovmSet):
        ops = measurement.operators
        a = (ops * ops.conj()).real.sum(axis=0).T
        err = np.max(np.abs(a.sum(axis=1) - 1.0))
        if err > TRACE_TOL:
            raise ValidationError(f"POVM does not keep the trace (deviation {err:.3e})")
        return a
    raise ValidationError(f"measurement must be a basis or a POVM, got {type(measurement)!r}")


def _pair_matrix(cfg, weights):
    """The (2, 6) matrix W, two fresh lists, with (W x)_i = sum_{r<s} weights_rs (h_i,s -
    h_i,r) x_rs, one weight per pair of _PAIRS.  h1 steps by omega1 across the four pairs
    that flip qubit 1 and is flat across the other two; h2 likewise for qubit 2."""
    w01, w02, w03, w12, w13, w23 = weights
    w1, w2 = cfg.qubit1.omega, cfg.qubit2.omega
    return [[0.0, w1 * w02, w1 * w03, w1 * w12, w1 * w13, 0.0],
            [w2 * w01, 0.0, w2 * w03, -w2 * w12, 0.0, w2 * w23]]


def _gibbs_terms(cfg):
    """((1 - q1, q1, t1), (1 - q2, q2, t2), d): each qubit's ground and excited Gibbs
    populations (:func:`~qmcool.thermo.thermal_populations`), t_i = tanh(x_i/2) =
    1 - 2q_i, x_i = beta_i*omega_i, and d = p01 - p10 = q2 - q1, each to full relative
    precision: d is (t1 - t2)/2 while both t_i < 1/2, and cancels only where x1 ~ x2."""
    (g1, q1), (g2, q2) = (thermal_populations(cfg.qubit1, cfg.bath1),
                          thermal_populations(cfg.qubit2, cfg.bath2))
    t1 = math.tanh(0.5 * (cfg.bath1.beta * cfg.qubit1.omega))
    t2 = math.tanh(0.5 * (cfg.bath2.beta * cfg.qubit2.omega))
    return (g1, q1, t1), (g2, q2, t2), (0.5 * (t1 - t2) if t1 < 0.5 and t2 < 0.5 else q2 - q1)


def _canonical_terms(cfg):
    """(N_M,1, N_M,2, N_Q,1, N_Q,2, 2 + S) of :func:`noise_sweep`, signed zeros made +0.0.
    The canonical map's one non-zero pairwise entry is m_12 = 1/2: N_M is its (dE1, dE2)."""
    (g1, q1, t1), (g2, q2, t2), d = _gibbs_terms(cfg)
    s, h1, h2 = g1 * q2 + q1 * g2, 0.5 * cfg.qubit1.omega, 0.5 * cfg.qubit2.omega
    return h1 * d + 0.0, -h2 * d + 0.0, h1 * t1 * s, h2 * t2 * s, 2.0 + s


def _pair_coefficients(cfg):
    """The (2, 6) coefficients C, as lists, of the cycle energies on the six pairwise
    entries m of a population map A (m_rs = A_rs, r < s, in _PAIRS order): dE_i = (C m)_i.

    A map whose rows and columns sum to 1 (a basis's P P^T) and that is symmetric
    moves dE_i = sum_{r<s} A_rs (p_r - p_s)(h_i,s - h_i,r), so C is :func:`_pair_matrix`
    of the six population gaps p_r - p_s.  Near infinite temperature those gaps lie
    below the rounding of p itself, so each is built from q_i (the excited population)
    and t_i = tanh(x_i/2) = 1 - 2q_i, x_i = beta_i*omega_i, never from p:
    p00 - p01 = (1 - q1) t2, p10 - p11 = q1 t2, p00 - p10 = (1 - q2) t1,
    p01 - p11 = q2 t1, p00 - p11 = (t1 + t2)/2, and p01 - p10 = d of :func:`_gibbs_terms`.
    Each cancels only where x1 ~ x2.
    """
    return _pair_matrix(cfg, _pair_gaps(cfg))


def _pair_gaps(cfg):
    """The six population gaps p_r - p_s of :func:`_pair_coefficients`, in _PAIRS order."""
    (g1, q1, t1), (g2, q2, t2), d = _gibbs_terms(cfg)
    return g1 * t2, g2 * t1, 0.5 * (t1 + t2), d, q2 * t1, q1 * t2


def _pair_triples(coef, entries):
    """Planes of (dE1, dE2, dE), shape (configs, 3, maps): config c's coefficients
    ``coef[c]`` (2, k) on the k entries of each map, the columns of ``entries`` (k, maps).

    One einsum for every config and map.  Along a stack it adds the products of each
    map in entry order, so a map rounds alike in a stack of any length; a matmul would
    not (numpy sends a one-column product through gemv and a longer one through gemm).
    A lone map goes in twice: alone, einsum sums its entries with a SIMD dot product,
    which adds them in another order.  One caller still sends one: the last chunk of
    :func:`_haar_chunks` when it holds one sample; :func:`run_cycle` takes its one map
    through :func:`_row_dot` instead.
    """
    if entries.shape[1] == 1:
        return _pair_triples(coef, np.repeat(entries, 2, axis=1))[:, :, :1]
    out = np.empty((len(coef), 3, entries.shape[1]))
    np.einsum("cie,em->cim", coef, entries, out=out[:, :2])
    np.add(out[:, 0], out[:, 1], out=out[:, 2])
    return out


def _sample_name(omega2, index):
    return f"omega2 = {float(omega2)!r}, Haar sample {index}"


def _canonical_p(q, out=None):
    """P = |U C|^2 of each unitary U whose columns 0-2 are the planes ``q[:3]``
    (:func:`~qmcool.measure.haar_planes`, (3, 2, 4, samples)), C the canonical basis
    vectors as columns, as planes: ``big_p[k, r]`` holds P[r, k] of every sample.

    C keeps columns u0 and u3 of U and turns u1, u2 into (u1 ± u2)/sqrt2, so the first
    three columns of P are |u0|^2 and |u1 ± u2|^2/2, each |z|^2 as re^2 + im^2.  Rows of
    U C are unit vectors, so the last column, |u3|^2, is 1 - P[r, 0] - P[r, 1] - P[r, 2],
    subtracted in that order and clipped at 0: rounding leaves it within ~1e-15 of
    |u3|^2 but can take it below 0, which would let a pairwise term break the second
    law by itself.  ``out``, a C-contiguous float (4, 4, samples) array (by default
    fresh), is returned as P; its planes hold the squared parts as they are formed.
    """
    big_p = np.empty((4,) + q.shape[2:]) if out is None else out
    np.square(q[0, 0], out=big_p[0])
    big_p[0] += np.square(q[0, 1], out=big_p[1])
    # (u1 + u2) into columns 1-2 and (u1 - u2) into columns 2-3, re and im, squared
    for k, combine in ((1, np.add), (2, np.subtract)):
        part = np.square(combine(q[1], q[2], out=big_p[k:k + 2]), out=big_p[k:k + 2])
        part[0] += part[1]
    big_p[1:3] /= 2
    np.subtract(1.0, big_p[0], out=big_p[3])
    big_p[3] -= big_p[1]
    big_p[3] -= big_p[2]
    np.maximum(big_p[3], 0.0, out=big_p[3])
    return big_p


def _pair_entries(big_p, out=None):
    """The six pairwise entries m_rs = sum_k P_rk P_sk of P P^T (r < s, in _PAIRS order)
    of every sample of the planes ``big_p`` (:func:`_canonical_p`), shape (6, samples).
    Elementwise, with the four products of each entry added in k order.  ``out``, a
    flat float array of at least 30 words per sample (by default a fresh one), holds
    the products and then the entries, which are returned as a view of it."""
    m = big_p.shape[2]
    buf = np.empty(30 * m) if out is None else out
    prod = buf[:24 * m].reshape(4, 6, m)
    for r, e in ((0, 0), (1, 3), (2, 5)):
        np.multiply(big_p[:, r, None], big_p[:, r + 1:], out=prod[:, e:e + 3 - r])
    entries = np.add(prod[0], prod[1], out=buf[24 * m:30 * m].reshape(6, m))
    entries += prod[2]
    entries += prod[3]
    return entries


def _haar_chunks(cfgs, n_samples, seed):
    """(start, planes) for consecutive chunks of the n_samples Haar samples of
    ``seed``; planes, a fresh (len(cfgs), 3, m) array, holds each config's
    (dE1, dE2, dE) over samples [start, start + m).

    Sample i measures in the canonical basis rotated by unitary i of the seed's Haar
    stream, the same for every config: the row-gauged DU of :mod:`qmcool._accel`, so
    P = |DUC|^2 = |UC|^2, but not the U of ``haar_unitaries`` bit for bit.  Its map's
    six pairwise entries (:func:`_pair_entries`) go through :func:`_pair_triples`, and
    the first sample, in config order, with slack beta1*dE1 + beta2*dE2 < SLACK_FLOOR
    raises, as in :func:`run_cycle`.

    Chunks hold CHUNK samples, the last the rest.  The draw, P and the entries run on
    blocks of BLOCK chunks, both read at call time, the last block the rest; each
    chunk's slice of the entries is copied C-contiguous, since einsum may sum a strided
    operand in another order, and the kernel and the slack check run per chunk, so the
    chunks and their memory per config do not depend on the block.  Sample i reads
    uniforms [32i, 32i + 32) whatever the block, and every step rounds a sample alike
    in any block and chunk, so the chunks concatenate to one whole draw.  Every block
    works in the same memory (WORK_WORDS per sample, 1.8 MB), allocated once, which
    the heap keeps: a fresh one per block would be faulted in again each time.
    n_samples is checked, and the configs' coefficients and inverse temperatures
    gathered, up front.
    """
    n = check_int(n_samples, "n_samples", 1)
    chunk, block = CHUNK, BLOCK * CHUNK
    coef = np.array([_pair_coefficients(cfg) for cfg in cfgs]).reshape(-1, 2, 6)
    betas = np.array([(cfg.bath1.beta, cfg.bath2.beta) for cfg in cfgs]).reshape(-1, 2, 1)
    work = np.empty(WORK_WORDS * min(n, block))

    def chunks():
        for first in range(0, n, block):
            b = min(block, n - first)
            words = work[:WORK_WORDS * b]
            q = haar_planes(HaarSampler(seed, first), b, words)
            # the planes end the block; the words before them, the draw's scratch, are
            # free once they are orthonormalized, and the planes once P is formed
            big_p = _canonical_p(q, words[:16 * b].reshape(4, 4, b))
            entries = _pair_entries(big_p, words[16 * b:])
            for k in range(0, b, chunk):
                start = first + k
                planes = _pair_triples(coef, np.ascontiguousarray(entries[:, k:k + chunk]))
                with np.errstate(over="ignore", invalid="ignore"):  # inf and nan pass, as in run_cycle
                    slack = betas[:, 0] * planes[:, 0] + betas[:, 1] * planes[:, 1]
                bad = slack < SLACK_FLOOR
                if bad.any():
                    c, i = np.unravel_index(np.argmax(bad), bad.shape)
                    raise SecondLawViolation(f"{_sample_name(cfgs[c].qubit2.omega, start + i)}: "
                                             f"{_second_law_breach(slack[c, i])}")
                yield start, planes

    return chunks()


def _class_codes(de1, de2, de, eps):
    """Code of each triple (dE1, dE2, dE) of three same-shape arrays: the index in
    CLASS_LABELS of the label :func:`classify` gives it, -2 where it fails the sum
    check and -1 where no class matches; ``np.select`` takes the first of
    :func:`_class_rules` that holds."""
    return np.select(_class_rules(de1, de2, de, eps), _CLASS_CODES, default=-1)


def _class_counts(planes, eps, omega2s, start):
    """Counts of R, E, A, H (in CLASS_LABELS order) of each config, shape
    (len(planes), 4), over the triple planes (configs, 3, m) of one chunk, in one
    :func:`_class_codes` pass.  A triple that :func:`classify` would reject raises:
    the first config with one, and in it a failed sum check before a classless
    triple; errors name that config's omega2 and the sample index start + i.
    """
    codes = _class_codes(planes[:, 0], planes[:, 1], planes[:, 2], eps)
    bad = codes < 0
    if bad.any():
        c = np.argmax(bad.any(axis=1))
        row = codes[c]
        i = np.argmax(row == -2) if np.any(row == -2) else np.argmax(row == -1)
        raise ValidationError(f"{_sample_name(omega2s[c], start + i)}: "
                              f"{_class_error(row[i], *planes[c, :, i].tolist(), eps)}")
    k = len(CLASS_LABELS)
    offsets = k * np.arange(len(codes))[:, None]
    return np.bincount((codes + offsets).ravel(), minlength=k * len(codes)).reshape(-1, k)


def frequency_sweep(cfgs, n_samples, seed, eps=1e-12):
    """Empirical class frequencies over Haar-rotated canonical bases.

    Returns one dict per config in ``cfgs``, mapping each of "R", "E", "A",
    "H" to a :class:`FrequencyEstimate` (frequency, binomial standard error).
    All configs share one draw of bases, taken in chunks (:func:`_haar_chunks`)
    so that memory does not grow with n_samples; the class counts of each chunk
    (:func:`_class_counts`, every config at once) add up.  Each dict is a pure
    function of (config, n_samples, seed).
    """
    counts = np.zeros((len(cfgs), len(CLASS_LABELS)), dtype=np.int64)
    omega2s = [cfg.qubit2.omega for cfg in cfgs]
    n = 0
    for start, planes in _haar_chunks(cfgs, n_samples, seed):
        counts += _class_counts(planes, eps, omega2s, start)
        n += planes.shape[2]
    out = []
    for count in counts.tolist():
        row = {}
        for label, c in zip(CLASS_LABELS, count):
            f = c / n
            row[label] = FrequencyEstimate(f, math.sqrt(f * (1.0 - f) / n))
        out.append(row)
    return out


def depolarizing_prediction(cfg):
    """Analytic Haar-mean energy triple.

    Averaged over Haar-rotated bases the measurement channel is the
    depolarizing map rho -> lambda*rho + (1-lambda)*I/4 with lambda = 1/5,
    giving mean dE_i = (4/5)*(omega_i/2)*tanh(beta_i*omega_i/2).
    """
    d1 = 0.8 * 0.5 * cfg.qubit1.omega * np.tanh(0.5 * cfg.bath1.beta * cfg.qubit1.omega)
    d2 = 0.8 * 0.5 * cfg.qubit2.omega * np.tanh(0.5 * cfg.bath2.beta * cfg.qubit2.omega)
    return float(d1), float(d2), float(d1 + d2)


def haar_average_report(cfgs, n_samples, seed, eps=1e-12):
    """One :class:`HaarAverageReport` per config in ``cfgs``, over one shared draw of bases.

    The draw is taken in chunks (:func:`_haar_chunks`), so memory does not grow
    with n_samples.  Each chunk's mean and sum of squared deviations M2, along the
    samples of every config's planes at once, are merged into the running ones by the
    pairwise update of Chan, Golub and LeVeque (1979); a draw of one chunk gives the
    np.mean and np.std of the whole draw's planes exactly.
    """
    # reduce in units of the larger gap so that sums of huge triples stay finite;
    # a power-of-two scale is exact
    ks = [math.frexp(max(cfg.qubit1.omega, cfg.qubit2.omega))[1] for cfg in cfgs]
    shifts = np.array(ks, dtype=np.int64).reshape(-1, 1, 1)
    n, means, sqdevs = 0, np.zeros((len(cfgs), 3)), np.zeros((len(cfgs), 3))
    for _, planes in _haar_chunks(cfgs, n_samples, seed):
        m = planes.shape[2]
        np.ldexp(planes, -shifts, out=planes)
        chunk_mean = planes.sum(axis=2) / m
        dev = planes - chunk_mean[:, :, None]
        chunk_m2 = (dev * dev).sum(axis=2)
        if n:
            delta = chunk_mean - means
            means += delta * (m / (n + m))
            sqdevs += chunk_m2 + delta * delta * (n * m / (n + m))
        else:
            means, sqdevs = chunk_mean, chunk_m2
        n += m
    reports = []
    for cfg, k, mean, sqdev in zip(cfgs, ks, means, sqdevs):
        mean = np.ldexp(mean, k)
        if n > 1:
            errs = np.ldexp(np.sqrt(sqdev / (n - 1)) / math.sqrt(n), k)
        else:
            errs = np.full(3, np.nan)
        pred = depolarizing_prediction(cfg)
        # classify m1 + m2: three separate n-term means need not add up within one rounding
        m1, m2 = float(mean[0]), float(mean[1])
        reports.append(HaarAverageReport(
            mean_dE1=m1,
            mean_dE2=m2,
            mean_dE=float(mean[2]),
            stderr_dE1=float(errs[0]),
            stderr_dE2=float(errs[1]),
            stderr_dE=float(errs[2]),
            predicted_dE1=pred[0],
            predicted_dE2=pred[1],
            predicted_dE=pred[2],
            classification=classify(m1, m2, m1 + m2, eps),
            n_samples=n,
        ))
    return reports


def noise_sweep(cfgs, nu_values):
    """Energy triples and critical visibilities of each config under both noise models,
    measured in the canonical basis.

    Returns ``(triples, nu_c)``: triples of shape (len(cfgs), len(nu_values), 2, 3)
    hold (dE1, dE2, dE) under white and interference noise; nu_c holds one
    :func:`critical_visibility` per config.  A white row is c1(nu) times the projective
    pair N_M of :func:`_canonical_terms`.

    An interference row is the energy of N p / 1^T N p - p, N = nu*M + (1-nu)*Q with Q the
    distinguishable-photon map.  On the canonical basis M = diag(1, 1/2, 1/2, 1) and
    Q = diag(2, 5/2, 5/2, 2), each plus 1/2 at (|01>, |10>).  With the terms of
    :func:`_gibbs_terms` and S = g1 q2 + q1 g2, the population the distinguishable
    photons move, the row is

        dE_i = (nu N_M,i + (1-nu) N_Q,i) / (nu + (1-nu)(2 + S)),
        N_M = ((omega1/2) d, -(omega2/2) d),  N_Q = ((omega1/2) t1 S, (omega2/2) t2 S),

    2 + S = 1^T Q p >= 2.  Each factor but d is a product, so no term cancels.  A row's
    dE is the sum of its dE1 and dE2, as :func:`classify`'s sum check reads them.
    """
    if any(not 0.0 <= nu <= 1.0 for nu in nu_values):
        raise ValidationError(f"noise weights must lie in [0, 1], got {nu_values!r}")
    terms = np.array([_canonical_terms(cfg) for cfg in cfgs]).reshape(-1, 1, 5)
    nu = np.array(nu_values, dtype=float).reshape(-1, 1)
    c1 = white_noise_mixture_weights(nu)[0]
    out = np.empty((len(cfgs), len(nu), 2, 3))
    # + 0.0: c1(0) = 0, or 0 times a negative energy, is -0.0
    out[:, :, 0, :2] = c1 * terms[:, :, :2] + 0.0
    den = nu + (1.0 - nu) * terms[:, :, 4:]
    out[:, :, 1, :2] = (nu * terms[:, :, :2] + (1.0 - nu) * terms[:, :, 2:4]) / den + 0.0
    out[:, :, :, 2] = out[:, :, :, 0] + out[:, :, :, 1]
    return out, [critical_visibility(cfg) for cfg in cfgs]


def _factors(cfg):
    """((beta1, omega1), (beta2, omega2)), the factors of x_i = beta_i*omega_i."""
    return (cfg.bath1.beta, cfg.qubit1.omega), (cfg.bath2.beta, cfg.qubit2.omega)


def _exact_ratio(a, b):
    """(n, d), Python ints with n/d = a*b exactly."""
    (na, da), (nb, db) = float(a).as_integer_ratio(), float(b).as_integer_ratio()
    return na * nb, da * db


def _exact_gap(cfg):
    """(g, den), Python ints with g/den = x1 - x2 exactly, x_i = beta_i*omega_i."""
    (n1, d1), (n2, d2) = (_exact_ratio(b, w) for b, w in _factors(cfg))
    return n1 * d2 - n2 * d1, d1 * d2


def _expm1_ratio(b, w):
    """-expm1(-x), x = b*w, as an exact integer ratio.  Below the normal range the
    rounded x keeps few digits, or is 0, and -expm1(-x) = x to far below its rounding,
    so there it is x itself, exact."""
    x = b * w
    return (-math.expm1(-x)).as_integer_ratio() if x >= sys.float_info.min else _exact_ratio(b, w)


def critical_visibility(cfg):
    """Interference visibility nu_c at which dE2 changes sign, measured in the canonical
    basis; None where it lies outside [0, 1]: the configuration never refrigerates, so
    no critical visibility exists.

    dE2's numerator there, (omega2/2)((1-nu) t2 S - nu d) (:func:`noise_sweep`), is
    affine in nu, with the single root nu_c = t2 S / (t2 S + d).  Written in e^(-x_i),
    x_i = beta_i*omega_i, the root is (1 + e^(-D))/2 * f2/f1, f_i = -expm1(-x_i),
    D = x1 - x2, in which no term cancels.  Both factors are at most 1 for D >= 0 and
    above 1 for D < 0, so the root lies in [0, 1] exactly when D >= 0: the sign of
    :func:`_exact_gap`'s g, which also draws :func:`regime`'s R boundary.  e^(-D) would
    amplify the rounding of the products x_i, ~1e-16 x_i, so D is g/den rounded once;
    past 2^10 (where g/den may also overflow a double) e^(-D) is 0.  f2/f1 is one
    correctly rounded division of the integer ratios of :func:`_expm1_ratio`.
    """
    g, den = _exact_gap(cfg)
    if g < 0:
        return None
    e = 0.0 if g >= den << 10 else math.exp(-(g / den))
    (n1, d1), (n2, d2) = (_expm1_ratio(b, w) for b, w in _factors(cfg))
    return 0.5 * (1.0 + e) * ((n2 * d1) / (d2 * n1))
