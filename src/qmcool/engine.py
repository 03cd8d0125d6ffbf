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
    _distinguishable_map,
    canonical_basis,
    haar_unitaries,
    white_noise_mixture_weights,
)
from .qcore import TRACE_TOL
from .thermo import BathSpec, QubitSpec, thermal_populations

SLACK_FLOOR = -1e-10
# Haar samples per chunk of frequency_sweep and haar_average_report: their memory
# is set by one chunk, whatever n_samples is.  At 2**10 a chunk's temporaries are
# small enough that the heap keeps them from one chunk to the next
CHUNK = 2**10
CLASS_LABELS = ("R", "E", "A", "H")


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


def _joint_hamiltonian_diagonals(cfg):
    w1, w2 = cfg.qubit1.omega, cfg.qubit2.omega
    h1 = np.array([-0.5 * w1, -0.5 * w1, 0.5 * w1, 0.5 * w1])
    h2 = np.array([-0.5 * w2, 0.5 * w2, -0.5 * w2, 0.5 * w2])
    return h1, h2


def classify(de1, de2, de, eps=1e-12):
    """Operation label for one energy triple.

    The all-zero triple (within eps) is H by convention — a non-invasive
    measurement heats nothing, and H is the only label that degenerates
    gracefully to a no-op.  Otherwise the four sign patterns are tested with
    weak inequalities at tolerance eps, in priority order R, E, A, H, which
    makes the function total and deterministic on boundary ties.  The sum
    check also allows the rounding of one addition, 2^-52*(|dE1| + |dE2|).
    """
    gap = abs(de - de1 - de2)
    if gap > eps and gap > 2.0**-52 * (abs(de1) + abs(de2)):
        raise ValidationError(f"inconsistent triple: |dE - dE1 - dE2| = {gap:.3e} > {eps:.3e}")
    if abs(de1) <= eps and abs(de2) <= eps and abs(de) <= eps:
        return "H"
    if de1 >= -eps and de2 <= eps and de >= -eps:
        return "R"
    if de1 <= eps and de2 >= -eps and de <= eps:
        return "E"
    if de1 <= eps and de2 >= -eps and de >= -eps:
        return "A"
    if de1 >= -eps and de2 >= -eps and de >= -eps:
        return "H"
    raise ValidationError(
        f"no operation class matches ({de1:.3e}, {de2:.3e}, {de:.3e}); "
        "such a triple violates the second law"
    )


def regime(cfg):
    """Parameter-space regime from the gap ratio omega2/omega1.

    R-range for ratio <= beta1/beta2, E-range up to 1, A-range above.  The
    first boundary coincides exactly with the tanh-equality condition
    beta1*omega1 = beta2*omega2 (tanh is strictly monotone), so the ratio
    form and the sign-flip of the canonical-basis energy transfer agree
    identically, not only for small gaps.
    """
    ratio = cfg.qubit2.omega / cfg.qubit1.omega
    if ratio <= cfg.bath1.beta / cfg.bath2.beta:
        return RegimeLabel.R_RANGE
    if ratio <= 1.0:
        return RegimeLabel.E_RANGE
    return RegimeLabel.A_RANGE


def run_cycle(cfg, measurement=None, eps=1e-12):
    """One full engine cycle; returns the :class:`EngineReport`.

    ``measurement`` is a :class:`~qmcool.measure.MeasurementBasis` (default:
    the canonical basis) or a :class:`~qmcool.measure.PovmSet`.  The
    rethermalization stroke is implicit — the thermalizing channel restores the
    Gibbs product exactly.

    Either kind of measurement moves only the populations of the diagonal Gibbs
    product, so its triple is the Haar path's kernel :func:`_population_triples` on
    its population map (:func:`_population_map`).  No post state is built or
    validated: the basis checks its orthonormality and the POVM its completeness on
    construction, and the map checks that it keeps the trace.
    """
    if measurement is None:
        measurement = canonical_basis()
    de1, de2, de = _population_triples([cfg], _population_map(measurement)[None])[0, 0].tolist()
    slack = cfg.bath1.beta * de1 + cfg.bath2.beta * de2
    if slack < SLACK_FLOOR:
        raise SecondLawViolation(
            f"beta1*dE1 + beta2*dE2 = {slack:.3e} below tolerance {SLACK_FLOOR:.1e}"
        )
    return EngineReport(
        dE1=de1,
        dE2=de2,
        dE=de,
        classification=classify(de1, de2, de, eps),
        second_law_slack=slack,
    )


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


def _population_triples(cfgs, maps):
    """(dE1, dE2, dE) of each config for each population map A (:func:`_population_map`)
    of the (m, 4, 4) stack ``maps``, shape (len(cfgs), m, 3).

    The measurement takes the populations p of the diagonal Gibbs product to p^T A,
    and the coherences it leaves do not enter Tr(rho H_i), so dE_i = p^T (A - I) h_i
    (h_i: the diagonal of H_i) and dE = dE1 + dE2.  A - I is formed once for all
    configs, as a fresh array.  Both contractions are einsums, whose loops round a
    map alike alone or in a stack of any length; a matmul would not (numpy sends a
    one-row product through gemv and a longer one through gemm).
    """
    b = maps - np.eye(4)
    out = np.empty((len(cfgs), len(b), 3))
    for row, cfg in zip(out, cfgs):
        x = np.einsum("r,mrs->ms", _populations(cfg), b)
        row[:, :2] = np.einsum("ms,is->mi", x, np.array(_joint_hamiltonian_diagonals(cfg)))
        row[:, 2] = row[:, 0] + row[:, 1]
    return out


def _sample_name(omega2, index):
    return f"omega2 = {float(omega2)!r}, Haar sample {index}"


def _canonical_p(us):
    """P = |U C|^2 of each unitary U of the stack ``us``, C the canonical basis vectors
    as columns, without the product.

    C keeps columns u0 and u3 of U and turns u1, u2 into (u1 + u2)/sqrt2 and
    (u1 - u2)/sqrt2, so the columns of P are |u0|^2, |u1 + u2|^2/2, |u1 - u2|^2/2
    and |u3|^2: two column sums.
    """
    big_p = np.empty(us.shape)
    for k, col in enumerate((us[..., 0], us[..., 1] + us[..., 2], us[..., 1] - us[..., 2],
                             us[..., 3])):
        np.square(np.abs(col), out=big_p[..., k])
    big_p[..., 1:3] /= 2
    return big_p


def _chunk_triples(cfgs, seed, start, m, work):
    """(dE1, dE2, dE) of each config over Haar samples [start, start + m), shape (len(cfgs), m, 3).

    Sample i measures in the canonical basis rotated by unitary i of the seed's Haar
    stream, the same U for every config, drawn in ``work`` (see
    :func:`~qmcool.measure.haar_unitaries`); its map P P^T, with P of
    :func:`_canonical_p`, goes through :func:`_population_triples`.  The triples are
    a fresh array.  Every sample must keep beta1*dE1 + beta2*dE2 >= SLACK_FLOOR, as
    in :func:`run_cycle`.
    """
    big_p = _canonical_p(haar_unitaries(HaarSampler(seed, start), m, work))
    out = _population_triples(cfgs, big_p @ big_p.transpose(0, 2, 1))
    for row, cfg in zip(out, cfgs):
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan pass, as in run_cycle
            slack = cfg.bath1.beta * row[:, 0] + cfg.bath2.beta * row[:, 1]
        bad = np.flatnonzero(slack < SLACK_FLOOR)
        if bad.size:
            i = bad[0]
            raise SecondLawViolation(
                f"{_sample_name(cfg.qubit2.omega, start + i)}: beta1*dE1 + beta2*dE2 = "
                f"{slack[i]:.3e} below tolerance {SLACK_FLOOR:.1e}"
            )
    return out


def _haar_chunks(cfgs, n_samples, seed):
    """(start, triples) for consecutive chunks of the n_samples Haar samples of
    ``seed``; triples is :func:`_chunk_triples` of the chunk.

    Chunks hold CHUNK samples, except the last, which holds the rest, however few.
    Sample i reads uniforms [32i, 32i + 32) of the stream whatever the chunk, and
    the kernel rounds a sample alike in any chunk, so the chunks concatenate to the
    triples of one whole draw.  Every chunk draws and orthonormalizes in the same
    two buffers, allocated once: a fresh ~0.5 MB per chunk would be handed back to
    the system and faulted in again each time.  n_samples is checked here, before
    the first chunk is drawn.
    """
    n = check_int(n_samples, "n_samples", 1)
    work = np.empty((2, min(n, CHUNK), 4, 4), dtype=np.complex128)
    return ((start, _chunk_triples(cfgs, seed, start, min(CHUNK, n - start), work[:, :n - start]))
            for start in range(0, n, CHUNK))


def _class_codes(triples, eps):
    """Code of each row of an (m, 3) stack of triples: the index in CLASS_LABELS of
    the label :func:`classify` gives it, -2 where it fails the sum check and -1 where
    no class matches.

    The same sum check, the same weak inequalities at the same eps and the same
    R, E, A, H priority (``np.select`` takes the first condition that holds), as
    numpy masks.
    """
    de1, de2, de = triples.T
    a1, a2, a = np.abs(de1), np.abs(de2), np.abs(de)
    gap = np.abs(de - de1 - de2)
    up1, down1 = de1 >= -eps, de1 <= eps
    up2, down2 = de2 >= -eps, de2 <= eps
    up, down = de >= -eps, de <= eps
    return np.select(
        [(gap > eps) & (gap > 2.0**-52 * (a1 + a2)), (a1 <= eps) & (a2 <= eps) & (a <= eps),
         up1 & down2 & up, down1 & up2 & down, down1 & up2 & up, up1 & up2 & up],
        [-2, 3, 0, 1, 2, 3],
        default=-1,
    )


def _class_counts(triples, eps, omega2, start):
    """Counts of R, E, A, H (in CLASS_LABELS order) over an (m, 3) stack of triples,
    by :func:`_class_codes`.  A row that :func:`classify` would reject raises, a
    failed sum check before a classless triple; errors name omega2 and the sample
    index start + i.
    """
    codes = _class_codes(triples, eps)
    bad = np.flatnonzero(codes == -2)
    if bad.size:
        i = bad[0]
        de1, de2, de = triples[i].tolist()
        raise ValidationError(
            f"{_sample_name(omega2, start + i)}: inconsistent triple: "
            f"|dE - dE1 - dE2| = {abs(de - de1 - de2):.3e} > {eps:.3e}"
        )
    bad = np.flatnonzero(codes == -1)
    if bad.size:
        i = bad[0]
        de1, de2, de = triples[i].tolist()
        raise ValidationError(
            f"{_sample_name(omega2, start + i)}: no operation class matches "
            f"({de1:.3e}, {de2:.3e}, {de:.3e}); such a triple violates the second law"
        )
    return np.bincount(codes, minlength=len(CLASS_LABELS))


def frequency_sweep(cfgs, n_samples, seed, eps=1e-12):
    """Empirical class frequencies over Haar-rotated canonical bases.

    Returns one dict per config in ``cfgs``, mapping each of "R", "E", "A",
    "H" to a :class:`FrequencyEstimate` (frequency, binomial standard error).
    All configs share one draw of bases, taken in chunks (:func:`_haar_chunks`)
    so that memory does not grow with n_samples; the class counts of each chunk
    (:func:`_class_counts`) add up.  Each dict is a pure function of
    (config, n_samples, seed).
    """
    counts = np.zeros((len(cfgs), len(CLASS_LABELS)), dtype=np.int64)
    n = 0
    for start, triples in _haar_chunks(cfgs, n_samples, seed):
        for count, cfg, rows in zip(counts, cfgs, triples):
            count += _class_counts(rows, eps, cfg.qubit2.omega, start)
        n += triples.shape[1]
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
    with n_samples.  Each chunk's mean and sum of squared deviations M2 are merged
    into the running ones by the pairwise update of Chan, Golub and LeVeque (1979);
    a draw of one chunk gives the np.mean and np.std of the whole draw exactly.
    """
    # reduce in units of the larger gap so that sums of huge triples stay finite;
    # a power-of-two scale is exact
    ks = [math.frexp(max(cfg.qubit1.omega, cfg.qubit2.omega))[1] for cfg in cfgs]
    n, means, sqdevs = 0, np.zeros((len(cfgs), 3)), np.zeros((len(cfgs), 3))
    for _, triples in _haar_chunks(cfgs, n_samples, seed):
        m = triples.shape[1]
        for k, rows, mean, sqdev in zip(ks, triples, means, sqdevs):
            np.ldexp(rows, -k, out=rows)
            chunk_mean = rows.sum(axis=0) / m
            dev = rows - chunk_mean
            chunk_m2 = (dev * dev).sum(axis=0)
            if n:
                delta = chunk_mean - mean
                mean += delta * (m / (n + m))
                sqdev += chunk_m2 + delta * delta * (n * m / (n + m))
            else:
                mean[:], sqdev[:] = chunk_mean, chunk_m2
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


def noise_sweep(cfgs, nu_values, basis=None):
    """Energy triples and critical visibilities of each config under both noise models.

    Returns ``(triples, nu_c)``: triples of shape (len(cfgs), len(nu_values), 2, 3)
    hold (dE1, dE2, dE) under white and interference noise; nu_c holds one
    :func:`critical_visibility` per config.  Both models act on rho = diag(p) and
    move populations only, through two 4x4 maps of the basis: G has diagonal
    g = M p with M = P P^T, the basis's :func:`_population_map`, formed once, and the
    distinguishable-photon sum D has d = Q p (:func:`~qmcool.measure._distinguishable_map`).
    A white row is c1(nu) times the projective triple, :func:`_population_triples` on
    M; an interference row shifts p by (nu*g + (1-nu)*d) / sum(nu*g + (1-nu)*d) - p.

    No density matrix is built or validated: orthonormality (checked by the basis)
    makes M doubly stochastic, Q >= 0 by construction, and p is thermal, so every
    post state is a state once Tr D = 1^T Q p clears the zero-detection floor.
    That is checked per config, and its error names omega2.
    """
    if any(not 0.0 <= nu <= 1.0 for nu in nu_values):
        raise ValidationError(f"noise weights must lie in [0, 1], got {nu_values!r}")
    basis = canonical_basis() if basis is None else basis
    if not isinstance(basis, MeasurementBasis):
        raise ValidationError(f"noise models act on a measurement basis, got {type(basis)!r}")
    if len(cfgs) == 0:
        return np.empty((0, len(nu_values), 2, 3)), []
    big_m = _population_map(basis)
    p = np.array([_populations(cfg) for cfg in cfgs])
    g, d = p @ big_m.T, p @ _distinguishable_map(basis).T
    tr_d = d.sum(axis=1)
    if np.any(tr_d <= 1e-15):
        w2 = float(cfgs[np.argmax(tr_d <= 1e-15)].qubit2.omega)
        raise ValidationError(f"omega2 = {w2!r}: zero total detection probability")
    nu = np.array(nu_values, dtype=float).reshape(-1, 1)
    h = np.array([np.column_stack(_joint_hamiltonian_diagonals(cfg)) for cfg in cfgs])
    c1 = white_noise_mixture_weights(nu)[0]
    out = np.empty((len(cfgs), len(nu), 2, 3))
    # + 0.0: c1(0) = 0 times a negative triple is -0.0
    out[:, :, 0] = c1 * _population_triples(cfgs, big_m[None]) + 0.0
    detected = nu * g[:, None] + (1.0 - nu) * d[:, None]
    shift = detected / detected.sum(axis=2, keepdims=True) - p[:, None]
    # + 0.0: gemm can sum underflowed products to -0.0, where a dot product gives +0.0
    out[:, :, 1, :2] = shift @ h + 0.0
    out[:, :, 1, 2] = out[:, :, 1, 0] + out[:, :, 1, 1]
    e, e2_g, e2_d = (np.einsum("cr,cr->c", x, h[:, :, 1]) for x in (p, g, d))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a zero denominator gives inf or nan, which the range test turns into None
        roots = (e * tr_d - e2_d) / (e2_g - e2_d - e * (g.sum(axis=1) - tr_d))
    return out, [r if 0.0 <= r <= 1.0 else None for r in roots.tolist()]


def critical_visibility(cfg, basis=None):
    """Interference visibility nu_c at which dE2 changes sign, in closed form.

    Before renormalization the interference model's output is nu*G + (1-nu)*D, so
    with e2(X) = Tr(X H2) and e the initial energy of qubit 2, dE2(nu) = 0 is
    linear in nu and has the single root

        nu_c = (e*Tr D - e2(D)) / (e2(G) - e2(D) - e*(Tr G - Tr D)),

    taken on the diagonals g and d of :func:`noise_sweep`.  None when the
    denominator vanishes or the root lies outside [0, 1] (the configuration never
    refrigerates, so no critical visibility exists).
    """
    return noise_sweep([cfg], (), basis)[1][0]
