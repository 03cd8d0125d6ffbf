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
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import SecondLawViolation, ValidationError
from .measure import (
    HaarSampler,
    MeasurementBasis,
    PovmSet,
    _distinguishable,
    apply_povm,
    canonical_basis,
    haar_unitaries,
    measurement_channel,
    white_noise_mixture_weights,
)
from .qcore import two_qubit_state
from .thermo import BathSpec, QubitSpec, gibbs_population

SLACK_FLOOR = -1e-10
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
    p1 = gibbs_population(cfg.qubit1, cfg.bath1)
    p2 = gibbs_population(cfg.qubit2, cfg.bath2)
    return np.outer([p1, 1.0 - p1], [p2, 1.0 - p2]).ravel()


def initial_state(cfg):
    """The working substance before the measurement stroke: gibbs1 x gibbs2 = diag(p)."""
    return np.diag(_populations(cfg)).astype(np.complex128)


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


def energy_changes(cfg, post_state):
    """(dE1, dE2, dE) from the initial Gibbs product to ``post_state``.

    Both H_i are diagonal, so dE_i = (diag(post) - p) . h_i with p the Gibbs
    populations; ``post_state`` is e.g. G = measurement_channel of the product.
    """
    post = two_qubit_state(post_state)
    return _energy_triple(cfg, np.diagonal(post).real - _populations(cfg))


def _energy_triple(cfg, shift):
    """(dE1, dE2, dE) of a population shift diag(post) - p."""
    h1, h2 = _joint_hamiltonian_diagonals(cfg)
    de1, de2 = float(shift @ h1), float(shift @ h2)
    return de1, de2, de1 + de2


def run_cycle(cfg, measurement=None, eps=1e-12):
    """One full engine cycle; returns the :class:`EngineReport`.

    ``measurement`` may be a :class:`~qmcool.measure.MeasurementBasis`
    (default: the canonical basis), a :class:`~qmcool.measure.PovmSet`, or a
    callable ``rho -> rho'``.  The rethermalization stroke is implicit —
    the thermalizing channel restores the Gibbs product exactly.
    """
    if measurement is None:
        measurement = canonical_basis()
    rho = initial_state(cfg)
    if isinstance(measurement, MeasurementBasis):
        post = measurement_channel(measurement, rho)
    elif isinstance(measurement, PovmSet):
        post = apply_povm(measurement, rho)
    elif callable(measurement):
        post = np.asarray(measurement(rho), dtype=np.complex128)
    else:
        raise ValidationError(
            f"measurement must be a basis, a POVM, or a callable, got {type(measurement)!r}"
        )
    de1, de2, de = energy_changes(cfg, post)
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


def _haar_triples(cfgs, n_samples, seed):
    """(dE1, dE2, dE) of each config over one draw of Haar bases, shape (len(cfgs), n, 3).

    Sample i measures in the canonical basis rotated by the i-th unitary U of
    ``haar_unitaries(HaarSampler(seed), n)``, the same U for every config.  On the
    diagonal Gibbs product with populations p the measurement moves only populations,
    through the unistochastic P = |U C|^2 (C: the canonical basis vectors as columns):
    dE_i = p^T (P P^T - I) h_i with h_i the diagonal of H_i, and dE = dE1 + dE2.
    B = P P^T - I does not depend on the config, so it is formed once for all rows.
    """
    if n_samples < 1:
        raise ValidationError(f"need at least one sample, got {n_samples}")
    us = haar_unitaries(HaarSampler(seed), int(n_samples))
    big_p = np.abs(us @ canonical_basis().vectors.T) ** 2
    b = big_p @ big_p.transpose(0, 2, 1) - np.eye(4)
    out = np.empty((len(cfgs), len(b), 3))
    for row, cfg in zip(out, cfgs):
        row[:, :2] = _populations(cfg) @ b @ np.column_stack(_joint_hamiltonian_diagonals(cfg))
        row[:, 2] = row[:, 0] + row[:, 1]
    return out


def frequency_sweep(cfgs, n_samples, seed, eps=1e-12):
    """Empirical class frequencies over Haar-rotated canonical bases.

    Returns one dict per config in ``cfgs``, mapping each of "R", "E", "A",
    "H" to a :class:`FrequencyEstimate` (frequency, binomial standard error).
    All configs share one draw of bases; each dict is a pure function of
    (config, n_samples, seed).
    """
    out = []
    for triples in _haar_triples(cfgs, n_samples, seed):
        counts = Counter(classify(de1, de2, de, eps) for de1, de2, de in triples.tolist())
        n = len(triples)
        row = {}
        for label in CLASS_LABELS:
            f = counts[label] / n
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
    """One :class:`HaarAverageReport` per config in ``cfgs``, over one shared draw of bases."""
    reports = []
    for cfg, triples in zip(cfgs, _haar_triples(cfgs, n_samples, seed)):
        # reduce in units of the larger gap so that sums of huge triples stay finite;
        # a power-of-two scale is exact
        k = math.frexp(max(cfg.qubit1.omega, cfg.qubit2.omega))[1]
        np.ldexp(triples, -k, out=triples)
        n = len(triples)
        means = np.ldexp(triples.mean(axis=0), k)
        if n > 1:
            errs = np.ldexp(triples.std(axis=0, ddof=1) / math.sqrt(n), k)
        else:
            errs = np.full(3, np.nan)
        pred = depolarizing_prediction(cfg)
        reports.append(HaarAverageReport(
            mean_dE1=float(means[0]),
            mean_dE2=float(means[1]),
            mean_dE=float(means[2]),
            stderr_dE1=float(errs[0]),
            stderr_dE2=float(errs[1]),
            stderr_dE=float(errs[2]),
            predicted_dE1=pred[0],
            predicted_dE2=pred[1],
            predicted_dE=pred[2],
            classification=classify(float(means[0]), float(means[1]), float(means[2]), eps),
            n_samples=n,
        ))
    return reports


def noise_sweep(cfg, nu_values, basis=None):
    """Energy triples under both detector-noise models, and the critical visibility.

    Returns ``(rows, nu_c)``: one ``(nu, white, interf)`` row of (dE1, dE2, dE)
    triples per noise weight, and ``nu_c`` as in :func:`critical_visibility`.
    Both models act on rho = diag(p) through G = measurement_channel(basis, rho)
    and the distinguishable-photon sum D, so only g = diag(G), d = diag(D) enter:
    the white-noise post state c1*G + c2*rho shifts the populations by
    c1*(g - p), the interference post state (nu*G + (1-nu)*D) / Tr(...) by
    (nu*g + (1-nu)*d) / sum(nu*g + (1-nu)*d) - p.

    Every row's post state is a convex mixture of rho, G and D/TrD (weights
    c1, c2 for white noise; lambda = nu/(nu + (1-nu)*TrD) on G for
    interference).  Convex mixtures keep Hermiticity, unit trace and the
    eigenvalue floor, so validating rho (inside measurement_channel), G and
    D/TrD once, with TrD above the zero-detection floor, certifies every row.
    """
    if any(not 0.0 <= nu <= 1.0 for nu in nu_values):
        raise ValidationError(f"noise weights must lie in [0, 1], got {nu_values!r}")
    basis = canonical_basis() if basis is None else basis
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
    _, h2 = _joint_hamiltonian_diagonals(cfg)
    e, e2_g, e2_d = float(p @ h2), float(g @ h2), float(d @ h2)
    den = e2_g - e2_d - e * (tr_g - tr_d)
    if den == 0.0:
        return rows, None
    nu_c = float((e * tr_d - e2_d) / den)
    return rows, (nu_c if 0.0 <= nu_c <= 1.0 else None)


def critical_visibility(cfg, basis=None):
    """Interference visibility nu_c at which dE2 changes sign, in closed form.

    Under the imperfect-interference measurement model, qubit 2 stops being
    cooled below some visibility nu_c.  Before renormalization the model's
    output is nu*G + (1-nu)*D (G = measurement_channel, D the
    distinguishable-photon trains), so with e2(X) = Tr(X H2) and e the initial
    energy of qubit 2, dE2(nu) = 0 is linear in nu and has the single root

        nu_c = (e*Tr D - e2(D)) / (e2(G) - e2(D) - e*(Tr G - Tr D)).

    Returns None when the denominator vanishes or the root lies outside
    [0, 1] (the configuration never refrigerates, so no critical visibility
    exists).
    """
    return noise_sweep(cfg, (), basis)[1]
