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

from . import _accel
from .errors import SecondLawViolation, ValidationError
from .measure import (
    MeasurementBasis,
    PovmSet,
    _hom_detected,
    apply_povm,
    canonical_basis,
    measurement_channel,
)
from .qcore import tensor, two_qubit_state
from .thermo import BathSpec, QubitSpec, gibbs_state, thermalizing_channel

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


def initial_state(cfg):
    """The working substance before the measurement stroke: gibbs1 x gibbs2."""
    return tensor(gibbs_state(cfg.qubit1, cfg.bath1), gibbs_state(cfg.qubit2, cfg.bath2))


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
    shift = np.diagonal(post).real - np.diagonal(initial_state(cfg)).real
    h1, h2 = _joint_hamiltonian_diagonals(cfg)
    de1, de2 = float(shift @ h1), float(shift @ h2)
    return de1, de2, de1 + de2


def run_cycle(cfg, measurement=None, eps=1e-12, check_reset=False):
    """One full engine cycle; returns the :class:`EngineReport`.

    ``measurement`` may be a :class:`~qmcool.measure.MeasurementBasis`
    (default: the canonical basis), a :class:`~qmcool.measure.PovmSet`, or a
    callable ``rho -> rho'``.  The rethermalization stroke is implicit —
    the thermalizing channel restores the Gibbs product exactly; pass
    ``check_reset=True`` to route stroke 2 through the Kraus channels and
    verify the fixed point end to end.
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
    if check_reset:
        reset = _rethermalize(cfg, post)
        err = np.max(np.abs(reset - rho))
        if err > 1e-12:
            raise ValidationError(f"stroke 2 failed to restore the Gibbs product ({err:.3e})")
    return EngineReport(
        dE1=de1,
        dE2=de2,
        dE=de,
        classification=classify(de1, de2, de, eps),
        second_law_slack=slack,
    )


def _rethermalize(cfg, rho):
    """Apply both single-qubit thermalizing channels to the joint state."""
    ch1 = thermalizing_channel(cfg.qubit1, cfg.bath1)
    ch2 = thermalizing_channel(cfg.qubit2, cfg.bath2)
    out = np.zeros((4, 4), dtype=np.complex128)
    arr = two_qubit_state(rho)
    for k1 in ch1.operators:
        for k2 in ch2.operators:
            k = tensor(k1, k2)
            out += k @ arr @ k.conj().T
    return out


def _haar_triples(cfg, n_samples, seed):
    if n_samples < 1:
        raise ValidationError(f"need at least one sample, got {n_samples}")
    p = np.diagonal(initial_state(cfg)).real
    h1, h2 = _joint_hamiltonian_diagonals(cfg)
    basis_cols = canonical_basis().vectors.T
    return _accel.cycle_energy_samples(p, h1, h2, basis_cols, seed, int(n_samples))


def frequency_sweep(cfg, n_samples, seed, eps=1e-12):
    """Empirical class frequencies over Haar-rotated canonical bases.

    Returns a dict mapping each of "R", "E", "A", "H" to a
    :class:`FrequencyEstimate` (frequency, binomial standard error).  The
    result is a pure function of (cfg, n_samples, seed).
    """
    triples = _haar_triples(cfg, n_samples, seed)
    counts = dict.fromkeys(CLASS_LABELS, 0)
    for de1, de2, de in triples:
        counts[classify(de1, de2, de, eps)] += 1
    n = len(triples)
    out = {}
    for label in CLASS_LABELS:
        f = counts[label] / n
        out[label] = FrequencyEstimate(f, math.sqrt(f * (1.0 - f) / n))
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


def haar_average_report(cfg, n_samples, seed, eps=1e-12):
    """Sample means of the energy triple over Haar-random bases."""
    triples = _haar_triples(cfg, n_samples, seed)
    n = len(triples)
    means = triples.mean(axis=0)
    if n > 1:
        errs = triples.std(axis=0, ddof=1) / math.sqrt(n)
    else:
        errs = np.full(3, np.nan)
    pred = depolarizing_prediction(cfg)
    return HaarAverageReport(
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
    )


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
    basis = canonical_basis() if basis is None else basis
    rho = initial_state(cfg)
    _, h2 = _joint_hamiltonian_diagonals(cfg)
    g_sum, d_sum = measurement_channel(basis, rho), _hom_detected(basis, 0.0, rho)

    def e2(x):
        return float(np.diagonal(x).real @ h2)

    e = e2(rho)
    tr_g, tr_d = g_sum.trace().real, d_sum.trace().real
    den = e2(g_sum) - e2(d_sum) - e * (tr_g - tr_d)
    if den == 0.0:
        return None
    nu_c = float((e * tr_d - e2(d_sum)) / den)
    return nu_c if 0.0 <= nu_c <= 1.0 else None
