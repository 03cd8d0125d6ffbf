"""Shared fixtures-in-plain-functions for the test suite."""

import numpy as np

from qmcool import (
    EngineConfig,
    HaarSampler,
    canonical_basis,
    energy,
    energy_changes,
    gibbs_state,
    haar_unitary,
    hom_noisy_channel,
    initial_state,
    partial_trace,
    rotate_basis,
    tensor,
    two_qubit_state,
)
from qmcool._accel import ginibre_batch, haar_from_ginibre
from qmcool.engine import _joint_hamiltonian_diagonals, _populations

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


def closed_form_triple(cfg):
    delta = (
        np.tanh(0.5 * cfg.bath1.beta * cfg.qubit1.omega)
        - np.tanh(0.5 * cfg.bath2.beta * cfg.qubit2.omega)
    ) / 4.0
    de1 = cfg.qubit1.omega * delta
    de2 = -cfg.qubit2.omega * delta
    return de1, de2, de1 + de2


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


def bisect_critical_visibility(cfg, basis=None, tol=1e-10):
    """Reference nu_c: bisection on the sign of dE2 under the interference model.

    Returns None when dE2 does not change sign on [0, 1].
    """
    if basis is None:
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


def per_row_haar_triples(cfg, n, seed):
    """Reference (n, 3) Haar triples of one config: the former per-row kernel.

    Draws its own Ginibre batch for the one config; the lines after the
    inputs are the body of the kernel that each row used to call.
    """
    gin = ginibre_batch(seed, 0, n)
    p = _populations(cfg)
    h1, h2 = _joint_hamiltonian_diagonals(cfg)
    basis_cols = canonical_basis().vectors.T
    big_p = np.abs(haar_from_ginibre(gin) @ basis_cols) ** 2
    b = big_p @ big_p.transpose(0, 2, 1) - np.eye(4)
    out = np.empty((len(big_p), 3))
    out[:, :2] = p @ b @ np.column_stack([h1, h2])
    out[:, 2] = out[:, 0] + out[:, 1]
    return out


def kron_initial_state(cfg):
    """Reference initial state: the Kronecker product of the two Gibbs states."""
    return tensor(gibbs_state(cfg.qubit1, cfg.bath1), gibbs_state(cfg.qubit2, cfg.bath2))


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
