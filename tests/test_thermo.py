"""Thermal layer: Gibbs states, qubit energies, thermalizing channels."""

import math

import numpy as np
import pytest

from qmcool import (
    BathSpec,
    KrausChannel,
    QubitSpec,
    thermalizing_channel,
)

from qmcool.thermo import thermal_populations

from helpers import apply_channel, energy, gibbs_state, random_density


def test_gibbs_population_frozen_values():
    assert thermal_populations(QubitSpec(1.02), BathSpec(1.0))[0] == pytest.approx(
        0.7349725994665188, abs=1e-15)
    assert thermal_populations(QubitSpec(1.02), BathSpec(0.4))[0] == pytest.approx(
        0.6006082195512745, abs=1e-15)
    assert thermal_populations(QubitSpec(0.18), BathSpec(1.0))[0] == pytest.approx(
        0.54487889237358, abs=1e-15)
    assert thermal_populations(QubitSpec(0.18), BathSpec(0.4))[0] == pytest.approx(
        0.5179922280289649, abs=1e-15)


def test_gibbs_population_infinite_temperature_limit():
    assert thermal_populations(QubitSpec(1.0), BathSpec(1e-14))[0] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("x", [1e-3, 1.0, 38.0, 40.0, 100.0, 700.0])
def test_excited_population_has_no_cancellation(x):
    # 1 - (1 + tanh(x/2))/2 is exactly 0 from x ~ 38 on; e^-x/(1 + e^-x) keeps every digit
    ground, excited = thermal_populations(QubitSpec(x / 2.0), BathSpec(2.0))
    assert excited == pytest.approx(math.exp(-x) / (1.0 + math.exp(-x)), rel=1e-15)
    assert excited > 0.0 and ground == 1.0 - excited


def test_gibbs_population_monotone_in_beta_and_omega():
    betas = [0.1, 0.4, 1.0, 2.5, 10.0]
    pops = [thermal_populations(QubitSpec(0.5), BathSpec(b))[0] for b in betas]
    assert all(a < b for a, b in zip(pops, pops[1:]))
    omegas = [0.02, 0.18, 0.46, 1.02, 1.28]
    pops = [thermal_populations(QubitSpec(w), BathSpec(1.0))[0] for w in omegas]
    assert all(a < b for a, b in zip(pops, pops[1:]))
    assert all(0.5 < p < 1.0 for p in pops)


def test_gibbs_state_is_diagonal_with_population():
    q, b = QubitSpec(0.86), BathSpec(1.0)
    p = thermal_populations(q, b)[0]
    out = apply_channel(thermalizing_channel(q, b), np.eye(2) / 2)
    assert np.allclose(out, np.diag([p, 1 - p]), atol=1e-15)


def test_hamiltonian_diagonal():
    # H = diag(-omega/2, +omega/2): |0> is the ground state
    q = QubitSpec(0.18)
    assert energy(np.diag([1.0, 0.0]), q) == pytest.approx(-0.09, abs=1e-15)
    assert energy(np.diag([0.0, 1.0]), q) == pytest.approx(0.09, abs=1e-15)


def test_energy_maximally_mixed_is_zero():
    assert energy(np.eye(2) / 2, QubitSpec(1.02)) == pytest.approx(0.0, abs=1e-15)


def test_energy_frozen_gibbs_value():
    q, b = QubitSpec(1.02), BathSpec(0.4)
    assert energy(np.diag(thermal_populations(q, b)), q) == pytest.approx(
        -0.10262038394229998, abs=1e-15)


def test_energy_excited_state():
    assert energy(np.diag([0.0, 1.0]).astype(complex), QubitSpec(0.18)) == pytest.approx(
        0.09, abs=1e-15)


def test_energy_gibbs_closed_form_grid():
    for omega in (0.02, 0.18, 0.46, 0.86, 1.02, 1.28):
        for beta in (0.4, 1.0, 2.5):
            q, b = QubitSpec(omega), BathSpec(beta)
            expected = -(omega / 2.0) * np.tanh(beta * omega / 2.0)
            assert energy(np.diag(thermal_populations(q, b)), q) == pytest.approx(expected, abs=1e-12)


def test_thermalizing_channel_is_complete():
    for omega in (0.02, 0.46, 1.28):
        for beta in (0.4, 1.0, 2.5):
            ch = thermalizing_channel(QubitSpec(omega), BathSpec(beta))
            total = sum(k.conj().T @ k for k in ch.operators)
            assert np.allclose(total, np.eye(2), atol=1e-12)


def test_thermalizing_channel_fixed_point_from_any_state():
    rng = np.random.default_rng(23)
    for _ in range(200):
        omega = rng.uniform(0.02, 1.28)
        beta = rng.uniform(0.1, 3.0)
        q, b = QubitSpec(omega), BathSpec(beta)
        ch = thermalizing_channel(q, b)
        out = apply_channel(ch, random_density(rng, 2))
        assert np.allclose(out, gibbs_state(q, b), atol=1e-12)


def test_thermalizing_channel_erases_coherence():
    q, b = QubitSpec(0.18), BathSpec(1.0)
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = apply_channel(thermalizing_channel(q, b), plus)
    assert abs(out[0, 1]) < 1e-15
    assert np.allclose(out, gibbs_state(q, b), atol=1e-12)


def test_apply_channel_identity():
    ident = KrausChannel(operators=(np.eye(2, dtype=complex),))
    rho = np.diag([0.7, 0.3]).astype(complex)
    assert np.allclose(apply_channel(ident, rho), rho, atol=1e-15)


def test_apply_channel_dimension_mismatch():
    ch = thermalizing_channel(QubitSpec(0.18), BathSpec(1.0))
    with pytest.raises(ValueError):
        apply_channel(ch, np.eye(4) / 4)


def test_kraus_channel_rejects_incomplete_set():
    with pytest.raises(ValueError):
        KrausChannel(operators=(0.5 * np.eye(2, dtype=complex),))


def test_spec_validation():
    with pytest.raises(ValueError):
        QubitSpec(0.0)
    with pytest.raises(ValueError):
        QubitSpec(-1.0)
    with pytest.raises(ValueError):
        BathSpec(0.0)
    with pytest.raises(ValueError):
        BathSpec(-0.4)
