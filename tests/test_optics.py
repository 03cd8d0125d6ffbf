"""Optics layer: holograms, path-polarization encoding, Schmidt gauge, trains."""

import numpy as np
import pytest

from qmcool import (
    BathSpec,
    Hologram,
    PathPolState,
    QubitSpec,
    apply_channel,
    bias_from_coefficients,
    canonical_basis,
    d_of_omega,
    gibbs_population,
    gibbs_state,
    measurement_channel,
    omega_of_d,
    partial_trace,
    project_optically,
    schmidt_projector,
    solve_hologram,
    thermal_channel_optical,
    thermalize_optically,
    thermalizing_channel,
)
from qmcool.optics import (
    GRID_ROWS,
    decode_qubit,
    encode_qubit,
    omega_of_z,
    projector_train_operators,
    rail_components,
)

from helpers import random_density, random_unit_vector


def test_omega_of_d_grid():
    assert omega_of_d(8) == pytest.approx(0.02, abs=1e-15)
    assert omega_of_d(408) == pytest.approx(1.02, abs=1e-15)
    assert omega_of_d(512) == pytest.approx(1.28, abs=1e-15)


def test_omega_of_d_rejects_off_grid():
    for bad in (0, -8, 4, 9, 520):
        with pytest.raises(ValueError):
            omega_of_d(bad)


def test_d_of_omega_inverse():
    for d in (8, 16, 72, 184, 344, 408, 440, 512):
        assert d_of_omega(omega_of_d(d)) == d


def test_d_of_omega_rejects_off_grid():
    for bad in (0.0, 0.03, 1.29, -0.02):
        with pytest.raises(ValueError):
            d_of_omega(bad)


def test_omega_of_z_bands():
    assert omega_of_z(1) == pytest.approx(0.02)
    assert omega_of_z(4) == pytest.approx(0.02)
    assert omega_of_z(5) == pytest.approx(0.04)
    assert omega_of_z(-204) == pytest.approx(1.02)
    assert omega_of_z(256) == pytest.approx(1.28)


def test_solve_hologram_infinite_temperature():
    holo = solve_hologram(BathSpec(1e-12))
    for z in (1, 50, 256):
        assert holo.phase_at(z) == pytest.approx(np.pi / 2, abs=1e-9)


def test_solve_hologram_frozen_phase():
    holo = solve_hologram(BathSpec(1.0))
    assert holo.phase_at(d_of_omega(1.02) // 2) == pytest.approx(
        2.0600250200165475, abs=1e-12)


def test_solve_hologram_round_trip_all_rows():
    for beta in (0.4, 1.0, 2.5):
        holo = solve_hologram(BathSpec(beta))
        for z, phase in holo.rows():
            if z < 0:
                continue
            p = gibbs_population(QubitSpec(omega_of_z(z)), BathSpec(beta))
            assert np.sin(phase / 2.0) ** 2 == pytest.approx(p, abs=1e-12)


def test_solve_hologram_antisymmetry():
    holo = solve_hologram(BathSpec(0.7))
    for z in range(1, 257):
        assert holo.phase_at(-z) == pytest.approx(holo.phase_at(z) - np.pi, abs=1e-12)


def test_hologram_has_full_grid():
    holo = solve_hologram(BathSpec(1.0))
    rows = holo.rows()
    assert len(rows) == GRID_ROWS
    zs = [z for z, _ in rows]
    assert zs == [z for z in range(-256, 257) if z != 0]


def test_hologram_rejects_out_of_range_phase():
    phases = np.zeros(GRID_ROWS)
    with pytest.raises(ValueError):
        Hologram(beta=1.0, phases=phases)


def test_hologram_rejects_asymmetry():
    holo = solve_hologram(BathSpec(1.0))
    phases = holo.phases.copy()
    phases[0] += 0.1
    with pytest.raises(ValueError):
        Hologram(beta=1.0, phases=phases)


def test_encode_decode_round_trip():
    rng = np.random.default_rng(12)
    for d in (8, 72, 408):
        vec = random_unit_vector(rng, 2)
        state = encode_qubit(vec, d)
        back = decode_qubit(state, d)
        assert np.allclose(back, vec, atol=1e-15)


def test_encode_places_amplitudes_on_rails():
    state = encode_qubit(np.array([0.6, 0.8]), 408)
    assert state.amplitudes[(-204, "H")] == pytest.approx(0.6)
    assert state.amplitudes[(204, "V")] == pytest.approx(0.8)


def test_thermalize_optically_attenuates_excited_rail():
    beta = 1.0
    holo = solve_hologram(BathSpec(beta))
    d = d_of_omega(0.18)
    state = PathPolState(amplitudes={(d // 2, "V"): 1.0})
    out = thermalize_optically(state, holo, setting=1)
    p = gibbs_population(QubitSpec(0.18), BathSpec(beta))
    # cos(phi/2) with sin^2(phi/2) = p leaves amplitude sqrt(1-p)
    assert abs(out.amplitudes[(d // 2, "V")]) == pytest.approx(np.sqrt(1 - p), abs=1e-12)


def test_thermalize_optically_mixture_reaches_gibbs():
    # running both interferometer settings on the excited rail and adding the
    # resulting outer products reproduces the thermal populations
    q, b = QubitSpec(0.46), BathSpec(1.0)
    holo = solve_hologram(b)
    d = d_of_omega(0.46)
    out = np.zeros((2, 2), dtype=complex)
    for setting in (1, 2):
        state = thermalize_optically(encode_qubit(np.array([0.0, 1.0]), d), holo, setting)
        for comp in rail_components(state):
            vec = decode_qubit(comp, d)
            out += np.outer(vec, vec.conj())
    assert np.allclose(out, gibbs_state(q, b), atol=1e-12)


def test_thermalize_optically_rejects_off_rail():
    holo = solve_hologram(BathSpec(1.0))
    state = PathPolState(amplitudes={(3, "H"): 1.0})
    with pytest.raises(ValueError):
        thermalize_optically(state, holo, setting=1)


def test_thermalize_optically_rejects_bad_setting():
    holo = solve_hologram(BathSpec(1.0))
    state = PathPolState(amplitudes={(4, "H"): 1.0})
    with pytest.raises(ValueError):
        thermalize_optically(state, holo, setting=3)


def test_path_pol_state_validation():
    with pytest.raises(ValueError):
        PathPolState(amplitudes={(4, "X"): 1.0})
    with pytest.raises(ValueError):
        PathPolState(amplitudes={(4, "H"): 2.0})


def test_thermal_channel_optical_matches_kraus_channel():
    rng = np.random.default_rng(31)
    for omega in (0.02, 0.18, 0.46, 1.02, 1.28):
        for beta in (0.4, 1.0, 2.5):
            q, b = QubitSpec(omega), BathSpec(beta)
            ch = thermalizing_channel(q, b)
            for _ in range(5):
                rho = random_density(rng, 2)
                optical = thermal_channel_optical(rho, q, b)
                abstract = apply_channel(ch, rho)
                assert np.allclose(optical, abstract, atol=1e-12)


def test_thermal_channel_optical_fixed_point():
    q, b = QubitSpec(1.02), BathSpec(0.4)
    out = thermal_channel_optical(gibbs_state(q, b), q, b)
    assert np.allclose(out, gibbs_state(q, b), atol=1e-12)


def test_schmidt_projector_singlet():
    s = 1 / np.sqrt(2)
    vec = np.array([0.0, s, -s, 0.0])
    form = schmidt_projector(vec)
    assert form.a == pytest.approx(s, abs=1e-12)
    assert form.b == pytest.approx(s, abs=1e-12)
    assert np.allclose(form.u1, np.eye(2), atol=1e-10)
    assert np.allclose(form.u2, np.eye(2), atol=1e-10)


def test_schmidt_projector_triplet():
    s = 1 / np.sqrt(2)
    vec = np.array([0.0, s, s, 0.0])
    form = schmidt_projector(vec)
    assert form.a == pytest.approx(s, abs=1e-12)
    assert form.b == pytest.approx(s, abs=1e-12)
    assert np.allclose(form.u1, np.diag([1.0, -1.0]), atol=1e-10)
    assert np.allclose(form.u2, np.eye(2), atol=1e-10)


def test_schmidt_projector_product_state():
    form = schmidt_projector(np.array([1.0, 0.0, 0.0, 0.0]))
    assert form.a == pytest.approx(0.0, abs=1e-12)
    assert form.b == pytest.approx(1.0, abs=1e-12)
    # b-branch factors reproduce |00>: u1[:,1] x u2[:,0] up to phase
    col = np.kron(form.u1[:, 1], form.u2[:, 0])
    assert abs(np.vdot(col, [1, 0, 0, 0])) == pytest.approx(1.0, abs=1e-10)


def test_schmidt_projector_reconstructs_haar_vectors():
    from qmcool import HaarSampler, haar_unitaries
    us = haar_unitaries(HaarSampler(321), 200)
    for u in us:
        vec = u[:, 0]
        form = schmidt_projector(vec)
        assert 0.0 <= form.a <= form.b + 1e-12
        rebuilt = form.a * np.kron(form.u1[:, 0], form.u2[:, 1]) - form.b * np.kron(
            form.u1[:, 1], form.u2[:, 0])
        assert np.linalg.norm(rebuilt - vec) < 1e-10


def test_schmidt_projector_deterministic():
    vec = np.array([0.1, 0.5, -0.7, 0.2 + 0.3j])
    vec = vec / np.linalg.norm(vec)
    f1 = schmidt_projector(vec)
    f2 = schmidt_projector(vec)
    assert np.array_equal(f1.u1, f2.u1)
    assert np.array_equal(f1.u2, f2.u2)
    assert f1.a == f2.a and f1.b == f2.b


def test_schmidt_projector_rejects_unnormalized():
    with pytest.raises(ValueError):
        schmidt_projector(np.array([1.0, 1.0, 0.0, 0.0]))


def test_bias_from_coefficients_examples():
    setting = bias_from_coefficients(1 / np.sqrt(2), 1 / np.sqrt(2))
    assert setting.theta_deg == pytest.approx(45.0, abs=1e-10)
    assert setting.efficiency == pytest.approx(1.0, abs=1e-12)
    setting = bias_from_coefficients(0.0, 1.0)
    assert setting.theta_deg == pytest.approx(0.0, abs=1e-12)
    assert setting.efficiency == pytest.approx(0.5, abs=1e-12)
    setting = bias_from_coefficients(1 / np.sqrt(3), np.sqrt(2) / np.sqrt(3))
    assert setting.theta_deg == pytest.approx(22.5, abs=1e-10)
    assert setting.efficiency == pytest.approx(0.75, abs=1e-12)


def test_bias_setting_transmission():
    setting = bias_from_coefficients(1 / np.sqrt(2), 1 / np.sqrt(2))
    assert setting.h_transmission() == pytest.approx(1.0, abs=1e-12)
    setting = bias_from_coefficients(0.0, 1.0)
    assert setting.h_transmission() == pytest.approx(0.0, abs=1e-12)


def test_bias_from_coefficients_rejects_bad_pairs():
    with pytest.raises(ValueError):
        bias_from_coefficients(0.9, 0.1)  # a > b
    with pytest.raises(ValueError):
        bias_from_coefficients(-0.1, 1.0)


def test_train_operators_ideal_is_scaled_projector():
    from qmcool import HaarSampler, haar_unitaries
    us = haar_unitaries(HaarSampler(55), 25)
    for u in us:
        vec = u[:, 2]
        form = schmidt_projector(vec)
        ops = projector_train_operators(vec)
        eta = ((form.a / form.b) ** 2 + 1) / 2
        assert ops.efficiency == pytest.approx(eta, abs=1e-12)
        proj = np.outer(vec, vec.conj())
        assert np.allclose(ops.ideal, eta * proj, atol=1e-10)
        # the closed form of the interference model rests on these two identities
        marginal = np.kron(partial_trace(proj, keep=1), np.eye(2))
        assert np.allclose(ops.transmit / (2 * eta), marginal, atol=1e-12)
        assert np.allclose(ops.reflect / (2 * eta), marginal - proj, atol=1e-12)


def test_train_operators_efficiency_extremes():
    s = 1 / np.sqrt(2)
    singlet = np.array([0.0, s, -s, 0.0])
    assert projector_train_operators(singlet).efficiency == pytest.approx(1.0, abs=1e-12)
    product = np.array([1.0, 0.0, 0.0, 0.0])
    assert projector_train_operators(product).efficiency == pytest.approx(0.5, abs=1e-12)


def test_project_optically_matches_measurement_channel():
    rng = np.random.default_rng(61)
    basis = canonical_basis()
    for _ in range(20):
        rho = random_density(rng, 4)
        assert np.allclose(project_optically(basis, rho),
                           measurement_channel(basis, rho), atol=1e-12)


def test_project_optically_rotated_basis():
    from helpers import random_rotated_basis
    rng = np.random.default_rng(67)
    for i in range(10):
        basis = random_rotated_basis(900, i)
        rho = random_density(rng, 4)
        assert np.allclose(project_optically(basis, rho),
                           measurement_channel(basis, rho), atol=1e-11)
