"""Optics layer: rail grid, holograms and their Kraus channel; the test oracle's measurement trains."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from qmcool import (
    BathSpec,
    HaarSampler,
    Hologram,
    QubitSpec,
    ValidationError,
    canonical_basis,
    d_of_omega,
    haar_unitary,
    hologram_channel,
    omega_of_d,
    rotate_basis,
    solve_hologram,
    thermalizing_channel,
)
from qmcool.optics import GRID_ROWS, omega_of_z
from qmcool.thermo import thermal_populations

from helpers import (apply_channel, gibbs_state, initial_state, measurement_channel,
                     optical_trains, partial_trace, random_density, reference_config,
                     thermal_channel_optical, trace_distance, trains_hom_detected)


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 np.float64("nan"), np.float64("-inf")],
                         ids=["nan", "inf", "-inf", "np-nan", "np-minus-inf"])
def test_grid_helpers_reject_a_non_finite_input(bad):
    # int() raises ValueError on NaN and OverflowError on +-inf: each helper raises its own
    # error instead, as for any other value off the grid
    holo = solve_hologram(BathSpec(0.4))
    for check in (omega_of_d, d_of_omega, omega_of_z, holo.phase_at):
        with pytest.raises(ValidationError):
            check(bad)


@pytest.mark.parametrize("bad", [10**400, -10**400], ids=["1e400", "-1e400"])
def test_grid_helpers_reject_an_int_beyond_the_float_range(bad):
    # omega / 0.02 raises OverflowError on such an int: d_of_omega raised it unchanged
    holo = solve_hologram(BathSpec(0.4))
    for check in (omega_of_d, d_of_omega, omega_of_z, holo.phase_at):
        with pytest.raises(ValidationError):
            check(bad)


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
            p = thermal_populations(QubitSpec(omega_of_z(z)), BathSpec(beta))[0]
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


def test_thermalize_optically_attenuates_excited_rail():
    beta = 1.0
    holo = solve_hologram(BathSpec(beta))
    cos_hi = hologram_channel(holo, d_of_omega(0.18)).operators[1]
    out = cos_hi @ np.array([0.0, 1.0])
    p = thermal_populations(QubitSpec(0.18), BathSpec(beta))[0]
    # cos(phi/2) with sin^2(phi/2) = p leaves amplitude sqrt(1-p)
    assert abs(out[1]) == pytest.approx(np.sqrt(1 - p), abs=1e-12)
    assert out[0] == 0


def test_thermalize_optically_mixture_reaches_gibbs():
    # both interferometer settings on the excited rail, summed after path
    # decoherence, reproduce the thermal populations
    q, b = QubitSpec(0.46), BathSpec(1.0)
    channel = hologram_channel(solve_hologram(b), d_of_omega(0.46))
    out = apply_channel(channel, np.diag([0.0, 1.0]))
    assert np.allclose(out, gibbs_state(q, b), atol=1e-12)


def test_thermalize_optically_rejects_off_rail():
    holo = solve_hologram(BathSpec(1.0))
    for bad in (0, 3, 6, 12, -8, 520, 8.5):
        with pytest.raises(ValueError):
            hologram_channel(holo, bad)


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


def _assert_ideal_train(vec, eta=None):
    ideal, _, _, efficiency = optical_trains(vec)
    if eta is None:  # the Schmidt weights a^2 <= b^2 are the reduced state's eigenvalues
        lo, hi = np.linalg.eigvalsh(partial_trace(np.outer(vec, vec.conj()), keep=1))
        eta = 0.5 * (lo / hi + 1.0)
    assert efficiency == pytest.approx(eta, abs=1e-12)
    assert np.allclose(ideal, eta * np.outer(vec, vec.conj()), atol=1e-10)


def test_schmidt_projector_singlet():
    s = 1 / np.sqrt(2)
    _assert_ideal_train(np.array([0.0, s, -s, 0.0]), 1.0)


def test_schmidt_projector_triplet():
    # a degenerate singular pair: the SVD's choice of it must not matter
    s = 1 / np.sqrt(2)
    _assert_ideal_train(np.array([0.0, s, s, 0.0]), 1.0)


def test_schmidt_projector_product_state():
    # a zero singular value: the SVD's null pair is arbitrary
    _assert_ideal_train(np.array([1.0, 0.0, 0.0, 0.0]), 0.5)


def test_schmidt_projector_reconstructs_haar_vectors():
    from qmcool import HaarSampler, haar_unitaries
    us = haar_unitaries(HaarSampler(321), 200)
    for u in us:
        _assert_ideal_train(u[:, 0])


def test_train_operators_ideal_is_scaled_projector():
    from qmcool import HaarSampler, haar_unitaries
    us = haar_unitaries(HaarSampler(55), 25)
    for u in us:
        vec = u[:, 2]
        _assert_ideal_train(vec)
        _, transmit, reflect, eta = optical_trains(vec)
        proj = np.outer(vec, vec.conj())
        # the closed form of the interference model rests on these two identities
        marginal = np.kron(partial_trace(proj, keep=1), np.eye(2))
        assert np.allclose(transmit / (2 * eta), marginal, atol=1e-12)
        assert np.allclose(reflect / (2 * eta), marginal - proj, atol=1e-12)


def test_train_operators_efficiency_extremes():
    s = 1 / np.sqrt(2)
    assert optical_trains([0.0, s, -s, 0.0])[3] == pytest.approx(1.0, abs=1e-12)
    assert optical_trains([1.0, 0.0, 0.0, 0.0])[3] == pytest.approx(0.5, abs=1e-12)


def test_project_optically_matches_measurement_channel():
    rng = np.random.default_rng(61)
    basis = canonical_basis()
    for _ in range(20):
        rho = random_density(rng, 4)
        assert np.allclose(trains_hom_detected(basis, 1.0, rho),
                           measurement_channel(basis, rho), atol=1e-12)


def test_ideal_trains_match_the_measurement_channel_on_general_states():
    # the full-matrix comparison the release gate made before it checked the
    # package's population maps: 50 Haar bases, a Gibbs product and a random state each
    rng = np.random.default_rng(2025)
    for i in range(50):
        basis = rotate_basis(haar_unitary(HaarSampler(2025, i)), canonical_basis())
        for rho in (initial_state(reference_config(0.18)), random_density(rng, 4)):
            assert trace_distance(trains_hom_detected(basis, 1.0, rho),
                                  measurement_channel(basis, rho)) <= 1e-9


def test_project_optically_rotated_basis():
    from helpers import random_rotated_basis
    rng = np.random.default_rng(67)
    for i in range(10):
        basis = random_rotated_basis(900, i)
        rho = random_density(rng, 4)
        assert np.allclose(trains_hom_detected(basis, 1.0, rho),
                           measurement_channel(basis, rho), atol=1e-11)


def test_exports_resolve_and_omit_removed_trains():
    namespace = {}
    exec("from qmcool import *", namespace)  # raises if a name in __all__ does not resolve
    assert not {"BiasSetting", "bias_from_coefficients", "project_optically",
                "schmidt_projector", "PathPolState", "thermalize_optically",
                "state_fidelity", "hamiltonian", "sample_counts", "tensor", "partial_trace",
                "von_neumann_entropy"} & set(namespace)
    from qmcool import thermo, tomo
    assert not hasattr(thermo, "hamiltonian")
    assert not {"sample_counts", "pauli_basis", "itertools"} & set(vars(tomo))
    from qmcool import optics
    assert not {"PathPolState", "thermalize_optically", "encode_qubit", "decode_qubit",
                "rail_components", "_rail_half_separation"} & set(vars(optics))
    # the oracles among these live in tests/helpers.py
    removed = {thermo: {"gibbs_state", "energy", "gibbs_population", "apply_channel"},
               tomo: {"apply_chi", "default_probes", "_probes_or_default", "_process_design"}}
    for module, names in removed.items():
        assert not names & set(namespace) and not names & set(vars(module))
    from qmcool import measure
    assert not hasattr(measure.HaarSampler, "advanced") and not hasattr(measure, "replace")
    for func in (tomo.process_tomography, tomo.measurement_tomography):
        assert list(inspect.signature(func).parameters)[1:] == ["shots", "seed"]


def test_density_layer_lives_in_the_tests():
    # no command runs the density-matrix channels or their validation; they are
    # oracles in tests/helpers.py
    import qmcool
    from qmcool import _accel, cli, engine, errors, measure, optics, thermo, tomo
    gone = {"initial_state", "energy_changes", "measurement_channel", "apply_povm",
            "hom_noisy_channel", "_distinguishable", "validate_density", "single_qubit_state",
            "two_qubit_state", "trace_distance", "thermal_channel_optical", "HERM_TOL",
            "PSD_FLOOR"}
    modules = (qmcool, _accel, cli, engine, errors, measure, optics, thermo, tomo)
    # every module of the package is checked
    files = {f"qmcool.{f.stem}" for f in Path(qmcool.__file__).parent.glob("*.py")}
    assert files - {"qmcool.__init__"} == {m.__name__ for m in modules[1:]}
    assert sorted((m.__name__, name) for m in modules for name in gone if hasattr(m, name)) == []


def test_every_export_has_a_caller():
    # a public name that only its own unit tests use is dead weight; the callers are
    # the package itself (the CLI included), the release gate and the benchmark's API loop
    root = Path(__file__).resolve().parents[1]
    sources = [f for f in sorted((root / "src" / "qmcool").glob("*.py")) if f.name != "__init__.py"]
    sources += [root / "tests" / "test_acceptance.py", root / "perfbench" / "child.py"]
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    import qmcool
    assert sorted(set(qmcool.__all__) - {"__version__"} - used) == []
