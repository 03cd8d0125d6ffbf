"""Tomography layer: chi matrices, probe states, shot noise, fidelities."""

import numpy as np
import pytest

from qmcool import (
    BathSpec,
    KrausChannel,
    QubitSpec,
    apply_channel,
    canonical_basis,
    chi_from_kraus,
    default_probes,
    measurement_channel,
    measurement_tomography,
    process_fidelity,
    process_tomography,
    sample_counts,
    thermalizing_channel,
    white_noise_povm,
)
from qmcool.errors import ValidationError
from qmcool.tomo import apply_chi, effect_fidelity, pauli_basis

from helpers import random_density, random_rotated_basis


def test_default_probes_counts():
    one = default_probes(1)
    two = default_probes(2)
    assert len(one.states) == 4
    assert len(two.states) == 16
    for rho in list(one.states) + list(two.states):
        assert rho.trace().real == pytest.approx(1.0, abs=1e-12)


def test_pauli_basis_sizes():
    labels1, mats1 = pauli_basis(1)
    labels2, mats2 = pauli_basis(2)
    assert len(labels1) == len(mats1) == 4
    assert len(labels2) == len(mats2) == 16
    assert labels1 == ["I", "X", "Y", "Z"]
    assert labels2[0] == "II" and labels2[5] == "XX"
    assert all(m.shape == (2, 2) for m in mats1)
    assert all(m.shape == (4, 4) for m in mats2)
    with pytest.raises(ValueError):
        pauli_basis(3)


def test_chi_of_identity_channel():
    ident = KrausChannel(operators=(np.eye(2, dtype=complex),))
    chi = chi_from_kraus(ident)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(chi, expected, atol=1e-14)


def test_chi_trace_is_one_for_cptp():
    for omega, beta in ((0.18, 1.0), (1.02, 0.4), (0.86, 2.5)):
        chi = chi_from_kraus(thermalizing_channel(QubitSpec(omega), BathSpec(beta)))
        assert chi.trace().real == pytest.approx(1.0, abs=1e-12)
        evals = np.linalg.eigvalsh(chi)
        assert evals.min() > -1e-12


def test_apply_chi_matches_apply_channel():
    rng = np.random.default_rng(41)
    ch = thermalizing_channel(QubitSpec(0.46), BathSpec(1.0))
    chi = chi_from_kraus(ch)
    for _ in range(20):
        rho = random_density(rng, 2)
        assert np.allclose(apply_chi(chi, rho), apply_channel(ch, rho), atol=1e-12)


def test_process_tomography_identity_exact():
    ident = KrausChannel(operators=(np.eye(2, dtype=complex),))
    chi = process_tomography(ident)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(chi, expected, atol=1e-10)


def test_process_tomography_thermal_exact():
    for omega, beta in ((0.02, 0.4), (0.18, 1.0), (1.02, 0.4), (1.28, 2.5)):
        ch = thermalizing_channel(QubitSpec(omega), BathSpec(beta))
        chi = process_tomography(ch)
        assert process_fidelity(chi, chi_from_kraus(ch)) == pytest.approx(1.0, abs=1e-10)


def test_process_tomography_two_qubit_callable():
    basis = canonical_basis()
    chi = process_tomography(
        lambda rho: measurement_channel(basis, rho), probes=default_probes(2))
    rng = np.random.default_rng(43)
    for _ in range(10):
        rho = random_density(rng, 4)
        assert np.allclose(apply_chi(chi, rho), measurement_channel(basis, rho), atol=1e-9)


def test_process_tomography_callable_needs_probes():
    with pytest.raises(ValueError):
        process_tomography(lambda rho: rho)


def test_process_tomography_shots_needs_seed():
    ch = thermalizing_channel(QubitSpec(0.18), BathSpec(1.0))
    with pytest.raises(ValueError):
        process_tomography(ch, shots=100)


def test_process_tomography_shots_mostly_accurate():
    ch = thermalizing_channel(QubitSpec(0.18), BathSpec(1.0))
    target = chi_from_kraus(ch)
    good = 0
    for seed in range(20):
        chi = process_tomography(ch, shots=10000, seed=seed)
        if process_fidelity(chi, target) >= 0.98:
            good += 1
    assert good >= 19


def test_process_tomography_shots_chi_is_psd_and_raw_kept():
    ch = thermalizing_channel(QubitSpec(0.18), BathSpec(1.0))
    chi, raw = process_tomography(ch, shots=200, seed=1, return_raw=True)
    evals = np.linalg.eigvalsh(chi)
    assert evals.min() > -1e-12
    assert chi.trace().real == pytest.approx(1.0, abs=1e-10)
    # the clipped result is exactly the eigenvalue-floored, renormalized raw
    w, v = np.linalg.eigh(raw)
    rebuilt = (v * np.clip(w, 0.0, None)) @ v.conj().T
    rebuilt = rebuilt / rebuilt.trace().real
    assert np.allclose(chi, rebuilt, atol=1e-12)


def test_process_tomography_error_decreases_with_shots():
    ch = thermalizing_channel(QubitSpec(0.46), BathSpec(0.4))
    target = chi_from_kraus(ch)
    medians = []
    for shots in (100, 1000, 10000):
        errs = []
        for seed in range(9):
            chi = process_tomography(ch, shots=shots, seed=seed)
            errs.append(np.linalg.norm(chi - target))
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]


def test_process_tomography_deterministic():
    ch = thermalizing_channel(QubitSpec(0.18), BathSpec(1.0))
    a = process_tomography(ch, shots=500, seed=7)
    b = process_tomography(ch, shots=500, seed=7)
    assert np.array_equal(a, b)


def test_measurement_tomography_exact_canonical():
    basis = canonical_basis()
    effects = measurement_tomography(basis)
    for k in range(4):
        assert np.allclose(effects[k], basis.projector(k), atol=1e-10)


def test_measurement_tomography_exact_noisy_povm():
    povm = white_noise_povm(canonical_basis(), 0.5)
    effects = measurement_tomography(povm)
    for est, true in zip(effects, povm.effects()):
        assert np.allclose(est, true, atol=1e-10)


def test_measurement_tomography_shots_haar_bases():
    fids = []
    for i in range(5):
        basis = random_rotated_basis(1234, i)
        effects = measurement_tomography(basis, shots=10000, seed=100 + i)
        for k in range(4):
            fids.append(effect_fidelity(effects[k], basis.projector(k)))
    assert np.mean(fids) >= 0.97


def test_effect_fidelity_of_zero_effect():
    # one shot per probe can leave no positive eigenvalue in an estimated effect
    effects = measurement_tomography(canonical_basis(), shots=1, seed=13)
    assert not effects[1].any()
    assert effect_fidelity(effects[1], canonical_basis().projector(1)) == 0.0
    with pytest.raises(ValidationError):
        effect_fidelity(-canonical_basis().projector(1), canonical_basis().projector(1))


def test_measurement_tomography_shots_raw_kept():
    effects, raw = measurement_tomography(
        canonical_basis(), shots=300, seed=5, return_raw=True)
    assert effects.shape == raw.shape == (4, 4, 4)
    for k in range(4):
        assert np.linalg.eigvalsh(effects[k]).min() > -1e-12


def test_measurement_tomography_rejects_rank_deficient_probes():
    from qmcool.tomo import ProbeSet
    rho = np.eye(4, dtype=complex) / 4
    probes = ProbeSet(states=(rho,) * 16, labels=("x",) * 16)
    with pytest.raises(ValueError):
        measurement_tomography(canonical_basis(), probes=probes)


def test_sample_counts_deterministic_distribution():
    counts = sample_counts(np.array([1.0, 0.0, 0.0, 0.0]), shots=500, seed=3)
    assert np.array_equal(counts, [500, 0, 0, 0])


def test_sample_counts_zero_shots():
    counts = sample_counts(np.array([0.25, 0.75]), shots=0, seed=3)
    assert np.array_equal(counts, [0, 0])


def test_sample_counts_reproducible():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    a = sample_counts(p, shots=1000, seed=11)
    b = sample_counts(p, shots=1000, seed=11)
    assert np.array_equal(a, b)
    assert a.sum() == 1000


def test_sample_counts_rejects_negative():
    with pytest.raises(ValueError):
        sample_counts(np.array([-0.2, 1.2]), shots=10, seed=0)


def test_sample_counts_concentration():
    p = np.array([0.25, 0.25, 0.25, 0.25])
    shots = 4000
    sigma = np.sqrt(shots * 0.25 * 0.75)
    bad = 0
    for seed in range(40):
        counts = sample_counts(p, shots=shots, seed=seed)
        if np.any(np.abs(counts - shots * 0.25) > 3 * sigma):
            bad += 1
    assert bad <= 2


@pytest.mark.parametrize("seed", [2**63 - 1, 2**63, -1, 1.5, "7", None])
def test_shot_noise_seed_range(seed):
    # numpy passes Philox keys >= 2**63 through float64 (2**63 and 2**63 + 1
    # alias) and casts -1 with a warning; int() would alias 1.5 and "7"
    channel = thermalizing_channel(QubitSpec(0.18), BathSpec(1.0))
    for run in (lambda: sample_counts(np.array([0.5, 0.5]), shots=10, seed=seed),
                lambda: process_tomography(channel, shots=10, seed=seed),
                lambda: measurement_tomography(canonical_basis(), shots=10, seed=seed)):
        if seed == 2**63 - 1:
            run()
        else:
            pytest.raises(ValidationError, run)
