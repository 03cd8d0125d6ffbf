"""Tomography layer: chi matrices, probe states, shot noise, fidelities."""

import numpy as np
import pytest

from qmcool import (
    BathSpec,
    KrausChannel,
    QubitSpec,
    canonical_basis,
    chi_from_kraus,
    measurement_tomography,
    process_fidelity,
    process_tomography,
    thermalizing_channel,
    white_noise_povm,
)
from qmcool.errors import ValidationError
from qmcool.tomo import (
    _EFFECT_DESIGN,
    _PAULIS,
    _PROBES,
    _PROCESS_DESIGN,
    _estimate_states,
    effect_fidelity,
)

from helpers import (
    apply_channel,
    apply_chi,
    fresh_stream,
    looped_estimate_state,
    looped_paulis,
    looped_process_design,
    random_density,
    random_rotated_basis,
)


def test_default_probes_counts():
    # the one fixed probe set of each kind, built at import, by operator dimension
    one, two = _PROBES[2], _PROBES[4]
    assert one.shape == (4, 2, 2)
    assert two.shape == (16, 4, 4)
    for rho in list(one) + list(two):
        assert rho.trace().real == pytest.approx(1.0, abs=1e-12)
    # qubit 1 is the slow index of the two-qubit products
    assert np.array_equal(two, [np.kron(a, b) for a in one for b in one])


def test_pauli_basis_sizes():
    # the stacks built at import, by operator dimension, in I, X, Y, Z order, qubit 1 slow
    assert _PAULIS[2].shape == (4, 2, 2)
    assert _PAULIS[4].shape == (16, 4, 4)
    assert np.array_equal(_PAULIS[2], looped_paulis(2))
    assert np.array_equal(_PAULIS[4], looped_paulis(4))


def test_process_design_matches_looped_reference():
    assert np.array_equal(_PROCESS_DESIGN, looped_process_design(_PROBES[2]))


def test_designs_are_square_and_full_rank():
    # the fixed designs replace the per-call rank checks: every solve is determined
    paulis = looped_paulis(4)
    design = np.array([[np.trace(probe @ g).real for g in paulis] for probe in _PROBES[4]])
    assert np.array_equal(_EFFECT_DESIGN, design)
    for a in (_PROCESS_DESIGN, _EFFECT_DESIGN):
        assert a.shape == (16, 16)
        assert np.linalg.matrix_rank(a) == 16


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("seed", [1, 3, 7])
def test_estimate_state_matches_looped_reference(dim, seed):
    # a (target, probe) stack: every target draws from probe j's stream at counter 0,
    # what a freshly built stream of key [seed, j] draws
    rng = np.random.default_rng(seed)
    sigmas = np.array([[random_density(rng, dim) for _ in range(2)] for _ in range(3)])
    for shots in (1, 100, 10000):
        got = _estimate_states(sigmas, shots, seed)
        for t, j in np.ndindex(3, 2):
            want = looped_estimate_state(sigmas[t, j], shots, fresh_stream(seed, j))
            assert np.array_equal(got[t, j], want)


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


def test_process_tomography_rejects_two_qubit_channel(monkeypatch):
    ch = KrausChannel(operators=(np.eye(4, dtype=complex),))
    with pytest.raises(ValidationError, match="single-qubit"):
        process_tomography(ch)
    # a callable's 4x4 output reached lstsq as numpy's LinAlgError
    with pytest.raises(ValidationError, match="KrausChannel"):
        process_tomography(lambda r: np.eye(4) / 4)
    # a NaN residual used to pass the exact-mode check and return a NaN chi; here the
    # solve itself returns NaN
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda a, b, rcond=None: (np.full(b.shape, np.nan, dtype=complex),))
    with pytest.raises(ValidationError, match="channel: exact-mode reconstruction residual nan"):
        process_tomography(thermalizing_channel(QubitSpec(0.18), BathSpec(1.0)))


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
    chi = process_tomography(ch, shots=200, seed=1)
    evals = np.linalg.eigvalsh(chi)
    assert evals.min() > -1e-12
    assert chi.trace().real == pytest.approx(1.0, abs=1e-10)
    # the clipped result is exactly the eigenvalue-floored, renormalized pre-clip
    # fit, rebuilt from the looped design and estimates on the same probe streams
    probes = _PROBES[2]
    outputs = [looped_estimate_state(apply_channel(ch, probe), 200, fresh_stream(1, j))
               for j, probe in enumerate(probes)]
    raw = np.linalg.lstsq(looped_process_design(probes), np.stack(outputs).reshape(-1),
                          rcond=None)[0].reshape(4, 4)
    raw = 0.5 * (raw + raw.conj().T)
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
    # one shot per probe can leave no positive eigenvalue in an estimated effect; about
    # one seed in 50 does, so the test takes the first from 13 on, under any stream
    for seed in range(13, 1013):
        effects = measurement_tomography(canonical_basis(), shots=1, seed=seed)
        zero = [k for k in range(4) if not effects[k].any()]
        if zero:
            break
    k = zero[0]
    assert effect_fidelity(effects[k], canonical_basis().projector(k)) == 0.0
    with pytest.raises(ValidationError):
        effect_fidelity(-canonical_basis().projector(1), canonical_basis().projector(1))


def test_measurement_tomography_shots_raw_kept():
    basis = canonical_basis()
    effects = measurement_tomography(basis, shots=300, seed=5)
    assert effects.shape == (4, 4, 4)
    for k in range(4):
        assert np.linalg.eigvalsh(effects[k]).min() > -1e-12
    # each effect is its pre-clip least-squares fit floored at zero, the fit
    # rebuilt here from the multinomial counts of the same probe streams
    probes, paulis = _PROBES[4], looped_paulis(4)
    design = np.array([[np.trace(probe @ g).real for g in paulis] for probe in probes])
    freqs = np.array([[np.trace(basis.projector(k) @ probe).real for k in range(4)]
                      for probe in probes]).clip(0.0, None)
    counts = np.stack([fresh_stream(5, j).multinomial(300, f / f.sum())
                       for j, f in enumerate(freqs)])
    coeffs = np.linalg.lstsq(design, counts / 300, rcond=None)[0]
    for k, effect in enumerate(effects):
        raw = sum(c * g for c, g in zip(coeffs[:, k], paulis))
        w, v = np.linalg.eigh(0.5 * (raw + raw.conj().T))
        assert np.allclose(effect, (v * np.clip(w, 0.0, None)) @ v.conj().T, atol=1e-12)


def test_process_fidelity_rejects_shape_mismatch():
    with pytest.raises(ValidationError, match="shape mismatch"):
        process_fidelity(np.eye(4) / 4, np.eye(16) / 16)


@pytest.mark.parametrize("seed", [2**63 - 1, 2**63, -1, 1.5, "7", None])
def test_shot_noise_seed_range(seed):
    # seeds stay in [0, 2**63 - 1], the range of every integer input; int() would
    # alias 1.5 and "7"
    channel = thermalizing_channel(QubitSpec(0.18), BathSpec(1.0))
    for run in (lambda: process_tomography(channel, shots=10, seed=seed),
                lambda: measurement_tomography(canonical_basis(), shots=10, seed=seed)):
        if seed == 2**63 - 1:
            run()
        else:
            pytest.raises(ValidationError, run)
    if seed == 2**63 - 1:
        # shot counts are checked, not truncated: 10.7 would count 10 and divide by 10.7,
        # and 0 shots made the measurement fit singular
        for shots in (10.7, -1, True, "10", 0):
            pytest.raises(ValidationError, process_tomography, channel, shots=shots, seed=seed)
            pytest.raises(ValidationError, measurement_tomography, canonical_basis(),
                          shots=shots, seed=seed)
