"""Engine layer: cycle energetics, classification, regimes, Haar statistics."""

import numpy as np
import pytest

from qmcool import (
    EngineConfig,
    HaarSampler,
    RegimeLabel,
    SecondLawViolation,
    ValidationError,
    apply_povm,
    canonical_basis,
    classify,
    critical_visibility,
    depolarizing_prediction,
    energy_changes,
    frequency_sweep,
    haar_average_report,
    haar_unitaries,
    haar_unitary,
    hom_noisy_channel,
    initial_state,
    measurement_channel,
    noise_sweep,
    regime,
    rotate_basis,
    run_cycle,
    thermalizing_channel,
    white_noise_povm,
)
from qmcool.engine import _haar_triples

from helpers import (
    EXPECTED_CLASSES,
    EXPECTED_TRIPLES,
    EXPERIMENT_OMEGA2,
    bisect_critical_visibility,
    closed_form_triple,
    kron_initial_state,
    partial_trace_energy_changes,
    per_row_haar_triples,
    random_density,
    random_engine_config,
    random_rotated_basis,
    reference_config,
)


def test_engine_config_requires_bath_ordering():
    with pytest.raises(ValidationError):
        EngineConfig.from_values(1.02, 0.18, 1.0, 0.4)
    with pytest.raises(ValidationError):
        EngineConfig.from_values(1.02, 0.18, 1.0, 1.0)


def test_run_cycle_frozen_grid():
    for omega2, label in zip(EXPERIMENT_OMEGA2, EXPECTED_CLASSES):
        cfg = reference_config(omega2)
        report = run_cycle(cfg)
        de1, de2 = EXPECTED_TRIPLES[omega2]
        assert report.dE1 == pytest.approx(de1, abs=1e-12)
        assert report.dE2 == pytest.approx(de2, abs=1e-12)
        assert report.dE == pytest.approx(de1 + de2, abs=1e-12)
        assert report.classification == label


def test_run_cycle_matches_closed_form_everywhere():
    rng = np.random.default_rng(19)
    for _ in range(50):
        cfg = random_engine_config(rng)
        report = run_cycle(cfg)
        de1, de2, de = closed_form_triple(cfg)
        assert report.dE1 == pytest.approx(de1, abs=1e-12)
        assert report.dE2 == pytest.approx(de2, abs=1e-12)
        assert report.dE == pytest.approx(de, abs=1e-12)


def test_run_cycle_energy_additivity():
    rng = np.random.default_rng(21)
    for i in range(25):
        cfg = random_engine_config(rng)
        basis = rotate_basis(haar_unitary(HaarSampler(500 + i)), canonical_basis())
        report = run_cycle(cfg, measurement=basis)
        assert report.dE == pytest.approx(report.dE1 + report.dE2, abs=1e-12)


def test_computational_basis_is_trivial_cycle():
    from qmcool import MeasurementBasis
    basis = MeasurementBasis(vectors=np.eye(4, dtype=complex))
    report = run_cycle(reference_config(0.18), measurement=basis)
    assert report.dE1 == pytest.approx(0.0, abs=1e-14)
    assert report.dE2 == pytest.approx(0.0, abs=1e-14)
    assert report.classification == "H"


def test_classify_examples():
    assert classify(0.0284, -0.0050, 0.0234) == "R"
    assert classify(-0.0063, 0.0028, -0.0035) == "E"
    assert classify(-0.0763, 0.0823, 0.0060) == "A"
    assert classify(0.01, 0.02, 0.03) == "H"
    assert classify(0.0, 0.0, 0.0) == "H"
    assert classify(1e-15, -1e-15, 0.0) == "H"


def test_classify_rejects_inconsistent_sum():
    for triple, eps in (((0.1, 0.1, 0.5), 1e-12), ((0.1, 0.1, 0.5), 1e-320),
                        ((1e300, 1e300, 3e300), 1e-12)):
        with pytest.raises(ValidationError):
            classify(*triple, eps=eps)


def test_classify_allows_rounding_of_the_sum():
    # dE is one rounded addition; at this scale its error exceeds the default eps
    de1, de2 = 0.0478 * 1e300, -0.00096
    assert classify(de1, de2, de1 + de2) == "R"
    assert classify(0.0488, -0.00096, 0.0488 - 0.00096, eps=1e-320) == "R"


def test_classify_rejects_impossible_triple():
    with pytest.raises(ValidationError):
        classify(-1.0, -1.0, -2.0)


def test_classify_priority_refrigerator_over_heater():
    # both qubits gaining with qubit 2 losing is R even though dE > 0 elsewhere
    assert classify(0.05, -0.001, 0.049) == "R"


def test_regime_labels():
    cfg = reference_config(0.18)
    assert regime(cfg) is RegimeLabel.R_RANGE
    assert regime(reference_config(0.46)) is RegimeLabel.E_RANGE
    assert regime(reference_config(1.10)) is RegimeLabel.A_RANGE
    assert regime(cfg).value == "R-range"


def test_regime_boundaries():
    # ratio omega2/omega1 == beta1/beta2 -> refrigerator range boundary
    cfg = EngineConfig.from_values(1.0, 0.4, 0.4, 1.0)
    assert regime(cfg) is RegimeLabel.R_RANGE
    cfg = EngineConfig.from_values(1.0, 1.0, 0.4, 1.0)
    assert regime(cfg) is RegimeLabel.E_RANGE
    cfg = EngineConfig.from_values(1.0, 1.0 + 1e-9, 0.4, 1.0)
    assert regime(cfg) is RegimeLabel.A_RANGE


def test_energy_flow_sign_flips_at_equal_pull():
    # tanh(b1 w1 / 2) == tanh(b2 w2 / 2) kills the flow entirely
    cfg = EngineConfig.from_values(1.0, 0.4, 0.4, 1.0)
    report = run_cycle(cfg)
    assert report.dE1 == pytest.approx(0.0, abs=1e-14)
    assert report.dE2 == pytest.approx(0.0, abs=1e-14)
    assert report.classification == "H"
    below = run_cycle(EngineConfig.from_values(1.0, 0.39, 0.4, 1.0))
    above = run_cycle(EngineConfig.from_values(1.0, 0.41, 0.4, 1.0))
    assert below.dE1 > 0 and below.dE2 < 0
    assert above.dE1 < 0 and above.dE2 > 0


def test_energy_changes_consistent_with_run_cycle():
    cfg = reference_config(0.18)
    rho = initial_state(cfg)
    post = measurement_channel(canonical_basis(), rho)
    de1, de2, de = energy_changes(cfg, post)
    report = run_cycle(cfg)
    assert de1 == pytest.approx(report.dE1, abs=1e-14)
    assert de2 == pytest.approx(report.dE2, abs=1e-14)
    assert de == pytest.approx(report.dE, abs=1e-14)


def test_energy_changes_match_partial_traces():
    bases = [rotate_basis(u, canonical_basis()) for u in haar_unitaries(HaarSampler(29), 50)]
    rng = np.random.default_rng(31)
    for omega2 in EXPERIMENT_OMEGA2:
        cfg = reference_config(omega2)
        rho = initial_state(cfg)
        posts = [measurement_channel(b, rho) for b in bases]
        posts += [apply_povm(white_noise_povm(b, nu), rho) for b in bases[:10]
                  for nu in (0.2, 0.6)]
        posts += [hom_noisy_channel(b, nu, rho) for b in bases[:10] for nu in (0.0, 0.5, 1.0)]
        posts += [random_density(rng, 4) for _ in range(20)]
        for post in posts:
            assert np.max(np.abs(np.subtract(energy_changes(cfg, post),
                                             partial_trace_energy_changes(cfg, post)))) <= 1e-14


def _experiment_configs():
    return [reference_config(omega2) for omega2 in EXPERIMENT_OMEGA2]


@pytest.mark.parametrize("seed", [1, 7])
def test_haar_triples_match_per_row_kernel(seed):
    cfgs = _experiment_configs()
    triples = _haar_triples(cfgs, 2000, seed)
    assert triples.shape == (len(cfgs), 2000, 3)
    for cfg, rows in zip(cfgs, triples):
        assert np.array_equal(rows, per_row_haar_triples(cfg, 2000, seed))


def test_haar_triples_rows_match_one_row_calls():
    cfgs = _experiment_configs()
    triples = _haar_triples(cfgs, 300, 5)
    for cfg, rows in zip(cfgs, triples):
        assert np.array_equal(rows, _haar_triples([cfg], 300, 5)[0])


def test_closed_form_kernel_matches_channel_path():
    # 30 Haar bases, shared by the 7 omega2 rows, through the measurement channel
    cfgs = _experiment_configs()
    us = haar_unitaries(HaarSampler(2718), 30)
    for cfg, rows in zip(cfgs, _haar_triples(cfgs, 30, 2718)):
        for triple, u in zip(rows, us):
            report = run_cycle(cfg, rotate_basis(u, canonical_basis()))
            assert np.allclose(triple, (report.dE1, report.dE2, report.dE), rtol=0, atol=1e-12)


def test_cycle_energy_samples_deterministic():
    cfgs = [reference_config()]
    a = _haar_triples(cfgs, 64, 4)[0]
    b = _haar_triples(cfgs, 64, 4)[0]
    assert np.array_equal(a, b)
    # sample i comes from its own substream, so a shorter draw is a prefix
    c = _haar_triples(cfgs, 32, 4)[0]
    assert np.allclose(a[:32], c, atol=1e-14)


def test_cycle_samples_triple_additivity():
    out = _haar_triples([reference_config()], 500, 21)[0]
    assert np.allclose(out[:, 2], out[:, 0] + out[:, 1], atol=1e-14)


def test_frequency_sweep_rows_sum_to_one():
    (est,) = frequency_sweep([reference_config(0.18)], seed=11, n_samples=2000)
    total = sum(est[label].frequency for label in ("R", "E", "A", "H"))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_frequency_sweep_deterministic():
    cfgs = [reference_config(0.14)]
    a = frequency_sweep(cfgs, seed=77, n_samples=1500)
    b = frequency_sweep(cfgs, seed=77, n_samples=1500)
    assert a == b


def test_frequency_sweep_no_refrigeration_outside_r_range():
    cfgs = [reference_config(omega2) for omega2 in (0.46, 0.86, 1.10)]
    for est in frequency_sweep(cfgs, seed=5, n_samples=4000):
        assert est["R"].frequency == 0.0


def test_frequency_sweep_stderr():
    (est,) = frequency_sweep([reference_config(0.02)], seed=3, n_samples=5000)
    f, se = est["R"]
    assert se == pytest.approx(np.sqrt(f * (1 - f) / 5000), abs=1e-12)


def test_haar_average_matches_depolarizing_prediction():
    cfg = reference_config(0.18)
    (report,) = haar_average_report([cfg], seed=13, n_samples=4000)
    pred1, pred2, _ = depolarizing_prediction(cfg)
    assert pred1 == pytest.approx(0.08209630715383999, abs=1e-12)
    assert report.predicted_dE1 == pytest.approx(pred1, abs=1e-15)
    assert report.predicted_dE2 == pytest.approx(pred2, abs=1e-15)
    assert abs(report.mean_dE1 - pred1) < 5 * report.stderr_dE1
    assert abs(report.mean_dE2 - pred2) < 5 * report.stderr_dE2
    assert report.classification == "H"
    assert report.mean_dE1 > 0 and report.mean_dE2 > 0


def test_critical_visibility_frozen_reference():
    cfg = reference_config(0.18)
    nu_c = critical_visibility(cfg)
    assert nu_c == pytest.approx(0.441558837890625, abs=2e-4)


def test_critical_visibility_decreases_with_omega2():
    values = [critical_visibility(reference_config(w)) for w in (0.18, 0.14, 0.06, 0.02)]
    assert all(v is not None for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("omega2", [0.02, 0.06, 0.14, 0.18])
def test_critical_visibility_matches_bisection(omega2):
    cfg = reference_config(omega2)
    assert critical_visibility(cfg) == pytest.approx(bisect_critical_visibility(cfg), abs=1e-9)


def test_critical_visibility_none_outside_r_range():
    for omega2 in (0.46, 0.86, 1.10):
        cfg = reference_config(omega2)
        assert critical_visibility(cfg) is None
        assert bisect_critical_visibility(cfg) is None


def test_run_cycle_check_reset():
    # stroke 2, both thermalizing channels, restores the Gibbs product exactly
    cfg = reference_config(0.18)
    kraus = [np.kron(k1, k2) for k1 in thermalizing_channel(cfg.qubit1, cfg.bath1).operators
             for k2 in thermalizing_channel(cfg.qubit2, cfg.bath2).operators]
    rho = initial_state(cfg)
    for basis in (canonical_basis(), random_rotated_basis(53)):
        post = measurement_channel(basis, rho)
        reset = sum(k @ post @ k.conj().T for k in kraus)
        assert np.max(np.abs(reset - rho)) <= 1e-12
    assert run_cycle(cfg).classification == "R"


def _label(triple):
    try:
        return classify(*triple)
    except ValidationError:
        return "none"


@pytest.mark.parametrize("omega2", EXPERIMENT_OMEGA2)
def test_noise_sweep_matches_general_path(omega2):
    cfg = reference_config(omega2)
    rho = initial_state(cfg)
    nus = (0.0, 0.01, 0.37, 0.5, 1.0)
    bases = [canonical_basis()]
    bases += [rotate_basis(u, canonical_basis()) for u in haar_unitaries(HaarSampler(43), 20)]
    for basis in bases:
        rows, _ = noise_sweep(cfg, nus, basis)
        assert [row[0] for row in rows] == list(nus)
        for nu, white, interf in rows:
            for got, post in ((white, apply_povm(white_noise_povm(basis, nu), rho)),
                              (interf, hom_noisy_channel(basis, nu, rho))):
                want = energy_changes(cfg, post)
                assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
                assert _label(got) == _label(want)


def test_noise_sweep_rejects_weight_outside_unit_interval():
    for nus in ((0.5, 1.5), (-0.1,), (float("nan"),)):
        with pytest.raises(ValidationError):
            noise_sweep(reference_config(0.18), nus)


def test_initial_state_matches_kron_of_gibbs_states():
    rng = np.random.default_rng(37)
    configs = [random_engine_config(rng) for _ in range(200)]
    for _ in range(2000):
        omega1, omega2, beta1, beta2 = 10.0 ** rng.uniform(-300, 300, 4)
        if beta1 != beta2:
            configs.append(EngineConfig.from_values(omega1, omega2, *sorted((beta1, beta2))))
    with np.errstate(over="ignore"):  # beta*omega may overflow; tanh(inf) = 1 exactly
        for cfg in configs:
            got = initial_state(cfg)
            assert got.dtype == np.complex128
            assert np.array_equal(got, kron_initial_state(cfg))


def test_run_cycle_white_noise_classification_invariant():
    for omega2 in (0.02, 0.18, 0.46, 1.10):
        cfg = reference_config(omega2)
        ideal = run_cycle(cfg)
        for nu in (0.25, 0.6, 1.0):
            povm = white_noise_povm(canonical_basis(), nu)
            noisy = run_cycle(cfg, measurement=povm)
            assert noisy.classification == ideal.classification


def test_run_cycle_callable_measurement():
    cfg = reference_config(0.18)
    out = run_cycle(cfg, measurement=lambda rho: measurement_channel(canonical_basis(), rho))
    ref = run_cycle(cfg)
    assert out.dE1 == pytest.approx(ref.dE1, abs=1e-14)


def test_run_cycle_raises_on_entropy_pumping_map():
    # a map that dumps everything into the joint ground state extracts heat
    # from both baths at once, which no unital measurement channel can do
    ground = np.zeros((4, 4), dtype=complex)
    ground[0, 0] = 1.0
    with pytest.raises(SecondLawViolation):
        run_cycle(reference_config(0.18), measurement=lambda rho: ground)


def test_second_law_slack_nonnegative_for_measurements():
    rng = np.random.default_rng(99)
    for i in range(100):
        cfg = random_engine_config(rng)
        basis = rotate_basis(haar_unitary(HaarSampler(7000 + i)), canonical_basis())
        report = run_cycle(cfg, measurement=basis)
        assert report.second_law_slack >= -1e-10
