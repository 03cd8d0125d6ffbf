"""Engine layer: cycle energetics, classification, regimes, Haar statistics."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmcool import engine
from qmcool import (
    BathSpec,
    EngineConfig,
    HaarSampler,
    MeasurementBasis,
    PovmSet,
    QubitSpec,
    RegimeLabel,
    SecondLawViolation,
    ValidationError,
    canonical_basis,
    classify,
    critical_visibility,
    depolarizing_prediction,
    frequency_sweep,
    haar_average_report,
    haar_unitaries,
    haar_unitary,
    measurement_tomography,
    noise_sweep,
    regime,
    rotate_basis,
    run_cycle,
    thermalizing_channel,
    white_noise_povm,
)
from qmcool.measure import haar_planes

from helpers import (
    EXPECTED_CLASSES,
    EXPECTED_TRIPLES,
    EXPERIMENT_OMEGA2,
    apply_povm,
    bisect_critical_visibility,
    chunked_haar_triples,
    closed_form_triple,
    decimal_canonical_noise,
    decimal_canonical_nu_c,
    decimal_canonical_triple,
    energy_changes,
    gauged_unitaries,
    hom_noisy_channel,
    initial_state,
    kron_initial_state,
    looped_noise_rows,
    measurement_channel,
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
    triples = chunked_haar_triples(cfgs, 2000, seed)
    assert triples.shape == (len(cfgs), 2000, 3)
    for cfg, rows in zip(cfgs, triples):
        assert np.array_equal(rows, per_row_haar_triples(cfg, 2000, seed))


def test_column_sums_equal_the_rotated_canonical_basis_product():
    us = haar_unitaries(HaarSampler(37), 2**14)
    big_p = engine._canonical_p(haar_planes(HaarSampler(37), 2**14))
    want = np.abs(us @ canonical_basis().vectors.T) ** 2
    assert np.max(np.abs(big_p.transpose(2, 1, 0) - want)) <= 1e-15  # planes to (sample, r, k)


def test_the_derived_last_column_is_the_squared_last_column_of_u():
    # the engine forms P's last column as 1 - (the first three), never from column 3 of
    # its U, the gauged draw's, whose first three columns it has bit for bit
    n = 10**5
    u3 = gauged_unitaries(1, n)[..., 3].T  # (row, sample)
    big_p = engine._canonical_p(haar_planes(HaarSampler(1), n))
    assert np.max(np.abs(big_p[3] - (u3.real**2 + u3.imag**2))) <= 1e-15
    assert np.min(big_p[3]) > 0  # so the clip at 0 acts nowhere on this draw


def test_haar_triples_rows_match_one_row_calls():
    cfgs = _experiment_configs()
    triples = chunked_haar_triples(cfgs, 300, 5)
    for cfg, rows in zip(cfgs, triples):
        assert np.array_equal(rows, chunked_haar_triples([cfg], 300, 5)[0])


def test_closed_form_kernel_matches_channel_path():
    # 30 Haar bases, shared by the 7 omega2 rows, through the measurement channel
    cfgs = _experiment_configs()
    us = haar_unitaries(HaarSampler(2718), 30)
    for cfg, rows in zip(cfgs, chunked_haar_triples(cfgs, 30, 2718)):
        for triple, u in zip(rows, us):
            report = run_cycle(cfg, rotate_basis(u, canonical_basis()))
            assert np.allclose(triple, (report.dE1, report.dE2, report.dE), rtol=0, atol=1e-12)


def test_run_cycle_on_a_basis_matches_the_channel_oracle():
    # 10^4 Haar bases, one omega2 row after another as in the API loop of single
    # draws; the oracle builds the full post state and reads its diagonal
    cfgs = _experiment_configs()
    canonical = canonical_basis()
    worst = 0.0
    for i, u in enumerate(haar_unitaries(HaarSampler(31), 10**4)):
        cfg, basis = cfgs[i % len(cfgs)], rotate_basis(u, canonical)
        report = run_cycle(cfg, basis)
        oracle = energy_changes(cfg, measurement_channel(basis, initial_state(cfg)))
        worst = max(worst, np.max(np.abs(np.subtract((report.dE1, report.dE2, report.dE), oracle))))
    assert worst <= 1e-14


def _random_povm(rng):
    """Four operators stacked from a random 16x4 isometry W: sum_k M_k^dag M_k = W^dag W = I."""
    w, _ = np.linalg.qr(rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4)))
    return PovmSet(w.reshape(4, 4, 4))


def test_run_cycle_on_a_povm_matches_the_density_oracle():
    # the oracle builds the full post state sum_k M_k rho M_k^dag and reads its diagonal
    rng = np.random.default_rng(61)
    bases = [canonical_basis()] + [rotate_basis(u, canonical_basis())
                                   for u in haar_unitaries(HaarSampler(67), 20)]
    povms = [white_noise_povm(basis, nu) for basis in bases for nu in (0.0, 0.3, 0.7, 1.0)]
    povms += [_random_povm(rng) for _ in range(50)]
    worst, breaches = 0.0, 0
    for povm in povms:
        for cfg in _experiment_configs():
            de1, de2, de = energy_changes(cfg, apply_povm(povm, initial_state(cfg)))
            if cfg.bath1.beta * de1 + cfg.bath2.beta * de2 < engine.SLACK_FLOOR:
                breaches += 1
                with pytest.raises(SecondLawViolation):
                    run_cycle(cfg, povm)
                continue
            report = run_cycle(cfg, povm)
            worst = max(worst, np.max(np.abs(np.subtract((report.dE1, report.dE2, report.dE),
                                                         (de1, de2, de)))))
    assert worst <= 1e-14
    assert 0 < breaches < 7 * len(povms)


def test_run_cycle_rejects_a_povm_that_loses_trace():
    # complete to 1e-11, within the POVM's own check, but a post state's trace must
    # hold to 1e-12
    povm = PovmSet(white_noise_povm(canonical_basis(), 0.5).operators * np.sqrt(1.0 + 1e-11))
    with pytest.raises(ValidationError, match="trace"):
        run_cycle(reference_config(0.18), povm)


def test_run_cycle_on_a_basis_checks_the_kernel_triple(monkeypatch):
    # heat out of both baths: beta1*dE1 + beta2*dE2 < 0 whatever the betas
    monkeypatch.setattr(engine, "_row_dot", lambda row, entries: -1e-3)
    with pytest.raises(SecondLawViolation):
        run_cycle(reference_config(0.18), canonical_basis())


def test_cycle_energy_samples_deterministic():
    cfgs = [reference_config()]
    a = chunked_haar_triples(cfgs, 64, 4)[0]
    b = chunked_haar_triples(cfgs, 64, 4)[0]
    assert np.array_equal(a, b)
    # sample i reads its own slice of the seed's stream, so a shorter draw is a prefix
    c = chunked_haar_triples(cfgs, 32, 4)[0]
    assert np.allclose(a[:32], c, atol=1e-14)


def test_cycle_samples_triple_additivity():
    out = chunked_haar_triples([reference_config()], 500, 21)[0]
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
    # both rows of the canonical basis against the density-matrix oracles: the white-noise
    # POVM and the interference model's optical trains
    cfg = reference_config(omega2)
    rho, basis = initial_state(cfg), canonical_basis()
    nus = (0.0, 0.01, 0.37, 0.5, 1.0)
    triples, _ = noise_sweep([cfg], nus)
    assert triples.shape == (1, len(nus), 2, 3)
    for nu, (white, interf) in zip(nus, triples[0]):
        for got, post in ((white, apply_povm(white_noise_povm(basis, nu), rho)),
                          (interf, hom_noisy_channel(basis, nu, rho))):
            want = energy_changes(cfg, post)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
            assert _label(got) == _label(want)


# the omega2 of the benchmark's noise grid: eight R-range values, four E and two A
NOISE_GRID = (0.02, 0.06, 0.10, 0.14, 0.18, 0.26, 0.34, 0.40, 0.46, 0.60, 0.86, 1.00, 1.10, 1.40)


def test_noise_sweep_matches_the_looped_oracle():
    # The closed form and the density-matrix oracle round differently.  Measured on these
    # cases: |got - want| <= 2.0e-16 * (omega1 + omega2) everywhere (the populations round
    # at ~1e-16, and each energy is a population shift times h_i), <= 3.6e-15 of the
    # largest |dE| on the reference configs, and each nu_c zeroes the oracle's dE2 to
    # within 3.8e-17 * omega2 on the reference configs.  nu_c is
    # checked against the decimal references on every case, the 28 whose excited
    # populations both lie below the double range included: the oracle takes it from
    # rounded populations, and where an excited population lies below the rounding of 1
    # (e^-x < 1e-16) it gave 0 or a root 1.6e-7 off, and 0 where both underflow.
    rng = np.random.default_rng(2024)
    grid_nus = [round(0.01 * k, 2) for k in range(101)] + rng.random(50).tolist()
    cfgs = [reference_config(w2) for w2 in NOISE_GRID]
    n_reference = len(cfgs)
    # the edge configs of the CLI: a huge gap, two subnormal gaps, extreme temperatures
    cfgs += [EngineConfig.from_values(*v) for v in ((1.02, 1e308, 0.4, 1.0),
                                                     (1e-320, 1e-320, 0.4, 1.0),
                                                     (1.02, 0.18, 1e-300, 1e300))]
    while len(cfgs) < n_reference + 303:
        w1, w2, b1, b2 = 10.0 ** rng.uniform(-5, 5, 4)
        if b1 != b2:
            cfgs.append(EngineConfig.from_values(w1, w2, min(b1, b2), max(b1, b2)))
    for k, cfg in enumerate(cfgs):
        # the whole grid, and on every fifth case also none, one and two rows
        short = (grid_nus[k % 151:][:1], grid_nus[k % 150:][:2], ()) if k % 5 == 0 else ()
        for nus in (grid_nus, *short):
            triples, nu_c = noise_sweep([cfg], nus)
            want_rows, _ = looped_noise_rows(cfg, nus)
            want = np.array([(white, interf) for _, white, interf in want_rows]).reshape(-1, 2, 3)
            assert triples.shape == (1, len(nus), 2, 3)
            assert np.array_equal(np.isnan(triples[0]), np.isnan(want))
            err = np.abs(triples[0] - want)  # nan where both are nan, and nan > x is False
            assert not np.any(err > 1e-15 * (cfg.qubit1.omega + cfg.qubit2.omega))
            if k < n_reference:
                assert not np.any(err > 1e-14 * np.max(np.abs(want), initial=0.0))
            _check_nu_c_against_decimal(cfg, nu_c[0])
        if nu_c[0] is not None and k < n_reference:
            [(_, _, interf)], _ = looped_noise_rows(cfg, [nu_c[0]])
            assert abs(interf[1]) <= 1e-15 * cfg.qubit2.omega


def _check_nu_c_against_decimal(cfg, nu_c):
    """nu_c of the canonical basis against decimal_canonical_nu_c, to 1e-14, and that
    closed form against the model itself, decimal_canonical_noise, where both x_i <= 700.
    The closed form subtracts no number of order 1; the model subtracts numbers of order 1
    to find differences of order q_i and x_i, so it carries enough digits for both."""
    xs = (cfg.bath1.beta * cfg.qubit1.omega, cfg.bath2.beta * cfg.qubit2.omega)
    digits = 40 + int(max(abs(math.log10(x)) for x in xs))
    want = decimal_canonical_nu_c(cfg, digits)
    if max(xs) <= 700:
        _, model = decimal_canonical_noise(cfg, (), digits + int(0.4343 * max(xs)))
        assert (model is None) == (want is None), (cfg, model, want)
        assert want is None or abs(model - want) <= 1e-15, (cfg, model, want)
    assert (nu_c is None) == (want is None), (cfg, nu_c, want)
    if want is not None:
        assert abs(nu_c - want) <= 1e-14, (cfg, nu_c, want)


def test_critical_visibility_matches_decimal_reference():
    # 2000 log-uniform configs, all checked; on 1097 both x_i <= 700, and on 134 both
    # excited populations lie below the double range, where nu_c is (1 + e^(x2 - x1))/2
    # or None.  Measured: nu_c within 2.3e-16 of the reference on the 523 with a root,
    # and None exactly where it is None.
    rng = np.random.default_rng(2025)
    for _ in range(2000):
        w1, w2, b1, b2 = 10.0 ** rng.uniform(-5, 5, 4)
        if b1 != b2:
            cfg = EngineConfig.from_values(w1, w2, min(b1, b2), max(b1, b2))
            _check_nu_c_against_decimal(cfg, critical_visibility(cfg))


def test_critical_visibility_below_the_double_range_takes_the_exact_gap():
    # both excited populations below the double range and x1 - x2 in [-5, 40]: nu_c is
    # (1 + e^(x2 - x1))/2 or None, to 1e-14 (measured: 1.2e-16, 269 with a root).  With
    # x_i ~ 1e12 each rounded product is off by up to ~1e-4, which e^(x2 - x1) would
    # carry whole
    rng = np.random.default_rng(31)
    for _ in range(300):
        x2 = 10.0 ** rng.uniform(3, 12)
        b1, b2 = sorted(10.0 ** rng.uniform(-3, 3, 2))
        cfg = EngineConfig.from_values((x2 + rng.uniform(-5, 40)) / b1, x2 / b2, b1, b2)
        _check_nu_c_against_decimal(cfg, critical_visibility(cfg))


def test_exact_gap_is_exact():
    # g/den = beta1*omega1 - beta2*omega2 in rational arithmetic across the double range,
    # subnormals and the largest double included, and critical_visibility and regime, which
    # read its sign, raise nothing there.  The configs are left unvalidated, as some sets
    # have beta1 >= beta2; the gap reads only the four values
    rng = np.random.default_rng(5)
    big = 1.7976931348623157e308
    values = (10.0 ** rng.uniform(-323, 308, (3000, 4))).tolist()
    values += [[5e-324, big, big, big], [big, big, 5e-324, 5e-324], [0.5, 3.0, 1.0, 1.5],
               [5e-324, 3.0, 5e-324, 3.0], [1e-300, 1e-20, 1e-300, 1.0000000000000002e-20]]
    for b1, w1, b2, w2 in values:
        cfg = SimpleNamespace(qubit1=QubitSpec(w1), qubit2=QubitSpec(w2),
                              bath1=BathSpec(b1), bath2=BathSpec(b2))
        g, den = engine._exact_gap(cfg)
        want = Fraction(b1) * Fraction(w1) - Fraction(b2) * Fraction(w2)
        assert Fraction(g, den) == want
        nu_c = critical_visibility(cfg)
        assert (nu_c is None) == (want < 0)
        assert nu_c is None or 0.0 <= nu_c <= 1.0
        assert (regime(cfg) is RegimeLabel.R_RANGE) == (want >= 0)


def test_regime_is_r_range_exactly_where_nu_c_exists():
    # omega2 = fl(beta1*omega1/beta2) and its two float neighbours straddle the R boundary
    # beta1*omega1 = beta2*omega2.  regime reads the sign of the exact gap that decides
    # whether nu_c exists; the rounded ratios omega2/omega1 <= beta1/beta2 it compared
    # before disagreed with nu_c on 5093 of these 30000 configs
    rng = np.random.default_rng(7)
    in_r = 0
    for _ in range(10_000):
        w1, b1, b2 = 10.0 ** rng.uniform(-3, 3, 3)
        b1, b2 = min(b1, b2), max(b1, b2)
        w2 = b1 * w1 / b2
        for omega2 in (math.nextafter(w2, 0.0), w2, math.nextafter(w2, math.inf)):
            cfg = EngineConfig.from_values(w1, omega2, b1, b2)
            label = regime(cfg)
            assert (label is RegimeLabel.R_RANGE) == (critical_visibility(cfg) is not None)
            exact = Fraction(b1) * Fraction(w1) >= Fraction(b2) * Fraction(omega2)
            assert (label is RegimeLabel.R_RANGE) == exact
            in_r += exact
    assert 10_000 <= in_r <= 20_000  # the lower neighbour is in R, the upper one is not


def test_white_row_at_full_weight_is_the_projective_triple():
    # c1(1) = 1.0, and the white rows and run_cycle both take the closed form N_M
    cfgs = [reference_config(w2) for w2 in NOISE_GRID]
    triples, _ = noise_sweep(cfgs, (0.3, 1.0))
    for cfg, rows in zip(cfgs, triples):
        report = run_cycle(cfg)
        assert rows[1, 0].tolist() == [report.dE1, report.dE2, report.dE]


def test_noise_sweep_rejects_weight_outside_unit_interval():
    for nus in ((0.5, 1.5), (-0.1,), (float("nan"),)):
        with pytest.raises(ValidationError):
            noise_sweep([reference_config(0.18)], nus)


def test_noise_sweep_of_no_configs_is_empty():
    # like frequency_sweep and haar_average_report, rather than a matmul shape error
    triples, nu_c = noise_sweep([], [0.5, 1.0])
    assert triples.shape == (0, 2, 2, 3) and nu_c == []
    assert noise_sweep([], ())[0].shape == (0, 0, 2, 3)


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


def test_run_cycle_raises_on_entropy_pumping_map():
    # the reset POVM M_k = |00><k| dumps everything into the joint ground state; it
    # is complete but not unital, and extracts heat from both baths at once
    reset = np.zeros((4, 4, 4), dtype=complex)
    reset[:, 0, :] = np.eye(4)
    with pytest.raises(SecondLawViolation):
        run_cycle(reference_config(0.18), measurement=PovmSet(reset))


def test_run_cycle_and_measurement_tomography_take_only_bases_and_povms():
    cfg, basis = reference_config(0.18), canonical_basis()
    projectors = np.stack([basis.projector(k) for k in range(4)])
    for measurement in (lambda rho: measurement_channel(basis, rho), basis.vectors, projectors):
        with pytest.raises(ValidationError, match="basis or a POVM"):
            run_cycle(cfg, measurement)
    # raw effect stacks went unchecked: NaN came back as NaN effects, and a zero
    # stack raised numpy's pvals error in shot mode
    for effects in (projectors, np.full((4, 4, 4), np.nan), np.zeros((4, 4, 4))):
        for shots, seed in ((None, None), (10, 1)):
            with pytest.raises(ValidationError, match="basis or a POVM"):
                measurement_tomography(effects, shots=shots, seed=seed)


def test_second_law_slack_nonnegative_for_measurements():
    rng = np.random.default_rng(99)
    for i in range(100):
        cfg = random_engine_config(rng)
        basis = rotate_basis(haar_unitary(HaarSampler(7000 + i)), canonical_basis())
        report = run_cycle(cfg, measurement=basis)
        assert report.second_law_slack >= -1e-10


@st.composite
def thermal_configs(draw):
    """Log-uniform gaps and inverse temperatures, beta*omega in [1e-6, 700], beta1 < beta2."""
    log_x = st.floats(-6.0, math.log10(700.0))
    omega1 = 10.0 ** draw(st.floats(-6.0, 6.0))
    beta1 = 10.0 ** draw(log_x) / omega1
    beta2 = beta1 * 10.0 ** draw(st.floats(1e-3, 4.0))
    omega2 = 10.0 ** draw(log_x) / beta2
    return EngineConfig.from_values(omega1, omega2, beta1, beta2)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(thermal_configs())
def test_canonical_cycle_matches_decimal_oracle(cfg):
    eps = 1e-12
    expected = decimal_canonical_triple(cfg)
    report = run_cycle(cfg, eps=eps)
    got = (report.dE1, report.dE2, report.dE)
    # 1e-12 of the largest component, plus the rounding of x = beta*omega and of e^-x,
    # which the difference q1 - q2 amplifies near the regime boundary, plus the
    # absolute ulp 2**-1074 that a double keeps below the normal range
    x1, x2 = cfg.bath1.beta * cfg.qubit1.omega, cfg.bath2.beta * cfg.qubit2.omega
    rounding = 2.0**-50 * max(cfg.qubit1.omega, cfg.qubit2.omega) * (
        math.exp(-x1) * (1.0 + x1) + math.exp(-x2) * (1.0 + x2))
    tol = 1e-12 * max(map(abs, expected)) + rounding + 4 * 2.0**-1074
    assert max(abs(g - e) for g, e in zip(got, expected)) <= tol, (got, expected)
    margin = max(1e-9 * eps, tol)
    if all(abs(abs(e) - eps) > margin for e in expected):
        assert report.classification == classify(*expected, eps)
        if all(abs(e) > eps for e in expected):
            assert report.classification == regime(cfg).value[0]


def test_large_gaps_keep_their_excited_populations():
    # beta*omega = 40 and 100: (1 + tanh(beta*omega/2))/2 rounds to 1, which zeroed the triple
    cfg = EngineConfig.from_values(4e6, 1e5, 1e-5, 1e-3)
    report = run_cycle(cfg)
    assert report.dE1 == pytest.approx(-8.4967085105e-12, rel=1e-9)
    assert report.dE2 == pytest.approx(2.1241771277e-13, rel=1e-9)
    assert report.classification == "E" and regime(cfg) is RegimeLabel.E_RANGE
