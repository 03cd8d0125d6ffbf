"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Every test prints a single summary line with its measured values to the real
stdout (bypassing capture) before asserting, so a full-suite run always shows
the complete scoreboard even when a criterion fails.
"""

import time

import numpy as np

from qmcool import (
    BathSpec,
    HaarSampler,
    QubitSpec,
    canonical_basis,
    chi_from_kraus,
    critical_visibility,
    d_of_omega,
    depolarizing_prediction,
    frequency_sweep,
    haar_average_report,
    haar_unitaries,
    haar_unitary,
    hologram_channel,
    measurement_tomography,
    noise_sweep,
    process_fidelity,
    process_tomography,
    rotate_basis,
    run_cycle,
    solve_hologram,
    thermalizing_channel,
    white_noise_mixture_weights,
    white_noise_povm,
)
from qmcool.cli import HOM_MODEL_NOTE
from qmcool.engine import _population_map, _populations

from helpers import (
    EXPECTED_CLASSES,
    EXPECTED_TRIPLES,
    EXPERIMENT_OMEGA2,
    apply_povm,
    hom_noisy_channel,
    measurement_channel,
    random_density,
    random_engine_config,
    reference_config,
    trains_hom_detected,
)

SEED = 2025


def _report(capsys, num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}"
    with capsys.disabled():
        print(line, flush=True)
    return line


def test_criterion_1_sweep_classification(capsys):
    t0 = time.perf_counter()
    max_err = 0.0
    classes = []
    for omega2 in EXPERIMENT_OMEGA2:
        report = run_cycle(reference_config(omega2))
        de1, de2 = EXPECTED_TRIPLES[omega2]
        max_err = max(max_err, abs(report.dE1 - de1), abs(report.dE2 - de2),
                      abs(report.dE - (de1 + de2)))
        classes.append(report.classification)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    ok = tuple(classes) == EXPECTED_CLASSES and max_err <= 1e-12 and elapsed_ms < 1000.0
    line = _report(capsys, 1, ok, f"classes={''.join(classes)} (want {''.join(EXPECTED_CLASSES)}), "
                          f"max closed-form error={max_err:.3e} (tol 1e-12), "
                          f"runtime={elapsed_ms:.1f} ms")
    assert ok, line


def test_criterion_2_haar_frequency_curve(capsys):
    n = 10000
    t0 = time.perf_counter()
    # the last row, omega2 = 0.001, is the small-gap limit evidence
    cfgs = [reference_config(omega2) for omega2 in EXPERIMENT_OMEGA2 + (0.001,)]
    *rows, tiny = frequency_sweep(cfgs, n, SEED)
    elapsed = time.perf_counter() - t0
    freqs = [est["R"].frequency for est in rows]
    errs = [est["R"].stderr for est in rows]
    zeros_exact = all(f == 0.0 for f, w in zip(freqs, EXPERIMENT_OMEGA2) if w >= 0.46)
    monotone = all(
        freqs[i + 1] <= freqs[i] + 2 * np.hypot(errs[i], errs[i + 1])
        for i in range(len(freqs) - 1)
    )
    in_band = 0.42 <= freqs[0] <= 0.50
    ok = zeros_exact and monotone and in_band and elapsed < 60.0
    line = _report(
        capsys, 2, ok,
        f"freq_R(omega2=0.02)={freqs[0]:.4f} vs band [0.42, 0.50] (n={n}), "
        f"zeros_exact={zeros_exact}, monotone={monotone}, runtime={elapsed:.1f} s; "
        f"limit evidence: freq_R(omega2=0.001)={tiny['R'].frequency:.4f} -> the band "
        f"is only reached as omega2 -> 0, so the stated interval is unattainable at "
        f"omega2=0.02 under exact Haar sampling")
    assert ok, line


def test_criterion_3_haar_average_depolarizing(capsys):
    n = 100000
    t0 = time.perf_counter()
    all_positive = True
    worst_z = 0.0
    cfgs = [reference_config(omega2) for omega2 in EXPERIMENT_OMEGA2]
    for cfg, rep in zip(cfgs, haar_average_report(cfgs, n, SEED)):
        pred = depolarizing_prediction(cfg)
        all_positive &= rep.mean_dE1 > 0 and rep.mean_dE2 > 0 and rep.mean_dE > 0
        all_positive &= rep.classification == "H"
        worst_z = max(
            worst_z,
            abs(rep.mean_dE1 - pred[0]) / rep.stderr_dE1,
            abs(rep.mean_dE2 - pred[1]) / rep.stderr_dE2,
            abs(rep.mean_dE - pred[2]) / rep.stderr_dE,
        )
    elapsed = time.perf_counter() - t0
    ok = all_positive and worst_z <= 3.0 and elapsed < 300.0
    line = _report(capsys, 3, ok, f"all means positive (class H)={all_positive}, worst "
                          f"|z| vs depolarizing lambda=1/5 prediction={worst_z:.2f} "
                          f"(limit 3.0, n={n}), runtime={elapsed:.1f} s")
    assert ok, line


def test_criterion_4_white_noise_robustness(capsys):
    # the noise command's white rows and run_cycle on the white-noise POVM, each
    # against c1(nu) times the ideal cycle
    basis = canonical_basis()
    nus = np.arange(0.1, 1.01, 0.1)
    cfgs = [reference_config(omega2) for omega2 in EXPERIMENT_OMEGA2]
    white_rows = noise_sweep(cfgs, nus)[0][:, :, 0]
    max_dev = 0.0
    invariant = True
    for cfg, rows in zip(cfgs, white_rows):
        report = run_cycle(cfg)
        ideal = (report.dE1, report.dE2, report.dE)
        for nu, row in zip(nus, rows):
            c1, _ = white_noise_mixture_weights(nu)
            noisy = run_cycle(cfg, measurement=white_noise_povm(basis, nu))
            for got in (row, (noisy.dE1, noisy.dE2, noisy.dE)):
                max_dev = max(max_dev, max(abs(m - c1 * i) for m, i in zip(got, ideal)))
            invariant &= noisy.classification == report.classification
    ok = invariant and max_dev <= 1e-10
    line = _report(capsys, 4, ok, f"classification nu-invariant={invariant} "
                          f"(nu in 0.1..1.0, all 7 omega2), max |dE - c1(nu)*dE_ideal|"
                          f"={max_dev:.3e} (tol 1e-10)")
    assert ok, line


def test_criterion_5_interference_noise_critical_visibility(capsys):
    cfg = reference_config(0.18)
    nu_c = critical_visibility(cfg)
    in_window = nu_c is not None and abs(nu_c - 0.44) <= 0.05
    de2 = noise_sweep([cfg], np.linspace(0.0, 1.0, 21))[0][0, :, 1, 1]
    monotone = all(b < a for a, b in zip(de2, de2[1:]))
    nu_cs = [critical_visibility(reference_config(w)) for w in (0.18, 0.14, 0.06, 0.02)]
    decreasing = all(v is not None for v in nu_cs) and all(
        a > b for a, b in zip(nu_cs, nu_cs[1:]))
    ok = in_window and monotone and decreasing
    line = _report(
        capsys, 5, ok,
        f"nu_c(omega2=0.18)={nu_c:.4f} vs 0.44 +/- 0.05, signed dE2 strictly "
        f"decreasing in nu={monotone} (|dE2| is V-shaped around nu_c by "
        f"construction), nu_c decreasing over omega2 {{0.18, 0.14, 0.06, 0.02}}="
        f"{[round(v, 4) for v in nu_cs]}")
    with capsys.disabled():
        print(f"    model: {HOM_MODEL_NOTE}", flush=True)
    assert ok, line


def test_criterion_6_optical_abstract_equivalence(capsys):
    rng = np.random.default_rng(SEED)
    base = canonical_basis()
    max_td = 0.0
    for i in range(50):
        basis = rotate_basis(haar_unitary(HaarSampler(SEED, i)), base)
        # the ideal optical trains on diag(p) against the basis's population map
        for p in (_populations(reference_config(0.18)), np.diagonal(random_density(rng, 4)).real):
            optical = np.diagonal(trains_hom_detected(basis, 1.0, np.diag(p))).real
            max_td = max(max_td, 0.5 * float(np.sum(np.abs(optical - p @ _population_map(basis)))))
    worst_fid = 1.0
    for omega in (0.02, 0.18, 0.46, 0.86, 1.02, 1.28):
        for beta in (0.4, 1.0, 2.5):
            q, b = QubitSpec(omega), BathSpec(beta)
            chi_opt = process_tomography(hologram_channel(solve_hologram(b), d_of_omega(omega)))
            worst_fid = min(worst_fid, process_fidelity(
                chi_opt, chi_from_kraus(thermalizing_channel(q, b))))
    ok = max_td <= 1e-9 and worst_fid >= 1.0 - 1e-9
    line = _report(capsys, 6, ok, f"max population distance over 50 Haar bases={max_td:.3e} "
                          f"(tol 1e-9), min optical-vs-abstract process fidelity "
                          f"over 18 (omega, beta) points={worst_fid:.12f} "
                          f"(floor 1 - 1e-9)")
    assert ok, line


def test_criterion_7_property_suites(capsys):
    rng = np.random.default_rng(SEED)
    base = canonical_basis()
    min_slack = np.inf
    max_trace_drift = 0.0
    max_idem = 0.0
    for i in range(1000):
        cfg = random_engine_config(rng)
        basis = rotate_basis(haar_unitary(HaarSampler(SEED + 1, i)), base)
        report = run_cycle(cfg, measurement=basis)
        min_slack = min(min_slack, report.second_law_slack)
        max_trace_drift = max(max_trace_drift, np.max(np.abs(_population_map(basis).sum(1) - 1.0)))
        rho = random_density(rng, 4)
        out = measurement_channel(basis, rho)
        max_trace_drift = max(max_trace_drift, abs(out.trace().real - 1.0))
        max_idem = max(max_idem, np.max(np.abs(measurement_channel(basis, out) - out)))
    for nu in (0.2, 0.7):
        rho, povm = random_density(rng, 4), white_noise_povm(base, nu)
        max_trace_drift = max(max_trace_drift, np.max(np.abs(_population_map(povm).sum(1) - 1.0)))
        for out in (apply_povm(povm, rho), hom_noisy_channel(base, nu, rho)):
            max_trace_drift = max(max_trace_drift, abs(out.trace().real - 1.0))
    us = haar_unitaries(HaarSampler(SEED + 2), 100000)
    a2 = np.abs(us) ** 2
    m2, m4 = float(np.mean(a2)), float(np.mean(a2**2))
    tomo_err = 0.0
    ch = thermalizing_channel(QubitSpec(0.18), BathSpec(1.0))
    tomo_err = max(tomo_err, float(np.max(np.abs(
        process_tomography(ch) - chi_from_kraus(ch)))))
    effects = measurement_tomography(base)
    truth = np.stack([base.projector(k) for k in range(4)])
    tomo_err = max(tomo_err, float(np.max(np.abs(effects - truth))))
    ok = (min_slack >= -1e-10 and max_trace_drift <= 1e-10 and max_idem <= 1e-10
          and abs(m2 - 0.25) <= 0.005 and abs(m4 - 0.10) <= 0.005
          and tomo_err <= 1e-10)
    line = _report(capsys, 7, ok, f"min second-law slack={min_slack:.3e} (floor -1e-10, "
                          f"1000 random config/basis pairs), max trace drift="
                          f"{max_trace_drift:.3e}, max idempotence defect={max_idem:.3e}, "
                          f"Haar moments E|u|^2={m2:.4f} E|u|^4={m4:.4f} "
                          f"(targets 0.25/0.10 +/- 0.005, n=1e5), exact tomography "
                          f"round-trip error={tomo_err:.3e} (tol 1e-10)")
    assert ok, line


def test_criterion_8_cli_determinism(tmp_path, capsys):
    from qmcool import cli

    conf = tmp_path / "conf.ini"
    conf.write_text(
        "omega2 = 0.02, 0.18, 0.46\nnu_values = 0.2, 0.8\n"
        "samples = 2000\nshots = 500\nseed = 11\n",
        encoding="utf-8",
    )
    commands = ("sweep-omega", "frequency", "noise", "haar-average", "tomography",
                "hologram")
    identical = []
    for name in commands:
        a, b = tmp_path / f"{name}-a.csv", tmp_path / f"{name}-b.csv"
        assert cli.main([name, "--config", str(conf), "--out", str(a)]) == 0
        assert cli.main([name, "--config", str(conf), "--out", str(b)]) == 0
        identical.append(a.read_bytes() == b.read_bytes())
    ok = all(identical)
    status = ", ".join(f"{n}={'ok' if i else 'DIFF'}" for n, i in zip(commands, identical))
    line = _report(capsys, 8, ok, f"byte-identical re-runs: {status} (kernels are "
                          f"single-threaded serial, so results cannot depend on a "
                          f"worker count)")
    assert ok, line
