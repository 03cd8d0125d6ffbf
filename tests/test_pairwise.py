"""The pairwise population kernel: agreement with the general form p^T (A - I) h,
digits near infinite temperature against a decimal reference, and a search over
log-uniform configs that must never exit 3."""

import decimal
import functools
import math

import numpy as np
import pytest

from qmcool import (
    EngineConfig,
    HaarSampler,
    PovmSet,
    canonical_basis,
    engine,
    frequency_sweep,
    haar_average_report,
    haar_unitaries,
    noise_sweep,
    rotate_basis,
    run_cycle,
    white_noise_mixture_weights,
    white_noise_povm,
)
from qmcool.measure import haar_planes

from helpers import (
    EXPERIMENT_OMEGA2,
    chunked_haar_triples,
    decimal_canonical_noise,
    decimal_canonical_nu_c,
    decimal_canonical_triple,
    general_population_triples,
    joint_hamiltonian_diagonals,
    reference_config,
    same_bits,
)

TINY, HUGE = 2.0**-1022, 1.7976931348623157e308  # the normal double range
# flat indices of A_rs in a 4x4 map, pair by pair
UPPER = np.array([4 * r + s for r, s in engine._PAIRS])


@functools.lru_cache(maxsize=None)
def search_configs():
    """The 6000 configs of the search: gaps and inverse temperatures log-uniform in
    [1e-300, 1e300], the inverse temperatures sorted, as Python floats."""
    rng = np.random.default_rng(12345)
    cfgs = []
    for _ in range(6000):
        w1, w2, b1, b2 = (10 ** rng.uniform(-300, 300, 4)).tolist()
        cfgs.append(EngineConfig.from_values(w1, w2, *sorted((b1, b2))))
    return cfgs


def _within(got, want, scale):
    return np.max(np.abs(np.subtract(got, want))) <= 1e-12 * scale


def test_haar_kernel_matches_the_general_form():
    # 2**10 Haar samples x the seven omega2 of the paper, each row of samples to
    # 1e-12 of its largest |dE|
    cfgs = [reference_config(w2) for w2 in EXPERIMENT_OMEGA2]
    big_p = engine._canonical_p(haar_planes(HaarSampler(3), 2**10)).transpose(2, 1, 0)
    maps = big_p @ big_p.transpose(0, 2, 1)
    for cfg, rows in zip(cfgs, chunked_haar_triples(cfgs, 2**10, 3)):
        want = general_population_triples(cfg, maps)
        assert _within(rows, want, np.max(np.abs(want)))


def _random_povm(rng):
    """Four operators stacked from a random 16x4 isometry W: sum_k M_k^dag M_k = W^dag W = I."""
    w, _ = np.linalg.qr(rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4)))
    return PovmSet(w.reshape(4, 4, 4))


def test_povm_kernel_matches_the_general_form():
    # a POVM's map is not symmetric: the kernel adds p_s (A_rs - A_sr) per pair
    rng = np.random.default_rng(71)
    bases = [canonical_basis()] + [rotate_basis(u, canonical_basis())
                                   for u in haar_unitaries(HaarSampler(73), 10)]
    measurements = bases + [white_noise_povm(basis, nu) for basis in bases for nu in (0.0, 0.4)]
    measurements += [_random_povm(rng) for _ in range(100)]
    asymmetric = 0
    for measurement in measurements:
        big_a = engine._population_map(measurement)
        asymmetric += not np.allclose(big_a, big_a.T, atol=1e-3)
        for cfg in [reference_config(w2) for w2 in EXPERIMENT_OMEGA2]:
            got = engine._measurement_triple(cfg, measurement)
            want = general_population_triples(cfg, big_a[None])[0]
            assert _within(got, want, np.max(np.abs(want)))
    assert asymmetric >= 100


def _stacked_triples(cfgs, measurements):
    """The stacked kernel :func:`engine._pair_triples` on the measurements' pairwise
    entries, one map per column and every config at once, shape (configs, 3, maps).
    A POVM's six asymmetries A_rs - A_sr follow its entries, with the weights of
    :func:`engine._asymmetry_weights`: p_s, or p_s - p_00 for POVMs that are all unital."""
    # C-contiguous: einsum adds the entries of a strided stack in another order
    maps = np.array([engine._population_map(m) for m in measurements]).transpose(1, 2, 0)
    entries = maps.reshape(16, -1)[UPPER]
    coef = np.array([engine._pair_coefficients(cfg) for cfg in cfgs])
    if isinstance(measurements[0], PovmSet):
        lower = maps.transpose(1, 0, 2).reshape(16, -1)[UPPER]
        entries = np.vstack((entries, entries - lower))
        assert len({m.unital for m in measurements}) == 1
        weights = [engine._pair_matrix(cfg, engine._asymmetry_weights(cfg, measurements[0]))
                   for cfg in cfgs]
        coef = np.concatenate((coef, weights), axis=2)
    return engine._pair_triples(coef, entries)


def _assert_same_bits(cfgs, measurements, triple):
    want = _stacked_triples(cfgs, measurements)
    for j, measurement in enumerate(measurements):
        got = np.array([triple(cfg, measurement) for cfg in cfgs])
        assert got.tobytes() == np.ascontiguousarray(want[:, :, j]).tobytes()


def _report_triple(cfg, measurement):
    report = run_cycle(cfg, measurement)
    return report.dE1, report.dE2, report.dE


def test_run_cycle_on_a_basis_has_the_stack_bits():
    # run_cycle sums one map's six products on Python floats; every search config on
    # Haar bases and the canonical one gives the triple of its column in a stack
    cfgs = search_configs()
    bases = [canonical_basis()] + [rotate_basis(u, canonical_basis())
                                   for u in haar_unitaries(HaarSampler(5), 8)]
    with np.errstate(over="ignore", invalid="ignore"):  # the stack's products may overflow
        _assert_same_bits(cfgs, bases, _report_triple)


def test_a_povm_triple_has_the_stack_bits():
    # twelve terms: the six entries, then the six asymmetries, weighed by minus gaps for
    # the unital white-noise POVMs and by p_s for the random ones.  The triple is taken
    # before run_cycle checks it: random POVMs need not keep the second law
    cfgs = search_configs()
    bases = [canonical_basis()] + [rotate_basis(u, canonical_basis())
                                   for u in haar_unitaries(HaarSampler(9), 2)]
    povms = [white_noise_povm(basis, nu) for basis in bases for nu in (0.0, 0.4, 0.9)]
    rng = np.random.default_rng(71)
    randoms = [_random_povm(rng) for _ in range(3)]
    assert all(m.unital for m in povms) and not any(m.unital for m in randoms)
    with np.errstate(over="ignore", invalid="ignore"):
        for measurements in (povms, randoms):
            _assert_same_bits(cfgs, measurements, engine._measurement_triple)
    # where run_cycle runs, it reports that triple
    experiment = [reference_config(w2) for w2 in EXPERIMENT_OMEGA2]
    _assert_same_bits(experiment, povms, _report_triple)


def test_white_noise_povms_scale_their_basis_on_the_search():
    # a white-noise POVM's cycle is c1(nu) times its basis's, exactly.  Its asymmetries
    # are rounding noise, and weighed by p_s ~ 1/4 they outweighed the population gaps
    # near infinite temperature: 142-174 search configs raised for 5 of these 9 pairs.
    # Both paths start from the same basis vectors V and sum six products C_e m_e, so
    # each triple is within the kernels' forward error bound gamma c1 sum_e |C_e,i m_e|
    # of the other (dE: both rows' sums), or four steps 2^-1074 where it underflows.
    # gamma counts first-order roundings, 2^-53 each: the basis's m_rs = sum_k P_rk P_sk
    # with P = |V|^2 (hypot, square, 4 products, 3 sums of positive terms: 10), its six
    # products and their sum from 0 (6) and the product with c1 (1): 17; the POVM's
    # projector entries (complex product, mean with the adjoint: 4), times a (1), |.|^2
    # (2 products, doubling the relative error, and a sum: 10), their sum over the four
    # effects (3), six products and their sum (6): 24; c1 = a^2 rounded once (1).  C is
    # the same bits on both sides.  42, so gamma = 48 2^-53.  Measured at stream 9: 5.8
    # and 5.5 2^-53 on seeds 5 and 9 (stream 8: 7.4 and 5.6); the bound scales with the
    # terms, not with |dE|, on which they cancel (stream 9: 1.5e-13 of |dE| on seed 5).
    cfgs = search_configs()
    gamma = 48 * 2.0**-53
    with np.errstate(over="ignore", invalid="ignore"):
        for u in haar_unitaries(HaarSampler(9), 3):
            basis = rotate_basis(u, canonical_basis())
            m = engine._population_map(basis).reshape(-1)[UPPER]
            ideal = [run_cycle(cfg, basis) for cfg in cfgs]
            for nu in (0.4, 0.9, 1.0):
                povm, (c1, _) = white_noise_povm(basis, nu), white_noise_mixture_weights(nu)
                for cfg, report in zip(cfgs, ideal):
                    want = np.multiply(c1, (report.dE1, report.dE2, report.dE))
                    got = _report_triple(cfg, povm)
                    terms = np.abs(np.multiply(engine._pair_coefficients(cfg), m)).sum(axis=1)
                    bound = gamma * c1 * np.array([terms[0], terms[1], terms[0] + terms[1]])
                    gap = np.abs(np.subtract(got, want))
                    assert np.all(gap <= bound + 2.0**-1072), (cfg, nu)


def _x(beta, omega):
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return decimal.Decimal(beta) * decimal.Decimal(omega)


def test_canonical_triples_keep_their_digits():
    # Near infinite temperature the population gap d lies below the rounding of p; the
    # closed form N_M keeps it.  Every cell within 1e-12 relative of a decimal
    # reference with |log10 x| + 30 digits, except where x, an excited population
    # e^-x/(1 + e^-x) or the cell itself lies outside the normal double range.
    # Measured: 2286 cells checked, 0 off, the worst 3 ulp (the pairwise kernel on the
    # canonical basis: 6 ulp; the former p^T(PP^T - I)h kernel: 2121 off).
    checked = 0
    for cfg in search_configs():
        xs = (_x(cfg.bath1.beta, cfg.qubit1.omega), _x(cfg.bath2.beta, cfg.qubit2.omega))
        if any(not TINY <= x <= HUGE or (-x).exp() < TINY for x in xs):
            continue
        want = decimal_canonical_triple(cfg, int(max(abs(x.log10()) for x in xs)) + 30)
        report = run_cycle(cfg)
        for got, exact in zip((report.dE1, report.dE2, report.dE), want):
            if TINY <= abs(exact) <= HUGE:
                checked += 1
                assert abs(got - exact) <= 1e-12 * abs(exact), (cfg, report, want)
    assert checked > 2000


def test_search_configs_never_exit_three():
    # Every config of the search runs.  The Haar paths take all 6000 configs in one
    # call, which raises if any row would: each row is what a one-row call computes.
    cfgs = search_configs()
    with np.errstate(over="ignore"):  # beta*omega and beta*dE overflow to inf quietly
        frequency_sweep(cfgs, 8, 1)
        haar_average_report(cfgs, 8, 1)
        for cfg in cfgs:
            run_cycle(cfg)


def test_canonical_closed_form_matches_the_general_path():
    # run_cycle(cfg) takes the closed form N_M; the canonical basis through the pairwise
    # kernel gives each search config's triple to 1e-12 of its largest |dE|, or to four
    # steps 2^-1074 of the subnormal range below it.  Measured: 5.3e-16, and 2 steps.
    # c1(1) = 1.0, so the nu = 1 white row of noise_sweep is run_cycle's triple exactly.
    cfgs, basis = search_configs(), canonical_basis()
    for cfg, white in zip(cfgs, noise_sweep(cfgs, (1.0,))[0][:, 0, 0]):
        got, want = _report_triple(cfg, None), _report_triple(cfg, basis)
        assert same_bits(white, got), cfg
        gap = np.max(np.abs(np.subtract(got, want)))
        assert gap <= max(1e-12 * np.max(np.abs(want)), 2.0**-1072), cfg


def test_search_white_rows_all_have_a_class():
    # A white row's dE is the sum of its dE1 and dE2 cells.  Taken as c1 (dE1 + dE2),
    # rounded as a product, it failed the sum check on 20 cells of 12 search configs
    # over this grid, which printed class none.
    triples, _ = noise_sweep(search_configs(), [k / 100 for k in range(101)])
    white = np.moveaxis(triples[:, :, 0], -1, 0)
    assert not np.any(engine._class_codes(*white, 1e-12) < 0)


SEARCH_NUS = (0.0, 0.2, 0.5, 0.8, 1.0)


@functools.lru_cache(maxsize=None)
def search_noise():
    """(triples, nu_c, references): noise_sweep on the search configs at SEARCH_NUS, and
    {config index: rows of decimal_canonical_noise} wherever that reference runs, both
    x_i in the normal double range and <= 700 (906 configs)."""
    cfgs = search_configs()
    triples, nu_c = noise_sweep(cfgs, SEARCH_NUS)
    references = {}
    for k, cfg in enumerate(cfgs):
        xs = (cfg.bath1.beta * cfg.qubit1.omega, cfg.bath2.beta * cfg.qubit2.omega)
        if TINY <= min(xs) <= max(xs) <= 700:
            digits = 40 + int(max(abs(math.log10(x)) for x in xs) + 0.4343 * max(xs))
            references[k] = np.array(decimal_canonical_noise(cfg, SEARCH_NUS, digits)[0])
    return triples, nu_c, references


def test_search_noise_labels_against_the_decimal_reference():
    # The white rows all have a class, and the interference labels are those of
    # decimal_canonical_noise on all 4530 cells it can check.
    triples, _, references = search_noise()
    codes = engine._class_codes(*np.moveaxis(triples, -1, 0), 1e-12)
    assert not np.any(codes[:, :, 0] < 0)
    checked = wrong = 0
    for k, rows in references.items():
        want = engine._class_codes(*np.moveaxis(rows, -1, 0), 1e-12)
        checked += len(SEARCH_NUS)
        wrong += int(np.sum(codes[k, :, 1] != want))
    assert checked == 4530
    assert wrong == 0


def test_search_noise_cells_against_the_decimal_reference():
    # Every interference cell of the search whose exact value lies in the normal double
    # range, where decimal_canonical_noise runs, to 1e-12 relative, including those where
    # t1 >> t2 or t2 >> t1
    triples, _, references = search_noise()
    checked = 0
    for k, rows in references.items():
        for got, exact in zip(triples[k, :, 1].ravel().tolist(), rows.ravel().tolist()):
            if TINY <= abs(exact) <= HUGE:
                checked += 1
                assert abs(got - exact) <= 1e-12 * abs(exact), (search_configs()[k], got, exact)
    assert checked == 11151


def test_search_noise_cells_are_finite():
    # 1^T Q p = 2 + S >= 2, so no interference row divides by a vanishing detection
    # weight, and every cell of the search is a finite number
    triples, _, _ = search_noise()
    assert np.all(np.isfinite(triples))


def _beyond_decimal_range(cfg):
    """Whether e^(-x2) is 0 even in decimal's widest exponent range (x2 > ~2.3e18).
    decimal_canonical_nu_c then returns None whatever the root, so it checks nothing."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 40, decimal.MIN_EMIN, decimal.MAX_EMAX
        return (-_x(cfg.bath2.beta, cfg.qubit2.omega)).exp() == 0


def test_search_critical_visibility_against_the_decimal_reference():
    # nu_c of the search against decimal_canonical_nu_c, to 1e-14, on the 2158 configs
    # where it checks something: not _beyond_decimal_range (3842 configs, on 436 of which
    # nu_c is 1/2 from the exact gap x1 - x2, 118 of them with an x_i past the largest
    # double).  The 720 with an x_i below the normal double range are included: nu_c was
    # off on 22 of them while it was t2 S / (t2 S + d), with t_i = tanh(x_i/2) short of
    # digits or 0.  Measured: 0 off, 1017 with a root.
    _, nu_cs, _ = search_noise()
    checked = roots = 0
    for cfg, got in zip(search_configs(), nu_cs):
        xs = (_x(cfg.bath1.beta, cfg.qubit1.omega), _x(cfg.bath2.beta, cfg.qubit2.omega))
        if _beyond_decimal_range(cfg):
            continue
        want = decimal_canonical_nu_c(cfg, 40 + int(max(abs(x.log10()) for x in xs)))
        checked += 1
        roots += want is not None
        assert (got is None) == (want is None), (cfg, got, want)
        assert want is None or abs(got - want) <= 1e-14, (cfg, got, want)
    assert (checked, roots) == (2158, 1017)


@pytest.mark.parametrize("omega2", EXPERIMENT_OMEGA2)
def test_pair_coefficients_are_the_population_gaps(omega2):
    # C m of the map with every pairwise entry 1 and no other: the sum over pairs of
    # (p_r - p_s)(h_i,s - h_i,r), against the gaps of the populations themselves
    cfg = reference_config(omega2)
    p = engine._populations(cfg)
    h = np.array(joint_hamiltonian_diagonals(cfg))
    want = [sum((p[r] - p[s]) * (hi[s] - hi[r]) for r, s in engine._PAIRS) for hi in h]
    assert np.allclose(np.sum(engine._pair_coefficients(cfg), axis=1), want, rtol=1e-12, atol=0)
