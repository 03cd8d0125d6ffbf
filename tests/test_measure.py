"""Measurement layer: bases, non-selective channels, Haar sampling and its read-ahead,
noisy POVMs."""

import re
import sys
import threading

import numpy as np
import pytest

from qmcool import (
    BathSpec,
    HaarSampler,
    MeasurementBasis,
    PovmSet,
    QubitSpec,
    ValidationError,
    canonical_basis,
    frequency_sweep,
    haar_unitaries,
    haar_unitary,
    measure,
    rotate_basis,
    white_noise_mixture_weights,
    white_noise_povm,
)

from helpers import (
    _distinguishable,
    _distinguishable_map,
    apply_povm,
    gibbs_state,
    hom_noisy_channel,
    initial_state,
    measurement_channel,
    partial_trace,
    random_density,
    reference_config,
    same_bits,
    scalar_white_noise_weights,
    trains_hom_detected,
    von_neumann_entropy,
)
from qmcool.engine import _population_map
from qmcool.measure import READ_AHEAD


def test_canonical_basis_orthonormal():
    basis = canonical_basis()
    v = basis.vectors
    assert np.allclose(v @ v.conj().T, np.eye(4), atol=1e-14)


def test_canonical_basis_entangled_pair():
    basis = canonical_basis()
    for k in (1, 2):
        vec = basis.vectors[k]
        rho = np.outer(vec, vec.conj())
        assert np.allclose(partial_trace(rho, keep=1), np.eye(2) / 2, atol=1e-14)
    # product vectors at the ends
    assert np.allclose(np.abs(basis.vectors[0]), [1, 0, 0, 0], atol=1e-14)
    assert np.allclose(np.abs(basis.vectors[3]), [0, 0, 0, 1], atol=1e-14)


def test_canonical_middle_vectors_sign():
    basis = canonical_basis()
    s = 1 / np.sqrt(2)
    assert np.allclose(basis.vectors[1], [0, s, s, 0], atol=1e-14)
    assert np.allclose(basis.vectors[2], [0, s, -s, 0], atol=1e-14)


def test_measurement_basis_rejects_non_orthonormal():
    v = np.eye(4, dtype=complex)
    v[1, 1] = 0.5
    with pytest.raises(ValueError):
        MeasurementBasis(vectors=v)


def test_computational_basis_leaves_diagonal_states_alone():
    basis = MeasurementBasis(vectors=np.eye(4, dtype=complex))
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert np.allclose(measurement_channel(basis, rho), rho, atol=1e-15)


def test_measurement_channel_frozen_populations():
    # reference config, canonical basis: diagonal (P00, m, m, P11) in the
    # measurement eigenbasis maps back to a state with those populations
    cfg = reference_config(0.18)
    rho = initial_state(cfg)
    basis = canonical_basis()
    out = measurement_channel(basis, rho)
    pops = [np.real(basis.vectors[k].conj() @ out @ basis.vectors[k]) for k in range(4)]
    assert pops[0] == pytest.approx(0.3272587414195664, abs=1e-12)
    assert pops[1] == pytest.approx(0.24548481454286086, abs=1e-12)
    assert pops[2] == pytest.approx(0.24548481454286086, abs=1e-12)
    assert pops[3] == pytest.approx(0.1817716294947119, abs=1e-12)
    assert sum(pops) == pytest.approx(1.0, abs=1e-12)


def test_measurement_channel_fixes_maximally_mixed():
    rng = np.random.default_rng(3)
    for i in range(10):
        basis = rotate_basis(haar_unitary(HaarSampler(40 + i)), canonical_basis())
        out = measurement_channel(basis, np.eye(4) / 4)
        assert np.allclose(out, np.eye(4) / 4, atol=1e-14)


def test_measurement_channel_idempotent():
    rng = np.random.default_rng(5)
    for i in range(20):
        basis = rotate_basis(haar_unitary(HaarSampler(60 + i)), canonical_basis())
        rho = random_density(rng, 4)
        once = measurement_channel(basis, rho)
        twice = measurement_channel(basis, once)
        assert np.allclose(once, twice, atol=1e-12)


def test_measurement_channel_never_decreases_entropy():
    rng = np.random.default_rng(9)
    for i in range(20):
        basis = rotate_basis(haar_unitary(HaarSampler(80 + i)), canonical_basis())
        rho = random_density(rng, 4)
        assert von_neumann_entropy(measurement_channel(basis, rho)) >= (
            von_neumann_entropy(rho) - 1e-10)


def test_measurement_channel_output_commutes_with_projectors():
    rng = np.random.default_rng(15)
    basis = rotate_basis(haar_unitary(HaarSampler(123)), canonical_basis())
    rho = random_density(rng, 4)
    out = measurement_channel(basis, rho)
    for k in range(4):
        pk = basis.projector(k)
        assert np.allclose(pk @ out, out @ pk, atol=1e-12)


def test_haar_unitary_is_unitary():
    for i in range(10):
        u = haar_unitary(HaarSampler(7, i))
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-10)


def test_haar_unitary_deterministic():
    a = haar_unitary(HaarSampler(99, 3))
    b = haar_unitary(HaarSampler(99, 3))
    assert np.array_equal(a, b)


def test_haar_unitaries_stay_within_the_counters_a_sampler_names():
    # the last counter, 2**63 - 1, is checked before anything is drawn: a draw past it
    # would return a sample that no HaarSampler can name
    top = 2**63 - 1
    assert haar_unitaries(HaarSampler(5, top), 0).shape == (0, 4, 4)
    assert np.array_equal(haar_unitaries(HaarSampler(5, top), 1)[0],
                          haar_unitary(HaarSampler(5, top)))
    for start, n in ((top, 2), (top - 2, 4), (2, top)):
        with pytest.raises(ValidationError, match=f"from counter {start} pass 2"):
            haar_unitaries(HaarSampler(5, start), n)


def test_haar_unitary_reads_ahead_across_block_boundaries(monkeypatch):
    # single draws over consecutive counters, up and down, across aligned blocks and
    # into the top block, which ends at 2**63 - 1 since READ_AHEAD divides 2**63, are
    # the samples of one haar_unitaries call bit for bit
    monkeypatch.setattr(measure, "_BLOCK", threading.local())
    top = 2**63 - 1
    assert READ_AHEAD & (READ_AHEAD - 1) == 0 and 2**63 % READ_AHEAD == 0
    for seed, first, n in ((3, READ_AHEAD - 2, READ_AHEAD + 4), (3, 0, 3),
                           (4, top - READ_AHEAD - 1, READ_AHEAD + 2)):
        whole = haar_unitaries(HaarSampler(seed, first), n)
        for order in (range(n), range(n - 1, -1, -1)):
            singles = [haar_unitary(HaarSampler(seed, first + i)) for i in order]
            assert same_bits(np.array(singles), whole[list(order)])
    assert measure._BLOCK.key == (4, 2**63 - 2 * READ_AHEAD)
    haar_unitary(HaarSampler(4, top))
    assert measure._BLOCK.key == (4, 2**63 - READ_AHEAD)


def test_haar_unitary_switches_seeds_between_engine_draws(monkeypatch):
    # single draws alternate between two seeds, with an engine sweep between them, whose
    # fill moves the seed's stream: every draw is its haar_unitaries sample
    monkeypatch.setattr(measure, "_BLOCK", threading.local())
    want = {seed: haar_unitaries(HaarSampler(seed), 2 * READ_AHEAD) for seed in (5, 6)}
    cfg = reference_config()
    for i in (0, 1, READ_AHEAD + 7, 2, 2 * READ_AHEAD - 1):
        for seed in (5, 6):
            assert same_bits(haar_unitary(HaarSampler(seed, i)), want[seed][i])
            frequency_sweep([cfg], 3, seed)


def test_a_mutated_unitary_leaves_the_next_draw_alone(monkeypatch):
    # each call returns a copy: writing into one changes neither the kept block nor
    # the next draw of the same counter
    monkeypatch.setattr(measure, "_BLOCK", threading.local())
    want = haar_unitaries(HaarSampler(8, 40), 1)[0]
    u = haar_unitary(HaarSampler(8, 40))
    u[...] = np.nan
    v = haar_unitary(HaarSampler(8, 40))
    assert same_bits(v, want) and v.flags.writeable
    assert not np.shares_memory(v, measure._BLOCK.us)


def test_threads_keep_their_own_read_ahead_blocks():
    # two threads draw single unitaries of two seeds in lockstep across a block
    # boundary, and each reads its kept block's key once both have drawn: with one
    # block for both, one of them would find the other seed's
    n, first = 40, READ_AHEAD - 20
    want = {seed: haar_unitaries(HaarSampler(seed, first), n) for seed in (11, 12)}
    sync = threading.Barrier(2, timeout=30)
    got, keys = {11: [], 12: []}, {11: set(), 12: set()}

    def draw(seed):
        for i in range(n):
            sync.wait()
            got[seed].append(haar_unitary(HaarSampler(seed, first + i)))
            sync.wait()
            keys[seed].add(measure._BLOCK.key)

    threads = [threading.Thread(target=draw, args=(seed,)) for seed in got]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in got:
        assert same_bits(np.array(got[seed]), want[seed])
        assert keys[seed] == {(seed, 0), (seed, READ_AHEAD)}


@pytest.mark.parametrize("m", [1, READ_AHEAD - 2, READ_AHEAD - 1, READ_AHEAD, READ_AHEAD + 1,
                               READ_AHEAD + 2])
def test_haar_unitaries_in_pieces_equal_one_call(m):
    # one call draws pieces of at most READ_AHEAD samples in one work array; any split
    # into consecutive calls gives the same bits
    n = 2 * READ_AHEAD + 3
    whole = haar_unitaries(HaarSampler(9, 100), n)
    parts = [haar_unitaries(HaarSampler(9, 100 + k), min(m, n - k)) for k in range(0, n, m)]
    assert same_bits(np.concatenate(parts), whole)


def test_haar_moments():
    # |u_ij|^2 averages to 1/4 and |u_ij|^4 to 1/10 for 4x4 Haar unitaries
    us = haar_unitaries(HaarSampler(2024), 20000)
    a2 = np.abs(us) ** 2
    assert np.mean(a2) == pytest.approx(0.25, abs=0.002)
    assert np.mean(a2**2) == pytest.approx(0.10, abs=0.002)


def test_rotate_basis_identity():
    basis = canonical_basis()
    out = rotate_basis(np.eye(4, dtype=complex), basis)
    assert np.allclose(out.vectors, basis.vectors, atol=1e-15)


def test_rotate_basis_stays_orthonormal():
    u = haar_unitary(HaarSampler(77))
    out = rotate_basis(u, canonical_basis())
    assert np.allclose(out.vectors @ out.vectors.conj().T, np.eye(4), atol=1e-10)
    assert same_bits(out.vectors, canonical_basis().vectors @ u.T)


def test_rotate_basis_rejects_non_unitary():
    with pytest.raises(ValueError):
        rotate_basis(np.ones((4, 4), dtype=complex), canonical_basis())


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf),
                                 complex(np.nan, 0.0)])
def test_rotate_basis_rejects_a_non_finite_entry_of_u(bad):
    # u's entries are checked once, before the product: every entry below has coefficient
    # 0 in some canonical vector (|00> reads only column 0 of u, |11> only column 3), a
    # product that a BLAS may skip, and the error is the basis check's, with no warning
    for k, c in ((0, 1), (3, 0), (2, 3), (1, 1)):
        u = haar_unitary(HaarSampler(3)).copy()
        u[k, c] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            rotate_basis(u, canonical_basis())
    with pytest.raises(ValidationError, match="non-finite"):
        MeasurementBasis(np.where(np.eye(4) > 0, bad, 0.0))


_NAN_3X3 = np.where(np.eye(3) > 0, np.nan, 0.0)


@pytest.mark.parametrize("matrix, rotate_message, basis_message", [
    # the finite check runs before the shape check
    (_NAN_3X3, r"matrix has non-finite entries", r"matrix has non-finite entries"),
    (np.zeros((3, 3)), r"rotation must be 4x4, got \(3, 3\)",
     r"basis needs four 4-vectors, got shape \(3, 3\)"),
    # rows (1, 1, 1, 1) and (sqrt2, sqrt2, sqrt2, sqrt2) once rotated, and four rows of ones
    (np.ones((4, 4)), r"basis vectors not orthonormal \(deviation 7\.000e\+00\)",
     r"basis vectors not orthonormal \(deviation 4\.000e\+00\)"),
], ids=["non_finite_3x3", "finite_3x3", "ones"])
def test_a_bad_basis_fails_its_first_check_with_its_message(matrix, rotate_message, basis_message):
    with pytest.raises(ValidationError, match=f"^{rotate_message}$"):
        rotate_basis(matrix, canonical_basis())
    with pytest.raises(ValidationError, match=f"^{basis_message}$"):
        MeasurementBasis(matrix)


@pytest.mark.parametrize("matrix, rotate_deviation, basis_deviation", [
    (np.eye(4) * 1e200, "inf", "inf"),  # the Gram matrix overflows
    (np.full((4, 4), 1.5e308), "nan", "inf"),  # so does the rotated product
    (np.eye(4) * 3.0, "8.000e+00", "8.000e+00"),  # entries past 2 take the quiet path too
], ids=["gram_overflows", "product_overflows", "finite_gram"])
def test_a_basis_too_large_to_be_orthonormal_fails_without_a_warning(matrix, rotate_deviation,
                                                                       basis_deviation):
    # warnings are errors here: an overflow warned, and under -W error the warning was
    # raised in place of the ValidationError.  numpy's error state is left as it was
    state = np.geterr()
    with pytest.raises(ValidationError, match=rf"\(deviation {re.escape(rotate_deviation)}\)$"):
        rotate_basis(matrix, canonical_basis())
    with pytest.raises(ValidationError, match=rf"\(deviation {re.escape(basis_deviation)}\)$"):
        MeasurementBasis(matrix)
    assert np.geterr() == state


def test_projectors_are_hermitian_bit_for_bit():
    # the outer product of a complex vector may miss being Hermitian in its last bit,
    # which a white-noise POVM's map carried as an asymmetry of ~7e-18; a real basis's
    # projector is the outer product's bits
    canonical = canonical_basis()
    for k in range(4):
        v = canonical.vectors[k]
        assert np.array_equal(canonical.projector(k), np.outer(v, v.conj()))
    for u in haar_unitaries(HaarSampler(9), 8):
        basis = rotate_basis(u, canonical)
        for k in range(4):
            p = basis.projector(k)
            assert np.array_equal(p, p.conj().T)
            assert np.max(np.abs(p - np.outer(basis.vectors[k], basis.vectors[k].conj()))) <= 1e-16
        big_a = _population_map(white_noise_povm(basis, 0.4))
        assert np.array_equal(big_a, big_a.T)


def test_white_noise_povm_full_visibility_is_projective():
    basis = canonical_basis()
    povm = white_noise_povm(basis, 1.0)
    for k in range(4):
        assert np.allclose(povm.operators[k], basis.projector(k), atol=1e-12)


def test_white_noise_povm_zero_visibility_is_uninformative():
    povm = white_noise_povm(canonical_basis(), 0.0)
    for eff in povm.effects():
        assert np.allclose(eff, np.eye(4) / 4, atol=1e-12)


def test_white_noise_povm_effects_formula():
    basis = canonical_basis()
    for nu in (0.1, 0.35, 0.7, 0.95):
        povm = white_noise_povm(basis, nu)
        for k, eff in enumerate(povm.effects()):
            expected = nu * basis.projector(k) + (1 - nu) * np.eye(4) / 4
            assert np.allclose(eff, expected, atol=1e-12)


def test_white_noise_povm_completeness():
    povm = white_noise_povm(canonical_basis(), 0.6)
    total = np.einsum("kij,kil->jl", povm.operators.conj(), povm.operators)
    assert np.allclose(total, np.eye(4), atol=1e-12)


def test_a_povm_records_whether_it_is_unital():
    # sum_k M M^dag = I within ORTHO_TOL: white noise on any basis is, a reset to |00>
    # (complete, every M_k = |00><k|) and a random isometry's blocks are not
    bases = [canonical_basis()] + [rotate_basis(u, canonical_basis())
                                   for u in haar_unitaries(HaarSampler(9), 3)]
    assert all(white_noise_povm(b, nu).unital for b in bases for nu in (0.0, 0.4, 1.0))
    reset = np.zeros((4, 4, 4), dtype=complex)
    reset[:, 0, :] = np.eye(4)
    w, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((16, 4)) + 0j)
    for ops in (reset, w.reshape(4, 4, 4)):
        assert PovmSet(ops).unital is False


def test_white_noise_post_state_is_mixture():
    basis = canonical_basis()
    rng = np.random.default_rng(42)
    for nu in (0.15, 0.5, 0.85):
        povm = white_noise_povm(basis, nu)
        c1, c2 = white_noise_mixture_weights(nu)
        assert c1 + c2 == pytest.approx(1.0, abs=1e-12)
        for _ in range(50):
            rho = random_density(rng, 4)
            out = apply_povm(povm, rho)
            ideal = measurement_channel(basis, rho)
            assert np.allclose(out, c1 * ideal + c2 * rho, atol=1e-10)


def test_white_noise_weights_on_an_array_equal_the_scalar_calls():
    nus = np.concatenate([np.linspace(0.0, 1.0, 101), np.random.default_rng(3).random(5000)])
    c1, c2 = white_noise_mixture_weights(nus)
    col1, col2 = white_noise_mixture_weights(nus[:, None])
    scalar = np.array([white_noise_mixture_weights(nu) for nu in nus.tolist()])
    former = np.array([scalar_white_noise_weights(nu) for nu in nus.tolist()])
    for got in (np.column_stack([c1, c2]), np.column_stack([col1[:, 0], col2[:, 0]]), scalar):
        assert np.array_equal(got, former)
    assert all(isinstance(c, float) for c in white_noise_mixture_weights(0.3))


def test_white_noise_povm_rejects_bad_visibility():
    with pytest.raises(ValueError):
        white_noise_povm(canonical_basis(), -0.1)
    with pytest.raises(ValueError):
        white_noise_povm(canonical_basis(), 1.1)


def test_povm_set_rejects_incomplete():
    ops = np.stack([0.5 * np.eye(4, dtype=complex)])
    with pytest.raises(ValueError):
        PovmSet(operators=ops)


def test_hom_channel_full_visibility_matches_projective():
    basis = canonical_basis()
    rho = np.kron(gibbs_state(QubitSpec(1.02), BathSpec(0.4)),
                  gibbs_state(QubitSpec(0.18), BathSpec(1.0)))
    out = hom_noisy_channel(basis, 1.0, rho)
    assert np.allclose(out, measurement_channel(basis, rho), atol=1e-12)


def test_hom_channel_preserves_trace():
    basis = canonical_basis()
    rng = np.random.default_rng(8)
    for nu in (0.0, 0.3, 0.7, 1.0):
        rho = random_density(rng, 4)
        out = hom_noisy_channel(basis, nu, rho)
        assert out.trace().real == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(out, out.conj().T, atol=1e-12)


def test_distinguishable_map_gives_the_diagonal_of_the_sum():
    # d = Q p must be diag(D) for every diagonal input, and Q must be nonnegative; on the
    # canonical basis Q is diag(D) at rho = |s><s| bit for bit, and within the rounding of
    # s = 1/sqrt2 of the exact map of the engine's closed-form interference rows
    cols = [_distinguishable(canonical_basis(), np.diag(e)).diagonal().real for e in np.eye(4)]
    assert np.array_equal(_distinguishable_map(canonical_basis()), np.column_stack(cols))
    exact = np.diag([2.0, 2.5, 2.5, 2.0])
    exact[1, 2] = exact[2, 1] = 0.5
    assert np.max(np.abs(_distinguishable_map(canonical_basis()) - exact)) <= 1e-15
    rng = np.random.default_rng(19)
    for u in haar_unitaries(HaarSampler(61), 200):
        basis = rotate_basis(u, canonical_basis())
        q = _distinguishable_map(basis)
        assert np.all(q >= 0.0)
        for p in rng.dirichlet(np.ones(4), 5):
            want = np.diagonal(_distinguishable(basis, np.diag(p))).real
            assert np.max(np.abs(q @ p - want)) <= 1e-15


def test_hom_closed_form_matches_optical_trains():
    bases = [canonical_basis()]
    bases += [rotate_basis(u, canonical_basis()) for u in haar_unitaries(HaarSampler(71), 200)]
    for omega2 in (0.02, 0.18, 0.86):
        rho = initial_state(reference_config(omega2))
        for basis in bases:
            assert np.max(np.abs(_distinguishable(basis, rho)
                                 - trains_hom_detected(basis, 0.0, rho))) <= 1e-12
            # the detected populations, nu*g + (1-nu)*d, from the package's two maps
            p, big_m, q = np.diagonal(rho).real, _population_map(basis), _distinguishable_map(basis)
            for nu in (0.0, 0.37, 1.0):
                detected = np.diagonal(trains_hom_detected(basis, nu, rho)).real
                assert np.max(np.abs(detected - nu * big_m @ p - (1.0 - nu) * q @ p)) <= 1e-12
