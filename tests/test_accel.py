"""Haar kernel: Ginibre stream discipline and the closed form against the channel path."""

import numpy as np
import pytest

from qmcool import _accel
from qmcool.engine import _joint_hamiltonian_diagonals, initial_state, run_cycle
from qmcool.measure import canonical_basis, rotate_basis

from helpers import EXPERIMENT_OMEGA2, reference_config


def _kernel_inputs(omega2=0.18):
    cfg = reference_config(omega2)
    p = np.diagonal(initial_state(cfg)).real
    h1, h2 = _joint_hamiltonian_diagonals(cfg)
    basis_cols = canonical_basis().vectors.T
    return p, h1, h2, basis_cols


def test_closed_form_kernel_matches_channel_path():
    # 210 Haar bases, 30 per omega2 row, through the measurement channel
    gin = _accel.ginibre_batch(2718, 0, 30 * len(EXPERIMENT_OMEGA2))
    us = _accel.haar_from_ginibre(gin)
    for row, omega2 in enumerate(EXPERIMENT_OMEGA2):
        cfg = reference_config(omega2)
        idx = np.arange(row, len(gin), len(EXPERIMENT_OMEGA2))
        fast = _accel.cycle_energies_from_ginibre(gin[idx], *_kernel_inputs(omega2))
        for triple, i in zip(fast, idx):
            report = run_cycle(cfg, rotate_basis(us[i], canonical_basis()))
            assert np.allclose(triple, (report.dE1, report.dE2, report.dE), rtol=0, atol=1e-12)


def test_ginibre_substreams_are_independent_of_batching():
    batch = _accel.ginibre_batch(99, 0, 10)
    for i in range(10):
        single = _accel.ginibre_batch(99, i, 1)[0]
        assert np.array_equal(batch[i], single)


def test_ginibre_batch_offset():
    a = _accel.ginibre_batch(5, 3, 4)
    b = _accel.ginibre_batch(5, 0, 7)
    assert np.array_equal(a, b[3:])


def test_ginibre_rejects_bad_seed():
    with pytest.raises(ValueError):
        _accel.ginibre_batch(-1, 0, 2)
    with pytest.raises(ValueError):
        _accel.ginibre_batch(None, 0, 2)
    # numpy passes Philox keys >= 2**63 through float64, which aliases seeds
    with pytest.raises(ValueError):
        _accel.ginibre_batch(2**63, 0, 2)
    with pytest.raises(ValueError):
        _accel.ginibre_batch(1, 2**63 - 1, 2)
    assert _accel.ginibre_batch(2**63 - 1, 2**63 - 2, 2).shape == (2, 4, 4)


def test_haar_from_ginibre_unitary():
    gin = _accel.ginibre_batch(17, 0, 50)
    us = _accel.haar_from_ginibre(gin)
    eye = np.broadcast_to(np.eye(4), us.shape)
    assert np.allclose(us @ us.conj().transpose(0, 2, 1), eye, atol=1e-10)


def test_cycle_energy_samples_deterministic():
    p, h1, h2, basis_cols = _kernel_inputs()
    a = _accel.cycle_energy_samples(p, h1, h2, basis_cols, seed=4, n=64)
    b = _accel.cycle_energy_samples(p, h1, h2, basis_cols, seed=4, n=64)
    assert np.array_equal(a, b)
    c = _accel.cycle_energy_samples(p, h1, h2, basis_cols, seed=4, n=32, start=32)
    assert np.allclose(a[32:], c, atol=1e-14)


def test_cycle_samples_triple_additivity():
    p, h1, h2, basis_cols = _kernel_inputs()
    out = _accel.cycle_energy_samples(p, h1, h2, basis_cols, seed=21, n=500)
    assert np.allclose(out[:, 2], out[:, 0] + out[:, 1], atol=1e-14)
