"""Haar stream: Philox substream discipline, seed range and the QR step."""

import numpy as np
import pytest

from qmcool import HaarSampler, ValidationError, _accel


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
    # int() would alias 1.5, "7" and True to other seeds; None has no key
    for seed in (-1, None, 1.5, "7", True):
        with pytest.raises(ValidationError):
            _accel.ginibre_batch(seed, 0, 2)
    for seed in (None, 2**63, 1.5):
        with pytest.raises(ValidationError):
            HaarSampler(seed)
    with pytest.raises(ValidationError):
        HaarSampler(1, 2**63)
    # numpy passes Philox keys >= 2**63 through float64, which aliases seeds
    with pytest.raises(ValidationError):
        _accel.ginibre_batch(2**63, 0, 2)
    with pytest.raises(ValidationError):
        _accel.ginibre_batch(1, 2**63 - 1, 2)
    assert _accel.ginibre_batch(2**63 - 1, 2**63 - 2, 2).shape == (2, 4, 4)


def test_haar_from_ginibre_unitary():
    gin = _accel.ginibre_batch(17, 0, 50)
    us = _accel.haar_from_ginibre(gin)
    eye = np.broadcast_to(np.eye(4), us.shape)
    assert np.allclose(us @ us.conj().transpose(0, 2, 1), eye, atol=1e-10)
