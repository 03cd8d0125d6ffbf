"""Linear-algebra layer: states, tensor products, distances; the partial-trace
and entropy oracles of the test suite."""

import numpy as np
import pytest

from qmcool import EngineConfig, ValidationError
from qmcool.thermo import as_complex, thermal_populations
from qmcool.tomo import _fidelity, _kron_pairs

from helpers import (initial_state, partial_trace, random_density, random_unit_vector,
                     single_qubit_state, trace_distance, two_qubit_state, validate_density,
                     von_neumann_entropy)


# the package's two-qubit tensor products (tomography's Pauli and probe stacks,
# the Gibbs product) take qubit 1 as the slow, left Kronecker index
def test_tensor_identity():
    out = _kron_pairs(np.eye(2)[None])
    assert np.array_equal(out, np.eye(4)[None])


def test_tensor_pure_product():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    out = _kron_pairs(np.stack([a, b]))
    assert np.allclose(out[1], np.diag([0.0, 1.0, 0.0, 0.0]))
    assert np.allclose(out[2], np.diag([0.0, 0.0, 1.0, 0.0]))


def test_tensor_gibbs_product_diagonal():
    p1 = thermal_populations(1.02, 0.4)[0]
    p2 = thermal_populations(0.18, 1.0)[0]
    assert p1 == pytest.approx(0.6006082195512745, abs=1e-15)
    assert p2 == pytest.approx(0.54487889237358, abs=1e-15)
    rho = initial_state(EngineConfig.from_values(1.02, 0.18, 0.4, 1.0))
    expected = np.diag([p1 * p2, p1 * (1 - p2), (1 - p1) * p2, (1 - p1) * (1 - p2)])
    assert np.allclose(rho, expected, atol=1e-15)


def test_partial_trace_recovers_product_factors():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        joint = np.kron(a, b)
        assert np.allclose(partial_trace(joint, keep=1), a, atol=1e-13)
        assert np.allclose(partial_trace(joint, keep=2), b, atol=1e-13)


def test_partial_trace_bell_state_is_maximally_mixed():
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = np.outer(v, v.conj())
    assert np.allclose(partial_trace(rho, keep=1), np.eye(2) / 2, atol=1e-15)
    assert np.allclose(partial_trace(rho, keep=2), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_diagonal_marginals():
    rho = np.diag([0.4, 0.1, 0.3, 0.2])
    assert np.allclose(partial_trace(rho, keep=1), np.diag([0.5, 0.5]), atol=1e-15)
    assert np.allclose(partial_trace(rho, keep=2), np.diag([0.7, 0.3]), atol=1e-15)


def test_partial_trace_rejects_bad_keep():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        partial_trace(rho, keep=3)


def test_fidelity_self_is_one():
    rng = np.random.default_rng(11)
    for _ in range(100):
        rho = random_density(rng, 4)
        assert _fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_orthogonal_pure_states():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert _fidelity(a, b) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_mixed_versus_pure():
    assert _fidelity(np.eye(2) / 2, np.diag([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        assert _fidelity(a, b) == pytest.approx(_fidelity(b, a), abs=1e-10)


def test_validate_density_rejects_non_hermitian():
    bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        validate_density(bad)


def test_validate_density_rejects_wrong_trace():
    with pytest.raises(ValueError):
        validate_density(np.eye(2))


def test_validate_density_rejects_negative_eigenvalue():
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        validate_density(bad)


def test_validate_density_accepts_tiny_negative_floor():
    rho = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    validate_density(rho)


def test_single_and_two_qubit_state_validate():
    single_qubit_state(np.eye(2) / 2)
    two_qubit_state(np.eye(4) / 4)
    with pytest.raises(ValueError):
        single_qubit_state(np.eye(4) / 4)
    with pytest.raises(ValueError):
        two_qubit_state(np.eye(2) / 2)


def test_trace_distance_basics():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(np.eye(2) / 2, a) == pytest.approx(0.5, abs=1e-12)


def test_entropy_basics():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(np.log(2), abs=1e-12)
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(np.log(4), abs=1e-12)


def test_pure_state_fidelity_is_overlap():
    rng = np.random.default_rng(17)
    for _ in range(30):
        u = random_unit_vector(rng, 4)
        v = random_unit_vector(rng, 4)
        a = np.outer(u, u.conj())
        b = np.outer(v, v.conj())
        # sqrt of a rank-1 projector amplifies eigensolver noise to ~sqrt(eps)
        assert _fidelity(a, b) == pytest.approx(abs(np.vdot(u, v)) ** 2, abs=1e-7)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0),
                                 complex(0.0, np.inf), complex(-np.inf, 1.0), complex(1.0, -np.inf),
                                 1j * np.inf])
def test_as_complex_rejects_a_non_finite_real_or_imaginary_part(bad):
    m = np.eye(4, dtype=np.complex128)
    m[2, 1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        as_complex(m)
    with pytest.raises(ValidationError, match="non-finite"):
        as_complex(m.tolist())
    m[2, 1] = complex(1e308, -1e308)
    assert as_complex(m)[2, 1] == complex(1e308, -1e308)
