"""Linear-algebra layer: density validation, single- and two-qubit states, distances,
entropy and complex input; the entropy oracle of the test suite."""

import numpy as np
import pytest

from qmcool import (KrausChannel, MeasurementBasis, PovmSet, ValidationError, canonical_basis,
                    rotate_basis)
from qmcool.thermo import as_complex

from helpers import (random_unit_vector, single_qubit_state, state_fidelity, trace_distance,
                     two_qubit_state, validate_density, von_neumann_entropy)


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
        assert state_fidelity(a, b) == pytest.approx(abs(np.vdot(u, v)) ** 2, abs=1e-7)


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


@pytest.mark.parametrize("bad", ["abc", [[1, 2], [3]], {}, 10**400],
                         ids=["malformed_string", "ragged_list", "dict", "int_beyond_floats"])
def test_input_numpy_cannot_read_is_a_validation_error(bad):
    # numpy's own ValueError, TypeError or OverflowError escaped from every constructor
    builds = (as_complex, MeasurementBasis, lambda m: rotate_basis(m, canonical_basis()),
              PovmSet, lambda m: KrausChannel((m,)))
    for build in builds:
        with pytest.raises(ValidationError, match="^matrix cannot be read as complex numbers"):
            build(bad)
