"""Two-qubit, two-stroke measurement-cooling engine simulator.

A non-selective quantum measurement injects energy into a pair of Gibbs
qubits; depending on the measurement basis and the parameters, the cycle
refrigerates the cold bath, extracts energy, accelerates the natural heat
flow, or just heats everything.  Every measurement acts on the populations of
the diagonal Gibbs product through a 4x4 population map.  The package provides
the cycle energetics on those maps, Haar-random measurement statistics, two
detector noise models, the path-polarization optics of the thermalizing step
(the hologram's four Kraus operators, cross-validated against the abstract
channel), and process/measurement tomography with an optional shot-noise
layer.  The density-matrix channels are oracles of the test suite.
"""

__version__ = "0.1.0"

from .engine import (
    EngineConfig,
    EngineReport,
    FrequencyEstimate,
    HaarAverageReport,
    RegimeLabel,
    classify,
    critical_visibility,
    depolarizing_prediction,
    frequency_sweep,
    haar_average_report,
    noise_sweep,
    regime,
    run_cycle,
)
from .errors import ConfigError, SecondLawViolation, ValidationError
from .measure import (
    HaarSampler,
    MeasurementBasis,
    PovmSet,
    canonical_basis,
    haar_unitaries,
    haar_unitary,
    rotate_basis,
    white_noise_mixture_weights,
    white_noise_povm,
)
from .optics import (
    Hologram,
    d_of_omega,
    hologram_channel,
    omega_of_d,
    solve_hologram,
)
from .thermo import (
    BathSpec,
    KrausChannel,
    QubitSpec,
    thermalizing_channel,
)
from .tomo import (
    chi_from_kraus,
    measurement_tomography,
    process_fidelity,
    process_tomography,
)

__all__ = [
    "__version__",
    "BathSpec",
    "ConfigError",
    "EngineConfig",
    "EngineReport",
    "FrequencyEstimate",
    "HaarAverageReport",
    "HaarSampler",
    "Hologram",
    "KrausChannel",
    "MeasurementBasis",
    "PovmSet",
    "QubitSpec",
    "RegimeLabel",
    "SecondLawViolation",
    "ValidationError",
    "canonical_basis",
    "chi_from_kraus",
    "classify",
    "critical_visibility",
    "d_of_omega",
    "depolarizing_prediction",
    "frequency_sweep",
    "haar_average_report",
    "haar_unitaries",
    "haar_unitary",
    "hologram_channel",
    "measurement_tomography",
    "noise_sweep",
    "omega_of_d",
    "process_fidelity",
    "process_tomography",
    "regime",
    "rotate_basis",
    "run_cycle",
    "solve_hologram",
    "thermalizing_channel",
    "white_noise_mixture_weights",
    "white_noise_povm",
]
