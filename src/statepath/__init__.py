"""Tools for a boundary functional on Hilbert-space paths.

The central object is the complex functional Z = exp(<psi_e|U(t)|psi_i> - 1)
assigning a weight to every (initial state, final state) pair; its magnitude
is provably confined to [e^-2, 1] and is maximal exactly at the
Schrodinger-evolved final state. The package evaluates Z in closed form and
as a product over energy modes, reproduces the single-mode value from a
time-sliced coherent-state chain (exact sequential Gaussian reduction plus
a Monte-Carlo cross-check), maximizes |Z| on the unit sphere by projected
gradient ascent, and extends the weight with quantumness penalties that
drive collapse-like selection of pointer states in a small detector model.
"""

from .functional import (
    ABS_Z_LOWER,
    ABS_Z_UPPER,
    FunctionalValue,
    basis_invariance_check,
    overlap,
    z_closed_form,
    z_from_mode_product,
    z_mode_factor,
)
from .hilbert import (
    Hamiltonian,
    SpectralDecomposition,
    StateVector,
    UnitaryPropagator,
    evolve,
    propagator,
    random_hamiltonian,
    random_state,
    random_unitary,
    spectral_decompose,
    to_energy_coefficients,
    transition_amplitude,
)
from .lattice import (
    CoherentChainProblem,
    PathLattice,
    TimeGrid,
    analytic_propagator,
    chain_reduce_exact,
    convergence_csv,
    convergence_study,
    discrete_action,
    loglog_slope,
    monte_carlo_estimate,
)
from .optimizer import (
    OptimizationResult,
    OptimizerConfig,
    euclidean_gradient,
    maximize_final_state,
    objective,
)
from .quantumness import (
    CollapseReport,
    MeasureKind,
    PenalizedOutcome,
    PenalizedPathProblem,
    PenaltyConfig,
    QuantumnessMeasure,
    optimize_penalized,
    penalized_log_magnitude,
    q_linear_entropy,
    q_pointer_deviation,
    qubit_detector_model,
)

__version__ = "0.1.0"

__all__ = [
    "ABS_Z_LOWER",
    "ABS_Z_UPPER",
    "CollapseReport",
    "CoherentChainProblem",
    "FunctionalValue",
    "Hamiltonian",
    "MeasureKind",
    "OptimizationResult",
    "OptimizerConfig",
    "PathLattice",
    "PenalizedOutcome",
    "PenalizedPathProblem",
    "PenaltyConfig",
    "QuantumnessMeasure",
    "SpectralDecomposition",
    "StateVector",
    "TimeGrid",
    "UnitaryPropagator",
    "analytic_propagator",
    "basis_invariance_check",
    "chain_reduce_exact",
    "convergence_csv",
    "convergence_study",
    "discrete_action",
    "euclidean_gradient",
    "evolve",
    "loglog_slope",
    "maximize_final_state",
    "monte_carlo_estimate",
    "objective",
    "optimize_penalized",
    "overlap",
    "penalized_log_magnitude",
    "propagator",
    "q_linear_entropy",
    "q_pointer_deviation",
    "qubit_detector_model",
    "random_hamiltonian",
    "random_state",
    "random_unitary",
    "spectral_decompose",
    "to_energy_coefficients",
    "transition_amplitude",
    "z_closed_form",
    "z_from_mode_product",
    "z_mode_factor",
    "__version__",
]
