"""Dense-matrix toolkit for measurement-driven (Zeno) Hamiltonian simulation.

Builds the extended-register circuits (prepare, controlled short-time
evolutions, reflection), runs the first-order, second-order, kick, and
unbiased-basis projector sequences plus randomized (qdrift) and Trotter
baselines, and checks every measured error and success probability against
its closed-form bound.
"""

from . import bounds
from .channels import (
    ChannelRep,
    QdriftTrajectory,
    choi_matrix,
    diamond_lower_bound,
    exact_evolution,
    is_completely_positive,
    is_trace_preserving,
    qdrift_channel,
    qdrift_sample,
    trotter_first_order,
    unitary_channel,
)
from .errors import (
    CancellationError,
    ConfigError,
    ConvergenceError,
    HamiltonianParseError,
    LimitExceededError,
    ZenosimError,
)
from .experiments import (
    ExperimentConfig,
    MethodComparison,
    SweepResult,
    compare_methods,
    emit_results,
    fit_loglog_slope,
    run_experiment,
)
from .hamiltonian import (
    PauliHamiltonian,
    PauliTerm,
    hamiltonian_matrix,
    load_hamiltonian,
    parse_hamiltonian,
    term_matrix,
    to_text,
)
from .linalg import (
    hermitian_eigen,
    matexp_hermitian,
    spectral_norm,
    trace_norm,
)
from .zeno import (
    ExtendedSystem,
    ZenoRunResult,
    block_encoding_matrix,
    build_extended,
    extended_hamiltonian,
    run_kicks,
    run_sampled,
    run_zeno,
    select_unitary,
    step_success_probability,
)

__version__ = "0.1.0"

__all__ = [
    "CancellationError",
    "ChannelRep",
    "ConfigError",
    "ConvergenceError",
    "ExperimentConfig",
    "ExtendedSystem",
    "HamiltonianParseError",
    "LimitExceededError",
    "MethodComparison",
    "PauliHamiltonian",
    "PauliTerm",
    "QdriftTrajectory",
    "SweepResult",
    "ZenoRunResult",
    "ZenosimError",
    "block_encoding_matrix",
    "bounds",
    "build_extended",
    "choi_matrix",
    "compare_methods",
    "diamond_lower_bound",
    "emit_results",
    "exact_evolution",
    "extended_hamiltonian",
    "fit_loglog_slope",
    "hamiltonian_matrix",
    "hermitian_eigen",
    "is_completely_positive",
    "is_trace_preserving",
    "load_hamiltonian",
    "matexp_hermitian",
    "parse_hamiltonian",
    "qdrift_channel",
    "qdrift_sample",
    "run_experiment",
    "run_kicks",
    "run_sampled",
    "run_zeno",
    "select_unitary",
    "spectral_norm",
    "step_success_probability",
    "term_matrix",
    "to_text",
    "trace_norm",
    "trotter_first_order",
    "unitary_channel",
]
