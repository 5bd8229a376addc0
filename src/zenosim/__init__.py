"""Dense-matrix toolkit for measurement-driven (Zeno) Hamiltonian simulation.

Builds the extended register (the prepared ancilla state and the controlled
short-time evolutions), runs the first-order, second-order, kick, and
unbiased-basis projector sequences plus randomized (qdrift) and Trotter
baselines, and checks every measured error and success probability against
its closed-form bound.
"""

from . import bounds
from .bounds import ZenoRunResult
from .channels import (
    ChannelRep,
    QdriftTrajectory,
    choi_matrix,
    diamond_lower_bound,
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
    fit_loglog_slope,
    run_experiment,
)
from .hamiltonian import (
    PauliHamiltonian,
    PauliTerm,
    exact_evolution,
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

# The import block above is the one declaration of the public names: every name it binds, and the bounds module.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and (name == "bounds" or not isinstance(value, type(bounds)))
)
