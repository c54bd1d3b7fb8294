"""Frequency-estimation gain of GHZ probes over separable probes when
state preparation and readout times count against the duty cycle."""

from .bath import (
    BathKind,
    BathModel,
    coherence_time,
    decay_exponent,
    decay_exponent_derivative,
    ohmic_limit_rates,
)
from .errors import (
    CapacityError,
    DivergenceError,
    DomainError,
    GhzGainError,
    InfeasibleTimingError,
    NoThresholdError,
    SolverError,
    UnsupportedModelError,
    ValidationError,
)
from .gain import (
    GainResult,
    MonotonicityViolation,
    ScalingKind,
    ScalingLaw,
    gain,
    gain_isolated,
    monotonicity_scan,
    n_cutoff,
    n_cutoff_and_max_gain,
    n_max_gain,
    precision_opt,
    scaling_law_eval,
    threshold_ent_time,
)
from .opttime import (
    OptimalTime,
    optimal_sensing_time,
    stationarity_residual,
    tau_opt_isolated,
    tau_opt_markov,
    tau_opt_nonmarkov,
    tau_opt_numeric,
)
from .qfi import (
    MAX_QUBITS,
    EvolutionParams,
    ProbeKind,
    ProbeSpec,
    apply_dephasing,
    build_probe_state,
    evolve_phase,
    qfi_eigen,
    qfi_ghz,
    qfi_separable,
    rho_derivative,
    validate_density_matrix,
)
from .sweep import (
    AxisSpec,
    SweepConfig,
    SweepRow,
    SweepTable,
    config_from_dict,
    load_config,
    run_sweep,
    save_rows,
)

__version__ = "0.1.0"
