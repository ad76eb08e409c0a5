"""Multi-time-step monolithic coupling of Newmark integrators.

Decompose a linear elastodynamics model into subdomains, give each its
own Newmark scheme and time-step, glue them with velocity constraints and
advance everything monolithically — one saddle-point solve per system
time-step, no staggering, with full energy and drift diagnostics.
"""

from .coupling import (
    CoupledSystem,
    SignedBooleanMatrix,
    Subdomain,
    SubstepHistory,
    SystemStepResult,
    advance_system_step,
    initialize_coupled_system,
)
from .diagnostics import (
    DriftRecord,
    EnergyBreakdown,
    drift_record,
    energy_algorithm,
    energy_interface,
    step_energy_report,
    total_energy,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    NonFiniteState,
    SingularMatrix,
    SingularSaddleSystem,
)
from .newmark import (
    AVERAGE_ACCELERATION,
    CENTRAL_DIFFERENCE,
    KinematicState,
    NewmarkParams,
    critical_time_step,
)
from .problems import SCENARIOS, Scenario

__version__ = "0.1.0"

__all__ = [
    "AVERAGE_ACCELERATION",
    "CENTRAL_DIFFERENCE",
    "ConfigError",
    "CoupledSystem",
    "DimensionMismatch",
    "DriftRecord",
    "EnergyBreakdown",
    "KinematicState",
    "NewmarkParams",
    "NonFiniteState",
    "SCENARIOS",
    "Scenario",
    "SignedBooleanMatrix",
    "SingularMatrix",
    "SingularSaddleSystem",
    "Subdomain",
    "SubstepHistory",
    "SystemStepResult",
    "advance_system_step",
    "critical_time_step",
    "drift_record",
    "energy_algorithm",
    "energy_interface",
    "initialize_coupled_system",
    "step_energy_report",
    "total_energy",
]
