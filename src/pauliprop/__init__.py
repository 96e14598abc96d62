"""Sparse Pauli-path observable propagation with coefficient truncation."""

from .circuits import (
    Circuit,
    CircuitError,
    FixedAngle,
    Topology,
    UniformRandomAngle,
    builtin_topology,
    kicked_ising,
    load_topology,
    tfim_trotter_grid,
)
from .engine import (
    Aborted,
    BudgetExceeded,
    GateState,
    GateStats,
    RowCapExceeded,
    TraceLog,
    apply_rotation,
    evolve,
    expectation,
)
from .pauli import (
    InvariantViolation,
    PauliError,
    PauliString,
    canonical_real_coefficient,
    commutes,
    expectation_on_zero,
    multiply_by_generator,
)
from .sums import PauliSum

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PauliString",
    "PauliSum",
    "Circuit",
    "Topology",
    "FixedAngle",
    "UniformRandomAngle",
    "kicked_ising",
    "tfim_trotter_grid",
    "load_topology",
    "builtin_topology",
    "evolve",
    "apply_rotation",
    "expectation",
    "TraceLog",
    "GateStats",
    "GateState",
    "commutes",
    "multiply_by_generator",
    "expectation_on_zero",
    "canonical_real_coefficient",
    "PauliError",
    "CircuitError",
    "InvariantViolation",
    "Aborted",
    "BudgetExceeded",
    "RowCapExceeded",
]
