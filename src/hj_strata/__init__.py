"""Numerical laboratory for 2D Hamilton-Jacobi homogenization with line defects.

The package solves three related families of control problems on the fast
scale (periodic strips, compact cores, periodic backgrounds), assembles the
resulting effective Hamiltonian tables, and integrates the limit equation on
a stratified grid whose interface line and origin carry their own update
rules.
"""

from .scenario import (
    FieldPair,
    Scenario,
    ScenarioError,
    SolverSchedules,
    load_preset,
    parse_scenario,
    preset_names,
)
from .hamiltonian import ValidationReport, validate_assumptions
from .expressions import ExpressionError, ScalarExpr, parse_expression

__version__ = "0.1.0"

__all__ = [
    "FieldPair",
    "Scenario",
    "ScenarioError",
    "SolverSchedules",
    "ValidationReport",
    "load_preset",
    "parse_scenario",
    "preset_names",
    "validate_assumptions",
    "ExpressionError",
    "ScalarExpr",
    "parse_expression",
    "__version__",
]
