"""Symbolic boolean algebra over event variables.

The formal semantics of MoCCML (paper §II-C) represents every execution
step as a boolean expression over *E*, a set of boolean variables in
bijection with the MoCC events; the conjunction of all constraint
expressions characterizes the acceptable steps. This package provides:

* :mod:`repro.boolalg.expr` — an immutable expression AST with
  evaluation, substitution, light simplification and brute-force model
  enumeration (the reference the BDD is tested against);
* :mod:`repro.boolalg.bdd` — a hash-consed reduced ordered BDD package,
  the one boolean decision procedure: the engine enumerates and counts
  acceptable steps on it, and lint decides dead events on it.
"""

from repro.boolalg.expr import (
    FALSE,
    TRUE,
    And,
    BExpr,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    Xor,
    all_assignments,
    iter_models,
)
from repro.boolalg.bdd import Bdd

__all__ = [
    "BExpr", "Var", "Const", "Not", "And", "Or", "Implies", "Iff", "Xor",
    "TRUE", "FALSE",
    "all_assignments", "iter_models",
    "Bdd",
]
