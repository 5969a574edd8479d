"""DPLL satisfiability with all-solution enumeration.

A deliberately small, dependency-free solver. The per-step formulas the
engine solves have tens of variables and tight structure, so a DPLL with
unit propagation and pure-literal elimination is more than adequate;
blocking clauses drive the all-SAT enumeration.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro import obs
from repro.boolalg.cnf import Clause, to_cnf_clauses
from repro.boolalg.expr import BExpr


def _flush_stats(stats: dict) -> None:
    """Ship one solve's local DPLL counters to the global registry —
    once per solve, never per decision (the recursion is the hot path)."""
    if stats["decisions"]:
        obs.count("sat.decisions", stats["decisions"])
    if stats["propagations"]:
        obs.count("sat.propagations", stats["propagations"])


def is_satisfiable(expr: BExpr) -> bool:
    """Decide satisfiability of *expr*."""
    return solve_one(expr) is not None


def solve_one(expr: BExpr) -> dict[str, bool] | None:
    """Return one model of *expr* over its support, or None."""
    clauses = to_cnf_clauses(expr)
    stats = {"decisions": 0, "propagations": 0}
    model = _dpll(clauses, {}, stats=stats)
    _flush_stats(stats)
    if model is None:
        return None
    support = expr.support()
    result = {name: model.get(name, False) for name in support}
    return result


def solve_clauses(clauses: list[Clause],
                  assumptions: Mapping[str, bool] | None = None,
                  prefer_true: bool = False) -> dict[str, bool] | None:
    """Solve a pre-converted clause set under optional *assumptions*.

    Lets callers that probe one formula under many assumptions (e.g.
    the lint dead-event rule) pay the CNF conversion once. Variables
    absent from the returned model are unconstrained (either polarity
    works). ``prefer_true`` branches True-first, biasing the returned
    model toward maximal assignments (useful when one model should
    witness as many variables as possible).
    """
    stats = {"decisions": 0, "propagations": 0}
    model = _dpll(clauses, dict(assumptions or {}), prefer_true,
                  stats=stats)
    _flush_stats(stats)
    return model


def all_sat(expr: BExpr, over: frozenset[str] | None = None,
            limit: int | None = None) -> Iterator[dict[str, bool]]:
    """Enumerate every model of *expr* over ``support(expr) | over``.

    Free variables (in *over* but not the support) are expanded to both
    polarities so the enumeration is total over the requested set.
    Deterministic order: models are generated by DPLL with the smallest
    unassigned variable decided False first.
    """
    variables = frozenset(expr.support()) | (over or frozenset())
    clauses = to_cnf_clauses(expr)
    count = 0
    for model in _enumerate(clauses, sorted(variables)):
        yield model
        count += 1
        if limit is not None and count >= limit:
            return


def _enumerate(clauses: list[Clause],
               variables: list[str]) -> Iterator[dict[str, bool]]:
    """Backtracking enumeration over *variables* honouring *clauses*."""

    def recurse(index: int,
                assignment: dict[str, bool],
                remaining: list[Clause]) -> Iterator[dict[str, bool]]:
        simplified = _simplify(remaining, assignment)
        if simplified is None:
            return
        if index == len(variables):
            if not simplified:
                yield dict(assignment)
            return
        name = variables[index]
        if name in assignment:
            yield from recurse(index + 1, assignment, simplified)
            return
        for value in (False, True):
            assignment[name] = value
            yield from recurse(index + 1, assignment, simplified)
            del assignment[name]

    yield from recurse(0, {}, clauses)


def _simplify(clauses: list[Clause],
              assignment: Mapping[str, bool]) -> list[Clause] | None:
    """Apply *assignment*; None signals a falsified clause."""
    result: list[Clause] = []
    for clause in clauses:
        satisfied = False
        reduced: list[tuple[str, bool]] = []
        for name, polarity in clause:
            if name in assignment:
                if assignment[name] == polarity:
                    satisfied = True
                    break
            else:
                reduced.append((name, polarity))
        if satisfied:
            continue
        if not reduced:
            return None
        result.append(frozenset(reduced))
    return result


def _dpll(clauses: list[Clause], assignment: dict[str, bool],
          prefer_true: bool = False,
          stats: dict | None = None) -> dict[str, bool] | None:
    """Classic DPLL: unit propagation, pure literals, then branching.

    *stats* (optional) accumulates ``decisions``/``propagations`` counts
    locally; entry points flush it to the observability registry once
    per solve.
    """
    clauses = _simplify(clauses, assignment)  # type: ignore[assignment]
    if clauses is None:
        return None
    assignment = dict(assignment)

    changed = True
    while changed:
        changed = False
        # unit propagation
        for clause in clauses:
            if len(clause) == 1:
                (name, polarity), = clause
                assignment[name] = polarity
                clauses = _simplify(clauses, {name: polarity})
                if clauses is None:
                    return None
                if stats is not None:
                    stats["propagations"] += 1
                changed = True
                break
        if changed:
            continue
        # pure literal elimination
        polarities: dict[str, set[bool]] = {}
        for clause in clauses:
            for name, polarity in clause:
                polarities.setdefault(name, set()).add(polarity)
        for name, seen in polarities.items():
            if len(seen) == 1:
                polarity = next(iter(seen))
                assignment[name] = polarity
                clauses = _simplify(clauses, {name: polarity})
                if clauses is None:  # pragma: no cover - pure literal is safe
                    return None
                changed = True
                break

    if not clauses:
        return assignment

    # branch on the first variable of the first clause (deterministic)
    first_clause = min(clauses, key=lambda c: sorted(c))
    name = sorted(first_clause)[0][0]
    for value in ((True, False) if prefer_true else (False, True)):
        if stats is not None:
            stats["decisions"] += 1
        extended = dict(assignment)
        extended[name] = value
        result = _dpll(clauses, extended, prefer_true, stats=stats)
        if result is not None:
            return result
    return None
