"""MoCCML rules: unreachable automaton states, overlapping guards.

One *exact bounded local walk* per
:class:`~repro.moccml.semantics.automata_rt.AutomatonRuntime` instance
answers both rules, so :func:`rule_automaton_walk` is registered under
MOC001 and MOC002. The walk is the engine's
(:func:`repro.engine.encodability.local_walk`), where it also bounds
each automaton's local state count for the encodability predictor, and
so for ENC001: a BFS over ``(state, variables)`` configurations via
``snapshot``/``restore`` on a clone, presenting every subset of the
instance's (small) local alphabet as a candidate step — the empty one
too, as the engine's own closure does, since a transition without
``when`` events fires on a step that leaves the alphabet out. An
instance past the walk's caps gets no finding. The walk
over-approximates what the instance sees inside the full model (global
constraints can only *remove* steps), so states it never reaches are
truly unreachable — but a reported guard overlap might not be
triggerable globally, which is why both rules stay WARN severity.
"""

from __future__ import annotations

from repro.engine.encodability import local_walk
from repro.lint.core import Diagnostic, register_rule
from repro.lint.rules_ccsl import leaf_runtimes
from repro.moccml.semantics.automata_rt import AutomatonRuntime


@register_rule(
    "MOC001", severity="warning", requires="execution_model",
    summary="automaton state unreachable under any environment",
    confirm="none (the local walk over-approximates the environment, "
            "so unreachability is already exact; WARN because dead "
            "specification states are legal)")
@register_rule(
    "MOC002", severity="warning", requires="execution_model",
    summary="overlapping transition guards (nondeterministic choice "
            "resolved by declaration order)",
    confirm="none (the overlap is exact locally but may be masked by "
            "other constraints in the full model)")
def rule_automaton_walk(handle):
    model = handle.execution_model
    for runtime in leaf_runtimes(model):
        if not isinstance(runtime, AutomatonRuntime):
            continue
        walk = local_walk(runtime)
        if walk is None:
            continue
        unreachable = [name for name in runtime.definition.state_names()
                       if name not in walk["states"]]
        if unreachable:
            yield Diagnostic(
                rule="MOC001", severity="warning",
                path=f"{model.name}.{runtime.label}",
                message=f"automaton {runtime.label!r}: state(s) "
                        f"{', '.join(unreachable)} are unreachable under "
                        f"any environment",
                data={"constraint": runtime.label,
                      "states": unreachable})
        for state in sorted(walk["overlaps"]):
            for step, transitions in walk["overlaps"][state]:
                yield Diagnostic(
                    rule="MOC002", severity="warning",
                    path=f"{model.name}.{runtime.label}",
                    message=f"automaton {runtime.label!r}: in state "
                            f"{state!r} the step {{{', '.join(step)}}} "
                            f"enables {len(transitions)} transitions "
                            f"({', '.join(transitions)}); the first "
                            f"declared wins",
                    data={"constraint": runtime.label, "state": state,
                          "step": list(step),
                          "transitions": list(transitions)})
