"""SigPML/SDF rules: balance equations, schedulability, dead actors.

All graph reasoning runs per *connected component* of the flattened
:func:`~repro.sdf.analysis.place_infos` view — the dynamic claims
(deadlock, dead actors) are component-local, and the cross-check
harness replays them on the projected component model when the graph
is disconnected.

The theory is :mod:`repro.sdf.analysis`'s: one
:func:`~repro.sdf.analysis.components` call gives every component with
its repetition vector, and each consistent component gets one
unbounded and one bounded
:func:`~repro.sdf.analysis.class_s_schedule` run.
:func:`rule_schedulability` reads those results once for SDF001,
SDF002, SDF004 and SDF005; only whether each run finds a schedule
matters, not the schedule.
"""

from __future__ import annotations

from repro.lint.core import Diagnostic, register_rule
from repro.sdf.analysis import (
    PlaceInfo,
    agent_names,
    class_s_schedule,
    components,
    place_infos,
)


def component_doc(handle, members: list[str]) -> dict:
    """A standalone SigPML model document of one component — the
    cross-check harness confirms component-local claims on it.

    Sound because components share no places: the full model's step
    space is the product of its components', so a component's behavior
    in isolation equals its behavior inside the full model.
    """
    app = handle.application
    cycles = {agent.name: agent.get("cycles")
              for agent in app.get("agents")}
    member_set = set(members)
    lines = [f"application {app.name}_component {{"]
    for name in members:
        suffix = f" cycles {cycles[name]}" if cycles.get(name) else ""
        lines.append(f"  agent {name}{suffix}")
    for place in place_infos(app):
        if place.producer not in member_set:
            continue
        line = (f"  place {place.producer} -> {place.consumer} "
                f"push {place.push} pop {place.pop} "
                f"capacity {place.capacity}")
        if place.delay:
            line += f" delay {place.delay}"
        lines.append(line)
    lines.append("}")
    return {"frontend": "sigpml", "text": "\n".join(lines) + "\n"}


def _deadlock_confirm(members: list[str], whole: bool) -> dict:
    confirm = {"kind": "deadlock", "agents": list(members)}
    if not whole:
        confirm["project"] = True
    return confirm


@register_rule(
    "SDF001", severity="error", requires="application",
    summary="rate-inconsistent dataflow graph (balance equations only "
            "admit the zero vector)",
    confirm="every execution of the component is finite, so `EF "
            "deadlock` HOLDS on the (projected) component")
@register_rule(
    "SDF002", severity="error", requires="application",
    summary="consistent graph admitting no periodic schedule (class-S "
            "construction fails even with unbounded buffers)",
    confirm="the class-S theorem makes every schedule deadlock: `EF "
            "deadlock` HOLDS on the (projected) component")
@register_rule(
    "SDF004", severity="info", requires="application",
    summary="repetition vector of a consistent, schedulable graph",
    confirm="an ASAP run settles into a cycle whose per-agent firing "
            "counts are an exact integer multiple of the vector")
@register_rule(
    "SDF005", severity="warning", requires="application",
    summary="under-capacity buffering: a periodic schedule exists with "
            "unbounded buffers but the capacity-aware construction "
            "fails",
    confirm="none (the greedy bounded construction is incomplete "
            "under concurrent firing, so this stays a warning)")
def rule_schedulability(handle):
    app = handle.application
    graph = components(app)
    whole = len(graph) == 1
    for component in graph:
        members = component.agents
        group = f"{{{', '.join(members)}}}"
        path = f"{app.name}.{group}"
        rates = component.repetition
        if rates is None:
            yield Diagnostic(
                rule="SDF001", severity="error", path=path,
                message=f"rate-inconsistent component {group}: the "
                        f"balance equations have no positive repetition "
                        f"vector, so with bounded buffers every schedule "
                        f"eventually deadlocks",
                data={"agents": members,
                      "confirm": _deadlock_confirm(members, whole)})
            continue
        unbounded = class_s_schedule(component.places, rates, bounded=False)
        bounded = class_s_schedule(component.places, rates, bounded=True)
        if unbounded is None:
            yield Diagnostic(
                rule="SDF002", severity="error", path=path,
                message=f"component {group} admits no periodic "
                        f"admissible schedule: by the class-S theorem "
                        f"every schedule of it deadlocks",
                data={"agents": members, "repetition": rates,
                      "confirm": _deadlock_confirm(members, whole)})
        if bounded is not None:
            yield Diagnostic(
                rule="SDF004", severity="info", path=path,
                message="repetition vector: "
                        + ", ".join(f"{name}={rates[name]}"
                                    for name in members),
                data={"agents": members, "repetition": rates,
                      "confirm": {"kind": "repetition",
                                  "agents": members,
                                  "repetition": rates}})
        elif unbounded is not None:
            yield Diagnostic(
                rule="SDF005", severity="warning", path=path,
                message=f"component {group} schedules with unbounded "
                        f"buffers but not within the declared "
                        f"capacities — likely under-provisioned places "
                        f"(artificial deadlock risk)",
                data={"agents": members, "repetition": rates})


@register_rule(
    "SDF003", severity="error", requires="application",
    summary="statically-dead actor: some input place can never "
            "accumulate its pop rate",
    confirm="`AG !occurs(<agent>.start)` HOLDS on the untruncated "
            "space")
def rule_dead_actor(handle):
    """Least-fixpoint may-fire analysis: an agent *may* fire when every
    input place either starts with ``delay >= pop`` tokens or is fed by
    a producer that may itself fire. The complement of this
    over-approximation (capacities and repeat-feasibility are ignored,
    which only *adds* may-fire agents) is definitely dead."""
    app = handle.application
    agents = agent_names(app)
    inputs: dict[str, list[PlaceInfo]] = {name: [] for name in agents}
    for place in place_infos(app):
        if place.producer != place.consumer:
            inputs[place.consumer].append(place)
        elif place.delay < place.pop:
            # a self-loop below its pop rate never fires its agent
            inputs[place.consumer].append(place)
    may_fire: set[str] = set()
    changed = True
    while changed:
        changed = False
        for agent in agents:
            if agent in may_fire:
                continue
            if all(place.delay >= place.pop
                   or (place.producer != place.consumer
                       and place.producer in may_fire)
                   for place in inputs[agent]):
                may_fire.add(agent)
                changed = True
    for agent in agents:
        if agent in may_fire:
            continue
        starving = [place.name for place in inputs[agent]
                    if place.delay < place.pop
                    and place.producer not in may_fire]
        yield Diagnostic(
            rule="SDF003", severity="error",
            path=f"{app.name}.{agent}",
            message=f"agent {agent!r} can never fire: input place(s) "
                    f"{', '.join(starving)} can never accumulate "
                    f"their pop rate",
            data={"agent": agent, "places": starving,
                  "confirm": {"kind": "dead-event",
                              "event": f"{agent}.start"}})
