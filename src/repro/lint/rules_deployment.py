"""Deployment/PAM rules: allocation completeness, platform pressure.

:func:`~repro.deployment.weaver.deploy` *refuses* an allocation with
missing or unknown entries, so the two ERROR rules can never fire on a
successfully loaded handle — they exist (and are unit-tested) through
:func:`allocation_diagnostics`, the pre-deploy entry point tools can
run on a candidate ``(app, platform, allocation)`` triple before
committing to the weave. :func:`rule_allocation` surfaces its findings
under both IDs from one call. The WARN/INFO rules read the woven
:class:`~repro.deployment.weaver.DeploymentResult` bookkeeping.
"""

from __future__ import annotations

from repro.lint.core import Diagnostic, register_rule


def allocation_diagnostics(app, platform, allocation) -> list[Diagnostic]:
    """DEP001/DEP002 findings for a candidate allocation (pre-deploy).

    Mirrors :meth:`Allocation.check` with structured output: DEP001 for
    agents with no processor, DEP002 for entries naming unknown agents
    or processors.
    """
    diagnostics = []
    agent_names = {agent.name for agent in app.get("agents")}
    processor_names = {proc.name for proc in platform.processors()}
    for agent in sorted(agent_names):
        if agent in allocation.mapping:
            continue
        diagnostics.append(Diagnostic(
            rule="DEP001", severity="error",
            path=f"{app.name}.{agent}",
            message=f"agent {agent!r} has no allocation",
            data={"agent": agent,
                  "confirm": {"kind": "deploy-error"}}))
    for agent, processor in allocation.mapping.items():
        if agent not in agent_names:
            diagnostics.append(Diagnostic(
                rule="DEP002", severity="error",
                path=f"{app.name}.{agent}",
                message=f"allocation names unknown agent {agent!r}",
                data={"agent": agent,
                      "confirm": {"kind": "deploy-error"}}))
        if processor not in processor_names:
            diagnostics.append(Diagnostic(
                rule="DEP002", severity="error",
                path=f"{app.name}.{agent}",
                message=f"agent {agent!r} allocated to unknown "
                        f"processor {processor!r}",
                data={"agent": agent, "processor": processor,
                      "confirm": {"kind": "deploy-error"}}))
    return diagnostics


@register_rule(
    "DEP001", severity="error", requires="deployment",
    summary="agent with no processor allocation",
    confirm="`deploy()` refuses the model with a DeploymentError (a "
            "loaded handle is therefore always clean)")
@register_rule(
    "DEP002", severity="error", requires="deployment",
    summary="allocation entry naming an unknown agent or processor",
    confirm="`deploy()` refuses the model with a DeploymentError (a "
            "loaded handle is therefore always clean)")
def rule_allocation(handle):
    result = handle.deployment
    yield from allocation_diagnostics(
        handle.application, result.platform, result.allocation)


@register_rule(
    "DEP003", severity="warning", requires="deployment",
    summary="processor hosting several agents (mutex serialization)",
    confirm="none (legal, but the woven mutex serializes the hosted "
            "agents and often halves throughput)")
def rule_shared_processor(handle):
    result = handle.deployment
    for processor in result.platform.processors():
        hosted = result.allocation.agents_on(processor.name)
        if len(hosted) < 2:
            continue
        yield Diagnostic(
            rule="DEP003", severity="warning",
            path=f"{result.platform.name}.{processor.name}",
            message=f"processor {processor.name!r} hosts "
                    f"{len(hosted)} agents ({', '.join(hosted)}): "
                    f"their executions are serialized by a mutex",
            data={"processor": processor.name, "agents": hosted})


@register_rule(
    "DEP004", severity="info", requires="deployment",
    summary="cross-processor place subject to communication latency",
    confirm="none (derived fact: the woven comm-delay constraint "
            "postpones reads by the link latency)")
def rule_comm_delay(handle):
    result = handle.deployment
    for place_name in sorted(result.comm_delays):
        runtime = result.comm_delays[place_name]
        yield Diagnostic(
            rule="DEP004", severity="info",
            path=f"{handle.application.name}.{place_name}",
            message=f"place {place_name!r} crosses processors: reads "
                    f"lag writes by latency {runtime.latency}",
            data={"place": place_name, "latency": runtime.latency})
