#!/usr/bin/env python3
"""Concurrency-aware analysis: checking properties of all schedules.

The paper motivates the explicit MoCC with "the effective usage of
concurrency-aware analysis techniques". This example checks properties
over the *complete* scheduling state space of a small sensor pipeline:

* safety  — the place never overflows, mutual exclusion holds;
* reachability — the sink can fire (with a shortest witness schedule);
* inevitability / leads-to — every source firing is eventually followed
  by a sink firing, under every acceptable schedule;
* divergence — which properties break when the MoCC changes.

State questions are CTL text answered by ``Workbench.check`` (the
``CheckSpec`` behind ``repro check``), on either backend. The one
step-level question CTL cannot phrase — two events never *taken* in one
step — is :func:`~repro.engine.analysis.check_mutual_exclusion` over the
explored state space.

Run: python examples/property_checking.py
"""

from repro.deployment import Allocation, Platform
from repro.engine.analysis import check_mutual_exclusion
from repro.sdf import SdfBuilder
from repro.workbench import DeploymentSpec, Workbench


def build_pipeline():
    builder = SdfBuilder("sensor")
    builder.agent("sense")
    builder.agent("proc")
    builder.agent("log")
    builder.connect("sense", "proc", capacity=2, name="raw")
    builder.connect("proc", "log", capacity=2, name="cooked")
    return builder


def verdict(workbench, model, text, strategy="auto"):
    return workbench.check(model, text, strategy=strategy).data["verdict"]


def main() -> None:
    workbench = Workbench()
    workbench.add(build_pipeline(), name="sensor")
    space = workbench.explore("sensor", include_graph=True).statespace()
    print(f"explored {space.n_states} states / "
          f"{space.n_transitions} transitions (complete: "
          f"{not space.truncated})\n")

    # -- safety ---------------------------------------------------------
    # adjacent agents share a place; the base MoCC forbids simultaneous
    # read/write, so they can never fire in the same step
    print("safety:")
    print("  sense and proc never fire together:",
          check_mutual_exclusion(space, ["sense.start", "proc.start"]))
    print("  sense and log never fire together (no shared place):",
          check_mutual_exclusion(space, ["sense.start", "log.start"]))
    print("  the raw place never overflows:",
          verdict(workbench, "sensor",
                  "AG var(PlaceLimitation@Place:raw.size) <= 2"))

    # -- reachability with witness ----------------------------------------
    print("\nreachability:")
    reach = workbench.check("sensor", "EF occurs(log.start)")
    print("  the log agent can fire:", reach.data["verdict"])
    print("  shortest schedule to a state where it can fire:")
    for index, step in enumerate(reach.trace()):
        fired = sorted(e for e in step if e.endswith(".start"))
        print(f"    step {index}: {fired}")

    # -- liveness ------------------------------------------------------------
    print("\nliveness (over ALL acceptable schedules):")
    print("  log firing is inevitable:",
          verdict(workbench, "sensor", "AF occurs(log.start)"))
    print("  every sense firing leads to a log firing:",
          verdict(workbench, "sensor",
                  "occurs(sense.start) leads_to occurs(log.start)"))

    # -- the same checks after deployment --------------------------------------
    platform = Platform("mono")
    platform.processor("cpu")
    workbench.add(
        DeploymentSpec(
            application=build_pipeline(),
            deployment=(platform, Allocation(
                {"sense": "cpu", "proc": "cpu", "log": "cpu"}))),
        name="deployed")
    deployed_space = workbench.explore(
        "deployed", include_graph=True).statespace()
    print("\nafter mono-processor deployment:")
    print("  sense and log never fire together anymore:",
          check_mutual_exclusion(deployed_space,
                                 ["sense.start", "log.start"]))
    print("  log firing still inevitable:",
          verdict(workbench, "deployed", "AF occurs(log.start)"))
    print("\nThe deployment changed the safety landscape (full mutual "
          "exclusion) while preserving liveness — checked over every "
          "schedule, not just one simulation.")

    # -- one property text, any backend -------------------------------------
    # The symbolic backend answers the same CTL text without ever
    # building the graph, and returns the same verdicts.
    print("\nsymbolic backend (repro check --strategy symbolic):")
    for text in ("AG !deadlock",
                 "AF occurs(log.start)",
                 "occurs(sense.start) leads_to occurs(log.start)"):
        print(f"  {text:55s} "
              f"{verdict(workbench, 'sensor', text, 'symbolic').upper()}")
    refuted = workbench.check("sensor", "AG occurs(sense.start)")
    print(f"  {'AG occurs(sense.start)':55s} "
          f"{refuted.data['verdict'].upper()} "
          f"(counterexample of {len(refuted.data['trace'])} step(s), "
          f"replayable via result.trace())")


if __name__ == "__main__":
    main()
