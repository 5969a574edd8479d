"""Classic SDF theory: balance equations, repetition vector, PASS.

This is the baseline the paper's MoCC is checked against (its ref [1],
Lee & Messerschmitt 1987): a consistent SDF graph has a repetition
vector solving Γ·r = 0 (Γ the topology matrix), and a deadlock-free
graph admits a Periodic Admissible Sequential Schedule (PASS) firing
each agent r times per iteration.

The balance equations are solved once, per connected component, by
:func:`components`, and the class-S loop exists once, as
:func:`class_s_schedule`. :func:`repetition_vector`,
:func:`pass_schedule` and :func:`analyze` read the whole graph through
them; ``repro lint``'s SDF rules (:mod:`repro.lint.rules_sdf`) read
them per component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from repro.errors import InconsistentGraphError, SdfError
from repro.kernel.mobject import MObject


@dataclass
class PlaceInfo:
    """Flattened view of one place."""

    name: str
    producer: str
    consumer: str
    push: int
    pop: int
    delay: int
    capacity: int


def place_infos(app: MObject) -> list[PlaceInfo]:
    """Extract the place structure of an application."""
    result = []
    for place in app.get("places"):
        out_port = place.get("outputPort")
        in_port = place.get("inputPort")
        result.append(PlaceInfo(
            name=place.name or f"place#{place.uid}",
            producer=out_port.get("agent").name,
            consumer=in_port.get("agent").name,
            push=out_port.get("rate"),
            pop=in_port.get("rate"),
            delay=place.get("delay"),
            capacity=place.get("capacity")))
    return result


def agent_names(app: MObject) -> list[str]:
    return [agent.name for agent in app.get("agents")]


def topology_matrix(app: MObject) -> tuple[list[list[int]], list[str], list[str]]:
    """The topology matrix Γ: one row per place, one column per agent.

    Entry = +push for the producer, -pop for the consumer (a self-loop
    place contributes push - pop). Returns (matrix, place names, agent
    names).
    """
    agents = agent_names(app)
    index = {name: i for i, name in enumerate(agents)}
    places = place_infos(app)
    matrix = []
    for place in places:
        row = [0] * len(agents)
        row[index[place.producer]] += place.push
        row[index[place.consumer]] -= place.pop
        matrix.append(row)
    return matrix, [place.name for place in places], agents


@dataclass
class Component:
    """One connected component of the dataflow graph, places read as
    undirected edges.

    ``agents`` and ``places`` keep declaration order. ``repetition`` is
    the component's repetition vector in that order, or ``None`` when
    its balance equations admit only the zero vector; ``conflict`` then
    names the first place found to break them.
    """

    agents: list[str] = field(default_factory=list)
    places: list[PlaceInfo] = field(default_factory=list)
    repetition: dict[str, int] | None = None
    conflict: str | None = None


def components(app: MObject) -> list[Component]:
    """The connected components of *app*, by first agent in
    declaration order, each with its repetition vector.

    A breadth-first walk from the component's first agent (rate 1)
    solves ``r_prod * push = r_cons * pop`` place by place, taking each
    agent's incident places in declaration order; a self-loop place
    must push what it pops. The rates are then scaled to the smallest
    positive integers.
    """
    agents = agent_names(app)
    places = place_infos(app)
    incident: dict[str, list[PlaceInfo]] = {name: [] for name in agents}
    for place in places:
        incident[place.producer].append(place)
        if place.consumer != place.producer:
            incident[place.consumer].append(place)

    rates: dict[str, Fraction] = {}
    owner: dict[str, Component] = {}
    result: list[Component] = []
    for seed in agents:
        if seed in rates:
            continue
        rates[seed] = Fraction(1)
        walk = [seed]
        conflict = None
        for current in walk:  # the walk grows as it reaches agents
            for place in incident[current]:
                if place.producer == place.consumer:
                    if place.push != place.pop and conflict is None:
                        conflict = (
                            f"self-loop place {place.name!r} has push "
                            f"{place.push} != pop {place.pop}")
                    continue
                # r_prod * push = r_cons * pop
                if place.producer in rates and place.consumer in rates:
                    left = rates[place.producer] * place.push
                    right = rates[place.consumer] * place.pop
                    if left != right and conflict is None:
                        conflict = (f"balance equations conflict at place "
                                    f"{place.name!r}")
                elif place.producer in rates:
                    rates[place.consumer] = (
                        rates[place.producer] * place.push / place.pop)
                    walk.append(place.consumer)
                elif place.consumer in rates:
                    rates[place.producer] = (
                        rates[place.consumer] * place.pop / place.push)
                    walk.append(place.producer)
        component = Component(conflict=conflict)
        result.append(component)
        for name in walk:
            owner[name] = component

    for name in agents:
        owner[name].agents.append(name)
    for place in places:
        owner[place.producer].places.append(place)
    for component in result:
        if component.conflict is not None:
            continue
        names = component.agents
        lcm = math.lcm(*(rates[name].denominator for name in names))
        scaled = [int(rates[name] * lcm) for name in names]
        gcd = math.gcd(*scaled)
        component.repetition = {name: value // gcd
                                for name, value in zip(names, scaled)}
    return result


def repetition_vector(app: MObject) -> dict[str, int]:
    """Smallest positive integer solution of the balance equations.

    Raises :class:`InconsistentGraphError` when only the zero vector
    solves them (sample-rate inconsistency). Disconnected graphs are
    normalized per connected component.
    """
    result: dict[str, int] = {}
    for component in components(app):
        if component.repetition is None:
            raise InconsistentGraphError(component.conflict)
        result.update(component.repetition)
    return {name: result[name] for name in agent_names(app)}


def class_s_schedule(places: list[PlaceInfo], repetitions: dict[str, int],
                     bounded: bool) -> list[str] | None:
    """Lee & Messerschmitt's class-S construction over *places*.

    Repeatedly fire the first agent, in sorted name order, that is
    runnable and has firings left in *repetitions*; ``None`` on
    deadlock. With *bounded*, writes also respect place capacities.
    Whether a schedule is found does not depend on that order: a place
    has one producer and one consumer, so firing an agent never
    disables another.
    """
    tokens = {id(place): place.delay for place in places}
    remaining = dict(repetitions)
    order = sorted(remaining)
    schedule: list[str] = []
    total = sum(remaining.values())

    by_consumer: dict[str, list[PlaceInfo]] = {}
    by_producer: dict[str, list[PlaceInfo]] = {}
    for place in places:
        by_consumer.setdefault(place.consumer, []).append(place)
        by_producer.setdefault(place.producer, []).append(place)

    def runnable(agent: str) -> bool:
        for place in by_consumer.get(agent, []):
            if tokens[id(place)] < place.pop:
                return False
        if bounded:
            for place in by_producer.get(agent, []):
                projected = tokens[id(place)] + place.push
                if place.producer == place.consumer:
                    projected -= place.pop
                if projected > place.capacity:
                    return False
        return True

    while len(schedule) < total:
        for agent in order:
            if remaining[agent] > 0 and runnable(agent):
                for place in by_consumer.get(agent, []):
                    tokens[id(place)] -= place.pop
                for place in by_producer.get(agent, []):
                    tokens[id(place)] += place.push
                remaining[agent] -= 1
                schedule.append(agent)
                break
        else:
            return None
    return schedule


def pass_schedule(app: MObject, repetitions: dict[str, int] | None = None,
                  bounded: bool = False) -> list[str] | None:
    """Construct a Periodic Admissible Sequential Schedule, or None on
    deadlock.

    The class-S construction (:func:`class_s_schedule`) over the whole
    graph. With *bounded*, writes also respect place capacities (a
    stricter, buffer-aware schedule).
    """
    if repetitions is None:
        repetitions = repetition_vector(app)
    return class_s_schedule(place_infos(app), repetitions, bounded)


def buffer_bounds_of_schedule(app: MObject,
                              schedule: list[str]) -> dict[str, int]:
    """Maximum token occupancy per place along a sequential schedule."""
    places = place_infos(app)
    tokens = {place.name: place.delay for place in places}
    bounds = dict(tokens)
    by_consumer: dict[str, list[PlaceInfo]] = {}
    by_producer: dict[str, list[PlaceInfo]] = {}
    for place in places:
        by_consumer.setdefault(place.consumer, []).append(place)
        by_producer.setdefault(place.producer, []).append(place)
    for agent in schedule:
        for place in by_consumer.get(agent, []):
            tokens[place.name] -= place.pop
            if tokens[place.name] < 0:
                raise SdfError(
                    f"schedule is not admissible: place {place.name!r} "
                    f"goes negative")
        for place in by_producer.get(agent, []):
            tokens[place.name] += place.push
            bounds[place.name] = max(bounds[place.name], tokens[place.name])
    return bounds


@dataclass
class SdfGraphInfo:
    """Aggregated static analysis of a SigPML application."""

    agents: list[str]
    places: list[str]
    topology: list[list[int]]
    consistent: bool
    repetition: dict[str, int] = field(default_factory=dict)
    schedule: list[str] | None = None
    deadlock_free: bool = False
    buffer_bounds: dict[str, int] = field(default_factory=dict)

    @property
    def iteration_length(self) -> int:
        """Total firings in one iteration of the PASS."""
        return sum(self.repetition.values())


def analyze(app: MObject, bounded: bool = True) -> SdfGraphInfo:
    """Run the full static pipeline on *app*."""
    topology, place_names, agents = topology_matrix(app)
    try:
        repetition = repetition_vector(app)
    except InconsistentGraphError:
        return SdfGraphInfo(agents=agents, places=place_names,
                            topology=topology, consistent=False)
    schedule = pass_schedule(app, repetition, bounded=bounded)
    info = SdfGraphInfo(
        agents=agents, places=place_names, topology=topology,
        consistent=True, repetition=repetition, schedule=schedule,
        deadlock_free=schedule is not None)
    if schedule is not None:
        info.buffer_bounds = buffer_bounds_of_schedule(app, schedule)
    return info
