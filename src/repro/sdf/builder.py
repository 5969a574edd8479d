"""Convenient construction of SigPML application models."""

from __future__ import annotations

from repro.errors import SdfError
from repro.kernel.mobject import MObject
from repro.kernel.model import Model
from repro.sdf.metamodel import sigpml_metamodel


class SdfBuilder:
    """Fluent builder for SigPML applications.

    Example::

        b = SdfBuilder("pipeline")
        b.agent("src")
        b.agent("fft", cycles=4)
        b.connect("src", "fft", push=1, pop=2, capacity=4)
        model, app = b.build()
    """

    def __init__(self, name: str = "app"):
        self._metamodel = sigpml_metamodel()
        self._model = Model(self._metamodel, name)
        self._app = self._model.create("Application", name=name)
        self._agents: dict[str, MObject] = {}
        self._place_names: set[str] = set()

    def agent(self, name: str, cycles: int = 0) -> MObject:
        """Add an agent with *cycles* processing cycles (0 = SDF abstraction)."""
        if name in self._agents:
            raise SdfError(f"duplicate agent {name!r}")
        if cycles < 0:
            raise SdfError(f"agent {name!r}: cycles must be >= 0")
        agent = self._metamodel.instantiate("Agent", name=name, cycles=cycles)
        self._app.add("agents", agent)
        self._agents[name] = agent
        return agent

    def connect(self, producer: str, consumer: str, push: int = 1,
                pop: int = 1, capacity: int | None = None, delay: int = 0,
                name: str | None = None) -> MObject:
        """Create a place from *producer* to *consumer*.

        ``push``/``pop`` are the output/input port rates; ``capacity``
        defaults to a buffer that can hold one push plus one pop worth of
        tokens plus the initial *delay* tokens, which always lets the
        graph progress. A place never starts with more tokens than its
        capacity.
        """
        producer_agent = self._agent(producer)
        consumer_agent = self._agent(consumer)
        if push < 1 or pop < 1:
            raise SdfError(
                f"place {producer}->{consumer}: rates must be >= 1")
        if delay < 0:
            raise SdfError(
                f"place {producer}->{consumer}: delay must be >= 0")
        if capacity is None:
            capacity = push + pop + delay
        if capacity < 1:
            raise SdfError(
                f"place {producer}->{consumer}: capacity must be >= 1")
        if delay > capacity:
            raise SdfError(
                f"place {producer}->{consumer}: {delay} initial tokens "
                f"exceed capacity {capacity}")

        place_name = name or self._fresh_place_name(producer, consumer)
        if place_name in self._place_names:
            raise SdfError(f"duplicate place name {place_name!r}")
        self._place_names.add(place_name)

        out_port = self._metamodel.instantiate(
            "OutputPort", name=f"{place_name}.out", rate=push)
        out_port.set("agent", producer_agent)
        producer_agent.add("outputs", out_port)
        in_port = self._metamodel.instantiate(
            "InputPort", name=f"{place_name}.in", rate=pop)
        in_port.set("agent", consumer_agent)
        consumer_agent.add("inputs", in_port)

        place = self._metamodel.instantiate(
            "Place", name=place_name, capacity=capacity, delay=delay)
        place.set("outputPort", out_port)
        place.set("inputPort", in_port)
        self._app.add("places", place)
        return place

    def _agent(self, name: str) -> MObject:
        try:
            return self._agents[name]
        except KeyError:
            raise SdfError(f"unknown agent {name!r}; declare it first") from None

    def _fresh_place_name(self, producer: str, consumer: str) -> str:
        base = f"{producer}_{consumer}"
        if base not in self._place_names:
            return base
        suffix = 2
        while f"{base}{suffix}" in self._place_names:
            suffix += 1
        return f"{base}{suffix}"

    def build(self) -> tuple[Model, MObject]:
        """Return the (model, application) pair."""
        return self._model, self._app
