"""Token-level reference simulator for SigPML applications.

The comparator for experiment E5: it executes the *conventional* SDF
operational semantics — agents fire atomically, tokens move between
bounded places — without going through MoCCML at all. The MoCCML
execution (with the Section-III MoCC, N=0) must agree with it: every
step of an engine trace corresponds to a set of simultaneous firings
that this simulator accepts, with identical token accounting.
"""

from __future__ import annotations

from repro.errors import SdfError
from repro.kernel.mobject import MObject
from repro.sdf.analysis import PlaceInfo, place_infos


class TokenSimulator:
    """Bounded-buffer SDF execution at the token level."""

    def __init__(self, app: MObject, multiport: bool = False):
        #: with *multiport*, a place may be read and written in the same
        #: step (Section III-A's multiport-memory variant); otherwise
        #: read and write exclude each other per step, like Fig. 3.
        self.multiport = multiport
        self.places: list[PlaceInfo] = place_infos(app)
        self.tokens: dict[str, int] = {
            place.name: place.delay for place in self.places}
        self.firings: dict[str, int] = {
            agent.name: 0 for agent in app.get("agents")}
        self._by_consumer: dict[str, list[PlaceInfo]] = {}
        self._by_producer: dict[str, list[PlaceInfo]] = {}
        for place in self.places:
            self._by_consumer.setdefault(place.consumer, []).append(place)
            self._by_producer.setdefault(place.producer, []).append(place)

    # -- enabling ---------------------------------------------------------------

    def can_fire(self, agent: str) -> bool:
        """Whether *agent* alone could fire now (data + space available)."""
        return self._conflicts(frozenset({agent})) == []

    def enabled_agents(self) -> list[str]:
        """All agents that could fire individually."""
        return sorted(name for name in self.firings if self.can_fire(name))

    def _conflicts(self, agents: frozenset[str]) -> list[str]:
        """Diagnostics preventing the *simultaneous* firing of *agents*."""
        problems = []
        for place in self.places:
            reads = place.consumer in agents
            writes = place.producer in agents
            if not reads and not writes:
                continue
            if reads and writes and not self.multiport:
                problems.append(
                    f"place {place.name!r}: simultaneous read and write "
                    f"need the multiport variant")
                continue
            level = self.tokens[place.name]
            if reads and level < place.pop:
                problems.append(
                    f"place {place.name!r}: {level} token(s) < pop "
                    f"{place.pop}")
            if writes:
                projected = level + place.push - (place.pop if reads else 0)
                if projected > place.capacity:
                    problems.append(
                        f"place {place.name!r}: write would reach "
                        f"{projected} > capacity {place.capacity}")
        return problems

    def can_fire_set(self, agents: frozenset[str]) -> bool:
        return not self._conflicts(agents)

    # -- execution ------------------------------------------------------------------

    def fire_set(self, agents: frozenset[str]) -> None:
        """Fire *agents* simultaneously; raises when not enabled."""
        unknown = agents - set(self.firings)
        if unknown:
            raise SdfError(f"unknown agent(s): {sorted(unknown)}")
        problems = self._conflicts(agents)
        if problems:
            raise SdfError(
                f"cannot fire {sorted(agents)}: " + "; ".join(problems))
        for place in self.places:
            if place.consumer in agents:
                self.tokens[place.name] -= place.pop
            if place.producer in agents:
                self.tokens[place.name] += place.push
        for agent in agents:
            self.firings[agent] += 1

    def fire(self, agent: str) -> None:
        self.fire_set(frozenset({agent}))

    def run_self_timed(self, steps: int) -> list[frozenset[str]]:
        """Greedy maximal-step execution (the token-level analogue of the
        engine's ASAP policy): at each step fire a maximal conflict-free
        set of enabled agents, preferring lexicographically smaller names.
        Returns the firing sets; stops early on global deadlock."""
        history: list[frozenset[str]] = []
        for _ in range(steps):
            chosen: set[str] = set()
            for agent in sorted(self.firings):
                candidate = frozenset(chosen | {agent})
                if self.can_fire_set(candidate):
                    chosen.add(agent)
            if not chosen:
                break
            step = frozenset(chosen)
            self.fire_set(step)
            history.append(step)
        return history
