"""State spaces: the explored scheduling graph plus quantitative metrics.

The conclusion of the paper reports using exhaustive exploration "to
obtain quantitative results on the scheduling state-space" and "to
understand the impact of the deployment on the actual parallelism".
Those are exactly the numbers this class exposes: state/transition
counts, deadlocks, maximal step parallelism, event liveness and
steady-state throughput.

A space is a labelled transition system kept as per-state lists indexed
by state id (ids are 0..n-1 in BFS admission order). ``succ[s]`` holds
the ``(step, target)`` edges out of ``s``, grouped by target in
first-seen order and in step order within a target: the order
:meth:`StateSpace.to_json` writes, on which store keys depend.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import count

from repro.errors import SerializationError

#: one transition: the step taken and the id of the state it leads to
Edge = tuple[frozenset[str], int]


def grouped_by_target(edges: list[Edge]) -> list[Edge]:
    """*edges* reordered so edges to one target are adjacent, targets in
    first-seen order (stable within a target) — the artifact edge
    order."""
    order: dict[int, int] = {}
    for _step, target in edges:
        order.setdefault(target, len(order))
    if len(order) == len(edges):
        return edges
    return sorted(edges, key=lambda edge: order[edge[1]])


@dataclass
class StateSpace:
    """An explored scheduling state space."""

    #: per state: its outgoing ``(step, target)`` edges
    succ: list[list[Edge]]
    #: per state: whether every constraint accepts there
    accepting: list[bool]
    #: per state: its BFS depth
    depth: list[int]
    initial: int
    events: list[str]
    #: states whose successors were not (all) explored
    frontier: set[int] = field(default_factory=set)
    #: per state: its configuration key (None on a reloaded space)
    keys: list[tuple] | None = None
    truncated: bool = False
    name: str = "state-space"
    #: True when only ⊆-maximal steps were followed (the ASAP
    #: reduction) — such a space under-approximates the branching and
    #: is rejected by the property checker (repro.engine.ctl)
    maximal_only: bool = False

    # -- sizes -------------------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.succ)

    @property
    def n_transitions(self) -> int:
        return sum(map(len, self.succ))

    def edges(self):
        """Every transition as ``(source, step, target)``, in artifact
        order."""
        for source, out in enumerate(self.succ):
            for step, target in out:
                yield source, step, target

    def distinct_steps(self) -> set[frozenset[str]]:
        """The set of distinct steps labelling any transition."""
        return {step for out in self.succ for step, _target in out}

    # -- deadlock / liveness ------------------------------------------------------

    def deadlocks(self) -> list[int]:
        """States with no outgoing transition (that are not exploration
        frontier states of a truncated run)."""
        return [state for state, out in enumerate(self.succ)
                if not out and state not in self.frontier]

    def is_deadlock_free(self) -> bool:
        return not self.deadlocks()

    def live_events(self) -> set[str]:
        """Events occurring on at least one transition."""
        return set().union(*self.distinct_steps())

    def dead_events(self) -> set[str]:
        """Declared events that never occur anywhere in the state space."""
        return set(self.events) - self.live_events()

    # -- parallelism -----------------------------------------------------------------

    def max_parallelism(self) -> int:
        """Largest step cardinality over all transitions — the peak
        *actual* parallelism the constraints permit."""
        return max(map(len, self.distinct_steps()), default=0)

    def parallelism_histogram(self) -> dict[int, int]:
        """Transition count per step cardinality."""
        histogram: dict[int, int] = {}
        for _source, step, _target in self.edges():
            size = len(step)
            histogram[size] = histogram.get(size, 0) + 1
        return histogram

    def mean_branching(self) -> float:
        """Average out-degree — how much scheduling freedom remains."""
        if not self.succ:
            return 0.0
        return self.n_transitions / self.n_states

    # -- cyclic behaviour -------------------------------------------------------------

    def recurrent_components(self) -> list[set[int]]:
        """Non-trivial strongly connected components (steady-state
        behaviours): those with a cycle, i.e. several states or a
        self-loop.

        Tarjan's algorithm with an explicit stack instead of recursion,
        so spaces of any size stay within the interpreter's recursion
        limit.
        """
        succ = self.succ
        index = [-1] * len(succ)
        low = [0] * len(succ)
        on_stack = [False] * len(succ)
        order = count()
        stack: list[int] = []
        work: list = []  # the DFS path: (state, iterator over its edges)
        components: list[set[int]] = []

        def enter(state: int) -> None:
            index[state] = low[state] = next(order)
            stack.append(state)
            on_stack[state] = True
            work.append((state, iter(succ[state])))

        for root in range(len(succ)):
            if index[root] < 0:
                enter(root)
            while work:
                state, pending = work[-1]
                for _step, target in pending:
                    if index[target] < 0:
                        enter(target)
                        break
                    if on_stack[target] and index[target] < low[state]:
                        low[state] = index[target]
                else:
                    work.pop()
                    if work and low[state] < low[work[-1][0]]:
                        low[work[-1][0]] = low[state]
                    if low[state] != index[state]:
                        continue
                    component = set()
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.add(member)
                        if member == state:
                            break
                    if len(component) > 1 or any(
                            target == state for _step, target in succ[state]):
                        components.append(component)
        return components

    def summary(self) -> dict[str, object]:
        """A metric bundle used by the PAM study and the benches."""
        return {
            "states": self.n_states,
            "transitions": self.n_transitions,
            "distinct_steps": len(self.distinct_steps()),
            "deadlocks": len(self.deadlocks()),
            "max_parallelism": self.max_parallelism(),
            "mean_branching": round(self.mean_branching(), 3),
            "dead_events": sorted(self.dead_events()),
            "truncated": self.truncated,
        }

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the explored graph (configuration keys are dropped —
        they are engine-internal; steps, depths and flags survive)."""
        nodes = [
            {"id": state, "accepting": bool(self.accepting[state]),
             "depth": self.depth[state],
             "frontier": state in self.frontier}
            for state in range(self.n_states)
        ]
        edges = [
            {"source": source, "target": target, "step": sorted(step)}
            for source, step, target in self.edges()
        ]
        doc = {
            "format": 1,
            "kind": "statespace",
            "name": self.name,
            "initial": self.initial,
            "truncated": self.truncated,
            "events": list(self.events),
            "nodes": nodes,
            "edges": edges,
        }
        if self.maximal_only:  # omitted when False: full spaces keep
            doc["maximal_only"] = True  # their historical byte layout
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "StateSpace":
        """Reload a state space saved with :meth:`to_json`."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"invalid JSON: {exc}") from exc
        return cls.from_doc(doc)

    @classmethod
    def from_doc(cls, doc: dict) -> "StateSpace":
        """Rebuild a state space from an already-parsed document.

        Node ids must be 0..n-1 in order, as :meth:`to_json` writes
        them, and every edge and the initial state must name a node.
        """
        if not isinstance(doc, dict) or doc.get("kind") != "statespace":
            raise SerializationError("expected a statespace document")
        if doc.get("format") != 1:
            raise SerializationError(
                f"unsupported format version {doc.get('format')!r}")
        node_docs = doc["nodes"]
        states = range(len(node_docs))
        for position, node_doc in enumerate(node_docs):
            if node_doc["id"] != position:
                raise SerializationError(
                    f"node ids must be 0..n-1 in order, without repeats; "
                    f"found {node_doc['id']!r} at position {position}")
        succ: list[list[Edge]] = [[] for _ in states]
        for edge_doc in doc["edges"]:
            source, target = edge_doc["source"], edge_doc["target"]
            if source not in states or target not in states:
                raise SerializationError(
                    f"edge {source!r} -> {target!r} names a state that "
                    f"is not a node")
            succ[source].append((frozenset(edge_doc["step"]), target))
        if doc["initial"] not in states:
            raise SerializationError(
                f"initial state {doc['initial']!r} is not a node")
        return cls(succ=[grouped_by_target(out) for out in succ],
                   accepting=[bool(n["accepting"]) for n in node_docs],
                   depth=[n["depth"] for n in node_docs],
                   frontier={state for state in states
                             if node_docs[state].get("frontier")},
                   initial=doc["initial"], events=list(doc["events"]),
                   truncated=bool(doc["truncated"]), name=doc["name"],
                   maximal_only=bool(doc.get("maximal_only", False)))

    def __repr__(self):
        status = " (truncated)" if self.truncated else ""
        return (f"StateSpace({self.name!r}, {self.n_states} states, "
                f"{self.n_transitions} transitions{status})")
