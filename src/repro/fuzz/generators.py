"""Seeded generators of well-formed models for all five front-ends.

Each generator draws a small *structure* — a JSON-able, shrinkable
description specific to one front-end — from a per-case random stream
and renders it into exactly the model documents
:func:`repro.workbench.source_from_doc` accepts. Generated models are
well-formed by construction (the generators only emit combinations the
parsers and weavers accept) and finitely encodable (only bounded
constraint relations are drawn), so every case exercises both verdict
backends instead of dying in the front door.

The per-front-end grammars are summarized in the package docstring
(:mod:`repro.fuzz`); the structures here are the shrinker's substrate
(:mod:`repro.fuzz.shrink` edits structures, never rendered text).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.errors import ReproError
from repro.fuzz.properties import generate_properties
from repro.fuzz.rng import case_rng, sub_rng

#: the five generated front-ends, in round-robin order
FRONTENDS = ("sigpml", "deployment", "pam", "ccsl", "moccml")

#: bounded CCSL kernel relations: (name, event arity, int parameter
#: ranges). Unbounded relations (Precedes, Causes) are deliberately
#: absent — they have no finite local encoding, so drawing them would
#: waste the symbolic half of every differential check.
CCSL_RELATIONS = (
    ("SubClock", 2, ()),
    ("Coincides", 2, ()),
    ("Excludes", 2, ()),
    ("Union", 3, ()),
    ("Intersection", 3, ()),
    ("Minus", 3, ()),
    ("Alternates", 2, ()),
    ("BoundedPrecedes", 2, ((1, 3),)),
    ("DelayedFor", 2, ((1, 3),)),
    ("SampledOn", 3, ()),
    ("Deadline", 2, ((1, 3),)),
    ("PeriodicOn", 2, ()),  # period/offset drawn dependently
    ("FilterBy", 2, ()),  # binary-word ints drawn dependently
)

#: PAM study configurations drawn by the generator ("infinite" is
#: excluded: unbounded places have no finite local encoding)
PAM_CONFIGURATIONS = ("mono", "dual")

#: agents of the PAM application (cycle overrides draw from these)
PAM_AGENTS = (
    "hydro",
    "framer",
    "fft",
    "detect",
    "spectro",
    "classify",
    "fusion",
    "logger",
)

#: the fixed helper library of the ``moccml`` front-end: a bounded
#: sliding-window automaton plus a declarative alternation, so cases
#: exercise the MoCCML text parser, automata runtimes, and declarative
#: instantiation on top of the kernel relations
MOCCML_LIBRARY = """\
library FuzzLib {
  declaration Window(request: event, response: event, max: int)
  declaration Chain(first: event, second: event)

  automaton WindowDef implements Window {
    var inflight: int = 0
    initial final state Open
    transition Open -> Open when {request} unless {response} \\
        [inflight < max] / inflight += 1
    transition Open -> Open when {response} unless {request} \\
        [inflight > 0] / inflight -= 1
    transition Open -> Open when {request, response} \\
        [inflight > 0 and inflight < max]
  }

  declarative ChainDef implements Chain {
    Alternates(first, second)
  }
}
"""

#: extra relations available to ``moccml`` cases via MOCCML_LIBRARY
MOCCML_RELATIONS = (
    ("Window", 2, ((1, 3),)),
    ("Chain", 2, ()),
)


class GenerationError(ReproError):
    """A generated structure failed to load — a generator bug."""


@dataclass
class FuzzCase:
    """One generated differential-fuzzing case.

    ``structure`` is the front-end-specific JSON-able description the
    generators drew and the shrinker edits; ``properties`` are CTL
    texts over the loaded model's actual events; ``max_states`` is the
    explicit backend's exploration budget (drawn small for a fraction
    of cases, so truncated three-valued checking is exercised too).
    """

    seed: int
    index: int
    frontend: str
    structure: dict
    properties: list[str] = field(default_factory=list)
    max_states: int = 2500

    @property
    def name(self) -> str:
        """The model name every run spec in this case refers to."""
        return self.structure["name"]

    def model_doc(self) -> dict:
        """The ``source_from_doc`` model document of this case."""
        return render_model_doc(self.frontend, self.structure)

    def to_doc(self) -> dict:
        """A JSON description of the case (reports, repro documents)."""
        return {
            "seed": self.seed,
            "index": self.index,
            "frontend": self.frontend,
            "model": self.model_doc(),
            "properties": list(self.properties),
            "max_states": self.max_states,
        }


# ---------------------------------------------------------------------------
# structure generators (one per front-end)
# ---------------------------------------------------------------------------


def _gen_sigpml_structure(rng: random.Random, name: str) -> dict:
    """agents + places: a connected DAG with small rates/capacities."""
    n_agents = rng.randint(2, 4)
    agents = []
    for i in range(n_agents):
        cycles = rng.randint(1, 2) if rng.random() < 0.25 else 0
        agents.append([f"a{i}", cycles])
    places = []
    seen_pairs = set()
    for i in range(1, n_agents):
        source = rng.randrange(i)
        places.append(_draw_place(rng, f"a{source}", f"a{i}"))
        seen_pairs.add((source, i))
    for _ in range(rng.randint(0, 1)):
        i, j = sorted(rng.sample(range(n_agents), 2))
        if (i, j) in seen_pairs:
            continue
        seen_pairs.add((i, j))
        places.append(_draw_place(rng, f"a{i}", f"a{j}"))
    return {"name": name, "agents": agents, "places": places}


def _draw_place(rng: random.Random, producer: str, consumer: str) -> list:
    push = rng.randint(1, 2)
    pop = rng.randint(1, 2)
    if rng.random() < 0.1:
        capacity = rng.randint(1, 3)  # possibly starving — still valid
    else:
        capacity = rng.randint(max(push, pop), 3)
    delay = rng.randint(1, capacity) if rng.random() < 0.2 else 0
    return [producer, consumer, push, pop, capacity, delay]


def _gen_deployment_structure(rng: random.Random, name: str) -> dict:
    """a small application deployed on 1-2 processors, fully linked."""
    application = _gen_sigpml_structure(rng, name)
    application["agents"] = application["agents"][:3]
    agent_names = {agent for agent, _cycles in application["agents"]}
    application["places"] = [
        place
        for place in application["places"]
        if place[0] in agent_names and place[1] in agent_names
    ]
    n_processors = rng.randint(1, 2)
    processors = []
    for i in range(n_processors):
        speed = rng.randint(1, 2) if rng.random() < 0.3 else 1
        processors.append([f"p{i}", speed])
    bindings = [
        [agent, f"p{rng.randrange(n_processors)}"]
        for agent, _cycles in application["agents"]
    ]
    return {
        "name": name,
        "application": application,
        "platform": f"{name}_platform",
        "processors": processors,
        "latency": rng.randint(0, 2),
        "bindings": bindings,
    }


def _gen_pam_structure(rng: random.Random, name: str) -> dict:
    """one configuration of the bundled PAM deployment study."""
    cycles = None
    if rng.random() < 0.4:
        chosen = rng.sample(PAM_AGENTS, rng.randint(1, 2))
        cycles = {agent: rng.randint(1, 2) for agent in sorted(chosen)}
    return {
        "name": name,
        "configuration": rng.choice(PAM_CONFIGURATIONS),
        "capacity": 1,
        "cycles": cycles,
    }


def _draw_constraints(
    rng: random.Random,
    events: list[str],
    relations,
    count: int,
) -> list:
    constraints = []
    for _ in range(count):
        relation, arity, int_ranges = rng.choice(relations)
        if arity > len(events):
            continue
        args = rng.sample(events, arity)
        for low, high in int_ranges:
            args.append(rng.randint(low, high))
        if relation == "PeriodicOn":  # offset must stay below period
            period = rng.randint(1, 3)
            args.extend([period, rng.randrange(period)])
        elif relation == "FilterBy":  # word ints must fit their lengths
            prefix_len = rng.randint(0, 2)
            period_len = rng.randint(1, 3)
            args.extend(
                [
                    rng.randrange(1 << prefix_len),
                    prefix_len,
                    rng.randrange(1 << period_len),
                    period_len,
                ]
            )
        constraints.append([relation, args])
    return constraints


def _gen_ccsl_structure(rng: random.Random, name: str) -> dict:
    """events + bounded kernel-relation instances."""
    events = [f"e{i}" for i in range(rng.randint(3, 5))]
    constraints = _draw_constraints(
        rng, events, CCSL_RELATIONS, rng.randint(1, 3)
    )
    return {"name": name, "events": events, "constraints": constraints}


def _gen_moccml_structure(rng: random.Random, name: str) -> dict:
    """ccsl plus instantiations of the fixed FuzzLib automata."""
    structure = _gen_ccsl_structure(rng, name)
    library_relations = CCSL_RELATIONS + MOCCML_RELATIONS
    structure["constraints"] = _draw_constraints(
        rng, structure["events"], library_relations, rng.randint(1, 3)
    )
    if not any(
        relation in ("Window", "Chain")
        for relation, _args in structure["constraints"]
    ):
        structure["constraints"].extend(
            _draw_constraints(
                rng, structure["events"], MOCCML_RELATIONS, 1
            )
        )
    return structure


_STRUCTURE_GENERATORS = {
    "sigpml": _gen_sigpml_structure,
    "deployment": _gen_deployment_structure,
    "pam": _gen_pam_structure,
    "ccsl": _gen_ccsl_structure,
    "moccml": _gen_moccml_structure,
}


# ---------------------------------------------------------------------------
# rendering structures into model documents
# ---------------------------------------------------------------------------


def render_sigpml(structure: dict) -> str:
    """The SigPML text of a sigpml structure."""
    lines = [f"application {structure['name']} {{"]
    for agent, cycles in structure["agents"]:
        suffix = f" cycles {cycles}" if cycles else ""
        lines.append(f"  agent {agent}{suffix}")
    for producer, consumer, push, pop, capacity, delay in structure["places"]:
        line = (
            f"  place {producer} -> {consumer} "
            f"push {push} pop {pop} capacity {capacity}"
        )
        if delay:
            line += f" delay {delay}"
        lines.append(line)
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_deployment(structure: dict) -> tuple[str, str]:
    """(application text, platform+allocation text) of a deployment."""
    application_text = render_sigpml(structure["application"])
    lines = [f"platform {structure['platform']} {{"]
    for processor, speed in structure["processors"]:
        suffix = f" speed {speed}" if speed != 1 else ""
        lines.append(f"  processor {processor}{suffix}")
    if len(structure["processors"]) > 1:
        lines.append(f"  connect all latency {structure['latency']}")
    lines.append("}")
    lines.append("allocation {")
    by_processor: dict[str, list[str]] = {}
    for agent, processor in structure["bindings"]:
        by_processor.setdefault(processor, []).append(agent)
    for processor, _speed in structure["processors"]:
        agents = by_processor.get(processor)
        if agents:
            lines.append(f"  {', '.join(agents)} -> {processor}")
    lines.append("}")
    return application_text, "\n".join(lines) + "\n"


def _constraint_docs(constraints: list) -> list[dict]:
    return [
        {"relation": relation, "args": list(args)}
        for relation, args in constraints
    ]


def render_model_doc(frontend: str, structure: dict) -> dict:
    """The ``source_from_doc`` model document of one structure."""
    if frontend == "sigpml":
        return {"frontend": "sigpml", "text": render_sigpml(structure)}
    if frontend == "deployment":
        application_text, deployment_text = render_deployment(structure)
        return {
            "frontend": "deployment",
            "application_text": application_text,
            "deployment_text": deployment_text,
            "name": structure["name"],
        }
    if frontend == "pam":
        doc = {
            "frontend": "pam",
            "configuration": structure["configuration"],
            "capacity": structure["capacity"],
        }
        if structure.get("cycles"):
            doc["cycles"] = dict(structure["cycles"])
        return doc
    if frontend in ("ccsl", "moccml"):
        doc = {
            "frontend": frontend,
            "name": structure["name"],
            "events": list(structure["events"]),
            "constraints": _constraint_docs(structure["constraints"]),
        }
        if frontend == "moccml":
            doc["library_text"] = MOCCML_LIBRARY
        return doc
    raise GenerationError(f"unknown fuzz front-end {frontend!r}")


#: structure redraws before a case gives up as a generator error; the
#: observed ERROR rate per draw is a few percent, so this bound is
#: unreachable short of an analyzer regression
_MAX_STRUCTURE_DRAWS = 25


def _lint_errors(handle) -> list:
    """ERROR-severity static findings on a freshly drawn model."""
    from repro.lint import lint_handle

    return lint_handle(handle).errors


def load_case_model(case: FuzzCase):
    """Load the case's model document into a fresh
    :class:`~repro.workbench.frontends.ModelHandle` named
    ``case.name``. A load failure means the generators emitted an
    ill-formed structure — that is a bug, reported loudly."""
    from repro.workbench import load_doc

    try:
        return load_doc(case.model_doc(), name=case.name)
    except ReproError as exc:
        raise GenerationError(
            f"generated case (seed={case.seed}, index={case.index}, "
            f"frontend={case.frontend}) does not load: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# the case generator
# ---------------------------------------------------------------------------


def generate_case(
    seed: int, index: int, frontend: str | None = None
) -> FuzzCase:
    """Generate case *index* of round *seed* (see :func:`build_case`
    for the loaded-handle variant the oracle uses)."""
    case, _handle = build_case(seed, index, frontend=frontend)
    return case


def build_case(seed: int, index: int, frontend: str | None = None):
    """Generate one case and load its model: ``(case, handle)``.

    The front-end defaults to round-robin over :data:`FRONTENDS`, so
    any contiguous index range covers all five. Properties are drawn
    over the *loaded* model's actual event alphabet, never over guessed
    names. Structures the static analyzer flags with an ERROR are
    redrawn (deterministically), so every emitted case is lint-clean —
    the oracle's ``static`` failure kind then signals analyzer/engine
    disagreement, never expected generator noise.
    """
    if frontend is None:
        frontend = FRONTENDS[index % len(FRONTENDS)]
    if frontend not in _STRUCTURE_GENERATORS:
        raise GenerationError(
            f"unknown fuzz front-end {frontend!r}; expected one of "
            f"{', '.join(FRONTENDS)}"
        )
    rng = case_rng(seed, index)
    name = f"fuzz_{frontend}_{seed}_{index}"
    for _attempt in range(_MAX_STRUCTURE_DRAWS):
        structure = _STRUCTURE_GENERATORS[frontend](rng, name)
        max_states = (
            rng.randint(2, 30) if rng.random() < 0.3 else 2500
        )
        case = FuzzCase(
            seed=seed,
            index=index,
            frontend=frontend,
            structure=structure,
            max_states=max_states,
        )
        handle = load_case_model(case)
        # generated models are lint-clean by construction: a draw the
        # static analyzer rejects (rate-inconsistent graph, strict
        # precedence cycle, contradictory parameters...) is redrawn
        # from the same deterministic stream, so build_case stays a
        # pure function of (seed, index) and any surviving ERROR in
        # the oracle is a real lint-vs-engine disagreement
        if not _lint_errors(handle):
            break
    else:
        raise GenerationError(
            f"generated case (seed={seed}, index={index}, "
            f"frontend={frontend}) still has lint errors after "
            f"{_MAX_STRUCTURE_DRAWS} draws"
        )
    property_rng = sub_rng(rng, "properties")
    case.properties = generate_properties(
        property_rng, list(handle.execution_model.events), count=3
    )
    return case, handle


def with_structure(case: FuzzCase, structure: dict) -> FuzzCase:
    """A copy of *case* carrying *structure* (the shrinker's edit)."""
    return replace(case, structure=structure)
