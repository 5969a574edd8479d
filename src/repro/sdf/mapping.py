"""Listing 1: the ECL mapping weaving the SDF MoCC into SigPML.

The mapping text below extends the paper's Listing 1 with the two
coincidence invariants its prose describes (*read simultaneous to
start*, *stop simultaneous to a write*) and the agent-execution
constraint. :func:`weave_sdf` runs the full Fig. 1 pipeline:
parse the mapping, register the libraries, weave over a model.
"""

from __future__ import annotations

from repro.ccsl.library import kernel_library
from repro.ecl.parser import parse_ecl
from repro.ecl.weaver import WeaveResult, weave
from repro.kernel.model import Model
from repro.moccml.library import LibraryRegistry, RelationLibrary
from repro.sdf.mocc import sdf_library

#: The SigPML mapping document (Listing 1, completed per §III-A).
SDF_MAPPING_TEXT = """\
-- Listing 1: event and constraint mapping on the SDF concepts
context Agent
  def: start : Event
  def: stop : Event
  def: isExecuting : Event
  inv AgentExecutionRule:
    Relation AgentExecution(self.start, self.isExecuting, self.stop,
                            self.cycles)

context InputPort
  def: read : Event
  -- "read is simultaneous to start"
  inv ReadWithStart:
    Relation Coincides(self.read, self.agent.start)

context OutputPort
  def: write : Event
  -- "stop is simultaneous to a write"
  inv WriteWithStop:
    Relation Coincides(self.write, self.agent.stop)

context Place
  inv PlaceLimitation:
    Relation PlaceConstraint(self.outputPort.write, self.inputPort.read,
        self.outputPort.rate, self.inputPort.rate, self.delay,
        self.capacity)
"""


def sdf_registry(place_variant: str = "default",
                 extra_libraries: tuple[RelationLibrary, ...] = ()
                 ) -> LibraryRegistry:
    """A registry holding the CCSL kernel, the SDF library and extras."""
    registry = LibraryRegistry([kernel_library(),
                                sdf_library(place_variant)])
    for library in extra_libraries:
        registry.register(library)
    return registry


def weave_sdf(model: Model, place_variant: str = "default",
              mapping_text: str | None = None,
              extra_libraries: tuple[RelationLibrary, ...] = ()
              ) -> WeaveResult:
    """Generate the execution model of a SigPML *model*.

    This is the paper's automatic generation step: any instance of the
    abstract syntax gets its dedicated execution model, which then
    configures the generic engine. Most callers should go through the
    :mod:`repro.workbench` facade (``load(source)``), which wraps this
    into a uniform :class:`~repro.workbench.ModelHandle`.
    """
    registry = sdf_registry(place_variant, extra_libraries)
    document = parse_ecl(mapping_text or SDF_MAPPING_TEXT,
                         name="sdf-mapping")
    return weave(document, model, registry)

