"""SigPML: the paper's lightweight extension of Synchronous Data Flow.

Section III of the paper illustrates MoCCML on an SDF dialect: an
application is a set of *Agents*; upon activation an agent reads its
*Input Ports*, executes N processing cycles and writes its *Output
Ports*; data travels through *Places* of limited capacity.

This package provides:

* the SigPML metamodel and model builders
  (:mod:`repro.sdf.metamodel`, :mod:`repro.sdf.builder`,
  :mod:`repro.sdf.parser`);
* classic SDF theory as the analysis baseline — topology matrix, balance
  equations and repetition vector, PASS scheduling (Lee & Messerschmitt
  1987) (:mod:`repro.sdf.analysis`);
* a token-level reference simulator used to cross-validate the MoCCML
  semantics (:mod:`repro.sdf.baseline`);
* the SDF MoCC of Section III — the Fig. 3 ``PlaceConstraint`` automaton
  with its variants, and the agent-execution automaton
  (:mod:`repro.sdf.mocc`);
* the ECL mapping of Listing 1 and the end-to-end
  :func:`~repro.sdf.mapping.weave_sdf` (:mod:`repro.sdf.mapping`) — most
  callers go through ``repro.workbench.load(...)`` instead.
"""

from repro.sdf.metamodel import sigpml_metamodel
from repro.sdf.builder import SdfBuilder
from repro.sdf.parser import parse_sigpml
from repro.sdf.validate import check_application
from repro.sdf.analysis import (
    SdfGraphInfo,
    analyze,
    pass_schedule,
    repetition_vector,
    topology_matrix,
)
from repro.sdf.baseline import TokenSimulator
from repro.sdf.mocc import sdf_library
from repro.sdf.mapping import SDF_MAPPING_TEXT, weave_sdf
from repro.sdf.schedules import (
    loop_notation,
    minimal_buffer_capacities,
    single_appearance_schedule,
)

__all__ = [
    "sigpml_metamodel",
    "SdfBuilder",
    "parse_sigpml",
    "check_application",
    "topology_matrix", "repetition_vector", "pass_schedule", "analyze",
    "SdfGraphInfo",
    "TokenSimulator",
    "sdf_library",
    "SDF_MAPPING_TEXT", "weave_sdf",
    "single_appearance_schedule", "loop_notation",
    "minimal_buffer_capacities",
]
