"""The workbench: one session API for every DSL front-end.

The paper's central claim is that a single DSL-agnostic engine serves
many DSLs once the concurrency concern is an explicit MoCC. This
package is that claim's public API — in the spirit of the Kermeta
workbench's language mashup, one facade over every front-end:

>>> from repro.workbench import Workbench
>>> wb = Workbench()
>>> wb.add("application demo {\\n agent a\\n agent b\\n"
...        " place a -> b push 1 pop 1 capacity 2\\n}", name="demo")
ModelHandle('demo', frontend='sigpml', 8 events)
>>> wb.simulate("demo", policy="asap", steps=4).data["steps_run"]
4

Four pieces:

* the **front-end registry** (:func:`load`, :func:`register_frontend`)
  turning SigPML text/paths, :class:`~repro.sdf.builder.SdfBuilder`
  output, deployment specs, PAM configurations, CCSL and raw MoCCML
  specifications, or bare execution models into a uniform
  :class:`ModelHandle`;
* the **policy registry** (:func:`make_policy`,
  :func:`register_policy`) naming every scheduling policy, priorities
  and replays included;
* **artifacts** — declarative :class:`RunSpec` (``SimulateSpec``,
  ``ExploreSpec``, ``CampaignSpec``, ``AnalyzeSpec``, ``CheckSpec``,
  ``LintSpec``)
  and uniform :class:`RunResult` with canonical
  ``to_json()``/``from_json()`` round-trips for external tooling.
  ``CheckSpec`` carries a temporal property ("AG !deadlock",
  "AF occurs(sink.start)" — :func:`repro.engine.ctl.parse_property`);
  its result payload is a three-valued verdict
  (``holds``/``fails``/``unknown`` — *unknown* whenever the explicit
  budget truncated before the verdict was proven) plus a replayable
  witness/counterexample trace;
* the **session** — :class:`Workbench` with :meth:`Workbench.run` and
  the batch runner :meth:`Workbench.run_many`, which shares one
  symbolic kernel per model across a whole batch and optionally fans
  out over worker processes with results independent of the worker
  count.

Caching & parallelism
=====================

Sessions scale through :mod:`repro.farm`. ``Workbench(store=path)``
(or ``run_many(..., store=...)``) keys every run by a canonical
fingerprint — SHA-256 over the model's canonical serialization, the
spec's canonical JSON, and the engine version — and serves previously
computed results byte-identically from the content-addressed store
(``result.cached`` tells you which happened). ``run_many(...,
backend=...)`` picks the executor:

==========  ========================================================
``serial``  default; warm shared kernels, and the baseline the
            process backend must match byte for byte
``process`` true multi-core scaling for cold multi-model batches;
            workers rebuild models from their declarative source
            docs (handles without one — builders, bare execution
            models — transparently run in the parent)
==========  ========================================================

Fingerprint caveats: an engine version bump invalidates every cached
artifact by construction, and unfingerprintable models/specs (unknown
runtime classes, bare policy instances) recompute every time rather
than risk a collision.

The CLI (``python -m repro``) is a thin shell over this module.
"""

from repro.workbench.frontends import (
    CcslSpec,
    DeploymentSpec,
    FrontendError,
    ModelHandle,
    MoccmlSpec,
    PamConfiguration,
    frontend_names,
    load,
    load_doc,
    register_frontend,
    source_from_doc,
)
from repro.workbench.policies import (
    PolicyError,
    make_policy,
    policy_names,
    register_policy,
)
from repro.workbench.artifacts import (
    AnalyzeSpec,
    CampaignSpec,
    CheckSpec,
    ExploreSpec,
    LintSpec,
    RunResult,
    RunSpec,
    SimulateSpec,
)
from repro.workbench.session import Workbench, execute

__all__ = [
    "Workbench", "execute",
    "ModelHandle", "load", "load_doc", "register_frontend",
    "frontend_names", "source_from_doc", "FrontendError",
    "DeploymentSpec", "PamConfiguration", "CcslSpec", "MoccmlSpec",
    "make_policy", "register_policy", "policy_names", "PolicyError",
    "RunSpec", "RunResult",
    "SimulateSpec", "ExploreSpec", "CampaignSpec", "AnalyzeSpec",
    "CheckSpec", "LintSpec",
]
