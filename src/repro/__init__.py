"""repro — a reproduction of "Towards a Meta-Language for the
Concurrency Concern in DSLs" (Deantoni et al., DATE 2015).

|CI| — every push runs the full pipeline on GitHub Actions.

.. |CI| image:: ../../../actions/workflows/ci.yml/badge.svg
   :alt: CI: pytest 3.10-3.12 matrix, ruff, bench smoke
   :target: ../../../actions/workflows/ci.yml

The package implements the full MoCCML stack behind one facade,
:mod:`repro.workbench`: any DSL front-end input becomes a uniform
model handle, any engine usage a declarative run spec.

Quickstart::

    from repro.workbench import Workbench

    wb = Workbench()
    wb.add(\"\"\"
    application demo {
      agent producer
      agent consumer
      place producer -> consumer push 1 pop 1 capacity 2
    }
    \"\"\", name="demo")

    result = wb.simulate("demo", policy="asap", steps=10)
    print(result.trace().to_ascii())
    print(result.to_json())          # uniform, serializable artifact

    batch = wb.run_many(
        [{"kind": "explore", "model": "demo"},
         {"kind": "campaign", "model": "demo", "steps": 20}],
        workers=4)                   # shared-kernel batch runner

Layers (Fig. 1 of the paper):

* :mod:`repro.kernel` — MOF-lite metamodeling (the EMF substitute);
* :mod:`repro.boolalg` — the boolean/BDD substrate of the semantics;
* :mod:`repro.moccml` — the meta-language: abstract syntax, textual
  syntax, validation and operational semantics;
* :mod:`repro.ccsl` — the CCSL kernel relation library;
* :mod:`repro.ecl` — the mapping language weaving MoCCs onto DSLs;
* :mod:`repro.engine` — the generic execution engine (simulation and
  exhaustive exploration);
* :mod:`repro.sdf` — the SigPML DSL of Section III with its MoCC;
* :mod:`repro.deployment` — the platform/deployment extension;
* :mod:`repro.pam` — the Passive Acoustic Monitoring case study;
* :mod:`repro.workbench` — the session facade over all of the above;
* :mod:`repro.farm` — the result farm: content-addressed artifact
  store plus the multiprocess execution backend;
* :mod:`repro.serve` — the always-warm analysis server: the same
  canonical documents over HTTP/NDJSON, resident model cache;
* :mod:`repro.fuzz` — the continuous differential-fuzzing farm:
  seeded well-formed models for all five front-ends, generated CTL
  properties, every backend configuration cross-checked (``repro
  fuzz``; a bounded deterministic round gates every PR in CI);
* :mod:`repro.obs` — the observability layer: nested thread-aware
  tracing spans over every engine phase, the shared metrics registry,
  Chrome-trace/profile exports (``repro profile``, ``--trace``);
* :mod:`repro.viz` — DOT exports and the uniform text reports.

Choosing an entry point
=======================

Each job has one library call and one workbench call; the workbench is
a thin session layer over exactly these library calls, adding named
handles, uniform ``RunResult`` documents, batching and caching.

=======================================  ==================================
library call                             workbench equivalent
=======================================  ==================================
``model, app = parse_sigpml(text)`` +
``weave_sdf(model)``                     ``load(text)`` / ``wb.add(text)``
``weave_sdf(model, variant)``            ``load(src, place_variant=...)``
``simulate_model(model, policy, n)``     ``wb.simulate(name, policy="asap",
                                         steps=n)``
``explore(model, max_states=n)``         ``wb.explore(name, max_states=n)``
``check_space(space, "AG !deadlock")``   ``wb.check(name, "AG !deadlock")``
/ ``check(model, prop)``                 / ``CheckSpec(name, prop)``
``campaign(model, steps, watch)``        ``wb.campaign(name, steps=s,
                                         watch=[...])``
``analyze(app)``                         ``wb.analyze(name)``
``deploy(model, app, platform, alloc)``  ``wb.add(DeploymentSpec(...))``
``build_configuration("mono")`` (PAM)    ``wb.add("pam:mono")``
hand-built ``ExecutionModel`` over CCSL  ``wb.add(CcslSpec(...))`` /
or MoCCML constraints                    ``wb.add(MoccmlSpec(...))``
a loop of the above over many models     ``wb.run_many(specs, workers=N,
                                         backend="process")``
a fresh process per incoming request     ``repro serve`` (resident daemon)
shelling out ``repro batch`` per client  ``repro submit DOC --server URL``
=======================================  ==================================

The library calls live in :mod:`repro.engine` (``simulate_model``,
``explore``, ``check``/``check_space`` and
:func:`repro.engine.campaign.campaign`), :mod:`repro.sdf`
(``weave_sdf``, ``analyze``) and :mod:`repro.deployment` (``deploy``).

Caching & parallelism
=====================

Every analysis is a pure function of (model, spec, engine version), so
repeated traffic never has to recompute: give the workbench (or
``repro batch``) a **content-addressed artifact store** and pick an
**execution backend** (:mod:`repro.farm`)::

    wb = Workbench(store="~/.cache/repro-farm")
    wb.run_many(specs, workers=8, backend="process")

    repro batch specs.json --store .farm --backend process --workers 8
    repro store stats .farm && repro store gc .farm --max-bytes 100000000

Choosing a backend:

==========  =========================================================
backend     when to use it
==========  =========================================================
``serial``  the default: one group after another in the calling
            thread, sharing every warm kernel — the baseline every
            other backend matches byte for byte
``process`` cold batches over several models on a multi-core box —
            workers rebuild each model from its declarative source
            doc and results merge deterministically
==========  =========================================================

Fingerprint caveats: cache keys hash the model's canonical
serialization, the spec's canonical JSON **and the engine version**, so
a version bump invalidates every artifact (recompute, never a stale
read); models whose constraints the fingerprint encoder does not know,
and specs carrying bare policy instances, are computed fresh every time
rather than risking a collision. Results served from the store are
byte-identical to cold computations — ``result.cached`` (and the
``cached`` flag in ``repro batch --store --json`` documents) is the
only difference.

When the same models see repeated traffic, skip the per-process cost
entirely: ``repro serve`` keeps a shared workbench plus compiled-model
LRU resident behind a stdlib HTTP daemon, and ``repro submit`` (or
:func:`repro.serve.submit`) sends the same canonical documents to it,
streaming back byte-identical results as NDJSON. See :mod:`repro.serve`
for the wire protocol, the two-bound (model count + live BDD nodes)
eviction policy and the graceful-drain semantics.

Running the suite locally vs in CI
==================================

Locally, the tier-1 suite and the benchmarks run straight off the
source tree — no install required::

    PYTHONPATH=src python -m pytest -q        # 800+ tests, ~10 s
    PYTHONPATH=src python -m repro selftest   # symbolic/explicit cross-check
    python benchmarks/run_all.py              # smoke benches -> BENCH_engine.json

CI (``.github/workflows/ci.yml``) runs the same three layers, plus
lint, against an installed package: the pytest matrix covers Python
3.10/3.11/3.12 with pip caching, a bench job re-runs
``benchmarks/run_all.py`` in smoke mode, uploads the fresh
``BENCH_engine.json`` as an artifact and fails on regression against
the committed baseline (``benchmarks/check_regression.py``), a
lint job runs ``ruff check`` plus ``ruff format --check`` with the
configuration in ``pyproject.toml``, and a bounded deterministic
``repro fuzz`` round (fixed seed) gates every PR — with a scheduled
nightly round (``fuzz-nightly.yml``) fuzzing longer under a rotating
seed and a cached corpus, uploading minimized repro documents as
artifacts on failure. ``repro --version`` (also embedded
in every ``--json`` payload as ``"version"``) ties any artifact back to
the build that produced it.
"""

from repro import errors

#: the one declaration of the engine version: ``pyproject.toml`` reads
#: it at install time, and store keys hash it, so a bump in the source
#: changes them even under a stale install
__version__ = "1.5.0"

__all__ = ["errors", "__version__"]
