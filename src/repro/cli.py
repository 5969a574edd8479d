"""Command-line interface: ``python -m repro`` / ``repro``.

A thin shell over the :mod:`repro.workbench` facade. Subcommands mirror
the workbench facilities of the paper's tooling:

* ``simulate`` — simulate a SigPML application under a policy;
* ``explore`` — exhaustively explore its scheduling state space;
* ``check`` — verify a temporal property of every acceptable schedule
  (``repro check app.sigpml "AG !deadlock"``), with three-valued
  verdicts (HOLDS/FAILS/UNKNOWN — never a definitive answer from a
  truncated exploration) and replayable witness/counterexample traces;
* ``analyze`` — static SDF analysis (repetition vector, PASS);
* ``lint`` — static analysis without stepping the engine (``repro lint
  app.sigpml [--json|--sarif]``): stable-ID diagnostics (``SDF001``
  rate inconsistency, ``CCS002`` precedence cycles, ``ENC001``
  unencodable counters, …; see :mod:`repro.lint` for the catalog),
  every ERROR claim engine-confirmable via the cross-check harness;
* ``dot`` — render the application, its MoCC automata, or the state
  space as DOT;
* ``deploy`` — deploy on a platform and simulate;
* ``pam`` — run the PAM deployment study;
* ``campaign`` — compare scheduling policies;
* ``batch`` — run many specs from a batch file, optionally in parallel
  (``--backend serial|process``) and optionally backed by a
  content-addressed artifact store (``--store DIR``: previously
  computed results are served byte-identically instead of recomputed);
* ``store`` — inspect (``stats``) or prune (``gc``) such a store;
* ``serve`` — run the always-warm analysis server (``repro serve
  --port 8123 --store DIR``): compiled models stay resident in a
  bounded LRU across requests, results stream as NDJSON, SIGTERM
  drains gracefully (see :mod:`repro.serve` for the wire protocol);
* ``submit`` — post a batch file to a running server (``repro submit
  specs.json --server http://host:port``), falling back to local
  execution when no server is reachable — results are byte-identical
  either way;
* ``fuzz`` — run the continuous differential-fuzzing farm (``repro
  fuzz --seed N --cases K|--budget SECS [--store DIR] [--minimize]``):
  seeded well-formed models for all five front-ends, generated CTL
  properties, every (model, property) pair through the explicit and
  both symbolic backend configurations; any disagreement, broken
  witness, or crash fails the round and emits a self-contained repro
  document (``--out DIR``) that ``repro submit`` accepts and ``repro
  fuzz --replay FILE`` re-compares (see :mod:`repro.fuzz`);
  ``--trace-failures`` additionally replays each failure under the
  tracer and drops a Chrome trace-event file next to its repro
  document;
* ``profile`` — run any other subcommand under the tracer (``repro
  profile [--trace FILE] [--top N] check app.sigpml "AG !deadlock"``)
  and print a top-N self-time report; ``--trace`` also writes the full
  span tree as Chrome trace-event JSON (loadable in Perfetto /
  ``chrome://tracing``). The same ``--trace FILE`` flag is available
  directly on ``explore``/``check``/``batch``/``fuzz``. Telemetry is
  out-of-band: result documents are byte-identical with tracing on or
  off (see :mod:`repro.obs`);
* ``selftest`` — cross-check the symbolic and explicit exploration
  strategies on three bundled models, then prove the artifact store
  round-trip (cold run == warm run, byte for byte), the serve
  round-trip (served == direct, byte for byte) and the static-analysis
  contract (bundled models lint clean, every lint claim replays on the
  engine, a seeded-bad model is caught) — the CI smoke step.

Every subcommand takes ``--json`` to emit the uniform
:class:`~repro.workbench.RunResult` document instead of the text
report, making the CLI scriptable end to end; every JSON payload embeds
the package ``version`` so artifacts are traceable to a build
(``repro --version`` prints it).
"""

from __future__ import annotations

import argparse
import json
import sys

import repro
from repro import obs
from repro.errors import ReproError
from repro.viz import run_result_report, sdf_to_dot, statespace_report, \
    trace_report
from repro.workbench import (
    CampaignSpec,
    CheckSpec,
    DeploymentSpec,
    ExploreSpec,
    SimulateSpec,
    Workbench,
    source_from_doc,
)

#: policies offerable without structured arguments (replay needs a
#: recorded trace and is API-only; priority takes repeated --weight)
_CLI_POLICIES = ("asap", "minimal", "random", "priority")


def _policy_spec(args: argparse.Namespace):
    """The JSON policy spec for the parsed CLI arguments."""
    if args.policy == "random":
        return {"name": "random", "seed": args.seed}
    if args.policy == "priority":
        weights = {}
        for item in args.weight or []:
            event, _sep, weight = item.partition("=")
            try:
                weights[event] = int(weight)
            except ValueError:
                raise ReproError(
                    f"bad --weight {item!r}; expected EVENT=INT") from None
        return {"name": "priority", "weights": weights}
    return args.policy


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("application", help="path to a .sigpml file")
    parser.add_argument("--variant", default="default",
                        choices=("default", "strict", "multiport"),
                        help="PlaceConstraint variant")
    parser.add_argument("--json", action="store_true",
                        help="emit the RunResult document as JSON")


def _add_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write the command's span tree as Chrome "
                             "trace-event JSON (Perfetto-loadable); "
                             "results are byte-identical with or "
                             "without it")


def _workbench_for(args: argparse.Namespace) -> Workbench:
    """A session with the argument application loaded as ``app``."""
    workbench = Workbench()
    workbench.add(args.application, name="app",
                  place_variant=getattr(args, "variant", "default"))
    return workbench


def cmd_simulate(args: argparse.Namespace) -> int:
    workbench = _workbench_for(args)
    result = workbench.run(SimulateSpec(
        "app", policy=_policy_spec(args), steps=args.steps))
    if result.ok and args.vcd:
        with open(args.vcd, "w", encoding="utf-8") as handle:
            handle.write(result.trace().to_vcd())
    if args.json:
        print(result.to_json())
        return 0 if result.ok else 1
    if not result.ok:
        raise ReproError(result.error)
    print(run_result_report(result))
    if args.vcd:
        print(f"\nVCD written to {args.vcd}")
    return 0


def _json_with_engine(result, workbench: Workbench) -> str:
    """The result document plus out-of-band ``"engine"`` telemetry.

    Telemetry (BDD node counts, reorders, cache hit rates) depends on
    evaluation history, so it must never enter the canonical
    ``RunResult`` document — two identical runs would stop comparing
    byte-equal. It rides the CLI JSON output only, and only when a
    symbolic kernel actually ran."""
    doc = result.to_doc()
    engine = obs.engine_snapshot(workbench.handle("app").execution_model)
    if engine is not None:
        doc["engine"] = engine
    return json.dumps(doc, indent=2, sort_keys=True)


def cmd_explore(args: argparse.Namespace) -> int:
    workbench = _workbench_for(args)
    result = workbench.run(ExploreSpec(
        "app", max_states=args.max_states, strategy=args.strategy,
        relation_mode=args.relation_mode, include_graph=True))
    if args.json:
        print(_json_with_engine(result, workbench))
        return 0 if result.ok else 1
    if not result.ok:
        raise ReproError(result.error)
    print(run_result_report(result))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    workbench = _workbench_for(args)
    result = workbench.run(CheckSpec(
        "app", args.property, strategy=args.strategy,
        max_states=args.max_states, relation_mode=args.relation_mode))
    if args.json:
        print(_json_with_engine(result, workbench))
        return 0 if result.ok and result.data["verdict"] == "holds" else 1
    if not result.ok:
        raise ReproError(result.error)
    print(run_result_report(result))
    return 0 if result.data["verdict"] == "holds" else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    workbench = Workbench()
    workbench.add(args.application, name="app")
    result = workbench.analyze("app")
    if args.json:
        print(result.to_json())
        return 0 if result.ok else 1
    if not result.ok:
        raise ReproError(result.error)
    print(run_result_report(result))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import LintReport, sarif_doc
    from repro.workbench import LintSpec
    workbench = _workbench_for(args)
    result = workbench.run(LintSpec("app", rules=args.rules))
    if args.sarif:
        if not result.ok:
            raise ReproError(result.error)
        report = LintReport.from_doc(result.data)
        print(json.dumps(sarif_doc(report), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    if args.json:
        print(result.to_json())
        return 0 if result.ok and result.data["ok"] else 1
    if not result.ok:
        raise ReproError(result.error)
    data = result.data
    print(f"{data['model']} ({data['frontend']}): "
          f"{data['rules_run']} rule(s) run")
    for diagnostic in data["diagnostics"]:
        print(f"  {diagnostic['rule']} {diagnostic['severity'].upper():<7} "
              f"{diagnostic['path']}: {diagnostic['message']}")
    counts = data["counts"]
    verdict = "clean" if data["ok"] else "ERRORS"
    print(f"{verdict}: {counts['error']} error(s), "
          f"{counts['warning']} warning(s), {counts['info']} info")
    return 0 if data["ok"] else 1


def cmd_dot(args: argparse.Namespace) -> int:
    if args.what == "application":
        workbench = Workbench()
        handle = workbench.add(args.application, name="app")
        dot = sdf_to_dot(handle.application)
    elif args.what == "automaton":
        from repro.moccml.draw import automaton_to_dot
        from repro.sdf import sdf_library
        library = sdf_library(args.variant)
        definition = library.definition_for(args.constraint)
        if definition is None:
            print(f"unknown constraint {args.constraint!r}", file=sys.stderr)
            return 2
        dot = automaton_to_dot(definition)
    else:  # statespace
        from repro.moccml.draw import statespace_to_dot
        workbench = _workbench_for(args)
        result = workbench.run(ExploreSpec(
            "app", max_states=args.max_states, include_graph=True))
        if not result.ok:
            raise ReproError(result.error)
        dot = statespace_to_dot(result.statespace())
    if args.json:
        print(json.dumps({"kind": "dot", "what": args.what, "dot": dot,
                          "version": repro.__version__},
                         indent=2, sort_keys=True))
    else:
        print(dot, end="")
    return 0


def cmd_deploy(args: argparse.Namespace) -> int:
    from repro.deployment import parse_deployment
    with open(args.deployment, encoding="utf-8") as handle:
        platform, allocation = parse_deployment(handle.read(),
                                                filename=args.deployment)
    if platform is None or allocation is None:
        print("error: the deployment file needs both a platform and an "
              "allocation block", file=sys.stderr)
        return 2
    workbench = Workbench()
    handle = workbench.add(
        DeploymentSpec(application=args.application,
                       deployment=(platform, allocation),
                       place_variant=args.variant),
        name="app")
    deployment = handle.deployment
    simulation = workbench.run(SimulateSpec("app", steps=args.steps))
    exploration = None
    if args.explore:
        exploration = workbench.run(ExploreSpec(
            "app", max_states=args.max_states, include_graph=not args.json))
    if args.json:
        doc = {"deployment": handle.describe(),
               "simulate": simulation.to_doc(),
               "version": repro.__version__}
        if exploration is not None:
            doc["explore"] = exploration.to_doc()
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0 if simulation.ok else 1
    if not simulation.ok:
        raise ReproError(simulation.error)
    app_name = handle.application.name
    print(f"deployed {app_name!r} on {deployment.platform.name!r}: "
          f"{len(deployment.mutexes)} mutex(es), "
          f"{len(deployment.comm_delays)} comm delay(s)")
    if exploration is not None:
        print(statespace_report(exploration.statespace()))
    print(trace_report(simulation.trace()))
    return 0


def cmd_pam(args: argparse.Namespace) -> int:
    from repro.pam.experiments import format_study, run_deployment_study
    rows = run_deployment_study(capacity=args.capacity,
                                max_states=args.max_states,
                                sim_steps=args.steps)
    if args.json:
        print(json.dumps({"kind": "pam-study",
                          "rows": [row.as_dict() for row in rows],
                          "version": repro.__version__},
                         indent=2, sort_keys=True))
        return 0
    print(format_study(rows))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    workbench = _workbench_for(args)
    result = workbench.run(CampaignSpec(
        "app", steps=args.steps, watch=args.watch or None))
    if args.json:
        print(result.to_json())
        return 0 if result.ok else 1
    if not result.ok:
        raise ReproError(result.error)
    print(run_result_report(result))
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    with open(args.specs, encoding="utf-8") as handle:
        document = json.load(handle)
    if isinstance(document, list):
        models, runs = {}, document
    else:
        models = document.get("models", {})
        runs = document.get("runs", [])
    if not runs:
        print("error: the batch file defines no runs", file=sys.stderr)
        return 2
    workers = args.workers
    if workers is None:
        # the process backend exists to use the cores; without an
        # explicit --workers it would silently run serial at 1
        import os
        workers = (os.cpu_count() or 1) if args.backend == "process" else 1
    workbench = Workbench(store=args.store)
    for name, model_doc in models.items():
        workbench.add(source_from_doc(model_doc), name=name,
                      **model_doc.get("options", {}))

    def stream(index: int, result) -> None:
        if not args.json:
            line = result.summary()
            print(f"{line}  [cached]" if result.cached else line)

    results = workbench.run_many(runs, workers=workers,
                                 backend=args.backend, on_result=stream)
    emitted = []
    for result in results:
        doc = result.to_doc()
        if args.store:
            # transport metadata, not part of the canonical artifact:
            # a cache hit is byte-identical to the cold computation
            doc["cached"] = result.cached
        emitted.append(doc)
    failures = sum(1 for result in results if not result.ok)
    hits = sum(1 for result in results if result.cached)
    if args.json:
        print(json.dumps(emitted, indent=2, sort_keys=True))
    else:
        tail = f", {hits} cache hit(s)" if args.store else ""
        print(f"{len(results)} run(s), {failures} failure(s){tail}")
    return 1 if failures else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-warm analysis server until SIGTERM/SIGINT, then
    drain gracefully and log the final metrics snapshot."""
    import signal
    import threading
    from repro.serve import serve
    server = serve(host=args.host, port=args.port, store=args.store,
                   max_models=args.max_models, max_nodes=args.max_nodes,
                   workers=args.workers, verbose=args.verbose)
    stop = threading.Event()

    def request_stop(_signum, _frame):
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, request_stop)
    server.start()
    store_note = f", store={args.store}" if args.store else ""
    print(f"repro serve listening on {server.url} "
          f"(workers={args.workers}, max-models={args.max_models}"
          f"{store_note})", flush=True)
    if args.store and (args.gc_entries or args.gc_bytes):
        # concurrent janitor: prune the artifact store while serving
        # (gc spares entries that were read since its listing, so it
        # never deletes an artifact out from under a request)
        def janitor():
            while not stop.wait(args.gc_interval):
                server.service.store.gc(max_entries=args.gc_entries,
                                        max_bytes=args.gc_bytes)
        threading.Thread(target=janitor, name="repro-serve-gc",
                         daemon=True).start()
    stop.wait()
    print("draining: refusing new requests, finishing in-flight ones "
          "...", flush=True)
    report = server.drain()
    print(json.dumps({"kind": "serve-drain",
                      "version": repro.__version__, **report},
                     indent=2, sort_keys=True))
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Post a batch file to a running server; fall back to local
    execution when no server is reachable."""
    from repro.serve import submit_or_local
    with open(args.specs, encoding="utf-8") as handle:
        document = json.load(handle)

    def stream(index: int, result) -> None:
        if not args.json:
            line = result.summary()
            print(f"{line}  [cached]" if result.cached else line)

    results, origin = submit_or_local(
        document, server=args.server, store=args.store,
        workers=args.workers or 1, backend=args.backend,
        on_result=stream)
    emitted = []
    for result in results:
        doc = result.to_doc()
        # transport metadata, as in cmd_batch: never part of the
        # canonical artifact
        doc["cached"] = result.cached
        emitted.append(doc)
    failures = sum(1 for result in results if not result.ok)
    hits = sum(1 for result in results if result.cached)
    if args.json:
        print(json.dumps(emitted, indent=2, sort_keys=True))
    else:
        print(f"{len(results)} run(s), {failures} failure(s), "
              f"{hits} cache hit(s) [{origin}]")
    return 1 if failures else 0


def cmd_store(args: argparse.Namespace) -> int:
    import os
    from repro.farm import ArtifactStore
    if not os.path.isdir(args.root):
        # inspection must not conjure an empty store out of a typo
        print(f"error: no artifact store at {args.root!r} (directory "
              f"does not exist)", file=sys.stderr)
        return 2
    store = ArtifactStore(args.root)
    if args.store_command == "stats":
        report = store.stats()
        del report["session"]  # a fresh process has nothing to report
    else:  # gc
        report = store.gc(max_entries=args.max_entries,
                          max_bytes=args.max_bytes)
        report["root"] = str(store.root)
    if args.json:
        print(json.dumps({"kind": f"store-{args.store_command}",
                          "version": repro.__version__, **report},
                         indent=2, sort_keys=True))
        return 0
    if args.store_command == "stats":
        print(f"store {report['root']}: {report['entries']} artifact(s), "
              f"{report['total_bytes']} byte(s)")
    else:
        print(f"store {report['root']}: removed {report['removed']} "
              f"artifact(s) ({report['freed_bytes']} byte(s)), "
              f"kept {report['kept']}")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run one differential-fuzzing round (or replay one repro doc)."""
    from repro.fuzz import replay_document, run_round
    if args.trace_failures and not args.out:
        print("error: --trace-failures needs --out (traces are written "
              "next to the repro documents)", file=sys.stderr)
        return 2
    if args.replay:
        with open(args.replay, encoding="utf-8") as handle:
            document = json.load(handle)
        report = replay_document(document)
    else:
        if args.cases is None and args.budget is None:
            print("error: repro fuzz needs --cases or --budget",
                  file=sys.stderr)
            return 2
        log = None if args.json else \
            (lambda line: print(line, flush=True))
        report = run_round(
            args.seed, cases=args.cases, budget=args.budget,
            frontends=tuple(args.frontends) if args.frontends else None,
            store=args.store, minimize=args.minimize, log=log)
    if args.out and report["failures"]:
        import os
        os.makedirs(args.out, exist_ok=True)
        for number, failure in enumerate(report["failures"]):
            if failure.get("repro") is None:
                continue
            path = os.path.join(args.out, f"fuzz-repro-{number:03d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(failure["repro"], handle, indent=2,
                          sort_keys=True)
            if not args.json:
                print(f"repro document written to {path}")
            if args.trace_failures:
                trace_path = _trace_failure(failure["repro"], args.out,
                                            number)
                if not args.json:
                    print(f"failure trace written to {trace_path}")
    if args.json:
        print(json.dumps({"kind": "fuzz",
                          "version": repro.__version__, **report},
                         indent=2, sort_keys=True))
        return 0 if report["ok"] else 1
    print(f"repro {repro.__version__} fuzz — seed {report['seed']}, "
          f"generation {report['generation']}")
    for frontend, count in report["per_frontend"].items():
        print(f"  {frontend:<12} {count:>5} case(s)")
    print(f"  {report['cases']} case(s) checked "
          f"({report['deduped']} deduped), {report['checks']} backend "
          f"check(s), {report['unencodable']} unencodable, "
          f"{len(report['failures'])} failure(s) "
          f"in {report['elapsed']}s")
    for failure in report["failures"]:
        prop = failure.get("property")
        where = f" on {prop!r}" if prop else ""
        print(f"  - {failure['kind']}{where} (case {failure['index']}, "
              f"{failure['frontend']}): {failure['detail']}")
    print("fuzz PASSED" if report["ok"] else "fuzz FAILED")
    return 0 if report["ok"] else 1


def _trace_failure(repro_doc: dict, out_dir: str, number: int) -> str:
    """Replay one fuzz failure under a dedicated tracer and write its
    Chrome trace next to the repro document (``--trace-failures``).

    The replay gets its own tracer — an ambient one (an enclosing
    ``repro profile fuzz ...``) is parked and restored so each
    failure's file holds exactly that failure's spans.
    """
    import os
    from repro.fuzz import replay_document
    previous = obs.disable_tracing()
    tracer = obs.enable_tracing()
    try:
        replay_document(repro_doc)
    finally:
        obs.disable_tracing()
        if previous is not None:
            obs.enable_tracing(previous)
    trace_path = os.path.join(out_dir, f"fuzz-repro-{number:03d}"
                                       f".trace.json")
    obs.write_chrome_trace(tracer, trace_path)
    return trace_path


def cmd_profile(args: argparse.Namespace) -> int:
    """Run any repro command under the tracer; report span self-times.

    Re-enters :func:`main` with the remaining argv, so everything a
    direct invocation supports is profilable (including ``--json``
    output, which stays on stdout — the profile report goes to stderr).
    """
    rest = list(args.cmd)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest or rest[0] == "profile":
        print("error: repro profile needs a repro command to run, e.g. "
              "repro profile check app.sigpml 'AG !deadlock'",
              file=sys.stderr)
        return 2
    with obs.capture() as tracer:
        with obs.span("repro.profile", cmd=" ".join(rest)):
            code = main(rest)
        if args.trace:
            obs.write_chrome_trace(tracer, args.trace)
    print(obs.profile_report(tracer, top=args.top), file=sys.stderr)
    if args.trace:
        print(f"trace written to {args.trace} (load in Perfetto or "
              f"chrome://tracing)", file=sys.stderr)
    return code


#: bundled selftest models: diverse front-ends, all finitely encodable,
#: small enough that the cross-check runs in well under a second each.
def _selftest_models():
    from repro.workbench import CcslSpec, load
    chain = """
    application selftest_chain {
      agent source
      agent worker
      agent sink
      place source -> worker push 1 pop 1 capacity 2
      place worker -> sink push 1 pop 1 capacity 2
    }
    """
    forkjoin = """
    application selftest_forkjoin {
      agent split
      agent left
      agent right
      agent join
      place split -> left push 1 pop 1 capacity 1
      place split -> right push 1 pop 1 capacity 1
      place left -> join push 1 pop 1 capacity 1
      place right -> join push 1 pop 1 capacity 1
    }
    """
    clocks = CcslSpec("selftest_ccsl", events=["a", "b", "c", "d"],
                      constraints=[
                          ("Alternates", ["a", "b"]),
                          ("BoundedPrecedes", ["b", "c", 2]),
                          ("DelayedFor", ["d", "a", 2]),
                      ])
    return [load(chain, name="sigpml-chain"),
            load(forkjoin, name="sigpml-forkjoin"),
            load(clocks, name="ccsl-clocks")]


def _selftest_store_roundtrip(handles) -> dict:
    """Farm phase of the selftest: run a spec battery cold into a
    throwaway store, re-run it warm, and demand (a) every warm result
    is a cache hit and (b) the artifacts are byte-identical."""
    import tempfile
    from repro.workbench import CheckSpec, ExploreSpec, SimulateSpec
    specs = []
    for handle in handles:
        specs.append(ExploreSpec(handle.name, max_states=2_000))
        specs.append(SimulateSpec(handle.name, steps=15))
        specs.append(CheckSpec(handle.name, "AG !deadlock",
                               max_states=2_000))
    with tempfile.TemporaryDirectory(prefix="repro-selftest-farm-") as root:
        workbench = Workbench(store=root)
        for handle in handles:
            workbench.add(handle)
        cold = workbench.run_many(specs)
        warm = workbench.run_many(specs)
    cold_bytes = [result.to_json() for result in cold]
    warm_bytes = [result.to_json() for result in warm]
    mismatches = []
    if any(result.cached for result in cold):
        mismatches.append("cold run reported cache hits in a fresh store")
    misses = sum(1 for result in warm if not result.cached)
    if misses:
        mismatches.append(f"warm run missed the store {misses} time(s)")
    if cold_bytes != warm_bytes:
        differing = [index for index, (one, two)
                     in enumerate(zip(cold_bytes, warm_bytes)) if one != two]
        mismatches.append(
            f"cold and warm artifacts differ at spec(s) {differing}")
    return {"specs": len(specs),
            "warm_hits": len(specs) - misses,
            "mismatches": mismatches,
            "agree": not mismatches}


def _selftest_relation_modes(handles) -> dict:
    """Symbolic-core phase of the selftest: explore every bundled model
    symbolically under both relation layouts and demand byte-identical
    serialized spaces; then force a full variable reorder on the
    compiled kernel and re-check that verdicts survive the
    renumbering."""
    from repro.engine import explore
    from repro.engine.ctl import check
    mismatches = []
    for handle in handles:
        model = handle.execution_model
        spaces = {}
        for mode in ("partitioned", "monolithic"):
            model.clear_caches()
            spaces[mode] = explore(model, max_states=5_000,
                                   strategy="symbolic",
                                   relation_mode=mode).to_json()
        if spaces["partitioned"] != spaces["monolithic"]:
            mismatches.append(
                f"{handle.name}: relation modes serialize differently")
        model.clear_caches()
        before = check(model, "AG !deadlock", strategy="symbolic").verdict
        model.kernel.transition_system(model).bdd.reorder()
        after = check(model, "AG !deadlock", strategy="symbolic").verdict
        if after is not before:
            mismatches.append(
                f"{handle.name}: verdict changed across a forced "
                f"reorder ({before.value} -> {after.value})")
    return {"models": len(handles),
            "mismatches": mismatches,
            "agree": not mismatches}


def _selftest_serve(handles) -> dict:
    """Serve phase of the selftest: round-trip the bundled models
    through an in-process HTTP server on an ephemeral port and demand
    the streamed results are byte-identical to direct (offline)
    Workbench execution."""
    from repro.serve import ping, serve, submit
    from repro.workbench import CheckSpec, ExploreSpec, SimulateSpec
    shippable = [handle for handle in handles
                 if handle.source_doc is not None]
    specs = []
    for handle in shippable:
        specs.append(ExploreSpec(handle.name, max_states=2_000))
        specs.append(SimulateSpec(handle.name, steps=15))
        specs.append(CheckSpec(handle.name, "AG !deadlock",
                               max_states=2_000))
    document = {"models": {handle.name: handle.source_doc
                           for handle in shippable},
                "runs": [spec.to_doc() for spec in specs]}
    workbench = Workbench()
    for handle in shippable:
        workbench.add(handle)
    direct = workbench.run_many(specs)
    mismatches = []
    with serve(port=0, workers=2).start() as server:
        health = ping(server.url)
        if health is None or health.get("status") != "ok":
            mismatches.append("server did not answer /healthz")
            served = []
        else:
            served = submit(document, server.url)
    for spec, from_server, offline in zip(specs, served, direct):
        if from_server.to_json() != offline.to_json():
            mismatches.append(
                f"{spec.kind} on {spec.model}: served result differs "
                f"from direct execution")
    return {"specs": len(specs), "models": len(shippable),
            "mismatches": mismatches, "agree": not mismatches}


def _selftest_lint(handles) -> dict:
    """Lint phase of the selftest: the bundled models must be free of
    ERROR findings, every confirmable claim must replay on the engine
    (the cross-check harness), and a seeded rate-inconsistent model
    must be caught."""
    from repro.lint import crosscheck_handle, lint_handle
    from repro.workbench import load
    mismatches = []
    for handle in handles:
        report = lint_handle(handle)
        for diagnostic in report.errors:
            mismatches.append(
                f"{handle.name}: bundled model has a lint error "
                f"({diagnostic.rule}: {diagnostic.message})")
        cross = crosscheck_handle(handle, report)
        mismatches.extend(cross["mismatches"])
    seeded_bad = load("""
    application selftest_bad {
      agent a
      agent b
      place a -> b push 2 pop 1 capacity 4
      place a -> b push 1 pop 1 capacity 4
    }
    """, name="selftest-bad")
    bad_report = lint_handle(seeded_bad)
    if not any(d.rule == "SDF001" for d in bad_report.errors):
        mismatches.append(
            "seeded rate-inconsistent model was not caught by SDF001")
    else:
        mismatches.extend(
            crosscheck_handle(seeded_bad, bad_report)["mismatches"])
    return {"models": len(handles) + 1,
            "errors_caught": len(bad_report.errors),
            "mismatches": mismatches, "agree": not mismatches}


def cmd_selftest(args: argparse.Namespace) -> int:
    """Cross-check symbolic vs explicit exploration on bundled models."""
    from repro.engine.equivalence import cross_check
    handles = _selftest_models()
    reports = []
    for handle in handles:
        report = cross_check(handle.execution_model,
                             max_states=args.max_states)
        report["model"] = handle.name
        reports.append(report)
    modes_report = _selftest_relation_modes(handles)
    store_report = _selftest_store_roundtrip(handles)
    serve_report = _selftest_serve(handles)
    lint_report = _selftest_lint(handles)
    ok = all(report["agree"] for report in reports) \
        and modes_report["agree"] and store_report["agree"] \
        and serve_report["agree"] and lint_report["agree"]
    if args.json:
        print(json.dumps({"kind": "selftest", "ok": ok,
                          "version": repro.__version__,
                          "reports": reports,
                          "relation_modes": modes_report,
                          "store": store_report,
                          "serve": serve_report,
                          "lint": lint_report},
                         indent=2, sort_keys=True))
        return 0 if ok else 1
    print(f"repro {repro.__version__} selftest — symbolic vs explicit "
          f"exploration")
    for report in reports:
        verdict = "OK" if report["agree"] else "MISMATCH"
        checked = len(report.get("properties") or [])
        line = (f"  {report['model']:<18} {report['states']:>6} state(s) "
                f"{report['transitions']:>6} transition(s) "
                f"{checked:>2} properties  {verdict}")
        print(line)
        for mismatch in report["mismatches"]:
            print(f"    - {mismatch}")
    modes_verdict = "OK" if modes_report["agree"] else "MISMATCH"
    print(f"  relation modes     {modes_report['models']:>6} model(s) "
          f"partitioned==monolithic, reorder-stable  {modes_verdict}")
    for mismatch in modes_report["mismatches"]:
        print(f"    - {mismatch}")
    store_verdict = "OK" if store_report["agree"] else "MISMATCH"
    print(f"  artifact store     {store_report['specs']:>6} spec(s) "
          f"{store_report['warm_hits']:>6} warm hit(s) "
          f"cold==warm  {store_verdict}")
    for mismatch in store_report["mismatches"]:
        print(f"    - {mismatch}")
    serve_verdict = "OK" if serve_report["agree"] else "MISMATCH"
    print(f"  analysis server    {serve_report['specs']:>6} spec(s) "
          f"{serve_report['models']:>6} model(s) "
          f"served==direct  {serve_verdict}")
    for mismatch in serve_report["mismatches"]:
        print(f"    - {mismatch}")
    lint_verdict = "OK" if lint_report["agree"] else "MISMATCH"
    print(f"  static analysis    {lint_report['models']:>6} model(s) "
          f"clean, seeded-bad caught, claims confirmed  {lint_verdict}")
    for mismatch in lint_report["mismatches"]:
        print(f"    - {mismatch}")
    print("selftest PASSED" if ok else "selftest FAILED")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MoCCML workbench (DATE 2015 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"repro {repro.__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="simulate a SigPML application")
    _add_common(simulate)
    simulate.add_argument("--steps", type=int, default=20)
    simulate.add_argument("--policy", default="asap",
                          choices=_CLI_POLICIES)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--weight", action="append", metavar="EVENT=W",
                          help="event weight for --policy priority")
    simulate.add_argument("--vcd", help="write the trace as VCD to this path")
    simulate.set_defaults(handler=cmd_simulate)

    explorer = subparsers.add_parser(
        "explore", help="exhaustively explore the scheduling state space")
    _add_common(explorer)
    explorer.add_argument("--max-states", type=int, default=10_000)
    explorer.add_argument("--strategy", default="explicit",
                          choices=("explicit", "symbolic", "auto"),
                          help="exploration strategy (identical result; "
                               "symbolic compiles a BDD transition relation)")
    explorer.add_argument("--relation-mode", default=None,
                          dest="relation_mode",
                          choices=("partitioned", "monolithic"),
                          help="symbolic relation layout: partitioned "
                               "(default; image/preimage by clustered "
                               "early quantification) or monolithic "
                               "(eagerly conjoined relation); the "
                               "result is identical either way")
    _add_trace(explorer)
    explorer.set_defaults(handler=cmd_explore)

    checker = subparsers.add_parser(
        "check",
        help="check a temporal property of every acceptable schedule")
    _add_common(checker)
    checker.add_argument("property",
                         help="property text, e.g. 'AG !deadlock', "
                              "'AF occurs(sink.start)', "
                              "'occurs(a) leads_to occurs(b)'")
    checker.add_argument("--strategy", default="auto",
                         choices=("explicit", "symbolic", "auto"),
                         help="checking backend: explicit exploration "
                              "(three-valued on truncation), symbolic "
                              "fixpoints on the BDD relation, or auto")
    checker.add_argument("--max-states", type=int, default=10_000,
                         help="explicit-strategy state budget; exceeding "
                              "it yields the UNKNOWN verdict")
    checker.add_argument("--relation-mode", default=None,
                         dest="relation_mode",
                         choices=("partitioned", "monolithic"),
                         help="symbolic relation layout (verdict-"
                              "neutral, cost-relevant); see "
                              "'repro explore --help'")
    _add_trace(checker)
    checker.set_defaults(handler=cmd_check)

    analyzer = subparsers.add_parser(
        "analyze", help="static SDF analysis (repetition vector, PASS)")
    analyzer.add_argument("application", help="path to a .sigpml file")
    analyzer.add_argument("--json", action="store_true",
                          help="emit the RunResult document as JSON")
    analyzer.set_defaults(handler=cmd_analyze)

    linter = subparsers.add_parser(
        "lint", help="static analysis: lint the model without stepping "
                     "the engine")
    _add_common(linter)
    linter.add_argument("--sarif", action="store_true",
                        help="emit a SARIF 2.1.0 document")
    linter.add_argument("--rule", action="append", dest="rules",
                        metavar="ID", default=None,
                        help="restrict to specific rule IDs (repeatable)")
    linter.set_defaults(handler=cmd_lint)

    dot = subparsers.add_parser("dot", help="DOT renderings")
    dot.add_argument("what",
                     choices=("application", "automaton", "statespace"))
    dot.add_argument("application", nargs="?",
                     help="path to a .sigpml file (application/statespace)")
    dot.add_argument("--constraint", default="PlaceConstraint",
                     help="constraint name for 'automaton'")
    dot.add_argument("--variant", default="default",
                     choices=("default", "strict", "multiport"))
    dot.add_argument("--max-states", type=int, default=500)
    dot.add_argument("--json", action="store_true",
                     help="wrap the DOT text in a JSON document")
    dot.set_defaults(handler=cmd_dot)

    deployer = subparsers.add_parser(
        "deploy", help="deploy an application on a platform and simulate")
    _add_common(deployer)
    deployer.add_argument("deployment",
                          help="path to a platform+allocation file")
    deployer.add_argument("--steps", type=int, default=20)
    deployer.add_argument("--explore", action="store_true",
                          help="also explore the deployed state space")
    deployer.add_argument("--max-states", type=int, default=10_000)
    deployer.set_defaults(handler=cmd_deploy)

    pam = subparsers.add_parser(
        "pam", help="run the PAM deployment study")
    pam.add_argument("--capacity", type=int, default=1)
    pam.add_argument("--max-states", type=int, default=60_000)
    pam.add_argument("--steps", type=int, default=200)
    pam.add_argument("--json", action="store_true",
                     help="emit the study rows as JSON")
    pam.set_defaults(handler=cmd_pam)

    campaign = subparsers.add_parser(
        "campaign", help="compare scheduling policies on an application")
    _add_common(campaign)
    campaign.add_argument("--steps", type=int, default=40)
    campaign.add_argument("--watch", nargs="*",
                          help="events to report throughput for "
                               "(default: every agent's start)")
    campaign.set_defaults(handler=cmd_campaign)

    batch = subparsers.add_parser(
        "batch", help="run many specs from a JSON batch file")
    batch.add_argument("specs", help="path to a batch file: a list of run "
                                     "specs, or {models: {...}, runs: [...]}")
    batch.add_argument("--workers", type=int, default=None,
                       help="workers for the batch fan-out (default: 1; "
                            "with --backend process, the core count)")
    batch.add_argument("--backend", default="serial",
                       choices=("serial", "process"),
                       help="fan-out backend (default: serial); "
                            "'process' scales the pure-Python engine "
                            "with cores")
    batch.add_argument("--store", default=None, metavar="DIR",
                       help="content-addressed artifact store: cached "
                            "results are served byte-identically instead "
                            "of recomputed, fresh ones written through")
    batch.add_argument("--json", action="store_true",
                       help="emit the result documents as a JSON array "
                            "(with --store, each document carries a "
                            "'cached' flag)")
    _add_trace(batch)
    batch.set_defaults(handler=cmd_batch)

    server = subparsers.add_parser(
        "serve",
        help="run the always-warm analysis server (NDJSON over HTTP)")
    server.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback)")
    server.add_argument("--port", type=int, default=8123,
                        help="TCP port (0 picks an ephemeral port)")
    server.add_argument("--workers", type=int, default=4,
                        help="concurrent requests admitted; extras "
                             "queue (default: 4)")
    server.add_argument("--store", default=None, metavar="DIR",
                        help="artifact store shared by every request "
                             "(hits are served byte-identically)")
    server.add_argument("--max-models", type=int, default=8,
                        help="compiled models kept resident (LRU; "
                             "default: 8)")
    server.add_argument("--max-nodes", type=int, default=None,
                        help="resident BDD-node budget across all "
                             "cached kernels (default: unbounded)")
    server.add_argument("--gc-entries", type=int, default=None,
                        help="with --store: prune the store to this "
                             "many artifacts while serving")
    server.add_argument("--gc-bytes", type=int, default=None,
                        help="with --store: prune the store to this "
                             "many bytes while serving")
    server.add_argument("--gc-interval", type=float, default=60.0,
                        help="seconds between store gc sweeps "
                             "(default: 60)")
    server.add_argument("--verbose", action="store_true",
                        help="log every HTTP request")
    server.set_defaults(handler=cmd_serve)

    submit = subparsers.add_parser(
        "submit",
        help="post a batch file to a running analysis server")
    submit.add_argument("specs", help="path to a batch file: a list of "
                                      "run specs, or {models: {...}, "
                                      "runs: [...]}")
    submit.add_argument("--server", default=None, metavar="URL",
                        help="server base URL (e.g. "
                             "http://127.0.0.1:8123); omitted or "
                             "unreachable means local execution")
    submit.add_argument("--store", default=None, metavar="DIR",
                        help="artifact store for the local fallback")
    submit.add_argument("--workers", type=int, default=None,
                        help="workers for the local fallback")
    submit.add_argument("--backend", default="serial",
                        choices=("serial", "process"),
                        help="backend for the local fallback "
                             "(default: serial)")
    submit.add_argument("--json", action="store_true",
                        help="emit the result documents as a JSON "
                             "array (each carries a 'cached' flag)")
    submit.set_defaults(handler=cmd_submit)

    store = subparsers.add_parser(
        "store", help="inspect or prune a batch artifact store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats", help="entry count and size of a store")
    store_stats.add_argument("root", help="store directory")
    store_stats.add_argument("--json", action="store_true",
                             help="emit the stats as JSON")
    store_stats.set_defaults(handler=cmd_store)
    store_gc = store_sub.add_parser(
        "gc", help="drop least-recently-used artifacts over the limits")
    store_gc.add_argument("root", help="store directory")
    store_gc.add_argument("--max-entries", type=int, default=None,
                          help="keep at most this many artifacts")
    store_gc.add_argument("--max-bytes", type=int, default=None,
                          help="keep at most this many payload bytes")
    store_gc.add_argument("--json", action="store_true",
                          help="emit the gc report as JSON")
    store_gc.set_defaults(handler=cmd_store)

    fuzz = subparsers.add_parser(
        "fuzz",
        help="differential-fuzz the five front-ends against both "
             "verdict backends")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="round seed; every case is a pure function "
                           "of (seed, index) (default: 0)")
    fuzz.add_argument("--cases", type=int, default=None, metavar="K",
                      help="stop after K checked (non-deduped) cases")
    fuzz.add_argument("--budget", type=float, default=None,
                      metavar="SECS",
                      help="stop after this wall-clock budget")
    fuzz.add_argument("--store", default=None, metavar="DIR",
                      help="corpus store: cases previously proven "
                           "clean (same engine version) are skipped")
    fuzz.add_argument("--minimize", action="store_true",
                      help="shrink failing cases before reporting")
    fuzz.add_argument("--frontends", nargs="+", default=None,
                      choices=("sigpml", "deployment", "pam", "ccsl",
                               "moccml"),
                      help="restrict generation to these front-ends "
                           "(default: round-robin over all five)")
    fuzz.add_argument("--out", default=None, metavar="DIR",
                      help="write each failure's self-contained repro "
                           "document under this directory")
    fuzz.add_argument("--replay", default=None, metavar="FILE",
                      help="re-run the oracle comparison of one "
                           "emitted repro document instead of fuzzing")
    fuzz.add_argument("--json", action="store_true",
                      help="emit the round report as JSON")
    fuzz.add_argument("--trace-failures", action="store_true",
                      dest="trace_failures",
                      help="with --out: replay each failure under the "
                           "tracer and write a Chrome trace-event file "
                           "next to its repro document")
    _add_trace(fuzz)
    fuzz.set_defaults(handler=cmd_fuzz)

    profile = subparsers.add_parser(
        "profile",
        help="run any repro command under the tracer and print a "
             "self-time profile")
    profile.add_argument("--trace", default=None, metavar="FILE",
                         help="also write the full span tree as Chrome "
                              "trace-event JSON (Perfetto-loadable)")
    profile.add_argument("--top", type=int, default=15,
                         help="rows in the self-time report "
                              "(default: 15)")
    profile.add_argument("cmd", nargs=argparse.REMAINDER,
                         help="the repro command to run, e.g. "
                              "check app.sigpml 'AG !deadlock'")
    profile.set_defaults(handler=cmd_profile)

    selftest = subparsers.add_parser(
        "selftest",
        help="cross-check the symbolic and explicit exploration "
             "strategies on three bundled models")
    selftest.add_argument("--max-states", type=int, default=20_000)
    selftest.add_argument("--json", action="store_true",
                          help="emit the selftest report as JSON")
    selftest.set_defaults(handler=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "dot" and args.what != "automaton" \
            and args.application is None:
        parser.error("an application file is required")
    try:
        trace_path = getattr(args, "trace", None)
        if trace_path is not None and args.command != "profile":
            # --trace on explore/check/batch/fuzz: capture the whole
            # command (profile manages its own capture and file)
            with obs.capture() as tracer:
                code = args.handler(args)
            obs.write_chrome_trace(tracer, trace_path)
            return code
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
