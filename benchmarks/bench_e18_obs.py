"""E18 — observability: the tracer must be free when off, complete
when on.

The instrumentation of :mod:`repro.obs` sits permanently on hot engine
paths (fixpoint iterations, closures, the CTL dispatch), so its
disabled-mode cost is an acceptance criterion, not a nicety. The
contract measured here:

1. **Tracing-off overhead < 2%.** With no tracer installed,
   ``obs.span(...)`` returns a shared no-op singleton — no allocation,
   no clock read, no lock. The bound is machine-checked: (per-call
   disabled-span cost) x (spans a fully traced chain12 check actually
   opens) must stay under 2% of the untraced check's wall time.
2. **Tracing-on yields the complete span tree.** A traced symbolic
   check produces every span the naming table in :mod:`repro.obs`
   promises for that path — compile, closures, fixpoint with
   per-iteration children, the CTL dispatch — correctly nested, and
   the child spans of the root cover the bulk of its wall time.
3. **Telemetry is out-of-band.** The canonical ``RunResult`` JSON of
   one spec is byte-identical with tracing enabled and disabled.
"""

import time

import pytest

from repro import obs
from repro.engine.ctl import Verdict, check
from repro.sdf import SdfBuilder, weave_sdf

#: acceptance: disabled-mode instrumentation cost on a real workload
OVERHEAD_CEILING = 0.02

#: spins of the disabled-span microbench (amortizes the timer)
NOOP_CALLS = 200_000


def chain(length: int, capacity: int = 2):
    builder = SdfBuilder(f"chain{length}c{capacity}")
    for index in range(length):
        builder.agent(f"a{index}")
    for index in range(length - 1):
        builder.connect(f"a{index}", f"a{index + 1}", capacity=capacity)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


def noop_span_cost() -> float:
    """Seconds per ``obs.span(...)`` enter/exit with tracing off."""
    assert not obs.tracing_active()
    started = time.perf_counter()
    for _ in range(NOOP_CALLS):
        with obs.span("bench.noop", depth=1):
            pass
    return (time.perf_counter() - started) / NOOP_CALLS


def traced_check(model):
    """Run one symbolic check under a private tracer; returns (result,
    tracer) with the ambient tracer state restored."""
    previous = obs.disable_tracing()
    tracer = obs.enable_tracing()
    try:
        model.clear_caches()
        result = check(model, "AG !deadlock", strategy="symbolic")
    finally:
        obs.disable_tracing()
        if previous is not None:
            obs.enable_tracing(previous)
    return result, tracer


class TestObsContract:
    def test_tracing_off_overhead_under_2_percent(self):
        """The acceptance pin: spans-opened x per-span-disabled-cost
        must be under 2% of the untraced workload's wall time."""
        model = chain(12)
        # untraced baseline (cold kernel, like the traced run)
        assert not obs.tracing_active()
        model.clear_caches()
        started = time.perf_counter()
        result = check(model, "AG !deadlock", strategy="symbolic")
        untraced_s = time.perf_counter() - started
        assert result.verdict is Verdict.HOLDS
        # how many spans does this exact workload open when traced?
        _result, tracer = traced_check(model)
        spans_opened = sum(1 for _ in tracer.spans())
        assert spans_opened > 0
        per_span = noop_span_cost()
        overhead = spans_opened * per_span
        print(f"\n{spans_opened} span(s) x {per_span * 1e9:.0f}ns = "
              f"{overhead * 1e6:.1f}us over {untraced_s * 1e3:.0f}ms "
              f"({overhead / untraced_s:.4%})")
        assert overhead < OVERHEAD_CEILING * untraced_s

    def test_tracing_on_yields_the_complete_span_tree(self):
        model = chain(12)
        result, tracer = traced_check(model)
        assert result.verdict is Verdict.HOLDS
        names = {span.name for span in tracer.spans()}
        assert {"ctl.check", "symbolic.compile", "symbolic.closure",
                "symbolic.fixpoint",
                "symbolic.fixpoint.iteration"} <= names
        # nesting: every fixpoint iteration is a child of a fixpoint
        for span in tracer.spans():
            if span.name == "symbolic.fixpoint":
                assert any(child.name == "symbolic.fixpoint.iteration"
                           for child in span.children)
        # the root's direct children (compile, the reachability
        # fixpoint, witness extraction) must account for the bulk of
        # its wall time — the check IS those phases plus cheap
        # set-level queries on the reached BDD
        root = max(tracer.roots, key=lambda span: span.duration)
        assert root.name == "ctl.check"
        covered = sum(child.duration for child in root.children)
        assert root.duration > 0
        assert covered / root.duration > 0.5, (covered, root.duration)

    def test_artifacts_byte_identical_tracing_on_or_off(self):
        from repro.workbench import CheckSpec, Workbench

        def run_once() -> str:
            workbench = Workbench()
            workbench.add(chain_text(), name="app")
            return workbench.run(
                CheckSpec("app", "AG !deadlock",
                          strategy="symbolic")).to_json()

        untraced = run_once()
        previous = obs.disable_tracing()
        obs.enable_tracing()
        try:
            traced = run_once()
        finally:
            obs.disable_tracing()
            if previous is not None:
                obs.enable_tracing(previous)
        assert traced == untraced


def chain_text(length: int = 8, capacity: int = 2) -> str:
    agents = "\n".join(f"  agent a{i}" for i in range(length))
    places = "\n".join(
        f"  place a{i} -> a{i + 1} push 1 pop 1 capacity {capacity}"
        for i in range(length - 1))
    return f"application chainbytes {{\n{agents}\n{places}\n}}\n"


@pytest.mark.benchmark(group="e18-obs")
def bench_noop_span_disabled(benchmark):
    """Disabled-mode span cost — the permanent tax on instrumented
    paths (should be tens of nanoseconds)."""
    assert not obs.tracing_active()

    def run():
        for _ in range(1_000):
            with obs.span("bench.noop"):
                pass

    benchmark(run)
    benchmark.extra_info["engine"] = {
        "noop_span_ns": noop_span_cost() * 1e9,
    }


@pytest.mark.benchmark(group="e18-obs")
def bench_traced_symbolic_check(benchmark):
    """A fully traced cold-kernel chain12 check, with the span count
    and the computed disabled-overhead bound in the engine record."""
    model = chain(12)

    def run():
        return traced_check(model)

    result, tracer = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.verdict is Verdict.HOLDS
    spans_opened = sum(1 for _ in tracer.spans())
    per_span = noop_span_cost()
    engine = obs.engine_snapshot(model) or {}
    engine.update({
        "spans": spans_opened,
        "noop_span_ns": per_span * 1e9,
        "disabled_overhead_bound": spans_opened * per_span,
    })
    benchmark.extra_info["engine"] = engine
