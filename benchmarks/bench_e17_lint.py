"""E17 — static analysis: lint is cheap in absolute terms, and never
wrong about what the engine would do.

The claim: over a mixed 30-model corpus (SigPML chains, diamonds and
multirate graphs plus CCSL specifications, encodable and not), a full
``lint_handle`` pass costs at most **3.5 ms per model**, and the
encodability predictor agrees with the actual symbolic compile on
**100%** of the corpus.

Pinned by sanity tests and measured by benchmarks:

1. **Lint within its budget.** The fastest of five lint passes over the
   corpus, divided by the model count, stays within
   ``LINT_BUDGET_MS_PER_MODEL``. The budget bounds lint itself: the
   explore-over-lint ratio this bench used to floor at 50x fell
   whenever exploration got faster, with nothing in lint regressed. The
   ratio is still printed, and rides ``extra_info["engine"]`` into
   ``BENCH_engine.json``.
2. **Predictor agreement is total.** ``predict(model).encodable``
   matches whether the symbolic backend actually compiles, model by
   model — no misses, in either direction
   (:func:`repro.engine.equivalence.check_encodability`).
3. **The static<->dynamic cross-check is green corpus-wide.** Every
   engine-confirmable lint claim replays on the engine.
"""

import time

import pytest

from repro.engine import explore
from repro.engine.encodability import predict
from repro.engine.equivalence import check_encodability
from repro.lint import crosscheck_corpus, lint_handle
from repro.workbench import CcslSpec, load

#: mean lint cost per model, in ms, of the fastest of ``LINT_PASSES``
#: passes over the corpus. Six readings at the commit that set it read
#: 1.42-2.14 (single passes 1.42-2.28) on a 2-vCPU VM whose speed swings
#: up to 2x; the budget leaves 1.6x over the slowest of them, and a
#: ``lint_handle`` three times slower reads above 4.2 on every reading.
LINT_BUDGET_MS_PER_MODEL = 3.5
LINT_PASSES = 5
MODEL_COUNT = 30
EXPLORE_BUDGET = 2500


def chain_text(name: str, length: int, capacity: int) -> str:
    agents = "\n".join(f"  agent {name}_a{i}" for i in range(length))
    places = "\n".join(
        f"  place {name}_a{i} -> {name}_a{i+1} push 1 pop 1 "
        f"capacity {capacity}"
        for i in range(length - 1))
    return f"application {name} {{\n{agents}\n{places}\n}}\n"


def diamond_text(name: str, capacity: int) -> str:
    return f"""
    application {name} {{
      agent {name}_src
      agent {name}_up
      agent {name}_down
      agent {name}_sink
      place {name}_src -> {name}_up push 1 pop 1 capacity {capacity}
      place {name}_src -> {name}_down push 1 pop 1 capacity {capacity}
      place {name}_up -> {name}_sink push 1 pop 1 capacity {capacity}
      place {name}_down -> {name}_sink push 1 pop 1 capacity {capacity}
    }}
    """


def multirate_text(name: str, rate: int) -> str:
    return f"""
    application {name} {{
      agent {name}_fast
      agent {name}_slow
      place {name}_fast -> {name}_slow push {rate} pop 1 capacity {2 * rate}
    }}
    """


def ccsl_spec(name: str, index: int, encodable: bool) -> CcslSpec:
    events = [f"{name}_e{i}" for i in range(3 + index % 3)]
    if encodable:
        constraints = [("Alternates", (events[0], events[1])),
                       ("SampledOn", (events[2], events[0], events[1]))]
    else:
        # unbounded Precedes: no finite local encoding exists
        constraints = [("Precedes", (events[0], events[1]))]
    return CcslSpec(name=name, events=events, constraints=constraints)


def build_corpus() -> list:
    """Thirty loaded handles: 10 chains (deep enough that exploration
    carries real cost), 5 diamonds, 5 multirate graphs, 10 CCSL specs
    (6 encodable, 4 not)."""
    handles = []
    for i in range(10):
        handles.append(load(chain_text(f"chain{i}", 6 + i % 3, 2 + i % 2)))
    for i in range(5):
        handles.append(load(diamond_text(f"diamond{i}", 3 + i % 2)))
    for i in range(5):
        handles.append(load(multirate_text(f"rate{i}", 2 + i)))
    for i in range(10):
        handles.append(load(ccsl_spec(f"ccsl{i}", i, encodable=i % 5 < 3)))
    assert len(handles) == MODEL_COUNT
    return handles


def lint_pass(handles) -> float:
    started = time.perf_counter()
    for handle in handles:
        report = lint_handle(handle)
        assert report.rules_run > 0
    return time.perf_counter() - started


def explore_pass(handles) -> float:
    started = time.perf_counter()
    for handle in handles:
        space = explore(handle.execution_model, max_states=EXPLORE_BUDGET)
        assert space.n_states > 0
    return time.perf_counter() - started


class TestLintContract:
    def test_lint_within_its_budget_per_model(self):
        handles = build_corpus()
        lint_pass(handles)  # warm the rule registry import
        lint_s = min(lint_pass(handles) for _ in range(LINT_PASSES))
        explore_s = explore_pass(handles)
        per_model_ms = lint_s * 1000 / MODEL_COUNT
        print(f"\nlint: {lint_s * 1000:.1f}ms ({per_model_ms:.2f}ms/model)  "
              f"explore: {explore_s * 1000:.1f}ms  "
              f"ratio: {explore_s / lint_s:.0f}x")
        assert per_model_ms <= LINT_BUDGET_MS_PER_MODEL

    def test_predictor_agreement_is_total(self):
        misses = []
        for handle in build_corpus():
            _, finding = check_encodability(handle.execution_model)
            if finding is not None:
                misses.append((handle.name, finding))
        assert not misses, f"predictor misses: {misses}"

    def test_crosscheck_is_green_corpus_wide(self):
        result = crosscheck_corpus(build_corpus())
        assert result["models"] == MODEL_COUNT
        assert result["agree"], result["mismatches"]


@pytest.mark.benchmark(group="e17-lint")
def bench_lint_corpus(benchmark):
    handles = build_corpus()
    lint_pass(handles)  # warm the rule registry import

    def run():
        return [lint_handle(handle) for handle in handles]

    reports = benchmark(run)
    assert len(reports) == MODEL_COUNT
    lint_s = lint_pass(handles)
    explore_s = explore_pass(handles)
    benchmark.extra_info["engine"] = {
        "models": MODEL_COUNT,
        "lint_s": lint_s,
        "explore_s": explore_s,
        "explore_over_lint": explore_s / lint_s,
        "diagnostics": sum(len(lint_handle(h).diagnostics)
                           for h in handles),
    }


@pytest.mark.benchmark(group="e17-lint")
def bench_explore_corpus(benchmark):
    handles = build_corpus()

    def run():
        return [explore(handle.execution_model, max_states=EXPLORE_BUDGET)
                for handle in handles]

    spaces = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(spaces) == MODEL_COUNT


@pytest.mark.benchmark(group="e17-lint-predictor")
def bench_predictor_corpus(benchmark):
    models = [handle.execution_model for handle in build_corpus()]

    def run():
        return [predict(model).encodable for model in models]

    verdicts = benchmark(run)
    assert len(verdicts) == MODEL_COUNT
