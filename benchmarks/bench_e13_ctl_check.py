"""E13 — symbolic CTL checking beyond explicit reach.

The soundness story of the property layer, measured. ``chain12c2`` has
3^11 = 177,147 reachable states: an explicit exploration capped at the
2,000-state budget truncates, so the three-valued explicit checker
answers ``UNKNOWN`` for ``AG !deadlock`` — it *refuses* to report
"verified" from a partial search (the historical ``always()`` did
exactly that). The symbolic backend evaluates the same properties by
backward preimage fixpoints on the BDD transition relation and returns
definitive verdicts over the exact reachable set, in well under the
two-second acceptance bound — one AG (safety) and one AF (inevitable
enablement) property, witnesses included where the operator admits one.
"""

import time

import pytest

from repro import obs
from repro.engine import explore
from repro.engine.ctl import Verdict, check, check_space
from repro.sdf import SdfBuilder, weave_sdf

#: explicit budget the soundness pin works against (as in bench_e12)
EXPLICIT_BUDGET = 2_000

#: acceptance bound: each symbolic verdict on the truncating model must
#: land inside this wall-clock budget (cold kernel included)
TIME_BOUND_S = 2.0


def chain(length: int, capacity: int = 2):
    builder = SdfBuilder(f"chain{length}c{capacity}")
    for index in range(length):
        builder.agent(f"a{index}")
    for index in range(length - 1):
        builder.connect(f"a{index}", f"a{index + 1}", capacity=capacity)
    model, _app = builder.build()
    return weave_sdf(model).execution_model


class TestSoundnessBeyondExplicitReach:
    def test_truncated_explicit_answers_unknown_not_verified(self):
        """The headline bugfix pin: a partial search must not verify."""
        model = chain(12)
        space = explore(model, max_states=EXPLICIT_BUDGET)
        assert space.truncated
        verdict = check_space(space, "AG !deadlock").verdict
        assert verdict is Verdict.UNKNOWN
        with pytest.raises(ValueError):
            bool(verdict)  # coercing UNKNOWN is the old unsound read

    def test_symbolic_ag_and_af_within_the_time_bound(self):
        """The acceptance pin: AG + AF definitive in < 2 s each on a
        model whose explicit exploration truncates."""
        model = chain(12)
        assert explore(model, max_states=EXPLICIT_BUDGET).truncated
        for text, expected in (
                ("AG !deadlock", Verdict.HOLDS),
                ("AF occurs(a11.start)", Verdict.HOLDS),
                ("AG var(PlaceLimitation@Place:a5_a6.size) <= 2",
                 Verdict.HOLDS),
                ("AG occurs(a0.start)", Verdict.FAILS)):
            started = time.perf_counter()
            result = check(model, text, strategy="symbolic")
            elapsed = time.perf_counter() - started
            assert result.verdict is expected, text
            assert elapsed < TIME_BOUND_S, (text, elapsed)
        print(f"\nchain12c2: symbolic CTL definitive over "
              f"{result.states} states; explicit budget "
              f"{EXPLICIT_BUDGET} -> UNKNOWN")

    def test_counterexample_replays_on_the_giant_model(self):
        model = chain(12)
        result = check(model, "AG occurs(a0.start)", strategy="symbolic")
        assert result.verdict is Verdict.FAILS
        assert result.witness_kind == "counterexample"
        from repro.engine.ctl import replay_steps
        assert replay_steps(model, result.witness_steps)


@pytest.mark.benchmark(group="e13-ctl")
@pytest.mark.parametrize("prop", ["AG !deadlock", "AF occurs(a11.start)"])
def bench_symbolic_ctl_chain12(benchmark, prop):
    """Cold-kernel symbolic verdicts on the 177k-state chain."""
    model = chain(12)

    def run():
        model.clear_caches()  # compile + fixpoints, not the cache
        return check(model, prop, strategy="symbolic")

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.verdict is Verdict.HOLDS
    benchmark.extra_info["engine"] = obs.engine_snapshot(model)


@pytest.mark.benchmark(group="e13-ctl")
def bench_explicit_unknown_chain12(benchmark):
    """What the budgeted explicit checker costs to say UNKNOWN — the
    honest version of the old unsound 'verified'."""
    model = chain(12)

    def run():
        return check(model, "AG !deadlock", strategy="explicit",
                     max_states=EXPLICIT_BUDGET)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.verdict is Verdict.UNKNOWN


@pytest.mark.benchmark(group="e13-ctl-battery")
def bench_symbolic_battery_chain8(benchmark):
    """A ten-property battery on one warm kernel (chain8c2, 2,187
    states) — the per-property cost once the relation is compiled."""
    from repro.engine.equivalence import PROPERTY_BATTERY
    model = chain(8)
    events = sorted(model.events)
    texts = [template.format(e0=events[0], e1=events[1])
             for template in PROPERTY_BATTERY]
    check(model, texts[0], strategy="symbolic")  # warm the kernel

    def run():
        return [check(model, text, strategy="symbolic") for text in texts]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(result.verdict.definitive for result in results)
