"""Integration tests for the deployment weaver."""

import pytest

from repro.deployment import Allocation, Platform, deploy
from repro.engine import AsapPolicy, explore, simulate_model
from repro.engine.analysis import check_mutual_exclusion
from repro.errors import DeploymentError
from repro.sdf import SdfBuilder


def pipeline(cycles=(0, 0, 0), capacity=2):
    builder = SdfBuilder("pipe")
    for index, n in enumerate(cycles):
        builder.agent(f"a{index}", cycles=n)
    for index in range(len(cycles) - 1):
        builder.connect(f"a{index}", f"a{index+1}", capacity=capacity,
                        name=f"p{index}")
    return builder.build()


def mono_platform():
    platform = Platform("mono")
    platform.processor("cpu")
    return platform


class TestDeploy:
    def test_mono_serializes_firings(self):
        model, app = pipeline()
        allocation = Allocation({"a0": "cpu", "a1": "cpu", "a2": "cpu"})
        result = deploy(model, app, mono_platform(), allocation)
        assert "cpu" in result.mutexes
        space = explore(result.execution_model)
        starts = [f"a{i}.start" for i in range(3)]
        assert check_mutual_exclusion(space, starts)

    def test_infinite_resources_allow_parallel_firings(self):
        model, app = pipeline()
        from repro.sdf import weave_sdf
        space = explore(weave_sdf(model).execution_model)
        starts = [f"a{i}.start" for i in range(3)]
        assert not check_mutual_exclusion(space, starts)

    def test_mono_reduces_statespace_transitions(self):
        model, app = pipeline()
        from repro.sdf import weave_sdf
        free_space = explore(weave_sdf(model).execution_model)
        allocation = Allocation({"a0": "cpu", "a1": "cpu", "a2": "cpu"})
        result = deploy(model, app, mono_platform(), allocation)
        deployed_space = explore(result.execution_model)
        assert deployed_space.n_transitions < free_space.n_transitions

    def test_cross_processor_place_gets_comm_delay(self):
        model, app = pipeline()
        platform = Platform("duo")
        platform.processor("cpu0")
        platform.processor("cpu1")
        platform.link("cpu0", "cpu1", latency=2)
        allocation = Allocation({"a0": "cpu0", "a1": "cpu0", "a2": "cpu1"})
        result = deploy(model, app, platform, allocation)
        assert set(result.comm_delays) == {"p1"}
        assert result.comm_delays["p1"].latency == 2

    def test_same_processor_place_has_no_delay(self):
        model, app = pipeline()
        platform = Platform("duo")
        platform.processor("cpu0")
        platform.processor("cpu1")
        platform.link("cpu0", "cpu1", latency=2)
        allocation = Allocation({"a0": "cpu0", "a1": "cpu0", "a2": "cpu1"})
        result = deploy(model, app, platform, allocation)
        assert "p0" not in result.comm_delays

    def test_comm_delay_slows_pipeline(self):
        model, app = pipeline()
        platform = Platform("duo")
        platform.processor("cpu0")
        platform.processor("cpu1")
        platform.link("cpu0", "cpu1", latency=3)
        allocation = Allocation({"a0": "cpu0", "a1": "cpu0", "a2": "cpu1"})
        deployed = deploy(model, app, platform, allocation)
        slow = simulate_model(deployed.execution_model, AsapPolicy(), 30)

        from repro.sdf import weave_sdf
        free = simulate_model(weave_sdf(model).execution_model,
                              AsapPolicy(), 30)
        assert slow.trace.count("a2.start") < free.trace.count("a2.start")

    def test_speed_factor_scales_cycles(self):
        model, app = pipeline(cycles=(2, 0, 0))
        platform = Platform("slow")
        platform.processor("cpu", speed_factor=3)
        allocation = Allocation({"a0": "cpu", "a1": "cpu", "a2": "cpu"})
        result = deploy(model, app, platform, allocation)
        assert result.effective_cycles["a0"] == 6
        # the model itself is restored afterwards
        agents = {agent.name: agent for agent in app.get("agents")}
        assert agents["a0"].get("cycles") == 2

    def test_incomplete_allocation_rejected(self):
        model, app = pipeline()
        allocation = Allocation({"a0": "cpu"})
        with pytest.raises(DeploymentError):
            deploy(model, app, mono_platform(), allocation)

    def test_deployment_preserves_deadlock_freedom_here(self):
        model, app = pipeline()
        allocation = Allocation({"a0": "cpu", "a1": "cpu", "a2": "cpu"})
        result = deploy(model, app, mono_platform(), allocation)
        space = explore(result.execution_model)
        assert space.is_deadlock_free()

    def test_single_agent_processor_needs_no_mutex(self):
        model, app = pipeline()
        platform = Platform("trio")
        for index in range(3):
            platform.processor(f"cpu{index}")
        platform.fully_connect(latency=0)
        allocation = Allocation({f"a{i}": f"cpu{i}" for i in range(3)})
        result = deploy(model, app, platform, allocation)
        assert result.mutexes == {}
        assert result.comm_delays == {}  # latency 0 links
