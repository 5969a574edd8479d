"""Fingerprints: stable, structure-sensitive, version-sensitive, and
byte for byte the hash of one canonical document."""

import hashlib

import pytest

from repro.engine.execution_model import ExecutionModel
from repro.errors import ReproError
from repro.farm import FingerprintError, fingerprint, fingerprint_prefix, \
    model_doc, spec_fingerprint, try_fingerprint
from repro.farm.fingerprint import FORMAT, canonical_json
from repro.moccml.semantics.runtime import ConstraintRuntime
from repro.sdf import SdfBuilder
from repro.workbench import (
    AnalyzeSpec,
    CampaignSpec,
    CcslSpec,
    CheckSpec,
    DeploymentSpec,
    ExploreSpec,
    LintSpec,
    MoccmlSpec,
    ModelHandle,
    SimulateSpec,
    frontend_names,
    load,
)
from repro.workbench.artifacts import KINDS
from repro.workbench.session import _try_fingerprint, try_model_prefix

APPLICATION = """
application fpdemo {
  agent src
  agent dst
  place src -> dst push 1 pop 1 capacity 2
}
"""


def sigpml_model():
    return load(APPLICATION).execution_model


def ccsl_model(bound=2):
    spec = CcslSpec("clocks", events=["a", "b", "c"],
                    constraints=[("Alternates", ["a", "b"]),
                                 ("BoundedPrecedes", ["b", "c", bound])])
    return load(spec).execution_model


class TestStability:
    def test_same_source_same_fingerprint(self):
        spec = ExploreSpec("fpdemo", max_states=100)
        assert fingerprint(sigpml_model(), spec) \
            == fingerprint(sigpml_model(), spec)

    def test_fingerprint_is_hex_sha256(self):
        value = fingerprint(sigpml_model(), SimulateSpec("fpdemo"))
        assert len(value) == 64
        int(value, 16)  # parses as hex

    def test_model_doc_is_canonical_json_able(self):
        document = model_doc(ccsl_model())
        assert canonical_json(document) == canonical_json(
            model_doc(ccsl_model()))

    def test_runs_do_not_drift_the_fingerprint(self):
        # explore/simulate work on clones; the handle model must
        # fingerprint identically before and after a batch
        from repro.engine.explorer import explore
        model = sigpml_model()
        spec = ExploreSpec("fpdemo", max_states=100)
        before = fingerprint(model, spec)
        explore(model, max_states=100)
        assert fingerprint(model, spec) == before


class TestSensitivity:
    def test_different_spec_different_fingerprint(self):
        model = sigpml_model()
        assert fingerprint(model, ExploreSpec("fpdemo", max_states=100)) \
            != fingerprint(model, ExploreSpec("fpdemo", max_states=200))

    def test_different_kind_different_fingerprint(self):
        model = sigpml_model()
        assert fingerprint(model, SimulateSpec("fpdemo", steps=20)) \
            != fingerprint(model, ExploreSpec("fpdemo"))

    def test_constraint_parameter_changes_fingerprint(self):
        # the bound lives in a runtime attribute, not in the current
        # step formula — structural hashing must still see it
        spec = SimulateSpec("clocks", steps=5)
        assert fingerprint(ccsl_model(bound=2), spec) \
            != fingerprint(ccsl_model(bound=3), spec)

    def test_advanced_state_changes_fingerprint(self):
        model = ccsl_model()
        spec = SimulateSpec("clocks", steps=5)
        before = fingerprint(model, spec)
        model.advance(frozenset({"a"}))
        assert fingerprint(model, spec) != before

    def test_engine_version_changes_fingerprint(self, monkeypatch):
        import repro
        model = sigpml_model()
        spec = SimulateSpec("fpdemo")
        before = fingerprint(model, spec)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert fingerprint(model, spec) != before


class _Opaque(ConstraintRuntime):
    """A runtime carrying an attribute the encoder cannot serialize."""

    def __init__(self):
        super().__init__("opaque", ())
        self.payload = object()


class _Unorderable(ConstraintRuntime):
    """A runtime whose set attribute has no canonical member order."""

    def __init__(self):
        super().__init__("unorderable", ())
        self.mixed = frozenset({("a",), 3})  # tuple vs int: unorderable


class TestUnfingerprintable:
    def test_unorderable_set_raises_fingerprint_error_not_typeerror(self):
        # TypeError would escape try_fingerprint; FingerprintError makes
        # the model uncacheable, which is the sound fallback
        model = ExecutionModel(["x"], [_Unorderable()], name="weird")
        with pytest.raises(FingerprintError, match="unorderable"):
            model_doc(model)
        assert try_fingerprint(model, SimulateSpec("weird")) is None

    def test_unknown_attribute_raises(self):
        model = ExecutionModel(["x"], [_Opaque()], name="opaque-model")
        with pytest.raises(FingerprintError, match="canonical"):
            model_doc(model)

    def test_try_fingerprint_returns_none(self):
        model = ExecutionModel(["x"], [_Opaque()], name="opaque-model")
        assert try_fingerprint(model, SimulateSpec("opaque-model")) is None

    def test_policy_instance_spec_returns_none(self):
        from repro.engine import AsapPolicy
        spec = SimulateSpec("fpdemo", policy=AsapPolicy())
        assert try_fingerprint(sigpml_model(), spec) is None
        handle = load(APPLICATION)
        prefix = try_model_prefix(handle)
        assert _try_fingerprint(prefix, spec) is None
        with pytest.raises(ReproError):
            spec_fingerprint(prefix, spec)
        # the prefix survives a spec that failed to finish it
        plain = SimulateSpec("fpdemo")
        assert _try_fingerprint(prefix, plain) == \
            reference(handle.execution_model, plain)


# ---------------------------------------------------------------------------
# the bytes: golden values and the whole-document reference formula
# ---------------------------------------------------------------------------

#: the CI smoke model
SMOKE = """application smoke {
  agent a
  agent b
  place a -> b push 1 pop 1 capacity 2
}
"""

DEPLOYMENT = """
platform board {
  processor cpu
}
allocation {
  src, dst -> cpu
}
"""

PROTOCOL_LIBRARY = """
library Proto {
  declaration Handshake(req: event, ack: event)
  declarative HandshakeDef implements Handshake {
    Alternates(req, ack)
  }
}
"""


def reference(model, spec) -> str:
    """The fingerprint formula written out whole: the SHA-256 of one
    canonical document holding the model dump and the spec."""
    import repro
    document = {"format": FORMAT, "engine": repro.__version__,
                "model": model_doc(model), "spec": spec.to_doc()}
    return hashlib.sha256(
        canonical_json(document).encode("utf-8")).hexdigest()


def one_source_per_frontend() -> dict:
    builder = SdfBuilder("pair")
    builder.agent("p")
    builder.agent("c")
    builder.connect("p", "c", capacity=2)
    return {
        "execution-model": ExecutionModel(["x", "y"], name="bare"),
        "sigpml": APPLICATION,
        "sdf": builder,
        "deployment": DeploymentSpec(application=APPLICATION,
                                     deployment=DEPLOYMENT),
        "pam": "pam:mono",
        "ccsl": CcslSpec("clocks", events=["a", "b", "c"], constraints=[
            ("Alternates", ["a", "b"]), ("BoundedPrecedes", ["b", "c", 2])]),
        "moccml": MoccmlSpec("proto", events=["req", "ack"],
                             constraints=[("Handshake", ["req", "ack"])],
                             library_text=PROTOCOL_LIBRARY),
    }


def one_spec_per_kind(model: str) -> list:
    return [SimulateSpec(model, steps=7,
                         policy={"name": "random", "seed": 5}),
            ExploreSpec(model, max_states=300),
            CampaignSpec(model, steps=12),
            AnalyzeSpec(model),
            CheckSpec(model, "AG !deadlock"),
            LintSpec(model)]


class TestGoldenBytes:
    """Values generated by the whole-document formula; a change to them
    orphans every store and fuzz corpus ever written."""

    @pytest.fixture()
    def smoke(self, monkeypatch):
        import repro
        monkeypatch.setattr(repro, "__version__", "0-pin")
        return load(SMOKE).execution_model

    def test_check_spec(self, smoke):
        assert fingerprint(smoke, CheckSpec("smoke", "AG !deadlock")) == \
            "9883615a52821dca18400634af943d903472c1731833a2ca9245f90c3cc50831"

    def test_simulate_spec(self, smoke):
        spec = SimulateSpec("smoke", steps=10,
                            policy={"name": "random", "seed": 3})
        assert fingerprint(smoke, spec) == \
            "357ecd50884e629cdd72fc10da8d9b022722f1ee9199fbcdc9238507397cbe07"


class TestReferenceFormula:
    def test_sources_and_specs_cover_every_frontend_and_kind(self):
        assert set(one_source_per_frontend()) == set(frontend_names())
        assert [spec.kind for spec in one_spec_per_kind("m")] == \
            list(KINDS)

    @pytest.mark.parametrize("frontend", sorted(one_source_per_frontend()))
    def test_every_path_hashes_the_whole_document(self, frontend):
        handle = load(one_source_per_frontend()[frontend])
        assert handle.frontend == frontend
        model = handle.execution_model
        document = model_doc(model)
        prefix = fingerprint_prefix(document)
        memoized = try_model_prefix(handle)
        for spec in one_spec_per_kind(handle.name):
            expected = reference(model, spec)
            assert fingerprint(model, spec) == expected
            assert fingerprint(model, spec, model_document=document) \
                == expected
            # one prefix state finishes every spec: it is copied, not fed
            assert spec_fingerprint(prefix, spec) == expected
            assert _try_fingerprint(memoized, spec) == expected

    def test_unfingerprintable_model_has_no_prefix(self):
        class Keyed(_Opaque):
            def state_key(self):
                return ()

        model = ExecutionModel(["x"], [Keyed()], name="opaque")
        handle = ModelHandle("opaque", "execution-model", model)
        assert try_model_prefix(handle) is None
        assert _try_fingerprint(None, SimulateSpec("opaque")) is None
