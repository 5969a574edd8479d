"""Front-end registry: every source kind dispatches to a handle."""

import pytest

from repro.engine import ExecutionModel
from repro.errors import ReproError
from repro.sdf import SdfBuilder
from repro.workbench import (
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

APPLICATION = """
application demo {
  agent src
  agent dst
  place src -> dst push 1 pop 1 capacity 2
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


class TestDispatch:
    def test_sigpml_text(self):
        handle = load(APPLICATION)
        assert handle.frontend == "sigpml"
        assert handle.name == "demo"
        assert "src.start" in handle.execution_model.events
        assert handle.application is not None

    def test_sigpml_path(self, tmp_path):
        path = tmp_path / "demo.sigpml"
        path.write_text(APPLICATION)
        handle = load(str(path))
        assert handle.frontend == "sigpml"
        assert handle.metadata["path"] == str(path)

    def test_sigpml_pathlib(self, tmp_path):
        path = tmp_path / "demo.sigpml"
        path.write_text(APPLICATION)
        assert load(path).frontend == "sigpml"

    def test_sigpml_variant_option(self):
        default = load(APPLICATION)
        multi = load(APPLICATION, place_variant="multiport")
        assert multi.metadata["place_variant"] == "multiport"
        # the variant changes the woven constraints, not the events
        assert multi.execution_model.events == default.execution_model.events

    def test_sdf_builder(self):
        builder = SdfBuilder("built")
        builder.agent("p")
        builder.agent("c")
        builder.connect("p", "c", capacity=2)
        handle = load(builder)
        assert handle.frontend == "sdf"
        assert handle.name == "built"

    def test_sdf_build_pair(self):
        builder = SdfBuilder("pair")
        builder.agent("p")
        builder.agent("c")
        builder.connect("p", "c", capacity=2)
        handle = load(builder.build())
        assert handle.frontend == "sdf"
        assert handle.name == "pair"

    def test_deployment_spec(self):
        handle = load(DeploymentSpec(application=APPLICATION,
                                     deployment=DEPLOYMENT))
        assert handle.frontend == "deployment"
        assert handle.deployment is not None
        assert handle.metadata["mutexes"] == 1
        assert handle.metadata["platform"] == "board"

    def test_deployment_from_paths(self, tmp_path):
        app = tmp_path / "demo.sigpml"
        app.write_text(APPLICATION)
        dep = tmp_path / "board.deploy"
        dep.write_text(DEPLOYMENT)
        handle = load(DeploymentSpec(application=str(app),
                                     deployment=str(dep)))
        assert handle.frontend == "deployment"
        assert handle.name == "demo@board"

    def test_pam_string(self):
        handle = load("pam:mono")
        assert handle.frontend == "pam"
        assert handle.metadata["configuration"] == "mono"
        assert handle.application is not None

    def test_pam_configuration(self):
        handle = load(PamConfiguration(configuration="infinite",
                                       capacity=2))
        assert handle.name == "pam-infinite"
        assert handle.metadata["capacity"] == 2

    def test_pam_unknown_configuration(self):
        with pytest.raises(FrontendError, match="unknown PAM"):
            load(PamConfiguration(configuration="octo"))

    def test_ccsl_spec(self):
        handle = load(CcslSpec("alt", events=["a", "b"],
                               constraints=[("Alternates", ["a", "b"])]))
        assert handle.frontend == "ccsl"
        assert handle.execution_model.events == ["a", "b"]
        # alternation: first step can only be {a}
        steps = handle.fresh().acceptable_steps()
        assert steps == [frozenset({"a"})]

    def test_ccsl_dict_constraints(self):
        handle = load(CcslSpec("alt", events=["a", "b"], constraints=[
            {"relation": "Precedes", "args": ["a", "b"],
             "label": "a-before-b"}]))
        labels = [c.label for c in handle.execution_model.constraints]
        assert labels == ["a-before-b"]

    def test_moccml_spec(self):
        handle = load(MoccmlSpec(
            "proto", events=["req", "ack"],
            constraints=[("Handshake", ["req", "ack"])],
            library_text=PROTOCOL_LIBRARY))
        assert handle.frontend == "moccml"
        assert handle.metadata["libraries"] == ["Proto"]
        steps = handle.fresh().acceptable_steps()
        assert steps == [frozenset({"req"})]

    def test_bare_execution_model(self):
        model = ExecutionModel(["x", "y"], name="bare")
        handle = load(model)
        assert handle.frontend == "execution-model"
        assert handle.execution_model is model

    def test_handle_passthrough(self):
        handle = load(APPLICATION)
        assert load(handle) is handle

    def test_handle_passthrough_applies_name(self):
        handle = load(APPLICATION)
        assert load(handle, name="alias") is handle
        assert handle.name == "alias"

    def test_unknown_source(self):
        with pytest.raises(FrontendError, match="no front-end recognizes"):
            load(3.14)

    def test_unknown_explicit_frontend(self):
        with pytest.raises(FrontendError, match="unknown front-end"):
            load(APPLICATION, frontend="verilog")

    def test_name_override(self):
        assert load(APPLICATION, name="renamed").name == "renamed"


class TestHandle:
    def test_fresh_clones_share_kernel(self):
        handle = load(APPLICATION)
        one, two = handle.fresh(), handle.fresh()
        assert one is not two
        assert one.kernel is two.kernel is handle.execution_model.kernel

    def test_describe_is_json_ready(self):
        import json
        doc = load(APPLICATION).describe()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["frontend"] == "sigpml"
        assert doc["events"] == 8


class TestRegistry:
    def test_frontend_names_cover_all_builtins(self):
        names = frontend_names()
        for expected in ("sigpml", "sdf", "deployment", "pam", "ccsl",
                         "moccml", "execution-model"):
            assert expected in names

    def test_register_custom_frontend(self):
        @register_frontend("unit-test-pair",
                           matches=lambda s: isinstance(s, set))
        def _load_set(source, **options):
            model = ExecutionModel(sorted(source), name="from-set")
            return ModelHandle(name="from-set", frontend="unit-test-pair",
                               execution_model=model)
        try:
            handle = load({"e1", "e2"})
            assert handle.frontend == "unit-test-pair"
            assert handle.execution_model.events == ["e1", "e2"]
        finally:
            from repro.workbench import frontends
            frontends._FRONTENDS.pop("unit-test-pair", None)

    def test_frontend_error_is_repro_error(self):
        assert issubclass(FrontendError, ReproError)


class TestSourceFromDoc:
    def test_sigpml_text_doc(self):
        source = source_from_doc({"frontend": "sigpml",
                                  "text": APPLICATION})
        assert load(source).name == "demo"

    def test_pam_doc(self):
        source = source_from_doc({"frontend": "pam",
                                  "configuration": "dual"})
        assert source.configuration == "dual"

    def test_ccsl_doc(self):
        source = source_from_doc({
            "frontend": "ccsl", "events": ["a", "b"],
            "constraints": [["Alternates", ["a", "b"]]]})
        assert load(source).frontend == "ccsl"

    def test_missing_fields(self):
        with pytest.raises(FrontendError):
            source_from_doc({"frontend": "sigpml"})
        with pytest.raises(FrontendError):
            source_from_doc({"frontend": "deployment"})
        with pytest.raises(FrontendError):
            source_from_doc({"frontend": "nope", "text": "x"})

    def test_load_doc_applies_options_and_name(self):
        handle = load_doc({"frontend": "sigpml", "text": APPLICATION,
                           "options": {"place_variant": "strict"}},
                          name="renamed")
        assert handle.name == "renamed"
        assert handle.metadata["place_variant"] == "strict"
        # the description a handle ships to workers loads back
        assert load_doc(handle.source_doc).metadata["place_variant"] \
            == "strict"

    def test_loaders_take_only_the_options_they_read(self):
        # a keyword its loader does not read is a TypeError, not ignored
        with pytest.raises(TypeError):
            load(CcslSpec(name="c", events=["a"]), place_variant="strict")
        with pytest.raises(TypeError):
            load(APPLICATION, bogus=1)

    def test_null_reads_as_absent(self):
        pam = source_from_doc({"frontend": "pam", "configuration": "dual",
                               "capacity": None})
        assert pam.capacity == 1
        ccsl = source_from_doc({"frontend": "ccsl", "events": ["a"],
                                "constraints": None})
        assert ccsl.constraints == []

    @pytest.mark.parametrize("field, bad", [
        ("text", 5),
        ("path", ["a.sigpml"]),
        ("frontend", 1),
    ])
    def test_wrong_json_type_names_the_field(self, field, bad):
        doc = {"frontend": "sigpml", "text": APPLICATION, field: bad}
        with pytest.raises(FrontendError, match=repr(field)):
            source_from_doc(doc)
