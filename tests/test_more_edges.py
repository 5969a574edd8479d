"""Final edge-path sweep: weaver multiplicities, printer builtins,
modulo arithmetic, registry labels."""

import pytest

from repro.ccsl.library import kernel_library
from repro.ecl import parse_ecl, weave
from repro.errors import MappingError
from repro.iexpr import parse_int_expr
from repro.kernel import MetamodelBuilder, Model
from repro.moccml.library import LibraryRegistry
from repro.moccml.text import print_library


class TestWeaverMultiplicities:
    @pytest.fixture()
    def fan_model(self):
        b = MetamodelBuilder("Fan")
        b.metaclass("Named", attributes={"name": "str"}, abstract=True)
        b.metaclass("Worker", supertypes=["Named"])
        b.metaclass("Pool", supertypes=["Named"], references={
            "workers": ("Worker", "many", "containment")})
        mm = b.build()
        model = Model(mm, "m")
        pool = model.create("Pool", name="pool")
        for index in range(2):
            pool.add("workers", mm.instantiate("Worker", name=f"w{index}"))
        return model

    def test_event_arg_over_many_reference_rejected(self, fan_model):
        registry = LibraryRegistry([kernel_library()])
        document = parse_ecl(
            "context Worker\n  def: go : Event\n"
            "context Pool\n  def: tick : Event\n"
            "  inv Bad:\n    Relation Coincides(self.tick, self.workers.go)\n")
        with pytest.raises(MappingError, match="exactly one"):
            weave(document, fan_model, registry)

    def test_int_arg_must_be_scalar(self, fan_model):
        registry = LibraryRegistry([kernel_library()])
        document = parse_ecl(
            "context Pool\n  def: tick : Event\n"
            "  inv Bad:\n"
            "    Relation Deadline(self.tick, self.tick, self.workers.name)\n")
        with pytest.raises(MappingError):
            weave(document, fan_model, registry)

    def test_navigation_failure_wrapped(self, fan_model):
        registry = LibraryRegistry([kernel_library()])
        document = parse_ecl(
            "context Pool\n  def: tick : Event\n"
            "  inv Bad:\n    Relation SubClock(self.ghost.go, self.tick)\n")
        with pytest.raises(MappingError):
            weave(document, fan_model, registry)


class TestPrinterBuiltins:
    def test_builtin_rendered_as_comment(self):
        text = print_library(kernel_library())
        assert "// builtin definition for SubClock" in text
        # declarations are still parseable prototypes
        assert "declaration Alternates(first: event, second: event)" in text


class TestModulo:
    def test_mod_evaluation(self):
        expr = parse_int_expr("a % 3")
        assert expr.evaluate({"a": 7}) == 1

    def test_mod_by_zero(self):
        from repro.errors import GuardTypeError
        expr = parse_int_expr("a % b")
        with pytest.raises(GuardTypeError):
            expr.evaluate({"a": 1, "b": 0})


class TestRegistryLabels:
    def test_default_label_from_arguments(self):
        registry = LibraryRegistry([kernel_library()])
        runtime = registry.instantiate("Alternates", ["x", "y"])
        assert runtime.label == "Alternates(x, y)"

    def test_explicit_label_wins(self):
        registry = LibraryRegistry([kernel_library()])
        runtime = registry.instantiate("Alternates", ["x", "y"],
                                       label="mine")
        assert runtime.label == "mine"
