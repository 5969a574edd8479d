"""Byte pins for lint reports and SDF ``analyze`` documents.

Every pin is the SHA-256 of a canonical JSON document (sorted keys, no
spaces): ``lint_handle(handle).to_doc()`` for each lint model, and for
each SDF graph ``analyze(app)`` with bounded and unbounded buffers plus
the outcome of ``repetition_vector(app)`` (the vector, or the message
of the ``InconsistentGraphError`` it raises).

The lint corpus is the shared fixtures of ``tests/lint/conftest.py``,
the fuzz cases ``build_case(2015, i)`` for i in 0-24, the ``repro
selftest`` models and one model per remaining rule, so that each of
the 20 rule IDs fires at least once (:func:`test_every_rule_fires`).
The SDF corpus covers connected, disconnected, rate-inconsistent,
unschedulable and under-capacity graphs.

The class-S loop fires agents in sorted-name order. Whether a run
completes does not depend on that order: a place has one producer and
one consumer, so firing one agent never disables another. The schedule
itself does, and the ``reversed`` and ``reversed_bounded`` graphs
declare their agents out of name order so that the ``analyze`` pins
fix the order ``pass_schedule`` uses.

``python -m tests.lint.test_artifact_pins`` (with ``PYTHONPATH=src``)
prints both tables, for a change that alters these artifacts on
purpose.
"""

import dataclasses
import functools
import hashlib
from types import SimpleNamespace

import pytest

from repro.deployment import parse_platform
from repro.deployment.allocation import Allocation
from repro.errors import InconsistentGraphError
from repro.farm import canonical_json
from repro.fuzz.generators import build_case
from repro.kernel import MetamodelBuilder, Model
from repro.kernel.mobject import MObject
from repro.lint import lint_handle
from repro.sdf.analysis import analyze, repetition_vector
from repro.workbench import CcslSpec, DeploymentSpec, MoccmlSpec, load
from tests.lint.conftest import CLEAN_CHAIN, INCONSISTENT, STARVED_CYCLE

SELFLOOP = """
application selfloop {
  agent a
  agent b
  place a -> b push 1 pop 1 capacity 2
  place b -> b push 1 pop 2 capacity 4
}
"""

UNDER_CAPACITY = """
application narrow {
  agent src
  agent dst
  place src -> dst push 2 pop 1 capacity 1
}
"""

MULTIRATE = """
application multirate {
  agent fast
  agent slow
  place fast -> slow push 1 pop 3 capacity 3
}
"""

PRIMED = """
application primed {
  agent a
  agent b
  place a -> b push 1 pop 1 capacity 2
  place b -> a push 1 pop 1 capacity 2 delay 1
}
"""

#: two components; only the second is rate-inconsistent
TWO_COMPONENTS = """
application twocomp {
  agent a
  agent b
  agent c
  agent d
  place a -> b push 1 pop 1 capacity 2
  place c -> d push 2 pop 1 capacity 4
  place c -> d push 1 pop 1 capacity 4
}
"""

#: three components, interleaved in declaration order: a multirate
#: pair, an under-capacity pair and a lone agent
INTERLEAVED = """
application interleaved {
  agent p
  agent x
  agent q
  agent y
  agent lone
  place q -> p push 3 pop 2 capacity 6
  place x -> y push 2 pop 1 capacity 1
}
"""

#: agents declared out of name order, so a sorted-order schedule and a
#: declaration-order schedule differ
REVERSED = """
application reversed {
  agent zeta
  agent mid
  agent alpha
  place zeta -> alpha push 1 pop 1 capacity 2
  place mid -> alpha push 2 pop 1 capacity 2
}
"""

REVERSED_BOUNDED = """
application reversed_bounded {
  agent zed
  agent yak
  agent ant
  place zed -> ant push 3 pop 1 capacity 3
  place yak -> ant push 1 pop 1 capacity 1
  place ant -> yak push 1 pop 1 capacity 1 delay 1
}
"""

SELFLOOP_SKEWED = """
application skewed_loop {
  agent a
  agent b
  place a -> b push 1 pop 1 capacity 2
  place a -> a push 2 pop 1 capacity 4 delay 1
}
"""

MOCCML_LIBRARY = """
library PinLib {
  declaration Gate(a: event, b: event)
  automaton GateDef implements Gate {
    initial state Idle
    state Busy
    state Orphan
    transition Idle -> Busy when {a}
    transition Busy -> Idle when {b}
  }
  declaration Fork(a: event)
  automaton ForkDef implements Fork {
    initial state S
    state L
    transition S -> L when {a}
    transition S -> S when {a}
  }
}
"""

APPLICATION = """
application pipeline {
  agent src
  agent dst
  place src -> dst push 1 pop 1 capacity 2
}
"""

PLATFORM = """
platform board {
  processor cpu
  processor dsp
  link cpu <-> dsp latency 2
}
"""

SDF_GRAPHS = {
    "clean_chain": CLEAN_CHAIN,
    "inconsistent": INCONSISTENT,
    "starved_cycle": STARVED_CYCLE,
    "selfloop": SELFLOOP,
    "selfloop_skewed": SELFLOOP_SKEWED,
    "under_capacity": UNDER_CAPACITY,
    "multirate": MULTIRATE,
    "primed": PRIMED,
    "two_components": TWO_COMPONENTS,
    "interleaved": INTERLEAVED,
    "reversed": REVERSED,
    "reversed_bounded": REVERSED_BOUNDED,
}


def ccsl(name, events, constraints):
    return load(CcslSpec(name=name, events=events, constraints=constraints))


def moccml(name, events, constraints):
    return load(
        MoccmlSpec(
            name=name,
            events=events,
            constraints=constraints,
            library_text=MOCCML_LIBRARY,
        )
    )


def allocation_handle(mapping):
    """A handle carrying a candidate allocation that ``deploy()`` would
    refuse, so DEP001/DEP002 reach ``lint_handle``."""
    return SimpleNamespace(
        name="candidate",
        frontend="deployment",
        application=load(APPLICATION).application,
        deployment=SimpleNamespace(
            platform=parse_platform(PLATFORM),
            allocation=Allocation(mapping),
            comm_delays={},
        ),
        execution_model=None,
        source_model=None,
    )


def kernel_handle():
    """A source model with one finding of each KER rule. Every element
    is named, so the labels in the findings carry no object ids."""
    builder = MetamodelBuilder("Pins")
    builder.metaclass("Named", attributes={"name": "str"}, abstract=True)
    builder.metaclass(
        "Item",
        supertypes=["Named"],
        attributes={"size": "int"},
        references={"peer": "Item"},
    )
    builder.metaclass(
        "Box",
        supertypes=["Named"],
        references={"boxes": ("Box", "many", "containment")},
    )
    metamodel = builder.build()
    model = Model(metamodel, "pins")
    model.create("Item", name="unsized")  # KER001: size unset
    ghost = MObject(metamodel.metaclass("Named"))
    ghost.set("name", "ghost")
    model.add_root(ghost)  # KER002
    stray = metamodel.instantiate("Item", name="stray", size=1)
    model.create("Item", name="linked", size=2).set("peer", stray)  # KER003
    outer = model.create("Box", name="outer")
    inner = metamodel.instantiate("Box", name="inner")
    outer.add("boxes", inner)
    outer._container = inner  # KER004
    return SimpleNamespace(
        name="kernel-pins",
        frontend="kernel",
        source_model=model,
        application=None,
        execution_model=None,
        deployment=None,
    )


def rule_models():
    """One or more models per rule ID the other corpora leave out."""
    return {
        "sdf-selfloop": load(SELFLOOP),
        "sdf-selfloop-skewed": load(SELFLOOP_SKEWED),
        "sdf-under-capacity": load(UNDER_CAPACITY),
        "sdf-multirate": load(MULTIRATE),
        "sdf-primed": load(PRIMED),
        "sdf-two-components": load(TWO_COMPONENTS),
        "sdf-interleaved": load(INTERLEAVED),
        "sdf-reversed": load(REVERSED),
        "sdf-reversed-bounded": load(REVERSED_BOUNDED),
        "ccs-contradiction": ccsl(
            "contra",
            ["x", "y"],
            [("Coincides", ("x", "y")), ("Excludes", ("x", "y"))],
        ),
        "ccs-cycle": ccsl(
            "cycle",
            ["a", "b"],
            [("Alternates", ("a", "b")), ("Alternates", ("b", "a"))],
        ),
        "ccs-free-clock": ccsl(
            "free", ["a", "b", "ghost"], [("Alternates", ("a", "b"))]
        ),
        "ccs-deep-delay": ccsl(
            "stuck",
            ["b", "d"],
            [("DelayedFor", ("d", "b", 3)), ("BoundedPrecedes", ("b", "d", 1))],
        ),
        "ccs-periodic-clash": ccsl(
            "clash",
            ["base", "f"],
            [
                ("PeriodicOn", ("f", "base", 2, 0)),
                ("PeriodicOn", ("f", "base", 2, 1)),
            ],
        ),
        "ccs-zero-filter": ccsl(
            "zero", ["base", "f"], [("FilterBy", ("f", "base", 0, 1, 0, 1))]
        ),
        "enc-unbounded": ccsl("unb", ["a", "b"], [("Precedes", ("a", "b"))]),
        "moc-two-automata": moccml(
            "automata",
            ["x", "y"],
            [("Gate", ("x", "y")), ("Fork", ("x",)), ("Gate", ("y", "x"))],
        ),
        "moc-gated": moccml("gated", ["x", "y"], [("Gate", ("x", "y"))]),
        "dep-missing-agent": allocation_handle({"src": "cpu"}),
        "dep-unknown-entries": allocation_handle(
            {"src": "cpu", "dst": "gpu", "ghost": "cpu"}
        ),
        "dep-shared-processor": load(
            DeploymentSpec(
                application=APPLICATION,
                deployment="platform solo {\n  processor cpu\n}\n"
                "allocation {\n  src, dst -> cpu\n}\n",
            )
        ),
        "dep-cross-processor": load(
            DeploymentSpec(
                application=APPLICATION,
                deployment=PLATFORM + "allocation {\n  src -> cpu\n  dst -> dsp\n}\n",
            )
        ),
        "ker-all": kernel_handle(),
    }


@functools.lru_cache(maxsize=None)
def lint_corpus():
    """Name -> handle for every pinned lint model."""
    from repro.cli import _selftest_models

    corpus = {
        "fixture-clean-chain": load(CLEAN_CHAIN),
        "fixture-inconsistent": load(INCONSISTENT),
        "fixture-starved-cycle": load(STARVED_CYCLE),
        "fixture-alternating-pair": ccsl(
            "pair", ["a", "b"], [("Alternates", ("a", "b"))]
        ),
    }
    for index in range(25):
        corpus[f"fuzz-2015-{index}"] = build_case(2015, index)[1]
    for handle in _selftest_models():
        corpus[f"selftest-{handle.name}"] = handle
    corpus["selftest-bad"] = load(
        """
    application selftest_bad {
      agent a
      agent b
      place a -> b push 2 pop 1 capacity 4
      place a -> b push 1 pop 1 capacity 4
    }
    """,
        name="selftest-bad",
    )
    corpus.update(rule_models())
    return corpus


def sha(document) -> str:
    return hashlib.sha256(canonical_json(document).encode()).hexdigest()


def lint_digest(name: str) -> str:
    return sha(lint_handle(lint_corpus()[name]).to_doc())


def analyze_document(text: str) -> dict:
    app = load(text).application
    try:
        repetition = repetition_vector(app)
    except InconsistentGraphError as exc:
        repetition = str(exc)
    return {
        "bounded": dataclasses.asdict(analyze(app)),
        "unbounded": dataclasses.asdict(analyze(app, bounded=False)),
        "repetition_vector": repetition,
    }


def analyze_digest(name: str) -> str:
    return sha(analyze_document(SDF_GRAPHS[name]))


LINT_PINS = {
    "ccs-contradiction": "e306c10f2dc5f92f57aba60e9231c042ff87f0f71eb5f3c6ef4708be874aa216",
    "ccs-cycle": "32132ad5dbe26061eb4367316e5b51ad84938d0bca44b44fcb3479189cc64c92",
    "ccs-deep-delay": "aa6e1a0fe5afc576a5191f44fe1b363bf739ca19ef368a8df5a7ea36bd4e8791",
    "ccs-free-clock": "0cebfa2690aeaacdb74eb746da2ba5d001e120bb799b656aea464223324374c9",
    "ccs-periodic-clash": "be3514ddab637d9f8add4b3f5e32ad61bd5c7a9cbe1cde92aaaf7e451ceeba04",
    "ccs-zero-filter": "925209f3ec63845c866448535a6f5374cd69692dd9f02001d93ea3bdaa75d35d",
    "dep-cross-processor": "27061d4c927bfe332e4d843d05df9f5889cb543af10b99cfece69a014bc66b2d",
    "dep-missing-agent": "67d439463bc7f407d09d29018bab3d8361376b058489139e8853f82716375adf",
    "dep-shared-processor": "14db2c3322534afc11d4dffdb020e921f9d9cbdb91383786b7a03c21e6d62f23",
    "dep-unknown-entries": "86150842017302960b7001068117c0dcfcf820c39f5607873d1b7dd8772aed78",
    "enc-unbounded": "a2e8e4623f4df7ff0448b34cde0da25a0e2c97126c2dfe12352721cfa1603848",
    "fixture-alternating-pair": "790210edae27147c246ca6eb69a865f88bfa2a9afb769720805fb170a9ad1c3c",
    "fixture-clean-chain": "1cd906a7e86afbcd1439191d328a5d537233812a6f849696be614a24bf56cde1",
    "fixture-inconsistent": "e1a9bd3552b4a3d44474d0c0ec8d216a5ca7a1aec0f4a59312bf1e7af3b2cae2",
    "fixture-starved-cycle": "71eae36457cd1af348f0238c34149acc1fd075ad7c1f821f67b5f6e3c2154b8e",
    "fuzz-2015-0": "3d07e278459139a46b1c74b86d25a7a28b6520e6c56e991fd0e53a3532cff585",
    "fuzz-2015-1": "62e8adef0e433886e604c58df2b8152f9b0a8dafdcd60986baefbe0b332c2567",
    "fuzz-2015-10": "8577934b8d4e6782341aaaa0ead2d27de1a95d061f761c3658c150fce33cf6c9",
    "fuzz-2015-11": "0933489171766f733f4976947a57af74f81dac1efc5b86a180ccb87b2b13cd15",
    "fuzz-2015-12": "40a4b13c4c6f8ae8c295dcd4f79f484f0fa3bfea9312d24acd168ec1ec49b0c1",
    "fuzz-2015-13": "2e93f6165b5a83ff0d670708424d5493d218d749df3f62bea460baf4730d1cdb",
    "fuzz-2015-14": "b9316ffd4d1a39cb2d8d7e91d349e483a749b902b1ba0a9925dcf8c55966ad3d",
    "fuzz-2015-15": "5dda387c84b8bdbfdbca4004c3b062464a9b9f3ac14ee84450d7d356f845cd84",
    "fuzz-2015-16": "d087bc3e38f6ad2615a59fb858c7f302cf33a7e0a68334de76db5bd2282cfe26",
    "fuzz-2015-17": "bec2c175326b7009839fe1d72b40c3d8ba5d40b0cb8bd8c903bd28bf4e8bc2b3",
    "fuzz-2015-18": "83fd1be6d494826b3829e291769399f31fc204913ee1d0dce566227db10304bf",
    "fuzz-2015-19": "9d304f638cb6f5263f8fe938058e6a61c1460b343d6958616839a0baf7ccf157",
    "fuzz-2015-2": "88dee5665805ef67b1bac0be83b48c4a27b85b53ce47ededc20956ebd534d14a",
    "fuzz-2015-20": "d64d7ec8f568b35cd9efb4bd754ff3103d3550ceff26e5b88e771682b65c18e0",
    "fuzz-2015-21": "85837b133e3e04c1cf22f8f1861a09dfd13a2107fa282bfe05535651f88865cd",
    "fuzz-2015-22": "d0743f0abe9b926e39278e60036b5ba69236562e7ced07b71a33e489d49b5673",
    "fuzz-2015-23": "a54984db3f8fff06493d656acec127ec4a51deab084293a074bb898dafd459b4",
    "fuzz-2015-24": "253f5f2ab78f2565804ab588d985d3d0de8cadc0aaecaff14ff52d5f3a2a94b9",
    "fuzz-2015-3": "bbd1ba6c2070e8e32e2566c607489dcf1c5e3c0d039b104af209daf7019a266a",
    "fuzz-2015-4": "714691f5c0072931bf82d58ab4914e06a7184b1364d3c1657967f68c482dc3b9",
    "fuzz-2015-5": "b34bb940fb20b53b50055984a787c397450bfa8eea8fe96138d392706a69392b",
    "fuzz-2015-6": "de2a9ac07a518113fb1142ab8b965a26c12ce2180f08bd986a8adb7e79001145",
    "fuzz-2015-7": "b44fa02de608e6feb00d98c82d7f6fb5b06bc6ac97ba61ea2c7662f716da01ed",
    "fuzz-2015-8": "5820f5c4c80f4c81a1a47519b071d8e3d973cec6891ae214231c000a73d59cd9",
    "fuzz-2015-9": "376aebaedae12780dc08298e7dfd0a6e5611c233e29fa41d80c6e37b2285027c",
    "ker-all": "9cc291779b16e971af14e2a521ab5f4904042f1114f5d7bc15aa3068a0cc33a9",
    "moc-gated": "65832bdfdb9433dd0ed0eaa56bf2050f9248c18dfcb26e6ae45062b5d2282756",
    "moc-two-automata": "e80be69dab593b4bcf151aefd2023285d70bc0c456d79c4e5d8a264e5d6e46cb",
    "sdf-interleaved": "0c62cbfadb14406f07cccbd1d00564f3fbe62904db7c30f3d88bc14b6f4ee6ae",
    "sdf-multirate": "f800d82557b3aacc969ba0ec9997f2ad28a3f17590677f337c0ff493ceb308bd",
    "sdf-primed": "0deb9089f474409513c79ab48920e7b02db3c6cbceaeaa48d69493585e485c2f",
    "sdf-reversed": "ff4631086a7815742a95f3b2b186930cf89e073591d5ab22f0d9db2ba301447e",
    "sdf-reversed-bounded": "4b24ad2e28b88b6bdf74ea6e0fb2a18dc3ba31ed88e2c81ded6851ef79dd9c7b",
    "sdf-selfloop": "729dfcf1659a3cdf8913eb7f5ef72c2bb3e1d770c1a3f2bf999e6e0536368b1c",
    "sdf-selfloop-skewed": "e524afdaf49810e1b70ebabd14c90317ffc0b1fb4349e8a52a360577b629f52c",
    "sdf-two-components": "94db1798096d4a80e016d442c3a79feee760fb282e2b45aa164953302a37e833",
    "sdf-under-capacity": "8248823fcd0594349f6c8b694cdcaaca19f3e7d4903f37b01af24f90be5649c3",
    "selftest-bad": "dfcf077e253d8644dcfc9418a49813fb405fc139fb28e3c87c8f8b560b54fce3",
    "selftest-ccsl-clocks": "db0e5e8960eb2dcba80518e9436f10b6b12527e434d2fbe66d76df49b4efff15",
    "selftest-sigpml-chain": "c4bd30f0a3aea7e6e9abe8ab938ad87a2e90b2590b8dc8177ec28dcdd840510b",
    "selftest-sigpml-forkjoin": "cba106100e491ee5b301fce4e12560f6de0a668389cb0ef03215fc28a0eb1b19",
}

ANALYZE_PINS = {
    "clean_chain": "0d0a72575ff66acbea67ff836acdd50fc496f64b3f6092dc1187144a195a6fab",
    "inconsistent": "ee9a1b58ef60492690091460b1c2d8673f419476c8651149b2475d9ad22af106",
    "interleaved": "46d6ba1aab683456df7f8f6f941de563257e2f05924984b73a7787b2473af081",
    "multirate": "1e8cd5d749aa2c1f7907dbf78a57cd03b74a8acee4e4cf91a5ee4e4687000d13",
    "primed": "942bc30a27eb0b39549cc085fd905bdc7d48293d1e842318001115c5597ac14a",
    "reversed": "402cd58b1559103df6e6b8871dbd64d0e1537b700031984676f3d3624dcb8244",
    "reversed_bounded": "d40c975a08113a8939668d34037e3e40d5055ea767e5ef70a13f91ce539bcfcf",
    "selfloop": "8f518fa0119f3ccdc408a18d3b749044148ffd2ea83212c9f92a5e38cc2f2590",
    "selfloop_skewed": "5d54e60851afa8266500d373f76ca421df66f4baed15d28806120cbd7babe3b0",
    "starved_cycle": "f936ebaaa97e947ed94f175c23ab3f16b081e11152faeb43684660c88a4461fc",
    "two_components": "9950af5f20e98629712884f33649ca7bef987cbb8f796fa4c8562966ca3a01f2",
    "under_capacity": "ac18e8e527e6195b084ce7b180d9c68240b050a4a4dc64f8fa520562c15bf24c",
}


def test_corpus_is_pinned():
    assert set(LINT_PINS) == set(lint_corpus())
    assert set(ANALYZE_PINS) == set(SDF_GRAPHS)


def test_every_rule_fires():
    from repro.lint import RULES

    fired = {
        diagnostic.rule
        for handle in lint_corpus().values()
        for diagnostic in lint_handle(handle).diagnostics
    }
    assert fired == set(RULES)


@pytest.mark.parametrize("name", sorted(LINT_PINS))
def test_lint_document_bytes(name):
    assert lint_digest(name) == LINT_PINS[name]


@pytest.mark.parametrize("name", sorted(ANALYZE_PINS))
def test_analyze_document_bytes(name):
    assert analyze_digest(name) == ANALYZE_PINS[name]


if __name__ == "__main__":
    print("LINT_PINS = {")
    for model_name in sorted(lint_corpus()):
        print(f'    "{model_name}": "{lint_digest(model_name)}",')
    print("}\n\nANALYZE_PINS = {")
    for graph_name in sorted(SDF_GRAPHS):
        print(f'    "{graph_name}": "{analyze_digest(graph_name)}",')
    print("}")
