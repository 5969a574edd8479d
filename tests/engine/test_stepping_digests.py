"""Byte-identity of every way to step a model, pinned by digest.

Exploration, simulation and campaigns all step a model through the
local transition tables of :mod:`repro.engine.tables`, and a compiled
symbolic system concretizes through its own closed tables. Whatever the
stepping layer does inside, the artifacts they produce are fixed: store
keys and served results depend on them. Each model's digest covers

* ``StateSpace.to_json()`` under several state budgets and options
  (empty steps, a depth bound, maximal steps only), built by
  ``explore`` and, for the ``auto`` leg, the way the retired
  ``explore(strategy="auto")`` built it (:func:`auto_space`);
* the trace of a simulation under each policy, plus the final
  ``configuration()`` of the simulated model;
* the rows of a campaign.

The digests were recorded before simulation moved onto the tables and
before table stepping dropped its left-fold conjunction; a change that
alters any of these artifacts, on purpose or not, shows up here.
"""

import hashlib
import json

import pytest

from repro.engine import (
    AsapPolicy,
    MinimalPolicy,
    PriorityPolicy,
    RandomPolicy,
    explore,
    simulate_model,
)
from repro.engine.campaign import campaign
from repro.engine.equivalence import compiles
from repro.pam.experiments import build_configuration
from repro.sdf import SdfBuilder, weave_sdf
from tests.engine.test_local_tables import (
    deployed_chain,
    unbounded_precedes,
    watchdog,
)
from tests.engine.test_symbolic_equivalence import CORPUS


def torus(rows, cols):
    """A rows×cols wrap-around SDF grid, one delay token on every
    wrapping edge so the pipeline can rotate."""
    builder = SdfBuilder(f"torus{rows}x{cols}")
    for row in range(rows):
        for col in range(cols):
            builder.agent(f"n{row}_{col}")
    for row in range(rows):
        for col in range(cols):
            wrap_col = col + 1 == cols
            wrap_row = row + 1 == rows
            builder.connect(f"n{row}_{col}", f"n{row}_{(col + 1) % cols}",
                            capacity=1 + wrap_col, delay=int(wrap_col))
            builder.connect(f"n{row}_{col}", f"n{(row + 1) % rows}_{col}",
                            capacity=1 + wrap_row, delay=int(wrap_row))
    model, _app = builder.build()
    return weave_sdf(model).execution_model


BOTH = ("explicit", "auto")
BUDGETS = (1, 7, 50, 10_000)

#: model name -> (factory, exploration strategies, state budgets)
MODELS = {name: (make, BOTH, BUDGETS) for name, make in CORPUS.items()}
MODELS.update({
    "deployed-chain": (deployed_chain, BOTH, BUDGETS),
    # explicit leg only: the compile alone takes seconds on PAM, and
    # most of a second on torus(4,4)
    "pam-mono": (lambda: build_configuration("mono"), ("explicit",),
                 BUDGETS),
    "pam-dual": (lambda: build_configuration("dual"), ("explicit",),
                 BUDGETS),
    "torus3x3": (lambda: torus(3, 3), BOTH, BUDGETS),
    "torus4x4": (lambda: torus(4, 4), ("explicit",), (50, 10_000)),
    # locally unbounded: every budget truncates
    "unbounded": (unbounded_precedes, BOTH, (1, 7, 50)),
    "watchdog": (watchdog, BOTH, (1, 7, 50)),
})

#: exploration options crossed with every leg and budget
OPTIONS = ({}, {"include_empty": True}, {"max_depth": 3},
           {"maximal_only": True})


def policies(model):
    weights = {event: index % 3 for index, event in enumerate(model.events)}
    return [AsapPolicy(), AsapPolicy(symbolic_threshold=0), MinimalPolicy(),
            RandomPolicy(seed=5), PriorityPolicy(weights)]


def auto_space(model):
    """How the retired ``explore(strategy="auto")`` leg builds a space:
    from the compiled system where *model* compiles, by ``explore``
    where it does not."""
    if not compiles(model):
        return explore
    system = model.kernel.transition_system(model)
    return lambda _model, **budgets: system.to_statespace(**budgets)


def artifacts(name):
    """Every pinned artifact of model *name*, as text, in a fixed order."""
    make, strategies, budgets = MODELS[name]
    model = make()
    for strategy in strategies:
        build = explore if strategy == "explicit" else auto_space(model)
        for max_states in budgets:
            for options in OPTIONS:
                yield build(model, max_states=max_states,
                            **options).to_json()
    for policy in policies(model):
        work = model.clone()
        result = simulate_model(work, policy, 25)
        yield json.dumps([sorted(step) for step in result.trace])
        yield json.dumps([result.deadlocked, result.stop_reason,
                          result.final_accepting])
        yield repr(work.configuration())
    rows = campaign(model, 15, list(model.events)[:3],
                    [AsapPolicy(), MinimalPolicy(), RandomPolicy(seed=1),
                     RandomPolicy(seed=2)])
    yield json.dumps([row.as_dict() for row in rows], sort_keys=True)


def digest(name):
    hasher = hashlib.sha256()
    for text in artifacts(name):
        hasher.update(text.encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


DIGESTS = {
    "ccsl-filters": "6423fdb6a285815b8c53804d0238e82a34d63df3ace8678cf868eb1a070e5d0f",
    "ccsl-mix": "3ca46a859c6516a37439e49a0fae53d8c0873c59419c78bae937cfb2bc0bd39d",
    "ccsl-spec": "04d82bb85ee48d8b0c985158f4f41679aafc1183fbd8cd78f813159f37d397f9",
    "chain2": "f4a8969538a4cc11974940be6c72562beb40dc4b0b62d16b18578636673b6a25",
    "chain3-cap2": "d2b687e0df5f4245cee3e8cb1ba06365f8f6ae2e6f88e7128a6f5f7389c8a5e4",
    "chain3-multiport": "ebb9f1f2702d39f9b20e0fc50a5e75a7ef91d1c2e54a0c39a7d0cf8e831c4cd6",
    "chain3-strict": "4d925873d68154c8dd4e92285b17c55ac910ac9d2b170dfababb2e476f9216e4",
    "chain4": "e9a7648dd4698a73dbec18950ae1ce12dca4bda82c2d799d73338ae0237d1cf8",
    "deployed-chain": "5863adcc177a077f60c28bab637d99800365283ae58d7c4e4785fbb8610effbb",
    "forkjoin": "f3bd2c66e827cdfcec1fe637f54d9b38a750d7ccc3f3088ffe386c634f8a3b01",
    "forkjoin-cap2": "69b3d3ab48222e753ca05f6f88bc379f5f0a4cc93a47682429bd09d577e8a5da",
    "formula-only": "3b73e81233e4fb8c146e659da0215c53540addc0490fd300e97ef04e813415ba",
    "pam-dual": "34fe90334f928baae4548405b6287184502facd22bf0df69c44d87bf8d316c36",
    "pam-mono": "91d46739149295159a76e832426e263f637bbc9609cce6a5c2f4d7ed3075492e",
    "torus3x3": "e5a73da7135a95543c7b281d51af7a8fa7a390b69927ceac2d07eaa878e4a104",
    "torus4x4": "38be57f263fd58583ead0661d5786c75ee3fc818b28343d581ec03557aec6cf8",
    "unbounded": "b979a8a00350f7abb388b37035bc43a37b74bc3912775a0bde43647a5908f75c",
    "watchdog": "328d913743279a1329478acebc5fda66d725b0cb09201accf3717ba3b788ecba",
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_stepping_artifacts_are_byte_identical(name):
    assert digest(name) == DIGESTS[name]


if __name__ == "__main__":
    for model_name in sorted(MODELS):
        print(f'    "{model_name}": "{digest(model_name)}",')
