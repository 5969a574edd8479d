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
alters any of these artifacts, on purpose or not, shows up here. When
ASAP became one path (the BDD walk of ``max_step``), they were
regenerated by the code before that change with its BDD path forced on
every model, so the one path had to reproduce them.
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
    return [AsapPolicy(), MinimalPolicy(), RandomPolicy(seed=5),
            PriorityPolicy(weights)]


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
    "ccsl-filters": "6806a01597e637cff2ca0f194e28ea6bcf760ae17bdfc80f6709231d8cf4bd92",
    "ccsl-mix": "a0a16ab3cb8472858b99f5f0237938973fb8d9ccc336d3a1fb2f14b903f2dd48",
    "ccsl-spec": "b373cda43ddca5c6295066e15b8ab7244ccf1e751a73dc3be4cb324900a661c5",
    "chain2": "fa44c36cc67331addb837820704aa43003463193622efd5ded2c95ac86615d45",
    "chain3-cap2": "2bb4b0953617ba189cdefde3e372b1ff6fbe1f1f226e003890a73405f69cc2b8",
    "chain3-multiport": "b3a4f543ec17e4978fd688cc2d9a9df6b624f913e489ba4a01fc4953e8582445",
    "chain3-strict": "f8cf1e39b286e14c782c1668dd4a93f075bf87a24f64a9c319ac48e3bc0ff74f",
    "chain4": "63003ba665b50c54f95d1ca32bb4d9c72730ee02fc2c64bc1c263e760edb559d",
    "deployed-chain": "cf11898ca396f21033b87f91d1b0f8fa9025f15c2175050b98716fa0ae0d94f8",
    "forkjoin": "3d09e358a3da6d3f28aeaae4c7942affcc625d17343317e2c9dff73fa289f8dc",
    "forkjoin-cap2": "14f39050b72e07b54eb16d7d63018ed93e4f3b2236edd0804941bcd6a83f633a",
    "formula-only": "15cbfb035446e2dff398533a24496c6427043c324fa0446dda2115a9f0a6f13f",
    "pam-dual": "cd66c6ed7b57143627d766fd32ec5cab5acd5c84b5d6c78ee941482416509a12",
    "pam-mono": "f7c8390107600ed6357f42dc69d3adb21c296b9a7d51793e3e598b81e4876249",
    "torus3x3": "021db49f787125b3fd7f51384bacbf2be8f61c1c24ba88929c09b9af0a196ed3",
    "torus4x4": "d344fe629586c39284dca67c990cc7258d4cbe38708b0f1b2bf846b59a4bea21",
    "unbounded": "d0d8c51627246b2a1361aa7fa1e100f8df73ebb9d6fcacc14ec9abf7042f5a35",
    "watchdog": "3f4a5fc27ca84e079181d5634bc2688d0bf4ecac911a5e15b2afa7a12c4b655a",
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_stepping_artifacts_are_byte_identical(name):
    assert digest(name) == DIGESTS[name]


if __name__ == "__main__":
    for model_name in sorted(MODELS):
        print(f'    "{model_name}": "{digest(model_name)}",')
