"""The package runs on the standard library alone.

A fresh interpreter imports every user-facing surface and drives an
explicit exploration through the analyses that used to lean on a
third-party graph library, then checks that every module loaded on the
way belongs to the standard library or to ``repro``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

before = set(sys.modules)

import repro.cli
import repro.lint
import repro.serve
import repro.workbench
from repro.engine import (Verdict, check_space, explore,
                          max_cycle_mean_throughput, variable_bounds)
from repro.moccml.draw import statespace_to_dot
from repro.sdf import SdfBuilder, weave_sdf

builder = SdfBuilder("chain")
for name in ("a", "b", "c"):
    builder.agent(name)
builder.connect("a", "b", capacity=2)
builder.connect("b", "c", capacity=1)
model = weave_sdf(builder.build()[0]).execution_model
space = explore(model)
assert check_space(space, "AG !deadlock").verdict is Verdict.HOLDS
assert space.summary()["states"] == space.n_states > 1
assert statespace_to_dot(space).startswith("digraph")
assert max_cycle_mean_throughput(space, "c.start") > 0
assert variable_bounds(model, space)
# __mp_main__ is multiprocessing's alias of the main module
loaded = {name.split(".")[0] for name in set(sys.modules) - before
          if not name.startswith("__")}
third_party = loaded - set(sys.stdlib_module_names) - {"repro"}
assert not third_party, sorted(third_party)
print("ok")
"""


def test_surfaces_load_only_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
