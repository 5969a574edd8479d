"""Reference answers: every output the benchmark checks is compared with
something the engine under test did not compute.

* chain state counts against the closed form in ``expected.json``;
* ``AG !deadlock`` on SDF families against :mod:`repro.sdf.analysis`
  (the classic bounded PASS construction, no state-space search);
* every other verdict, state count and lint outcome against the
  hand-written rules of ``expected.json``.

Each ``check_*`` function returns ``None`` when the output is right and a
one-line description of the mismatch otherwise.
"""

from __future__ import annotations

import json
import os

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "expected.json"), encoding="utf-8") as _handle:
    EXPECTED = json.load(_handle)


def _evaluate(expression: str, params: dict):
    return eval(expression, {"__builtins__": {}}, dict(params))


def deadlock_free(record: dict) -> bool:
    """Whether the model is deadlock-free, from the family's reference."""
    rule = EXPECTED["families"][record["family"]]["deadlock_free"]
    if rule == "sdf":
        from repro.sdf.analysis import analyze
        from repro.sdf.parser import parse_sigpml
        _model, app = parse_sigpml(record["doc"]["text"])
        return analyze(app).deadlock_free
    if isinstance(rule, bool):
        return rule
    return bool(_evaluate(rule, record["params"]))


def expected_states(record: dict, live: bool) -> int | None:
    """The reachable state count, when the family has a closed form."""
    formula = EXPECTED["families"][record["family"]]["states"]
    if formula is None or not live:
        return None
    return _evaluate(formula, record["params"])


def property_ids(record: dict) -> list[str]:
    """The property templates that apply to *record*'s family."""
    ids = ["deadlock", "live_sink", "inev_sink", "leads"]
    if EXPECTED["families"][record["family"]]["bound"]:
        ids += ["bound", "below"]
    return ids


def property_text(record: dict, prop_id: str, target: str | None = None
                  ) -> str:
    """The CTL text of template *prop_id*; *target* defaults to the
    sink event."""
    targets = record["targets"]
    bound = targets.get("bound", 0)
    return EXPECTED["properties"][prop_id].format(
        target=target or targets["sink"], source=targets["source"],
        bound_var=targets.get("bound_var"), bound=bound,
        bound_below=bound - 1)


def expected_verdict(prop_id: str, live: bool) -> str:
    table = EXPECTED["verdicts"]["deadlock_free" if live else "deadlocking"]
    return table[prop_id]


def check_verdict(record: dict, prop_id: str, live: bool,
                  data: dict) -> str | None:
    """A check result's verdict, plus its state count for families with
    a closed form."""
    want = expected_verdict(prop_id, live)
    if data.get("verdict") != want:
        return (f"{record['name']}: {prop_id} verdict "
                f"{data.get('verdict')!r}, expected {want!r}")
    states = expected_states(record, live)
    if states is not None and data.get("states") != states:
        return (f"{record['name']}: {data.get('states')} states, "
                f"closed form {states}")
    return None


def check_result(record: dict, live: bool, result) -> str | None:
    """Any RunResult of the batch corpus against the references."""
    if not result.ok:
        return f"{record['name']}: {result.kind} error: {result.error}"
    data = result.data
    if result.kind == "check":
        return check_verdict(record, result.label, live, data)
    if result.kind == "explore":
        summary = data["summary"]
        if summary["truncated"]:
            return f"{record['name']}: exploration truncated"
        if (summary["deadlocks"] == 0) != live:
            return (f"{record['name']}: {summary['deadlocks']} deadlock "
                    f"state(s), reference says deadlock_free={live}")
        states = expected_states(record, live)
        if states is not None and summary["states"] != states:
            return (f"{record['name']}: {summary['states']} states, "
                    f"closed form {states}")
        return None
    if result.kind == "simulate":
        steps = result.spec["steps"]
        if live and (data["deadlocked"] or data["steps_run"] != steps):
            return (f"{record['name']}: simulation stopped after "
                    f"{data['steps_run']} of {steps} steps")
        if not live and not data["deadlocked"]:
            return f"{record['name']}: simulation of a deadlocking model " \
                   f"never deadlocked"
        return None
    if result.kind == "campaign":
        want = len(result.spec.get("policies") or [])
        if len(data["rows"]) != want:
            return (f"{record['name']}: {len(data['rows'])} campaign "
                    f"rows, expected {want}")
        return None
    if result.kind == "lint":
        if data["ok"] != EXPECTED["lint_ok"]:
            return f"{record['name']}: lint ok={data['ok']}"
        return None
    return f"{record['name']}: no reference for kind {result.kind!r}"
