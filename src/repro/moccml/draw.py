"""DOT rendering of constraint automata and state spaces.

Stands in for the paper's graphical editor (Fig. 3 is a screenshot of
such a diagram): render with Graphviz via ``dot -Tpng``.
"""

from __future__ import annotations

from repro.engine.statespace import StateSpace
from repro.moccml.automata import ConstraintAutomataDefinition


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def automaton_to_dot(definition: ConstraintAutomataDefinition) -> str:
    """Render a constraint automaton as a DOT digraph."""
    lines = [f'digraph "{_escape(definition.name)}" {{',
             "  rankdir=LR;",
             '  node [shape=circle];',
             '  __init [shape=point];']
    final = definition.effective_final_states()
    for state in definition.states:
        shape = "doublecircle" if state.name in final else "circle"
        lines.append(f'  "{_escape(state.name)}" [shape={shape}];')
    init_label = "; ".join(repr(a) for a in definition.initial_actions)
    lines.append(
        f'  __init -> "{_escape(definition.initial_state)}"'
        f' [label="{_escape("/ " + init_label if init_label else "")}"];')
    for transition in definition.transitions:
        label_parts = []
        if transition.trigger.true_triggers:
            label_parts.append(
                "{" + ", ".join(transition.trigger.true_triggers) + "}")
        if transition.trigger.false_triggers:
            label_parts.append(
                "{" + ", ".join(transition.trigger.false_triggers) + "}")
        if transition.guard is not None:
            label_parts.append(f"[{transition.guard!r}]")
        if transition.actions:
            label_parts.append(
                "/ " + "; ".join(repr(a) for a in transition.actions))
        label = _escape("\\n".join(label_parts))
        lines.append(
            f'  "{_escape(transition.source)}" -> '
            f'"{_escape(transition.target)}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def statespace_to_dot(space: StateSpace, max_nodes: int = 200) -> str:
    """Render an explored state space as a DOT digraph (bounded)."""
    lines = [f'digraph "{_escape(space.name)}" {{',
             "  rankdir=LR;",
             "  node [shape=circle, fontsize=10];"]
    shown = range(min(space.n_states, max_nodes))
    deadlocks = set(space.deadlocks())
    for node in shown:
        attrs = []
        if node == space.initial:
            attrs.append("penwidth=2")
        if node in deadlocks:
            attrs.append('color=red')
        attr_text = (" [" + ", ".join(attrs) + "]") if attrs else ""
        lines.append(f'  {node}{attr_text};')
    for u, step, v in space.edges():
        if u in shown and v in shown:
            label = _escape(", ".join(sorted(step)))
            lines.append(f'  {u} -> {v} [label="{label}"];')
    if space.n_states > max_nodes:
        lines.append(
            f'  more [shape=plaintext, label="... '
            f'{space.n_states - max_nodes} more states"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
