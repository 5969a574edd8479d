"""Seeded input generators for the benchmark, one per front-end.

Every generator is a pure function of its parameters; the workloads draw
the parameters from a ``random.Random(seed)`` stream, so one seed always
yields the same inputs. The families are chosen so that their expected
answers can be derived by hand (see ``expected.json`` and ``refs.py``):
SDF chains have (c+1)^(n-1) states, the CCSL and MoCCML families are
counters with a known bound, and so on.

A model record is a plain dict::

    {"name": ..., "frontend": ..., "family": ..., "params": {...},
     "doc": <repro.workbench.source_from_doc document>,
     "targets": {...}}    # event/label names the properties refer to

Bump ``GENERATOR_VERSION`` whenever a family's output changes, so that
figures taken with different generators are never compared.
"""

from __future__ import annotations

#: version of the generated input grammar (recorded in attribution.json)
GENERATOR_VERSION = 1


# ---------------------------------------------------------------------------
# SigPML (SDF) families
# ---------------------------------------------------------------------------

def sigpml_text(name: str, agents: list[str], places: list[tuple]) -> str:
    """SigPML text; *places* are (producer, consumer, push, pop,
    capacity, delay) tuples."""
    lines = [f"application {name} {{"]
    lines += [f"  agent {agent}" for agent in agents]
    for producer, consumer, push, pop, capacity, delay in places:
        line = (f"  place {producer} -> {consumer} push {push} pop {pop} "
                f"capacity {capacity}")
        if delay:
            line += f" delay {delay}"
        lines.append(line)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _sdf_record(name: str, family: str, params: dict, agents: list[str],
                places: list[tuple]) -> dict:
    first_place = f"{places[0][0]}_{places[0][1]}"
    return {
        "name": name, "frontend": "sigpml", "family": family,
        "params": params,
        "doc": {"frontend": "sigpml",
                "text": sigpml_text(name, agents, places)},
        "targets": {"events": [f"{agent}.start" for agent in agents],
                    "source": f"{agents[0]}.start",
                    "sink": f"{agents[-1]}.start",
                    "bound_var": f"PlaceLimitation@Place:{first_place}.size",
                    "bound": places[0][4]},
    }


def chain(n: int, c: int, name: str | None = None) -> dict:
    """A pipeline of *n* agents, every place of capacity *c*."""
    agents = [f"a{i}" for i in range(n)]
    places = [(f"a{i}", f"a{i + 1}", 1, 1, c, 0) for i in range(n - 1)]
    return _sdf_record(name or f"chain{n}c{c}", "chain", {"n": n, "c": c},
                       agents, places)


def mesh(rows: int, cols: int, name: str | None = None) -> dict:
    """An open rows x cols grid, edges rightwards and downwards."""
    agents = [f"n{r}_{c}" for r in range(rows) for c in range(cols)]
    places = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                places.append((f"n{r}_{c}", f"n{r}_{c + 1}", 1, 1, 1, 0))
            if r + 1 < rows:
                places.append((f"n{r}_{c}", f"n{r + 1}_{c}", 1, 1, 1, 0))
    return _sdf_record(name or f"mesh{rows}x{cols}", "mesh",
                       {"rows": rows, "cols": cols}, agents, places)


def torus(rows: int, cols: int, name: str | None = None) -> dict:
    """A wrap-around grid; each wrapping edge carries one delay token and
    one unit of slack capacity so the pipeline can rotate."""
    agents = [f"n{r}_{c}" for r in range(rows) for c in range(cols)]
    places = []
    for r in range(rows):
        for c in range(cols):
            wrap_col, wrap_row = c + 1 == cols, r + 1 == rows
            places.append((f"n{r}_{c}", f"n{r}_{(c + 1) % cols}", 1, 1,
                           1 + wrap_col, int(wrap_col)))
            places.append((f"n{r}_{c}", f"n{(r + 1) % rows}_{c}", 1, 1,
                           1 + wrap_row, int(wrap_row)))
    return _sdf_record(name or f"torus{rows}x{cols}", "torus",
                       {"rows": rows, "cols": cols}, agents, places)


def starved(n: int, name: str | None = None) -> dict:
    """A chain whose last place needs 2 tokens per write but holds 1: the
    producer can never complete, so the model deadlocks and the sink
    never starts."""
    agents = [f"a{i}" for i in range(n)]
    places = [(f"a{i}", f"a{i + 1}", 1, 1, 1, 0) for i in range(n - 2)]
    places.append((f"a{n - 2}", f"a{n - 1}", 2, 1, 1, 0))
    return _sdf_record(name or f"starved{n}", "starved", {"n": n},
                       agents, places)


# ---------------------------------------------------------------------------
# deployment, PAM, CCSL and MoCCML families
# ---------------------------------------------------------------------------

def deployed_chain(n: int, processors: int, latency: int,
                   name: str | None = None) -> dict:
    """chain(n, 1) allocated round-robin on fully linked processors."""
    app = chain(n, 1, name=f"{name or 'dep'}_app")
    lines = [f"platform {name or 'dep'}_board {{"]
    lines += [f"  processor p{i}" for i in range(processors)]
    if processors > 1:
        lines.append(f"  connect all latency {latency}")
    lines += ["}", "allocation {"]
    for p in range(processors):
        bound = [f"a{i}" for i in range(n) if i % processors == p]
        if bound:
            lines.append(f"  {', '.join(bound)} -> p{p}")
    lines.append("}")
    name = name or f"dep{n}p{processors}l{latency}"
    return {
        "name": name, "frontend": "deployment", "family": "deployed_chain",
        "params": {"n": n, "processors": processors, "latency": latency},
        "doc": {"frontend": "deployment", "name": name,
                "application_text": app["doc"]["text"],
                "deployment_text": "\n".join(lines) + "\n"},
        "targets": {"source": "a0.start", "sink": f"a{n - 1}.start"},
    }


def pam(configuration: str) -> dict:
    """One configuration of the bundled PAM deployment study."""
    return {
        "name": f"pam-{configuration}", "frontend": "pam", "family": "pam",
        "params": {"configuration": configuration},
        "doc": {"frontend": "pam", "configuration": configuration,
                "capacity": 1},
        "targets": {"source": "hydro.start", "sink": "logger.start"},
    }


def ccsl_bounded(k: int, name: str | None = None) -> dict:
    """``BoundedPrecedes(req, ack, k)`` with ``done`` coinciding with
    ``ack``: a counter of outstanding requests in 0..k."""
    name = name or f"bounded{k}"
    return {
        "name": name, "frontend": "ccsl", "family": "ccsl_bounded",
        "params": {"k": k},
        "doc": {"frontend": "ccsl", "name": name,
                "events": ["req", "ack", "done"],
                "constraints": [
                    {"relation": "BoundedPrecedes", "args": ["req", "ack", k],
                     "label": "window"},
                    {"relation": "Coincides", "args": ["ack", "done"],
                     "label": "same"}]},
        "targets": {"source": "req", "sink": "done"},
    }


#: the MoCCML library of the ``moccml_window`` family: a bounded
#: request/response window written as a constraint automaton
WINDOW_LIBRARY = """\
library BenchLib {
  declaration Window(request: event, response: event, max: int)

  automaton WindowDef implements Window {
    var inflight: int = 0
    initial final state Open
    transition Open -> Open when {request} unless {response} \\
        [inflight < max] / inflight += 1
    transition Open -> Open when {response} unless {request} \\
        [inflight > 0] / inflight -= 1
    transition Open -> Open when {request, response} \\
        [inflight > 0 and inflight < max]
  }
}
"""


def moccml_window(limit: int, name: str | None = None) -> dict:
    """``Window(send, recv, limit)`` from :data:`WINDOW_LIBRARY` plus an
    ``Alternates(recv, log)`` kernel relation."""
    name = name or f"window{limit}"
    return {
        "name": name, "frontend": "moccml", "family": "moccml_window",
        "params": {"limit": limit},
        "doc": {"frontend": "moccml", "name": name,
                "events": ["send", "recv", "log"],
                "library_text": WINDOW_LIBRARY,
                "constraints": [
                    {"relation": "Window", "args": ["send", "recv", limit],
                     "label": "win"},
                    {"relation": "Alternates", "args": ["recv", "log"],
                     "label": "alt"}]},
        "targets": {"source": "send", "sink": "log",
                    "bound_var": "win.inflight", "bound": limit},
    }
