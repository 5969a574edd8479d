"""The policy registry: scheduling policies by name, for specs and CLIs.

A policy *spec* is JSON-representable: a bare name (``"asap"``) or a
mapping with a ``name`` plus constructor keywords
(``{"name": "random", "seed": 3}``), typed for the built-in policies by
:data:`POLICY_KEYWORDS`. :func:`make_policy` turns a spec
into a fresh :class:`~repro.engine.policies.SchedulingPolicy` — fresh
matters: stateful policies (random, replay) must not leak state between
runs, which is what makes batched runs independent of worker count.

This registry subsumes the private policy table the CLI used to carry;
:func:`register_policy` lets applications add their own.
"""

from __future__ import annotations

from typing import Callable, Mapping, Union

from repro.engine.policies import (
    AsapPolicy,
    MinimalPolicy,
    PriorityPolicy,
    RandomPolicy,
    ReplayPolicy,
    SchedulingPolicy,
)
from repro.errors import ReproError

#: A policy spec: a registered name, a {"name": ..., **kwargs} mapping,
#: or an already-built policy instance (not JSON-serializable).
PolicySpec = Union[str, Mapping, SchedulingPolicy]


class PolicyError(ReproError):
    """Unknown policy name or invalid policy spec."""


_REGISTRY: dict[str, Callable[..., SchedulingPolicy]] = {}


def register_policy(name: str,
                    factory: Callable[..., SchedulingPolicy] | None = None):
    """Register a policy factory under *name* (usable as decorator)."""
    if factory is not None:
        _REGISTRY[name] = factory
        return factory

    def decorate(function):
        _REGISTRY[name] = function
        return function
    return decorate


def policy_names() -> list[str]:
    """Registered policy names, sorted."""
    return sorted(_REGISTRY)


def _is_int(value) -> bool:
    return type(value) is int  # a bool is not an integer


#: built-in policy -> keyword -> (test, what a value must be): every
#: keyword a built-in policy mapping may carry, with its JSON type
POLICY_KEYWORDS: dict[str, dict[str, tuple[Callable, str]]] = {
    "asap": {},
    "minimal": {},
    "random": {"seed": (_is_int, "an integer")},
    "priority": {"weights": (
        lambda value: isinstance(value, Mapping) and all(
            isinstance(event, str) and _is_int(weight)
            for event, weight in value.items()),
        "an object mapping event names to integers")},
    "replay": {"steps": (
        lambda value: isinstance(value, list) and all(
            isinstance(step, list) and all(isinstance(e, str) for e in step)
            for step in value),
        "a list of lists of event names")},
}


def policy_keywords(spec: PolicySpec) -> tuple[object, dict]:
    """The ``(name, keywords)`` of a name or mapping *spec*, checked
    against :data:`POLICY_KEYWORDS` when the name is a built-in one: a
    keyword it does not list, or a value of the wrong JSON type, raises
    :class:`PolicyError` naming it."""
    if isinstance(spec, str):
        return spec, {}
    if not isinstance(spec, Mapping):
        raise PolicyError(
            f"cannot build a policy from {type(spec).__name__}")
    kwargs = dict(spec)
    try:
        name = kwargs.pop("name")
    except KeyError:
        raise PolicyError("a policy mapping needs a 'name' key") from None
    table = POLICY_KEYWORDS.get(name) if isinstance(name, str) else None
    if table is None:
        return name, kwargs
    unknown = sorted(set(kwargs) - set(table))
    if unknown:
        raise PolicyError(
            f"bad arguments for policy {name!r}: unknown keyword(s) "
            f"{unknown}; it reads {', '.join(table) or 'none'}")
    for keyword, value in kwargs.items():
        test, expected = table[keyword]
        if not test(value):
            raise PolicyError(
                f"bad arguments for policy {name!r}: {keyword!r} must be "
                f"{expected}, not {value!r:.60}")
    return name, kwargs


def make_policy(spec: PolicySpec) -> SchedulingPolicy:
    """Build a fresh policy from *spec* (instances pass through)."""
    if isinstance(spec, SchedulingPolicy):
        return spec
    name, kwargs = policy_keywords(spec)
    try:
        factory = _REGISTRY[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise PolicyError(
            f"unknown policy {name!r}; registered: "
            f"{', '.join(policy_names())}") from None
    try:
        return factory(**kwargs)
    except TypeError as exc:
        raise PolicyError(f"bad arguments for policy {name!r}: {exc}") \
            from None


def policy_doc(spec: PolicySpec) -> Union[str, dict]:
    """The JSON form of *spec* (rejects bare instances)."""
    if isinstance(spec, str):
        return spec
    if isinstance(spec, Mapping):
        return dict(spec)
    raise PolicyError(
        f"policy instances ({type(spec).__name__}) are not "
        f"JSON-serializable; use a name or a mapping spec")


register_policy("asap", AsapPolicy)
register_policy("minimal", MinimalPolicy)
register_policy("random", RandomPolicy)
register_policy("priority", PriorityPolicy)
register_policy("replay", ReplayPolicy)
