"""The policy registry: scheduling policies by name, for specs and CLIs.

A policy *spec* is JSON-representable: a bare name (``"asap"``) or a
mapping with a ``name`` plus constructor keywords
(``{"name": "random", "seed": 3}``). :func:`make_policy` turns a spec
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


def make_policy(spec: PolicySpec) -> SchedulingPolicy:
    """Build a fresh policy from *spec* (instances pass through)."""
    if isinstance(spec, SchedulingPolicy):
        return spec
    if isinstance(spec, str):
        name, kwargs = spec, {}
    elif isinstance(spec, Mapping):
        kwargs = dict(spec)
        try:
            name = kwargs.pop("name")
        except KeyError:
            raise PolicyError(
                "a policy mapping needs a 'name' key") from None
    else:
        raise PolicyError(
            f"cannot build a policy from {type(spec).__name__}")
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
register_policy("priority",
                lambda weights: PriorityPolicy(dict(weights)))
register_policy("replay",
                lambda steps: ReplayPolicy(
                    [frozenset(step) for step in steps]))
