"""History-dependent CCSL relations as dedicated runtimes.

These cover the kernel relations whose acceptance depends on occurrence
counts — precedence/causality (unbounded counters), alternation, delay,
periodic filtering, sampling and step-deadlines. Each class follows the
:class:`~repro.moccml.semantics.runtime.ConstraintRuntime` protocol and
maintains the minimal counter state, which keeps the explorer's
configuration keys small.
"""

from __future__ import annotations

from typing import Hashable

from repro.boolalg.expr import And, BExpr, Iff, Implies, Not, TRUE, Var
from repro.errors import SemanticsError
from repro.moccml.semantics.runtime import ConstraintRuntime


class PrecedesRuntime(ConstraintRuntime):
    """Strict precedence: the n-th *effect* follows strictly after the
    n-th *cause*.

    Invariant: ``advance = count(cause) - count(effect) >= 0``. The step
    formula forbids *effect* when the advance is zero; with a *bound* it
    also forbids *cause* when the advance reaches the bound (bounded
    precedence — ``Alternates`` is the bound-1 case).
    """

    def __init__(self, cause: str, effect: str, bound: int | None = None,
                 label: str | None = None):
        super().__init__(label or f"Precedes({cause}, {effect})",
                         (cause, effect))
        if bound is not None and bound < 1:
            raise SemanticsError(f"precedence bound must be >= 1, got {bound}")
        self.cause = cause
        self.effect = effect
        self.bound = bound
        self.advance_count = 0

    def step_formula(self) -> BExpr:
        parts: list[BExpr] = []
        if self.advance_count == 0:
            parts.append(Not(Var(self.effect)))
        if self.bound is not None and self.advance_count >= self.bound:
            # strict precedence: a simultaneous effect does not free the
            # slot (the bound derives from effect ≺ cause $ bound, which
            # is itself strict), so the cause is simply forbidden
            parts.append(Not(Var(self.cause)))
        return And(*parts) if parts else TRUE

    def advance(self, step: frozenset[str]) -> None:
        if self.effect in step and self.advance_count == 0:
            raise SemanticsError(
                f"{self.label}: effect {self.effect!r} occurred before its "
                f"cause {self.cause!r}")
        if (self.bound is not None and self.cause in step
                and self.advance_count >= self.bound):
            raise SemanticsError(
                f"{self.label}: bound {self.bound} exceeded")
        self.advance_count += (self.cause in step) - (self.effect in step)

    def state_key(self) -> Hashable:
        return (self.label, self.advance_count)

    def snapshot(self) -> Hashable:
        return self.advance_count

    def restore(self, token) -> None:
        self.advance_count = token

    def clone(self) -> "PrecedesRuntime":
        copy = PrecedesRuntime(self.cause, self.effect, self.bound, self.label)
        copy.advance_count = self.advance_count
        return copy


class CausesRuntime(ConstraintRuntime):
    """Weak causality: the n-th *effect* is not earlier than the n-th
    *cause* (they may coincide)."""

    def __init__(self, cause: str, effect: str, label: str | None = None):
        super().__init__(label or f"Causes({cause}, {effect})",
                         (cause, effect))
        self.cause = cause
        self.effect = effect
        self.advance_count = 0

    def step_formula(self) -> BExpr:
        if self.advance_count == 0:
            return Implies(Var(self.effect), Var(self.cause))
        return TRUE

    def advance(self, step: frozenset[str]) -> None:
        delta = (self.cause in step) - (self.effect in step)
        new_value = self.advance_count + delta
        if new_value < 0:
            raise SemanticsError(
                f"{self.label}: causality violated "
                f"({self.effect!r} overtook {self.cause!r})")
        self.advance_count = new_value

    def state_key(self) -> Hashable:
        return (self.label, self.advance_count)

    def snapshot(self) -> Hashable:
        return self.advance_count

    def restore(self, token) -> None:
        self.advance_count = token

    def clone(self) -> "CausesRuntime":
        copy = CausesRuntime(self.cause, self.effect, self.label)
        copy.advance_count = self.advance_count
        return copy


class AlternatesRuntime(PrecedesRuntime):
    """Alternation: a b a b ... — strict precedence bounded at one."""

    def __init__(self, first: str, second: str, label: str | None = None):
        super().__init__(first, second, bound=1,
                         label=label or f"Alternates({first}, {second})")


class DelayedForRuntime(ConstraintRuntime):
    """Delay expression: *delayed* ticks with *base*, skipping the first
    *depth* base occurrences (CCSL's ``delayed = base $ depth``)."""

    def __init__(self, delayed: str, base: str, depth: int,
                 label: str | None = None):
        super().__init__(label or f"DelayedFor({delayed} = {base} $ {depth})",
                         (delayed, base))
        if depth < 0:
            raise SemanticsError(f"delay depth must be >= 0, got {depth}")
        self.delayed = delayed
        self.base = base
        self.depth = depth
        self.base_count = 0

    def step_formula(self) -> BExpr:
        if self.base_count >= self.depth:
            return Iff(Var(self.delayed), Var(self.base))
        return Not(Var(self.delayed))

    def advance(self, step: frozenset[str]) -> None:
        formula = self.step_formula()
        if not formula.evaluate({name: name in step
                                 for name in formula.support()}):
            raise SemanticsError(
                f"{self.label}: step {sorted(step)} violates delay")
        if self.base in step and self.base_count < self.depth:
            self.base_count += 1

    def state_key(self) -> Hashable:
        return (self.label, min(self.base_count, self.depth))

    def snapshot(self) -> Hashable:
        return self.base_count

    def restore(self, token) -> None:
        self.base_count = token

    def clone(self) -> "DelayedForRuntime":
        copy = DelayedForRuntime(self.delayed, self.base, self.depth,
                                 self.label)
        copy.base_count = self.base_count
        return copy


class PeriodicOnRuntime(ConstraintRuntime):
    """Periodic filtering: *filtered* ticks on every *period*-th *base*
    occurrence, starting at *offset* (0-based index modulo period)."""

    def __init__(self, filtered: str, base: str, period: int, offset: int = 0,
                 label: str | None = None):
        super().__init__(
            label or f"PeriodicOn({filtered} = {base} % {period} @ {offset})",
            (filtered, base))
        if period < 1:
            raise SemanticsError(f"period must be >= 1, got {period}")
        if not 0 <= offset < period:
            raise SemanticsError(
                f"offset must be within [0, {period}), got {offset}")
        self.filtered = filtered
        self.base = base
        self.period = period
        self.offset = offset
        self.base_index = 0

    def step_formula(self) -> BExpr:
        if self.base_index % self.period == self.offset:
            return Iff(Var(self.filtered), Var(self.base))
        return Not(Var(self.filtered))

    def advance(self, step: frozenset[str]) -> None:
        formula = self.step_formula()
        if not formula.evaluate({name: name in step
                                 for name in formula.support()}):
            raise SemanticsError(
                f"{self.label}: step {sorted(step)} violates periodicity")
        if self.base in step:
            self.base_index = (self.base_index + 1) % self.period

    def state_key(self) -> Hashable:
        return (self.label, self.base_index)

    def snapshot(self) -> Hashable:
        return self.base_index

    def restore(self, token) -> None:
        self.base_index = token

    def clone(self) -> "PeriodicOnRuntime":
        copy = PeriodicOnRuntime(self.filtered, self.base, self.period,
                                 self.offset, self.label)
        copy.base_index = self.base_index
        return copy


class SampledOnRuntime(ConstraintRuntime):
    """Sampling: *result* ticks with the first *base* occurrence at or
    after each *trigger* occurrence (non-strict sampling)."""

    def __init__(self, result: str, trigger: str, base: str,
                 label: str | None = None):
        super().__init__(
            label or f"SampledOn({result} = {trigger} sampledOn {base})",
            (result, trigger, base))
        self.result = result
        self.trigger = trigger
        self.base = base
        self.pending = False

    def step_formula(self) -> BExpr:
        if self.pending:
            return Iff(Var(self.result), Var(self.base))
        # result ticks only if base and trigger occur in this very step
        return Iff(Var(self.result), And(Var(self.base), Var(self.trigger)))

    def advance(self, step: frozenset[str]) -> None:
        formula = self.step_formula()
        if not formula.evaluate({name: name in step
                                 for name in formula.support()}):
            raise SemanticsError(
                f"{self.label}: step {sorted(step)} violates sampling")
        # a base occurrence serves every trigger seen so far (same step
        # included); otherwise a trigger occurrence leaves a pending sample
        self.pending = ((self.pending or self.trigger in step)
                        and self.base not in step)

    def state_key(self) -> Hashable:
        return (self.label, self.pending)

    def snapshot(self) -> Hashable:
        return self.pending

    def restore(self, token) -> None:
        self.pending = token

    def clone(self) -> "SampledOnRuntime":
        copy = SampledOnRuntime(self.result, self.trigger, self.base,
                                self.label)
        copy.pending = self.pending
        return copy


class FilterByRuntime(ConstraintRuntime):
    """Filtering by a periodic binary word (CCSL ``filteredBy``).

    *filtered* ticks exactly at the base occurrences whose index the
    word keeps: ``filtered = base ▼ w``. :class:`PeriodicOnRuntime` is
    the special case ``0^offset 1 0^(period-offset-1)`` repeated.
    """

    def __init__(self, filtered: str, base: str, word,
                 label: str | None = None):
        from repro.ccsl.words import BinaryWord
        if isinstance(word, str):
            word = BinaryWord.parse(word)
        super().__init__(label or f"FilterBy({filtered} = {base} ▼ {word!r})",
                         (filtered, base))
        self.filtered = filtered
        self.base = base
        self.word = word
        self.base_index = 0

    def step_formula(self) -> BExpr:
        if self.word[self.base_index]:
            return Iff(Var(self.filtered), Var(self.base))
        return Not(Var(self.filtered))

    def advance(self, step: frozenset[str]) -> None:
        formula = self.step_formula()
        if not formula.evaluate({name: name in step
                                 for name in formula.support()}):
            raise SemanticsError(
                f"{self.label}: step {sorted(step)} violates the filter")
        if self.base in step:
            # canonicalize into the word's finite state space
            self.base_index = self.word.state_of(self.base_index + 1)

    def state_key(self) -> Hashable:
        return (self.label, self.word.state_of(self.base_index))

    def snapshot(self) -> Hashable:
        return self.base_index

    def restore(self, token) -> None:
        self.base_index = token

    def clone(self) -> "FilterByRuntime":
        copy = FilterByRuntime(self.filtered, self.base, self.word,
                               self.label)
        copy.base_index = self.base_index
        return copy


class DeadlineRuntime(ConstraintRuntime):
    """Step deadline: after each *start* occurrence, *finish* must occur
    within *budget* steps (counting the steps strictly after *start*).

    This is the kind of constraint the paper mentions beyond MoCC rules
    ("for instance to express a deadline", §II-A); it is what a platform
    timing requirement looks like at the MoCC level.
    """

    def __init__(self, start: str, finish: str, budget: int,
                 label: str | None = None):
        super().__init__(label or f"Deadline({start} ->{budget} {finish})",
                         (start, finish))
        if budget < 0:
            raise SemanticsError(f"deadline budget must be >= 0, got {budget}")
        self.start = start
        self.finish = finish
        self.budget = budget
        self.remaining: int | None = None  # None = not armed

    def step_formula(self) -> BExpr:
        if self.remaining is not None and self.remaining <= 0:
            return Var(self.finish)
        return TRUE

    def advance(self, step: frozenset[str]) -> None:
        if self.remaining is not None and self.remaining <= 0:
            if self.finish not in step:
                raise SemanticsError(
                    f"{self.label}: deadline missed")
        if self.finish in step:
            self.remaining = None
        if self.start in step:
            self.remaining = self.budget
        elif self.remaining is not None:
            self.remaining -= 1

    def state_key(self) -> Hashable:
        return (self.label, self.remaining)

    def snapshot(self) -> Hashable:
        return self.remaining

    def restore(self, token) -> None:
        self.remaining = token

    def clone(self) -> "DeadlineRuntime":
        copy = DeadlineRuntime(self.start, self.finish, self.budget,
                               self.label)
        copy.remaining = self.remaining
        return copy
