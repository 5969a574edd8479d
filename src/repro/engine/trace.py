"""Execution traces: the recorded schedule of a simulation.

A trace is a finite prefix of a schedule σ : N → 2^E (paper §II-C).
Besides list access it offers occurrence counting, an ASCII timing
diagram (the textual sibling of TimeSquare's waveform view) and VCD
export so traces can be opened in standard waveform viewers.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import EngineError


def require_events(events: Iterable[str], known, name: str) -> None:
    """Refuse event names outside *known* — a typoed event must error,
    never yield a definitive answer."""
    unknown = [event for event in events if event not in known]
    if unknown:
        raise EngineError(
            f"unknown event{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(map(repr, unknown))} in {name!r}; known: "
            f"{sorted(known)}")


class Trace:
    """An ordered sequence of steps (frozensets of occurring events)."""

    def __init__(self, events: Iterable[str]):
        self.events = list(dict.fromkeys(events))
        self.steps: list[frozenset[str]] = []

    @classmethod
    def from_steps(cls, events: Iterable[str],
                   steps: Iterable[Iterable[str]]) -> "Trace":
        """Rebuild a trace from serialized steps (any iterables of
        event names) — the shared payload→Trace path of the workbench
        artifacts and reports."""
        trace = cls(events)
        for step in steps:
            trace.append(frozenset(step))
        return trace

    # -- recording -------------------------------------------------------------

    def append(self, step: frozenset[str]) -> None:
        self.steps.append(frozenset(step))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self.steps)

    def __getitem__(self, index: int) -> frozenset[str]:
        return self.steps[index]

    # -- queries ------------------------------------------------------------------

    def count(self, event: str) -> int:
        """Occurrences of *event* in the trace."""
        return sum(1 for step in self.steps if event in step)

    def counts(self) -> dict[str, int]:
        """Occurrence counts for every declared event."""
        return {event: self.count(event) for event in self.events}

    def first_occurrence(self, event: str) -> int | None:
        """Index of the first step containing *event*, or None."""
        for index, step in enumerate(self.steps):
            if event in step:
                return index
        return None

    def occurrence_indices(self, event: str) -> list[int]:
        """All step indices where *event* occurs."""
        return [index for index, step in enumerate(self.steps)
                if event in step]

    def project(self, events: Iterable[str]) -> "Trace":
        """A new trace restricted to *events* (schedule projection)."""
        kept = [name for name in self.events if name in set(events)]
        projected = Trace(kept)
        keep = frozenset(kept)
        for step in self.steps:
            projected.append(step & keep)
        return projected

    def max_parallelism(self) -> int:
        """Largest number of simultaneous events in any step."""
        return max((len(step) for step in self.steps), default=0)

    def mean_parallelism(self) -> float:
        """Average step cardinality over the trace."""
        if not self.steps:
            return 0.0
        return sum(len(step) for step in self.steps) / len(self.steps)

    def throughput(self, event: str) -> float:
        """Occurrences of *event* per step over the whole trace; an event
        outside :attr:`events` is an :class:`EngineError`."""
        require_events([event], self.events, "trace")
        if not self.steps:
            return 0.0
        return self.count(event) / len(self.steps)

    # -- rendering ----------------------------------------------------------------

    def to_ascii(self, events: Iterable[str] | None = None,
                 start: int = 0, width: int | None = None) -> str:
        """Render an ASCII timing diagram.

        Each row is an event; ``X`` marks an occurrence, ``.`` silence.
        """
        rows = list(events) if events is not None else self.events
        stop = len(self.steps) if width is None else min(
            len(self.steps), start + width)
        label_width = max((len(name) for name in rows), default=0)
        header = " " * (label_width + 1) + "".join(
            str(index % 10) for index in range(start, stop))
        lines = [header]
        for name in rows:
            cells = "".join(
                "X" if name in self.steps[index] else "."
                for index in range(start, stop))
            lines.append(f"{name.rjust(label_width)} {cells}")
        return "\n".join(lines)

    def to_svg(self, events: Iterable[str] | None = None,
               cell_width: int = 14, row_height: int = 22) -> str:
        """Render the timing diagram as a standalone SVG document.

        The visual sibling of TimeSquare's waveform view: one row per
        event, one pulse per occurrence.
        """
        rows = list(events) if events is not None else self.events
        steps = len(self.steps)
        label_width = 8 * max((len(name) for name in rows), default=4) + 10
        width = label_width + steps * cell_width + 10
        height = (len(rows) + 1) * row_height + 10
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" font-family="monospace" font-size="11">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]
        # step ruler
        for index in range(steps):
            x = label_width + index * cell_width
            parts.append(
                f'<text x="{x + cell_width // 2}" y="{row_height - 8}" '
                f'text-anchor="middle" fill="#888">{index % 10}</text>')
        for row, name in enumerate(rows):
            base = (row + 1) * row_height + row_height
            low = base - 2
            high = base - row_height + 6
            parts.append(
                f'<text x="4" y="{base - row_height // 3}">{name}</text>')
            path = [f"M {label_width} {low}"]
            for index in range(steps):
                x0 = label_width + index * cell_width
                x1 = x0 + cell_width
                if name in self.steps[index]:
                    path.append(f"L {x0} {low} L {x0} {high} "
                                f"L {x1} {high} L {x1} {low}")
                else:
                    path.append(f"L {x1} {low}")
            parts.append(
                f'<path d="{" ".join(path)}" fill="none" stroke="#1f6f43" '
                f'stroke-width="1.5"/>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def to_vcd(self, module_name: str = "trace") -> str:
        """Export as a Value Change Dump document.

        Each event is a 1-bit wire pulsing for one timestamp per
        occurrence (two VCD time units per step).
        """
        identifiers = {}
        for index, event in enumerate(self.events):
            # VCD id chars: printable ASCII 33..126
            code = ""
            remaining = index
            while True:
                code += chr(33 + remaining % 94)
                remaining //= 94
                if remaining == 0:
                    break
            identifiers[event] = code

        lines = [
            "$date repro trace export $end",
            "$version repro MoCCML engine $end",
            "$timescale 1ns $end",
            f"$scope module {module_name} $end",
        ]
        for event in self.events:
            safe = event.replace(" ", "_")
            lines.append(f"$var wire 1 {identifiers[event]} {safe} $end")
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")
        lines.append("#0")
        for event in self.events:
            lines.append(f"0{identifiers[event]}")
        for index, step in enumerate(self.steps):
            lines.append(f"#{2 * index + 1}")
            for event in self.events:
                if event in step:
                    lines.append(f"1{identifiers[event]}")
            lines.append(f"#{2 * index + 2}")
            for event in self.events:
                if event in step:
                    lines.append(f"0{identifiers[event]}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"Trace({len(self.steps)} steps over {len(self.events)} events)"
