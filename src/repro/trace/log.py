"""In-memory trace container.

A :class:`TraceLog` is an ordered sequence of trace events plus a little
metadata (a name like ``A5`` and an optional description).  It is the unit
that the workload generator produces and that the analyzer and cache
simulator consume.

A log read from a corpus (:meth:`~repro.trace.columns.TraceColumns.to_log`)
holds its columns instead of events.  Its length, times, summary and kind
counts read the columns, and so do the products derived from it
(:func:`~repro.trace.columns.cached_columns`, the cache stream and the
packed streams).  The first read of :attr:`TraceLog.events` builds the
event list once; from then on the log is an ordinary event-backed log.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from .records import OpenEvent, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .columns import TraceColumns

__all__ = ["TraceLog"]


class TraceLog:
    """An ordered log of trace events.

    Events must be appended in non-decreasing time order (the tracer's clock
    is monotonic).  ``append`` enforces this; bulk constructors sort instead.
    """

    def __init__(
        self,
        name: str = "trace",
        description: str = "",
        events: list[TraceEvent] | None = None,
    ):
        self.name = name
        self.description = description
        self._events: list[TraceEvent] | None = [] if events is None else events
        self._columns: TraceColumns | None = None

    @classmethod
    def _backed_by(cls, columns: "TraceColumns") -> "TraceLog":
        """A log over *columns* whose events are built on first read
        (the constructor behind ``TraceColumns.to_log``)."""
        log = cls(name=columns.name, description=columns.description)
        log._events = None
        log._columns = columns
        return log

    @property
    def events(self) -> list[TraceEvent]:
        events = self._events
        if events is None:
            cols = self._columns
            events = [cols.event(i) for i in range(len(cols))]
            self._events = events
            self._columns = None
        return events

    @events.setter
    def events(self, events: list[TraceEvent]) -> None:
        self._events = events
        self._columns = None

    @property
    def columns(self) -> "TraceColumns | None":
        """The columns this log was loaded from while its events are
        unbuilt; ``None`` once they are built or for a log of events."""
        return self._columns

    @classmethod
    def from_events(
        cls,
        events: Iterable[TraceEvent],
        name: str = "trace",
        description: str = "",
        sort: bool = True,
    ) -> "TraceLog":
        """Build a log from an iterable of events, sorting by time."""
        evs = list(events)
        if sort:
            evs.sort(key=lambda e: e.time)
        log = cls(name=name, description=description, events=evs)
        return log

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.description, self.events) == (
            other.name,
            other.description,
            other.events,
        )

    def __repr__(self) -> str:
        return (
            f"TraceLog(name={self.name!r}, description={self.description!r}, "
            f"events={self.events!r})"
        )

    def append(self, event: TraceEvent) -> None:
        events = self.events
        if events and event.time < events[-1].time:
            raise ValueError(
                f"event at t={event.time} appended after t={events[-1].time}; "
                "trace events must be in time order"
            )
        events.append(event)

    def extend(self, events: Iterable[TraceEvent]) -> None:
        for event in events:
            self.append(event)

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns)
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __getitem__(self, index):
        return self.events[index]

    # -- simple derived properties ------------------------------------------

    @property
    def start_time(self) -> float:
        """Time of the first event (0.0 for an empty trace)."""
        if self._columns is not None:
            return self._columns.start_time
        return self.events[0].time if self.events else 0.0

    @property
    def end_time(self) -> float:
        """Time of the last event (0.0 for an empty trace)."""
        if self._columns is not None:
            return self._columns.end_time
        return self.events[-1].time if self.events else 0.0

    @property
    def duration(self) -> float:
        """Wall-clock span covered by the trace, in seconds."""
        return self.end_time - self.start_time

    def count(self, kind: str) -> int:
        """Number of events whose ``kind`` tag equals *kind*."""
        if self._columns is not None:
            return self._columns.count(kind)
        return sum(1 for e in self.events if e.kind == kind)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All events of the given kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def user_ids(self) -> set[int]:
        """The set of user ids appearing anywhere in the trace."""
        ids: set[int] = set()
        for e in self.events:
            uid = getattr(e, "user_id", None)
            if uid is not None:
                ids.add(uid)
        return ids

    def file_ids(self) -> set[int]:
        """The set of file ids appearing anywhere in the trace."""
        ids: set[int] = set()
        open_files: dict[int, int] = {}
        for e in self.events:
            fid = getattr(e, "file_id", None)
            if fid is not None:
                ids.add(fid)
            if isinstance(e, OpenEvent):
                open_files[e.open_id] = e.file_id
        return ids

    def slice(self, t_start: float, t_end: float, name: str | None = None) -> "TraceLog":
        """Events with ``t_start <= time < t_end`` as a new log.

        Note that slicing can orphan close/seek events whose open fell before
        the window; :mod:`repro.trace.validate` can report such orphans and
        the analyzer skips them.
        """
        sliced = [e for e in self.events if t_start <= e.time < t_end]
        return TraceLog(
            name=name or f"{self.name}[{t_start:g}:{t_end:g}]",
            description=self.description,
            events=sliced,
        )

    def summary_line(self) -> str:
        """A one-line human summary (name, events, span)."""
        return (
            f"{self.name}: {len(self)} events over "
            f"{self.duration / 3600:.2f} hours"
        )
