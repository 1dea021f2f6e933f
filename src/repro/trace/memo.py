"""Per-log memoization of derived trace products.

Every sweep replays the same derived stream through many configurations,
``run_all`` replays it through many experiments, and the one-pass
analyzer reuses the columnar view the binary reader produced.  Rebuilding
those products each time dominated setup, so derived products (item
streams, metadata streams, packed streams, column views) are memoized per
:class:`~repro.trace.log.TraceLog`.

The table is keyed by object identity with a weakref for cleanup, and
validated against a cheap *stamp*.  A log loaded from columns whose
events are still unbuilt (:meth:`~repro.trace.columns.TraceColumns.to_log`)
is stamped by its columns' identity and row count, so stamping it builds
no event.  Once its events are built, the event stamp below applies; it
differs from the column stamp, so each product requested after that is
rebuilt once, from the events.  An event-backed log is stamped by its
event list:

* the event count — ``TraceLog``'s mutation API is append-only, so a
  changed length is exactly a changed log;
* the identity of the ``events`` list object — catches wholesale list
  replacement (``log.events = other``);
* the sum of the event object ids — catches in-place replacement
  (``log.events[i] = other_event``).  A replacement is allocated while
  the replaced event is still referenced by the list, so the two ids
  necessarily differ and the sum moves.  (Like any identity-based
  scheme this is best-effort against adversarial id reuse, but an event
  freed *and* reallocated at the same address with the list unchanged
  in every other position cannot be produced by normal mutation.)

The stamp is O(events) to compute, but it is a single C-level pass
(``sum(map(id, ...))``) paid once per cache lookup — noise next to the
O(events x blocks) builds it guards.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Hashable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .log import TraceLog

__all__ = ["memoize_per_log"]

_MEMO: dict[int, tuple[weakref.ref, tuple, dict[Hashable, object]]] = {}


def _stamp(log: "TraceLog") -> tuple:
    cols = log.columns
    if cols is not None:
        return (id(cols), len(cols))
    events = log.events
    return (len(events), id(events), sum(map(id, events)))


def _memo_table(log: "TraceLog") -> dict[Hashable, object]:
    key = id(log)
    stamp = _stamp(log)
    entry = _MEMO.get(key)
    if entry is not None:
        ref, old_stamp, table = entry
        if ref() is log and old_stamp == stamp:
            return table

    def _evict(_ref, _key=key):
        _MEMO.pop(_key, None)

    table: dict[Hashable, object] = {}
    _MEMO[key] = (weakref.ref(log, _evict), stamp, table)
    return table


def memoize_per_log(log: "TraceLog", key: Hashable, builder: Callable[[], object]):
    """Return the memoized product *key* for *log*, building it on miss."""
    table = _memo_table(log)
    try:
        return table[key]
    except KeyError:
        product = builder()
        table[key] = product
        return product
