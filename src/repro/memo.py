"""A bounded, thread-safe, oldest-first memo.

Shared by the process-wide partition memo of pure GNRW groupings
(:mod:`repro.walks.grouping`) and the record-body memos on both ends of the
graph wire (:mod:`repro.server.router`, :mod:`repro.api.remote`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable

#: Resident bytes of one entry's bookkeeping in a :class:`BoundedMemo` (its
#: ordered-dict slot and link), for weigh functions that charge bytes.
#: Measured 71-116 bytes per entry resident and 131 while the table resizes.
ENTRY_BYTES = 136


class BoundedMemo:
    """A dict capped at ``limit`` total weight; the oldest entry goes first.

    ``weigh(key, value)`` is an entry's charge against the limit (a byte
    count, or ``1`` to bound the number of entries); it must return the same
    charge for an entry every time.  An entry heavier than the whole limit is
    not stored.  Reads are lock-free dict lookups; :meth:`put` takes the
    lock, so an insert never races another insert's eviction.
    """

    def __init__(self, limit: int, weigh: Callable[[Any, Any], int]) -> None:
        self.limit = limit
        #: Total weight of the stored entries (never above ``limit``).
        self.size = 0
        self._weigh = weigh
        # An OrderedDict evicts its oldest entry in O(1); a plain dict's
        # next(iter(...)) scans every slot deleted since its last resize.
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.get = self._entries.get

    def put(self, key, value) -> None:
        weight = self._weigh(key, value)
        if weight > self.limit:
            return
        with self._lock:
            entries = self._entries
            if key in entries:
                return
            while self.size + weight > self.limit:
                self.size -= self._weigh(*entries.popitem(last=False))
            entries[key] = value
            self.size += weight

    def __len__(self) -> int:
        return len(self._entries)
