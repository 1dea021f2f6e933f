"""Write policies for the block-cache simulator (paper Section 6.2).

The paper evaluates four policies:

* **write-through** — every write of a block costs a disk write
  immediately; the cache can then never do better than the write fraction
  of the access stream (~30% in the traces).
* **flush-back(T)** — the cache is scanned every *T* seconds and blocks
  modified since the last scan are written out.  The paper uses T=30 s
  (the classical ``sync`` interval) and T=5 min.
* **delayed-write** — a dirty block is written only when it is about to be
  ejected.  Most newly written blocks are deleted or overwritten first and
  never reach the disk at all — the paper's headline result.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = ["WritePolicy", "PolicySpec", "WRITE_THROUGH", "FLUSH_30S", "FLUSH_5MIN", "DELAYED_WRITE"]


class WritePolicy(enum.Enum):
    """The three policy families of Figure 5."""

    WRITE_THROUGH = "write-through"
    FLUSH_BACK = "flush-back"
    DELAYED_WRITE = "delayed-write"


@dataclass(frozen=True)
class PolicySpec:
    """A policy plus its parameter (the flush interval, if any)."""

    policy: WritePolicy
    flush_interval: float | None = None

    def __post_init__(self):
        if self.policy is WritePolicy.FLUSH_BACK:
            interval = self.flush_interval
            if not interval or not math.isfinite(interval) or interval <= 0:
                raise ValueError(
                    f"flush-back needs a positive, finite flush_interval, got {interval!r}"
                )
        elif self.flush_interval is not None:
            raise ValueError(f"{self.policy.value} takes no flush interval")

    @property
    def label(self) -> str:
        if self.policy is WritePolicy.FLUSH_BACK:
            interval = self.flush_interval
            if interval % 60 == 0:
                return f"{int(interval // 60)} min flush"
            return f"{interval:g} sec flush"
        return self.policy.value


#: The paper's four policy columns (Figure 5 / Table VI).
WRITE_THROUGH = PolicySpec(WritePolicy.WRITE_THROUGH)
FLUSH_30S = PolicySpec(WritePolicy.FLUSH_BACK, 30.0)
FLUSH_5MIN = PolicySpec(WritePolicy.FLUSH_BACK, 300.0)
DELAYED_WRITE = PolicySpec(WritePolicy.DELAYED_WRITE)
