"""Random-variate helpers for the workload models.

Every distribution here takes the component's own ``random.Random`` so a
profile plus a seed determines a trace bit-for-bit.  The shapes are chosen
to reproduce the paper's empirical curves: file sizes are a mixture heavy
in the 100 B – 10 KB range (Figure 2), think times are bursty (short gaps
inside a burst, long idle periods between bursts — Section 5.1), and
transfer granules cluster at the 1 KB / 4 KB stdio buffer sizes that put
the visible jumps in Figure 1(a).
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

__all__ = [
    "bounded_lognormal",
    "bounded_exponential",
    "Mixture",
    "WeightedChoice",
    "weighted_index",
    "BurstyThinkTime",
    "DiurnalPattern",
    "zipf_weights",
]


def bounded_lognormal(
    rng: random.Random, median: float, sigma: float, low: float, high: float
) -> float:
    """A lognormal variate with the given *median*, clamped to [low, high].

    Lognormals match the long right tail of observed file sizes while
    keeping the mass near the median.
    """
    if low > high:
        raise ValueError(f"low {low} > high {high}")
    value = rng.lognormvariate(math.log(median), sigma)
    return min(high, max(low, value))


def bounded_exponential(
    rng: random.Random, mean: float, low: float = 0.0, high: float = math.inf
) -> float:
    """An exponential variate with *mean*, clamped to [low, high]."""
    return min(high, max(low, rng.expovariate(1.0 / mean)))


@dataclass(frozen=True)
class Mixture:
    """A finite mixture of (weight, sampler) components."""

    components: Sequence[tuple[float, object]]

    def sample(self, rng: random.Random) -> float:
        total = sum(w for w, _ in self.components)
        pick = rng.random() * total
        acc = 0.0
        for weight, sampler in self.components:
            acc += weight
            if pick <= acc:
                return sampler(rng)  # type: ignore[operator]
        # Floating-point slack: fall through to the last component.
        return self.components[-1][1](rng)  # type: ignore[operator]


def weighted_index(rng: random.Random, cum_weights: Sequence[float]) -> int:
    """An index drawn with the given cumulative weights.

    This is CPython's own ``Random.choices`` expression for one pick, so
    it consumes one ``random()`` and returns the index of the item
    ``rng.choices(items, cum_weights=cum_weights)`` returns — or
    ``weights=`` with the same weights, whose running sums are these.
    """
    hi = len(cum_weights) - 1
    return bisect(cum_weights, rng.random() * (cum_weights[hi] + 0.0), 0, hi)


class WeightedChoice:
    """Pick among labelled alternatives with fixed weights."""

    def __init__(self, weighted_items: Sequence[tuple[object, float]]):
        if not weighted_items:
            raise ValueError("WeightedChoice needs at least one item")
        self._items = [item for item, _ in weighted_items]
        weights = [w for _, w in weighted_items]
        if min(weights) < 0:
            raise ValueError("negative weight")
        if sum(weights) <= 0:
            raise ValueError("weights sum to zero")
        self._cum_weights = list(accumulate(weights))

    def sample(self, rng: random.Random):
        return self._items[weighted_index(rng, self._cum_weights)]


@dataclass(frozen=True)
class BurstyThinkTime:
    """The two-state think-time model behind the paper's burstiness.

    Inside a burst, gaps between a user's activities are short
    (exponential, ``burst_mean`` seconds).  With probability ``idle_prob``
    the user instead goes idle for an exponential ``idle_mean`` period —
    reading the listing, being in a meeting, at lunch.  This produces the
    "occasional (though bursty)" per-user activity of Section 5.1: high
    rates over 10-second windows, low averages over 10-minute windows.
    """

    burst_mean: float = 2.0
    idle_mean: float = 300.0
    idle_prob: float = 0.12
    minimum: float = 0.05

    def sample(self, rng: random.Random) -> float:
        if rng.random() < self.idle_prob:
            return bounded_exponential(rng, self.idle_mean, low=self.minimum)
        return bounded_exponential(rng, self.burst_mean, low=self.minimum)


@dataclass(frozen=True)
class DiurnalPattern:
    """Day/night load modulation.

    The paper's traces ran for 2-3 days "during the busiest part of the
    work week", with a pronounced daily rhythm ("during the peak hours of
    the day, about 2-3 files were opened per second").  This pattern
    scales think times by time of day: multiplier 1.0 at the afternoon
    peak rising smoothly (cosine) to ``night_slowdown`` in the middle of
    the night — a slowdown of 8 means an eighth of the daytime activity.
    """

    peak_hour: float = 15.0  # mid-afternoon
    night_slowdown: float = 8.0
    day_seconds: float = 24 * 3600.0

    def __post_init__(self):
        if self.night_slowdown < 1.0:
            raise ValueError("night_slowdown must be >= 1")
        if self.day_seconds <= 0:
            raise ValueError("day_seconds must be positive")

    def think_multiplier(self, now: float) -> float:
        """Factor to stretch a think time sampled at simulated time *now*."""
        phase = 2 * math.pi * (now / self.day_seconds - self.peak_hour / 24.0)
        # cos(phase)=1 at the peak, -1 twelve hours away.
        depth = (1.0 - math.cos(phase)) / 2.0  # 0 at peak, 1 at trough
        return 1.0 + (self.night_slowdown - 1.0) * depth


def zipf_weights(n: int, skew: float = 1.0) -> list[float]:
    """Zipf-like popularity weights for *n* items (item 0 most popular).

    Used for file popularity inside a category: a handful of headers,
    commands and libraries absorb most of the re-reads, which is what
    gives the disk caches of Section 6 their read locality.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    return [1.0 / (i + 1) ** skew for i in range(n)]
