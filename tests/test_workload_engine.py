"""Tests for the discrete-event engine and distributions."""

import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import Clock
from repro.workload.distributions import (
    BurstyThinkTime,
    Mixture,
    WeightedChoice,
    bounded_exponential,
    bounded_lognormal,
    zipf_weights,
)
from repro.workload.engine import Engine


class TestEngine:
    def test_processes_interleave_by_time(self):
        clock = Clock()
        order = []

        def proc(name, delays):
            for d in delays:
                order.append((name, clock.now()))
                yield d
            order.append((name, clock.now()))

        engine = Engine(clock)
        engine.spawn(proc("a", [2.0, 2.0]))
        engine.spawn(proc("b", [3.0]))
        engine.run(until=10.0)
        assert order == [
            ("a", 0.0), ("b", 0.0), ("a", 2.0), ("b", 3.0), ("a", 4.0),
        ]

    def test_spawn_delay(self):
        clock = Clock()
        seen = []

        def proc():
            seen.append(clock.now())
            yield 0.0

        engine = Engine(clock)
        engine.spawn(proc(), delay=5.0)
        engine.run(until=10.0)
        assert seen == [5.0]

    def test_horizon_stops_and_advances_clock(self):
        clock = Clock()

        def proc():
            while True:
                yield 1.0

        engine = Engine(clock)
        engine.spawn(proc())
        engine.run(until=7.5)
        assert clock.now() == pytest.approx(7.5)
        assert engine.pending == 0

    def test_processes_closed_at_horizon(self):
        clock = Clock()
        cleaned = []

        def proc():
            try:
                while True:
                    yield 100.0
            finally:
                cleaned.append(True)

        engine = Engine(clock)
        engine.spawn(proc())
        engine.run(until=10.0)
        assert cleaned == [True]

    def test_negative_yield_rejected(self):
        clock = Clock()

        def proc():
            yield -1.0

        engine = Engine(clock)
        engine.spawn(proc())
        with pytest.raises(ValueError, match="delay"):
            engine.run(until=10.0)

    def test_negative_spawn_delay_rejected(self):
        engine = Engine(Clock())
        with pytest.raises(ValueError):
            engine.spawn(iter(()), delay=-1.0)

    def test_same_time_fifo(self):
        clock = Clock()
        order = []

        def proc(name):
            order.append(name)
            yield 0.0
            order.append(name)

        engine = Engine(clock)
        engine.spawn(proc("a"))
        engine.spawn(proc("b"))
        engine.run(until=1.0)
        assert order == ["a", "b", "a", "b"]

    def test_resumption_counter(self):
        clock = Clock()

        def proc():
            yield 1.0
            yield 1.0

        engine = Engine(clock)
        engine.spawn(proc())
        engine.run(until=10.0)
        assert engine.resumptions == 3  # start + two resumes (last raises StopIteration)


class _HeapOnlyEngine:
    """The engine's loop before its fast path, kept as the spec: every
    resumption goes through the heap."""

    def __init__(self, clock):
        self.clock = clock
        self.heap = []
        self.seq = 0
        self.resumptions = 0

    def spawn(self, process, delay=0.0):
        heapq.heappush(self.heap, (self.clock.now() + delay, self.seq, process))
        self.seq += 1

    def run(self, until):
        heap, clock = self.heap, self.clock
        while heap and heap[0][0] <= until:
            when, _seq, process = heapq.heappop(heap)
            clock.set(max(clock.now(), when))
            self.resumptions += 1
            try:
                delay = next(process)
            except StopIteration:
                continue
            if delay is None or delay < 0:
                raise ValueError(f"process yielded invalid delay {delay!r}")
            self.spawn(process, delay)
        if clock.now() < until:
            clock.set(until)
        for _when, _seq, process in heap:
            process.close()
        heap.clear()


# A script step sleeps for a delay drawn from a few values (so wake times
# collide, zero included) or spawns a child script after such a delay.
_DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0])
_SCRIPT = st.recursive(
    st.lists(_DELAYS, max_size=6),
    lambda child: st.lists(st.one_of(_DELAYS, st.tuples(_DELAYS, child)), max_size=6),
    max_leaves=12,
)


def _process(name, script, engine, log, closed):
    """Log each resumption as (name, time); log a close at the horizon."""
    try:
        for i, step in enumerate(script):
            log.append((name, engine.clock.now()))
            if isinstance(step, tuple):
                delay, child = step
                engine.spawn(_process(f"{name}.{i}", child, engine, log, closed), delay)
                yield 0.0
            else:
                yield step
        log.append((name, engine.clock.now()))
    except GeneratorExit:
        closed.append(name)
        raise


class TestEngineFastPath:
    @settings(max_examples=300, deadline=None)
    @given(
        scripts=st.lists(st.tuples(_DELAYS, _SCRIPT), min_size=1, max_size=5),
        until=st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 100.0]),
    )
    def test_matches_heap_only_loop(self, scripts, until):
        runs = []
        for make in (Engine, _HeapOnlyEngine):
            clock, log, closed = Clock(), [], []
            engine = make(clock)
            for name, (delay, script) in enumerate(scripts):
                engine.spawn(_process(str(name), script, engine, log, closed), delay)
            engine.run(until=until)
            runs.append((log, engine.resumptions, sorted(closed), clock.now()))
        assert runs[0] == runs[1]

    def test_negative_delay_in_fast_path_rejected(self):
        clock = Clock()
        seen = []

        def proc():
            yield 1.0
            seen.append(clock.now())
            yield -1.0  # resumed straight away: nothing else waits

        engine = Engine(clock)
        engine.spawn(proc())
        with pytest.raises(ValueError, match="delay"):
            engine.run(until=10.0)
        assert seen == [1.0]


class TestClock:
    def test_advance_and_set(self):
        clock = Clock()
        clock.advance(2.5)
        clock.set(4.0)
        assert clock.now() == 4.0
        assert clock() == 4.0

    def test_backwards_rejected(self):
        clock = Clock(start=5.0)
        with pytest.raises(ValueError):
            clock.set(1.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestDistributions:
    def test_bounded_lognormal_respects_bounds(self, rng):
        for _ in range(200):
            v = bounded_lognormal(rng, median=1000, sigma=2.0, low=10, high=5000)
            assert 10 <= v <= 5000

    def test_bounded_lognormal_bad_bounds(self, rng):
        with pytest.raises(ValueError):
            bounded_lognormal(rng, 100, 1.0, low=10, high=5)

    def test_bounded_exponential(self, rng):
        for _ in range(200):
            assert 0.5 <= bounded_exponential(rng, 2.0, low=0.5, high=10) <= 10

    def test_weighted_choice_respects_weights(self, rng):
        choice = WeightedChoice([("a", 0.0), ("b", 1.0)])
        assert all(choice.sample(rng) == "b" for _ in range(50))

    def test_weighted_choice_validation(self):
        with pytest.raises(ValueError):
            WeightedChoice([])
        with pytest.raises(ValueError):
            WeightedChoice([("a", -1.0)])
        with pytest.raises(ValueError):
            WeightedChoice([("a", 0.0)])

    def test_mixture_samples_components(self, rng):
        mix = Mixture([(1.0, lambda r: 1.0), (1.0, lambda r: 2.0)])
        values = {mix.sample(rng) for _ in range(100)}
        assert values == {1.0, 2.0}

    def test_bursty_think_time_bimodal(self):
        rng = random.Random(5)
        think = BurstyThinkTime(burst_mean=1.0, idle_mean=1000.0, idle_prob=0.5)
        samples = [think.sample(rng) for _ in range(500)]
        assert min(samples) >= think.minimum
        assert any(s > 100 for s in samples)
        assert any(s < 5 for s in samples)

    def test_zipf_weights_decreasing_and_positive(self):
        weights = zipf_weights(10, skew=1.0)
        assert weights == sorted(weights, reverse=True)
        assert all(w > 0 for w in weights)
        with pytest.raises(ValueError):
            zipf_weights(0)

    def test_determinism_with_same_seed(self):
        a = [bounded_lognormal(random.Random(3), 100, 1.0, 1, 1e6) for _ in range(5)]
        b = [bounded_lognormal(random.Random(3), 100, 1.0, 1, 1e6) for _ in range(5)]
        assert a == b
