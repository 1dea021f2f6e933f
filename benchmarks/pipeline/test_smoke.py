"""Smoke test of the pipeline benchmark: each workload at a tiny size.

Runs one round of each workload, traced, through the same functions the
command line uses, and checks that every metric ``BENCHMARK.json`` names
comes out with its unit, that no call failed, and that the spans of a
round fit inside the round's elapsed time.  Run with the benchmarks:

    PYTHONPATH=src python -m pytest benchmarks/pipeline -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
#: Simulated hours per trace, small enough for a few seconds per workload.
TINY_HOURS = {"paper-a5": 0.5, "policy-zoo": 0.25, "corpus-query": 0.25}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload(name, tmp_path):
    rec, setup_s, completed = run.measure(
        workloads.WORKLOADS[name],
        seed=3,
        seconds=0,
        scratch=tmp_path,
        trace=True,
        hours=TINY_HOURS[name],
    )
    assert completed
    assert rec.calls
    assert [c.key for c in rec.calls if c.failed] == []  # ops_failed_ratio == 0

    emitted = {
        "end_to_end": run.end_to_end(rec, setup_s),
        "per_layer": run.per_layer(rec, workloads.SPAN_RATE_UNITS),
    }
    for kind, metrics in emitted.items():
        units = {name: metric.unit for name, metric in metrics.items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}

    for rnd, elapsed in enumerate(rec.elapsed):
        self_s = sum(c.seconds for c in rec.calls if c.round == rnd)
        assert 0 < self_s <= elapsed
        assert self_s == pytest.approx(rec.round_walls()[rnd])
