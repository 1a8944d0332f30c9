"""Checks of the end-to-end benchmark itself, at reduced sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not part of the tier-1 suite: each test drives a real workload (the
gethash-http and ingest-live ones over loopback sockets) for about a
second on the SMALL corpus.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.scale import SMALL  # noqa: E402
from repro.safebrowsing.client import SafeBrowsingClient  # noqa: E402
from repro.safebrowsing.httptransport import HttpTransport  # noqa: E402
from repro.safebrowsing.protocol import Verdict  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = 1.5


def small(name: str, seed: int = 1) -> workloads.Workload:
    """A workload on the SMALL corpus (and a small bulk load for ingest-live)."""
    if name == "ingest-live":
        return workloads.IngestLive(seed, scale=SMALL, bulk_entries=500)
    if name in ("browse", "crawl"):
        return workloads.WORKLOADS[name](seed, scale=SMALL, clients=3)
    return workloads.WORKLOADS[name](seed, scale=SMALL)


def test_spec_lists_every_workload():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_end_to_end_metric_is_emitted_finite_with_its_unit(name):
    result = workloads.measure(small(name), SECONDS, setup_repeats=2)
    metrics = run.with_units(result["metrics"], SPEC, "end_to_end")
    assert set(metrics) == set(result["metrics"])
    for metric, entry in metrics.items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, metric
        assert entry["unit"], metric
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["extras"]) <= set(workloads.EXTRA_UNITS)


@pytest.mark.parametrize("name", ["gethash-http", "ingest-live"])
def test_trace_spans_nest_and_emit_every_per_layer_metric(name, tmp_path):
    result = workloads.measure_traced(small(name), 2 * SECONDS,
                                      trace_path=tmp_path / "trace.json",
                                      scratch=tmp_path)
    metrics = run.with_units(result["metrics"], SPEC, "per_layer")
    assert all(math.isfinite(entry["value"]) for entry in metrics.values())
    events = result["events"]
    assert events
    threads = {event[3] for event in events}
    crossing = 0
    for name_, start, end, thread, parent in events:
        assert start <= end, name_
        if parent >= 0:
            _, parent_start, parent_end, parent_thread, _ = events[parent]
            assert parent_start <= start and end <= parent_end, (name_, events[parent][0])
            crossing += thread != parent_thread
    # The service thread's spans hang off the client transport span.
    assert len(threads) == 2 and crossing > 0
    assert metrics["loadgen.span_coverage"]["value"] > 0.5
    layers = {layer for layer, _, _ in result["budget"]}
    assert {"server", "wireformat", "netservice", "loadgen"} <= layers
    assert json.loads((tmp_path / "trace.json").read_text())["traceEvents"]


@pytest.mark.parametrize("name", ["browse", "crawl", "ingest-live"])
def test_one_flipped_verdict_fails_the_oracle(name, monkeypatch):
    original = SafeBrowsingClient.check_urls
    flipped = []

    def flip_one(self, urls):
        results = original(self, urls)
        for position, result in enumerate(results):
            if not flipped and result.verdict is Verdict.MALICIOUS:
                results[position] = dataclasses.replace(result, verdict=Verdict.SAFE)
                flipped.append(result.url)
        return results

    monkeypatch.setattr(SafeBrowsingClient, "check_urls", flip_one)
    with pytest.raises(workloads.OracleError):
        workloads.measure(small(name), SECONDS, setup_repeats=1)
    assert len(flipped) == 1


def test_one_dropped_gethash_match_fails_the_oracle(monkeypatch):
    original = HttpTransport.send_full_hash
    dropped = []

    def drop_one(self, request):
        response = original(self, request)
        if not dropped and response.matches:
            dropped.append(response.matches[0])
            return dataclasses.replace(response, matches=response.matches[1:])
        return response

    monkeypatch.setattr(HttpTransport, "send_full_hash", drop_one)
    with pytest.raises(workloads.OracleError):
        workloads.measure(small("gethash-http"), SECONDS, setup_repeats=1)
    assert len(dropped) == 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_come_from_the_seed(name):
    digests = {}
    for seed in (1, 2, 1):
        workload = small(name, seed)
        system = workload.setup()
        try:
            digests.setdefault(seed, set()).add(workload.inputs_digest(system))
        finally:
            system.close()
    assert len(digests[1]) == 1
    assert digests[1] != digests[2]


def test_compare_refuses_other_inputs_and_judges_bounds():
    import compare

    def record(digest, value, cpus=2):
        return {"workload": "crawl", "trace": 0, "inputs_digest": digest,
                "recorded_at": "t", "host": {"cpu_count": cpus},
                "metrics": {entry["name"]: {"value": value} for entry in SPEC["end_to_end"]}}

    same = [record("a", 10.0), record("b", 10.2), record("c", 9.9)]
    rows = compare.compare(same, [record("a", 10.1), record("b", 10.0), record("c", 9.9)], SPEC)
    assert {row[-1] for row in rows} == {"within bound"}
    slower = [record("a", 13.0), record("b", 13.1), record("c", 12.9)]
    verdicts = {row[1]: row[-1] for row in compare.compare(same, slower, SPEC)}
    assert verdicts["setup_s"] == "worse" and verdicts["ops_per_s"] == "better"
    with pytest.raises(compare.NotComparable):
        compare.compare(same, [record("x", 10.0)] + same[1:], SPEC)
    with pytest.raises(compare.NotComparable):
        compare.compare(same, [record("a", 10.0, cpus=4)] + same[1:], SPEC)
