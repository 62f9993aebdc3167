"""Service bench: throughput/latency of the concurrent serving layer.

Boots a real ``ThreadingHTTPServer`` on an ephemeral port, seeds it
with synthetic clips, and drives it with the loadgen's mixed
ingest/query workload — the end-to-end path a production deployment
would exercise.  Asserts the acceptance bar (zero failed requests,
nonzero cache hit rate) and attaches the throughput/latency summary.

The mixed workload runs twice: over persistent keep-alive connections
(one per client thread, how clients normally talk to the service) and
with a new connection per request.  A third, one-client keep-alive run
of queries alone is gated: its query p50 must stay within 2x the
in-process ``ServiceEngine.query`` p50 on the same points plus a fixed
loopback allowance, which a per-request TCP stall (Nagle's algorithm
against delayed ACK, ~40 ms) cannot meet.  (The 4-worker runs are not
gated: client and server share one interpreter here, so their p50 is
mostly queueing for its lock.)  The artifact records all three modes, a
``host`` block and the ``gates`` list; a missed gate exits non-zero
without writing it.

A second scenario deliberately overloads a bounded server: an ingest
burst at 2x saturation (queue capacity + in-flight slots) while query
traffic keeps flowing.  The acceptance bar there is the overload
contract: every burst submit answers 202 or 429 (never 5xx), the queue
depth stays within its bound, query p99 stays sane, and every accepted
job completes after the burst.

Run as a bench:

    PYTHONPATH=src pytest benchmarks/bench_service.py --benchmark-only

or standalone, writing ``BENCH_service.json``:

    PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.service.engine import ServiceEngine
from repro.service.loadgen import LoadgenConfig, query_points, run_loadgen
from repro.service.server import create_server
from repro.testing.chaos import run_overload_burst


#: Loopback allowance of the keep-alive gate: what the kernel's
#: loopback round trip, HTTP parsing and JSON coding on both ends may add
#: over the engine call (one-client p50 measured 0.66-0.87 ms on a
#: 2-core host).
LOOPBACK_ALLOWANCE_MS = 2.0
#: In-process ``ServiceEngine.query`` calls timed per pool point.
IN_PROCESS_REPEATS = 50


def run_service_workload(
    n_requests: int = 400,
    workers: int = 4,
    ingests: int = 2,
    seed_clips: int = 3,
    seed: int = 42,
    keepalive: bool = True,
) -> dict[str, Any]:
    """One full serve + loadgen round trip; returns the loadgen report.

    The report gains ``in_process_query_p50_ms``: the median of
    ``ServiceEngine.query`` called directly on the loadgen's own query
    points after the run, the floor the HTTP answer is gated against.
    """
    engine = ServiceEngine(n_workers=2, cache_capacity=256)
    try:
        for k in range(seed_clips):
            engine.submit_spec(
                {
                    "source": "synthetic",
                    "video_id": f"bench-seed-{k}",
                    "n_shots": 4,
                    "frames_per_shot": 6,
                    "seed": seed + k,
                }
            )
        engine.drain(timeout=120)
        server = create_server(engine)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        config = LoadgenConfig(
            base_url=f"http://{host}:{port}",
            n_requests=n_requests,
            workers=workers,
            ingests=ingests,
            seed=seed,
            keepalive=keepalive,
        )
        try:
            report = run_loadgen(config)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        timings = []
        for var_ba, var_oa in query_points(config) * IN_PROCESS_REPEATS:
            started = time.perf_counter()
            engine.query(var_ba=var_ba, var_oa=var_oa, limit=5)
            timings.append(time.perf_counter() - started)
        report["in_process_query_p50_ms"] = round(statistics.median(timings) * 1e3, 4)
    finally:
        engine.shutdown()
    return report


def _check(report: dict[str, Any]) -> None:
    assert report["failed_requests"] == 0, report
    assert not report["ingest_failures"], report["ingest_failures"]
    cache = report["server_metrics"]["query_cache"]
    assert cache["hits"] > 0, "query cache never hit"
    assert cache["invalidations"] >= 1, "ingest did not invalidate the cache"
    requests = report["server_metrics"]["requests"]
    assert "POST /query" in requests and requests["POST /query"]["count"] > 0


def run_overload_scenario(
    max_queue: int = 4,
    n_workers: int = 1,
    burst_factor: int = 2,
    n_queries: int = 150,
    seed: int = 7,
) -> dict[str, Any]:
    """Drive a bounded server at ``burst_factor``x saturation.

    Saturation is ``max_queue + n_workers`` concurrently-holdable jobs;
    the burst submits ``burst_factor`` times that, all at once, while a
    query-only loadgen run measures read-path latency through the
    storm.  Returns a combined report (burst tally, query percentiles,
    queue-depth peak, post-burst job outcomes).
    """
    engine = ServiceEngine(
        n_workers=n_workers,
        cache_capacity=64,
        max_queue=max_queue,
        # Each ingest attempt pauses briefly so the queue stays full
        # for the duration of the burst instead of draining between
        # submissions — otherwise "2x saturation" would be a race.
        ingest_hook=lambda clip: time.sleep(0.05),
    )
    try:
        seeded = engine.submit_spec(
            {
                "source": "synthetic",
                "video_id": "overload-seed",
                "n_shots": 4,
                "frames_per_shot": 6,
                "seed": seed,
            }
        )
        engine.wait_for(seeded.job_id, timeout=120)
        server = create_server(engine)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base_url = f"http://{host}:{port}"
        capacity = max_queue + n_workers
        n_jobs = burst_factor * capacity
        query_report: dict[str, Any] = {}

        def run_queries() -> None:
            query_report.update(
                run_loadgen(
                    LoadgenConfig(
                        base_url=base_url,
                        n_requests=n_queries,
                        workers=2,
                        ingests=0,
                        seed=seed,
                    )
                )
            )

        query_thread = threading.Thread(target=run_queries, name="overload-queries")
        query_thread.start()
        try:
            burst = run_overload_burst(
                base_url, n_jobs, workers=capacity, seed=seed
            )
        finally:
            query_thread.join(timeout=120)
        engine.drain(timeout=120)
        job_statuses: dict[str, int] = {}
        for job_id in burst["accepted_job_ids"]:
            status = engine.job(job_id).status.value
            job_statuses[status] = job_statuses.get(status, 0) + 1
        metrics = engine.metrics_payload()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    finally:
        engine.shutdown()
    return {
        "config": {
            "max_queue": max_queue,
            "n_workers": n_workers,
            "burst_factor": burst_factor,
            "burst_jobs": n_jobs,
        },
        "burst": burst,
        "rejection_rate": round(burst["rejected_429"] / burst["submitted"], 4),
        "accepted_job_statuses": job_statuses,
        "query_p99_ms": query_report.get("operations", {})
        .get("query", {})
        .get("p99_ms"),
        "query_failed": query_report.get("failed_requests"),
        "queue_depth_peak": metrics["gauges"].get("ingest_queue_depth_peak", 0),
        "breaker": metrics["overload"]["breaker"]["state"],
    }


def _check_overload(report: dict[str, Any]) -> None:
    burst = report["burst"]
    assert burst["server_errors"] == 0, burst
    assert burst["transport_errors"] == 0, burst
    assert burst["rejected_429"] >= 1, "burst never saturated the queue"
    assert len(burst["accepted_job_ids"]) >= 1, burst
    assert (
        len(burst["accepted_job_ids"]) + burst["rejected_429"] == burst["submitted"]
    ), burst
    bound = report["config"]["max_queue"]
    assert report["queue_depth_peak"] <= bound, report
    assert report["accepted_job_statuses"] == {
        "done": len(burst["accepted_job_ids"])
    }, report["accepted_job_statuses"]
    assert report["query_failed"] == 0, report
    assert report["breaker"] == "closed", report


def bench_service_mixed_workload(benchmark):
    """Mixed 4-worker query/browse/ingest workload against a live server."""
    report = benchmark.pedantic(run_service_workload, rounds=1, iterations=1)
    _check(report)
    benchmark.extra_info["throughput_rps"] = report["throughput_rps"]
    benchmark.extra_info["failed_requests"] = report["failed_requests"]
    benchmark.extra_info["cache"] = report["server_metrics"]["query_cache"]
    benchmark.extra_info["operations"] = report["operations"]


def bench_service_overload(benchmark):
    """Ingest burst at 2x saturation against a queue-bounded server."""
    report = benchmark.pedantic(run_overload_scenario, rounds=1, iterations=1)
    _check_overload(report)
    benchmark.extra_info["rejection_rate"] = report["rejection_rate"]
    benchmark.extra_info["query_p99_ms"] = report["query_p99_ms"]
    benchmark.extra_info["queue_depth_peak"] = report["queue_depth_peak"]


def host_info() -> dict[str, Any]:
    """Provenance of a run: commit (``-dirty`` with uncommitted
    changes), cores, interpreter and numpy."""
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def connection_summary(report: dict[str, Any]) -> dict[str, Any]:
    """Query p50/p99 and throughput of one loadgen run."""
    query = report["operations"]["query"]
    return {
        "query_count": query["count"],
        "query_p50_ms": query["p50_ms"],
        "query_p99_ms": query["p99_ms"],
        "throughput_rps": report["throughput_rps"],
    }


def keepalive_gate(keepalive_p50_ms: float, in_process_p50_ms: float) -> dict[str, Any]:
    """Keep-alive query p50 <= 2x in-process p50 + the loopback allowance."""
    bar = 2.0 * in_process_p50_ms + LOOPBACK_ALLOWANCE_MS
    return {
        "name": "keepalive_one_client_query_p50_ms",
        "bar": round(bar, 4),
        "measured": keepalive_p50_ms,
        "pass": keepalive_p50_ms <= bar,
    }


def main() -> None:
    mixed = run_service_workload()
    _check(mixed)
    fresh = run_service_workload(keepalive=False)
    _check(fresh)
    one_client = run_service_workload(n_requests=200, workers=1, ingests=0)
    assert one_client["failed_requests"] == 0, one_client
    connections = {
        "keepalive": connection_summary(mixed),
        "new_connection": connection_summary(fresh),
        "keepalive_one_client": connection_summary(one_client),
    }
    in_process_p50_ms = one_client["in_process_query_p50_ms"]
    gates = [
        keepalive_gate(
            connections["keepalive_one_client"]["query_p50_ms"], in_process_p50_ms
        )
    ]
    overload = run_overload_scenario()
    _check_overload(overload)
    report = {
        "host": host_info(),
        "gates": gates,
        "connections": dict(connections, in_process_query_p50_ms=in_process_p50_ms),
        "mixed_workload": mixed,
        "new_connection_workload": fresh,
        "overload": overload,
    }
    missed = [gate for gate in gates if not gate["pass"]]
    if missed:
        print(json.dumps(report, indent=2), file=sys.stderr)
        raise SystemExit(f"bench_service: gate missed, artifact not written: {missed}")
    out = Path(__file__).resolve().parent.parent / "BENCH_service.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for mode, stats in connections.items():
        print(
            f"{mode}: query p50 {stats['query_p50_ms']}ms "
            f"p99 {stats['query_p99_ms']}ms over {stats['query_count']} queries, "
            f"{stats['throughput_rps']} req/s"
        )
    print(
        f"gate {gates[0]['name']}: {gates[0]['measured']}ms <= {gates[0]['bar']}ms "
        f"(in-process p50 {in_process_p50_ms}ms)"
    )
    print(
        f"mixed: {mixed['total_requests']} requests, "
        f"{mixed['throughput_rps']} req/s, "
        f"{mixed['failed_requests']} failed"
    )
    print(
        f"overload: {overload['burst']['submitted']} burst submits, "
        f"{overload['rejection_rate']:.0%} rejected with 429, "
        f"query p99 {overload['query_p99_ms']}ms, "
        f"queue peak {overload['queue_depth_peak']} "
        f"(bound {overload['config']['max_queue']}) -> {out}"
    )


if __name__ == "__main__":
    main()
