"""Integration tests for the HTTP service: endpoints, concurrency,
cache invalidation under live traffic, and the loadgen round trip."""

import http.client
import io
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.errors import ServiceOverloadError, ServiceUnavailableError
from repro.service.engine import ServiceEngine
from repro.service.loadgen import LoadgenConfig, run_loadgen
from repro.service.server import ServiceRequestHandler, create_server


def _request(base_url, method, path, body=None, timeout=30.0):
    """Returns (status, payload) without raising on 4xx/5xx."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        base_url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def _synthetic_spec(video_id, seed=0, n_shots=3):
    return {
        "source": "synthetic",
        "video_id": video_id,
        "n_shots": n_shots,
        "frames_per_shot": 6,
        "seed": seed,
    }


@pytest.fixture(scope="module")
def service():
    """A live server seeded with one synthetic clip."""
    engine = ServiceEngine(n_workers=2, cache_capacity=128)
    engine.wait_for(engine.submit_spec(_synthetic_spec("seed-clip", seed=9)).job_id, 60)
    server = create_server(engine)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield engine, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    engine.shutdown()


class TestEndpoints:
    def test_health(self, service):
        _, base_url = service
        status, payload = _request(base_url, "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["videos"] >= 1
        assert payload["indexed_shots"] >= 3

    def test_catalog_and_shots_and_tree(self, service):
        _, base_url = service
        status, catalog = _request(base_url, "GET", "/videos")
        assert status == 200
        assert any(v["video_id"] == "seed-clip" for v in catalog["videos"])
        status, shots = _request(base_url, "GET", "/videos/seed-clip/shots")
        assert status == 200
        assert shots["count"] == 3
        assert shots["shots"][0]["shot"].startswith("#1@")
        status, tree = _request(base_url, "GET", "/videos/seed-clip/tree")
        assert status == 200
        assert tree["n_shots"] == 3 and tree["height"] >= 1

    def test_query_get_and_post_agree(self, service):
        _, base_url = service
        status, via_post = _request(
            base_url, "POST", "/query",
            {"var_ba": 0.0, "var_oa": 0.0, "alpha": 1e6, "beta": 1e6},
        )
        assert status == 200
        status, via_get = _request(
            base_url, "GET", "/query?var_ba=0&var_oa=0&alpha=1e6&beta=1e6"
        )
        assert status == 200
        assert via_get["matches"] == via_post["matches"]
        assert via_post["count"] == len(via_post["matches"])

    def test_unknown_video_is_404(self, service):
        _, base_url = service
        for leaf in ("shots", "tree"):
            status, payload = _request(base_url, "GET", f"/videos/nope/{leaf}")
            assert status == 404
            assert "nope" in payload["error"]

    def test_unknown_route_is_404(self, service):
        _, base_url = service
        status, _ = _request(base_url, "GET", "/frobnicate")
        assert status == 404

    def test_bad_query_is_400(self, service):
        _, base_url = service
        status, payload = _request(base_url, "POST", "/query", {"var_ba": 1.0})
        assert status == 400 and "var_oa" in payload["error"]
        status, _ = _request(base_url, "GET", "/query?var_ba=x&var_oa=1")
        assert status == 400
        status, _ = _request(base_url, "POST", "/query", {"var_ba": -1, "var_oa": 0})
        assert status == 400  # QueryError from the model layer

    def test_bad_ingest_is_400_and_unknown_job_404(self, service):
        _, base_url = service
        status, _ = _request(base_url, "POST", "/ingest", {"source": "webcam"})
        assert status == 400
        status, _ = _request(base_url, "GET", "/jobs/job-12345")
        assert status == 404

    def test_metrics_structure(self, service):
        _, base_url = service
        _request(base_url, "GET", "/health")
        status, metrics = _request(base_url, "GET", "/metrics")
        assert status == 200
        health = metrics["requests"]["GET /health"]
        assert health["count"] >= 1
        assert health["latency"]["count"] == health["count"]
        assert health["latency"]["p50_ms"] <= health["latency"]["p99_ms"]
        assert set(metrics["query_cache"]) >= {"hits", "misses", "hit_rate"}


class TestConcurrentIngestAndQuery:
    def test_queries_stay_consistent_while_ingest_commits(self, service):
        """Readers under live ingest see either the old or the new corpus,
        never a torn in-between, and the cache refreshes post-ingest."""
        engine, base_url = service
        query = {"var_ba": 0.0, "var_oa": 0.0, "alpha": 1e9, "beta": 1e9}
        status, before = _request(base_url, "POST", "/query", query)
        assert status == 200
        base_count = before["count"]
        new_shots = 4

        results = []
        errors = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    status, payload = _request(base_url, "POST", "/query", query)
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(repr(exc))
                    return
                if status != 200:
                    errors.append(f"status {status}: {payload}")
                    return
                results.append(payload)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        status, submitted = _request(
            base_url, "POST", "/ingest",
            _synthetic_spec("concurrent-clip", seed=11, n_shots=new_shots),
        )
        assert status == 202
        job_id = submitted["job_id"]
        deadline_payload = None
        for _ in range(600):
            _, deadline_payload = _request(base_url, "GET", f"/jobs/{job_id}")
            if deadline_payload["status"] in ("done", "failed"):
                break
            threading.Event().wait(0.02)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert deadline_payload["status"] == "done", deadline_payload

        assert not errors, errors
        assert results
        observed_counts = {payload["count"] for payload in results}
        # Atomic publish: only the pre- and post-ingest corpus sizes are
        # ever observable, never a partially-registered video.
        assert observed_counts <= {base_count, base_count + new_shots}
        for payload in results:
            assert payload["count"] == len(payload["matches"]) == len(payload["routes"])

        # The cache was invalidated by the commit: the same query now
        # reports the new shots (served fresh, then cached again).
        status, after = _request(base_url, "POST", "/query", query)
        assert status == 200
        assert after["count"] == base_count + new_shots
        assert any(
            match["video_id"] == "concurrent-clip" for match in after["matches"]
        )
        assert engine.cache.stats()["invalidations"] >= 1


class _RecordingSocket:
    """A socket stand-in: serves one raw request, records every write."""

    def __init__(self, raw):
        self._raw = raw
        self.writes = []
        self.options = []

    def makefile(self, mode, buffering=-1):
        return io.BytesIO(self._raw)

    def setsockopt(self, level, option, value):
        self.options.append((level, option, value))

    def settimeout(self, timeout):
        pass

    def sendall(self, data):
        self.writes.append(bytes(data))


def _serve_raw(engine, raw, max_body_bytes=1024):
    """Run the handler on one raw request; returns the recording socket."""
    sock = _RecordingSocket(raw)
    server = SimpleNamespace(engine=engine, max_body_bytes=max_body_bytes)
    ServiceRequestHandler(sock, ("127.0.0.1", 0), server)
    return sock


def _post(path, body, content_length=None):
    data = json.dumps(body).encode("utf-8")
    length = len(data) if content_length is None else content_length
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode("ascii") + data


def _parse(write):
    head, _, body = write.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    return int(status_line.split()[1]), headers, body


class TestOneWritePerResponse:
    """Each response reaches the socket in exactly one write, so no part
    of it waits behind Nagle's algorithm for the client's delayed ACK."""

    def _one_response(self, engine, raw, **kwargs):
        sock = _serve_raw(engine, raw, **kwargs)
        assert len(sock.writes) == 1, sock.writes
        status, headers, body = _parse(sock.writes[0])
        assert int(headers["Content-Length"]) == len(body)
        assert (socket.IPPROTO_TCP, socket.TCP_NODELAY, True) in sock.options
        return status, headers, json.loads(body)

    def test_200(self, service):
        engine, _ = service
        status, headers, payload = self._one_response(
            engine, b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert status == 200 and payload["status"] == "ok"
        assert "Connection" not in headers  # the connection stays open

    def test_http09_request_gets_the_bare_body(self, service):
        engine, _ = service
        sock = _serve_raw(engine, b"GET /health\r\n")
        assert len(sock.writes) == 1
        assert json.loads(sock.writes[0])["status"] == "ok"

    def test_202(self, service):
        engine, _ = service
        status, _, payload = self._one_response(
            engine, _post("/ingest", _synthetic_spec("one-write-clip", seed=5))
        )
        assert status == 202 and payload["job_id"]
        engine.wait_for(payload["job_id"], 60)

    def test_404(self, service):
        engine, _ = service
        status, _, payload = self._one_response(
            engine, b"GET /no/such/route HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert status == 404 and "error" in payload

    def test_400(self, service):
        engine, _ = service
        status, _, _ = self._one_response(engine, _post("/query", {"var_ba": 1.0}))
        assert status == 400

    def test_413_closes_the_connection(self, service):
        engine, _ = service
        status, headers, payload = self._one_response(
            engine, _post("/query", {}, content_length=4096), max_body_bytes=1024
        )
        assert status == 413 and payload["reason"] == "body_too_large"
        assert headers["Connection"] == "close"

    def test_429_with_retry_after(self, service, monkeypatch):
        engine, _ = service

        def full(spec):
            raise ServiceOverloadError("ingest queue full", retry_after=2.0)

        monkeypatch.setattr(engine, "submit_spec", full)
        status, headers, payload = self._one_response(
            engine, _post("/ingest", _synthetic_spec("never"))
        )
        assert status == 429 and payload["reason"] == "overloaded"
        assert headers["Retry-After"] == "2"

    def test_503_with_retry_after(self, service, monkeypatch):
        engine, _ = service

        def draining(**kwargs):
            raise ServiceUnavailableError("draining", retry_after=3.0)

        monkeypatch.setattr(engine, "query", draining)
        status, headers, payload = self._one_response(
            engine, _post("/query", {"var_ba": 1.0, "var_oa": 1.0})
        )
        assert status == 503 and payload["reason"] == "draining"
        assert headers["Retry-After"] == "3"


class TestKeepAliveLatency:
    def test_sequential_requests_on_one_connection(self, service):
        """30 mixed requests on one keep-alive connection.  A per-request
        delayed-ACK stall would put the median near 40 ms."""
        _, base_url = service
        host, port = base_url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.request(
                "POST", "/ingest", body=json.dumps(_synthetic_spec("keepalive-clip", seed=3))
            )
            response = conn.getresponse()
            job_id = json.loads(response.read())["job_id"]
            sock = conn.sock
            paths = ["/query", "/videos/seed-clip/tree", f"/jobs/{job_id}", "/videos/nope/tree"]
            latencies, statuses = [], []
            for k in range(30):
                path = paths[k % len(paths)]
                method, body = "GET", None
                if path == "/query":  # distinct points: no cache hits
                    method = "POST"
                    body = json.dumps({"var_ba": float(k), "var_oa": k / 2, "limit": 5})
                started = time.perf_counter()
                conn.request(method, path, body=body)
                response = conn.getresponse()
                response.read()
                latencies.append(time.perf_counter() - started)
                statuses.append(response.status)
                assert conn.sock is sock, "the server closed the keep-alive connection"
        finally:
            conn.close()
        assert set(statuses) == {200, 404}
        assert statistics.median(latencies) < 0.015, latencies


class TestLoadgenRoundTrip:
    def test_mixed_workload_zero_failures(self, service):
        _, base_url = service
        report = run_loadgen(
            LoadgenConfig(
                base_url=base_url,
                n_requests=80,
                workers=3,
                ingests=1,
                query_pool=6,
                seed=21,
            )
        )
        assert report["failed_requests"] == 0
        assert report["ingest_failures"] == []
        assert report["total_requests"] >= 80
        assert report["throughput_rps"] > 0
        ops = report["operations"]
        assert {"query", "catalog", "ingest_submit", "job_poll"} <= set(ops)
        for stats in ops.values():
            assert stats["p50_ms"] <= stats["p90_ms"] <= stats["p99_ms"] <= stats["max_ms"]
        cache = report["server_metrics"]["query_cache"]
        assert cache["hits"] > 0  # the pooled query points repeated
        assert report["server_metrics"]["requests"]["POST /query"]["count"] > 0
