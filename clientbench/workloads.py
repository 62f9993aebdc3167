"""The client-side workloads and their end-to-end metrics.

Every workload runs the same skeleton:

1. build its inputs from the seed (store, query points, clips);
2. launch the server ``SETUP_LAUNCHES`` times, timing launch to first
   correct answer (``setup_s`` is the median); the last launch serves
   the rest of the run;
3. drive its phases over at most two keep-alive connections;
4. crash-stop the server (SIGKILL), ``repro fsck`` the store, reopen it
   and check that every acknowledged video is present;
5. check every recorded answer against the oracle.

The per-layer run (``--trace 1``) repeats the phases with
``X-Trace-Id`` on the requests of every other read step, scrapes
``/debug/traces`` and ``/metrics``, and then times the layers
in-process (:mod:`layers`).
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable
from urllib.parse import quote

import corpus as inputs
from client import Conn, Server, compile_sources, median, percentile, store_bytes
from oracle import Oracle, check_answers, compact

SETUP_LAUNCHES = 9
LIMIT = 10
BATCH = 64
#: Matches per point of a batch request.  At one match per point a
#: 64-point answer (~25 KB) leaves the server in one segment, as a
#: single answer does, so every batch meets the keep-alive stall; at 10
#: (~220 KB) whether the stall caught the answer's last segment varied
#: from request to request and moved the median by a quarter between
#: sets of runs.
BATCH_LIMIT = 1
#: Pause between job-status polls, so the poll rate stays bounded even
#: when a request costs far less than it does today.
POLL_PAUSE_S = 0.005
JOB_TIMEOUT_S = 60.0
#: Lock waits above this count a traced query as blocked by a writer;
#: it exceeds the interpreter's 5 ms thread switch interval, so that
#: scheduling jitter between server threads does not count.
BLOCKED_MS = 5.0
#: Job states after which a job never changes again.
SETTLED = {"done", "failed", "quarantined"}


@dataclass(frozen=True)
class Spec:
    """One workload's shape (sizes in shots; ``smoke_*`` for ``--smoke``)."""

    name: str
    corpus_shots: int
    smoke_shots: int
    #: The cycle of the run's one timed phase: this many lockstep read
    #: rounds, then this many ingests, one job at a time.
    read_rounds: int
    ingest_burst: int
    #: Ingest rendered ``.rvid`` clips rather than small synthetic videos.
    clips: bool = False


SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "query-large",
            corpus_shots=100_000, smoke_shots=3_000, read_rounds=20, ingest_burst=10,
        ),
        Spec(
            "ingest-durable",
            corpus_shots=2_000, smoke_shots=600, read_rounds=12, ingest_burst=10, clips=True,
        ),
    )
}

#: The cost counts (write and store bytes) are taken once this many
#: ingests are acknowledged, so that they cover the same videos however
#: many more a run completes.
COST_PREFIX = 16

#: The read cycle of each connection.
KINDS = ("single", "batch", "browse")

#: Distinct rendered clips per run of ingest-durable; ingests cycle them.
CLIP_POOL = 6


class RunFailed(Exception):
    """The program could not be driven at all (no result is printed)."""


@dataclass
class Tally:
    """Operations attempted, failed, and the samples they produced."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    sizes: dict[str, list[int]] = field(default_factory=dict)
    #: Read latencies by kind and lockstep step (see ``Workload.mixed_phase``).
    steps: dict[str, dict[int, list[float]]] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, kind: str, ok: bool, seconds: float | None = None,
               size: int | None = None, error: str | None = None,
               step: int | None = None) -> None:
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if error and len(self.errors) < 20:
                    self.errors.append(f"{kind}: {error}")
                return
            if seconds is not None:
                self.samples.setdefault(kind, []).append(seconds)
                if step is not None:
                    self.steps.setdefault(kind, {}).setdefault(step, []).append(seconds)
            if size is not None:
                self.sizes.setdefault(kind, []).append(size)

    def step_means(self, kind: str) -> list[float]:
        """Per lockstep step, the mean latency of its two requests of ``kind``."""
        return [sum(pair) / 2 for pair in self.steps.get(kind, {}).values() if len(pair) == 2]


class Workload:
    """One run of one workload against one checkout."""

    def __init__(self, spec: Spec, checkout: Path, seed: int, seconds: float,
                 trace: bool, smoke: bool) -> None:
        self.spec = spec
        self.checkout = checkout
        self.src = checkout / "src"
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.work = checkout / ".bench_work" / f"{spec.name}-{seed}"
        self.store = self.work / "store"
        self.tally = Tally()
        #: Answers to check: (point, limit, compact answer, seen), where
        #: the first ``seen`` acknowledged videos were stored, and no
        #: other ingest ran, when the answer was given.
        self.answers: list[tuple[tuple[float, float], int | None, Any, int]] = []
        self.intern: dict[str, str] = {}
        self.answers_lock = threading.Lock()
        self.acknowledged: list[str] = []
        self.setup_times: list[float] = []
        self.ingest_service: list[float] = []
        self.ingested_shots = 0
        self._writes_before = 0
        #: (write bytes, videos, store bytes, ingested shots) at the
        #: cost snapshot.
        self.cost: tuple[int, int, int, int] | None = None
        self.traces: dict[str, dict] = {}
        self.metrics_doc: dict[str, Any] = {}
        self.problems: list[str] = []
        self.server: Server | None = None

    # ------------------------------------------------------------------
    # inputs
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        compile_sources(self.src)
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        shots = self.spec.smoke_shots if self.smoke else self.spec.corpus_shots
        self.corpus = inputs.make_corpus(self.seed, shots)
        inputs.write_store(self.corpus, self.seed, self.store)
        self.oracle = Oracle.from_corpus(self.corpus)
        # Point streams: 0 singles, 1 batches, 3 setup.
        # Enough distinct points for a server far faster than today's.
        budget = int(max(self.seconds, 1.0) * 600) + 64
        self.singles = inputs.query_points(self.corpus, self.seed, budget, stream=0)
        self.batch_points = inputs.query_points(self.corpus, self.seed, budget * BATCH // 3, stream=1)
        self.setup_points = inputs.query_points(self.corpus, self.seed, SETUP_LAUNCHES, stream=3)
        if self.spec.clips:
            self.clips = []
            for k in range(CLIP_POOL):
                clip = inputs.render_clip(self.seed, k, f"pool-{k}")
                self.clips.append(inputs.write_clip(clip, self.work / f"pool-{k}.rvid"))

    # ------------------------------------------------------------------
    # the server
    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Launch to first correct answer, ``SETUP_LAUNCHES`` times."""
        for k in range(SETUP_LAUNCHES):
            if self.server is not None:
                self.server.kill()
            start = time.perf_counter()
            self.server = Server(self.src, self.store, self.work / "server.log")
            conn = Conn(self.server.port)
            point = tuple(self.setup_points[k])
            status, payload, _, _ = conn.call(
                "POST", "/query", {"var_ba": point[0], "var_oa": point[1], "limit": LIMIT})
            elapsed = time.perf_counter() - start
            conn.close()
            wrong = self.oracle.mismatch(point, LIMIT, compact(payload)) if status == 200 else None
            ok = status == 200 and wrong is None
            self.tally.record("setup", ok, error=wrong or f"status {status}")
            self.setup_times.append(elapsed)
            if not ok:
                self.problems.append(f"setup launch {k}: no correct first answer")

    # ------------------------------------------------------------------
    # request helpers
    # ------------------------------------------------------------------

    def _traced(self, n: int) -> bool:
        return self.trace and n % 2 == 0

    def single(self, conn: Conn, point, step: int) -> dict | None:
        traced = self._traced(step)
        try:
            status, payload, seconds, size = conn.call(
                "POST", "/query",
                {"var_ba": float(point[0]), "var_oa": float(point[1]), "limit": LIMIT},
                traced=traced)
        except (OSError, ValueError) as exc:
            self.tally.record("single", False, error=str(exc))
            return None
        ok = status == 200
        kind = "single_traced" if traced else "single"
        self.tally.record(kind, ok, seconds, size, error=f"status {status}", step=step)
        if ok:
            with self.answers_lock:
                self.answers.append(((float(point[0]), float(point[1])), LIMIT,
                                     compact(payload, self.intern), len(self.acknowledged)))
            return payload
        return None

    def batch(self, conn: Conn, points, step: int) -> None:
        body = {"queries": [{"var_ba": float(a), "var_oa": float(b)} for a, b in points],
                "limit": BATCH_LIMIT}
        try:
            status, payload, seconds, size = conn.call(
                "POST", "/query/batch", body, traced=self._traced(step))
        except (OSError, ValueError) as exc:
            self.tally.record("batch", False, error=str(exc))
            return
        ok = status == 200 and payload.get("count") == len(points)
        self.tally.record("batch", ok, seconds, size, error=f"status {status}", step=step)
        if ok:
            with self.answers_lock:
                for (a, b), result in zip(points, payload["results"]):
                    self.answers.append(((float(a), float(b)), BATCH_LIMIT,
                                         compact(result, self.intern),
                                         len(self.acknowledged)))

    def browse(self, conn: Conn, video_id: str, step: int) -> None:
        try:
            status, payload, seconds, size = conn.call(
                "GET", f"/videos/{quote(video_id, safe='')}/tree", traced=self._traced(step))
        except (OSError, ValueError) as exc:
            self.tally.record("browse", False, error=str(exc))
            return
        ok = status == 200 and payload.get("clip_name") == video_id and payload.get("nodes")
        self.tally.record("browse", bool(ok), seconds, size, error=f"status {status}",
                          step=step)

    @staticmethod
    def await_job(conn: Conn, path: str) -> dict:
        """Poll a job until it settles (or the timeout passes)."""
        give_up = time.monotonic() + JOB_TIMEOUT_S
        while True:
            status, job, _, _ = conn.call("GET", path)
            if status != 200:
                raise RuntimeError(f"job poll answered {status}")
            if job["status"] in SETTLED or time.monotonic() > give_up:
                return job
            time.sleep(POLL_PAUSE_S)

    def ingest(self, conn: Conn, body: dict, n: int,
               submitted: Callable[[str | None], None] | None = None) -> None:
        """Submit one ingest, wait for its job, and time it from its record.

        ``submitted`` is told the job's status path (None if the submit
        failed), so that a second connection can poll alongside.
        """
        path = None
        try:
            status, payload, _, _ = conn.call("POST", "/ingest", body, traced=self._traced(n))
            if status != 202:
                raise RuntimeError(f"submit answered {status}: {payload.get('error')}")
            path = f"/jobs/{payload['job_id']}"
            if submitted is not None:
                submitted(path)
                submitted = None
            job = self.await_job(conn, path)
            if job["status"] != "done":
                raise RuntimeError(f"job {job['status']}: {job.get('error')}")
        except (OSError, ValueError, KeyError, RuntimeError) as exc:
            self.tally.record("ingest", False, error=str(exc))
            return
        finally:
            if submitted is not None:
                submitted(None)
        service = job["queue_wait_s"] + job["duration_s"]
        self.tally.record("ingest", True, service)
        self.ingest_service.append(service)
        self.acknowledged.append(job["report"]["video_id"])
        self.ingested_shots += job["report"]["indexed_entries"]
        if len(self.acknowledged) == (3 if self.smoke else COST_PREFIX):
            self._snapshot_cost()

    def scrape_traces(self) -> None:
        """Keep every traced request of ours from ``/debug/traces``.

        The scrape uses a connection of its own: its large answer would
        change how the client acknowledges on a read connection, and
        requests there escaped the keep-alive stall for dozens of steps.
        """
        assert self.server is not None
        conn = Conn(self.server.port)
        try:
            status, payload, _, _ = conn.call("GET", "/debug/traces")
        finally:
            conn.close()
        if status != 200:
            return
        for doc in payload.get("traces", []):
            if str(doc.get("trace_id", "")).startswith("bench-"):
                self.traces[doc["trace_id"]] = doc

    def _conn(self, k: int) -> Conn:
        assert self.server is not None
        return Conn(self.server.port, trace_prefix=f"bench-{k}")

    def _parallel(self, first: Callable[[], None], second: Callable[[], None]) -> None:
        """Run ``first`` on this thread and ``second`` on a second thread."""
        errors: list[BaseException] = []

        def guarded(job: Callable[[], None]) -> None:
            try:
                job()
            except Exception as exc:  # surfaced below, after the join
                errors.append(exc)

        worker = threading.Thread(target=guarded, args=(second,))
        worker.start()
        guarded(first)
        worker.join()
        if errors:
            raise RunFailed(f"client error: {errors[0]!r}")

    def _with_writes(self, phase: Callable[[], None]) -> None:
        """Run the ingest phase, charging the server's file writes to it."""
        assert self.server is not None
        self._writes_before = self.server.written_bytes()
        phase()
        if self.cost is None:  # fewer ingests than the cost prefix
            self._snapshot_cost()

    def _snapshot_cost(self) -> None:
        """File bytes written since the phase began, and the store's size.

        Taken between jobs, while the server writes nothing else.
        """
        assert self.server is not None
        written = self.server.written_bytes() - self._writes_before
        self.cost = (written, len(self.acknowledged), store_bytes(self.store),
                     self.ingested_shots)

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def mixed_phase(self, read_rounds: int, ingest_burst: int) -> None:
        """The timed phase: lockstep reads and ingests, for ``seconds``.

        Two connections run a fixed cycle of steps.  A read round is
        three steps, single -> batch -> browse; after ``read_rounds``
        of them come ``ingest_burst`` ingest steps.  Every type of
        operation thus recurs throughout the phase, so host drift hits
        each alike.  The phase runs at least two cycles.

        In a read step both connections send a request of the same type,
        and the next step starts when both have their answers, so a
        cheap single query is never timed behind the other connection's
        64-point batch, whose overlap would otherwise vary from run to
        run.  The two requests of a step queue behind each other in the
        server for the few milliseconds the first one takes, so their
        latencies form two modes of equal weight, and a median over all
        of them would fall on either side of the gap from run to run.
        The read metrics therefore take, per step, the mean of its two
        latencies (``Tally.step_means``).  In a traced run every other
        step is traced, on both connections.

        In an ingest step connection 0 ingests one video, beside no
        read, and both connections poll its job until it settles, so
        neither idles long enough for its TCP stack to stop delaying
        acknowledgements, which would let the next reads escape the
        keep-alive stall.  The first query after a burst rebuilds the
        index's video ranks (about 35 ms at 100k shots); bursts keep
        that to one read round in ``read_rounds``, well below the 10%
        at which ``query_p90_ms`` would flip.
        """
        schedule = KINDS * read_rounds + ("ingest",) * ingest_burst
        end = time.perf_counter() + self.seconds
        singles = iter(self.singles)
        batches = iter(range(0, len(self.batch_points) - BATCH + 1, BATCH))
        take = threading.Lock()
        state = {"go": True, "steps": 0, "ingests": 0}
        job_paths: queue.Queue[str | None] = queue.Queue()

        def decide() -> None:
            steps = state["steps"]
            state["go"] = time.perf_counter() < end or steps < 2 * len(schedule)
            state["steps"] += 1

        barrier = threading.Barrier(2, action=decide)

        def ingest_step(conn: Conn, k: int) -> None:
            if k == 0:
                n = state["ingests"]
                state["ingests"] += 1
                self.ingest_next(conn, n, job_paths.put)
                return
            path = job_paths.get(timeout=JOB_TIMEOUT_S)
            if path is not None:
                try:
                    self.await_job(conn, path)
                except (OSError, ValueError, RuntimeError):
                    pass  # connection 0 accounts for the job

        def loop(k: int) -> None:
            conn = self._conn(k)
            top_video = self.corpus.video_ids[0]
            step = 0
            try:
                while True:
                    barrier.wait(timeout=JOB_TIMEOUT_S)
                    if not state["go"]:
                        break
                    kind = schedule[step % len(schedule)]
                    if kind == "ingest":
                        ingest_step(conn, k)
                        step += 1
                        continue
                    with take:
                        item = next(singles, None) if kind == "single" else (
                            next(batches, None) if kind == "batch" else top_video)
                    if item is None:
                        raise RunFailed("query point budget exhausted")
                    if kind == "single":
                        payload = self.single(conn, item, step)
                        if payload and payload["matches"]:
                            top_video = payload["matches"][0]["video_id"]
                    elif kind == "batch":
                        self.batch(conn, self.batch_points[item : item + BATCH], step)
                    else:
                        self.browse(conn, item, step)
                    if self.trace and k == 0 and step % 20 == 0:
                        self.scrape_traces()
                    step += 1
            except BaseException:
                barrier.abort()  # release the other connection
                raise
            finally:
                conn.close()

        self._parallel(lambda: loop(0), lambda: loop(1))

    def ingest_next(self, conn: Conn, n: int, submitted: Callable[[str | None], None]) -> None:
        """Ingest the run's ``n``-th video: a rendered clip or a synthetic one."""
        if not self.spec.clips:
            self.ingest(conn, {"source": "synthetic", "video_id": f"syn-{self.seed}-{n:04d}",
                               "n_shots": 3, "seed": n}, n, submitted)
            return
        from repro.video.clip import VideoClip
        from repro.video.io import read_rvid

        # Name the next clip and write it while the server idles.
        pool = read_rvid(self.clips[n % CLIP_POOL])
        path = self.work / f"clip-{n:04d}.rvid"
        inputs.write_clip(VideoClip(f"clip-{self.seed}-{n:04d}", pool.frames, fps=pool.fps), path)
        self.ingest(conn, {"source": "file", "path": str(path.resolve())}, n, submitted)
        path.unlink()

    def drive(self) -> None:
        rounds, burst = (2, 2) if self.smoke else (self.spec.read_rounds, self.spec.ingest_burst)
        self._with_writes(lambda: self.mixed_phase(rounds, burst))
        if self.trace:
            self.scrape_traces()
            conn = Conn(self.server.port)
            try:
                status, self.metrics_doc, _, _ = conn.call("GET", "/metrics")
            finally:
                conn.close()

    # ------------------------------------------------------------------
    # crash-stop, durability and answers
    # ------------------------------------------------------------------

    def crash_and_verify(self) -> None:
        assert self.server is not None
        self.peak_rss_mb = self.server.peak_rss_mb()
        self.server.kill()
        self.server = None
        env_path = str(self.src)
        fsck = subprocess.run(
            [sys.executable, "-m", "repro", "fsck", str(self.store), "--json"],
            capture_output=True, text=True, timeout=170,
            env=dict(os.environ, PYTHONPATH=env_path),
        )
        if fsck.returncode != 0:
            self.problems.append(f"fsck after crash-stop exited {fsck.returncode}")
        from repro.vdbms.database import VideoDatabase

        self.reopened = VideoDatabase.open(self.store)
        present = set(self.reopened.catalog.ids())
        missing = [v for v in self.acknowledged if v not in present]
        if missing:
            self.problems.append(f"{len(missing)} acknowledged videos missing after reopen")
        # Exact features of every ingested shot, for answers given after
        # its ingest.
        self.ingested_rows = {
            video_id: [(e.video_id, e.shot_number, e.features.var_ba, e.features.var_oa)
                       for e in self.reopened.index.entries_for(video_id)]
            for video_id in self.acknowledged if video_id in present
        }

    def check_answers(self) -> dict:
        # Each answer is checked against the shots stored when it was
        # given: the corpus plus the videos acknowledged by then.  One
        # oracle is held at a time.
        by_seen: dict[int, list] = {}
        for point, limit, answer, seen in self.answers:
            by_seen.setdefault(seen, []).append((point, limit, answer))
        summary = {"checked": 0, "wrong": [], "self_check": True}
        for seen, records in sorted(by_seen.items()):
            rows = [row for video_id in self.acknowledged[:seen]
                    for row in self.ingested_rows.get(video_id, ())]
            oracle = Oracle.from_corpus(self.corpus, rows) if rows else self.oracle
            part = check_answers([(oracle, *record) for record in records])
            summary["checked"] += part["checked"]
            summary["wrong"] += part["wrong"]
            summary["self_check"] = summary["self_check"] and part["self_check"]
        if summary["wrong"]:
            self.problems.append(f"{len(summary['wrong'])} wrong answers, first: {summary['wrong'][0]}")
            with self.tally.lock:
                self.tally.failed += len(summary["wrong"])
        if not summary["self_check"]:
            self.problems.append("oracle self-check did not catch a perturbed answer")
        return summary

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        reads = {kind: self.tally.step_means(kind) for kind in KINDS}
        for kind, values in (*reads.items(), ("ingest", self.ingest_service)):
            if not values:
                raise RunFailed(f"no successful {kind} operations to measure")
        written, videos, on_disk, shots = self.cost or (0, 0, 0, 0)
        if videos == 0 or written <= 0:
            raise RunFailed("no storage writes were accounted to the ingests")
        return {
            "setup_s": (median(self.setup_times), "s"),
            "query_p50_ms": (percentile(reads["single"], 50) * 1e3, "ms"),
            "query_p90_ms": (percentile(reads["single"], 90) * 1e3, "ms"),
            "batch_p50_ms": (percentile(reads["batch"], 50) * 1e3, "ms"),
            "browse_p50_ms": (percentile(reads["browse"], 50) * 1e3, "ms"),
            # One job at a time: videos over the seconds spent on them, the
            # loop's throughput.  Per-video times spread widely (125 to
            # 240 ms on query-large); over six runs their median spread by
            # 0.066 between runs and this rate by 0.047.
            "ingest_videos_per_s": (len(self.ingest_service) / sum(self.ingest_service), "1/s"),
            "write_kb_per_video": (written / videos / 1024.0, "KB"),
            "store_kb_per_shot": (on_disk / (self.corpus.size + shots) / 1024.0, "KB"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def cleanup(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None
        shutil.rmtree(self.work, ignore_errors=True)
