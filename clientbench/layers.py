"""Per-layer numbers for the traced run (``--trace 1``).

Two sources, both read from the benchmark's own code (nothing under
``src/`` is changed):

* the traced client run: ``X-Trace-Id`` on both requests of every
  other read step, ``GET /debug/traces`` scraped during the run and
  ``GET /metrics`` at its end (lock waits, cache behaviour, tracing
  overhead);
* in-process timing of each module's public functions on the same
  corpus and inputs, after the crash-stop and reopen.  The layers of
  the query and ingest paths are timed inside the very
  ``VideoDatabase.query`` and ``VideoDatabase.ingest`` calls whose
  totals they reconcile with.

Layer names follow the program's modules: ``service.server``,
``service.engine``, ``service.cache``, ``cluster``, ``vdbms``,
``index``, ``scenetree``, ``video``, ``signature``, ``sbd`` and
``features``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from typing import Any, Iterator

import corpus as inputs
from client import median
from workloads import BATCH, BATCH_LIMIT, BLOCKED_MS, LIMIT, Workload

#: Query points and batches timed in-process.
PROBE_POINTS, PROBE_BATCHES = 200, 10
#: Rendered clips timed through the ingest layers.
PROBE_CLIPS = 4
#: Records adopted to time publishes.
PROBE_ADOPTS = 5
#: The cluster probe uses at most this many shots of the corpus.
CLUSTER_PROBE_SHOTS = 20_000
#: Stated reconciliation tolerances: the part of an in-process total
#: that its timed layers do not cover, as a share of the total.  A run
#: whose share falls outside is reported as not correct.
QUERY_RECONCILE_TOL = 0.25
INGEST_RECONCILE_TOL = 0.25


def _us(seconds: float) -> float:
    return seconds * 1e6


def _timed(fn, *args, **kwargs) -> tuple[Any, float]:
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


@contextlib.contextmanager
def _timing(owner: Any, name: str) -> Iterator[list[float]]:
    """Record the duration of every call of ``owner.name`` while inside."""
    raw = vars(owner)[name]
    original = getattr(owner, name)
    times: list[float] = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - start)

    setattr(owner, name, timed)
    try:
        yield times
    finally:
        setattr(owner, name, raw)


def _renamed(record, video_id: str):
    """A copy of a ``VideoRecord`` under a new video id."""
    return dataclasses.replace(
        record,
        entry=dataclasses.replace(record.entry, video_id=video_id),
        index_entries=tuple(
            dataclasses.replace(e, video_id=video_id) for e in record.index_entries
        ),
    )


# ----------------------------------------------------------------------
# from the traced client run
# ----------------------------------------------------------------------


def _lock_wait_ms(doc: dict) -> float:
    """Time one traced query waited on the engine's lock (its
    ``service.lock_wait`` spans)."""
    from repro.obs import iter_spans

    return sum(node["duration_ms"] for _, node in iter_spans(doc)
               if node["name"] == "service.lock_wait"
               and node.get("duration_ms") is not None)


def from_client(run: Workload) -> dict[str, tuple[float, str]]:
    untraced = run.tally.step_means("single")
    traced = run.tally.step_means("single_traced")
    if not untraced or not traced:
        raise RuntimeError("the traced run needs traced and untraced single queries")
    queries = [
        doc for doc in run.traces.values()
        if (doc.get("root") or {}).get("annotations", {}).get("route") == "POST /query"
    ]
    waits = [_lock_wait_ms(doc) for doc in queries]
    cache = run.metrics_doc.get("query_cache", {})
    sizes = run.tally.sizes.get("single", [0])
    return {
        "trace.overhead_share": (median(traced) / median(untraced) - 1.0, "ratio"),
        "server.response_kb": (sum(sizes) / len(sizes) / 1024.0, "KB"),
        "engine.lock_wait_ms": (sum(waits) / len(waits) if waits else 0.0, "ms"),
        "query.blocked_share": (
            sum(w > BLOCKED_MS for w in waits) / len(waits) if waits else 0.0, "ratio"),
        "cache.hit_rate": (float(cache.get("hit_rate", 0.0)), "ratio"),
        "cache.invalidations_per_ingest": (
            cache.get("invalidations", 0) / max(len(run.acknowledged), 1), "count"),
    }


# ----------------------------------------------------------------------
# in-process: query path
# ----------------------------------------------------------------------


def query_layers(db, points, batches) -> dict[str, tuple[float, str]]:
    """``VideoDatabase.query``/``query_batch``, with the index search and
    the routing timed inside the same calls."""
    import repro.vdbms.database as database_module
    from repro.scenetree.serialize import scene_tree_to_dict

    index_type = type(db.index)
    for ba, oa in points:
        # Untimed first touch: lazy index preparation and cold caches
        # would otherwise land on whichever call happens to run first.
        db.query(float(ba), float(oa), limit=LIMIT)
    total = []
    with _timing(index_type, "search") as search, \
            _timing(database_module, "route_to_scene_nodes") as routes:
        for ba, oa in points:
            total.append(_timed(db.query, float(ba), float(oa), limit=LIMIT)[1])
    batch_db = []
    with _timing(index_type, "search_batch") as batch_index:
        for batch in batches:
            pairs = [(float(a), float(b)) for a, b in batch]
            batch_db.append(_timed(db.query_batch, pairs, limit=BATCH_LIMIT)[1] / len(pairs))
    to_json = []
    for video_id in list(db.trees)[:100]:
        _, t = _timed(lambda: json.dumps(scene_tree_to_dict(db.trees[video_id])))
        to_json.append(t)
    unattributed = (sum(total) - sum(search) - sum(routes)) / sum(total)
    return {
        "vdbms.query_us": (_us(median(total)), "us"),
        "vdbms.query_batch_us_per_query": (_us(median(batch_db)), "us"),
        "index.search_us": (_us(median(search)), "us"),
        "index.search_batch_us_per_query": (_us(median(batch_index) / BATCH), "us"),
        "index.routes_us": (_us(median(routes)), "us"),
        "scenetree.to_json_us": (_us(median(to_json)), "us"),
        "query.unattributed_share": (unattributed, "ratio"),
    }


def engine_layers(db, points, batches) -> dict[str, tuple[float, str]]:
    """``ServiceEngine`` on the miss path (every point distinct)."""
    from repro.service.engine import ServiceEngine

    engine = ServiceEngine(db)
    try:
        single, encode = [], []
        for ba, oa in points:
            (payload, cached), t = _timed(engine.query, float(ba), float(oa), limit=LIMIT)
            if cached:
                raise RuntimeError("engine probe hit the cache")
            single.append(t)
            _, t = _timed(json.dumps, dict(payload, cached=False))
            encode.append(t)
        batched = []
        for batch in batches:
            body = [{"var_ba": float(a), "var_oa": float(b)} for a, b in batch]
            _, t = _timed(engine.query_batch, body, limit=BATCH_LIMIT)
            batched.append(t / len(body))
    finally:
        engine.shutdown(timeout=1.0, drain=False)
    return {
        "engine.query_us": (_us(median(single)), "us"),
        "engine.query_batch_us_per_query": (_us(median(batched)), "us"),
        "json.encode_us": (_us(median(encode)), "us"),
    }


# ----------------------------------------------------------------------
# in-process: storage and cluster
# ----------------------------------------------------------------------


def publish_layers(db, donor, prefix: str) -> dict[str, tuple[float, str]]:
    """Adopt renamed copies of existing videos into a durable database."""
    from repro.vdbms.manifest import TREE_PREFIX

    times, trees = [], []
    for k, video_id in enumerate(list(donor.catalog.ids())[:PROBE_ADOPTS]):
        new_id = f"{prefix}-{k}"
        _, t = _timed(db.adopt, _renamed(donor.export_video(video_id), new_id))
        times.append(t)
        trees.append(db.storage.current_manifest().files[TREE_PREFIX + new_id].n_bytes)
    files = db.storage.current_manifest().files
    return {
        "vdbms.publish_ms": (median(times) * 1e3, "ms"),
        "storage.index_kb_per_publish": (files["index"].n_bytes / 1024.0, "KB"),
        "storage.catalog_kb_per_publish": (files["catalog"].n_bytes / 1024.0, "KB"),
        "storage.tree_kb_per_publish": (sum(trees) / len(trees) / 1024.0, "KB"),
    }


def cluster_layers(cluster, single_db, points) -> dict[str, tuple[float, str]]:
    cluster_t, single_t = [], []
    for ba, oa in points:
        _, t = _timed(cluster.query, float(ba), float(oa), limit=LIMIT)
        cluster_t.append(t)
        _, t = _timed(single_db.query, float(ba), float(oa), limit=LIMIT)
        single_t.append(t)
    adopt = []
    donor = cluster.shards[0].db
    for k, video_id in enumerate(list(donor.catalog.ids())[:PROBE_ADOPTS]):
        record = _renamed(donor.export_video(video_id), f"probe-adopt-{k}")
        _, t = _timed(cluster.adopt, record)
        adopt.append(t)
    return {
        "cluster.query_us": (_us(median(cluster_t)), "us"),
        "cluster.scatter_overhead_us": (_us(median(cluster_t) - median(single_t)), "us"),
        "cluster.adopt_ms": (median(adopt) * 1e3, "ms"),
    }


# ----------------------------------------------------------------------
# in-process: ingest path
# ----------------------------------------------------------------------


def ingest_layers(run: Workload, index) -> dict[str, tuple[float, str]]:
    """``VideoDatabase.ingest`` of rendered clips into ``index``, with each
    pipeline layer timed inside the same calls."""
    import repro.index.table as table_module
    import repro.sbd.detector as detector_module
    from repro.scenetree.builder import SceneTreeBuilder
    from repro.signature.extract import SignatureExtractor
    from repro.vdbms.database import VideoDatabase
    from repro.video.io import read_rvid

    paths = []
    for k in range(PROBE_CLIPS):
        clip = inputs.render_clip(run.seed, k, f"probe-{run.seed}-{k}")
        paths.append(inputs.write_clip(clip, run.work / f"probe-{k}.rvid"))
    warm = read_rvid(paths[0])
    SignatureExtractor.for_clip(warm).extract_clip(warm)  # build operators

    # An in-memory database whose inserts go into the workload's index.
    db = VideoDatabase()
    db.index = index
    decode, total, inserts_per_clip = [], [], []
    frames = pairs = stage3_pairs = 0
    with _timing(SignatureExtractor, "extract_clip") as extract, \
            _timing(detector_module.CameraTrackingDetector, "detect_from_features") as classify, \
            _timing(detector_module, "longest_match_run") as stage3, \
            _timing(table_module, "extract_shot_features") as variance, \
            _timing(SceneTreeBuilder, "build_from_detection") as build, \
            _timing(type(index), "insert") as insert:
        for path in paths:
            clip, dt = _timed(read_rvid, path)
            decode.append(dt)
            before = len(insert)
            report, dt = _timed(db.ingest, clip)
            total.append(dt)
            inserts_per_clip.append(sum(insert[before:]) / (len(insert) - before))
            counts = db.detections[clip.name].stage_counts
            frames += len(clip)
            pairs += counts.total_pairs
            stage3_pairs += counts.stage3_same + counts.stage3_boundary
    covered = sum(map(sum, (extract, classify, variance, build, insert)))
    return {
        "video.decode_ms": (median(decode) * 1e3, "ms"),
        "signature.extract_fps": (frames / sum(extract), "1/s"),
        "sbd.classify_fps": (pairs / sum(classify), "1/s"),
        "sbd.stage3_time_share": (sum(stage3) / sum(classify), "ratio"),
        "sbd.stage3_pair_share": (stage3_pairs / pairs, "ratio"),
        "features.variance_ms": (median(variance) * 1e3, "ms"),
        "scenetree.build_ms": (median(build) * 1e3, "ms"),
        "index.insert_us": (_us(median(inserts_per_clip)), "us"),
        "ingest.unattributed_share": ((sum(total) - covered) / sum(total), "ratio"),
    }


# ----------------------------------------------------------------------
# the whole per-layer report
# ----------------------------------------------------------------------


def rows_examined_per_result(run: Workload, points) -> float:
    """Eq. 7 band rows per returned match, counted by the oracle.

    An exact count: the probe points and the seed's corpus fix it.
    """
    examined = returned = 0
    for ba, oa in points:
        rows, band = run.oracle.answer(float(ba), float(oa), LIMIT)
        examined += band
        returned += rows.size
    return examined / returned


def per_layer(run: Workload) -> dict[str, tuple[float, str]]:
    from repro.cluster import ClusterCoordinator
    from repro.vdbms.database import VideoDatabase

    seed = run.seed
    metrics = from_client(run)
    points = inputs.query_points(run.corpus, seed, PROBE_POINTS, stream=7)
    metrics["index.rows_examined_per_result"] = (rows_examined_per_result(run, points), "count")
    batch_points = inputs.query_points(run.corpus, seed, PROBE_BATCHES * BATCH, stream=8)
    batches = [batch_points[k : k + BATCH] for k in range(0, len(batch_points), BATCH)]

    db = run.reopened
    # The cluster layers are probed on a durable 4-shard R=2 cluster of
    # (at most the first CLUSTER_PROBE_SHOTS shots of) the corpus.
    probe_corpus = run.corpus
    if probe_corpus.size > CLUSTER_PROBE_SHOTS:
        probe_corpus = inputs.make_corpus(seed, CLUSTER_PROBE_SHOTS, prefix="p")
    single_db = inputs.build_database(probe_corpus, seed)
    probe_root = run.work / "probe-cluster"
    inputs.write_cluster(probe_corpus, seed, probe_root)

    opens = [_timed(VideoDatabase.open, run.store)[1] for _ in range(3)]
    metrics["vdbms.open_s"] = (median(opens), "s")
    metrics.update(query_layers(db, points, batches))
    cluster = ClusterCoordinator.open(probe_root)
    try:
        cluster_points = inputs.query_points(probe_corpus, seed, PROBE_POINTS, stream=9)
        metrics.update(cluster_layers(cluster, single_db, cluster_points))
    finally:
        cluster.close()
    metrics.update(publish_layers(db, single_db, prefix=f"probe-publish-{seed}"))
    metrics.update(ingest_layers(run, db.index))
    metrics.update(engine_layers(db, points, batches))
    client_p50 = median(run.tally.step_means("single"))
    metrics["server.overhead_ms"] = (
        client_p50 * 1e3 - metrics["engine.query_us"][0] / 1e3, "ms")
    for name, tol in (("query.unattributed_share", QUERY_RECONCILE_TOL),
                      ("ingest.unattributed_share", INGEST_RECONCILE_TOL)):
        if not -tol <= metrics[name][0] <= tol:
            run.problems.append(
                f"{name} {metrics[name][0]:.3f} is outside its tolerance of {tol}")
    return metrics
