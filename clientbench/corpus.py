"""Seeded benchmark inputs: the stored corpus, query points and clips.

Everything here is a pure function of the workload seed (through
``numpy.random.default_rng``), so one seed always yields byte-identical
inputs.  The program under test only ever sees what these functions
produce: a database directory written through its own public API,
request bodies, and ``.rvid`` files.

The corpus is described by plain numpy columns (:class:`Corpus`) that
the answer oracle reads directly; the store is then materialised from
the same columns through ``VideoDatabase`` / ``ClusterCoordinator``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Shots per stored video (inclusive bounds), as in a feature film.
SHOTS_PER_VIDEO = (30, 70)
#: Distinct scene-tree shapes built per shot count; videos share them.
TREES_PER_SHOT_COUNT = 2
#: Measured ``(Var^BA, Var^OA)`` of every shot of the program's own
#: ingest of the Table 4 feature-film stand-ins (``derive_features.py``).
FEATURE_TABLE = Path(__file__).resolve().parent / "movie_features.json"
#: Each stored shot takes a measured pair, moved by up to this much in
#: ``sqrt`` space on each axis, so that shots are distinct but keep the
#: measured density of the ``(D^v, sqrt(Var^BA))`` plane.
FEATURE_JITTER = 0.5
#: Share of shots that copy another shot's features exactly, so that
#: equal ranking distances occur and the tie-break rules are exercised.
DUPLICATE_SHARE = 0.02
#: Query points keep sqrt(Var^BA) at least this large.  Synthetic
#: constant-colour ingests land at (0, 0) and the Eq. 8 tolerance is
#: 1.0, so such points can never match a freshly ingested shot.
MIN_QUERY_SQRT_BA = 2.5

#: Rendered clip geometry for the ingest workloads (3 fps analysis rate).
CLIP_ROWS, CLIP_COLS, CLIP_FRAMES, CLIP_FPS = 180, 240, 120, 3.0
CLIP_SHOTS = 6
#: Horizontal camera speed of each shot (pixels per frame): static, slow
#: and fast pans.  The schedule is fixed so that every clip of every
#: seed asks the same of the detector; the seed varies the scenery.
SHOT_SPEEDS = (0.0, 40.0, 4.0, 40.0, 0.0, 40.0)


@dataclass(frozen=True)
class Corpus:
    """Column description of a stored corpus (one row per shot)."""

    video_ids: tuple[str, ...]
    #: Per video: shot count and the index of its scene-tree shape.
    n_shots: np.ndarray
    tree_shape: np.ndarray
    #: Per shot: owning video (index into ``video_ids``), 1-based shot
    #: number, frame range and the variance features.
    video: np.ndarray
    shot: np.ndarray
    start: np.ndarray
    end: np.ndarray
    var_ba: np.ndarray
    var_oa: np.ndarray

    @property
    def size(self) -> int:
        return int(self.var_ba.shape[0])


def _shot_lengths(rng: np.random.Generator, k: int) -> np.ndarray:
    return rng.integers(3, 7, size=k)


def make_corpus(seed: int, target_shots: int, prefix: str = "v") -> Corpus:
    """A corpus of exactly ``target_shots`` shots in 30-70-shot videos.

    Only the last video may be shorter; every seed stores the same
    number of shots, so sizes and costs compare across seeds.
    """
    rng = np.random.default_rng([seed, 1])
    lo, hi = SHOTS_PER_VIDEO
    counts: list[int] = []
    while sum(counts) < target_shots:
        counts.append(min(int(rng.integers(lo, hi + 1)), target_shots - sum(counts)))
    n_shots = np.array(counts, dtype=np.int64)
    tree_shape = rng.integers(0, TREES_PER_SHOT_COUNT, size=len(counts))
    total = int(n_shots.sum())
    video = np.repeat(np.arange(len(counts)), n_shots)
    shot = np.concatenate([np.arange(1, k + 1) for k in counts])
    # Frame ranges follow the shape's shot lengths (see tree_signs).
    start = np.empty(total, dtype=np.int64)
    end = np.empty(total, dtype=np.int64)
    pos = 0
    for k, shape in zip(counts, tree_shape):
        lengths = _shot_lengths(np.random.default_rng([seed, 2, k, int(shape)]), k)
        ends = np.cumsum(lengths)
        start[pos : pos + k] = ends - lengths + 1
        end[pos : pos + k] = ends
        pos += k
    measured = np.sqrt(np.array(json.loads(FEATURE_TABLE.read_text())["var_ba_var_oa"]))
    pick = measured[rng.integers(0, len(measured), total)]
    moved = np.maximum(pick + rng.uniform(-FEATURE_JITTER, FEATURE_JITTER, (total, 2)), 0.0)
    var_ba = np.round(moved[:, 0] ** 2, 2)
    var_oa = np.round(moved[:, 1] ** 2, 2)
    n_dup = int(total * DUPLICATE_SHARE)
    src = rng.integers(0, total, n_dup)
    dst = rng.integers(0, total, n_dup)
    var_ba[dst] = var_ba[src]
    var_oa[dst] = var_oa[src]
    ids = tuple(f"{prefix}{seed}-{v:05d}" for v in range(len(counts)))
    return Corpus(ids, n_shots, tree_shape, video, shot, start, end, var_ba, var_oa)


def tree_signs(seed: int, k: int, shape: int) -> list[np.ndarray]:
    """Background sign streams of one scene-tree shape with ``k`` shots."""
    rng = np.random.default_rng([seed, 2, k, shape])
    lengths = _shot_lengths(rng, k)
    return [rng.integers(-1, 2, size=(int(n), 3)).astype(np.int8) for n in lengths]


def query_points(corpus: Corpus, seed: int, n: int, stream: int = 0) -> np.ndarray:
    """``n`` distinct ``(var_ba, var_oa)`` points near corpus shots.

    Each point perturbs a random shot by less than the Eq. 7-8
    tolerances, so answers are non-empty; every point is distinct, so a
    result cache never hits on them.
    """
    rng = np.random.default_rng([seed, 3, stream])
    sqrt_ba = np.sqrt(corpus.var_ba)
    sqrt_oa = np.sqrt(corpus.var_oa)
    eligible = np.flatnonzero(sqrt_ba >= MIN_QUERY_SQRT_BA + 0.5)
    points = np.empty((0, 2))
    while len(points) < n:
        m = n - len(points) + 16
        rows = eligible[rng.integers(0, eligible.size, m)]
        q_sba = sqrt_ba[rows] + rng.uniform(-0.4, 0.4, m)
        q_soa = np.maximum(sqrt_oa[rows] + rng.uniform(-0.4, 0.4, m), 0.0)
        fresh = np.stack([np.round(q_sba**2, 4), np.round(q_soa**2, 4)], axis=1)
        points = np.concatenate([points, fresh])
        _, first = np.unique(points, axis=0, return_index=True)
        points = points[np.sort(first)]  # drop repeats, keep draw order
    return points[:n]


# ----------------------------------------------------------------------
# materialising the store through the program's public API
# ----------------------------------------------------------------------


def _video_records(corpus: Corpus, seed: int):
    """Yield ``(video_id, catalog entry, index entries, scene tree)``."""
    from repro.features.vector import FeatureVector
    from repro.index.table import IndexEntry
    from repro.scenetree.builder import SceneTreeBuilder
    from repro.scenetree.serialize import scene_tree_from_dict, scene_tree_to_dict
    from repro.vdbms.catalog import CatalogEntry

    shapes: dict[tuple[int, int], dict] = {}
    offsets = np.concatenate([[0], np.cumsum(corpus.n_shots)])
    for v, video_id in enumerate(corpus.video_ids):
        k, shape = int(corpus.n_shots[v]), int(corpus.tree_shape[v])
        key = (k, shape)
        if key not in shapes:
            tree = SceneTreeBuilder().build(tree_signs(seed, k, shape), "shape")
            shapes[key] = scene_tree_to_dict(tree)
        tree = scene_tree_from_dict(dict(shapes[key], clip_name=video_id))
        lo, hi = int(offsets[v]), int(offsets[v + 1])
        entries = [
            IndexEntry(
                video_id=video_id,
                shot_number=int(corpus.shot[i]),
                start_frame=int(corpus.start[i]),
                end_frame=int(corpus.end[i]),
                features=FeatureVector(
                    var_ba=float(corpus.var_ba[i]), var_oa=float(corpus.var_oa[i])
                ),
            )
            for i in range(lo, hi)
        ]
        catalog = CatalogEntry(
            video_id=video_id,
            n_frames=int(corpus.end[hi - 1]),
            rows=CLIP_ROWS,
            cols=CLIP_COLS,
            fps=CLIP_FPS,
            n_shots=k,
        )
        yield video_id, catalog, entries, tree


def _register(db, catalog, entries, tree, pending: list) -> None:
    db.catalog.add(catalog)
    pending.extend(entries)
    db.trees[catalog.video_id] = tree


def _index(entries: list):
    """One columnar index over ``entries``, sorted in a single merge."""
    from repro.index.columnar import ColumnarVarianceIndex

    return ColumnarVarianceIndex(entries, merge_threshold=len(entries) + 1)


def build_database(corpus: Corpus, seed: int):
    """The corpus as one in-memory ``VideoDatabase``."""
    from repro.vdbms.database import VideoDatabase

    db = VideoDatabase()
    entries: list = []
    for _, catalog, video_entries, tree in _video_records(corpus, seed):
        _register(db, catalog, video_entries, tree, entries)
    db.index = _index(entries)
    return db


def write_store(corpus: Corpus, seed: int, root: Path) -> None:
    """Persist the corpus as a durable single database under ``root``."""
    build_database(corpus, seed).save(root)


def write_cluster(
    corpus: Corpus, seed: int, root: Path, n_shards: int = 4, replication: int = 2
) -> None:
    """Persist the corpus as a durable sharded, replicated cluster.

    Each video is registered on exactly the shards the cluster's own
    router assigns it (primary plus replicas); every shard is then
    committed once, as a bulk load would.
    """
    from repro.cluster import ClusterCoordinator

    cluster = ClusterCoordinator.create(root, n_shards, replication=replication)
    try:
        pending: list[list] = [[] for _ in cluster.shards]
        for video_id, catalog, entries, tree in _video_records(corpus, seed):
            for shard_id in cluster.router.shards_for(video_id, replication):
                _register(cluster.shards[shard_id].db, catalog, entries, tree,
                          pending[shard_id])
        for shard, entries in zip(cluster.shards, pending):
            shard.db.index = _index(entries)
            shard.db.save(shard.root)
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# rendered camera-motion clips
# ----------------------------------------------------------------------


def render_clip(seed: int, k: int, name: str):
    """Clip ``k`` of a seed: six shots with pans, a moving object, cuts.

    Shots alternate between a static camera, a slow pan and a fast pan
    across a brightness ramp.  Fast pans move the background sign by
    more than the stage-1 tolerance, so those frame pairs fall through
    to the stage-3 camera-tracking matcher; cuts change the tint.
    Every clip has the same frame count.
    """
    from repro.video.clip import VideoClip

    rng = np.random.default_rng([seed, 5, k])
    rows, cols, n_frames = CLIP_ROWS, CLIP_COLS, CLIP_FRAMES
    bounds = np.linspace(0, n_frames, CLIP_SHOTS + 1).astype(int).tolist()
    frames = np.empty((n_frames, rows, cols, 3), dtype=np.uint8)
    noise = rng.integers(-3, 4, size=(4, rows, cols, 3)).astype(np.int16)
    for s in range(CLIP_SHOTS):
        length = bounds[s + 1] - bounds[s]
        speed = SHOT_SPEEDS[s]
        vx = speed * float(rng.choice([-1.0, 1.0]))
        vy = float(rng.uniform(-2.0, 2.0))
        span_x, span_y = int(abs(vx) * length) + 8, int(abs(vy) * length) + 8
        height, width = rows + span_y, cols + span_x
        cell = int(rng.integers(8, 24))
        coarse = rng.integers(-50, 51, size=(height // cell + 1, width // cell + 1, 1))
        texture = np.repeat(np.repeat(coarse, cell, 0), cell, 1)[:height, :width]
        tint = rng.uniform(40.0, 215.0, 3)
        ramp = np.linspace(-1.0, 1.0, width)[None, :, None] * (250.0 if speed > 4 else 0.0)
        world = np.clip(tint + ramp + texture, 0, 255).astype(np.int16)
        x0 = 0 if vx >= 0 else span_x - 1
        y0 = 0 if vy >= 0 else span_y - 1
        color = rng.integers(0, 256, 3)
        oy, ox = rng.uniform(0.3, 0.6) * rows, rng.uniform(0.3, 0.6) * cols
        ovy, ovx = rng.uniform(-2.0, 2.0, 2)
        for f in range(bounds[s], bounds[s + 1]):
            t = f - bounds[s]
            y, x = int(y0 + vy * t), int(x0 + vx * t)
            frame = world[y : y + rows, x : x + cols] + noise[f % 4]
            cy, cx = int(oy + ovy * t), int(ox + ovx * t)
            frame[max(cy - rows // 8, 0) : cy + rows // 8,
                  max(cx - cols // 10, 0) : cx + cols // 10] = color
            np.clip(frame, 0, 255, out=frame)
            frames[f] = frame
    return VideoClip(name, frames, fps=CLIP_FPS)


def write_clip(clip, path: Path) -> Path:
    """Write ``clip`` as an ``.rvid`` file with the program's writer."""
    from repro.video.io import write_rvid

    return write_rvid(clip, path)
