"""The binary index format (RVIX): roundtrip, determinism, corruption
detection, JSON auto-migration, fsck, and crash-atomic saves.

The columnar index persists as a checksummed little-endian column
file.  These tests pin the format contract: a byte-identical rewrite
of an unchanged index (so the publish layer's content dedup still
works), detection — not silent service — of any truncation or bit
flip, transparent reads of the older JSON documents with migration to
binary on the next save, and all-or-nothing saves at every filesystem
kill point.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.errors import IndexError_, StorageError, StorageIntegrityError
from repro.features.vector import FeatureVector
from repro.index import ColumnarVarianceIndex, IndexEntry, SortedVarianceIndex
from repro.index.columnar import COLUMNAR_MAGIC
from repro.index.query import VarianceQuery
from repro.testing import sweep_kill_points, synth_database
from repro.vdbms.database import VideoDatabase
from repro.vdbms.storage import DatabaseStorage

_DIR_COUNTER = itertools.count(1)


def _entries(seed: int, n: int = 60) -> list[IndexEntry]:
    rng = np.random.default_rng(seed)
    videos = ["clip-α", "clip-β", "a/b c", "plain"]
    archetypes = [None, "closeup", "wide-shot", "über-shot"]
    return [
        IndexEntry(
            video_id=videos[k % len(videos)],
            shot_number=k,
            start_frame=k * 24,
            end_frame=k * 24 + 23,
            features=FeatureVector(
                var_ba=float(rng.uniform(0, 500)), var_oa=float(rng.uniform(0, 500))
            ),
            archetype=archetypes[k % len(archetypes)],
        )
        for k in range(n)
    ]


class TestRoundtrip:
    def test_bytes_roundtrip_preserves_entries_and_decisions(self):
        index = ColumnarVarianceIndex(_entries(1))
        data = index.to_bytes()
        assert data.startswith(COLUMNAR_MAGIC)
        reloaded = ColumnarVarianceIndex.from_bytes(data)
        assert [e.to_row() for e in reloaded.entries] == [
            e.to_row() for e in index.entries
        ]
        assert [e.archetype for e in reloaded.entries] == [
            e.archetype for e in index.entries
        ]
        query = VarianceQuery(var_ba=144.0, var_oa=64.0)
        assert [(e.video_id, e.shot_number) for e in reloaded.search(query)] == [
            (e.video_id, e.shot_number) for e in index.search(query)
        ]

    def test_to_bytes_is_deterministic(self, tmp_path):
        index = ColumnarVarianceIndex(_entries(2))
        data = index.to_bytes()
        assert index.to_bytes() == data
        # save -> load -> save is byte-identical: the intern tables are
        # compacted to first-appearance order on every serialization,
        # so an unchanged index dedups to a no-op at the publish layer.
        path = index.save(tmp_path / "index.bin")
        reloaded = ColumnarVarianceIndex.load(path)
        assert reloaded.to_bytes() == data
        reloaded.save(tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == data

    def test_tables_compacted_in_first_appearance_order(self):
        """Only codes still in use are written, renumbered in the order
        they first appear in ``D^v`` order — checked against a per-row
        loop, the serializer's original formulation."""
        index = ColumnarVarianceIndex(_entries(4, n=80))
        # Interned last but first in D^v order (and still pending).
        index.insert(
            IndexEntry(
                video_id="early",
                shot_number=1,
                start_frame=1,
                end_frame=9,
                features=FeatureVector(var_ba=0.0, var_oa=1e4),  # D^v = -100
                archetype="first-seen",
            )
        )
        index.remove_video("clip-β")  # leaves a dead code in each table
        _, videos, archetypes, cols = ColumnarVarianceIndex._parse_binary(
            index.to_bytes()
        )
        vid_map: dict[str, int] = {}
        arch_map: dict[str | None, int] = {None: -1}
        for entry in index.entries:
            vid_map.setdefault(entry.video_id, len(vid_map))
            arch_map.setdefault(entry.archetype, len(arch_map) - 1)
        assert videos == list(vid_map)
        assert archetypes == [a for a in arch_map if a is not None]
        assert cols["video_idx"].tolist() == [vid_map[e.video_id] for e in index.entries]
        assert cols["archetype_idx"].tolist() == [
            arch_map[e.archetype] for e in index.entries
        ]

    def test_empty_index_roundtrip(self):
        data = ColumnarVarianceIndex().to_bytes()
        reloaded = ColumnarVarianceIndex.from_bytes(data)
        assert len(reloaded) == 0
        assert reloaded.entries == ()

    def test_pending_rows_included_in_serialization(self):
        index = ColumnarVarianceIndex(merge_threshold=1_000)
        for entry in _entries(3, n=10):
            index.insert(entry)
        reloaded = ColumnarVarianceIndex.from_bytes(index.to_bytes())
        assert len(reloaded) == 10


class TestCorruptionDetection:
    def test_truncation_is_detected_at_every_boundary(self):
        data = ColumnarVarianceIndex(_entries(4)).to_bytes()
        for cut in (0, 3, len(data) // 4, len(data) // 2, len(data) - 1):
            with pytest.raises(IndexError_):
                ColumnarVarianceIndex.from_bytes(data[:cut])
        with pytest.raises(IndexError_):
            ColumnarVarianceIndex.from_bytes(data + b"\x00")

    def test_bit_flips_are_detected_everywhere(self):
        data = ColumnarVarianceIndex(_entries(5, n=20)).to_bytes()
        # Header, string tables, each column region, and the digest
        # trailer itself — a flip anywhere must raise, never serve.
        for offset in range(4, len(data), max(1, len(data) // 37)):
            corrupted = bytearray(data)
            corrupted[offset] ^= 0x40
            with pytest.raises(IndexError_):
                ColumnarVarianceIndex.from_bytes(bytes(corrupted))

    def test_wrong_magic_and_garbage_payloads(self):
        with pytest.raises(IndexError_):
            ColumnarVarianceIndex.from_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(IndexError_, match="unreadable index payload"):
            ColumnarVarianceIndex.from_payload_bytes(b"\x01\x02 not json")

    def test_validate_bytes_accepts_good_rejects_bad(self):
        data = ColumnarVarianceIndex(_entries(6, n=8)).to_bytes()
        ColumnarVarianceIndex.validate_bytes(data)
        with pytest.raises(IndexError_):
            ColumnarVarianceIndex.validate_bytes(data[:-1])

    def test_json_payload_still_readable(self):
        index = ColumnarVarianceIndex(_entries(7, n=12))
        payload = json.dumps(index.to_dict()).encode("utf-8")
        reloaded = ColumnarVarianceIndex.from_payload_bytes(payload)
        assert [e.to_row() for e in reloaded.entries] == [
            e.to_row() for e in index.entries
        ]


class TestMigration:
    def test_legacy_bare_json_migrates_to_binary_on_save(self, tmp_path):
        db = synth_database(11, n_videos=2)
        root = tmp_path / "legacy"
        storage = DatabaseStorage(root)
        storage.initialize()
        from repro.scenetree.serialize import scene_tree_to_dict

        storage.catalog_path.write_text(json.dumps(db.catalog.to_dict()))
        storage.index_path.write_text(json.dumps(db.index.to_dict()))
        for vid, tree in db.trees.items():
            storage.tree_path(vid).write_text(json.dumps(scene_tree_to_dict(tree)))

        loaded = VideoDatabase.load(root)
        assert len(loaded.index) == len(db.index)
        loaded.save(root)
        binaries = sorted(root.glob("index-g*.bin"))
        assert binaries, "first save after migration must produce a binary index"
        assert not list(root.glob("index-g*.json"))
        again = VideoDatabase.load(root)
        assert [e.to_row() for e in again.index.entries] == [
            e.to_row() for e in loaded.index.entries
        ]

    def test_manifest_tracked_json_payload_migrates(self, tmp_path):
        root = tmp_path / "db"
        db = synth_database(12, n_videos=2)
        db.save(root)
        storage = DatabaseStorage(root)
        # Rewrite the index record as the pre-binary JSON document, the
        # way an older build would have left it.
        storage._publish_single("index", db.index.to_dict())
        manifest = storage.read_manifest()
        assert manifest.files["index"].path.endswith(".json")

        loaded = VideoDatabase.load(root)
        assert len(loaded.index) == len(db.index)
        loaded.save(root)
        manifest = storage.read_manifest()
        assert manifest.files["index"].path.endswith(".bin")
        assert len(VideoDatabase.load(root).index) == len(db.index)

    def test_save_load_cycle_keeps_binary_format(self, tmp_path):
        root = tmp_path / "db"
        synth_database(13, n_videos=2).save(root)
        manifest = DatabaseStorage(root).read_manifest()
        record = manifest.files["index"]
        assert record.path.endswith(".bin")
        ColumnarVarianceIndex.validate_bytes((root / record.path).read_bytes())


class TestFsckOnBinary:
    def test_clean_database_passes(self, tmp_path):
        root = tmp_path / "db"
        synth_database(14, n_videos=2).save(root)
        report = DatabaseStorage(root).fsck()
        assert report.clean
        assert any(c.logical == "index" and c.path.endswith(".bin") for c in report.checks)

    def test_flipped_byte_in_binary_index_is_caught(self, tmp_path):
        root = tmp_path / "db"
        synth_database(15, n_videos=2).save(root)
        storage = DatabaseStorage(root)
        path = root / storage.read_manifest().files["index"].path
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        report = storage.fsck()
        assert not report.clean
        statuses = {c.status for c in report.problems()}
        assert "checksum-mismatch" in statuses
        with pytest.raises((StorageError, StorageIntegrityError)):
            VideoDatabase.load(root)


@pytest.mark.faults
class TestSaveKillPoints:
    """Both index save paths are all-or-nothing at every kill point."""

    def _sweep(self, tmp_path, index_cls, suffix, detect_corrupt):
        small = _entries(21, n=6)
        big = _entries(21, n=24)

        def setup():
            root = tmp_path / f"sweep-{next(_DIR_COUNTER)}"
            root.mkdir()
            path = root / f"index{suffix}"
            index_cls(small).save(path)
            return {"path": path}

        def operation(ctx, fs):
            index_cls(big).save(ctx["path"], fs=fs)

        def classify(ctx, mode):
            path = ctx["path"]
            assert path.exists(), f"{mode} fault lost the index file"
            if suffix == ".bin":
                try:
                    loaded = ColumnarVarianceIndex.load(path)
                except IndexError_:
                    assert mode == "corrupt", f"{mode} produced unreadable index"
                    return "detected"
            else:
                loaded = SortedVarianceIndex.from_dict(
                    json.loads(path.read_text(encoding="utf-8"))
                )
            if len(loaded) == len(small):
                return "pre"
            if len(loaded) == len(big):
                return "post"
            raise AssertionError(f"torn index after {mode}: {len(loaded)} entries")

        modes = ("crash", "torn", "corrupt") if detect_corrupt else ("crash", "torn")
        report = sweep_kill_points(setup, operation, classify, modes=modes)
        assert report.points, "sweep recorded no filesystem operations"
        states = report.states()
        assert "pre" in states and "post" in states
        if detect_corrupt:
            assert any(r.state == "detected" for r in report.by_mode("corrupt"))
        for mode in ("crash", "torn"):
            for run in report.by_mode(mode):
                assert run.state in ("pre", "post")

    def test_columnar_binary_save_is_atomic(self, tmp_path):
        # The checksum trailer turns a silently flipped byte into a
        # load-time detection, so all three fault modes are swept.
        self._sweep(tmp_path, ColumnarVarianceIndex, ".bin", detect_corrupt=True)

    def test_legacy_json_save_is_atomic(self, tmp_path):
        # JSON has no checksum: a flipped byte may still parse, so only
        # the crash/torn modes carry an atomicity guarantee.
        self._sweep(tmp_path, SortedVarianceIndex, ".json", detect_corrupt=False)
