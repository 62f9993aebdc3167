"""Tests of the benchmark itself: inputs, oracle, helpers, smoke runs.

Run from the repository root::

    python -m pytest clientbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corpus as inputs
from client import median, percentile
from oracle import Oracle, compact, perturb
from workloads import SPECS, Tally

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def _corpus_bytes(corpus) -> bytes:
    columns = [getattr(corpus, f.name) for f in dataclasses.fields(corpus)]
    return b"|".join(
        "\n".join(c).encode() if isinstance(c, tuple) else np.ascontiguousarray(c).tobytes()
        for c in columns
    )


def test_one_seed_yields_byte_identical_inputs(tmp_path):
    a, b = inputs.make_corpus(5, 3_000), inputs.make_corpus(5, 3_000)
    assert _corpus_bytes(a) == _corpus_bytes(b)
    assert _corpus_bytes(inputs.make_corpus(6, 3_000)) != _corpus_bytes(a)
    assert inputs.query_points(a, 5, 500).tobytes() == inputs.query_points(b, 5, 500).tobytes()
    first = inputs.write_clip(inputs.render_clip(5, 0, "c"), tmp_path / "a.rvid")
    second = inputs.write_clip(inputs.render_clip(5, 0, "c"), tmp_path / "b.rvid")
    assert first.read_bytes() == second.read_bytes()


def test_query_points_are_distinct_and_answerable():
    corpus = inputs.make_corpus(3, 3_000)
    points = inputs.query_points(corpus, 3, 2_000)
    assert len(np.unique(points, axis=0)) == len(points)
    assert np.all(np.sqrt(points[:, 0]) >= inputs.MIN_QUERY_SQRT_BA)
    oracle = Oracle.from_corpus(corpus)
    assert all(oracle.answer(a, b, 10)[0].size > 0 for a, b in points[:200])


def test_every_clip_has_the_same_frame_count():
    clips = [inputs.render_clip(1, k, f"c{k}") for k in range(3)]
    assert {len(clip) for clip in clips} == {inputs.CLIP_FRAMES}


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------


def _oracle_from_db(db) -> Oracle:
    entries = db.index.entries
    ids = sorted({e.video_id for e in entries})
    code = {video_id: k for k, video_id in enumerate(ids)}
    return Oracle(
        ids,
        np.array([code[e.video_id] for e in entries]),
        np.array([e.shot_number for e in entries]),
        np.array([e.features.var_ba for e in entries]),
        np.array([e.features.var_oa for e in entries]),
    )


def _engine_answers(db, points, limit):
    from repro.service.engine import ServiceEngine

    engine = ServiceEngine(db, cache_capacity=1)
    try:
        return [compact(engine.query(float(a), float(b), limit=limit)[0]) for a, b in points]
    finally:
        engine.shutdown(timeout=1.0, drain=False)


def test_oracle_agrees_with_the_program_on_the_golden_corpus():
    from repro.testing.golden import GOLDEN_SPECS, build_clip
    from repro.vdbms.database import VideoDatabase

    db = VideoDatabase()
    for spec in GOLDEN_SPECS:
        db.ingest(build_clip(spec))
    oracle = _oracle_from_db(db)
    points = [(e.features.var_ba, e.features.var_oa) for e in db.index.entries]
    points += [(ba + 0.7, oa * 1.1) for ba, oa in points]
    for limit in (None, 1, 3):
        for point, answer in zip(points, _engine_answers(db, points, limit)):
            assert oracle.mismatch(point, limit, answer) is None


def test_oracle_agrees_with_the_program_on_tie_heavy_corpus():
    corpus = inputs.make_corpus(9, 3_000)
    db = inputs.build_database(corpus, 9)
    oracle = Oracle.from_corpus(corpus)
    dup_rows = np.flatnonzero(
        np.unique(np.stack([corpus.var_ba, corpus.var_oa], 1), axis=0, return_counts=True)[1] > 1
    )
    assert dup_rows.size > 0, "the corpus must contain exact feature ties"
    points = [tuple(p) for p in inputs.query_points(corpus, 9, 150)]
    # Query exactly at duplicated shots, where ranking distances tie.
    pairs = np.stack([corpus.var_ba, corpus.var_oa], 1)
    _, first, counts = np.unique(pairs, axis=0, return_index=True, return_counts=True)
    points += [tuple(pairs[i]) for i in first[counts > 1][:50]]
    for limit in (10, None):
        for point, answer in zip(points, _engine_answers(db, points, limit)):
            assert oracle.mismatch(point, limit, answer) is None


def test_oracle_rejects_a_perturbed_answer():
    corpus = inputs.make_corpus(4, 3_000)
    db = inputs.build_database(corpus, 4)
    oracle = Oracle.from_corpus(corpus)
    points = [tuple(p) for p in inputs.query_points(corpus, 4, 20)]
    for point, answer in zip(points, _engine_answers(db, points, 10)):
        assert oracle.mismatch(point, 10, answer) is None
        assert oracle.mismatch(point, 10, perturb(answer)) is not None
    assert oracle.mismatch(points[0], 10, None) is not None


def test_banded_oracle_equals_full_scan():
    corpus = inputs.make_corpus(2, 3_000)
    oracle = Oracle.from_corpus(corpus)
    for a, b in inputs.query_points(corpus, 2, 40):
        for limit in (None, 5):
            assert oracle.answer(a, b, limit)[0].tolist() == oracle.answer_scan(a, b, limit).tolist()


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1001])
def test_percentile_and_median_match_numpy(n):
    values = np.random.default_rng(n).exponential(size=n).tolist()
    for p in (0, 10, 25, 50, 90, 99, 100):
        assert percentile(values, p) == pytest.approx(float(np.percentile(values, p)), rel=1e-12)
    assert median(values) == pytest.approx(float(np.median(values)), rel=1e-12)


def test_step_means_pair_the_two_requests_of_a_step():
    tally = Tally()
    tally.record("single", True, 0.040, step=0)
    tally.record("single", True, 0.046, step=0)
    tally.record("single", True, 0.050, step=3)
    tally.record("single", False, step=3)  # its partner failed
    assert tally.step_means("single") == [pytest.approx(0.043)]


def test_layer_timing_wraps_and_restores():
    import layers

    class Probe:
        def twice(self, x):
            return 2 * x

    original = Probe.__dict__["twice"]
    with layers._timing(Probe, "twice") as times:
        assert Probe().twice(3) == 6
    assert len(times) == 1
    assert Probe.__dict__["twice"] is original


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


def test_benchmark_workloads_exist():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(SPECS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SPECS))
def test_smoke_run_reports_every_metric_and_verifies_answers(workload, trace):
    end_to_end, per_layer = _declared()
    out = subprocess.run(
        [sys.executable, "clientbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == (per_layer if trace else end_to_end)
    assert json.loads(lines[-2])["answers_checked"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "clientbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "clientbench/run.py", "--workload", "query-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
