"""An independent answer oracle for impression queries (Eqs. 7-8).

Given the shot features the benchmark generated, the oracle recomputes
every answer with plain numpy: the Eq. 7 band on ``D^v``, the Eq. 8
window on ``sqrt(Var^BA)``, and the presentation ranking with its full
tie-break ``(distance, D^v, sqrt(Var^BA), video_id, shot_number)``.
It shares no code with the program; answers are compared after the
timed loop, never inside it.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

ALPHA = BETA = 1.0


class Oracle:
    """Ranked Eq. 7-8 answers over a fixed set of shots."""

    def __init__(
        self,
        video_ids: Sequence[str],
        video: np.ndarray,
        shot: np.ndarray,
        var_ba: np.ndarray,
        var_oa: np.ndarray,
    ) -> None:
        ids = list(video_ids)
        rank = np.empty(len(ids), dtype=np.int64)
        rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        sqrt_ba = np.sqrt(np.asarray(var_ba, dtype=np.float64))
        d_v = sqrt_ba - np.sqrt(np.asarray(var_oa, dtype=np.float64))
        order = np.argsort(d_v, kind="stable")
        self.ids = ids
        self.video = np.asarray(video)[order]
        self.vrank = rank[self.video]
        self.shot = np.asarray(shot)[order]
        self.var_ba = np.asarray(var_ba, dtype=np.float64)[order]
        self.var_oa = np.asarray(var_oa, dtype=np.float64)[order]
        self.sqrt_ba = sqrt_ba[order]
        self.d_v = d_v[order]

    @classmethod
    def from_corpus(cls, corpus, extra: Sequence[tuple[str, int, float, float]] = ()):
        """The generated corpus plus ``(video_id, shot, var_ba, var_oa)`` rows."""
        ids = list(corpus.video_ids)
        video, shot = [corpus.video], [corpus.shot]
        var_ba, var_oa = [corpus.var_ba], [corpus.var_oa]
        code = {}
        for video_id, number, ba, oa in extra:
            if video_id not in code:
                code[video_id] = len(ids)
                ids.append(video_id)
            video.append(np.array([code[video_id]]))
            shot.append(np.array([number]))
            var_ba.append(np.array([ba]))
            var_oa.append(np.array([oa]))
        return cls(ids, np.concatenate(video), np.concatenate(shot),
                   np.concatenate(var_ba), np.concatenate(var_oa))

    def answer(self, var_ba: float, var_oa: float, limit: int | None) -> tuple[np.ndarray, int]:
        """Ranked row indices of the answer, and the Eq. 7 band size."""
        q_sba = math.sqrt(var_ba)
        q_dv = q_sba - math.sqrt(var_oa)
        lo = int(np.searchsorted(self.d_v, q_dv - ALPHA, side="left"))
        hi = int(np.searchsorted(self.d_v, q_dv + ALPHA, side="right"))
        sba = self.sqrt_ba[lo:hi]
        rows = lo + np.flatnonzero((sba >= q_sba - BETA) & (sba <= q_sba + BETA))
        dx = q_dv - self.d_v[rows]
        dy = q_sba - self.sqrt_ba[rows]
        dist = np.sqrt(dx * dx + dy * dy)
        if limit is not None and 0 < limit < rows.size:
            # Only rows no farther than the limit-th distance can rank in
            # the top ``limit`` (ties at the bar stay for the tie-break).
            keep = dist <= np.partition(dist, limit - 1)[limit - 1]
            rows, dist = rows[keep], dist[keep]
        order = np.lexsort(
            (self.shot[rows], self.vrank[rows], self.sqrt_ba[rows], self.d_v[rows], dist)
        )
        ranked = rows[order]
        return (ranked if limit is None else ranked[:limit]), hi - lo

    def answer_scan(self, var_ba: float, var_oa: float, limit: int | None) -> np.ndarray:
        """The same answer from a full scan (cross-check for :meth:`answer`)."""
        q_sba = math.sqrt(var_ba)
        q_dv = q_sba - math.sqrt(var_oa)
        keep = (
            (self.d_v >= q_dv - ALPHA) & (self.d_v <= q_dv + ALPHA)
            & (self.sqrt_ba >= q_sba - BETA) & (self.sqrt_ba <= q_sba + BETA)
        )
        rows = np.flatnonzero(keep)
        keys = sorted(
            rows.tolist(),
            key=lambda r: (
                math.sqrt((q_dv - self.d_v[r]) ** 2 + (q_sba - self.sqrt_ba[r]) ** 2),
                self.d_v[r], self.sqrt_ba[r], self.ids[self.video[r]], int(self.shot[r]),
            ),
        )
        ranked = np.array(keys, dtype=np.int64)
        return ranked if limit is None else ranked[:limit]

    def mismatch(self, point: tuple[float, float], limit: int | None, answer: "Answer | None") -> str | None:
        """Why ``answer`` is not the right answer to ``point`` (None if it is)."""
        if answer is None:
            return "malformed answer"
        ids, values, routes_ok = answer
        if not routes_ok:
            return "routes do not follow the matches"
        rows, _ = self.answer(point[0], point[1], limit)
        if len(ids) != rows.size:
            return f"expected {rows.size} matches, got {len(ids)}"
        want = np.stack([self.shot[rows], self.var_ba[rows], self.var_oa[rows]], axis=1)
        same = (values == want).all(axis=1)
        for rank, row in enumerate(rows.tolist()):
            if not same[rank] or ids[rank] != self.ids[self.video[row]]:
                expected = (self.ids[self.video[row]], *want[rank].tolist())
                got = (ids[rank], *values[rank].tolist())
                return f"rank {rank}: expected {expected}, got {got}"
        return None


#: A compact recorded answer: matched video ids, an ``(m, 3)`` array of
#: ``(shot_number, var_ba, var_oa)``, and whether the routes follow the
#: matches one for one.
Answer = tuple[tuple[str, ...], np.ndarray, bool]


def compact(payload: Any, intern: dict[str, str] | None = None) -> Answer | None:
    """An answer payload as an :data:`Answer` (None when malformed).

    Recorded answers are kept compact so that a long run's answers fit
    in memory; ``intern`` shares one string object per video id.
    """
    try:
        matches = payload["matches"]
        if payload["count"] != len(matches):
            return None
        ids = tuple(
            (intern.setdefault(m["video_id"], m["video_id"]) if intern is not None
             else m["video_id"])
            for m in matches
        )
        values = np.array(
            [(m["shot_number"], m["var_ba"], m["var_oa"]) for m in matches],
            dtype=np.float64,
        ).reshape(len(matches), 3)
        routes_ok = [r["shot_id"] for r in payload["routes"]] == [m["shot_id"] for m in matches]
    except (KeyError, TypeError, ValueError):
        return None
    return ids, values, routes_ok


def perturb(answer: Answer) -> Answer:
    """A subtly wrong copy of an answer, for the oracle's self-check.

    Swaps the two best matches (a tie-break or ranking bug) when there
    are two, otherwise drops the only match.
    """
    ids, values, routes_ok = answer
    if len(ids) >= 2:
        order = [1, 0, *range(2, len(ids))]
        return tuple(ids[k] for k in order), values[order], routes_ok
    return (), values[:0], routes_ok


def check_answers(
    records: Sequence[tuple[Oracle, tuple[float, float], int | None, Answer | None]],
) -> dict[str, Any]:
    """Check every ``(oracle, point, limit, answer)``; returns a summary dict."""
    wrong: list[str] = []
    for oracle, point, limit, answer in records:
        problem = oracle.mismatch(point, limit, answer)
        if problem is not None:
            wrong.append(f"{point}: {problem}")
    self_check = True
    with_matches = [r for r in records if r[3] is not None and r[3][0]]
    if with_matches:
        oracle, point, limit, answer = with_matches[0]
        self_check = oracle.mismatch(point, limit, perturb(answer)) is not None
    return {"checked": len(records), "wrong": wrong, "self_check": self_check}
