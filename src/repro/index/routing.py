"""Routing query matches to scene-tree browsing entry points.

Sec. 4.2 (and the concluding remarks) explain that the similarity
model is "not used to directly retrieve the video scenes/shots.
Rather, it is used to determine the relevant scene nodes" — the
largest scenes sharing a representative frame with a matching shot.
The user then browses downward from those nodes.
"""

from __future__ import annotations

from typing import NamedTuple

from ..scenetree.nodes import SceneNode, SceneTree
from .table import IndexEntry

__all__ = ["SceneRoute", "route_to_scene_nodes"]


class SceneRoute(NamedTuple):
    """A suggested browsing entry point for one matching shot.

    Immutable; a named tuple rather than a frozen dataclass because one
    is built per query match, and a frozen dataclass's ``__init__``
    (``object.__setattr__`` per field) cost more than the routing
    lookup itself.

    Attributes:
        entry: the matching index entry.
        node: the largest scene node sharing the shot's representative
            frame (None when the clip has no scene tree registered or
            the shot's leaf carries no representative).
    """

    entry: IndexEntry
    node: SceneNode | None

    @property
    def suggestion(self) -> str:
        """Human-readable hand-off, e.g. ``"#12@Wag the Dog -> SN_1^2"``."""
        target = self.node.label if self.node is not None else "<no scene tree>"
        return f"{self.entry.shot_id} -> {target}"


def route_to_scene_nodes(
    matches: list[IndexEntry], trees: dict[str, SceneTree]
) -> list[SceneRoute]:
    """Map query matches to the largest scene nodes to start browsing.

    Args:
        matches: index entries returned by a similarity search.
        trees: scene trees keyed by ``video_id``.

    For each match, the shot's leaf node provides the representative
    frame; the returned node is the *highest-level* node in that clip's
    tree carrying the same representative frame (Sec. 4.2: "the largest
    scenes that share the same representative frame with one of the
    matching shots").
    """
    routes: list[SceneRoute] = []
    for entry in matches:
        tree = trees.get(entry.video_id)
        node: SceneNode | None = None
        if tree is not None and 1 <= entry.shot_number <= tree.n_shots:
            frame = tree.leaves[entry.shot_number - 1].representative_frame
            if frame is not None:
                node = tree.largest_scene_with_representative(frame)
        routes.append(SceneRoute(entry, node))
    return routes
