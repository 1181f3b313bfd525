"""Node placement and connectivity graphs.

The paper's topologies: nodes placed uniformly at random in a square field
(50 in 500x500 m^2, 200–400 in 1300x1300 m^2) and a 7x7 grid in 300x300 m^2.
A placement plus a transmission range induces the unit-disk connectivity
graph used by the centralized algorithms and by the analytic evaluators.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.radio import RadioModel

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

#: Relative slack on the cell windows.  A window spans the floor-divided
#: cells of ``[coord - margin, coord + margin]`` with ``margin =
#: max_range * (1 + _CANDIDATE_SLACK)``; the subtraction and division
#: round, so without slack a neighbor at exactly ``max_range`` could fall
#: one cell outside.  1e-9 relative is ~1e7 ulp — no true neighbor can be
#: lost, and the few extra candidates fail the exact ``math.hypot`` check.
_CANDIDATE_SLACK = 1e-9


class _SpatialIndex:
    """Cell list: grid-bucket membership of a set of positions.

    Cells are ``max_range`` on a side.  :meth:`near` scans, per query
    point, the cells of its *window* — the floor-divided cell range of
    ``[coord - margin, coord + margin]`` per axis, ``margin = max_range *
    (1 + _CANDIDATE_SLACK)``.  The window is computed per point, not as a
    fixed 3x3 block around the point's own cell: float ``//`` is the exact
    floor of the correctly rounded quotient, monotone in its numerator, and
    the slack (~2.5e-7 m at 250 m range) exceeds the rounding of ``coord -
    margin`` by orders of magnitude for any realistic field, so the window
    provably covers every node within ``max_range``.

    The one cell list of the package: :func:`_is_connected` builds one
    per placement draw to search the unit-disk graph,
    :meth:`repro.sim.channel.ChannelGeometry.from_positions` one per
    freeze to find candidate pairs, and :class:`repro.sim.channel.Channel`
    keeps one live after the first move, rebucketed by
    :meth:`~repro.sim.channel.Channel.update_position`, so mobility repair
    touches O(degree) tables instead of all N.
    """

    __slots__ = ("cell", "margin", "buckets", "cells")

    def __init__(
        self,
        positions: Mapping[int, tuple[float, float]],
        max_range: float,
    ) -> None:
        self.cell = max_range
        self.margin = max_range * (1.0 + _CANDIDATE_SLACK)
        self.buckets: dict[tuple[int, int], list[int]] = {}
        self.cells: dict[int, tuple[int, int]] = {}
        cell = self.cell
        for node_id, (x, y) in positions.items():
            key = (int(x // cell), int(y // cell))
            self.cells[node_id] = key
            self.buckets.setdefault(key, []).append(node_id)

    def move(self, node_id: int, position: tuple[float, float]) -> None:
        """Rebucket ``node_id`` at its new position."""
        key = (int(position[0] // self.cell), int(position[1] // self.cell))
        old = self.cells[node_id]
        if key == old:
            return
        members = self.buckets[old]
        members.remove(node_id)
        if not members:
            del self.buckets[old]
        self.cells[node_id] = key
        self.buckets.setdefault(key, []).append(node_id)

    def near(self, points) -> list[int]:
        """Nodes bucketed within range of any of ``points``.

        Deterministic order (window scan order, bucket insertion order
        within a cell) with each node listed once; callers sort what they
        measure or patch independent per-node tables, so the order is
        unobservable in results either way.
        """
        cell = self.cell
        margin = self.margin
        buckets = self.buckets
        out: list[int] = []
        seen_cells: set[tuple[int, int]] = set()
        for x, y in points:
            x_lo, x_hi = int((x - margin) // cell), int((x + margin) // cell)
            y_lo, y_hi = int((y - margin) // cell), int((y + margin) // cell)
            for a in range(x_lo, x_hi + 1):
                for b in range(y_lo, y_hi + 1):
                    key = (a, b)
                    if key in seen_cells:
                        continue
                    seen_cells.add(key)
                    members = buckets.get(key)
                    if members:
                        out.extend(members)
        return out


@dataclass(frozen=True)
class Placement:
    """Immutable node placement in a rectangular field."""

    positions: dict[int, tuple[float, float]]
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("field dimensions must be positive")
        for node, (x, y) in self.positions.items():
            if not (0 <= x <= self.width and 0 <= y <= self.height):
                raise ValueError("node %r placed outside the field" % node)

    @property
    def node_ids(self) -> list[int]:
        return sorted(self.positions)

    def __len__(self) -> int:
        return len(self.positions)

    def distance(self, u: int, v: int) -> float:
        (x1, y1), (x2, y2) = self.positions[u], self.positions[v]
        return math.hypot(x1 - x2, y1 - y2)


def uniform_random_placement(
    count: int,
    width: float,
    height: float,
    rng: random.Random,
    require_connected_range: float | None = None,
    max_attempts: int = 100,
) -> Placement:
    """Place ``count`` nodes uniformly at random in a ``width x height`` field.

    With ``require_connected_range`` set, re-draws the placement until the
    unit-disk graph at that range is connected (the paper's scenarios are
    dense enough that this rarely takes more than one attempt).
    """
    if count < 1:
        raise ValueError("need at least one node")
    for _ in range(max_attempts):
        positions = {
            node: (rng.uniform(0, width), rng.uniform(0, height))
            for node in range(count)
        }
        placement = Placement(positions, width, height)
        if require_connected_range is None:
            return placement
        if _is_connected(placement, require_connected_range):
            return placement
    raise RuntimeError(
        "could not draw a connected placement in %d attempts" % max_attempts
    )


def _is_connected(placement: Placement, max_range: float) -> bool:
    """Whether :func:`connectivity_graph` at ``max_range`` is connected.

    A depth-first search over positions with the graph's edge rule
    (``hypot(dx, dy) <= max_range``), without building the graph, through
    a cell list (:class:`_SpatialIndex`): a node leaves its bucket when
    it is reached, so each reached node measures only the unreached
    members of its cell window, O(N x degree) instead of O(N^2), and a
    dense field empties its buckets within a few scans.  The window
    holds every node within ``max_range``, ``hypot`` ignores signs and
    float subtraction is antisymmetric, so every pair decides exactly as
    the graph's does.
    """
    if max_range <= 0:
        raise ValueError("max_range must be positive")
    positions = placement.positions
    index = _SpatialIndex(positions, max_range)
    near, buckets, cells = index.near, index.buckets, index.cells
    hypot = math.hypot
    start = next(iter(positions))
    buckets[cells[start]].remove(start)
    frontier = [start]
    unreached = len(positions) - 1
    while frontier and unreached:
        point = positions[frontier.pop()]
        x, y = point
        for other in near((point,)):
            ox, oy = positions[other]
            if hypot(ox - x, oy - y) <= max_range:
                buckets[cells[other]].remove(other)
                frontier.append(other)
                unreached -= 1
    return not unreached


def grid_placement(side: int, width: float, height: float) -> Placement:
    """Place ``side**2`` nodes on a regular grid filling the field.

    Node ids are row-major: node ``r * side + c`` sits at row r, column c.
    The 7x7 / 300x300 m^2 configuration of §5.2.3 spaces nodes 50 m apart.
    """
    if side < 2:
        raise ValueError("grid side must be at least 2")
    dx = width / (side - 1)
    dy = height / (side - 1)
    positions = {
        row * side + col: (col * dx, row * dy)
        for row in range(side)
        for col in range(side)
    }
    return Placement(positions, width, height)


def waypoint_stream(rng: random.Random, width: float, height: float):
    """Infinite uniform waypoint generator for random-waypoint mobility.

    Yields ``(x, y)`` targets uniform over the ``width x height`` field.
    Callers (:class:`repro.sim.mobility.RandomWaypointMobility`) pass a
    per-node RNG derived from the cell seed, so trajectories are a pure
    function of ``(seed, node_id)`` — the determinism contract's dynamic
    half.  Distances in meters, like every placement in this module.
    """
    if width <= 0 or height <= 0:
        raise ValueError("field dimensions must be positive")
    while True:
        yield (rng.uniform(0, width), rng.uniform(0, height))


def connectivity_graph(
    placement: Placement,
    max_range: float,
    card: RadioModel | None = None,
) -> nx.Graph:
    """Unit-disk connectivity graph of a placement.

    Edges carry ``distance``; with a ``card``, also ``tx_power`` (the total
    power to transmit across the edge) and ``tx_level`` (the tunable part),
    ready for the centralized heuristics and the MPC algorithm.
    """
    if max_range <= 0:
        raise ValueError("max_range must be positive")
    import networkx as nx

    graph = nx.Graph()
    nodes = placement.node_ids
    for node in nodes:
        graph.add_node(node, pos=placement.positions[node])
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            distance = placement.distance(u, v)
            if distance <= max_range:
                attrs = {"distance": distance}
                if card is not None:
                    attrs["tx_power"] = card.transmit_power(distance)
                    attrs["tx_level"] = card.transmit_power_level(distance)
                graph.add_edge(u, v, **attrs)
    return graph
