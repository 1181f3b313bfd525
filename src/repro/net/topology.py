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
from typing import TYPE_CHECKING

from repro.core.radio import RadioModel

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


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

    A search over positions with the graph's edge rule
    (``hypot(dx, dy) <= max_range``), without building the graph: each
    reached node splits the unreached rest into its neighbours and the
    others.  ``hypot`` ignores signs and float subtraction is
    antisymmetric, so every pair decides exactly as the graph's does.
    """
    if max_range <= 0:
        raise ValueError("max_range must be positive")
    hypot = math.hypot
    unreached = list(placement.positions.values())
    frontier = [unreached.pop()]
    while frontier and unreached:
        x, y = frontier.pop()
        rest = []
        for point in unreached:
            if hypot(point[0] - x, point[1] - y) <= max_range:
                frontier.append(point)
            else:
                rest.append(point)
        unreached = rest
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
