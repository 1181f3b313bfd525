"""TITAN: backbone-biased route discovery (Sengul & Kravets [21], §4.3).

TITAN is the paper's flagship instance of *minimize idling energy first*.
It maintains a backbone of active (AM) nodes by biasing route discovery
toward nodes that are already awake: a node in power-save mode participates
in a route-request flood only *probabilistically*, with a probability that
shrinks as more of its neighborhood is already on the backbone — if enough
active nodes surround it, they can carry the route and the sleeping node
stays asleep.  Active nodes always participate.  As route diversity grows,
the number of distinct relays therefore shrinks, which is exactly why
TITAN's routing overhead stays bounded in dense networks (Table 2): route
discovery is dominated by the (few) active nodes rather than by every node
in the neighborhood.

Participation model: for a PSM node with ``n`` neighbors of which ``a`` are
active,

    p_forward = clamp(1 - bias * a / max(n, 1), p_min, 1)

``bias = 1`` and ``p_min = 0.1`` by default; ``p_min`` keeps discovery alive
in regions with no backbone yet.  Knowledge of neighbors' power-management
state stands in for TITAN's state piggybacking on PSM beacons.
"""

from __future__ import annotations

from repro.core.radio import PowerMode
from repro.routing.base import NodeContext
from repro.routing.costs import HopCount
from repro.routing.reactive import ReactiveProtocol, RouteRequest, RREQ_JITTER

_ACTIVE = PowerMode.ACTIVE


class Titan(ReactiveProtocol):
    """DSR-style discovery with probabilistic PSM-node participation."""

    name = "TITAN"

    def __init__(
        self,
        node: NodeContext,
        bias: float = 1.0,
        min_participation: float = 0.1,
        cache_timeout: float = 300.0,
    ) -> None:
        if not 0 <= min_participation <= 1:
            raise ValueError("min_participation must lie in [0, 1]")
        if bias < 0:
            raise ValueError("bias must be non-negative")
        super().__init__(node, cost=HopCount(), cache_timeout=cache_timeout)
        self.bias = bias
        self.min_participation = min_participation
        self.suppressed_rreqs = 0

    # ------------------------------------------------------------------
    def active_neighbor_fraction(self) -> float:
        """Fraction of this node's neighbors currently in active mode."""
        neighbors = self.node.channel.neighbors(self.node.node_id)
        if not neighbors:
            return 0.0
        active = sum(
            1
            for neighbor in neighbors
            if self.node.neighbor_mode(neighbor) is _ACTIVE
        )
        return active / len(neighbors)

    def participation_probability(self) -> float:
        """Probability that this node joins the current flood."""
        if self.node.power.mode is _ACTIVE:
            return 1.0
        p = 1.0 - self.bias * self.active_neighbor_fraction()
        return min(1.0, max(self.min_participation, p))

    def participates_in_discovery(self, request: RouteRequest) -> bool:
        """Coin-flip participation using :meth:`participation_probability`."""
        probability = self.participation_probability()
        if probability >= 1.0:
            return True
        if self._routing_rng().random() < probability:
            return True
        self.suppressed_rreqs += 1
        return False

    def rebroadcast_jitter(self) -> float:
        """Active nodes answer floods faster, so backbone routes win races."""
        if self.node.power.mode is _ACTIVE:
            return self._routing_rng().uniform(0.0, RREQ_JITTER / 2)
        return self._routing_rng().uniform(RREQ_JITTER / 2, RREQ_JITTER)
