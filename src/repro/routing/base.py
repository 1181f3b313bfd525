"""Routing protocol base: node context, route cache, send buffer, stats.

All protocols implement :class:`RoutingProtocol` (the §4 heuristics —
TITAN, DSRH, DSDVH — as well as the §5.2 baselines DSR, DSDV, MTPR).  They
receive a :class:`NodeContext` exposing exactly the node facilities routing
needs — the MAC for frame transmission, the channel for link distances
(meters), the power manager for AM/PSM state (both to drive ODPM and to
evaluate Eq. 12 costs), and the application upcall for delivered data.

Route costs are dimensionless scores computed by :mod:`repro.routing.costs`
from link distances (meters) and card powers (watts); lower is better.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol

from repro.core.radio import PowerMode, RadioModel
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.mac import Mac
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.power.manager import PowerManager


class NodeContext(Protocol):
    """What a routing protocol can see of its node."""

    sim: Simulator
    node_id: int
    mac: Mac
    channel: Channel
    card: RadioModel
    power: "PowerManager"
    power_control: bool

    def deliver_to_app(self, packet: Packet) -> None: ...

    def neighbor_mode(self, neighbor: int) -> PowerMode: ...


@dataclass(slots=True)
class RoutingStats:
    """Per-node routing counters."""

    data_originated: int = 0
    data_forwarded: int = 0
    data_delivered: int = 0
    data_dropped_no_route: int = 0
    data_dropped_link_failure: int = 0
    rreq_sent: int = 0
    rreq_forwarded: int = 0
    rrep_sent: int = 0
    rrep_forwarded: int = 0
    rerr_sent: int = 0
    updates_sent: int = 0
    control_packets: int = 0


@dataclass
class CachedRoute:
    """A cached source route with its advertised cost.

    ``cost`` is the protocol's route metric (dimensionless; e.g. hop count
    for DSR, total transmit power for MTPR, the Eq. 12 energy-aware score
    for TITAN/DSRH); ``learned_at`` is the installation time in simulation
    seconds.
    """

    path: tuple[int, ...]
    cost: float
    learned_at: float

    @property
    def next_hop(self) -> int:
        return self.path[1]

    @property
    def hop_count(self) -> int:
        return len(self.path) - 1


class RouteCache:
    """Destination -> best known route, with expiry.

    Keeps the single best (lowest-cost, then freshest) route per destination,
    which is what the paper's DSR/MTPR implementations store.  ``timeout``
    is the route lifetime in simulation seconds (DSR's default 300 s).
    """

    def __init__(self, sim: Simulator, timeout: float = 300.0) -> None:
        if timeout <= 0:
            raise ValueError("cache timeout must be positive")
        self.sim = sim
        self.timeout = timeout
        self._routes: dict[int, CachedRoute] = {}

    def get(self, destination: int) -> CachedRoute | None:
        """Return the cached route for ``destination``, dropping it if stale."""
        route = self._routes.get(destination)
        if route is None:
            return None
        if self.sim.now - route.learned_at > self.timeout:
            del self._routes[destination]
            return None
        return route

    def offer(self, destination: int, path: tuple[int, ...], cost: float) -> bool:
        """Install the route if it beats the cached one.  Returns True if kept."""
        current = self.get(destination)
        if current is not None and current.cost < cost:
            return False
        self._routes[destination] = CachedRoute(path, cost, self.sim.now)
        return True

    def invalidate_link(self, u: int, v: int) -> list[int]:
        """Drop every cached route using link ``u — v`` (either direction).

        Returns the destinations whose routes were removed.
        """
        broken = []
        for destination, route in list(self._routes.items()):
            hops = list(zip(route.path, route.path[1:]))
            if (u, v) in hops or (v, u) in hops:
                del self._routes[destination]
                broken.append(destination)
        return broken

    def invalidate(self, destination: int) -> None:
        self._routes.pop(destination, None)

    def __len__(self) -> int:
        return len(self._routes)


class SendBuffer:
    """Per-destination buffer for packets awaiting route discovery."""

    def __init__(self, capacity_per_destination: int = 64) -> None:
        if capacity_per_destination < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity_per_destination
        self._buffers: dict[int, deque[Packet]] = {}
        self.dropped_overflow = 0

    def push(self, destination: int, packet: Packet) -> None:
        buffer = self._buffers.setdefault(destination, deque())
        if len(buffer) >= self.capacity:
            buffer.popleft()
            self.dropped_overflow += 1
        buffer.append(packet)

    def peek_all(self, destination: int) -> list[Packet]:
        """Buffered packets for ``destination`` without removing them."""
        return list(self._buffers.get(destination, ()))

    def pop_all(self, destination: int) -> list[Packet]:
        buffer = self._buffers.pop(destination, None)
        return list(buffer) if buffer else []

    def drop_all(self, destination: int) -> int:
        buffer = self._buffers.pop(destination, None)
        return len(buffer) if buffer else 0

    def pending(self, destination: int) -> int:
        return len(self._buffers.get(destination, ()))


class RoutingProtocol:
    """Common surface of every routing protocol.

    The node wires ``mac.on_deliver`` / ``mac.on_link_failure`` into
    :meth:`on_frame` / :meth:`on_link_failure` and calls
    :meth:`originate_data` for application traffic.
    """

    name = "base"

    def __init__(self, node: NodeContext) -> None:
        self.node = node
        self.sim = node.sim
        self.stats = RoutingStats()

    # -- required interface -------------------------------------------------
    def start(self) -> None:
        """Called once when the simulation begins (timers, hellos, dumps)."""

    def close(self) -> None:
        """Drop the back-pointer to the node (end of a run).

        The node holds this protocol, so the pointer is a reference cycle.
        Counters, caches and tables stay readable.
        """
        self.node = None

    def originate_data(self, packet: Packet) -> None:
        """Send application data originated at this node."""
        raise NotImplementedError

    def on_frame(self, packet: Packet) -> None:
        """A frame was delivered to this node by the MAC."""
        raise NotImplementedError

    def on_link_failure(self, next_hop: int, packet: Packet) -> None:
        """The MAC exhausted retries transmitting ``packet`` to ``next_hop``."""
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------
    def link_distance(self, neighbor: int) -> float:
        """Distance to ``neighbor`` in meters (cost inputs, power control)."""
        return self.node.channel.distance(self.node.node_id, neighbor)

    def data_tx_distance(self, next_hop: int) -> float | None:
        """Distance in meters for power-controlled data transmission.

        None means transmit at maximum power (non-PC presets): the radio
        spends ``P_base + alpha2 * D^n`` watts instead of tuning to the
        actual hop length (§2.1).
        """
        if self.node.power_control:
            return self.link_distance(next_hop)
        return None
