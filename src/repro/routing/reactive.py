"""Reactive (on-demand) routing framework: DSR-style discovery with
pluggable link costs and participation policies.

Every reactive protocol in the paper — DSR, MTPR, MTPR+, DSRH(rate/norate)
and TITAN — shares the same machinery, differing only in:

* the **link cost** accumulated by route requests (Eqs. 10–12, or hop count);
* the **participation policy**: whether a node rebroadcasts a route request
  at all (TITAN's probabilistic backbone bias);
* whether the **flow rate** is carried in headers (DSRH *rate* variant).

Mechanics (§4.1): route requests flood the network carrying the route and
its accumulated cost; nodes rebroadcast a request again whenever a copy with
a strictly lower cost arrives, so low-cost routes win even if they arrive
late.  The destination replies to the first copy and to every improvement.
Route replies travel back hop-by-hop along the discovered route; every node
they traverse becomes a relay candidate (ODPM arms its RREP keep-alive).
Data is source-routed; MAC-level retry exhaustion triggers route error
packets back to the origin, which invalidates the route and re-discovers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from repro.core.radio import PowerMode
from repro.routing.base import (
    NodeContext,
    RouteCache,
    RoutingProtocol,
    SendBuffer,
)
from repro.routing.costs import HOP_COUNT, LinkCost
from repro.sim.engine import Timer
from repro.sim.packet import BROADCAST, Packet, PacketKind

#: Base size of routing control payloads in bytes, plus per-hop address cost.
CONTROL_BASE_BYTES = 32
ADDRESS_BYTES = 4

#: Rebroadcast jitter bound for route requests, seconds.
RREQ_JITTER = 0.01

#: Route discovery schedule: initial timeout, backoff factor, max attempts.
DISCOVERY_TIMEOUT = 1.0
DISCOVERY_BACKOFF = 2.0
DISCOVERY_ATTEMPTS = 3

_DATA = PacketKind.DATA
_ROUTING = PacketKind.ROUTING


@dataclass(frozen=True)
class RouteRequest:
    """Flooded discovery payload: the route so far and its cost."""

    origin: int
    target: int
    request_id: int
    path: tuple[int, ...]
    cost: float
    rate: float | None = None

    def size_bytes(self) -> int:
        return CONTROL_BASE_BYTES + ADDRESS_BYTES * len(self.path)


@dataclass(frozen=True)
class RouteReply:
    """Reply payload: the full route and its advertised cost."""

    origin: int
    target: int
    path: tuple[int, ...]
    cost: float

    def size_bytes(self) -> int:
        return CONTROL_BASE_BYTES + ADDRESS_BYTES * len(self.path)


@dataclass(frozen=True)
class RouteError:
    """Link-breakage notification sent back toward the data origin."""

    origin: int
    broken_from: int
    broken_to: int
    path: tuple[int, ...]

    def size_bytes(self) -> int:
        return CONTROL_BASE_BYTES + ADDRESS_BYTES * len(self.path)


@dataclass(frozen=True)
class SourceRoute:
    """Data-packet header: the route and the current hop index."""

    path: tuple[int, ...]
    index: int
    rate: float | None = None

    @property
    def next_hop(self) -> int:
        return self.path[self.index + 1]

    def advanced(self) -> "SourceRoute":
        return SourceRoute(self.path, self.index + 1, self.rate)


@dataclass
class _Discovery:
    request_id: int
    attempts: int = 0
    timer: Timer | None = None


class ReactiveProtocol(RoutingProtocol):
    """Shared engine for the DSR family."""

    name = "reactive"

    def __init__(
        self,
        node: NodeContext,
        cost: LinkCost | None = None,
        include_rate: bool = False,
        cache_timeout: float = 300.0,
    ) -> None:
        super().__init__(node)
        self.cost = cost or HOP_COUNT
        self.include_rate = include_rate
        self.cache = RouteCache(node.sim, timeout=cache_timeout)
        self.buffer = SendBuffer()
        self._discoveries: dict[int, _Discovery] = {}
        self._request_counter = 0
        #: (origin, request_id) -> best cost seen, for rebroadcast decisions.
        self._seen_requests: dict[tuple[int, int], float] = {}
        #: best cost replied per (origin, request_id), at the destination.
        self._replied: dict[tuple[int, int], float] = {}
        #: flow_id -> advertised rate (installed by traffic agents).
        self.flow_rates: dict[int, float] = {}
        self._rng: random.Random | None = None

    def _routing_rng(self) -> random.Random:
        """The ``routing-<id>`` stream, created at the first draw.

        Most nodes of a short run never rebroadcast a request; the stream's
        draws are the same whenever it is created (see
        :meth:`repro.sim.engine.Simulator.rng`).
        """
        rng = self._rng
        if rng is None:
            rng = self._rng = self.sim.rng("routing-%d" % self.node.node_id)
        return rng

    def close(self) -> None:
        """Drop the discoveries in flight: their timers call back into us."""
        super().close()
        self._discoveries.clear()

    # ------------------------------------------------------------------
    # Application data path
    # ------------------------------------------------------------------
    def originate_data(self, packet: Packet) -> None:
        """Send application data: use a cached route or start discovery."""
        assert packet.final_dst is not None
        self.stats.data_originated += 1
        self.node.power.notify_data_activity()
        route = self.cache.get(packet.final_dst)
        if route is not None:
            self._send_along(packet, route.path)
            return
        self.buffer.push(packet.final_dst, packet)
        self._start_discovery(packet.final_dst)

    def _send_along(self, packet: Packet, path: tuple[int, ...]) -> None:
        rate = None
        if self.include_rate and packet.flow_id is not None:
            rate = self.flow_rates.get(packet.flow_id)
        header = SourceRoute(path=path, index=0, rate=rate)
        frame = packet.copy_for_hop(self.node.node_id, header.next_hop)
        frame.payload = header
        self.node.mac.send(frame, self.data_tx_distance(header.next_hop))

    # ------------------------------------------------------------------
    # Route discovery
    # ------------------------------------------------------------------
    def _next_request_id(self) -> int:
        self._request_counter += 1
        return self._request_counter

    def _start_discovery(self, destination: int) -> None:
        if destination in self._discoveries:
            return  # discovery already in flight
        discovery = _Discovery(request_id=self._next_request_id())
        discovery.timer = Timer(self.sim, lambda: self._discovery_timeout(destination))
        self._discoveries[destination] = discovery
        self._send_rreq(destination, discovery)

    def _send_rreq(self, destination: int, discovery: _Discovery) -> None:
        discovery.attempts += 1
        rate = None
        if self.include_rate:
            # Advertise the rate of any flow buffered toward this destination.
            rate = self._buffered_flow_rate(destination)
        request = RouteRequest(
            origin=self.node.node_id,
            target=destination,
            request_id=discovery.request_id,
            path=(self.node.node_id,),
            cost=0.0,
            rate=rate,
        )
        self._broadcast_control(request, request.size_bytes())
        self.stats.rreq_sent += 1
        assert discovery.timer is not None
        discovery.timer.restart(
            DISCOVERY_TIMEOUT * DISCOVERY_BACKOFF ** (discovery.attempts - 1)
        )

    def _buffered_flow_rate(self, destination: int) -> float | None:
        """Rate advertised in a route request: that of the buffered flow."""
        for packet in self.buffer.peek_all(destination):
            if packet.flow_id is not None and packet.flow_id in self.flow_rates:
                return self.flow_rates[packet.flow_id]
        return None

    def _discovery_timeout(self, destination: int) -> None:
        discovery = self._discoveries.get(destination)
        if discovery is None:
            return
        if discovery.attempts >= DISCOVERY_ATTEMPTS:
            dropped = self.buffer.drop_all(destination)
            self.stats.data_dropped_no_route += dropped
            del self._discoveries[destination]
            return
        discovery.request_id = self._next_request_id()
        self._send_rreq(destination, discovery)

    # ------------------------------------------------------------------
    # Participation (TITAN overrides)
    # ------------------------------------------------------------------
    def participates_in_discovery(self, request: RouteRequest) -> bool:
        """Whether this node joins the flood.  Default: always."""
        return True

    def rebroadcast_jitter(self) -> float:
        """Random delay before rebroadcasting a route request."""
        return self._routing_rng().uniform(0.0, RREQ_JITTER)

    # ------------------------------------------------------------------
    # Frame handling
    # ------------------------------------------------------------------
    def on_frame(self, packet: Packet) -> None:
        """Dispatch a delivered frame to the data or control handlers."""
        if packet.kind is _DATA:
            self._on_data(packet)
            return
        if packet.kind is not _ROUTING:
            return
        payload = packet.payload
        if isinstance(payload, RouteRequest):
            self._on_rreq(payload, packet)
        elif isinstance(payload, RouteReply):
            self._on_rrep(payload)
        elif isinstance(payload, RouteError):
            self._on_rerr(payload)

    def _on_data(self, packet: Packet) -> None:
        header = packet.payload
        assert isinstance(header, SourceRoute)
        self.node.power.notify_data_activity()
        if packet.final_dst == self.node.node_id:
            self.stats.data_delivered += 1
            self.node.deliver_to_app(packet)
            return
        advanced = header.advanced()
        if advanced.index >= len(advanced.path) - 1:
            return  # malformed: we are the last hop but not the destination
        self.stats.data_forwarded += 1
        frame = packet.copy_for_hop(self.node.node_id, advanced.next_hop)
        frame.payload = advanced
        self.node.mac.send(frame, self.data_tx_distance(advanced.next_hop))

    # -- route requests ----------------------------------------------------
    def _on_rreq(self, request: RouteRequest, packet: Packet) -> None:
        me = self.node.node_id
        if request.origin == me or me in request.path:
            return  # our own flood or a loop
        upstream = request.path[-1]
        extended_cost = request.cost + self.cost(
            self.link_distance(upstream), self.node.power.mode, request.rate
        )
        key = (request.origin, request.request_id)
        if request.target == me:
            best_replied = self._replied.get(key)
            if best_replied is not None and extended_cost >= best_replied:
                return
            self._replied[key] = extended_cost
            full_path = request.path + (me,)
            self._send_rrep(
                RouteReply(
                    origin=request.origin,
                    target=me,
                    path=full_path,
                    cost=extended_cost,
                )
            )
            return
        best_seen = self._seen_requests.get(key)
        if best_seen is not None and extended_cost >= best_seen:
            return  # no improvement: suppress the rebroadcast
        self._seen_requests[key] = extended_cost
        if not self.participates_in_discovery(request):
            return
        extended = RouteRequest(
            request.origin,
            request.target,
            request.request_id,
            request.path + (me,),
            extended_cost,
            request.rate,
        )
        self.stats.rreq_forwarded += 1
        self.sim.schedule(
            self.rebroadcast_jitter(),
            lambda: self._broadcast_control(extended, extended.size_bytes()),
        )

    # -- route replies -------------------------------------------------------
    def _send_rrep(self, reply: RouteReply) -> None:
        """Destination-side: unicast the reply to the previous hop."""
        self.stats.rrep_sent += 1
        self.node.power.notify_route_reply()
        self._forward_rrep(reply, from_index=len(reply.path) - 1)

    def _forward_rrep(self, reply: RouteReply, from_index: int) -> None:
        if from_index == 0:
            return  # arrived at the origin
        next_hop = reply.path[from_index - 1]
        frame = Packet(
            kind=_ROUTING,
            src=self.node.node_id,
            dst=next_hop,
            size_bytes=reply.size_bytes(),
            payload=reply,
            created_at=self.sim.now,
        )
        self.node.mac.send(frame)

    def _on_rrep(self, reply: RouteReply) -> None:
        me = self.node.node_id
        self.node.power.notify_route_reply()
        position = reply.path.index(me) if me in reply.path else -1
        if position < 0:
            return
        # Cache the downstream sub-route (DSR-style).
        sub_path = reply.path[position:]
        if len(sub_path) >= 2:
            self.cache.offer(reply.target, sub_path, reply.cost)
        if me == reply.origin:
            self._discovery_complete(reply)
            return
        self.stats.rrep_forwarded += 1
        self._forward_rrep(reply, from_index=position)

    def _discovery_complete(self, reply: RouteReply) -> None:
        destination = reply.target
        discovery = self._discoveries.pop(destination, None)
        if discovery is not None and discovery.timer is not None:
            discovery.timer.cancel()
        route = self.cache.get(destination)
        if route is None:
            return
        for packet in self.buffer.pop_all(destination):
            self._send_along(packet, route.path)

    # -- route errors ---------------------------------------------------------
    def on_link_failure(self, next_hop: int, packet: Packet) -> None:
        """MAC retry exhaustion: invalidate the link and send a route error."""
        me = self.node.node_id
        self.cache.invalidate_link(me, next_hop)
        if packet.kind is not _DATA:
            return  # lost control packet; discovery retries recover
        self.stats.data_dropped_link_failure += 1
        header = packet.payload
        if not isinstance(header, SourceRoute):
            return
        origin = packet.origin
        if origin is None or origin == me:
            return
        error = RouteError(
            origin=origin,
            broken_from=me,
            broken_to=next_hop,
            path=header.path,
        )
        position = header.path.index(me) if me in header.path else -1
        if position <= 0:
            return
        previous_hop = header.path[position - 1]
        frame = Packet(
            kind=_ROUTING,
            src=me,
            dst=previous_hop,
            size_bytes=error.size_bytes(),
            payload=error,
            created_at=self.sim.now,
        )
        self.stats.rerr_sent += 1
        self.node.mac.send(frame)

    def _on_rerr(self, error: RouteError) -> None:
        me = self.node.node_id
        self.cache.invalidate_link(error.broken_from, error.broken_to)
        if me == error.origin:
            return
        position = error.path.index(me) if me in error.path else -1
        if position <= 0:
            return
        previous_hop = error.path[position - 1]
        frame = Packet(
            kind=_ROUTING,
            src=me,
            dst=previous_hop,
            size_bytes=error.size_bytes(),
            payload=error,
            created_at=self.sim.now,
        )
        self.node.mac.send(frame)

    # ------------------------------------------------------------------
    def _broadcast_control(self, payload: object, size_bytes: int) -> None:
        frame = Packet(
            kind=_ROUTING,
            src=self.node.node_id,
            dst=BROADCAST,
            size_bytes=size_bytes,
            payload=payload,
            created_at=self.sim.now,
        )
        self.stats.control_packets += 1
        self.node.mac.send(frame)
