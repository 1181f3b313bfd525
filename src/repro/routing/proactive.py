"""Proactive (table-driven) routing: the DSDV family (§4.2).

DSDV (Perkins & Bhagwat [20]) maintains a route to every destination via
sequence-numbered distance-vector updates: periodic dumps plus triggered
updates on route changes.  Both kinds advertise every non-stale table entry
(there are no incremental updates); ``DsdvUpdate.full_dump`` only records
which of the two caused the broadcast.  DSDVH is the paper's proactive joint
optimization: the distance metric is the joint cost ``h(u, v)`` of Eq. 12,
and — crucially — a *triggered update fires whenever a node's
power-management state changes*, because that changes the cost of every
route through the node.  Under IEEE 802.11 PSM each broadcast update keeps
all neighbors awake for a full beacon interval, which is exactly the
overhead that makes DSDVH-ODPM as expensive as an always-on network in
Fig. 9.

Data is forwarded hop-by-hop by table lookup (no source routes).  Packets
originated with no route yet wait in a :class:`~repro.routing.base.SendBuffer`
(DSDV's settling delay at flow start) until an update installs one.  No
timer drops them: only the per-destination cap evicts the oldest, counted
in ``SendBuffer.dropped_overflow`` (which no run result reports).

Performance notes: every awake neighbour merges every broadcast update, so
:meth:`ProactiveProtocol._on_update` runs once per received update and
walks all of its entries.  Adverts are immutable tuples, so the merge
unpacks them instead of reading attributes, and each table entry carries
the advert it is re-broadcast as, built once when the route is adopted;
a broadcast then only collects those shared adverts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.radio import PowerMode
from repro.routing.base import NodeContext, RoutingProtocol, SendBuffer
from repro.routing.costs import HOP_COUNT, LinkCost
from repro.sim.engine import Timer
from repro.sim.packet import BROADCAST, Packet, PacketKind

UPDATE_INTERVAL = 15.0
UPDATE_JITTER = 0.1
TRIGGERED_MIN_GAP = 1.0
ENTRY_BYTES = 12
UPDATE_BASE_BYTES = 28
#: Routes not refreshed for this many update intervals are stale.
ROUTE_LIFETIME_INTERVALS = 3
INFINITE_METRIC = math.inf

_DATA = PacketKind.DATA
_ROUTING = PacketKind.ROUTING


class UpdateEntry(NamedTuple):
    """One advertised destination: metric and destination sequence number.

    Immutable and shared: the table entry that advertises a route and every
    update payload it went out in hold the same object.
    """

    destination: int
    metric: float
    seqno: int


@dataclass(frozen=True)
class DsdvUpdate:
    """A broadcast routing update."""

    sender: int
    sender_mode: PowerMode
    entries: tuple[UpdateEntry, ...]
    full_dump: bool

    def size_bytes(self) -> int:
        return UPDATE_BASE_BYTES + ENTRY_BYTES * len(self.entries)


class _TableEntry:
    """A route: next hop, metric, seqno, install time and its advert.

    Entries are replaced, never mutated, so ``advert`` always matches the
    destination, metric and seqno the route is broadcast with.
    """

    __slots__ = ("next_hop", "metric", "seqno", "updated_at", "advert")

    def __init__(
        self, destination: int, next_hop: int, metric: float, seqno: int,
        updated_at: float,
    ) -> None:
        self.next_hop = next_hop
        self.metric = metric
        self.seqno = seqno
        self.updated_at = updated_at
        self.advert = UpdateEntry(destination, metric, seqno)


class ProactiveProtocol(RoutingProtocol):
    """Shared DSDV machinery with a pluggable link metric."""

    name = "proactive"

    def __init__(
        self,
        node: NodeContext,
        cost: LinkCost | None = None,
        update_interval: float = UPDATE_INTERVAL,
        trigger_on_mode_change: bool = False,
    ) -> None:
        super().__init__(node)
        if update_interval <= 0:
            raise ValueError("update interval must be positive")
        self.cost = cost or HOP_COUNT
        self.update_interval = update_interval
        self.trigger_on_mode_change = trigger_on_mode_change
        self.table: dict[int, _TableEntry] = {}
        self.buffer = SendBuffer()
        self._own_seqno = 0
        self._last_triggered = -math.inf
        self._trigger_pending = False
        self._rng = node.sim.rng("dsdv-%d" % node.node_id)
        self.triggered_updates = 0
        self.periodic_updates = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic full dumps, desynchronized across nodes."""
        initial_delay = self._rng.uniform(0.0, self.update_interval)
        self.sim.schedule(initial_delay, self._periodic_update)

    def _periodic_update(self) -> None:
        self._own_seqno += 2  # destinations advertise even sequence numbers
        self.periodic_updates += 1
        self._broadcast_update(full_dump=True)
        self.sim.schedule(
            self.update_interval + self._rng.uniform(-UPDATE_JITTER, UPDATE_JITTER),
            self._periodic_update,
        )

    def on_power_mode_change(self) -> None:
        """DSDVH hook: our mode changed, so costs through us changed."""
        if self.trigger_on_mode_change:
            self._schedule_triggered_update()

    def _schedule_triggered_update(self) -> None:
        if self._trigger_pending:
            return
        gap = self.sim.now - self._last_triggered
        delay = max(0.0, TRIGGERED_MIN_GAP - gap)
        self._trigger_pending = True

        def _fire() -> None:
            self._trigger_pending = False
            self._last_triggered = self.sim.now
            self.triggered_updates += 1
            self._broadcast_update(full_dump=False)

        self.sim.schedule(delay, _fire)

    def _broadcast_update(self, full_dump: bool) -> None:
        now = self.sim.now
        lifetime = ROUTE_LIFETIME_INTERVALS * self.update_interval
        entries = [UpdateEntry(self.node.node_id, 0.0, self._own_seqno)]
        entries += [
            entry.advert
            for entry in self.table.values()
            if now - entry.updated_at <= lifetime
        ]
        update = DsdvUpdate(
            sender=self.node.node_id,
            sender_mode=self.node.power.mode,
            entries=tuple(entries),
            full_dump=full_dump,
        )
        frame = Packet(
            kind=_ROUTING,
            src=self.node.node_id,
            dst=BROADCAST,
            size_bytes=update.size_bytes(),
            payload=update,
            created_at=now,
        )
        self.stats.updates_sent += 1
        self.stats.control_packets += 1
        self.node.mac.send(frame)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def originate_data(self, packet: Packet) -> None:
        assert packet.final_dst is not None
        self.stats.data_originated += 1
        self.node.power.notify_data_activity()
        self._forward(packet, originating=True)

    def _forward(self, packet: Packet, originating: bool = False) -> None:
        assert packet.final_dst is not None
        entry = self.table.get(packet.final_dst)
        if entry is None or math.isinf(entry.metric):
            if originating:
                self.buffer.push(packet.final_dst, packet)
            else:
                self.stats.data_dropped_no_route += 1
            return
        frame = packet.copy_for_hop(self.node.node_id, entry.next_hop)
        frame.payload = None
        self.node.mac.send(frame, self.data_tx_distance(entry.next_hop))

    def on_frame(self, packet: Packet) -> None:
        """Dispatch a delivered frame: data forwarding or update processing."""
        if packet.kind is _DATA:
            self.node.power.notify_data_activity()
            if packet.final_dst == self.node.node_id:
                self.stats.data_delivered += 1
                self.node.deliver_to_app(packet)
                return
            self.stats.data_forwarded += 1
            self._forward(packet)
            return
        if packet.kind is _ROUTING and isinstance(packet.payload, DsdvUpdate):
            self._on_update(packet.payload)

    # ------------------------------------------------------------------
    # Distance-vector processing
    # ------------------------------------------------------------------
    def _on_update(self, update: DsdvUpdate) -> None:
        """Merge a neighbour's update into the table, one pass over it.

        An advert is adopted when the destination is new and reachable,
        when its seqno is newer, when the seqno is equal and the metric
        lower, or when it comes from the current next hop with a changed
        metric.  An ``inf`` advert needs no special case: link costs are
        finite and non-negative, so ``inf + link_cost`` is ``inf``.
        Packets buffered for a destination leave as soon as it gets a
        finite route, in entry order.
        """
        me = self.node.node_id
        sender = update.sender
        link_cost = self.cost(
            self.link_distance(sender), update.sender_mode, None
        )
        table = self.table
        current_entry = table.get
        pending = self.buffer.pending
        changed = False
        for destination, metric, seqno in update.entries:
            metric += link_cost
            current = current_entry(destination)
            if current is None:
                # The table never holds this node itself, so the advert of
                # a route to us is always skipped here.
                if destination == me or metric == INFINITE_METRIC:
                    continue
            elif not (
                seqno > current.seqno
                or (seqno == current.seqno and metric < current.metric)
                # Metric through our own next hop changed; track it.
                or (current.next_hop == sender and metric != current.metric)
            ):
                continue
            table[destination] = _TableEntry(
                destination, sender, metric, seqno, self.sim.now
            )
            changed = True
            if metric != INFINITE_METRIC and pending(destination):
                self._drain_buffer(destination, sender)
        if changed and self.trigger_on_mode_change:
            # DSDVH propagates cost changes; plain DSDV waits for the
            # periodic dump (full DSDV would also trigger on new seqno,
            # which we fold into the periodic cycle to bound overhead).
            self._schedule_triggered_update()

    def _drain_buffer(self, destination: int, next_hop: int) -> None:
        """Send every packet buffered for ``destination`` via ``next_hop``."""
        distance = self.data_tx_distance(next_hop)
        for packet in self.buffer.pop_all(destination):
            frame = packet.copy_for_hop(self.node.node_id, next_hop)
            frame.payload = None
            self.node.mac.send(frame, distance)

    # ------------------------------------------------------------------
    def on_link_failure(self, next_hop: int, packet: Packet) -> None:
        """Poison every route through the failed next hop (odd seqno)."""
        changed = False
        for destination, entry in self.table.items():
            if entry.next_hop == next_hop and not math.isinf(entry.metric):
                self.table[destination] = _TableEntry(
                    destination,
                    next_hop,
                    INFINITE_METRIC,
                    entry.seqno + 1,  # odd: broken-route sequence number
                    self.sim.now,
                )
                changed = True
        if packet.kind is _DATA:
            self.stats.data_dropped_link_failure += 1
        if changed:
            self._schedule_triggered_update()

    # ------------------------------------------------------------------
    def route_to(self, destination: int) -> tuple[int, float] | None:
        """(next_hop, metric) for a destination, or None."""
        entry = self.table.get(destination)
        if entry is None or math.isinf(entry.metric):
            return None
        return entry.next_hop, entry.metric
