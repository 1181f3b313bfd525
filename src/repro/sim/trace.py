"""Packet-level tracing (the ns-2 trace-file substitute).

A :class:`Tracer` hooks a built :class:`~repro.sim.network.WirelessNetwork`
and records one :class:`TraceEvent` per MAC-level delivery, transmission
start, drop and link failure.  Traces answer the questions the paper's
evaluation raises — where did control overhead go, which relays carried
which flows, when did protocols re-route — and they are how several
integration tests observe protocol internals without reaching into them.

Events can be filtered and summarized::

    tracer = Tracer(network)
    network.run()
    tracer.summary()                      # counts per event kind
    tracer.events(kind="link-failure")    # filtered view
    tracer.airtime_by_kind()              # seconds of airtime per frame kind
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.sim.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import WirelessNetwork

_DATA = PacketKind.DATA


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time: float
    kind: str          # "send" | "deliver" | "drop" | "link-failure"
    node: int
    packet_kind: PacketKind
    src: int
    dst: int
    uid: int
    flow_id: int | None = None
    seqno: int | None = None
    size_bits: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "%.6f %-12s node=%-3d %-8s %d->%d uid=%d" % (
            self.time, self.kind, self.node, self.packet_kind.value,
            self.src, self.dst, self.uid,
        )


class Tracer:
    """Record MAC-level events across every node of a network."""

    def __init__(self, network: "WirelessNetwork", max_events: int = 1_000_000):
        if max_events < 1:
            raise ValueError("max_events must be positive")
        self.network = network
        self.max_events = max_events
        self._events: list[TraceEvent] = []
        self.dropped_records = 0
        for node in network.nodes.values():
            self._instrument(node)

    # ------------------------------------------------------------------
    def _instrument(self, node) -> None:
        sim = node.sim
        mac = node.mac
        phy = node.phy
        node_id = node.node_id

        original_deliver = mac.on_deliver
        original_failure = mac.on_link_failure
        original_tx_done = phy.on_tx_done

        def on_deliver(packet: Packet) -> None:
            self._record("deliver", sim.now, node_id, packet)
            original_deliver(packet)

        def on_link_failure(dst: int, packet: Packet) -> None:
            self._record("link-failure", sim.now, node_id, packet)
            original_failure(dst, packet)

        def on_tx_done(packet: Packet) -> None:
            self._record("send", sim.now, node_id, packet)
            original_tx_done(packet)

        mac.on_deliver = on_deliver
        mac.on_link_failure = on_link_failure
        phy.on_tx_done = on_tx_done

    def _record(self, kind: str, time: float, node: int, packet: Packet) -> None:
        if len(self._events) >= self.max_events:
            self.dropped_records += 1
            return
        self._events.append(
            TraceEvent(
                time=time,
                kind=kind,
                node=node,
                packet_kind=packet.kind,
                src=packet.src,
                dst=packet.dst,
                uid=packet.uid,
                flow_id=packet.flow_id,
                seqno=packet.seqno,
                size_bits=packet.size_bits,
            )
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def events(
        self,
        kind: str | None = None,
        node: int | None = None,
        packet_kind: PacketKind | None = None,
    ) -> list[TraceEvent]:
        """Filtered copy of the recorded events, in time order."""
        result: Iterator[TraceEvent] = iter(self._events)
        if kind is not None:
            result = (e for e in result if e.kind == kind)
        if node is not None:
            result = (e for e in result if e.node == node)
        if packet_kind is not None:
            result = (e for e in result if e.packet_kind == packet_kind)
        return list(result)

    def __len__(self) -> int:
        return len(self._events)

    def summary(self) -> dict[str, int]:
        """Event counts per (kind, packet kind)."""
        counts: dict[str, int] = {}
        for event in self._events:
            key = "%s/%s" % (event.kind, event.packet_kind.value)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def airtime_by_kind(self) -> dict[PacketKind, float]:
        """Seconds of transmission airtime per frame kind."""
        bandwidth = self.network.config.card.bandwidth
        airtime: dict[PacketKind, float] = {}
        for event in self._events:
            if event.kind != "send":
                continue
            airtime[event.packet_kind] = (
                airtime.get(event.packet_kind, 0.0)
                + event.size_bits / bandwidth
            )
        return airtime

    def control_share(self) -> float:
        """Fraction of transmitted airtime spent on non-DATA frames."""
        airtime = self.airtime_by_kind()
        total = sum(airtime.values())
        if total == 0:
            return 0.0
        data = airtime.get(_DATA, 0.0)
        return 1.0 - data / total

    def flow_path(self, flow_id: int) -> list[int]:
        """Relays observed forwarding a flow's data, in first-seen order."""
        seen: list[int] = []
        for event in self._events:
            if (
                event.kind == "send"
                and event.packet_kind is _DATA
                and event.flow_id == flow_id
                and event.node not in seen
            ):
                seen.append(event.node)
        return seen

    def write(self, path: str) -> int:
        """Dump the trace to a text file (one event per line)."""
        with open(path, "w") as handle:
            for event in self._events:
                handle.write(str(event) + "\n")
        return len(self._events)
