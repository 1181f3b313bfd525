"""Packet model for the wireless simulator.

Packets are small dataclasses; each carries the fields needed by the layers
it traverses.  Sizes follow the paper's setup (128-byte data payloads) with
802.11-style control frame sizes.  Control packets (routing and MAC control)
are always transmitted at maximum power, per Eq. 2 of the paper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any

_packet_ids = itertools.count(1)

#: Broadcast address.
BROADCAST = -1


class PacketKind(Enum):
    """What a frame is, at the granularity energy accounting needs.

    Members hash by identity (see :class:`repro.core.radio.RadioState`):
    the MAC looks frame sizes up by kind per control exchange, and identity
    hashing keeps those dict probes at C speed.
    """

    __hash__ = object.__hash__

    DATA = "data"
    RTS = "rts"
    CTS = "cts"
    ACK = "ack"
    BEACON = "beacon"
    ATIM = "atim"
    ATIM_ACK = "atim-ack"
    ROUTING = "routing"  # RREQ/RREP/RERR/DSDV updates/TITAN hellos


_DATA = PacketKind.DATA

#: Frame sizes in bytes (802.11-flavored defaults; headers included).
FRAME_SIZES = {
    PacketKind.RTS: 20,
    PacketKind.CTS: 14,
    PacketKind.ACK: 14,
    PacketKind.BEACON: 28,
    PacketKind.ATIM: 28,
    PacketKind.ATIM_ACK: 14,
}

#: MAC + PHY framing overhead added to DATA and ROUTING payloads, bytes.
HEADER_OVERHEAD = 34


@dataclass(slots=True)
class Packet:
    """A frame in flight.

    ``src``/``dst`` are the MAC-level (one-hop) addresses; ``origin`` and
    ``final_dst`` the end-to-end endpoints for DATA packets.  ``payload``
    carries routing-protocol structures for ROUTING frames.  Slotted:
    thousands of frames are created per simulated second, and every PHY a
    frame passes reads its fields on the reception hot path.
    """

    kind: PacketKind
    src: int
    dst: int
    size_bytes: int
    origin: int | None = None
    final_dst: int | None = None
    flow_id: int | None = None
    seqno: int | None = None
    payload: Any = None
    #: True for frames that count as control overhead (Eq. 2).
    is_control: bool = True
    uid: int = field(default_factory=lambda: next(_packet_ids))
    created_at: float = 0.0
    hops_travelled: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("packet size must be positive")
        if self.kind is _DATA:
            self.is_control = False

    @property
    def size_bits(self) -> int:
        return self.size_bytes * 8

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST

    def copy_for_hop(self, src: int, dst: int) -> "Packet":
        """Clone the frame for the next hop, keeping end-to-end identity."""
        clone = replace(self, src=src, dst=dst, uid=next(_packet_ids))
        clone.hops_travelled = self.hops_travelled + 1
        return clone


def make_data_packet(
    origin: int,
    final_dst: int,
    src: int,
    dst: int,
    payload_bytes: int = 128,
    flow_id: int | None = None,
    seqno: int | None = None,
    created_at: float = 0.0,
) -> Packet:
    """Build an application DATA frame with MAC/PHY overhead added."""
    return Packet(
        kind=_DATA,
        src=src,
        dst=dst,
        size_bytes=payload_bytes + HEADER_OVERHEAD,
        origin=origin,
        final_dst=final_dst,
        flow_id=flow_id,
        seqno=seqno,
        is_control=False,
        created_at=created_at,
    )


def make_control_packet(
    kind: PacketKind,
    src: int,
    dst: int,
    size_bytes: int | None = None,
    payload: Any = None,
    created_at: float = 0.0,
) -> Packet:
    """Build a MAC or routing control frame (transmitted at max power)."""
    if size_bytes is None:
        size_bytes = FRAME_SIZES.get(kind)
        if size_bytes is None:
            raise ValueError("size required for %r frames" % kind)
    return Packet(
        kind=kind,
        src=src,
        dst=dst,
        size_bytes=size_bytes,
        payload=payload,
        is_control=True,
        created_at=created_at,
    )
