"""CSMA/CA medium access control with optional RTS/CTS (802.11-DCF flavor).

Unicast frames run the full transaction: carrier sense + random backoff,
optional RTS/CTS handshake for data frames, DATA, then ACK.  Missing CTS or
ACK triggers binary-exponential-backoff retries up to a retry limit, after
which the frame is dropped and the routing layer is told the link failed —
this is what lets DSR issue route errors.  Broadcast frames (route request
floods, DSDV updates) are transmitted once after carrier sense, unprotected.

Power-save gating: when the destination of a unicast frame is in PSM and not
awake in the current beacon interval, the frame is *held* (not retried) until
the PSM scheduler announces the destination in an ATIM window and kicks the
MAC.  The ``peer_awake`` oracle is installed by the PSM scheduler; in a
network without power saving it always answers True.  Held frames do not
head-of-line-block traffic to awake destinations: the queue is scanned for
the first eligible frame.

Timing constants follow 802.11 DSSS: SIFS 10 us, DIFS 50 us, 20 us slots,
CW in [31, 1023].
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.radio import RadioState
from repro.sim.engine import EventHandle, Simulator
from repro.sim.packet import (
    BROADCAST,
    FRAME_SIZES,
    Packet,
    PacketKind,
    make_control_packet,
)
from repro.sim.phy import Phy

SIFS = 10e-6
DIFS = 50e-6
SLOT = 20e-6
CW_MIN = 31
CW_MAX = 1023
#: Scheduling slack added to control-response timeouts.
TIMEOUT_SLACK = 5e-6

_IDLE = RadioState.IDLE
_DATA = PacketKind.DATA
_RTS = PacketKind.RTS
_CTS = PacketKind.CTS
_ACK = PacketKind.ACK

#: Control-response timeouts per radio card (RadioModel is frozen, hence
#: hashable).  Fixed per card, so the 300 MACs of a dense network share one
#: read-only mapping instead of each deriving its own at assembly time.
_CONTROL_TIMES: dict = {}


def _control_times_for(card) -> dict:
    times = _CONTROL_TIMES.get(card)
    if times is None:
        times = _CONTROL_TIMES[card] = {
            kind: FRAME_SIZES[kind] * 8 / card.bandwidth + TIMEOUT_SLACK
            for kind in (_CTS, _ACK)
        }
    return times


@dataclass(slots=True)
class _Outgoing:
    packet: Packet
    distance: float | None
    attempts: int = 0
    cw: int = CW_MIN


@dataclass(slots=True)
class MacStats:
    """Counters kept per MAC for traces, tests and ablations."""

    enqueued: int = 0
    sent_unicast: int = 0
    sent_broadcast: int = 0
    delivered: int = 0
    retries: int = 0
    drops: int = 0
    link_failures: int = 0


class Mac:
    """One node's MAC entity.

    Upcalls (installed by the network layer / node composition):

    * ``on_deliver(packet)`` — a frame addressed to us (or broadcast) arrived.
    * ``on_link_failure(next_hop, packet)`` — retry limit exhausted.
    * ``peer_awake(dst)`` — PSM oracle; default always-awake.
    """

    def __init__(
        self,
        sim: Simulator,
        phy: Phy,
        retry_limit: int = 7,
        rts_enabled: bool = True,
    ) -> None:
        if retry_limit < 1:
            raise ValueError("retry limit must be at least 1")
        self.sim = sim
        self.phy = phy
        self.retry_limit = retry_limit
        self.rts_enabled = rts_enabled
        self.stats = MacStats()
        # Hot-path cache: `_on_phy_receive` runs for every frame this radio
        # overhears, so the node id is read once here instead of through
        # the `node_id` property per frame.
        self._node_id = phy.node_id

        self.on_deliver: Callable[[Packet], None] = lambda packet: None
        self.on_link_failure: Callable[[int, Packet], None] = lambda dst, pkt: None
        self.peer_awake: Callable[[int], bool] = lambda dst: True
        #: PSM oracle: may a broadcast go out now (all PSM neighbors awake)?
        self.broadcast_clear: Callable[[], bool] = lambda: True

        self._queue: deque[_Outgoing] = deque()
        self._current: _Outgoing | None = None
        self._awaiting: PacketKind | None = None  # CTS or ACK we expect
        self._timeout: EventHandle | None = None
        self._attempt_pending: EventHandle | None = None
        self._response_queue: deque[tuple[Packet, float]] = deque()
        #: The ``mac-<id>`` backoff stream, created at the first draw: most
        #: MACs of a short or sparse run never back off, and a stream costs
        #: a seeding and about 2.8 KB.  Its draws are the same whenever it
        #: is created (see :meth:`Simulator.rng`).  Not a
        #: ``functools.cached_property``: on CPython 3.11 that materializes
        #: the instance ``__dict__`` and slows every later attribute access.
        self._rng: random.Random | None = None
        #: Response timeouts are fixed per card; precomputed once per card
        #: (shared read-only mapping) instead of re-deriving
        #: ``FRAME_SIZES[kind] * 8 / bandwidth`` per transmission or per
        #: node.  (Kept as the ladder's exact expression so timeout event
        #: times — and therefore runs — stay bit-identical.)
        self._control_times = _control_times_for(phy.card)

        phy.on_receive = self._on_phy_receive
        phy.on_tx_done = self._on_tx_done

    def close(self) -> None:
        """Drop the node's upcalls and the response timeout (end of a run).

        The upcalls are methods of the node, which holds this MAC, and a
        timeout cancelled by a CTS stays here with its event, which calls
        back into this MAC: both keep a finished network in reference
        cycles.  Counters stay readable; a closed MAC must not send again.
        """
        self.on_deliver = None
        self.on_link_failure = None
        self._timeout = None

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self.phy.node_id

    def send(self, packet: Packet, distance: float | None = None) -> None:
        """Queue a frame for transmission.

        ``distance`` enables power control on data frames (ignored for
        control frames, which go at maximum power).
        """
        if packet.src != self.node_id:
            raise ValueError("frame src %r is not this node" % packet.src)
        self.stats.enqueued += 1
        self._queue.append(_Outgoing(packet, distance))
        self._try_start()

    def pending_unicast_destinations(self) -> set[int]:
        """Destinations of queued unicast frames (for ATIM announcements)."""
        dsts = {
            out.packet.dst for out in self._queue if not out.packet.is_broadcast
        }
        if self._current is not None and not self._current.packet.is_broadcast:
            dsts.add(self._current.packet.dst)
        return dsts

    def has_pending_broadcast(self) -> bool:
        """True when any broadcast frame is queued (for broadcast ATIMs)."""
        if self._current is not None and self._current.packet.is_broadcast:
            return True
        return any(out.packet.is_broadcast for out in self._queue)

    def has_pending(self) -> bool:
        return bool(self._queue) or self._current is not None

    def kick(self) -> None:
        """PSM scheduler upcall: previously-held destinations may be awake."""
        self._try_start()

    # ------------------------------------------------------------------
    # Transaction engine
    # ------------------------------------------------------------------
    def _try_start(self) -> None:
        """Pick the first eligible frame and begin its transaction."""
        if self._current is not None or not self._queue:
            return
        if self.phy.asleep:
            return  # PSM scheduler will kick us when we wake
        for index, out in enumerate(self._queue):
            packet = out.packet
            if packet.is_broadcast:
                # Broadcasts wait until every PSM neighbor is awake (they are
                # announced in the next ATIM window); this is what gives
                # flooding its one-beacon-interval-per-hop latency under PSM.
                eligible = self.broadcast_clear()
            else:
                eligible = self.peer_awake(packet.dst)
            if eligible:
                del self._queue[index]
                self._current = out
                self._schedule_attempt(first=True)
                return

    def _schedule_attempt(self, first: bool = False) -> None:
        """Wait DIFS plus a random backoff, then try to seize the channel."""
        assert self._current is not None
        rng = self._rng
        if rng is None:
            rng = self._rng = self.sim.rng("mac-%d" % self._node_id)
        backoff_slots = rng.randint(0, self._current.cw)
        delay = DIFS + backoff_slots * SLOT if not first else DIFS + (
            backoff_slots % (CW_MIN + 1)
        ) * SLOT
        self._attempt_pending = self.sim.schedule(delay, self._attempt)

    def _attempt(self) -> None:
        self._attempt_pending = None
        out = self._current
        if out is None:
            return
        if self.phy.asleep:
            return  # went to sleep while backing off; wait for wake kick
        if self.phy.carrier_busy:
            out.cw = min(CW_MAX, out.cw * 2 + 1)
            self._schedule_attempt()
            return
        packet = out.packet
        if packet.is_broadcast:
            self.phy.transmit(packet)
            return  # completion handled in _on_tx_done
        if (
            self.rts_enabled
            and packet.kind is _DATA
            and out.attempts < self.retry_limit
        ):
            rts = make_control_packet(
                _RTS, self.node_id, packet.dst, created_at=self.sim.now
            )
            duration = self.phy.transmit(rts)
            self._await_response(_CTS, duration + SIFS + self._control_time(_CTS))
        else:
            duration = self.phy.transmit(packet, out.distance)
            self._await_response(_ACK, duration + SIFS + self._control_time(_ACK))

    def _control_time(self, kind: PacketKind) -> float:
        return self._control_times[kind]

    def _await_response(self, kind: PacketKind, timeout: float) -> None:
        self._awaiting = kind
        self._timeout = self.sim.schedule(timeout, self._on_timeout)

    def _on_timeout(self) -> None:
        self._timeout = None
        self._awaiting = None
        out = self._current
        assert out is not None
        out.attempts += 1
        self.stats.retries += 1
        if out.attempts >= self.retry_limit:
            self._current = None
            self.stats.drops += 1
            self.stats.link_failures += 1
            self.on_link_failure(out.packet.dst, out.packet)
            self._try_start()
        else:
            out.cw = min(CW_MAX, out.cw * 2 + 1)
            self._schedule_attempt()

    def _finish_current(self, success: bool) -> None:
        out = self._current
        self._current = None
        if self._timeout is not None:
            self._timeout.cancel()
            self._timeout = None
        self._awaiting = None
        if out is not None and success:
            self.stats.sent_unicast += 1
        self._try_start()

    # ------------------------------------------------------------------
    # PHY upcalls
    # ------------------------------------------------------------------
    def _on_tx_done(self, packet: Packet) -> None:
        if packet.kind in (_CTS, _ACK):
            self._drain_responses()
            # Our own transaction (if any) continues independently.
            return
        if self._current is not None and packet.is_broadcast:
            self.stats.sent_broadcast += 1
            self._current = None
            self._try_start()
        # Otherwise an RTS waits for its CTS, DATA or ROUTING for its ACK.

    def _on_phy_receive(self, packet: Packet) -> None:
        dst = packet.dst
        if dst == BROADCAST:
            self.stats.delivered += 1
            self.on_deliver(packet)
            return
        if dst != self._node_id:
            return  # overheard; carrier-sense cost already charged by PHY
        kind = packet.kind
        if kind is _RTS:
            cts = make_control_packet(
                _CTS, self.node_id, packet.src, created_at=self.sim.now
            )
            self._respond(cts)
            return
        if kind is _CTS:
            if self._awaiting is _CTS and self._current is not None:
                assert self._timeout is not None
                self._timeout.cancel()
                self._awaiting = None
                out = self._current
                self.sim.schedule(SIFS, lambda: self._send_data_after_cts(out))
            return
        if kind is _ACK:
            if self._awaiting is _ACK:
                self._finish_current(success=True)
            return
        # DATA or unicast ROUTING frame for us: ACK it and deliver.
        ack = make_control_packet(
            _ACK, self.node_id, packet.src, created_at=self.sim.now
        )
        self._respond(ack)
        self.stats.delivered += 1
        self.on_deliver(packet)

    def _send_data_after_cts(self, out: _Outgoing) -> None:
        if self._current is not out or self.phy.asleep:
            return
        if self.phy.state is not _IDLE:
            # Channel got grabbed in the SIFS gap; treat as failed attempt.
            self._on_timeout()
            return
        duration = self.phy.transmit(out.packet, out.distance)
        self._await_response(_ACK, duration + SIFS + self._control_time(_ACK))

    # ------------------------------------------------------------------
    # Control responses (CTS/ACK after SIFS)
    # ------------------------------------------------------------------
    def _respond(self, frame: Packet) -> None:
        """Send a control response after SIFS, ahead of normal traffic."""
        self._response_queue.append((frame, self.sim.now))
        self.sim.schedule(SIFS, self._drain_responses)

    def _drain_responses(self) -> None:
        if not self._response_queue:
            return
        if self.phy.asleep or self.phy.state is not _IDLE:
            # Radio busy; try again shortly.  Responses are only useful for a
            # short while, so stale ones are discarded.
            frame, queued_at = self._response_queue[0]
            if self.sim.now - queued_at > 2e-3:
                self._response_queue.popleft()
            if self._response_queue:
                self.sim.schedule(SIFS, self._drain_responses)
            return
        frame, _ = self._response_queue.popleft()
        self.phy.transmit(frame)
