"""IEEE 802.11 power-save mode: synchronized beacons and ATIM windows.

All nodes share a synchronized beacon cycle (the paper uses a 0.3 s beacon
interval with a 0.02 s ATIM window, following Span's recommendation).  At
each beacon every PSM-mode node wakes for the ATIM window.  Senders with
buffered frames announce them: a unicast announcement keeps the destination
(and the sender) awake for the rest of the beacon interval; a broadcast
announcement keeps *all* the sender's PSM neighbors awake for the rest of the
interval — this is exactly why routing-table broadcasts make DSDVH-ODPM as
expensive as an always-on network in Fig. 9.

ATIM frames are modeled deterministically: announcement success is assumed
(the window is long enough, per the paper) but each announcement's airtime is
charged as control energy to both parties, so ATIM overhead appears in
``E_control``.

The *Span-style improvements* the paper evaluates
(``DSDVH-ODPM(0.6,1.2)-Span``) are available as ``advertised_window=True``:
each broadcast is advertised individually and an awakened node may go back to
sleep as soon as every advertised broadcast has been received, instead of
idling out the interval.  The paper observes (and our simulator reproduces)
that this recovers energy but costs delivery ratio, because a node that
sleeps early misses traffic that arrives later in the interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.radio import PowerMode, RadioState
from repro.sim.engine import Simulator
from repro.sim.mac import Mac
from repro.sim.packet import FRAME_SIZES, PacketKind
from repro.sim.phy import Phy

BEACON_INTERVAL = 0.3
ATIM_WINDOW = 0.02

_IDLE = RadioState.IDLE
_ACTIVE = PowerMode.ACTIVE
_POWER_SAVE = PowerMode.POWER_SAVE
_ATIM = PacketKind.ATIM
_ATIM_ACK = PacketKind.ATIM_ACK


@dataclass(slots=True)
class _Member:
    phy: Phy
    mac: Mac
    mode: Callable[[], PowerMode]
    awake_this_interval: bool = False
    expected_broadcasts: int = 0
    #: ATIM / ATIM-ACK airtimes in seconds, precomputed at registration so
    #: the per-beacon announcement pass does not re-derive
    #: ``FRAME_SIZES[kind] * 8 / bandwidth`` per announcement.
    atim_airtime: float = 0.0
    ack_airtime: float = 0.0


class PsmScheduler:
    """Network-wide PSM coordinator with synchronized beacons.

    Parameters
    ----------
    sim:
        Simulation kernel.
    beacon_interval, atim_window:
        Cycle timing in seconds.
    advertised_window:
        Enable the Span-style advertised-traffic-window improvement.
    """

    def __init__(
        self,
        sim: Simulator,
        beacon_interval: float = BEACON_INTERVAL,
        atim_window: float = ATIM_WINDOW,
        advertised_window: bool = False,
    ) -> None:
        if not 0 < atim_window < beacon_interval:
            raise ValueError("need 0 < atim_window < beacon_interval")
        self.sim = sim
        self.beacon_interval = beacon_interval
        self.atim_window = atim_window
        self.advertised_window = advertised_window
        self._members: dict[int, _Member] = {}
        self._in_atim = False
        self._started = False
        self.beacons = 0
        self.atim_announcements = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self, phy: Phy, mac: Mac, mode: Callable[[], PowerMode]
    ) -> None:
        """Attach a node.  ``mode`` reads the node's power-management state.

        Installs this scheduler as the MAC's ``peer_awake`` oracle.
        """
        bandwidth = phy.card.bandwidth
        member = _Member(
            phy=phy,
            mac=mac,
            mode=mode,
            atim_airtime=FRAME_SIZES[_ATIM] * 8 / bandwidth,
            ack_airtime=FRAME_SIZES[_ATIM_ACK] * 8 / bandwidth,
        )
        self._members[phy.node_id] = member
        mac.peer_awake = self.peer_awake
        mac.broadcast_clear = lambda node_id=phy.node_id: self.broadcast_clear(
            node_id
        )

    def start(self) -> None:
        """Begin the beacon cycle at the current simulation time."""
        if self._started:
            raise RuntimeError("PSM scheduler already started")
        self._started = True
        self.sim.schedule(0.0, self._beacon, priority=-2)

    def close(self) -> None:
        """Drop the member table (end of a run).

        Members hold the nodes' MACs and mode getters, whose oracles point
        back at this scheduler; clearing the table breaks those cycles.
        """
        self._members.clear()

    # ------------------------------------------------------------------
    # Oracles used by MACs and power managers
    # ------------------------------------------------------------------
    def peer_awake(self, dst: int) -> bool:
        """Can a frame be transmitted to ``dst`` right now?"""
        member = self._members.get(dst)
        if member is None:
            return True  # unknown peers assumed always-on
        if member.phy.failed:
            # Dead stations answer nothing, but holding frames for them
            # would hide the failure from the MAC forever; transmit, burn
            # the retries, and let on_link_failure trigger route repair.
            return True
        if member.mode() is _ACTIVE:
            return True
        return member.awake_this_interval or self._in_atim

    def node_awake(self, node_id: int) -> bool:
        return not self._members[node_id].phy.asleep

    def broadcast_clear(self, sender: int) -> bool:
        """May ``sender`` transmit a broadcast now?

        Only when every PSM-managed neighbor is currently awake; otherwise
        the frame waits for the next beacon's ATIM announcement.
        """
        member = self._members[sender]
        for neighbor_id in member.phy.channel.neighbors(sender):
            peer = self._members.get(neighbor_id)
            if peer is None or peer.phy.failed:
                # Failed radios never wake again; a broadcast can't reach
                # them no matter how long it waits, so they must not hold
                # route-request floods (and with them route repair) hostage.
                continue
            if peer.phy.asleep:
                return False
        return True

    def on_mode_change(self, node_id: int, mode: PowerMode) -> None:
        """Power-manager upcall: wake a node that just entered active mode."""
        member = self._members.get(node_id)
        if member is None:
            return
        if mode is _ACTIVE:
            member.phy.wake()
            member.mac.kick()

    def on_broadcast_received(self, node_id: int) -> None:
        """Node upcall: an advertised broadcast arrived (Span-style window)."""
        member = self._members.get(node_id)
        if member is None or not self.advertised_window:
            return
        if member.expected_broadcasts > 0:
            member.expected_broadcasts -= 1
            if not self._in_atim:
                self._doze((member,))

    # ------------------------------------------------------------------
    # Beacon cycle
    # ------------------------------------------------------------------
    def _beacon(self) -> None:
        self.beacons += 1
        self._in_atim = True
        for member in self._members.values():
            member.awake_this_interval = False
            member.expected_broadcasts = 0
            if member.mode() is _POWER_SAVE:
                member.phy.wake()
        self._announce()
        self.sim.schedule(self.atim_window, self._end_of_atim, priority=-1)
        self.sim.schedule(self.beacon_interval, self._beacon, priority=-2)

    def _announce(self) -> None:
        """Deterministic ATIM exchange for all buffered traffic."""
        for node_id, member in self._members.items():
            if member.phy.failed:
                # A dead station announces nothing: frames stranded in its
                # MAC must not charge its (halted) battery or wake peers.
                continue
            mac = member.mac
            if not mac.has_pending():
                continue  # nothing buffered, nothing to announce
            announced = False
            atim_airtime = member.atim_airtime
            ack_airtime = member.ack_airtime
            for dst in mac.pending_unicast_destinations():
                peer = self._members.get(dst)
                if peer is None or peer.phy.failed or (
                    peer.mode() is _ACTIVE
                ):
                    # AM peers need no announcement; failed peers get none
                    # (the sender still stays up so the MAC can transmit
                    # and discover the dead link through retry exhaustion).
                    announced = True
                    continue
                self.atim_announcements += 1
                peer.awake_this_interval = True
                announced = True
                member.phy.energy.charge_control_tx(atim_airtime, track_time=False)
                peer.phy.energy.charge_control_rx(atim_airtime, track_time=False)
                peer.phy.energy.charge_control_tx(ack_airtime, track_time=False)
                member.phy.energy.charge_control_rx(ack_airtime, track_time=False)
            if mac.has_pending_broadcast():
                announced = True
                member.phy.energy.charge_control_tx(atim_airtime, track_time=False)
                for neighbor_id in member.phy.channel.neighbors(node_id):
                    peer = self._members.get(neighbor_id)
                    if peer is None or peer.phy.failed or (
                        peer.mode() is _ACTIVE
                    ):
                        continue
                    self.atim_announcements += 1
                    peer.phy.energy.charge_control_rx(atim_airtime, track_time=False)
                    if self.advertised_window:
                        peer.expected_broadcasts += 1
                    else:
                        peer.awake_this_interval = True
            if announced and member.mode() is _POWER_SAVE:
                member.awake_this_interval = True

    def _end_of_atim(self) -> None:
        self._in_atim = False
        # Sleep decisions first, so that a kicked MAC's broadcast_clear oracle
        # sees the final awake/asleep picture for this interval.  Only MACs
        # with pending frames are kicked: a kick finds nothing to send
        # otherwise.
        for mac in self._doze(self._members.values()):
            mac.kick()

    @staticmethod
    def _doze(members: Iterable[_Member]) -> list[Mac]:
        """Put each member to sleep that nothing keeps awake.

        The one sleep rule, applied outside the ATIM window: a PSM node
        sleeps unless it was announced traffic, still expects an advertised
        broadcast, has buffered frames of its own (it stays up so they can
        be announced and sent as soon as the destination is available) or
        its radio is not idle.  The cheap checks come before the mode
        oracle.  Returns the MACs with pending frames, in member order.
        """
        pending = []
        for member in members:
            mac = member.mac
            if mac.has_pending():
                pending.append(mac)
                continue
            if member.awake_this_interval or member.expected_broadcasts > 0:
                continue
            phy = member.phy
            if phy.state is _IDLE and member.mode() is _POWER_SAVE:
                phy.sleep()
        return pending


class NoPsm:
    """Degenerate scheduler for always-on networks: everyone is always awake.

    Provides the same surface as :class:`PsmScheduler` so node composition
    does not special-case the no-power-saving configuration.
    """

    advertised_window = False

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.beacons = 0
        self.atim_announcements = 0

    def register(self, phy: Phy, mac: Mac, mode: Callable[[], PowerMode]) -> None:
        mac.peer_awake = lambda dst: True

    def start(self) -> None:
        return None

    def close(self) -> None:
        return None

    def peer_awake(self, dst: int) -> bool:
        return True

    def on_mode_change(self, node_id: int, mode: PowerMode) -> None:
        return None

    def on_broadcast_received(self, node_id: int) -> None:
        return None
