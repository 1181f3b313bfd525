"""Radio transceiver: state machine, energy integration, power control.

Each node owns one :class:`Phy`.  The PHY keeps the radio's operating state
(transmit / receive / idle / sleep, §2.1), integrates energy into the node's
:class:`~repro.core.energy_model.NodeEnergy` ledger on every state change,
and implements transmission power control: data frames can be sent with just
enough power to reach the next hop's distance, while control frames always go
out at maximum power (Eq. 2 of the paper).

Reception semantics (resolved here, signalled by the channel):

* A radio that is asleep or transmitting when a frame starts misses it.
* Two receptions overlapping in time corrupt each other (collision) — this
  covers hidden terminals, since carrier sensing only protects nodes that can
  hear the sender.
* A frame also dies if its receiver falls asleep mid-frame.
* Any audible frame (even one addressed elsewhere) occupies the radio in
  receive state: that is both carrier sense and promiscuous overhearing cost.

Performance notes: the PHY sits on the per-frame fan-out hot path — every
transmission triggers ``rx_start``/``rx_end`` on every node in reach, which
makes these methods (and the energy charge they perform per state change)
the most-called code in a run.  The class is slotted and radio states are
compared against module-level aliases.  ``rx_start`` and ``rx_end`` charge
the period that ends inline: they know the state they leave (idle, or
receive classified by the first frame in flight), so they call the one
``NodeEnergy.charge_*`` method directly.  ``sleep`` and ``wake``, which
every power-save node calls once per beacon interval, do the same for the
sleep and idle periods they end.  The rarer state changes (transmit, end
of transmission, finalize, failure) go through ``_charge_elapsed`` and its
per-state dispatch table built once in ``__init__``.  Either way the
ledger sees exactly one charge call per state change, with the same
elapsed time at the same moment.
"""

from __future__ import annotations

from typing import Callable

from repro.core.energy_model import NodeEnergy
from repro.core.radio import RadioModel, RadioState
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.packet import Packet

#: Module-level state aliases: ``self._state is _IDLE`` reads a global
#: instead of ``RadioState.IDLE``, which on CPython 3.11 goes through
#: ``EnumType.__getattr__`` (about 130 ns against 9 ns) on every check.
_TRANSMIT = RadioState.TRANSMIT
_RECEIVE = RadioState.RECEIVE
_IDLE = RadioState.IDLE
_SLEEP = RadioState.SLEEP


class Phy:
    """Single half-duplex radio attached to a shared channel.

    Parameters
    ----------
    sim, channel:
        Kernel and medium.
    node_id:
        This node's identifier.
    card:
        The radio model (Table 1 card) providing power draws and ranges.
    energy:
        Ledger to charge; typically shared with the metrics layer.
    power_margin:
        Multiplier on the distance used to compute the power-controlled
        transmit level, modelling a safety margin above the exact
        reach-the-receiver power.  1.0 reproduces the paper's idealized
        "infinitely adjustable" assumption.
    """

    __slots__ = (
        "sim",
        "channel",
        "node_id",
        "card",
        "energy",
        "power_margin",
        "capture_ratio",
        "_state",
        "_state_since",
        "failed",
        "_halt_energy",
        "_tx_packet",
        "_tx_distance",
        "_rx_packets",
        "_rx_corrupted",
        "_rx_missed",
        "_chargers",
        "on_receive",
        "on_tx_done",
        "frames_sent",
        "frames_received",
        "frames_collided",
    )

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        node_id: int,
        card: RadioModel,
        energy: NodeEnergy,
        power_margin: float = 1.0,
        capture_ratio: float | None = None,
    ) -> None:
        if power_margin < 1.0:
            raise ValueError("power margin below 1 cannot reach the receiver")
        if capture_ratio is not None and capture_ratio <= 1.0:
            raise ValueError("capture ratio must exceed 1 (a power ratio)")
        self.sim = sim
        self.channel = channel
        self.node_id = node_id
        self.card = card
        self.energy = energy
        self.power_margin = power_margin
        #: Physical-layer capture: when one overlapping frame is received at
        #: least ``capture_ratio`` times stronger than the other, it survives
        #: the collision.  ``None`` (default) models destructive collisions
        #: only, the conservative 802.11 assumption.
        self.capture_ratio = capture_ratio

        self._state = _IDLE
        self._state_since = 0.0
        self.failed = False
        self._halt_energy = False
        self._tx_packet: Packet | None = None
        self._tx_distance: float | None = None
        #: Frames in flight, in arrival order.  Non-empty exactly while the
        #: radio is in receive state: only ``rx_start`` enters that state,
        #: as it adds the first frame, and every path that empties the list
        #: leaves it.  The receive-path charges below rely on this.
        self._rx_packets: list[Packet] = []
        self._rx_corrupted: set[int] = set()
        self._rx_missed: set[int] = set()

        #: Per-state charge dispatch, replacing the old if/elif ladder in
        #: the charge path.  IDLE and SLEEP charge the ledger directly; the
        #: communication states need the active frame to classify the charge
        #: as data or control (Eqs. 1–2).
        self._chargers: dict[RadioState, Callable[[float], object]] = {
            _IDLE: energy.charge_idle,
            _SLEEP: energy.charge_sleep,
            _TRANSMIT: self._charge_transmit,
            _RECEIVE: self._charge_receive,
        }

        #: Upcall: a frame survived reception (set by the MAC).
        self.on_receive: Callable[[Packet], None] = lambda packet: None
        #: Upcall: our own transmission finished (set by the MAC).
        self.on_tx_done: Callable[[Packet], None] = lambda packet: None

        #: Counters for tests and traces.
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_collided = 0

        channel.register(self)

    # ------------------------------------------------------------------
    # State and energy accounting
    # ------------------------------------------------------------------
    @property
    def state(self) -> RadioState:
        return self._state

    @property
    def asleep(self) -> bool:
        return self._state is _SLEEP

    @property
    def carrier_busy(self) -> bool:
        """True when the medium is unusable: we are sending, receiving or
        overhearing a frame.  (A sleeping radio cannot assess the carrier;
        the MAC never asks while asleep.)"""
        state = self._state
        return state is _TRANSMIT or state is _RECEIVE

    def _charge_transmit(self, elapsed: float) -> None:
        """Charge a transmit-state residency by the frame on the air."""
        packet = self._tx_packet
        assert packet is not None
        if packet.is_control:
            self.energy.charge_control_tx(elapsed)
        else:
            self.energy.charge_data_tx(elapsed, self._tx_distance)

    def _charge_receive(self, elapsed: float) -> None:
        """Charge a receive-state residency by the frame that started it."""
        rx_packets = self._rx_packets
        if rx_packets and not rx_packets[0].is_control:
            self.energy.charge_data_rx(elapsed)
        else:
            self.energy.charge_control_rx(elapsed)

    def _charge_elapsed(self) -> None:
        """Charge the ledger for time spent in the current state."""
        now = self.sim.now
        elapsed = now - self._state_since
        self._state_since = now
        if elapsed <= 0:
            return
        self._chargers[self._state](elapsed)

    def _set_state(self, state: RadioState) -> None:
        self._charge_elapsed()
        self._state = state

    def finalize(self) -> None:
        """Charge any trailing state occupancy at end of simulation."""
        self._charge_elapsed()

    def close(self) -> None:
        """Drop the MAC upcalls and the charge dispatch (end of a run).

        Both hold bound methods, of the MAC and of this PHY, so they keep a
        finished network in reference cycles.  Counters and the ledger stay
        readable; a closed PHY must not change state again.
        """
        self.on_receive = None
        self.on_tx_done = None
        self._chargers.clear()

    # ------------------------------------------------------------------
    # Sleep control (driven by the PSM scheduler / power manager)
    # ------------------------------------------------------------------
    def sleep(self) -> None:
        """Put the radio to sleep.  Any in-flight receptions are lost."""
        state = self._state
        if state is _SLEEP:
            return
        if state is _TRANSMIT:
            raise RuntimeError("cannot sleep while transmitting")
        rx_packets = self._rx_packets
        if rx_packets:
            missed = self._rx_missed
            for packet in rx_packets:
                missed.add(packet.uid)
            rx_packets.clear()
        now = self.sim.now
        elapsed = now - self._state_since
        self._state_since = now
        if elapsed > 0:
            if state is _IDLE:
                self.energy.charge_idle(elapsed)
            else:
                # The frames in flight were dropped above, so a receive
                # period books as control_rx whatever frame started it.
                self._charge_receive(elapsed)
        self._state = _SLEEP

    def wake(self) -> None:
        """Wake the radio into idle state, charging the switching cost.

        Failed radios never wake.
        """
        if self.failed or self._state is not _SLEEP:
            return
        energy = self.energy
        now = self.sim.now
        elapsed = now - self._state_since
        self._state_since = now
        if elapsed > 0:
            energy.charge_sleep(elapsed)
        self._state = _IDLE
        energy.charge_switch()

    def fail(self, stop_energy: bool = False) -> None:
        """Permanently kill this radio (crash / battery-death injection).

        The radio drops any reception in progress and sleeps forever; an
        in-flight transmission completes first (the frame was already on the
        air).  Failed radios draw sleep power, cannot transmit and ignore
        all arriving frames.  With ``stop_energy`` (churn injection,
        :mod:`repro.sim.mobility`), the ledger stops accruing entirely from
        the failure instant — a dead battery draws nothing — implemented by
        pushing ``_state_since`` to +inf so every later elapsed-time charge
        (including :meth:`finalize`) is non-positive and skipped; the
        hot-path charge code needs no extra branch.  Note state-time
        conservation (occupancy summing to the run duration) only holds up
        to the failure time for such a node.
        """
        self.failed = True
        self._halt_energy = self._halt_energy or stop_energy
        if self._state is _TRANSMIT:
            return  # tx_end() will park the radio (and halt, if asked)
        for packet in self._rx_packets:
            self._rx_missed.add(packet.uid)
        self._rx_packets.clear()
        if self._state is not _SLEEP:
            self._set_state(_SLEEP)
        if self._halt_energy:
            self._charge_elapsed()
            self._state_since = float("inf")

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, packet: Packet, distance: float | None = None) -> float:
        """Send ``packet``; returns its airtime in seconds.

        ``distance`` enables power control: the frame is transmitted with
        ``P_tx(margin * distance)`` and reaches exactly that far.  ``None``
        (and every control frame) means maximum power and nominal range.
        The MAC must ensure the radio is awake and the carrier free.
        """
        if self.failed:
            raise RuntimeError("node %r: radio has failed" % self.node_id)
        state = self._state
        if state is _SLEEP:
            raise RuntimeError("node %r: transmit while asleep" % self.node_id)
        if state is _TRANSMIT:
            raise RuntimeError("node %r: already transmitting" % self.node_id)
        card = self.card
        if packet.is_control:
            distance = None  # control frames always at maximum power
        if distance is not None:
            reach = min(distance * self.power_margin, card.max_range)
            self._tx_distance = reach
        else:
            reach = card.max_range
            self._tx_distance = None
        duration = packet.size_bits / card.bandwidth
        # Receptions in progress are trampled by our own transmission.
        rx_packets = self._rx_packets
        if rx_packets:
            missed = self._rx_missed
            for rx in rx_packets:
                missed.add(rx.uid)
            rx_packets.clear()
        self._set_state(_TRANSMIT)
        self._tx_packet = packet
        self.frames_sent += 1
        self.channel.begin_transmission(self.node_id, packet, duration, reach)
        return duration

    def tx_end(self, packet: Packet) -> None:
        """Channel callback: our transmission completed."""
        assert self._tx_packet is not None and self._tx_packet.uid == packet.uid
        self._set_state(_SLEEP if self.failed else _IDLE)
        if self._halt_energy:
            # Failed mid-frame with energy stop: the frame was charged by
            # the state flip above; nothing accrues after it.
            self._state_since = float("inf")
        self._tx_packet = None
        self._tx_distance = None
        if not self.failed:
            self.on_tx_done(packet)

    # ------------------------------------------------------------------
    # Reception (channel callbacks)
    # ------------------------------------------------------------------
    def rx_start(self, packet: Packet, src: int) -> bool:
        """A frame from ``src`` starts arriving.

        Returns True when this radio will track the frame (and therefore
        needs the matching :meth:`rx_end`), False when the frame is missed
        outright — asleep, transmitting, or out-captured on arrival.  The
        channel uses the return value to skip the end-of-frame upcall for
        uninterested radios, which in a PSM network is most of them.
        """
        state = self._state
        if state is _SLEEP or state is _TRANSMIT:
            return False
        rx_packets = self._rx_packets
        if rx_packets:
            self.frames_collided += 1
            verdict = self._capture_verdict(packet, src)
            if verdict == "keep-current":
                # The ongoing frame powers through; the newcomer is noise.
                return False
            corrupted = self._rx_corrupted
            if verdict == "capture-new":
                # The newcomer captures the radio; ongoing frames die.
                for other in rx_packets:
                    corrupted.add(other.uid)
            else:
                # Destructive collision: every overlapping frame corrupts.
                for other in rx_packets:
                    corrupted.add(other.uid)
                corrupted.add(packet.uid)
        else:
            # No frame in flight, so the radio was idle until now.
            now = self.sim.now
            elapsed = now - self._state_since
            self._state_since = now
            if elapsed > 0:
                self.energy.charge_idle(elapsed)
            self._state = _RECEIVE
        rx_packets.append(packet)
        return True

    def _signal_strength(self, src: int) -> float:
        """Relative received power from ``src`` under the 1/d^n model.

        Control frames and max-power data arrive at ``P_tx_max / d^n``;
        the capture comparison only needs the ratio, so the transmit power
        common factor uses the nominal maximum (power-controlled data is
        sent with just enough power, making it *weaker* in reality — this
        approximation therefore favors capture slightly; acceptable for an
        ablation knob that defaults to off).
        """
        distance = max(self.channel.distance(self.node_id, src), 1e-3)
        return 1.0 / distance**self.card.path_loss_exponent

    def _capture_verdict(self, packet: Packet, src: int) -> str:
        """Physical-layer capture decision for an overlapping frame.

        Returns ``"keep-current"`` (the ongoing frame survives, the newcomer
        is noise), ``"capture-new"`` (the newcomer survives) or
        ``"collision"`` (both die — always the answer with capture off).
        """
        if self.capture_ratio is None or len(self._rx_packets) != 1:
            return "collision"
        current = self._rx_packets[0]
        if current.uid in self._rx_corrupted:
            return "collision"
        current_strength = self._signal_strength(current.src)
        new_strength = self._signal_strength(src)
        if current_strength >= self.capture_ratio * new_strength:
            return "keep-current"
        if new_strength >= self.capture_ratio * current_strength:
            return "capture-new"
        return "collision"

    def rx_end(self, packet: Packet) -> None:
        """A frame finishes; decide whether it survived."""
        uid = packet.uid
        missed = self._rx_missed
        if uid in missed:
            missed.discard(uid)
            return
        rx_packets = self._rx_packets
        if packet not in rx_packets:
            # Lost mid-frame to sleep or our own transmission.
            self._rx_corrupted.discard(uid)
            return
        # Charge the receive period now, while the frame is still in the
        # list, so the energy is classified by the frame that started it.
        now = self.sim.now
        elapsed = now - self._state_since
        self._state_since = now
        if elapsed > 0:
            if rx_packets[0].is_control:
                self.energy.charge_control_rx(elapsed)
            else:
                self.energy.charge_data_rx(elapsed)
        rx_packets.remove(packet)
        corrupted_set = self._rx_corrupted
        corrupted = uid in corrupted_set
        corrupted_set.discard(uid)
        if not rx_packets:
            # The receive period was charged above (same instant), so the
            # state flip skips `_set_state`'s zero-elapsed charge call.
            self._state = _IDLE
        if corrupted:
            return
        self.frames_received += 1
        self.on_receive(packet)
