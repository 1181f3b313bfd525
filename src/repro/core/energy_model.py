"""The paper's energy model (§2.1, Eqs. 1–5).

Per node ``i`` the model splits energy into communication and idling parts::

    E(i)         = E_comm(i) + E_passive(i)
    E_comm(i)    = E_data(i) + E_control(i)
    E_data(i)    = sum_j t_tx(i, j) * P_tx(i, j) + t_rx(i) * P_rx     (Eq. 1)
    E_control(i) = t_ctrl_tx(i) * P_tx_max + t_ctrl_rx(i) * P_rx      (Eq. 2)
    E_passive(i) = t_idle(i) * P_idle + t_sleep(i) * P_sleep + E_sw   (Eq. 3)
    E_network    = sum_i E_comm(i) + E_passive(i)                     (Eq. 4)

Control packets are always transmitted at maximum power.  This module gives
both a mutable per-node ledger (:class:`NodeEnergy`) used by the simulator and
a closed-form evaluator (:class:`RouteEnergyEvaluator`) used to reproduce the
paper's high-rate grid study (Figs. 15–16), where the network energy for high
rates is computed from routes frozen at a low rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from repro.core.radio import RadioModel, RadioState

_TRANSMIT = RadioState.TRANSMIT
_RECEIVE = RadioState.RECEIVE
_IDLE = RadioState.IDLE
_SLEEP = RadioState.SLEEP


@dataclass(slots=True)
class NodeEnergy:
    """Per-node energy ledger following Eqs. 1–3.

    The simulator charges the ledger as the radio changes state; analytic code
    may charge it directly via the ``charge_*`` methods.  All energies are in
    joules, durations in seconds.

    The ``charge_*`` methods are the single hottest call family in a run
    (one call per radio state change, millions per simulated network
    lifetime), so the class is slotted, the duration guard is inlined
    rather than delegated, and each charge adds its duration to one plain
    float field.
    """

    card: RadioModel
    data_tx: float = 0.0
    data_rx: float = 0.0
    control_tx: float = 0.0
    control_rx: float = 0.0
    idle: float = 0.0
    sleep: float = 0.0
    switch: float = 0.0
    #: Occupancy time per radio state, for conservation checks (read them
    #: together through :attr:`state_time`).
    transmit_time: float = 0.0
    receive_time: float = 0.0
    idle_time: float = 0.0
    sleep_time: float = 0.0

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge_data_tx(self, duration: float, distance: float | None = None) -> float:
        """Charge a data transmission lasting ``duration`` seconds.

        ``distance`` selects the transmit power under power control; ``None``
        means maximum power.  Returns the energy charged.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        energy = duration * self.card.power(_TRANSMIT, distance)
        self.data_tx += energy
        self.transmit_time += duration
        return energy

    def charge_data_rx(self, duration: float) -> float:
        """Charge a data reception lasting ``duration`` seconds."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        energy = duration * self.card.p_rx
        self.data_rx += energy
        self.receive_time += duration
        return energy

    def charge_control_tx(self, duration: float, track_time: bool = True) -> float:
        """Charge a control transmission (always at maximum power, Eq. 2).

        ``track_time=False`` charges the energy without occupying wall-clock
        state time; used for control exchanges modeled out-of-band (ATIM
        announcements), so that state-time conservation still holds.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        energy = duration * self.card.p_tx_max
        self.control_tx += energy
        if track_time:
            self.transmit_time += duration
        return energy

    def charge_control_rx(self, duration: float, track_time: bool = True) -> float:
        """Charge a control reception lasting ``duration`` seconds."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        energy = duration * self.card.p_rx
        self.control_rx += energy
        if track_time:
            self.receive_time += duration
        return energy

    def charge_idle(self, duration: float) -> float:
        """Charge idle time."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        energy = duration * self.card.p_idle
        self.idle += energy
        self.idle_time += duration
        return energy

    def charge_sleep(self, duration: float) -> float:
        """Charge sleep time."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        energy = duration * self.card.p_sleep
        self.sleep += energy
        self.sleep_time += duration
        return energy

    def charge_switch(self, transitions: int = 1) -> float:
        """Charge ``E_sw`` for sleep<->idle transitions."""
        if transitions < 0:
            raise ValueError("transitions must be non-negative")
        energy = transitions * self.card.switch_energy
        self.switch += energy
        return energy

    # ------------------------------------------------------------------
    # Aggregates (the equations)
    # ------------------------------------------------------------------
    @property
    def e_data(self) -> float:
        """Eq. 1."""
        return self.data_tx + self.data_rx

    @property
    def e_control(self) -> float:
        """Eq. 2."""
        return self.control_tx + self.control_rx

    @property
    def e_comm(self) -> float:
        """Communication energy: data plus control overhead."""
        return self.e_data + self.e_control

    @property
    def e_passive(self) -> float:
        """Eq. 3."""
        return self.idle + self.sleep + self.switch

    @property
    def total(self) -> float:
        """Node total ``E_comm + E_passive``."""
        return self.e_comm + self.e_passive

    @property
    def transmit_energy(self) -> float:
        """All transmit-state energy (data plus control), as plotted in Fig. 10."""
        return self.data_tx + self.control_tx

    @property
    def state_time(self) -> Mapping[RadioState, float]:
        """Occupancy time per radio state, in :class:`RadioState` order.

        A read-only snapshot of the four ``*_time`` fields: writers add to
        the fields, and item assignment here raises ``TypeError``.
        """
        return MappingProxyType(
            {
                _TRANSMIT: self.transmit_time,
                _RECEIVE: self.receive_time,
                _IDLE: self.idle_time,
                _SLEEP: self.sleep_time,
            }
        )

    @property
    def busy_time(self) -> float:
        """Total accounted time across all radio states."""
        return sum(self.state_time.values())


@dataclass
class NetworkEnergy:
    """Network-wide aggregate following Eq. 4."""

    nodes: dict[int, NodeEnergy] = field(default_factory=dict)

    def add_node(self, node_id: int, card: RadioModel) -> NodeEnergy:
        """Register a node and return its fresh ledger."""
        if node_id in self.nodes:
            raise ValueError("node %r already registered" % node_id)
        ledger = NodeEnergy(card=card)
        self.nodes[node_id] = ledger
        return ledger

    def __getitem__(self, node_id: int) -> NodeEnergy:
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes.items())

    @property
    def e_network(self) -> float:
        """Eq. 4: total network energy in joules."""
        return sum(ledger.total for ledger in self.nodes.values())

    @property
    def e_comm(self) -> float:
        return sum(ledger.e_comm for ledger in self.nodes.values())

    @property
    def e_passive(self) -> float:
        return sum(ledger.e_passive for ledger in self.nodes.values())

    @property
    def transmit_energy(self) -> float:
        return sum(ledger.transmit_energy for ledger in self.nodes.values())

    def energy_goodput(self, delivered_bits: float) -> float:
        """Energy goodput in bits/joule: delivered application bits over
        ``E_network`` (the paper's §5.2 metric)."""
        if delivered_bits < 0:
            raise ValueError("delivered_bits must be non-negative")
        total = self.e_network
        if total <= 0:
            return 0.0
        return delivered_bits / total

    def summary(self) -> dict[str, float]:
        """Aggregate breakdown useful for reports and tests.

        One walk over the ledgers collects each node's terms, grouped as
        the :class:`NodeEnergy` properties group them, into one list per
        key; each list is then summed in node order.  Every value is
        therefore the float the matching property sum (``e_network``,
        ``e_comm``, ...) returns, at one read of each ledger field per
        node instead of a dozen property calls.
        """
        e_network, e_comm, e_passive, e_data, e_control = [], [], [], [], []
        transmit, idle, sleep = [], [], []
        for ledger in self.nodes.values():
            data = ledger.data_tx + ledger.data_rx
            control = ledger.control_tx + ledger.control_rx
            comm = data + control
            passive = ledger.idle + ledger.sleep + ledger.switch
            e_network.append(comm + passive)
            e_comm.append(comm)
            e_passive.append(passive)
            e_data.append(data)
            e_control.append(control)
            transmit.append(ledger.data_tx + ledger.control_tx)
            idle.append(ledger.idle)
            sleep.append(ledger.sleep)
        return {
            "e_network": sum(e_network),
            "e_comm": sum(e_comm),
            "e_passive": sum(e_passive),
            "e_data": sum(e_data),
            "e_control": sum(e_control),
            "transmit_energy": sum(transmit),
            "idle_energy": sum(idle),
            "sleep_energy": sum(sleep),
        }


@dataclass(frozen=True)
class FlowRoute:
    """A fixed route carrying a constant-bit-rate flow.

    ``path`` is the node-id sequence from source to destination;
    ``rate`` is the application rate in bits/second.
    """

    path: tuple[int, ...]
    rate: float

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError("a route needs at least source and destination")
        if len(set(self.path)) != len(self.path):
            raise ValueError("route %r contains a loop" % (self.path,))
        if self.rate < 0:
            raise ValueError("rate must be non-negative")

    @property
    def hop_count(self) -> int:
        return len(self.path) - 1

    @property
    def relays(self) -> tuple[int, ...]:
        return self.path[1:-1]


class RouteEnergyEvaluator:
    """Closed-form ``E_network`` for a set of frozen routes (Figs. 13–16).

    The paper evaluates high traffic rates on the grid topology by freezing
    the routes that stabilized at 2 Kbit/s and computing network energy
    analytically.  This evaluator does that computation: given node positions,
    a card model and a set of :class:`FlowRoute` objects, it charges each
    on-route node for its transmissions and receptions and charges remaining
    time as idle or sleep according to the sleep-scheduling strategy.

    Two strategies from §5.2.3:

    * ``"perfect"`` — nodes wake exactly when needed; all non-communication
      time is spent asleep (for every node, on-route or not).
    * ``"odpm"`` — on-route (active) nodes idle whenever not communicating,
      expecting traffic; off-route nodes follow the PSM duty cycle, modeled
      as asleep outside the beacon-interval ATIM fraction.
    """

    def __init__(
        self,
        positions: Mapping[int, tuple[float, float]],
        card: RadioModel,
        power_control: bool = True,
        atim_fraction: float = 0.02 / 0.3,
    ) -> None:
        if not 0 <= atim_fraction <= 1:
            raise ValueError("atim_fraction must lie in [0, 1]")
        self.positions = dict(positions)
        self.card = card
        self.power_control = power_control
        self.atim_fraction = atim_fraction

    # ------------------------------------------------------------------
    def _distance(self, u: int, v: int) -> float:
        (x1, y1), (x2, y2) = self.positions[u], self.positions[v]
        return ((x1 - x2) ** 2 + (y1 - y2) ** 2) ** 0.5

    def evaluate(
        self,
        routes: Sequence[FlowRoute],
        duration: float,
        packet_size_bits: float = 128 * 8,
        scheduling: str = "perfect",
    ) -> NetworkEnergy:
        """Return the charged :class:`NetworkEnergy` for ``duration`` seconds.

        Per hop (u, v) of each route the sender transmits
        ``rate * duration / packet_size_bits`` packets, each occupying the
        medium for ``packet_size_bits / B`` seconds; the receiver spends the
        same time receiving.  Whatever time remains is passive, split by
        ``scheduling``.
        """
        if scheduling not in ("perfect", "odpm"):
            raise ValueError("scheduling must be 'perfect' or 'odpm'")
        if duration < 0:
            raise ValueError("duration must be non-negative")
        network = NetworkEnergy()
        for node_id in self.positions:
            network.add_node(node_id, self.card)

        busy: dict[int, float] = {node_id: 0.0 for node_id in self.positions}
        on_route: set[int] = set()
        for route in routes:
            on_route.update(route.path)
            packet_time = packet_size_bits / self.card.bandwidth
            packets = route.rate * duration / packet_size_bits
            airtime = packets * packet_time
            for u, v in zip(route.path, route.path[1:]):
                distance = self._distance(u, v) if self.power_control else None
                network[u].charge_data_tx(airtime, distance)
                network[v].charge_data_rx(airtime)
                busy[u] += airtime
                busy[v] += airtime

        for node_id in self.positions:
            passive = max(0.0, duration - busy[node_id])
            if scheduling == "perfect":
                network[node_id].charge_sleep(passive)
            elif node_id in on_route:
                network[node_id].charge_idle(passive)
            else:
                # PSM duty cycle: awake (idle) during the ATIM window of each
                # beacon interval, asleep otherwise.
                network[node_id].charge_idle(passive * self.atim_fraction)
                network[node_id].charge_sleep(passive * (1 - self.atim_fraction))
        return network

    def delivered_bits(self, routes: Sequence[FlowRoute], duration: float) -> float:
        """Application bits delivered over ``duration`` assuming no loss."""
        return sum(route.rate * duration for route in routes)

    def energy_goodput(
        self,
        routes: Sequence[FlowRoute],
        duration: float,
        packet_size_bits: float = 128 * 8,
        scheduling: str = "perfect",
    ) -> float:
        """Energy goodput (bits/J) for frozen routes, the Figs. 13–16 metric."""
        network = self.evaluate(routes, duration, packet_size_bits, scheduling)
        return network.energy_goodput(self.delivered_bits(routes, duration))
