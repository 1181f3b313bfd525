"""Node composition: PHY + MAC + power manager + routing + application hook.

A :class:`Node` wires the layer upcalls together:

* ``mac.on_deliver`` -> routing ``on_frame`` (plus PSM broadcast accounting);
* ``mac.on_link_failure`` -> routing ``on_link_failure``;
* power-manager mode changes -> PSM scheduler wake-ups and (for DSDVH)
  triggered routing updates;
* delivered application data -> the node's ``on_app_data`` callback,
  installed by the traffic sink.

It also provides the two oracles the protocols need: ``neighbor_mode``
(TITAN's backbone knowledge and Eq. 12's PSM penalty — both justified by
state piggybacking on PSM beacons) and ``power_control`` (whether data
frames are transmitted with distance-tuned power).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.energy_model import NodeEnergy
from repro.core.radio import PowerMode, RadioModel
from repro.power.manager import PowerManager
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.mac import Mac
from repro.sim.packet import Packet, PacketKind
from repro.sim.phy import Phy

if TYPE_CHECKING:  # pragma: no cover
    from repro.routing.base import RoutingProtocol
    from repro.sim.psm import NoPsm, PsmScheduler

_ACTIVE = PowerMode.ACTIVE


class Node:
    """One wireless node with a full protocol stack."""

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        node_id: int,
        card: RadioModel,
        energy: NodeEnergy,
        power_manager_factory: Callable[[Simulator, int], PowerManager],
        psm: "PsmScheduler | NoPsm",
        power_control: bool = False,
        rts_enabled: bool = True,
        capture_ratio: float | None = None,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.node_id = node_id
        self.card = card
        self.power_control = power_control

        self.phy = Phy(sim, channel, node_id, card, energy,
                       capture_ratio=capture_ratio)
        self.mac = Mac(sim, self.phy, rts_enabled=rts_enabled)
        self.power = power_manager_factory(sim, node_id)
        self.psm = psm
        psm.register(self.phy, self.mac, lambda: self.power.mode)
        self.power.on_mode_change = self._on_mode_change

        self.routing: "RoutingProtocol | None" = None
        self.on_app_data: Callable[[Packet], None] = lambda packet: None
        self._neighbor_modes: dict[int, Callable[[], PowerMode]] = {}

        self.mac.on_deliver = self._on_deliver
        self.mac.on_link_failure = self._on_link_failure

        # A node starting in PSM sleeps as soon as the scheduler says so;
        # starting asleep immediately would miss the first beacon.

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_routing(self, routing: "RoutingProtocol") -> None:
        if self.routing is not None:
            raise RuntimeError("routing already attached")
        self.routing = routing

    def register_neighbor_mode(
        self, neighbor: int, mode: Callable[[], PowerMode]
    ) -> None:
        """Install the power-mode oracle for a neighbor (done by Network)."""
        self._neighbor_modes[neighbor] = mode

    def register_neighbor_modes(self, modes) -> None:
        """Bulk-install neighbor oracles from ``(neighbor, mode)`` pairs.

        One dict update per node instead of one method call per edge —
        dense-network assembly registers O(N x degree) oracles.
        """
        self._neighbor_modes.update(modes)

    def neighbor_mode(self, neighbor: int) -> PowerMode:
        """Power-management state of a neighbor.

        Stands in for state piggybacked on PSM beacons; unknown neighbors
        are assumed active (safe for cost purposes).
        """
        oracle = self._neighbor_modes.get(neighbor)
        return oracle() if oracle is not None else _ACTIVE

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def send_data(self, packet: Packet) -> None:
        """Originate application data (called by traffic sources)."""
        if self.routing is None:
            raise RuntimeError("no routing protocol attached")
        self.routing.originate_data(packet)

    def deliver_to_app(self, packet: Packet) -> None:
        """Routing upcall: data for this node reached it."""
        self.on_app_data(packet)

    # ------------------------------------------------------------------
    # Layer glue
    # ------------------------------------------------------------------
    def _on_deliver(self, packet: Packet) -> None:
        if packet.is_broadcast:
            self.psm.on_broadcast_received(self.node_id)
        if self.routing is not None:
            self.routing.on_frame(packet)

    def _on_link_failure(self, next_hop: int, packet: Packet) -> None:
        if self.routing is not None:
            self.routing.on_link_failure(next_hop, packet)

    def _on_mode_change(self, node_id: int, mode: PowerMode) -> None:
        self.psm.on_mode_change(node_id, mode)
        routing = self.routing
        if routing is not None and hasattr(routing, "on_power_mode_change"):
            routing.on_power_mode_change()

    def close(self) -> None:
        """Unwire the stack at the end of a run.

        Each layer drops its upcalls and back-pointers, and the node drops
        its application hook and neighbor oracles, which close over the
        traffic sink and the other nodes.  The layers and their counters
        stay readable; a closed node must not run again.
        """
        self.phy.close()
        self.mac.close()
        self.power.close()
        if self.routing is not None:
            self.routing.close()
        self.on_app_data = None
        self._neighbor_modes.clear()

    def start(self) -> None:
        """Begin protocol operation (proactive dumps, coordinator election)."""
        if self.routing is not None:
            self.routing.start()
        install = getattr(self.power, "install_topology", None)
        if install is not None:
            install(self.channel, self.neighbor_mode)

    def fail(self, stop_energy: bool = False) -> None:
        """Crash this node (failure injection).

        The radio dies permanently; neighbors discover the failure through
        MAC retry exhaustion and the routing layer repairs around it.
        ``stop_energy`` (used by churn schedules,
        :class:`repro.sim.mobility.ChurnSchedule`) additionally freezes the
        node's energy ledger at the failure instant — radio off *and*
        battery disconnected — instead of the default sleep-power draw.
        """
        self.phy.fail(stop_energy=stop_energy)

    @property
    def failed(self) -> bool:
        return self.phy.failed

    @property
    def position(self) -> tuple[float, float]:
        """Current ``(x, y)`` position in meters.

        The channel owns live positions (mobility rewrites them mid-run);
        this accessor is the node-side view of that single source of truth.
        """
        return self.channel.positions[self.node_id]
