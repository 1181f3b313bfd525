"""Base interface for power-management protocols (§2.2, §4).

A power manager holds one node's AM/PSM decision — the paper's central
energy lever: an idling Cabletron card burns 0.83 W (Table 1) whereas PSM
sleep draws an order of magnitude less, so *when to sleep* dominates
``E_network`` (joules) at CBR rates of a few Kbit/s.  Concrete policies:
:class:`~repro.power.odpm.Odpm` (traffic-driven, [25]),
:class:`~repro.power.span.SpanCoordinator` (topology-driven, [9]) and the
:mod:`~repro.power.always_on` baselines.
"""

from __future__ import annotations

from typing import Callable

from repro.core.radio import PowerMode
from repro.sim.engine import Simulator

_ACTIVE = PowerMode.ACTIVE


def _ignore_mode_change(node_id: int, mode: PowerMode) -> None:
    """Default ``on_mode_change`` until a node wires its own."""


class PowerManager:
    """Decides a single node's AM/PSM membership (§2.2).

    Subclasses override the ``notify_*`` hooks, which the node wires to the
    corresponding protocol events (data forwarding, route replies — the
    triggers ODPM [25] defines).  Whenever the mode changes,
    ``on_mode_change(node_id, mode)`` fires so the PSM scheduler can wake
    the radio immediately on a PSM -> AM transition; ``transitions`` counts
    mode switches, each of which costs the card ``E_sw`` joules in the
    energy model.
    """

    def __init__(self, sim: Simulator, node_id: int) -> None:
        self.sim = sim
        self.node_id = node_id
        self._mode = self.initial_mode()
        self.on_mode_change: Callable[[int, PowerMode], None] = (
            _ignore_mode_change
        )
        self.transitions = 0

    def initial_mode(self) -> PowerMode:
        """Mode at simulation start; PSM for managers that conserve by default."""
        return _ACTIVE

    @property
    def mode(self) -> PowerMode:
        return self._mode

    def close(self) -> None:
        """Drop the mode-change upcall, a method of the node (end of a run)."""
        self.on_mode_change = None

    def _switch(self, mode: PowerMode) -> None:
        if mode is self._mode:
            return
        self._mode = mode
        self.transitions += 1
        self.on_mode_change(self.node_id, mode)

    # ------------------------------------------------------------------
    # Protocol event hooks (no-ops by default)
    # ------------------------------------------------------------------
    def notify_data_activity(self) -> None:
        """The node sent, received or forwarded a data packet."""

    def notify_route_reply(self) -> None:
        """A route reply traversed (or was generated by) this node."""

    def notify_route_member(self) -> None:
        """The node learned it is a relay on an active route."""
