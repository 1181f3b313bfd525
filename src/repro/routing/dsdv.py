"""DSDV: proactive hop-count routing (Perkins & Bhagwat [20]).

Plain destination-sequenced distance vector with hop-count metric; the
substrate on which the paper builds its proactive joint optimization
(see :mod:`repro.routing.dsdvh`).
"""

from __future__ import annotations

from repro.routing.base import NodeContext
from repro.routing.costs import HOP_COUNT
from repro.routing.proactive import ProactiveProtocol


class Dsdv(ProactiveProtocol):
    """Classic DSDV: periodic sequence-numbered hop-count updates."""

    name = "DSDV"

    def __init__(self, node: NodeContext, update_interval: float = 15.0) -> None:
        super().__init__(
            node,
            cost=HOP_COUNT,
            update_interval=update_interval,
            trigger_on_mode_change=False,
        )
