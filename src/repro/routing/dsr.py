"""DSR: reactive shortest-path source routing (Johnson et al. [17]).

The paper's baseline protocol and, combined with ODPM and transmission power
control on the selected links, the first variant of the idling-first
heuristic (DSR-ODPM-PC, §4.3): routes are picked purely by hop count, the
few chosen relays stay active under ODPM, and power control then reduces the
energy of each chosen link without influencing route selection.
"""

from __future__ import annotations

from repro.routing.base import NodeContext
from repro.routing.costs import HOP_COUNT
from repro.routing.reactive import ReactiveProtocol


class Dsr(ReactiveProtocol):
    """Plain DSR: hop-count route discovery, source-routed data."""

    name = "DSR"

    def __init__(self, node: NodeContext, cache_timeout: float = 300.0) -> None:
        super().__init__(node, cost=HOP_COUNT, cache_timeout=cache_timeout)
