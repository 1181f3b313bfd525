"""On-Demand Power Management (ODPM, Zheng & Kravets [25]).

Nodes default to power-save mode.  Communication events pull a node into
active mode and arm a keep-alive timer; when the timer expires because the
node has been idle, the node drops back to PSM.  The paper's configuration
uses a 10 s keep-alive for route replies and 5 s for data messages; the
Span-style refinement of §5.2.1 shrinks these to 1.2 s / 0.6 s (two beacon
intervals), which we expose through :class:`OdpmConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.radio import PowerMode
from repro.power.manager import PowerManager
from repro.sim.engine import Simulator, Timer

_ACTIVE = PowerMode.ACTIVE
_POWER_SAVE = PowerMode.POWER_SAVE


@dataclass(frozen=True)
class OdpmConfig:
    """Keep-alive durations in seconds.

    ``keepalive_rrep`` applies when a route reply traverses the node (it is
    about to become a relay); ``keepalive_data`` applies per forwarded or
    received data packet.
    """

    keepalive_data: float = 5.0
    keepalive_rrep: float = 10.0

    def __post_init__(self) -> None:
        if self.keepalive_data <= 0 or self.keepalive_rrep <= 0:
            raise ValueError("keep-alive durations must be positive")

    @classmethod
    def paper_default(cls) -> "OdpmConfig":
        """The §5.2 configuration: 10 s RREP, 5 s data."""
        return cls(keepalive_data=5.0, keepalive_rrep=10.0)

    @classmethod
    def span_improved(cls) -> "OdpmConfig":
        """The §5.2.1 refinement: two beacon intervals (1.2 s / 0.6 s)."""
        return cls(keepalive_data=0.6, keepalive_rrep=1.2)


class Odpm(PowerManager):
    """On-demand AM/PSM switching driven by keep-alive timers (§2.2, [25]).

    Every data or route-reply event pulls the node into active mode and
    extends a keep-alive timer (seconds, per :class:`OdpmConfig`); expiry
    drops the node back to PSM.  The balance between the two determines how
    much of the idle power (watts, Table 1) a relay actually pays — the
    quantity Figs. 13–16 study.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        config: OdpmConfig | None = None,
    ) -> None:
        self.config = config or OdpmConfig.paper_default()
        super().__init__(sim, node_id)
        self._keepalive = Timer(sim, self._expire)

    def initial_mode(self) -> PowerMode:
        return _POWER_SAVE

    # ------------------------------------------------------------------
    def notify_data_activity(self) -> None:
        self._stay_active(self.config.keepalive_data)

    def notify_route_reply(self) -> None:
        self._stay_active(self.config.keepalive_rrep)

    def notify_route_member(self) -> None:
        self._stay_active(self.config.keepalive_rrep)

    def _stay_active(self, keepalive: float) -> None:
        self._switch(_ACTIVE)
        self._keepalive.extend_to(keepalive)

    def close(self) -> None:
        super().close()
        self._keepalive.close()

    def _expire(self) -> None:
        self._switch(_POWER_SAVE)
