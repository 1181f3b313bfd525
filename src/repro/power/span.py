"""Span-style coordinator election (Chen et al. [9]).

Span maintains a backbone of *coordinators* that stay awake so everyone
else can sleep: a node volunteers as coordinator when two of its neighbors
cannot reach each other directly or through existing coordinators, and
withdraws when its neighborhood is covered without it.  The paper uses
Span both as related work and as the source of the PSM improvements in
§5.2.1; this implementation completes the power-management family so that
topology-driven (Span), traffic-driven (ODPM) and hybrid (TITAN uses
ODPM + routing bias) approaches can all be compared on the same substrate.

Election details follow the Span paper in spirit: eligibility is evaluated
periodically with a randomized back-off proportional to how much coverage
the node would add (we use a simple random slot within the check interval,
which preserves the contention-avoidance role of Span's back-off without
simulating its HELLO piggybacking; neighbor state is read through the same
genie oracle the rest of the library uses for PSM beacon-piggybacked
state).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.radio import PowerMode
from repro.power.manager import PowerManager
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.channel import Channel

#: How often eligibility/withdrawal is re-evaluated, seconds.
CHECK_INTERVAL = 2.0
#: A withdrawing coordinator lingers this long so routes can move off it.
WITHDRAW_DELAY = 4.0


class SpanCoordinator(PowerManager):
    """Topology-driven power management: coordinators stay awake ([9], §5.2.1).

    Unlike ODPM's traffic-driven keep-alives, membership here is decided by
    *coverage*: a node turns active when some neighbor pair would otherwise
    be disconnected, and withdraws (after ``WITHDRAW_DELAY`` seconds) once
    redundant.  Energy cost follows directly: coordinators idle at full
    power (watts, Table 1) while everyone else sleeps.
    """

    def __init__(self, sim: Simulator, node_id: int) -> None:
        super().__init__(sim, node_id)
        self._channel: "Channel | None" = None
        self._mode_of: Callable[[int], PowerMode] | None = None
        self._rng = sim.rng("span-%d" % node_id)
        self._withdraw_at: float | None = None
        self.elections = 0
        self.withdrawals = 0

    def initial_mode(self) -> PowerMode:
        return PowerMode.POWER_SAVE

    # ------------------------------------------------------------------
    # Wiring (done by the Node/Network composition)
    # ------------------------------------------------------------------
    def install_topology(
        self,
        channel: "Channel",
        mode_of: Callable[[int], PowerMode],
    ) -> None:
        """Provide the neighborhood view and start the election loop."""
        self._channel = channel
        self._mode_of = mode_of
        self.sim.schedule(self._rng.uniform(0.0, CHECK_INTERVAL), self._check)

    def close(self) -> None:
        super().close()
        self._mode_of = None  # a method of the node, which holds us

    # ------------------------------------------------------------------
    # Election rule
    # ------------------------------------------------------------------
    def _neighbors(self) -> list[int]:
        assert self._channel is not None
        return self._channel.neighbors(self.node_id)

    def _connected_without_me(self, u: int, v: int) -> bool:
        """Are neighbors u, v connected directly or via a coordinator that
        is not this node?"""
        assert self._channel is not None and self._mode_of is not None
        channel = self._channel
        if channel.distance(u, v) <= channel.max_range:
            return True
        for via in channel.neighbors(u):
            if via == self.node_id or via == v:
                continue
            if self._mode_of(via) is not PowerMode.ACTIVE:
                continue
            if channel.distance(via, v) <= channel.max_range:
                return True
        return False

    def coverage_needed(self) -> bool:
        """Span's eligibility rule: some neighbor pair needs this node."""
        neighbors = self._neighbors()
        for i, u in enumerate(neighbors):
            for v in neighbors[i + 1:]:
                if not self._connected_without_me(u, v):
                    return True
        return False

    def _check(self) -> None:
        if self._channel is None:
            return
        needed = self.coverage_needed()
        if needed and self.mode is PowerMode.POWER_SAVE:
            self.elections += 1
            self._withdraw_at = None
            self._switch(PowerMode.ACTIVE)
        elif not needed and self.mode is PowerMode.ACTIVE:
            # Withdraw only after a linger period of sustained redundancy.
            if self._withdraw_at is None:
                self._withdraw_at = self.sim.now + WITHDRAW_DELAY
            elif self.sim.now >= self._withdraw_at:
                self.withdrawals += 1
                self._withdraw_at = None
                self._switch(PowerMode.POWER_SAVE)
        else:
            self._withdraw_at = None
        self.sim.schedule(
            CHECK_INTERVAL + self._rng.uniform(0.0, CHECK_INTERVAL / 2),
            self._check,
        )

    # Data activity also keeps a coordinator useful; no keep-alives needed —
    # coverage, not traffic, decides membership (the Span philosophy).
