"""Link cost functions for route selection (Eqs. 10–12).

The three heuristic approaches differ in the cost a route-discovery packet
accumulates per hop:

* **MTPR** (Eq. 10): ``f(u, v) = P_t(u, v)`` — only the tunable transmit
  power level, favoring many short hops.
* **MTPR+** (Eq. 11): ``f(u, v) = P_base + P_t(u, v) + P_rx`` — adds the
  fixed per-hop costs, tempering the bias toward extra relays.
* **Joint** (Eq. 12): ``h(u, v, r) = c(u, v) [+ P_idle if the relay is in
  PSM]`` with ``c(u, v) = (P_tx(u, v) + P_rx - 2 P_idle) * r / B``; the
  ``P_idle`` term charges for waking a sleeping relay.  When the flow rate is
  unknown (the paper's *norate* variant), ``r / B`` is set to 1.
* **Hop count**: plain shortest-path (DSR baseline), cost 1 per hop.

Following §4.2 (reactive joint optimization: a node receiving a route request
"updates the cost of the route using the transmit power level and *its*
power management state"), the PSM penalty is charged by the node being added
to the route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.core.radio import PowerMode, RadioModel

_POWER_SAVE = PowerMode.POWER_SAVE


class LinkCost(Protocol):
    """Cost added when extending a route over the link ``u -> v``.

    Parameters
    ----------
    distance:
        Link length in meters (sets the transmit power level).
    relay_mode:
        Power-management state of the node joining the route.
    rate:
        Flow rate in bits/s, or ``None`` when unknown.
    """

    def __call__(
        self, distance: float, relay_mode: PowerMode, rate: float | None
    ) -> float: ...


@dataclass(frozen=True)
class HopCount:
    """Shortest-path metric: every hop costs 1 (DSR, TITAN, DSDV)."""

    def __call__(
        self, distance: float, relay_mode: PowerMode, rate: float | None
    ) -> float:
        return 1.0


#: The one stateless hop-count metric every DSR, TITAN and DSDV node shares.
HOP_COUNT = HopCount()


@dataclass(frozen=True)
class MtprCost:
    """Eq. 10: transmit power level only."""

    card: RadioModel

    def __call__(
        self, distance: float, relay_mode: PowerMode, rate: float | None
    ) -> float:
        return self.card.transmit_power_level(distance)


@dataclass(frozen=True)
class MtprPlusCost:
    """Eq. 11: transmit power level plus fixed transmit and receive costs."""

    card: RadioModel

    def __call__(
        self, distance: float, relay_mode: PowerMode, rate: float | None
    ) -> float:
        return self.card.transmit_power(distance) + self.card.p_rx


@dataclass(frozen=True)
class JointCost:
    """Eq. 12: communication cost scaled by utilization, plus a PSM penalty.

    ``use_rate`` selects between the paper's *rate* variant (the source
    advertises the flow rate in packet headers) and the *norate* variant
    (``r/B`` treated as 1).  The communication term is clamped at zero: for
    cards whose idle power exceeds transmit+receive power the paper's
    ``c(u, v)`` would go negative and reward gratuitous relaying, which the
    original MPC formulation rules out by assumption.
    """

    card: RadioModel
    use_rate: bool = True

    def __call__(
        self, distance: float, relay_mode: PowerMode, rate: float | None
    ) -> float:
        utilization = 1.0
        if self.use_rate and rate is not None:
            utilization = min(1.0, rate / self.card.bandwidth)
        communication = (
            self.card.transmit_power(distance) + self.card.p_rx - 2.0 * self.card.p_idle
        )
        cost = max(0.0, communication) * utilization
        if relay_mode is _POWER_SAVE:
            cost += self.card.p_idle
        return cost


def route_cost(
    cost: LinkCost,
    distances: list[float],
    relay_modes: list[PowerMode],
    rate: float | None = None,
) -> float:
    """Total cost of a route given per-hop distances and joining-node modes."""
    if len(distances) != len(relay_modes):
        raise ValueError("need one relay mode per hop")
    return sum(
        cost(d, mode, rate) for d, mode in zip(distances, relay_modes)
    )
