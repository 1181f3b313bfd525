"""Trivial power managers: permanently active or permanently power-saving.

``AlwaysActive`` models the paper's DSR-Active baseline, in which no node
ever sleeps; ``AlwaysPsm`` models unconditional IEEE 802.11 PSM, in which
every node keeps the power-save duty cycle regardless of traffic (useful for
ablations and for the pure-PSM baseline the paper cites from [25]).
"""

from __future__ import annotations

from repro.core.radio import PowerMode
from repro.power.manager import PowerManager

_ACTIVE = PowerMode.ACTIVE
_POWER_SAVE = PowerMode.POWER_SAVE


class AlwaysActive(PowerManager):
    """Every node stays in active mode forever (no idling savings).

    The paper's DSR-Active baseline (§5.2): each node pays full idle power
    (0.83 W on Cabletron, Table 1) for the whole run, which is why its
    energy goodput (bit/J) trails every power-managed protocol in
    Figs. 9, 12–16.
    """

    def initial_mode(self) -> PowerMode:
        return _ACTIVE


class AlwaysPsm(PowerManager):
    """Every node stays in power-save mode forever (maximal sleeping).

    Unconditional IEEE 802.11 PSM, the [25] baseline: maximal sleep time at
    the cost of per-beacon wake-ups and buffered-delivery latency (seconds
    of extra delay at low duty cycles).
    """

    def initial_mode(self) -> PowerMode:
        return _POWER_SAVE
