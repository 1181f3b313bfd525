"""Radio card models and the Table 1 card registry.

The paper characterizes a wireless card by its operating modes (transmit,
receive, idle, sleep) and the power drawn in each.  Transmission power is
distance dependent::

    P_tx(d) = P_base + alpha2 * d ** n        [watts, d in meters]

where ``P_base`` is the base transmitter cost and ``alpha2 * d ** n`` is the
transmit power level ``P_t`` needed to reach distance ``d`` under a ``1/d^n``
path-loss model (2 <= n <= 4).

Table 1 of the paper gives concrete parameters (in mW) for four measured
cards plus one hypothetical card used to probe when power control can win:

====================  =======  ======  ==============================
Card                  P_idle   P_rx    P_tx(d)
====================  =======  ======  ==============================
Aironet 350           1350     1350    2165 + 3.6e-7 * d^4
Cabletron             830      1000    1118 + 7.2e-8 * d^4
Hypothetical                           1118 + 5.2e-6 * d^4
Mica2                 21       21      10.2 + 9.4e-7 * d^4
LEACH                 x * 50   50      50 + 1.3e-6 * d^4   (n = 4)
                                       50 + 1e-2   * d^2   (n = 2)
====================  =======  ======  ==============================

All public values in this module are SI: watts, meters, seconds, joules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property


class RadioState(Enum):
    """Operating modes of a wireless interface (Section 2.1).

    Members hash by identity (``object.__hash__``): the PHY's charge
    dispatch keys a dict by state on the simulation hot path, and the
    default ``Enum.__hash__`` (a Python-level hash of the member name)
    dominates those lookups.  Identity hashing is safe because enum members
    are singletons compared by identity; nothing in this codebase iterates
    a *set* of members (dict iteration order is insertion order and stays
    deterministic).

    Simulator code reads members through module constants (``_IDLE =
    RadioState.IDLE``), never as ``RadioState.IDLE`` inside a function
    body: on CPython 3.11 every such read goes through
    ``EnumType.__getattr__``.
    """

    __hash__ = object.__hash__

    TRANSMIT = "transmit"
    RECEIVE = "receive"
    IDLE = "idle"
    SLEEP = "sleep"


class PowerMode(Enum):
    """Power-management mode of a node (Section 2.2).

    In active mode (AM) the card is transmitting, receiving or idling; in
    power-save mode (PSM) the card spends most of its time in the sleep state,
    waking only for beacon/ATIM windows.

    Hashes by identity for the same reason as :class:`RadioState`.
    """

    __hash__ = object.__hash__

    ACTIVE = "AM"
    POWER_SAVE = "PSM"


_TRANSMIT = RadioState.TRANSMIT
_RECEIVE = RadioState.RECEIVE
_IDLE = RadioState.IDLE
_SLEEP = RadioState.SLEEP

_MW = 1e-3  # milliwatts to watts


@dataclass(frozen=True)
class RadioModel:
    """Energy characteristics of a wireless card.

    Parameters
    ----------
    name:
        Human-readable card name (e.g. ``"Cabletron"``).
    p_idle:
        Idle-state power in watts.
    p_rx:
        Receive-state power in watts.
    p_base:
        Base transmitter cost ``P_base`` in watts (distance independent).
    alpha2:
        Transmit amplifier coefficient in watts / meter**n.
    path_loss_exponent:
        The exponent ``n`` of the path-loss model, ``2 <= n <= 4``.
    p_sleep:
        Sleep-state power in watts.  The paper treats sleep power as
        "typically negligible"; per-card values are taken from the
        measurement studies the paper cites and only matter in that they
        are far below ``p_idle``.
    max_range:
        Nominal transmission range ``D`` in meters at maximum power, as used
        for each card in Fig. 7.
    switch_energy:
        Energy cost ``E_sw`` in joules for one sleep<->idle transition.
    bandwidth:
        Link bandwidth ``B`` in bits/second (802.11 DSSS default 2 Mbit/s).
    """

    name: str
    p_idle: float
    p_rx: float
    p_base: float
    alpha2: float
    path_loss_exponent: float = 4.0
    p_sleep: float = 0.0
    max_range: float = 250.0
    switch_energy: float = 0.0
    bandwidth: float = 2e6

    def __post_init__(self) -> None:
        if self.p_idle < 0 or self.p_rx < 0 or self.p_base < 0:
            raise ValueError("power draws must be non-negative")
        if self.alpha2 < 0:
            raise ValueError("alpha2 must be non-negative")
        if not 1.0 <= self.path_loss_exponent <= 6.0:
            raise ValueError(
                "path loss exponent %r outside sane range [1, 6]"
                % self.path_loss_exponent
            )
        if self.max_range <= 0:
            raise ValueError("max_range must be positive")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    # ------------------------------------------------------------------
    # Transmit power
    # ------------------------------------------------------------------
    def transmit_power_level(self, distance: float) -> float:
        """Return ``P_t(d) = alpha2 * d^n``, the amplifier output in watts.

        This is the *tunable* part of transmission power under transmission
        power control (TPC); it excludes the base transmitter cost.
        """
        if distance < 0:
            raise ValueError("distance must be non-negative")
        return self.alpha2 * distance**self.path_loss_exponent

    def transmit_power(self, distance: float) -> float:
        """Return total transmit power ``P_tx(d) = P_base + P_t(d)`` in watts."""
        return self.p_base + self.transmit_power_level(distance)

    @cached_property
    def p_tx_max(self) -> float:
        """Transmit power at the nominal maximum range (control packets).

        Cached: every control transmission and every max-power data charge
        reads it, and recomputing ``alpha2 * D**n`` per read is measurable.
        (``cached_property`` stores into the instance ``__dict__`` directly,
        which works on a frozen dataclass and does not affect field-based
        equality, ``repr`` or ``asdict``.)
        """
        return self.transmit_power(self.max_range)

    def power(self, state: RadioState, distance: float | None = None) -> float:
        """Power draw in watts for ``state``.

        ``distance`` is required for :attr:`RadioState.TRANSMIT`; when it is
        omitted, the maximum-range transmit power is used, matching the
        paper's assumption that control packets go out at maximum power.
        """
        if state is _TRANSMIT:
            if distance is None:
                return self.p_tx_max
            return self.transmit_power(distance)
        if state is _RECEIVE:
            return self.p_rx
        if state is _IDLE:
            return self.p_idle
        if state is _SLEEP:
            return self.p_sleep
        raise ValueError("unknown radio state %r" % state)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def range_for_power_level(self, p_t: float) -> float:
        """Invert :meth:`transmit_power_level`: distance reachable with ``p_t``.

        Raises ``ValueError`` for cards with ``alpha2 == 0`` (no distance
        model) or negative power levels.
        """
        if p_t < 0:
            raise ValueError("power level must be non-negative")
        if self.alpha2 == 0:
            raise ValueError("card %s has no distance model" % self.name)
        return (p_t / self.alpha2) ** (1.0 / self.path_loss_exponent)

    def with_alpha2(self, alpha2: float) -> "RadioModel":
        """Return a copy with a different amplifier coefficient.

        Used to derive hypothetical cards, e.g. the paper's Hypothetical
        Cabletron with ``alpha2 = 5.2e-6 mW/m^4``.
        """
        return replace(self, alpha2=alpha2)

    def scaled_idle(self, factor: float) -> "RadioModel":
        """Return a copy with idle power ``factor * p_rx``.

        Models the LEACH card's ``P_idle = x * 50 mW`` row of Table 1.
        """
        if factor < 0:
            raise ValueError("idle scale factor must be non-negative")
        return replace(self, p_idle=factor * self.p_rx)


# ----------------------------------------------------------------------
# Table 1 registry
# ----------------------------------------------------------------------

AIRONET_350 = RadioModel(
    name="Aironet 350",
    p_idle=1350 * _MW,
    p_rx=1350 * _MW,
    p_base=2165 * _MW,
    alpha2=3.6e-7 * _MW,
    path_loss_exponent=4.0,
    p_sleep=75 * _MW,
    max_range=140.0,
)

CABLETRON = RadioModel(
    name="Cabletron",
    p_idle=830 * _MW,
    p_rx=1000 * _MW,
    p_base=1118 * _MW,
    alpha2=7.2e-8 * _MW,
    path_loss_exponent=4.0,
    p_sleep=50 * _MW,
    max_range=250.0,
)

#: The paper's Hypothetical Cabletron: identical to Cabletron except that
#: alpha2 is raised to 5.2e-6 mW/m^4, the smallest coefficient for which
#: relaying beats direct transmission (m_opt >= 2) at R/B = 0.25.
HYPOTHETICAL_CABLETRON = replace(
    CABLETRON.with_alpha2(5.2e-6 * _MW), name="Hypothetical Cabletron"
)

MICA2 = RadioModel(
    name="Mica2",
    p_idle=21 * _MW,
    p_rx=21 * _MW,
    p_base=10.2 * _MW,
    alpha2=9.4e-7 * _MW,
    path_loss_exponent=4.0,
    p_sleep=0.003 * _MW,
    max_range=68.0,
    bandwidth=38.4e3,
)

LEACH_N4 = RadioModel(
    name="LEACH (n=4)",
    p_idle=50 * _MW,
    p_rx=50 * _MW,
    p_base=50 * _MW,
    alpha2=1.3e-6 * _MW,
    path_loss_exponent=4.0,
    p_sleep=0.0,
    max_range=100.0,
    bandwidth=1e6,
)

LEACH_N2 = RadioModel(
    name="LEACH (n=2)",
    p_idle=50 * _MW,
    p_rx=50 * _MW,
    p_base=50 * _MW,
    alpha2=1e-2 * _MW,
    path_loss_exponent=2.0,
    p_sleep=0.0,
    max_range=75.0,
    bandwidth=1e6,
)

#: All Table 1 cards keyed by a short identifier.
CARD_REGISTRY: dict[str, RadioModel] = {
    "aironet350": AIRONET_350,
    "cabletron": CABLETRON,
    "hypothetical": HYPOTHETICAL_CABLETRON,
    "mica2": MICA2,
    "leach-n4": LEACH_N4,
    "leach-n2": LEACH_N2,
}


def get_card(key: str) -> RadioModel:
    """Look up a Table 1 card by registry key.

    >>> get_card("cabletron").p_rx
    1.0
    """
    try:
        return CARD_REGISTRY[key]
    except KeyError:
        raise KeyError(
            "unknown card %r; available: %s" % (key, ", ".join(sorted(CARD_REGISTRY)))
        ) from None


def fig7_card_configs() -> list[tuple[RadioModel, float]]:
    """The six (card, D) configurations plotted in Fig. 7 of the paper."""
    return [
        (AIRONET_350, 140.0),
        (CABLETRON, 250.0),
        (MICA2, 68.0),
        (LEACH_N4, 100.0),
        (LEACH_N2, 75.0),
        (HYPOTHETICAL_CABLETRON, 250.0),
    ]
