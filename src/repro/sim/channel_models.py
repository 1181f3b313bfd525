"""Pluggable channel models: *whether a frame is heard*, separated from
*who is in range*.

The paper evaluates every protocol over a binary-disc channel: a frame
reaches exactly the nodes within the transmit power's nominal range, every
time.  That is the workload where energy/fidelity trade-offs are cheapest —
links never flap, so route repair and marginal-link avoidance are never
exercised.  This module opens the link-quality axis with a small registry
of per-reception admission models layered *on top of* the disc geometry
(:class:`~repro.sim.channel.Channel` still resolves the candidate receiver
set, and each candidate's distance, from its neighbor tables; a model
only filters it):

* ``disc`` — the paper's channel: every candidate hears every frame.
  Marked :attr:`~DiscChannelModel.transparent`, so the channel keeps its
  pre-registry fast path and pure-disc runs stay byte-identical to earlier
  builds (the pinned-digest contract).
* ``prob`` — distance-dependent reception probability with optional
  log-normal shadowing.  Every draw comes from a dedicated per-link
  ``channel/<rx>/<tx>`` stream (mirroring the ``traffic/<flow>`` /
  ``mobility/<node>`` convention), so enabling loss cannot perturb any
  other subsystem's sequence — and ``loss=0`` degenerates to the disc
  without touching the RNG at all.
* ``rssi-margin`` — deterministic link admission with a configurable dB
  margin, the LoRaMesh idiom: a link is used only if its path-loss budget
  clears the margin, so marginal edge-of-range links are rejected outright
  rather than flapping.  Draws nothing.

*Tech profiles* cover radio heterogeneity in one network: a profile scales
a node's :class:`~repro.core.radio.RadioModel` (range, bandwidth, power
draws), and :func:`resolve_cards` assigns profiles to nodes by a
seed-independent per-node draw so shared placements/geometries stay valid
across a batched seed group.  Profile ranges never exceed the base card's
(``range_scale <= 1``): the channel's neighbor tables are built at the base
range and remain a superset of every node's true reach.

:class:`ChannelSpec` is the frozen, hashable description that travels on
:class:`~repro.sim.network.NetworkConfig` and
:class:`~repro.experiments.scenarios.Scenario`, enters the result-store
cell key only when non-default (pre-existing cache keys survive) and
parses from the CLI's ``--channel MODEL[:PARAM=V,...]`` /
``--radio-tech NAME=FRACTION[,...]`` syntax.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Protocol

from repro.core.radio import RadioModel

if TYPE_CHECKING:  # pragma: no cover - break the models <-> channel cycle
    from repro.sim.channel import Channel


class ChannelModel(Protocol):
    """Anything that can veto one frame's reception on one link."""

    #: Registry key and the parameters the spec may set.
    name: str
    param_defaults: dict[str, float]
    #: True when the model never rejects a candidate receiver.  The channel
    #: keeps its pre-registry delivery loop for transparent models, which
    #: is what pins pure-disc runs to their historical bytes.
    transparent: bool

    def bind(self, channel: "Channel") -> None:
        """Attach to a channel before the first transmission."""
        ...  # pragma: no cover - protocol signature only

    def delivers(self, src: int, dst: int, distance: float, reach: float) -> bool:
        """Decide one reception.  ``dst`` is already within ``reach``."""
        ...  # pragma: no cover - protocol signature only


class DiscChannelModel:
    """The paper's binary disc: geometry is the whole story.

    Never draws from the RNG and never rejects a receiver, so the channel
    treats it as transparent and runs its historical delivery loop —
    disc-via-registry is byte-identical to pre-registry builds.
    """

    name = "disc"
    param_defaults: dict[str, float] = {}
    transparent = True

    def __init__(self) -> None:
        pass

    def bind(self, channel: "Channel") -> None:
        pass

    def delivers(self, src: int, dst: int, distance: float, reach: float) -> bool:
        return True

    def reception_probability(self, distance: float, reach: float) -> float:
        """1 inside the disc, 0 outside (the degenerate link model)."""
        return 1.0 if distance <= reach else 0.0


class ProbChannelModel:
    """Distance-dependent reception probability with log-normal shadowing.

    The success probability of one reception at distance ``d`` under a
    transmission reaching ``reach`` meters is::

        p(d) = clamp01(1 - loss * (d_eff / reach) ** gamma)

    where ``d_eff`` is ``d`` perturbed by a log-normal shadowing term:
    ``d_eff = d * 10 ** (X / (10 * exponent))`` with ``X ~ N(0, sigma)``
    dB — the standard conversion of shadowing into an equivalent distance
    under a ``1/d^exponent`` path-loss law.  ``loss`` is the mean loss rate
    at the very edge of the reach (``d == reach``); ``gamma`` shapes how
    quickly links degrade toward that edge.

    Every draw comes from a per-link ``channel/<rx>/<tx>`` stream of the
    simulation's seeded RNG: link outcomes are reproducible, independent
    across links, and — critically — invisible to the ``traffic/<flow>``
    and ``mobility/<node>`` streams, which is what keeps the rest of the
    run's randomness byte-identical when loss is enabled.  ``loss=0``
    short-circuits before any draw, so it degenerates to the disc exactly.
    """

    name = "prob"
    param_defaults = {"loss": 0.15, "gamma": 2.0, "sigma": 0.0, "exponent": 4.0}
    transparent = False

    def __init__(
        self,
        loss: float = 0.15,
        gamma: float = 2.0,
        sigma: float = 0.0,
        exponent: float = 4.0,
    ) -> None:
        if not 0.0 <= loss <= 1.0:
            raise ValueError("loss must be in [0, 1]")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if sigma < 0:
            raise ValueError("sigma must be non-negative dB")
        if not 1.0 <= exponent <= 6.0:
            raise ValueError("path-loss exponent must be in [1, 6]")
        self.loss = loss
        self.gamma = gamma
        self.sigma = sigma
        self.exponent = exponent
        self._channel: "Channel | None" = None
        self._rngs: dict[tuple[int, int], random.Random] = {}

    def bind(self, channel: "Channel") -> None:
        self._channel = channel
        self._rngs.clear()

    def _link_rng(self, dst: int, src: int) -> random.Random:
        """Create the ``channel/<dst>/<src>`` stream on the link's first
        draw."""
        assert self._channel is not None, "model used before bind()"
        rng = self._rngs[(dst, src)] = self._channel.sim.rng(
            "channel/%d/%d" % (dst, src)
        )
        return rng

    def delivers(self, src: int, dst: int, distance: float, reach: float) -> bool:
        """One Bernoulli reception draw from the link's own stream.

        Shadowing (when ``sigma > 0``) perturbs the effective distance
        before the success probability is evaluated; both draws come
        from ``channel/<dst>/<src>``, so flipping shadowing on changes
        nothing outside this link's stream.
        """
        if self.loss == 0.0:
            # Exact disc degeneration: no draw, no stream creation.
            return True
        rng = self._rngs.get((dst, src))
        if rng is None:
            rng = self._link_rng(dst, src)
        if self.sigma > 0.0:
            shadow_db = rng.gauss(0.0, self.sigma)
            distance = distance * 10.0 ** (shadow_db / (10.0 * self.exponent))
        p = 1.0 - self.loss * (distance / reach) ** self.gamma
        if p >= 1.0:
            return True
        if p <= 0.0:
            return False
        return rng.random() < p

    def reception_probability(self, distance: float, reach: float) -> float:
        """Mean (no-shadowing) success probability at ``distance``.

        Monotone non-increasing in ``distance`` — the property the
        hypothesis suite pins — and exactly what :meth:`delivers` samples
        when ``sigma == 0``.
        """
        if distance > reach:
            return 0.0
        p = 1.0 - self.loss * (distance / reach) ** self.gamma
        return min(1.0, max(0.0, p))


class RssiMarginChannelModel:
    """Deterministic link admission with a dB margin (the LoRaMesh idiom).

    Under the ``1/d^exponent`` path-loss law, a transmission reaching
    ``reach`` meters has a link budget of ``10 * exponent * log10(reach/d)``
    dB at distance ``d``.  A reception is admitted only when that budget
    clears ``margin`` dB — equivalently, when
    ``d <= reach * 10 ** (-margin / (10 * exponent))`` — so marginal
    edge-of-range links are rejected *consistently* instead of flapping.
    Draws nothing: the model is a pure reach contraction, which makes it
    the cheap way to study route quality under conservative link admission.
    ``margin=0`` admits the full disc.
    """

    name = "rssi-margin"
    param_defaults = {"margin": 3.0, "exponent": 4.0}
    transparent = False

    def __init__(self, margin: float = 3.0, exponent: float = 4.0) -> None:
        if margin < 0:
            raise ValueError("margin must be non-negative dB")
        if not 1.0 <= exponent <= 6.0:
            raise ValueError("path-loss exponent must be in [1, 6]")
        self.margin = margin
        self.exponent = exponent
        #: Admission shrinks the usable disc by this factor.
        self.reach_factor = 10.0 ** (-margin / (10.0 * exponent))

    def bind(self, channel: "Channel") -> None:
        pass

    def delivers(self, src: int, dst: int, distance: float, reach: float) -> bool:
        return distance <= reach * self.reach_factor

    def reception_probability(self, distance: float, reach: float) -> float:
        """A step: 1 while the margin holds, 0 beyond (monotone)."""
        return 1.0 if distance <= reach * self.reach_factor else 0.0


#: Registry of channel models by name; add a class with ``name``,
#: ``param_defaults``, ``transparent``, ``bind`` and ``delivers`` here to
#: plug in a new one (see the "Channel models" walkthrough in
#: ``docs/scenarios.md``).
CHANNEL_MODELS: dict[str, type] = {
    DiscChannelModel.name: DiscChannelModel,
    ProbChannelModel.name: ProbChannelModel,
    RssiMarginChannelModel.name: RssiMarginChannelModel,
}


@dataclass(frozen=True)
class TechProfile:
    """One radio technology class, as scales of the scenario's base card.

    ``range_scale`` must not exceed 1: the channel's frozen neighbor
    tables are built at the *base* card's range and must stay a superset
    of every node's true reach (a profile can only shrink a radio, never
    grow it past the table horizon).  ``rate_scale`` scales bandwidth
    (frame airtime), ``power_scale`` scales every power draw and the
    transmit amplifier coefficient.
    """

    name: str
    range_scale: float = 1.0
    rate_scale: float = 1.0
    power_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.range_scale <= 1.0:
            raise ValueError(
                "range_scale must be in (0, 1]: neighbor tables are built "
                "at the base card's range"
            )
        if self.rate_scale <= 0 or self.power_scale <= 0:
            raise ValueError("rate_scale and power_scale must be positive")

    def apply(self, card: RadioModel) -> RadioModel:
        """The base ``card`` re-equipped with this technology."""
        return replace(
            card,
            name="%s[%s]" % (card.name, self.name),
            max_range=card.max_range * self.range_scale,
            bandwidth=card.bandwidth * self.rate_scale,
            p_idle=card.p_idle * self.power_scale,
            p_rx=card.p_rx * self.power_scale,
            p_base=card.p_base * self.power_scale,
            p_sleep=card.p_sleep * self.power_scale,
            alpha2=card.alpha2 * self.power_scale,
        )


#: Built-in radio technology classes (fractions of nodes are chosen per
#: scenario via ``ChannelSpec.tech`` / ``--radio-tech``).
TECH_PROFILES: dict[str, TechProfile] = {
    # A previous-generation radio: shorter legs, thriftier amplifier.
    "short": TechProfile("short", range_scale=0.6, power_scale=0.75),
    # Full range at half the symbol rate (longer airtime per frame).
    "lowrate": TechProfile("lowrate", rate_scale=0.5, power_scale=0.8),
    # A sensor-class mote: quarter rate, half range, deep power savings.
    "sensor": TechProfile(
        "sensor", range_scale=0.5, rate_scale=0.25, power_scale=0.3
    ),
}


@dataclass(frozen=True)
class ChannelSpec:
    """Frozen, hashable description of one channel configuration.

    ``params`` is a canonically-sorted tuple of ``(name, value)`` pairs
    (mirroring :class:`~repro.traffic.models.TrafficSpec`); ``tech`` is a
    canonically-sorted tuple of ``(profile, fraction)`` pairs assigning
    that fraction of nodes to a :data:`TECH_PROFILES` entry (leftover
    fraction keeps the base card).  Unknown models, unknown parameters,
    duplicates and out-of-range values are all rejected at construction,
    which is where a CLI typo surfaces instead of deep inside a sweep.
    """

    model: str = "disc"
    params: tuple[tuple[str, float], ...] = ()
    tech: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.model not in CHANNEL_MODELS:
            raise ValueError(
                "unknown channel model %r; available: %s"
                % (self.model, ", ".join(sorted(CHANNEL_MODELS)))
            )
        allowed = CHANNEL_MODELS[self.model].param_defaults
        canonical = []
        for name, value in self.params:
            if name not in allowed:
                raise ValueError(
                    "channel model %r takes no parameter %r (knows: %s)"
                    % (self.model, name, ", ".join(sorted(allowed)) or "none")
                )
            canonical.append((name, float(value)))
        names = [name for name, _ in canonical]
        if len(names) != len(set(names)):
            raise ValueError(
                "duplicate channel parameter in %r" % (self.params,)
            )
        object.__setattr__(self, "params", tuple(sorted(canonical)))
        assignments = []
        for profile, fraction in self.tech:
            if profile not in TECH_PROFILES:
                raise ValueError(
                    "unknown tech profile %r; available: %s"
                    % (profile, ", ".join(sorted(TECH_PROFILES)))
                )
            fraction = float(fraction)
            if not 0.0 < fraction <= 1.0:
                raise ValueError(
                    "tech fraction for %r must be in (0, 1]" % profile
                )
            assignments.append((profile, fraction))
        profile_names = [profile for profile, _ in assignments]
        if len(profile_names) != len(set(profile_names)):
            raise ValueError("duplicate tech profile in %r" % (self.tech,))
        if sum(fraction for _, fraction in assignments) > 1.0 + 1e-9:
            raise ValueError("tech fractions must sum to at most 1")
        object.__setattr__(self, "tech", tuple(sorted(assignments)))
        self.build()  # surface bad parameter *values* here, not mid-sweep

    @property
    def is_disc(self) -> bool:
        """True for the paper's perfect-link model (any tech mix aside)."""
        return self.model == DiscChannelModel.name and not self.params

    @property
    def is_default(self) -> bool:
        """True for the exact pre-registry configuration.

        Default-spec runs must keep their historical payload bytes and
        cache keys: no ``RunResult.channel`` block, no fingerprint entry.
        """
        return self.is_disc and not self.tech

    def build(self) -> ChannelModel:
        """Instantiate the model this spec describes (fresh per network)."""
        return CHANNEL_MODELS[self.model](**dict(self.params))

    def fingerprint(self) -> dict:
        """JSON-safe parameters for the result-store cell key."""
        payload = {
            "model": self.model,
            "params": [list(p) for p in self.params],
        }
        if self.tech:
            payload["tech"] = [list(t) for t in self.tech]
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ChannelSpec":
        """Rebuild from :meth:`fingerprint` / serialized-payload shape."""
        return cls(
            model=payload["model"],
            params=tuple((name, value) for name, value in payload["params"]),
            tech=tuple(
                (profile, fraction)
                for profile, fraction in payload.get("tech", [])
            ),
        )


def parse_channel_spec(text: str) -> ChannelSpec:
    """Parse the CLI syntax ``MODEL[:PARAM=V,...]`` into a spec.

    Examples: ``prob``, ``prob:loss=0.3,sigma=4``, ``rssi-margin:margin=6``.
    Raises :class:`ValueError` (with the offending token) on bad input.
    """
    model, _, rest = text.partition(":")
    params = []
    if rest:
        for token in rest.split(","):
            name, sep, value = token.partition("=")
            if not sep or not name:
                raise ValueError(
                    "bad channel parameter %r (expected PARAM=VALUE)" % token
                )
            try:
                params.append((name, float(value)))
            except ValueError:
                raise ValueError(
                    "bad channel parameter value %r in %r" % (value, token)
                ) from None
    return ChannelSpec(model=model.strip(), params=tuple(params))


def parse_tech_assignments(text: str) -> tuple[tuple[str, float], ...]:
    """Parse the CLI syntax ``NAME=FRACTION[,NAME=FRACTION,...]``.

    Example: ``short=0.3,sensor=0.2`` equips 30% of nodes with the
    ``short`` profile and 20% with ``sensor``; the rest keep the base
    card.  Raises :class:`ValueError` on bad tokens (unknown names and
    out-of-range fractions are rejected by :class:`ChannelSpec`).
    """
    assignments = []
    for token in text.split(","):
        name, sep, fraction = token.partition("=")
        if not sep or not name:
            raise ValueError(
                "bad tech assignment %r (expected NAME=FRACTION)" % token
            )
        try:
            assignments.append((name.strip(), float(fraction)))
        except ValueError:
            raise ValueError(
                "bad tech fraction %r in %r" % (fraction, token)
            ) from None
    return tuple(assignments)


def resolve_cards(
    spec: ChannelSpec, card: RadioModel, node_ids
) -> dict[int, RadioModel] | None:
    """Per-node radio cards under ``spec.tech``, or None when homogeneous.

    Each node draws once from its own seed-*independent* stream
    (``random.Random("radio-tech/<id>")``) and lands in a profile bucket
    by cumulative fraction.  Seed independence matters twice over: the
    assignment is part of the *scenario* (it enters the fingerprint via
    the spec, not the draw), and batched seed groups share one placement
    and channel geometry — which stay valid because the mix is identical
    for every seed.  The None return is the homogeneous fast path callers
    use to keep the historical per-node wiring untouched.
    """
    if not spec.tech:
        return None
    buckets = [
        (fraction, TECH_PROFILES[profile].apply(card))
        for profile, fraction in spec.tech
    ]
    cards: dict[int, RadioModel] = {}
    for node_id in node_ids:
        draw = random.Random("radio-tech/%d" % node_id).random()
        cumulative = 0.0
        chosen = card
        for fraction, profiled in buckets:
            cumulative += fraction
            if draw < cumulative:
                chosen = profiled
                break
        cards[node_id] = chosen
    return cards
