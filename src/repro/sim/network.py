"""Whole-network simulation assembly.

:class:`WirelessNetwork` turns a :class:`NetworkConfig` — placement, radio
card, a protocol *preset*, a flow list and a duration — into a running
simulation and a :class:`~repro.metrics.collectors.RunResult`.

Protocol presets bundle a routing protocol with its power-management setup
under the labels the paper's figures use (DSR-Active, DSR-ODPM, DSR-ODPM-PC,
TITAN-PC, DSRH-ODPM(rate)/(norate), DSDVH-ODPM, DSDVH-ODPM(0.6,1.2)-Span,
MTPR-ODPM, MTPR+-ODPM, ...).  See :data:`PROTOCOLS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.energy_model import NetworkEnergy
from repro.core.radio import RadioModel
from repro.metrics.collectors import RunResult
from repro.net.topology import Placement
from repro.power import AlwaysActive, Odpm, OdpmConfig, PowerManager
from repro.routing import (
    Dsdv,
    Dsdvh,
    Dsr,
    DsrhNoRate,
    DsrhRate,
    Mtpr,
    MtprPlus,
    ReactiveProtocol,
    RoutingProtocol,
    Titan,
)
from repro.routing.proactive import ProactiveProtocol
from repro.sim.channel import Channel, ChannelGeometry
from repro.sim.channel_models import ChannelSpec, resolve_cards
from repro.sim.engine import Simulator
from repro.sim.mobility import (
    ChurnSchedule,
    ChurnSpec,
    MobilitySpec,
    RandomWaypointMobility,
)
from repro.sim.node import Node
from repro.sim.psm import NoPsm, PsmScheduler
from repro.metrics.stats import StreamingLatencies
from repro.traffic.cbr import CbrSink, FlowStats, TrafficSource
from repro.traffic.flows import FlowSpec
from repro.traffic.models import TrafficSpec

#: At and above this node count non-CBR runs aggregate latencies through
#: a streaming estimator instead of per-delivery lists, keeping metric
#: memory O(N) rather than O(packets).  A size gate, not a config field:
#: scenario fingerprints and cache keys are unaffected, and every scale
#: the pinned digests cover sits far below it.
_STREAM_METRICS_MIN_NODES = 1000


@dataclass(frozen=True)
class ProtocolPreset:
    """A named protocol + power-management bundle."""

    label: str
    routing: Callable[[Node], RoutingProtocol]
    power_save: bool  # PSM-capable power manager vs always active
    power_control: bool  # distance-tuned transmit power for data
    odpm_config: OdpmConfig | None = None
    advertised_window: bool = False  # Span-style PSM improvement
    #: Override the power manager entirely (e.g. Span coordinators);
    #: when set, ``power_save`` only controls whether PSM scheduling runs.
    power_manager: Callable[[Simulator, int], PowerManager] | None = None

    def power_factory(self) -> Callable[[Simulator, int], PowerManager]:
        """Build this preset's per-node power-manager constructor."""
        if self.power_manager is not None:
            return self.power_manager
        if not self.power_save:
            return AlwaysActive
        config = self.odpm_config or OdpmConfig.paper_default()
        return lambda sim, node_id: Odpm(sim, node_id, config)


def _span_manager(sim: Simulator, node_id: int) -> PowerManager:
    from repro.power.span import SpanCoordinator

    return SpanCoordinator(sim, node_id)


#: The paper's protocol line-up, §5.2 (plus the Span coordinator variant).
PROTOCOLS: dict[str, ProtocolPreset] = {
    "DSR-Active": ProtocolPreset(
        label="DSR-Active", routing=Dsr, power_save=False, power_control=False
    ),
    "DSR-ODPM": ProtocolPreset(
        label="DSR-ODPM", routing=Dsr, power_save=True, power_control=False
    ),
    "DSR-ODPM-PC": ProtocolPreset(
        label="DSR-ODPM-PC", routing=Dsr, power_save=True, power_control=True
    ),
    "TITAN-PC": ProtocolPreset(
        label="TITAN-PC", routing=Titan, power_save=True, power_control=True
    ),
    "DSRH-ODPM(rate)": ProtocolPreset(
        label="DSRH-ODPM(rate)",
        routing=DsrhRate,
        power_save=True,
        power_control=True,
    ),
    "DSRH-ODPM(norate)": ProtocolPreset(
        label="DSRH-ODPM(norate)",
        routing=DsrhNoRate,
        power_save=True,
        power_control=True,
    ),
    "DSDVH-ODPM": ProtocolPreset(
        label="DSDVH-ODPM", routing=Dsdvh, power_save=True, power_control=True
    ),
    "DSDVH-ODPM(0.6,1.2)-Span": ProtocolPreset(
        label="DSDVH-ODPM(0.6,1.2)-Span",
        routing=Dsdvh,
        power_save=True,
        power_control=True,
        odpm_config=OdpmConfig.span_improved(),
        advertised_window=True,
    ),
    "MTPR-ODPM": ProtocolPreset(
        label="MTPR-ODPM", routing=Mtpr, power_save=True, power_control=True
    ),
    "MTPR+-ODPM": ProtocolPreset(
        label="MTPR+-ODPM", routing=MtprPlus, power_save=True, power_control=True
    ),
    "DSDV-ODPM": ProtocolPreset(
        label="DSDV-ODPM", routing=Dsdv, power_save=True, power_control=False
    ),
    "DSR-Span": ProtocolPreset(
        label="DSR-Span",
        routing=Dsr,
        power_save=True,
        power_control=False,
        power_manager=_span_manager,
    ),
}


@dataclass
class NetworkConfig:
    """Everything one simulation run needs."""

    placement: Placement
    card: RadioModel
    protocol: str
    flows: list[FlowSpec]
    duration: float
    seed: int = 1
    rts_enabled: bool = True
    beacon_interval: float = 0.3
    atim_window: float = 0.02
    #: Physical-layer capture threshold (power ratio); None = collisions only.
    capture_ratio: float | None = None
    #: Random-waypoint mobility; None keeps the topology static (the §5.2
    #: setup) and the run byte-identical to pre-mobility builds.
    mobility: MobilitySpec | None = None
    #: Scripted node failures; None injects nothing.
    churn: ChurnSpec | None = None
    #: Run-level default traffic model, applied to every flow whose spec
    #: does not choose its own; the CBR default keeps the run on the
    #: byte-identical pre-subsystem path.
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    #: Channel model + radio tech mix; the disc default keeps the run on
    #: the byte-identical pre-registry path (no ``RunResult.channel``
    #: block, no fingerprint entry).
    channel: ChannelSpec = field(default_factory=ChannelSpec)

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                "unknown protocol %r; available: %s"
                % (self.protocol, ", ".join(sorted(PROTOCOLS)))
            )
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        node_ids = set(self.placement.positions)
        for flow in self.flows:
            if flow.source not in node_ids or flow.destination not in node_ids:
                raise ValueError("flow %r references unknown nodes" % (flow,))
        # Resolve the run-level default onto undecided flows once, so the
        # specs inside RunResult payloads are self-describing.
        if not self.traffic.is_cbr:
            self.flows = [
                replace(flow, traffic=self.traffic)
                if flow.traffic is None
                else flow
                for flow in self.flows
            ]


class WirelessNetwork:
    """A fully-wired simulation ready to run.

    ``geometry`` optionally injects a prebuilt
    :class:`~repro.sim.channel.ChannelGeometry` so the channel's freeze
    skips its O(N^2) pair scan — the shared setup of
    :func:`repro.experiments.runner.shared_setup` for scenarios whose
    placement does not depend on the seed.  Results are bit-identical with
    or without it.
    """

    def __init__(
        self,
        config: NetworkConfig,
        geometry: "ChannelGeometry | None" = None,
    ) -> None:
        self.config = config
        preset = PROTOCOLS[config.protocol]
        self.preset = preset

        self.sim = Simulator(seed=config.seed)
        self.energy = NetworkEnergy()
        # Every run builds its model through the registry — disc included —
        # so the default path is exercised, not special-cased away; the
        # channel structurally bypasses transparent models, which is what
        # keeps pure-disc runs on the historical byte-identical loop.  The
        # channel itself always works at the *base* card's range: tech
        # profiles only shrink radios, so the base-range tables remain a
        # valid candidate superset (and batched seed groups can keep
        # sharing one geometry).
        self.channel = Channel(
            self.sim,
            config.placement.positions,
            config.card.max_range,
            geometry=geometry,
            model=config.channel.build(),
        )
        if preset.power_save:
            self.psm: PsmScheduler | NoPsm = PsmScheduler(
                self.sim,
                beacon_interval=config.beacon_interval,
                atim_window=config.atim_window,
                advertised_window=preset.advertised_window,
            )
        else:
            self.psm = NoPsm(self.sim)

        power_factory = preset.power_factory()
        # Radio heterogeneity: seed-independent per-node card resolution
        # (None — every node on the base card — is the common fast path).
        node_cards = resolve_cards(
            config.channel, config.card, config.placement.node_ids
        )
        self._tech_nodes = (
            sum(1 for card in node_cards.values() if card is not config.card)
            if node_cards is not None
            else 0
        )
        self.nodes: dict[int, Node] = {}
        for node_id in config.placement.node_ids:
            card = (
                node_cards[node_id] if node_cards is not None else config.card
            )
            ledger = self.energy.add_node(node_id, card)
            node = Node(
                sim=self.sim,
                channel=self.channel,
                node_id=node_id,
                card=card,
                energy=ledger,
                power_manager_factory=power_factory,
                psm=self.psm,
                power_control=preset.power_control,
                rts_enabled=config.rts_enabled,
                capture_ratio=config.capture_ratio,
                peers=self.nodes,
            )
            node.attach_routing(preset.routing(node))
            self.nodes[node_id] = node

        # All PHYs are registered: front-load the geometry pass (skipped
        # for a valid shared geometry) so the first transmission does not
        # pay for it mid-run.  It fixes the neighbor sets each node's mode
        # lookup reads; tables and lookups are built on first use.
        self.channel.freeze()

        # Traffic: one model-driven source per flow (CBR flows carry no
        # spec and take the byte-identical legacy schedule).  Per-delivery
        # latency lists exist only for the runs whose traffic summary will
        # read them — pure-CBR sinks skip the O(deliveries) recording.
        self._non_cbr_workload = any(
            spec.traffic is not None and not spec.traffic.is_cbr
            for spec in config.flows
        )
        # Large non-CBR runs swap the per-delivery latency lists for a
        # shared streaming estimator (O(1) state per network + per flow),
        # so metric memory scales with nodes, not with packets delivered.
        self._latency_stream: StreamingLatencies | None = None
        if (
            self._non_cbr_workload
            and len(config.placement.node_ids) >= _STREAM_METRICS_MIN_NODES
        ):
            self._latency_stream = StreamingLatencies()
        self.flow_stats: list[FlowStats] = []
        sinks: dict[int, CbrSink] = {}
        for spec in config.flows:
            stats = FlowStats(spec=spec)
            self.flow_stats.append(stats)
            sink_node = self.nodes[spec.destination]
            if spec.destination not in sinks:
                sinks[spec.destination] = CbrSink(
                    self.sim,
                    sink_node,
                    record_latencies=(
                        self._non_cbr_workload
                        and self._latency_stream is None
                    ),
                    stream=self._latency_stream,
                )
            sinks[spec.destination].watch(stats)
            TrafficSource(
                self.sim,
                self.nodes[spec.source],
                spec,
                stats,
                model=spec.traffic.build() if spec.traffic is not None else None,
            )

        # Dynamic topology (mobility / churn), started alongside the nodes.
        self.mobility: RandomWaypointMobility | None = None
        if config.mobility is not None:
            self.mobility = RandomWaypointMobility(
                self.sim,
                self.channel,
                config.mobility,
                width=config.placement.width,
                height=config.placement.height,
                node_ids=config.placement.node_ids,
            )
        self.churn: ChurnSchedule | None = None
        self._churn_snapshot: tuple[int, int] | None = None
        if config.churn is not None:
            endpoints = frozenset(
                node
                for spec in config.flows
                for node in (spec.source, spec.destination)
            )
            self.churn = ChurnSchedule(
                self.sim, self.nodes, config.churn, protected=endpoints
            )
            self.churn.on_first_failure = self._snapshot_pre_churn

        self._started = False

    def _snapshot_pre_churn(self) -> None:
        """Record flow counters just before the first failure fires."""
        self._churn_snapshot = (
            sum(stats.sent for stats in self.flow_stats),
            sum(stats.received for stats in self.flow_stats),
        )

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Run to the configured duration and collect the result."""
        if not self._started:
            self._started = True
            self.psm.start()
            for node in self.nodes.values():
                node.start()
            if self.mobility is not None:
                self.mobility.start()
            if self.churn is not None:
                self.churn.start()
        self.sim.run(until=self.config.duration)
        for node in self.nodes.values():
            node.phy.finalize()
        return RunResult.from_components(
            protocol=self.config.protocol,
            seed=self.config.seed,
            duration=self.config.duration,
            flows=self.flow_stats,
            energy=self.energy,
            control_packets=self.control_packet_count(),
            relays_used=self.relays_used(),
            events_processed=self.sim.events_processed,
            dynamics=self._dynamics_summary(),
            traffic=self._traffic_summary(),
            channel=self._channel_summary(),
            warnings=self._warnings_summary(),
        )

    def close(self) -> None:
        """Tear the finished network down so reference counting frees it.

        The wired stack is full of reference cycles (radio, MAC, node and
        routing point at each other, armed timers at their owners, the
        channel at its PHYs, the PSM scheduler at its members), and only a
        full run of the cyclic collector would free them.  Each layer drops
        its own half of every cycle here: the pending events and their
        callbacks, the channel's PHY registry, tables and model binding,
        the PSM member table, and each node's upcalls and back-pointers.
        Counters, ledgers and flow statistics stay readable.  Shared
        objects (the placement, a prebuilt geometry, the protocol presets)
        are left untouched.  A closed network cannot run again.
        """
        self.sim.close()
        self.channel.close()
        self.psm.close()
        for node in self.nodes.values():
            node.close()
        if self.churn is not None:
            self.churn.on_first_failure = None

    def _channel_summary(self) -> dict[str, float] | None:
        """Link-layer measurements, or None for the default disc channel.

        Keys: ``model_checks`` / ``model_drops`` (receptions examined /
        vetoed by the channel model) and the derived ``loss_rate``, plus
        ``tech_nodes`` when a tech mix re-equipped any radios.  Default
        (pure-disc, homogeneous) runs return None so their payloads stay
        byte-identical to pre-registry builds.
        """
        if self.config.channel.is_default:
            return None
        checks = self.channel.model_checks
        summary = {
            "model_checks": float(checks),
            "model_drops": float(self.channel.model_drops),
            "loss_rate": (
                self.channel.model_drops / checks if checks else 0.0
            ),
        }
        if self._tech_nodes:
            summary["tech_nodes"] = float(self._tech_nodes)
        return summary

    def _dynamics_summary(self) -> dict[str, float] | None:
        """Dynamic-topology measurements, or None for a static run.

        Keys: ``link_changes`` / ``position_updates`` (mobility),
        ``nodes_failed`` and the delivery-under-churn split — packets sent /
        delivered after the first failure and the resulting
        ``post_churn_delivery`` ratio (churn).  Static runs return None so
        their payloads stay byte-identical to pre-mobility builds.
        """
        if self.mobility is None and self.churn is None:
            return None
        dynamics: dict[str, float] = {
            "link_changes": float(self.channel.link_changes),
            "position_updates": float(self.channel.position_updates),
        }
        if self.churn is not None:
            dynamics["nodes_failed"] = float(len(self.churn.executed))
            if self._churn_snapshot is not None:
                pre_sent, pre_received = self._churn_snapshot
                sent = sum(s.sent for s in self.flow_stats) - pre_sent
                received = (
                    sum(s.received for s in self.flow_stats) - pre_received
                )
                dynamics["post_churn_sent"] = float(sent)
                dynamics["post_churn_received"] = float(received)
                dynamics["post_churn_delivery"] = (
                    min(1.0, received / sent) if sent > 0 else 0.0
                )
        return dynamics

    def _traffic_summary(self) -> dict[str, float] | None:
        """Workload measurements, or None for a pure-CBR run.

        Keys: offered/delivered payload volume (``offered_bytes`` /
        ``received_bytes``), network-wide delivery-latency percentiles
        (``latency_p50`` / ``latency_p95`` / ``latency_p99``, seconds, over
        every delivery of every flow) and the mean per-flow ``jitter``
        (RFC 3550-style).  Pure-CBR runs return None so their payloads stay
        byte-identical to pre-subsystem builds; the mean-latency headline
        remains available on every run via the flow counters.
        """
        from repro.metrics.stats import percentile

        if not self._non_cbr_workload:
            return None
        stream = self._latency_stream
        if stream is not None:
            # Large-run path: percentiles from the streaming histogram
            # (bin-resolution estimates), jitter from the per-flow
            # streaming accumulators.  Byte counters are exact either way.
            p50 = stream.percentile(0.50)
            p95 = stream.percentile(0.95)
            p99 = stream.percentile(0.99)
            jitters = [s.jitter for s in self.flow_stats if s.received >= 2]
        else:
            latencies = sorted(
                latency
                for stats in self.flow_stats
                for latency in stats.latencies
            )
            p50 = percentile(latencies, 0.50)
            p95 = percentile(latencies, 0.95)
            p99 = percentile(latencies, 0.99)
            jitters = [
                s.jitter for s in self.flow_stats if len(s.latencies) >= 2
            ]
        return {
            "offered_bytes": float(
                sum(s.sent_bytes for s in self.flow_stats)
            ),
            "received_bytes": float(
                sum(s.received_bytes for s in self.flow_stats)
            ),
            "latency_p50": p50,
            "latency_p95": p95,
            "latency_p99": p99,
            "jitter": sum(jitters) / len(jitters) if jitters else 0.0,
        }

    def _warnings_summary(self) -> dict[str, float] | None:
        """Run anomalies, or None (the byte-identical common case).

        Currently one key: ``stale_geometry`` — the number of prebuilt
        geometries :meth:`Channel.freeze` rejected because they no longer
        described the channel.  Such runs are *correct* (the pair scan
        reran from live positions) but wasted the shared-geometry pass
        they were promised, which used to be silent.
        """
        if self.channel.geometry_mismatches:
            return {
                "stale_geometry": float(self.channel.geometry_mismatches)
            }
        return None

    # ------------------------------------------------------------------
    # Derived measures
    # ------------------------------------------------------------------
    def control_packet_count(self) -> int:
        """Total routing control transmissions originated network-wide."""
        total = 0
        for node in self.nodes.values():
            routing = node.routing
            assert routing is not None
            s = routing.stats
            total += (
                s.rreq_sent
                + s.rreq_forwarded
                + s.rrep_sent
                + s.rrep_forwarded
                + s.rerr_sent
                + s.updates_sent
            )
        return total

    def relays_used(self) -> int:
        """Nodes that forwarded at least one data packet."""
        count = 0
        for node in self.nodes.values():
            assert node.routing is not None
            if node.routing.stats.data_forwarded > 0:
                count += 1
        return count

    def extract_routes(self) -> dict[int, tuple[int, ...]]:
        """Current route per flow (for the frozen-route studies, §5.2.3).

        Reactive protocols read the source's route cache; proactive
        protocols walk next-hop tables.  Flows without a usable route are
        omitted.
        """
        routes: dict[int, tuple[int, ...]] = {}
        for stats in self.flow_stats:
            spec = stats.spec
            routing = self.nodes[spec.source].routing
            assert routing is not None
            path: tuple[int, ...] | None = None
            if isinstance(routing, ReactiveProtocol):
                cached = routing.cache.get(spec.destination)
                if cached is not None:
                    path = cached.path
            elif isinstance(routing, ProactiveProtocol):
                path = self._walk_tables(spec.source, spec.destination)
            if path is not None:
                routes[spec.flow_id] = path
        return routes

    def _walk_tables(self, source: int, destination: int) -> tuple[int, ...] | None:
        path = [source]
        current = source
        for _ in range(len(self.nodes)):
            routing = self.nodes[current].routing
            assert isinstance(routing, ProactiveProtocol)
            hop = routing.route_to(destination)
            if hop is None:
                return None
            current = hop[0]
            if current in path:
                return None  # transient loop; no stable route yet
            path.append(current)
            if current == destination:
                return tuple(path)
        return None
