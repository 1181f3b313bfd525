"""Tests for the dynamic-topology subsystem (mobility, churn, channel).

Covers the contracts the subsystem promises:

* the channel's incremental position updates produce exactly the tables a
  full re-freeze would (and count link changes);
* random-waypoint trajectories and churn schedules are pure functions of
  the master seed;
* mobile/churn cells honor the determinism contract
  (serial == parallel == cached, pinned by digest);
* static scenarios remain byte-identical to pre-mobility builds (digests
  below were recorded on the commit *before* the mobility subsystem
  landed, then re-asserted after).
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.energy_model import NodeEnergy
from repro.core.radio import CABLETRON, RadioState
from repro.experiments.parallel import grid_cells, run_grid
from repro.experiments.runner import run_single
from repro.experiments.scenarios import (
    Scenario,
    churn_grid,
    grid_network,
    mobile_small,
)
from repro.experiments.store import (
    CACHE_FORMAT_VERSION,
    ResultStore,
    cell_key,
)
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.mobility import ChurnSpec, MobilitySpec
from repro.sim.network import WirelessNetwork
from repro.sim.phy import Phy


def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _build_channel(positions: dict[int, tuple[float, float]]) -> Channel:
    sim = Simulator(seed=1)
    channel = Channel(sim, positions, CABLETRON.max_range)
    for node_id in positions:
        Phy(sim, channel, node_id, CABLETRON, NodeEnergy(card=CABLETRON))
    channel.freeze()
    return channel


class TestIncrementalChannel:
    def test_update_matches_full_refreeze(self):
        """Patched tables must equal tables frozen fresh at the new layout."""
        rng = random.Random(7)
        count = 20
        positions = {
            i: (rng.uniform(0, 300), rng.uniform(0, 300)) for i in range(count)
        }
        channel = _build_channel(positions)
        live = dict(positions)
        for _ in range(150):
            mover = rng.randrange(count)
            target = (rng.uniform(0, 300), rng.uniform(0, 300))
            live[mover] = target
            channel.update_position(mover, target)
        reference = _build_channel(live)
        for node_id in range(count):
            patched = channel._tables[node_id]
            fresh = reference._tables[node_id]
            assert patched.dists == fresh.dists
            assert patched.ids == fresh.ids
            assert patched.ranks == fresh.ranks
            assert [
                (rank, phy.node_id) for rank, phy in patched.by_dist
            ] == [(rank, phy.node_id) for rank, phy in fresh.by_dist]
            assert [phy.node_id for phy in patched.full] == [
                phy.node_id for phy in fresh.full
            ]

    def test_distance_cache_invalidated(self):
        channel = _build_channel({0: (0.0, 0.0), 1: (100.0, 0.0)})
        assert channel.distance(0, 1) == pytest.approx(100.0)
        channel.update_position(1, (0.0, 40.0))
        assert channel.distance(0, 1) == pytest.approx(40.0)

    def test_link_changes_counted_once_per_link(self):
        """Moving out of range breaks one undirected link, counted once."""
        channel = _build_channel({0: (0.0, 0.0), 1: (100.0, 0.0)})
        far = channel.max_range * 10
        channel.update_position(1, (far, far))
        assert channel.link_changes == 1
        assert channel.neighbors(0) == []
        channel.update_position(1, (50.0, 0.0))
        assert channel.link_changes == 2
        assert channel.neighbors(0) == [1]
        # Moving within range is not a link change.
        channel.update_position(1, (60.0, 0.0))
        assert channel.link_changes == 2

    def test_update_before_freeze_defers_to_freeze(self):
        sim = Simulator(seed=1)
        channel = Channel(
            sim, {0: (0.0, 0.0), 1: (100.0, 0.0)}, CABLETRON.max_range
        )
        Phy(sim, channel, 0, CABLETRON, NodeEnergy(card=CABLETRON))
        Phy(sim, channel, 1, CABLETRON, NodeEnergy(card=CABLETRON))
        channel.update_position(1, (50.0, 0.0))  # not frozen yet
        assert channel.neighbors(0) == [1]  # first use freezes at new layout
        assert channel._tables[0].dists == [50.0]

    def test_unknown_node_rejected(self):
        channel = _build_channel({0: (0.0, 0.0)})
        with pytest.raises(ValueError):
            channel.update_position(99, (1.0, 1.0))


class TestRandomWaypoint:
    @pytest.fixture
    def tiny_mobile(self) -> Scenario:
        """9 mobile nodes, seconds to simulate."""
        return Scenario(
            name="tiny-mobile-test",
            node_count=9,
            field_size=150.0,
            flow_count=3,
            rates_kbps=(2.0,),
            duration=15.0,
            runs=1,
            protocols=("DSR-ODPM",),
            mobility=MobilitySpec(v_min=2.0, v_max=8.0, pause=2.0, step=0.5),
        )

    def test_nodes_move_and_stay_in_field(self, tiny_mobile):
        config = tiny_mobile.config("DSR-ODPM", 2.0, seed=1)
        network = WirelessNetwork(config)
        before = dict(network.channel.positions)
        network.run()
        after = network.channel.positions
        assert after != before  # somebody moved
        for x, y in after.values():
            assert 0.0 <= x <= tiny_mobile.field_size
            assert 0.0 <= y <= tiny_mobile.field_size
        assert network.mobility is not None
        assert network.mobility.moves == network.channel.position_updates > 0

    def test_trajectories_are_seed_deterministic(self, tiny_mobile):
        def final_positions(seed: int) -> dict:
            network = WirelessNetwork(tiny_mobile.config("DSR-ODPM", 2.0, seed))
            network.run()
            return dict(network.channel.positions)

        assert final_positions(1) == final_positions(1)
        assert final_positions(1) != final_positions(2)

    def test_dynamics_recorded(self, tiny_mobile):
        result = run_single(tiny_mobile, "DSR-ODPM", 2.0, seed=1)
        assert result.dynamics is not None
        assert result.dynamics["position_updates"] > 0
        assert "dynamics" in result.to_payload()

    def test_mobility_spec_validation(self):
        with pytest.raises(ValueError):
            MobilitySpec(v_min=0.0, v_max=5.0)
        with pytest.raises(ValueError):
            MobilitySpec(v_min=5.0, v_max=1.0)
        with pytest.raises(ValueError):
            MobilitySpec(step=0.0)


class TestChurn:
    @pytest.fixture
    def tiny_churn(self) -> Scenario:
        """3x3 grid; one relay dies mid-run."""
        scenario = Scenario(
            name="tiny-churn-test",
            node_count=9,
            field_size=120.0,
            flow_count=3,
            rates_kbps=(2.0,),
            duration=30.0,
            runs=1,
            grid=True,
            protocols=("DSR-ODPM",),
        )
        return scenario.with_churn(failures=2, window=(10.0, 15.0))

    def test_failures_execute_and_spare_endpoints(self, tiny_churn):
        network = WirelessNetwork(tiny_churn.config("DSR-ODPM", 2.0, seed=1))
        network.run()
        assert network.churn is not None
        executed = network.churn.executed
        assert len(executed) == 2
        endpoints = {
            node
            for spec in network.config.flows
            for node in (spec.source, spec.destination)
        }
        for time, node_id in executed:
            assert 10.0 <= time <= 15.0
            assert node_id not in endpoints
            assert network.nodes[node_id].failed

    def test_schedule_is_seed_deterministic(self, tiny_churn):
        def plan(seed: int):
            network = WirelessNetwork(tiny_churn.config("DSR-ODPM", 2.0, seed))
            return network.churn.plan()

        assert plan(1) == plan(1)
        assert plan(1) != plan(2)

    def test_failed_node_energy_stops(self, tiny_churn):
        network = WirelessNetwork(tiny_churn.config("DSR-ODPM", 2.0, seed=1))
        result = network.run()
        (first_time, first_victim) = network.churn.executed[0]
        ledger = network.nodes[first_victim].phy.energy
        occupancy = sum(ledger.state_time.values())
        # Accrual stopped at the failure instant, not the 30 s horizon.
        assert occupancy == pytest.approx(first_time, abs=1.0)
        assert result.dynamics["nodes_failed"] == 2.0

    def test_delivery_under_churn_recorded(self, tiny_churn):
        result = run_single(tiny_churn, "DSR-ODPM", 2.0, seed=1)
        dynamics = result.dynamics
        assert dynamics is not None
        assert dynamics["nodes_failed"] == 2.0
        assert "post_churn_delivery" in dynamics
        assert 0.0 <= dynamics["post_churn_delivery"] <= 1.0

    def test_churn_spec_validation(self):
        with pytest.raises(ValueError):
            ChurnSpec(failures=0)
        with pytest.raises(ValueError):
            ChurnSpec(failures=1, window=(5.0, 2.0))

    def test_dead_node_never_announces(self):
        """A crashed PSM member with stranded MAC traffic stays silent.

        Regression: frames stuck in a dead node's MAC queue used to keep
        generating ATIM announcements every beacon — charging the halted
        battery and waking the destination peer for the rest of the run.
        """
        from repro.net.topology import Placement
        from repro.traffic.flows import FlowSpec
        from tests.conftest import build_network

        placement = Placement(
            {0: (0.0, 0.0), 1: (150.0, 0.0), 2: (300.0, 0.0)},
            width=300.0,
            height=1.0,
        )
        flows = [
            FlowSpec(flow_id=0, source=0, destination=2, rate_bps=4000.0,
                     start=1.0)
        ]
        network = build_network(placement, "DSR-ODPM", flows, duration=20.0)
        network.sim.run(until=5.0)
        relay = network.nodes[1]
        # Strand a frame in the relay's MAC, then crash it.
        from repro.sim.packet import make_data_packet

        relay.mac.send(
            make_data_packet(origin=1, final_dst=2, src=1, dst=2)
        )
        relay.fail(stop_energy=True)
        ledger = relay.phy.energy
        control_tx_at_death = ledger.control_tx
        network.run()
        # The frame really is stranded: queued or in transaction.
        assert relay.mac._queue or relay.mac._current is not None
        assert ledger.control_tx == control_tx_at_death


class TestDynamicDeterminismContract:
    """Mobile/churn cells are pinned exactly like the static fig8 cell.

    If a PR intentionally changes dynamic-topology behaviour, re-record
    these digests AND bump ``CACHE_FORMAT_VERSION``.
    """

    #: sha256 of the canonical-JSON payload of the mobile-small (smoke)
    #: cell at (DSR-ODPM, 4 Kbit/s, seed 1).
    MOBILE_CELL_DIGEST = (
        "4d7a549348f59eca66dbfb66e6bbbe3e82e8a9b21cfebdc929348c330c202b6d"
    )
    #: sha256 of the canonical-JSON payload of the churn-grid (smoke) cell
    #: at (DSR-ODPM, 2 Kbit/s, seed 1).
    CHURN_CELL_DIGEST = (
        "0c9f0f9c83232f3dd4f0ff1205668ebad8000eae93bceceb507b48eeb01e485c"
    )

    def test_mobile_cell_serial_parallel_cached_identical(self, tmp_path):
        scenario = mobile_small(scale="smoke")
        cells = grid_cells(scenario, ("DSR-ODPM",), (4.0,), seeds=(1,))
        (cell,) = cells
        serial = run_grid(scenario, cells, jobs=1)
        parallel = run_grid(scenario, cells, jobs=2)
        store = ResultStore(tmp_path)
        run_grid(scenario, cells, jobs=1, store=store)
        cached = run_grid(scenario, cells, jobs=1, store=store)
        assert store.hits == 1  # second pass simulated nothing
        digests = {
            _digest(results[cell].to_payload())
            for results in (serial, parallel, cached)
        }
        assert digests == {self.MOBILE_CELL_DIGEST}

    def test_churn_cell_digest_pinned(self):
        scenario = churn_grid(scale="smoke")
        result = run_single(scenario, "DSR-ODPM", 2.0, seed=1)
        assert _digest(result.to_payload()) == self.CHURN_CELL_DIGEST

    def test_cache_format_version_bumped_for_mobility(self):
        """PR contract: dynamic topology invalidates pre-mobility caches."""
        assert CACHE_FORMAT_VERSION >= 2

    def test_mobility_params_enter_cell_key(self):
        static = grid_network(scale="smoke")
        mobile = static.with_mobility(MobilitySpec())
        churny = static.with_churn(failures=2)
        keys = {
            cell_key(scenario, "DSR-ODPM", 2.0, 1)
            for scenario in (static, mobile, churny)
        }
        assert len(keys) == 3
        slower = static.with_mobility(MobilitySpec(v_max=2.0))
        assert cell_key(slower, "DSR-ODPM", 2.0, 1) != cell_key(
            mobile, "DSR-ODPM", 2.0, 1
        )


class TestStaticRegression:
    """Static scenarios must stay byte-identical to pre-mobility builds.

    Both digests below were recorded by running the *parent commit* (before
    the mobility subsystem existed) and verified unchanged afterwards; the
    fig8 pin in ``test_orchestration.py`` covers a third configuration.
    """

    GRID_CELL_DIGEST = (
        "3d42451ded61093a8b922b8ab4bd2543a9a6bae6628fbddb77158f95fddad063"
    )
    GRID_TITAN_DIGEST = (
        "739334c811f4da4c4fce9fa37b58e556f1e435727a9fa476d55d7fa34bdff52c"
    )

    def test_static_grid_cell_unchanged(self):
        scenario = grid_network(scale="smoke").scaled(duration=10.0, runs=1)
        result = run_single(scenario, "DSR-ODPM", 2.0, seed=1)
        assert result.dynamics is None
        payload = result.to_payload()
        assert "dynamics" not in payload
        assert _digest(payload) == self.GRID_CELL_DIGEST

    def test_static_titan_cell_unchanged(self):
        """TITAN-PC exercises PSM + power control through the dead-neighbor
        PSM changes, which must be no-ops without failed radios."""
        result = run_single(grid_network(scale="smoke"), "TITAN-PC", 2.0, seed=1)
        assert _digest(result.to_payload()) == self.GRID_TITAN_DIGEST

    def test_dynamics_roundtrips_through_payload(self):
        from repro.metrics.collectors import RunResult

        scenario = mobile_small(scale="smoke")
        result = run_single(scenario, "DSR-ODPM", 4.0, seed=1)
        clone = RunResult.from_payload(result.to_payload())
        assert clone.dynamics == result.dynamics
        assert _digest(clone.to_payload()) == _digest(result.to_payload())


class TestDynamicsAggregation:
    def test_aggregate_dynamics_mixed_runs(self):
        from repro.metrics.collectors import RunResult, aggregate_dynamics

        def make(seed: int, dynamics: dict | None) -> RunResult:
            return RunResult(
                protocol="DSR-ODPM",
                seed=seed,
                duration=1.0,
                flows=[],
                energy_summary={"e_network": 1.0, "transmit_energy": 0.0},
                dynamics=dynamics,
            )

        runs = [
            make(1, {"link_changes": 10.0}),
            make(2, {"link_changes": 20.0}),
            make(3, None),  # static runs contribute nothing
        ]
        aggregated = aggregate_dynamics(runs)
        assert aggregated["link_changes"].mean == pytest.approx(15.0)
        assert aggregate_dynamics([make(1, None)]) == {}
