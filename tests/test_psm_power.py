"""Tests for the PSM scheduler and the power managers."""

import pytest

from repro.core.energy_model import NodeEnergy
from repro.core.radio import CABLETRON, PowerMode
from repro.power import AlwaysActive, AlwaysPsm, Odpm, OdpmConfig
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.mac import Mac
from repro.sim.network import PROTOCOLS
from repro.sim.packet import make_data_packet
from repro.sim.phy import Phy
from repro.sim.psm import ATIM_WINDOW, BEACON_INTERVAL, NoPsm, PsmScheduler
from smoke_pins import CELLS as SMOKE_CELLS


def build_psm_pair(
    mode_a=PowerMode.POWER_SAVE,
    mode_b=PowerMode.POWER_SAVE,
    advertised_window=False,
    distance=100.0,
):
    sim = Simulator(seed=9)
    channel = Channel(sim, {0: (0, 0), 1: (distance, 0)}, max_range=250.0)
    psm = PsmScheduler(sim, advertised_window=advertised_window)
    members = {}
    modes = {0: mode_a, 1: mode_b}
    for node_id in (0, 1):
        phy = Phy(sim, channel, node_id, CABLETRON, NodeEnergy(card=CABLETRON))
        mac = Mac(sim, phy, rts_enabled=False)
        psm.register(phy, mac, modes[node_id])
        members[node_id] = (phy, mac)
    psm.start()
    return sim, psm, members, modes


class TestPsmCycle:
    def test_psm_nodes_sleep_after_atim_when_idle(self):
        sim, psm, members, modes = build_psm_pair()
        sim.run(until=ATIM_WINDOW + 0.01)
        assert members[0][0].asleep
        assert members[1][0].asleep

    def test_psm_nodes_wake_at_each_beacon(self):
        sim, psm, members, modes = build_psm_pair()
        sim.run(until=BEACON_INTERVAL + ATIM_WINDOW / 2)
        assert not members[0][0].asleep  # inside second ATIM window

    def test_active_nodes_never_sleep(self):
        sim, psm, members, modes = build_psm_pair(
            mode_a=PowerMode.ACTIVE, mode_b=PowerMode.ACTIVE
        )
        sim.run(until=3 * BEACON_INTERVAL)
        assert not members[0][0].asleep
        assert not members[1][0].asleep

    def test_announced_destination_stays_awake_and_receives(self):
        sim, psm, members, modes = build_psm_pair()
        phy0, mac0 = members[0]
        delivered = []
        members[1][1].on_deliver = lambda p: delivered.append(p)
        # Enqueue mid-interval while both nodes are asleep.
        sim.run(until=ATIM_WINDOW + 0.05)
        mac0.send(make_data_packet(origin=0, final_dst=1, src=0, dst=1))
        sim.run(until=2 * BEACON_INTERVAL)
        assert len(delivered) == 1

    def test_atim_energy_charged(self):
        sim, psm, members, modes = build_psm_pair()
        phy0, mac0 = members[0]
        sim.run(until=ATIM_WINDOW + 0.05)
        mac0.send(make_data_packet(origin=0, final_dst=1, src=0, dst=1))
        before = phy0.energy.control_tx
        sim.run(until=2 * BEACON_INTERVAL)
        assert phy0.energy.control_tx > before
        assert psm.atim_announcements >= 1

    def test_sleep_energy_dominates_for_idle_psm_network(self):
        sim, psm, members, modes = build_psm_pair()
        sim.run(until=30.0)
        from repro.core.radio import RadioState

        for phy, _ in members.values():
            phy.finalize()
            assert phy.energy.sleep > 0
            # Awake only for ATIM windows: a small fraction of the time.
            awake_fraction = phy.energy.state_time[RadioState.IDLE] / 30.0
            assert awake_fraction < 0.2

    def test_peer_awake_oracle(self):
        """The oracle answers from the mode the power manager pushed."""
        sim, psm, members, modes = build_psm_pair()
        sim.run(until=ATIM_WINDOW + 0.05)  # both asleep now
        assert not psm.peer_awake(1)
        psm.on_mode_change(1, PowerMode.ACTIVE)
        assert psm.peer_awake(1)
        psm.on_mode_change(1, PowerMode.POWER_SAVE)
        assert not psm.peer_awake(1)

    def test_mode_change_wakes_node(self):
        sim, psm, members, modes = build_psm_pair()
        sim.run(until=ATIM_WINDOW + 0.05)
        assert members[1][0].asleep
        psm.on_mode_change(1, PowerMode.ACTIVE)
        assert not members[1][0].asleep

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            PsmScheduler(Simulator(), beacon_interval=0.1, atim_window=0.1)

    def test_double_start_rejected(self):
        sim = Simulator()
        psm = PsmScheduler(sim)
        psm.start()
        with pytest.raises(RuntimeError):
            psm.start()


class TestModeRecord:
    """The scheduler learns modes only from the power managers' pushes."""

    @pytest.mark.parametrize("cell_id", list(SMOKE_CELLS), ids=list(SMOKE_CELLS))
    def test_record_matches_power_manager_at_every_beacon(
        self, smoke_runs, cell_id
    ):
        run = smoke_runs[cell_id]
        protocol = SMOKE_CELLS[cell_id][2]
        if PROTOCOLS[protocol].power_save:
            assert run.beacons > 0
            assert run.mode_checks >= run.beacons
        else:
            assert run.beacons == 0
        assert run.mode_mismatches == 0


class TestCampaignShapeCell:
    """A sparse 500-node cell whose flows all start after the horizon
    (the perfbench ``campaign`` shape) pays for no neighbor table, no
    neighbor lookup and no per-member call in the beacon pass beyond
    the radio's own ``wake``/``sleep``."""

    @staticmethod
    def _config(protocol):
        from repro.experiments.scenarios import Scenario

        scenario = Scenario(
            name="campaign-shape",
            node_count=500,
            field_size=3300.0,
            flow_count=10,
            rates_kbps=(2.0,),
            duration=2.0,
            runs=1,
            protocols=(protocol,),
        ).with_fixed_placement(1)
        return scenario.config(protocol, 2.0, 1)

    @pytest.mark.parametrize("protocol", ["DSR-ODPM", "TITAN-PC"])
    def test_idle_cell_reads_no_table_lookup_or_member_state(
        self, monkeypatch, protocol
    ):
        import gc

        from repro.power.manager import PowerManager
        from repro.sim.network import WirelessNetwork

        config = self._config(protocol)
        assert all(flow.start >= config.duration for flow in config.flows)
        calls = {"mode": 0, "state": 0}

        def counted_property(name, prop):
            def getter(self):
                calls[name] += 1
                return prop.fget(self)

            return property(getter)

        network = WirelessNetwork(config)
        monkeypatch.setattr(
            PowerManager, "mode", counted_property("mode", PowerManager.mode)
        )
        monkeypatch.setattr(Phy, "state", counted_property("state", Phy.state))
        gc.collect()
        gc.disable()
        try:
            network.run()
            assert network.psm.beacons == 7
            assert calls == {"mode": 0, "state": 0}
            assert len(network.channel._tables) == 0
            assert all(
                node._neighbor_power is None
                for node in network.nodes.values()
            )
            network.close()
            del network
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBroadcastClear:
    def test_blocked_while_neighbor_asleep(self):
        sim, psm, members, modes = build_psm_pair()
        sim.run(until=ATIM_WINDOW + 0.05)
        assert members[1][0].asleep
        assert not psm.broadcast_clear(0)

    def test_clear_when_all_awake(self):
        sim, psm, members, modes = build_psm_pair(
            mode_b=PowerMode.ACTIVE
        )
        sim.run(until=ATIM_WINDOW + 0.05)
        assert psm.broadcast_clear(0)


class TestNoPsm:
    def test_everything_always_awake(self):
        sim = Simulator()
        nopsm = NoPsm(sim)
        assert nopsm.peer_awake(42)
        nopsm.start()
        nopsm.on_mode_change(1, PowerMode.ACTIVE)
        nopsm.on_broadcast_received(1)  # all no-ops


class TestOdpm:
    def test_starts_in_power_save(self):
        odpm = Odpm(Simulator(), node_id=1)
        assert odpm.mode is PowerMode.POWER_SAVE

    def test_data_activity_switches_to_active(self):
        sim = Simulator()
        odpm = Odpm(sim, node_id=1)
        odpm.notify_data_activity()
        assert odpm.mode is PowerMode.ACTIVE

    def test_keepalive_expiry_returns_to_psm(self):
        sim = Simulator()
        odpm = Odpm(sim, node_id=1, config=OdpmConfig(2.0, 4.0))
        odpm.notify_data_activity()
        sim.run(until=1.9)
        assert odpm.mode is PowerMode.ACTIVE
        sim.run(until=2.1)
        assert odpm.mode is PowerMode.POWER_SAVE

    def test_activity_extends_keepalive(self):
        sim = Simulator()
        odpm = Odpm(sim, node_id=1, config=OdpmConfig(2.0, 4.0))
        odpm.notify_data_activity()
        sim.schedule(1.5, odpm.notify_data_activity)
        sim.run(until=3.0)
        assert odpm.mode is PowerMode.ACTIVE  # extended to 3.5
        sim.run(until=4.0)
        assert odpm.mode is PowerMode.POWER_SAVE

    def test_route_reply_uses_longer_keepalive(self):
        sim = Simulator()
        odpm = Odpm(sim, node_id=1, config=OdpmConfig(2.0, 8.0))
        odpm.notify_route_reply()
        sim.run(until=7.0)
        assert odpm.mode is PowerMode.ACTIVE
        sim.run(until=9.0)
        assert odpm.mode is PowerMode.POWER_SAVE

    def test_rrep_keepalive_not_shortened_by_data(self):
        """A 5 s data keep-alive must not cut an armed 10 s RREP keep-alive."""
        sim = Simulator()
        odpm = Odpm(sim, node_id=1, config=OdpmConfig(2.0, 8.0))
        odpm.notify_route_reply()  # expires at 8
        sim.schedule(1.0, odpm.notify_data_activity)  # would expire at 3
        sim.run(until=7.0)
        assert odpm.mode is PowerMode.ACTIVE

    def test_mode_change_callback(self):
        sim = Simulator()
        odpm = Odpm(sim, node_id=7, config=OdpmConfig(1.0, 2.0))
        changes = []
        odpm.on_mode_change = lambda n, m: changes.append((n, m))
        odpm.notify_data_activity()
        sim.run(until=2.0)
        assert changes == [
            (7, PowerMode.ACTIVE),
            (7, PowerMode.POWER_SAVE),
        ]

    def test_transition_counter(self):
        sim = Simulator()
        odpm = Odpm(sim, node_id=1, config=OdpmConfig(1.0, 2.0))
        odpm.notify_data_activity()
        sim.run(until=2.0)
        odpm.notify_data_activity()
        assert odpm.transitions == 3

    def test_config_presets(self):
        assert OdpmConfig.paper_default().keepalive_data == 5.0
        assert OdpmConfig.paper_default().keepalive_rrep == 10.0
        assert OdpmConfig.span_improved().keepalive_data == 0.6
        assert OdpmConfig.span_improved().keepalive_rrep == 1.2

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            OdpmConfig(keepalive_data=0.0, keepalive_rrep=1.0)


class TestTrivialManagers:
    def test_always_active(self):
        manager = AlwaysActive(Simulator(), node_id=1)
        assert manager.mode is PowerMode.ACTIVE
        manager.notify_data_activity()  # no-op
        assert manager.mode is PowerMode.ACTIVE

    def test_always_psm(self):
        manager = AlwaysPsm(Simulator(), node_id=1)
        assert manager.mode is PowerMode.POWER_SAVE
        manager.notify_route_reply()
        assert manager.mode is PowerMode.POWER_SAVE
