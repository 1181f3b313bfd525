"""Tests for the energy model (Eqs. 1–5) and the frozen-route evaluator."""

import pytest

from repro.core.energy_model import (
    FlowRoute,
    NetworkEnergy,
    NodeEnergy,
    RouteEnergyEvaluator,
)
from repro.core.radio import CABLETRON, MICA2, RadioState
from repro.experiments.runner import _always_active_energy


class TestNodeEnergy:
    def test_data_tx_at_controlled_power(self):
        ledger = NodeEnergy(card=CABLETRON)
        energy = ledger.charge_data_tx(2.0, distance=100.0)
        assert energy == pytest.approx(2.0 * CABLETRON.transmit_power(100.0))
        assert ledger.data_tx == pytest.approx(energy)

    def test_data_tx_without_distance_uses_max_power(self):
        ledger = NodeEnergy(card=CABLETRON)
        ledger.charge_data_tx(1.0)
        assert ledger.data_tx == pytest.approx(CABLETRON.p_tx_max)

    def test_control_tx_always_max_power(self):
        """Eq. 2: control packets at maximum power level."""
        ledger = NodeEnergy(card=CABLETRON)
        ledger.charge_control_tx(1.0)
        assert ledger.control_tx == pytest.approx(CABLETRON.p_tx_max)

    def test_eq1_data_energy_composition(self):
        ledger = NodeEnergy(card=CABLETRON)
        ledger.charge_data_tx(1.0, distance=50.0)
        ledger.charge_data_rx(3.0)
        expected = CABLETRON.transmit_power(50.0) + 3.0 * CABLETRON.p_rx
        assert ledger.e_data == pytest.approx(expected)

    def test_eq3_passive_energy_composition(self):
        ledger = NodeEnergy(card=MICA2)
        ledger.charge_idle(10.0)
        ledger.charge_sleep(90.0)
        ledger.charge_switch(4)
        expected = (
            10.0 * MICA2.p_idle + 90.0 * MICA2.p_sleep + 4 * MICA2.switch_energy
        )
        assert ledger.e_passive == pytest.approx(expected)

    def test_total_is_comm_plus_passive(self):
        ledger = NodeEnergy(card=CABLETRON)
        ledger.charge_data_tx(1.0, distance=10.0)
        ledger.charge_control_rx(2.0)
        ledger.charge_idle(5.0)
        assert ledger.total == pytest.approx(ledger.e_comm + ledger.e_passive)

    def test_state_time_tracks_occupancy(self):
        ledger = NodeEnergy(card=CABLETRON)
        ledger.charge_data_tx(1.5, distance=10.0)
        ledger.charge_control_rx(0.5)
        ledger.charge_idle(3.0)
        ledger.charge_sleep(5.0)
        assert ledger.state_time[RadioState.TRANSMIT] == pytest.approx(1.5)
        assert ledger.state_time[RadioState.RECEIVE] == pytest.approx(0.5)
        assert ledger.busy_time == pytest.approx(10.0)

    def test_state_time_is_the_four_fields_in_radio_state_order(self):
        ledger = NodeEnergy(card=CABLETRON)
        ledger.charge_data_tx(1.5, distance=10.0)
        ledger.charge_control_tx(0.25)
        ledger.charge_control_tx(9.0, track_time=False)
        ledger.charge_data_rx(0.5)
        ledger.charge_control_rx(0.75)
        ledger.charge_control_rx(9.0, track_time=False)
        ledger.charge_idle(3.0)
        ledger.charge_sleep(5.0)
        assert list(ledger.state_time.items()) == [
            (RadioState.TRANSMIT, ledger.transmit_time),
            (RadioState.RECEIVE, ledger.receive_time),
            (RadioState.IDLE, ledger.idle_time),
            (RadioState.SLEEP, ledger.sleep_time),
        ]
        assert list(ledger.state_time.values()) == [1.75, 1.25, 3.0, 5.0]

    def test_state_time_rejects_item_assignment(self):
        ledger = NodeEnergy(card=CABLETRON)
        with pytest.raises(TypeError):
            ledger.state_time[RadioState.IDLE] = 1.0
        with pytest.raises(TypeError):
            ledger.state_time[RadioState.SLEEP] += 1.0
        assert ledger.busy_time == 0.0

    def test_busy_time_sums_in_radio_state_order(self):
        """Float addition is not associative: at 1e16 the spacing is 2, so
        the sum depends on the order, and busy_time keeps the TRANSMIT,
        RECEIVE, IDLE, SLEEP order of the per-state dict it replaced."""
        ledger = NodeEnergy(card=CABLETRON)
        ledger.charge_data_tx(1e16)
        ledger.charge_data_rx(1.0)
        ledger.charge_idle(1.0)
        ledger.charge_sleep(0.5)
        expected = 0
        for value in (1e16, 1.0, 1.0, 0.5):
            expected += value
        assert ledger.busy_time == expected == 1e16
        assert 0.5 + 1.0 + 1.0 + 1e16 != expected

    def test_transmit_energy_combines_data_and_control(self):
        ledger = NodeEnergy(card=CABLETRON)
        ledger.charge_data_tx(1.0, distance=10.0)
        ledger.charge_control_tx(1.0)
        assert ledger.transmit_energy == pytest.approx(
            ledger.data_tx + ledger.control_tx
        )

    def test_negative_duration_rejected(self):
        ledger = NodeEnergy(card=CABLETRON)
        for method in (
            ledger.charge_idle,
            ledger.charge_sleep,
            ledger.charge_data_rx,
            ledger.charge_control_rx,
            ledger.charge_control_tx,
        ):
            with pytest.raises(ValueError):
                method(-1.0)

    def test_negative_transitions_rejected(self):
        with pytest.raises(ValueError):
            NodeEnergy(card=CABLETRON).charge_switch(-1)


class TestNetworkEnergy:
    def test_eq4_sums_over_nodes(self):
        network = NetworkEnergy()
        a = network.add_node(1, CABLETRON)
        b = network.add_node(2, CABLETRON)
        a.charge_idle(10.0)
        b.charge_data_tx(1.0, distance=100.0)
        assert network.e_network == pytest.approx(a.total + b.total)

    def test_duplicate_node_rejected(self):
        network = NetworkEnergy()
        network.add_node(1, CABLETRON)
        with pytest.raises(ValueError):
            network.add_node(1, CABLETRON)

    def test_energy_goodput(self):
        network = NetworkEnergy()
        network.add_node(1, CABLETRON).charge_idle(10.0)
        goodput = network.energy_goodput(1000.0)
        assert goodput == pytest.approx(1000.0 / (10.0 * CABLETRON.p_idle))

    def test_energy_goodput_zero_energy(self):
        assert NetworkEnergy().energy_goodput(100.0) == 0.0

    def test_energy_goodput_rejects_negative_bits(self):
        network = NetworkEnergy()
        with pytest.raises(ValueError):
            network.energy_goodput(-1.0)

    def test_summary_components_add_up(self):
        network = NetworkEnergy()
        ledger = network.add_node(1, CABLETRON)
        ledger.charge_data_tx(1.0, distance=10.0)
        ledger.charge_control_rx(2.0)
        ledger.charge_idle(3.0)
        ledger.charge_sleep(4.0)
        summary = network.summary()
        assert summary["e_network"] == pytest.approx(
            summary["e_comm"] + summary["e_passive"]
        )
        assert summary["e_comm"] == pytest.approx(
            summary["e_data"] + summary["e_control"]
        )


class TestFlowRoute:
    def test_hop_count_and_relays(self):
        route = FlowRoute(path=(1, 2, 3, 4), rate=1000.0)
        assert route.hop_count == 3
        assert route.relays == (2, 3)

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            FlowRoute(path=(1, 2, 1), rate=10.0)

    def test_rejects_trivial_path(self):
        with pytest.raises(ValueError):
            FlowRoute(path=(1,), rate=10.0)


class TestRouteEnergyEvaluator:
    @pytest.fixture
    def evaluator(self):
        positions = {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (200.0, 0.0), 3: (0.0, 100.0)}
        return RouteEnergyEvaluator(positions, CABLETRON, power_control=True)

    def test_perfect_scheduling_sleeps_everyone_when_idle(self, evaluator):
        route = FlowRoute(path=(0, 1, 2), rate=2000.0)
        energy = evaluator.evaluate([route], duration=10.0, scheduling="perfect")
        # Node 3 is off-route: with perfect scheduling it sleeps throughout.
        assert energy[3].sleep > 0
        assert energy[3].idle == 0
        assert energy[3].e_comm == 0

    def test_odpm_scheduling_keeps_relays_idling(self, evaluator):
        route = FlowRoute(path=(0, 1, 2), rate=2000.0)
        energy = evaluator.evaluate([route], duration=10.0, scheduling="odpm")
        # The relay idles between packets; the off-route node duty-cycles.
        assert energy[1].idle > 0
        assert energy[3].sleep > 0
        assert energy[3].idle > 0  # ATIM fraction of each beacon interval

    def test_perfect_cheaper_than_odpm(self, evaluator):
        route = FlowRoute(path=(0, 1, 2), rate=2000.0)
        perfect = evaluator.evaluate([route], 10.0, scheduling="perfect")
        odpm = evaluator.evaluate([route], 10.0, scheduling="odpm")
        assert perfect.e_network < odpm.e_network

    def test_airtime_accounting(self, evaluator):
        rate = 2048.0  # bits/s
        duration = 10.0
        route = FlowRoute(path=(0, 1), rate=rate)
        energy = evaluator.evaluate(
            [route], duration, packet_size_bits=1024, scheduling="perfect"
        )
        packets = rate * duration / 1024
        airtime = packets * 1024 / CABLETRON.bandwidth
        assert energy[0].state_time[RadioState.TRANSMIT] == pytest.approx(airtime)
        assert energy[1].state_time[RadioState.RECEIVE] == pytest.approx(airtime)

    def test_always_active_ledgers_keep_odpm_times_and_idle_the_rest(self):
        """The DSR-Active baseline copies each ODPM ledger's transmit and
        receive times and idles for all of its idle and sleep time."""
        positions = {0: (0.0, 0.0), 1: (150.0, 0.0), 2: (300.0, 0.0), 3: (0.0, 150.0)}
        evaluator = RouteEnergyEvaluator(positions, CABLETRON)
        routes = [FlowRoute(path=(0, 1, 2), rate=4000.0)]
        odpm = evaluator.evaluate(routes, 50.0, scheduling="odpm")
        active = _always_active_energy(evaluator, routes, 50.0)
        assert set(active.nodes) == set(odpm.nodes)
        assert odpm[3].sleep_time > 0 and odpm[3].idle_time > 0
        for node_id, ledger in odpm:
            target = active[node_id]
            passive = ledger.idle_time + ledger.sleep_time
            assert target.transmit_time == ledger.transmit_time
            assert target.receive_time == ledger.receive_time
            assert target.idle_time == passive
            assert target.sleep_time == 0.0
            assert (target.data_tx, target.data_rx) == (ledger.data_tx, ledger.data_rx)
            assert target.idle == passive * CABLETRON.p_idle
            assert target.sleep == 0.0
            assert target.busy_time == pytest.approx(50.0)

    def test_power_control_reduces_tx_energy(self):
        positions = {0: (0.0, 0.0), 1: (200.0, 0.0)}
        route = FlowRoute(path=(0, 1), rate=2000.0)
        pc = RouteEnergyEvaluator(positions, CABLETRON, power_control=True)
        nopc = RouteEnergyEvaluator(positions, CABLETRON, power_control=False)
        e_pc = pc.evaluate([route], 10.0, scheduling="perfect")
        e_nopc = nopc.evaluate([route], 10.0, scheduling="perfect")
        assert e_pc[0].data_tx < e_nopc[0].data_tx

    def test_goodput_decreases_with_extra_relay_at_low_rate(self):
        """The §5.1 story: with idling counted, extra relays cost energy."""
        positions = {0: (0.0, 0.0), 1: (125.0, 0.0), 2: (250.0, 0.0)}
        direct = [FlowRoute(path=(0, 2), rate=2000.0)]
        relayed = [FlowRoute(path=(0, 1, 2), rate=2000.0)]
        evaluator = RouteEnergyEvaluator(positions, CABLETRON, power_control=True)
        goodput_direct = evaluator.energy_goodput(direct, 10.0, scheduling="odpm")
        goodput_relayed = evaluator.energy_goodput(relayed, 10.0, scheduling="odpm")
        assert goodput_direct > goodput_relayed

    def test_invalid_scheduling_rejected(self, evaluator):
        with pytest.raises(ValueError):
            evaluator.evaluate([FlowRoute((0, 1), 100.0)], 1.0, scheduling="magic")

    def test_atim_fraction_validated(self):
        with pytest.raises(ValueError):
            RouteEnergyEvaluator({0: (0, 0)}, CABLETRON, atim_fraction=1.5)
