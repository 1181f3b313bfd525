"""Tests for the radio state machine: energy integration, collisions, sleep."""

import pytest

from repro.core.energy_model import NodeEnergy
from repro.core.radio import CABLETRON, RadioState
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.packet import BROADCAST, PacketKind, make_control_packet, make_data_packet


def build(positions, max_range=250.0):
    sim = Simulator()
    channel = Channel(sim, positions, max_range=max_range)
    from repro.sim.phy import Phy

    phys = {
        node_id: Phy(sim, channel, node_id, CABLETRON, NodeEnergy(card=CABLETRON))
        for node_id in positions
    }
    return sim, channel, phys


class TestEnergyIntegration:
    def test_idle_energy_charged_on_finalize(self):
        sim, channel, phys = build({0: (0, 0)})
        sim.run(until=10.0)
        phys[0].finalize()
        assert phys[0].energy.idle == pytest.approx(10.0 * CABLETRON.p_idle)

    def test_transmit_energy_with_power_control(self):
        sim, channel, phys = build({0: (0, 0), 1: (100, 0)})
        frame = make_data_packet(origin=0, final_dst=1, src=0, dst=1)
        duration = phys[0].transmit(frame, distance=100.0)
        sim.run()
        phys[0].finalize()
        assert phys[0].energy.data_tx == pytest.approx(
            duration * CABLETRON.transmit_power(100.0)
        )

    def test_control_transmit_at_max_power(self):
        sim, channel, phys = build({0: (0, 0), 1: (100, 0)})
        frame = make_control_packet(PacketKind.RTS, src=0, dst=1)
        duration = phys[0].transmit(frame, distance=10.0)  # distance ignored
        sim.run()
        phys[0].finalize()
        assert phys[0].energy.control_tx == pytest.approx(
            duration * CABLETRON.p_tx_max
        )

    def test_receive_energy_charged(self):
        sim, channel, phys = build({0: (0, 0), 1: (100, 0)})
        frame = make_data_packet(origin=0, final_dst=1, src=0, dst=1)
        duration = phys[0].transmit(frame)
        sim.run()
        phys[1].finalize()
        assert phys[1].energy.data_rx == pytest.approx(duration * CABLETRON.p_rx)

    def test_sleep_energy(self):
        sim, channel, phys = build({0: (0, 0)})
        phys[0].sleep()
        sim.run(until=100.0)
        phys[0].finalize()
        assert phys[0].energy.sleep == pytest.approx(100.0 * CABLETRON.p_sleep)
        assert phys[0].energy.idle == 0.0

    def test_state_time_conservation(self):
        """Total accounted time equals simulated time."""
        sim, channel, phys = build({0: (0, 0), 1: (100, 0)})
        frame = make_data_packet(origin=0, final_dst=1, src=0, dst=1)
        phys[0].transmit(frame)
        sim.run(until=5.0)
        for phy in phys.values():
            phy.finalize()
            assert phy.energy.busy_time == pytest.approx(5.0)

    def test_wake_charges_switch_energy(self):
        from dataclasses import replace

        card = replace(CABLETRON, switch_energy=0.001)
        sim = Simulator()
        channel = Channel(sim, {0: (0, 0)}, max_range=250.0)
        from repro.sim.phy import Phy

        phy = Phy(sim, channel, 0, card, NodeEnergy(card=card))
        phy.sleep()
        phy.wake()
        assert phy.energy.switch == pytest.approx(0.001)


class TestSleepSemantics:
    def test_sleeping_radio_misses_frames(self):
        sim, channel, phys = build({0: (0, 0), 1: (100, 0)})
        received = []
        phys[1].on_receive = lambda p: received.append(p)
        phys[1].sleep()
        phys[0].transmit(make_data_packet(origin=0, final_dst=1, src=0, dst=1))
        sim.run()
        assert received == []

    def test_sleep_mid_reception_loses_frame(self):
        sim, channel, phys = build({0: (0, 0), 1: (100, 0)})
        received = []
        phys[1].on_receive = lambda p: received.append(p)
        frame = make_data_packet(origin=0, final_dst=1, src=0, dst=1)
        duration = phys[0].transmit(frame)
        sim.schedule(duration / 2, phys[1].sleep)
        sim.run()
        assert received == []

    def test_cannot_transmit_while_asleep(self):
        sim, channel, phys = build({0: (0, 0)})
        phys[0].sleep()
        with pytest.raises(RuntimeError):
            phys[0].transmit(
                make_data_packet(origin=0, final_dst=1, src=0, dst=1)
            )

    def test_cannot_sleep_while_transmitting(self):
        sim, channel, phys = build({0: (0, 0), 1: (100, 0)})
        phys[0].transmit(make_data_packet(origin=0, final_dst=1, src=0, dst=1))
        with pytest.raises(RuntimeError):
            phys[0].sleep()

    def test_wake_is_idempotent(self):
        sim, channel, phys = build({0: (0, 0)})
        phys[0].sleep()
        phys[0].wake()
        phys[0].wake()
        assert phys[0].state is RadioState.IDLE


class TestCollisions:
    def test_overlapping_frames_collide(self):
        """Hidden terminal: 0 and 2 both reach 1 but not each other."""
        sim, channel, phys = build(
            {0: (0, 0), 1: (200, 0), 2: (400, 0)}, max_range=250.0
        )
        received = []
        phys[1].on_receive = lambda p: received.append(p)
        phys[0].transmit(make_data_packet(origin=0, final_dst=1, src=0, dst=1))
        phys[2].transmit(make_data_packet(origin=2, final_dst=1, src=2, dst=1))
        sim.run()
        assert received == []
        assert phys[1].frames_collided >= 1

    def test_sequential_frames_do_not_collide(self):
        sim, channel, phys = build({0: (0, 0), 1: (200, 0), 2: (400, 0)})
        received = []
        phys[1].on_receive = lambda p: received.append(p.src)
        first = make_data_packet(origin=0, final_dst=1, src=0, dst=1)
        duration = first.size_bits / CABLETRON.bandwidth
        phys[0].transmit(first)
        sim.schedule(
            duration * 2,
            lambda: phys[2].transmit(
                make_data_packet(origin=2, final_dst=1, src=2, dst=1)
            ),
        )
        sim.run()
        assert received == [0, 2]

    def test_transmitting_radio_misses_incoming(self):
        """Half duplex: a sender cannot hear a concurrent frame."""
        sim, channel, phys = build({0: (0, 0), 1: (100, 0)})
        received = []
        phys[0].on_receive = lambda p: received.append(p)
        phys[0].transmit(make_data_packet(origin=0, final_dst=1, src=0, dst=1))
        phys[1].transmit(make_data_packet(origin=1, final_dst=0, src=1, dst=0))
        sim.run()
        assert received == []

    def test_carrier_busy_during_overheard_frame(self):
        sim, channel, phys = build({0: (0, 0), 1: (100, 0), 2: (150, 0)})
        frame = make_data_packet(origin=0, final_dst=1, src=0, dst=1)
        phys[0].transmit(frame)
        # Immediately after transmission starts, node 2 overhears it.
        assert phys[2].carrier_busy
        sim.run()
        assert not phys[2].carrier_busy

    def test_collision_counts_as_receive_energy_not_delivery(self):
        sim, channel, phys = build(
            {0: (0, 0), 1: (200, 0), 2: (400, 0)}, max_range=250.0
        )
        phys[0].transmit(make_data_packet(origin=0, final_dst=1, src=0, dst=1))
        phys[2].transmit(make_data_packet(origin=2, final_dst=1, src=2, dst=1))
        sim.run()
        phys[1].finalize()
        assert phys[1].frames_received == 0
        assert phys[1].energy.data_rx > 0  # the radio was occupied regardless


class _RecordingEnergy(NodeEnergy):
    """Ledger that also records every charge call as ``(name, duration)``."""

    def __init__(self, card):
        super().__init__(card=card)
        self.calls = []

    def charge_idle(self, duration):
        self.calls.append(("idle", duration))
        return super().charge_idle(duration)

    def charge_control_rx(self, duration, track_time=True):
        self.calls.append(("control_rx", duration))
        return super().charge_control_rx(duration, track_time)

    def charge_data_rx(self, duration):
        self.calls.append(("data_rx", duration))
        return super().charge_data_rx(duration)

    def charge_sleep(self, duration):
        self.calls.append(("sleep", duration))
        return super().charge_sleep(duration)

    def charge_switch(self, transitions=1):
        self.calls.append(("switch", transitions))
        return super().charge_switch(transitions)


class TestReceiveEnergyClassification:
    """A receive period is charged by the frame that started it.

    Node 1 hears both 0 and 2, which cannot hear each other.  The second
    frame starts inside the first and ends before it, so each pair is one
    receive period and ``rx_packets[0]`` is the first frame throughout.
    """

    START = 1.0

    def _listen(self, first, second=None, offset=0.001):
        from repro.sim.phy import Phy

        sim = Simulator()
        positions = {0: (0, 0), 1: (200, 0), 2: (400, 0)}
        channel = Channel(sim, positions, max_range=250.0)
        energy = {node: _RecordingEnergy(CABLETRON) for node in positions}
        phys = {
            node: Phy(sim, channel, node, CABLETRON, energy[node])
            for node in positions
        }
        sim.schedule(self.START, lambda: phys[0].transmit(first))
        if second is not None:
            sim.schedule(self.START + offset, lambda: phys[2].transmit(second))
        sim.run(until=2.0)
        phys[1].finalize()
        assert phys[1].frames_collided == (0 if second is None else 1)
        return energy[1]

    @staticmethod
    def _airtime(packet):
        return packet.size_bits / CABLETRON.bandwidth

    def test_lone_control_frame_charges_control_rx_only(self):
        frame = make_control_packet(PacketKind.RTS, src=0, dst=1)
        energy = self._listen(frame)
        airtime = self._airtime(frame)
        assert [name for name, _ in energy.calls] == ["idle", "control_rx", "idle"]
        assert energy.calls[1][1] == pytest.approx(airtime)
        assert energy.control_rx == pytest.approx(airtime * CABLETRON.p_rx)
        assert energy.data_rx == 0.0

    def test_control_then_data_charges_control_rx(self):
        control = make_control_packet(
            PacketKind.ROUTING, src=0, dst=BROADCAST, size_bytes=1500
        )
        data = make_data_packet(origin=2, final_dst=1, src=2, dst=1,
                                payload_bytes=16)
        energy = self._listen(control, data)
        names = [name for name, _ in energy.calls]
        assert names == ["idle", "control_rx", "control_rx", "idle"]
        period = sum(duration for name, duration in energy.calls[1:3])
        assert period == pytest.approx(self._airtime(control))
        assert energy.data_rx == 0.0

    def test_data_then_control_charges_data_rx(self):
        data = make_data_packet(origin=0, final_dst=1, src=0, dst=1,
                                payload_bytes=1400)
        control = make_control_packet(PacketKind.RTS, src=2, dst=1)
        energy = self._listen(data, control)
        names = [name for name, _ in energy.calls]
        assert names == ["idle", "data_rx", "data_rx", "idle"]
        period = sum(duration for name, duration in energy.calls[1:3])
        assert period == pytest.approx(self._airtime(data))
        assert energy.control_rx == 0.0


class TestSleepWakeCharges:
    """``sleep`` and ``wake`` charge the period they end, once each.

    Node 0 sends to node 1; node 1's ledger records every charge call.
    """

    def _pair(self):
        from repro.sim.phy import Phy

        sim = Simulator()
        positions = {0: (0, 0), 1: (100, 0)}
        channel = Channel(sim, positions, max_range=250.0)
        energy = _RecordingEnergy(CABLETRON)
        sender = Phy(sim, channel, 0, CABLETRON, NodeEnergy(card=CABLETRON))
        listener = Phy(sim, channel, 1, CABLETRON, energy)
        return sim, sender, listener, energy

    def test_sleep_from_idle_charges_idle(self):
        sim, _, listener, energy = self._pair()
        sim.schedule(0.5, listener.sleep)
        sim.run(until=1.0)
        assert energy.calls == [("idle", 0.5)]
        assert listener.asleep

    def test_wake_charges_sleep_then_switch(self):
        sim, _, listener, energy = self._pair()
        sim.schedule(0.5, listener.sleep)
        sim.schedule(1.25, listener.wake)
        sim.run(until=2.0)
        assert energy.calls == [("idle", 0.5), ("sleep", 0.75), ("switch", 1)]
        assert listener.state is RadioState.IDLE

    def test_zero_length_periods_charge_only_the_switch(self):
        sim, _, listener, energy = self._pair()
        listener.sleep()
        listener.wake()
        listener.wake()  # already awake: no charge
        assert energy.calls == [("switch", 1)]

    @pytest.mark.parametrize("stop", ["sleep", "fail", "transmit"])
    def test_stop_mid_data_reception_books_data_rx(self, stop):
        """``sleep()``, ``fail()`` and ``transmit()`` charge the receive
        period they end before they drop the frames in flight, so a period
        that a DATA frame started books as ``data_rx``."""
        sim, sender, listener, energy = self._pair()
        frame = make_data_packet(origin=0, final_dst=1, src=0, dst=1,
                                 payload_bytes=512)
        airtime = frame.size_bits / CABLETRON.bandwidth
        if stop == "transmit":
            reply = make_control_packet(PacketKind.RTS, src=1, dst=0)
            interrupt = lambda: listener.transmit(reply)  # noqa: E731
        else:
            interrupt = getattr(listener, stop)
        sim.schedule(1.0, lambda: sender.transmit(frame))
        sim.schedule(1.0 + airtime / 2, interrupt)
        sim.run(until=2.0)
        names = [name for name, _ in energy.calls]
        assert names == ["idle", "data_rx"]
        assert energy.calls[0][1] == pytest.approx(1.0)
        assert energy.calls[1][1] == pytest.approx(airtime / 2)
        assert energy.control_rx == 0.0
        assert listener.frames_received == 0


class TestReceiveStateInvariant:
    """The radio is in receive state exactly while a frame is in flight.

    ``rx_start`` and ``rx_end`` charge the ending period by this rule
    (idle before the first frame, receive while any is in flight), so
    every PHY entry point must keep it, on whole runs with capture,
    sleep and churn failures.
    """

    ENTRY_POINTS = ("rx_start", "rx_end", "transmit", "tx_end", "sleep",
                    "wake", "fail")

    @pytest.mark.parametrize("preset, protocol, rate_kbps", [
        ("small_network", "DSR-ODPM", 8.0),
        ("small_network", "DSDVH-ODPM", 8.0),
        ("churn_grid", "DSR-ODPM", 2.0),
    ])
    def test_invariant_holds_on_whole_runs(
        self, monkeypatch, preset, protocol, rate_kbps
    ):
        from dataclasses import replace

        from repro.experiments import scenarios
        from repro.sim.network import WirelessNetwork
        from repro.sim.phy import Phy

        calls = []

        def checked(name, method):
            def wrapper(phy, *args, **kwargs):
                result = method(phy, *args, **kwargs)
                calls.append(name)
                assert (phy.state is RadioState.RECEIVE) == bool(phy._rx_packets)
                return result
            return wrapper

        for name in self.ENTRY_POINTS:
            monkeypatch.setattr(Phy, name, checked(name, getattr(Phy, name)))
        scenario = getattr(scenarios, preset)(scale="smoke")
        config = replace(scenario.config(protocol, rate_kbps, 1), capture_ratio=2.0)
        WirelessNetwork(config).run()
        assert {"rx_start", "rx_end", "sleep", "wake"} <= set(calls)
        assert ("fail" in calls) == (preset == "churn_grid")


class TestChargesSeenByClassWrappers:
    """A wrapper put on ``NodeEnergy.charge_*`` after a network is
    assembled sees every charge that one put there before assembly does:
    no radio keeps a charge method it bound at assembly."""

    CHARGES = tuple(
        name for name in NodeEnergy.__dict__ if name.startswith("charge_")
    )

    def _counted_run(self, wrap_before_assembly: bool) -> dict[str, int]:
        from repro.experiments.scenarios import small_network
        from repro.sim.network import WirelessNetwork

        config = small_network(scale="smoke").config("DSR-ODPM", 4.0, 1)
        calls = dict.fromkeys(self.CHARGES, 0)

        def counted(name, charge):
            def wrapper(ledger, *args, **kwargs):
                calls[name] += 1
                return charge(ledger, *args, **kwargs)

            return wrapper

        with pytest.MonkeyPatch.context() as patch:

            def install():
                for name in self.CHARGES:
                    charge = NodeEnergy.__dict__[name]
                    patch.setattr(NodeEnergy, name, counted(name, charge))

            if wrap_before_assembly:
                install()
            network = WirelessNetwork(config)
            if not wrap_before_assembly:
                install()
            try:
                network.run()
            finally:
                network.close()
        return calls

    def test_wrapping_after_assembly_sees_every_charge(self):
        before = self._counted_run(wrap_before_assembly=True)
        after = self._counted_run(wrap_before_assembly=False)
        assert after == before
        # The state-change path charges idle and sleep periods too.
        assert before["charge_idle"] > 0 and before["charge_sleep"] > 0
