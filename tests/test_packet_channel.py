"""Tests for packet construction and channel geometry/propagation."""

from dataclasses import fields, replace

import pytest

from repro.core.energy_model import NodeEnergy
from repro.core.radio import CABLETRON
from repro.net.topology import Placement
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.packet import (
    BROADCAST,
    FRAME_SIZES,
    HEADER_OVERHEAD,
    Packet,
    PacketKind,
    make_control_packet,
    make_data_packet,
)
from repro.sim.phy import Phy


class TestPacket:
    def test_data_packet_sizes(self):
        packet = make_data_packet(origin=1, final_dst=2, src=1, dst=2)
        assert packet.size_bytes == 128 + HEADER_OVERHEAD
        assert packet.size_bits == (128 + HEADER_OVERHEAD) * 8

    def test_data_is_not_control(self):
        packet = make_data_packet(origin=1, final_dst=2, src=1, dst=2)
        assert not packet.is_control

    def test_control_frames_use_standard_sizes(self):
        for kind in (PacketKind.RTS, PacketKind.CTS, PacketKind.ACK):
            frame = make_control_packet(kind, src=1, dst=2)
            assert frame.size_bytes == FRAME_SIZES[kind]
            assert frame.is_control

    def test_routing_frame_requires_size(self):
        with pytest.raises(ValueError):
            make_control_packet(PacketKind.ROUTING, src=1, dst=2)

    def test_broadcast_detection(self):
        frame = make_control_packet(
            PacketKind.ROUTING, src=1, dst=BROADCAST, size_bytes=40
        )
        assert frame.is_broadcast

    def test_copy_for_hop_preserves_identity_but_fresh_uid(self):
        packet = make_data_packet(origin=1, final_dst=9, src=1, dst=2, seqno=7)
        clone = packet.copy_for_hop(src=2, dst=3)
        assert clone.origin == 1 and clone.final_dst == 9 and clone.seqno == 7
        assert clone.src == 2 and clone.dst == 3
        assert clone.uid != packet.uid
        assert clone.hops_travelled == packet.hops_travelled + 1

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(kind=PacketKind.DATA, src=1, dst=2, size_bytes=0)


class TestDirectCopies:
    """The per-frame copies equal the ``dataclasses.replace`` reference
    they stand in for, field for field."""

    @pytest.mark.parametrize("packet", [
        make_data_packet(origin=1, final_dst=9, src=1, dst=2, flow_id=3,
                         seqno=7, created_at=1.25),
        make_control_packet(PacketKind.ROUTING, src=4, dst=BROADCAST,
                            size_bytes=40, payload=("rreq", 1),
                            created_at=0.5),
    ], ids=["data", "routing"])
    def test_copy_for_hop_equals_replace(self, packet):
        packet.hops_travelled = 2
        clone = packet.copy_for_hop(src=2, dst=3)
        # The counter advanced exactly once: the next uid follows the clone's.
        assert packet.copy_for_hop(src=2, dst=3).uid == clone.uid + 1
        reference = replace(packet, src=2, dst=3, uid=clone.uid)
        reference.hops_travelled = packet.hops_travelled + 1
        for field in fields(Packet):
            assert getattr(clone, field.name) == getattr(
                reference, field.name
            ), field.name
        assert clone.payload is packet.payload

    def test_source_route_advanced_equals_replace(self):
        from repro.routing.reactive import SourceRoute

        route = SourceRoute((1, 2, 3, 4), 1, rate=4000.0)
        assert route.advanced() == replace(route, index=route.index + 1)
        bare = SourceRoute((5, 6), 0)
        assert bare.advanced() == replace(bare, index=1)

    def test_rreq_extension_equals_replace(self, monkeypatch):
        """The request a relay rebroadcasts is the one it received with
        itself and its link cost appended."""
        from repro.routing.reactive import RouteRequest
        from repro.sim.network import NetworkConfig, WirelessNetwork

        placement = Placement(
            {i: (150.0 * i, 0.0) for i in range(3)}, width=300.0, height=1.0
        )
        network = WirelessNetwork(NetworkConfig(
            placement=placement, card=CABLETRON, protocol="DSRH-ODPM(rate)",
            flows=[], duration=2.0,
        ))
        relay = network.nodes[1].routing
        sent = []
        monkeypatch.setattr(
            relay, "_broadcast_control",
            lambda payload, size: sent.append(payload),
        )
        request = RouteRequest(
            origin=0, target=2, request_id=5, path=(0,), cost=0.25,
            rate=4000.0,
        )
        frame = make_control_packet(
            PacketKind.ROUTING, src=0, dst=BROADCAST,
            size_bytes=request.size_bytes(), payload=request,
        )
        relay._on_rreq(request, frame)
        network.sim.run(until=1.0)
        extended_cost = relay._seen_requests[(0, 5)]
        assert sent == [
            replace(request, path=(0, 1), cost=extended_cost)
        ]
        network.close()


def make_phy(sim, channel, node_id):
    return Phy(sim, channel, node_id, CABLETRON, NodeEnergy(card=CABLETRON))


class TestChannelGeometry:
    def test_distance(self):
        sim = Simulator()
        channel = Channel(sim, {1: (0.0, 0.0), 2: (3.0, 4.0)}, max_range=250.0)
        assert channel.distance(1, 2) == pytest.approx(5.0)
        assert channel.distance(2, 1) == pytest.approx(5.0)

    def test_neighbors_respect_range(self):
        sim = Simulator()
        positions = {1: (0.0, 0.0), 2: (100.0, 0.0), 3: (300.0, 0.0)}
        channel = Channel(sim, positions, max_range=250.0)
        for node_id in positions:
            make_phy(sim, channel, node_id)
        assert set(channel.neighbors(1)) == {2}
        assert set(channel.neighbors(2)) == {1, 3}

    def test_register_requires_position(self):
        sim = Simulator()
        channel = Channel(sim, {1: (0.0, 0.0)}, max_range=100.0)
        with pytest.raises(ValueError):
            make_phy(sim, channel, 99)

    def test_double_register_rejected(self):
        sim = Simulator()
        channel = Channel(sim, {1: (0.0, 0.0)}, max_range=100.0)
        make_phy(sim, channel, 1)
        with pytest.raises(ValueError):
            make_phy(sim, channel, 1)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            Channel(Simulator(), {}, max_range=0.0)


class TestPropagation:
    def setup_line(self, spacing=100.0, count=3, max_range=250.0):
        sim = Simulator()
        positions = {i: (spacing * i, 0.0) for i in range(count)}
        channel = Channel(sim, positions, max_range=max_range)
        phys = {i: make_phy(sim, channel, i) for i in range(count)}
        return sim, channel, phys

    def test_frame_reaches_nodes_in_reach(self):
        sim, channel, phys = self.setup_line()
        received = []
        phys[1].on_receive = lambda p: received.append((1, p.uid))
        phys[2].on_receive = lambda p: received.append((2, p.uid))
        frame = make_control_packet(
            PacketKind.ROUTING, src=0, dst=BROADCAST, size_bytes=40
        )
        phys[0].transmit(frame)
        sim.run()
        assert (1, frame.uid) in received
        assert (2, frame.uid) in received  # 200 m <= 250 m range

    def test_reduced_reach_limits_receivers(self):
        sim, channel, phys = self.setup_line()
        received = []
        phys[1].on_receive = lambda p: received.append(1)
        phys[2].on_receive = lambda p: received.append(2)
        frame = make_data_packet(origin=0, final_dst=1, src=0, dst=1)
        phys[0].transmit(frame, distance=100.0)  # power control: 100 m reach
        sim.run()
        assert received == [1]

    def test_transmission_duration_matches_bandwidth(self):
        sim, channel, phys = self.setup_line()
        frame = make_data_packet(origin=0, final_dst=1, src=0, dst=1)
        duration = phys[0].transmit(frame)
        assert duration == pytest.approx(frame.size_bits / CABLETRON.bandwidth)

    def test_tx_done_callback(self):
        sim, channel, phys = self.setup_line()
        done = []
        phys[0].on_tx_done = lambda p: done.append(p.uid)
        frame = make_data_packet(origin=0, final_dst=1, src=0, dst=1)
        phys[0].transmit(frame)
        sim.run()
        assert done == [frame.uid]

    def test_transmission_counter(self):
        sim, channel, phys = self.setup_line()
        frame = make_data_packet(origin=0, final_dst=1, src=0, dst=1)
        phys[0].transmit(frame)
        sim.run()
        assert channel.transmissions_started == 1
