"""Network teardown: a finished cell is freed by reference counting alone.

A wired network is full of reference cycles (radio, MAC, node and routing
point at each other, armed timers at their owners, the channel at its
PHYs, the PSM scheduler at its members).  :meth:`WirelessNetwork.close`
breaks them, and the runners call it after every cell, so a sweep leaves
nothing for the cyclic collector.  Per-node ``mac-<id>`` and
``routing-<id>`` random streams are created at their first draw.
"""

import gc

import pytest

from repro.core.radio import CABLETRON
from repro.experiments import runner
from repro.experiments.scenarios import (
    bursty_small,
    churn_grid,
    lossy_small,
    mobile_small,
    small_network,
)
from repro.net.topology import Placement
from repro.sim.channel_models import ChannelSpec
from repro.sim.network import NetworkConfig, WirelessNetwork
from repro.traffic.flows import FlowSpec

CELLS = [
    pytest.param(small_network, None, "DSR-ODPM", id="DSR-ODPM"),
    pytest.param(small_network, None, "TITAN-PC", id="TITAN-PC"),
    pytest.param(small_network, None, "DSR-Active", id="DSR-Active"),
    pytest.param(small_network, None, "DSDVH-ODPM", id="DSDVH-ODPM"),
    pytest.param(
        small_network, None, "DSDVH-ODPM(0.6,1.2)-Span", id="DSDVH-Span"
    ),
    pytest.param(small_network, None, "DSR-Span", id="DSR-Span"),
    pytest.param(mobile_small, None, "DSR-ODPM", id="mobile_small"),
    pytest.param(churn_grid, None, "DSR-ODPM", id="churn_grid"),
    pytest.param(lossy_small, None, "TITAN-PC", id="lossy_small"),
    pytest.param(
        small_network,
        ChannelSpec("rssi-margin", (("margin", 6.0),)),
        "DSR-ODPM",
        id="rssi-margin",
    ),
    pytest.param(bursty_small, None, "DSR-ODPM", id="bursty_small"),
]


@pytest.mark.parametrize("preset, channel, protocol", CELLS)
def test_run_single_leaves_no_cyclic_garbage(preset, channel, protocol):
    scenario = preset(scale="smoke")
    if channel is not None:
        scenario = scenario.with_channel(channel)
    gc.collect()
    gc.disable()
    try:
        result = runner.run_single(scenario, protocol, 4.0, 1)
        assert result.events_processed > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _line_network(protocol: str, start: float) -> WirelessNetwork:
    """Three nodes on a line, one flow starting at ``start``, 5 s horizon."""
    placement = Placement(
        {0: (0.0, 0.0), 1: (150.0, 0.0), 2: (300.0, 0.0)}, 300.0, 1.0
    )
    flow = FlowSpec(
        flow_id=0, source=0, destination=2, rate_bps=2000.0, start=start
    )
    return WirelessNetwork(
        NetworkConfig(
            placement=placement,
            card=CABLETRON,
            protocol=protocol,
            flows=[flow],
            duration=5.0,
        )
    )


@pytest.mark.parametrize("protocol", ["DSR-ODPM", "TITAN-PC"])
def test_cell_cut_mid_discovery_leaves_no_cyclic_garbage(protocol):
    """The horizon falls while a route discovery's timer is armed."""
    gc.collect()
    gc.disable()
    try:
        network = _line_network(protocol, start=4.99)
        network.run()
        network.close()
        del network
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("protocol", ["DSR-ODPM", "TITAN-PC", "DSR-Active"])
def test_idle_cell_creates_no_per_node_streams(protocol):
    network = _line_network(protocol, start=10.0)
    network.run()
    created = [
        name
        for name in network.sim._rngs
        if name.startswith(("mac-", "routing-"))
    ]
    assert created == []


def test_closed_network_keeps_its_counters():
    network = _line_network("DSR-ODPM", start=10.0)
    result = network.run()
    network.close()
    assert network.sim.pending() == 0
    assert network.control_packet_count() == result.control_packets == 0
    assert network.relays_used() == 0
    assert network.psm.beacons > 0
