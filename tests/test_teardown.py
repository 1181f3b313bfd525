"""Network teardown: a finished cell is freed by reference counting alone.

A wired network is full of reference cycles (radio, MAC, node and routing
point at each other, armed timers at their owners, the channel at its
PHYs, the PSM scheduler at its members).  :meth:`WirelessNetwork.close`
breaks them, and the runners call it after every cell, so a sweep leaves
nothing for the cyclic collector.  That is what lets the runners build,
run and close each cell with the automatic collector paused, restoring
the caller's setting afterwards.  Per-node ``mac-<id>`` and
``routing-<id>`` random streams are created at their first draw.
"""

import gc

import pytest

from repro.core.radio import CABLETRON
from repro.experiments import runner
from repro.experiments.parallel import GridCellError
from repro.experiments.scenarios import (
    bursty_small,
    churn_grid,
    lossy_small,
    mobile_small,
    small_network,
)
from repro.net.topology import Placement
from repro.sim.channel_models import ChannelSpec
from repro.sim.network import PROTOCOLS, NetworkConfig, WirelessNetwork
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
    pytest.param(small_network, None, "DSDV-ODPM", id="DSDV-ODPM"),
    pytest.param(small_network, None, "DSR-ODPM-PC", id="DSR-ODPM-PC"),
    pytest.param(
        small_network, None, "DSRH-ODPM(norate)", id="DSRH-ODPM(norate)"
    ),
    pytest.param(small_network, None, "DSRH-ODPM(rate)", id="DSRH-ODPM(rate)"),
    pytest.param(small_network, None, "MTPR-ODPM", id="MTPR-ODPM"),
    pytest.param(small_network, None, "MTPR+-ODPM", id="MTPR+-ODPM"),
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


def test_cells_cover_every_protocol():
    covered = {param.values[2] for param in CELLS}
    assert covered == set(PROTOCOLS)


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


#: ``(run the cells, how many cells)`` for each runner entry point.
RUNNERS = [
    pytest.param(
        lambda scenario: runner.run_single(scenario, "DSR-ODPM", 4.0, 1),
        1,
        id="run_single",
    ),
    pytest.param(
        lambda scenario: runner.run_batch(scenario, "DSR-ODPM", 4.0, (1, 2)),
        2,
        id="run_batch",
    ),
]
COLLECTOR = pytest.mark.parametrize(
    "enabled", [True, False], ids=["gc-enabled", "gc-disabled"]
)


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def restore_collector():
    """Hand the collector back as the test found it, whatever happens."""
    enabled = gc.isenabled()
    yield
    _set_collector(enabled)


@COLLECTOR
@pytest.mark.parametrize("run_cells, cells", RUNNERS)
def test_runners_pause_the_collector_for_the_whole_cell(
    monkeypatch, restore_collector, run_cells, cells, enabled
):
    """Assembly, run and close all see the collector off; the caller's
    setting comes back afterwards."""
    seen = []

    def recording(phase, method):
        def wrapper(network, *args, **kwargs):
            seen.append((phase, gc.isenabled()))
            return method(network, *args, **kwargs)

        return wrapper

    for phase in ("__init__", "run", "close"):
        monkeypatch.setattr(
            WirelessNetwork,
            phase,
            recording(phase, getattr(WirelessNetwork, phase)),
        )
    scenario = small_network(scale="smoke")
    _set_collector(enabled)
    run_cells(scenario)
    assert gc.isenabled() is enabled
    assert seen == [("__init__", False), ("run", False), ("close", False)] * cells


@COLLECTOR
@pytest.mark.parametrize("phase", ["__init__", "run"])
@pytest.mark.parametrize("run_cells, cells", RUNNERS)
def test_runners_restore_the_collector_after_a_failing_cell(
    monkeypatch, restore_collector, run_cells, cells, phase, enabled
):
    """A cell that raises in assembly or in ``run()`` still hands the
    collector back as it found it."""

    def fail(network, *args, **kwargs):
        raise RuntimeError("injected %s failure" % phase)

    monkeypatch.setattr(WirelessNetwork, phase, fail)
    scenario = small_network(scale="smoke")
    _set_collector(enabled)
    with pytest.raises((RuntimeError, GridCellError), match="injected"):
        run_cells(scenario)
    assert gc.isenabled() is enabled
