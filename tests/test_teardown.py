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
import weakref

import pytest

from repro.core.radio import CABLETRON
from repro.experiments import runner
from repro.experiments.parallel import GridCellError
from repro.experiments.scenarios import small_network
from repro.net.topology import Placement
from repro.sim.network import PROTOCOLS, NetworkConfig, WirelessNetwork
from repro.traffic.flows import FlowSpec
from smoke_pins import CELLS as SMOKE_CELLS


def test_cells_cover_every_protocol():
    covered = {protocol for _, _, protocol in SMOKE_CELLS.values()}
    assert covered == set(PROTOCOLS)


@pytest.mark.parametrize("cell_id", list(SMOKE_CELLS), ids=list(SMOKE_CELLS))
def test_run_single_leaves_no_cyclic_garbage(smoke_runs, cell_id):
    """One smoke cell per protocol, dynamic preset and channel model,
    run through ``runner.run_single`` (the ``smoke_runs`` fixture)."""
    run = smoke_runs[cell_id]
    assert run.events > 0
    assert run.garbage == 0


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


@pytest.mark.parametrize("protocol", ["DSR-ODPM", "DSDV-ODPM"])
def test_route_probe_leaves_no_cyclic_garbage(protocol):
    """A §5.2.3 route probe (one reactive, one proactive protocol) is
    closed like a grid cell; its routes and the closed network remain."""
    scenario = small_network(scale="smoke")
    gc.collect()
    gc.disable()
    try:
        network, routes = runner.stabilize_routes(scenario, protocol)
        assert len(routes) == len(network.flow_stats) > 0
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


#: ``(run the cells, how many cells)`` for each grid-cell runner.
GRID_RUNNERS = [
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
#: The same for every runner entry point, the route probe included.
RUNNERS = GRID_RUNNERS + [
    pytest.param(
        lambda scenario: runner.stabilize_routes(scenario, "DSR-ODPM"),
        1,
        id="stabilize_routes",
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


@pytest.mark.parametrize("run_cells, cells", GRID_RUNNERS)
def test_no_automatic_pass_walks_a_finished_cell(
    monkeypatch, restore_collector, run_cells, cells
):
    """The collector comes back only once a grid cell's network is gone.

    With a gen-0 threshold of 1, the first allocation after the collector
    is re-enabled starts a pass; none may start while a network the
    runner built is still alive, or it would walk the whole network.
    """
    live = []
    build = WirelessNetwork.__init__

    def tracked(network, *args, **kwargs):
        build(network, *args, **kwargs)
        live.append(weakref.ref(network))

    walked = []

    def watch(phase, info):
        if phase == "start" and any(ref() is not None for ref in live):
            walked.append(info["generation"])

    monkeypatch.setattr(WirelessNetwork, "__init__", tracked)
    scenario = small_network(scale="smoke")
    thresholds = gc.get_threshold()
    gc.enable()
    gc.set_threshold(1, *thresholds[1:])
    gc.callbacks.append(watch)
    try:
        run_cells(scenario)
    finally:
        gc.callbacks.remove(watch)
        gc.set_threshold(*thresholds)
    assert len(live) == cells
    assert walked == []
