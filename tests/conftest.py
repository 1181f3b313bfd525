"""Shared fixtures: cards, placements, small assembled networks."""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass

import pytest

from repro.core.energy_model import NetworkEnergy
from repro.core.radio import CABLETRON, HYPOTHETICAL_CABLETRON, MICA2, RadioModel
from repro.net.topology import Placement, grid_placement, uniform_random_placement
from repro.sim.network import NetworkConfig, WirelessNetwork
from repro.sim.psm import PsmScheduler
from repro.traffic.flows import FlowSpec
import smoke_pins


@pytest.fixture
def card() -> RadioModel:
    return CABLETRON


@pytest.fixture
def line_placement() -> Placement:
    """Five nodes on a line, 150 m apart (multi-hop at 250 m range)."""
    positions = {i: (150.0 * i, 0.0) for i in range(5)}
    return Placement(positions, width=600.0, height=1.0)


@pytest.fixture
def pair_placement() -> Placement:
    """Two nodes 100 m apart."""
    return Placement({0: (0.0, 0.0), 1: (100.0, 0.0)}, width=100.0, height=1.0)


@pytest.fixture
def grid7() -> Placement:
    return grid_placement(7, 300.0, 300.0)


@pytest.fixture
def random30() -> Placement:
    rng = random.Random(42)
    return uniform_random_placement(
        30, 400.0, 400.0, rng, require_connected_range=CABLETRON.max_range
    )


def build_network(
    placement: Placement,
    protocol: str,
    flows: list[FlowSpec],
    duration: float = 30.0,
    seed: int = 1,
    card: RadioModel = CABLETRON,
    **kwargs,
) -> WirelessNetwork:
    """Assemble a network for integration-style tests."""
    config = NetworkConfig(
        placement=placement,
        card=card,
        protocol=protocol,
        flows=flows,
        duration=duration,
        seed=seed,
        **kwargs,
    )
    return WirelessNetwork(config)


def line_flow(rate_bps: float = 4000.0, start: float = 1.0, **kwargs) -> FlowSpec:
    """A flow across the 5-node line placement (node 0 -> node 4)."""
    return FlowSpec(
        flow_id=0, source=0, destination=4, rate_bps=rate_bps, start=start, **kwargs
    )


@dataclass(frozen=True)
class SmokeRun:
    """What the tests read from one smoke pin cell's run."""

    digest: str
    events: int
    #: Objects the cyclic collector found after the cell, collector paused.
    garbage: int
    #: PSM beacons seen, and (member, beacon) pairs checked at them.
    beacons: int
    mode_checks: int
    #: Pairs whose scheduler-recorded mode differed from the node's
    #: power manager.
    mode_mismatches: int
    #: The run's energy ledgers (they hold only their radio card).
    energy: NetworkEnergy


class SmokeRuns:
    """Each cell of ``smoke_pins.CELLS`` run at most once per session.

    The teardown tests (no cyclic garbage), the pin table
    (``tests/test_smoke_pins.py``), the PSM mode-record check
    (``tests/test_psm_power.py``) and the energy-summary check
    (``tests/test_energy_model.py``) read the same run, so tier-1 pays
    for each cell once.  A run starts from a collected heap with the
    collector paused, as ``tests/test_teardown.py`` requires.  At every
    beacon it compares each member's recorded mode with its node's power
    manager; the check only reads, and holds no reference to the network
    once the run is over, only its energy ledgers.
    """

    def __init__(self) -> None:
        self._runs: dict[str, SmokeRun] = {}

    def __getitem__(self, cell_id: str) -> SmokeRun:
        run = self._runs.get(cell_id)
        if run is None:
            run = self._runs[cell_id] = self._run(cell_id)
        return run

    @staticmethod
    def _run(cell_id: str) -> SmokeRun:
        running: list[WirelessNetwork] = []
        seen = {"beacons": 0, "checks": 0, "mismatches": 0}
        network_run = WirelessNetwork.run
        beacon = PsmScheduler._beacon

        def tracked_run(network):
            running.append(network)
            try:
                return network_run(network)
            finally:
                seen["energy"] = network.energy
                running.clear()

        def checked_beacon(psm):
            seen["beacons"] += 1
            for node_id, node in running[-1].nodes.items():
                seen["checks"] += 1
                if psm._members[node_id].mode is not node.power.mode:
                    seen["mismatches"] += 1
            beacon(psm)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(WirelessNetwork, "run", tracked_run)
            patch.setattr(PsmScheduler, "_beacon", checked_beacon)
            gc.collect()
            gc.disable()
            try:
                result = smoke_pins.run_cell(cell_id)
                garbage = gc.collect()
            finally:
                gc.enable()
        return SmokeRun(
            digest=smoke_pins.digest(result),
            events=result.events_processed,
            garbage=garbage,
            beacons=seen["beacons"],
            mode_checks=seen["checks"],
            mode_mismatches=seen["mismatches"],
            energy=seen["energy"],
        )


@pytest.fixture(scope="session")
def smoke_runs() -> SmokeRuns:
    return SmokeRuns()
