"""Tests for the network builder, protocol presets and public API surface."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.core.radio import CABLETRON, PowerMode
from repro.net.topology import Placement
from repro.power import AlwaysActive, Odpm, SpanCoordinator
from repro.routing import Dsr, Titan
from repro.sim.network import PROTOCOLS, NetworkConfig, ProtocolPreset, WirelessNetwork
from repro.sim.psm import NoPsm, PsmScheduler
from repro.traffic.flows import FlowSpec

from tests.conftest import build_network


@pytest.fixture
def tiny_placement():
    return Placement(
        {0: (0.0, 0.0), 1: (150.0, 0.0), 2: (300.0, 0.0)}, 300.0, 1.0
    )


def tiny_flow():
    return [FlowSpec(flow_id=0, source=0, destination=2,
                     rate_bps=2000.0, start=1.0)]


class TestProtocolPresets:
    def test_paper_lineup_present(self):
        for label in (
            "DSR-Active", "DSR-ODPM", "DSR-ODPM-PC", "TITAN-PC",
            "DSRH-ODPM(rate)", "DSRH-ODPM(norate)", "DSDVH-ODPM",
            "DSDVH-ODPM(0.6,1.2)-Span", "MTPR-ODPM", "MTPR+-ODPM",
            "DSDV-ODPM", "DSR-Span",
        ):
            assert label in PROTOCOLS, label
            assert PROTOCOLS[label].label == label

    def test_power_control_flags_match_paper(self):
        """PC protocols tune data power; baselines do not."""
        assert PROTOCOLS["TITAN-PC"].power_control
        assert PROTOCOLS["DSR-ODPM-PC"].power_control
        assert PROTOCOLS["MTPR-ODPM"].power_control
        assert not PROTOCOLS["DSR-ODPM"].power_control
        assert not PROTOCOLS["DSR-Active"].power_control

    def test_power_factory_always_active(self):
        preset = PROTOCOLS["DSR-Active"]
        manager = preset.power_factory()(None, 1)
        assert isinstance(manager, AlwaysActive)

    def test_power_factory_odpm(self):
        from repro.sim.engine import Simulator

        preset = PROTOCOLS["DSR-ODPM"]
        manager = preset.power_factory()(Simulator(), 1)
        assert isinstance(manager, Odpm)
        assert manager.config.keepalive_data == 5.0

    def test_span_preset_overrides_manager(self):
        from repro.sim.engine import Simulator

        preset = PROTOCOLS["DSR-Span"]
        manager = preset.power_factory()(Simulator(), 1)
        assert isinstance(manager, SpanCoordinator)

    def test_span_improved_preset_keepalives(self):
        from repro.sim.engine import Simulator

        preset = PROTOCOLS["DSDVH-ODPM(0.6,1.2)-Span"]
        manager = preset.power_factory()(Simulator(), 1)
        assert manager.config.keepalive_data == 0.6
        assert preset.advertised_window


class TestWirelessNetworkAssembly:
    def test_psm_scheduler_only_for_power_saving(self, tiny_placement):
        saving = build_network(tiny_placement, "DSR-ODPM", tiny_flow())
        always = build_network(tiny_placement, "DSR-Active", tiny_flow())
        assert isinstance(saving.psm, PsmScheduler)
        assert isinstance(always.psm, NoPsm)

    def test_advertised_window_propagates(self, tiny_placement):
        net = build_network(
            tiny_placement, "DSDVH-ODPM(0.6,1.2)-Span", tiny_flow()
        )
        assert isinstance(net.psm, PsmScheduler)
        assert net.psm.advertised_window

    def test_routing_classes_match_presets(self, tiny_placement):
        dsr_net = build_network(tiny_placement, "DSR-ODPM", tiny_flow())
        titan_net = build_network(tiny_placement, "TITAN-PC", tiny_flow())
        assert isinstance(dsr_net.nodes[0].routing, Dsr)
        assert isinstance(titan_net.nodes[0].routing, Titan)

    def test_every_node_gets_energy_ledger(self, tiny_placement):
        net = build_network(tiny_placement, "DSR-ODPM", tiny_flow())
        assert len(net.energy) == len(tiny_placement)

    def test_neighbor_mode_oracle(self, tiny_placement):
        net = build_network(tiny_placement, "DSR-ODPM", tiny_flow())
        # All ODPM nodes start in PSM; the oracle must say so.
        assert net.nodes[0].neighbor_mode(1) is PowerMode.POWER_SAVE
        net.nodes[1].power.notify_data_activity()
        assert net.nodes[0].neighbor_mode(1) is PowerMode.ACTIVE

    def test_unknown_neighbor_assumed_active(self, tiny_placement):
        net = build_network(tiny_placement, "DSR-ODPM", tiny_flow())
        assert net.nodes[0].neighbor_mode(999) is PowerMode.ACTIVE

    def test_relays_used_counts_forwarders(self, tiny_placement):
        net = build_network(tiny_placement, "DSR-Active", tiny_flow(),
                            duration=20.0)
        net.run()
        assert net.relays_used() == 1  # only the middle node forwards

    def test_control_packet_count_positive(self, tiny_placement):
        net = build_network(tiny_placement, "DSR-Active", tiny_flow(),
                            duration=20.0)
        net.run()
        assert net.control_packet_count() >= 2  # at least RREQ + RREP

    def test_double_attach_routing_rejected(self, tiny_placement):
        net = build_network(tiny_placement, "DSR-ODPM", tiny_flow())
        with pytest.raises(RuntimeError):
            net.nodes[0].attach_routing(Dsr(net.nodes[0]))

    def test_run_result_metadata(self, tiny_placement):
        net = build_network(tiny_placement, "TITAN-PC", tiny_flow(),
                            duration=15.0, seed=9)
        result = net.run()
        assert result.protocol == "TITAN-PC"
        assert result.seed == 9
        assert result.duration == 15.0
        assert result.events_processed > 0


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quick_run_smoke(self):
        result = repro.quick_run(
            protocol="DSR-ODPM", node_count=12, flow_count=2,
            duration=15.0, seed=2,
        )
        assert 0.0 <= result.delivery_ratio <= 1.0
        assert result.e_network > 0

    def test_quick_run_unknown_card(self):
        with pytest.raises(KeyError):
            repro.quick_run(card_key="not-a-card")

    def test_subpackage_all_exports_resolve(self):
        import repro.core as core
        import repro.metrics as metrics
        import repro.net as net
        import repro.power as power
        import repro.routing as routing
        import repro.sim as sim

        for module in (core, metrics, net, power, routing, sim):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_import_path_loads_no_numpy_scipy_networkx_or_xml_sax(
        self, tmp_path
    ):
        """A fresh interpreter imports the package, sweeps one smoke cell
        into a store and renders its report without loading numpy, scipy,
        networkx or xml.sax; the first confidence interval over two
        samples then imports scipy.stats (which may bring numpy)."""
        script = textwrap.dedent(
            """
            import sys

            import repro, repro.cli, repro.experiments, repro.report
            from repro.experiments.parallel import grid_cells, run_grid
            from repro.experiments.scenarios import small_network
            from repro.experiments.store import ResultStore
            from repro.metrics.stats import mean_ci
            from repro.report import build_campaign, render_html

            scenario = small_network(scale="smoke")
            store = ResultStore(sys.argv[1])
            cells = grid_cells(scenario, ("DSR-ODPM",), (2.0,), seeds=(1,))
            results = run_grid(scenario, cells, jobs=1, store=store)
            assert len(results) == 1
            assert "<svg" in render_html(build_campaign(store))

            print(sorted(
                name for name in sys.modules
                if name.split(".")[0] in ("numpy", "scipy", "networkx")
                or name.startswith("xml.sax")
            ))
            mean_ci([1.0, 2.0])
            print("scipy.stats" in sys.modules)
            """
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["[]", "True"]
