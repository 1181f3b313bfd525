"""Span tracer for the benchmark's traced run.

The tracer lives entirely in the benchmark: :meth:`Tracer.install` wraps
public calls into each ``repro`` layer (and the few private upcalls that
cross a layer boundary, such as the MAC's PHY-receive handler) at class
or module level, and wraps every callback the simulation engine
schedules so that each fired event is a span attributed to the module
that owns the callback.  Nothing under ``src/`` is edited.

Two kinds of span are recorded:

* **hot** spans — per-frame PHY, energy, channel, MAC, routing and event
  spans — are aggregated on the fly into ``(layer, name, parent layer) ->
  [count, self seconds]`` so a traced cell keeps O(1) memory;
* **kept** spans — cell phases (config, placement, freeze, assembly, run,
  serialize), store reads and writes, manifest flushes and dispatch
  units — are recorded one by one with an id, their parent span's id and
  the id of the cell they belong to.

Self time is a span's duration minus the time covered by its child spans.
Both kinds share one stack, so a kept span's self time excludes its hot
children and vice versa.

The wrappers must be installed before any network is assembled:
``Phy.__init__`` captures bound ``NodeEnergy.charge_idle``/``charge_sleep``
methods and the MAC, node and PSM capture bound upcalls.

Pool workers are forked from the benchmark process, so they inherit the
wrappers.  A fork hook resets the child's tracer state, and after every
dispatch unit a worker appends what it recorded to a file in
:attr:`Tracer.out_dir`; :meth:`Tracer.collect` merges those files into the
parent's trace once the sweep has returned.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

#: ``repro`` module -> layer name used by the per-layer metrics.  Event
#: callbacks and wrapped calls are attributed through this table.
MODULE_LAYERS = {
    "repro.sim.engine": "engine",
    "repro.sim.phy": "phy",
    "repro.core.energy_model": "energy",
    "repro.sim.channel": "channel",
    "repro.sim.channel_models": "channel_models",
    "repro.sim.mac": "mac",
    "repro.sim.node": "node",
    "repro.sim.psm": "psm",
    "repro.sim.mobility": "mobility",
    "repro.power.manager": "power",
    "repro.power.odpm": "power",
    "repro.power.span": "power",
    "repro.power.always_on": "power",
    "repro.routing.reactive": "routing.reactive",
    "repro.routing.dsr": "routing.reactive",
    "repro.routing.dsrh": "routing.reactive",
    "repro.routing.mtpr": "routing.reactive",
    "repro.routing.titan": "routing.reactive",
    "repro.routing.proactive": "routing.proactive",
    "repro.routing.dsdv": "routing.proactive",
    "repro.routing.dsdvh": "routing.proactive",
    "repro.traffic.cbr": "traffic",
    "repro.traffic.models": "traffic",
}


class Tracer:
    """In-memory span recorder for one process (and its forked workers).

    ``out_dir`` is where forked pool workers leave their records; set it
    before each traced pass so passes do not mix.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.worker = False
        self.active = False
        self.out_dir: Path | None = None
        #: Open frames: ``[layer, start, child_seconds, kept_record|None]``.
        self.stack: list[list] = []
        #: ``(layer, name) -> {parent_layer: [count, self_seconds]}``.
        self.hot: dict[tuple[str, str], dict] = {}
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.cell: str | None = None
        self.draws = 0
        self._next_id = 0
        self._flushes = 0
        self.calibration = {"inside_s": 0.0, "outside_s": 0.0}
        self._owners: dict = {}
        self._timer_type: type | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _table(self, layer: str, name: str) -> dict:
        return self.hot.setdefault((layer, name), {})

    def _close(self, frame: list, table: dict, entered: float) -> None:
        """Pop ``frame`` and fold its self time into ``table``.

        The parent is charged the wrapper's whole cost from ``entered`` on,
        so the tracer's own bookkeeping shows in no layer's self time (it
        shows in ``trace.overhead``).
        """
        clock = time.perf_counter
        elapsed = clock() - frame[1]
        stack = self.stack
        stack.pop()
        parent = stack[-1][0] if stack else None
        entry = table.get(parent)
        if entry is None:
            table[parent] = [1, elapsed - frame[2]]
        else:
            entry[0] += 1
            entry[1] += elapsed - frame[2]
        if stack:
            stack[-1][2] += clock() - entered

    def hot_span(self, fn, layer: str, name: str):
        """Wrap ``fn`` as an aggregated span of ``layer``."""
        tracer = self
        stack = self.stack
        table = self._table(layer, name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entered = clock()
            frame = [layer, 0.0, 0.0, None]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, table, entered)

        return wrapper

    def kept_span(self, fn, layer: str, name: str, before=None, after=None):
        """Wrap ``fn`` as an individually recorded span of ``layer``.

        ``before(record, args)`` may annotate the record (and set the
        current cell) before the call; ``after(record, args, result)``
        runs once the call returned.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._run_kept(fn, layer, name, before, after, args, kwargs)

        return wrapper

    def _run_kept(self, fn, layer, name, before, after, args, kwargs):
        clock = time.perf_counter
        entered = clock()
        stack = self.stack
        parent_id = None
        for frame in reversed(stack):
            if frame[3] is not None:
                parent_id = frame[3]["id"]
                break
        self._next_id += 1
        record = {
            "id": "%d.%d" % (os.getpid(), self._next_id),
            "parent": parent_id,
            "parent_layer": stack[-1][0] if stack else None,
            "layer": layer,
            "name": name,
        }
        if before is not None:
            before(record, args)
        record["cell"] = self.cell
        frame = [layer, 0.0, 0.0, record]
        stack.append(frame)
        frame[1] = start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stack.pop()
            record["start"] = start
            record["seconds"] = elapsed
            record["self_s"] = elapsed - frame[2]
            self.spans.append(record)
            if stack:
                stack[-1][2] += clock() - entered
        if after is not None:
            after(record, args, result)
        return result

    def event(self, callback):
        """Wrap an engine callback as a span of the layer that owns it."""
        layer, table = self._owner_table(callback)
        tracer = self
        stack = self.stack
        clock = time.perf_counter

        def fire():
            entered = clock()
            frame = [layer, 0.0, 0.0, None]
            stack.append(frame)
            frame[1] = clock()
            try:
                return callback()
            finally:
                tracer._close(frame, table, entered)

        return fire

    def _owner_table(self, callback) -> tuple[str, dict]:
        """``(layer, hot table)`` for the module owning ``callback``.

        Bound methods belong to their instance's class (a DSDVH instance's
        inherited method is proactive routing); ``Timer`` fires belong to
        the timer's own callback; partials to their function.
        """
        target = None
        while True:
            if isinstance(callback, functools.partial):
                callback = callback.func
                continue
            target = getattr(callback, "__self__", None)
            if isinstance(target, self._timer_type):
                callback = target._callback
                continue
            break
        func = getattr(callback, "__func__", callback)
        module = (
            type(target).__module__
            if target is not None
            else getattr(func, "__module__", None)
        )
        key = (getattr(func, "__code__", func), module)
        owner = self._owners.get(key)
        if owner is None:
            layer = MODULE_LAYERS.get(module, module or "?")
            name = "event:" + getattr(func, "__qualname__", repr(func))
            owner = (layer, self._table(layer, name))
            self._owners[key] = owner
        return owner

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop everything recorded so far (wrappers stay installed)."""
        del self.stack[:]
        for table in self.hot.values():
            table.clear()
        del self.spans[:]
        self.counts.clear()
        self.cell = None
        self.draws = 0

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.worker = True
        self._flushes = 0
        self.reset()

    def flush_worker(self) -> None:
        """Worker side: append this unit's records to ``out_dir``, then reset."""
        if not self.worker or self.out_dir is None:
            return
        self._flushes += 1
        path = self.out_dir / ("worker-%d-%d.json" % (self.pid, self._flushes))
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        os.replace(tmp, path)
        self.reset()

    def snapshot(self) -> dict:
        """Everything recorded so far, JSON-ready."""
        return {
            "hot": [
                [layer, name, parent, entry[0], entry[1]]
                for (layer, name), table in self.hot.items()
                for parent, entry in table.items()
            ],
            "spans": list(self.spans),
            "counts": dict(self.counts),
        }

    def collect(self) -> dict:
        """Merge this process's records with every worker file, then reset.

        Worker files are deleted once read.  Returns a snapshot-shaped
        dict with ``workers`` (distinct worker pids seen) added.
        """
        merged = self.snapshot()
        workers = set()
        if self.out_dir is not None:
            for path in sorted(self.out_dir.glob("worker-*.json")):
                part = json.loads(path.read_text(encoding="utf-8"))
                path.unlink()
                workers.add(path.name.split("-")[1])
                merged["hot"].extend(part["hot"])
                merged["spans"].extend(part["spans"])
                for name, value in part["counts"].items():
                    merged["counts"][name] = merged["counts"].get(name, 0) + value
        merged["workers"] = len(workers)
        merged["calibration"] = self.calibration
        self.reset()
        return merged

    def calibrate(self, calls: int = 100_000, repeats: int = 5) -> dict:
        """Measure the tracer's own cost per hot span on this machine.

        Returns ``inside_s``, the cost that lands inside a span's own
        window (argument forwarding, the closing call), and ``outside_s``,
        the cost its parent still sees (the call into the wrapper).
        :func:`layers.self_times` subtracts both per counted span, so
        layers with many tiny spans are not inflated by the tracer.
        Medians of ``repeats`` rounds of ``calls`` no-op child spans.
        """
        clock = time.perf_counter
        probe = Tracer()

        def noop(value):
            return value

        def loop(count, function):
            for _ in range(count):
                function(None)

        child = probe.hot_span(noop, "child", "child")
        parent = probe.hot_span(loop, "parent", "parent")
        inside, outside = [], []
        for _ in range(repeats):
            start = clock()
            for _ in range(calls):
                pass
            bare = clock() - start
            start = clock()
            loop(calls, noop)
            raw = clock() - start
            probe.reset()
            probe.active = True
            parent(calls, child)
            probe.active = False
            selfs = {layer: entry[1] for (layer, _), table in probe.hot.items()
                     for entry in table.values()}
            inside.append((selfs["child"] - (raw - bare)) / calls)
            outside.append((selfs["parent"] - bare) / calls)
        inside.sort()
        outside.sort()
        self.calibration = {
            "inside_s": inside[repeats // 2],
            "outside_s": outside[repeats // 2],
        }
        return self.calibration

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _wrap_methods(self, cls, names, layer: str) -> None:
        for attr in names:
            fn = cls.__dict__[attr]  # KeyError: a traced boundary moved
            setattr(
                cls, attr, self.hot_span(fn, layer, cls.__name__ + "." + attr)
            )

    def _wrap_kept(self, owner, attr: str, layer: str, before=None, after=None):
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        name = "%s.%s" % (owner.__name__.rsplit(".", 1)[-1], attr)
        wrapper = self.kept_span(fn, layer, name, before, after)
        if isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced boundary.  Call before assembling networks."""
        from repro.core.energy_model import NodeEnergy
        from repro.experiments import runner
        from repro.experiments.resilience import SweepManifest
        from repro.experiments.scenarios import Scenario
        from repro.experiments.store import ResultStore
        from repro.metrics.collectors import RunResult
        from repro.net import topology
        from repro.power.manager import PowerManager
        from repro.power.odpm import Odpm
        from repro.power.span import SpanCoordinator
        from repro.routing.proactive import ProactiveProtocol
        from repro.routing.reactive import ReactiveProtocol
        from repro.sim import channel_models
        from repro.sim.channel import Channel, ChannelGeometry
        from repro.sim.engine import Simulator, Timer
        from repro.sim.mac import Mac
        from repro.sim.network import WirelessNetwork
        from repro.sim.node import Node
        from repro.sim.phy import Phy
        from repro.sim.psm import PsmScheduler
        from repro.traffic.cbr import CbrSink

        tracer = self
        self._timer_type = Timer

        # -- engine: every scheduled callback becomes an owner span -----
        schedule_at = Simulator.__dict__["schedule_at"]

        def traced_schedule_at(sim, when, callback, priority=0):
            if tracer.active:
                entered = time.perf_counter()
                tracer.counts["engine.scheduled"] = (
                    tracer.counts.get("engine.scheduled", 0) + 1
                )
                callback = tracer.event(callback)
                if tracer.stack:
                    tracer.stack[-1][2] += time.perf_counter() - entered
            return schedule_at(sim, when, callback, priority)

        setattr(Simulator, "schedule_at", traced_schedule_at)
        self._wrap_methods(Simulator, ("run",), "engine")

        # -- per-frame layers (aggregated) ------------------------------
        self._wrap_methods(
            Phy, ("transmit", "tx_end", "rx_end", "sleep", "wake", "finalize"),
            "phy",
        )
        rx_start = self.hot_span(Phy.__dict__["rx_start"], "phy", "Phy.rx_start")

        def traced_rx_start(phy, packet, src):
            kept = rx_start(phy, packet, src)
            if kept and tracer.active:
                tracer.counts["phy.rx_kept"] = tracer.counts.get("phy.rx_kept", 0) + 1
            return kept

        setattr(Phy, "rx_start", traced_rx_start)
        self._wrap_methods(
            NodeEnergy,
            [name for name in NodeEnergy.__dict__ if name.startswith("charge_")],
            "energy",
        )
        self._wrap_methods(Channel, ("begin_transmission",), "channel")
        self._wrap_methods(Channel, ("update_position",), "channel.repair")
        for model in (
            channel_models.DiscChannelModel,
            channel_models.ProbChannelModel,
            channel_models.RssiMarginChannelModel,
        ):
            self._wrap_methods(model, ("delivers",), "channel_models")
        self._wrap_methods(
            Mac, ("send", "kick", "_on_phy_receive", "_on_tx_done"), "mac"
        )
        self._wrap_methods(
            Node,
            (
                "send_data", "deliver_to_app", "start", "_on_deliver",
                "_on_link_failure", "_on_mode_change",
            ),
            "node",
        )
        self._wrap_methods(
            PsmScheduler,
            ("start", "peer_awake", "broadcast_clear", "on_mode_change",
             "on_broadcast_received"),
            "psm",
        )
        notify = ("notify_data_activity", "notify_route_reply", "notify_route_member")
        self._wrap_methods(PowerManager, notify, "power")
        self._wrap_methods(Odpm, notify, "power")
        self._wrap_methods(SpanCoordinator, ("install_topology",), "power")
        routing_entry = ("on_frame", "originate_data", "on_link_failure")
        self._wrap_methods(ReactiveProtocol, routing_entry, "routing.reactive")
        self._wrap_methods(
            ProactiveProtocol, routing_entry + ("start", "_on_update"),
            "routing.proactive",
        )
        self._wrap_methods(CbrSink, ("_on_data",), "traffic")

        # -- cell phases (kept) -----------------------------------------
        def set_cell(record, args):
            scenario, protocol, rate_kbps, seed = args[:4]
            tracer.cell = "%s/p%s|%s|%g|%d" % (
                scenario.name, scenario.placement_seed, protocol, rate_kbps, seed,
            )

        self._wrap_kept(Scenario, "config", "cell.config", before=set_cell)

        def placement_before(record, args):
            record["draws_before"] = tracer.draws

        def placement_after(record, args, result):
            record["draws"] = tracer.draws - record.pop("draws_before")

        self._wrap_kept(
            Scenario, "placement", "cell.placement",
            before=placement_before, after=placement_after,
        )
        connectivity_graph = topology.__dict__["connectivity_graph"]

        @functools.wraps(connectivity_graph)
        def counted_connectivity_graph(*args, **kwargs):
            tracer.draws += 1
            return connectivity_graph(*args, **kwargs)

        setattr(topology, "connectivity_graph", counted_connectivity_graph)
        self._wrap_kept(Channel, "freeze", "cell.freeze")
        self._wrap_kept(ChannelGeometry, "build", "cell.freeze")
        self._wrap_kept(ChannelGeometry, "from_positions", "cell.freeze")
        self._wrap_kept(WirelessNetwork, "__init__", "cell.assembly")

        def count_run(record, args, result):
            network = args[0]
            nodes = network.nodes.values()
            channel = network.channel
            for name, value in (
                ("engine.events", network.sim.events_processed),
                ("channel.frames", channel.transmissions_started),
                ("channel_models.checks", channel.model_checks),
                ("channel_models.drops", channel.model_drops),
                ("channel.link_changes", channel.link_changes),
                ("channel.position_updates", channel.position_updates),
                ("mac.sends", sum(node.mac.stats.enqueued for node in nodes)),
                ("mac.retries", sum(node.mac.stats.retries for node in nodes)),
                ("mac.drops", sum(node.mac.stats.drops for node in nodes)),
                ("psm.beacons", getattr(network.psm, "beacons", 0)),
                ("routing.control_packets", result.control_packets),
                ("traffic.packets", result.packets_sent),
                ("cells", 1),
            ):
                tracer.count(name, value)

        self._wrap_kept(WirelessNetwork, "run", "cell.run", after=count_run)
        self._wrap_kept(RunResult, "from_components", "cell.serialize")
        self._wrap_kept(RunResult, "to_payload", "cell.serialize")

        # -- store, manifest, dispatch units (kept) ---------------------
        self._wrap_kept(ResultStore, "put_run", "store.write")
        self._wrap_kept(ResultStore, "get_run", "store.read")
        self._wrap_kept(ResultStore, "get_run_entry", "store.read")
        self._wrap_kept(SweepManifest, "flush", "manifest.flush")

        def unit_after(record, args, result):
            record["unit"] = "%s|%g|%s" % (args[1], args[2], tuple(args[3]))
            record["cells"] = len(args[3])
            record["worker"] = tracer.worker
            tracer.cell = None
            tracer.flush_worker()

        self._wrap_kept(runner, "run_batch", "dispatch.unit", after=unit_after)
        self._wrap_kept(runner, "run_batch_receipts", "dispatch.unit", after=unit_after)

        os.register_at_fork(after_in_child=self._after_fork)

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        """Record one kept span around a call made by the benchmark itself."""
        if not self.active:
            return fn(*args, **kwargs)
        return self._run_kept(fn, layer, name, None, None, args, kwargs)
