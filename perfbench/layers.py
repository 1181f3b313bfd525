"""Per-layer metrics: what each layer reports, what it should move, where.

:data:`LAYERS` is the layer -> metric -> workload map: for every layer
(named after the ``repro`` modules it covers) its per-layer metrics, the
end-to-end metric a change there should move, and the workloads where it
does most and least work.  :data:`BYPASS` is the machine-checked part of
the "least work" column: metrics that must read exactly zero on the
workloads that bypass the layer.  :func:`metrics` turns one collected
trace into the per-layer values.

Every ``*_s`` value is seconds summed over one traced pass; ``self_s`` is
self time (span duration minus the time of its child spans), the other
times are inclusive.
"""

from __future__ import annotations

from collections import defaultdict

FIELD_WORKLOADS = ("reactive-field", "proactive-field", "dynamic-field")
STATIC_WORKLOADS = ("reactive-field", "proactive-field", "campaign")

LAYERS = (
    ("sim.engine", ("engine.events", "engine.scheduled", "engine.fired_ratio",
                    "engine.self_s"),
     "cells_per_s", "field workloads", "campaign"),
    ("sim.phy", ("phy.rx_starts", "phy.rx_ends", "phy.self_s"),
     "cells_per_s", "reactive-field", "campaign"),
    ("core.energy_model", ("energy.charges", "energy.self_s"),
     "cells_per_s", "reactive-field", "campaign"),
    ("sim.channel fan-out", ("channel.frames", "channel.fanout",
                             "channel.rx_kept_ratio", "channel.self_s"),
     "cells_per_s", "reactive-field", "campaign"),
    ("sim.channel repair, sim.mobility", ("channel.position_updates",
                                          "channel.link_changes",
                                          "channel.repair_s", "mobility.self_s"),
     "cells_per_s", "dynamic-field", "reactive-field (never runs)"),
    ("sim.channel_models", ("channel_models.checks", "channel_models.drop_ratio",
                            "channel_models.self_s"),
     "cells_per_s", "dynamic-field", "others (the disc bypasses it)"),
    ("sim.mac, sim.node", ("mac.sends", "mac.retries", "mac.drops", "mac.self_s",
                           "node.self_s"),
     "cells_per_s", "reactive-field", "campaign"),
    ("sim.psm, power", ("psm.beacons", "psm.self_s", "power.self_s"),
     "cells_per_s", "proactive-field", "campaign"),
    ("routing (reactive, dsr, dsrh, mtpr, titan)", ("routing.reactive.self_s",
                                                    "routing.control_packets"),
     "cells_per_s", "reactive-field", "proactive-field"),
    ("routing (proactive, dsdv, dsdvh)", ("routing.proactive.updates",
                                          "routing.proactive.self_s"),
     "cells_per_s", "proactive-field", "reactive-field (zero)"),
    ("traffic", ("traffic.packets", "traffic.self_s"),
     "cells_per_s", "dynamic-field (onoff)", "campaign"),
    ("net.topology", ("cell.placement_s", "placement.draws"),
     "cells_per_s", "campaign", "field workloads (ms)"),
    ("sim.channel geometry, sim.network", ("cell.freeze_s", "cell.assembly_s"),
     "cells_per_s", "campaign", "field workloads"),
    ("experiments.runner, metrics.collectors", ("cell.run_s", "cell.serialize_s"),
     "cells_per_s", "all", "-"),
    ("experiments.parallel, costmodel", ("dispatch.units", "dispatch.utilization",
                                         "dispatch.parent_busy_s",
                                         "dispatch.retries",
                                         "dispatch.receipts_rejected"),
     "cells_per_s", "campaign", "field workloads (serial)"),
    ("experiments.store, backends (writes)", ("store.writes", "store.write_s",
                                              "store.bytes_written"),
     "cells_per_s", "campaign cold pass", "field workloads"),
    ("experiments.store, backends (reads)", ("store.reads", "store.read_s",
                                             "store.quarantined"),
     "cached_cells_per_s", "campaign cached pass", "field workloads"),
    ("experiments.resilience", ("manifest.flushes", "manifest.flush_s"),
     "cells_per_s", "campaign", "field workloads"),
    ("report", ("report.decode_s", "report.render_s", "report.bytes"),
     "report_s", "campaign", "field workloads"),
    ("imports", ("import.numpy_s", "import.scipy_s", "import.networkx_s",
                 "import.repro_s"),
     "setup_s", "all", "-"),
    ("tracing", ("trace.overhead",), "-", "all", "-"),
)

RATIOS = {
    "engine.fired_ratio", "channel.fanout", "channel.rx_kept_ratio",
    "channel_models.drop_ratio", "dispatch.utilization", "trace.overhead",
}


def unit(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name == "store.bytes_written":
        return "bytes"
    return "count"


METRICS = tuple(name for _, names, _, _, _ in LAYERS for name in names)
#: Counts must repeat exactly on two traced passes of one seed.
COUNTS = tuple(name for name in METRICS if unit(name) in ("count", "bytes"))

#: metric -> workloads that bypass its layer, where it must read zero.
BYPASS = {
    "dispatch.units": FIELD_WORKLOADS,
    "store.writes": FIELD_WORKLOADS,
    "store.reads": FIELD_WORKLOADS,
    "manifest.flushes": FIELD_WORKLOADS,
    "report.bytes": FIELD_WORKLOADS,
    "routing.reactive.self_s": ("proactive-field",),
    "routing.proactive.updates": ("reactive-field", "dynamic-field", "campaign"),
    "channel.position_updates": STATIC_WORKLOADS,
    "mobility.self_s": STATIC_WORKLOADS,
    "channel_models.checks": STATIC_WORKLOADS,
}

#: Simulator layers ranked by self time in the summary.
SIM_LAYERS = (
    "engine", "phy", "energy", "channel", "channel.repair", "channel_models",
    "mac", "node", "psm", "power", "routing.reactive", "routing.proactive",
    "traffic", "mobility",
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def self_times(trace: dict) -> dict[str, float]:
    """Self seconds per layer over hot and kept spans.

    Each hot span's measured self time loses the tracer's calibrated cost
    inside it, and its parent layer loses the cost the call into the
    wrapper left there (see :meth:`tracing.Tracer.calibrate`).
    """
    inside = trace["calibration"]["inside_s"]
    outside = trace["calibration"]["outside_s"]
    totals: dict[str, float] = defaultdict(float)
    for layer, _name, parent, count, self_s in trace["hot"]:
        totals[layer] += self_s - count * inside
        if parent is not None:
            totals[parent] -= count * outside
    for span in trace["spans"]:
        totals[span["layer"]] += span["self_s"]
    return dict(totals)


def _calls(trace: dict) -> dict[str, int]:
    """Hot-span call counts by span name."""
    calls: dict[str, int] = defaultdict(int)
    for _layer, name, _parent, count, _self in trace["hot"]:
        calls[name] += count
    return calls


def metrics(trace: dict, extra: dict) -> dict[str, float]:
    """Per-layer values of one traced pass.

    ``trace`` is a :meth:`~tracing.Tracer.collect` result; ``extra``
    carries what the benchmark measured around the program instead of
    inside it (dispatch utilization and parent CPU, store bytes, report
    bytes, quarantines).
    """
    counts = trace["counts"]
    selfs = self_times(trace)
    calls = _calls(trace)
    spans: dict[str, list[dict]] = defaultdict(list)
    for span in trace["spans"]:
        spans[span["layer"]].append(span)

    def inclusive(layer: str) -> float:
        return sum(span["seconds"] for span in spans[layer])

    units = [span for span in spans["dispatch.unit"] if span["worker"]]
    rx_starts = calls["Phy.rx_start"]
    frames = counts.get("channel.frames", 0)
    checks = counts.get("channel_models.checks", 0)
    drops = counts.get("channel_models.drops", 0)
    return {
        "engine.events": counts.get("engine.events", 0),
        "engine.scheduled": counts.get("engine.scheduled", 0),
        "engine.fired_ratio": _ratio(
            counts.get("engine.events", 0), counts.get("engine.scheduled", 0)
        ),
        "engine.self_s": selfs.get("engine", 0.0),
        "phy.rx_starts": rx_starts,
        "phy.rx_ends": calls["Phy.rx_end"],
        "phy.self_s": selfs.get("phy", 0.0),
        "energy.charges": sum(
            count for name, count in calls.items()
            if name.startswith("NodeEnergy.charge_")
        ),
        "energy.self_s": selfs.get("energy", 0.0),
        "channel.frames": frames,
        "channel.fanout": _ratio(rx_starts + drops, frames),
        "channel.rx_kept_ratio": _ratio(counts.get("phy.rx_kept", 0), rx_starts),
        "channel.self_s": selfs.get("channel", 0.0),
        "channel.position_updates": counts.get("channel.position_updates", 0),
        "channel.link_changes": counts.get("channel.link_changes", 0),
        "channel.repair_s": selfs.get("channel.repair", 0.0),
        "mobility.self_s": selfs.get("mobility", 0.0),
        "channel_models.checks": checks,
        "channel_models.drop_ratio": _ratio(drops, checks),
        "channel_models.self_s": selfs.get("channel_models", 0.0),
        "mac.sends": counts.get("mac.sends", 0),
        "mac.retries": counts.get("mac.retries", 0),
        "mac.drops": counts.get("mac.drops", 0),
        "mac.self_s": selfs.get("mac", 0.0),
        "node.self_s": selfs.get("node", 0.0),
        "psm.beacons": counts.get("psm.beacons", 0),
        "psm.self_s": selfs.get("psm", 0.0),
        "power.self_s": selfs.get("power", 0.0),
        "routing.reactive.self_s": selfs.get("routing.reactive", 0.0),
        "routing.control_packets": counts.get("routing.control_packets", 0),
        "routing.proactive.updates": calls["ProactiveProtocol._on_update"],
        "routing.proactive.self_s": selfs.get("routing.proactive", 0.0),
        "traffic.packets": counts.get("traffic.packets", 0),
        "traffic.self_s": selfs.get("traffic", 0.0),
        "cell.placement_s": inclusive("cell.placement"),
        "placement.draws": sum(span["draws"] for span in spans["cell.placement"]),
        "cell.freeze_s": selfs.get("cell.freeze", 0.0),
        "cell.assembly_s": selfs.get("cell.assembly", 0.0),
        "cell.run_s": inclusive("cell.run"),
        "cell.serialize_s": selfs.get("cell.serialize", 0.0),
        "dispatch.units": len(units),
        "dispatch.utilization": extra.get("utilization", 0.0),
        "dispatch.parent_busy_s": extra.get("parent_cpu_s", 0.0),
        "dispatch.retries": len(units) - len({span["unit"] for span in units}),
        "dispatch.receipts_rejected": sum(
            span["cells"] for span in units if span["name"] == "runner.run_batch"
        ),
        "store.writes": len(spans["store.write"]),
        "store.write_s": inclusive("store.write"),
        "store.bytes_written": extra.get("store_bytes", 0),
        "store.reads": len(spans["store.read"]),
        "store.read_s": inclusive("store.read"),
        "store.quarantined": extra.get("quarantined", 0),
        "manifest.flushes": len(spans["manifest.flush"]),
        "manifest.flush_s": inclusive("manifest.flush"),
        "report.decode_s": inclusive("report.decode"),
        "report.render_s": inclusive("report.render"),
        "report.bytes": extra.get("report_bytes", 0),
    }


def consistency(trace: dict) -> list[str]:
    """Cross-checks between span counts and the program's own counters."""
    counts = trace["counts"]
    calls = _calls(trace)
    fired = sum(count for name, count in calls.items() if name.startswith("event:"))
    problems = []
    for what, spans, counter in (
        ("fired event spans vs events_processed", fired, counts.get("engine.events", 0)),
        ("begin_transmission spans vs transmissions_started",
         calls["Channel.begin_transmission"], counts.get("channel.frames", 0)),
        ("Mac.send spans vs MacStats.enqueued", calls["Mac.send"],
         counts.get("mac.sends", 0)),
    ):
        if spans != counter:
            problems.append("%s: %d != %d" % (what, spans, counter))
    return problems
