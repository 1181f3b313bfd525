"""Command-line interface: regenerate any paper artifact from the shell.

Usage::

    python -m repro table1
    python -m repro fig7
    python -m repro fig9  --scale smoke
    python -m repro fig14 --scale bench
    python -m repro table2 --scale smoke
    python -m repro sweep --scenario grid --jobs 4 --cache-dir ~/.cache/repro
    python -m repro run --protocol TITAN-PC --rate 4 --nodes 40
    python -m repro lifetime --protocol TITAN-PC
    python -m repro fig9 --scale smoke --profile

Figures render as ASCII plots (see :mod:`repro.metrics.plotting`); tables
print aligned rows.  ``--scale`` selects ``smoke`` (seconds), ``bench``
(default, minutes) or ``paper`` (the full §5.2 durations).

Every grid-backed command (``fig8``–``fig16``, ``table2``, ``sweep``)
accepts ``--jobs N`` (fan the grid out across N worker processes; results
are bit-identical to ``--jobs 1``), ``--cache-dir DIR`` (reuse completed
runs from a persistent result store) and ``--progress`` (progress/ETA on
stderr, counted in cells).  ``run`` and ``lifetime`` execute a single ad
hoc simulation and take none of these.
See :mod:`repro.experiments.parallel` and :mod:`repro.experiments.store`.

``cache ls`` and ``cache verify`` inspect a ``--cache-dir`` store without
simulating: entry counts per scenario fingerprint, and an integrity check
over a sample of stored entries (``verify --repair`` additionally
quarantines every corrupt entry it finds so the next sweep re-simulates
those cells).  Both take ``--json`` for machine-readable output (one JSON
object per line).  ``cache merge SRC... DST`` folds shard stores into one
campaign store with digest-verified conflict detection, and ``report``
renders a store (+ optional manifest) into a standalone HTML campaign
report — also available mid-pipeline as ``sweep --report PATH``.  Stores
are backend-pluggable (``--cache-backend json|sqlite``, auto-detected on
reuse); see :mod:`repro.experiments.backends` and :mod:`repro.report`.

Every grid-backed command also takes the resilience flags ``--retries N``
(retry transiently-failed cells — worker crashes, timeouts — with
exponential backoff), ``--timeout S`` (wall-clock budget per cell) and
``--continue-on-error`` (finish the healthy cells, then report the failed
ones and exit 1 instead of aborting mid-grid).  ``sweep`` adds
checkpointing on top: ``--manifest PATH`` records per-cell progress next
to the cache dir, Ctrl-C drains in-flight cells and exits 130 with a
resume hint, and ``--resume PATH`` picks the campaign back up, skipping
everything already done.  See :mod:`repro.experiments.resilience` and
``docs/robustness.md``.

Every grid-backed command also accepts ``--mobility VMAX``
(random-waypoint movement, speeds 1–VMAX m/s) and ``--churn N`` (N relay
failures mid-run), turning any static preset into a dynamic-topology
variant — see :mod:`repro.sim.mobility` and ``docs/scenarios.md``.  The
workload axis is just as pluggable: ``--traffic MODEL[:PARAM=V,...]``
swaps every flow's generator (``cbr``, ``poisson``, ``onoff``, ``vbr`` —
see :mod:`repro.traffic.models`) and ``--pattern`` re-selects endpoints
(``random``, ``convergecast``, ``pairs``).  So is the link axis:
``--channel MODEL[:PARAM=V,...]`` swaps the propagation model (``disc``,
``prob``, ``rssi-margin`` — see :mod:`repro.sim.channel_models`) and
``--radio-tech NAME=FRACTION[,...]`` equips node fractions with
heterogeneous radio tech profiles.  The ``sweep`` command's
``--scenario`` choices include the dynamic presets ``mobile`` /
``churn-grid``, the workload presets ``bursty`` / ``convergecast-grid``
and the lossy-channel preset ``lossy``; ``run`` and ``lifetime`` stay
static CBR-only.

Every command also accepts ``--profile`` (cProfile the command, print a
top-25 hot-spot report to stderr; add ``--profile-dump PATH`` to keep the
raw stats).  See :mod:`repro.perf` and ``docs/performance.md``.

``cli-doc`` regenerates ``docs/cli.md`` from this parser tree; a drift
test (``tests/test_docs.py``) fails when the committed doc goes stale.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Callable

from repro.core.analytical import fig7_curves
from repro.core.radio import CARD_REGISTRY
from repro.experiments.resilience import (
    INTERRUPT_EXIT_CODE,
    FaultPolicy,
    InterruptGuard,
    ManifestMismatchError,
    SweepFailureReport,
    SweepInterrupted,
    SweepManifest,
)
from repro.experiments.runner import frozen_route_goodput, sweep
from repro.experiments.scenarios import (
    HIGH_RATES_KBPS,
    Scenario,
    bursty_small,
    churn_grid,
    convergecast_grid,
    density_network,
    grid_network,
    large_grid,
    large_network,
    lossy_small,
    mobile_small,
    small_network,
)
from repro.experiments.store import ResultStore
from repro.metrics.plotting import AsciiPlot
from repro.sim.channel_models import (
    parse_channel_spec,
    parse_tech_assignments,
)
from repro.sim.mobility import MobilitySpec
from repro.traffic.flows import FLOW_PATTERNS
from repro.traffic.models import parse_traffic_spec

#: ``--scenario`` choices of the ``sweep`` command.
SCENARIOS: dict[str, Callable[..., Scenario]] = {
    "small": small_network,
    "large": large_network,
    "grid": grid_network,
    "density300": lambda scale: density_network(300, scale=scale),
    "density400": lambda scale: density_network(400, scale=scale),
    "mobile": mobile_small,
    "churn-grid": churn_grid,
    "bursty": bursty_small,
    "lossy": lossy_small,
    "convergecast-grid": convergecast_grid,
    "large-grid-1k": lambda scale: large_grid(1024, scale=scale),
    "large-grid-2k": lambda scale: large_grid(2025, scale=scale),
    "large-grid-5k": lambda scale: large_grid(5041, scale=scale),
}


def _store_from_args(args: argparse.Namespace) -> ResultStore | None:
    """Build the result store requested by ``--cache-dir``, if any.

    ``--cache-backend`` selects the physical layout for a fresh store;
    without it the backend is auto-detected from what the directory
    already holds (sqlite if ``store.sqlite`` exists, else local JSON).
    """
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir:
        return None
    return ResultStore(cache_dir, backend=getattr(args, "cache_backend", None))


def _policy_from_args(args: argparse.Namespace) -> FaultPolicy:
    """The :class:`FaultPolicy` requested by the resilience flags."""
    return FaultPolicy(
        max_retries=getattr(args, "retries", 0) or 0,
        cell_timeout_s=getattr(args, "timeout", None),
        on_error=(
            "continue"
            if getattr(args, "continue_on_error", False)
            else "fail"
        ),
    )


def _resilience_from_args(
    args: argparse.Namespace,
) -> tuple[FaultPolicy, SweepFailureReport | None]:
    """Policy plus the failure collector ``continue`` mode needs."""
    policy = _policy_from_args(args)
    failures = SweepFailureReport() if policy.continue_on_error else None
    return policy, failures


def _report_failures(failures: SweepFailureReport | None) -> None:
    """Render a non-empty failure report to stderr and exit nonzero.

    Called after a ``--continue-on-error`` command finished its healthy
    cells: the artifact (figure/table/sweep rows) has already printed, so
    the report and the exit code tell scripts the output is partial.
    """
    if failures:
        print(failures.render(), file=sys.stderr, flush=True)
        raise SystemExit(1)


def _apply_dynamics(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    """Overlay the dynamic-topology and workload knobs onto a preset.

    ``--mobility VMAX`` attaches random-waypoint movement (1–VMAX m/s,
    10 s pauses, 1 s ticks); ``--churn N`` schedules N relay failures in
    the middle of the run; ``--traffic MODEL[:P=V,...]`` swaps every
    flow's generator; ``--pattern`` re-selects endpoints;
    ``--channel MODEL[:P=V,...]`` swaps the propagation model and
    ``--radio-tech NAME=FRACTION[,...]`` mixes radio technologies.  All
    of them change the result-store cell key, so cached runs are never
    confused across variants.
    """
    vmax = getattr(args, "mobility", None)
    if vmax:
        scenario = replace(
            scenario,
            mobility=MobilitySpec(
                v_min=min(1.0, float(vmax)), v_max=float(vmax), pause=10.0
            ),
        )
    failures = getattr(args, "churn", None)
    if failures:
        scenario = scenario.with_churn(failures=failures)
    traffic = getattr(args, "traffic", None)
    if traffic is not None:
        scenario = scenario.with_traffic(traffic)
    pattern = getattr(args, "pattern", None)
    if pattern is not None:
        scenario = scenario.with_pattern(pattern)
    channel = getattr(args, "channel", None)
    tech = getattr(args, "radio_tech", None)
    if channel is not None or tech is not None:
        spec = channel if channel is not None else scenario.channel
        if tech is not None:
            # replace() re-runs ChannelSpec validation; surface an unknown
            # profile or bad fraction as a clean CLI error, not mid-sweep.
            try:
                spec = replace(spec, tech=tech)
            except ValueError as exc:
                raise SystemExit("error: --radio-tech: %s" % exc) from None
        scenario = scenario.with_channel(spec)
    return scenario


def _cmd_table1(args: argparse.Namespace) -> None:
    print("Table 1: radio parameters (mW)")
    print("%-24s %8s %8s %8s  %s" % ("Card", "P_idle", "P_rx", "P_base",
                                     "P_t(d) [mW]"))
    for key, card in sorted(CARD_REGISTRY.items()):
        print(
            "%-24s %8.1f %8.1f %8.1f  %.2g * d^%g"
            % (
                card.name,
                card.p_idle * 1e3,
                card.p_rx * 1e3,
                card.p_base * 1e3,
                card.alpha2 * 1e3,
                card.path_loss_exponent,
            )
        )


def _cmd_fig7(args: argparse.Namespace) -> None:
    plot = AsciiPlot(
        title="Fig. 7: m_opt for different cards",
        xlabel="Bandwidth utilization (R/B)",
        ylabel="Hop count (m_opt)",
    )
    for curve in fig7_curves():
        plot.add_series(curve.label, curve.utilizations, curve.hop_counts)
    print(plot.render())


def _field_figure(args: argparse.Namespace, metric: str, title: str,
                  scenario_factory) -> None:
    scenario = _apply_dynamics(scenario_factory(scale=args.scale), args)
    rates = scenario.rates_kbps if args.scale == "paper" else (2.0, 4.0, 6.0)
    policy, failures = _resilience_from_args(args)
    grid = sweep(scenario, rates_kbps=rates, jobs=args.jobs,
                 store=_store_from_args(args), progress=args.progress,
                 policy=policy, failures=failures)
    plot = AsciiPlot(title=title, xlabel="Rate (Kbit/s)",
                     ylabel=metric.replace("_", " "))
    for protocol in scenario.protocols:
        # Under --continue-on-error a fully-failed (protocol, rate) group
        # is absent from the grid; plot the points that survived.
        points = [
            (rate, getattr(grid[(protocol, rate)], metric).mean)
            for rate in rates
            if (protocol, rate) in grid
        ]
        if points:
            plot.add_series(protocol, [p[0] for p in points],
                            [p[1] for p in points])
    print(plot.render())
    _report_failures(failures)


def _cmd_fig8(args):
    _field_figure(args, "delivery_ratio",
                  "Fig. 8: delivery ratio, 500x500 m^2", small_network)


def _cmd_fig9(args):
    _field_figure(args, "energy_goodput",
                  "Fig. 9: energy goodput (bit/J), 500x500 m^2", small_network)


def _cmd_fig11(args):
    _field_figure(args, "delivery_ratio",
                  "Fig. 11: delivery ratio, 1300x1300 m^2", large_network)


def _cmd_fig12(args):
    _field_figure(args, "energy_goodput",
                  "Fig. 12: energy goodput (bit/J), 1300x1300 m^2",
                  large_network)


def _cmd_fig10(args: argparse.Namespace) -> None:
    store = _store_from_args(args)
    rates = (2.0, 4.0, 6.0)
    protocols = ("TITAN-PC", "DSR-ODPM")
    policy, failures = _resilience_from_args(args)
    plot = AsciiPlot(
        title="Fig. 10: transmit energy (J)",
        xlabel="Rate (Kbit/s)", ylabel="Transmit energy (J)",
    )
    for label, factory in (("500x500", small_network),
                           ("1300x1300", large_network)):
        scenario = _apply_dynamics(factory(scale=args.scale), args)
        # One orchestrated grid per scenario so --jobs spans the whole
        # protocol x rate x seed block, not one run_many at a time.
        grid = sweep(scenario, protocols=protocols, rates_kbps=rates,
                     jobs=args.jobs, store=store, progress=args.progress,
                     policy=policy, failures=failures)
        for protocol in protocols:
            points = [
                (rate, grid[(protocol, rate)].transmit_energy.mean)
                for rate in rates
                if (protocol, rate) in grid
            ]
            if points:
                plot.add_series("%s (%s)" % (protocol, label),
                                [p[0] for p in points],
                                [p[1] for p in points])
    print(plot.render())
    _report_failures(failures)


def _cmd_table2(args: argparse.Namespace) -> None:
    store = _store_from_args(args)
    policy, failures = _resilience_from_args(args)
    print("Table 2: performance with node density (4 Kbit/s per flow)")
    print("%-8s %-14s %-22s %-22s" % ("# nodes", "Protocol",
                                      "Delivery ratio", "Goodput (bit/J)"))
    for node_count in (300, 400):
        scenario = _apply_dynamics(
            density_network(node_count, scale=args.scale), args
        )
        grid = sweep(scenario, rates_kbps=(4.0,), jobs=args.jobs,
                     store=store, progress=args.progress, policy=policy,
                     failures=failures)
        for protocol in scenario.protocols:
            agg = grid.get((protocol, 4.0))
            if agg is None:  # every seed failed under --continue-on-error
                continue
            print(
                "%-8d %-14s %6.3f ± %-12.3f %8.1f ± %-10.1f"
                % (
                    node_count, protocol,
                    agg.delivery_ratio.mean, agg.delivery_ratio.half_width,
                    agg.energy_goodput.mean, agg.energy_goodput.half_width,
                )
            )
    _report_failures(failures)


def _grid_figure(args: argparse.Namespace, rates, scheduling: str,
                 title: str) -> None:
    from repro.experiments.parallel import discover_routes

    scenario = _apply_dynamics(grid_network(scale=args.scale), args)
    store = _store_from_args(args)
    policy, failures = _resilience_from_args(args)
    # The probe simulations are the expensive half; fan them out across
    # --jobs workers (and the route cache) before the analytic pass.
    # With --mobility/--churn the probe runs under the dynamic topology,
    # while the frozen-route energy evaluation stays on the *initial*
    # placement — routes are frozen at probe end by definition (§5.2.3).
    # Likewise --traffic/--pattern shape the probe (which routes
    # stabilize, and between which endpoints), but the analytic pass
    # evaluates the frozen routes at each *nominal* rate — the figure's
    # x-axis — not at a bursty model's mean offered load.
    routes_map = discover_routes(
        scenario, scenario.protocols, jobs=args.jobs, store=store,
        progress=args.progress, policy=policy, failures=failures,
    )
    plot = AsciiPlot(title=title, xlabel="Rate (Kbit/s)",
                     ylabel="Energy goodput (Kbit/J)")
    for protocol in scenario.protocols:
        if protocol not in routes_map:
            continue  # probe failed under --continue-on-error
        points = frozen_route_goodput(
            scenario, protocol, tuple(rates), scheduling, duration=100.0,
            routes=routes_map[protocol],
        )
        plot.add_series(
            protocol, rates, [p.energy_goodput / 1e3 for p in points]
        )
    print(plot.render())
    _report_failures(failures)


def _cmd_fig13(args):
    _grid_figure(args, [2.0, 3.0, 4.0, 5.0], "perfect",
                 "Fig. 13: goodput, low rates, perfect sleep scheduling")


def _cmd_fig14(args):
    _grid_figure(args, [2.0, 3.0, 4.0, 5.0], "odpm",
                 "Fig. 14: goodput, low rates, ODPM scheduling")


def _cmd_fig15(args):
    _grid_figure(args, list(HIGH_RATES_KBPS), "perfect",
                 "Fig. 15: goodput, high rates, perfect sleep scheduling")


def _cmd_fig16(args):
    _grid_figure(args, list(HIGH_RATES_KBPS), "odpm",
                 "Fig. 16: goodput, high rates, ODPM scheduling")


def _cmd_run(args: argparse.Namespace) -> None:
    from repro import quick_run

    result = quick_run(
        protocol=args.protocol,
        node_count=args.nodes,
        rate_kbps=args.rate,
        duration=args.duration,
        seed=args.seed,
        card_key=args.card,
    )
    print("protocol:        %s" % args.protocol)
    print("delivery ratio:  %.3f" % result.delivery_ratio)
    print("energy goodput:  %.1f bit/J" % result.energy_goodput)
    print("network energy:  %.1f J" % result.e_network)
    print("transmit energy: %.2f J" % result.transmit_energy)
    print("control packets: %d" % result.control_packets)
    print("relays used:     %d" % result.relays_used)


def _cmd_lifetime(args: argparse.Namespace) -> None:
    import random

    from repro.core.radio import get_card
    from repro.metrics.lifetime import lifetime_from_run
    from repro.net.topology import uniform_random_placement
    from repro.sim.network import NetworkConfig, WirelessNetwork
    from repro.traffic.flows import random_flows

    card = get_card(args.card)
    rng = random.Random(args.seed)
    placement = uniform_random_placement(
        args.nodes, 400.0, 400.0, rng,
        require_connected_range=card.max_range,
    )
    flows = random_flows(placement.node_ids, 5, args.rate * 1000, rng,
                         start_window=(5.0, 10.0))
    network = WirelessNetwork(NetworkConfig(
        placement=placement, card=card, protocol=args.protocol,
        flows=flows, duration=args.duration, seed=args.seed,
    ))
    network.run()
    report = lifetime_from_run(network)
    print("protocol:            %s" % args.protocol)
    print("time to first death: %.0f s" % report.time_to_first_death)
    if report.time_to_partition is not None:
        print("time to partition:   %.0f s" % report.time_to_partition)
    else:
        print("time to partition:   never (within battery horizon)")
    print("survival curve (t, fraction alive):")
    for t, fraction in report.survival_curve(points=6):
        print("  %8.0f s  %.2f" % (t, fraction))


def _manifest_from_args(
    args: argparse.Namespace, store: ResultStore | None
) -> SweepManifest | None:
    """The checkpoint manifest requested by ``--manifest``/``--resume``."""
    import pathlib

    path = getattr(args, "resume", None) or getattr(args, "manifest", None)
    if not path:
        return None
    if store is None:
        raise SystemExit(
            "error: --manifest/--resume need --cache-dir (the manifest "
            "tracks campaign state; the completed results themselves live "
            "in the result store)"
        )
    if getattr(args, "resume", None) and not pathlib.Path(path).is_file():
        raise SystemExit(
            "error: no sweep manifest at %s (--resume expects a "
            "checkpoint written by a previous --manifest run; use "
            "--manifest to start a new campaign)" % path
        )
    try:
        return SweepManifest.open(path)
    except (ValueError, OSError) as exc:
        raise SystemExit("error: %s" % exc)


def _cmd_sweep(args: argparse.Namespace) -> None:
    scenario = _apply_dynamics(SCENARIOS[args.scenario](scale=args.scale), args)
    protocols = tuple(args.protocols) if args.protocols else None
    rates = tuple(args.rates) if args.rates else None
    store = _store_from_args(args)
    policy, failures = _resilience_from_args(args)
    manifest = _manifest_from_args(args, store)
    guard = InterruptGuard()
    try:
        with guard:
            grid = sweep(
                scenario,
                protocols=protocols,
                rates_kbps=rates,
                jobs=args.jobs,
                store=store,
                progress=args.progress,
                policy=policy,
                manifest=manifest,
                failures=failures,
                interrupt=guard,
            )
    except ManifestMismatchError as exc:
        raise SystemExit("error: %s" % exc)
    except SweepInterrupted as exc:
        done = exc.done if exc.done is not None else "?"
        total = exc.total if exc.total is not None else "?"
        print(
            "sweep interrupted: %s/%s cells done%s"
            % (
                done,
                total,
                ", checkpoint flushed" if exc.manifest_path else "",
            ),
            file=sys.stderr,
            flush=True,
        )
        if exc.manifest_path:
            print(
                "resume with: repro sweep --scenario %s --cache-dir %s "
                "--resume %s"
                % (args.scenario, args.cache_dir, exc.manifest_path),
                file=sys.stderr,
                flush=True,
            )
        raise SystemExit(INTERRUPT_EXIT_CODE)
    print(
        "Sweep: %s  (%d protocols x %d rates x %d seeds, jobs=%d)"
        % (
            scenario.name,
            len(protocols or scenario.protocols),
            len(rates or scenario.rates_kbps),
            scenario.runs,
            args.jobs,
        )
    )
    print(
        "%-26s %10s %-18s %-22s %12s"
        % ("Protocol", "Kbit/s", "Delivery ratio", "Goodput (bit/J)",
           "E_net (J)")
    )
    for (protocol, rate), agg in sorted(grid.items()):
        print(
            "%-26s %10.1f %6.3f +- %-8.3f %10.1f +- %-9.1f %12.1f"
            % (
                protocol, rate,
                agg.delivery_ratio.mean, agg.delivery_ratio.half_width,
                agg.energy_goodput.mean, agg.energy_goodput.half_width,
                agg.e_network.mean,
            )
        )
    if store is not None:
        print(
            "cache: %d hits, %d misses, %d new runs written (%s)"
            % (store.hits, store.misses, store.writes, store.root)
        )
        if store.quarantined:
            print(
                "cache: %d corrupt entr%s quarantined and re-simulated"
                % (
                    store.quarantined,
                    "y" if store.quarantined == 1 else "ies",
                )
            )
    if manifest is not None:
        print("manifest: %s (%s)" % (manifest.path, manifest.describe()))
    if getattr(args, "report", None):
        if store is None:
            raise SystemExit(
                "error: --report needs --cache-dir (the report renders "
                "the completed runs from the result store)"
            )
        from repro.report import build_campaign, render_html

        campaign = build_campaign(store, manifest=manifest)
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(render_html(campaign))
        print(
            "report: %s (%d runs, campaign digest %s)"
            % (args.report, campaign.total_runs, campaign.campaign_digest[:12])
        )
    _report_failures(failures)


def _existing_store(cache_dir: str) -> ResultStore:
    """A ResultStore over a directory that must already exist.

    Inspection commands must not mkdir: a typo'd ``--cache-dir`` would
    otherwise silently create an empty store and report it healthy.
    """
    import pathlib

    if not pathlib.Path(cache_dir).is_dir():
        raise SystemExit(
            "error: no result store at %s (cache ls/verify never create "
            "one; check --cache-dir)" % cache_dir
        )
    return ResultStore(cache_dir)


def _cmd_cache_ls(args: argparse.Namespace) -> None:
    """Entry counts per scenario fingerprint for a result store.

    A missing directory lists as an empty store (exit 0) — ``ls`` answers
    "what is cached there?", and the honest answer for a store nobody has
    written yet is *nothing*.  It still never creates the directory;
    ``cache verify`` keeps rejecting missing stores, because an integrity
    check over nothing would report misleading health.

    Quarantined entries are reported separately from the totals: a
    quarantined entry is a pending re-simulation, not inventory, so
    counting it into ``total`` would overstate what the store can serve.

    With ``--json``, emits one JSON object per kind (one per line) —
    ``{"kind", "total", "quarantined", "scenarios"}`` — for CI and other
    tooling; the store identity line moves to stderr so stdout is pure
    JSONL.
    """
    import json as _json
    import pathlib

    if not pathlib.Path(args.cache_dir).is_dir():
        if args.json:
            for kind in ("runs", "routes"):
                print(_json.dumps(
                    {"kind": kind, "total": 0, "quarantined": 0,
                     "scenarios": {}},
                    sort_keys=True,
                ))
            return
        print("Result store: %s  (0 entries)" % args.cache_dir)
        for kind in ("runs", "routes"):
            print("%-7s 0 entries" % kind)
        return
    store = _existing_store(args.cache_dir)
    report = store.summary()
    if args.json:
        for kind in ("runs", "routes"):
            section = report[kind]
            print(_json.dumps(
                {"kind": kind, "total": section["total"],
                 "quarantined": section["quarantined"],
                 "scenarios": section["scenarios"]},
                sort_keys=True,
            ))
        return
    total = sum(section["total"] for section in report.values())
    print("Result store: %s  (%d entries)" % (store.root, total))
    for kind in ("runs", "routes"):
        section = report[kind]
        quarantined = ""
        if section["quarantined"]:
            quarantined = "  (+%d quarantined, pending re-simulation)" % (
                section["quarantined"]
            )
        print("%-7s %d entries%s" % (kind, section["total"], quarantined))
        rows = sorted(
            section["scenarios"].items(),
            key=lambda item: (-item[1]["count"], item[0]),
        )
        for fp_id, group in rows:
            label = group.get("name") or fp_id
            detail = ""
            if group.get("node_count") is not None:
                detail = "  (%d nodes, cache v%s)" % (
                    group["node_count"],
                    group.get("version"),
                )
            print(
                "  %-14s %-24s %6d%s"
                % (fp_id if group.get("name") else "", label,
                   group["count"], detail)
            )


def _cmd_cache_verify(args: argparse.Namespace) -> None:
    """Integrity-check a sample of stored entries; exit 1 on corruption.

    With ``--repair``, corrupt entries are quarantined
    (``<key>.json.quarantine``) so the next sweep transparently
    re-simulates those cells; the command then exits 0 if every failure
    was successfully set aside.  Stale temp files from crashed writers
    are always reaped.

    With ``--json``, emits the verdict as a single JSON object on stdout
    — ``{"checked", "ok", "legacy", "quarantined", "reaped", "total",
    "failures": [[key, why], ...]}`` — with the exit-code contract
    unchanged.
    """
    import json as _json

    store = _existing_store(args.cache_dir)
    reaped = store.clean_tmp()
    total = len(store)  # before repair quarantines anything
    report = store.verify_sample(sample=args.sample, repair=args.repair)
    if args.json:
        print(_json.dumps(
            {"checked": report["checked"], "ok": report["ok"],
             "legacy": report["legacy"],
             "quarantined": report["quarantined"], "reaped": reaped,
             "total": total,
             "failures": [list(item) for item in report["failures"]]},
            sort_keys=True,
        ))
        if (
            report["failures"]
            and report["quarantined"] < len(report["failures"])
        ):
            raise SystemExit(1)
        return
    print(
        "Verified %d of %d entries in %s: %d ok (%d legacy, "
        "written before payload digests), %d failed"
        % (
            report["checked"],
            total,
            store.root,
            report["ok"],
            report["legacy"],
            len(report["failures"]),
        )
    )
    for _key, why in report["failures"]:
        print("  FAIL %s" % why)
    if reaped:
        print("reaped %d stale temp file(s)" % reaped)
    if args.repair and report["quarantined"]:
        print(
            "quarantined %d corrupt entr%s; the next sweep re-simulates "
            "those cells"
            % (
                report["quarantined"],
                "y" if report["quarantined"] == 1 else "ies",
            )
        )
    if report["failures"] and report["quarantined"] < len(report["failures"]):
        raise SystemExit(1)


def _cmd_report(args: argparse.Namespace) -> None:
    """Render a completed campaign store into one standalone HTML file.

    Inspection semantics like ``cache ls``/``verify``: the store must
    already exist (a report over a typo'd ``--cache-dir`` would be an
    empty document claiming an empty campaign) and is never created.
    The output is deterministic for a fixed store — no timestamps, no
    network references — so regenerating a report is a byte-level no-op
    unless the store changed.
    """
    from repro.report import build_campaign, render_html

    store = _existing_store(args.cache_dir)
    manifest = None
    if args.manifest:
        try:
            manifest = SweepManifest.load(args.manifest)
        except (ValueError, OSError) as exc:
            raise SystemExit("error: %s" % exc)
    campaign = build_campaign(store, manifest=manifest)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(render_html(campaign))
    print(
        "report: %s (%d runs in %d group(s), campaign digest %s)"
        % (
            args.out,
            campaign.total_runs,
            len(campaign.groups),
            campaign.campaign_digest[:12],
        )
    )


def _cmd_cache_merge(args: argparse.Namespace) -> None:
    """Fold shard stores into one campaign store (digest-verified).

    Sources must already exist (merging from a typo'd path would merge
    nothing and claim success); the destination is created on demand and
    may already hold earlier shards — merging is incremental and
    idempotent.  Conflicting digests for the same key abort with exit 1
    and name the key; ``--manifests`` additionally merges the shards'
    sweep manifests into one campaign checkpoint next to the data.
    """
    import pathlib

    from repro.experiments.backends import StoreMergeConflict, merge_stores

    sources = []
    for source_dir in args.sources:
        if not pathlib.Path(source_dir).is_dir():
            raise SystemExit(
                "error: no result store at %s (cache merge never creates "
                "source stores; check the paths)" % source_dir
            )
        sources.append(ResultStore(source_dir))
    dest = ResultStore(args.dest, backend=args.backend)
    try:
        report = merge_stores(sources, dest)
    except StoreMergeConflict as exc:
        raise SystemExit("error: %s" % exc)
    print("%s -> %s" % (report, dest.root))
    if args.manifests:
        # Default lands *next to* the store, not inside it: the dest dir
        # stays pure entry data, byte-comparable to any other store.
        merged_path = args.merged_manifest or (
            args.dest.rstrip("/\\") + ".manifest.json"
        )
        try:
            shards = [SweepManifest.load(path) for path in args.manifests]
            merged = SweepManifest.merge(shards, merged_path)
        except (ManifestMismatchError, ValueError, OSError) as exc:
            raise SystemExit("error: %s" % exc)
        print("manifest: %s (%s)" % (merged.path, merged.describe()))


def _cmd_validate(args: argparse.Namespace) -> None:
    from repro.experiments.validation import print_report, validate

    ok = print_report(validate())
    if not ok:
        raise SystemExit(1)


def render_cli_reference() -> str:
    """The ``docs/cli.md`` contents, generated from the argparse tree.

    Renders the top-level ``--help`` plus one section per subcommand, at a
    pinned 80-column width (argparse wraps help text to the terminal via
    the ``COLUMNS`` environment variable; pinning it makes the output — and
    therefore the drift test in ``tests/test_docs.py`` — deterministic).
    """
    previous = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        parser = build_parser()
        sections = [
            "# `repro` CLI reference",
            "",
            "<!-- Generated by `python -m repro cli-doc`. Do not edit by "
            "hand: tests/test_docs.py fails when this file drifts from "
            "the argparse tree. -->",
        ]

        def _emit(title: str, node: argparse.ArgumentParser) -> None:
            """One section per parser, nested subcommands directly after."""
            sections.extend(
                ["", "## %s" % title, "", "```text",
                 node.format_help().rstrip(), "```"]
            )
            for action in node._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        _emit("%s %s" % (title, name), sub)

        _emit("repro", parser)
        return "\n".join(sections) + "\n"
    finally:
        if previous is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = previous


def _cmd_cli_doc(args: argparse.Namespace) -> None:
    """Write the generated CLI reference to ``--out``."""
    reference = render_cli_reference()
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(reference)
    print("CLI reference written to %s" % args.out)


def _mobility_vmax(text: str) -> float:
    """argparse type for ``--mobility``: a positive speed in m/s."""
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            "VMAX must be a positive speed in m/s, got %s" % text
        )
    return value


def _churn_count(text: str) -> int:
    """argparse type for ``--churn``: at least one failure."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "N must be at least 1 failure, got %s" % text
        )
    return value


def _sample_count(text: str) -> int:
    """argparse type for ``cache verify --sample``: at least one entry."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "SAMPLE must be at least 1, got %s" % text
        )
    return value


def _traffic_spec(text: str):
    """argparse type for ``--traffic``: MODEL[:PARAM=V,...]."""
    try:
        return parse_traffic_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _channel_spec(text: str):
    """argparse type for ``--channel``: MODEL[:PARAM=V,...]."""
    try:
        return parse_channel_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _radio_tech(text: str):
    """argparse type for ``--radio-tech``: NAME=FRACTION[,...]."""
    try:
        return parse_tech_assignments(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser with one subcommand per artifact."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables and figures from 'Heuristic Approaches "
        "to Energy-Efficient Network Design Problem' (ICDCS 2007).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, scale=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if scale:
            p.add_argument("--scale", choices=("smoke", "bench", "paper"),
                           default="bench")
        p.add_argument("--profile", action="store_true",
                       help="run under cProfile and print a top-25 hot-spot "
                            "report to stderr when the command finishes")
        p.add_argument("--profile-dump", default=None, metavar="PATH",
                       help="dump raw pstats data to PATH for "
                            "python -m pstats / snakeviz (implies --profile)")
        return p

    def add_sim(name, func, help_text):
        """A command that simulates: also gets orchestration flags."""
        p = add(name, func, help_text)
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep grid "
                            "(results are identical to --jobs 1)")
        p.add_argument("--cache-dir", default=None,
                       help="persistent result store; completed runs are "
                            "reused instead of re-simulated")
        p.add_argument("--cache-backend", choices=("json", "sqlite"),
                       default=None,
                       help="store layout: one JSON file per entry "
                            "(default) or one sqlite file per campaign; "
                            "without this flag the backend is "
                            "auto-detected from the cache dir")
        p.add_argument("--progress", action="store_true",
                       help="progress/ETA on stderr, counted in cells")
        p.add_argument("--mobility", type=_mobility_vmax, default=None,
                       metavar="VMAX",
                       help="random-waypoint mobility with speeds up to "
                            "VMAX m/s (10 s pauses, 1 s position ticks)")
        p.add_argument("--churn", type=_churn_count, default=None,
                       metavar="N",
                       help="crash N relay nodes mid-run (flow endpoints "
                            "never fail)")
        p.add_argument("--traffic", type=_traffic_spec, default=None,
                       metavar="MODEL[:PARAM=V,...]",
                       help="traffic model for every flow: cbr, poisson, "
                            "onoff[:on=S,off=S] or vbr[:jitter=F,"
                            "size_jitter=F] (default: the scenario's model)")
        p.add_argument("--pattern", choices=sorted(FLOW_PATTERNS),
                       default=None,
                       help="endpoint selection pattern (default: the "
                            "scenario's pattern; grid presets keep their "
                            "row flows under 'random')")
        p.add_argument("--channel", type=_channel_spec, default=None,
                       metavar="MODEL[:PARAM=V,...]",
                       help="channel model: disc, "
                            "prob[:loss=F,gamma=F,sigma=DB,exponent=N] or "
                            "rssi-margin[:margin=DB,exponent=N] "
                            "(default: the scenario's model)")
        p.add_argument("--radio-tech", type=_radio_tech, default=None,
                       metavar="NAME=FRACTION[,...]",
                       help="equip node fractions with radio tech "
                            "profiles (short, lowrate, sensor); the rest "
                            "keep the scenario's card")
        p.add_argument("--retries", type=int, default=0, metavar="N",
                       help="retries per dispatch unit after a transient "
                            "failure (worker crash, timeout, a store "
                            "receipt that does not verify) with "
                            "exponential backoff; simulation errors are "
                            "never retried")
        p.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="wall-clock budget per cell in seconds (a "
                            "unit of k seeds gets k*S); over-budget "
                            "workers are terminated and their units count "
                            "as transient failures (default: no timeout)")
        p.add_argument("--continue-on-error", action="store_true",
                       help="finish the healthy cells when one fails "
                            "permanently, then print a failure report "
                            "and exit 1 (default: abort on first failure)")
        return p

    add("table1", _cmd_table1, "radio card parameters")
    add("fig7", _cmd_fig7, "characteristic hop count curves")
    add_sim("fig8", _cmd_fig8, "small-network delivery ratio")
    add_sim("fig9", _cmd_fig9, "small-network energy goodput")
    add_sim("fig10", _cmd_fig10, "transmit energy comparison")
    add_sim("fig11", _cmd_fig11, "large-network delivery ratio")
    add_sim("fig12", _cmd_fig12, "large-network energy goodput")
    add_sim("table2", _cmd_table2, "density study")
    add_sim("fig13", _cmd_fig13, "grid, low rates, perfect scheduling")
    add_sim("fig14", _cmd_fig14, "grid, low rates, ODPM scheduling")
    add_sim("fig15", _cmd_fig15, "grid, high rates, perfect scheduling")
    add_sim("fig16", _cmd_fig16, "grid, high rates, ODPM scheduling")

    sweep_parser = add_sim("sweep", _cmd_sweep,
                           "parallel protocol x rate x seed sweep")
    sweep_parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                              default="grid",
                              help="scenario preset to sweep")
    sweep_parser.add_argument("--protocols", nargs="+", default=None,
                              help="protocol subset (default: the "
                                   "scenario's full line-up)")
    sweep_parser.add_argument("--rates", nargs="+", type=float, default=None,
                              help="rate subset in Kbit/s (default: the "
                                   "scenario's rate grid)")
    sweep_parser.add_argument("--manifest", default=None, metavar="PATH",
                              help="checkpoint campaign state to PATH "
                                   "(created or resumed; needs "
                                   "--cache-dir); an interrupted sweep "
                                   "prints a --resume hint and exits 130")
    sweep_parser.add_argument("--resume", default=None, metavar="PATH",
                              help="resume the campaign checkpointed at "
                                   "PATH, skipping completed cells (the "
                                   "manifest must exist; needs "
                                   "--cache-dir)")
    sweep_parser.add_argument("--report", default=None, metavar="PATH",
                              help="after the sweep, render the cached "
                                   "campaign into a standalone HTML "
                                   "report at PATH (needs --cache-dir)")

    add("validate", _cmd_validate, "check every reproduced paper claim")

    # Campaign reporting: render a store into one self-contained HTML file.
    report_parser = add(
        "report", _cmd_report,
        "render a campaign store into a standalone HTML report",
        scale=False,
    )
    report_parser.add_argument("--cache-dir", required=True,
                               help="result store directory to render "
                                    "(must exist; never created)")
    report_parser.add_argument("--manifest", default=None, metavar="PATH",
                               help="sweep manifest to attach as campaign "
                                    "provenance (cell states, scenario)")
    report_parser.add_argument("-o", "--out", default="report.html",
                               metavar="PATH",
                               help="output HTML file (default: "
                                    "report.html)")

    # Store maintenance: inspect a --cache-dir without simulating.
    cache_parser = sub.add_parser(
        "cache", help="result-store maintenance (ls, verify, merge)"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command",
                                            required=True)
    cache_ls = cache_sub.add_parser(
        "ls", help="entry counts per scenario fingerprint"
    )
    cache_ls.set_defaults(func=_cmd_cache_ls)
    cache_ls.add_argument("--cache-dir", required=True,
                          help="result store directory to inspect")
    cache_ls.add_argument("--json", action="store_true",
                          help="machine-readable output: one JSON object "
                               "per kind, one per line")
    cache_verify = cache_sub.add_parser(
        "verify",
        help="integrity-check a sample of stored entries (exit 1 on "
             "corruption)",
    )
    cache_verify.set_defaults(func=_cmd_cache_verify)
    cache_verify.add_argument("--cache-dir", required=True,
                              help="result store directory to verify")
    cache_verify.add_argument("--sample", type=_sample_count, default=16,
                              help="entries to re-verify per kind "
                                   "(at least 1; deterministic, evenly "
                                   "spaced; default 16)")
    cache_verify.add_argument("--repair", action="store_true",
                              help="quarantine corrupt entries "
                                   "(*.json.quarantine) so the next sweep "
                                   "re-simulates them; exit 0 when every "
                                   "failure was repaired")
    cache_verify.add_argument("--json", action="store_true",
                              help="machine-readable output: the verdict "
                                   "as one JSON object (same exit codes)")
    cache_merge = cache_sub.add_parser(
        "merge",
        help="fold shard stores into one campaign store "
             "(digest-verified; conflicting payloads abort)",
    )
    cache_merge.set_defaults(func=_cmd_cache_merge)
    cache_merge.add_argument("sources", nargs="+", metavar="SRC",
                             help="source store directories (any backend "
                                  "mix; must exist)")
    cache_merge.add_argument("dest", metavar="DST",
                             help="destination store directory (created "
                                  "on demand; may already hold earlier "
                                  "shards — merge is incremental)")
    cache_merge.add_argument("--backend", choices=("json", "sqlite"),
                             default=None,
                             help="destination layout (default: "
                                  "auto-detect, json for a fresh store)")
    cache_merge.add_argument("--manifests", nargs="+", default=None,
                             metavar="PATH",
                             help="shard sweep manifests to merge into "
                                  "one campaign checkpoint alongside the "
                                  "data")
    cache_merge.add_argument("--merged-manifest", default=None,
                             metavar="PATH",
                             help="where to write the merged manifest "
                                  "(default: DST.manifest.json, next to "
                                  "the store so the store directory "
                                  "stays byte-comparable)")

    doc_parser = add("cli-doc", _cmd_cli_doc,
                     "regenerate docs/cli.md from this parser tree",
                     scale=False)
    doc_parser.add_argument("--out", default="docs/cli.md", metavar="PATH",
                            help="where to write the CLI reference "
                                 "(default: docs/cli.md)")

    run_parser = add("run", _cmd_run, "run one ad hoc scenario")
    lifetime_parser = add("lifetime", _cmd_lifetime,
                          "network lifetime extrapolation")
    for p in (run_parser, lifetime_parser):
        p.add_argument("--protocol", default="TITAN-PC")
        p.add_argument("--nodes", type=int, default=30)
        p.add_argument("--rate", type=float, default=4.0,
                       help="per-flow rate in Kbit/s")
        p.add_argument("--duration", type=float, default=60.0)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--card", default="cabletron")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    ``KeyboardInterrupt`` exits :data:`INTERRUPT_EXIT_CODE` (130, the
    shell's 128+SIGINT) with a one-line notice instead of a traceback —
    ``sweep`` additionally drains in-flight cells and prints a resume
    hint before getting here (see :class:`InterruptGuard`).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "profile", False) or getattr(
            args, "profile_dump", None
        ):
            from repro.perf import print_profile_report, profile_call

            _, report = profile_call(
                lambda: args.func(args), dump_path=args.profile_dump
            )
            print_profile_report(report, dump_path=args.profile_dump)
        else:
            args.func(args)
    except KeyboardInterrupt:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (OSError, ValueError):  # pragma: no cover - closed pipe
                pass
        print("interrupted", file=sys.stderr, flush=True)
        return INTERRUPT_EXIT_CODE
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
