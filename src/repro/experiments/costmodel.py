"""Cost-model scheduling for sweep dispatch units.

Grid units used to run in declaration order, which made campaign
wall-clock hostage to placement luck: one long high-rate batch dispatched
last tail-blocks the whole pool while every other worker sits idle.  The
classic fix is LPT scheduling — longest processing time first — which
needs per-unit cost *estimates*, not measurements.

:class:`SweepCostModel` builds those estimates from the cheapest honest
signal available: **event counts of runs this sweep already has**.  A
cell's simulated event count is deterministic (same configuration, same
events — the determinism contract), machine-independent (unlike wall
seconds) and proportional to its simulation cost, so the model predicts a
pending ``(protocol, rate)`` cell from the mean observed events of:

1. the same ``(protocol, rate)`` — exact;
2. the same protocol at other rates, scaled linearly by rate (offered
   load drives the event count to first order);
3. any observed cell, scaled by rate the same way;
4. nothing observed at all — a static prior: the smoke fig8 cell's
   events per (Kbit/s x simulated second), scaled by rate.  Absolute
   accuracy is irrelevant here; only the induced *order* matters, and
   rate-proportionality is the paper grid's dominant axis.

Observations come from the sweep's own cache-hit partition
(:func:`repro.experiments.parallel.run_grid` feeds every hit in), so a
resumed or repeated campaign schedules from real data, and a cold first
campaign degrades to the rate-ordered prior.  A model instance serves one
scenario — one node count — so node count never needs to appear in the
key; distinct node counts get distinct models by construction.

Ordering is pure wall-clock policy: the dispatcher may execute units in
any order without changing a single stored byte (permutation invariance
is pinned in ``tests/test_warm_sweep.py``), so the model needs no
correctness review — only its tie-breaking must be deterministic, which
:meth:`SweepCostModel.order` guarantees by falling back to the original
index.
"""

from __future__ import annotations

from typing import Iterable, Sequence

#: Events per (Kbit/s x simulated second) when nothing is observed yet:
#: the smoke small-network DSR-ODPM cell at 8 Kbit/s fires 14,118 events
#: in 30 simulated seconds.  Only the order it induces matters: a cold
#: model costs every unit this constant x rate x duration x seeds.
_PRIOR_EVENTS_PER_KBPS_S = 58.825


class SweepCostModel:
    """Expected-events estimates for grid cells, learned per sweep.

    ``observe`` feeds one completed run's event count; ``expected_events``
    predicts a pending cell; ``order`` sorts dispatch units
    longest-expected-first (deterministically).  One instance covers one
    scenario — callers running several node counts build several models.
    """

    def __init__(self, duration_s: float = 1.0) -> None:
        #: (protocol, rate) -> [total_events, samples]
        self._exact: dict[tuple[str, float], list[float]] = {}
        #: protocol -> [total_events_per_kbps, samples]
        self._per_protocol: dict[str, list[float]] = {}
        #: [total_events_per_kbps, samples] over everything observed
        self._any: list[float] = [0.0, 0.0]
        self._duration_s = max(duration_s, 1e-9)

    def observe(self, protocol: str, rate_kbps: float, events: int) -> None:
        """Record one completed run's event count."""
        rate = float(rate_kbps)
        exact = self._exact.setdefault((protocol, rate), [0.0, 0.0])
        exact[0] += events
        exact[1] += 1.0
        if rate > 0.0:
            per_rate = events / rate
            proto = self._per_protocol.setdefault(protocol, [0.0, 0.0])
            proto[0] += per_rate
            proto[1] += 1.0
            self._any[0] += per_rate
            self._any[1] += 1.0

    def observe_results(self, results: Iterable) -> None:
        """Feed ``(cell, RunResult)`` pairs (the cache-hit partition)."""
        for cell, result in results:
            self.observe(
                cell.protocol, cell.rate_kbps, result.events_processed
            )

    def expected_events(self, protocol: str, rate_kbps: float) -> float:
        """Predicted event count of one pending cell (resolution order
        exact -> same-protocol scaled -> any scaled -> static prior)."""
        rate = float(rate_kbps)
        exact = self._exact.get((protocol, rate))
        if exact is not None and exact[1] > 0.0:
            return exact[0] / exact[1]
        proto = self._per_protocol.get(protocol)
        if proto is not None and proto[1] > 0.0:
            return proto[0] / proto[1] * rate
        if self._any[1] > 0.0:
            return self._any[0] / self._any[1] * rate
        return _PRIOR_EVENTS_PER_KBPS_S * rate * self._duration_s

    def unit_cost(self, unit) -> float:
        """Expected events of one dispatch unit (cell or batch of seeds)."""
        seeds = getattr(unit, "seeds", None)
        count = len(seeds) if seeds is not None else 1
        return count * self.expected_events(unit.protocol, unit.rate_kbps)

    def order(self, units: Sequence) -> list:
        """``units`` sorted longest-expected-first, deterministically.

        Ties (and cold models, where every same-size unit at one rate
        costs the same) break on the original index, so two runs over
        the same pending set always produce the same schedule — a
        property the determinism tests lean on when they diff logs.
        """
        indexed = sorted(
            enumerate(units),
            key=lambda pair: (-self.unit_cost(pair[1]), pair[0]),
        )
        return [unit for _index, unit in indexed]
