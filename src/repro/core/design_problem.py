"""Formalization of the energy-efficient network design problem (§3).

Given an undirected graph with node weights ``c(v)`` (idle or sleep power,
depending on power-management state), edge weights ``w(e)`` (transmit +
receive power), and source–destination demands, the problem asks for a
subgraph ``F`` that routes every demand while minimizing the simplified
network energy (Eq. 5)::

    E_network = sum_{u in F} t_idle(u) * c(u) + sum_{e in F} t_data(e) * w(e)

This is a node-weighted buy-at-bulk problem (NP-hard; Ω(log n) to
approximate).  The module provides:

* :class:`DesignInstance` — the problem instance with an exact
  :meth:`DesignInstance.evaluate` for candidate subgraph/route solutions.
* The paper's worst-case constructions (Figs. 1–6): single-sink Steiner trees
  ``ST1``/``ST2`` whose communication costs deviate by ``(k+3)/4`` (Eqs. 6–7),
  and multi-commodity Steiner forests ``SF1``/``SF2`` whose relay idling
  deviates, giving the ``3k/(2k+1)`` ratio when endpoint idling counts
  (Eqs. 8–9).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


@dataclass(frozen=True)
class Demand:
    """One commodity: route ``rate`` units of traffic from source to sink."""

    source: int
    destination: int
    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ValueError("source and destination must differ")
        if self.rate < 0:
            raise ValueError("rate must be non-negative")


@dataclass
class Solution:
    """A candidate solution: one path per demand.

    The induced subgraph ``F`` is the union of the path edges plus the
    endpoints; its cost is evaluated by :meth:`DesignInstance.evaluate`.
    """

    paths: dict[Demand, tuple[int, ...]] = field(default_factory=dict)

    def subgraph_nodes(self) -> set[int]:
        return {node for path in self.paths.values() for node in path}

    def relays(self) -> set[int]:
        """Nodes on some path that are neither a source nor a destination."""
        endpoints = {
            node for demand in self.paths for node in (demand.source, demand.destination)
        }
        return self.subgraph_nodes() - endpoints


class DesignInstance:
    """An energy-efficient network design instance on a networkx graph.

    Node attribute ``cost`` is ``c(v)`` (power while idling in the subgraph);
    edge attribute ``weight`` is ``w(e)`` (power while carrying one unit of
    traffic).  Demand endpoints have ``c = 0`` per the paper's Definition 1
    simplification — they must stay awake regardless of network design.
    """

    def __init__(
        self,
        graph: nx.Graph,
        demands: Sequence[Demand],
        t_idle: float = 1.0,
        t_data: float = 1.0,
    ) -> None:
        if t_idle < 0 or t_data < 0:
            raise ValueError("durations must be non-negative")
        for demand in demands:
            if demand.source not in graph or demand.destination not in graph:
                raise ValueError("demand %r endpoints missing from graph" % (demand,))
        self.graph = graph
        self.demands = list(demands)
        self.t_idle = t_idle
        self.t_data = t_data
        self._endpoints = {
            node for d in self.demands for node in (d.source, d.destination)
        }

    # ------------------------------------------------------------------
    def node_cost(self, node: int) -> float:
        """``c(v)``; zero for demand endpoints."""
        if node in self._endpoints:
            return 0.0
        return float(self.graph.nodes[node].get("cost", 0.0))

    def edge_weight(self, u: int, v: int) -> float:
        """``w(e)``."""
        return float(self.graph.edges[u, v].get("weight", 0.0))

    # ------------------------------------------------------------------
    def evaluate(self, solution: Solution) -> float:
        """Exact Eq. 5 cost of a solution.

        Idling is charged once per subgraph node; data cost is charged per
        demand per edge traversal, weighted by the demand rate.
        """
        self.validate(solution)
        idle_cost = sum(
            self.t_idle * self.node_cost(node) for node in solution.subgraph_nodes()
        )
        data_cost = 0.0
        for demand, path in solution.paths.items():
            for u, v in zip(path, path[1:]):
                data_cost += self.t_data * demand.rate * self.edge_weight(u, v)
        return idle_cost + data_cost

    def validate(self, solution: Solution) -> None:
        """Raise ``ValueError`` unless every demand is feasibly routed."""
        for demand in self.demands:
            path = solution.paths.get(demand)
            if path is None:
                raise ValueError("demand %r has no path" % (demand,))
            if path[0] != demand.source or path[-1] != demand.destination:
                raise ValueError(
                    "path %r does not connect %r" % (path, demand)
                )
            for u, v in zip(path, path[1:]):
                if not self.graph.has_edge(u, v):
                    raise ValueError("path edge (%r, %r) not in graph" % (u, v))

    def brute_force_optimum(self, max_path_length: int = 6) -> tuple[Solution, float]:
        """Exact optimum by enumerating simple paths (small instances only).

        Enumerates simple paths up to ``max_path_length`` edges per demand and
        takes the cheapest combination.  Exponential; guarded for tests and
        examples on toy graphs.
        """
        import networkx as nx

        per_demand_paths: list[list[tuple[int, ...]]] = []
        for demand in self.demands:
            paths = [
                tuple(p)
                for p in nx.all_simple_paths(
                    self.graph, demand.source, demand.destination, cutoff=max_path_length
                )
            ]
            if not paths:
                raise ValueError("demand %r is infeasible" % (demand,))
            per_demand_paths.append(paths)
        best: tuple[Solution, float] | None = None
        for combo in itertools.product(*per_demand_paths):
            candidate = Solution(dict(zip(self.demands, combo)))
            cost = self.evaluate(candidate)
            if best is None or cost < best[1]:
                best = (candidate, cost)
        assert best is not None
        return best


# ----------------------------------------------------------------------
# Paper constructions: Figs. 1–3 (single sink) and Figs. 4–6 (multi-commodity)
# ----------------------------------------------------------------------

#: Synthetic power unit ``z`` of §3 (P_rx = P_idle = z, P_tx = alpha * z).


@dataclass(frozen=True)
class SteinerTreeExample:
    """The single-sink network of Fig. 1 with its two Steiner trees.

    ``k`` sources (nodes 1..k) must reach the sink.  Two candidate relays
    exist: node ``i`` sits next to source ``k`` (so routing through it chains
    the sources: source ``l`` forwards traffic of sources ``l+1..k``), while
    node ``j`` is adjacent to every source (a one-hop star).  Both trees have
    the same total edge weight, so a minimum-weight Steiner tree algorithm
    (MPC-style) may return either — but their communication energies differ
    by a factor that grows with ``k``.
    """

    k: int
    alpha: float = 1.0
    z: float = 1.0
    t_idle: float = 1.0
    t_data: float = 1.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need at least one source")

    # node ids: 0 = sink, 1..k = sources, k+1 = relay i, k+2 = relay j
    @property
    def sink(self) -> int:
        return 0

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(range(1, self.k + 1))

    @property
    def relay_i(self) -> int:
        return self.k + 1

    @property
    def relay_j(self) -> int:
        return self.k + 2

    def graph(self) -> nx.Graph:
        """Build the Fig. 1 connectivity graph with unit weights ``z``."""
        import networkx as nx

        g = nx.Graph()
        per_edge = (self.alpha + 1.0) * self.z
        g.add_node(self.sink, cost=self.z)
        for s in self.sources:
            g.add_node(s, cost=self.z)
        g.add_node(self.relay_i, cost=self.z)
        g.add_node(self.relay_j, cost=self.z)
        # ST1 path: source k -> k-1 -> ... -> 1 -> relay i -> sink.
        for a, b in zip(self.sources, self.sources[1:]):
            g.add_edge(a, b, weight=per_edge)
        g.add_edge(self.sources[0], self.relay_i, weight=per_edge)
        g.add_edge(self.relay_i, self.sink, weight=per_edge)
        for s in self.sources:
            g.add_edge(s, self.relay_j, weight=per_edge)
        g.add_edge(self.relay_j, self.sink, weight=per_edge)
        return g

    # ------------------------------------------------------------------
    def st1_energy(self) -> float:
        """Eq. 6: ``E_ST1 = t_idle z + k (k+3)/2 t_data (alpha+1) z``.

        In ST1 source ``k`` forwards through ``k-1 ... 1`` and relay ``i``;
        source ``l`` makes ``k - l + 1`` transmissions and relay ``i`` makes
        ``k``, for ``k (k+3) / 2`` transmissions total.
        """
        transmissions = self.k * (self.k + 3) / 2.0
        return (
            self.t_idle * self.z
            + transmissions * self.t_data * (self.alpha + 1.0) * self.z
        )

    def st2_energy(self) -> float:
        """Eq. 7: ``E_ST2 = t_idle z + 2 k t_data (alpha+1) z``.

        In ST2 every source transmits once to relay ``j`` which forwards the
        ``k`` packets to the sink: ``2k`` transmissions.
        """
        return (
            self.t_idle * self.z
            + 2.0 * self.k * self.t_data * (self.alpha + 1.0) * self.z
        )

    def deviation_ratio(self) -> float:
        """Communication-cost ratio ST1/ST2 = (k+3)/4, growing with ``k``."""
        return (self.k + 3) / 4.0

    def instance(self) -> DesignInstance:
        """The example as a :class:`DesignInstance` (unit demands to the sink)."""
        demands = [Demand(source=s, destination=self.sink) for s in self.sources]
        return DesignInstance(
            self.graph(), demands, t_idle=self.t_idle, t_data=self.t_data
        )


@dataclass(frozen=True)
class SteinerForestExample:
    """The multi-commodity network of Fig. 4 with forests SF1 and SF2.

    ``k`` pairs (S_l, D_l) surround a center node ``S_0``.  SF1 routes each
    pair through its own dedicated relay (``k`` relays stay awake); SF2 routes
    every pair through the single center node (1 relay awake).  Communication
    costs are identical (Eqs. 8–9), so including endpoint idling yields the
    bounded ratio ``3k / (2k+1)`` — this is how the paper shows that MPC's
    assumption ``c(s_i) != 0`` matters.
    """

    k: int
    alpha: float = 1.0
    z: float = 1.0
    t_idle: float = 1.0
    t_data: float = 1.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need at least one pair")

    # node ids: 0 = center S0; pair l has source 2l-1, destination 2l,
    # dedicated relay 2k + l.
    @property
    def center(self) -> int:
        return 0

    def source(self, pair: int) -> int:
        self._check_pair(pair)
        return 2 * pair - 1

    def destination(self, pair: int) -> int:
        self._check_pair(pair)
        return 2 * pair

    def relay(self, pair: int) -> int:
        self._check_pair(pair)
        return 2 * self.k + pair

    def _check_pair(self, pair: int) -> None:
        if not 1 <= pair <= self.k:
            raise ValueError("pair index %r out of range" % pair)

    def graph(self) -> nx.Graph:
        """Build the Fig. 4 connectivity graph with unit weights ``z``."""
        import networkx as nx

        g = nx.Graph()
        per_edge = (self.alpha + 1.0) * self.z
        g.add_node(self.center, cost=self.z)
        for pair in range(1, self.k + 1):
            s, d, r = self.source(pair), self.destination(pair), self.relay(pair)
            for node in (s, d, r):
                g.add_node(node, cost=self.z)
            g.add_edge(s, r, weight=per_edge)
            g.add_edge(r, d, weight=per_edge)
            g.add_edge(s, self.center, weight=per_edge)
            g.add_edge(self.center, d, weight=per_edge)
        return g

    # ------------------------------------------------------------------
    def sf1_energy(self) -> float:
        """Eq. 8: ``E_SF1 = k t_idle z + 2 k t_data (alpha+1) z``.

        SF1 keeps ``k`` dedicated relays awake; each pair needs two
        transmissions (source -> relay -> destination).
        """
        return (
            self.k * self.t_idle * self.z
            + 2.0 * self.k * self.t_data * (self.alpha + 1.0) * self.z
        )

    def sf2_energy(self) -> float:
        """Eq. 9: ``E_SF2 = t_idle z + 2 k t_data (alpha+1) z``.

        SF2 routes everything through the single center relay.
        """
        return (
            self.t_idle * self.z
            + 2.0 * self.k * self.t_data * (self.alpha + 1.0) * self.z
        )

    def endpoint_inclusive_ratio(self) -> float:
        """The paper's ``3k / (2k+1)`` ratio with endpoint idling included.

        With the ``2k`` endpoints' idling counted (cost z each), SF1 costs
        ``3k`` idle units against SF2's ``2k+1``.
        """
        return 3.0 * self.k / (2.0 * self.k + 1.0)

    def demands(self) -> list[Demand]:
        return [
            Demand(self.source(pair), self.destination(pair))
            for pair in range(1, self.k + 1)
        ]

    def sf1_solution(self) -> Solution:
        """Routes of SF1: each pair through its dedicated relay (Fig. 5)."""
        return Solution(
            {
                demand: (demand.source, self.relay(pair), demand.destination)
                for pair, demand in enumerate(self.demands(), start=1)
            }
        )

    def sf2_solution(self) -> Solution:
        """Routes of SF2: every pair through the center node (Fig. 6)."""
        return Solution(
            {
                demand: (demand.source, self.center, demand.destination)
                for demand in self.demands()
            }
        )

    def instance(self) -> DesignInstance:
        return DesignInstance(
            self.graph(), self.demands(), t_idle=self.t_idle, t_data=self.t_data
        )
