"""Minimum Power Configuration (MPC, Xing et al. [24]) re-implementation.

MPC is the constant-factor approximation the paper analyzes in §3.  Under
two assumptions — (1) link weights bounded by node weights
(``w(e) * sum(r_i) <= alpha * c(u)``) and (2) non-zero idle cost at sources
and sinks — running a minimum-weight Steiner tree approximation on a graph
*without node weights* and with *edge weights equal to the node idle cost*
``c(u)`` achieves a ``1 + alpha`` approximation for the single-sink case
(and the Steiner-forest extension for multi-commodity).

The paper's Figs. 1–6 show why the output can still be a poor network
design: minimum-weight Steiner trees of equal weight can differ by a factor
``(k+3)/4`` in communication cost (ST1 vs ST2) or recruit ``k`` relays
instead of one (SF1 vs SF2).  This module provides the algorithm plus the
:func:`bounded_alpha` check for assumption (1), so the worst cases are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Sequence

from repro.net.steiner import kmb_steiner_tree, steiner_forest

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


@dataclass(frozen=True)
class MpcResult:
    """Output of an MPC run: the chosen subgraph and its cost split."""

    subgraph: nx.Graph
    idle_cost: float
    communication_cost: float

    @property
    def total_cost(self) -> float:
        return self.idle_cost + self.communication_cost

    @property
    def relay_count(self) -> int:
        return self.subgraph.number_of_nodes()


def bounded_alpha(
    graph: nx.Graph,
    total_demand: float,
    node_weight: str = "cost",
    edge_weight: str = "weight",
) -> float:
    """Smallest ``alpha`` with ``w(e) * total_demand <= alpha * c(u)`` for all
    edges and their endpoints (assumption (1) of MPC).

    Infinite when some node on a weighted edge has zero idle cost, i.e. when
    the assumption fails outright.
    """
    alpha = 0.0
    for u, v, data in graph.edges(data=True):
        w = float(data.get(edge_weight, 0.0))
        if w == 0:
            continue
        for node in (u, v):
            c = float(graph.nodes[node].get(node_weight, 0.0))
            if c <= 0:
                return float("inf")
            alpha = max(alpha, w * total_demand / c)
    return alpha


def _node_cost_as_edge_weight(graph: nx.Graph, node_weight: str) -> nx.Graph:
    """MPC's reduction: drop node weights, weight each edge by the idle cost
    of its endpoints (split equally, the undirected stand-in for charging the
    downstream node)."""
    import networkx as nx

    work = nx.Graph()
    work.add_nodes_from(graph.nodes)
    for u, v in graph.edges:
        cu = float(graph.nodes[u].get(node_weight, 0.0))
        cv = float(graph.nodes[v].get(node_weight, 0.0))
        work.add_edge(u, v, _mpc_weight=max((cu + cv) / 2.0, 1e-12))
    return work


def mpc_single_sink(
    graph: nx.Graph,
    sink: Hashable,
    sources: Sequence[Hashable],
    demands: Sequence[float] | None = None,
    node_weight: str = "cost",
    edge_weight: str = "weight",
    t_idle: float = 1.0,
    t_data: float = 1.0,
) -> MpcResult:
    """MPC for the single-sink case: a Steiner tree connecting all sources
    to the sink in the node-cost-weighted graph.

    Communication cost is evaluated on the resulting tree by routing each
    source's demand along its unique tree path to the sink.
    """
    demands = list(demands) if demands is not None else [1.0] * len(sources)
    if len(demands) != len(sources):
        raise ValueError("need one demand per source")
    work = _node_cost_as_edge_weight(graph, node_weight)
    tree = kmb_steiner_tree(work, [sink, *sources], weight="_mpc_weight")
    return _evaluate(
        tree, graph, [(s, sink) for s in sources], demands,
        node_weight, edge_weight, t_idle, t_data,
        endpoints_free=True,
    )


def mpc_multi_commodity(
    graph: nx.Graph,
    pairs: Sequence[tuple[Hashable, Hashable]],
    demands: Sequence[float] | None = None,
    node_weight: str = "cost",
    edge_weight: str = "weight",
    t_idle: float = 1.0,
    t_data: float = 1.0,
    endpoints_free: bool = False,
) -> MpcResult:
    """The Steiner-forest extension of MPC for multi-commodity demands.

    ``endpoints_free`` controls assumption (2): with MPC's own assumption
    (``c(s_i) != 0``) endpoint idling is charged; the paper's Definition 1
    sets endpoint costs to zero, which is what exposes the SF1/SF2 gap.
    """
    demands = list(demands) if demands is not None else [1.0] * len(pairs)
    if len(demands) != len(pairs):
        raise ValueError("need one demand per pair")
    work = _node_cost_as_edge_weight(graph, node_weight)
    forest = steiner_forest(graph=work, pairs=list(pairs), weight="_mpc_weight")
    return _evaluate(
        forest, graph, list(pairs), demands,
        node_weight, edge_weight, t_idle, t_data, endpoints_free,
    )


def _evaluate(
    subgraph: nx.Graph,
    graph: nx.Graph,
    pairs: list[tuple[Hashable, Hashable]],
    demands: list[float],
    node_weight: str,
    edge_weight: str,
    t_idle: float,
    t_data: float,
    endpoints_free: bool,
) -> MpcResult:
    """Charge Eq. 5 on a subgraph: idling per node, data per path edge."""
    import networkx as nx

    endpoints = {node for pair in pairs for node in pair}
    idle_cost = 0.0
    for node in subgraph.nodes:
        if endpoints_free and node in endpoints:
            continue
        idle_cost += t_idle * float(graph.nodes[node].get(node_weight, 0.0))
    communication_cost = 0.0
    for (source, destination), demand in zip(pairs, demands):
        path = nx.shortest_path(subgraph, source, destination)
        for u, v in zip(path, path[1:]):
            communication_cost += (
                t_data * demand * float(graph.edges[u, v].get(edge_weight, 0.0))
            )
    return MpcResult(
        subgraph=subgraph,
        idle_cost=idle_cost,
        communication_cost=communication_cost,
    )
