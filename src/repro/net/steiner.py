"""Steiner tree and forest approximations (§3 substrate).

The energy-efficient network design problem contains node-weighted Steiner
tree/forest as special cases, and the paper's §3 analysis manipulates
minimum-weight Steiner trees directly.  This module implements:

* :func:`kmb_steiner_tree` — the classic Kou–Markowsky–Berman 2-approximation
  for edge-weighted Steiner trees (metric-closure MST, expanded and pruned);
* :func:`steiner_forest` — per-component KMB trees after grouping demand
  pairs that can share structure (a standard forest heuristic);
* :func:`node_weighted_steiner_tree` — a greedy heuristic for the
  node-weighted variant (Klein–Ravi flavored): node weights are pushed onto
  incoming edges, then KMB runs on the transformed graph.  Node-weighted
  Steiner tree is Ω(log n)-hard, so a heuristic is the appropriate tool.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


def _metric_closure(
    graph: nx.Graph, terminals: Sequence[Hashable], weight: str
) -> tuple[nx.Graph, dict]:
    """Complete graph on terminals weighted by shortest-path distance."""
    import networkx as nx

    closure = nx.Graph()
    paths: dict[tuple[Hashable, Hashable], list] = {}
    for source in terminals:
        lengths, spaths = nx.single_source_dijkstra(graph, source, weight=weight)
        for target in terminals:
            if target == source:
                continue
            if target not in lengths:
                raise nx.NetworkXNoPath(
                    "terminal %r unreachable from %r" % (target, source)
                )
            closure.add_edge(source, target, weight=lengths[target])
            paths[(source, target)] = spaths[target]
    return closure, paths


def kmb_steiner_tree(
    graph: nx.Graph, terminals: Sequence[Hashable], weight: str = "weight"
) -> nx.Graph:
    """Kou–Markowsky–Berman Steiner tree (2-approximation).

    Steps: build the metric closure over terminals, take its minimum
    spanning tree, expand closure edges into shortest paths, take the MST of
    the expansion and prune non-terminal leaves.
    """
    import networkx as nx

    terminals = list(dict.fromkeys(terminals))
    if len(terminals) == 0:
        raise ValueError("need at least one terminal")
    if len(terminals) == 1:
        tree = nx.Graph()
        tree.add_node(terminals[0])
        return tree
    closure, paths = _metric_closure(graph, terminals, weight)
    closure_mst = nx.minimum_spanning_tree(closure, weight="weight")
    expanded = nx.Graph()
    for u, v in closure_mst.edges:
        path = paths.get((u, v)) or paths[(v, u)]
        for a, b in zip(path, path[1:]):
            expanded.add_edge(a, b, **graph.edges[a, b])
    tree = nx.minimum_spanning_tree(expanded, weight=weight)
    _prune_leaves(tree, set(terminals))
    return tree


def _prune_leaves(tree: nx.Graph, keep: set) -> None:
    """Iteratively remove non-terminal leaves in place."""
    while True:
        leaves = [
            node for node in tree.nodes if tree.degree(node) <= 1 and node not in keep
        ]
        if not leaves:
            return
        tree.remove_nodes_from(leaves)


def steiner_forest(
    graph: nx.Graph,
    pairs: Sequence[tuple[Hashable, Hashable]],
    weight: str = "weight",
) -> nx.Graph:
    """Steiner forest heuristic for multi-commodity demands.

    Groups pairs whose shortest paths overlap into shared components by
    running KMB on the union of each group's terminals; groups start as one
    per pair and merge when their trees intersect.  Quality is heuristic
    (the exact problem is NP-hard); structure sharing is what matters for
    the §3 SF1/SF2 comparison.
    """
    import networkx as nx

    if not pairs:
        raise ValueError("need at least one pair")
    components: list[tuple[set, nx.Graph]] = []
    for pair in pairs:
        tree = kmb_steiner_tree(graph, list(pair), weight)
        components.append((set(pair), tree))
    merged = True
    while merged:
        merged = False
        for i, j in itertools.combinations(range(len(components)), 2):
            terminals_i, tree_i = components[i]
            terminals_j, tree_j = components[j]
            if set(tree_i.nodes) & set(tree_j.nodes):
                terminals = terminals_i | terminals_j
                combined = kmb_steiner_tree(graph, sorted(terminals), weight)
                components = [
                    c for k, c in enumerate(components) if k not in (i, j)
                ]
                components.append((terminals, combined))
                merged = True
                break
    forest = nx.Graph()
    for _, tree in components:
        forest.add_nodes_from(tree.nodes)
        forest.add_edges_from(tree.edges(data=True))
    return forest


def node_weighted_steiner_tree(
    graph: nx.Graph,
    terminals: Sequence[Hashable],
    node_weight: str = "cost",
    edge_weight: str | None = None,
) -> nx.Graph:
    """Heuristic node-weighted Steiner tree.

    Transforms node weights into directed-in-edge weights — the standard
    reduction the paper mentions ("reducing a node-weighted problem to an
    edge-weighted problem requires making the graph directed") — by
    splitting each node's weight equally onto its incident edges, then runs
    KMB.  Terminal weights are zero per Definition 1 (sources and sinks must
    stay awake anyway).
    """
    import networkx as nx

    terminal_set = set(terminals)
    work = nx.Graph()
    work.add_nodes_from(graph.nodes(data=True))
    for u, v, data in graph.edges(data=True):
        base = float(data.get(edge_weight, 0.0)) if edge_weight else 0.0
        w = base
        for node in (u, v):
            if node in terminal_set:
                continue
            w += float(graph.nodes[node].get(node_weight, 0.0)) / 2.0
        work.add_edge(u, v, _nw_weight=max(w, 1e-12))
    return kmb_steiner_tree(work, list(terminals), weight="_nw_weight")


def tree_cost(tree: nx.Graph, graph: nx.Graph, weight: str = "weight") -> float:
    """Total edge weight of a tree, read from the original graph."""
    return sum(float(graph.edges[u, v].get(weight, 0.0)) for u, v in tree.edges)
