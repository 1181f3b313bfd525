"""Wireless channel: geometry, path loss and frame propagation.

The channel knows every node's position and nominal transmission range and
delivers frames to all nodes within the *reach* of a transmission — the
distance covered by the chosen transmit power level under the ``1/d^n``
path-loss model.  Control packets go out at maximum power (full nominal
range); power-controlled data transmissions reach exactly their target
distance (the paper assumes infinitely adjustable transmit power).

Positions are static by default, so all geometry is precomputed:
:meth:`Channel.freeze` (run lazily after the last :meth:`Channel.register`)
builds one distance-sorted neighbor table per node, and
:meth:`Channel.in_reach` resolves a transmission's receiver set with a
single bisect over that table instead of re-checking distances per frame.
The pair scan inside ``freeze`` (:meth:`ChannelGeometry.from_positions`)
is a cell list: positions are binned into ``max_range``-sized cells and
each node measures only the members of the cells its range window
overlaps, O(N x degree) instead of O(N^2).  Every candidate is
re-measured with ``math.hypot`` and entries sort by ``(distance, rank)``,
so the tables are byte-identical to the brute-force reference scan; a
prebuilt :class:`ChannelGeometry` can also be handed to the
:class:`Channel` constructor so the seeds of a sweep share a single
geometry pass (see :func:`repro.experiments.runner.shared_setup`).
Receiver order is registration order — the same order the naive scan
produced — because the order in which ``rx_end`` upcalls fire schedules MAC
responses and therefore affects event sequence numbers; the determinism
contract (serial == parallel == cached, bit for bit) depends on it.

Dynamic topologies (:mod:`repro.sim.mobility`) move nodes mid-run through
:meth:`Channel.update_position`, which repairs the frozen tables
*incrementally* through the same cells: the moved node's own table is
rebuilt, and only the tables of nodes bucketed within range of its old or
new position are patched in place for the single entry that changed —
O(moved nodes x degree), never the O(N^2) full re-freeze.  The bucket
index (:class:`_SpatialIndex`) is built at the first move after a freeze,
so static runs never build it and stay bit-identical to pre-mobility
builds.  Neighbor-set changes are counted in :attr:`Channel.link_changes`,
the link-churn metric surfaced by
:class:`~repro.metrics.collectors.RunResult` dynamics.

Reception and interference are resolved by the receiving
:class:`~repro.sim.phy.Phy` objects: overlapping receptions corrupt each
other (collision), sleeping or transmitting radios miss frames entirely, and
any audible transmission keeps a radio's carrier-sense busy.  Propagation
delay is negligible at the simulated scales and treated as zero, with event
ordering preserved by the simulator's tie-breaking.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import TYPE_CHECKING, Mapping

from repro.sim.engine import Simulator
from repro.sim.packet import Packet

# The channel-model registry lives in its own module (it needs no channel
# internals) but is re-exported here: ``repro.sim.channel`` is the public
# home of everything channel-shaped.
from repro.sim.channel_models import (  # noqa: F401  (re-exports)
    CHANNEL_MODELS,
    ChannelModel,
    ChannelSpec,
    DiscChannelModel,
    ProbChannelModel,
    RssiMarginChannelModel,
    TECH_PROFILES,
    TechProfile,
    parse_channel_spec,
    parse_tech_assignments,
    resolve_cards,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.phy import Phy

#: Relative slack on the cell windows.  A window spans the floor-divided
#: cells of ``[coord - margin, coord + margin]`` with ``margin =
#: max_range * (1 + _CANDIDATE_SLACK)``; the subtraction and division
#: round, so without slack a neighbor at exactly ``max_range`` could fall
#: one cell outside.  1e-9 relative is ~1e7 ulp — no true neighbor can be
#: lost, and the few extra candidates fail the exact ``math.hypot`` check.
_CANDIDATE_SLACK = 1e-9


class ChannelGeometry:
    """Precomputed all-pairs neighbor geometry, shareable across runs.

    Holds exactly what :meth:`Channel.freeze` needs to build one
    :class:`_NeighborTable` per node — the ``(distance, rank, neighbor)``
    entries of every in-range pair, sorted by ``(distance, rank)``, plus
    the same entries in rank (registration) order — keyed to a specific
    node ordering and position set.  All distances are ``math.hypot``
    values, so tables instantiated from a geometry are **bit-identical**
    to tables computed from scratch; the cell list below only changes how
    candidate pairs are *found*, never how they are measured.

    Instances are immutable (tuples throughout) and safe to share: every
    ``freeze`` builds fresh mutable lists from them, so one simulation's
    mobility patches can never leak into a sibling seed's tables.  Built
    by :func:`repro.experiments.runner.shared_setup` — once per sweep,
    or per pool worker — for scenarios whose placement does not depend
    on the seed.

    Per node the entries are stored as parallel tuples rather than tuples
    of triples — ``dists``/``dist_ranks`` sorted by ``(distance, rank)``
    and ``ranks``/``ids`` in rank order — so instantiating a table is a
    handful of ``list()`` copies and positional PHY lookups per node.
    """

    __slots__ = (
        "order", "positions", "max_range",
        "dists", "dist_ranks", "ranks", "ids",
    )

    def __init__(
        self,
        order: tuple[int, ...],
        positions: dict[int, tuple[float, float]],
        max_range: float,
        dists: dict[int, tuple[float, ...]],
        dist_ranks: dict[int, tuple[int, ...]],
        ranks: dict[int, tuple[int, ...]],
        ids: dict[int, tuple[int, ...]],
    ) -> None:
        self.order = order
        self.positions = positions
        self.max_range = max_range
        #: node -> neighbor distances sorted ascending (rank-tiebroken).
        self.dists = dists
        #: node -> neighbor ranks in the same (distance, rank) order.
        self.dist_ranks = dist_ranks
        #: node -> neighbor ranks ascending (registration order).
        self.ranks = ranks
        #: node -> neighbor ids, parallel to :attr:`ranks`.
        self.ids = ids

    @classmethod
    def from_positions(
        cls,
        positions: Mapping[int, tuple[float, float]],
        max_range: float,
        method: str = "grid",
    ) -> "ChannelGeometry":
        """Compute the geometry of ``positions`` at ``max_range``.

        Node ``rank`` is the iteration order of ``positions`` — the order
        :class:`~repro.sim.network.WirelessNetwork` registers PHYs in, so
        a geometry built from a placement drops straight into
        :meth:`Channel.freeze`.

        ``method`` selects how candidate pairs are *found*: ``grid`` (the
        default) takes each node's cell window from :class:`_SpatialIndex`,
        ``bruteforce`` every other node — the O(N^2) reference scan the
        tests compare against.  Both feed the same exact ``math.hypot``
        re-measurement and ``(distance, rank)`` sort below, so the choice
        can never change the result — only how long it takes.
        """
        if max_range <= 0:
            raise ValueError("max_range must be positive")
        order = tuple(positions)
        if method == "grid":
            near = _SpatialIndex(positions, max_range).near
        elif method == "bruteforce":
            near = lambda points: order  # noqa: E731
        else:
            raise ValueError(
                "unknown candidate method %r; expected grid or bruteforce"
                % (method,)
            )
        rank_of = {node_id: rank for rank, node_id in enumerate(order)}
        dists: dict[int, tuple[float, ...]] = {}
        dist_ranks: dict[int, tuple[int, ...]] = {}
        ranks: dict[int, tuple[int, ...]] = {}
        ids: dict[int, tuple[int, ...]] = {}
        for node_id in order:
            point = positions[node_id]
            x1, y1 = point
            entries = []
            for other in near((point,)):
                if other == node_id:
                    continue
                x2, y2 = positions[other]
                dist = math.hypot(x1 - x2, y1 - y2)
                if dist <= max_range:
                    entries.append((dist, rank_of[other], other))
            entries.sort()  # (dist, rank) — rank is unique per entry
            dists[node_id] = tuple(entry[0] for entry in entries)
            dist_ranks[node_id] = tuple(entry[1] for entry in entries)
            by_rank = sorted(entries, key=lambda entry: entry[1])
            ranks[node_id] = tuple(entry[1] for entry in by_rank)
            ids[node_id] = tuple(entry[2] for entry in by_rank)
        return cls(
            order, dict(positions), max_range, dists, dist_ranks, ranks, ids
        )

    @classmethod
    def build(
        cls,
        positions: Mapping[int, tuple[float, float]],
        max_range: float,
        method: str = "grid",
    ) -> "ChannelGeometry":
        """Alias of :meth:`from_positions` (the original name, kept for
        existing callers)."""
        return cls.from_positions(positions, max_range, method=method)


class _SpatialIndex:
    """Cell list: grid-bucket membership of a set of positions.

    Cells are ``max_range`` on a side.  :meth:`near` scans, per query
    point, the cells of its *window* — the floor-divided cell range of
    ``[coord - margin, coord + margin]`` per axis, ``margin = max_range *
    (1 + _CANDIDATE_SLACK)``.  The window is computed per point, not as a
    fixed 3x3 block around the point's own cell: float ``//`` is the exact
    floor of the correctly rounded quotient, monotone in its numerator, and
    the slack (~2.5e-7 m at 250 m range) exceeds the rounding of ``coord -
    margin`` by orders of magnitude for any realistic field, so the window
    provably covers every node within ``max_range``.

    :meth:`ChannelGeometry.from_positions` builds one per freeze to find
    candidate pairs; :class:`Channel` keeps one live after the first move,
    rebucketed by :meth:`Channel.update_position`, so mobility repair
    touches O(degree) tables instead of all N.
    """

    __slots__ = ("cell", "margin", "buckets", "cells")

    def __init__(
        self,
        positions: Mapping[int, tuple[float, float]],
        max_range: float,
    ) -> None:
        self.cell = max_range
        self.margin = max_range * (1.0 + _CANDIDATE_SLACK)
        self.buckets: dict[tuple[int, int], list[int]] = {}
        self.cells: dict[int, tuple[int, int]] = {}
        cell = self.cell
        for node_id, (x, y) in positions.items():
            key = (int(x // cell), int(y // cell))
            self.cells[node_id] = key
            self.buckets.setdefault(key, []).append(node_id)

    def move(self, node_id: int, position: tuple[float, float]) -> None:
        """Rebucket ``node_id`` at its new position."""
        key = (int(position[0] // self.cell), int(position[1] // self.cell))
        old = self.cells[node_id]
        if key == old:
            return
        members = self.buckets[old]
        members.remove(node_id)
        if not members:
            del self.buckets[old]
        self.cells[node_id] = key
        self.buckets.setdefault(key, []).append(node_id)

    def near(self, points) -> list[int]:
        """Nodes bucketed within range of any of ``points``.

        Deterministic order (window scan order, bucket insertion order
        within a cell) with each node listed once; callers sort what they
        measure or patch independent per-node tables, so the order is
        unobservable in results either way.
        """
        cell = self.cell
        margin = self.margin
        buckets = self.buckets
        out: list[int] = []
        seen_cells: set[tuple[int, int]] = set()
        for x, y in points:
            x_lo, x_hi = int((x - margin) // cell), int((x + margin) // cell)
            y_lo, y_hi = int((y - margin) // cell), int((y + margin) // cell)
            for a in range(x_lo, x_hi + 1):
                for b in range(y_lo, y_hi + 1):
                    key = (a, b)
                    if key in seen_cells:
                        continue
                    seen_cells.add(key)
                    members = buckets.get(key)
                    if members:
                        out.extend(members)
        return out


class _NeighborTable:
    """Per-node reach table, built at freeze time, patched on position moves.

    ``dists`` is sorted ascending; ``by_dist`` holds ``(rank, phy)`` pairs in
    the same order, where ``rank`` is the neighbor's registration index so a
    bisected prefix can be restored to registration order.  ``full`` is the
    complete in-range receiver list already in registration order — the fast
    path for maximum-power (control) transmissions — with ``ids`` and
    ``ranks`` parallel to it (``ranks`` ascending, enabling bisected
    insert/remove when :meth:`Channel.update_position` patches the table).
    """

    __slots__ = ("dists", "by_dist", "full", "ids", "ranks")

    def __init__(
        self,
        dists: list[float],
        by_dist: list[tuple[int, "Phy"]],
        full: list["Phy"],
        ids: list[int],
        ranks: list[int],
    ) -> None:
        self.dists = dists
        self.by_dist = by_dist
        self.full = full
        self.ids = ids
        self.ranks = ranks

    def _place_by_dist(self, rank: int, phy: "Phy", dist: float) -> None:
        """Insert into the distance-sorted lists at the (dist, rank) slot.

        Among equal distances, rank breaks the tie — the same ordering
        freeze() produces, which the pinned digests depend on.
        """
        index = bisect_right(self.dists, dist)
        while index > 0 and self.dists[index - 1] == dist and (
            self.by_dist[index - 1][0] > rank
        ):
            index -= 1
        self.dists.insert(index, dist)
        self.by_dist.insert(index, (rank, phy))

    def _drop_by_dist(self, rank: int) -> None:
        """Remove ``rank``'s entry from the distance-sorted lists."""
        for index, (entry_rank, _) in enumerate(self.by_dist):
            if entry_rank == rank:
                del self.dists[index]
                del self.by_dist[index]
                return

    def insert(self, rank: int, phy: "Phy", dist: float) -> None:
        """Add a neighbor, preserving (distance, rank) and rank orderings."""
        self._place_by_dist(rank, phy, dist)
        slot = bisect_right(self.ranks, rank)
        self.ranks.insert(slot, rank)
        self.full.insert(slot, phy)
        self.ids.insert(slot, phy.node_id)

    def remove(self, rank: int) -> None:
        """Drop the neighbor with registration index ``rank``."""
        self._drop_by_dist(rank)
        slot = bisect_right(self.ranks, rank) - 1
        del self.ranks[slot]
        del self.full[slot]
        del self.ids[slot]

    def move(self, rank: int, phy: "Phy", dist: float) -> None:
        """Update a present neighbor's distance, keeping sort invariants."""
        self._drop_by_dist(rank)
        self._place_by_dist(rank, phy, dist)


class Channel:
    """Shared broadcast medium for all nodes in a simulation.

    Parameters
    ----------
    sim:
        The simulation kernel (for scheduling frame-end events).
    positions:
        Mapping from node id to ``(x, y)`` coordinates in meters.
    max_range:
        Nominal transmission range in meters at maximum power; defines the
        static connectivity graph used for neighbor discovery.
    geometry:
        Optional prebuilt :class:`ChannelGeometry` for these positions;
        :meth:`freeze` instantiates its tables from it instead of
        recomputing the pair scan.  A geometry whose node order or
        positions no longer match (extra registrations, pre-freeze moves)
        is ignored and the scan runs normally, so a stale geometry can
        cost time but never correctness; each such rejection bumps
        :attr:`geometry_mismatches`, which
        :class:`~repro.sim.network.WirelessNetwork` surfaces as a run
        warning so the wasted pass is observable.
    model:
        Optional :class:`~repro.sim.channel_models.ChannelModel` deciding
        per-reception admission among the in-reach candidates.  Geometry
        is unaffected — the neighbor tables, oracles and carrier-sense
        candidate sets are identical for every model — the model only
        vetoes individual receptions inside :meth:`begin_transmission`.
        ``None`` and *transparent* models (the disc) keep the historical
        delivery loop, byte for byte.
    """

    def __init__(
        self,
        sim: Simulator,
        positions: Mapping[int, tuple[float, float]],
        max_range: float,
        geometry: "ChannelGeometry | None" = None,
        model: "ChannelModel | None" = None,
    ) -> None:
        if max_range <= 0:
            raise ValueError("max_range must be positive")
        self.sim = sim
        self.positions = dict(positions)
        self.max_range = max_range
        self._geometry = geometry
        self._phys: dict[int, "Phy"] = {}
        self._tables: dict[int, _NeighborTable] = {}
        self._ranks: dict[int, int] = {}
        self._frozen = False
        self._distance_cache: dict[tuple[int, int], float] = {}
        #: Bucket index over :attr:`positions`; None until a table build
        #: or a move after the last freeze needs it (see :meth:`_index`).
        self._spatial: _SpatialIndex | None = None
        #: The bound channel model (None for the implicit disc).  The
        #: delivery loop consults :attr:`_filter` instead: transparent
        #: models (the explicit disc) are structurally bypassed, so the
        #: historical fast path — and its event sequence — is preserved.
        self.model = model
        self._filter = (
            model
            if model is not None and not getattr(model, "transparent", False)
            else None
        )
        if model is not None:
            model.bind(self)
        #: Receptions vetoed / examined by the channel model (stay 0 on
        #: the disc path); surfaced in ``RunResult.channel``.
        self.model_drops = 0
        self.model_checks = 0
        self.transmissions_started = 0
        #: Undirected neighbor links created or broken by position updates
        #: (mobility churn metric; stays 0 for static topologies).
        self.link_changes = 0
        #: Position updates applied since construction (mobility volume).
        self.position_updates = 0
        #: Prebuilt geometries rejected by :meth:`freeze` for not matching
        #: this channel (stale positions/order/range).  Correctness is
        #: unaffected — the scan reruns — but the intended shared pass was
        #: wasted, so runs surface this counter as a warning.
        self.geometry_mismatches = 0

    # ------------------------------------------------------------------
    # Registration and geometry
    # ------------------------------------------------------------------
    def register(self, phy: "Phy") -> None:
        """Attach a node's PHY to the medium.

        Registration only marks the neighbor tables stale; they are rebuilt
        lazily by :meth:`freeze` on first use, so assembling an N-node
        network costs one table build instead of N rebuilds.
        """
        node_id = phy.node_id
        if node_id not in self.positions:
            raise ValueError("node %r has no position" % node_id)
        if node_id in self._phys:
            raise ValueError("node %r already registered" % node_id)
        self._phys[node_id] = phy
        self._frozen = False  # topology changed; freeze() rebuilds lazily

    def distance(self, u: int, v: int) -> float:
        """Euclidean distance between two nodes in meters."""
        key = (u, v) if u <= v else (v, u)
        cached = self._distance_cache.get(key)
        if cached is None:
            (x1, y1), (x2, y2) = self.positions[u], self.positions[v]
            cached = math.hypot(x1 - x2, y1 - y2)
            self._distance_cache[key] = cached
        return cached

    def freeze(self) -> None:
        """Precompute every node's distance-sorted neighbor table.

        Called automatically on first propagation/neighbor use after the
        last :meth:`register`; call it explicitly after network assembly to
        front-load the geometry pass.  Registering another PHY
        un-freezes the channel and the next use re-freezes it.

        The pair scan runs through :class:`ChannelGeometry`'s cell list,
        and is skipped entirely when a still-valid prebuilt geometry was
        handed to the constructor; a partially registered network builds
        each table through the bucket index instead.  All paths produce
        bit-identical tables (the pinned digests of
        ``tests/test_orchestration.py`` run over them).
        """
        self._ranks = {node_id: rank for rank, node_id in enumerate(self._phys)}
        self._spatial = None  # positions may have moved while unfrozen
        geometry = self._geometry
        if geometry is not None and not self._geometry_valid(geometry):
            geometry = None
            self.geometry_mismatches += 1
        if geometry is None and tuple(self._phys) == tuple(self.positions):
            # The standard fully-registered network: ranks equal position
            # order, so the geometry pass applies.
            geometry = ChannelGeometry.from_positions(
                self.positions, self.max_range
            )
        if geometry is not None:
            # Ranks equal registration indices here (checked above), so
            # PHYs resolve positionally — no per-entry dict hashing.
            phys_seq = list(self._phys.values())
            self._tables = {
                node_id: self._table_from_geometry(
                    geometry, node_id, phys_seq
                )
                for node_id in self.positions
            }
        else:
            # Partial registration (some placed nodes have no PHY): the
            # tables only list registered nodes, but are keyed by
            # position (not registration) so neighbor queries answer for
            # any placed node.
            self._tables = {
                node_id: self._build_table(node_id)
                for node_id in self.positions
            }
        self._frozen = True

    def _geometry_valid(self, geometry: ChannelGeometry) -> bool:
        """A prebuilt geometry must still describe this exact channel."""
        return (
            geometry.max_range == self.max_range
            and geometry.order == tuple(self._phys)
            and geometry.positions == self.positions
        )

    def _table_from_geometry(
        self,
        geometry: ChannelGeometry,
        node_id: int,
        phys_seq: list["Phy"],
    ) -> _NeighborTable:
        """Instantiate one node's table from precomputed geometry.

        Builds fresh lists (the geometry's tuples are shared across runs;
        mobility patches tables in place) and resolves neighbor ranks to
        this channel's PHYs by position in registration order.
        """
        ranks = geometry.ranks[node_id]
        return _NeighborTable(
            dists=list(geometry.dists[node_id]),
            by_dist=[
                (rank, phys_seq[rank])
                for rank in geometry.dist_ranks[node_id]
            ],
            full=[phys_seq[rank] for rank in ranks],
            ids=list(geometry.ids[node_id]),
            ranks=list(ranks),
        )

    def _index(self) -> _SpatialIndex:
        """The bucket index over current positions, built on first use.

        :meth:`freeze` drops it, so a static run that instantiates its
        tables from a geometry never builds one; the first move after a
        freeze builds it from the pre-move positions.
        """
        if self._spatial is None:
            self._spatial = _SpatialIndex(self.positions, self.max_range)
        return self._spatial

    def _build_table(self, node_id: int) -> _NeighborTable:
        """Distance-sorted neighbor table of one node at current positions.

        Measures only the registered nodes the bucket index files within
        range of ``node_id`` (a superset of its neighbors; unregistered
        placed nodes are skipped), then sorts by ``(distance, rank)`` —
        rank breaks distance ties so the bisected prefix is reproducible.
        """
        max_range = self.max_range
        distance = self.distance
        ranks = self._ranks
        phys = self._phys
        in_range: list[tuple[float, int, "Phy"]] = []
        for other in self._index().near((self.positions[node_id],)):
            if other == node_id:
                continue
            phy = phys.get(other)
            if phy is None:
                continue
            dist = distance(node_id, other)
            if dist <= max_range:
                in_range.append((dist, ranks[other], phy))
        in_range.sort(key=lambda item: (item[0], item[1]))
        by_rank = sorted(in_range, key=lambda item: item[1])
        return _NeighborTable(
            dists=[item[0] for item in in_range],
            by_dist=[(item[1], item[2]) for item in in_range],
            full=[item[2] for item in by_rank],
            ids=[item[2].node_id for item in by_rank],
            ranks=[item[1] for item in by_rank],
        )

    def update_position(self, node_id: int, position: tuple[float, float]) -> None:
        """Move ``node_id`` to ``position``, repairing geometry incrementally.

        The dynamic-topology entry point (driven by
        :mod:`repro.sim.mobility` timers).  Cached distances are dropped
        (they refill lazily and identically), the node's own neighbor
        table is rebuilt, and every affected node's table is patched in
        place for the one entry that changed.  Links that appear or
        vanish bump :attr:`link_changes` once each (links are undirected;
        both endpoint tables change together because reach is
        symmetric).

        "Affected" means the nodes the bucket index files within range of
        the *old or new* position: any table holding the mover lies within
        range of the old position, and any table the mover enters lies
        within range of the new one, so the bucket union covers every
        table the move can change and the repair is O(degree) per move.
        """
        if node_id not in self.positions:
            raise ValueError("node %r has no position" % node_id)
        self.position_updates += 1
        self._distance_cache.clear()
        if not self._frozen:
            self.positions[node_id] = position
            return  # next freeze() rebuilds everything from positions
        spatial = self._index()
        old_position = self.positions[node_id]
        self.positions[node_id] = position
        spatial.move(node_id, position)
        tables = self._tables
        phy = self._phys.get(node_id)
        if phy is not None:
            rank = self._ranks[node_id]
            max_range = self.max_range
            distance = self.distance
            for other in spatial.near((old_position, position)):
                if other == node_id:
                    continue
                table = tables[other]
                dist = distance(other, node_id)
                slot = bisect_right(table.ranks, rank) - 1
                present = slot >= 0 and table.ranks[slot] == rank
                if dist <= max_range:
                    if present:
                        table.move(rank, phy, dist)
                    else:
                        table.insert(rank, phy, dist)
                        self.link_changes += 1
                elif present:
                    table.remove(rank)
                    self.link_changes += 1
        tables[node_id] = self._build_table(node_id)

    def _table(self, node_id: int) -> _NeighborTable:
        if not self._frozen:
            self.freeze()
        return self._tables[node_id]

    def neighbors(self, node_id: int) -> list[int]:
        """Registered nodes within nominal range of ``node_id``.

        Registration order (the order the naive O(N) scan produced), so all
        iteration-order-sensitive consumers (PSM announcements, neighbor
        oracles) see exactly the pre-freeze sequence.
        """
        return self._table(node_id).ids

    def in_reach(self, src: int, reach: float) -> list["Phy"]:
        """PHYs of nodes within ``reach`` meters of ``src`` (excluding src).

        One bisect over the frozen distance table; the common maximum-power
        case returns the precomputed full neighbor list.  Always in
        registration order (see module docstring).
        """
        table = self._table(src)
        dists = table.dists
        if reach >= self.max_range:
            return table.full
        count = bisect_right(dists, reach)
        if count == len(dists):
            return table.full
        prefix = sorted(table.by_dist[:count])
        return [phy for _, phy in prefix]

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def begin_transmission(
        self, src: int, packet: Packet, duration: float, reach: float
    ) -> None:
        """Deliver ``packet`` to every node within ``reach`` of ``src``.

        Start-of-frame is signalled immediately to each potential receiver
        (this is what makes their carrier sense go busy); end-of-frame fires
        after ``duration`` seconds, at which point each receiver decides
        whether the frame survived (no collision, radio awake throughout).
        """
        if duration <= 0:
            raise ValueError("transmission duration must be positive")
        self.transmissions_started += 1
        # Only radios that started tracking the frame get the end-of-frame
        # upcall; sleeping/transmitting radios miss it entirely, so a PSM
        # network does not pay per-frame bookkeeping for its sleepers.
        model = self._filter
        if model is None:
            receivers = [
                phy
                for phy in self.in_reach(src, reach)
                if phy.rx_start(packet, src)
            ]
        else:
            # A vetoed reception is silent at the receiver — below the
            # sensitivity floor, so it neither delivers nor holds carrier
            # sense busy.  Candidate order stays registration order.
            receivers = []
            for phy in self.in_reach(src, reach):
                self.model_checks += 1
                if not model.delivers(
                    src, phy.node_id, self.distance(src, phy.node_id), reach
                ):
                    self.model_drops += 1
                    continue
                if phy.rx_start(packet, src):
                    receivers.append(phy)
        src_phy = self._phys[src]

        def _end() -> None:
            for phy in receivers:
                phy.rx_end(packet)
            src_phy.tx_end(packet)

        self.sim.schedule(duration, _end)

    def close(self) -> None:
        """Drop the PHY registry, the neighbor tables and the model binding.

        PHYs point back at the channel and a bound model points back at it
        too, so a finished network's channel sits in reference cycles;
        :meth:`~repro.sim.network.WirelessNetwork.close` breaks them here.
        The positions, the counters and the shared prebuilt geometry stay
        (the geometry is shared across seeds and is never cleared).  A
        closed channel must not carry frames again.
        """
        self._phys.clear()
        self._tables.clear()
        self.model = None
        self._filter = None

    def phy(self, node_id: int) -> "Phy":
        """Look up a registered PHY by node id."""
        return self._phys[node_id]

    @property
    def node_ids(self) -> list[int]:
        return list(self._phys)
