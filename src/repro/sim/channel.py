"""Wireless channel: geometry, path loss and frame propagation.

The channel knows every node's position and nominal transmission range and
delivers frames to all nodes within the *reach* of a transmission — the
distance covered by the chosen transmit power level under the ``1/d^n``
path-loss model.  Control packets go out at maximum power (full nominal
range); power-controlled data transmissions reach exactly their target
distance (the paper assumes infinitely adjustable transmit power).

Positions are static by default, so all geometry is precomputed:
:meth:`Channel.freeze` (run lazily after the last :meth:`Channel.register`)
fixes one :class:`ChannelGeometry` — every node's in-range neighbors and
their distances, in registration order — and each node's mutable
neighbor table is resolved from it the first time :meth:`Channel.in_reach`
or :meth:`Channel.neighbors` asks for that node, so a cell pays only for
the tables its traffic reads.  A maximum-power transmission's receiver
set is then the table's full list; a reduced reach keeps the entries
whose stored distance is within it, so no frame re-measures a distance.
The pair scan behind the geometry
(:meth:`ChannelGeometry.from_positions`) is a cell list: positions are
binned into ``max_range``-sized cells and each node measures only the
members of the cells its range window overlaps, O(N x degree) instead of
O(N^2).  Every candidate is re-measured with ``math.hypot`` and entries
sort by rank, so the tables are byte-identical to the brute-force
reference scan; a prebuilt :class:`ChannelGeometry` can also
be handed to the :class:`Channel` constructor so the seeds of a sweep
share a single geometry pass (see
:func:`repro.experiments.runner.shared_setup`).
Receiver order is registration order — the same order the naive scan
produced — because the order in which ``rx_end`` upcalls fire schedules MAC
responses and therefore affects event sequence numbers; the determinism
contract (serial == parallel == cached, bit for bit) depends on it.

Dynamic topologies (:mod:`repro.sim.mobility`) move nodes mid-run through
:meth:`Channel.update_position`, which repairs the frozen tables
*incrementally* through the same cells: only the tables of nodes bucketed
within range of its old or new position are resolved (before the move)
and patched in place for the single entry that changed, and the moved
node's own table is rebuilt from the distances that pass measured —
O(moved nodes x degree), never the O(N^2) full re-freeze.  A table no
move has touched is still the one the freeze described, so it can be
resolved from the frozen geometry at any later time.  The bucket
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
from typing import TYPE_CHECKING, Callable, Mapping

from repro.net.topology import _SpatialIndex
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


class ChannelGeometry:
    """Precomputed all-pairs neighbor geometry, shareable across runs.

    Holds exactly what a frozen :class:`Channel` needs to resolve one
    :class:`_NeighborTable` per node — the ``(rank, neighbor, distance)``
    entries of every in-range pair, in rank (registration) order — keyed
    to a specific node ordering and position set.  All distances are
    ``math.hypot`` values, so tables instantiated from a geometry are
    **bit-identical** to tables computed from scratch; the cell list below
    only changes how candidate pairs are *found*, never how they are
    measured.

    Instances are immutable (tuples throughout) and safe to share: every
    resolved table is built from fresh mutable lists, so one simulation's
    mobility patches can never leak into a sibling seed's tables.  Built
    by :func:`repro.experiments.runner.shared_setup` — once per sweep,
    or per pool worker — for scenarios whose placement does not depend
    on the seed.

    Per node the entries are stored as parallel tuples rather than tuples
    of triples — ``ranks``, ``ids`` and ``dists``, all in rank order — so
    instantiating a table is a handful of ``list()`` copies and positional
    PHY lookups per node.
    """

    __slots__ = ("order", "positions", "max_range", "ranks", "ids", "dists")

    def __init__(
        self,
        order: tuple[int, ...],
        positions: dict[int, tuple[float, float]],
        max_range: float,
        ranks: dict[int, tuple[int, ...]],
        ids: dict[int, tuple[int, ...]],
        dists: dict[int, tuple[float, ...]],
    ) -> None:
        self.order = order
        self.positions = positions
        self.max_range = max_range
        #: node -> neighbor ranks ascending (registration order).
        self.ranks = ranks
        #: node -> neighbor ids, parallel to :attr:`ranks`.
        self.ids = ids
        #: node -> neighbor distances, parallel to :attr:`ranks`.
        self.dists = dists

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
        re-measurement and rank sort below, so the choice can never change
        the result — only how long it takes.
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
        ranks: dict[int, tuple[int, ...]] = {}
        ids: dict[int, tuple[int, ...]] = {}
        dists: dict[int, tuple[float, ...]] = {}
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
                    entries.append((rank_of[other], other, dist))
            if entries:
                entries.sort()  # by rank, which is unique per entry
                ranks[node_id], ids[node_id], dists[node_id] = zip(*entries)
            else:
                ranks[node_id] = ids[node_id] = dists[node_id] = ()
        return cls(order, dict(positions), max_range, ranks, ids, dists)

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


class _NeighborTable:
    """Per-node reach table, resolved on first use, patched on position moves.

    Four parallel lists in registration order: ``full`` is the complete
    in-range receiver list — what a maximum-power (control) transmission
    reaches — with each neighbor's node id in ``ids``, registration index
    in ``ranks`` (ascending, so :meth:`Channel.update_position` finds a
    neighbor's slot with one bisect) and distance in ``dists``.
    """

    __slots__ = ("full", "ids", "ranks", "dists")

    def __init__(
        self,
        full: list["Phy"],
        ids: list[int],
        ranks: list[int],
        dists: list[float],
    ) -> None:
        self.full = full
        self.ids = ids
        self.ranks = ranks
        self.dists = dists

    def insert(self, slot: int, rank: int, phy: "Phy", dist: float) -> None:
        """Add a neighbor at ``slot``, the place of ``rank`` in ``ranks``."""
        self.full.insert(slot, phy)
        self.ids.insert(slot, phy.node_id)
        self.ranks.insert(slot, rank)
        self.dists.insert(slot, dist)

    def remove(self, slot: int) -> None:
        """Drop the neighbor at ``slot``."""
        del self.full[slot]
        del self.ids[slot]
        del self.ranks[slot]
        del self.dists[slot]


class _NeighborTables(dict):
    """Node id -> :class:`_NeighborTable`, each resolved on first lookup.

    :meth:`Channel.freeze` leaves the mapping empty.  The first
    ``tables[node_id]`` instantiates the node's table from the frozen
    :attr:`geometry` — fresh lists, neighbor ranks resolved to PHYs by
    position in registration order — or, for a placed node without a
    PHY, scans the bucket index (``build``), and keeps it.  ``get``,
    ``in`` and ``len`` see resolved tables only.

    The mapping holds the channel's PHYs and a method of the channel, so
    :meth:`Channel.close` drops it along with the tables.
    """

    __slots__ = ("geometry", "_phys", "_build")

    def __init__(
        self,
        geometry: ChannelGeometry,
        phys: list["Phy"],
        build: "Callable[[int], _NeighborTable]",
    ) -> None:
        super().__init__()
        #: The geometry of the last freeze: registered nodes only, ranks
        #: equal to registration indices.
        self.geometry = geometry
        self._phys = phys
        self._build = build

    def __missing__(self, node_id: int) -> _NeighborTable:
        geometry = self.geometry
        ranks = geometry.ranks.get(node_id)
        if ranks is None:
            table = self._build(node_id)
        else:
            phys = self._phys
            table = _NeighborTable(
                full=[phys[rank] for rank in ranks],
                ids=list(geometry.ids[node_id]),
                ranks=list(ranks),
                dists=list(geometry.dists[node_id]),
            )
        self[node_id] = table
        return table


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
        :meth:`freeze` resolves its tables from it instead of recomputing
        the pair scan.  A geometry whose node order or
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
        #: Resolved neighbor tables; a :class:`_NeighborTables` once frozen.
        self._tables: dict[int, _NeighborTable] = {}
        self._ranks: dict[int, int] = {}
        self._frozen = False
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
        """Euclidean distance between two nodes' current positions, in
        meters.

        ``math.hypot`` of the two differences; it takes their absolute
        values, so ``distance(u, v)`` and ``distance(v, u)`` are the same
        float, and both equal the distance a neighbor table stores.
        """
        (x1, y1), (x2, y2) = self.positions[u], self.positions[v]
        return math.hypot(x1 - x2, y1 - y2)

    def freeze(self) -> None:
        """Fix the neighbor geometry; each table resolves on first use.

        Called automatically on first propagation/neighbor use after the
        last :meth:`register`; call it explicitly after network assembly to
        front-load the geometry pass.  Registering another PHY
        un-freezes the channel and the next use re-freezes it.

        The geometry is the still-valid prebuilt one handed to the
        constructor, or else one pair scan through
        :class:`ChannelGeometry`'s cell list over the registered nodes in
        registration order.  No table is built here: :class:`_NeighborTables`
        resolves a node's table the first time it is read, bit-identical to
        a table built at freeze time (the pinned digests of
        ``tests/test_orchestration.py`` run over them).
        """
        phys = self._phys
        self._ranks = {node_id: rank for rank, node_id in enumerate(phys)}
        self._spatial = None  # positions may have moved while unfrozen
        geometry = self._geometry
        if geometry is not None and not self._geometry_valid(geometry):
            geometry = None
            self.geometry_mismatches += 1
        if geometry is None:
            positions = self.positions
            if tuple(phys) != tuple(positions):
                # Partial or reordered registration: ranks are registration
                # indices, so the scan runs over the registered nodes in
                # that order.  Placed nodes without a PHY get their (PHY
                # only) tables from the bucket index on first use, keyed
                # by position so neighbor queries answer for any placed
                # node.
                positions = {node_id: positions[node_id] for node_id in phys}
            geometry = ChannelGeometry.from_positions(positions, self.max_range)
        self._tables = _NeighborTables(
            geometry, list(phys.values()), self._build_table
        )
        self._frozen = True

    def _geometry_valid(self, geometry: ChannelGeometry) -> bool:
        """A prebuilt geometry must still describe this exact channel."""
        return (
            geometry.max_range == self.max_range
            and geometry.order == tuple(self._phys)
            and geometry.positions == self.positions
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
        """Neighbor table of a placed node without a PHY, at current
        positions.

        Measures only the registered nodes the bucket index files within
        range of ``node_id`` (a superset of its neighbors; unregistered
        placed nodes are skipped), then sorts them by rank.
        """
        max_range = self.max_range
        distance = self.distance
        ranks = self._ranks
        phys = self._phys
        in_range: list[tuple[int, float, "Phy"]] = []
        for other in self._index().near((self.positions[node_id],)):
            if other == node_id:
                continue
            phy = phys.get(other)
            if phy is None:
                continue
            dist = distance(node_id, other)
            if dist <= max_range:
                in_range.append((ranks[other], dist, phy))
        return self._table_of(in_range)

    @staticmethod
    def _table_of(in_range: list[tuple[int, float, "Phy"]]) -> _NeighborTable:
        """The table of ``(rank, distance, phy)`` entries, sorted by rank."""
        in_range.sort()  # ranks are unique, so no PHY is ever compared
        return _NeighborTable(
            full=[phy for _, _, phy in in_range],
            ids=[phy.node_id for _, _, phy in in_range],
            ranks=[rank for rank, _, _ in in_range],
            dists=[dist for _, dist, _ in in_range],
        )

    def update_position(self, node_id: int, position: tuple[float, float]) -> None:
        """Move ``node_id`` to ``position``, repairing geometry incrementally.

        The dynamic-topology entry point (driven by
        :mod:`repro.sim.mobility` timers).  Every affected node's table is
        patched in place for the one entry that changed — its stored
        distance while the link holds, an insert or a delete when the
        link appears or breaks — and the node's own table is rebuilt from
        the distances the same pass measured.  Links that appear or
        vanish bump :attr:`link_changes` once each (links are undirected;
        both endpoint tables change together because reach is
        symmetric).

        "Affected" means the nodes the bucket index files within range of
        the *old or new* position: any table holding the mover lies within
        range of the old position, and any table the mover enters lies
        within range of the new one, so the bucket union covers every
        table the move can change — and every neighbor of the new
        position — and the repair is O(degree) per move.
        """
        positions = self.positions
        if node_id not in positions:
            raise ValueError("node %r has no position" % node_id)
        self.position_updates += 1
        if not self._frozen:
            positions[node_id] = position
            return  # next freeze() rebuilds everything from positions
        spatial = self._index()
        tables = self._tables
        phys = self._phys
        phy = phys.get(node_id)
        if phy is None:
            # No table lists a node without a PHY; only its own changes.
            positions[node_id] = position
            spatial.move(node_id, position)
            tables[node_id] = self._build_table(node_id)
            return
        near = spatial.near((positions[node_id], position))
        if len(tables) < len(positions):
            # Resolve every table the move can patch before the write
            # below.  A table built through the bucket index (a placed node
            # without a PHY) reads live positions: resolved after the write
            # it would already hold the move, and the link it gains or
            # loses would go uncounted.  (Tables from the frozen geometry
            # would come out right either way.)
            for other in near:
                tables[other]
        positions[node_id] = position
        spatial.move(node_id, position)
        ranks = self._ranks
        rank = ranks[node_id]
        max_range = self.max_range
        x, y = position
        own: list[tuple[int, float, "Phy"]] = []
        for other in near:
            if other == node_id:
                continue
            table = tables[other]
            x2, y2 = positions[other]
            dist = math.hypot(x2 - x, y2 - y)
            table_ranks = table.ranks
            slot = bisect_right(table_ranks, rank)
            present = slot > 0 and table_ranks[slot - 1] == rank
            if dist <= max_range:
                if present:
                    table.dists[slot - 1] = dist
                else:
                    table.insert(slot, rank, phy, dist)
                    self.link_changes += 1
                other_phy = phys.get(other)
                if other_phy is not None:
                    own.append((ranks[other], dist, other_phy))
            elif present:
                table.remove(slot - 1)
                self.link_changes += 1
        tables[node_id] = self._table_of(own)

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

    def frozen_neighbors(self, node_id: int) -> tuple[int, ...]:
        """Registered nodes within nominal range of ``node_id`` at the last
        freeze, in registration order, whatever has moved since.

        Read from the frozen geometry, so it resolves no table.
        ``node_id`` must have a registered PHY.
        """
        if not self._frozen:
            self.freeze()
        return self._tables.geometry.ids[node_id]

    def in_reach(self, src: int, reach: float) -> list["Phy"]:
        """PHYs of nodes within ``reach`` meters of ``src`` (excluding src).

        The common maximum-power case returns the table's full neighbor
        list; a reduced reach keeps the entries whose stored distance is
        within it.  Always in registration order (see module docstring).
        """
        table = self._table(src)
        if reach >= self.max_range:
            return table.full
        return [
            phy for phy, dist in zip(table.full, table.dists) if dist <= reach
        ]

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
            # sense busy.  Candidate order stays registration order, and
            # each candidate's distance is the one its table stores.
            table = self._table(src)
            candidates = zip(table.full, table.dists)
            if reach < self.max_range:
                candidates = [
                    (phy, dist) for phy, dist in candidates if dist <= reach
                ]
                self.model_checks += len(candidates)
            else:
                self.model_checks += len(table.full)
            delivers = model.delivers
            receivers = []
            drops = 0
            for phy, dist in candidates:
                if not delivers(src, phy.node_id, dist, reach):
                    drops += 1
                elif phy.rx_start(packet, src):
                    receivers.append(phy)
            self.model_drops += drops
        src_phy = self._phys[src]

        def _end() -> None:
            for phy in receivers:
                phy.rx_end(packet)
            src_phy.tx_end(packet)

        self.sim.schedule(duration, _end)

    def close(self) -> None:
        """Drop the PHY registry, the neighbor tables and the model binding.

        PHYs point back at the channel, and so do a bound model and the
        table map (it resolves through a method of the channel), so a
        finished network's channel sits in reference cycles;
        :meth:`~repro.sim.network.WirelessNetwork.close` breaks them here.
        The positions, the counters and the shared prebuilt geometry stay
        (the geometry is shared across seeds and is never cleared).  A
        closed channel must not carry frames again.
        """
        self._phys.clear()
        self._tables = {}
        self.model = None
        self._filter = None

    def phy(self, node_id: int) -> "Phy":
        """Look up a registered PHY by node id."""
        return self._phys[node_id]

    @property
    def node_ids(self) -> list[int]:
        return list(self._phys)
