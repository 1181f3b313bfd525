"""Equivalence suite pinning the cell-list geometry to brute force.

The cell-list candidate pass and the bucket-limited mobility repair are
*optimizations*: they must be byte-identical to the O(N^2) reference scan
— same distances, same rank order, same tie-breaks — for every position
set, including the adversarial ones (collinear lines, duplicate
distances, coordinates pinned to bucket boundaries, whole networks inside
one bucket).  This module asserts exactly that, three ways:

* :class:`TestGeometryEquivalence` — ``ChannelGeometry`` built with
  ``method="grid"`` equals ``method="bruteforce"`` on adversarial
  fixtures and hypothesis-random position sets;
* :class:`TestIndexedMobilityRepair` — ``update_position`` through the
  live ``_SpatialIndex`` equals a fresh brute-force freeze after every
  move, extending the PR 3 pattern of ``tests/test_mobility.py``;
* :class:`TestTablesOnFirstUse` — a frozen channel resolves each table
  the first time it is read: before any move it equals the geometry's
  table, and tables first read after moves equal a fresh brute-force
  freeze, with ``link_changes`` the running count of changed links;
* :class:`TestStaleGeometryWarning` — a rejected prebuilt geometry is
  *correct* (the ignore path) and now *observable* (the
  ``geometry_mismatches`` counter, surfaced as ``RunResult.warnings``).

Plus coverage for the streaming latency metrics large runs switch to.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.energy_model import NodeEnergy
from repro.core.radio import CABLETRON, MICA2
from repro.experiments import scenarios
from repro.metrics.collectors import RunResult
from repro.metrics.stats import StreamingLatencies, percentile
from repro.net.topology import Placement
from repro.sim.channel import Channel, ChannelGeometry, _SpatialIndex
from repro.sim.engine import Simulator
from repro.sim.network import NetworkConfig, WirelessNetwork
from repro.sim.phy import Phy
from repro.traffic.cbr import FlowStats
from repro.traffic.flows import FlowSpec
from repro.traffic.models import TrafficSpec

RANGE = CABLETRON.max_range  # 250 m


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _assert_same_geometry(a: ChannelGeometry, b: ChannelGeometry) -> None:
    """Byte-for-byte equality of every per-node table a freeze would build."""
    assert a.order == b.order
    assert a.positions == b.positions
    assert a.max_range == b.max_range
    for node_id in a.order:
        assert a.dists[node_id] == b.dists[node_id], node_id
        assert a.dist_ranks[node_id] == b.dist_ranks[node_id], node_id
        assert a.ranks[node_id] == b.ranks[node_id], node_id
        assert a.ids[node_id] == b.ids[node_id], node_id


def _build_channel(
    positions: dict[int, tuple[float, float]],
    max_range: float = RANGE,
) -> Channel:
    sim = Simulator(seed=1)
    channel = Channel(sim, positions, max_range)
    for node_id in positions:
        Phy(sim, channel, node_id, CABLETRON, NodeEnergy(card=CABLETRON))
    channel.freeze()
    return channel


def _table_snapshot(channel: Channel, node_id: int):
    table = channel._tables[node_id]
    return (
        list(table.dists),
        [(rank, phy.node_id) for rank, phy in table.by_dist],
        [phy.node_id for phy in table.full],
        list(table.ids),
        list(table.ranks),
    )


def _geometry_snapshot(geometry: ChannelGeometry, node_id: int):
    """The :func:`_table_snapshot` a freeze from ``geometry`` would give."""
    order = geometry.order
    return (
        list(geometry.dists[node_id]),
        [(rank, order[rank]) for rank in geometry.dist_ranks[node_id]],
        list(geometry.ids[node_id]),
        list(geometry.ids[node_id]),
        list(geometry.ranks[node_id]),
    )


def _links(geometry: ChannelGeometry) -> set[tuple[int, int]]:
    """Undirected in-range links of a geometry."""
    return {
        (min(node_id, other), max(node_id, other))
        for node_id in geometry.order
        for other in geometry.ids[node_id]
    }


def _register(
    positions: dict[int, tuple[float, float]],
    registered: list[int],
    max_range: float = RANGE,
) -> Channel:
    """A channel over ``positions`` with PHYs for ``registered`` only, in
    that order, frozen (the table-by-table path of :meth:`Channel.freeze`)."""
    sim = Simulator(seed=1)
    channel = Channel(sim, positions, max_range)
    for node_id in registered:
        Phy(sim, channel, node_id, CABLETRON, NodeEnergy(card=CABLETRON))
    channel.freeze()
    return channel


def _direct_table(
    positions: dict[int, tuple[float, float]],
    registered: list[int],
    node_id: int,
    max_range: float = RANGE,
):
    """``(dists, ids)`` of ``node_id``'s table by a scan of every
    registered node: dists by ``(distance, registration rank)``, ids in
    registration order."""
    x1, y1 = positions[node_id]
    entries = []
    for rank, other in enumerate(registered):
        if other == node_id:
            continue
        x2, y2 = positions[other]
        dist = math.hypot(x1 - x2, y1 - y2)
        if dist <= max_range:
            entries.append((dist, rank, other))
    entries.sort()
    return (
        [dist for dist, _, _ in entries],
        [other for _, _, other in sorted(entries, key=lambda e: e[1])],
    )


# ----------------------------------------------------------------------
# Adversarial position sets
# ----------------------------------------------------------------------


def _collinear() -> dict[int, tuple[float, float]]:
    """A line at half-range spacing: every second node exactly at range."""
    return {i: (i * (RANGE / 2.0), 0.0) for i in range(40)}


def _duplicate_distances() -> dict[int, tuple[float, float]]:
    """A 7x7 lattice: masses of equal distances exercising rank tie-breaks."""
    return {
        row * 7 + col: (col * 100.0, row * 100.0)
        for row in range(7)
        for col in range(7)
    }


def _bucket_boundaries() -> dict[int, tuple[float, float]]:
    """Coordinates pinned to exact multiples of the cell size (= range).

    Nodes sit *on* bucket edges and exactly ``max_range`` apart — the
    configuration where a naive fixed 3x3 window is most likely to be off
    by one cell.
    """
    positions = {}
    node_id = 0
    for row in range(5):
        for col in range(5):
            positions[node_id] = (col * RANGE, row * RANGE)
            node_id += 1
    # A few off-lattice nodes just inside/outside edges.
    for offset in (1e-9, -1e-9, 0.5):
        positions[node_id] = (RANGE + offset, RANGE - offset)
        node_id += 1
    return positions


def _one_bucket() -> dict[int, tuple[float, float]]:
    """Everyone inside a single cell (complete graph, all candidates)."""
    rng = random.Random(3)
    return {
        i: (rng.uniform(0, RANGE * 0.4), rng.uniform(0, RANGE * 0.4))
        for i in range(40)
    }


def _coincident() -> dict[int, tuple[float, float]]:
    """Duplicate coordinates: zero distances, ties broken purely by rank."""
    positions = {}
    for i in range(12):
        positions[i] = (100.0 * (i % 3), 50.0)
    positions[12] = (100.0, 50.0)
    positions[13] = (1e6, 1e6)  # isolated: empty table
    return positions


def _negative_coordinates() -> dict[int, tuple[float, float]]:
    """Field spanning the origin: negative bucket indices must floor right."""
    rng = random.Random(5)
    return {
        i: (rng.uniform(-700, 700), rng.uniform(-700, 700)) for i in range(60)
    }


#: Scenario presets whose seed-1 placements the equivalence tests freeze.
PRESET_PLACEMENTS = [
    "small_network",
    "large_network",
    "density_network-300",
    "density_network-400",
    "grid_network",
    "large_grid-256",
]


def _preset_positions(preset: str):
    """``(positions, max_range)`` of a :data:`PRESET_PLACEMENTS` entry."""
    name, _, count = preset.partition("-")
    factory = getattr(scenarios, name)
    scenario = factory(int(count)) if count else factory()
    return scenario.placement(1).positions, scenario.card.max_range


ADVERSARIAL_SETS = {
    "collinear": _collinear,
    "duplicate-distances": _duplicate_distances,
    "bucket-boundaries": _bucket_boundaries,
    "one-bucket": _one_bucket,
    "coincident": _coincident,
    "negative-coordinates": _negative_coordinates,
}


# ----------------------------------------------------------------------
# Geometry equivalence
# ----------------------------------------------------------------------


class TestGeometryEquivalence:
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_SETS))
    def test_adversarial_sets_identical(self, name):
        positions = ADVERSARIAL_SETS[name]()
        brute = ChannelGeometry.from_positions(
            positions, RANGE, method="bruteforce"
        )
        grid = ChannelGeometry.from_positions(positions, RANGE, method="grid")
        _assert_same_geometry(brute, grid)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_SETS))
    def test_adversarial_sets_identical_at_sensor_range(self, name):
        """Same sets at the 68 m Mica2 range (different bucket layout)."""
        positions = ADVERSARIAL_SETS[name]()
        reach = MICA2.max_range
        brute = ChannelGeometry.from_positions(
            positions, reach, method="bruteforce"
        )
        grid = ChannelGeometry.from_positions(positions, reach, method="grid")
        _assert_same_geometry(brute, grid)

    def test_rank_tie_breaks_preserved(self):
        """Equal distances order by registration rank in every method."""
        # Four nodes equidistant from node 0, registered out of id order.
        positions = {
            7: (0.0, 0.0),
            3: (100.0, 0.0),
            9: (-100.0, 0.0),
            1: (0.0, 100.0),
            5: (0.0, -100.0),
        }
        brute = ChannelGeometry.from_positions(
            positions, RANGE, method="bruteforce"
        )
        grid = ChannelGeometry.from_positions(positions, RANGE, method="grid")
        _assert_same_geometry(brute, grid)
        # All four neighbors of node 7 sit at exactly 100 m; the by-dist
        # order must be rank order (registration order 3, 9, 1, 5).
        assert brute.dists[7] == (100.0, 100.0, 100.0, 100.0)
        assert brute.dist_ranks[7] == (1, 2, 3, 4)

    def test_exact_range_boundary_included(self):
        """A pair at exactly max_range is a link — in every method."""
        positions = {0: (0.0, 0.0), 1: (RANGE, 0.0), 2: (0.0, RANGE + 1e-9)}
        for method in ("bruteforce", "grid"):
            geometry = ChannelGeometry.from_positions(
                positions, RANGE, method=method
            )
            assert geometry.ids[0] == (1,), method
            assert geometry.dists[0] == (RANGE,), method

    @given(
        coords=st.lists(
            st.tuples(
                st.floats(0, 2000, allow_nan=False, width=32),
                st.floats(0, 2000, allow_nan=False, width=32),
            ),
            min_size=2,
            max_size=70,
        ),
        reach=st.sampled_from([68.0, 250.0, 333.7]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_sets_identical(self, coords, reach):
        positions = {i: (float(x), float(y)) for i, (x, y) in enumerate(coords)}
        brute = ChannelGeometry.from_positions(
            positions, reach, method="bruteforce"
        )
        grid = ChannelGeometry.from_positions(positions, reach, method="grid")
        _assert_same_geometry(brute, grid)

    @pytest.mark.parametrize("preset", PRESET_PLACEMENTS)
    def test_preset_placements_identical(self, preset):
        """The placements the experiments actually freeze: the paper's
        fields and grid, and a sensor lattice spaced inside the Mica2
        range (exact-distance ties on every row)."""
        positions, reach = _preset_positions(preset)
        brute = ChannelGeometry.from_positions(
            positions, reach, method="bruteforce"
        )
        grid = ChannelGeometry.from_positions(positions, reach)
        _assert_same_geometry(brute, grid)
        assert any(grid.ids.values())

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="candidate method"):
            ChannelGeometry.from_positions({0: (0.0, 0.0)}, RANGE, method="kd")


# ----------------------------------------------------------------------
# Indexed mobility repair
# ----------------------------------------------------------------------


class TestIndexedMobilityRepair:
    def test_indexed_update_matches_full_refreeze(self):
        """150 indexed moves must land exactly where a fresh freeze does."""
        rng = random.Random(7)
        count = 20
        positions = {
            i: (rng.uniform(0, 300), rng.uniform(0, 300)) for i in range(count)
        }
        channel = _build_channel(positions)
        live = dict(positions)
        for _ in range(150):
            mover = rng.randrange(count)
            target = (rng.uniform(0, 300), rng.uniform(0, 300))
            live[mover] = target
            channel.update_position(mover, target)
        reference = _build_channel(live)
        for node_id in range(count):
            assert _table_snapshot(channel, node_id) == _table_snapshot(
                reference, node_id
            )

    def test_indexed_equals_unindexed_patching(self):
        """Every move lands on a fresh brute-force freeze, links counted.

        ``link_changes`` must equal the running count of undirected links
        that differ between consecutive fresh freezes.
        """
        rng = random.Random(19)
        count = 30
        positions = {
            i: (rng.uniform(0, 900), rng.uniform(0, 900)) for i in range(count)
        }
        channel = _build_channel(dict(positions))
        live = dict(positions)
        links = _links(
            ChannelGeometry.from_positions(live, RANGE, method="bruteforce")
        )
        changed = 0
        for _ in range(200):
            mover = rng.randrange(count)
            target = (rng.uniform(0, 900), rng.uniform(0, 900))
            live[mover] = target
            channel.update_position(mover, target)
            fresh = ChannelGeometry.from_positions(
                live, RANGE, method="bruteforce"
            )
            for node_id in range(count):
                assert _table_snapshot(channel, node_id) == _geometry_snapshot(
                    fresh, node_id
                ), (mover, node_id)
            fresh_links = _links(fresh)
            changed += len(links ^ fresh_links)
            links = fresh_links
            assert channel.link_changes == changed
        assert changed > 0
        assert channel.position_updates == 200

    def test_cross_bucket_and_boundary_moves(self):
        """Jumps across many cells and landings on exact cell edges."""
        positions = {
            0: (10.0, 10.0),
            1: (20.0, 10.0),
            2: (RANGE * 3, RANGE * 3),
            3: (RANGE * 3 + 5.0, RANGE * 3),
        }
        channel = _build_channel(positions)
        script = [
            (0, (RANGE * 3 + 10.0, RANGE * 3)),  # far jump into the cluster
            (2, (RANGE, RANGE)),                 # land exactly on a cell corner
            (0, (10.0, 10.0)),                   # jump back
            (3, (RANGE * 2, RANGE * 3)),         # exactly range from (RANGE*3, …)? no: repositioned 2
        ]
        live = dict(positions)
        for mover, target in script:
            live[mover] = target
            channel.update_position(mover, target)
            reference = _build_channel(dict(live))
            for node_id in positions:
                assert _table_snapshot(channel, node_id) == _table_snapshot(
                    reference, node_id
                ), (mover, target)

    def test_distance_cache_refreshes_after_indexed_move(self):
        channel = _build_channel({0: (0.0, 0.0), 1: (100.0, 0.0)})
        assert channel.distance(0, 1) == pytest.approx(100.0)
        channel.update_position(1, (0.0, 40.0))
        assert channel.distance(0, 1) == pytest.approx(40.0)

    def test_link_changes_counted_once_per_link_indexed(self):
        channel = _build_channel({0: (0.0, 0.0), 1: (100.0, 0.0)})
        far = channel.max_range * 10
        channel.update_position(1, (far, far))
        assert channel.link_changes == 1
        assert channel.neighbors(0) == []
        channel.update_position(1, (50.0, 0.0))
        assert channel.link_changes == 2
        assert channel.neighbors(0) == [1]

    def test_update_before_freeze_with_index_forced(self):
        """A move before the freeze builds no index; the freeze sees it."""
        sim = Simulator(seed=1)
        channel = Channel(sim, {0: (0.0, 0.0), 1: (100.0, 0.0)}, RANGE)
        Phy(sim, channel, 0, CABLETRON, NodeEnergy(card=CABLETRON))
        Phy(sim, channel, 1, CABLETRON, NodeEnergy(card=CABLETRON))
        channel.update_position(1, (50.0, 0.0))  # not frozen yet
        assert channel._spatial is None
        assert channel.neighbors(0) == [1]
        assert channel._tables[0].dists == [50.0]
        assert channel._spatial is None  # a static freeze never builds it

    def test_index_rebuilt_after_late_registration(self):
        """register() unfreezes; the next freeze re-bins everyone."""
        sim = Simulator(seed=1)
        positions = {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (200.0, 0.0)}
        channel = Channel(sim, positions, RANGE)
        Phy(sim, channel, 0, CABLETRON, NodeEnergy(card=CABLETRON))
        Phy(sim, channel, 1, CABLETRON, NodeEnergy(card=CABLETRON))
        channel.freeze()
        Phy(sim, channel, 2, CABLETRON, NodeEnergy(card=CABLETRON))
        channel.update_position(2, (150.0, 0.0))
        assert sorted(channel.neighbors(0)) == [1, 2]
        reference = _build_channel(
            {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (150.0, 0.0)}
        )
        for node_id in positions:
            assert _table_snapshot(channel, node_id) == _table_snapshot(
                reference, node_id
            )

    def test_spatial_index_near_is_superset_of_range(self):
        rng = random.Random(23)
        positions = {
            i: (rng.uniform(0, 2000), rng.uniform(0, 2000)) for i in range(200)
        }
        index = _SpatialIndex(positions, RANGE)
        for probe in list(positions.values())[:20]:
            near = set(index.near((probe,)))
            for node_id, (x, y) in positions.items():
                if math.hypot(x - probe[0], y - probe[1]) <= RANGE:
                    assert node_id in near


    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_SETS))
    def test_adversarial_moves_match_fresh_freeze(self, name):
        """Moves onto other nodes, onto cell corners and exactly one range
        away repair to a fresh brute-force freeze, links counted."""
        positions = ADVERSARIAL_SETS[name]()
        ids = list(positions)
        channel = _build_channel(dict(positions))
        live = dict(positions)
        links = _links(
            ChannelGeometry.from_positions(live, RANGE, method="bruteforce")
        )
        changed = 0
        rng = random.Random("adversarial-moves/" + name)
        for step in range(40):
            mover = rng.choice(ids)
            anchor = live[rng.choice(ids)]
            kind = step % 4
            if kind == 0:
                target = anchor  # coincident with another node
            elif kind == 1:
                target = (rng.randint(-3, 3) * RANGE, rng.randint(-3, 3) * RANGE)
            elif kind == 2:
                target = (anchor[0] + RANGE, anchor[1])  # exactly at range
            else:
                target = (anchor[0], anchor[1] - RANGE * (1 + 1e-12))
            live[mover] = target
            channel.update_position(mover, target)
            fresh = ChannelGeometry.from_positions(
                live, RANGE, method="bruteforce"
            )
            for node_id in ids:
                assert _table_snapshot(channel, node_id) == _geometry_snapshot(
                    fresh, node_id
                ), (step, mover, node_id)
            fresh_links = _links(fresh)
            changed += len(links ^ fresh_links)
            links = fresh_links
            assert channel.link_changes == changed, step


def _random_moves(positions, count, seed, span):
    """``count`` moves of random nodes to random points of ``[0, span)^2``."""
    rng = random.Random(seed)
    ids = list(positions)
    return [
        (rng.choice(ids), (rng.uniform(0, span), rng.uniform(0, span)))
        for _ in range(count)
    ]


def _link_churn(live, registered, moves):
    """Apply ``moves`` to ``live``; return the number of links created or
    broken, by direct distance.  A link joins a moving ``registered`` node
    to any placed node, since every placed node's table lists the
    registered nodes in its range."""
    registered = set(registered)
    changed = 0
    for mover, target in moves:
        def linked(position):
            x1, y1 = position
            return {
                other
                for other in live
                if other != mover
                and math.hypot(x1 - live[other][0], y1 - live[other][1])
                <= RANGE
            }

        if mover in registered:
            changed += len(linked(live[mover]) ^ linked(target))
        live[mover] = target
    return changed


class TestTablesOnFirstUse:
    """A frozen channel resolves each neighbor table when it is first
    read; the answer must not depend on when that happens."""

    @pytest.mark.parametrize("preset", PRESET_PLACEMENTS)
    def test_first_use_equals_geometry_table(self, preset):
        positions, reach = _preset_positions(preset)
        geometry = ChannelGeometry.from_positions(positions, reach)
        channel = _build_channel(dict(positions), reach)
        assert len(channel._tables) == 0  # the freeze resolved nothing
        order = list(positions)
        random.Random(preset).shuffle(order)
        for node_id in order:
            assert _table_snapshot(channel, node_id) == _geometry_snapshot(
                geometry, node_id
            ), node_id
        assert len(channel._tables) == len(positions)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_SETS))
    def test_tables_resolved_after_moves_match_fresh_freeze(self, name):
        """Moves with no table read in between: the tables the moves did
        not touch are first resolved afterwards, from the frozen geometry."""
        positions = ADVERSARIAL_SETS[name]()
        channel = _build_channel(dict(positions))
        moves = _random_moves(positions, 12, "lazy/" + name, 4 * RANGE)
        live = dict(positions)
        changed = _link_churn(live, list(positions), moves)
        for mover, target in moves:
            channel.update_position(mover, target)
        fresh = ChannelGeometry.from_positions(live, RANGE, method="bruteforce")
        for node_id in positions:
            assert _table_snapshot(channel, node_id) == _geometry_snapshot(
                fresh, node_id
            ), node_id
        assert channel.link_changes == changed

    def test_sparse_field_resolves_only_the_tables_moves_touch(self):
        """On a sparse field most tables stay unresolved through the moves
        and still come out equal to a fresh brute-force freeze."""
        rng = random.Random(37)
        span = 20 * RANGE
        positions = {
            i: (rng.uniform(0, span), rng.uniform(0, span)) for i in range(300)
        }
        channel = _build_channel(dict(positions))
        moves = _random_moves(positions, 10, 41, span)
        live = dict(positions)
        changed = _link_churn(live, list(positions), moves)
        for mover, target in moves:
            channel.update_position(mover, target)
        assert len(channel._tables) < len(positions) // 2
        fresh = ChannelGeometry.from_positions(live, RANGE, method="bruteforce")
        for node_id in positions:
            assert _table_snapshot(channel, node_id) == _geometry_snapshot(
                fresh, node_id
            ), node_id
        assert changed > 0
        assert channel.link_changes == changed

    def test_partial_registration_resolved_after_moves(self):
        """Placed nodes without a PHY resolve through the bucket index;
        resolved after moves, every table still equals a direct scan."""
        rng = random.Random(43)
        span = 12 * RANGE
        positions = {
            i: (rng.uniform(0, span), rng.uniform(0, span)) for i in range(120)
        }
        registered = [i for i in positions if i % 3][::-1]
        channel = _register(dict(positions), registered)
        moves = _random_moves(positions, 8, 47, span)
        live = dict(positions)
        changed = _link_churn(live, registered, moves)
        for mover, target in moves:
            channel.update_position(mover, target)
        assert len(channel._tables) < len(positions)
        for node_id in positions:
            table = channel._tables[node_id]
            assert (table.dists, table.ids) == _direct_table(
                live, registered, node_id
            ), node_id
        assert channel.link_changes == changed

    def test_frozen_neighbors_ignore_moves(self):
        channel = _build_channel({0: (0.0, 0.0), 1: (100.0, 0.0), 2: (900.0, 0.0)})
        channel.update_position(1, (600.0, 0.0))
        channel.update_position(2, (50.0, 0.0))
        assert channel.neighbors(0) == [2]
        assert channel.frozen_neighbors(0) == (1,)
        assert channel.frozen_neighbors(2) == ()

    def test_close_drops_the_table_map(self):
        channel = _build_channel({0: (0.0, 0.0), 1: (100.0, 0.0)})
        channel.neighbors(0)
        channel.close()
        assert channel._tables == {}
        assert type(channel._tables) is dict


class TestRegistrationOrderFreeze:
    """When the registered PHYs are not the placement in placement order,
    :meth:`Channel.freeze` builds each table through the bucket index
    instead of a geometry; the tables must equal a scan of every
    registered node."""

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_SETS))
    def test_subset_freeze_matches_direct_scan(self, name):
        positions = ADVERSARIAL_SETS[name]()
        registered = list(positions)[::-2]  # every other node, reversed
        channel = _register(positions, registered)
        for node_id in positions:
            table = channel._tables[node_id]
            assert (table.dists, table.ids) == _direct_table(
                positions, registered, node_id
            ), node_id

    def test_permuted_full_registration_matches_direct_scan(self):
        """Every node registered, but not in placement order."""
        positions = _negative_coordinates()
        registered = list(positions)
        random.Random(29).shuffle(registered)
        channel = _register(positions, registered)
        assert channel.geometry_mismatches == 0
        for node_id in positions:
            table = channel._tables[node_id]
            assert (table.dists, table.ids) == _direct_table(
                positions, registered, node_id
            ), node_id

    def test_moves_with_unregistered_nodes_match_direct_scan(self):
        """Moving registered and unregistered nodes keeps every table
        (unregistered nodes' included) equal to a direct scan."""
        rng = random.Random(31)
        positions = {
            i: (rng.uniform(0, 800), rng.uniform(0, 800)) for i in range(40)
        }
        registered = [i for i in positions if i % 3]
        channel = _register(dict(positions), registered)
        live = dict(positions)
        for _ in range(120):
            mover = rng.randrange(40)
            target = (rng.uniform(0, 800), rng.uniform(0, 800))
            live[mover] = target
            channel.update_position(mover, target)
            for node_id in live:
                table = channel._tables[node_id]
                assert (table.dists, table.ids) == _direct_table(
                    live, registered, node_id
                ), (mover, node_id)


# ----------------------------------------------------------------------
# Positions
# ----------------------------------------------------------------------


class TestNodeStateArrays:
    """Node positions live in one place: :attr:`Channel.positions`."""

    def test_positions_write_through(self):
        positions = {3: (10.0, 20.0), 8: (30.0, 40.0)}
        channel = _build_channel(dict(positions))
        channel.update_position(8, (99.0, 98.0))
        assert channel.positions[8] == (99.0, 98.0)
        assert channel.distance(3, 8) == math.hypot(89.0, 78.0)


# ----------------------------------------------------------------------
# Stale-geometry observability
# ----------------------------------------------------------------------


def _tiny_config(protocol: str = "DSR-Active") -> NetworkConfig:
    positions = {
        0: (0.0, 0.0),
        1: (150.0, 0.0),
        2: (300.0, 0.0),
    }
    placement = Placement(positions=positions, width=300.0, height=300.0)
    return NetworkConfig(
        placement=placement,
        card=CABLETRON,
        protocol=protocol,
        flows=[
            FlowSpec(
                flow_id=0,
                source=0,
                destination=2,
                rate_bps=2000.0,
                start=1.0,
                traffic=TrafficSpec("poisson"),
            )
        ],
        duration=5.0,
        seed=1,
    )


class TestStaleGeometryWarning:
    def test_mismatched_geometry_is_ignored_but_counted(self):
        """The ignore path stays correct — and is no longer silent."""
        sim = Simulator(seed=1)
        positions = {0: (0.0, 0.0), 1: (100.0, 0.0)}
        stale = ChannelGeometry.from_positions(
            {0: (0.0, 0.0), 1: (120.0, 0.0)}, RANGE
        )
        channel = Channel(sim, positions, RANGE, geometry=stale)
        for node_id in positions:
            Phy(sim, channel, node_id, CABLETRON, NodeEnergy(card=CABLETRON))
        channel.freeze()
        assert channel.geometry_mismatches == 1
        # Tables reflect the channel's real positions, not the stale ones.
        assert channel._tables[0].dists == [100.0]

    def test_valid_geometry_not_counted(self):
        sim = Simulator(seed=1)
        positions = {0: (0.0, 0.0), 1: (100.0, 0.0)}
        geometry = ChannelGeometry.from_positions(positions, RANGE)
        channel = Channel(sim, positions, RANGE, geometry=geometry)
        for node_id in positions:
            Phy(sim, channel, node_id, CABLETRON, NodeEnergy(card=CABLETRON))
        channel.freeze()
        assert channel.geometry_mismatches == 0

    def test_run_surfaces_stale_geometry_warning(self):
        config = _tiny_config()
        stale = ChannelGeometry.from_positions(
            {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}, CABLETRON.max_range
        )
        result = WirelessNetwork(config, geometry=stale).run()
        assert result.warnings == {"stale_geometry": 1.0}
        payload = result.to_payload()
        assert payload["warnings"] == {"stale_geometry": 1.0}
        # Round-trips through the cache payload format.
        assert RunResult.from_payload(payload).warnings == result.warnings

    def test_clean_run_emits_no_warnings_key(self):
        """The common case keeps payload bytes identical to old builds."""
        result = WirelessNetwork(_tiny_config()).run()
        assert result.warnings is None
        assert "warnings" not in result.to_payload()

    def test_clean_run_and_stale_geometry_run_agree_on_results(self):
        """A rejected geometry may cost time but never changes the run."""
        clean = WirelessNetwork(_tiny_config()).run()
        stale = ChannelGeometry.from_positions(
            {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}, CABLETRON.max_range
        )
        warned = WirelessNetwork(_tiny_config(), geometry=stale).run()
        clean_payload = clean.to_payload()
        warned_payload = warned.to_payload()
        warned_payload.pop("warnings")
        assert clean_payload == warned_payload


# ----------------------------------------------------------------------
# Streaming metrics (the O(N)-memory path large runs switch to)
# ----------------------------------------------------------------------


class TestStreamingMetrics:
    def test_percentiles_track_exact_within_bin_width(self):
        rng = random.Random(13)
        stream = StreamingLatencies()
        values = []
        for _ in range(20000):
            value = rng.expovariate(5.0)
            stream.add(value)
            values.append(value)
        values.sort()
        for quantile in (0.5, 0.9, 0.95, 0.99):
            exact = percentile(values, quantile)
            estimate = stream.percentile(quantile)
            assert abs(estimate - exact) / exact < 0.035, quantile
        assert stream.count == 20000
        assert stream.mean == pytest.approx(sum(values) / len(values))

    def test_estimates_clamped_to_observed_range(self):
        stream = StreamingLatencies()
        stream.add(0.25)
        for quantile in (0.0, 0.5, 1.0):
            assert stream.percentile(quantile) == 0.25

    def test_streaming_jitter_equals_list_jitter(self):
        rng = random.Random(17)
        latencies = [rng.uniform(0.01, 0.5) for _ in range(500)]
        recorded = FlowStats(
            spec=FlowSpec(flow_id=0, source=0, destination=1, rate_bps=1000.0)
        )
        streamed = FlowStats(
            spec=FlowSpec(flow_id=1, source=0, destination=1, rate_bps=1000.0)
        )
        for latency in latencies:
            recorded.latencies.append(latency)
            streamed.observe_latency(latency)
        assert streamed.jitter == recorded.jitter  # identical float ops

    def test_network_gate_switches_to_streaming(self, monkeypatch):
        """Above the node threshold, sinks stream instead of recording."""
        import repro.sim.network as network_module

        monkeypatch.setattr(network_module, "_STREAM_METRICS_MIN_NODES", 3)
        network = WirelessNetwork(_tiny_config())
        assert network._latency_stream is not None
        result = network.run()
        assert result.traffic is not None
        assert all(not stats.latencies for stats in network.flow_stats)
        # The exact path on the same config, for comparison.
        monkeypatch.setattr(network_module, "_STREAM_METRICS_MIN_NODES", 10**9)
        exact_net = WirelessNetwork(_tiny_config())
        assert exact_net._latency_stream is None
        exact = exact_net.run()
        assert exact.traffic is not None
        # Byte counters are exact on both paths; percentiles agree to the
        # histogram's bin resolution (both runs are deterministic twins).
        assert result.traffic["offered_bytes"] == exact.traffic["offered_bytes"]
        assert result.traffic["received_bytes"] == (
            exact.traffic["received_bytes"]
        )
        if exact.traffic["latency_p50"] > 0:
            assert result.traffic["latency_p50"] == pytest.approx(
                exact.traffic["latency_p50"], rel=0.05
            )
        assert result.traffic["jitter"] == pytest.approx(
            exact.traffic["jitter"]
        )
