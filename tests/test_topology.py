"""Tests for placements and connectivity graphs."""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.radio import CABLETRON
from repro.net.topology import (
    Placement,
    _is_connected,
    connectivity_graph,
    grid_placement,
    uniform_random_placement,
)


def graph_is_connected(placement, max_range):
    """The reference: networkx on the materialized unit-disk graph."""
    return nx.is_connected(connectivity_graph(placement, max_range))


def reference_placement(count, width, height, rng, max_range, max_attempts=100):
    """The connected-placement loop as it stood on networkx: redraw until
    the unit-disk graph is connected.  Returns the placement and the
    number of draws it took."""
    for draws in range(1, max_attempts + 1):
        positions = {
            node: (rng.uniform(0, width), rng.uniform(0, height))
            for node in range(count)
        }
        placement = Placement(positions, width, height)
        if graph_is_connected(placement, max_range):
            return placement, draws
    raise RuntimeError("no connected draw in %d attempts" % max_attempts)


class TestPlacement:
    def test_distance(self):
        placement = Placement({0: (0.0, 0.0), 1: (3.0, 4.0)}, 10.0, 10.0)
        assert placement.distance(0, 1) == pytest.approx(5.0)

    def test_rejects_out_of_field_nodes(self):
        with pytest.raises(ValueError):
            Placement({0: (11.0, 0.0)}, 10.0, 10.0)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            Placement({0: (0.0, 0.0)}, 0.0, 10.0)

    def test_node_ids_sorted(self):
        placement = Placement({3: (1, 1), 1: (2, 2), 2: (3, 3)}, 10.0, 10.0)
        assert placement.node_ids == [1, 2, 3]


class TestUniformRandom:
    def test_count_and_bounds(self):
        rng = random.Random(1)
        placement = uniform_random_placement(50, 500.0, 500.0, rng)
        assert len(placement) == 50
        for x, y in placement.positions.values():
            assert 0 <= x <= 500 and 0 <= y <= 500

    def test_reproducible(self):
        a = uniform_random_placement(10, 100.0, 100.0, random.Random(7))
        b = uniform_random_placement(10, 100.0, 100.0, random.Random(7))
        assert a.positions == b.positions

    def test_connectivity_requirement(self):
        rng = random.Random(3)
        placement = uniform_random_placement(
            30, 400.0, 400.0, rng, require_connected_range=250.0
        )
        graph = connectivity_graph(placement, 250.0)
        assert nx.is_connected(graph)

    def test_impossible_connectivity_raises(self):
        rng = random.Random(3)
        with pytest.raises(RuntimeError):
            uniform_random_placement(
                50, 5000.0, 5000.0, rng,
                require_connected_range=10.0, max_attempts=3,
            )

    @pytest.mark.parametrize("bad_range", [0.0, -1.0])
    def test_non_positive_connectivity_range_rejected(self, bad_range):
        with pytest.raises(ValueError, match="max_range must be positive"):
            uniform_random_placement(
                5, 100.0, 100.0, random.Random(1),
                require_connected_range=bad_range,
            )

    @pytest.mark.parametrize(
        "count, field, max_range",
        [
            (50, 500.0, 250.0),  # the smoke small network
            (500, 3300.0, 250.0),  # the sparse 500-node campaign field
        ],
    )
    def test_same_placements_and_draws_as_the_graph_loop(
        self, count, field, max_range
    ):
        """Seeds 0-49 yield the networkx loop's placement after the same
        number of draws: both leave the RNG in the same state."""
        draw_counts = []
        for seed in range(50):
            rng = random.Random(seed)
            placement = uniform_random_placement(
                count, field, field, rng, require_connected_range=max_range
            )
            reference_rng = random.Random(seed)
            expected, draws = reference_placement(
                count, field, field, reference_rng, max_range
            )
            assert placement == expected, seed
            assert rng.getstate() == reference_rng.getstate(), seed
            draw_counts.append(draws)
        if count == 500:
            # The sparse field redraws often, so the rejection path runs.
            assert max(draw_counts) > 1


@st.composite
def placements(draw):
    side = draw(st.sampled_from([10.0, 300.0, 1300.0, 3300.0]))
    count = draw(st.integers(1, 80))
    coordinate = st.floats(0.0, side)
    points = draw(
        st.lists(
            st.tuples(coordinate, coordinate), min_size=count, max_size=count
        )
    )
    return Placement(dict(enumerate(points)), side, side)


class TestConnectivitySearch:
    """The search behind ``require_connected_range`` against networkx."""

    @given(
        placement=placements(),
        max_range=st.sampled_from([1.0, 40.0, 250.0, 600.0, 2000.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_networkx(self, placement, max_range):
        assert _is_connected(placement, max_range) == graph_is_connected(
            placement, max_range
        )

    def test_nodes_exactly_range_apart_connect(self):
        """A 3-4-5 triangle: the edge rule is ``<=`` on ``hypot``."""
        placement = Placement({0: (0.0, 0.0), 1: (3.0, 4.0)}, 10.0, 10.0)
        assert _is_connected(placement, 5.0)
        assert graph_is_connected(placement, 5.0)
        below = math.nextafter(5.0, 0.0)
        assert not _is_connected(placement, below)
        assert not graph_is_connected(placement, below)

    def test_coincident_nodes(self):
        pair = Placement({0: (2.0, 2.0), 1: (2.0, 2.0)}, 10.0, 10.0)
        assert _is_connected(pair, 1e-9)
        assert graph_is_connected(pair, 1e-9)
        apart = Placement(
            {0: (2.0, 2.0), 1: (2.0, 2.0), 2: (9.0, 9.0)}, 10.0, 10.0
        )
        assert not _is_connected(apart, 1.0)
        assert not graph_is_connected(apart, 1.0)

    def test_single_node_is_connected(self):
        placement = Placement({7: (1.0, 1.0)}, 10.0, 10.0)
        assert _is_connected(placement, 1.0)
        assert graph_is_connected(placement, 1.0)

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_chain_held_by_one_boundary_edge(self, shift):
        """Two clusters joined only by (2, 0)-(5, 4), exactly 5 apart;
        nudging one end of that edge by an ulp splits the network."""
        bridge_end = (5.0 + shift * math.ulp(5.0), 4.0)
        positions = {
            0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0),
            3: bridge_end, 4: (6.0, 4.0), 5: (7.0, 4.0),
        }
        placement = Placement(positions, 10.0, 10.0)
        connected = shift == 0.0
        assert _is_connected(placement, 5.0) is connected
        assert graph_is_connected(placement, 5.0) is connected


class TestConnectivityCellBoundaries:
    """The cell-list search where candidates sit on cell edges.

    Cells are ``max_range`` on a side, so with a range of 5 every
    coordinate that is a multiple of 5 lies on a cell edge.
    """

    @staticmethod
    def _agree(positions, max_range, width=50.0, height=50.0):
        placement = Placement(positions, width, height)
        connected = _is_connected(placement, max_range)
        assert connected == graph_is_connected(placement, max_range)
        return connected

    @pytest.mark.parametrize("pair", [
        ((4.0, 1.0), (9.0, 1.0)),  # across one vertical edge
        ((5.0, 1.0), (10.0, 1.0)),  # both ends on edges
        ((3.0, 1.0), (6.0, 5.0)),  # a 3-4-5 diagonal across a corner
        ((6.0, 5.0), (3.0, 1.0)),  # the same pair, searched the other way
    ])
    def test_pair_exactly_range_apart_across_an_edge(self, pair):
        a, b = pair
        assert self._agree({0: a, 1: b}, 5.0)
        assert not self._agree({0: a, 1: b}, math.nextafter(5.0, 0.0))

    def test_nodes_on_cell_corners(self):
        corners = {
            node: (5.0 * (node % 3), 5.0 * (node // 3)) for node in range(9)
        }
        assert self._agree(corners, 5.0)
        assert not self._agree(corners, math.nextafter(5.0, 0.0))
        # Diagonal corners only: sqrt(50) apart, no axis neighbour.
        diagonal = {0: (0.0, 0.0), 1: (5.0, 5.0), 2: (10.0, 10.0)}
        assert self._agree(diagonal, math.sqrt(50.0))
        assert not self._agree(diagonal, 7.0)

    @pytest.mark.parametrize("gap", [None, 17])
    def test_chain_across_many_cells(self, gap):
        """A 40-hop zigzag through 25 cells, each hop exactly one range
        (a 3-4-5 step scaled to 1.25) and most across a cell edge;
        dropping one node splits it."""
        positions = {}
        x = y = 0.0
        for node in range(41):
            positions[node] = (x, y)
            x, y = x + 3.0 * 0.25, y + (4.0 if node % 2 == 0 else -4.0) * 0.25
        if gap is not None:
            del positions[gap]
        assert self._agree(positions, 1.25, width=31.0, height=2.0) is (
            gap is None
        )

    def test_points_on_the_far_field_edge(self):
        """``x == width`` and ``y == height`` are inside the field and
        bucket one cell past the last full one."""
        width = height = 10.0
        positions = {
            0: (10.0, 10.0), 1: (5.0, 10.0), 2: (10.0, 5.0), 3: (0.0, 10.0),
        }
        assert self._agree(positions, 5.0, width, height)
        assert not self._agree(
            positions, math.nextafter(5.0, 0.0), width, height
        )


class TestGrid:
    def test_7x7_grid_spacing(self):
        """The §5.2.3 grid: 300x300 with 7 nodes per side -> 50 m spacing."""
        placement = grid_placement(7, 300.0, 300.0)
        assert len(placement) == 49
        assert placement.distance(0, 1) == pytest.approx(50.0)
        assert placement.distance(0, 7) == pytest.approx(50.0)

    def test_row_major_ids(self):
        placement = grid_placement(3, 100.0, 100.0)
        assert placement.positions[0] == (0.0, 0.0)
        assert placement.positions[2] == (100.0, 0.0)
        assert placement.positions[6] == (0.0, 100.0)

    def test_corners_at_field_extremes(self):
        placement = grid_placement(5, 200.0, 200.0)
        assert placement.positions[24] == (200.0, 200.0)

    def test_minimum_side(self):
        with pytest.raises(ValueError):
            grid_placement(1, 100.0, 100.0)


class TestConnectivityGraph:
    def test_edges_respect_range(self):
        placement = Placement(
            {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (300.0, 0.0)}, 300.0, 1.0
        )
        graph = connectivity_graph(placement, 250.0)
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 2)
        assert not graph.has_edge(0, 2)

    def test_edge_attributes_with_card(self):
        placement = Placement({0: (0.0, 0.0), 1: (100.0, 0.0)}, 100.0, 1.0)
        graph = connectivity_graph(placement, 250.0, card=CABLETRON)
        edge = graph.edges[0, 1]
        assert edge["distance"] == pytest.approx(100.0)
        assert edge["tx_power"] == pytest.approx(CABLETRON.transmit_power(100.0))
        assert edge["tx_level"] == pytest.approx(
            CABLETRON.transmit_power_level(100.0)
        )

    def test_positions_stored_as_node_attributes(self):
        placement = grid_placement(3, 100.0, 100.0)
        graph = connectivity_graph(placement, 250.0)
        assert graph.nodes[4]["pos"] == placement.positions[4]

    def test_invalid_range(self):
        placement = grid_placement(3, 100.0, 100.0)
        with pytest.raises(ValueError):
            connectivity_graph(placement, 0.0)

    def test_grid_at_50m_range_is_lattice(self):
        """At exactly one-spacing range only axis neighbors connect."""
        placement = grid_placement(4, 150.0, 150.0)  # 50 m spacing
        graph = connectivity_graph(placement, 50.0)
        assert graph.degree(0) == 2  # corner
        assert graph.degree(5) == 4  # interior
