"""Node axis: cell-list geometry freeze and mobility repair at 5,000 nodes.

Not a paper artifact — the paper stops at 400 nodes.  This bench times the
two channel paths whose cost grows with the node count: the freeze-time
pair scan (:meth:`repro.sim.channel.ChannelGeometry.from_positions`) and
the per-move table repair (:meth:`repro.sim.channel.Channel.update_position`),
on uniform random fields sized for ~12 neighbours per node at the
Cabletron card's 250 m range.  Timings are printed, not bounded; the
asserted invariants are table identity against the brute-force reference
scan and against a fresh freeze of the final positions.
"""

import math
import random
import time

from repro.core.energy_model import NodeEnergy
from repro.core.radio import CABLETRON
from repro.net.topology import uniform_random_placement
from repro.sim.channel import Channel, ChannelGeometry
from repro.sim.engine import Simulator
from repro.sim.phy import Phy

from conftest import print_table, run_once

RANGE = CABLETRON.max_range
NEIGHBOURS = 12
NODES = 5000
CHECKED_NODES = 2000
MOVES = 200


def _field_side(node_count: int) -> float:
    """Square side giving ~``NEIGHBOURS`` nodes within range of each node."""
    return RANGE * math.sqrt(node_count * math.pi / NEIGHBOURS)


def _positions(node_count: int) -> dict[int, tuple[float, float]]:
    side = _field_side(node_count)
    rng = random.Random("bench-scale/%d" % node_count)
    return uniform_random_placement(node_count, side, side, rng).positions


def _tables(geometry: ChannelGeometry):
    return (geometry.ranks, geometry.ids, geometry.dists)


def test_bench_scale_freeze(benchmark):
    """A 5,000-node freeze; grid equals brute force at 2,000 nodes."""
    positions = _positions(NODES)
    start = time.perf_counter()
    geometry = run_once(
        benchmark, ChannelGeometry.from_positions, positions, RANGE
    )
    seconds = time.perf_counter() - start
    degree = sum(map(len, geometry.ids.values())) / NODES

    checked = _positions(CHECKED_NODES)
    assert _tables(ChannelGeometry.from_positions(checked, RANGE)) == _tables(
        ChannelGeometry.from_positions(checked, RANGE, method="bruteforce")
    )

    print_table(
        "Node axis: cell-list freeze",
        ["Nodes", "Mean degree", "Freeze (ms)"],
        [(NODES, degree, seconds * 1e3)],
    )


def test_bench_scale_mobility_repair(benchmark):
    """200 moves on a frozen 5,000-node channel match a fresh freeze."""
    positions = _positions(NODES)
    sim = Simulator(seed=1)
    channel = Channel(sim, positions, RANGE)
    for node_id in positions:
        Phy(sim, channel, node_id, CABLETRON, NodeEnergy(card=CABLETRON))
    channel.freeze()
    side = _field_side(NODES)
    rng = random.Random("bench-scale-moves/%d" % NODES)
    script = [
        (rng.randrange(NODES), (rng.uniform(0, side), rng.uniform(0, side)))
        for _ in range(MOVES)
    ]

    def move_all() -> float:
        start = time.perf_counter()
        for mover, target in script:
            channel.update_position(mover, target)
        return time.perf_counter() - start

    seconds = run_once(benchmark, move_all)

    fresh = ChannelGeometry.from_positions(dict(channel.positions), RANGE)
    for node_id in positions:
        table = channel._tables[node_id]
        assert (tuple(table.dists), tuple(table.ids)) == (
            fresh.dists[node_id],
            fresh.ids[node_id],
        ), node_id

    print_table(
        "Node axis: mobility repair on a frozen channel",
        ["Nodes", "Moves", "Link changes", "Per move (us)"],
        [(NODES, MOVES, channel.link_changes, seconds / MOVES * 1e6)],
    )
