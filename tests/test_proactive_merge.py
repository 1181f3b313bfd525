"""The one-pass DSDV merge against the loop it replaced.

``_ParentMerge`` keeps the previous ``ProactiveProtocol._on_update`` and
``_drain_buffer`` bodies verbatim, over the previous mutable table entry.
Hypothesis drives both implementations through the same sequences of
updates and requires identical tables, identical drained sends and the
same triggered-update decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.radio import CABLETRON, PowerMode
from repro.routing.costs import HopCount, JointCost
from repro.routing.proactive import (
    INFINITE_METRIC,
    DsdvUpdate,
    ProactiveProtocol,
    UpdateEntry,
    _TableEntry,
)
from repro.sim.engine import Simulator
from repro.sim.packet import make_data_packet

ME = 0
NODES = range(8)
NOW = 12.5


@dataclass
class _ParentTableEntry:
    next_hop: int
    metric: float
    seqno: int
    updated_at: float


class _ParentMerge(ProactiveProtocol):
    """The previous merge loop, kept as the reference."""

    def _on_update(self, update: DsdvUpdate) -> None:
        me = self.node.node_id
        sender = update.sender
        link_cost = self.cost(
            self.link_distance(sender), update.sender_mode, None
        )
        changed = False
        for advertised in update.entries:
            destination = advertised.destination
            if destination == me:
                continue
            metric = (
                advertised.metric + link_cost
                if not math.isinf(advertised.metric)
                else INFINITE_METRIC
            )
            current = self.table.get(destination)
            adopt = False
            if current is None:
                adopt = not math.isinf(metric)
            elif advertised.seqno > current.seqno:
                adopt = True
            elif advertised.seqno == current.seqno and metric < current.metric:
                adopt = True
            elif current.next_hop == sender and metric != current.metric:
                # Metric through our own next hop changed; track it.
                adopt = True
            if adopt:
                self.table[destination] = _ParentTableEntry(
                    next_hop=sender,
                    metric=metric,
                    seqno=advertised.seqno,
                    updated_at=self.sim.now,
                )
                changed = True
                self._drain_buffer(destination)
        if changed and self.trigger_on_mode_change:
            self._schedule_triggered_update()

    def _drain_buffer(self, destination: int) -> None:
        entry = self.table.get(destination)
        if entry is None or math.isinf(entry.metric):
            return
        for packet in self.buffer.pop_all(destination):
            frame = packet.copy_for_hop(self.node.node_id, entry.next_hop)
            frame.payload = None
            self.node.mac.send(frame, self.data_tx_distance(entry.next_hop))


def _protocol(cls, cost, trigger, sends, power_control=True):
    """A protocol on a stub node at ``ME``; sends land in ``sends``."""
    sim = Simulator()
    sim.now = NOW

    def send(frame, distance=None):
        sends.append(
            (frame.src, frame.dst, frame.final_dst, frame.seqno,
             frame.payload, distance)
        )

    node = SimpleNamespace(
        sim=sim,
        node_id=ME,
        channel=SimpleNamespace(distance=lambda a, b: 40.0 * abs(a - b) + 7.5),
        mac=SimpleNamespace(send=send),
        power=SimpleNamespace(mode=PowerMode.ACTIVE),
        power_control=power_control,
    )
    protocol = cls(node, cost=cost, trigger_on_mode_change=trigger)
    protocol.triggers = []
    protocol._schedule_triggered_update = lambda: protocol.triggers.append(True)
    return protocol


def _snapshot(protocol) -> dict:
    return {
        destination: (entry.next_hop, entry.metric, entry.seqno, entry.updated_at)
        for destination, entry in protocol.table.items()
    }


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: Integer-valued metrics make ``metric + 1`` ties with hop counts likely.
metrics = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0, INFINITE_METRIC]),
    st.floats(0.0, 8.0, allow_nan=False),
)
seqnos = st.integers(0, 7)  # even and odd, equal ones often
neighbours = st.integers(1, max(NODES))
table_rows = st.tuples(neighbours, metrics, seqnos, st.floats(0.0, NOW))
tables = st.dictionaries(neighbours, table_rows, max_size=len(NODES) - 1)
entries = st.lists(
    st.builds(
        UpdateEntry,
        destination=st.sampled_from(NODES),  # ME included
        metric=metrics,
        seqno=seqnos,
    ),
    max_size=12,
)
updates = st.builds(
    DsdvUpdate,
    sender=neighbours,
    sender_mode=st.sampled_from([PowerMode.ACTIVE, PowerMode.POWER_SAVE]),
    entries=entries.map(tuple),
    full_dump=st.booleans(),
)
buffered = st.dictionaries(neighbours, st.integers(1, 3), max_size=4)
#: The link costs of DSDV and DSDVH.
costs = st.sampled_from([HopCount(), JointCost(CABLETRON, use_rate=False)])


class TestMergeEquivalence:
    @given(
        table=tables,
        sequence=st.lists(updates, min_size=1, max_size=4),
        buffered=buffered,
        cost=costs,
        trigger=st.booleans(),
        power_control=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_pass_merge_matches_parent_loop(
        self, table, sequence, buffered, cost, trigger, power_control
    ):
        sends, parent_sends = [], []
        merge = _protocol(ProactiveProtocol, cost, trigger, sends, power_control)
        parent = _protocol(_ParentMerge, cost, trigger, parent_sends, power_control)
        for destination, (next_hop, metric, seqno, updated_at) in table.items():
            merge.table[destination] = _TableEntry(
                destination, next_hop, metric, seqno, updated_at
            )
            parent.table[destination] = _ParentTableEntry(
                next_hop, metric, seqno, updated_at
            )
        for destination, count in buffered.items():
            for seqno in range(count):
                packet = make_data_packet(
                    origin=ME, final_dst=destination, src=ME, dst=ME,
                    flow_id=destination, seqno=seqno,
                )
                merge.buffer.push(destination, packet)
                parent.buffer.push(destination, packet)

        for update in sequence:
            merge._on_update(update)
            parent._on_update(update)
            assert _snapshot(merge) == _snapshot(parent)
            assert sends == parent_sends
            assert merge.triggers == parent.triggers
            for destination in NODES:
                assert merge.buffer.pending(destination) == (
                    parent.buffer.pending(destination)
                )
            for destination, entry in merge.table.items():
                assert entry.advert == (destination, entry.metric, entry.seqno)
        assert ME not in merge.table

    def test_inf_advert_sum_stays_inf(self):
        """Why the merge needs no ``isinf`` branch: costs are finite."""
        for cost in (HopCount(), JointCost(CABLETRON, use_rate=False)):
            for mode in (PowerMode.ACTIVE, PowerMode.POWER_SAVE):
                for distance in (0.0, 1.0, CABLETRON.max_range):
                    link_cost = cost(distance, mode, None)
                    assert math.isfinite(link_cost) and link_cost >= 0.0
                    assert INFINITE_METRIC + link_cost == INFINITE_METRIC


class TestAdvertSharing:
    def test_sent_update_unchanged_by_later_adoption(self):
        """Adverts are shared by the table and sent payloads, never mutated."""
        sends = []
        protocol = _protocol(ProactiveProtocol, HopCount(), False, sends)
        captured = []
        protocol.node.mac.send = lambda frame, distance=None: captured.append(frame)
        protocol._on_update(DsdvUpdate(
            sender=1, sender_mode=PowerMode.ACTIVE,
            entries=(UpdateEntry(destination=5, metric=2.0, seqno=4),),
            full_dump=True,
        ))
        protocol._broadcast_update(full_dump=True)
        sent = captured[0].payload.entries
        before = [tuple(entry) for entry in sent]
        assert (5, 3.0, 4) in before
        assert protocol.table[5].advert in sent

        protocol.sim.now = NOW + 1.0
        protocol._on_update(DsdvUpdate(
            sender=2, sender_mode=PowerMode.ACTIVE,
            entries=(UpdateEntry(destination=5, metric=0.0, seqno=6),),
            full_dump=True,
        ))
        assert [tuple(entry) for entry in sent] == before
        protocol._broadcast_update(full_dump=False)
        assert (5, 1.0, 6) in [tuple(entry) for entry in captured[1].payload.entries]
        assert (5, 3.0, 4) not in captured[1].payload.entries
