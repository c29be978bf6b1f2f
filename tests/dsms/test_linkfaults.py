"""The one fault-layering routine, on an engine link and a peer link.

:func:`~repro.dsms.linkfaults.layer_link_faults` ORs a schedule's burst
loss, corruption and partition sever onto whatever predicates a link
already carries.  The order is fixed -- link, schedule loss, sever, each
indexed by the link's offered count and short-circuiting the next -- and
is the same for a source link cut from ``"server"`` and a directed
``"p0>p1"`` peer link cut between its two peers.
"""

import numpy as np
import pytest

from repro.dkf.protocol import UpdateMessage
from repro.dsms.faults import FaultSchedule
from repro.dsms.linkfaults import either, layer_link_faults
from repro.dsms.network import LinkConfig, NetworkFabric

OFFERS = 40
CUT = range(10, 20)


def schedule_for(link_id, side_a, side_b):
    return (
        FaultSchedule(seed=3)
        .burst_loss(link_id, 0.3, 0.4)
        .corrupt(link_id, 0.25)
        .partition(side_a, side_b, at=CUT.start, heal_at=CUT.stop)
    )


@pytest.mark.parametrize(
    "link_id, ends, sides",
    [
        ("s0", lambda link: (link, "server"), ({"s0"}, {"server"})),
        ("p0>p1", lambda link: link.split(">"), ({"p0"}, {"p1"})),
    ],
)
def test_layering_order_and_offered_index(link_id, ends, sides):
    consulted = []

    def link_loss(index):
        consulted.append(index)
        return index % 7 == 0

    def link_corrupt(index):
        return index % 5 == 0

    delivered = []
    fabric = NetworkFabric(deliver=delivered.append)
    fabric.add_link(
        link_id, LinkConfig(loss_fn=link_loss, corrupt_fn=link_corrupt)
    )
    schedule = schedule_for(link_id, *sides)
    schedule.reset()
    layer_link_faults(fabric, [link_id], schedule, ends)

    # An independent same-seed schedule predicts the scheduled draws.
    twin = schedule_for(link_id, *sides)
    burst, flip = twin.loss_fn(link_id), twin.corrupt_fn(link_id)
    ack_loss = fabric.link_config(link_id).ack_loss_fn
    lost = corrupted = 0
    for index in range(OFFERS):
        schedule.observe_tick(index)
        # The ack direction is severed by the same cut, and only by it.
        assert ack_loss(index) is (index in CUT)
        sent = fabric.send(
            UpdateMessage(
                source_id=link_id, seq=index, k=index, value=np.zeros(1)
            )
        )
        dropped = link_loss(index) or burst(index) or index in CUT
        mangled = not dropped and (link_corrupt(index) or flip(index))
        lost += dropped
        corrupted += mangled
        assert sent == (not dropped and not mangled), index
    stats = fabric.stats_for(link_id)
    assert (stats.offered, stats.lost, stats.corrupted) == (
        OFFERS, lost, corrupted
    )
    assert 0 < lost < OFFERS and corrupted > 0
    assert len(delivered) == OFFERS - lost - corrupted
    # The link's own predicate is consulted first, at every offered
    # index (twice here: once by the fabric, once by the expectation).
    assert consulted == [i for i in range(OFFERS) for _ in (0, 1)]


def test_gate_holds_frames_in_the_pipe_across_the_cut():
    delivered = []
    fabric = NetworkFabric(deliver=delivered.append)
    fabric.add_link("p0>p1", LinkConfig(latency_ticks=1))
    schedule = FaultSchedule().partition({"p0"}, {"p1"}, at=1, heal_at=3)
    schedule.reset()
    layer_link_faults(
        fabric, ["p0>p1"], schedule, lambda link: link.split(">")
    )
    schedule.observe_tick(0)
    fabric.send(
        UpdateMessage(source_id="p0>p1", seq=0, k=0, value=np.zeros(1))
    )
    fabric.advance(1)
    fabric.advance(2)
    assert delivered == [] and fabric.total_in_flight() == 1
    fabric.advance(3)
    assert len(delivered) == 1 and fabric.total_in_flight() == 0


def test_either_short_circuits_in_order():
    seen = []

    def first(index):
        seen.append(("first", index))
        return index == 0

    def second(index):
        seen.append(("second", index))
        return index == 1

    assert either(None, None) is None
    assert either(first, None) is first and either(None, second) is second
    both = either(first, second)
    assert [both(0), both(1), both(2)] == [True, True, False]
    assert seen == [
        ("first", 0), ("first", 1), ("second", 1), ("first", 2), ("second", 2),
    ]
