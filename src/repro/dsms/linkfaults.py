"""Fault layering on fabric links, shared by every front that owns a
:class:`~repro.dsms.network.NetworkFabric`.

A :class:`~repro.dsms.faults.FaultSchedule` reaches the wire as
predicates OR-ed onto a link's own loss / corruption functions, a fabric
gate that holds in-pipe frames across a cut, and per-tick latency windows
on asymmetric links.  The engine's source links, the cluster's source
links and its directed peer links differ only in *which two nodes a link
joins*, so that is the one parameter.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable

__all__ = ["either", "layer_link_faults", "apply_latency_overrides"]

Predicate = Callable[[int], bool]


def either(first: Predicate | None, second: Predicate | None):
    """Compose two optional loss predicates with OR (fault layering);
    ``first`` is consulted first and short-circuits ``second``."""
    if first is None:
        return second
    if second is None:
        return first

    def drop(index: int) -> bool:
        return bool(first(index)) or bool(second(index))

    return drop


def layer_link_faults(
    fabric,
    link_ids: Iterable[str],
    schedule,
    ends: Callable[[str], tuple[str, str]],
) -> None:
    """Layer a schedule's loss, corruption and partition cuts onto links.

    Existing link predicates still apply -- the fabric drops a frame
    when *either* says so, consulted in the order link, schedule loss,
    sever (all indexed by the link's offered count).  When the schedule
    holds partitions, every link gets a sever predicate (a frame offered
    while the cut is active is dropped, counted lost, in both directions)
    and the fabric a gate that holds frames already in the pipe.

    ``ends`` maps ``link_id -> (node_a, node_b)``, the partition-level
    nodes the link joins.  It is read on every check, so a link whose far
    end moves (a re-homed source) is cut where it points now, and a link
    no cut ever crosses gets a predicate that is always False.
    """
    cut = schedule.has_partitions()
    for link_id in link_ids:
        loss = schedule.loss_fn(link_id)
        corrupt = schedule.corrupt_fn(link_id)
        sever = None
        if cut:

            def sever(_index: int, _link: str = link_id) -> bool:
                return schedule.link_severed(*ends(_link))

        if loss is None and corrupt is None and sever is None:
            continue
        base = fabric.link_config(link_id)
        fabric.reconfigure_link(
            link_id,
            dataclasses.replace(
                base,
                loss_fn=either(either(base.loss_fn, loss), sever),
                ack_loss_fn=either(base.ack_loss_fn, sever),
                corrupt_fn=either(base.corrupt_fn, corrupt),
            ),
        )
    if cut:
        fabric.set_gate(
            lambda link_id, tick: not schedule.link_severed(
                *ends(link_id), tick
            )
        )


def apply_latency_overrides(
    schedule,
    now: int,
    active: dict[str, tuple[int, int]],
    *fabrics: tuple,
) -> dict[str, tuple[int, int]]:
    """Apply/clear asymmetric-link latency windows; returns the new set.

    Reconfigures only when the set of active overrides changed, so runs
    without asymmetric faults pay a single set lookup per tick.
    ``active`` is the previous call's result; each of ``fabrics`` is a
    ``(fabric, {link_id: base LinkConfig})`` pair of links owned here.
    """
    if not schedule.asymmetric_links():
        return active

    def owner(link_id: str):
        for fabric, links in fabrics:
            if link_id in links:
                return fabric, links[link_id]
        return None

    overrides = {
        link_id: extras
        for link_id, extras in schedule.latency_overrides(now).items()
        if owner(link_id) is not None
    }
    if overrides == active:
        return active
    for link_id in set(active) | set(overrides):
        fabric, base = owner(link_id)
        data_extra, ack_extra = overrides.get(link_id, (0, 0))
        fabric.reconfigure_link(
            link_id,
            dataclasses.replace(
                fabric.link_config(link_id),
                latency_ticks=base.latency_ticks + data_extra,
                ack_latency_ticks=base.ack_latency_ticks + ack_extra,
            ),
        )
    return overrides
