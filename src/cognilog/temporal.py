"""Timestamp-order consistency for functors, and Vendler typing.

Causal arrows must commute with temporal order: a functor may not map a
cause/effect pair onto an s-log pair whose causal (or rank) order is
reversed.  Pairs without causal relation are free to appear in either order,
and pairs lacking timestamps are counted as indeterminate rather than failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .boolmat import adjacency, index_map
from .errors import MissingTimestampError
from .model import ELog, SENTINEL_ACTIONS

if TYPE_CHECKING:  # pragma: no cover
    from .search import Functor


@dataclass(frozen=True)
class Interval:
    t_start: int
    t_end: int

    def __post_init__(self):
        if self.t_start > self.t_end:
            raise ValueError("t_start exceeds t_end")


class VendlerClass(Enum):
    ACTIVITIES = "Activities"
    STATUS = "Status"
    ACCOMPLISHMENTS = "Accomplishments"
    ACHIEVEMENTS = "Achievements"
    INDETERMINATE = "Indeterminate"


# Cell contents keyed by (end-time row, start-time column); parenthesized
# alternative readings are included, "---" cells are indeterminate.
_VENDLER_TABLE: dict[tuple[str, str], frozenset[VendlerClass]] = {
    ("a", "A"): frozenset({VendlerClass.INDETERMINATE}),
    ("b", "A"): frozenset({VendlerClass.ACCOMPLISHMENTS, VendlerClass.ACHIEVEMENTS}),
    ("c", "A"): frozenset({VendlerClass.INDETERMINATE}),
    ("a", "B"): frozenset({VendlerClass.ACTIVITIES, VendlerClass.STATUS}),
    ("b", "B"): frozenset({VendlerClass.ACTIVITIES, VendlerClass.STATUS}),
    ("c", "B"): frozenset({VendlerClass.ACTIVITIES, VendlerClass.STATUS}),
    ("a", "C"): frozenset({VendlerClass.STATUS, VendlerClass.ACTIVITIES}),
    ("b", "C"): frozenset({VendlerClass.STATUS, VendlerClass.ACTIVITIES}),
    ("c", "C"): frozenset({VendlerClass.STATUS, VendlerClass.ACTIVITIES}),
}


def vendler_type(
    cause: Interval, effect: Interval
) -> tuple[str, str, frozenset[VendlerClass]]:
    """(column, row, classes) of a causal action pair.

    Column from the start-time relation: A = simultaneous start, B = effect
    starts strictly inside the cause's interval, C = effect starts at or after
    the cause's end.  Rows a-c mirror that reading for end times.
    """
    if effect.t_start < cause.t_start:
        raise ValueError("effect starts before its cause")
    if effect.t_start == cause.t_start:
        column = "A"
    elif effect.t_start < cause.t_end:
        column = "B"
    else:
        column = "C"
    if effect.t_end == cause.t_end:
        row = "a"
    elif effect.t_end < cause.t_end:
        row = "b"
    else:
        row = "c"
    return column, row, _VENDLER_TABLE[(row, column)]


def vendler_type_of(cause_raw, effect_raw) -> tuple[str, str, frozenset[VendlerClass]]:
    """Same as vendler_type, from RawData records; raises when any of the four
    timestamps is missing."""
    vals = (cause_raw.t_start, cause_raw.t_end, effect_raw.t_start, effect_raw.t_end)
    if any(v is None for v in vals):
        raise MissingTimestampError("vendler typing needs full intervals")
    return vendler_type(Interval(vals[0], vals[1]), Interval(vals[2], vals[3]))


@dataclass(frozen=True)
class TemporalReport:
    ok: bool
    violations: tuple[tuple[str, str], ...]
    consistent_pairs: int
    indeterminate_pairs: int

    @property
    def consistency_fraction(self) -> float:
        total = self.consistent_pairs + len(self.violations)
        return 1.0 if total == 0 else self.consistent_pairs / total


def check_temporal_consistency(
    e: ELog, s: ELog, functor: "Functor"
) -> TemporalReport:
    """Verify that causal order survives the functor.

    For every e-log pair (cause, effect) whose images are causally related in
    the s-log, the s-side relation must point the same way and the s-side
    ranks must not decrease.  Pairs with missing timestamps on either side are
    indeterminate.  Causal order is the future reachability of the logs'
    adjacency.  An action map naming an id that is not in the logs raises
    ``UnknownObjectError``.
    """
    amap = functor.action_map
    e_m, s_m = adjacency(e), adjacency(s)
    index_map(amap, e_m.action_index, s_m.action_index)  # rejects unknown ids
    s_index, s_future = s_m.action_index, s_m.future.rows
    s_actions = s.action_by_id

    violations: list[tuple[str, str]] = []
    consistent = 0
    indeterminate = 0
    for cause, effect in e_m.future_pairs:
        fc, fx = amap.get(cause), amap.get(effect)
        if fc is None or fx is None or fc in SENTINEL_ACTIONS or fx in SENTINEL_ACTIONS:
            continue
        if fc == fx:
            consistent += 1
            continue
        ci, xi = s_index[fc], s_index[fx]
        forward = s_future[ci] >> xi & 1
        backward = s_future[xi] >> ci & 1
        if not forward and not backward:
            continue  # images unrelated: order may be swapped freely
        if backward and not forward:
            violations.append((cause, effect))
            continue
        rc = s_actions[fc].t_start
        rx = s_actions[fx].t_start
        tc = e.action_by_id[cause].t_start
        tx = e.action_by_id[effect].t_start
        if rc is None or rx is None or tc is None or tx is None:
            indeterminate += 1
            continue
        if tc <= tx and rc <= rx:
            consistent += 1
        else:
            violations.append((cause, effect))

    return TemporalReport(
        ok=not violations,
        violations=tuple(violations),
        consistent_pairs=consistent,
        indeterminate_pairs=indeterminate,
    )
