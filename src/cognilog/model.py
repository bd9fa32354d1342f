"""Core episode model: e-logs and s-logs as validated finite categories.

An episode is a set of verb-like actions and noun-like participants.  Every
action carries exactly one ``who`` arrow (to its performer), one ``cause_s``
arrow (pointing pastward, to its sufficient cause) and one ``cause_n`` arrow
(pointing futureward, to its resultant action).  Totality is achieved through
the reserved sentinel objects ``nothing``/``unknown`` (actions) and ``nobody``
(participant) that are present in every log.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    CausalCycleError,
    DanglingReferenceError,
    DuplicateIdError,
    SentinelNotBranchableError,
    TrivialPairError,
    UnknownObjectError,
    UnknownParticipantError,
)

SENTINEL_NOTHING = "nothing"
SENTINEL_UNKNOWN = "unknown"
SENTINEL_NOBODY = "nobody"

SENTINEL_ACTIONS = frozenset({SENTINEL_NOTHING, SENTINEL_UNKNOWN})
SENTINELS = frozenset({SENTINEL_NOTHING, SENTINEL_UNKNOWN, SENTINEL_NOBODY})

# Ids are written as bare tokens of the text format, so one must be
# non-empty and hold no whitespace and no double quote.
_ID_RE = re.compile(r'[^\s"]+')


def _writable_id(s: str) -> bool:
    return _ID_RE.fullmatch(s) is not None


class Kind(Enum):
    PLAIN = "plain"
    ACTION_AS_NOUN = "action-as-noun"
    CLASS = "class"
    SENTINEL = "sentinel"


@dataclass(frozen=True)
class RawData:
    """Optional timestamps (opaque integer ticks) and free-form attributes."""

    t_start: Optional[int] = None
    t_end: Optional[int] = None
    attrs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if (
            self.t_start is not None
            and self.t_end is not None
            and self.t_start > self.t_end
        ):
            raise ValueError(f"t_start {self.t_start} exceeds t_end {self.t_end}")


@dataclass(frozen=True)
class Participant:
    id: str
    label: str = ""
    kind: Kind = Kind.PLAIN


@dataclass(frozen=True)
class Action:
    id: str
    who: str
    cause_s: str = SENTINEL_UNKNOWN
    cause_n: str = SENTINEL_UNKNOWN
    trivial_partner: Optional[str] = None
    volition: bool = False
    label: str = ""
    raw: RawData = RawData()

    @property
    def t_start(self) -> Optional[int]:
        return self.raw.t_start

    @property
    def t_end(self) -> Optional[int]:
        return self.raw.t_end


# the sentinel objects every log ends with, shared by all logs
_SENTINEL_TAIL = tuple(
    Action(id=sid, who=SENTINEL_NOBODY, cause_s=sid, cause_n=sid)
    for sid in sorted(SENTINEL_ACTIONS)
)
_NOBODY_TAIL = (Participant(id=SENTINEL_NOBODY, kind=Kind.SENTINEL),)


@dataclass(frozen=True)
class ELog:
    """A finite category recording one episode.  Immutable once built."""

    id: str
    actions: tuple[Action, ...]
    participants: tuple[Participant, ...]

    @cached_property
    def action_by_id(self) -> Mapping[str, Action]:
        return {a.id: a for a in self.actions}

    @cached_property
    def participant_by_id(self) -> Mapping[str, Participant]:
        return {p.id: p for p in self.participants}

    @cached_property
    def nonsentinel_actions(self) -> tuple[Action, ...]:
        return tuple(a for a in self.actions if a.id not in SENTINEL_ACTIONS)

    @cached_property
    def nonsentinel_participants(self) -> tuple[Participant, ...]:
        return tuple(p for p in self.participants if p.id != SENTINEL_NOBODY)

    @cached_property
    def _causal(self) -> tuple[list[str], Optional[list[str]]]:
        """The one Kahn pass over the non-sentinel actions: (canonical
        order, cycle or None), shared by ordering and validation."""
        return _causal_order({a.id: a for a in self.nonsentinel_actions})

    def object_ids(self) -> frozenset[str]:
        return frozenset(self.action_by_id) | frozenset(self.participant_by_id)


@dataclass(frozen=True)
class SLog(ELog):
    """Scenario log: same shape as an e-log, but participants are classes and
    timestamps are relative ranks."""


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    objects: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


def _canonicalize(
    log_id: str,
    actions: Iterable[Action],
    participants: Iterable[Participant],
    slog: bool = False,
) -> ELog:
    """Sort objects by id, insert sentinels, and freeze into a log value."""
    amap = {a.id: a for a in actions if a.id not in SENTINEL_ACTIONS}
    pmap = {p.id: p for p in participants if p.id != SENTINEL_NOBODY}
    all_actions = tuple(sorted(amap.values(), key=lambda a: a.id)) + _SENTINEL_TAIL
    all_parts = tuple(sorted(pmap.values(), key=lambda p: p.id)) + _NOBODY_TAIL
    cls = SLog if slog else ELog
    return cls(id=log_id, actions=all_actions, participants=all_parts)


def collapsed_cause_edges(
    actions: Mapping[str, Action],
) -> tuple[dict[str, str], set[tuple[str, str]]]:
    """Collapse trivial pairs and return (member -> unit id, cause edges).

    Edges point from cause unit to effect unit; sentinel and self arrows are
    dropped.  The unit id of a trivial pair is the id of its "do" member.
    """
    unit: dict[str, str] = {}
    for a in actions.values():
        if a.id in unit:
            continue
        partner = a.trivial_partner
        if partner and partner in actions and actions[partner].trivial_partner == a.id:
            do_id = _do_member(a, actions[partner])
            unit[a.id] = do_id
            unit[partner] = do_id
        else:
            unit[a.id] = a.id
    edges: set[tuple[str, str]] = set()
    for a in actions.values():
        for cause, effect in ((a.cause_s, a.id), (a.id, a.cause_n)):
            if cause in SENTINEL_ACTIONS or effect in SENTINEL_ACTIONS:
                continue
            if cause not in actions or effect not in actions:
                continue
            cu, eu = unit.get(cause, cause), unit.get(effect, effect)
            if cu != eu:
                edges.add((cu, eu))
    return unit, edges


def _do_member(a: Action, b: Action) -> str:
    """Pick the "do" member of a trivial pair: the one whose cause_n arrow
    points at its partner (tie broken by id)."""
    a_is_do = a.cause_n == b.id and b.cause_s == a.id
    b_is_do = b.cause_n == a.id and a.cause_s == b.id
    if a_is_do and not b_is_do:
        return a.id
    if b_is_do and not a_is_do:
        return b.id
    return min(a.id, b.id)


def _causal_order(
    actions: Mapping[str, Action],
) -> tuple[list[str], Optional[list[str]]]:
    """Kahn's topological sort (Kahn 1962) of the collapsed cause relation.

    Returns the action ids in canonical order (timestamp ascending, "do"
    before "be done" within a trivial pair, id ascending) and None.  When a
    cycle leaves units unordered, it returns the ordered prefix and one
    cycle: from the smallest unordered unit, step to its smallest unordered
    cause until a unit repeats; that path read forwards, repeating its first
    unit at the end.
    """
    unit, edges = collapsed_cause_edges(actions)
    members: dict[str, list[str]] = {}
    for aid, uid in unit.items():
        members.setdefault(uid, []).append(aid)

    def unit_key(uid: str):  # ends with uid, so a popped key names its unit
        ts = actions[uid].raw.t_start
        return (0, ts, uid) if ts is not None else (1, 0, uid)

    indeg: dict[str, int] = {uid: 0 for uid in members}
    out: dict[str, list[str]] = {uid: [] for uid in members}
    for u, v in edges:
        out[u].append(v)
        indeg[v] += 1
    heap = [unit_key(uid) for uid, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        uid = heapq.heappop(heap)[-1]
        order.append(uid)
        group = members[uid]
        if len(group) > 1:  # "do" member first, remaining members by id
            order.extend(sorted(m for m in group if m != uid))
        for nxt in out[uid]:
            indeg[nxt] -= 1
            if not indeg[nxt]:
                heapq.heappush(heap, unit_key(nxt))
    if len(order) == len(actions):
        return order, None
    causes: dict[str, list[str]] = {}
    for u, v in edges:
        if indeg[u] and indeg[v]:
            causes.setdefault(v, []).append(u)
    # every unordered unit keeps an unordered cause, so the walk must repeat
    path = [min(uid for uid, d in indeg.items() if d)]
    seen = {path[0]: 0}
    while True:
        nxt = min(causes[path[-1]])
        if nxt in seen:
            return order, (path[seen[nxt]:] + [nxt])[::-1]
        seen[nxt] = len(path)
        path.append(nxt)


def _cycle_message(cycle: list[str]) -> str:
    return "non-sentinel cause cycle: " + " -> ".join(cycle)


def canonical_action_order(log: ELog) -> list[str]:
    """Topological order of actions: timestamp ascending, "do" before
    "be done" within a trivial pair, id ascending; sentinels last.  Raises
    ``CausalCycleError`` naming a cycle of the cause arrows."""
    order, cycle = log._causal
    if cycle:
        raise CausalCycleError(_cycle_message(cycle))
    return order + sorted(SENTINEL_ACTIONS)


def canonical_participant_order(log: ELog) -> list[str]:
    ids = sorted(p.id for p in log.nonsentinel_participants)
    ids.append(SENTINEL_NOBODY)
    return ids


def build_elog(
    log_id: str,
    records: Sequence[Action],
    participants: Sequence[Participant] = (),
    slog: bool = False,
) -> ELog:
    """Assemble and validate a log from action records.

    Missing cause targets default to ``unknown``; sentinels are always
    inserted, so a record that reuses a sentinel id is a duplicate.  Raises
    on duplicate ids, an unwritable log or object id (empty, whitespace, a
    double quote), dangling references, and non-sentinel cause cycles (after
    collapsing trivial pairs).
    """
    if not _writable_id(log_id):
        raise DanglingReferenceError(f"invalid log id {log_id!r}")
    seen = set(SENTINELS)
    for obj in list(records) + list(participants):
        if obj.id in seen:
            raise DuplicateIdError(f"duplicate id {obj.id!r}")
        if not _writable_id(obj.id):
            raise DanglingReferenceError(f"invalid id {obj.id!r}")
        seen.add(obj.id)

    log = _canonicalize(log_id, records, participants, slog=slog)
    report = validate_category(log)
    hard = {"duplicate", "dangling", "totality"}
    for v in report.violations:
        if v.code in hard:
            raise DanglingReferenceError(v.message)
        if v.code == "cycle":
            raise CausalCycleError(v.message)
    return log


def validate_category(log: ELog) -> ValidationReport:
    """Report-style check of every category law the log must satisfy."""
    out: list[Violation] = []
    amap = log.action_by_id
    pmap = log.participant_by_id

    ids = Counter([a.id for a in log.actions] + [p.id for p in log.participants])
    for d in sorted(i for i, k in ids.items() if k > 1):
        out.append(Violation("duplicate", f"duplicate id {d!r}", (d,)))

    for a in log.actions:
        if not a.who:
            out.append(
                Violation("totality", f"action {a.id!r} lacks a who arrow", (a.id,))
            )
        elif a.who not in pmap and a.who not in amap:
            out.append(
                Violation(
                    "dangling",
                    f"who of {a.id!r} targets missing object {a.who!r}",
                    (a.id, a.who),
                )
            )
        for name, target in (("cause_s", a.cause_s), ("cause_n", a.cause_n)):
            if not target:
                out.append(
                    Violation(
                        "totality", f"action {a.id!r} lacks a {name} arrow", (a.id,)
                    )
                )
            elif target not in amap:
                out.append(
                    Violation(
                        "dangling",
                        f"{name} of {a.id!r} targets missing action {target!r}",
                        (a.id, target),
                    )
                )

    # trivial-pair symmetry and equal timestamps
    for a in log.nonsentinel_actions:
        partner = a.trivial_partner
        if partner is None:
            continue
        b = amap.get(partner)
        if b is None or b.trivial_partner != a.id:
            out.append(
                Violation(
                    "trivial-symmetry",
                    f"trivial partnership of {a.id!r} and {partner!r} is not mutual",
                    (a.id, partner),
                )
            )
            continue
        if a.id < b.id:  # report each pair once
            linked = (a.cause_s == b.id and b.cause_n == a.id) or (
                b.cause_s == a.id and a.cause_n == b.id
            )
            if not linked:
                out.append(
                    Violation(
                        "trivial-symmetry",
                        f"trivial pair {a.id!r}/{b.id!r} lacks its cause-S/cause-N link",
                        (a.id, b.id),
                    )
                )
            if a.t_start is not None and b.t_start is not None and a.t_start != b.t_start:
                out.append(
                    Violation(
                        "trivial-time",
                        f"trivial pair {a.id!r}/{b.id!r} has unequal timestamps",
                        (a.id, b.id),
                    )
                )

    # causes precede effects
    for a in log.nonsentinel_actions:
        cause = amap.get(a.cause_s)
        if (
            cause is not None
            and cause.id not in SENTINEL_ACTIONS
            and cause.id != a.id
            and a.t_start is not None
            and cause.t_start is not None
            and a.t_start < cause.t_start
        ):
            out.append(
                Violation(
                    "timestamp-order",
                    f"effect {a.id!r} starts before its cause {cause.id!r}",
                    (a.id, cause.id),
                )
            )

    # acyclicity of the collapsed cause relation (arrows to missing ids are
    # reported above and left out of the edges)
    cycle = log._causal[1]
    if cycle:
        out.append(Violation("cycle", _cycle_message(cycle), tuple(cycle[:-1])))

    if isinstance(log, SLog):
        for p in log.nonsentinel_participants:
            if p.kind != Kind.CLASS:
                out.append(
                    Violation(
                        "slog-kind",
                        f"s-log participant {p.id!r} is not class-valued",
                        (p.id,),
                    )
                )

    return ValidationReport(tuple(out))


def _token(text: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in text.strip()) or "act"


def decompose_transitive(
    log: ELog,
    subject: str,
    verb_label: str,
    obj: str,
    t: RawData = RawData(),
    t_done: Optional[RawData] = None,
) -> tuple[ELog, Action, Action]:
    """Split a transitive sentence into a "do"/"be done" trivial pair.

    Returns the extended log together with the two new actions.  Supplying a
    second raw-data record with a different start time rejects the trivial
    pairing: a time lag means the relation is non-trivial and must be built
    explicitly.
    """
    pmap = log.participant_by_id
    for pid in (subject, obj):
        if pid not in pmap and pid not in log.action_by_id:
            raise UnknownParticipantError(f"unknown participant {pid!r}")
    if t_done is not None and t_done.t_start != t.t_start:
        raise TrivialPairError(
            f"'do'/'be done' pair for {verb_label!r} has a time lag; "
            "a trivial pairing requires equal timestamps"
        )
    base = _token(verb_label)
    do_id, be_id = base, f"is_{base}"
    n = 1
    existing = log.object_ids()
    while do_id in existing or be_id in existing:
        n += 1
        do_id, be_id = f"{base}{n}", f"is_{base}{n}"
    do = Action(
        id=do_id,
        who=subject,
        cause_s=SENTINEL_UNKNOWN,
        cause_n=be_id,
        trivial_partner=be_id,
        label=verb_label,
        raw=t,
    )
    be_done = Action(
        id=be_id,
        who=obj,
        cause_s=do_id,
        cause_n=SENTINEL_UNKNOWN,
        trivial_partner=do_id,
        label=f"is {verb_label}",
        raw=t_done if t_done is not None else t,
    )
    new = _canonicalize(
        log.id,
        log.nonsentinel_actions + (do, be_done),
        log.nonsentinel_participants,
        slog=isinstance(log, SLog),
    )
    return new, do, be_done


def add_intermediate_replica(log: ELog, action_id: str, direction: str) -> ELog:
    """Insert a replica action so a cause arrow can fan out (branching).

    ``direction`` is "S" or "N".  The original arrow of that kind is rerouted
    through the replica, so each action still emanates exactly one arrow per
    kind.
    """
    if action_id in SENTINEL_ACTIONS:
        raise SentinelNotBranchableError(f"sentinel {action_id!r} cannot branch")
    a = log.action_by_id.get(action_id)
    if a is None:
        raise UnknownObjectError(f"unknown action {action_id!r}")
    if direction not in ("S", "N"):
        raise ValueError(f"direction must be 'S' or 'N', got {direction!r}")
    n = 1
    existing = log.object_ids()
    while f"{action_id}~{n}" in existing:
        n += 1
    rid = f"{action_id}~{n}"
    if direction == "N":
        replica = Action(
            id=rid, who=a.who, cause_s=a.id, cause_n=a.cause_n,
            label=a.label, raw=a.raw,
        )
        patched = replace(a, cause_n=rid)
    else:
        replica = Action(
            id=rid, who=a.who, cause_s=a.cause_s, cause_n=a.id,
            label=a.label, raw=a.raw,
        )
        patched = replace(a, cause_s=rid)
    partner_patch: Optional[Action] = None
    partner = a.trivial_partner
    rerouted = a.cause_n if direction == "N" else a.cause_s
    if partner is not None and partner == rerouted:
        # the rerouted arrow was the pair link: the replica takes over the
        # partnership so the do/be-done linkage stays direct
        replica = replace(replica, trivial_partner=partner)
        patched = replace(patched, trivial_partner=None)
        p = log.action_by_id[partner]
        if direction == "N":
            partner_patch = replace(p, trivial_partner=rid, cause_s=rid)
        else:
            partner_patch = replace(p, trivial_partner=rid, cause_n=rid)
    actions = tuple(
        patched if x.id == a.id
        else partner_patch if partner_patch is not None and x.id == partner
        else x
        for x in log.nonsentinel_actions
    ) + (replica,)
    return _canonicalize(
        log.id, actions, log.nonsentinel_participants, slog=isinstance(log, SLog)
    )


def extract_subepisode(log: ELog, objects: Iterable[str]) -> ELog:
    """Full subcategory on the given objects (plus sentinels).

    Arrows whose endpoint falls outside the set are rerouted to the sentinels
    so totality is preserved.  Provenance back-refs to the parent log are kept
    in each object's raw attributes.
    """
    wanted = set(objects)
    known = log.object_ids()
    for oid in wanted:
        if oid not in known:
            raise UnknownObjectError(f"unknown object {oid!r}")
    wanted |= SENTINELS

    actions: list[Action] = []
    for a in log.nonsentinel_actions:
        if a.id not in wanted:
            continue
        who = a.who if a.who in wanted else SENTINEL_NOBODY
        cs = a.cause_s if a.cause_s in wanted else SENTINEL_UNKNOWN
        cn = a.cause_n if a.cause_n in wanted else SENTINEL_UNKNOWN
        partner = a.trivial_partner if a.trivial_partner in wanted else None
        raw = replace(a.raw, attrs=a.raw.attrs + (("parent", log.id),))
        actions.append(
            replace(a, who=who, cause_s=cs, cause_n=cn, trivial_partner=partner, raw=raw)
        )
    parts = [p for p in log.nonsentinel_participants if p.id in wanted]
    return _canonicalize(
        f"{log.id}#sub", actions, parts, slog=isinstance(log, SLog)
    )
