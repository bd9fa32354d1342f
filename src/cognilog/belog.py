"""Static-relation store: classification, characteristics, similarity.

A be-log is a directed labelled graph of be-verb relations.  Similarity is
asymmetric and never transitively closed; everything derived here (membership,
class centres, equivalence blocks, mapping compatibility) is computed on
demand from the stored edges, and mapping compatibility is kept on the
be-log once computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from .errors import EmptyClassError, NotInClassError
from .model import RawData, _writable_id


class BeVerbType(Enum):
    BE1 = "Be1"          # identification
    BE2 = "Be2"          # equivalence
    BE3 = "Be3"          # classification
    BE4 = "Be4"          # characteristic
    BELONG = "Belong"
    SIMILAR = "Similar"
    ASSOCIATION = "Association"


@dataclass(frozen=True)
class BeRelation:
    id: str
    type: BeVerbType
    source: str
    target: str
    weight: float = 1.0
    label: str = ""
    raw: RawData = RawData()

    def __post_init__(self):
        for end in (self.source, self.target):
            if not _writable_id(end):
                raise ValueError(f"invalid id {end!r} in relation {self.id!r}")
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"weight must be in (0, 1], got {self.weight}")
        if self.source == self.target and self.type != BeVerbType.BE1:
            raise ValueError(
                f"{self.type.value} relation {self.id!r} may not be reflexive"
            )


@dataclass(frozen=True)
class BeLog:
    relations: tuple[BeRelation, ...] = ()

    @cached_property
    def by_type_source(self) -> dict[tuple[BeVerbType, str], tuple[BeRelation, ...]]:
        idx: dict[tuple[BeVerbType, str], list[BeRelation]] = {}
        for r in self.relations:
            idx.setdefault((r.type, r.source), []).append(r)
        return {k: tuple(v) for k, v in idx.items()}

    @cached_property
    def by_type_target(self) -> dict[tuple[BeVerbType, str], tuple[BeRelation, ...]]:
        idx: dict[tuple[BeVerbType, str], list[BeRelation]] = {}
        for r in self.relations:
            idx.setdefault((r.type, r.target), []).append(r)
        return {k: tuple(v) for k, v in idx.items()}

    @cached_property
    def compatibility_memo(self) -> dict[tuple[str, str], float]:
        """``mapping_compatibility`` results by (x, y), filled as asked."""
        return {}

    def edges_from(self, type_: BeVerbType, source: str) -> tuple[BeRelation, ...]:
        return self.by_type_source.get((type_, source), ())

    def edges_into(self, type_: BeVerbType, target: str) -> tuple[BeRelation, ...]:
        return self.by_type_target.get((type_, target), ())


def characteristics(b: BeLog, owner: str) -> frozenset[str]:
    """Ch(owner): targets of the owner's characteristic (Be4) edges."""
    return frozenset(r.target for r in b.edges_from(BeVerbType.BE4, owner))


def similarity_by_characteristics(b: BeLog, a: str, target: str) -> Fraction:
    """|Ch(A) n Ch(B)| / |Ch(B)|, exact.

    A characteristic-free target acts as a top element: the ratio is vacuously
    1, so every object is a member of a class that demands nothing.
    """
    if a == target:
        return Fraction(1)
    ch_b = characteristics(b, target)
    if not ch_b:
        return Fraction(1)
    ch_a = characteristics(b, a)
    return Fraction(len(ch_a & ch_b), len(ch_b))


def is_member(b: BeLog, a: str, cls: str, closure: bool = False) -> bool:
    """Membership preorder: full characteristic similarity or an explicit
    classification edge.  ``closure`` additionally composes membership
    syllogism-style through intermediate classes."""
    if _member_direct(b, a, cls):
        return True
    if not closure:
        return False
    seen = {a}
    frontier = [a]
    while frontier:
        x = frontier.pop()
        for step in _member_successors(b, x):
            if step == cls or _member_direct(b, step, cls):
                return True
            if step not in seen:
                seen.add(step)
                frontier.append(step)
    return False


def _member_direct(b: BeLog, a: str, cls: str) -> bool:
    if a == cls:
        return True
    if any(r.target == cls for r in b.edges_from(BeVerbType.BE3, a)):
        return True
    return similarity_by_characteristics(b, a, cls) == 1 and bool(
        characteristics(b, cls)
    )


def _member_successors(b: BeLog, a: str) -> list[str]:
    return sorted(r.target for r in b.edges_from(BeVerbType.BE3, a))


def _pair_similarity(b: BeLog, source: str, target: str) -> Fraction:
    """Similarity of one object to another: explicit edge weight when stored,
    otherwise the characteristic ratio, otherwise no evidence."""
    if source == target:
        return Fraction(1)
    edges = [
        r
        for r in b.edges_from(BeVerbType.SIMILAR, source)
        if r.target == target
    ]
    if edges:
        return max(Fraction(r.weight).limit_denominator(10**9) for r in edges)
    if characteristics(b, target):
        return similarity_by_characteristics(b, source, target)
    return Fraction(0)


def class_centre(b: BeLog, class_members: Iterable[str]) -> str:
    """Member maximizing total incoming similarity from the other members;
    ties go to the lexicographically smallest id."""
    members = sorted(set(class_members))
    if not members:
        raise EmptyClassError("cannot locate the centre of an empty class")
    best: Optional[str] = None
    best_score = Fraction(-1)
    for m in members:
        score = sum(
            (_pair_similarity(b, o, m) for o in members if o != m), Fraction(0)
        )
        if score > best_score:
            best, best_score = m, score
    assert best is not None
    return best


def prototype_distance(
    b: BeLog,
    member: str,
    centre: str,
    class_members: Optional[Iterable[str]] = None,
) -> Fraction:
    """1 - S(member -> centre); the centre is at distance 0 from itself."""
    if class_members is not None:
        members = set(class_members)
        for x in (member, centre):
            if x not in members:
                raise NotInClassError(f"{x!r} is not in the class")
    return Fraction(1) - _pair_similarity(b, member, centre)


def equivalence_from_class(
    b: BeLog, cls: str, participants: Iterable[str]
) -> frozenset[str]:
    """The block of participants equivalent through membership in ``cls``.

    The induced relation is the full square of the returned block: reflexive,
    symmetric, and transitive on it by construction.
    """
    return frozenset(p for p in participants if is_member(b, p, cls))


def equivalence_pairs(block: frozenset[str]) -> frozenset[tuple[str, str]]:
    return frozenset((x, y) for x in block for y in block)


def mapping_compatibility(b: BeLog, x: str, y: str) -> float:
    """Score in [0, 1] admitting the object mapping x -> y in functor search.

    Maximum over the evidence channels: identity, an explicit similarity or
    association edge, characteristic similarity (only when the target has
    characteristics), and shared classification.  No evidence scores 0.
    A pure function of the frozen be-log, so kept in ``b.compatibility_memo``.
    """
    if x == y:
        return 1.0
    memo = b.compatibility_memo
    if (x, y) in memo:
        return memo[x, y]
    best = 0.0
    for type_ in (BeVerbType.SIMILAR, BeVerbType.ASSOCIATION):
        for r in b.edges_from(type_, x):
            if r.target == y:
                best = max(best, r.weight)
    if characteristics(b, y):
        best = max(best, float(similarity_by_characteristics(b, x, y)))
    x_classes = {r.target for r in b.edges_from(BeVerbType.BE3, x)}
    y_classes = {r.target for r in b.edges_from(BeVerbType.BE3, y)}
    if x_classes & y_classes or y in x_classes or x in y_classes:
        best = 1.0
    memo[x, y] = best
    return best
