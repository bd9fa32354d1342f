"""Functor search between an e-log and an s-log.

Candidates are built by backtracking over action mappings in causal
topological order; the participant map is forced through the who arrows as
soon as an action is mapped.  Matrix-engine completeness rules prune and
filter, a brute-force enumerator serves as the correctness oracle, and a
thin-category reachability test decides natural transformations.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .belog import BeLog, mapping_compatibility
from .boolmat import (
    BoolMatrix,
    CompletenessReport,
    _check_actions,
    _check_participants,
    adjacency,
    causal_closure,
    evaluate_conversion,
)
from .errors import SourceTargetMismatchError, TooLargeError
from .model import ELog, SENTINEL_ACTIONS, SENTINEL_NOBODY, SENTINELS
from .temporal import check_temporal_consistency


@dataclass(frozen=True)
class Functor:
    """Paired object maps between two logs (non-sentinel objects only;
    sentinels always map to their counterparts)."""

    src: str
    dst: str
    action_map: dict[str, str]
    participant_map: dict[str, str]
    direction: str = "e_to_s"

    def map_key(self) -> tuple:
        return (
            tuple(sorted(self.action_map.items())),
            tuple(sorted(self.participant_map.items())),
        )

    def mapped_objects(self) -> set[str]:
        return set(self.action_map) | set(self.participant_map)

    def image_objects(self) -> set[str]:
        return set(self.action_map.values()) | set(self.participant_map.values())


@dataclass(frozen=True)
class Score:
    structural: float
    temporal: float
    similarity: float
    total: float
    report: CompletenessReport


@dataclass(frozen=True)
class SearchConfig:
    """Search settings.  ``require_injective`` asks for total maps, every
    core e-object mapped (``CompletenessReport.injective``), not for
    injective ones; turned off, objects may stay unmapped (partial
    functors)."""

    weights: tuple[float, float, float] = (0.5, 0.25, 0.25)
    min_compatibility: float = 0.0
    max_candidates: int = 10
    require_surjective: bool = True
    require_injective: bool = True
    composition_depth: int = 3

    def __post_init__(self):
        if not all(math.isfinite(w) and w >= 0 for w in self.weights):
            raise ValueError("weights must be finite and non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if not 0.0 <= self.min_compatibility <= 1.0:
            raise ValueError("min_compatibility must be in [0, 1]")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be at least 1")
        if self.composition_depth < 1:
            raise ValueError("composition_depth must be at least 1")


def identity_functor(log: ELog) -> Functor:
    return Functor(
        src=log.id,
        dst=log.id,
        action_map={a.id: a.id for a in log.nonsentinel_actions},
        participant_map={p.id: p.id for p in log.nonsentinel_participants},
    )


def score_functor(
    functor: Functor, e: ELog, s: ELog, b: BeLog, cfg: SearchConfig
) -> Score:
    """Deterministic score: structure, temporal consistency, similarity."""
    report = evaluate_conversion(
        adjacency(e), adjacency(s), functor.action_map, functor.participant_map
    )
    temporal, compat = _action_terms(functor, e, s, b)
    coverage, similarity = _coverage_similarity(functor, e, s, b, compat)
    return _score(cfg, report, temporal, coverage, similarity)


def _action_terms(
    functor: Functor, e: ELog, s: ELog, b: BeLog
) -> tuple[float, list[float]]:
    """The score terms that read only the action map: the temporal fraction
    and the compatibility of each action pair."""
    temporal = check_temporal_consistency(e, s, functor).consistency_fraction
    compat = [mapping_compatibility(b, x, y) for x, y in functor.action_map.items()]
    return temporal, compat


def _coverage_similarity(
    functor: Functor, e: ELog, s: ELog, b: BeLog, action_compat: list[float]
) -> tuple[float, float]:
    """The score terms that read the participant map too and not the
    completeness report: the coverage factor of the structural term and
    the similarity."""
    n_e = len(e.nonsentinel_actions) + len(e.nonsentinel_participants)
    n_s = len(s.nonsentinel_actions) + len(s.nonsentinel_participants)
    mapped = len(functor.action_map) + len(functor.participant_map)
    hit = len(functor.image_objects() - SENTINELS)
    coverage = 1.0 if n_e + n_s == 0 else (mapped + hit) / (n_e + n_s)

    # one sum over the action pairs, then the participant pairs: sum()
    # compensates from Python 3.12 on, so a sum continued from the action
    # pairs' own sum could round differently
    compat = action_compat + [
        mapping_compatibility(b, x, y) for x, y in functor.participant_map.items()
    ]
    similarity = 1.0 if not compat else sum(compat) / len(compat)
    return coverage, similarity


def _total(
    cfg: SearchConfig, structural: float, temporal: float, similarity: float
) -> float:
    w1, w2, w3 = cfg.weights
    return w1 * structural + w2 * temporal + w3 * similarity


def _score(
    cfg: SearchConfig, report: CompletenessReport, temporal: float,
    coverage: float, similarity: float,
) -> Score:
    """The score from its terms: the structural term is the share of hard
    checks that pass times the coverage factor."""
    hard = report.hard_checks()
    structural = (sum(hard) / len(hard)) * coverage
    total = _total(cfg, structural, temporal, similarity)
    return Score(structural, temporal, similarity, total, report)


def _admissible(
    functor_checks: CompletenessReport, cfg: SearchConfig
) -> bool:
    r = functor_checks
    if not (r.is_function and r.zero_column_rule_ok):
        return False
    if not (r.causal_eq_S_ok and r.causal_eq_N_ok and r.who_eq_ok):
        return False
    if cfg.require_surjective and not r.surjective:
        return False
    if cfg.require_injective and not r.injective:
        return False
    return True


def _forced_pmap(
    e: ELog, s: ELog, action_map: dict[str, str]
) -> Optional[dict[str, str]]:
    """Participant map forced through who; None when inconsistent."""
    pmap: dict[str, str] = {}
    for x, y in action_map.items():
        p, q = e.action_by_id[x].who, s.action_by_id[y].who
        if p == SENTINEL_NOBODY and q == SENTINEL_NOBODY:
            continue
        if p == SENTINEL_NOBODY or q == SENTINEL_NOBODY:
            return None
        if p not in e.participant_by_id or q not in s.participant_by_id:
            # who targets a nominalized action; constrained via the action map
            continue
        if pmap.setdefault(p, q) != q:
            return None
    return pmap


def _participant_completions(
    e: ELog,
    s: ELog,
    base: dict[str, str],
    allow_partial: bool,
    targets_filter=None,
) -> Iterable[dict[str, str]]:
    """Extend the forced participant map over performers of no action."""
    leftovers = [p.id for p in e.nonsentinel_participants if p.id not in base]
    if not leftovers:
        yield dict(base)
        return
    options: list[list[Optional[str]]] = []
    for p in leftovers:
        opts: list[Optional[str]] = [
            q.id
            for q in s.nonsentinel_participants
            if targets_filter is None or targets_filter(p, q.id)
        ]
        if allow_partial:
            opts.append(None)
        options.append(opts)
    for combo in itertools.product(*options):
        out = dict(base)
        for p, q in zip(leftovers, combo):
            if q is not None:
                out[p] = q
        yield out


def brute_force_functors(e: ELog, s: ELog, cfg: SearchConfig) -> list[Functor]:
    """Oracle: enumerate every action map and keep the admissible functors.

    Each e-action goes to each s-action in turn; when totality is not
    required (``require_injective`` off) it may also go to nothing, and
    leftover participants may stay unmapped.  Guarded to small logs;
    intended for tests and verification runs.
    """
    e_actions = [a.id for a in e.nonsentinel_actions]
    s_actions = [a.id for a in s.nonsentinel_actions]
    if len(e_actions) > 8 or len(s_actions) > 8:
        raise TooLargeError("brute force is limited to 8 actions per side")
    e_m, s_m = adjacency(e), adjacency(s)
    partial = not cfg.require_injective
    options: list[Optional[str]] = list(s_actions)
    if partial:
        options.append(None)
    found: list[Functor] = []
    for images in itertools.product(options, repeat=len(e_actions)):
        amap = {x: y for x, y in zip(e_actions, images) if y is not None}
        base = _forced_pmap(e, s, amap)
        if base is None:
            continue
        for pmap in _participant_completions(e, s, base, allow_partial=partial):
            report = evaluate_conversion(e_m, s_m, amap, pmap)
            if _admissible(report, cfg):
                found.append(
                    Functor(src=e.id, dst=s.id, action_map=amap,
                            participant_map=pmap)
                )
    found.sort(key=lambda f: f.map_key())
    return found


def search_functors(
    e: ELog, s: ELog, b: BeLog, cfg: SearchConfig
) -> list[tuple[Functor, Score]]:
    """Ranked functor candidates from the e-log into the s-log.

    Backtracks over actions in causal-topological order.  When totality of the
    object maps is not required (require_injective off), actions and leftover
    participants may stay unmapped, which yields the partial functors used by
    inference.

    Only the first ``k = cfg.max_candidates`` results are returned.  Once k
    are found, a participant completion is skipped unchecked when its total
    with the structural term replaced by its coverage factor is strictly
    below the k-th best total so far.  That bound is exact (the structural
    term is a fraction of the factor, the weights are non-negative and
    rounding is monotone), so a skipped completion could not have ranked,
    ties at the k-th total are kept, and results, scores and order are those
    of the unbounded search.
    """
    e_m, s_m = adjacency(e), adjacency(s)
    e_actions = [a for a in e_m.action_ids if a not in SENTINEL_ACTIONS]
    s_actions = sorted(a.id for a in s.nonsentinel_actions)

    def compat_ok(x: str, y: str) -> bool:
        return mapping_compatibility(b, x, y) >= cfg.min_compatibility

    # candidate images of each e-action, each with the performer pair it
    # forces (None when it forces none); every test here is fixed for the
    # pair, so backtracking only tests the partial map
    images: list[list[tuple[str, Optional[tuple[str, str]]]]] = []
    for x in e_actions:
        p, row = e.action_by_id[x].who, []
        p_is_part = p != SENTINEL_NOBODY and p in e.participant_by_id
        for y in s_actions:
            q = s.action_by_id[y].who
            if (p == SENTINEL_NOBODY) != (q == SENTINEL_NOBODY):
                continue  # nobody performs only what nobody performs
            forced = (p, q) if p_is_part and q in s.participant_by_id else None
            if compat_ok(x, y) and (forced is None or compat_ok(p, q)):
                row.append((y, forced))
        images.append(row)

    # pruning tables: an e-side causal closure entry must land on an s-side
    # closure entry (or collapse onto an identity)
    e_index, s_index = e_m.action_index, s_m.action_index
    closures = (
        (e_m.closure_S.rows, s_m.closure_S.rows),
        (e_m.closure_N.rows, s_m.closure_N.rows),
    )

    # each action map is visited once and its participant completions are
    # distinct, so no result repeats
    results: list[tuple[Functor, Score]] = []
    # the k best totals so far, smallest first (see the docstring)
    k, best = cfg.max_candidates, []

    def consistent_with(
        x: str, y: str, amap: dict[str, str]
    ) -> bool:
        xi, yi = e_index[x], s_index[y]
        for z, fz in amap.items():
            if fz == y:
                continue
            zi, fzi = e_index[z], s_index[fz]
            for closure_e, closure_s in closures:
                if closure_e[xi] >> zi & 1 and not closure_s[yi] >> fzi & 1:
                    return False
                if closure_e[zi] >> xi & 1 and not closure_s[fzi] >> yi & 1:
                    return False
        return True

    def finalize(amap: dict[str, str], pmap: dict[str, str]) -> None:
        # the causal equations and the action score terms read the action
        # map only: decide and score them once for all its completions
        actions = _check_actions(e_m, s_m, amap)
        if not (actions.causal_eq_S_ok and actions.causal_eq_N_ok):
            return
        terms = None

        def score_parts(full_pmap: dict[str, str]):
            # the functor and the score terms that need no report
            nonlocal terms
            functor = Functor(
                src=e.id, dst=s.id, action_map=dict(amap), participant_map=full_pmap
            )
            if terms is None:
                terms = _action_terms(functor, e, s, b)
            coverage, similarity = _coverage_similarity(functor, e, s, b, terms[1])
            return functor, terms[0], coverage, similarity

        for full_pmap in _participant_completions(
            e, s, pmap, allow_partial=not cfg.require_injective,
            targets_filter=compat_ok,
        ):
            parts = None
            if len(best) == k:
                # structural = (share of hard checks) * coverage <= coverage,
                # and rounding is monotone, so this bounds the total exactly
                parts = score_parts(full_pmap)
                _, temporal, coverage, similarity = parts
                if _total(cfg, coverage, temporal, similarity) < best[0]:
                    continue
            report = _check_participants(e_m, s_m, actions, full_pmap)
            if not _admissible(report, cfg):
                continue
            functor, temporal, coverage, similarity = parts or score_parts(full_pmap)
            score = _score(cfg, report, temporal, coverage, similarity)
            results.append((functor, score))
            if len(best) < k:
                heapq.heappush(best, score.total)
            else:
                heapq.heappushpop(best, score.total)

    def backtrack(i: int, amap: dict[str, str], pmap: dict[str, str]) -> None:
        if i == len(e_actions):
            finalize(amap, pmap)
            return
        x = e_actions[i]
        for y, forced in images[i]:
            # a pmap entry was only ever set for a pair that passed compat_ok
            if forced and pmap.get(forced[0], forced[1]) != forced[1]:
                continue
            if not consistent_with(x, y, amap):
                continue
            amap[x] = y
            added = forced is not None and forced[0] not in pmap
            if added:
                pmap[forced[0]] = forced[1]
            backtrack(i + 1, amap, pmap)
            del amap[x]
            if added:
                del pmap[forced[0]]
        if not cfg.require_injective:
            backtrack(i + 1, amap, pmap)  # leave x unmapped

    backtrack(0, {}, {})

    ranked = sorted(results, key=lambda fs: (-fs[1].total, fs[0].map_key()))
    return ranked[:k]


# -- natural transformations ----------------------------------------------


def natural_transformation(
    f: Functor, g: Functor, target: ELog
) -> Optional[dict[str, tuple[str, str]]]:
    """Component assignment of a natural transformation from f to g.

    Exists iff every source object's two images are connected by an arrow
    path in the target log; naturality squares then commute automatically in
    the thin-category reading (any two parallel arrow paths are equal).
    Returns {object: (F(x), G(x))} or None.
    """
    if f.src != g.src or f.dst != g.dst:
        raise SourceTargetMismatchError(
            f"functors {f.src}->{f.dst} and {g.src}->{g.dst} are not parallel"
        )
    # identities plus who/cause arrows, closed by the shared closure kernel
    ids = tuple(sorted(target.object_ids()))
    index = {oid: i for i, oid in enumerate(ids)}
    arrows = BoolMatrix.identity(ids)
    for a in target.actions:
        for t in (a.who, a.cause_s, a.cause_n):
            if t in index:
                arrows.set(index[a.id], index[t])
    reach = causal_closure(arrows, allow_cycles=True).rows
    components: dict[str, tuple[str, str]] = {}
    objects = sorted(f.mapped_objects() | g.mapped_objects())
    for x in objects:
        fx = f.action_map.get(x) or f.participant_map.get(x)
        gx = g.action_map.get(x) or g.participant_map.get(x)
        if fx not in index or gx not in index:
            return None
        if not reach[index[fx]] >> index[gx] & 1:
            return None
        components[x] = (fx, gx)
    return components
