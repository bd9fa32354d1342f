"""High-level inference built from functor search.

Abstraction keeps full surjective functors into a scenario; inference copies
the unhit scenario actions back into the episode as predicted items; scenario
generation abstracts an episode fragment into class-valued, rank-timed form;
comprehension abstracts elemental episodes and composes them level by level;
planning chains scenarios backwards from a goal and grounds them in the
world.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Iterator

from .belog import BeLog, BeVerbType, characteristics, is_member, mapping_compatibility
from .errors import (
    AmbiguousInverseImageError,
    NoAdmissibleFunctorError,
    NoPlanFoundError,
    NotCausallyClosedError,
)
from .model import (
    Action,
    ELog,
    Kind,
    Participant,
    RawData,
    SENTINEL_ACTIONS,
    SENTINEL_NOBODY,
    SENTINEL_UNKNOWN,
    SLog,
    build_elog,
    collapsed_cause_edges,
    extract_subepisode,
)
from .search import Functor, Score, SearchConfig, search_functors


# -- abstraction -----------------------------------------------------------


@dataclass(frozen=True)
class AbstractionResult:
    functor: Functor
    score: Score
    residue: frozenset[str]  # e-log objects left unmapped (empty when full)


def _is_full(e: ELog, s: SLog, functor: Functor) -> bool:
    """Arrow coverage: every s-log arrow between hit objects has a mapped
    e-log arrow (or arrow path) over it."""
    amap, pmap = functor.action_map, functor.participant_map
    hit_arrows: set[tuple[str, str]] = set()
    for a in e.nonsentinel_actions:
        if a.id not in amap:
            continue
        fa = amap[a.id]
        if a.who in pmap:
            hit_arrows.add((fa, pmap[a.who]))
        for tgt in (a.cause_s, a.cause_n):
            if tgt in amap:
                hit_arrows.add((fa, amap[tgt]))
        hit_arrows.add((fa, fa))
    for sa in s.nonsentinel_actions:
        need = [(sa.id, sa.who)] if sa.who != SENTINEL_NOBODY else []
        for tgt in (sa.cause_s, sa.cause_n):
            if tgt not in SENTINEL_ACTIONS and tgt != sa.id:
                need.append((sa.id, tgt))
        for arrow in need:
            if arrow not in hit_arrows:
                return False
    return True


def abstract_episode(
    e: ELog, s: SLog, b: BeLog, cfg: SearchConfig
) -> list[AbstractionResult]:
    """All full abstractions of the episode into the scenario, best first.

    Arbitrariness is preserved: each admissible mapping is its own result.
    The search keeps every result, so the cut to ``cfg.max_candidates``
    comes after the non-full ones are dropped.
    """
    search_cfg = replace(cfg, require_surjective=True, max_candidates=sys.maxsize)
    out: list[AbstractionResult] = []
    for functor, score in search_functors(e, s, b, search_cfg):
        if not _is_full(e, s, functor):
            continue
        mapped = functor.mapped_objects()
        residue = frozenset(
            o
            for o in (
                [a.id for a in e.nonsentinel_actions]
                + [p.id for p in e.nonsentinel_participants]
            )
            if o not in mapped
        )
        out.append(AbstractionResult(functor, score, residue))
        if len(out) == cfg.max_candidates:
            break
    return out


# -- inference by completion ----------------------------------------------


@dataclass(frozen=True)
class AddedAction:
    action_id: str
    source_slog: str
    source_action: str
    tense: str  # future | past_hidden | undetermined


@dataclass(frozen=True)
class InferenceResult:
    extended_elog: ELog
    functor: Functor
    added: tuple[AddedAction, ...]


def _unique_preimage(mapping: dict[str, str], target: str) -> list[str]:
    return sorted(x for x, y in mapping.items() if y == target)


def _fresh_id(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    n = 1
    while f"{base}_{n}" in taken:
        n += 1
    return f"{base}_{n}"


def infer_missing(
    e: ELog, s: SLog, b: BeLog, cfg: SearchConfig
) -> InferenceResult:
    """Complete the episode according to the scenario (Table-4 deduction).

    Finds the best partial functor (unessential episode items may stay
    unmapped), then copies every unhit scenario action into the episode with
    its performer pulled back through the participant map and its cause
    arrows wired after the scenario's pattern.
    """
    cfg_partial = replace(cfg, require_surjective=False, require_injective=False)
    candidates = search_functors(e, s, b, cfg_partial)
    if not candidates:
        raise NoAdmissibleFunctorError(
            f"no admissible functor from {e.id!r} into {s.id!r}"
        )
    functor, _ = candidates[0]
    amap = dict(functor.action_map)
    pmap = dict(functor.participant_map)

    hit = set(amap.values())
    unhit = [sa for sa in s.nonsentinel_actions if sa.id not in hit]
    if not unhit:
        return InferenceResult(e, functor, ())

    taken = set(e.object_ids())
    new_parts: list[Participant] = []
    new_id_for_s_action: dict[str, str] = {}
    for sa in unhit:
        new_id_for_s_action[sa.id] = _fresh_id(sa.id, taken)
        taken.add(new_id_for_s_action[sa.id])

    def pull_back_participant(s_pid: str) -> str:
        if s_pid == SENTINEL_NOBODY:
            return SENTINEL_NOBODY
        pre = _unique_preimage(pmap, s_pid)
        if len(pre) > 1:
            raise AmbiguousInverseImageError(
                f"s-log participant {s_pid!r} has preimages {pre}"
            )
        if pre:
            return pre[0]
        fresh = _fresh_id(s_pid, taken)
        taken.add(fresh)
        new_parts.append(Participant(id=fresh, kind=Kind.PLAIN))
        pmap[fresh] = s_pid
        return fresh

    def pull_back_action(s_aid: str) -> str:
        if s_aid in SENTINEL_ACTIONS:
            return SENTINEL_UNKNOWN
        if s_aid in new_id_for_s_action:
            return new_id_for_s_action[s_aid]
        pre = _unique_preimage(amap, s_aid)
        return pre[0] if pre else SENTINEL_UNKNOWN

    # rank anchors from hit s-actions whose preimages carry timestamps
    anchor_ranks = [
        sa.t_start
        for sa in s.nonsentinel_actions
        if sa.id in hit
        and sa.t_start is not None
        and any(
            e.action_by_id[x].t_start is not None
            for x in _unique_preimage(amap, sa.id)
        )
    ]

    new_actions: list[Action] = []
    added: list[AddedAction] = []
    for sa in unhit:
        nid = new_id_for_s_action[sa.id]
        partner = (
            new_id_for_s_action.get(sa.trivial_partner)
            if sa.trivial_partner
            else None
        )
        new_actions.append(
            Action(
                id=nid,
                who=pull_back_participant(sa.who),
                cause_s=pull_back_action(sa.cause_s),
                cause_n=pull_back_action(sa.cause_n),
                trivial_partner=partner,
                label=sa.label,
                raw=RawData(attrs=(("inferred_from", f"{s.id}:{sa.id}"),)),
            )
        )
        amap[nid] = sa.id
        if sa.t_start is None or not anchor_ranks:
            tense = "undetermined"
        elif sa.t_start > max(anchor_ranks):
            tense = "future"
        elif sa.t_start < min(anchor_ranks):
            tense = "past_hidden"
        else:
            tense = "undetermined"
        added.append(AddedAction(nid, s.id, sa.id, tense))

    # rewire existing sentinel cause arrows onto the copied pattern
    patched: list[Action] = []
    for a in e.nonsentinel_actions:
        new_a = a
        if a.id in functor.action_map:
            sa = s.action_by_id[functor.action_map[a.id]]
            if a.cause_s in SENTINEL_ACTIONS and sa.cause_s in new_id_for_s_action:
                new_a = replace(new_a, cause_s=new_id_for_s_action[sa.cause_s])
            if a.cause_n in SENTINEL_ACTIONS and sa.cause_n in new_id_for_s_action:
                new_a = replace(new_a, cause_n=new_id_for_s_action[sa.cause_n])
        patched.append(new_a)

    extended = build_elog(
        e.id,
        tuple(patched) + tuple(new_actions),
        e.nonsentinel_participants + tuple(new_parts),
    )
    result_functor = Functor(
        src=e.id, dst=s.id, action_map=amap, participant_map=pmap
    )
    return InferenceResult(extended, result_functor, tuple(added))


# -- s-log generation ------------------------------------------------------


def _narrowest_class(b: BeLog, pid: str) -> str:
    """Smallest classification target of pid by member count; the participant
    itself (as a singleton class) when it has none."""
    classes = sorted(r.target for r in b.edges_from(BeVerbType.BE3, pid))
    if not classes:
        return pid
    return min(
        classes, key=lambda c: (len(b.edges_into(BeVerbType.BE3, c)), c)
    )


def generate_slog(
    e: ELog,
    subset: set[str] | frozenset[str],
    b: BeLog,
    slog_id: str | None = None,
) -> SLog:
    """Abstract an episode fragment into a scenario (enumerative induction).

    Participants become their narrowest containing classes and timestamps
    become dense ranks.  The fragment must be causally closed: the sufficient
    cause of every included action must be included too.
    """
    subset = set(subset)
    for aid in subset:
        a = e.action_by_id.get(aid)
        if a is None:
            continue
        cs = a.cause_s
        if (
            cs not in SENTINEL_ACTIONS
            and cs != aid
            and cs in e.action_by_id
            and cs not in subset
        ):
            raise NotCausallyClosedError(
                f"action {aid!r} is included but its cause {cs!r} is not"
            )
    for aid in list(subset):
        a = e.action_by_id.get(aid)
        if a is not None and a.who in e.participant_by_id:
            subset.add(a.who)  # keep performers; who must stay total
    sub = extract_subepisode(e, subset)

    class_of = {
        p.id: _narrowest_class(b, p.id) for p in sub.nonsentinel_participants
    }
    ranks = sorted(
        {a.t_start for a in sub.nonsentinel_actions if a.t_start is not None}
    )
    rank_of = {t: i for i, t in enumerate(ranks)}

    actions = []
    for a in sub.nonsentinel_actions:
        who = class_of.get(a.who, a.who)
        # ranks are instantaneous; interval widths do not survive abstraction
        rank = rank_of[a.t_start] if a.t_start is not None else None
        raw = RawData(t_start=rank, t_end=rank)
        actions.append(replace(a, who=who, raw=raw))
    participants = [
        Participant(id=c, kind=Kind.CLASS)
        for c in sorted(set(class_of.values()))
    ]
    return build_elog(
        slog_id or f"{e.id}#slog", tuple(actions), tuple(participants), slog=True
    )


# -- comprehension ---------------------------------------------------------


@dataclass(frozen=True)
class TreeNode:
    node_id: str
    level: int
    object_ids: frozenset[str]
    elog: ELog
    slog_id: str | None
    functor: Functor | None
    score: Score | None
    children: tuple[str, ...] = ()


@dataclass(frozen=True)
class ComprehensionTree:
    levels: tuple[tuple[TreeNode, ...], ...]

    def nodes(self) -> list[TreeNode]:
        return [n for level in self.levels for n in level]


def _find(parent, x):
    """Union-find root of x in the forest ``parent`` (a dict or a list),
    halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _causal_clusters(e: ELog) -> list[frozenset[str]]:
    """Weakly-connected components of the non-sentinel cause graph; each
    cluster carries its actions plus their performers."""
    actions = {a.id: a for a in e.nonsentinel_actions}
    unit, edges = collapsed_cause_edges(actions)
    parent = {aid: aid for aid in actions}
    for u, v in list(unit.items()) + list(edges):
        parent[_find(parent, u)] = _find(parent, v)
    groups: dict[str, set[str]] = {}
    for aid in actions:
        groups.setdefault(_find(parent, aid), set()).add(aid)
    clusters = []
    for members in groups.values():
        objs = set(members)
        for aid in members:
            who = actions[aid].who
            if who != SENTINEL_NOBODY and who in e.participant_by_id:
                objs.add(who)
        clusters.append(frozenset(objs))
    return sorted(clusters, key=lambda c: min(c))


def _best_match(
    node_elog: ELog, library: list[SLog], b: BeLog, cfg: SearchConfig
) -> tuple[str | None, Functor | None, Score | None]:
    best: tuple[float, str, Functor, Score] | None = None
    for s in library:
        cfg_m = replace(cfg, require_surjective=True, require_injective=False)
        for functor, score in search_functors(node_elog, s, b, cfg_m)[:1]:
            cand = (score.total, s.id, functor, score)
            if best is None or cand[0] > best[0] or (
                cand[0] == best[0] and cand[1] < best[1]
            ):
                best = cand
    if best is None:
        return None, None, None
    return best[1], best[2], best[3]


def comprehend(
    story: ELog,
    library: list[SLog],
    b: BeLog,
    cfg: SearchConfig,
) -> ComprehensionTree:
    """Hierarchical comprehension: cluster, abstract, compose, repeat.

    Level 0 partitions the story's actions into causal clusters; every node
    is matched against the scenario library (null match when nothing fits).
    Adjacent nodes sharing a participant are composed into the next level,
    up to ``cfg.composition_depth`` levels.
    """
    levels: list[tuple[TreeNode, ...]] = []
    groups = [(objs, []) for objs in _causal_clusters(story)]
    for depth in range(cfg.composition_depth):
        if depth:
            groups = _merge_adjacent(levels[-1])
            if groups is None:
                break
        nodes: list[TreeNode] = []
        for i, (objs, children) in enumerate(groups):
            sub = extract_subepisode(story, objs)
            slog_id, functor, score = _best_match(sub, library, b, cfg)
            nodes.append(
                TreeNode(
                    f"n{depth}.{i}", depth, objs, sub, slog_id, functor, score,
                    children=tuple(children),
                )
            )
        levels.append(tuple(nodes))
    return ComprehensionTree(tuple(levels))


def _merge_adjacent(
    nodes: tuple[TreeNode, ...],
) -> list[tuple[frozenset[str], list[str]]] | None:
    """Union nodes that share a non-sentinel object; None when nothing
    merges."""
    parent = list(range(len(nodes)))
    any_merge = False
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if nodes[i].object_ids & nodes[j].object_ids:
                ri, rj = _find(parent, i), _find(parent, j)
                if ri != rj:
                    parent[ri] = rj
                    any_merge = True
    if not any_merge:
        return None
    groups: dict[int, list[int]] = {}
    for i in range(len(nodes)):
        groups.setdefault(_find(parent, i), []).append(i)
    out = []
    for members in groups.values():
        objs = frozenset().union(*(nodes[i].object_ids for i in members))
        out.append((objs, [nodes[i].node_id for i in members]))
    out.sort(key=lambda pair: min(pair[0]))
    return out


@dataclass(frozen=True)
class ClassificationResult:
    scores: dict[str, float]
    scenes: frozenset[str]
    vacuous: bool  # no matched scenes: scores carry no evidence


def classify_story(tree: ComprehensionTree, b: BeLog) -> ClassificationResult:
    """Score the story against story classes by its characteristic scenes.

    The matched scenario ids at level 0 act as the story's characteristic
    set; each class with characteristics in the be-log is scored by the
    overlap ratio.
    """
    scenes = frozenset(
        n.slog_id for n in tree.levels[0] if n.slog_id is not None
    )
    classes = sorted(
        {
            r.source
            for r in b.relations
            if r.type == BeVerbType.BE4
        }
    )
    scores: dict[str, float] = {}
    for cls in classes:
        ch = characteristics(b, cls)
        if ch:
            scores[cls] = len(scenes & ch) / len(ch)
    return ClassificationResult(scores, scenes, vacuous=not scenes)


# -- planning --------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    elog: ELog
    slog_chain: tuple[str, ...]
    assembled_slog: SLog
    assignment: dict[str, str]  # class participant -> world participant


def _scenario_ends(s: SLog) -> tuple[list[Action], list[Action]]:
    """(terminal, initial) actions: those with no non-sentinel effect, and
    those with no non-sentinel cause, along either arrow kind."""
    causes: set[str] = set()
    effects: set[str] = set()
    for a in s.nonsentinel_actions:
        for c, e in ((a.cause_s, a.id), (a.id, a.cause_n)):
            if c != e and c not in SENTINEL_ACTIONS and e not in SENTINEL_ACTIONS:
                causes.add(c)
                effects.add(e)
    return (
        [a for a in s.nonsentinel_actions if a.id not in causes],
        [a for a in s.nonsentinel_actions if a.id not in effects],
    )


def _chain_slogs(chain: list[SLog], links: list[tuple[str, str]]) -> SLog:
    """Concatenate scenarios: ``links[i]`` names the terminal action of
    ``chain[i]`` and the initial action of ``chain[i + 1]`` that admitted
    the link; the pair is wired both ways (cause-N forward, cause-S back)
    and no other arrow changes.  An action id that clashes becomes
    ``<id>.<position>``, extended like ``_fresh_id`` when that is taken."""
    # classes with equal ids are the same class and merge; only action ids
    # are renamed on clash, away from every id taken and every own id
    taken: set[str] = set()
    renames: list[dict[str, str]] = []
    for idx, s in enumerate(chain):
        blocked = taken | {a.id for a in s.nonsentinel_actions}
        rename: dict[str, str] = {}
        for a in s.nonsentinel_actions:
            nid = a.id if a.id not in taken else _fresh_id(f"{a.id}.{idx}", blocked)
            rename[a.id] = nid
            blocked.add(nid)
        taken.update(rename.values())
        renames.append(rename)
    cause_s: dict[str, str] = {}
    cause_n: dict[str, str] = {}
    for idx, (term, ini) in enumerate(links):
        t, i = renames[idx][term], renames[idx + 1][ini]
        cause_n[t], cause_s[i] = i, t

    actions: list[Action] = []
    participants: dict[str, Participant] = {}
    # ranks only grow along the chain, also past a scenario with no
    # timestamps, so no action ranks below a transitive cause
    rank_offset = max_rank = 0
    for s, rename in zip(chain, renames):
        for a in s.nonsentinel_actions:
            nid = rename[a.id]
            t = a.t_start
            raw = RawData(t_start=t + rank_offset if t is not None else None)
            partner = rename.get(a.trivial_partner) if a.trivial_partner else None
            actions.append(
                replace(
                    a, id=nid,
                    cause_s=cause_s.get(nid, rename.get(a.cause_s, a.cause_s)),
                    cause_n=cause_n.get(nid, rename.get(a.cause_n, a.cause_n)),
                    trivial_partner=partner, raw=raw,
                )
            )
            if t is not None:
                max_rank = max(max_rank, t + rank_offset)
        for p in s.nonsentinel_participants:
            participants.setdefault(p.id, p)
        rank_offset = max_rank + 1
    chain_id = "+".join(s.id for s in chain)
    return build_elog(chain_id, tuple(actions), tuple(participants.values()), slog=True)


def plan(
    goal_action_class: str,
    library: list[SLog],
    world: ELog,
    b: BeLog,
    cfg: SearchConfig,
) -> list[Plan]:
    """Assemble scenario chains ending in the goal and ground them in the
    world (inverse of comprehension)."""
    scenarios = [(s, *_scenario_ends(s)) for s in library]
    ending = [
        (s, terminals, initials)
        for s, terminals, initials in scenarios
        if any(is_member(b, a.id, goal_action_class) for a in terminals)
    ]
    if not ending:
        raise NoPlanFoundError(
            f"no library scenario ends with {goal_action_class!r}"
        )

    # each chain with the (terminal, initial) pair that admitted each link
    chains: list[tuple[list[SLog], list[tuple[str, str]]]] = []

    def extend_back(
        chain: list[SLog], links: list[tuple[str, str]], head_initials: list[Action]
    ) -> None:
        chains.append((chain, links))
        if len(chain) >= cfg.composition_depth:
            return
        for s, terminals, s_initials in scenarios:
            if s.id in {c.id for c in chain}:
                continue
            link = next(
                (
                    (term.id, ini.id)
                    for term in terminals
                    for ini in head_initials
                    if term.id == ini.id or mapping_compatibility(b, term.id, ini.id) > 0
                ),
                None,
            )
            if link is not None:
                extend_back([s] + chain, [link] + links, s_initials)

    for s, _, initials in sorted(ending, key=lambda sc: sc[0].id):
        extend_back([s], [], initials)

    world_parts = sorted(p.id for p in world.nonsentinel_participants)
    plans: list[Plan] = []
    seen: set[tuple] = set()
    chains.sort(key=lambda c: (len(c[0]), [s.id for s in c[0]]))
    for chain, links in chains:
        assembled = _chain_slogs(chain, links)
        classes = sorted(p.id for p in assembled.nonsentinel_participants)
        candidates = {
            c: [
                w
                for w in world_parts
                if is_member(b, w, c) or mapping_compatibility(b, w, c) > 0
            ]
            for c in classes
        }
        for assignment in _injective_assignments(classes, candidates):
            key = (tuple(s.id for s in chain), tuple(sorted(assignment.items())))
            if key in seen:
                continue
            seen.add(key)
            plans.append(
                Plan(
                    elog=_ground(assembled, assignment, len(plans)),
                    slog_chain=tuple(s.id for s in chain),
                    assembled_slog=assembled,
                    assignment=assignment,
                )
            )
            if len(plans) >= cfg.max_candidates:
                return plans
    if not plans:
        raise NoPlanFoundError(
            f"no grounding of any scenario chain for {goal_action_class!r}"
        )
    return plans


def _injective_assignments(
    classes: list[str], candidates: dict[str, list[str]]
) -> Iterator[dict[str, str]]:
    """Injective class -> inhabitant assignments, depth first: the first
    class varies slowest, each class tries its candidates in order."""
    if not classes:
        yield {}
        return
    chosen: list[str] = []
    pending = [iter(candidates[classes[0]])]
    while pending:
        w = next((w for w in pending[-1] if w not in chosen), None)
        if w is None:
            pending.pop()
            if chosen:
                chosen.pop()
            continue
        chosen.append(w)
        if len(chosen) == len(classes):
            yield dict(zip(classes, chosen))
            chosen.pop()
        else:
            pending.append(iter(candidates[classes[len(chosen)]]))


def _ground(assembled: SLog, assignment: dict[str, str], n: int) -> ELog:
    actions = [
        replace(a, who=assignment.get(a.who, a.who))
        for a in assembled.nonsentinel_actions
    ]
    participants = [
        Participant(id=w) for w in sorted(set(assignment.values()))
    ]
    return build_elog(f"plan_{n}", tuple(actions), tuple(participants))
