"""The benchmark's workloads.

``build(name, seed)`` sets one workload up from its seed and returns a
function ``make(i)``.  It gives the i-th operation of the seeded stream as a
pair: a zero-argument callable, the operation to time, and a check that
compares its output with a reference computed outside the timed path.  The
library under test only ever sees the generated inputs.

Every operation draws fresh inputs from its own seeded generator.  A pair of
logs can cost anywhere from a tenth to four times the mean, so a run built
from a small pool of inputs would measure that pool; fresh inputs let one
run stand for the workload.

Why each workload exists:

- ``match``: full-mode abstraction.  Backtracking and ``evaluate_conversion``
  dominate, and few candidates reach scoring.
- ``infer``: partial-mode inference.  Every leaf is evaluated and every
  admissible one scored; ``match`` never takes this path.
- ``story``: comprehension, classification and planning over one shared
  scenario library.  Many small searches, sub-episode building and be-log
  lookups; planning never touches ``boolmat``.
- ``ingest``: parse, validate, adjacency, closure and format of large logs
  with a long causal chain.  No functor search; the only workload that
  exercises ``store``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

import cognilog
from cognilog import BeLog, BeRelation, BeVerbType, RawData, SearchConfig, build_elog
from cognilog.model import SENTINEL_ACTIONS, SENTINEL_NOBODY

import gen

Op = tuple[Callable[[], Any], Callable[[Any], bool]]

MATCH_ACTIONS, MATCH_PARTS, MATCH_LIBRARY = 5, 3, 4
# Every action but the first has a sufficient cause, as in a told episode.
# Sparser causes leave pairs that cost ten times the median, and the ten
# slowest operations of a run, which set tail_ms, then vary by a third.
MATCH_CAUSE_P = 1.0
INFER_ACTIONS, INFER_PARTS = 5, 3
SCENE_ACTIONS, SCENES, STORY_SCENES = 3, 8, 2
CLASSES = ("agent", "patient", "tool", "place", "crowd")
WORLD_PARTS = 30
INGEST_ACTIONS, INGEST_CHAIN = 600, 200
# Reference checks that cost more than the operation itself (the brute-force
# oracle, inferring twice) run on the first operations of a run only.
COSTLY_CHECKS = 4


def build(name: str, seed: int) -> Callable[[int], Op]:
    return BUILDERS[name](seed)


def golden(name: str, fixtures: Path) -> list[bool]:
    """Outcomes of the documented examples in ``fixtures`` that the
    workload's operation covers, checked once per run."""

    def load(file: str):
        text = (fixtures / file).read_text(encoding="utf-8")
        return cognilog.parse_belog(text) if file.endswith(".belog") else cognilog.parse_log(text)

    if name == "match":
        found = cognilog.abstract_episode(
            load("robot.elog"), load("worker.slog"), load("robot.belog"), SearchConfig()
        )
        # the carried dolly is read both as a worker and as cargo
        return [{r.functor.participant_map["dolly"] for r in found[:2]} == {"worker", "cargo"}]
    if name == "infer":
        e, s, b = load("explosion.elog"), load("blast.slog"), load("blast.belog")
        cfg = SearchConfig(min_compatibility=0.5)
        once = cognilog.infer_missing(e, s, b, cfg)
        ext = once.extended_elog
        twice = cognilog.infer_missing(ext, s, b, cfg)
        return [
            [a.action_id for a in once.added] == ["destroys", "is_destroyed"]
            and all(a.tense == "future" for a in once.added)
            and ext.action_by_id["destroys"].who == "explosive"
            and ext.action_by_id["is_destroyed"].who == "tower"
            and ext.action_by_id["is_destroyed"].cause_s == "destroys"
            and twice.added == ()
            and twice.extended_elog == ext
        ]
    return []


def _stream(name: str, seed: int, i: int) -> random.Random:
    """Independent generator for the i-th operation of a run.  Negative
    indices are warm-up operations, the same for every seed."""
    return random.Random(f"{name}:{seed if i >= 0 else 'warm-up'}:{i}")


def _ids(log) -> tuple[set[str], set[str]]:
    return {a.id for a in log.nonsentinel_actions}, {p.id for p in log.nonsentinel_participants}


def _learn(rng, n_actions, n_parts, tag, cause_s_p=0.5):
    """A source episode, a be-log filing each of its participants under a
    class of its own, and the scenario learned from the source."""
    src = gen.episode(rng, n_actions, n_parts, f"{tag}_", f"{tag}src", cause_s_p=cause_s_p)
    b = BeLog(tuple(
        BeRelation(id=f"c.{p}", type=BeVerbType.BE3, source=p, target=f"k_{p}")
        for p in sorted(_ids(src)[1])
    ))
    return src, b, cognilog.generate_slog(src, _ids(src)[0], b, f"{tag}lib")


# -- match -----------------------------------------------------------------


def _is_full(e, s, amap, pmap) -> bool:
    """Reference arrow coverage: every s-log arrow out of an action is the
    image of an e-log arrow (identities included)."""
    images = set()
    for a in e.nonsentinel_actions:
        fa = amap[a.id]
        images.add((fa, fa))
        if a.who in pmap:
            images.add((fa, pmap[a.who]))
        images.update((fa, amap[t]) for t in (a.cause_s, a.cause_n) if t in amap)
    for sa in s.nonsentinel_actions:
        if sa.who != SENTINEL_NOBODY and (sa.id, sa.who) not in images:
            return False
        for t in (sa.cause_s, sa.cause_n):
            if t not in SENTINEL_ACTIONS and t != sa.id and (sa.id, t) not in images:
                return False
    return True


def _match(seed: int):
    # no truncation, so the oracle comparison is exact
    cfg = SearchConfig(max_candidates=1000)

    def make(i):
        rng = _stream("match", seed, i)
        library = [
            _learn(rng, MATCH_ACTIONS, MATCH_PARTS, f"m{i}.{j}", MATCH_CAUSE_P)
            for j in range(MATCH_LIBRARY)
        ]
        b = BeLog(tuple(r for _, lb, _ in library for r in lb.relations))
        # even operations abstract the source of the library's first
        # scenario, odd ones an unrelated episode
        src = library[0][0]
        planted = i % 2 == 0
        e = src if planted else gen.episode(
            rng, MATCH_ACTIONS, MATCH_PARTS, f"u{i}_", f"ep{i}", cause_s_p=MATCH_CAUSE_P
        )

        def run():
            return [cognilog.abstract_episode(e, s, b, cfg) for _, _, s in library]

        oracle: list = []  # filled once; traced runs check an operation again

        def check(result):
            keys = [{r.functor.map_key() for r in found} for found in result]
            acts, parts = _ids(src)
            identity = (
                tuple(sorted((a, a) for a in acts)),
                tuple(sorted((p, f"k_{p}") for p in parts)),
            )
            if planted and identity not in keys[0]:
                return False
            if i < COSTLY_CHECKS:
                if not oracle:
                    oracle.append([
                        {
                            f.map_key()
                            for f in cognilog.brute_force_functors(e, s, cfg)
                            if _is_full(e, s, f.action_map, f.participant_map)
                        }
                        for _, _, s in library
                    ])
                return keys == oracle[0]
            return True

        return run, check

    return make


# -- infer -----------------------------------------------------------------


def _hide_trailing(src, k: int):
    """Copy of ``src`` without its last ``k`` actions in causal order (a
    trivial pair is hidden whole); arrows into the hidden part become
    ``unknown``."""
    order = [a for a in cognilog.canonical_action_order(src) if a not in SENTINEL_ACTIONS]
    hidden = set(order[-k:])
    hidden |= {src.action_by_id[a].trivial_partner for a in hidden} - {None}
    kept = tuple(
        replace(
            a,
            cause_s="unknown" if a.cause_s in hidden else a.cause_s,
            cause_n="unknown" if a.cause_n in hidden else a.cause_n,
        )
        for a in src.nonsentinel_actions
        if a.id not in hidden
    )
    return build_elog(f"{src.id}-{k}", kept, src.nonsentinel_participants), hidden


def _infer(seed: int):
    cfg = SearchConfig()

    def make(i):
        rng = _stream("infer", seed, i)
        src, b, s = _learn(rng, INFER_ACTIONS, INFER_PARTS, f"i{i}")
        e, hidden = _hide_trailing(src, 2)
        again: list = []  # filled once; traced runs check an operation again

        def check(result):
            ext = result.extended_elog
            # the source itself is the reference: every hidden action comes
            # back with its performer and arrows, and nothing else changes
            untimed = lambda log: {replace(a, raw=RawData()) for a in log.nonsentinel_actions}
            if {a.action_id for a in result.added} != hidden or untimed(ext) != untimed(src):
                return False
            if not cognilog.validate_category(ext).ok:
                return False
            if i < COSTLY_CHECKS:
                if not again:
                    again.append(cognilog.infer_missing(ext, s, b, cfg))
                return again[0].added == () and again[0].extended_elog == ext
            return True

        return (lambda: cognilog.infer_missing(e, s, b, cfg)), check

    return make


# -- story -----------------------------------------------------------------


def _rel(relations: list, type_, source, target, w=1.0) -> None:
    relations.append(
        BeRelation(id=f"r{len(relations)}", type=type_, source=source, target=target, weight=w)
    )


def _story(seed: int):
    # The library is the same for every seed: how its scenes overlap in
    # classes moves the cost of every operation by a fifth, which would
    # swamp the seed-to-seed comparison.  Stories and goals follow the seed.
    rng = random.Random("story-library")
    base: list[BeRelation] = []
    # Scenario library: scenes of one shape (no trivial pairs, every action
    # caused by an earlier one) whose performers play distinct classes.
    scene_src, role_class = [], {}
    for j in range(SCENES):
        src = gen.episode(
            rng, SCENE_ACTIONS, SCENE_ACTIONS, f"sc{j}_", f"scene{j}",
            pair_p=0.0, cause_s_p=1.0, cause_n_p=0.0,
        )
        for p, c in zip(sorted(_ids(src)[1]), rng.sample(CLASSES, SCENE_ACTIONS)):
            role_class[p] = c
            _rel(base, BeVerbType.BE3, p, c)
        scene_src.append(src)
    scene_b = BeLog(tuple(base))
    library = [
        cognilog.generate_slog(src, _ids(src)[0], scene_b, f"lib{j}")
        for j, src in enumerate(scene_src)
    ]
    # The last action of a scene is its goal: nothing follows it.  For
    # planning, each scene's goal leads into the next scene's first action.
    goal = [f"sc{j}_a{SCENE_ACTIONS - 1}" for j in range(SCENES)]
    for j in range(SCENES):
        _rel(base, BeVerbType.SIMILAR, goal[j - 1], f"sc{j}_a0", 0.5)
    # story classes characterised by scenes, for classification
    story_classes = {}
    for c in range(4):
        ch = {f"lib{j}" for j in rng.sample(range(SCENES), 3)}
        story_classes[f"story_class{c}"] = ch
        for lib in sorted(ch):
            _rel(base, BeVerbType.BE4, f"story_class{c}", lib)
    # planning world: every inhabitant may play every class
    world = build_elog("world", (), tuple(cognilog.Participant(id=f"w{k}") for k in range(WORLD_PARTS)))
    for p in sorted(_ids(world)[1]):
        for c in CLASSES:
            _rel(base, BeVerbType.BE3, p, c)
    b = BeLog(tuple(base))
    member = {(r.source, r.target) for r in base if r.type == BeVerbType.BE3}
    cfg = SearchConfig(min_compatibility=0.5)

    def make_plan(j):
        def check(result):
            for p in result:
                last = p.elog.action_by_id.get(goal[j])
                if (
                    p.slog_chain[-1] != f"lib{j}"
                    or last is None
                    or last.cause_n not in SENTINEL_ACTIONS
                    or len(set(p.assignment.values())) != len(p.assignment)
                    or any((w, c) not in member for c, w in p.assignment.items())
                    or not cognilog.validate_category(p.elog).ok
                ):
                    return False
            return len(result) == cfg.max_candidates

        return (lambda: cognilog.plan(goal[j], library, world, b, cfg)), check

    def make_story(rng, i):
        """Planted scene instances; consecutive scenes share a performer."""
        planted = [rng.randrange(SCENES) for _ in range(STORY_SCENES)]
        relations = list(base)
        actions, cast, carry = [], set(), None
        for n, j in enumerate(planted):
            tag = f"st{i}_{n}_"
            roles = sorted(_ids(scene_src[j])[1])
            who = {p: tag + p for p in roles}
            if carry is not None:
                who[roles[0]] = carry
            carry = who[roles[-1]]
            for p in roles:
                cast.add(who[p])
                _rel(relations, BeVerbType.BE3, who[p], role_class[p])
            ren = lambda x: x if x in SENTINEL_ACTIONS else tag + x
            for a in scene_src[j].nonsentinel_actions:
                actions.append(
                    replace(
                        a, id=tag + a.id, who=who[a.who],
                        cause_s=ren(a.cause_s), cause_n=ren(a.cause_n),
                        raw=RawData(a.t_start + 10 * n, a.t_end + 10 * n),
                    )
                )
                _rel(relations, BeVerbType.SIMILAR, tag + a.id, a.id, 0.9)
        parts = tuple(cognilog.Participant(id=c) for c in sorted(cast))
        story = build_elog(f"story{i}", tuple(actions), parts)
        story_b = BeLog(tuple(relations))
        scenes = {f"lib{j}" for j in planted}

        def run():
            tree = cognilog.comprehend(story, library, story_b, cfg)
            return tree, cognilog.classify_story(tree, story_b)

        def check(result):
            tree, verdict = result
            expected = {c: len(scenes & ch) / len(ch) for c, ch in story_classes.items()}
            return (
                sorted(n.slog_id for n in tree.levels[0]) == sorted(f"lib{j}" for j in planted)
                and len(tree.levels) == 2
                and len(tree.levels[1]) == 1
                and verdict.scores == expected
            )

        return run, check

    def make(i):
        rng = _stream("story", seed, i)
        # one operation in four plans, the others comprehend a story
        return make_plan(rng.randrange(SCENES)) if i % 4 == 3 else make_story(rng, i)

    return make


# -- ingest ----------------------------------------------------------------


def _reach_rows(ids: tuple[str, ...], succ) -> list[int]:
    """Reference closure as bit rows over ``ids``: a reachability fixpoint,
    sweeping both ways so chains in either direction settle in few sweeps."""
    index = {a: i for i, a in enumerate(ids)}
    targets = [[index[b] for b in succ(a)] for a in ids]
    rows = [0] * len(ids)
    sweep = list(range(len(ids)))
    sweep += sweep[::-1]
    changed = True
    while changed:
        changed = False
        for i in sweep:
            row = rows[i]
            for j in targets[i]:
                row |= 1 << j | rows[j]
            if row != rows[i]:
                rows[i], changed = row, True
    return rows


def _ingest(seed: int):
    def make(i):
        rng = _stream("ingest", seed, i)
        log = gen.episode(rng, INGEST_ACTIONS, 8, f"x{i}_", f"log{i}", chain_len=INGEST_CHAIN)
        text = cognilog.format_log(log)

        def run():
            parsed = cognilog.parse_log(text)
            report = cognilog.validate_category(parsed)
            m = cognilog.adjacency(parsed)
            back = cognilog.causal_closure(m.S | m.N_tri, allow_cycles=True)
            fwd = cognilog.causal_closure(m.N | m.S_tri, allow_cycles=True)
            return report, m.action_ids, back.rows, fwd.rows, cognilog.format_log(parsed)

        def arrows(own: str, other: str):
            """Cause arrows of one direction plus the trivial-pair arrow of
            the other, as ``adjacency`` combines them for a closure."""

            def succ(aid):
                if aid in SENTINEL_ACTIONS:
                    return []
                a = log.action_by_id[aid]
                out = [getattr(a, own)]
                if getattr(a, other) == a.trivial_partner:
                    out.append(a.trivial_partner)
                return [t for t in out if t not in SENTINEL_ACTIONS and t != aid]

            return succ

        def check(result):
            report, ids, back, fwd, out = result
            return (
                report.ok
                and out == text
                and sorted(ids) == sorted(log.action_by_id)
                and back == _reach_rows(ids, arrows("cause_s", "cause_n"))
                and fwd == _reach_rows(ids, arrows("cause_n", "cause_s"))
            )

        return run, check

    return make


BUILDERS = {"match": _match, "infer": _infer, "story": _story, "ingest": _ingest}
