import itertools
import random
from dataclasses import replace

import pytest

from cognilog.belog import BeLog, BeRelation, BeVerbType
from cognilog.boolmat import adjacency, evaluate_conversion
from cognilog.errors import NoPlanFoundError, NotCausallyClosedError
from cognilog.model import (
    Action,
    Kind,
    Participant,
    RawData,
    SLog,
    build_elog,
    validate_category,
)
from cognilog.reasoning import (
    _chain_slogs,
    _injective_assignments,
    _is_full,
    abstract_episode,
    classify_story,
    comprehend,
    generate_slog,
    infer_missing,
    plan,
)
from cognilog.search import SearchConfig, search_functors
from cognilog.store import parse_log

from conftest import load_belog, load_log, random_elog

EMPTY = BeLog()


def _rels(*triples):
    return BeLog(tuple(
        BeRelation(id=f"r{i}", type=BeVerbType(t), source=s, target=d,
                   weight=(w[0] if w else 1.0))
        for i, (t, s, d, *w) in enumerate(triples)
    ))


# -- abstraction -----------------------------------------------------------


def test_abstract_episode_returns_full_functors(robot, worker, robot_belog):
    results = abstract_episode(robot, worker, robot_belog, SearchConfig())
    assert len(results) >= 2
    for res in results:
        assert res.residue == frozenset()
        assert res.score.report.complete
    dollies = {r.functor.participant_map["dolly"] for r in results[:2]}
    assert dollies == {"worker", "cargo"}


def test_abstract_episode_cuts_after_dropping_non_full_results():
    # the 154th pair: 6 full abstractions, 4 of them outside the top 10
    rng = random.Random(3)
    for _ in range(154):
        e = random_elog(rng, 6, log_id="e")
        s = random_elog(rng, 3, slog=True, log_id="s")
    cfg = SearchConfig()
    unbounded = SearchConfig(max_candidates=1000)
    full = [f for f, _ in search_functors(e, s, EMPTY, unbounded) if _is_full(e, s, f)]
    assert len(full) == 6
    results = abstract_episode(e, s, EMPTY, cfg)
    assert [r.functor for r in results] == full
    top2 = abstract_episode(e, s, EMPTY, replace(cfg, max_candidates=2))
    assert [r.functor for r in top2] == full[:2]


# -- inference -------------------------------------------------------------


@pytest.fixture
def inference_cfg():
    return SearchConfig(min_compatibility=0.5)


def test_infer_missing_adds_predicted_pair(inference_cfg):
    e = load_log("explosion.elog")
    s = load_log("blast.slog")
    b = load_belog("blast.belog")
    result = infer_missing(e, s, b, inference_cfg)
    assert [a.action_id for a in result.added] == ["destroys", "is_destroyed"]
    assert all(a.tense == "future" for a in result.added)
    ext = result.extended_elog
    assert ext.action_by_id["destroys"].who == "explosive"
    assert ext.action_by_id["destroys"].cause_s == "exploded"
    assert ext.action_by_id["is_destroyed"].who == "tower"
    assert ext.action_by_id["is_destroyed"].trivial_partner == "destroys"
    assert ext.action_by_id["was_near"].cause_n == "is_destroyed"
    assert ext.action_by_id["exploded"].cause_n == "destroys"
    assert validate_category(ext).ok


def test_infer_missing_is_idempotent(inference_cfg):
    e = load_log("explosion.elog")
    s = load_log("blast.slog")
    b = load_belog("blast.belog")
    once = infer_missing(e, s, b, inference_cfg)
    twice = infer_missing(once.extended_elog, s, b, inference_cfg)
    assert twice.added == ()
    assert twice.extended_elog == once.extended_elog


def test_infer_complete_match_adds_nothing(robot, worker, robot_belog):
    result = infer_missing(robot, worker, robot_belog, SearchConfig())
    assert result.added == ()
    assert result.extended_elog == robot


# -- s-log generation ------------------------------------------------------


def test_generate_slog_classes_and_ranks(robot, robot_belog):
    s = generate_slog(robot, {a.id for a in robot.nonsentinel_actions},
                      robot_belog, slog_id="learned")
    assert isinstance(s, SLog)
    parts = {p.id for p in s.nonsentinel_participants}
    # each participant collapses to its narrowest class
    assert parts == {"carrier_class", "cargo_class"}
    carried = s.action_by_id["carried"]
    assert carried.who == "carrier_class" and carried.t_start == 0
    assert s.action_by_id["carried_load"].t_start == 1
    assert validate_category(s).ok


def test_generate_slog_requires_causal_closure(robot):
    with pytest.raises(NotCausallyClosedError):
        generate_slog(robot, {"was_carried1"}, EMPTY)


def test_generate_slog_readmits_complete_functor(seed=59):
    rng = random.Random(seed)
    for i in range(50):
        e = random_elog(rng, log_id=f"g{i}")
        s = generate_slog(e, {a.id for a in e.nonsentinel_actions}, EMPTY)
        amap = {a.id: a.id for a in e.nonsentinel_actions}
        classes = sorted(p.id for p in s.nonsentinel_participants)
        pmap = {
            # performers land on their own class; idle participants may be
            # filed under any class, their arrows place no constraint
            p.id: (p.id if p.id in classes else classes[0])
            for p in e.nonsentinel_participants
        }
        report = evaluate_conversion(adjacency(e), adjacency(s), amap, pmap)
        assert report.complete, (i, report)


# -- comprehension and classification --------------------------------------


def _two_scene_story():
    actions = (
        Action(id="carried", who="robot", cause_n="was_carried0",
               trivial_partner="was_carried0", raw=RawData(t_start=0, t_end=0)),
        Action(id="was_carried0", who="dolly", cause_s="carried",
               cause_n="carried_load", trivial_partner="carried",
               raw=RawData(t_start=0, t_end=0)),
        Action(id="carried_load", who="dolly", cause_s="was_carried0",
               cause_n="was_carried1", trivial_partner="was_carried1",
               raw=RawData(t_start=1, t_end=1)),
        Action(id="was_carried1", who="bottle", cause_s="carried_load",
               trivial_partner="carried_load", raw=RawData(t_start=1, t_end=1)),
        Action(id="greeted", who="robot", raw=RawData(t_start=2, t_end=2)),
    )
    parts = (Participant(id="robot"), Participant(id="dolly"),
             Participant(id="bottle"))
    return build_elog("story", actions, parts)


def test_comprehend_levels(worker, robot_belog):
    story = _two_scene_story()
    tree = comprehend(story, [worker], robot_belog, SearchConfig())
    level0 = tree.levels[0]
    assert len(level0) == 2
    covered = frozenset().union(*(n.object_ids for n in level0))
    assert covered == {a.id for a in story.nonsentinel_actions} | {
        p.id for p in story.nonsentinel_participants
    }
    matches = sorted(n.slog_id or "-" for n in level0)
    assert matches == ["-", "worker"]  # greeted has no scenario
    assert len(tree.levels) == 2
    top = tree.levels[1][0]
    assert set(top.children) == {n.node_id for n in level0}
    assert top.slog_id == "worker"


def test_comprehend_depth_comes_from_the_config(worker, robot_belog):
    story = _two_scene_story()
    cfg = SearchConfig(composition_depth=1)
    assert len(comprehend(story, [worker], robot_belog, cfg).levels) == 1


def test_comprehend_single_cluster(robot, worker, robot_belog):
    tree = comprehend(robot, [worker], robot_belog, SearchConfig())
    assert len(tree.levels) == 1
    assert tree.levels[0][0].slog_id == "worker"


def test_classify_story(worker, robot_belog):
    story = _two_scene_story()
    b = BeLog(robot_belog.relations + (
        BeRelation(id="c1", type=BeVerbType.BE4, source="transport_story",
                   target="worker"),
        BeRelation(id="c2", type=BeVerbType.BE4, source="cooking_story",
                   target="recipe"),
    ))
    tree = comprehend(story, [worker], b, SearchConfig())
    result = classify_story(tree, b)
    assert not result.vacuous
    assert result.scores["transport_story"] == 1.0
    assert result.scores["cooking_story"] == 0.0


def test_classify_vacuous_without_scenes():
    story = _two_scene_story()
    tree = comprehend(story, [], EMPTY, SearchConfig())
    result = classify_story(tree, EMPTY)
    assert result.vacuous and result.scores == {}


# -- planning --------------------------------------------------------------


def _plan_library():
    reach = build_elog(
        "reach",
        (Action(id="arrives", who="agent_class", raw=RawData(t_start=0, t_end=0)),),
        (Participant(id="agent_class", kind=Kind.CLASS),),
        slog=True,
    )
    grab = build_elog(
        "grab",
        (Action(id="takes", who="agent_class", raw=RawData(t_start=0, t_end=0)),),
        (Participant(id="agent_class", kind=Kind.CLASS),),
        slog=True,
    )
    return reach, grab


def test_plan_grounds_scenario_chain():
    reach, grab = _plan_library()
    world = build_elog("world", (), (Participant(id="robo"),))
    b = _rels(
        ("Be3", "robo", "agent_class"),
        ("Similar", "arrives", "takes", 0.5),
    )
    plans = plan("takes", [reach, grab], world, b, SearchConfig())
    chains = {p.slog_chain for p in plans}
    assert ("grab",) in chains
    assert ("reach", "grab") in chains
    linked = next(p for p in plans if p.slog_chain == ("reach", "grab"))
    assert linked.assignment == {"agent_class": "robo"}
    takes = linked.assembled_slog.action_by_id["takes"]
    assert takes.cause_s == "arrives"
    arrives = linked.assembled_slog.action_by_id["arrives"]
    assert arrives.cause_n == "takes"
    grounded = linked.elog
    assert grounded.action_by_id["takes"].who == "robo"
    assert validate_category(grounded).ok


def test_plan_without_matching_goal_raises():
    reach, grab = _plan_library()
    world = build_elog("world", (), (Participant(id="robo"),))
    with pytest.raises(NoPlanFoundError):
        plan("sings", [reach, grab], world, EMPTY, SearchConfig())


def test_plan_without_grounding_raises():
    _, grab = _plan_library()
    world = build_elog("world", (), (Participant(id="rock"),))
    with pytest.raises(NoPlanFoundError):
        plan("takes", [grab], world, EMPTY, SearchConfig())


def _story_world(n_inhabitants):
    """Three 3-action scenes, each goal similar to the next scene's first
    action, and a world whose every inhabitant belongs to every class."""
    classes = ("agent", "patient", "tool")
    triples = []
    library = []
    for j in range(3):
        roles = classes[j:] + classes[:j]
        actions = tuple(
            Action(
                id=f"sc{j}_a{k}", who=roles[k],
                cause_s=f"sc{j}_a{k - 1}" if k else "unknown",
                raw=RawData(t_start=k, t_end=k),
            )
            for k in range(3)
        )
        library.append(build_elog(
            f"lib{j}", actions,
            tuple(Participant(id=c, kind=Kind.CLASS) for c in classes), slog=True,
        ))
        triples.append(("Similar", f"sc{(j - 1) % 3}_a2", f"sc{j}_a0", 0.5))
    world = build_elog(
        "world", (), tuple(Participant(id=f"w{k}") for k in range(n_inhabitants))
    )
    triples += [("Be3", f"w{k}", c) for k in range(n_inhabitants) for c in classes]
    return library, world, _rels(*triples)


def test_plan_order_on_story_world():
    library, world, b = _story_world(3)
    plans = plan("sc2_a2", library, world, b, SearchConfig(max_candidates=12))
    orders = [("w0", "w1", "w2"), ("w0", "w2", "w1"), ("w1", "w0", "w2"),
              ("w1", "w2", "w0"), ("w2", "w0", "w1"), ("w2", "w1", "w0")]
    expected = [
        (chain, dict(zip(("agent", "patient", "tool"), order)))
        for chain in (("lib2",), ("lib1", "lib2"))
        for order in orders
    ]
    assert [(p.slog_chain, p.assignment) for p in plans] == expected
    assert [p.elog.id for p in plans] == [f"plan_{i}" for i in range(12)]


def test_plan_links_scenarios_through_the_admitting_pair():
    library, world, b = _story_world(3)
    plans = plan("sc2_a2", library, world, b, SearchConfig(max_candidates=12))
    linked = next(p for p in plans if p.slog_chain == ("lib1", "lib2"))
    assembled = linked.assembled_slog.nonsentinel_actions
    arrows = [(a.id, a.cause_s, a.cause_n) for a in assembled]
    assert arrows == [
        ("sc1_a0", "unknown", "unknown"),
        ("sc1_a1", "sc1_a0", "unknown"),
        ("sc1_a2", "sc1_a1", "sc2_a0"),
        ("sc2_a0", "sc1_a2", "unknown"),
        ("sc2_a1", "sc2_a0", "unknown"),
        ("sc2_a2", "sc2_a1", "unknown"),
    ]


def test_chain_ranks_keep_growing_past_an_untimed_scenario():
    def scenario(sid, *steps):
        actions = tuple(
            Action(
                id=aid, who="agent",
                cause_s=steps[k - 1][0] if k else "unknown",
                cause_n=steps[k + 1][0] if k + 1 < len(steps) else "unknown",
                raw=RawData(t_start=t, t_end=t),
            )
            for k, (aid, t) in enumerate(steps)
        )
        return build_elog(
            sid, actions, (Participant(id="agent", kind=Kind.CLASS),), slog=True
        )

    chain = [
        scenario("s1", ("a", 0), ("b", 5)),
        scenario("s2", ("c", None)),
        scenario("s3", ("d", 0)),
    ]
    assembled = _chain_slogs(chain, [("b", "c"), ("c", "d")])
    ranks = {a.id: a.t_start for a in assembled.nonsentinel_actions}
    assert ranks == {"a": 0, "b": 5, "c": None, "d": 6}


def test_plan_renames_a_clashing_id_away_from_ids_in_use():
    s0 = parse_log("#SLOG s0\nP k\nA a who=k cn=a.1\nA a.1 who=k cs=a\n")
    s1 = parse_log("#SLOG s1\nP k\nA a who=k\nA g who=k cs=a\n")
    world = build_elog("w", (), (Participant(id="bob"),))
    b = _rels(("Be3", "bob", "k"), ("Similar", "a.1", "a", 0.5))
    plans = plan("g", [s0, s1], world, b, SearchConfig())
    assert [p.slog_chain for p in plans] == [("s1",), ("s0", "s1")]
    arrows = [
        (a.id, a.cause_s, a.cause_n)
        for a in plans[1].assembled_slog.nonsentinel_actions
    ]
    assert arrows == [
        ("a", "unknown", "a.1"),
        ("a.1", "a", "a.1_1"),
        ("a.1_1", "a.1", "unknown"),
        ("g", "a.1_1", "unknown"),
    ]


def test_chain_renames_a_clashing_id_away_from_its_own_scenario():
    first = parse_log("#SLOG first\nP k\nA a who=k\n")
    second = parse_log("#SLOG second\nP k\nA a who=k\nA a.1 who=k cs=a\n")
    assembled = _chain_slogs([first, second], [("a", "a")])
    assert sorted(assembled.action_by_id) == [
        "a", "a.1", "a.1_1", "nothing", "unknown",
    ]
    assert assembled.action_by_id["a.1"].cause_s == "a.1_1"


def test_injective_assignments_are_lazy_and_ordered():
    classes = [f"c{i}" for i in range(12)]
    world = [f"w{k:02d}" for k in range(40)]
    first = list(itertools.islice(
        _injective_assignments(classes, {c: world for c in classes}), 5
    ))
    expected = itertools.islice(itertools.permutations(world, len(classes)), 5)
    assert first == [dict(zip(classes, perm)) for perm in expected]
    narrow = {"a": ["x", "y"], "b": ["x"], "c": ["y", "z"]}
    assert list(_injective_assignments(["a", "b", "c"], narrow)) == [
        {"a": "y", "b": "x", "c": "z"},
    ]
    assert list(_injective_assignments([], {})) == [{}]
