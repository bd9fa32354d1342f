import random
from collections import deque
from dataclasses import replace

import pytest

import cognilog.search as search_module
from cognilog.belog import BeLog, BeRelation, BeVerbType, mapping_compatibility
from cognilog.boolmat import adjacency, evaluate_conversion
from cognilog.errors import SourceTargetMismatchError, TooLargeError
from cognilog.model import SENTINELS, Action, Kind, Participant, build_elog
from cognilog.search import (
    Functor,
    SearchConfig,
    brute_force_functors,
    identity_functor,
    natural_transformation,
    score_functor,
    search_functors,
)

from conftest import load_belog, load_log, nominalize, random_elog

EMPTY = BeLog()
EXHAUSTIVE = SearchConfig(max_candidates=10**6)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        SearchConfig(weights=(0.5, 0.5, 0.5))


@pytest.mark.parametrize(
    "bad",
    [
        {"max_candidates": 0},
        {"max_candidates": -1},
        {"composition_depth": 0},
        {"weights": (float("nan"), 0.5, 0.5)},
        {"weights": (2.0, -0.5, -0.5)},
        {"composition_depth": -3},
    ],
)
def test_config_rejects_out_of_range_sizes(bad):
    with pytest.raises(ValueError):
        SearchConfig(**bad)


def test_identity_functor_scores_perfect():
    log = load_log("robot.elog")
    f = identity_functor(log)
    score = score_functor(f, log, log, EMPTY, SearchConfig())
    assert score.report.complete
    assert score.structural == 1.0
    assert score.total == pytest.approx(1.0)


def test_robot_worker_has_both_documented_mappings(robot, worker, robot_belog):
    results = search_functors(robot, worker, robot_belog, SearchConfig())
    assert len(results) >= 2
    maps = [f.participant_map["dolly"] for f, _ in results[:2]]
    assert set(maps) == {"worker", "cargo"}
    for f, score in results:
        assert score.report.complete


def test_search_is_deterministic(robot, worker, robot_belog):
    a = search_functors(robot, worker, robot_belog, SearchConfig())
    b = search_functors(robot, worker, robot_belog, SearchConfig())
    assert [(f.map_key(), s.total) for f, s in a] == [
        (f.map_key(), s.total) for f, s in b
    ]


def test_min_compatibility_prunes(robot, worker, robot_belog):
    cfg = SearchConfig(min_compatibility=0.9)
    results = search_functors(robot, worker, robot_belog, cfg)
    # every surviving pair must clear the bar, so the mean does too
    assert all(s.similarity >= 0.9 for _, s in results)


def test_brute_force_guard():
    rng = random.Random(1)
    big = random_elog(rng, max_actions=6)
    huge = build_elog(
        "huge",
        tuple(Action(id=f"a{i}", who="p") for i in range(9)),
        (Participant(id="p"),),
    )
    with pytest.raises(TooLargeError):
        brute_force_functors(huge, big, EXHAUSTIVE)


def test_search_matches_brute_force_on_fixtures(robot, worker):
    found = {f.map_key() for f, _ in search_functors(robot, worker, EMPTY, EXHAUSTIVE)}
    oracle = {f.map_key() for f in brute_force_functors(robot, worker, EXHAUSTIVE)}
    assert found == oracle


def _prefixed_copy(log):
    """Class-valued copy of a log with every non-sentinel id prefixed."""
    def ren(oid):
        return oid if oid in SENTINELS else f"s_{oid}"

    actions = tuple(
        replace(
            a, id=ren(a.id), who=ren(a.who), cause_s=ren(a.cause_s),
            cause_n=ren(a.cause_n),
            trivial_partner=a.trivial_partner and ren(a.trivial_partner),
        )
        for a in log.nonsentinel_actions
    )
    parts = tuple(
        Participant(id=ren(p.id), kind=Kind.CLASS)
        for p in log.nonsentinel_participants
    )
    return build_elog("s", actions, parts, slog=True)


def _random_belog(rng, e, s, p):
    """Similar edges of random weight between distinct objects of e and s,
    each with probability p."""
    return BeLog(tuple(
        BeRelation(f"r{x}{y}", BeVerbType.SIMILAR, x, y,
                   rng.choice((0.2, 0.5, 0.8, 1.0)))
        for x in sorted(e.object_ids() - SENTINELS)
        for y in sorted(s.object_ids() - SENTINELS)
        if x != y and rng.random() < p
    ))


def test_compatibility_floor_matches_filtered_brute_force():
    # the oracle knows no be-log: the search must return exactly its
    # functors whose every object pair clears the floor
    rng = random.Random(73)
    with_results = floored = 0
    for i in range(200):
        e = random_elog(rng, max_actions=5, log_id="e")
        s = _prefixed_copy(e)
        b = _random_belog(rng, e, s, 0.6)
        floor = (0.0, 0.5, 0.8)[i % 3]
        cfg = SearchConfig(max_candidates=10**6, min_compatibility=floor)
        found = {f.map_key() for f, _ in search_functors(e, s, b, cfg)}
        oracle = brute_force_functors(e, s, cfg)
        kept = {
            f.map_key()
            for f in oracle
            if all(
                mapping_compatibility(b, x, y) >= floor
                for x, y in (*f.action_map.items(), *f.participant_map.items())
            )
        }
        assert found == kept, f"pair {i}"
        with_results += bool(found)
        floored += len(kept) < len(oracle)
    assert with_results >= 40 and floored >= 40, (with_results, floored)


def test_partial_search_allows_unmapped_objects():
    e = load_log("explosion.elog")
    s = load_log("blast.slog")
    b = load_belog("blast.belog")
    cfg = SearchConfig(
        min_compatibility=0.5, require_surjective=False, require_injective=False
    )
    results = search_functors(e, s, b, cfg)
    assert results
    best, _ = results[0]
    assert best.action_map == {"exploded": "explodes", "was_near": "is_near"}
    assert "looked" not in best.action_map
    # the oracle knows no be-log, so it admits the best candidate among others
    assert best.map_key() in {f.map_key() for f in brute_force_functors(e, s, cfg)}


def test_partial_search_matches_enumeration():
    rng = random.Random(97)
    nonempty = 0
    for i in range(120):
        e = random_elog(rng, max_actions=4, log_id="e")
        s = random_elog(rng, max_actions=4, slog=True, log_id="s")
        if i % 3 == 0:
            e, s = nominalize(rng, e), nominalize(rng, s)
        for surjective in (False, True):
            cfg = SearchConfig(
                max_candidates=10**6, require_surjective=surjective,
                require_injective=False,
            )
            found = [f.map_key() for f, _ in search_functors(e, s, EMPTY, cfg)]
            assert len(found) == len(set(found)), f"pair {i}"
            oracle = {f.map_key() for f in brute_force_functors(e, s, cfg)}
            assert set(found) == oracle, f"pair {i}"
            nonempty += bool(found)
    assert nonempty >= 100, nonempty


@pytest.mark.parametrize(
    "surjective, injective", [(True, True), (False, False), (True, False)]
)
def test_search_scores_equal_one_shot_scores(surjective, injective):
    # the search decides and scores the action side once per action map;
    # every result must equal the functor scored and evaluated from scratch
    rng = random.Random(59)
    checked = 0
    for i in range(40):
        e = random_elog(rng, max_actions=5, log_id="e")
        s = random_elog(rng, max_actions=5) if i % 2 else e
        if i % 3 == 0:
            e, s = nominalize(rng, e), nominalize(rng, s)
        s = _prefixed_copy(s)
        b = _random_belog(rng, e, s, 0.7)
        e_m, s_m = adjacency(e), adjacency(s)
        for floor in (0.0, 0.5):
            cfg = SearchConfig(
                max_candidates=50, min_compatibility=floor,
                require_surjective=surjective, require_injective=injective,
            )
            for f, score in search_functors(e, s, b, cfg):
                assert score == score_functor(f, e, s, b, cfg), f"pair {i}"
                assert score.report == evaluate_conversion(
                    e_m, s_m, f.action_map, f.participant_map
                ), f"pair {i}"
                checked += 1
    assert checked >= 25, checked


def test_top_k_search_equals_ranked_oracle():
    # the search skips completions whose score bound cannot reach the k-th
    # best total so far; its first k results must still be the oracle's,
    # each scored one-shot and ranked by (-total, map_key).  Every other
    # pair has the empty be-log, whose equal similarities tie totals.
    rng = random.Random(41)
    ties = {1: 0, 2: 0, 3: 0}
    for i in range(150):
        e = random_elog(rng, max_actions=4, log_id="e")
        s = random_elog(rng, max_actions=3, slog=True, log_id="s")
        if i % 3 == 0:
            e, s = nominalize(rng, e), nominalize(rng, s)
        b = EMPTY if i % 2 else _random_belog(rng, e, s, 0.5)
        for surjective in (True, False):
            for injective in (True, False):
                cfg = SearchConfig(
                    require_surjective=surjective, require_injective=injective
                )
                oracle = sorted(
                    ((f, score_functor(f, e, s, b, cfg))
                     for f in brute_force_functors(e, s, cfg)),
                    key=lambda fs: (-fs[1].total, fs[0].map_key()),
                )
                for k in (1, 2, 3):
                    found = search_functors(e, s, b, replace(cfg, max_candidates=k))
                    expected = oracle[:k]
                    assert [(f.map_key(), sc) for f, sc in found] == [
                        (f.map_key(), sc) for f, sc in expected
                    ], f"pair {i}, k={k}"
                    if len(oracle) > k and oracle[k - 1][1].total == oracle[k][1].total:
                        ties[k] += 1
    assert min(ties.values()) >= 20, ties


def test_top_k_bound_skips_participant_checks(monkeypatch):
    calls = []
    check = search_module._check_participants
    monkeypatch.setattr(
        search_module, "_check_participants",
        lambda *args: calls.append(1) or check(*args),
    )
    rng = random.Random(5)
    e = random_elog(rng, max_actions=5, log_id="e")
    s = _prefixed_copy(e)
    b = _random_belog(rng, e, s, 0.7)
    cfg = SearchConfig(require_surjective=False, require_injective=False)
    first = search_functors(e, s, b, replace(cfg, max_candidates=1))
    pruned = len(calls)
    calls.clear()
    everything = search_functors(e, s, b, replace(cfg, max_candidates=10**6))
    assert pruned < len(calls), (pruned, len(calls))
    assert first == everything[:1]


# -- natural transformations ----------------------------------------------


def _alternative_abstractions():
    a = Functor(
        src="robot", dst="worker",
        action_map={"carried": "carries", "was_carried0": "carries",
                    "carried_load": "carries", "was_carried1": "is_carried"},
        participant_map={"robot": "worker", "dolly": "worker",
                         "bottle": "cargo"},
    )
    b = Functor(
        src="robot", dst="worker",
        action_map={"carried": "carries", "was_carried0": "is_carried",
                    "carried_load": "is_carried", "was_carried1": "is_carried"},
        participant_map={"robot": "worker", "dolly": "cargo",
                         "bottle": "cargo"},
    )
    return a, b


def test_nt_exists_for_identity_pair(worker):
    f, _ = _alternative_abstractions()
    components = natural_transformation(f, f, worker)
    assert components is not None
    assert all(fx == gx for fx, gx in components.values())


def test_nt_missing_between_alternative_abstractions(worker):
    f, g = _alternative_abstractions()
    assert natural_transformation(f, g, worker) is None


def test_nt_exists_through_causal_arrow(robot):
    h = Functor(
        src="worker", dst="robot", direction="s_to_e",
        action_map={"carries": "carried", "is_carried": "was_carried0"},
        participant_map={"worker": "robot", "cargo": "dolly"},
    )
    j = Functor(
        src="worker", dst="robot", direction="s_to_e",
        action_map={"carries": "carried", "is_carried": "carried_load"},
        participant_map={"worker": "robot", "cargo": "dolly"},
    )
    components = natural_transformation(h, j, robot)
    assert components is not None
    assert components["is_carried"] == ("was_carried0", "carried_load")


def test_nt_requires_parallel_functors(robot):
    f, _ = _alternative_abstractions()
    h = Functor(src="worker", dst="robot", action_map={}, participant_map={})
    with pytest.raises(SourceTargetMismatchError):
        natural_transformation(f, h, robot)


def _bfs_reachable(log, start):
    """Objects reachable from start along who/cause arrows (start included)."""
    succ = {a.id: (a.who, a.cause_s, a.cause_n) for a in log.actions}
    seen, queue = {start}, deque([start])
    while queue:
        for nxt in succ.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def test_nt_agrees_with_arrow_bfs():
    rng = random.Random(41)
    for trial in range(300):
        target = random_elog(rng, max_actions=8, slog=trial % 2 == 1, log_id="t")
        if trial % 3 == 0:
            target = nominalize(rng, target)
        objects = sorted(target.object_ids())  # sentinels included

        images = {}
        for x in ("x0", "x1"):
            fx = rng.choice(objects)
            images[x] = (fx, fx if rng.random() < 0.3 else rng.choice(objects))
        f = Functor("src", "t", {"x0": images["x0"][0]}, {"x1": images["x1"][0]})
        g = Functor("src", "t", {"x0": images["x0"][1]}, {"x1": images["x1"][1]})
        natural = all(gx in _bfs_reachable(target, fx) for fx, gx in images.values())
        assert natural_transformation(f, g, target) == (images if natural else None)
