"""Acceptance suite: golden examples, oracles, and invariant properties.

Each test prints one PASS/FAIL line (bypassing capture) so the run log shows
a per-criterion verdict.
"""

import random
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import pytest

from cognilog.belog import (
    BeLog,
    BeRelation,
    BeVerbType,
    characteristics,
    equivalence_from_class,
    equivalence_pairs,
    similarity_by_characteristics,
)
from cognilog.boolmat import (
    BoolMatrix,
    adjacency,
    causal_closure,
    evaluate_conversion,
)
from cognilog.cli import main
from cognilog.model import Action, RawData, build_elog
from cognilog.reasoning import generate_slog, infer_missing
from cognilog.search import (
    Functor,
    SearchConfig,
    brute_force_functors,
    natural_transformation,
    search_functors,
)
from cognilog.store import format_belog, format_log, parse_belog, parse_log
from cognilog.temporal import (
    Interval,
    VendlerClass,
    check_temporal_consistency,
    vendler_type,
)

from conftest import FIXTURES, load_belog, load_log, random_elog
from matrix_reference import causal_closure_with_stats


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {title}", file=sys.__stdout__)
        raise
    print(f"PASS  criterion {number:2d}: {title}", file=sys.__stdout__)


def test_criterion_01_bob_alice_trivial_pair():
    with criterion(1, "Bob-Alice log validates; trivial cause entries exact"):
        start = time.monotonic()
        code = main(["validate", str(FIXTURES / "bob_alice.elog")])
        assert code == 0
        m = adjacency(load_log("bob_alice.elog"))
        assert m.S_tri.entry_ids() == [("is_loved", "loves")]
        assert m.N_tri.entry_ids() == [("loves", "is_loved")]
        assert time.monotonic() - start < 1.0


def test_criterion_02_robot_dolly_abstraction(capsys):
    with criterion(2, "robot-dolly match yields both documented functors"):
        start = time.monotonic()
        robot, worker = load_log("robot.elog"), load_log("worker.slog")
        results = search_functors(
            robot, worker, load_belog("robot.belog"), SearchConfig()
        )
        assert len(results) >= 2
        top_two = results[:2]
        assert {f.participant_map["dolly"] for f, _ in top_two} == {
            "worker", "cargo"
        }
        for f, score in top_two:
            assert score.report.complete  # function, zero-column, causal, who
        code = main([
            "match", str(FIXTURES / "robot.elog"), str(FIXTURES / "worker.slog"),
            "--belog", str(FIXTURES / "robot.belog"),
        ])
        out = capsys.readouterr().out
        assert code == 0 and "dolly  worker" in out and "dolly  cargo" in out
        assert time.monotonic() - start < 5.0


def test_criterion_03_explosion_inference():
    with criterion(3, "explosion inference adds the pair once, future tense"):
        start = time.monotonic()
        e, s = load_log("explosion.elog"), load_log("blast.slog")
        b = load_belog("blast.belog")
        cfg = SearchConfig(min_compatibility=0.5)
        result = infer_missing(e, s, b, cfg)
        assert [a.action_id for a in result.added] == ["destroys", "is_destroyed"]
        assert all(a.tense == "future" for a in result.added)
        ext = result.extended_elog
        assert ext.action_by_id["destroys"].who == "explosive"
        assert ext.action_by_id["is_destroyed"].who == "tower"
        assert ext.action_by_id["is_destroyed"].cause_s == "destroys"
        again = infer_missing(ext, s, b, cfg)
        assert again.added == () and again.extended_elog == ext
        assert time.monotonic() - start < 5.0


def test_criterion_04_oracle_equivalence():
    with criterion(4, "search equals brute-force oracle on 100 random pairs"):
        start = time.monotonic()
        cfg = SearchConfig(max_candidates=10**6)
        rng = random.Random(97)
        for i in range(100):
            e = random_elog(rng, max_actions=6, log_id=f"e{i}")
            s = random_elog(rng, max_actions=6, slog=True, log_id=f"s{i}")
            keys = [f.map_key() for f, _ in search_functors(e, s, BeLog(), cfg)]
            found = set(keys)
            assert len(found) == len(keys), f"pair {i}: repeated result"
            oracle = {f.map_key() for f in brute_force_functors(e, s, cfg)}
            assert found == oracle, f"pair {i}"
        assert time.monotonic() - start < 60.0


def test_criterion_05_closure_against_dfs():
    with criterion(5, "Boolean closure equals DFS reachability, <= n-1 rounds"):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 8)
            ids = tuple(f"v{i}" for i in range(n))
            m = BoolMatrix.zeros(ids, ids)
            for i in range(n):
                for j in range(i):
                    if rng.random() < 0.35:
                        m.set(i, j)
            closure, iterations = causal_closure_with_stats(m)
            oracle = BoolMatrix.zeros(ids, ids)
            adj = {i: [j for j in range(n) if m.get(i, j)] for i in range(n)}
            for s0 in range(n):
                stack, seen = list(adj[s0]), set()
                while stack:
                    v = stack.pop()
                    if v not in seen:
                        seen.add(v)
                        oracle.set(s0, v)
                        stack.extend(adj[v])
            assert causal_closure(m) == oracle
            assert closure == oracle
            assert iterations <= max(n - 1, 0)


def test_criterion_06_similarity_properties():
    with criterion(6, "characteristic similarity: identity/subset/transitivity"):
        two_vs_four = BeLog(tuple(
            BeRelation(id=f"r{i}", type=BeVerbType.BE4, source=s, target=t)
            for i, (s, t) in enumerate(
                [("A", "c1"), ("A", "c2"), ("A", "c3"), ("A", "c4"),
                 ("B", "c1"), ("B", "c2")]
            )
        ))
        assert similarity_by_characteristics(two_vs_four, "A", "A") == 1
        assert similarity_by_characteristics(two_vs_four, "A", "B") == 1
        assert similarity_by_characteristics(two_vs_four, "B", "A") == Fraction(1, 2)
        rng = random.Random(13)
        tokens = ["x0", "x1", "x2", "x3"]
        for _ in range(200):
            rels, n = [], 0
            for owner in ("P", "Q", "R"):
                for tok in tokens:
                    if rng.random() < 0.5:
                        n += 1
                        rels.append(BeRelation(
                            id=f"r{n}", type=BeVerbType.BE4,
                            source=owner, target=tok,
                        ))
            b = BeLog(tuple(rels))
            # subset of characteristics implies full similarity
            if characteristics(b, "Q") <= characteristics(b, "P"):
                assert similarity_by_characteristics(b, "P", "Q") == 1
            # and full similarity composes
            if (similarity_by_characteristics(b, "P", "Q") == 1
                    and similarity_by_characteristics(b, "Q", "R") == 1):
                assert similarity_by_characteristics(b, "P", "R") == 1


def test_criterion_07_temporal_suite():
    with criterion(7, "temporal golden pair, Vendler cell, swap invariance"):
        e = load_log("chain.elog")
        amap = {"act_a": "sa", "act_b": "sb", "act_c": "sc"}
        pmap = {"someone": "someone_kind"}
        good = Functor(src="chain", dst="chain_ok",
                       action_map=amap, participant_map=pmap)
        bad = Functor(src="chain", dst="chain_reversed",
                      action_map=amap, participant_map=pmap)
        assert check_temporal_consistency(e, load_log("chain_ok.slog"), good).ok
        ko = check_temporal_consistency(e, load_log("chain_reversed.slog"), bad)
        assert not ko.ok and ("act_a", "act_b") in ko.violations

        _, _, classes = vendler_type(Interval(0, 10), Interval(0, 5))
        assert classes == frozenset(
            {VendlerClass.ACCOMPLISHMENTS, VendlerClass.ACHIEVEMENTS}
        )

        rng = random.Random(41)
        for i in range(50):
            base = random_elog(rng, max_actions=4, log_id=f"r{i}")
            iso = (
                Action(id="x0", who="p0", raw=RawData(t_start=50, t_end=50)),
                Action(id="x1", who="p0", raw=RawData(t_start=60, t_end=60)),
            )
            elog = build_elog(base.id, base.nonsentinel_actions + iso,
                              base.nonsentinel_participants)
            slog = generate_slog(
                elog, {a.id for a in elog.nonsentinel_actions}, BeLog()
            )
            f = Functor(
                src=elog.id, dst=slog.id,
                action_map={a.id: a.id for a in elog.nonsentinel_actions},
                participant_map={},
            )
            before = check_temporal_consistency(elog, slog, f)
            swapped = tuple(
                replace(a, raw=RawData(t_start=110 - a.t_start,
                                       t_end=110 - a.t_start))
                if a.id in ("x0", "x1") else a
                for a in elog.nonsentinel_actions
            )
            after = check_temporal_consistency(
                build_elog(elog.id, swapped, elog.nonsentinel_participants),
                slog, f,
            )
            assert before.ok == after.ok
            assert before.violations == after.violations


def test_criterion_08_natural_transformation():
    with criterion(8, "natural transformation exists/absent where documented"):
        robot, worker = load_log("robot.elog"), load_log("worker.slog")
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
        assert natural_transformation(h, j, robot) is not None

        f10a = Functor(
            src="robot", dst="worker",
            action_map={"carried": "carries", "was_carried0": "carries",
                        "carried_load": "carries", "was_carried1": "is_carried"},
            participant_map={"robot": "worker", "dolly": "worker",
                             "bottle": "cargo"},
        )
        f10b = Functor(
            src="robot", dst="worker",
            action_map={"carried": "carries", "was_carried0": "is_carried",
                        "carried_load": "is_carried",
                        "was_carried1": "is_carried"},
            participant_map={"robot": "worker", "dolly": "cargo",
                             "bottle": "cargo"},
        )
        assert natural_transformation(f10a, f10b, worker) is None
        for f in (h, j, f10a, f10b):
            target = robot if f.direction == "s_to_e" else worker
            assert natural_transformation(f, f, target) is not None


def test_criterion_09_round_trips():
    with criterion(9, "byte-identical store round trips; learned s-logs re-admit"):
        for path in sorted(FIXTURES.iterdir()):
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".belog":
                assert format_belog(parse_belog(text)) == text, path.name
            else:
                assert format_log(parse_log(text)) == text, path.name
        rng = random.Random(59)
        for i in range(50):
            e = random_elog(rng, log_id=f"g{i}")
            s = generate_slog(e, {a.id for a in e.nonsentinel_actions}, BeLog())
            classes = sorted(p.id for p in s.nonsentinel_participants)
            amap = {a.id: a.id for a in e.nonsentinel_actions}
            pmap = {
                p.id: (p.id if p.id in classes else classes[0])
                for p in e.nonsentinel_participants
            }
            report = evaluate_conversion(adjacency(e), adjacency(s), amap, pmap)
            assert report.complete, (i, report)


def test_criterion_10_equivalence_relation():
    with criterion(10, "class-induced relation is an equivalence"):
        b = BeLog(tuple(
            BeRelation(id=f"r{i}", type=BeVerbType(t), source=s, target=d)
            for i, (t, s, d) in enumerate([
                ("Be4", "bird", "flies"), ("Be4", "bird", "feathers"),
                ("Be4", "sparrow", "flies"), ("Be4", "sparrow", "feathers"),
                ("Be4", "hawk", "flies"), ("Be4", "hawk", "feathers"),
                ("Be4", "hawk", "hunts"),
                ("Be3", "robin", "bird"), ("Be3", "kiwi", "bird"),
                ("Be4", "stone", "heavy"), ("Be4", "plane", "flies"),
            ])
        ))
        pool = ["sparrow", "hawk", "robin", "kiwi", "stone", "plane",
                "bird", "pebble", "glider", "crow"]
        block = equivalence_from_class(b, "bird", pool)
        assert block == frozenset({"sparrow", "hawk", "robin", "kiwi", "bird"})
        pairs = equivalence_pairs(block)
        for x in block:
            assert (x, x) in pairs
        for x, y in pairs:
            assert (y, x) in pairs
        for x, y in pairs:
            for z in block:
                if (y, z) in pairs:
                    assert (x, z) in pairs
