import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from cognilog import model
from cognilog.boolmat import adjacency
from cognilog.errors import (
    CausalCycleError,
    DanglingReferenceError,
    DuplicateIdError,
    SentinelNotBranchableError,
    TrivialPairError,
    UnknownObjectError,
    UnknownParticipantError,
)
from cognilog.model import (
    Action,
    ELog,
    Kind,
    Participant,
    RawData,
    SENTINEL_NOBODY,
    SENTINEL_UNKNOWN,
    _canonicalize,
    add_intermediate_replica,
    build_elog,
    canonical_action_order,
    decompose_transitive,
    extract_subepisode,
    validate_category,
)

from conftest import load_log, random_elog


def _p(*ids):
    return tuple(Participant(id=i) for i in ids)


def test_sentinels_always_present():
    log = build_elog("x", (), ())
    assert {"nothing", "unknown"} <= set(log.action_by_id)
    assert SENTINEL_NOBODY in log.participant_by_id
    for sid in ("nothing", "unknown"):
        a = log.action_by_id[sid]
        assert a.who == SENTINEL_NOBODY and a.cause_s == sid and a.cause_n == sid


def test_duplicate_id_rejected():
    with pytest.raises(DuplicateIdError):
        build_elog(
            "x",
            (Action(id="a", who="p"), Action(id="a", who="p")),
            _p("p"),
        )
    # sentinels are always inserted, so a record reusing one is a duplicate
    for records, parts, sid in (
        ((Action(id="nothing", who="bob"),), _p("bob"), "nothing"),
        ((), _p("nobody"), "nobody"),
    ):
        with pytest.raises(DuplicateIdError, match=f"duplicate id '{sid}'"):
            build_elog("x", records, parts)


def test_validate_reports_each_duplicate_id_once():
    base = build_elog("x", (Action(id="a", who="p"), Action(id="b", who="p")), _p("p"))
    # bypass build_elog, which rejects duplicates before validating
    log = ELog(
        "x",
        base.actions + (Action(id="b", who="p"), Action(id="a", who="p")),
        base.participants + _p("a"),
    )
    dups = [v for v in validate_category(log).violations if v.code == "duplicate"]
    assert [(v.message, v.objects) for v in dups] == [
        ("duplicate id 'a'", ("a",)),
        ("duplicate id 'b'", ("b",)),
    ]


@pytest.mark.parametrize("bad", ["", "a b", "a\tb", 'a"b', '"', "a\u2028b"])
def test_malformed_id_rejected(bad):
    with pytest.raises(DanglingReferenceError):
        build_elog("x", (Action(id=bad, who="p"),), _p("p"))
    with pytest.raises(DanglingReferenceError):
        build_elog("x", (), _p(bad))
    # the log id is written into the header, so the same rule holds for it
    with pytest.raises(DanglingReferenceError, match="invalid log id"):
        build_elog(bad, ())


def test_dangling_who_rejected():
    with pytest.raises(DanglingReferenceError):
        build_elog("x", (Action(id="a", who="ghost"),), ())


def test_cause_cycle_rejected():
    with pytest.raises(CausalCycleError):
        build_elog(
            "x",
            (
                Action(id="a", who="p", cause_s="b"),
                Action(id="b", who="p", cause_s="a"),
            ),
            _p("p"),
        )


def _chain(n, closed=False):
    ids = [f"a{i:04d}" for i in range(n)]
    first_cause = ids[-1] if closed else SENTINEL_UNKNOWN
    return tuple(
        Action(id=aid, who="p", cause_s=ids[i - 1] if i else first_cause)
        for i, aid in enumerate(ids)
    )


def test_long_cause_chain_builds():
    # deeper than the interpreter's default recursion limit
    log = build_elog("chain", _chain(3000), _p("p"))
    order = canonical_action_order(log)
    assert order[:3000] == [f"a{i:04d}" for i in range(3000)]


def test_long_cause_cycle_rejected_with_its_path():
    with pytest.raises(CausalCycleError) as err:
        build_elog("ring", _chain(3000, closed=True), _p("p"))
    path = [f"a{i:04d}" for i in range(3000)] + ["a0000"]
    assert str(err.value) == "non-sentinel cause cycle: " + " -> ".join(path)


_TWO_CYCLES = """
import json
from cognilog.errors import CausalCycleError
from cognilog.model import (
    Action, Participant, _canonicalize, build_elog, validate_category,
)

actions = (
    Action(id="a", who="p", cause_n="b"),
    Action(id="b", who="p", cause_n="a"),
    Action(id="c", who="p", cause_s="a", cause_n="a"),
)
try:
    build_elog("two", actions, (Participant(id="p"),))
except CausalCycleError as exc:
    message = str(exc)
report = validate_category(_canonicalize("two", actions, (Participant(id="p"),)))
print(json.dumps([message, [list(v.objects) for v in report.violations]]))
"""


def test_cycle_report_does_not_depend_on_hash_seed():
    # a -> b -> a and a -> c -> a share a; the reported one must not vary
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _TWO_CYCLES],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1
    message, objects = json.loads(outputs.pop())
    assert message == "non-sentinel cause cycle: a -> b -> a"
    assert objects == [["a", "b"]]


def test_canonical_order_of_unvalidated_cyclic_log_names_the_cycle():
    log = build_elog("x", (Action(id="a", who="p"),), _p("p", "q"))
    log, do, be_done = decompose_transitive(log, "p", "hits", "q")
    # close a loop through the trivial pair without validating: a -> hits -> a
    actions = tuple(
        replace(x, cause_s=be_done.id) if x.id == "a"
        else replace(x, cause_s="a") if x.id == do.id
        else x
        for x in log.nonsentinel_actions
    )
    cyclic = _canonicalize("x", actions, log.nonsentinel_participants)
    message = "non-sentinel cause cycle: a -> hits -> a"
    with pytest.raises(CausalCycleError) as err:
        canonical_action_order(cyclic)
    assert str(err.value) == message
    cycles = [v for v in validate_category(cyclic).violations if v.code == "cycle"]
    assert [(v.message, v.objects) for v in cycles] == [(message, ("a", "hits"))]


def test_cycle_is_reported_next_to_a_dangling_arrow():
    actions = (
        Action(id="a", who="p", cause_s="b", cause_n="ghost"),
        Action(id="b", who="p", cause_s="a"),
    )
    report = validate_category(_canonicalize("x", actions, _p("p")))
    assert [(v.code, v.objects) for v in report.violations] == [
        ("dangling", ("a", "ghost")),
        ("cycle", ("a", "b")),
    ]
    assert report.violations[1].message == "non-sentinel cause cycle: a -> b -> a"


def test_build_then_adjacency_sorts_once(monkeypatch):
    calls = []
    kahn = model._causal_order
    monkeypatch.setattr(
        model, "_causal_order", lambda actions: calls.append(1) or kahn(actions)
    )
    log = build_elog(
        "x",
        (Action(id="a", who="p", cause_n="b"), Action(id="b", who="p", cause_s="a")),
        _p("p"),
    )
    m = adjacency(log)
    assert validate_category(log).ok
    assert canonical_action_order(log) == list(m.action_ids) == [
        "a", "b", "nothing", "unknown",
    ]
    assert len(calls) == 1


def test_trivial_pair_cycle_is_not_a_cycle():
    log = load_log("bob_alice.elog")
    assert validate_category(log).ok


def test_trivial_pair_must_be_mutual():
    log = build_elog(
        "x",
        (
            Action(id="a", who="p", trivial_partner="b"),
            Action(id="b", who="p"),
        ),
        _p("p"),
    )
    assert "trivial-symmetry" in validate_category(log).codes()


def test_trivial_pair_unequal_timestamps_flagged():
    log = build_elog(
        "x",
        (
            Action(id="a", who="p", cause_n="b", trivial_partner="b",
                   raw=RawData(t_start=0)),
            Action(id="b", who="p", cause_s="a", trivial_partner="a",
                   raw=RawData(t_start=1)),
        ),
        _p("p"),
    )
    assert "trivial-time" in validate_category(log).codes()


def test_effect_before_cause_flagged():
    log = build_elog(
        "x",
        (
            Action(id="a", who="p", raw=RawData(t_start=5)),
            Action(id="b", who="p", cause_s="a", raw=RawData(t_start=2)),
        ),
        _p("p"),
    )
    assert "timestamp-order" in validate_category(log).codes()


def test_canonical_order_do_before_be_done():
    log = load_log("bob_alice.elog")
    order = canonical_action_order(log)
    assert order == ["loves", "is_loved", "nothing", "unknown"]


def test_canonical_order_respects_timestamps_and_causes():
    log = load_log("robot.elog")
    order = canonical_action_order(log)
    assert order.index("carried") < order.index("was_carried0")
    assert order.index("was_carried0") < order.index("carried_load")
    assert order[-2:] == ["nothing", "unknown"]


def test_canonical_order_random_topological(seed=11):
    rng = random.Random(seed)
    for _ in range(50):
        log = random_elog(rng)
        order = canonical_action_order(log)
        pos = {aid: i for i, aid in enumerate(order)}
        for a in log.nonsentinel_actions:
            if a.cause_s in pos and a.cause_s not in ("nothing", "unknown"):
                if a.trivial_partner != a.cause_s and a.cause_s != a.id:
                    assert pos[a.cause_s] < pos[a.id]


def test_decompose_transitive_builds_trivial_pair():
    base = build_elog("x", (), _p("Bob", "Alice"))
    log, do, be_done = decompose_transitive(base, "Bob", "loves", "Alice")
    assert do.trivial_partner == be_done.id
    assert be_done.cause_s == do.id and do.cause_n == be_done.id
    assert do.who == "Bob" and be_done.who == "Alice"
    assert validate_category(log).ok


def test_decompose_transitive_rejects_time_lag():
    base = build_elog("x", (), _p("Bob", "Alice"))
    with pytest.raises(TrivialPairError):
        decompose_transitive(
            base, "Bob", "loves", "Alice",
            t=RawData(t_start=0), t_done=RawData(t_start=3),
        )


def test_decompose_transitive_unknown_subject():
    base = build_elog("x", (), _p("Alice"))
    with pytest.raises(UnknownParticipantError):
        decompose_transitive(base, "Bob", "loves", "Alice")


def test_add_intermediate_replica_branches():
    log = load_log("bob_alice.elog")
    out = add_intermediate_replica(log, "loves", "N")
    replica = out.action_by_id["loves~1"]
    assert replica.cause_s == "loves"
    assert out.action_by_id["loves"].cause_n == "loves~1"
    assert validate_category(out).ok


def test_add_intermediate_replica_rejects_sentinel():
    log = load_log("bob_alice.elog")
    with pytest.raises(SentinelNotBranchableError):
        add_intermediate_replica(log, SENTINEL_UNKNOWN, "N")


def test_extract_subepisode_reroutes_to_sentinels():
    log = load_log("robot.elog")
    sub = extract_subepisode(log, {"carried", "robot"})
    a = sub.action_by_id["carried"]
    assert a.cause_n == SENTINEL_UNKNOWN  # was_carried0 fell outside
    assert a.trivial_partner is None
    assert ("parent", "robot") in a.raw.attrs
    assert set(p.id for p in sub.nonsentinel_participants) == {"robot"}
    assert validate_category(sub).ok


def test_extract_subepisode_unknown_object():
    log = load_log("robot.elog")
    with pytest.raises(UnknownObjectError):
        extract_subepisode(log, {"ghost"})


def test_slog_requires_class_participants():
    log = build_elog(
        "x",
        (Action(id="a", who="p"),),
        (Participant(id="p", kind=Kind.PLAIN),),
        slog=True,
    )
    assert "slog-kind" in validate_category(log).codes()
