import random
from dataclasses import replace

import pytest

from cognilog.errors import MissingTimestampError, UnknownObjectError
from cognilog.model import Action, RawData, build_elog
from cognilog.reasoning import generate_slog
from cognilog.search import Functor
from cognilog.temporal import (
    Interval,
    VendlerClass,
    check_temporal_consistency,
    vendler_type,
    vendler_type_of,
)
from cognilog.belog import BeLog

from conftest import load_log, random_elog


def test_interval_order_enforced():
    with pytest.raises(ValueError):
        Interval(5, 2)


@pytest.mark.parametrize(
    "cause,effect,col,row,classes",
    [
        ((0, 10), (0, 5), "A", "b",
         {VendlerClass.ACCOMPLISHMENTS, VendlerClass.ACHIEVEMENTS}),
        ((0, 10), (0, 10), "A", "a", {VendlerClass.INDETERMINATE}),
        ((0, 10), (0, 15), "A", "c", {VendlerClass.INDETERMINATE}),
        ((0, 10), (3, 7), "B", "b",
         {VendlerClass.ACTIVITIES, VendlerClass.STATUS}),
        ((0, 10), (3, 10), "B", "a",
         {VendlerClass.ACTIVITIES, VendlerClass.STATUS}),
        ((0, 10), (10, 20), "C", "c",
         {VendlerClass.STATUS, VendlerClass.ACTIVITIES}),
        ((0, 10), (12, 15), "C", "c",
         {VendlerClass.STATUS, VendlerClass.ACTIVITIES}),
    ],
)
def test_vendler_table_cells(cause, effect, col, row, classes):
    c, r, got = vendler_type(Interval(*cause), Interval(*effect))
    assert (c, r) == (col, row)
    assert got == frozenset(classes)


def test_vendler_rejects_effect_before_cause():
    with pytest.raises(ValueError):
        vendler_type(Interval(5, 10), Interval(2, 3))


def test_vendler_from_raw_requires_timestamps():
    with pytest.raises(MissingTimestampError):
        vendler_type_of(RawData(t_start=0), RawData(t_start=1, t_end=2))


def _identity_functor_to_slog(e, s):
    return Functor(
        src=e.id,
        dst=s.id,
        action_map={a.id: a.id for a in e.nonsentinel_actions},
        participant_map={p.id: p.id for p in e.nonsentinel_participants},
    )


def test_chain_fixture_true_and_false():
    e = load_log("chain.elog")
    amap = {"act_a": "sa", "act_b": "sb", "act_c": "sc"}
    pmap = {"someone": "someone_kind"}
    good = Functor(src="chain", dst="chain_ok", action_map=amap,
                   participant_map=pmap)
    bad = Functor(src="chain", dst="chain_reversed", action_map=amap,
                  participant_map=pmap)
    ok = check_temporal_consistency(e, load_log("chain_ok.slog"), good)
    assert ok.ok and not ok.violations
    ko = check_temporal_consistency(e, load_log("chain_reversed.slog"), bad)
    assert not ko.ok
    assert ("act_a", "act_b") in ko.violations


def test_unknown_ids_in_map_are_typed_errors():
    e, s = load_log("robot.elog"), load_log("worker.slog")
    for amap in ({"carried": "ghost"}, {"ghost": "carries"}):
        f = Functor(src=e.id, dst=s.id, action_map=amap, participant_map={})
        with pytest.raises(UnknownObjectError, match="ghost"):
            check_temporal_consistency(e, s, f)


def test_consistency_fraction_defaults_to_one():
    e = load_log("bob_alice.elog")
    f = Functor(src="bob_alice", dst="bob_alice",
                action_map={}, participant_map={})
    report = check_temporal_consistency(e, e, f)
    assert report.consistency_fraction == 1.0


def test_swap_of_unrelated_actions_is_invariant(seed=41):
    """Causally unrelated actions may appear in either temporal order."""
    rng = random.Random(seed)
    for i in range(50):
        base = random_elog(rng, max_actions=4, log_id=f"r{i}")
        iso = (
            Action(id="x0", who="p0", raw=RawData(t_start=50, t_end=50)),
            Action(id="x1", who="p0", raw=RawData(t_start=60, t_end=60)),
        )
        e = build_elog(base.id, base.nonsentinel_actions + iso,
                       base.nonsentinel_participants)
        s = generate_slog(e, {a.id for a in e.nonsentinel_actions}, BeLog())
        f = _identity_functor_to_slog(e, s)
        before = check_temporal_consistency(e, s, f)
        swapped = tuple(
            replace(a, raw=RawData(t_start=110 - a.t_start, t_end=110 - a.t_start))
            if a.id in ("x0", "x1") else a
            for a in e.nonsentinel_actions
        )
        e2 = build_elog(e.id, swapped, e.nonsentinel_participants)
        after = check_temporal_consistency(e2, s, f)
        assert before.ok == after.ok
        assert before.violations == after.violations
