"""Shared fixtures: fixture-file loaders and seeded random log generators."""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest

from cognilog.belog import BeLog
from cognilog.model import (
    Action, ELog, Kind, Participant, RawData, SLog, build_elog,
)
from cognilog.store import parse_belog, parse_log

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


def load_log(name: str) -> ELog:
    return parse_log((FIXTURES / name).read_text(encoding="utf-8"))


def load_belog(name: str) -> BeLog:
    return parse_belog((FIXTURES / name).read_text(encoding="utf-8"))


@pytest.fixture
def robot():
    return load_log("robot.elog")


@pytest.fixture
def worker():
    return load_log("worker.slog")


@pytest.fixture
def robot_belog():
    return load_belog("robot.belog")


def random_elog(
    rng: random.Random,
    max_actions: int = 6,
    slog: bool = False,
    with_ts: bool = True,
    log_id: str = "rand",
) -> ELog:
    """Random valid log: forward-pointing cause DAG, occasional trivial
    pairs, timestamps ascending along the build order."""
    n_actions = rng.randint(1, max_actions)
    n_parts = rng.randint(1, 3)
    kind = Kind.CLASS if slog else Kind.PLAIN
    participants = [Participant(id=f"p{i}", kind=kind) for i in range(n_parts)]

    specs: list[dict] = []
    i = 0
    while i < n_actions:
        if i + 1 < n_actions and rng.random() < 0.3:
            # trivial pair occupying slots i (do) and i+1 (be done)
            specs.append({"id": f"a{i}", "pair_with": f"a{i+1}", "role": "do"})
            specs.append({"id": f"a{i+1}", "pair_with": f"a{i}", "role": "done"})
            i += 2
        else:
            specs.append({"id": f"a{i}", "pair_with": None, "role": None})
            i += 1

    slot = {spec["id"]: idx for idx, spec in enumerate(specs)}
    actions: list[Action] = []
    for idx, spec in enumerate(specs):
        who = f"p{rng.randrange(n_parts)}"
        cs, cn = "unknown", "unknown"
        if spec["role"] == "do":
            cn = spec["pair_with"]
            earlier = [s["id"] for s in specs[:idx]]
            if earlier and rng.random() < 0.5:
                cs = rng.choice(earlier)
        elif spec["role"] == "done":
            cs = spec["pair_with"]
            later = [s["id"] for s in specs[idx + 1:] if s["pair_with"] != spec["id"]]
            if later and rng.random() < 0.4:
                cn = rng.choice(later)
        else:
            earlier = [s["id"] for s in specs[:idx]]
            later = [s["id"] for s in specs[idx + 1:]]
            if earlier and rng.random() < 0.5:
                cs = rng.choice(earlier)
            if later and rng.random() < 0.4:
                cn = rng.choice(later)
        ts = None
        if with_ts:
            # pair members share the "do" slot's tick so timestamps stay equal
            base = slot[spec["pair_with"]] if spec["role"] == "done" else idx
            ts = min(base, slot.get(spec["pair_with"], base)) if spec["pair_with"] else base
        actions.append(
            Action(
                id=spec["id"],
                who=who,
                cause_s=cs,
                cause_n=cn,
                trivial_partner=spec["pair_with"],
                raw=RawData(t_start=ts, t_end=ts),
            )
        )
    return build_elog(log_id, tuple(actions), tuple(participants), slog=slog)


def nominalize(rng: random.Random, log: ELog) -> ELog:
    """Re-point some performers at actions (action-as-noun who arrows)."""
    ids = [a.id for a in log.nonsentinel_actions]
    actions = tuple(
        replace(a, who=rng.choice(ids)) if rng.random() < 0.3 else a
        for a in log.nonsentinel_actions
    )
    return build_elog(
        log.id, actions, log.nonsentinel_participants, slog=isinstance(log, SLog)
    )
