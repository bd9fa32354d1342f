"""Seeded episode generator with exact sizes.

``episode`` takes a ``random.Random`` and returns a plain cognilog log, so
the same seed always yields the same input.  Sizes are exact (not drawn from
a range), which keeps the work per operation under control.
"""

from __future__ import annotations

import random

from cognilog import Action, Participant, RawData, build_elog


def episode(
    rng: random.Random,
    n_actions: int,
    n_parts: int,
    prefix: str,
    log_id: str,
    pair_p: float = 0.3,
    cause_s_p: float = 0.5,
    cause_n_p: float = 0.4,
    chain_len: int = 0,
):
    """Valid e-log with exactly ``n_actions`` actions and ``n_parts``
    participants: a forward-pointing cause DAG, some "do"/"be done" trivial
    pairs, and timestamps ascending along the build order.  The first
    ``chain_len`` actions form one causal chain, each causing the next."""
    parts = [f"{prefix}p{i}" for i in range(n_parts)]
    # slot -> (id, partner id, role); a trivial pair takes two slots
    slots: list[tuple[str, str | None, str | None]] = []
    while len(slots) < n_actions:
        i = len(slots)
        if i >= chain_len and i + 1 < n_actions and rng.random() < pair_p:
            slots.append((f"{prefix}a{i}", f"{prefix}a{i + 1}", "do"))
            slots.append((f"{prefix}a{i + 1}", f"{prefix}a{i}", "done"))
        else:
            slots.append((f"{prefix}a{i}", None, None))
    # every participant performs a near-equal share of the actions
    whos = [parts[i % n_parts] for i in range(n_actions)]
    rng.shuffle(whos)
    actions = []
    for idx, (aid, partner, role) in enumerate(slots):
        cs = cn = "unknown"
        if idx < chain_len:
            cs = slots[idx - 1][0] if idx else "unknown"
            cn = slots[idx + 1][0] if idx + 1 < chain_len else "unknown"
        elif role == "do":
            cn = partner
        elif role == "done":
            cs = partner
        # a trivial partner never lies on the side still open for a draw
        if cs == "unknown" and idx and rng.random() < cause_s_p:
            cs = slots[rng.randrange(idx)][0]
        if cn == "unknown" and idx + 1 < n_actions and rng.random() < cause_n_p:
            cn = slots[rng.randrange(idx + 1, n_actions)][0]
        # a "be done" member shares the tick of its "do" member
        ts = idx - 1 if role == "done" else idx
        actions.append(
            Action(
                id=aid,
                who=whos[idx],
                cause_s=cs,
                cause_n=cn,
                trivial_partner=partner,
                raw=RawData(t_start=ts, t_end=ts),
            )
        )
    return build_elog(log_id, tuple(actions), tuple(Participant(id=p) for p in parts))

