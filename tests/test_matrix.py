import random
from dataclasses import FrozenInstanceError, replace

import pytest

from cognilog.boolmat import (
    BoolMatrix,
    CompletenessReport,
    adjacency,
    causal_closure,
    conversion_pair,
    dump_matrices,
    evaluate_conversion,
)
from cognilog.errors import DimensionMismatchError, NotTriangularError, UnknownObjectError
from cognilog.model import SENTINEL_ACTIONS, Action, ELog, Participant, build_elog

from conftest import load_log, nominalize, random_elog
from matrix_reference import (
    bool_product,
    causal_closure_with_stats,
    check_causal_equations,
    check_function_rules,
    check_who_equation,
)


def _random_dag_matrix(rng, n):
    ids = tuple(f"v{i}" for i in range(n))
    m = BoolMatrix.zeros(ids, ids)
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.35:
                m.set(i, j)  # strictly lower triangular: edge i -> j
    return m


def _dfs_reachability(m):
    n = len(m.row_ids)
    adj = {i: [j for j in range(n) if m.get(i, j)] for i in range(n)}
    reach = BoolMatrix.zeros(m.row_ids, m.col_ids)
    for start in range(n):
        stack = list(adj[start])
        seen = set()
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            reach.set(start, v)
            stack.extend(adj[v])
    return reach


def test_boolean_semiring_idempotence():
    rng = random.Random(3)
    m = _random_dag_matrix(rng, 6)
    assert (m | m) == m
    c = causal_closure(m)
    assert causal_closure(c, allow_cycles=True) == c


def test_closure_equals_dfs_oracle():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 8)
        m = _random_dag_matrix(rng, n)
        closure, iterations = causal_closure_with_stats(m)
        assert closure == _dfs_reachability(m)
        assert iterations <= max(n - 1, 0)


def test_closure_rejects_cycles_unless_allowed():
    m = BoolMatrix.zeros(("a", "b"), ("a", "b"))
    m.set(0, 1)
    m.set(1, 0)
    with pytest.raises(NotTriangularError):
        causal_closure(m)
    c = causal_closure(m, allow_cycles=True)
    assert c.get(0, 0) and c.get(1, 1)


def _closure_or_error(closure, m, allow_cycles):
    try:
        return closure(m, allow_cycles=allow_cycles)
    except NotTriangularError as exc:
        return f"NotTriangularError: {exc}"


def _power_series(m, allow_cycles):
    return causal_closure_with_stats(m, allow_cycles=allow_cycles)[0]


def test_closure_kernel_equals_power_series_on_digraphs():
    rng = random.Random(41)
    for trial in range(600):
        n = rng.randint(0, 12)
        ids = tuple(f"v{i}" for i in range(n))
        m = BoolMatrix.zeros(ids, ids)
        density = rng.choice((0.05, 0.15, 0.3))
        for i in range(n):
            for j in range(n):  # any arrow, self-loops and cycles included
                if rng.random() < density:
                    m.set(i, j)
        for allow_cycles in (False, True):
            kernel = _closure_or_error(causal_closure, m, allow_cycles)
            referee = _closure_or_error(_power_series, m, allow_cycles)
            assert kernel == referee, (trial, allow_cycles)


def test_closure_kernel_scales_without_recursion():
    n = 3000
    ids = tuple(f"v{i}" for i in range(n))
    chain = BoolMatrix.zeros(ids, ids)
    for i in range(n - 1):
        chain.set(i, i + 1)
    everything = (1 << n) - 1
    rows = causal_closure(chain).rows
    assert rows == [everything & ~((1 << (i + 1)) - 1) for i in range(n)]
    chain.set(n - 1, 0)  # close the chain into one cycle
    assert causal_closure(chain, allow_cycles=True).rows == [everything] * n
    with pytest.raises(NotTriangularError) as err:
        causal_closure(chain)
    assert str(err.value) == "cycle among non-sentinel actions: " + ", ".join(ids)


def test_closure_requires_square():
    with pytest.raises(DimensionMismatchError):
        causal_closure(BoolMatrix.zeros(("a",), ("a", "b")))


def test_matmul_and_transpose():
    m = BoolMatrix.zeros(("r0", "r1"), ("c0", "c1", "c2"))
    m.set(0, 2)
    m.set(1, 0)
    t = m.transpose()
    assert t.get(2, 0) and t.get(0, 1)
    ident = BoolMatrix.identity(("c0", "c1", "c2"))
    assert bool_product(m, ident) == m


def test_bob_alice_adjacency():
    log = load_log("bob_alice.elog")
    m = adjacency(log)
    assert m.S_tri.entry_ids() == [("is_loved", "loves")]
    assert m.N_tri.entry_ids() == [("loves", "is_loved")]
    assert m.S.entry_ids() == [("is_loved", "loves")]
    assert m.N.entry_ids() == [("loves", "is_loved")]
    assert ("Bob", "loves") in m.E.entry_ids()
    assert ("Alice", "is_loved") in m.E.entry_ids()


def test_adjacency_strictly_triangular():
    rng = random.Random(17)
    for _ in range(40):
        log = random_elog(rng)
        m = adjacency(log)
        ns = len(m.action_ids) - 2  # sentinels trail the order
        for i in range(ns):
            for j in range(i, ns):
                assert not m.S.get(i, j)  # S strictly lower
            for j in range(0, i + 1):
                assert not m.N.get(i, j)  # N strictly upper
        # each entry is one of the log's own arrows, and no arrow is missing
        for kind, C, tri in (("cause_s", m.S, m.S_tri), ("cause_n", m.N, m.N_tri)):
            arrows = {
                (a.id, getattr(a, kind)) for a in log.nonsentinel_actions
                if getattr(a, kind) not in SENTINEL_ACTIONS and getattr(a, kind) != a.id
            }
            assert set(C.entry_ids()) == arrows
            assert set(tri.entry_ids()) == {
                (x, y) for x, y in arrows if log.action_by_id[x].trivial_partner == y
            }


def test_adjacency_is_compiled_once_per_log():
    log = load_log("robot.elog")
    m = adjacency(log)
    assert adjacency(log) is m
    with pytest.raises(FrozenInstanceError):
        m.S = m.N
    # an equal log is a separate value with its own index
    twin = load_log("robot.elog")
    assert twin == log and adjacency(twin) is not m
    assert adjacency(twin) == m


def test_evaluate_conversion_rejects_unknown_ids():
    e_m = adjacency(load_log("robot.elog"))
    s_m = adjacency(load_log("worker.slog"))
    for amap, pmap, ghost in (
        ({"carried": "ghost"}, {}, "ghost"),
        ({"ghost": "carries"}, {}, "ghost"),
        ({}, {"robot": "ghost"}, "ghost"),
    ):
        for convert in (evaluate_conversion, conversion_pair):
            with pytest.raises(UnknownObjectError, match=ghost):
                convert(e_m, s_m, amap, pmap)


def test_identity_functor_is_complete():
    rng = random.Random(23)
    for _ in range(25):
        log = random_elog(rng)
        m = adjacency(log)
        amap = {a.id: a.id for a in log.nonsentinel_actions}
        pmap = {p.id: p.id for p in log.nonsentinel_participants}
        report = evaluate_conversion(m, m, amap, pmap)
        assert report.complete, report


def test_causal_equation_swap_symmetry():
    # swapping (S, N_tri) with (N, S_tri) on both sides swaps the two flags
    rng = random.Random(29)
    for _ in range(20):
        e = random_elog(rng, log_id="e")
        s = random_elog(rng, slog=True, log_id="s")
        e_m, s_m = adjacency(e), adjacency(s)
        amap = {
            a.id: rng.choice(s_m.action_ids[:-2])
            for a in e.nonsentinel_actions
        }
        p = conversion_pair(e_m, s_m, amap, {})
        ok_s, ok_n, _ = check_causal_equations(e_m, s_m, p)
        # swapped copies: the index adjacency returns is shared and read-only
        e_sw = replace(e_m, S=e_m.N, N=e_m.S, S_tri=e_m.N_tri, N_tri=e_m.S_tri)
        s_sw = replace(s_m, S=s_m.N, N=s_m.S, S_tri=s_m.N_tri, N_tri=s_m.S_tri)
        ok_s2, ok_n2, _ = check_causal_equations(e_sw, s_sw, p)
        assert (ok_s, ok_n) == (ok_n2, ok_s2)


def test_who_equation_detects_swapped_performers():
    e = build_elog(
        "e",
        (Action(id="acts", who="Bob"),),
        (Participant(id="Bob"), Participant(id="Pat")),
    )
    s = build_elog(
        "s",
        (Action(id="does", who="agent"),),
        (Participant(id="agent"), Participant(id="patient")),
    )
    good = evaluate_conversion(
        adjacency(e), adjacency(s), {"acts": "does"}, {"Bob": "agent"}
    )
    assert good.who_eq_ok
    bad = evaluate_conversion(
        adjacency(e), adjacency(s), {"acts": "does"}, {"Bob": "patient"}
    )
    assert not bad.who_eq_ok
    assert bad.who_mismatches


def test_zero_column_rule():
    e = build_elog(
        "e",
        (Action(id="a0", who="p0"),),
        (Participant(id="p0"),),
    )
    s = build_elog(
        "s",
        (Action(id="s0", who="q0"),),
        (Participant(id="q0"),),
    )
    # action mapped but its performer left unmapped: zero-column violation
    report = evaluate_conversion(adjacency(e), adjacency(s), {"a0": "s0"}, {})
    assert not report.zero_column_rule_ok


def test_dump_matrices_shape():
    text = dump_matrices(load_log("bob_alice.elog"))
    lines = text.splitlines()
    assert lines[0] == "M S 4x4"
    assert "M E 3x4" in lines
    assert text.endswith("\n")


# -- per-log index against the matrix-form reference ------------------------


def _reference_report(e_m, s_m, amap, pmap):
    """The completeness report assembled from the matrix-form functions."""
    p = conversion_pair(e_m, s_m, amap, pmap)
    is_function, zero_ok, surjective, injective = check_function_rules(e_m, s_m, p)
    eq_s, eq_n, causal = check_causal_equations(e_m, s_m, p)
    who_ok, who = check_who_equation(e_m, s_m, p)
    return CompletenessReport(
        is_function, zero_ok, surjective, injective, eq_s, eq_n, who_ok,
        causal, who,
    )


def _future_fixpoint(log: ELog) -> dict[str, set[str]]:
    """cause -> transitive effects over non-sentinel arrows, by set fixpoint."""
    succ: dict[str, set[str]] = {a.id: set() for a in log.nonsentinel_actions}
    for a in log.nonsentinel_actions:
        if a.cause_s in succ and a.cause_s != a.id:
            succ[a.cause_s].add(a.id)
        if a.cause_n in succ and a.cause_n != a.id:
            succ[a.id].add(a.cause_n)
    reach = {node: set(nxt) for node, nxt in succ.items()}
    changed = True
    while changed:
        changed = False
        for node in reach:
            acc = set(reach[node])
            for nxt in reach[node]:
                acc |= reach[nxt]
            if acc != reach[node]:
                reach[node] = acc
                changed = True
    return reach


def _random_pair(rng):
    e = random_elog(rng, max_actions=8, log_id="e")
    s = random_elog(rng, max_actions=8, slog=True, log_id="s")
    if rng.random() < 0.3:
        e = nominalize(rng, e)
    if rng.random() < 0.3:
        s = nominalize(rng, s)
    return e, s


def test_evaluate_conversion_equals_matrix_reference():
    rng = random.Random(31)
    for _ in range(600):
        e, s = _random_pair(rng)
        e_m, s_m = adjacency(e), adjacency(s)
        s_actions, s_parts = s_m.action_ids, s_m.participant_ids
        # partial maps; images may be sentinels
        amap = {
            a.id: rng.choice(s_actions)
            for a in e.nonsentinel_actions if rng.random() < 0.8
        }
        pmap = {
            p.id: rng.choice(s_parts)
            for p in e.nonsentinel_participants if rng.random() < 0.8
        }
        assert evaluate_conversion(e_m, s_m, amap, pmap) == _reference_report(
            e_m, s_m, amap, pmap
        )
        ident_a = {a.id: a.id for a in e.nonsentinel_actions}
        ident_p = {p.id: p.id for p in e.nonsentinel_participants}
        assert evaluate_conversion(e_m, e_m, ident_a, ident_p) == _reference_report(
            e_m, e_m, ident_a, ident_p
        )


def test_index_closures_equal_causal_closure():
    rng = random.Random(37)
    for _ in range(100):
        log = _random_pair(rng)[rng.randrange(2)]
        m = adjacency(log)
        # the power series, not the kernel that computes closure_S/N, referees
        assert m.closure_S == _power_series(m.S | m.N_tri, allow_cycles=True)
        assert m.closure_N == _power_series(m.N | m.S_tri, allow_cycles=True)
        reach = _future_fixpoint(log)
        for i, aid in enumerate(m.action_ids):
            effects = {m.action_ids[j] for j in range(len(m.action_ids)) if m.future.get(i, j)}
            assert effects == reach.get(aid, set())
        assert m.future_pairs == tuple(sorted(m.future.entry_ids()))
