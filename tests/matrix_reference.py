"""Matrix-form referees: the rules ``evaluate_conversion`` and the closure
kernel are tested against.

Each rule of the paper's Boolean functor equations is computed here from the
adjacency matrices and the conversion matrices P_S/P_E, with Boolean matrix
products and column masks; the closures come from the power series
``causal_closure_with_stats``, not from the ``causal_closure`` kernel.
``cognilog.boolmat.evaluate_conversion`` computes the same report by
relabelling the per-log index, and ``cognilog.boolmat.causal_closure`` the
same closure in one graph pass; the tests compare each with its referee.
"""

from __future__ import annotations

from cognilog.boolmat import BoolMatrix, CauseMatrices, ConversionPair
from cognilog.errors import DimensionMismatchError, NotTriangularError
from cognilog.model import SENTINEL_ACTIONS, SENTINEL_NOBODY


def bool_product(first: BoolMatrix, *rest: BoolMatrix) -> BoolMatrix:
    """Product of the factors over the Boolean semiring (1+1=1), left to
    right; inner dimensions must agree."""
    out = first
    for other in rest:
        if len(out.col_ids) != len(other.row_ids):
            raise DimensionMismatchError(
                f"matmul of {out.shape} and {other.shape}"
            )
        rows = []
        for bits in out.rows:
            acc = 0
            while bits:
                low = bits & -bits
                acc |= other.rows[low.bit_length() - 1]
                bits ^= low
            rows.append(acc)
        out = BoolMatrix(out.row_ids, other.col_ids, rows)
    return out


def causal_closure_with_stats(
    m: BoolMatrix, allow_cycles: bool = False
) -> tuple[BoolMatrix, int]:
    """Boolean power-series sum of m (paths of length >= 1) plus the number of
    productive squaring rounds.

    A strictly triangular matrix is nilpotent, so the series is finite; with
    ``allow_cycles`` the fixed point is still reached (Boolean monotonicity)
    and diagonal entries are tolerated, as needed for trivial-pair masks.
    """
    if m.row_ids != m.col_ids:
        raise DimensionMismatchError("closure requires a square matrix")
    n = len(m.row_ids)
    reach = BoolMatrix(m.row_ids, m.col_ids)
    reach.rows = list(m.rows)
    iterations = 0
    cap = max(n, 1)
    while True:
        nxt = reach | bool_product(reach, reach)
        if nxt.rows == reach.rows:
            break
        reach = nxt
        iterations += 1
        if iterations > cap:  # unreachable; guards the invariant
            raise NotTriangularError("closure failed to reach a fixed point")
    if not allow_cycles and any(reach.get(i, i) for i in range(n)):
        bad = [m.row_ids[i] for i in range(n) if reach.get(i, i)]
        raise NotTriangularError(
            "cycle among non-sentinel actions: " + ", ".join(bad)
        )
    return reach, iterations


def column_mask(m: BoolMatrix, j: int) -> int:
    return sum((row >> j & 1) << i for i, row in enumerate(m.rows))


def nonzero_rows(m: BoolMatrix) -> set[int]:
    return {i for i, bits in enumerate(m.rows) if bits}


def nonzero_cols(m: BoolMatrix) -> set[int]:
    acc = 0
    for bits in m.rows:
        acc |= bits
    return {j for j in range(len(m.col_ids)) if acc >> j & 1}


def _image_indices(p: BoolMatrix) -> set[int]:
    return nonzero_rows(p)


def check_causal_equations(
    e: CauseMatrices, s: CauseMatrices, p: ConversionPair
) -> tuple[bool, bool, tuple[tuple[str, str], ...]]:
    """Boolean functor equations for the cause structure.

    For each direction, both sides are the identity plus a closure: the s-log
    side closes its own cause arrows, the converted side conjugates the e-log
    closure through P_S.  For partial functors equality is only required on
    the image of P_S.
    """
    ok_s, mism_s = _one_causal_equation(e.S, e.N_tri, s.S, s.N_tri, p.P_S, s.action_ids)
    ok_n, mism_n = _one_causal_equation(e.N, e.S_tri, s.N, s.S_tri, p.P_S, s.action_ids)
    return ok_s, ok_n, tuple(sorted(set(mism_s + mism_n)))


def _one_causal_equation(
    C_e: BoolMatrix,
    tri_e: BoolMatrix,
    C_s: BoolMatrix,
    tri_s: BoolMatrix,
    P_S: BoolMatrix,
    s_ids: tuple[str, ...],
) -> tuple[bool, list[tuple[str, str]]]:
    closure_e, _ = causal_closure_with_stats(C_e | tri_e, allow_cycles=True)
    closure_s, _ = causal_closure_with_stats(C_s | tri_s, allow_cycles=True)
    ident = BoolMatrix.identity(s_ids)
    lhs = closure_s | ident
    rhs = bool_product(P_S, closure_e, P_S.transpose()) | ident
    image = _image_indices(P_S)
    mismatches = [
        (s_ids[i], s_ids[j])
        for i in image
        for j in image
        if lhs.get(i, j) != rhs.get(i, j)
    ]
    return not mismatches, mismatches


def check_who_equation(
    e: CauseMatrices, s: CauseMatrices, p: ConversionPair
) -> tuple[bool, tuple[tuple[str, str], ...]]:
    """Converted who arrows must coincide with the s-log's on every mapped
    action column."""
    converted = bool_product(p.P_E, e.E, p.P_S.transpose())
    image = _image_indices(p.P_S)
    mismatches = []
    for j in sorted(image):
        if column_mask(converted, j) != column_mask(s.E, j):
            for i in range(len(s.participant_ids)):
                if converted.get(i, j) != s.E.get(i, j):
                    mismatches.append((s.participant_ids[i], s.action_ids[j]))
    return not mismatches, tuple(mismatches)


def check_function_rules(
    e: CauseMatrices,
    s: CauseMatrices,
    p: ConversionPair,
) -> tuple[bool, bool, bool, bool]:
    """(is_function, zero_column_rule_ok, surjective, injective).

    is_function: at most one entry per column of P_S and P_E.
    zero-column rule: an action whose performer is unmapped must be unmapped.
    surjective: every non-sentinel s-log row is hit.
    injective (e-log essentiality): every non-sentinel e-log column is hit.
    """
    is_function = all(
        column_mask(p.P_S, j).bit_count() <= 1 for j in range(len(e.action_ids))
    ) and all(
        column_mask(p.P_E, j).bit_count() <= 1 for j in range(len(e.participant_ids))
    )

    converted_who = bool_product(p.P_E, e.E)
    zero_ok = all(
        column_mask(p.P_S, j) == 0
        for j in range(len(e.action_ids))
        if column_mask(converted_who, j) == 0
    )

    hit_s_actions = nonzero_rows(p.P_S)
    hit_s_parts = nonzero_rows(p.P_E)
    surjective = all(
        i in hit_s_actions
        for i, aid in enumerate(s.action_ids)
        if aid not in SENTINEL_ACTIONS
    ) and all(
        i in hit_s_parts
        for i, pid in enumerate(s.participant_ids)
        if pid != SENTINEL_NOBODY
    )

    mapped_e_actions = nonzero_cols(p.P_S)
    mapped_e_parts = nonzero_cols(p.P_E)
    injective = all(
        j in mapped_e_actions
        for j, aid in enumerate(e.action_ids)
        if aid not in SENTINEL_ACTIONS
    ) and all(
        j in mapped_e_parts
        for j, pid in enumerate(e.participant_ids)
        if pid != SENTINEL_NOBODY
    )

    return is_function, zero_ok, surjective, injective
