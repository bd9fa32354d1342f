"""Boolean logical-matrix kernel for functor evaluation.

Matrices live over the Boolean semiring (1+1=1).  Rows are bit-packed into
Python ints, so OR/AND are word-parallel.  The cause matrices S and N
are strictly triangular under the canonical causal-topological order, and
the functor equations compare their transitive closures conjugated through
the conversion matrices P_S and P_E.

``causal_closure`` computes a closure in one pass over the graph: an
iterative Tarjan pass finds the strongly connected components (the
trivial-pair masks close cycles), and each component's row is the OR of its
successors' bits and rows in reverse topological order (Purdom 1970; Nuutila
1995).  The Boolean power series, summed by repeated squaring, is the
referee the kernel is tested against; it lives beside the tests
(``tests/matrix_reference.py``).

``evaluate_conversion`` does not build P_S and P_E.  Both are functions, so
conjugating a closure through P_S relabels its entries and the who equation
compares one performer set per column; both read the per-log index that a
``CauseMatrices`` derives once (index maps, closures, performers) and that
``adjacency`` compiles once per log.  ``conversion_pair`` builds P_S and P_E
themselves; the matrix-form rules over them live beside the tests
(``tests/matrix_reference.py``), as the referee ``evaluate_conversion`` is
compared against.

``evaluate_conversion`` is two halves split by what the rules read.
``_check_actions`` reads the action map only: the index map, its domain and
image masks, and both causal equations.  ``_check_participants`` adds the
rules that read the participant map: the zero-column rule, the who equation
and the coverage of both maps.  Functor search runs the first half once per
action map, and the second once per participant completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .errors import DimensionMismatchError, NotTriangularError, UnknownObjectError
from .model import (
    ELog,
    SENTINEL_ACTIONS,
    SENTINEL_NOBODY,
    canonical_action_order,
    canonical_participant_order,
)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class BoolMatrix:
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]
    rows: list[int] = field(default_factory=list)  # bitmask per row, bit j = col j

    def __post_init__(self):
        if not self.rows:
            self.rows = [0] * len(self.row_ids)
        if len(self.rows) != len(self.row_ids):
            raise DimensionMismatchError("row count does not match row_ids")

    # -- construction ------------------------------------------------------
    @classmethod
    def zeros(cls, row_ids: Iterable[str], col_ids: Iterable[str]) -> "BoolMatrix":
        return cls(tuple(row_ids), tuple(col_ids))

    @classmethod
    def identity(cls, ids: Iterable[str]) -> "BoolMatrix":
        ids = tuple(ids)
        m = cls(ids, ids)
        for i in range(len(ids)):
            m.rows[i] |= 1 << i
        return m

    # -- element access ----------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_ids), len(self.col_ids)

    def get(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def set(self, i: int, j: int) -> None:
        self.rows[i] |= 1 << j

    def entries(self) -> Iterator[tuple[int, int]]:
        for i, bits in enumerate(self.rows):
            for j in _bits(bits):
                yield i, j

    def entry_ids(self) -> list[tuple[str, str]]:
        return [(self.row_ids[i], self.col_ids[j]) for i, j in self.entries()]

    # -- algebra -----------------------------------------------------------
    def __or__(self, other: "BoolMatrix") -> "BoolMatrix":
        if self.shape != other.shape:
            raise DimensionMismatchError(f"OR of {self.shape} and {other.shape}")
        out = BoolMatrix(self.row_ids, self.col_ids)
        out.rows = [a | b for a, b in zip(self.rows, other.rows)]
        return out

    def transpose(self) -> "BoolMatrix":
        out = BoolMatrix(self.col_ids, self.row_ids)
        for i, j in self.entries():
            out.rows[j] |= 1 << i
        return out

    def dump(self, name: str) -> str:
        """Debug dump: header line plus one 0/1 string per row."""
        lines = [f"M {name} {len(self.row_ids)}x{len(self.col_ids)}"]
        for bits in self.rows:
            lines.append(
                "".join("1" if bits >> j & 1 else "0" for j in range(len(self.col_ids)))
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class CauseMatrices:
    """Adjacency view of one log under its canonical object orders; the one
    ``adjacency`` returns is shared, so treat its matrices as read-only."""

    action_ids: tuple[str, ...]
    participant_ids: tuple[str, ...]
    S: BoolMatrix
    N: BoolMatrix
    S_tri: BoolMatrix
    N_tri: BoolMatrix
    E: BoolMatrix  # participants x actions; E[p, a] = 1 iff who(a) = p

    # -- per-log index, derived from the matrices above on first use ---------

    @cached_property
    def action_index(self) -> dict[str, int]:
        return {aid: i for i, aid in enumerate(self.action_ids)}

    @cached_property
    def participant_index(self) -> dict[str, int]:
        return {pid: i for i, pid in enumerate(self.participant_ids)}

    @cached_property
    def closure_S(self) -> BoolMatrix:
        """Closure of S | N_tri: the pastward side of the causal equations."""
        return causal_closure(self.S | self.N_tri, allow_cycles=True)

    @cached_property
    def closure_N(self) -> BoolMatrix:
        """Closure of N | S_tri: the futureward side of the causal equations."""
        return causal_closure(self.N | self.S_tri, allow_cycles=True)

    @cached_property
    def future(self) -> BoolMatrix:
        """Closure of N | S^T: row i holds every transitive effect of i."""
        return causal_closure(self.N | self.S.transpose(), allow_cycles=True)

    @cached_property
    def future_pairs(self) -> tuple[tuple[str, str], ...]:
        """(cause, effect) id pairs of ``future``, sorted by id."""
        ids = self.action_ids
        return tuple(sorted((ids[i], ids[j]) for i, j in self.future.entries()))

    @cached_property
    def performer(self) -> tuple[int, ...]:
        """Participant index of each action's performer; -1 when ``who``
        names an action (nominalized) rather than a participant."""
        out = [-1] * len(self.action_ids)
        for p, a in self.E.entries():
            out[a] = p
        return tuple(out)

    @cached_property
    def core_masks(self) -> tuple[int, int]:
        """Bitmasks of the non-sentinel actions and participants."""
        actions = sum(
            1 << i for i, aid in enumerate(self.action_ids)
            if aid not in SENTINEL_ACTIONS
        )
        parts = sum(
            1 << i for i, pid in enumerate(self.participant_ids)
            if pid != SENTINEL_NOBODY
        )
        return actions, parts


@dataclass
class ConversionPair:
    """Object maps of a functor in matrix form: rows are target (s-log)
    objects, columns are source (e-log) objects."""

    P_S: BoolMatrix
    P_E: BoolMatrix


@dataclass
class CompletenessReport:
    """Outcome of every completeness rule for one pair of object maps.

    ``injective`` means totality: every core e-object (action and
    participant) is mapped.  It does not mean injectivity; a map sending
    several actions to one reports ``injective=True``.
    """

    is_function: bool = True
    zero_column_rule_ok: bool = True
    surjective: bool = True
    injective: bool = True
    causal_eq_S_ok: bool = True
    causal_eq_N_ok: bool = True
    who_eq_ok: bool = True
    causal_mismatches: tuple[tuple[str, str], ...] = ()
    who_mismatches: tuple[tuple[str, str], ...] = ()

    @property
    def complete(self) -> bool:
        return (
            self.is_function
            and self.zero_column_rule_ok
            and self.surjective
            and self.injective
            and self.causal_eq_S_ok
            and self.causal_eq_N_ok
            and self.who_eq_ok
        )

    def hard_checks(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.zero_column_rule_ok,
            self.causal_eq_S_ok,
            self.causal_eq_N_ok,
            self.who_eq_ok,
        )


def adjacency(log: ELog) -> CauseMatrices:
    """S/N/E matrices of the log under the canonical orders.

    Sentinel and self arrows are excluded from S and N, which keeps both
    strictly triangular; sentinels occupy the trailing rows/columns.  The log
    is compiled on the first call only: the result is kept on the frozen log,
    the way ``functools.cached_property`` keeps ``ELog.action_by_id``, and
    every call returns that same shared, read-only index.
    """
    cached = log.__dict__.get("_adjacency")
    if cached is not None:
        return cached
    a_ids = tuple(canonical_action_order(log))
    p_ids = tuple(canonical_participant_order(log))
    a_index = {aid: i for i, aid in enumerate(a_ids)}
    p_index = {pid: i for i, pid in enumerate(p_ids)}

    S = BoolMatrix.zeros(a_ids, a_ids)
    N = BoolMatrix.zeros(a_ids, a_ids)
    S_tri = BoolMatrix.zeros(a_ids, a_ids)
    N_tri = BoolMatrix.zeros(a_ids, a_ids)
    E = BoolMatrix.zeros(p_ids, a_ids)

    for a in log.actions:
        i = a_index[a.id]
        if a.who in p_index:
            E.rows[p_index[a.who]] |= 1 << i
        if a.id in SENTINEL_ACTIONS:
            continue
        for target, C, tri in ((a.cause_s, S, S_tri), (a.cause_n, N, N_tri)):
            if target in a_index and target not in SENTINEL_ACTIONS and target != a.id:
                j = a_index[target]
                C.set(i, j)
                if a.trivial_partner == target:
                    tri.set(i, j)

    m = log.__dict__["_adjacency"] = CauseMatrices(a_ids, p_ids, S, N, S_tri, N_tri, E)
    return m


def causal_closure(m: BoolMatrix, allow_cycles: bool = False) -> BoolMatrix:
    """Transitive closure of m (paths of length >= 1) in one pass.

    An iterative Tarjan pass (no recursion, so chains of any length close)
    emits the strongly connected components in reverse topological order.
    Each component gets one row: its external successors and their rows,
    already final, ORed together; a component of several members, or one
    with a self-loop, also reaches its own members.  The rows equal the
    Boolean power series, the referee in ``tests/matrix_reference.py``.  Without
    ``allow_cycles`` an action that reaches itself raises
    ``NotTriangularError``.
    """
    if m.row_ids != m.col_ids:
        raise DimensionMismatchError("closure requires a square matrix")
    n = len(m.row_ids)
    rows = m.rows
    succ = [list(_bits(bits)) for bits in rows]
    # order[v]: -1 until v is visited, its discovery number while v is on the
    # stack, and n once its component is emitted, above every low-link, so
    # arrows into emitted components never lower a low-link.
    order = [-1] * n
    low = [0] * n
    stack: list[int] = []
    out = [0] * n
    count = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if order[w] < 0:
                    order[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                lv = low[v]
                if work:
                    u = work[-1][0]
                    if lv < low[u]:
                        low[u] = lv
                if lv != order[v]:
                    continue
                # v roots a component, and every component it reaches is
                # final.  The members' own rows are still 0, and each member
                # of a cycle has an arrow from another, so their arrows put
                # every member of a cycle (or with a self-loop) in the row.
                members = []
                row = 0
                while True:
                    w = stack.pop()
                    members.append(w)
                    order[w] = n
                    row |= rows[w]
                    if w == v:
                        break
                for w in members:
                    for x in succ[w]:
                        row |= out[x]
                for w in members:
                    out[w] = row
    if not allow_cycles and any(out[i] >> i & 1 for i in range(n)):
        bad = [m.row_ids[i] for i in range(n) if out[i] >> i & 1]
        raise NotTriangularError(
            "cycle among non-sentinel actions: " + ", ".join(bad)
        )
    return BoolMatrix(m.row_ids, m.col_ids, out)


# Every functor sends each sentinel to itself; an object map names only the
# other objects, and these self-maps complete it.
_SENTINEL_ACTION_MAP = {sid: sid for sid in sorted(SENTINEL_ACTIONS)}
_SENTINEL_PARTICIPANT_MAP = {SENTINEL_NOBODY: SENTINEL_NOBODY}


def _with_sentinels(
    mapping: dict[str, str], sentinels: dict[str, str]
) -> dict[str, str]:
    """The map completed by the sentinel self-maps it does not override.  Its
    own entries stay first, so an unknown id among them is the one
    ``index_map`` names."""
    full = dict(mapping)
    for x, y in sentinels.items():
        full.setdefault(x, y)
    return full


def conversion_pair(
    e: CauseMatrices,
    s: CauseMatrices,
    action_map: dict[str, str],
    participant_map: dict[str, str],
) -> ConversionPair:
    """Build P_S/P_E from object maps; sentinel images are forced.  Raises
    ``UnknownObjectError`` naming an id that either log lacks."""
    f = index_map(
        _with_sentinels(action_map, _SENTINEL_ACTION_MAP),
        e.action_index, s.action_index,
    )
    g = index_map(
        _with_sentinels(participant_map, _SENTINEL_PARTICIPANT_MAP),
        e.participant_index, s.participant_index,
    )
    P_S = BoolMatrix.zeros(s.action_ids, e.action_ids)
    P_E = BoolMatrix.zeros(s.participant_ids, e.participant_ids)
    for m, h in ((P_S, f), (P_E, g)):
        for u, hu in h.items():
            m.set(hu, u)
    return ConversionPair(P_S, P_E)


def _relabel(closure: BoolMatrix, f: dict[int, int], size: int) -> list[int]:
    """Rows of P_S @ closure @ P_S^T for the function f (e index -> s index):
    entry (f(u), f(v)) is set iff closure[u, v] for mapped u and v."""
    out = [0] * size
    for u, fu in f.items():
        acc = 0
        for v in _bits(closure.rows[u]):
            fv = f.get(v)
            if fv is not None:
                acc |= 1 << fv
        out[fu] |= acc
    return out


def index_map(
    mapping: dict[str, str], src: dict[str, int], dst: dict[str, int]
) -> dict[int, int]:
    """An object map as index pairs through the two logs' id->index maps;
    raises ``UnknownObjectError`` naming an id that either log lacks."""
    try:
        return {src[x]: dst[y] for x, y in mapping.items()}
    except KeyError as exc:
        raise UnknownObjectError(f"unknown object {exc.args[0]!r}") from None


class _ActionCheck(NamedTuple):
    """The rules of a functor that read only its action map, and what the
    participant rules read of it: the index map ``f`` and its masks."""

    f: dict[int, int]
    domain: int
    image: int
    causal_eq_S_ok: bool
    causal_eq_N_ok: bool
    causal_mismatches: tuple[tuple[str, str], ...]


def _check_actions(
    e: CauseMatrices, s: CauseMatrices, action_map: dict[str, str]
) -> _ActionCheck:
    """Both causal equations of the action map.  Neither reads the
    participant map, so a search decides them once per action map and skips
    every participant completion of a map that fails one."""
    f = index_map(
        _with_sentinels(action_map, _SENTINEL_ACTION_MAP),
        e.action_index, s.action_index,
    )

    domain = image = 0
    for u, fu in f.items():
        domain |= 1 << u
        image |= 1 << fu

    s_ids = s.action_ids
    causal: set[tuple[str, str]] = set()
    eq_ok = []
    for closure_e, closure_s in ((e.closure_S, s.closure_S), (e.closure_N, s.closure_N)):
        rhs = _relabel(closure_e, f, len(s_ids))
        ok = True
        for i in _bits(image):
            diff = (closure_s.rows[i] ^ rhs[i]) & image & ~(1 << i)
            if diff:
                ok = False
                causal.update((s_ids[i], s_ids[j]) for j in _bits(diff))
        eq_ok.append(ok)
    return _ActionCheck(f, domain, image, eq_ok[0], eq_ok[1], tuple(sorted(causal)))


def _check_participants(
    e: CauseMatrices,
    s: CauseMatrices,
    actions: _ActionCheck,
    participant_map: dict[str, str],
) -> CompletenessReport:
    """The full report: ``actions`` completed by the rules that read the
    participant map (the zero-column rule, the who equation and the
    coverage of both maps)."""
    g = index_map(
        _with_sentinels(participant_map, _SENTINEL_PARTICIPANT_MAP),
        e.participant_index, s.participant_index,
    )
    f, image = actions.f, actions.image

    part_domain = hit_parts = 0
    for p, gp in g.items():
        part_domain |= 1 << p
        hit_parts |= 1 << gp
    e_core_a, e_core_p = e.core_masks
    s_core_a, s_core_p = s.core_masks

    # zero-column rule: a mapped action needs a mapped participant performer
    e_who = e.performer
    zero_ok = all(e_who[u] in g for u in f)

    # who equation: per mapped s-action, the performers of its preimages
    s_ids = s.action_ids
    converted = [0] * len(s_ids)
    for u, fu in f.items():
        gp = g.get(e_who[u])
        if gp is not None:
            converted[fu] |= 1 << gp
    s_who = s.performer
    who_mism = []
    for j in _bits(image):
        expected = 1 << s_who[j] if s_who[j] >= 0 else 0
        for i in _bits(converted[j] ^ expected):
            who_mism.append((s.participant_ids[i], s_ids[j]))

    return CompletenessReport(
        is_function=True,  # dict-valued maps send each object to one image
        zero_column_rule_ok=zero_ok,
        surjective=s_core_a & ~image == 0 and s_core_p & ~hit_parts == 0,
        injective=e_core_a & ~actions.domain == 0 and e_core_p & ~part_domain == 0,
        causal_eq_S_ok=actions.causal_eq_S_ok,
        causal_eq_N_ok=actions.causal_eq_N_ok,
        who_eq_ok=not who_mism,
        causal_mismatches=actions.causal_mismatches,
        who_mismatches=tuple(who_mism),
    )


def evaluate_conversion(
    e: CauseMatrices,
    s: CauseMatrices,
    action_map: dict[str, str],
    participant_map: dict[str, str],
) -> CompletenessReport:
    """Run every completeness rule for the given object maps.

    Sentinel images are forced as in ``conversion_pair``.  The maps are
    dicts, hence functions, so each matrix equation is evaluated on the
    per-log indices of ``e`` and ``s`` by relabelling: the report equals the
    one the matrix-form rules assemble from the ``conversion_pair`` matrices.
    """
    return _check_participants(e, s, _check_actions(e, s, action_map), participant_map)


def dump_matrices(log: ELog) -> str:
    """Golden-test dump of all adjacency matrices of one log."""
    m = adjacency(log)
    parts = [
        m.S.dump("S"),
        m.N.dump("N"),
        m.S_tri.dump("S_tri"),
        m.N_tri.dump("N_tri"),
        m.E.dump("E"),
    ]
    return "\n".join(parts) + "\n"
