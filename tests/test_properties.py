"""Hypothesis property tests for the algebraic kernels."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cognilog.belog import BeLog, BeRelation, BeVerbType, similarity_by_characteristics
from cognilog.boolmat import BoolMatrix, causal_closure
from cognilog.errors import NotTriangularError, ParseError
from cognilog.model import SENTINELS, Action, Kind, Participant, RawData, build_elog
from cognilog.store import _split_fields, format_belog, format_log, parse_belog, parse_log

from matrix_reference import causal_closure_with_stats
from store_reference import split_fields

TOKENS = ["t0", "t1", "t2", "t3", "t4"]


@st.composite
def char_belogs(draw):
    rels = []
    n = 0
    for owner in ("A", "B", "C"):
        for tok in draw(st.sets(st.sampled_from(TOKENS))):
            n += 1
            rels.append(BeRelation(id=f"r{n}", type=BeVerbType.BE4,
                                   source=owner, target=tok))
    return BeLog(tuple(rels))


@st.composite
def dag_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    ids = tuple(f"v{i}" for i in range(n))
    m = BoolMatrix.zeros(ids, ids)
    for i in range(n):
        for j in range(i):
            if draw(st.booleans()):
                m.set(i, j)
    return m


@st.composite
def digraph_matrices(draw):
    """Any square matrix: cycles, self-loops and the empty matrix included."""
    n = draw(st.integers(min_value=0, max_value=7))
    ids = tuple(f"v{i}" for i in range(n))
    m = BoolMatrix.zeros(ids, ids)
    for i in range(n):
        m.rows[i] = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return m


@given(char_belogs())
def test_similarity_bounds_and_identity(b):
    s = similarity_by_characteristics(b, "A", "B")
    assert 0 <= s <= 1 and isinstance(s, Fraction)
    assert similarity_by_characteristics(b, "A", "A") == 1


@given(char_belogs())
def test_full_similarity_is_transitive(b):
    if (similarity_by_characteristics(b, "A", "B") == 1
            and similarity_by_characteristics(b, "B", "C") == 1):
        assert similarity_by_characteristics(b, "A", "C") == 1


@settings(max_examples=60)
@given(dag_matrices())
def test_closure_is_idempotent_and_monotone(m):
    c = causal_closure(m)
    assert causal_closure(c, allow_cycles=True) == c
    for i, j in m.entries():
        assert c.get(i, j)


@settings(max_examples=150)
@given(digraph_matrices(), st.booleans())
def test_closure_kernel_equals_power_series(m, allow_cycles):
    def outcome(closure):
        try:
            return closure(m, allow_cycles=allow_cycles).rows
        except NotTriangularError as exc:
            return str(exc)

    referee = outcome(lambda x, **kw: causal_closure_with_stats(x, **kw)[0])
    assert outcome(causal_closure) == referee


@settings(max_examples=60)
@given(dag_matrices(), dag_matrices())
def test_union_closure_contains_closures(a, b):
    if len(a.row_ids) != len(b.row_ids):
        return
    b = BoolMatrix(a.row_ids, a.col_ids, list(b.rows))
    u = causal_closure(a | b)
    ca, cb = causal_closure(a), causal_closure(b)
    for i, j in list(ca.entries()) + list(cb.entries()):
        assert u.get(i, j)


# Ids: printable, no whitespace, no double quote.  Labels: any printable
# text plus the characters that end a line.
IDS = st.text(
    st.characters(blacklist_categories=("C", "Z"), blacklist_characters='"'),
    min_size=1, max_size=6,
).filter(lambda s: s not in SENTINELS)
LABELS = st.text(
    st.one_of(
        st.characters(blacklist_categories=("Cs",)).filter(str.isprintable),
        st.sampled_from('\\"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029'),
    ),
    max_size=12,
)


@st.composite
def labelled_logs(draw):
    ids = draw(st.lists(IDS, min_size=1, max_size=6, unique=True))
    n_parts = draw(st.integers(min_value=1, max_value=len(ids)))
    slog = draw(st.booleans())
    kinds = st.just(Kind.CLASS) if slog else st.sampled_from(Kind)
    parts = tuple(
        Participant(id=pid, label=draw(LABELS), kind=draw(kinds))
        for pid in ids[:n_parts]
    )
    actions = []
    for aid in ids[n_parts:]:
        ts = draw(st.one_of(st.none(), st.integers(0, 9)))
        actions.append(Action(
            id=aid, who=draw(st.sampled_from(ids[:n_parts])),
            volition=draw(st.booleans()), label=draw(LABELS),
            raw=RawData(t_start=ts, t_end=ts),
        ))
    return build_elog("h", tuple(actions), parts, slog=slog)


@settings(max_examples=150)
@given(labelled_logs())
def test_log_text_round_trips_any_label(log):
    text = format_log(log)
    back = parse_log(text)
    assert back == log and type(back) is type(log)
    assert format_log(back) == text


@settings(max_examples=100)
@given(st.lists(st.tuples(IDS, LABELS), max_size=5))
def test_belog_text_round_trips_any_label(rows):
    b = BeLog(tuple(
        BeRelation(f"b{n}", BeVerbType.SIMILAR, source=x, target=x + "'", label=label)
        for n, (x, label) in enumerate(rows, 1)
    ))
    text = format_belog(b)
    assert parse_belog(text) == b
    assert format_belog(parse_belog(text)) == text


# Lines for the field scanner: letters, '=', quotes, backslashes, and ASCII
# and Unicode whitespace (line breaks included, though no split line has one).
SCANNER_LINES = st.text(
    st.one_of(
        st.sampled_from('"\\'),
        st.sampled_from("ab="),
        st.sampled_from(" \t\n\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2000\u2028\u3000"),
    ),
    max_size=24,
)


@settings(max_examples=500)
@given(SCANNER_LINES)
@example('a="\\\n" b')
def test_field_pattern_equals_character_scanner(line):
    def outcome(split):
        try:
            return split(line, 7)
        except ParseError as exc:
            return exc.message, exc.line, exc.column

    assert outcome(_split_fields) == outcome(split_fields)
