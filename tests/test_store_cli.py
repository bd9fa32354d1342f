import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cognilog.belog import BeLog, BeVerbType
from cognilog.cli import main
from cognilog.errors import CognilogError, DuplicateIdError, ParseError
from cognilog.model import SLog
from cognilog.store import (
    Store,
    format_belog,
    format_log,
    load,
    parse_belog,
    parse_log,
    resolve_belog,
    resolve_log,
    save,
)

from conftest import FIXTURES, load_belog, load_log


ALL_FIXTURES = sorted(FIXTURES.iterdir())


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_round_trip_byte_identical(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".belog":
        assert format_belog(parse_belog(text)) == text
    else:
        assert format_log(parse_log(text)) == text


def test_parse_slog_participants_are_classes():
    log = parse_log(Path(FIXTURES / "worker.slog").read_text())
    assert isinstance(log, SLog)
    assert all(p.kind.value == "class" for p in log.nonsentinel_participants)


def test_parse_error_unknown_key_with_position():
    with pytest.raises(ParseError) as err:
        parse_log("#ELOG x\nA a who=p foo=1\n")
    assert err.value.line == 2
    assert err.value.column == 11


def test_parse_error_repeated_key_on_every_line_kind():
    cases = (
        (parse_log, '#ELOG x\nP p label="a" label="b"\n', 2, 15, "label"),
        (parse_log, "#ELOG x\nP p\nA a who=p ts=1 ts=2\n", 3, 16, "ts"),
        (parse_belog, "B Similar a b w=0.5 w=0.7\n", 1, 21, "w"),
    )
    for parse, text, line, column, key in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert err.value.message == f"duplicate key {key!r}"


# Every error the reader raises, with its (line, column, message).
PARSE_ERRORS = [
    (parse_log, '#ELOG x\nP p label="open\n', 2, 5, "unterminated quote"),
    (parse_log, '#ELOG x\n\tP p label="a\\"\n', 2, 6, "unterminated quote"),
    (parse_log, "#ELOG x\nA a who=p bare\n", 2, 11, "expected key=value, got 'bare'"),
    (parse_log, "#ELOG x\nP p\nA a who=p ts=soon\n", 3, 11,
     "ts must be an integer, got 'soon'"),
    (parse_log, "#ELOG x\nP\n", 2, 1, "P line needs an id"),
    (parse_log, "#ELOG x\nA\n", 2, 1, "A line needs an id"),
    (parse_log, "#ELOG x\nP p kind=odd\n", 2, 5, "unknown kind 'odd'"),
    (parse_log, "#ELOG x\nA a\n", 2, 1, "A line needs who="),
    (parse_log, "#ELOG x\nP p\nA a who=p ts=5 te=2\n", 3, 1, "t_start 5 exceeds t_end 2"),
    (parse_log, "#ELOG x\nP p\nQ q\n", 3, 1, "unknown line tag 'Q'"),
    (parse_log, "\n#ELOG x\n# note\n\n  Q q\n", 5, 3, "unknown line tag 'Q'"),
    (parse_belog, "# note\n\nX a b\n", 3, 1, "unknown line tag 'X'"),
    (parse_belog, "B Similar a\n", 1, 1, "B line needs type, source, target"),
    (parse_belog, "B Similar a b w=heavy\n", 1, 15, "w must be a real, got 'heavy'"),
    (parse_belog, "B Similar a b w=2\n", 1, 1, "weight must be in (0, 1], got 2.0"),
    (parse_belog, "B Similar a b\n# c\nB Similar c c\n", 3, 1,
     "Similar relation 'b2' may not be reflexive"),
]


@pytest.mark.parametrize(
    "parse, text, line, column, message", PARSE_ERRORS,
    ids=[f"case{i}" for i in range(len(PARSE_ERRORS))],
)
def test_parse_error_table(parse, text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


def test_parse_error_names_a_bad_key_before_a_bad_value():
    with pytest.raises(ParseError) as err:
        parse_log("#ELOG x\nP p kind=odd foo=1\n")
    assert (err.value.column, err.value.message) == (14, "unknown key 'foo'")
    with pytest.raises(ParseError) as err:
        parse_belog("B Similar a b w=x w=1\n")
    assert (err.value.column, err.value.message) == (19, "duplicate key 'w'")


def test_parse_error_bad_header():
    with pytest.raises(ParseError):
        parse_log("ELOG x\n")
    with pytest.raises(ParseError):
        parse_log("")


def test_parse_error_unknown_beverb():
    with pytest.raises(ParseError) as err:
        parse_belog("B Be9 a c\n")
    assert err.value.line == 1


def test_labels_round_trip_with_spaces():
    text = '#ELOG x\nP p label="a friend"\nA a who=p cs=unknown cn=unknown label="waves hello"\n'
    log = parse_log(text)
    assert log.participant_by_id["p"].label == "a friend"
    assert format_log(log) == text


def test_labels_with_quotes_and_line_breaks_are_escaped():
    text = (
        '#ELOG x\nP p label="say \\"hi"\n'
        'A a who=p cs=unknown cn=unknown label="C:\\\\tmp\\nnext\\u2028line"\n'
    )
    log = parse_log(text)
    assert log.participant_by_id["p"].label == 'say "hi'
    assert log.action_by_id["a"].label == "C:\\tmp\nnext\u2028line"
    assert format_log(log) == text
    # a backslash that starts no escape reads as itself
    lenient = parse_log(text.replace("C:\\\\", "C:\\"))
    assert lenient.action_by_id["a"].label.startswith("C:\\tmp")


def test_store_load_save_identity(tmp_path):
    store = load(FIXTURES)
    assert "robot" in store.logs and "worker" in store.logs
    assert store.index["robot.elog"][:2] == ("elog", "robot")
    assert store.index["worker.slog"][:2] == ("slog", "worker")
    assert any(r.type == BeVerbType.BE3 for r in store.belog.relations)
    save(store, tmp_path)
    for src in ALL_FIXTURES:
        assert (tmp_path / src.name).read_bytes() == src.read_bytes()


def test_store_indexes_every_fixture_file():
    # robot.elog and robot.belog (blast.slog and blast.belog) share a name
    store = load(FIXTURES)
    assert sorted(store.index) == [p.name for p in ALL_FIXTURES]
    for name, (kind, key, _) in store.index.items():
        assert name == key + "." + kind


def test_belog_endpoint_with_a_quote_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_belog('B Similar a b\n  B Similar a"x y"b c\n')
    assert (err.value.line, err.value.column) == (2, 3)
    assert err.value.message == "invalid id 'a\"x y\"b' in relation 'b2'"


def test_save_writes_only_inside_its_root(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    (src / "x.elog").write_text("#ELOG ../escaped\n")
    store = load(src)
    with pytest.raises(CognilogError, match="not a single file name"):
        save(store, tmp_path / "out")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]
    del store.logs["../escaped"]
    for name in ("a/b", "a\0b"):
        store.belogs = {"first": BeLog(), name: BeLog()}
        with pytest.raises(CognilogError, match="not a single file name"):
            save(store, tmp_path / "out")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("second", ["b.elog", "a.slog"])
def test_load_rejects_two_files_with_one_log_id(tmp_path, second):
    (tmp_path / "a.elog").write_text("#ELOG x\n")
    header = "#SLOG x\n" if second.endswith(".slog") else "#ELOG x\n"
    (tmp_path / second).write_text(header)
    first, later = sorted(["a.elog", second])
    with pytest.raises(DuplicateIdError) as err:
        load(tmp_path)
    assert str(err.value) == f"log id 'x' in both {first} and {later}"


def test_store_empty_dir(tmp_path):
    store = load(tmp_path)
    assert store.logs == {} and store.belog.relations == ()


def test_load_skips_subdirectories(tmp_path):
    for name in ("x.elog", "x.slog", "x.belog"):
        (tmp_path / name).mkdir()
    (tmp_path / "a.elog").write_text("#ELOG a\n")
    store = load(tmp_path)
    assert list(store.logs) == ["a"] and store.belogs == {}
    assert list(store.index) == ["a.elog"]


@pytest.mark.parametrize(
    "data, line, column",
    [
        (b'#ELOG bad\nP p label="\xff"\n', 2, 12),
        (b"#ELOG bad\r\n\xff\n", 2, 1),
        (b"#ELOG bad\nP p label=\xc3\xa9\xfe\n", 2, 12),  # columns count characters
    ],
)
def test_load_reports_a_byte_that_is_not_utf8(tmp_path, data, line, column):
    (tmp_path / "bad.elog").write_bytes(data)
    with pytest.raises(ParseError) as err:
        load(tmp_path)
    assert (err.value.line, err.value.column) == (line, column)
    assert err.value.message.startswith("bad.elog: byte 0x")
    assert err.value.message.endswith(" is not UTF-8")


# -- CLI -------------------------------------------------------------------


def _fx(name):
    return str(FIXTURES / name)


def test_cli_validate_ok(capsys):
    assert main(["validate", _fx("empty.elog")]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.elog"
    bad.write_text("#ELOG bad\nA a who=p foo=1\n")
    assert main(["validate", str(bad)]) == 1
    # the position is printed once
    assert capsys.readouterr().err == (
        "parse error at line 2, column 11: unknown key 'foo'\n"
    )
    bad.write_text("A a who=p\n")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "parse error at line 1, column 1: expected '#ELOG <id>' or '#SLOG <id>'\n"
    )


def test_load_prefixes_parse_errors_with_the_file_name(tmp_path):
    (tmp_path / "bad.elog").write_text("#ELOG bad\nA a who=p foo=1\n")
    with pytest.raises(ParseError) as err:
        load(tmp_path)
    assert str(err.value) == "line 2, column 11: bad.elog: unknown key 'foo'"
    assert (err.value.line, err.value.column) == (2, 11)


def test_cli_reports_a_byte_that_is_not_utf8(tmp_path, capsys):
    log = tmp_path / "bad.elog"
    log.write_bytes(b'#ELOG bad\nP p label="\xff"\n')
    assert main(["validate", str(log)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error at line 2, column 12: byte 0xff is not UTF-8\n"
    belog = tmp_path / "bad.belog"
    belog.write_bytes(b"B Similar a b\r\nB Similar \xc3\xa9 \xfe\n")
    argv = ["match", _fx("robot.elog"), _fx("worker.slog"), "--belog", str(belog)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error at line 2, column 13: byte 0xfe is not UTF-8\n"


def test_cli_unreadable_log_path_is_an_error(capsys):
    assert main(["validate", str(FIXTURES)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the OSError text varies by platform; the exit code and prefix do not
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_usage_error():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "weights", ["0.5,0.5,x", "0.5,0.5,0.5", "nan,0.5,0.5", "2,-0.5,-0.5"]
)
def test_cli_bad_weights_are_usage_errors(weights, capsys):
    code = main(["match", _fx("robot.elog"), _fx("worker.slog"),
                 "--weights", weights])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["-1", "0"])
def test_cli_bad_max_candidates_are_usage_errors(count, capsys):
    code = main(["match", _fx("robot.elog"), _fx("worker.slog"),
                 "--max-candidates", count])
    assert code == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.err and captured.out == ""


@pytest.mark.parametrize("depth", ["0", "-3"])
@pytest.mark.parametrize("command", ["comprehend", "plan"])
def test_cli_bad_depth_is_a_usage_error(command, depth, capsys):
    logs = [_fx("robot.elog"), _fx("worker.slog")]
    if command == "plan":
        logs.insert(0, "is_carried")
    code = main([command, *logs, "--belog", _fx("robot.belog"), "--depth", depth])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and captured.out == ""


def test_cli_match_prints_both_mappings(capsys):
    code = main([
        "match", _fx("robot.elog"), _fx("worker.slog"),
        "--belog", _fx("robot.belog"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "dolly  worker" in out
    assert "dolly  cargo" in out


def test_cli_match_deterministic(capsys):
    args = ["match", _fx("robot.elog"), _fx("worker.slog"),
            "--belog", _fx("robot.belog")]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_cli_match_tsv_header(capsys):
    main(["--format", "tsv", "match", _fx("robot.elog"), _fx("worker.slog"),
          "--belog", _fx("robot.belog")])
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "kind\tsource\ttarget\tdetail"


def test_cli_infer_writes_extended_log(tmp_path, capsys):
    out_file = tmp_path / "x.elog"
    code = main([
        "infer", _fx("explosion.elog"), _fx("blast.slog"),
        "--belog", _fx("blast.belog"), "--min-compat", "0.5",
        "--out", str(out_file),
    ])
    assert code == 0
    text = out_file.read_text()
    assert "A destroys who=explosive cs=exploded" in text
    assert "A is_destroyed who=tower cs=destroys" in text
    stdout = capsys.readouterr().out
    assert "destroys" in stdout and "future" in stdout


def test_cli_gen_slog(capsys):
    code = main([
        "gen-slog", _fx("robot.elog"),
        "carried", "was_carried0", "carried_load", "was_carried1",
        "--belog", _fx("robot.belog"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("#SLOG")
    assert "P carrier_class" in out


@pytest.mark.parametrize("flag", [
    ["--depth", "0"], ["--weights", "x"], ["--min-compat", "0.5"],
    ["--max-candidates", "-5"],
])
def test_cli_gen_slog_rejects_search_flags(flag, capsys):
    # gen-slog builds no SearchConfig, so it does not take the search flags
    code = main(["gen-slog", _fx("robot.elog"), "carried", *flag])
    assert code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and captured.out == ""


def test_cli_dump_matrices(capsys):
    assert main(["dump-matrices", _fx("bob_alice.elog")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("M S 4x4")


# abstract on robot/worker: (score line, images of carried, carried_load,
# was_carried0, was_carried1, images of bottle, dolly, robot) per candidate
ROBOT_CANDIDATES = [
    ("0.9643  structural=1.0000  temporal=1.0000  similarity=0.8571",
     "carries carries carries is_carried", "cargo worker worker"),
    ("0.9643  structural=1.0000  temporal=1.0000  similarity=0.8571",
     "carries is_carried is_carried is_carried", "cargo cargo worker"),
    ("0.8095  structural=1.0000  temporal=0.6667  similarity=0.5714",
     "carries is_carried is_carried carries", "worker cargo worker"),
    ("0.8095  structural=1.0000  temporal=0.6667  similarity=0.5714",
     "is_carried carries carries is_carried", "cargo worker cargo"),
    ("0.6964  structural=1.0000  temporal=0.5000  similarity=0.2857",
     "is_carried carries carries carries", "worker worker cargo"),
    ("0.6964  structural=1.0000  temporal=0.5000  similarity=0.2857",
     "is_carried is_carried is_carried carries", "worker cargo cargo"),
]
ROBOT_ABSTRACT = "".join(
    f"candidate={i}      residue=\nscore  {score}\n"
    + "".join(f"action  {x}  {y}  \n" for x, y in zip(
        ("carried", "carried_load", "was_carried0", "was_carried1"), actions.split()))
    + "".join(f"participant  {x}  {y}  \n" for x, y in zip(
        ("bottle", "dolly", "robot"), participants.split()))
    for i, (score, actions, participants) in enumerate(ROBOT_CANDIDATES)
)


@pytest.mark.parametrize("argv, out", [
    (["abstract", "robot.elog", "worker.slog"], ROBOT_ABSTRACT),
    (["comprehend", "robot.elog", "worker.slog"],
     "TREE  0  n0.0  worker  -  "
     "bottle,carried,carried_load,dolly,robot,was_carried0,was_carried1\n"),
    (["classify", "robot.elog", "worker.slog"], ""),
    (["plan", "is_carried", "robot.elog", "worker.slog"],
     "plan=0  worker  cargo->bottle,worker->dolly\n"
     "plan=1  worker  cargo->bottle,worker->robot\n"
     "plan=2  worker  cargo->dolly,worker->robot\n"),
], ids=["abstract", "comprehend", "classify", "plan"])
def test_cli_reasoning_commands_on_robot_worker(argv, out, capsys):
    command, *names = argv
    logs = [name if "." not in name else _fx(name) for name in names]
    code = main([command, *logs, "--belog", _fx("robot.belog")])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, out, "")


@pytest.mark.parametrize("command", ["comprehend", "classify", "plan"])
def test_cli_library_must_hold_slogs(command, capsys):
    logs = [_fx("robot.elog"), _fx("worker.slog"), _fx("robot.elog")]
    if command == "plan":
        logs.insert(0, "was_carried1")
    assert main([command, *logs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {_fx('robot.elog')} is not an s-log\n"


def test_cli_infer_reports_an_ambiguous_preimage(tmp_path, capsys):
    e = tmp_path / "e3.elog"
    e.write_text("#ELOG e3\nP p1\nP p2\nA a who=p1\nA b who=p2\n")
    s = tmp_path / "s3.slog"
    s.write_text("#SLOG s3\nP k\nA x who=k\nA y who=k cs=x\n")
    code = main(["infer", str(e), str(s)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "", "error: s-log participant 'k' has preimages ['p1', 'p2']\n"
    )


def test_cli_plan_no_goal(capsys):
    code = main(["plan", "nonexistent_goal", _fx("robot.elog"),
                 _fx("worker.slog")])
    assert code == 1


def test_cli_env_store_resolution(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COGNILOG_STORE", str(FIXTURES))
    assert main(["validate", "bob_alice"]) == 0


def test_store_resolution_skips_directories(tmp_path, monkeypatch, capsys):
    store = tmp_path / "store"
    store.mkdir()
    (store / "x.elog").mkdir()
    (store / "x.slog").write_text((FIXTURES / "worker.slog").read_text())
    (store / "y.elog").mkdir()
    (store / "y.slog").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COGNILOG_STORE", str(store))
    assert main(["validate", "x"]) == 0
    assert main(["validate", "y"]) == 1
    assert main(["validate", "store"]) == 1
    err = capsys.readouterr().err
    assert "Is a directory" not in err


def test_bare_ids_resolve_through_the_store(monkeypatch):
    monkeypatch.setenv("COGNILOG_STORE", str(FIXTURES))
    assert resolve_belog("robot") == load_belog("robot.belog")
    assert resolve_log("robot") == load_log("robot.elog")
    assert resolve_belog(None) == BeLog()
    monkeypatch.delenv("COGNILOG_STORE")
    with pytest.raises(FileNotFoundError):
        resolve_belog("robot")


def test_cli_missing_file(capsys):
    assert main(["validate", "no_such_file.elog"]) == 1


# -- CLI on mutated input ----------------------------------------------------

FUZZ_FILES = ("robot.elog", "worker.slog", "robot.belog")
FUZZ_TOKENS = (
    '"', "\\", '""', 'label="a b"', "ts=-1", "te=-1", "kind=sentinel", "kind=class",
    "w=0", "w=0.5", "vol", "nothing", "unknown", "nobody", "who=nobody", "cs=carried",
    "cn=ghost", "triv=carried", "A", "P", "B", "Be3", "#SLOG",
)
FUZZ_COMMANDS = (
    "validate", "dump-matrices", "match", "infer", "abstract", "gen-slog",
    "comprehend", "classify", "plan",
)
FUZZ_FLAGS = (
    [], ["--depth", "0"], ["--depth", "2"], ["--max-candidates", "1"],
    ["--min-compat", "0.9"], ["--weights", "1,0,0"], ["--weights", "x"],
)


@st.composite
def mutated_fixtures(draw):
    """One robot/worker fixture with lines dropped or duplicated and tokens
    replaced or inserted."""
    name = draw(st.sampled_from(FUZZ_FILES))
    lines = (FIXTURES / name).read_text(encoding="utf-8").splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("drop", "duplicate", "replace", "insert")))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split(" ")
            j = draw(st.integers(0, len(tokens) - (op == "replace")))
            tokens[j:j + (op == "replace")] = [draw(st.sampled_from(FUZZ_TOKENS))]
            lines[i] = " ".join(tokens)
    return name, "".join(line + "\n" for line in lines)


@settings(max_examples=120, deadline=None)
@given(mutated_fixtures(), st.sampled_from(FUZZ_COMMANDS), st.sampled_from(FUZZ_FLAGS))
def test_cli_ends_every_mutated_input_with_a_typed_outcome(fixture, command, flags):
    name, text = fixture
    with tempfile.TemporaryDirectory() as tmp:
        path = {n: _fx(n) for n in FUZZ_FILES} | {name: os.path.join(tmp, name)}
        Path(path[name]).write_text(text, encoding="utf-8")
        e, s, b = (path[n] for n in FUZZ_FILES)
        if command in ("validate", "dump-matrices"):
            argv = [command, path[name]]
        elif command == "gen-slog":
            argv = [command, e, "carried", "--belog", b]
        else:
            argv = [command, *(["is_carried"] if command == "plan" else []),
                    e, s, "--belog", b, *flags]
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    message = err.getvalue()
    if code == 0:
        assert message == ""
    elif code == 2:
        assert message.startswith("usage error: ") and message.count("\n") == 1
    elif command not in ("validate", "match", "abstract"):
        # match and abstract exit 1 on no result, and validate prints its
        # violations on stdout; every other failure is one line on stderr
        assert message.count("\n") == 1
