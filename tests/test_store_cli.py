import os
from pathlib import Path

import pytest

from cognilog.belog import BeLog, BeVerbType
from cognilog.cli import main
from cognilog.errors import ParseError
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
    assert store.index["robot"][0] == "elog"
    assert store.index["worker"][0] == "slog"
    assert any(r.type == BeVerbType.BE3 for r in store.belog.relations)
    save(store, tmp_path)
    for src in ALL_FIXTURES:
        assert (tmp_path / src.name).read_bytes() == src.read_bytes()


def test_store_empty_dir(tmp_path):
    store = load(tmp_path)
    assert store.logs == {} and store.belog.relations == ()


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


def test_cli_plan_no_goal(capsys):
    code = main(["plan", "nonexistent_goal", _fx("robot.elog"),
                 _fx("worker.slog")])
    assert code == 1


def test_cli_env_store_resolution(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COGNILOG_STORE", str(FIXTURES))
    assert main(["validate", "bob_alice"]) == 0


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
