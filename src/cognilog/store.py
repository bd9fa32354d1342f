"""Plain-text persistence for logs and be-logs.

One file per log in a canonical, line-oriented UTF-8 format.  The writer
always emits objects sorted by id with a fixed key order, so parse/format is
an exact round trip on canonical files.  Labels are written in double quotes
with backslash escapes, so any label reads back as written.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .belog import BeLog, BeRelation, BeVerbType
from .errors import CognilogError, DuplicateIdError, ParseError
from .model import (
    Action,
    ELog,
    Kind,
    Participant,
    RawData,
    SLog,
    build_elog,
)

_P_KEYS = ("kind", "label")
_A_KEYS = ("who", "cs", "cn", "triv", "vol", "ts", "te", "label")
_B_KEYS = ("w", "label")


# Quoted values escape backslash, double quote and every character at which
# str.splitlines ends a line, so any label reads back as written.  A
# backslash that starts no escape reads as itself.
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"} | {
    c: f"\\u{ord(c):04x}" for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_UNESCAPES = {v: k for k, v in _ESCAPES.items()}
_ESCAPE_RE = re.compile("|".join(re.escape(v) for v in _UNESCAPES))


# One field: bare characters and complete quoted strings, up to whitespace.
# The last group holds a quote that never closes.
_FIELD_RE = re.compile(r'(?=\S)(?:[^\s"]+|"(?:[^"\\]|\\.)*")*("?)', re.S)


def _split_fields(line: str, lineno: int) -> list[tuple[str, int]]:
    """Whitespace-split that keeps quoted label values intact; returns
    (token, column) pairs, columns 1-based.  A backslash inside a quote
    escapes the next character."""
    out: list[tuple[str, int]] = []
    for m in _FIELD_RE.finditer(line):
        if m.group(1):
            raise ParseError("unterminated quote", lineno, m.start() + 1)
        out.append((m.group(), m.start() + 1))
    return out


def _records(lines: list[str]) -> Iterator[tuple[int, list[tuple[str, int]]]]:
    """(line number, fields) of each line that is neither blank nor a ``#``
    line; a log's header is a ``#`` line too."""
    for lineno, line in enumerate(lines, 1):
        stripped = line.lstrip()
        if stripped and not stripped.startswith("#"):
            yield lineno, _split_fields(line, lineno)


def _parse_kv(token: str, lineno: int, column: int) -> tuple[str, str]:
    if "=" not in token:
        if token == "vol":
            return "vol", "true"
        raise ParseError(f"expected key=value, got {token!r}", lineno, column)
    key, value = token.split("=", 1)
    if value.startswith('"') and value.endswith('"') and len(value) >= 2:
        value = _ESCAPE_RE.sub(lambda m: _UNESCAPES[m.group()], value[1:-1])
    return key, value


def _read_keys(
    fields: list[tuple[str, int]], keys: tuple[str, ...], lineno: int
) -> tuple[dict[str, str], dict[str, int]]:
    """The key=value fields of one line as (values, columns) by key; a key
    outside ``keys`` or given twice is an error at its column."""
    values: dict[str, str] = {}
    cols: dict[str, int] = {}
    for token, col in fields:
        key, value = _parse_kv(token, lineno, col)
        if key not in keys:
            raise ParseError(f"unknown key {key!r}", lineno, col)
        if key in values:
            raise ParseError(f"duplicate key {key!r}", lineno, col)
        values[key] = value
        cols[key] = col
    return values, cols


def _parse_int(value: str, key: str, lineno: int, column: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{key} must be an integer, got {value!r}", lineno, column)


def parse_log(text: str) -> ELog:
    """Parse one e-log or s-log from canonical text."""
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines) if line.strip()), None)
    if start is None:
        raise ParseError("empty file", 1, 1)
    parts = lines[start].split()
    if len(parts) != 2 or parts[0] not in ("#ELOG", "#SLOG"):
        raise ParseError("expected '#ELOG <id>' or '#SLOG <id>'", start + 1, 1)
    slog = parts[0] == "#SLOG"

    participants: list[Participant] = []
    actions: list[Action] = []
    for lineno, fields in _records(lines):
        tag, tag_col = fields[0]
        if tag not in ("P", "A"):
            raise ParseError(f"unknown line tag {tag!r}", lineno, tag_col)
        if len(fields) < 2:
            raise ParseError(f"{tag} line needs an id", lineno, tag_col)
        oid = fields[1][0]
        kv, cols = _read_keys(fields[2:], _P_KEYS if tag == "P" else _A_KEYS, lineno)
        if tag == "P":
            kind = Kind.CLASS if slog else Kind.PLAIN
            if "kind" in kv:
                try:
                    kind = Kind(kv["kind"])
                except ValueError:
                    raise ParseError(f"unknown kind {kv['kind']!r}", lineno, cols["kind"])
            participants.append(Participant(id=oid, label=kv.get("label", ""), kind=kind))
            continue
        if "who" not in kv:
            raise ParseError("A line needs who=", lineno, tag_col)
        ts = _parse_int(kv["ts"], "ts", lineno, cols["ts"]) if "ts" in kv else None
        te = _parse_int(kv["te"], "te", lineno, cols["te"]) if "te" in kv else None
        try:
            raw = RawData(t_start=ts, t_end=te)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, tag_col)
        actions.append(
            Action(
                id=oid,
                who=kv["who"],
                cause_s=kv.get("cs", "unknown"),
                cause_n=kv.get("cn", "unknown"),
                trivial_partner=kv.get("triv"),
                volition=kv.get("vol") == "true",
                label=kv.get("label", ""),
                raw=raw,
            )
        )
    return build_elog(parts[1], tuple(actions), tuple(participants), slog=slog)


def _quote(label: str) -> str:
    return '"' + label.translate(_ESCAPE_TABLE) + '"'


def format_log(log: ELog) -> str:
    """Canonical text for a log: header, P lines, A lines, ids sorted."""
    slog = isinstance(log, SLog)
    out = [f"#{'SLOG' if slog else 'ELOG'} {log.id}"]
    default_kind = Kind.CLASS if slog else Kind.PLAIN
    for p in sorted(log.nonsentinel_participants, key=lambda p: p.id):
        line = f"P {p.id}"
        if p.kind != default_kind:
            line += f" kind={p.kind.value}"
        if p.label:
            line += f" label={_quote(p.label)}"
        out.append(line)
    for a in sorted(log.nonsentinel_actions, key=lambda a: a.id):
        line = f"A {a.id} who={a.who} cs={a.cause_s} cn={a.cause_n}"
        if a.trivial_partner:
            line += f" triv={a.trivial_partner}"
        if a.volition:
            line += " vol"
        if a.t_start is not None:
            line += f" ts={a.t_start}"
        if a.t_end is not None:
            line += f" te={a.t_end}"
        if a.label:
            line += f" label={_quote(a.label)}"
        out.append(line)
    return "\n".join(out) + "\n"


def parse_belog(text: str) -> BeLog:
    relations: list[BeRelation] = []
    for lineno, fields in _records(text.splitlines()):
        tag, tag_col = fields[0]
        if tag != "B":
            raise ParseError(f"unknown line tag {tag!r}", lineno, tag_col)
        if len(fields) < 4:
            raise ParseError("B line needs type, source, target", lineno, tag_col)
        type_token, type_col = fields[1]
        try:
            type_ = BeVerbType(type_token)
        except ValueError:
            raise ParseError(f"unknown be-verb type {type_token!r}", lineno, type_col)
        source, target = fields[2][0], fields[3][0]
        kv, cols = _read_keys(fields[4:], _B_KEYS, lineno)
        try:
            weight = float(kv.get("w", 1.0))
        except ValueError:
            raise ParseError(f"w must be a real, got {kv['w']!r}", lineno, cols["w"])
        try:
            relations.append(
                BeRelation(
                    id=f"b{len(relations) + 1}", type=type_, source=source,
                    target=target, weight=weight, label=kv.get("label", ""),
                )
            )
        except ValueError as exc:
            raise ParseError(str(exc), lineno, tag_col)
    return BeLog(tuple(relations))


def format_belog(b: BeLog) -> str:
    out = []
    for r in b.relations:
        line = f"B {r.type.value} {r.source} {r.target}"
        if r.weight != 1.0:
            line += f" w={r.weight}"
        if r.label:
            line += f" label={_quote(r.label)}"
        out.append(line)
    return "\n".join(out) + ("\n" if out else "")


_EXTENSIONS = (".elog", ".slog", ".belog")


def _read_text(path: Path) -> str:
    """The UTF-8 text of the file; a byte that is not UTF-8 is a
    ``ParseError`` at its line and column, counted as the parser counts."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; "x" stands for the bad
        # byte, so a line break just before it still opens a new line
        lines = (data[: exc.start].decode("utf-8") + "x").splitlines()
        raise ParseError(
            f"byte 0x{data[exc.start]:02x} is not UTF-8", len(lines), len(lines[-1])
        ) from None


@dataclass
class Store:
    """Directory of log files with an in-memory index (file name -> type,
    log id or be-log name, mtime): a log and a be-log may share a name, and
    each file keeps its entry.  Be-logs stay per file; ``belog`` is the
    merged view."""

    root: Path
    logs: dict[str, ELog] = field(default_factory=dict)
    belogs: dict[str, BeLog] = field(default_factory=dict)
    index: dict[str, tuple[str, str, float]] = field(default_factory=dict)

    @property
    def belog(self) -> BeLog:
        relations: list[BeRelation] = []
        for name in sorted(self.belogs):
            relations.extend(self.belogs[name].relations)
        return BeLog(tuple(relations))


def load(path: str | os.PathLike) -> Store:
    """Read every log and be-log file directly inside the directory; two
    log files with the same id raise ``DuplicateIdError`` naming both.
    Subdirectories are skipped, whatever their names."""
    root = Path(path)
    store = Store(root=root)
    file_of: dict[str, str] = {}  # log id -> file name
    for file in sorted(root.iterdir()) if root.is_dir() else []:
        if file.suffix not in _EXTENSIONS or not file.is_file():
            continue
        try:
            text = _read_text(file)
            if file.suffix == ".belog":
                store.belogs[file.stem] = parse_belog(text)
                store.index[file.name] = ("belog", file.stem, file.stat().st_mtime)
            else:
                log = parse_log(text)
                first = file_of.setdefault(log.id, file.name)
                if first != file.name:
                    raise DuplicateIdError(
                        f"log id {log.id!r} in both {first} and {file.name}"
                    )
                store.logs[log.id] = log
                kind = "slog" if isinstance(log, SLog) else "elog"
                store.index[file.name] = (kind, log.id, file.stat().st_mtime)
        except ParseError as exc:
            raise ParseError(f"{file.name}: {exc.message}", exc.line, exc.column)
    return store


def save(store: Store, path: str | os.PathLike | None = None) -> None:
    """Write every log and be-log as a file directly inside the root; a name
    that would leave it is refused before anything is written."""
    root = Path(path) if path is not None else store.root
    files: dict[str, str] = {}
    for log in store.logs.values():
        suffix = ".slog" if isinstance(log, SLog) else ".elog"
        files[f"{log.id}{suffix}"] = format_log(log)
    for name, b in store.belogs.items():
        files[f"{name}.belog"] = format_belog(b)
    for name in files:
        if Path(name).name != name or "\0" in name:
            raise CognilogError(f"cannot save {name!r}: not a single file name")
    root.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")


def _resolve(name: str, suffixes: tuple[str, ...], parse):
    """Parse the file at path ``name``, or else the first existing file
    ``$COGNILOG_STORE/<name><suffix>``; directories are skipped, as in
    ``load``."""
    paths = [Path(name)]
    env = os.environ.get("COGNILOG_STORE")
    if env:
        paths += [Path(env) / f"{name}{ext}" for ext in suffixes]
    for p in paths:
        if p.is_file():
            return parse(_read_text(p))
    raise FileNotFoundError(name)


def resolve_log(name: str) -> ELog:
    """Load a log from a path, or from $COGNILOG_STORE by bare id."""
    return _resolve(name, (".elog", ".slog"), parse_log)


def resolve_belog(name: str | None) -> BeLog:
    """Load a be-log from a path, or from $COGNILOG_STORE by bare id; the
    empty be-log when no name is given."""
    return BeLog() if name is None else _resolve(name, (".belog",), parse_belog)
