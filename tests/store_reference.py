"""Character scanner for one line of the text format: the referee for
``cognilog.store._split_fields``.

This is the reader's earlier tokenizer, one character at a time.  The store
now reads fields with one compiled pattern; the tests compare the two.
"""

from __future__ import annotations

from cognilog.errors import ParseError


def split_fields(line: str, lineno: int) -> list[tuple[str, int]]:
    """Whitespace-split that keeps quoted label values intact; returns
    (token, column) pairs, columns 1-based.  A backslash inside a quote
    escapes the next character."""
    out: list[tuple[str, int]] = []
    i, n = 0, len(line)
    while i < n:
        if line[i].isspace():
            i += 1
            continue
        start = i
        while i < n and not line[i].isspace():
            if line[i] == '"':
                i += 1
                while i < n and line[i] != '"':
                    i += 2 if line[i] == "\\" else 1
                if i >= n:
                    raise ParseError("unterminated quote", lineno, start + 1)
            i += 1
        out.append((line[start:i], start + 1))
    return out
