"""A tiny string dialect compiling to :mod:`repro.query.plan` trees.

Grammar (keywords case-insensitive; ``[...]`` optional)::

    query     := [action] expr
    action    := "top" INT
               | "estimate" ["all" | STRING]
    expr      := operand {setop operand}          # left-associative
    setop     := "union" | "intersect" | "diff" | "jaccard"
    operand   := "(" expr ")" | selection
    selection := ["from" NAME] [where] [window]   # empty = scan default
    where     := "where" "key" ( ("=" | "==") STRING
                               | "startswith" STRING
                               | "in" "(" STRING {"," STRING} ")" )
    window    := "window" DURATION ["bucket" DURATION] ["ending" NUMBER]
    DURATION  := NUMBER | NUMBER("s"|"m"|"h"|"d")

Examples::

    top 10
    top 10 where key startswith 'country:'
    estimate all
    estimate 'country:US'
    estimate where key in ('country:US', 'country:DE')
    window 1h ending 7200
    from today intersect from lastweek
    top 3 (from live union from history)

With no action the query is sketch-valued and the executor applies an
implicit ``estimate all``. ``window`` takes its bucket layout from the
scanned source when that is a windowed counter; ``bucket`` overrides
it, and a window over any other source (a store of retired buckets)
needs it. ``ending`` anchors the window's newest edge at an absolute
time instead of execution-time ``now``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.query.plan import (
    Estimate,
    Filter,
    PlanNode,
    Scan,
    SetOp,
    TopK,
    Window,
)


class ParseError(ValueError):
    """Raised for queries the dialect cannot parse."""


_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}

_TOKEN_RE = re.compile(
    r"""\s*(?:
      (?P<string>'[^']*'|"[^"]*")
    | (?P<duration>\d+(?:\.\d+)?[smhd]\b)
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_\-]*)
    | (?P<punct>==|=|\(|\)|,)
    )""",
    re.VERBOSE,
)

_SET_OP_WORDS = ("union", "intersect", "diff", "jaccard")


@dataclass(frozen=True)
class _Token:
    kind: str  # "string" | "duration" | "number" | "name" | "punct"
    text: str


def _tokenize(text: str) -> "list[_Token]":
    tokens: "list[_Token]" = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            remainder = text[position:].lstrip()
            if not remainder:
                break
            raise ParseError(f"cannot tokenize {remainder[:20]!r}")
        for kind in ("string", "duration", "number", "name", "punct"):
            value = match.group(kind)
            if value is not None:
                tokens.append(_Token(kind, value))
                break
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: "list[_Token]") -> None:
        self._tokens = tokens
        self._index = 0

    # -- token helpers ---------------------------------------------------------

    def _peek(self) -> "_Token | None":
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _peek_word(self) -> "str | None":
        token = self._peek()
        if token is not None and token.kind == "name":
            return token.text.lower()
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of query")
        self._index += 1
        return token

    def _accept_word(self, *words: str) -> "str | None":
        word = self._peek_word()
        if word in words:
            self._index += 1
            return word
        return None

    def _expect_word(self, word: str) -> None:
        if self._accept_word(word) is None:
            token = self._peek()
            found = token.text if token is not None else "end of query"
            raise ParseError(f"expected {word!r}, found {found!r}")

    def _expect_punct(self, text: str) -> None:
        token = self._peek()
        if token is None or token.kind != "punct" or token.text != text:
            found = token.text if token is not None else "end of query"
            raise ParseError(f"expected {text!r}, found {found!r}")
        self._index += 1

    def _string(self) -> str:
        token = self._next()
        if token.kind != "string":
            raise ParseError(f"expected a quoted string, found {token.text!r}")
        return token.text[1:-1]

    def _number(self) -> float:
        token = self._next()
        if token.kind != "number":
            raise ParseError(f"expected a number, found {token.text!r}")
        return float(token.text)

    def _integer(self) -> int:
        token = self._next()
        if token.kind != "number" or "." in token.text:
            raise ParseError(f"expected an integer, found {token.text!r}")
        return int(token.text)

    def _duration(self) -> float:
        token = self._next()
        if token.kind == "duration":
            return float(token.text[:-1]) * _DURATION_UNITS[token.text[-1]]
        if token.kind == "number":
            return float(token.text)
        raise ParseError(
            f"expected a duration (e.g. 90s, 15m, 1h), found {token.text!r}"
        )

    # -- grammar ---------------------------------------------------------------

    def parse(self) -> PlanNode:
        plan = self._query()
        leftover = self._peek()
        if leftover is not None:
            raise ParseError(f"trailing input at {leftover.text!r}")
        return plan

    def _query(self) -> PlanNode:
        if self._accept_word("top"):
            count = self._integer()
            return TopK(self._expr(), count)
        if self._accept_word("estimate"):
            self._accept_word("all")  # optional, purely for readability
            token = self._peek()
            if token is not None and token.kind == "string":
                key = self._string()
                return Estimate(Filter(self._expr(), keys=(key,)))
            return Estimate(self._expr())
        return self._expr()

    def _expr(self) -> PlanNode:
        node = self._operand()
        while True:
            op = self._accept_word(*_SET_OP_WORDS)
            if op is None:
                return node
            if isinstance(node, SetOp) and node.op != "union":
                raise ParseError(
                    f"{node.op!r} produces a scalar and cannot be an operand "
                    f"of {op!r}; parenthesise a union instead"
                )
            node = SetOp(op, node, self._operand())

    def _operand(self) -> PlanNode:
        token = self._peek()
        if token is not None and token.kind == "punct" and token.text == "(":
            self._index += 1
            node = self._expr()
            self._expect_punct(")")
            return node
        return self._selection()

    def _selection(self) -> PlanNode:
        node: PlanNode
        if self._accept_word("from"):
            name = self._next()
            if name.kind != "name":
                raise ParseError(f"expected a source name, found {name.text!r}")
            node = Scan(name.text)
        else:
            node = Scan()
        filter_node = self._where()
        if filter_node is not None:
            node = filter_node(node)
        window = self._window()
        if window is not None:
            node = window(node)
        return node

    def _where(self):
        if not self._accept_word("where"):
            return None
        self._expect_word("key")
        operator = self._peek()
        if operator is None:
            raise ParseError("expected an operator after 'where key'")
        if operator.kind == "punct" and operator.text in ("=", "=="):
            self._index += 1
            key = self._string()
            return lambda child: Filter(child, keys=(key,))
        if self._accept_word("startswith"):
            prefix = self._string()
            return lambda child: Filter(child, prefix=prefix)
        if self._accept_word("in"):
            self._expect_punct("(")
            keys = [self._string()]
            while True:
                token = self._peek()
                if token is not None and token.kind == "punct" and token.text == ",":
                    self._index += 1
                    keys.append(self._string())
                else:
                    break
            self._expect_punct(")")
            return lambda child: Filter(child, keys=tuple(keys))
        raise ParseError(
            f"expected '=', 'startswith' or 'in' after 'where key', "
            f"found {operator.text!r}"
        )

    def _window(self):
        if not self._accept_word("window"):
            return None
        duration = self._duration()
        bucket_width = None
        end = None
        if self._accept_word("bucket"):
            bucket_width = self._duration()
        if self._accept_word("ending"):
            end = self._number()
        return lambda child: Window(
            child, duration, end=end, bucket_width=bucket_width
        )


def parse(text: str) -> PlanNode:
    """Compile one dialect query into a logical plan tree.

    >>> parse("top 10 where key startswith 'country:'")
    TopK(child=Filter(child=Scan(source='default'), keys=None, prefix=b'country:', predicate=None), count=10)
    """
    return _Parser(_tokenize(text)).parse()
