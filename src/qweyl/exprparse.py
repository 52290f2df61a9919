"""A small expression language for operators, elements and q-brackets.

Grammar (whitespace-insensitive):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor factor*                 -- juxtaposition composes/multiplies
    factor := atom | '(' expr ')' | '[' expr ',' expr ']' qtag?
    qtag   := '_q' | '_{q^-1}'
    atom   := [xdsef]N | KN | sN^-1 | KN^-1 | t(ints) | E(int,int)
            | q | q^int | int | x^(ints)

Indices are 1-based.  x/d/s/t atoms and the named generator atoms e/f/K
live in operator context; x^(...) monomials live in element context; q
powers and integers are scalars valid in both.  This module only parses:
str() of an Element or Operator prints this language, and re-parsing the
printed text reproduces the value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .aqn import Element, mul
from .errors import (ContextMix, ExprSyntaxError, InvalidIndex, QweylError,
                     RankMismatch)
from .qindex import MultiIndex
from .qring import q_power
from .uqrealize import build_realization, root_op
from .weylops import D, Operator, S, T, X, compose

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<monomial>x\^\(\s*-?\d+(?:\s*,\s*-?\d+)*\s*\))
      | (?P<theta>t\(\s*-?\d+(?:\s*,\s*-?\d+)*\s*\))
      | (?P<rootop>E\(\s*\d+\s*,\s*\d+\s*\))
      | (?P<gen>[xdsef]\d+(?:\^-1)?|K\d+(?:\^-1)?)
      | (?P<qpow>q(?:\^-?\d+)?)
      | (?P<int>\d+)
      | (?P<qtag_inv>_\{q\^-1\})
      | (?P<qtag>_q)
      | (?P<punct>[+\-()\[\],])
    """, re.VERBOSE)

_INTS_RE = re.compile(r"-?\d+")


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            out.append(_Token(kind, m.group(), pos))
        pos = m.end()
    return out


class _Parser:
    """Builds the value while it parses.  The context supplies the unit
    value, the product of juxtaposition and a reader for the x/d/s/e/f/K,
    t(...), E(...) and x^(...) atoms.  A syntax error anywhere wins: an atom
    the reader rejects stands in as zero, and the leftmost such error is
    raised only once the whole text has parsed."""

    def __init__(self, src: str, one, product, atom):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0
        self.one = one
        self.product = product
        self.atom = atom
        self.error: QweylError | None = None

    def peek(self) -> _Token | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Token:
        t = self.peek()
        if t is None:
            raise ExprSyntaxError("unexpected end of input", len(self.src))
        self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.peek()
        if t is None or t.text != text:
            where = t.pos if t else len(self.src)
            raise ExprSyntaxError(f"expected {text!r}", where, expected=(text,))
        return self.next()

    def parse(self):
        value = self.expr()
        t = self.peek()
        if t is not None:
            raise ExprSyntaxError(f"unexpected {t.text!r}", t.pos)
        if self.error is not None:
            raise self.error
        return value

    def expr(self):
        t = self.peek()
        if t is not None and t.text == "-":
            self.next()
            if not self._at_factor():
                raise ExprSyntaxError("expected a term after '-'", t.pos)
            out = -self.term()
        else:
            out = self.term()
        while True:
            t = self.peek()
            if t is None or t.text not in ("+", "-"):
                return out
            self.next()
            if not self._at_factor():
                raise ExprSyntaxError(f"expected a term after {t.text!r}", t.pos)
            out = out + self.term() if t.text == "+" else out - self.term()

    def _at_factor(self) -> bool:
        t = self.peek()
        if t is None:
            return False
        return (t.kind in ("monomial", "theta", "rootop", "gen", "qpow", "int")
                or t.text in ("(", "["))

    def term(self):
        out = self.factor()
        while self._at_factor():
            out = self.product(out, self.factor())
        return out

    def factor(self):
        t = self.next()
        if t.kind == "int":
            return self.one.scale(int(t.text))
        if t.kind == "qpow":
            return self.one.scale(q_power(1 if t.text == "q" else int(t.text[2:])))
        if t.kind in ("gen", "theta", "rootop", "monomial"):
            if t.kind == "gen" and t.text.endswith("^-1") and t.text[0] not in "sK":
                raise ExprSyntaxError(
                    f"{t.text[0]}{int(t.text[1:-3])} is not invertible", t.pos)
            try:
                return self.atom(t.kind, t.text)
            except QweylError as exc:
                self.error = self.error or exc
                return self.one.scale(0)
        if t.text == "(":
            value = self.expr()
            self.expect(")")
            return value
        if t.text == "[":
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]")
            qexp = 0  # the c in [a,b]_c = ab - c ba, as a power of q
            nxt = self.peek()
            if nxt is not None and nxt.kind in ("qtag", "qtag_inv"):
                self.next()
                qexp = 1 if nxt.kind == "qtag" else -1
            return self.product(a, b) - self.product(b, a).scale(q_power(qexp))
        raise ExprSyntaxError(f"unexpected {t.text!r}", t.pos)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in _INTS_RE.findall(text))


def _operator_atom(kind: str, text: str, n: int) -> Operator:
    if kind == "monomial":
        raise ContextMix("monomial x^(...) in an operator expression")
    if kind == "theta":
        mu = _ints(text)
        if len(mu) != n:
            raise RankMismatch(f"t(...) takes {n} entries, got {len(mu)}")
        return Operator.from_word(n, [T(mu)])
    if kind == "rootop":
        return root_op(*_ints(text), n)
    inv = text.endswith("^-1")
    letter, i = text[0], int(text[1:-3] if inv else text[1:])
    if not 1 <= i <= n:
        raise InvalidIndex(f"index {i} outside 1..{n}")
    if letter == "x":
        return Operator.from_word(n, [X(i)])
    if letter == "d":
        return Operator.from_word(n, [D(i)])
    if letter == "s":
        return Operator.from_word(n, [S(i, -1 if inv else 1)])
    r = build_realization(n)
    if letter == "e":
        return r.e[i - 1]
    if letter == "f":
        return r.f[i - 1]
    return r.K_inv[i - 1] if inv else r.K[i - 1]


def _element_atom(kind: str, text: str, n: int) -> Element:
    if kind != "monomial":
        raise ContextMix("operator atom in an element expression")
    entries = _ints(text)
    if len(entries) != n:
        raise RankMismatch(f"x^(...) takes {n} entries, got {len(entries)}")
    return Element.monomial(MultiIndex(entries))


def parse_operator(src: str, n: int) -> Operator:
    """Parse operator-context source text at rank n."""
    return _Parser(src, Operator.identity(n), compose,
                   lambda kind, text: _operator_atom(kind, text, n)).parse()


def parse_element(src: str, n: int) -> Element:
    """Parse element-context source text at rank n."""
    return _Parser(src, Element.unit(n), mul,
                   lambda kind, text: _element_atom(kind, text, n)).parse()

