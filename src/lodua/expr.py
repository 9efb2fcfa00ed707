"""Parser for the element expression grammar.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' integer)*
    atom   := integer | name | '(' expr ')' | '-' atom

Every failure is a ParseError carrying the offending position.  It is
invalid input, so the CLI exits 3 on a malformed element of a document.
"""

from .errors import InvalidInput
from .poly import Poly


class ParseError(InvalidInput):
    def __init__(self, msg, pos, text):
        super().__init__(f"{msg} at position {pos}: {text!r}")
        self.pos = pos
        self.text = text


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i, text)
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, text, names, dom, nvars):
        self.text = text
        self.toks = _tokenize(text)
        self.k = 0
        self.names = {nm: i for i, nm in enumerate(names)}
        self.dom = dom
        self.nvars = nvars

    def peek(self):
        return self.toks[self.k]

    def take(self, kind=None):
        tok = self.toks[self.k]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[0]}", tok[2], self.text)
        self.k += 1
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], self.text)
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            e = e + t if op == "+" else e - t
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] == "*":
            self.take()
            e = e * self.factor()
        return e

    def factor(self):
        e = self.atom()
        while self.peek()[0] == "^":
            self.take()
            tok = self.take("int")
            e = e ** tok[1]
        return e

    def atom(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            return Poly.const(self.dom, self.nvars, tok[1])
        if tok[0] == "name":
            self.take()
            if tok[1] not in self.names:
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2], self.text)
            return Poly.var(self.dom, self.nvars, self.names[tok[1]])
        if tok[0] == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if tok[0] == "-":
            self.take()
            return -self.atom()
        raise ParseError(f"unexpected token {tok[0]!r}", tok[2], self.text)


def parse_poly(text, names, dom):
    """Parse `text` into a Poly in len(names) variables over `dom`."""
    return _Parser(text, names, dom, len(names)).parse()
