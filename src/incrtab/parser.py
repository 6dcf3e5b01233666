"""Parser for the program file syntax: facts and rules terminated by '.',
table/dynamic directives, ',' conjunction, parenthesized ';' disjunction,
tnot/sk_not negation and the built-ins undefined, =, \\=, atomic/1 and '!'.
"""

from __future__ import annotations

from typing import Optional

from .errors import ParseError
from .program import (
    ATOMIC,
    CUT,
    NOT_UNIFY,
    POS,
    SK_NOT,
    TNOT,
    UNDEFINED,
    UNIFY,
    Clause,
    Literal,
    PredicateDecl,
)
from .terms import Const, Struct, Term, Var

PUNCT = {"(", ")", ",", ".", ";", "!", "/", "|"}


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}:{self.text}@{self.line}:{self.col}"


def tokenize(text: str) -> list:
    tokens: list = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise ParseError("unterminated block comment", line, col)
            skipped = text[i:end + 2]
            line += skipped.count("\n")
            i = end + 2
            continue
        start_line, start_col = line, col
        if c == ":" and text.startswith(":-", i):
            tokens.append(Token("NECK", ":-", start_line, start_col))
            i += 2
            col += 2
            continue
        if c == "\\" and text.startswith("\\=", i):
            tokens.append(Token("OP", "\\=", start_line, start_col))
            i += 2
            col += 2
            continue
        if c == "=":
            tokens.append(Token("OP", "=", start_line, start_col))
            i += 1
            col += 1
            continue
        if c in PUNCT:
            tokens.append(Token(c, c, start_line, start_col))
            i += 1
            col += 1
            continue
        if c == "'":
            j = i + 1
            buf = []
            while j < n and text[j] != "'":
                buf.append(text[j])
                j += 1
            if j >= n:
                raise ParseError("unterminated quoted atom", start_line, start_col)
            tokens.append(Token("ATOM", "".join(buf), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "VAR" if (c.isupper() or c == "_") else "ATOM"
            tokens.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class Directive:
    """One parsed table/dynamic directive covering possibly several predicates."""

    def __init__(self, decls: list):
        self.decls = decls


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.varmap: dict = {}

    # -- token helpers ------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    # -- terms ----------------------------------------------------------

    def parse_term(self) -> Term:
        open_terms: list = []   # (functor, args so far) of unclosed compounds
        while True:
            tok = self.next()
            if tok.kind == "INT":
                term = Const(int(tok.text))
            elif tok.kind == "VAR":
                if tok.text == "_":
                    term = Var("_")
                else:
                    term = self.varmap.get(tok.text)
                    if term is None:
                        term = self.varmap[tok.text] = Var(tok.text)
            elif tok.kind == "ATOM":
                if tok.text.startswith("$"):
                    raise ParseError(f"reserved atom {tok.text!r}", tok.line, tok.col)
                if self.at("("):
                    self.next()
                    open_terms.append((tok.text, []))
                    continue
                term = Const(tok.text)
            else:
                raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)
            while open_terms:
                functor, args = open_terms[-1]
                args.append(term)
                if self.at(","):
                    self.next()
                    break
                self.expect(")")
                open_terms.pop()
                term = Struct(functor, tuple(args))
            else:
                return term

    # -- clause bodies ----------------------------------------------------

    def parse_body(self) -> list:
        """Parse a body expression into a list of alternative literal lists
        (disjunctions are expanded at load)."""
        return self._disjunction()

    def _disjunction(self) -> list:
        branches = self._conjunction()
        while self.at(";"):
            self.next()
            branches = branches + self._conjunction()
        return branches

    def _conjunction(self) -> list:
        alternatives = self._element()
        while self.at(","):
            self.next()
            rhs = self._element()
            alternatives = [a + b for a in alternatives for b in rhs]
        return alternatives

    def _element(self) -> list:
        if self.at("("):
            self.next()
            inner = self._disjunction()
            self.expect(")")
            return inner
        return [[self._literal()]]

    def _literal(self) -> Literal:
        tok = self.peek()
        if tok.kind == "!":
            self.next()
            return Literal(CUT)
        if tok.kind == "ATOM" and tok.text in ("tnot", "sk_not") and self.tokens[self.pos + 1].kind == "(":
            self.next()
            self.next()
            atom = self.parse_term()
            self.expect(")")
            return Literal(TNOT if tok.text == "tnot" else SK_NOT, atom)
        if tok.kind == "ATOM" and tok.text == "undefined" and self.tokens[self.pos + 1].kind != "(":
            self.next()
            return Literal(UNDEFINED)
        if tok.kind == "ATOM" and tok.text == "atomic" and self.tokens[self.pos + 1].kind == "(":
            self.next()
            self.next()
            arg = self.parse_term()
            self.expect(")")
            return Literal(ATOMIC, None, (arg,))
        left = self.parse_term()
        if self.at("OP"):
            op = self.next().text
            right = self.parse_term()
            return Literal(UNIFY if op == "=" else NOT_UNIFY, None, (left, right))
        return Literal(POS, left)

    # -- clauses and directives ------------------------------------------

    def parse_unit(self):
        """Next program unit: Directive, Clause, or None at end of input."""
        if self.at("EOF"):
            return None
        self.varmap = {}
        if self.at("NECK"):
            self.next()
            directive = self._directive()
            self.expect(".")
            return directive
        head = self.parse_term()
        if self.at("NECK"):
            self.next()
            bodies = self.parse_body()
            self.expect(".")
            return [Clause(head, body) for body in bodies]
        self.expect(".")
        return [Clause(head, [])]

    def _pred_indicator(self) -> tuple:
        name = self.expect("ATOM").text
        self.expect("/")
        arity = int(self.expect("INT").text)
        return name, arity

    def _directive(self) -> Directive:
        tok = self.expect("ATOM")
        if tok.text not in ("table", "dynamic"):
            raise ParseError(f"unknown directive {tok.text!r}", tok.line, tok.col)
        is_table = tok.text == "table"
        preds = [self._pred_indicator()]
        while self.at(","):
            # Options also follow commas; predicate indicators are ATOM '/'.
            if self.tokens[self.pos + 1].kind == "ATOM" and self.tokens[self.pos + 2].kind == "/":
                self.next()
                preds.append(self._pred_indicator())
            else:
                break
        incremental = False
        subgoal_abs: Optional[int] = None
        answer_abs: Optional[int] = None
        idg_abs: Optional[int] = None
        if self.at("ATOM", "as"):
            self.next()
            word = self.expect("ATOM")
            if word.text != "incremental":
                raise ParseError(f"unsupported attribute {word.text!r}", word.line, word.col)
            incremental = True
        while self.at(","):
            self.next()
            opt = self.expect("ATOM")
            self.expect("(")
            value = int(self.expect("INT").text)
            self.expect(")")
            if opt.text == "subgoal_abstract" and is_table:
                subgoal_abs = value
            elif opt.text == "answer_abstract" and is_table:
                answer_abs = value
            elif opt.text == "abstract" and not is_table:
                idg_abs = value
            else:
                raise ParseError(f"unsupported option {opt.text!r}", opt.line, opt.col)
        decls = [
            PredicateDecl(
                name,
                arity,
                dynamic=not is_table,
                tabled=is_table,
                incremental=incremental,
                idg_abstraction=idg_abs,
                subgoal_abstraction=subgoal_abs,
                answer_abstraction=answer_abs,
            )
            for name, arity in preds
        ]
        return Directive(decls)

    def parse_program(self) -> list:
        units = []
        while True:
            unit = self.parse_unit()
            if unit is None:
                return units
            units.append(unit)


def parse_program(text: str) -> list:
    """All units of a program text: Directives and lists of Clauses."""
    return Parser(text).parse_program()


def parse_goal(text: str) -> tuple:
    """Parse a query body; returns (list of alternative literal lists,
    query variables in first-occurrence order)."""
    parser = Parser(text.strip().rstrip("."))
    bodies = parser.parse_body()
    if not parser.at("EOF"):
        tok = parser.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return bodies, list(parser.varmap.values())


def parse_clause(text: str) -> Clause:
    """Parse a single fact or rule (for :assert / :retract)."""
    stripped = text.strip()
    if not stripped.endswith("."):
        stripped += "."
    parser = Parser(stripped)
    unit = parser.parse_unit()
    if not isinstance(unit, list) or len(unit) != 1:
        raise ParseError("expected a single clause")
    if not parser.at("EOF"):
        tok = parser.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return unit[0]
