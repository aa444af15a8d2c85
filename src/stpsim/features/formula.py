"""Propositional formulas over feature names.

Cross-tree constraints are boolean expressions whose atoms are feature
names. Text form uses ``!``, ``&``, ``|``, ``=>``, ``<=>`` and parentheses,
with precedence NOT > AND > OR > IMPLIES > IFF and right-associative
IMPLIES. `render` produces a canonical text that reparses to the same tree,
which is what violation messages and serialization both use.
"""

from __future__ import annotations

from dataclasses import dataclass


class FormulaSyntaxError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


Formula = Var | Not | And | Or | Implies | Iff

# binding strength, loosest first; used to place minimal parentheses
_LEVEL = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Var: 6}


def evaluate(formula: Formula, selected: frozenset[str] | set[str]) -> bool:
    match formula:
        case Var(name):
            return name in selected
        case Not(operand):
            return not evaluate(operand, selected)
        case And(left, right):
            return evaluate(left, selected) and evaluate(right, selected)
        case Or(left, right):
            return evaluate(left, selected) or evaluate(right, selected)
        case Implies(left, right):
            return (not evaluate(left, selected)) or evaluate(right, selected)
        case Iff(left, right):
            return evaluate(left, selected) == evaluate(right, selected)
    raise TypeError(f"not a formula: {formula!r}")


def names(formula: Formula) -> frozenset[str]:
    match formula:
        case Var(name):
            return frozenset({name})
        case Not(operand):
            return names(operand)
        case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b):
            return names(a) | names(b)
    raise TypeError(f"not a formula: {formula!r}")


def render(formula: Formula) -> str:
    """Canonical text form; `parse(render(f)) == f`."""

    def wrap(sub: Formula, parent_level: int, tighten: bool = False) -> str:
        level = _LEVEL[type(sub)]
        text = render(sub)
        if level < parent_level or (tighten and level == parent_level):
            return f"({text})"
        return text

    match formula:
        case Var(name):
            return name
        case Not(operand):
            return "!" + wrap(operand, _LEVEL[Not])
        case And(a, b):
            return f"{wrap(a, _LEVEL[And])} & {wrap(b, _LEVEL[And], tighten=True)}"
        case Or(a, b):
            return f"{wrap(a, _LEVEL[Or])} | {wrap(b, _LEVEL[Or], tighten=True)}"
        case Implies(a, b):
            # right-associative: parenthesize an Implies on the left
            return f"{wrap(a, _LEVEL[Implies], tighten=True)} => {wrap(b, _LEVEL[Implies])}"
        case Iff(a, b):
            return f"{wrap(a, _LEVEL[Iff])} <=> {wrap(b, _LEVEL[Iff], tighten=True)}"
    raise TypeError(f"not a formula: {formula!r}")


_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if text.startswith("<=>", i):
            tokens.append(("IFF", "<=>", i))
            i += 3
        elif text.startswith("=>", i):
            tokens.append(("IMPLIES", "=>", i))
            i += 2
        elif ch == "!":
            tokens.append(("NOT", ch, i))
            i += 1
        elif ch == "&":
            tokens.append(("AND", ch, i))
            i += 1
        elif ch == "|":
            tokens.append(("OR", ch, i))
            i += 1
        elif ch == "(":
            tokens.append(("LPAREN", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(("RPAREN", ch, i))
            i += 1
        elif ch in _NAME_START:
            j = i
            while j < len(text) and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> FormulaSyntaxError:
        at = self.tokens[self.pos][2] if self.pos < len(self.tokens) else self.length
        return FormulaSyntaxError(message, at)

    def parse_iff(self) -> Formula:
        node = self.parse_implies()
        while self.peek() == "IFF":
            self.take()
            node = Iff(node, self.parse_implies())
        return node

    def parse_implies(self) -> Formula:
        node = self.parse_or()
        if self.peek() == "IMPLIES":
            self.take()
            return Implies(node, self.parse_implies())
        return node

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.peek() == "OR":
            self.take()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_not()
        while self.peek() == "AND":
            self.take()
            node = And(node, self.parse_not())
        return node

    def parse_not(self) -> Formula:
        if self.peek() == "NOT":
            self.take()
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        kind = self.peek()
        if kind == "NAME":
            return Var(self.take()[1])
        if kind == "LPAREN":
            self.take()
            node = self.parse_iff()
            if self.peek() != "RPAREN":
                raise self.error("expected ')'")
            self.take()
            return node
        raise self.error("expected a feature name, '!' or '('")


def parse(text: str) -> Formula:
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaSyntaxError("empty formula", 0)
    parser = _Parser(tokens, len(text))
    node = parser.parse_iff()
    if parser.peek() is not None:
        raise parser.error("trailing input after formula")
    return node
