"""Propositional formulas over feature names.

Cross-tree constraints are boolean expressions whose atoms are feature
names. Text form uses ``!``, ``&``, ``|``, ``=>``, ``<=>`` and parentheses,
with precedence NOT > AND > OR > IMPLIES > IFF and right-associative
IMPLIES. `_BINARY` is the one table of the binary operators (symbol, AST
class, truth function, loosest first); the tokenizer, the parser, `render`
and `evaluate` all read it. `render` produces a canonical text that
reparses to the same tree, which is what violation messages and
serialization both use.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable
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

_NOT = "!"

# A row's index is its binding strength; `!` binds tighter than every row,
# and IMPLIES alone is right-associative.
_BINARY = (
    ("<=>", Iff, operator.eq),
    ("=>", Implies, lambda a, b: not a or b),
    ("|", Or, operator.or_),
    ("&", And, operator.and_),
)
_STRENGTH = {cls: level for level, (_, cls, _) in enumerate(_BINARY)}
_STRENGTH |= {Not: len(_BINARY), Var: len(_BINARY) + 1}
_BY_SYMBOL = {symbol: cls for symbol, cls, _ in _BINARY}
_BY_CLASS = {cls: (symbol, truth) for symbol, cls, truth in _BINARY}

# Spaces and tabs are a token of their own, dropped after the match, so an
# unexpected character is reported where it stands, past any padding.
_TOKEN = re.compile(
    r"(?P<pad>[ \t]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>"
    + "|".join(re.escape(symbol) for symbol in (*_BY_SYMBOL, _NOT, "(", ")"))
    + r")|(?P<bad>.)",
    re.DOTALL,
)


def _binary_row(formula: Formula) -> tuple[str, Callable[[bool, bool], bool]]:
    try:
        return _BY_CLASS[type(formula)]
    except KeyError:
        raise TypeError(f"not a formula: {formula!r}") from None


def evaluate(formula: Formula, selected: frozenset[str] | set[str]) -> bool:
    match formula:
        case Var(name):
            return name in selected
        case Not(operand):
            return not evaluate(operand, selected)
    _, truth = _binary_row(formula)
    return truth(evaluate(formula.left, selected), evaluate(formula.right, selected))


def names(formula: Formula) -> frozenset[str]:
    match formula:
        case Var(name):
            return frozenset({name})
        case Not(operand):
            return names(operand)
    _binary_row(formula)
    return names(formula.left) | names(formula.right)


def render(formula: Formula) -> str:
    """Canonical text form; `parse(render(f)) == f`."""

    def wrap(sub: Formula, strength: int) -> str:
        text = render(sub)
        return f"({text})" if _STRENGTH[type(sub)] < strength else text

    match formula:
        case Var(name):
            return name
        case Not(operand):
            return _NOT + wrap(operand, _STRENGTH[Not])
    symbol, _ = _binary_row(formula)
    level = _STRENGTH[type(formula)]
    # an operand as strong as `formula` is parenthesized on the side that does not associate
    right_assoc = type(formula) is Implies
    left = wrap(formula.left, level + right_assoc)
    return f"{left} {symbol} {wrap(formula.right, level + (not right_assoc))}"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of every token, kind "name" or "op"."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {match.group()!r}", match.start())
        if kind != "pad":
            tokens.append((kind, match.group(), match.start()))
    return tokens


def parse(text: str) -> Formula:
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaSyntaxError("empty formula", 0)
    tokens.append(("end", "", len(text)))
    pos = 0

    def binary(strength: int) -> Formula:
        """Precedence climbing: a unary term, then every operator binding at
        least as tight as `strength`, each with its right operand."""
        nonlocal pos
        node = unary()
        while (cls := _BY_SYMBOL.get(tokens[pos][1])) and _STRENGTH[cls] >= strength:
            pos += 1
            level = _STRENGTH[cls]
            node = cls(node, binary(level if cls is Implies else level + 1))
        return node

    def unary() -> Formula:
        nonlocal pos
        kind, token, at = tokens[pos]
        pos += 1
        if kind == "name":
            return Var(token)
        if token == _NOT:
            return Not(unary())
        if token == "(":
            node = binary(0)
            if tokens[pos][1] != ")":
                raise FormulaSyntaxError("expected ')'", tokens[pos][2])
            pos += 1
            return node
        raise FormulaSyntaxError("expected a feature name, '!' or '('", at)

    node = binary(0)
    if tokens[pos][0] != "end":
        raise FormulaSyntaxError("trailing input after formula", tokens[pos][2])
    return node
