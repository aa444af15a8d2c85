"""Every rule a participant can refuse by fires in a pinned run, or says why not.

`rule_names` reads the rule names out of the source with `ast`: the string
constants a function under ``src/stpsim`` returns or assigns to `rule`, and
the rule of each `Rejection(...)` and broker `_rejected(...)` call. Each
must appear as the rule of an ``audit|`` line, or in the cause of the
``end|aborted|`` line, of some machine output that
`tests/test_pinned_outputs.py` pins.
A rule no pinned input fires sits in `ALLOWED`, one line each, with the
reason.
"""

import ast
import re
from pathlib import Path

import stpsim
from stpsim.cli import main
from test_pinned_outputs import PINS, argv_of  # noqa: F401 (the fixture)

SRC = Path(stpsim.__file__).parent
NAME = re.compile(r"[A-Z][A-Za-z]+")

# rule -> why no pinned run fires it
ALLOWED = {
    "UnsupportedOrderType": "no pinned run orders a type its broker does not offer",
    "RestrictedSymbol": "no scenario line can restrict a symbol yet (ROADMAP item 10)",
}

# rules deleted because an earlier participant already refuses every input
# that could reach them
DELETED = ("UnknownBlockOrder", "PriceMismatch", "DuplicateTrade", "UnknownAccount",
           "UnknownClient", "CurrencyMismatch", "UnknownSymbol", "UnknownInstitution",
           "InstitutionMismatch", "MixedBlockOrders", "SymbolMismatch",
           "EmptyEndClientAccount", "DuplicateAllocId")


def _constant(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and NAME.fullmatch(node.value):
        return node.value
    return None


def rule_names():
    """rule -> the first `file:line` that names it."""
    found = {}

    def add(node, where):
        name = _constant(node)
        if name is not None:
            found.setdefault(name, where)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Return) and node.value is not None:
                add(node.value, where)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "rule"
                    for target in node.targets):
                add(node.value, where)
            elif isinstance(node, ast.Call):
                callee = node.func.attr if isinstance(node.func, ast.Attribute) else \
                    getattr(node.func, "id", None)
                if callee == "Rejection" and len(node.args) > 1:
                    add(node.args[1], where)
                elif callee == "_rejected" and node.args:
                    add(node.args[-1], where)
    return found


def fired_rules(argv_of, capsys):
    """Every rule named in an audit or aborted-end line of a pinned machine output."""
    fired = set()
    for row, (argv, *_) in PINS.items():
        if "machine" not in argv:
            continue
        main(argv_of(row))
        for line in capsys.readouterr().out.splitlines():
            fields = line.split("|")
            if fields[0] == "audit" and fields[3] == "rejected":
                fired.add(fields[4])
            elif fields[:2] == ["end", "aborted"]:
                fired.update(re.findall(r"rejected at \w+: (\w+)", line))
    return fired


def test_the_collector_finds_the_rules_of_every_participant():
    names = rule_names()
    for rule, module in (("DuplicateOrder", "broker.py"), ("BlockNotFilled", "broker.py"),
                         ("OrderTooLarge", "exchange.py"), ("TradeValueTooLarge", "clearing.py"),
                         ("NoDetails", "custodian.py"), ("CapOnSell", "trading.py")):
        assert names[rule].startswith(module + ":"), (rule, names.get(rule))


def test_deleted_rules_are_gone_from_the_source():
    names = rule_names()
    assert not [rule for rule in DELETED if rule in names]


def test_every_rule_fires_in_a_pinned_run_or_is_allowed_with_a_reason(argv_of, capsys):
    names = rule_names()
    fired = fired_rules(argv_of, capsys)
    assert fired <= names.keys(), \
        f"a pinned run names a rule the source lacks: {fired - names.keys()}"
    unexplained = {rule: where for rule, where in names.items()
                   if rule not in fired and rule not in ALLOWED}
    assert not unexplained, f"no pinned run fires these, and none is allowed: {unexplained}"
    stale = sorted(rule for rule in ALLOWED if rule in fired or rule not in names)
    assert not stale, f"allowed but fired by a pinned run, or gone from the source: {stale}"
