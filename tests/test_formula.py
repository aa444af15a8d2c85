import pytest
from hypothesis import given, strategies as st

from stpsim.features import formula as fm


def test_parse_atoms_and_not():
    assert fm.parse("A") == fm.Var("A")
    assert fm.parse("!A") == fm.Not(fm.Var("A"))
    assert fm.parse("!!A") == fm.Not(fm.Not(fm.Var("A")))


def test_precedence_not_and_or():
    # !A & B | C  ==  ((!A) & B) | C
    assert fm.parse("!A & B | C") == fm.Or(
        fm.And(fm.Not(fm.Var("A")), fm.Var("B")), fm.Var("C"))


def test_precedence_or_implies_iff():
    # A | B => C <=> D  ==  ((A | B) => C) <=> D
    assert fm.parse("A | B => C <=> D") == fm.Iff(
        fm.Implies(fm.Or(fm.Var("A"), fm.Var("B")), fm.Var("C")), fm.Var("D"))


def test_implies_right_associative():
    assert fm.parse("A => B => C") == fm.Implies(
        fm.Var("A"), fm.Implies(fm.Var("B"), fm.Var("C")))


def test_parentheses_override():
    assert fm.parse("(A => B) => C") == fm.Implies(
        fm.Implies(fm.Var("A"), fm.Var("B")), fm.Var("C"))


def test_and_left_associative():
    assert fm.parse("A & B & C") == fm.And(fm.And(fm.Var("A"), fm.Var("B")), fm.Var("C"))


@pytest.mark.parametrize("text", ["", "A &", "& A", "A B", "(A", "A)", "A => => B", "A ? B"])
def test_syntax_errors(text):
    with pytest.raises(fm.FormulaSyntaxError):
        fm.parse(text)


@pytest.mark.parametrize("text,selected,expected", [
    ("A => B", set(), True),
    ("A => B", {"A"}, False),
    ("A => B", {"A", "B"}, True),
    ("A <=> B", {"A"}, False),
    ("A <=> B", {"A", "B"}, True),
    ("A <=> B", set(), True),
    ("!A | B", {"A"}, False),
    ("A & !B", {"A"}, True),
])
def test_evaluation(text, selected, expected):
    assert fm.evaluate(fm.parse(text), selected) is expected


def _formulas(names=("A", "B", "C")):
    atoms = st.sampled_from([fm.Var(n) for n in names])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            sub.map(fm.Not),
            st.tuples(sub, sub).map(lambda p: fm.And(*p)),
            st.tuples(sub, sub).map(lambda p: fm.Or(*p)),
            st.tuples(sub, sub).map(lambda p: fm.Implies(*p)),
            st.tuples(sub, sub).map(lambda p: fm.Iff(*p)),
        ),
        max_leaves=12,
    )


@given(_formulas())
def test_render_parse_round_trip(formula):
    assert fm.parse(fm.render(formula)) == formula


@given(_formulas(), st.sets(st.sampled_from(["A", "B", "C"])))
def test_render_preserves_semantics(formula, selected):
    rendered = fm.parse(fm.render(formula))
    assert fm.evaluate(rendered, selected) == fm.evaluate(formula, selected)


def test_names_collects_all_atoms():
    assert fm.names(fm.parse("A & (B => !C) <=> A")) == {"A", "B", "C"}


def test_render_is_readable():
    assert fm.render(fm.parse("LimitOrderType => LimitMatching")) == \
        "LimitOrderType => LimitMatching"


@pytest.mark.parametrize("text,message,column", [
    ("", "empty formula", 1),
    ("A &", "expected a feature name, '!' or '('", 4),
    ("& A", "expected a feature name, '!' or '('", 1),
    ("A B", "trailing input after formula", 3),
    ("(A", "expected ')'", 3),
    ("A)", "trailing input after formula", 2),
    ("A => => B", "expected a feature name, '!' or '('", 6),
    ("A ? B", "unexpected character '?'", 3),
    ("   ", "empty formula", 1),
    ("A => ", "expected a feature name, '!' or '('", 6),
    ("<=>  ", "expected a feature name, '!' or '('", 1),
    ("Aé", "unexpected character 'é'", 2),
])
def test_syntax_error_message_and_column(text, message, column):
    with pytest.raises(fm.FormulaSyntaxError) as caught:
        fm.parse(text)
    assert str(caught.value) == f"{message} (column {column})"
    assert caught.value.position == column - 1


@pytest.mark.parametrize("nots", [101, 5000])
def test_a_long_not_chain_is_refused_at_its_101st_level(nots):
    # the levels open around the atom count up from the first "!", so the
    # atom, at column 102, is the first token nested too deep; a chain of
    # any length must end in this error, not in RecursionError
    with pytest.raises(fm.FormulaSyntaxError) as caught:
        fm.parse("!" * nots + "A")
    assert str(caught.value) == "nested deeper than 100 levels (column 102)"
