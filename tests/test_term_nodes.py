"""The contract of formula and test nodes: values compared by exact type,
hashable, immutable, printed as ClassName(field=value, ...) and matched
positionally on their fields."""

import pytest

from rechml import formulas as fm
from rechml import testterms as tm
from rechml.lts import TAU, visible

A = visible("a")


def _nodes():
    """One node of each of the 16 classes, built afresh on each call, with
    its repr."""
    return [
        (fm.Tt(), "Tt()"),
        (fm.Ff(), "Ff()"),
        (fm.Var("X"), "Var(name='X')"),
        (fm.Acc({"a"}), "Acc(actions=frozenset({'a'}))"),
        (fm.Or(fm.Tt(), fm.Ff()), "Or(left=Tt(), right=Ff())"),
        (fm.And(fm.Tt(), fm.Var("X")), "And(left=Tt(), right=Var(name='X'))"),
        (fm.Dia(A, fm.Tt()), "Dia(action=Action(kind='visible', name='a'), body=Tt())"),
        (fm.Box(TAU, fm.Ff()), "Box(action=Action(kind='tau', name=''), body=Ff())"),
        (fm.Min("X", fm.Var("X")), "Min(var='X', body=Var(name='X'))"),
        (fm.Max("Y", fm.Tt()), "Max(var='Y', body=Tt())"),
        (tm.Nil(), "Nil()"),
        (tm.Success(), "Success()"),
        (tm.Prefix(A, tm.Nil()), "Prefix(action=Action(kind='visible', name='a'), body=Nil())"),
        (tm.Var("X"), "Var(name='X')"),
        (tm.Sum(tm.Nil(), tm.Success()), "Sum(left=Nil(), right=Success())"),
        (tm.Mu("X", tm.Var("X")), "Mu(var='X', body=Var(name='X'))"),
    ]


def _positional(node):
    """The values a positional class pattern binds for node."""
    match node:
        case fm.Tt() | fm.Ff() | tm.Nil() | tm.Success():
            return ()
        case fm.Var(name) | tm.Var(name):
            return (name,)
        case fm.Acc(actions):
            return (actions,)
        case fm.Or(left, right) | fm.And(left, right) | tm.Sum(left, right):
            return (left, right)
        case fm.Dia(action, body) | fm.Box(action, body) | tm.Prefix(action, body):
            return (action, body)
        case fm.Min(var, body) | fm.Max(var, body) | tm.Mu(var, body):
            return (var, body)


@pytest.mark.parametrize("index", range(16))
def test_node_contract(index):
    node, text = _nodes()[index]
    twin = _nodes()[index][0]
    assert node is not twin
    assert node == twin and not node != twin
    assert hash(node) == hash(twin)
    assert repr(node) == text
    assert _positional(node) == tuple(vars(node).values())
    # the fields are the constructor's keywords
    assert type(node)(**vars(node)) == node
    for name in (*vars(node), "free", "other"):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert node == twin


def test_equality_needs_the_exact_type():
    pairs = [
        (fm.Dia(A, fm.Tt()), fm.Box(A, fm.Tt())),
        (fm.Min("X", fm.Var("X")), fm.Max("X", fm.Var("X"))),
        (fm.Or(fm.Tt(), fm.Ff()), fm.And(fm.Tt(), fm.Ff())),
        (fm.Tt(), tm.Nil()),
        (fm.Var("X"), tm.Var("X")),
        (fm.Min("X", fm.Tt()), tm.Mu("X", tm.Nil())),
        (tm.Nil(), tm.Success()),
    ]
    for left, right in pairs:
        assert left != right and right != left
        assert not left == right
    assert len({fm.Var("X"), tm.Var("X"), fm.Var("X")}) == 2


def test_extra_positional_subpatterns_are_refused():
    with pytest.raises(TypeError):
        match fm.Var("X"):
            case fm.Var(_, _):
                pass
